"""A model written the documented way runs through ``run_pipeline``: two
independent immigration-death species as a plain ``JumpModel`` with drift
data.  Each species is born at rate lam and each molecule dies at rate mu,
so the equilibrium is Poisson(x*) x Poisson(x*) with x* = lam / mu, and
E[x1 + x2] = 2 lam / mu is known exactly."""

import math

import mpmath
import numpy as np
import pytest

from truncbound import DriftData, JumpModel
from truncbound.pipeline import run_pipeline
from truncbound.statespace import batched


def immigration_death(lam: float, mu: float = 1.0) -> JumpModel:
    """The model, with g1 = g2 = (x1 - x*)^2 + (x2 - x*)^2 against r = x1 + x2.

    The generator drift of g is -2 mu g + 2 lam + mu (x1 + x2), and
    g >= (s - 2x*)^2 / 2 for s = x1 + x2, so both drifts hold outside norm
    2x* + t, where mu t^2 = (1 + mu)(t + 2x*) + 2 lam + 1.  r does not
    dominate the exit rate 2 lam + mu s, so rate domination is skipped."""
    xs = lam / mu

    def rate_rows(states):
        s = np.asarray(states, dtype=np.int64).reshape(-1, 2)
        x1, x2 = s[:, 0], s[:, 1]
        every, down1, down2 = np.arange(len(s)), np.flatnonzero(x1), np.flatnonzero(x2)
        pos = np.concatenate([every, every, down1, down2])
        t1 = np.concatenate([x1 + 1, x1, x1[down1] - 1, x1[down2]])
        t2 = np.concatenate([x2, x2 + 1, x2[down1], x2[down2] - 1])
        rates = np.concatenate([np.full(2 * len(s), lam),
                                mu * x1[down1].astype(float), mu * x2[down2].astype(float)])
        return pos, np.column_stack([t1, t2]), rates

    def states_within(radius):
        return np.array([(x1, n - x1) for n in range(int(radius) + 1) for x1 in range(n + 1)],
                        dtype=np.int64)

    c = (1 + mu) * 2 * xs + 2 * lam + 1
    t = ((1 + mu) + math.sqrt((1 + mu) ** 2 + 4 * mu * c)) / (2 * mu)
    n = math.ceil(2 * xs + t)
    g = batched(lambda s: (s[0] - xs) * (s[0] - xs) + (s[1] - xs) * (s[1] - xs))
    return JumpModel(
        name=f"imdeath({lam:g},{mu:g})", seed=(0, 0), rate_rows=rate_rows,
        norm=lambda s: float(s[0] + s[1]), states_within=states_within,
        drift=DriftData(g1=g, g2=g, r=batched(lambda s: 1.0 * (s[0] + s[1])), n1=n, n2=n,
                        skip_rate_domination=True, shared_return_set=True))


def run(lam: float, level: int):
    with pytest.warns(UserWarning, match="does not dominate the exit rate"):
        return run_pipeline(immigration_death(lam), {"kind": "simplex", "level": level},
                            envelopes=["r", "e"])


def l1_to_equilibrium(distribution, lam: float) -> mpmath.mpf:
    """sum over A of |approx - exact| plus the exact mass outside A, in
    extended precision, for the law Poisson(lam) x Poisson(lam)."""
    space, mass = distribution
    with mpmath.workdps(40):
        top = int(space.coords.max())
        poisson = [mpmath.exp(-lam) * mpmath.power(lam, k) / mpmath.factorial(k)
                   for k in range(top + 1)]
        exact = [poisson[x1] * poisson[x2] for x1, x2 in space.coords.tolist()]
        inside = mpmath.fsum(abs(mpmath.mpf(float(m)) - e) for m, e in zip(mass, exact))
        return inside + (1 - mpmath.fsum(exact))


@pytest.mark.parametrize("level", [100, 200])
def test_jump_model_runs_through_the_pipeline_and_contains_the_truth(level):
    result = run(20.0, level)
    rep_r, rep_e = result.reports["r"], result.reports["e"]
    assert len(result.certificates["r"][0].return_set) == 188
    assert result.certificates["e"][0].return_set == result.certificates["r"][0].return_set
    assert rep_r.lower <= 40.0 <= rep_r.upper
    assert abs(rep_r.approx - 40.0) <= rep_r.tv_bound
    assert l1_to_equilibrium(result.distribution, 20.0) <= rep_e.tv_bound


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the certified interval "
                   "[119.99999999999991, 119.99999999999994] misses 120 by 4 ulps")
def test_jump_model_interval_contains_the_truth_at_scale():
    rep_r = run(60.0, 360).reports["r"]
    assert rep_r.lower <= 120.0 <= rep_r.upper
