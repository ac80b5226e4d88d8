"""Independent immigration-death species, written as a plain ``JumpModel``
with drift data: the model of the jump-model gates, which know its
equilibrium exactly.  Each of the d species is born at rate lam and each
molecule dies at rate mu, so the equilibrium is Poisson(x*)^d with
x* = lam / mu, and E[x1 + ... + xd] = d lam / mu."""

import math

import mpmath
import numpy as np

from truncbound import DriftData, JumpModel
from truncbound.statespace import batched


def immigration_death(lam: float, mu: float = 1.0, d: int = 2) -> JumpModel:
    """The model of ``d`` species, with g1 = g2 = g = sum_i (x_i - x*)^2
    against r = s = x1 + ... + xd.

    The generator drift of g is -2 mu g + d lam + mu s, and
    g >= (s - d x*)^2 / d, so both drifts hold outside norm d x* + t, where
    (2 mu / d) t^2 = d lam + (1 + mu)(t + d x*) + 1.  Each state's rate row
    holds the births of species 1..d, then their deaths.  r does not
    dominate the exit rate d lam + mu s, so rate domination is skipped."""
    xs = lam / mu
    unit = np.eye(d, dtype=np.int64)

    def rate_rows(states):
        s = np.asarray(states, dtype=np.int64).reshape(-1, d)
        down = [np.flatnonzero(s[:, i]) for i in range(d)]
        pos = np.concatenate([np.arange(len(s))] * d + down)
        targets = np.concatenate([s + unit[i] for i in range(d)]
                                 + [s[down[i]] - unit[i] for i in range(d)])
        rates = np.concatenate([np.full(d * len(s), lam)]
                               + [mu * s[down[i], i].astype(float) for i in range(d)])
        return pos, targets, rates

    def states_within(radius):
        """The states of norm at most ``radius``, by norm, then in lexicographic order."""
        grid = np.indices((int(radius) + 1,) * d, dtype=np.int64).reshape(d, -1).T
        grid = grid[grid.sum(axis=1) <= radius]     # lexicographic: a stable sort by norm
        return grid[np.argsort(grid.sum(axis=1), kind="stable")]    # keeps it within a norm

    a = 2 * mu / d
    c = (1 + mu) * d * xs + d * lam + 1
    t = ((1 + mu) + math.sqrt((1 + mu) ** 2 + 4 * a * c)) / (2 * a)
    n = math.ceil(d * xs + t)
    g = batched(lambda s: sum((x - xs) * (x - xs) for x in s))    # left to right
    return JumpModel(
        name=f"imdeath({lam:g},{mu:g})" if d == 2 else f"imdeath({lam:g},{mu:g},d={d})",
        seed=(0,) * d, rate_rows=rate_rows,
        states_within=states_within,
        drift=DriftData(g1=g, g2=g, r=batched(lambda s: 1.0 * sum(s)), n1=n, n2=n,
                        skip_rate_domination=True, shared_return_set=True))


def l1_to_equilibrium(distribution, lam: float) -> mpmath.mpf:
    """sum over A of |approx - exact| plus the exact mass outside A, in
    extended precision, for the law Poisson(lam)^d of the states' width d."""
    space, mass = distribution
    with mpmath.workdps(40):
        top = int(space.coords.max())
        poisson = [mpmath.exp(-lam) * mpmath.power(lam, k) / mpmath.factorial(k)
                   for k in range(top + 1)]
        exact = [mpmath.fprod(poisson[x] for x in state) for state in space.coords.tolist()]
        inside = mpmath.fsum(abs(mpmath.mpf(float(m)) - e) for m, e in zip(mass, exact))
        return inside + (1 - mpmath.fsum(exact))
