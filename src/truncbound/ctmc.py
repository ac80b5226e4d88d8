"""Markov jump processes via their embedded discrete chain.

The jump process with rate rows Q is analyzed entirely through the embedded
chain R(x, y) = Q(x, y) / lambda(x) together with the reward transform
w -> w / lambda.  Equilibrium expectations of the jump process are cycle
ratios of transformed rewards of the embedded chain, so every discrete
bound applies verbatim after the transform; no uniformization is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .bounds import BoundReport, compute_bounds, reward_interval
from .censor import TruncationWorkspace
from .errors import ModelError
from .lyapunov import BoundInputs, DriftReport, drift_excess, verify_drift


@dataclass(frozen=True)
class JumpModel:
    """Conservative rate-matrix model with finite row support.

    ``rate_row(x)`` yields the off-diagonal rates; the diagonal is implied
    (rows of the generator sum to zero).  Every enumerated state must have a
    positive total exit rate.
    """

    name: str
    seed: object
    rate_row: Callable[[object], Iterable[tuple[object, float]]]
    norm: Callable[[object], float]
    states_within: Callable[[float], Iterable]
    rewards: dict

    def exit_rate(self, x) -> float:
        lam = 0.0
        for _, rate in self.rate_row(x):
            if rate < 0:
                raise ModelError(f"negative rate {rate!r} out of state {x!r}")
            lam += rate
        return lam


def embed(jump: JumpModel):
    """Embedded discrete chain: R(x, y) = Q(x, y) / lambda(x), zero diagonal.

    The returned model carries per-state unit weights 1 / lambda so that the
    cycle machinery accumulates holding times rather than step counts.  A
    jump model with a batch ``rate_rows(states) -> (pos, targets, rates)``
    (each state's rates in ``rate_row`` order, same floats) also gets the
    batch ``rows`` hook of :func:`~truncbound.statespace.enumerate_space`;
    its exit rates add left to right, as ``row`` adds them.
    """
    from .models import DiscreteModel  # local import: models builds on ctmc too

    def row(x):
        entries = [(y, r) for y, r in jump.rate_row(x) if r > 0.0]
        lam = sum(r for _, r in entries)
        if lam <= 0.0:
            raise ModelError(f"absorbing state {x!r}: zero exit rate")
        return [(y, r / lam) for y, r in entries]

    def unit_weights(states):
        return np.array([1.0 / jump.exit_rate(s) for s in states])

    rate_rows = getattr(jump, "rate_rows", None)
    rows = None
    if rate_rows is not None:
        def rows(states):
            pos, targets, rates = rate_rows(states)
            keep = np.flatnonzero(rates > 0.0)
            pos, rates = pos[keep], rates[keep]
            lam = np.bincount(pos, weights=rates, minlength=len(states))
            if np.any(lam <= 0.0):
                x = states[int(np.argmax(lam <= 0.0))]
                raise ModelError(f"absorbing state {x!r}: zero exit rate")
            return pos, [targets[j] for j in keep.tolist()], rates / lam[pos]

    return DiscreteModel(
        name=f"{jump.name}-embedded",
        seed=jump.seed,
        row=row,
        norm=jump.norm,
        states_within=jump.states_within,
        rewards=dict(jump.rewards),
        unit_weights=unit_weights,
        rows=rows,
    )


def transform_reward(f: Callable, exit_rate: Callable) -> Callable:
    """Reward transform w -> w / lambda for the embedded chain."""
    return lambda x: float(f(x)) / float(exit_rate(x))


def verify_ctmc_drift(jump: JumpModel, g: Callable, slack: Callable,
                      K, check_region) -> DriftReport:
    """Drift check in generator form, cross-checked against the embedded form.

    The generator inequality sum_{y notin K} Q(x,y) g(y) <= -slack(x) and the
    embedded inequality sum_{y notin K} R(x,y) g(y) <= g(x) - slack(x)/lambda(x)
    are algebraically equivalent; both are evaluated and must flag the same
    states.
    """
    report_q = verify_drift(jump, g, slack, K, check_region)
    embedded = embed(jump)
    slack_t = transform_reward(slack, jump.exit_rate)
    report_r = verify_drift(embedded, g, slack_t, K, check_region)
    if report_q.violations != report_r.violations:
        raise ModelError(
            "generator-form and embedded-form drift checks disagree: "
            f"{len(report_q.violations)} vs {len(report_r.violations)} violations"
        )
    return report_q


def embedded_drift_excess(jump: JumpModel, g, slack, x, exclude=frozenset()) -> float:
    """Drift surplus of the embedded chain at x (diagnostic counterpart)."""
    embedded = embed(jump)
    return drift_excess(embedded, g, transform_reward(slack, jump.exit_rate), x,
                        exclude=exclude)


def ctmc_expectation_bounds(ws: TruncationWorkspace, inputs: BoundInputs,
                            f_A: np.ndarray | None = None, *,
                            stochasticization: str = "row",
                            reward_id: str = "r") -> BoundReport | tuple[float, float]:
    """Bounds on the jump-process equilibrium expectation.

    ``ws`` must be built on the embedded partition (its unit weights carry
    the holding times, so all cycle ratios are automatically expressed in
    process time).  With ``f_A`` omitted this bounds the certificate
    envelope and returns a full report; with an explicit reward vector
    (|f| <= envelope) it returns the certified interval for that reward.
    """
    if f_A is None:
        return compute_bounds(ws, inputs, stochasticization=stochasticization,
                              reward_id=reward_id)
    return reward_interval(ws, inputs, np.asarray(f_A, dtype=float))


def stationary_reconstruction(pi_embedded: np.ndarray, exit_rates: np.ndarray) -> np.ndarray:
    """Jump-process stationary law from the embedded chain's stationary law:
    reweight by holding times 1/lambda and renormalize."""
    nu = pi_embedded / exit_rates
    return nu / nu.sum()
