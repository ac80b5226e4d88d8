"""Markov jump processes via their embedded discrete chain.

The jump process with rate rows Q is analyzed entirely through the embedded
chain R(x, y) = Q(x, y) / lambda(x), whose unit weights 1 / lambda carry the
reward transform w -> w / lambda.  Equilibrium expectations of the jump
process are cycle ratios of transformed rewards of the embedded chain, so
every discrete bound applies verbatim after the transform; no
uniformization is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .statespace import _rate_batches


@dataclass(frozen=True)
class JumpModel:
    """Conservative rate-matrix model with finite row support.

    ``rate_row(x)`` yields the off-diagonal rates ``(y, Q(x, y))``; the
    diagonal is implied (rows of the generator sum to zero).  Rates must be
    finite and nonnegative, and every state reached must have a positive
    exit rate.  A model class may add the batch form ``rate_rows`` (see
    :func:`embed`).
    """

    name: str
    seed: object
    rate_row: Callable[[object], Iterable[tuple[object, float]]]
    norm: Callable[[object], float]
    states_within: Callable[[float], Iterable]
    rewards: dict


def exit_rate(jump, x) -> float:
    """Total rate ``lambda(x)`` out of ``x``, checked as :func:`embed` checks it."""
    return float(_rate_batches(jump)([x])[3][0])


def embed(jump):
    """Embedded discrete chain: R(x, y) = Q(x, y) / lambda(x), zero diagonal.

    ``rows`` reads the jump model's rate rows (``rate_rows``, or a loop over
    ``rate_row``) and raises :class:`ModelError` at a rate that is not
    finite or is negative and at a zero exit rate; ``row`` is ``rows`` of
    one state.  The unit weights 1 / lambda make the cycle machinery
    accumulate holding times rather than step counts.
    """
    from .models import DiscreteModel  # local import: models builds on ctmc too

    rate_rows = _rate_batches(jump)

    def rows(states):
        pos, targets, rates, lam = rate_rows(states)
        keep = np.flatnonzero(rates > 0.0)
        pos, rates = pos[keep], rates[keep]
        return pos, [targets[j] for j in keep.tolist()], rates / lam[pos]

    def row(x):
        _, targets, p = rows([x])
        return list(zip(targets, p.tolist()))

    return DiscreteModel(
        name=f"{jump.name}-embedded",
        seed=jump.seed,
        row=row,
        norm=jump.norm,
        states_within=jump.states_within,
        rewards=dict(jump.rewards),
        unit_weights=lambda states: 1.0 / rate_rows(states)[3],
        rows=rows,
    )


def stationary_reconstruction(pi_embedded: np.ndarray, exit_rates: np.ndarray) -> np.ndarray:
    """Jump-process stationary law from the embedded chain's stationary law:
    reweight by holding times 1/lambda and renormalize."""
    nu = pi_embedded / exit_rates
    return nu / nu.sum()
