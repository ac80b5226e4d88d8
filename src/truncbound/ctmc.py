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

from .lyapunov import DriftData
from .models import DiscreteModel, Model
from .statespace import _rate_rows


@dataclass(frozen=True)
class JumpModel(Model):
    """Conservative rate-matrix model with finite row support.

    ``rate_rows(states) -> (pos, targets, rates)`` gives the off-diagonal
    rates ``Q(x, y)`` of the states at the coordinates ``states``, laid out
    as :func:`~truncbound.statespace.explore` lays out rows; the diagonal is
    implied (rows of the generator sum to zero).  Rates must be finite and
    nonnegative, and every state reached must have a positive exit rate.
    ``drift`` holds the data of its certificates, checked in generator form.
    """

    name: str
    seed: object
    rate_rows: Callable
    states_within: Callable[[float], Iterable]
    drift: DriftData | None


def exit_rate(jump, x) -> float:
    """Total rate ``lambda(x)`` out of ``x``, checked as :func:`embed` checks it."""
    return float(_rate_rows(jump, [x])[3][0])


def embed(jump):
    """Embedded discrete chain: R(x, y) = Q(x, y) / lambda(x), zero diagonal.

    ``rows`` reads the jump model's ``rate_rows`` and raises
    :class:`ModelError` at a rate that is not finite or is negative and at a
    zero exit rate.  The unit weights 1 / lambda, ``rows``' fourth array, make
    the cycle machinery accumulate holding times rather than step counts.
    """
    def rows(states):
        pos, targets, rates, lam = _rate_rows(jump, states)
        keep = np.flatnonzero(rates > 0.0)
        pos, rates = pos[keep], rates[keep]
        return pos, targets[keep], rates / lam[pos], 1.0 / lam

    return DiscreteModel(name=f"{jump.name}-embedded", seed=jump.seed, rows=rows,
                         states_within=jump.states_within, drift=None)
