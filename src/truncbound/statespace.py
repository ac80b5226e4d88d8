"""State enumeration and the block partition over (K, A', exterior boundary).

States are hashable, orderable model objects (ints, tuples of ints).  The
dense indexing puts the return set K in a contiguous leading block followed
by A' = A - K, each sorted lexicographically for reproducibility.  Exterior
mass is kept as per-state boundary rows: only the finitely many states
reachable in one step outside A are ever materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable, Hashable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import EnumerationLimitError, ModelError

State = Hashable

DEFAULT_ENUMERATION_CAP = 50_000_000
ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class StateSpace:
    """Bijection between structured states and dense indices, K first."""

    states: tuple
    k_size: int

    @property
    def a_size(self) -> int:
        return len(self.states)

    def index_of(self, state: State) -> int:
        return self._index[state]

    def in_k(self, state: State) -> bool:
        idx = self._index.get(state)
        return idx is not None and idx < self.k_size

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}


@dataclass
class Partition:
    """Block partition of the transition matrix over (K, A', boundary).

    ``P11, P12, P21, P22`` are the within-A blocks in CSR form; ``boundary``
    maps each A-index to its list of ``(exterior_state, probability)``
    transitions.  Exterior blocks over A^c are never formed.
    """

    space: StateSpace
    P11: sp.csr_matrix
    P12: sp.csr_matrix
    P21: sp.csr_matrix
    P22: sp.csr_matrix
    boundary: tuple
    unit: np.ndarray    # per-state "time" weight; ones for DTMC rows

    @property
    def k_size(self) -> int:
        return self.space.k_size

    @property
    def a_size(self) -> int:
        return self.space.a_size

    def evaluate(self, fn: Callable[[State], float]) -> np.ndarray:
        """Evaluate a state function on all of A in dense-index order."""
        return np.array([float(fn(s)) for s in self.space.states])

    def boundary_overflow(self, fn: Callable[[State], float]) -> np.ndarray:
        """Exact exterior overflow ``h(x) = sum_{y not in A} P(x, y) fn(y)``."""
        h = np.zeros(self.a_size)
        for i, entries in enumerate(self.boundary):
            if entries:
                h[i] = sum(p * float(fn(y)) for y, p in entries)
        return h

    def full_matrix(self) -> sp.csr_matrix:
        """The within-A matrix with K-first ordering (blocks reassembled)."""
        top = sp.hstack([self.P11, self.P12], format="csr")
        bot = sp.hstack([self.P21, self.P22], format="csr")
        return sp.vstack([top, bot], format="csr")


def enumerate_space(
    model,
    a_predicate: Callable[[State], bool],
    k_predicate: Callable[[State], bool],
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[StateSpace, Partition]:
    """Breadth-first enumeration of A from the model seed, with block partition.

    ``k_predicate`` must imply ``a_predicate``; the set satisfying
    ``a_predicate`` must be finite and reachable from ``model.seed``.

    The search expands a whole frontier at a time through the model's batch
    row hook ``rows(states) -> (pos, targets, p)``: entry ``j`` is the
    transition from ``states[pos[j]]`` to ``targets[j]`` with mass ``p[j]``,
    and the entries of each state appear in the order and with the floats
    that ``row`` gives for it (states may interleave).  Models that define
    only ``row`` are adapted here, so both forms are validated identically:
    masses must be finite and not below ``-ROW_SUM_TOL``, and every row must
    sum to one within ``ROW_SUM_TOL``.  ``a_predicate`` is called once per
    distinct state reached, not once per edge.

    Raises :class:`EnumerationLimitError` when the cap is exceeded and
    :class:`ModelError` for invalid rows or an empty K.
    """
    found, src, dst, p, exterior = _explore(model, a_predicate, cap)
    space = _k_first_space(sorted(found), k_predicate)
    index = space._index
    new = np.fromiter(map(index.__getitem__, found), dtype=np.intp, count=len(found))
    boundary = [()] * space.a_size
    for i, entries in exterior.items():
        boundary[new[i]] = tuple(entries)
    weigher = getattr(model, "unit_weights", None)
    unit = np.ones(space.a_size) if weigher is None \
        else np.asarray(weigher(space.states), dtype=float)
    if unit.shape != (space.a_size,) or np.any(unit <= 0) or not np.all(np.isfinite(unit)):
        raise ModelError("unit weights must be positive and finite over A")
    n = space.a_size
    P = sp.csr_matrix((p, (new[src], new[dst])), shape=(n, n))   # duplicates add
    return space, _partition(space, P, tuple(boundary), unit)


def repartition(part: Partition, k_predicate: Callable[[State], bool],
                ) -> tuple[StateSpace, Partition]:
    """The same truncation set partitioned over another return set.

    Rows and columns of ``part``'s operator are permuted K-first and no mass
    is recomputed, so blocks, boundary and unit weights equal those of a
    fresh :func:`enumerate_space` with ``k_predicate`` bit for bit (up to the
    order in which a row's repeated targets were added).
    """
    old = part.space
    space = _k_first_space(sorted(old.states), k_predicate)
    perm = np.fromiter(map(old.index_of, space.states), dtype=np.intp, count=space.a_size)
    P = part.full_matrix()[perm]          # rows in the new order
    new = np.empty_like(perm, dtype=P.indices.dtype)
    new[perm] = np.arange(space.a_size)
    P.indices = new[P.indices]            # and the columns
    P.sort_indices()
    boundary = tuple(part.boundary[i] for i in perm)
    return space, _partition(space, P, boundary, part.unit[perm])


def _row_batches(model, name: str = "row") -> Callable:
    """The model's batch row hook ``<name>s`` (``rows``, or ``rate_rows`` of a
    jump model); a model with only ``<name>`` gets a loop over it."""
    rows = getattr(model, name + "s", None)
    if rows is not None:
        return rows
    row = getattr(model, name)

    def rows(states):
        pos, targets, p = [], [], []
        for i, x in enumerate(states):
            for y, q in row(x):
                pos.append(i)
                targets.append(y)
                p.append(q)
        return pos, targets, p

    return rows


def is_jump(model) -> bool:
    """A model is a jump process iff it defines ``rate_row``; its batch form
    ``rate_rows`` is optional, as ``rows`` is for ``row``."""
    return hasattr(model, "rate_row")


def _rate_batches(jump) -> Callable:
    """The jump model's rate rows, checked, with their exit rates:
    ``states -> (pos, targets, rates, exit_rates)``.

    Every rate must be finite and nonnegative and every exit rate positive;
    each state's rates add left to right in entry order.
    """
    rate_rows = _row_batches(jump, "rate_row")

    def rows(states):
        pos, targets, rates = rate_rows(states)
        pos = np.asarray(pos, dtype=np.intp)
        rates = np.asarray(rates, dtype=float)
        bad = ~((rates >= 0.0) & (rates < np.inf))
        if bad.any():
            j = int(np.argmax(bad))
            raise ModelError(f"invalid rate {float(rates[j])!r} out of state {states[pos[j]]!r}")
        lam = np.bincount(pos, weights=rates, minlength=len(states))
        if np.any(lam <= 0.0):
            x = states[int(np.argmax(lam <= 0.0))]
            raise ModelError(f"absorbing state {x!r}: zero exit rate")
        return pos, targets, rates, lam

    return rows


def _check_rows(states, pos: np.ndarray, targets, p: np.ndarray) -> None:
    """Reject the first state (in batch order) with an invalid mass or row sum."""
    m = len(states)
    try:
        sums = np.bincount(pos, weights=p, minlength=m)  # adds each row in entry order
    except ValueError:
        sums = None
    if sums is None or len(sums) != m or len(targets) != len(p):
        raise ModelError("batch row hook returned entries that do not match its states")
    # one pass for valid batches: NaN and -inf fail the minimum, +inf the sums
    if np.abs(sums - 1.0).max() <= ROW_SUM_TOL and (not p.size or p.min() >= -ROW_SUM_TOL):
        return
    bad_entry = ~np.isfinite(p) | (p < -ROW_SUM_TOL)
    bad_state = ~(np.abs(sums - 1.0) <= ROW_SUM_TOL)
    bad_state[pos[bad_entry]] = True
    i = int(np.argmax(bad_state))
    entry = np.flatnonzero(bad_entry & (pos == i))
    if entry.size:
        raise ModelError(
            f"invalid transition probability {float(p[entry[0]])!r} from state {states[i]!r}"
        )
    raise ModelError(
        f"row of state {states[i]!r} sums to {float(sums[i])!r}, not 1 within {ROW_SUM_TOL}"
    )


def _explore(model, a_predicate, cap):
    """Frontier-batched search of A.

    Returns the states of A in discovery order, the within-A edges with
    nonzero mass as discovery ids (``src``, ``dst``) and masses ``p``, each
    row's edges in row order, and the nonzero exterior entries per source id.
    """
    seed = model.seed
    if not a_predicate(seed):
        raise ModelError("seed state does not satisfy the truncation predicate")
    rows = _row_batches(model)
    ids = {seed: 0}              # states of A -> discovery id
    found = [seed]
    outside = set()              # states reached but rejected by a_predicate
    src, dst, mass = [], [], []
    exterior: dict[int, list] = {}
    start = 0
    while start < len(found):
        frontier = found[start:]
        pos, targets, p = rows(frontier)
        pos = np.asarray(pos, dtype=np.intp)
        p = np.asarray(p, dtype=float)
        _check_rows(frontier, pos, targets, p)
        d = np.fromiter(map(ids.get, targets, repeat(-1)), dtype=np.intp, count=len(p))
        for j in np.flatnonzero(d < 0).tolist():   # new states and exits from A
            y = targets[j]
            i = ids.get(y)
            if i is None and y not in outside:
                if a_predicate(y):
                    i = ids[y] = len(found)
                    found.append(y)
                    if len(found) > cap:
                        raise EnumerationLimitError(
                            f"enumeration cap of {cap} states exceeded; "
                            "check the truncation predicate"
                        )
                else:
                    outside.add(y)
            if i is not None:
                d[j] = i
            elif p[j] != 0.0:
                exterior.setdefault(start + int(pos[j]), []).append((y, float(p[j])))
        src.append(pos + start)
        dst.append(d)
        mass.append(p)
        start += len(frontier)
    src, dst, p = np.concatenate(src), np.concatenate(dst), np.concatenate(mass)
    inner = (dst >= 0) & (p != 0.0)
    return found, src[inner], dst[inner], p[inner], exterior


def _k_first_space(states: list, k_predicate) -> StateSpace:
    """K, then A', each in the order of the sorted ``states``."""
    k_states = list(filter(k_predicate, states))
    if not k_states:
        raise ModelError("return set K is empty on the enumerated truncation set")
    k_set = set(k_states)
    a_prime = [s for s in states if s not in k_set]
    return StateSpace(states=tuple(k_states) + tuple(a_prime), k_size=len(k_states))


def _partition(space: StateSpace, P: sp.csr_matrix, boundary: tuple,
               unit: np.ndarray) -> Partition:
    """Blocks of the K-first operator ``P`` (canonical CSR)."""
    k = space.k_size
    return Partition(
        space=space,
        P11=P[:k, :k].tocsr(),
        P12=P[:k, k:].tocsr(),
        P21=P[k:, :k].tocsr(),
        P22=P[k:, k:].tocsr(),
        boundary=boundary,
        unit=unit,
    )


def explicit_k_predicate(k_states: Sequence[State]) -> Callable[[State], bool]:
    ks = set(k_states)
    return lambda s: s in ks
