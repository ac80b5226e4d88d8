"""State enumeration and the block partition over (K, A', exterior boundary).

A state is an int or a tuple of two or more ints, all of one length.  Inside
the library a set of states is an ``(n, d)`` int64 array of coordinates
(d = 1 for ints), each state with one int64 key (:func:`_keys`) ordered as the
states are; model hooks exchange such arrays, a :func:`batched` function is
evaluated on a whole table in one call, and Python states exist only at the
edges (``StateSpace.states``, messages).  The dense indexing puts the return
set K first, then A' = A - K, each sorted by state; exterior mass is kept as
arrays of exits (owner, exterior state, mass) into a shared value table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .errors import EnumerationLimitError, ModelError

State = Hashable

DEFAULT_ENUMERATION_CAP = 50_000_000
ROW_SUM_TOL = 1e-12
ROW_BLOCK = 2048    # states whose rows explore reads at once: bounds its temporaries


def batched(fn: Callable) -> Callable:
    """Mark a state function written in array form: coordinate columns of m
    states (``(d, m)``, 1-D when d = 1) to their m values, one state to its
    value; only correctly rounded operations, so values are batch-independent."""
    fn.batched = True
    return fn


def _apply(fn: Callable, coords: np.ndarray, kind: type) -> np.ndarray:
    """``fn`` at each row of ``coords`` as ``kind`` (float or bool): one
    call of a :func:`batched` function on two or more states (on one, a
    Python call is cheaper and gives the same value), else one per state."""
    if not getattr(fn, "batched", False) or len(coords) == 1:
        return np.array([kind(fn(s)) for s in _objects(coords)], dtype=kind)
    out = np.asarray(fn(coords[:, 0] if coords.shape[1] == 1 else coords.T), dtype=kind)
    return out if out.ndim else np.full(len(coords), out)


def _coords(states, d: int | None = None, source: str = "the caller") -> np.ndarray:
    """States, or their coordinate rows, as an ``(n, d)`` int64 array from ``source``."""
    if type(states) is np.ndarray and states.dtype == np.int64 and states.ndim == 2 \
            and states.shape[1] == (d or states.shape[1]):
        return states
    a = np.asarray(states if isinstance(states, np.ndarray) else list(states))
    if a.size and a.dtype.kind not in "iu" or a.ndim > 2:
        raise ModelError("states must be ints or int tuples of one length")
    width = a.shape[1] if a.ndim == 2 else 1
    if a.size and width != (d or width):
        raise ModelError(f"states from {source} have {width} coordinates, not {d}")
    return a.astype(np.int64, copy=False).reshape(len(a), d or width)


def _keys(coords: np.ndarray) -> np.ndarray:
    """One int64 per row, in the order of the states: an int state itself; a
    tuple's first coordinate, then each further one offset into a bit field."""
    keys, d = coords[:, 0], coords.shape[1]
    if d == 1:
        return keys
    bits = 63 // d
    half = 1 << (bits - 1)
    if coords.size and (coords.min() < -half or coords.max() >= half):
        raise ModelError(f"a state coordinate lies outside [{-half}, {half}), "
                         f"the range keyed for states of {d} coordinates")
    for column in coords.T[1:]:
        keys = (keys << bits) + (column + half)
    return keys


def _first_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of ``keys`` in order of first occurrence, and where each id first occurs."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse], np.sort(first)


def _objects(coords: np.ndarray) -> list:
    """The Python states (ints, or tuples) of coordinate rows."""
    return coords[:, 0].tolist() if coords.shape[1] == 1 else list(map(tuple, coords.tolist()))


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Dense indices of states, K first: ``coords`` holds one state per row.
    Two spaces are equal only if they are the same object."""

    coords: np.ndarray
    k_size: int

    @property
    def a_size(self) -> int:
        return len(self.coords)

    @cached_property
    def states(self) -> tuple:
        """The Python states (ints, or int tuples) in index order."""
        return tuple(_objects(self.coords))

    @cached_property
    def states_repr(self) -> str:
        """``repr(self.states)``, joined from the coordinates."""
        n, d = self.coords.shape
        item = "%d" if d == 1 else f"({', '.join(['%d'] * d)})"
        body = ", ".join([item] * n) % tuple(self.coords.ravel().tolist())
        return f"({body},)" if n == 1 else f"({body})"


@dataclass
class Partition:
    """Block partition of the transition matrix over (K, A', exterior).

    ``P11, P12, P21, P22`` are the within-A blocks in CSR form.  ``table`` is
    a value table (see :func:`_values`) that holds A's states at the ids
    ``ids`` and A's exterior targets; ``exits`` lists the mass that leaves A
    as three arrays, each row's entries in row order: the owning A index,
    the exterior state's id in ``table`` and the mass.  Exterior blocks over
    A^c are never formed.
    """

    space: StateSpace
    P11: sp.csr_matrix
    P12: sp.csr_matrix
    P21: sp.csr_matrix
    P22: sp.csr_matrix
    unit: np.ndarray    # per-state "time" weight; ones for DTMC rows
    table: tuple
    ids: np.ndarray
    exits: tuple

    @property
    def k_size(self) -> int:
        return self.space.k_size

    @property
    def a_size(self) -> int:
        return self.space.a_size

    def evaluate(self, fn: Callable[[State], float]) -> np.ndarray:
        """Evaluate a state function on all of A in dense-index order."""
        return _values(self.table, fn, self.ids)[self.ids]

    def boundary_overflow(self, fn: Callable[[State], float]) -> np.ndarray:
        """Exact exterior overflow ``h(x) = sum_{y not in A} P(x, y) fn(y)``,
        each row's terms added in exit order."""
        rows, at, p = self.exits
        return np.bincount(rows, weights=p * _values(self.table, fn, at)[at],
                           minlength=self.a_size)

    def full_matrix(self) -> sp.csr_matrix:
        """The within-A matrix with K-first ordering (blocks reassembled)."""
        return sp.bmat([[self.P11, self.P12], [self.P21, self.P22]], format="csr")


class Exploration:
    """A truncation set explored from the seed by :func:`explore`, from which
    :func:`cut` derives the partition of any truncation set nested in it.

    Every state the seed reaches has an id, its row of ``coords``: first the
    set's, the seed at 0 and the rest in the order met, listed in sorted state
    order by ``order`` with their unit weights ``unit``, then those outside
    it that their rows reach.  ``src``, ``dst`` and ``p`` hold every row
    entry of the set's states, each row's in row order.
    """

    def __init__(self, coords, order, unit, src, dst, p):
        self.coords, self.order, self.unit = coords, order, unit
        self.src, self.dst, self.p = src, dst, p
        self.table = coords, {}    # shared by the partitions cut from here


def _values(table: tuple[np.ndarray, dict], fn: Callable[[State], float],
            at: np.ndarray) -> np.ndarray:
    """``fn`` over a table's states (their coordinates and a memo), evaluated
    at the ids ``at`` where it was not before; each state is evaluated once."""
    coords, memo = table
    vals, done = memo.setdefault(fn, (np.zeros(len(coords)), np.zeros(len(coords), dtype=bool)))
    need = np.zeros(len(coords), dtype=bool)
    need[at] = True
    todo = np.flatnonzero(need & ~done)
    vals[todo] = _apply(fn, coords[todo], float)
    done[todo] = True
    return vals


def enumerate_space(model, a_predicate: Callable[[State], bool],
                    k_predicate: Callable[[State], bool], *,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> tuple[StateSpace, Partition]:
    """A, the states of ``a_predicate``'s finite set that the seed reaches, with
    its block partition over ``k_predicate``'s return set in A: the :func:`cut`
    of the set's own :func:`explore`."""
    return cut(explore(model, a_predicate, cap=cap), a_predicate, k_predicate)


def explore(model, a_predicate: Callable[[State], bool], *, cap: int) -> Exploration:
    """Frontier-batched search of the set of ``a_predicate`` from the seed.

    The first frontier is the seed plus, if the predicate declares the norm
    ball it describes as ``a_predicate.radius``, the ball's states
    (``model.states_within``) that meet it; new targets that meet it form
    the next.  Rows are read ``ROW_BLOCK`` states at a time by the row hook
    ``rows(states) -> (pos, targets, p[, unit])``: entry ``j`` goes from
    ``states[pos[j]]`` to ``targets[j]`` with mass ``p[j]``, each state's in
    row order; ``unit`` holds unit weights (else ones).  Every frontier
    state, the ball's too, counts against the cap (else
    :class:`EnumerationLimitError`) and has its row checked as drift checks
    do (else :class:`ModelError`); the ball's states the seed cannot reach
    are then dropped.  ``a_predicate`` is called once per state met.
    """
    seed = _coords([model.seed])
    if not _apply(a_predicate, seed, bool)[0]:
        raise ModelError("seed state does not satisfy the truncation predicate")
    # known: the sorted keys of the states met; ids: theirs, 0 .. n-1 in the set, -1 - j outside
    known, ids, n = _keys(seed), np.zeros(1, dtype=np.intp), 1
    found, outside, units, entries, done = [seed], [], [], [], 0   # found[done:]: the frontier

    def meet(states: np.ndarray) -> np.ndarray:     # their ids; new ones numbered by key
        nonlocal known, ids, n
        keys = _keys(states)
        at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        out, miss = ids[at], np.flatnonzero(known[at] != keys)
        if miss.size:
            new, first = np.unique(keys[miss], return_index=True)
            states = states[miss[first]]
            held = _apply(a_predicate, states, bool)
            at = np.searchsorted(known, new)    # len(known) - n states lie outside so far
            ids = np.insert(ids, at, np.where(held, n - 1 + np.cumsum(held),
                                              n - len(known) - np.cumsum(~held)))
            known = np.insert(known, at, new)
            found.append(states[held])
            outside.append(states[~held])
            n += len(found[-1])
            out[miss] = ids[np.searchsorted(known, keys[miss])]
        return out

    if getattr(a_predicate, "radius", None) is not None:
        meet(_coords(model.states_within(a_predicate.radius), seed.shape[1], "states_within"))
    while done < len(found):
        if n > cap:
            raise EnumerationLimitError(
                f"enumeration cap of {cap} states exceeded; check the truncation predicate")
        frontier, done = np.concatenate(found[done:]), len(found)
        start = n - len(frontier)               # the frontier's first id
        for lo in range(0, len(frontier), ROW_BLOCK):
            pos, targets, p, weights = _read_rows(model.rows, frontier[lo:lo + ROW_BLOCK])
            units += weights
            entries.append((pos + (start + lo), meet(targets), p))
    coords = np.concatenate(found + outside)
    columns = [list(c) for c in zip(*entries)]
    del entries                 # each column's chunks go once it is joined: a lower peak
    src, dst, p = [np.concatenate(columns.pop(0)) for _ in range(3)]
    _check_rows(coords[:n], src, p)
    unit = np.concatenate(units).astype(float) if units else np.ones(n)
    if unit.shape != (n,) or np.any(unit <= 0) or not np.all(np.isfinite(unit)):
        raise ModelError("unit weights must be positive and finite over A")
    dst[dst < 0] = n - 1 - dst[dst < 0]         # the ids after the set's
    kept = _reached(src, dst, p, len(coords))
    if not kept.all():                          # drop the ball's states the seed cannot reach
        new, live = np.cumsum(kept) - 1, kept[src]
        src, dst, p = new[src[live]], new[dst[live]], p[live]
        coords, unit, n = coords[kept], unit[kept[:n]], int(np.count_nonzero(kept[:n]))
    order = np.argsort(_keys(coords[:n]))
    return Exploration(coords, order, unit[order], src, dst, p)


def _reached(src: np.ndarray, dst: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Which of the ids ``0 .. n-1`` id 0 reaches along ``src -> dst`` (weight 0 too)."""
    graph = sp.csr_matrix((weights, (src, dst)), shape=(n, n))
    reached = np.zeros(n, dtype=bool)
    reached[breadth_first_order(graph, 0, return_predecessors=False)] = True
    return reached


def cut(exploration: Exploration, a_predicate: Callable[[State], bool],
        k_predicate: Callable[[State], bool]) -> tuple[StateSpace, Partition]:
    """The partition over the return set of ``k_predicate`` of the states the
    seed reaches without leaving ``a_predicate``, a set that must lie in the
    explored one.  Blocks, exits and unit weights equal those of a fresh
    :func:`enumerate_space` bit for bit.
    """
    ex, coords = exploration, exploration.coords
    inside = _apply(a_predicate, coords, bool)
    if not inside[0]:
        raise ModelError("seed state does not satisfy the truncation predicate")
    if inside[ex.order.size:].any():
        raise ModelError("truncation set is not nested in the explored one")
    if not inside[ex.order].all():            # keep what the seed reaches inside
        live = inside[ex.src] & inside[ex.dst]
        inside = _reached(ex.src[live], ex.dst[live], ex.p[live], len(coords))
    kept = inside[ex.order]
    a_ids = ex.order[kept]
    space, k_first = _k_first_space(coords[a_ids], k_predicate)
    ids, n = a_ids[k_first], space.a_size
    new = np.full(len(coords), -1, dtype=np.intp)
    new[ids] = np.arange(n)
    s, d = new[ex.src], new[ex.dst]         # -1: outside the level
    held = (s >= 0) & (ex.p != 0.0)         # the level's entries with mass
    out = np.flatnonzero(held & (d < 0))    # the level's exits, each state's in row order
    by_row = np.argsort(s[out], kind="stable")
    exits = s[out][by_row], ex.dst[out][by_row], ex.p[out][by_row]
    held &= d >= 0                          # and those of them within the level
    P = sp.csr_matrix((ex.p[held], (s[held], d[held])), shape=(n, n))   # duplicates add
    del s, d, held
    return space, _partition(space, P, ex.unit[kept][k_first], ex.table, ids, exits)


def repartition(part: Partition, k_predicate: Callable[[State], bool],
                ) -> tuple[StateSpace, Partition]:
    """The same truncation set partitioned over another return set.

    Rows and columns of ``part``'s operator are permuted K-first and no mass
    is recomputed, so blocks, exits and unit weights equal those of a
    fresh :func:`enumerate_space` with ``k_predicate`` bit for bit (up to the
    order in which a row's repeated targets were added).  The new partition
    shares ``part``'s value table.
    """
    old = part.space
    by_state = np.argsort(_keys(old.coords))
    space, k_first = _k_first_space(old.coords[by_state], k_predicate)
    perm = by_state[k_first]
    P = part.full_matrix()[perm]          # rows in the new order
    new = np.empty_like(perm)
    new[perm] = np.arange(space.a_size)
    P.indices = new[P.indices].astype(P.indices.dtype)     # and the columns
    P.sort_indices()
    rows, at, q = part.exits
    by_row = np.argsort(new[rows], kind="stable")
    exits = new[rows][by_row], at[by_row], q[by_row]
    return space, _partition(space, P, part.unit[perm], part.table, part.ids[perm], exits)


def _read_rows(hook: Callable, states: np.ndarray) -> tuple:
    """A row hook (``rows``, or ``rate_rows`` of a jump model) on the
    coordinates ``states``: its positions, target coordinates and masses (or
    rates) as arrays, and a list of the further arrays it returned."""
    pos, targets, p, *rest = hook(states) if len(states) else ((), (), ())
    pos, p = np.asarray(pos, dtype=np.intp), np.asarray(p, dtype=float)
    targets = _coords(targets, states.shape[1], "the batch row hook")
    # a negative position is a large unsigned one
    if not len(pos) == len(targets) == len(p) or pos.size and \
            pos.view(np.uintp).max() >= len(states):
        raise ModelError("batch row hook returned entries that do not match its states")
    return pos, targets, p, rest


def is_jump(model) -> bool:
    """A model is a jump process iff it defines ``rate_rows``."""
    return hasattr(model, "rate_rows")


def _rate_rows(jump, states) -> tuple:
    """The jump model's rate rows at ``states``, checked, with their exit
    rates: ``(pos, targets, rates, exit_rates)`` on coordinates.  Every rate
    must be finite and nonnegative and every exit rate positive; each
    state's rates add left to right in entry order.
    """
    states = _coords(states)
    pos, targets, rates, _ = _read_rows(jump.rate_rows, states)
    bad = ~((rates >= 0.0) & (rates < np.inf))
    if bad.any():
        j = int(np.argmax(bad))
        raise ModelError(f"invalid rate {float(rates[j])!r} out of state "
                         f"{_objects(states[pos[j:j + 1]])[0]!r}")
    lam = np.bincount(pos, weights=rates, minlength=len(states))
    if np.any(lam <= 0.0):
        x = _objects(states[lam <= 0.0])[0]
        raise ModelError(f"absorbing state {x!r}: zero exit rate")
    return pos, targets, rates, lam


def _check_rows(states: np.ndarray, pos: np.ndarray, p: np.ndarray) -> None:
    """Reject the first state (in id order) with an invalid mass or row sum."""
    sums = np.bincount(pos, weights=p, minlength=len(states))  # adds each row in entry order
    # one pass for valid batches: NaN and -inf fail the minimum, +inf the sums
    if np.abs(sums - 1.0).max(initial=0.0) <= ROW_SUM_TOL and p.min(initial=0.0) >= -ROW_SUM_TOL:
        return
    bad_entry = ~np.isfinite(p) | (p < -ROW_SUM_TOL)
    bad_state = ~(np.abs(sums - 1.0) <= ROW_SUM_TOL)
    bad_state[pos[bad_entry]] = True
    i = int(np.argmax(bad_state))
    x, entry = _objects(states[i:i + 1])[0], np.flatnonzero(bad_entry & (pos == i))
    if entry.size:
        raise ModelError(
            f"invalid transition probability {float(p[entry[0]])!r} from state {x!r}"
        )
    raise ModelError(
        f"row of state {x!r} sums to {float(sums[i])!r}, not 1 within {ROW_SUM_TOL}"
    )


def _k_first_space(coords: np.ndarray, k_predicate) -> tuple[StateSpace, np.ndarray]:
    """K, then A', each in the order of the sorted ``coords``, and the
    positions in ``coords`` of the states so ordered."""
    in_k = _apply(k_predicate, coords, bool)
    if not in_k.any():
        raise ModelError("return set K is empty on the enumerated truncation set")
    order = np.concatenate([np.flatnonzero(in_k), np.flatnonzero(~in_k)])
    return StateSpace(coords=coords[order], k_size=int(np.count_nonzero(in_k))), order


def _partition(space: StateSpace, P: sp.csr_matrix, *rest) -> Partition:
    """A Partition of the K-first operator ``P``'s blocks (canonical CSR) and ``rest``."""
    k = space.k_size
    k_rows, others = slice(k), slice(k, None)
    return Partition(space, *(P[r, c].tocsr() for r in (k_rows, others) for c in (k_rows, others)),
                     *rest)


def explicit_k_predicate(k_states: Sequence[State]) -> Callable[[State], bool]:
    """Membership in ``k_states``, batched on the states' keys."""
    k = _coords(k_states)
    keys, d = _keys(k), k.shape[1]
    return batched(lambda s: np.isin(_keys(np.asarray(s, dtype=np.int64).T.reshape(-1, d)), keys)
                   if keys.size else False)
