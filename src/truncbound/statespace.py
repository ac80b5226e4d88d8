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
from itertools import groupby, repeat
from operator import itemgetter
from typing import Callable, Hashable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

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

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def states_repr(self) -> str:
        """``repr(self.states)``, encoded once per state space."""
        return repr(self.states)


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

    @cached_property
    def _table(self) -> tuple[tuple[list, dict], np.ndarray, np.ndarray]:
        """A value table (see :func:`_values`) over A and its exits, the ids of
        A's states in it and those of the boundary's states in boundary order.
        A partition cut from an exploration shares the exploration's table."""
        exits = [y for entries in self.boundary for y, _ in entries]
        ids = {s: i for i, s in enumerate(dict.fromkeys([*self.space.states, *exits]))}
        return (list(ids), {}), np.arange(self.a_size), \
            np.fromiter(map(ids.__getitem__, exits), dtype=np.intp, count=len(exits))

    def evaluate(self, fn: Callable[[State], float]) -> np.ndarray:
        """Evaluate a state function on all of A in dense-index order."""
        table, ids, _ = self._table
        return _values(table, fn, ids)[ids]

    def boundary_overflow(self, fn: Callable[[State], float]) -> np.ndarray:
        """Exact exterior overflow ``h(x) = sum_{y not in A} P(x, y) fn(y)``."""
        table, _, exits = self._table
        values = iter(_values(table, fn, exits)[exits].tolist())
        h = np.zeros(self.a_size)
        for i, entries in enumerate(self.boundary):
            if entries:
                h[i] = sum(p * next(values) for _, p in entries)
        return h

    def full_matrix(self) -> sp.csr_matrix:
        """The within-A matrix with K-first ordering (blocks reassembled)."""
        top = sp.hstack([self.P11, self.P12], format="csr")
        bot = sp.hstack([self.P21, self.P22], format="csr")
        return sp.vstack([top, bot], format="csr")


class Exploration:
    """A truncation set explored from the seed by :func:`explore`, from which
    :func:`cut` derives the partition of any truncation set nested in it.

    Every state reached has an id (``states``): first the set's, in
    discovery order, listed in sorted state order by ``order`` with their
    unit weights ``unit``, then those outside it that their rows reach.
    ``src``, ``dst`` and ``p`` hold the row entries with nonzero mass between
    states of the set, each row's in row order; ``rest`` holds the other
    entries (exits, zero masses) as ``(src, dst, p, at)``, where ``at``
    counts the entries of ``p`` before each of them.
    """

    def __init__(self, states, order, unit, src, dst, p, rest):
        self.states, self.order, self.unit = states, order, unit
        self.src, self.dst, self.p, self.rest = src, dst, p, rest
        self.table = states, {}    # shared by the partitions cut from here


def _values(table: tuple[list, dict], fn: Callable[[State], float],
            at: np.ndarray) -> np.ndarray:
    """``fn`` over a table's states (its list and its memo), evaluated at the
    ids ``at`` where it was not before; each state is evaluated once."""
    states, memo = table
    vals, done = memo.setdefault(fn, (np.zeros(len(states)), np.zeros(len(states), dtype=bool)))
    need = np.zeros(len(states), dtype=bool)
    need[at] = True
    todo = np.flatnonzero(need & ~done)
    vals[todo] = [float(fn(states[i])) for i in todo.tolist()]
    done[todo] = True
    return vals


def enumerate_space(
    model,
    a_predicate: Callable[[State], bool],
    k_predicate: Callable[[State], bool],
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[StateSpace, Partition]:
    """Breadth-first enumeration of A from the model seed, with block partition:
    the :func:`cut` of the set's own :func:`explore`.

    ``k_predicate`` must imply ``a_predicate``; the set satisfying
    ``a_predicate`` must be finite and reachable from ``model.seed``.
    """
    return cut(explore(model, a_predicate, cap=cap), a_predicate, k_predicate)


def explore(model, a_predicate: Callable[[State], bool], *, cap: int) -> Exploration:
    """Frontier-batched search of the set of ``a_predicate`` from the seed.

    The search expands a whole frontier at a time through the model's batch
    row hook ``rows(states) -> (pos, targets, p)``: entry ``j`` is the
    transition from ``states[pos[j]]`` to ``targets[j]`` with mass ``p[j]``,
    and the entries of each state appear in the order and with the floats
    that ``row`` gives for it (states may interleave).  Models that define
    only ``row`` are adapted here, so both forms are validated identically:
    masses must be finite and not below ``-ROW_SUM_TOL``, and every row must
    sum to one within ``ROW_SUM_TOL``.  ``a_predicate`` is called once per
    distinct state reached, not once per edge.  A model's ``unit_weights``
    must weigh each state on its own.

    Raises :class:`EnumerationLimitError` when the cap is exceeded and
    :class:`ModelError` for invalid rows or unit weights.
    """
    seed = model.seed
    if not a_predicate(seed):
        raise ModelError("seed state does not satisfy the truncation predicate")
    rows = _row_batches(model)
    ids = {seed: 0}              # states of the set -> id, in discovery order
    found = [seed]
    outside: dict = {}           # states reached outside the set -> -1 - their index
    src, dst, mass = [], [], []
    start = 0
    while start < len(found):
        frontier = found[start:]
        pos, targets, p = rows(frontier)
        pos = np.asarray(pos, dtype=np.intp)
        p = np.asarray(p, dtype=float)
        _check_rows(frontier, pos, targets, p)
        d = np.fromiter(map(ids.get, targets, repeat(-1)), dtype=np.intp, count=len(p))
        for j in np.flatnonzero(d < 0).tolist():   # new states and exits from the set
            y = targets[j]
            i = ids.get(y)
            if i is None:
                i = outside.get(y)
            if i is None:
                if a_predicate(y):
                    i = ids[y] = len(found)
                    found.append(y)
                    if len(found) > cap:
                        raise EnumerationLimitError(
                            f"enumeration cap of {cap} states exceeded; "
                            "check the truncation predicate"
                        )
                else:
                    i = outside[y] = -1 - len(outside)
            d[j] = i
        src.append(pos + start)
        dst.append(d)
        mass.append(p)
        start += len(frontier)
    n = len(found)
    order = np.array(sorted(range(n), key=found.__getitem__), dtype=np.intp)
    weigher = getattr(model, "unit_weights", None)
    unit = np.ones(n) if weigher is None \
        else np.asarray(weigher([found[i] for i in order.tolist()]), dtype=float)
    if unit.shape != (n,) or np.any(unit <= 0) or not np.all(np.isfinite(unit)):
        raise ModelError("unit weights must be positive and finite over A")
    src, dst, p = np.concatenate(src), np.concatenate(dst), np.concatenate(mass)
    inner = (dst >= 0) & (p != 0.0)
    rest = np.flatnonzero(~inner)
    r_dst = dst[rest]
    r_dst[r_dst < 0] = n - 1 - r_dst[r_dst < 0]     # the ids after the set's
    return Exploration(found + list(outside), order, unit, src[inner], dst[inner], p[inner],
                       (src[rest], r_dst, p[rest], rest - np.arange(rest.size)))


def cut(exploration: Exploration, a_predicate: Callable[[State], bool],
        k_predicate: Callable[[State], bool]) -> tuple[StateSpace, Partition]:
    """The partition over the return set of ``k_predicate`` of the states the
    seed reaches without leaving ``a_predicate``, a set that must lie in the
    explored one.  Blocks, boundary and unit weights equal those of a fresh
    :func:`enumerate_space` bit for bit.
    """
    ex, states = exploration, exploration.states
    r_src, r_dst, r_p, r_at = ex.rest
    inside = np.fromiter(map(a_predicate, states), dtype=bool, count=len(states))
    if not inside[0]:
        raise ModelError("seed state does not satisfy the truncation predicate")
    if inside[ex.order.size:].any():
        raise ModelError("truncation set is not nested in the explored one")
    if not inside[ex.order].all():            # keep what the seed reaches inside
        src, dst = np.concatenate([ex.src, r_src]), np.concatenate([ex.dst, r_dst])
        live = inside[src] & inside[dst]
        graph = sp.csr_matrix((np.ones(np.count_nonzero(live)), (src[live], dst[live])),
                              shape=(len(states),) * 2)
        inside[:] = False
        inside[breadth_first_order(graph, 0, return_predecessors=False)] = True
    kept = inside[ex.order]
    a_ids = ex.order[kept]
    space, k_first = _k_first_space([states[i] for i in a_ids.tolist()], k_predicate)
    ids, n = a_ids[k_first], space.a_size
    new = np.full(len(states), -1, dtype=np.intp)
    new[ids] = np.arange(n)
    leave = np.zeros(0, dtype=np.intp)
    p, src, dst = ex.p, ex.src, ex.dst
    if not kept.all():                        # a level smaller than the explored set
        s, d = new[src], new[dst]
        leave = np.flatnonzero((s >= 0) & (d < 0))    # entries that leave the level
        keep = (s >= 0) & (d >= 0)
        p, src, dst = p[keep], src[keep], dst[keep]
        del s, d, keep
    # the level's exits, each state's in row order: its entries that leave it,
    # and those with mass out of the explored set
    rs = new[r_src]
    out = np.flatnonzero((rs >= 0) & (r_p != 0.0))
    owner = np.concatenate([new[ex.src[leave]], rs[out]])
    by_row = np.lexsort((np.concatenate([2 * leave + 1, 2 * r_at[out]]), owner))
    exits = np.concatenate([ex.dst[leave], r_dst[out]])[by_row]
    rows = zip(owner[by_row].tolist(), exits.tolist(),
               np.concatenate([ex.p[leave], r_p[out]])[by_row].tolist())
    boundary = [()] * n
    for i, group in groupby(rows, key=itemgetter(0)):
        boundary[i] = tuple((states[y], q) for _, y, q in group)
    P = sp.csr_matrix((p, (new[src], new[dst])), shape=(n, n))   # duplicates add
    del p, src, dst
    part = _partition(space, P, tuple(boundary), ex.unit[kept][k_first])
    part._table = ex.table, ids, exits
    return space, part


def repartition(part: Partition, k_predicate: Callable[[State], bool],
                ) -> tuple[StateSpace, Partition]:
    """The same truncation set partitioned over another return set.

    Rows and columns of ``part``'s operator are permuted K-first and no mass
    is recomputed, so blocks, boundary and unit weights equal those of a
    fresh :func:`enumerate_space` with ``k_predicate`` bit for bit (up to the
    order in which a row's repeated targets were added).  The new partition
    shares ``part``'s value table.
    """
    old = part.space
    by_state = sorted(range(old.a_size), key=old.states.__getitem__)
    space, k_first = _k_first_space([old.states[i] for i in by_state], k_predicate)
    perm = np.array(by_state, dtype=np.intp)[k_first]
    P = part.full_matrix()[perm]          # rows in the new order
    new = np.empty_like(perm, dtype=P.indices.dtype)
    new[perm] = np.arange(space.a_size)
    P.indices = new[P.indices]            # and the columns
    P.sort_indices()
    boundary = tuple(part.boundary[i] for i in perm)
    derived = _partition(space, P, boundary, part.unit[perm])
    table, ids, exits = part._table
    owner = np.repeat(np.arange(old.a_size), list(map(len, part.boundary)))
    derived._table = table, ids[perm], exits[np.argsort(new[owner], kind="stable")]
    return space, derived


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


def _k_first_space(states: list, k_predicate) -> tuple[StateSpace, np.ndarray]:
    """K, then A', each in the order of the sorted ``states``, and the
    positions in ``states`` of the states so ordered."""
    in_k = np.fromiter(map(k_predicate, states), dtype=bool, count=len(states))
    if not in_k.any():
        raise ModelError("return set K is empty on the enumerated truncation set")
    order = np.concatenate([np.flatnonzero(in_k), np.flatnonzero(~in_k)])
    return StateSpace(states=tuple(map(states.__getitem__, order.tolist())),
                      k_size=int(np.count_nonzero(in_k))), order


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
