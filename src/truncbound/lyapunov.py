"""Drift certificates: verification, return-set construction, overflow vectors.

A certificate consists of two nonnegative functions (one paired with the
envelope reward, one with the constant reward), the finite return set K on
which their one-step drift inequalities are allowed to fail, and per-model
analytic radii beyond which the inequalities are certified by hand.  The
library re-verifies the finite region numerically; the tail is model data.

Exterior overflow vectors h are computed with equality from the finite row
support (they are the only place the complement of A ever enters).
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CertificateError, ModelError, NumericalError
from .statespace import (Partition, _check_rows, _coords, _first_ids, _keys, _objects,
                         _rate_rows, _read_rows, _values, batched, is_jump)


class _DriftTable:
    """One-step rows of a region, laid out for exact batched drift sums.

    The region's states, then their one-step targets, get one id each (a
    row of ``coords``), and a function is evaluated at most once per id.
    ``np.bincount`` adds each row's entries (``rows``, or ``rate_rows`` of a
    jump process) in order, repeating its left-to-right float additions.
    """

    def __init__(self, model, region):
        self.jump = is_jump(model)
        region = _coords(region)
        self.src, first = _first_ids(_keys(region))     # ids of the region's states
        sources = region[first]
        self.m = m = len(sources)           # ids below m are the region's states
        if self.jump:                       # lam: exit rates
            self.pos, targets, self.w, self.lam = _rate_rows(model, sources)
        else:                               # checked as explore checks them
            self.pos, targets, self.w, _ = _read_rows(model.rows, sources)
            _check_rows(sources, self.pos, self.w)
        reached = np.concatenate([sources, targets])
        keys = _keys(reached)
        tgt, first = _first_ids(keys)
        self.coords, self.tgt, keys = reached[first], tgt[m:], keys[first]
        order = np.argsort(keys)
        # the sorted keys and their ids, then a last slot for keys past them all: id -1
        self.keys, self.ids = np.append(keys[order], 0), np.append(order, -1)
        self.table = self.coords, {}

    def find(self, states) -> np.ndarray:
        """The ids of ``states``, -1 for those the table does not hold."""
        keys = _keys(_coords(states, self.coords.shape[1]))
        at = np.searchsorted(self.keys[:-1], keys)
        return np.where(self.keys[at] == keys, self.ids[at], -1)

    def mask(self, states) -> np.ndarray:
        """True at the ids of those of ``states`` that the table holds."""
        on = np.zeros(len(self.coords) + 1, dtype=bool)
        on[self.find(states)] = True               # -1: the last, dropped
        return on[:-1]

    def surplus(self, g: Callable, slack: Callable, exclude=(),
                x: np.ndarray | None = None) -> np.ndarray:
        """The drift surplus at the region ids ``x`` (default: the region) with
        the states ``exclude`` left out of its sum, :func:`drift_excess`'s
        floats when none are; not checked for finiteness."""
        x = self.src if x is None else x
        off = self.mask(exclude)
        live = np.zeros(self.m, dtype=bool)
        live[x] = True
        live = live[self.pos] & ~off[self.tgt]          # entries that add w * g(y)
        subtracts = x[~off[x]] if self.jump else x       # states that subtract g(x)
        gv = _values(self.table, g, np.concatenate([self.tgt[live], subtracts]))
        with np.errstate(all="ignore"):                  # Python float semantics
            terms = np.where(live, self.w * gv[self.tgt], 0.0)
            acc = np.bincount(self.pos, weights=terms, minlength=self.m)[x]
            own = np.where(off[x], 0.0, self.lam[x] * gv[x]) if self.jump else gv[x]
            return (acc - own) + _values(self.table, slack, x)[x]

    def require_finite(self, x: np.ndarray, *surpluses) -> None:
        """Raise at the first of the ids ``x`` where a surplus is not finite."""
        bad = ~np.isfinite(surpluses).all(axis=0)
        if bad.any():
            state = _objects(self.coords[x[bad]])[0]
            raise NumericalError(f"drift surplus not finite at state {state!r}")


@batched
def unit(_) -> float:
    """The constant reward 1.  One function object for every certificate, so
    a shared drift table evaluates it once per state."""
    return 1.0


def _table_for(model, region) -> tuple[_DriftTable, np.ndarray]:
    """A drift table over ``region`` and the ids of the region's states in it.

    This is the model's table when its rows cover the region; otherwise a
    table over the region, which becomes the model's table until
    :func:`release_drift_table`.  So every drift check on a model shares one
    table, and each certificate function is evaluated once per state.
    """
    region = _coords(region)
    table = vars(model).get("_drift_table")
    if table is not None:
        x = table.find(region)
        if ((x >= 0) & (x < table.m)).all():
            return table, x
    table = vars(model)["_drift_table"] = _DriftTable(model, region)
    return table, table.src


def release_drift_table(model) -> None:
    """Drop the drift table ``model`` keeps; the next drift check builds one."""
    vars(model).pop("_drift_table", None)


def drift_excess(model, g: Callable, slack: Callable, x) -> float:
    """One-step drift surplus at ``x``; nonpositive means the inequality holds.

    Discrete chains:  sum_y P(x,y) g(y) - g(x) + slack(x).
    Jump processes:   sum_y Q(x,y) g(y) + slack(x), diagonal included.

    Raises :class:`NumericalError` when the surplus is not finite.
    """
    table, at = _table_for(model, [x])
    s = table.surplus(g, slack, x=at)
    table.require_finite(at, s)
    return float(s[0])


@dataclass(frozen=True)
class DriftReport:
    checked: int
    violations: tuple
    worst_margin: float   # max drift surplus over non-violating states (<= 0 when verified)

    @property
    def verified(self) -> bool:
        return not self.violations


def verify_drift(model, g: Callable, slack: Callable, K: Sequence,
                 check_region, *, tolerance: float = 0.0) -> DriftReport:
    """Numerically check the drift inequality on ``check_region`` minus K.

    Returns the sorted list of violating states; an empty list means the
    inequality holds everywhere it was checked.  The analytic tail (outside
    the model's certified radius) is the model's responsibility.

    ``tolerance`` is a relative slack for the equality case: certificate
    functions that solve the cycle-reward equation exactly sit on the drift
    boundary, where roundoff makes the surplus sign arbitrary.  A surplus
    that is not finite raises :class:`NumericalError`.
    """
    table, x = _table_for(model, check_region)
    x = x[~table.mask(K)[x]]
    s = table.surplus(g, slack, K, x)
    table.require_finite(x, s)
    allow = tolerance * (1.0 + np.abs(_values(table.table, g, x)[x])
                         + np.abs(_values(table.table, slack, x)[x]))
    over = s > allow
    held = s[~over]
    return DriftReport(checked=len(x),
                       violations=tuple(sorted(_objects(table.coords[x[over]]))),
                       worst_margin=float(held.max()) if held.size else -np.inf)


def construct_K(model, g1: Callable, g2: Callable, r: Callable,
                n1: int, n2: int) -> tuple:
    """Return set: every state inside the certified ball where either drift
    inequality fails with an empty exclusion set.

    Outside radius ``max(n1, n2)`` the model certifies both inequalities
    analytically, so the resulting K satisfies the drift assumption on its
    complement by construction.
    """
    table, x = _table_for(model, model.states_within(max(n1, n2)))
    if not x.size:
        raise ModelError("empty candidate ball for return-set construction")
    s1 = table.surplus(g1, r, x=x)
    holds = s1 <= 0.0                   # g2 is checked only where g1's drift holds
    s2 = np.zeros_like(s1)
    s2[holds] = table.surplus(g2, unit, x=x[holds])
    table.require_finite(x, s1, s2)
    K = _objects(table.coords[x[(s1 > 0.0) | (s2 > 0.0)]])
    if len(K) == x.size:
        raise CertificateError(
            "drift inequalities fail on the whole candidate ball; the supplied "
            "certificate functions cannot produce a finite return set"
        )
    if not K:
        warnings.warn("no drift violations found; return set is empty", stacklevel=2)
    return tuple(sorted(K))


@dataclass(frozen=True)
class DriftData:
    """A model's drift data, from which its certificates are made: ``g1``
    drifts against the envelope ``r`` outside the ball of radius ``n1``,
    ``g2`` against the constant 1 outside that of radius ``n2``.
    ``skip_rate_domination`` goes to every certificate; ``shared_return_set``
    says whether the constant envelope reuses the pair's return set, else it
    gets the set where g2's own drift fails."""

    g1: Callable
    g2: Callable
    r: Callable
    n1: int
    n2: int
    skip_rate_domination: bool
    shared_return_set: bool


@dataclass(frozen=True)
class DriftCertificate:
    """Certificate data for one envelope reward.

    ``g_r`` drifts against the envelope, ``g_e`` against the constant reward;
    the constant envelope's certificate is the pair whose two functions are
    one.  ``skip_rate_domination`` is the expert escape hatch for jump
    processes whose envelope does not dominate the exit rates (the ratio
    identity still holds; positive recurrence of the embedded chain is then
    uncertified).  Rows have finite support, so the exterior overflows are
    computed with equality from the partition's exits.
    """

    return_set: tuple
    envelope: Callable
    g_r: Callable
    g_e: Callable
    radius_r: int
    radius_e: int
    skip_rate_domination: bool
    reports: tuple = ()         # the drift reports, which only verify_certificate sets
    verified = property(lambda self: bool(self.reports))
    # K's largest coordinate sum: the smallest range or simplex size that holds K
    k_star = property(lambda self: float(_coords(self.return_set).sum(axis=1).max()))

    def __post_init__(self):    # the return set: each state checked, sorted, no repeats
        coords = _coords(self.return_set, source="the return set")
        _, first = np.unique(_keys(coords), return_index=True)
        object.__setattr__(self, "return_set", tuple(_objects(coords[first])))
        object.__setattr__(self, "radius_r", int(self.radius_r))
        object.__setattr__(self, "radius_e", int(self.radius_e))


def verify_certificate(model, cert: DriftCertificate, *,
                       tolerance: float = 0.0) -> DriftCertificate:
    """Re-verify the finite region of a certificate; returns a verified copy.

    Each drift inequality is checked on the model's ball of its own radius.
    Raises :class:`CertificateError` listing violations when the check fails.
    For jump models with a non-dominating envelope (r < exit rate somewhere)
    an error is raised unless the expert flag is set on the certificate.
    """
    pairs = ((cert.g_r, cert.envelope, cert.radius_r), (cert.g_e, unit, cert.radius_e))
    top = max(cert.radius_r, cert.radius_e)
    table, ball = _table_for(model, model.states_within(top))
    reports = {}                        # each distinct check once: "e"'s two are one
    for g, slack, radius in dict.fromkeys(pairs):
        rep = reports[g, slack, radius] = verify_drift(
            model, g, slack, cert.return_set, model.states_within(radius), tolerance=tolerance)
        if rep.violations:
            sample = list(rep.violations[:8])
            raise CertificateError(
                f"drift inequality fails outside the return set at {len(rep.violations)} "
                f"states, e.g. {sample}"
            )
    if table.jump:
        bad = _rate_domination_violations(table, ball, cert)
        if bad.size and not cert.skip_rate_domination:
            raise CertificateError(
                f"envelope does not dominate the exit rate at {bad.size} states, "
                f"e.g. {_objects(table.coords[bad[:5]])}; positive recurrence of the embedded "
                "chain is uncertified (set skip_rate_domination=True to proceed anyway)"
            )
        if bad.size:
            warnings.warn(
                "envelope does not dominate the exit rate on "
                f"{bad.size} states; proceeding on the expert flag: the cycle "
                "identity stays valid, embedded-chain positive recurrence is "
                "certified only through the unit-drift condition",
                stacklevel=2,
            )
    return replace(cert, reports=tuple(map(reports.get, pairs)))


def _rate_domination_violations(table: _DriftTable, x: np.ndarray,
                                cert: DriftCertificate) -> np.ndarray:
    """The ids among ``x``, in their order, whose envelope falls below the exit rate."""
    low = _values(table.table, cert.envelope, x)[x] < table.lam[x] * (1.0 - 1e-12)
    return x[low]


@dataclass(frozen=True, eq=False)
class BoundInputs:
    """Certificate evaluated over a concrete partition: the vectors the bound
    assembly consumes.  ``r_A`` is the raw envelope; ``h1_A``/``h2_A`` are the
    exact exterior overflows of the two certificate functions.  The vectors
    are read-only copies and an instance equals only itself, so workspaces
    cache cycle rewards per instance; ``sha256`` is provenance only."""

    envelope_id: str
    r_A: np.ndarray
    h1_A: np.ndarray
    h2_A: np.ndarray
    sha256: str

    def __post_init__(self):
        for name in ("r_A", "h1_A", "h2_A"):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)


def evaluate_certificate(cert: DriftCertificate, partition: Partition,
                         *, envelope_id: str) -> BoundInputs:
    """Evaluate a verified certificate over a partition (exact h from the
    partition's exits) and fingerprint it for provenance."""
    if not cert.verified:
        raise CertificateError("certificate must be verified before evaluation")
    k_block = set(_objects(partition.space.coords[:partition.k_size]))
    missing = [s for s in cert.return_set if s not in k_block]
    if missing or len(cert.return_set) != partition.k_size:
        where = f": its state {missing[0]!r} is not in A's return-set block" if missing else ""
        raise CertificateError(f"certificate return set does not match the partition{where}")
    r_A = partition.evaluate(cert.envelope)
    h1 = partition.boundary_overflow(cert.g_r)
    h2 = h1 if cert.g_e is cert.g_r else partition.boundary_overflow(cert.g_e)
    return BoundInputs(
        envelope_id=envelope_id,
        r_A=r_A,
        h1_A=h1,
        h2_A=h2,
        sha256=_fingerprint(cert, partition, r_A, h1, h2),
    )


def _fingerprint(cert: DriftCertificate, partition: Partition,
                 r_A: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> str:
    """sha256 of the certificate over A: its radii, whether its two functions
    are one, its return set, the states of A in index order, and the bytes
    of the envelope, both certificate functions and both overflows over A,
    each array after its dtype and shape."""
    g1_A = partition.evaluate(cert.g_r)
    g2_A = g1_A if cert.g_e is cert.g_r else partition.evaluate(cert.g_e)
    # the repr of the tuple of these five, with the states' part joined once
    # per state space
    head = repr((cert.radius_r, cert.radius_e, cert.g_e is cert.g_r, cert.return_set))
    digest = hashlib.sha256(f"{head[:-1]}, {partition.space.states_repr})".encode())
    for v in (r_A, g1_A, g2_A, h1, h2):
        digest.update(f"{v.dtype.str}{v.shape}".encode())
        digest.update(np.ascontiguousarray(v))
    return digest.hexdigest()


def moment_bound(model, g3: Callable, w: Callable, core_radius: int) -> float:
    """Equilibrium moment bound: with the drift of ``g3`` against ``w``
    certified outside the core, the stationary expectation of ``w`` is at
    most the largest drift surplus inside it."""
    table, x = _table_for(model, model.states_within(core_radius))
    s = table.surplus(g3, w, x=x)
    table.require_finite(x, s)
    return float(s.max()) if s.size and s.max() > 0.0 else 0.0


def tail_mass_bound(moment_c: float, level: float) -> float:
    """Lower bound on the stationary mass of ``{w < level}`` implied by a
    moment bound ``E w <= c`` (Markov inequality)."""
    if level <= 0:
        raise ValueError("level must be positive")
    return max(0.0, 1.0 - moment_c / level)
