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
import json
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CertificateError, ModelError, NumericalError
from .statespace import Partition, _rate_batches, _row_batches, is_jump


class _DriftTable:
    """One-step rows of a region, laid out for exact batched drift sums.

    The region's states, then their one-step targets, get one id each, and a
    function is evaluated at most once per id.  Entries are grouped by rank
    within their row (``row``, or ``rate_row`` of a jump process), so adding
    them rank by rank repeats each row's left-to-right float additions.
    """

    def __init__(self, model, region):
        self.jump = is_jump(model)
        region = list(region)
        sources = list(dict.fromkeys(region))
        self.m = m = len(sources)           # ids below m are the region's states
        if self.jump:
            pos, targets, w, self.lam = _rate_batches(model)(sources)  # lam: exit rates
        else:
            pos, targets, w = _row_batches(model)(sources) if m else ((), [], ())
        self.ids = {x: i for i, x in enumerate(sources)}
        self.states = sources + [y for y in dict.fromkeys(targets) if y not in self.ids]
        self.ids.update((y, i) for i, y in enumerate(self.states[m:], m))
        self.src = np.fromiter(map(self.ids.__getitem__, region), np.intp, len(region))
        tgt = np.fromiter(map(self.ids.__getitem__, targets), np.intp, len(targets))
        pos = np.asarray(pos, dtype=np.intp)
        order = np.argsort(pos, kind="stable")
        counts = np.bincount(pos, minlength=m)
        rank = np.arange(pos.size) - (np.cumsum(counts) - counts)[pos[order]]
        order = order[np.argsort(rank, kind="stable")]     # by rank, then by state
        self.pos, self.tgt = pos[order], tgt[order]
        self.w = np.asarray(w, dtype=float)[order]
        self.ranks = np.cumsum(np.bincount(rank)).tolist()
        self._memo: dict = {}

    def _rank_sums(self, terms: np.ndarray) -> np.ndarray:
        acc = np.zeros(self.m)
        for lo, hi in zip([0] + self.ranks, self.ranks):  # a state occurs once per rank
            acc[self.pos[lo:hi]] += terms[lo:hi]
        return acc

    def values(self, fn: Callable, at: np.ndarray) -> np.ndarray:
        """``fn`` over all ids, evaluated (once) at the ids ``at``."""
        n = len(self.states)
        vals, done = self._memo.setdefault(fn, (np.zeros(n), np.zeros(n, dtype=bool)))
        todo = np.unique(at[~done[at]])
        vals[todo] = [float(fn(self.states[i])) for i in todo.tolist()]
        done[todo] = True
        return vals

    def surplus(self, g: Callable, slack: Callable, exclude=frozenset(),
                x: np.ndarray | None = None) -> np.ndarray:
        """:func:`drift_excess` at the region ids ``x`` (default: the region),
        with the same floats; not checked for finiteness."""
        x = self.src if x is None else x
        off = np.zeros(len(self.states), dtype=bool)
        if exclude:
            off[[i for i, s in enumerate(self.states) if s in exclude]] = True
        live = np.zeros(self.m, dtype=bool)
        live[x] = True
        live = live[self.pos] & ~off[self.tgt]          # entries that add w * g(y)
        subtracts = x[~off[x]] if self.jump else x       # states that subtract g(x)
        gv = self.values(g, np.concatenate([self.tgt[live], subtracts]))
        with np.errstate(all="ignore"):                  # Python float semantics
            acc = self._rank_sums(np.where(live, self.w * gv[self.tgt], 0.0))[x]
            own = np.where(off[x], 0.0, self.lam[x] * gv[x]) if self.jump else gv[x]
            return (acc - own) + self.values(slack, x)[x]

    def require_finite(self, x: np.ndarray, *surpluses) -> None:
        """Raise at the first of the ids ``x`` where a surplus is not finite."""
        bad = ~np.isfinite(surpluses).all(axis=0)
        if bad.any():
            state = self.states[x[int(np.argmax(bad))]]
            raise NumericalError(f"drift surplus not finite at state {state!r}")


def drift_excess(model, g: Callable, slack: Callable, x, exclude=frozenset()) -> float:
    """One-step drift surplus at ``x``; nonpositive means the inequality holds.

    Discrete chains:  sum_{y not in K} P(x,y) g(y) - g(x) + slack(x).
    Jump processes:   sum_{y not in K} Q(x,y) g(y) + slack(x), diagonal included.

    Raises :class:`NumericalError` when the surplus is not finite.
    """
    table = _DriftTable(model, [x])
    s = table.surplus(g, slack, exclude)
    table.require_finite(table.src, s)
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
    table = _DriftTable(model, check_region)
    return _verify_on(table, table.src, g, slack, K, tolerance)


def _verify_on(table: _DriftTable, x: np.ndarray, g, slack, K, tolerance) -> DriftReport:
    """:func:`verify_drift` at the region ids ``x`` of ``table``."""
    k_set = frozenset(K)
    x = x[np.array([table.states[i] not in k_set for i in x.tolist()], dtype=bool)]
    s = table.surplus(g, slack, k_set, x)
    table.require_finite(x, s)
    allow = tolerance * (1.0 + np.abs(table.values(g, x)[x])
                         + np.abs(table.values(slack, x)[x]))
    over = s > allow
    held = s[~over]
    return DriftReport(checked=len(x),
                       violations=tuple(sorted(table.states[i] for i in x[over].tolist())),
                       worst_margin=float(held.max()) if held.size else -np.inf)


def construct_K(model, g1: Callable, g2: Callable, r: Callable,
                n1: int, n2: int) -> tuple:
    """Return set: every state inside the certified ball where either drift
    inequality fails with an empty exclusion set.

    Outside radius ``max(n1, n2)`` the model certifies both inequalities
    analytically, so the resulting K satisfies the drift assumption on its
    complement by construction.
    """
    ball = _DriftTable(model, model.states_within(max(n1, n2)))
    if not ball.m:
        raise ModelError("empty candidate ball for return-set construction")
    s1 = ball.surplus(g1, r)
    holds = s1 <= 0.0                   # g2 is checked only where g1's drift holds
    s2 = np.zeros_like(s1)
    s2[holds] = ball.surplus(g2, lambda _: 1.0, x=ball.src[holds])
    ball.require_finite(ball.src, s1, s2)
    K = [ball.states[i] for i in ball.src[(s1 > 0.0) | (s2 > 0.0)].tolist()]
    if len(K) == len(ball.src):
        raise CertificateError(
            "drift inequalities fail on the whole candidate ball; the supplied "
            "certificate functions cannot produce a finite return set"
        )
    if not K:
        warnings.warn("no drift violations found; return set is empty", stacklevel=2)
    return tuple(sorted(K))


@dataclass(frozen=True)
class DriftCertificate:
    """Certificate data for one envelope reward.

    ``g_r`` drifts against the envelope, ``g_e`` against the constant reward.
    ``single_pair`` marks the shortcut g_r = g_e verified against
    ``max(r, 1)``.  ``skip_rate_domination`` is the expert escape hatch for
    jump processes whose envelope does not dominate the exit rates (the
    ratio identity still holds; positive recurrence of the embedded chain is
    then uncertified).  Rows have finite support, so the exterior overflows
    are computed with equality from the boundary rows.
    """

    return_set: tuple
    envelope: Callable
    g_r: Callable
    g_e: Callable
    radius_r: int
    radius_e: int
    single_pair: bool = False
    skip_rate_domination: bool = False
    verified: bool = False
    reports: tuple = ()

    @classmethod
    def pair(cls, return_set, envelope, g_r, g_e, radius_r, radius_e, **kw):
        return cls(tuple(return_set), envelope, g_r, g_e, int(radius_r),
                   int(radius_e), **kw)

    @classmethod
    def single(cls, return_set, envelope, g, radius, **kw):
        return cls(tuple(return_set), envelope, g, g, int(radius), int(radius),
                   single_pair=True, **kw)


def verify_certificate(model, cert: DriftCertificate, *,
                       tolerance: float = 0.0) -> DriftCertificate:
    """Re-verify the finite region of a certificate; returns a verified copy.

    Each drift inequality is checked on the model's ball of its own radius.
    Raises :class:`CertificateError` listing violations when the check fails.
    For jump models with a non-dominating envelope (r < exit rate somewhere)
    an error is raised unless the expert flag is set on the certificate.
    """
    if cert.single_pair:
        slack_r = lambda x: max(float(cert.envelope(x)), 1.0)
        pairs = [(cert.g_r, slack_r, max(cert.radius_r, cert.radius_e))]
    else:
        pairs = [
            (cert.g_r, cert.envelope, cert.radius_r),
            (cert.g_e, lambda _: 1.0, cert.radius_e),
        ]
    ball = _DriftTable(model, model.states_within(max(cert.radius_r, cert.radius_e)))
    reports = []
    for g, slack, radius in pairs:
        x = np.array([ball.ids[s] for s in model.states_within(radius)], dtype=np.intp)
        rep = _verify_on(ball, x, g, slack, cert.return_set, tolerance)
        reports.append(rep)
        if rep.violations:
            sample = list(rep.violations[:8])
            raise CertificateError(
                f"drift inequality fails outside the return set at {len(rep.violations)} "
                f"states, e.g. {sample}"
            )
    if cert.single_pair:
        reports = reports * 2
    if ball.jump:
        bad = _rate_domination_violations(ball, cert)
        if bad and not cert.skip_rate_domination:
            raise CertificateError(
                f"envelope does not dominate the exit rate at {len(bad)} states, "
                f"e.g. {bad[:5]}; positive recurrence of the embedded chain is "
                "uncertified (set skip_rate_domination=True to proceed anyway)"
            )
        if bad:
            warnings.warn(
                "envelope does not dominate the exit rate on "
                f"{len(bad)} states; proceeding on the expert flag: the cycle "
                "identity stays valid, embedded-chain positive recurrence is "
                "certified only through the unit-drift condition",
                stacklevel=2,
            )
    return replace(cert, verified=True, reports=tuple(reports))


def _rate_domination_violations(ball: _DriftTable, cert: DriftCertificate) -> list:
    """Ball states whose envelope falls below the exit rate."""
    x = ball.src
    low = ball.values(cert.envelope, x)[x] < ball.lam[x] * (1.0 - 1e-12)
    return [ball.states[i] for i in x[low].tolist()]


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
    verified: bool
    sha256: str = ""

    def __post_init__(self):
        for name in ("r_A", "h1_A", "h2_A"):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)


def evaluate_certificate(cert: DriftCertificate, partition: Partition,
                         *, envelope_id: str = "r") -> BoundInputs:
    """Evaluate a verified certificate over a partition (exact h from the
    boundary rows) and fingerprint it for provenance."""
    if not cert.verified:
        raise CertificateError("certificate must be verified before evaluation")
    for x in cert.return_set:
        if not partition.space.in_k(x):
            raise CertificateError(
                f"certificate return set does not match the partition (state {x!r})"
            )
    if len(cert.return_set) != partition.k_size:
        raise CertificateError("certificate return set does not match the partition")
    r_A = partition.evaluate(cert.envelope)
    h1 = partition.boundary_overflow(cert.g_r)
    h2 = h1 if cert.single_pair else partition.boundary_overflow(cert.g_e)
    payload = certificate_payload(cert, partition, r_A, h1, h2)
    sha = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return BoundInputs(
        envelope_id=envelope_id,
        r_A=r_A,
        h1_A=h1,
        h2_A=h2,
        verified=True,
        sha256=sha,
    )


def certificate_payload(cert: DriftCertificate, partition: Partition,
                        r_A: np.ndarray, h1: np.ndarray, h2: np.ndarray) -> dict:
    """JSON-compatible record of the certificate over A, for replayable runs."""
    space = partition.space
    g1_A = partition.evaluate(cert.g_r)
    g2_A = g1_A if cert.single_pair else partition.evaluate(cert.g_e)
    return {
        "kind": "drift-certificate",
        "radii": {"envelope": cert.radius_r, "unit": cert.radius_e},
        "single_pair": cert.single_pair,
        "return_set": [_state_key(s) for s in cert.return_set],
        "states": [_state_key(s) for s in space.states],
        "envelope": r_A.tolist(),
        "g_envelope": g1_A.tolist(),
        "g_unit": g2_A.tolist(),
        "h_envelope": h1.tolist(),
        "h_unit": h2.tolist(),
    }


def _state_key(s):
    if isinstance(s, tuple):
        return list(s)
    return s


def moment_bound(model, g3: Callable, w: Callable, core_radius: int) -> float:
    """Equilibrium moment bound: with the drift of ``g3`` against ``w``
    certified outside the core, the stationary expectation of ``w`` is at
    most the largest drift surplus inside it."""
    table = _DriftTable(model, model.states_within(core_radius))
    s = table.surplus(g3, w)
    table.require_finite(table.src, s)
    return float(s.max()) if s.size and s.max() > 0.0 else 0.0


def tail_mass_bound(moment_c: float, level: float) -> float:
    """Lower bound on the stationary mass of ``{w < level}`` implied by a
    moment bound ``E w <= c`` (Markov inequality)."""
    if level <= 0:
        raise ValueError("level must be positive")
    return max(0.0, 1.0 - moment_c / level)
