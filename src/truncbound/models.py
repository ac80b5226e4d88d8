"""Benchmark model families and the generic discrete model.

Two built-in families:

* ``GM1Model``: the queue-length chain of a single-server queue with
  exponential service (rate mu) embedded just before arrival epochs,
  interarrival times uniform on [0, b].  Rows are exactly stochastic: the
  downward mass P(x, 0) is defined as the complement of the explicit masses.
* ``ToggleSwitchModel``: the two-species mutual-repression reaction
  network: synthesis of each type at rate lam / (1 + other count), per
  molecule decay at rate mu.

Both ship the drift functions and analytic tail radii used to certify the
bounds, so the whole pipeline runs on them out of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import ModelError
from .lyapunov import DriftCertificate, construct_K

BETA_MASS_CUTOFF = 1e-300


def _check_envelope(envelope_id: str) -> None:
    if envelope_id not in ("r", "e"):
        raise ModelError(f"unknown envelope {envelope_id!r} (use 'r' or 'e')")


@dataclass(frozen=True)
class DiscreteModel:
    """Generic discrete-chain model.

    ``row(x)`` gives the exact finite-support row ``(y, P(x, y))`` of each
    state; ``rows``, its optional batch form, is described at
    :func:`~truncbound.statespace.enumerate_space`.  Rows are validated (sums
    within 1e-12 of one) during enumeration.  The other hooks are what the
    pipeline needs: the seed of the enumeration, a norm for radius scans,
    the states within a radius, named rewards, and per-state unit weights
    (holding times; ones when omitted).
    """

    name: str
    seed: object
    row: Callable[[object], Iterable[tuple[object, float]]]
    norm: Callable[[object], float] | None = None
    states_within: Callable[[float], Iterable] | None = None
    rewards: dict = field(default_factory=dict)
    unit_weights: Callable | None = None
    rows: Callable | None = None


# ---------------------------------------------------------------------------
# single-server queue with uniform interarrivals


@dataclass(frozen=True)
class GM1Lyapunov:
    """Drift data for the queue model: quadratic/linear certificate pair for
    the envelope r(x) = x, and a quartic function for the cubic moment."""

    c1: float
    c2: float
    c3: float
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
        self.rewards = {"r": lambda x: float(x), "e": lambda x: 1.0}

    # -- service-count distribution -----------------------------------------

    @cached_property
    def beta_masses(self) -> np.ndarray:
        """beta_i = P(N >= i + 1) / (mu b) with N Poisson(mu b): the reverse
        cumulative sum is exact and avoids the unstable forward recursion.
        Masses below the cutoff are dropped; their total is folded back into
        each row's complement mass at state 0."""
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

    def beta(self, i: int) -> float:
        if i < 0:
            raise ValueError("service-count index must be nonnegative")
        masses = self.beta_masses
        return float(masses[i]) if i < len(masses) else 0.0

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
        masses = self.beta_masses
        top = min(x, len(masses) - 1)
        # explicit targets stop at x+1-top >= 1, so the complement at 0 is
        # always a separate entry and the row sums to one exactly
        entries = [(x + 1 - i, float(masses[i])) for i in range(top + 1)]
        rest = 1.0 - math.fsum(p for _, p in entries)
        if rest > 0.0:
            entries.append((0, rest))
        return entries

    @cached_property
    def _row_masses(self) -> list:
        """Entry masses of ``row(x)`` by its number t = min(x + 1, len(beta))
        of explicit entries: beta_0..beta_{t-1}, then the complement at 0
        when it is positive (computed exactly as ``row`` computes it)."""
        masses = self.beta_masses
        table = []
        for t in range(len(masses) + 1):
            rest = 1.0 - math.fsum(masses[:t].tolist())
            table.append(np.append(masses[:t], rest) if rest > 0.0 else masses[:t])
        return table

    def rows(self, states):
        """Batch form of ``row``: the same entries, in row order, same floats."""
        table = self._row_masses
        top = len(table) - 1
        targets, p = [], []
        for x in states:
            t = min(max(x + 1, 0), top)
            targets += range(x + 1, x + 1 - t, -1)
            if len(table[t]) > t:
                targets.append(0)
            p.append(table[t])
        pos = np.repeat(np.arange(len(p)), [len(q) for q in p])
        return pos, targets, np.concatenate(p)

    def norm(self, x) -> float:
        return float(x)

    def states_within(self, radius: float):
        return range(int(math.floor(radius)) + 1)

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

    def lyapunov(self, c1: float = 300.0, c2: float = 300.0,
                 c3: float = 300.0) -> GM1Lyapunov:
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
        a3 = 4 * c3 * (1 - ev) + 1
        if a3 >= 0:
            raise ModelError("moment coefficient too small: leading drift term "
                             "is not negative")
        a2, a1, a0 = 6 * c3 * e1m2, 4 * c3 * e1m3, c3 * e1m4
        root_bound = math.ceil(1 + max(abs(a2 / a3), abs(a1 / a3), abs(a0 / a3)))
        n3 = root_bound
        if (self.mu, self.b) == (1.0, 2.01) and root_bound <= 1803:
            # published scan radius for the reference configuration; any
            # radius at or past the root bound certifies the tail
            n3 = 1803
        return GM1Lyapunov(
            c1=c1, c2=c2, c3=c3, n1=n1, n2=n2, n3=n3,
            g1=lambda x: c1 * float(x) ** 2,
            g2=lambda x: c2 * float(x),
            g3=lambda x: c3 * float(x) ** 4,
            w=lambda x: float(x) ** 3,
            r=lambda x: float(x),
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
        one = lambda x: 1.0
        if return_set is None:
            return_set = construct_K(self, ly.g2, ly.g2, one, ly.n2, ly.n2)
        return DriftCertificate.single(return_set, one, ly.g2, ly.n2)


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
        self.rewards = {"r": lambda s: float(s[0] + s[1]), "e": lambda s: 1.0}

    def rate_row(self, state):
        x1, x2 = state
        out = [
            ((x1 + 1, x2), self.lam / (1.0 + x2)),
            ((x1, x2 + 1), self.lam / (1.0 + x1)),
        ]
        if x1:
            out.append(((x1 - 1, x2), self.mu * x1))
        if x2:
            out.append(((x1, x2 - 1), self.mu * x2))
        return out

    def rate_rows(self, states):
        """Batch form of ``rate_row``: ``(pos, targets, rates)`` with each
        state's channels in ``rate_row`` order and the same floats."""
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
        return pos, list(zip(t1.tolist(), t2.tolist())), rates

    def norm(self, state) -> float:
        return float(state[0] + state[1])

    def states_within(self, radius: float):
        top = int(math.floor(radius))
        for s in range(top + 1):
            for x1 in range(s + 1):
                yield (x1, s - x1)

    def lyapunov(self) -> ToggleLyapunov:
        lam, mu, xs = self.lam, self.mu, self.x_star
        c0 = 2 * lam
        c1 = 1 + 2 * lam + 2 * mu * (2 * xs + 1)
        c2 = 2 * mu
        n1 = math.ceil((c1 + math.sqrt(c1 * c1 + 4 * c2 * c0 / 2)) / c2)
        n2 = math.ceil((2 * lam + 4 * mu * xs + 1) / mu)
        return ToggleLyapunov(
            n1=n1,
            n2=n2,
            g1=lambda s: (s[0] - xs) ** 2 + (s[1] - xs) ** 2,
            g2=lambda s: abs(s[0] - xs) + abs(s[1] - xs),
            r=lambda s: float(s[0] + s[1]),
        )

    def moment_data(self, alpha: float = 4.0):
        """Quartic-free moment route: g3 = alpha * g1 against w = (x1+x2)^2.

        Returns (g3, w, n3).  Requires alpha * mu > 1 so the quadratic decay
        dominates the reward."""
        lam, mu, xs = self.lam, self.mu, self.x_star
        c0 = 2 * lam
        c1 = 1 + 2 * lam + 2 * mu * (2 * xs + 1)
        c2 = 2 * mu
        c3 = 1.0
        lead = alpha * c2 / 2 - c3
        if lead <= 0:
            raise ModelError("alpha too small for the quadratic moment route")
        n3 = math.ceil((alpha * c1 + math.sqrt((alpha * c1) ** 2
                                               + 4 * lead * alpha * c0)) / (2 * lead))
        ly = self.lyapunov()
        g3 = lambda s: alpha * ly.g1(s)
        w = lambda s: float(s[0] + s[1]) ** 2
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
        return DriftCertificate.single(return_set, lambda s: 1.0, ly.g2, ly.n2,
                                       skip_rate_domination=True)
