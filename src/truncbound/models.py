"""Benchmark model families and the generic discrete model.

Two built-in families:

* ``GM1Model``: the queue-length chain of a single-server queue with
  exponential service (rate mu) embedded just before arrival epochs,
  interarrival times uniform on [0, b].  Rows are exactly stochastic: the
  downward mass P(x, 0) is defined as the complement of the explicit masses.
* ``ToggleSwitchModel``: the two-species mutual-repression reaction
  network: synthesis of each type at rate lam / (1 + other count), per
  molecule decay at rate mu.

Both ship their drift data (batched functions and analytic tail radii) as
``model.drift``, so the whole pipeline runs on them out of the box."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

import numpy as np

from .errors import EnumerationLimitError, ModelError
from .lyapunov import DriftCertificate, DriftData, construct_K, unit
from .statespace import DEFAULT_ENUMERATION_CAP, _coords, batched

BETA_MASS_CUTOFF = 1e-300
GM1_COEFFICIENTS = (300.0, 300.0, 300.0)   # c1, c2, c3 of the queue's g1, g2, g3
TOGGLE_MOMENT_ALPHA = 4.0                  # g3 = alpha * g1 on the toggle's moment route


def _ball_top(radius: float, width: int) -> int:
    """The ball's largest coordinate sum; EnumerationLimitError if its states pass the cap."""
    top = int(math.floor(radius))
    if math.comb(max(top + width, 0), width) > DEFAULT_ENUMERATION_CAP:
        raise EnumerationLimitError(f"the ball of radius {radius} has too many states to "
                                    f"enumerate (cap {DEFAULT_ENUMERATION_CAP})")
    return top


class Model:
    """A model's one certificate recipe, fed by its ``drift`` data (a
    :class:`~truncbound.lyapunov.DriftData`, or None for a model that is only
    explored); every model type inherits it."""

    def certificate_for_envelope(self, envelope_id: str,
                                 return_set=None) -> DriftCertificate:
        """The count envelope ``"r"`` gets the pair (g1 against r, g2 against 1),
        the constant envelope ``"e"`` the pair whose two functions are both g2.
        Without ``return_set``, each gets its designed one, built once per
        model: where either drift fails inside the larger radius, or for
        ``"e"`` without ``shared_return_set`` where g2's own drift fails."""
        try:
            d = self.drift
        except OverflowError as exc:    # a finite parameter too large for the drift data
            raise ModelError(f"model {self.name!r}: drift data overflow: {exc.args[-1]}") from exc
        if d is None:
            raise ModelError(f"model {self.name!r} has no drift data to certify")
        if envelope_id not in ("r", "e"):
            raise ModelError(f"unknown envelope {envelope_id!r} (use 'r' or 'e')")
        if return_set is None:
            design = (d.g1, d.g2, d.r, d.n1, d.n2) \
                if envelope_id == "r" or d.shared_return_set else (d.g2, d.g2, unit, d.n2, d.n2)
            built = vars(self).setdefault("_return_sets", {})
            if design not in built:
                built[design] = construct_K(self, *design)
            return_set = built[design]
        else:
            return_set = _coords(return_set, _coords([self.seed]).shape[1],
                                 source="the return set")
        pair = (d.r, d.g1, d.g2, d.n1, d.n2) if envelope_id == "r" \
            else (unit, d.g2, d.g2, d.n2, d.n2)
        return DriftCertificate(return_set, *pair, d.skip_rate_domination)


@dataclass(frozen=True)
class DiscreteModel(Model):
    """Generic discrete-chain model.

    ``rows(states) -> (pos, targets, p[, unit])`` gives the exact finite-support
    rows of the states at the coordinates ``states`` and may give their unit
    weights (see :func:`~truncbound.statespace.explore`).  Rows are validated
    (sums within 1e-12 of one) wherever they are read.  The other hooks are
    what the pipeline needs: the seed of the enumeration, the states within
    a radius (as coordinates) and the drift data."""

    name: str
    seed: object
    rows: Callable
    states_within: Callable[[float], Iterable] | None
    drift: DriftData | None


# ---------------------------------------------------------------------------
# single-server queue with uniform interarrivals


class GeometricLaw:
    """Exact equilibrium of the queue chain: pi(x) = (1 - theta) theta^x.

    Held in extended precision: the defining fixed point is flat near its
    root, so double-precision root finding would cost ~4 decimal digits."""

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


class GM1Model(Model):
    """Queue-length chain observed just before arrivals.

    P(x, y) = beta_{x+1-y} for 1 <= y <= x+1 where beta_i is the probability
    that i services complete during one interarrival time; P(x, 0) carries
    the exact complement, so every row sums to one in exact arithmetic."""

    def __init__(self, mu: float = 1.0, b: float = 2.01):
        if not (0 < mu < math.inf and 0 < b < math.inf):     # NaN fails both
            raise ModelError("service rate and interarrival range must be positive and finite")
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

    def states_within(self, radius: float) -> np.ndarray:
        return np.arange(_ball_top(radius, 1) + 1)

    # -- exact equilibrium -----------------------------------------------------

    def exact_geometric(self) -> GeometricLaw:
        """Geometric equilibrium law via extended-precision bisection on the
        defining transform fixed point.  Requires the stability condition
        (mean service opportunities per interarrival exceed one)."""
        if self.service_count_moment(1) <= 1.0:
            raise ModelError("unstable queue: mean services per interarrival must exceed 1")
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

    @cached_property
    def drift(self) -> DriftData:
        """The quadratic/linear pair for the count envelope r(x) = x; the
        constant envelope gets the (much smaller) set of the linear
        function's own violations.  Built once per model, so drift checks
        share the functions' values."""
        c1, c2, _ = GM1_COEFFICIENTS
        ev = self.service_count_moment(1)
        drift1 = 2 * c1 * (ev - 1) - 1
        drift2 = c2 * (ev - 1) - 1
        if drift1 <= 0 or drift2 <= 0:
            raise ModelError("certificate coefficients too small for this load")
        e1m2 = 1 - 2 * ev + self.service_count_moment(2)
        f = batched(lambda x: 1.0 * x)     # the count as a float
        return DriftData(
            g1=batched(lambda x: c1 * (f(x) * f(x))),
            g2=batched(lambda x: c2 * f(x)),
            r=f,
            n1=math.ceil(c1 * e1m2 / drift1),
            n2=math.ceil(math.sqrt(c2 * self.service_count_moment(3) / drift2)),
            skip_rate_domination=False,
            shared_return_set=False,
        )

    def moment_data(self):
        """Quartic moment route: g3 = c3 x^4 against w = x^3.

        Returns (g3, w, n3), n3 past the largest root of g3's drift
        polynomial, whose leading coefficient must be negative."""
        c3 = GM1_COEFFICIENTS[2]
        ev, ev2, ev3, ev4 = (self.service_count_moment(k) for k in (1, 2, 3, 4))
        a3 = 4 * c3 * (1 - ev) + 1
        if a3 >= 0:
            raise ModelError("load too low for the quartic moment route")
        a2 = 6 * c3 * (1 - 2 * ev + ev2)
        a1 = 4 * c3 * (1 - 3 * ev + 3 * ev2 - ev3)
        a0 = c3 * (1 - 4 * ev + 6 * ev2 - 4 * ev3 + ev4)
        n3 = math.ceil(1 + max(abs(a2 / a3), abs(a1 / a3), abs(a0 / a3)))
        if (self.mu, self.b) == (1.0, 2.01) and n3 <= 1803:
            # published scan radius for the reference configuration; any
            # radius at or past the root bound certifies the tail
            n3 = 1803
        f = batched(lambda x: 1.0 * x)
        return (batched(lambda x: c3 * ((f(x) * f(x)) * (f(x) * f(x)))),
                batched(lambda x: f(x) * f(x) * f(x)), n3)


# ---------------------------------------------------------------------------
# toggle switch reaction network


class ToggleSwitchModel(Model):
    """Mutual-repression network on pairs of molecule counts.

    Four channels per state: synthesis of type i at rate lam / (1 + other
    count) and decay of each molecule at rate mu.  Decay rates vanish at
    zero counts, so the generator is conservative without clamping."""

    def __init__(self, lam: float, mu: float):
        if not (0 < lam < math.inf and 0 < mu < math.inf):   # NaN fails both
            raise ModelError("synthesis and decay rates must be positive and finite")
        x_star = (-1.0 + math.sqrt(1.0 + 4.0 * lam / mu)) / 2.0
        if x_star < 0.5:
            raise ModelError(f"balance point {x_star:.3f} below 1/2: the drift derivation "
                             "does not cover this regime (needs lam/mu >= 3/4)")
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

    def states_within(self, radius: float) -> np.ndarray:
        """The states whose counts sum to at most ``radius``, by that sum, then by x1."""
        top = _ball_top(radius, 2)
        total = np.repeat(np.arange(top + 1), np.arange(1, top + 2))
        x1 = np.arange(total.size) - total * (total + 1) // 2
        return np.column_stack([x1, total - x1])

    @cached_property
    def _drift_constants(self) -> tuple:
        """c0, c1 and c2 of g1's drift bound, read by the radii n1 and n3."""
        lam, mu, xs = self.lam, self.mu, self.x_star
        return 2 * lam, 1 + 2 * lam + 2 * mu * (2 * xs + 1), 2 * mu

    @cached_property
    def drift(self) -> DriftData:
        """The quadratic/L1 pair; built once per model, so drift checks share
        the functions' values.  Neither envelope dominates the exit rate
        (synthesis pushes the rate above the count near the origin, decay
        matches it beyond), so rate domination is skipped: recurrence of
        the embedded chain is carried by the L1 drift, and the cycle
        identity stays valid regardless.  The pair's return set holds every
        violation of the L1 drift, so the constant envelope shares it."""
        lam, mu, xs = self.lam, self.mu, self.x_star
        c0, c1, c2 = self._drift_constants
        return DriftData(
            g1=batched(lambda s: (s[0] - xs) * (s[0] - xs) + (s[1] - xs) * (s[1] - xs)),
            g2=batched(lambda s: abs(s[0] - xs) + abs(s[1] - xs)),
            r=batched(lambda s: 1.0 * (s[0] + s[1])),
            n1=math.ceil((c1 + math.sqrt(c1 * c1 + 4 * c2 * c0 / 2)) / c2),
            n2=math.ceil((2 * lam + 4 * mu * xs + 1) / mu),
            skip_rate_domination=True,
            shared_return_set=True,
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
        g1 = self.drift.g1
        g3 = batched(lambda s: alpha * g1(s))
        w = batched(lambda s: (1.0 * (s[0] + s[1])) * (1.0 * (s[0] + s[1])))
        return g3, w, n3
