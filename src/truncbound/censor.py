"""Censored-chain approximation pipeline.

Everything here is built from the within-A blocks only.  The computable
census of return behaviour is the substochastic matrix

    G = P11 + P12 (I - P22)^{-1} P21,

whose (x, y) entry is the probability that the chain started at x in K
re-enters K at y without leaving A.  G underestimates the true return
matrix of the watched-on-K chain; all approximations and bounds flow from
it and from inexpensive solves against the same (I - P22) factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IrreducibilityError, ModelError, NumericalError
from .linalg import (
    SubstochasticSolver,
    is_irreducible,
    perron_eigenpair,
    stationary_small,
)
from .statespace import Partition

ROW_SUM_SLACK = 1e-12
RHS_CHUNK = 256
DIAMETER_CHUNK = 8   # rows per pass of l1_diameter: an (8, k, k) buffer


class TauFamily:
    """Normalized rows of ``(I - G)^{-1}``: the extreme points of the set of
    stationary vectors compatible with the minorization ``G <= P_K``.

    Built through the deleted-state reformulation: one state ``z`` (the row
    of largest mass) is removed, systems are solved against the well
    conditioned ``(I - G_hat)``, and the removed row/column is recombined.
    The common scale factor ``1/D`` cancels in every normalized quantity, so
    rows stay accurate even when ``I - G`` is nearly singular.  ``D`` is the
    leak-before-return probability at ``z``; it is clamped to zero when it
    falls below the cancellation noise floor (the leak is then unresolvable
    in double precision and all rows coincide).
    """

    def __init__(self, rows: np.ndarray, z_index: int, denominator: float,
                 clamped: bool):
        self.rows = rows
        self.z_index = z_index
        self.denominator = denominator
        self.clamped = clamped
        self._diameter = None

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    def dot(self, v: np.ndarray) -> np.ndarray:
        """Vector of mixture expectations ``tau_x . v`` over x in K."""
        return self.rows @ v

    def l1_diameter(self) -> float:
        """``max_{x,y} sum_z |tau_x(z) - tau_y(z)|`` over the pairs y >= x
        (the sum is symmetric), computed once per family."""
        if self._diameter is None:
            rows, k = self.rows, self.size
            buf = np.empty((min(DIAMETER_CHUNK, k), k, k))
            d = 0.0
            for lo in range(0, k, DIAMETER_CHUNK):
                hi = min(lo + DIAMETER_CHUNK, k)
                diff = buf[: hi - lo, : k - lo]
                np.subtract(rows[None, lo:], rows[lo:hi, None], out=diff)
                np.abs(diff, out=diff)
                d = max(d, float(diff.sum(axis=2).max()))
            self._diameter = d
        return self._diameter


def _tau_stable(G: np.ndarray, z: int) -> TauFamily:
    k = G.shape[0]
    if k == 1:
        return TauFamily(np.ones((1, 1)), 0, float(1.0 - G[0, 0]), False)
    keep = np.array([i for i in range(k) if i != z])
    Ghat = G[np.ix_(keep, keep)]
    try:
        W = np.linalg.inv(np.eye(k - 1) - Ghat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"(I - G_hat) inversion failed: {exc}") from exc
    chi = G[keep, z]
    u = W @ chi                       # P_x(reach z before leaking), x != z
    gz = G[z, keep]
    ret = float(G[z, z] + gz @ u)     # P_z(return to z before leaking)
    D = 1.0 - ret
    noise = 64.0 * np.finfo(float).eps * (1.0 + abs(G[z, z]) + float(np.abs(gz) @ np.abs(u)))
    if D < -noise:
        raise NumericalError(
            f"deleted-state denominator {D:.3e} is negative beyond the noise "
            f"floor {noise:.3e}; the censored matrix is super-stochastic"
        )
    # a denominator inside the cancellation band is numerically zero: keeping
    # it would inject noise-level spread into the rows, so collapse to the
    # leak-free limit instead (all rows equal)
    clamped = D < noise
    Dc = 0.0 if clamped else D
    # scaled inverse rows: D * (I - G)^{-1}; the scale cancels on normalization
    N = np.zeros(k)
    N[z] = 1.0
    N[keep] = gz @ W
    S = np.zeros((k, k))
    S[np.ix_(keep, keep)] = Dc * W
    S[keep, :] += np.outer(u, N)
    S[z, :] = N
    sums = S.sum(axis=1)
    if np.any(sums <= 0.0):
        raise NumericalError("nonpositive row sum in mixture-family assembly")
    rows = S / sums[:, None]
    np.clip(rows, 0.0, None, out=rows)
    rows /= rows.sum(axis=1)[:, None]
    return TauFamily(rows, z, D, clamped)


def tau_family_direct(G: np.ndarray) -> np.ndarray:
    """Reference path: normalized rows of a dense ``(I - G)^{-1}``.

    Only trustworthy when ``I - G`` is well conditioned; used for
    cross-validation of the deleted-state path.
    """
    k = G.shape[0]
    M = np.linalg.inv(np.eye(k) - G)
    sums = M.sum(axis=1)
    if np.any(sums <= 0.0):
        raise NumericalError("direct (I - G)^{-1} has a nonpositive row sum")
    return M / sums[:, None]


@dataclass
class CensoredApprox:
    """The censored matrix with its stochasticizations and mixture family."""

    G: np.ndarray
    row_mass: np.ndarray            # n(x) = sum_y G(x, y)

    @cached_property
    def row_normalized(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-normalized stochasticization ``P2 = G / n`` with its stationary vector."""
        if np.any(self.row_mass <= 0.0):
            bad = int(np.argmin(self.row_mass))
            raise ModelError(
                f"K state at index {bad} cannot reach K again inside A "
                "(zero censored row sum); enlarge A or shrink K"
            )
        P2 = self.G / self.row_mass[:, None]
        pi2 = stationary_small(P2)
        return P2, pi2

    @cached_property
    def perron_normalized(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalue-twisted stochasticization ``P1(x,y) = G(x,y) h(y) / (lam h(x))``."""
        lam, nu, h = perron_eigenpair(self.G)
        P1 = self.G * h[None, :] / (lam * h[:, None])
        pi1 = nu * h
        pi1 = pi1 / pi1.sum()
        resid = np.max(np.abs(pi1 @ P1 - pi1))
        if resid > 1e-10:
            raise NumericalError(f"Perron stationary residual {resid:.3e}")
        return P1, pi1

    @cached_property
    def tau(self) -> TauFamily:
        z = int(np.argmax(self.row_mass))  # ties break to the lowest index
        return _tau_stable(self.G, z)


class TruncationWorkspace:
    """Shared factorizations and caches for one (K, A) partition."""

    def __init__(self, partition: Partition, *, require_irreducible: bool = True):
        self.partition = partition
        self.solver = SubstochasticSolver(partition.P22)
        self.require_irreducible = require_irreducible
        self._cycle_rewards: dict = {}   # BoundInputs -> its cycle rewards
        self._censored: CensoredApprox | None = None

    @property
    def k_size(self) -> int:
        return self.partition.k_size

    @property
    def unit_vec(self) -> np.ndarray:
        return self.partition.unit

    def kappa_lower(self, w_A: np.ndarray) -> np.ndarray:
        """Within-A part of the expected reward per K-cycle:
        ``w1 + P12 (I - P22)^{-1} w2`` over K, for a reward over A or for each
        column of an ``(|A|, m)`` array.  Cheap lower bound for the full cycle
        reward; exact when A covers the whole space.  Applied to a boundary
        overflow h it bounds the per-state reward mass the truncation cannot
        see."""
        w, k = np.asarray(w_A, dtype=float), self.k_size
        return w[:k] + self.partition.P12 @ self.solver.solve(w[k:])

    @cached_property
    def _unit_cycle_reward(self) -> np.ndarray:
        """``kappa_lower`` of the unit reward, solved once per workspace."""
        return self.kappa_lower(self.unit_vec)

    def cycle_rewards(self, inputs) -> tuple[np.ndarray, ...]:
        """``(kl_r, kl_e, beta1, beta2, ku_r, ku_e)`` of a ``BoundInputs``:
        ``kappa_lower`` of the envelope, the unit reward, ``h1`` and ``h2``,
        and the upper cycle rewards ``ku = kl + beta``; solved once per
        workspace and instance, and read-only, as every query shares them.
        An envelope that is 1 on all of A is the unit reward: its ``kl_r``
        is ``kl_e``."""
        cr = self._cycle_rewards.get(inputs)
        if cr is None:
            kl_e = self._unit_cycle_reward
            kl_r = kl_e if np.all(inputs.r_A == 1.0) \
                else self.kappa_lower(inputs.r_A * self.unit_vec)
            beta1, beta2 = self.kappa_lower(inputs.h1_A), self.kappa_lower(inputs.h2_A)
            cr = self._cycle_rewards[inputs] = (
                kl_r, kl_e, beta1, beta2, kl_r + beta1, kl_e + beta2)
            for v in cr:
                v.flags.writeable = False
        return cr

    def censored(self) -> CensoredApprox:
        if self._censored is not None:
            return self._censored
        part = self.partition
        # only the K columns that P21 hits get a solve: the rest of
        # (I - P22)^{-1} P21 is zero and adds nothing to P11
        P21 = part.P21.tocsc()
        cols = np.flatnonzero(np.diff(P21.indptr))
        B = P21[:, cols].toarray()
        X = np.empty_like(B)
        for lo in range(0, len(cols), RHS_CHUNK):
            X[:, lo:lo + RHS_CHUNK] = self.solver.solve(B[:, lo:lo + RHS_CHUNK])
        G = part.P11.toarray()
        G[:, cols] += part.P12 @ X
        np.clip(G, 0.0, None, out=G)  # solver noise only; true entries are nonnegative
        mass = G.sum(axis=1)
        if np.any(mass > 1.0 + ROW_SUM_SLACK):
            raise NumericalError(
                f"censored row mass {mass.max()!r} exceeds 1 beyond tolerance"
            )
        if self.require_irreducible and not is_irreducible(G):
            raise IrreducibilityError(
                "censored matrix is reducible: some K states cannot reach each "
                "other through paths inside A; the bound construction requires "
                "an irreducible censored matrix (choose K and A accordingly)"
            )
        self._censored = CensoredApprox(G=G, row_mass=mass)
        return self._censored

    # -- approximations ----------------------------------------------------

    def approx_expectation(self, pi_K: np.ndarray, w_A: np.ndarray) -> float:
        """Ratio approximation of the equilibrium expectation of ``w``."""
        u = self.unit_vec
        num = float(pi_K @ self.kappa_lower(w_A * u))
        den = float(pi_K @ self._unit_cycle_reward)
        return num / den

    def approx_distribution(self, pi_K: np.ndarray) -> np.ndarray:
        """Induced equilibrium approximation over A (zero off A by construction)."""
        v = self.solver.solve(self.partition.P12.T @ pi_K, transpose=True)
        eta = np.concatenate([pi_K, v]) * self.unit_vec
        total = eta.sum()
        if total <= 0.0:
            raise NumericalError("degenerate occupation mass in approx_distribution")
        return eta / total
