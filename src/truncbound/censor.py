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

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IrreducibilityError, ModelError, NumericalError
from .linalg import SubstochasticSolver, is_irreducible, stationary_small
from .statespace import Partition

ROW_SUM_SLACK = 1e-12
# right-hand sides per censored solve block; narrow blocks keep each lane's
# dense |A'| x 8 temporaries small enough for the allocator to reuse them
RHS_CHUNK = 8


def _two_lanes(fn, items) -> list:
    """``[fn(item) for item in items]``, computed on two lanes: the caller
    runs the even-indexed items and one helper thread the odd-indexed ones,
    each lane in item order.  Only worth it where ``fn`` spends its time in
    native code that releases the GIL.

    Each lane stops at its own first failure; the failure with the lowest
    item index is raised, which is the one a serial loop raises, as every
    item before it has succeeded.  The helper is joined before this returns.
    """
    items = list(items)
    out = [None] * len(items)
    failed = {}                         # item index -> exception

    def lane(first):
        for i in range(first, len(items), 2):
            try:
                out[i] = fn(items[i])
            except BaseException as exc:    # re-raised below, on the caller
                failed[i] = exc
                return

    helper = None
    if len(items) > 1:
        helper = threading.Thread(target=lane, args=(1,), name="truncbound-lane")
        helper.start()
    try:
        lane(0)
    finally:
        if helper is not None:
            helper.join()
    if failed:
        raise failed[min(failed)]
    return out


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

    def __init__(self, rows: np.ndarray, denominator: float, clamped: bool):
        self.rows = rows
        self.denominator = denominator
        self.clamped = clamped
        self._diameter = None

    def l1_diameter(self) -> float:
        """``max_{x,y} sum_z |tau_x(z) - tau_y(z)|``, computed once per family
        and floored at ``8 eps`` when clamped: the rows then carry a spread
        below the rounding noise of their normalization.  Exact, with the bits
        of an all-pairs scan: two pivots (row 0 and the row farthest from it)
        bound every pair by the triangle inequality, inflated by ``4 k eps``
        for rounding, and only pairs whose bound exceeds the best distance so
        far are summed.  Non-finite rows give NaN, which no bound could prune."""
        if self._diameter is None:
            rows, k = self.rows, len(self.rows)
            if not np.isfinite(rows).all():
                return float("nan")
            d0 = np.abs(rows - rows[0]).sum(axis=1)
            d1 = np.abs(rows - rows[int(np.argmax(d0))]).sum(axis=1)
            best = float(d1.max())
            if self.clamped:
                best = max(best, 8.0 * np.finfo(float).eps)
            ub = np.minimum(np.add.outer(d0, d0), np.add.outer(d1, d1))
            ub *= 1.0 + 4.0 * k * np.finfo(float).eps
            # best only grows, so a row whose bounds all stay below it is done
            for x in np.flatnonzero(ub.max(axis=1) > best):
                ys = x + 1 + np.flatnonzero(ub[x, x + 1:] > best)
                best = float(np.abs(rows[ys] - rows[x]).sum(axis=1).max(initial=best))
            self._diameter = best
        return self._diameter


def _tau_stable(G: np.ndarray, z: int) -> TauFamily:
    k = G.shape[0]
    if k == 1:
        return TauFamily(np.ones((1, 1)), float(1.0 - G[0, 0]), False)
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
    return TauFamily(rows, D, clamped)


@dataclass
class CensoredApprox:
    """The censored matrix with its row-normalized stochasticization and mixture family."""

    G: np.ndarray
    row_mass: np.ndarray            # n(x) = sum_y G(x, y)

    @cached_property
    def _irreducible_G(self) -> np.ndarray:
        """``G``, checked once: its stationary vector and family need it irreducible."""
        if not is_irreducible(self.G):
            raise IrreducibilityError(
                "censored matrix is reducible: some K states cannot reach each "
                "other through paths inside A; the bound construction requires "
                "an irreducible censored matrix (choose K and A accordingly)"
            )
        return self.G

    @cached_property
    def row_normalized(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-normalized stochasticization ``P2 = G / n`` with its stationary vector."""
        if np.any(self.row_mass <= 0.0):
            bad = int(np.argmin(self.row_mass))
            raise ModelError(
                f"K state at index {bad} cannot reach K again inside A "
                "(zero censored row sum); enlarge A or shrink K"
            )
        P2 = self._irreducible_G / self.row_mass[:, None]
        pi2 = stationary_small(P2)
        return P2, pi2

    @cached_property
    def tau(self) -> TauFamily:
        z = int(np.argmax(self.row_mass))  # ties break to the lowest index
        return _tau_stable(self._irreducible_G, z)


class TruncationWorkspace:
    """Shared factorizations and caches for one (K, A) partition."""

    def __init__(self, partition: Partition):
        self.partition = partition
        self.solver = SubstochasticSolver(partition.P22)
        self._cycle_rewards: dict = {}   # BoundInputs -> its cycle rewards
        self._kappa: dict = {}           # a reward's bytes -> its kappa_lower
        self._censored: CensoredApprox | None = None

    def kappa_lower(self, w_A: np.ndarray) -> np.ndarray:
        """Within-A part of the expected reward per K-cycle:
        ``w1 + P12 (I - P22)^{-1} w2`` over K, for a reward over A or for each
        column of an ``(|A|, m)`` array.  Cheap lower bound for the full cycle
        reward; exact when A covers the whole space.  Applied to a boundary
        overflow h it bounds the per-state reward mass the truncation cannot
        see."""
        w, k = np.asarray(w_A, dtype=float), self.partition.k_size
        return w[:k] + self.partition.P12 @ self.solver.solve(w[k:])

    def _cycle_reward(self, w_A: np.ndarray) -> np.ndarray:
        """``kappa_lower`` of one reward over A, solved once per workspace and value."""
        key = np.asarray(w_A, dtype=float).tobytes()
        if key not in self._kappa:
            self._kappa[key] = self.kappa_lower(w_A)
        return self._kappa[key]

    def cycle_rewards(self, inputs) -> tuple[np.ndarray, ...]:
        """``(kl_r, kl_e, beta1, beta2, ku_r, ku_e)`` of a ``BoundInputs``:
        ``kappa_lower`` of the envelope, the unit reward, ``h1`` and ``h2``,
        and the upper cycle rewards ``ku = kl + beta``; solved once per
        workspace and instance, and read-only, as every query shares them.
        Each vector is solved once per value: an envelope that is 1 on all of
        A shares the unit reward's solve, a pair of one function its ``h1``'s,
        and on a shared return set ``e``'s ``h1`` is ``r``'s ``h2``."""
        cr = self._cycle_rewards.get(inputs)
        if cr is None:
            unit = self.partition.unit
            kl_r, kl_e, beta1, beta2 = (self._cycle_reward(w) for w in (
                inputs.r_A * unit, unit, inputs.h1_A, inputs.h2_A))
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
        # (I - P22)^{-1} P21 is zero and adds nothing to P11; they are solved
        # a block at a time on two lanes, so no dense |A'| x |K| array is
        # ever held, and each block is added into its own columns of G
        P21 = part.P21.tocsc()
        cols = np.flatnonzero(np.diff(P21.indptr))
        blocks = [cols[lo:lo + RHS_CHUNK] for lo in range(0, len(cols), RHS_CHUNK)]
        G = part.P11.toarray()
        products = _two_lanes(
            lambda c: part.P12 @ self.solver.solve(P21[:, c].toarray()), blocks)
        for c, product in zip(blocks, products):
            G[:, c] += product
        np.clip(G, 0.0, None, out=G)  # solver noise only; true entries are nonnegative
        mass = G.sum(axis=1)
        if np.any(mass > 1.0 + ROW_SUM_SLACK):
            raise NumericalError(
                f"censored row mass {mass.max()!r} exceeds 1 beyond tolerance"
            )
        self._censored = CensoredApprox(G=G, row_mass=mass)
        return self._censored

    def approx_distribution(self, pi_K: np.ndarray) -> np.ndarray:
        """Induced equilibrium approximation over A (zero off A by construction)."""
        v = self.solver.solve(self.partition.P12.T @ pi_K, transpose=True)
        eta = np.concatenate([pi_K, v]) * self.partition.unit
        total = eta.sum()
        if total <= 0.0:
            raise NumericalError("degenerate occupation mass in approx_distribution")
        return eta / total
