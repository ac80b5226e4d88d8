"""Sparse/dense linear-algebra kernels with mandatory residual certification.

Every solve in this module double-checks its own result.  The downstream
bounds are certificates, so a silently inaccurate factorization would void
them; residual checks therefore raise instead of warning.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
# scipy.sparse loads first, as it did from censor.py: the first scipy
# subpackage to load sets numpy's submodule import order and with it set-up time
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError, ReducibleMatrixError

SOLVE_RESIDUAL_TOL = 1e-9
STATIONARY_RESIDUAL_TOL = 1e-10
FUNDAMENTAL_RESIDUAL_TOL = 1e-9
PERRON_TOL = 1e-12
PERRON_MAX_ITER = 1_000_000


def _as_dense(M) -> np.ndarray:
    if sp.issparse(M):
        return M.toarray()
    return np.asarray(M, dtype=float)


class SubstochasticSolver:
    """Sparse LU factorization of ``(I - M)`` for a strictly substochastic
    block ``M``, dense or sparse, of any size.

    The factorization is computed once and is immutable afterwards; repeated
    right-hand sides reuse it.  ``solve`` certifies the residual
    ``||(I - M) x - b||_inf <= tol * max(||b||_inf, ||I - M||_inf * ||x||_inf)``
    columnwise and raises :class:`NumericalError` on failure.
    """

    def __init__(self, M):
        n = M.shape[0]
        if M.shape[0] != M.shape[1]:
            raise ValueError("square block required")
        self.n = n
        if n == 0:
            self._mode = "empty"
            self._A = sp.csr_matrix((0, 0))
        else:
            self._mode = "sparse"
            A = (sp.identity(n, format="csc") - sp.csc_matrix(M)).tocsc()
            self._A = A.tocsr()
            try:
                self._lu = spla.splu(A)
            except RuntimeError as exc:
                raise NumericalError(f"sparse LU of (I - M) failed: {exc}") from exc
        self._norm_A = None

    @property
    def operator_norm(self) -> float:
        if self._norm_A is None:
            if self._mode == "empty":
                self._norm_A = 1.0
            else:
                row_sums = np.asarray(np.abs(self._A).sum(axis=1)).ravel()
                self._norm_A = float(row_sums.max())
        return self._norm_A

    def _check(self, X: np.ndarray, B: np.ndarray, trans: bool) -> None:
        A = self._A
        R = (A.T @ X if trans else A @ X) - B
        rn = np.max(np.abs(R), axis=0)
        bn = np.max(np.abs(B), axis=0)
        xn = np.max(np.abs(X), axis=0)
        tol = SOLVE_RESIDUAL_TOL * np.maximum(bn, self.operator_norm * xn)
        # all-zero columns solve to all-zero exactly
        bad = rn > np.maximum(tol, 0.0)
        if np.any(bad):
            worst = int(np.argmax(rn - tol))
            raise NumericalError(
                f"residual check failed for (I - M) solve: column {worst}, "
                f"residual {rn[worst]:.3e} > tol {tol[worst]:.3e}"
            )

    def solve(self, b, *, transpose: bool = False) -> np.ndarray:
        """Solve ``(I - M) x = b`` (or the transposed system)."""
        b = np.asarray(b, dtype=float)
        if self.n == 0:
            return np.zeros(b.shape)
        single = b.ndim == 1
        B = b[:, None] if single else b
        if not np.all(np.isfinite(B)):
            raise NumericalError("non-finite right-hand side")
        X = self._lu.solve(B, trans="T" if transpose else "N")
        if not np.all(np.isfinite(X)):
            raise NumericalError("singular-to-working-precision (I - M) system")
        self._check(X, B, transpose)
        return X[:, 0] if single else X


def stationary_small(P) -> np.ndarray:
    """Stationary row vector of a small irreducible stochastic matrix.

    Replaces one (redundant) balance equation of ``pi (I - P) = 0`` with the
    normalization ``sum(pi) = 1`` and solves the resulting nonsingular system
    densely; a sparse ``P`` is densified first.
    """
    n = P.shape[0]
    if n == 1:
        return np.ones(1)
    A = np.eye(n) - _as_dense(P).T
    A[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"stationary solve failed: {exc}") from exc
    if not np.all(np.isfinite(pi)):
        raise NumericalError("stationary solve produced non-finite entries")
    if np.any(pi <= 0.0):
        raise ReducibleMatrixError(
            "stationary vector has a non-positive component; matrix is reducible "
            "or numerically degenerate"
        )
    pi = pi / pi.sum()
    resid = np.max(np.abs(pi @ P - pi))
    if resid > STATIONARY_RESIDUAL_TOL:
        raise NumericalError(
            f"stationary residual {resid:.3e} exceeds {STATIONARY_RESIDUAL_TOL:.1e}")
    return pi


class PerronEigenpair(NamedTuple):
    """Dominant eigenvalue with positive left/right eigenvectors.

    Normalized so that ``sum(nu * h) = 1``.
    """

    value: float
    left: np.ndarray
    right: np.ndarray


def perron_eigenpair(G, *, tol: float = PERRON_TOL,
                     max_iter: int = PERRON_MAX_ITER) -> PerronEigenpair:
    """Perron root and positive eigenvectors of an irreducible nonnegative matrix.

    Power iteration on ``G + I``; the unit shift breaks periodicity so the
    iteration converges for every irreducible nonnegative matrix.  The
    Rayleigh-quotient estimate of the shifted root is un-shifted at the end.
    """
    A = _as_dense(G)
    n = A.shape[0]
    if np.any(A < 0):
        raise ValueError("nonnegative matrix required")
    if n == 1:
        lam = float(A[0, 0])
        h = np.ones(1)
        nu = np.ones(1)
        return PerronEigenpair(lam, nu, h)
    S = A + np.eye(n)
    h = np.full(n, 1.0 / n)
    nu = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        h_new = S @ h
        nu_new = nu @ S
        h_new /= h_new.sum()
        nu_new /= nu_new.sum()
        delta = np.abs(h_new - h).sum() + np.abs(nu_new - nu).sum()
        h, nu = h_new, nu_new
        if delta < tol:
            break
    else:
        raise NumericalError(
            f"power iteration did not converge within {max_iter} iterations"
        )
    lam = float(nu @ A @ h) / float(nu @ h)
    # scale: sum(nu * h) = 1
    nu = nu / float(nu @ h)
    res_r = np.max(np.abs(A @ h - lam * h)) / max(1.0, abs(lam))
    res_l = np.max(np.abs(nu @ A - lam * nu)) / max(1.0, abs(lam))
    if max(res_r, res_l) > 1e-10 * max(1.0, float(np.max(np.abs(A)))):
        raise NumericalError(
            f"Perron residual {max(res_r, res_l):.3e} too large after convergence"
        )
    return PerronEigenpair(lam, nu, h)


def fundamental_matrix(P1, pi1: np.ndarray) -> np.ndarray:
    """Fundamental matrix ``(I - P1 + Pi1)^{-1}`` of an irreducible stochastic P1.

    ``Pi1`` stacks ``pi1`` in every row.  Note the deviation matrix uses the
    matrix P1 itself (not the host chain's transition matrix): the group
    inverse it encodes is the one paired with ``pi1``.
    """
    P1 = _as_dense(P1)
    n = P1.shape[0]
    A = np.eye(n) - P1 + np.outer(np.ones(n), pi1)
    try:
        F = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"fundamental-matrix factorization failed: {exc}") from exc
    resid = np.max(np.abs(F @ A - np.eye(n)))
    if resid > FUNDAMENTAL_RESIDUAL_TOL:
        raise NumericalError(f"fundamental-matrix residual {resid:.3e} "
                             f"exceeds {FUNDAMENTAL_RESIDUAL_TOL:.1e}")
    return F


def is_irreducible(M) -> bool:
    """Whether the graph of ``M``'s stored entries is strongly connected."""
    A = sp.csr_matrix(M) if not sp.issparse(M) else M.tocsr()
    structure = sp.csr_matrix((np.ones_like(A.data), A.indices, A.indptr), shape=A.shape)
    n_comp, _ = connected_components(structure, directed=True, connection="strong")
    return n_comp == 1
