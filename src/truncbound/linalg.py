"""Sparse/dense linear-algebra kernels with mandatory residual certification.

Every solve in this module double-checks its own result.  The downstream
bounds are certificates, so a silently inaccurate factorization would void
them; residual checks therefore raise instead of warning.
"""

from __future__ import annotations

import numpy as np
# scipy.sparse loads first, as it did from censor.py: the first scipy
# subpackage to load sets numpy's submodule import order and with it set-up time
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError, ReducibleMatrixError

SOLVE_RESIDUAL_TOL = 1e-9
STATIONARY_RESIDUAL_TOL = 1e-10
CHECK_COLUMNS = 16   # residual columns formed at once by the solve check


class SubstochasticSolver:
    """Sparse LU factorization of ``(I - M)`` for a strictly substochastic
    block ``M``, dense or sparse, of any size.

    The factorization is computed once and is immutable afterwards; repeated
    right-hand sides reuse it.  ``solve`` certifies the residual
    ``||(I - M) x - b||_inf <= tol * max(||b||_inf, ||I - M||_inf * ||x||_inf)``
    columnwise and raises :class:`NumericalError` on failure.  Each column is
    solved and checked times the ``2^k`` (``0 <= k <= 1022``) that brings its
    largest magnitude near ``2^256``, and ``x`` scaled back: exact for normal
    numbers, it keeps tiny data (gm1's 1e-300 masses) out of subnormal arithmetic.
    """

    def __init__(self, M):
        self.n = n = M.shape[0]
        if n != M.shape[1]:
            raise ValueError("square block required")
        if n == 0:
            self._mode = "empty"
            self._A = sp.csc_matrix((0, 0))
            self.operator_norm = 1.0
        else:
            self._mode = "sparse"
            # one copy of I - M, in CSC: splu takes it as it is, and _check reads it
            self._A = A = sp.identity(n, format="csc") - sp.csc_matrix(M)
            # set here, not on first use: concurrent solves read it in _check
            self.operator_norm = float(np.bincount(A.indices, np.abs(A.data), n).max())
            try:
                self._lu = spla.splu(A)
            except RuntimeError as exc:
                raise NumericalError(f"sparse LU of (I - M) failed: {exc}") from exc

    def _check(self, X: np.ndarray, B: np.ndarray, trans: bool, k=0) -> np.ndarray:
        """Raise unless every column's residual is within tolerance; returns
        the residual norms ``max |(I - M) x - b|`` by column.  ``X`` and ``B``
        are the system scaled by ``2^k``; the error message undoes it."""
        A = self._A.T if trans else self._A
        # a block of columns at a time: the product copies its (Fortran-ordered)
        # operand to C order, so it and R never grow past n x CHECK_COLUMNS
        rn = np.empty(X.shape[1])
        for lo in range(0, X.shape[1], CHECK_COLUMNS):
            hi = lo + CHECK_COLUMNS
            R = A @ X[:, lo:hi]
            R -= B[:, lo:hi]
            np.abs(R, out=R)
            rn[lo:hi] = R.max(axis=0)
        bn = np.maximum(B.max(axis=0), -B.min(axis=0))   # max |.| without an |B| copy
        xn = np.maximum(X.max(axis=0), -X.min(axis=0))
        tol = SOLVE_RESIDUAL_TOL * np.maximum(bn, self.operator_norm * xn)
        # all-zero columns solve to all-zero exactly
        bad = rn > np.maximum(tol, 0.0)
        if np.any(bad):
            worst = int(np.argmax(rn - tol))
            rn, tol = np.ldexp(rn, -k), np.ldexp(tol, -k)
            raise NumericalError(
                f"residual check failed for (I - M) solve: column {worst}, "
                f"residual {rn[worst]:.3e} > tol {tol[worst]:.3e}")
        return rn

    def solve(self, b, *, transpose: bool = False) -> np.ndarray:
        """Solve ``(I - M) x = b`` (or the transposed system)."""
        b = np.asarray(b, dtype=float)
        if self.n == 0:
            return np.zeros(b.shape)
        single = b.ndim == 1
        B = b[:, None] if single else b
        if not np.all(np.isfinite(B)):
            raise NumericalError("non-finite right-hand side")
        # one multiply by 2^k per column: np.ldexp over all of B costs ~25 multiplies
        k = np.clip(256 - np.frexp(np.maximum(B.max(axis=0), -B.min(axis=0)))[1], 0, 1022)
        B = B * np.ldexp(1.0, k)
        X = self._lu.solve(B, trans="T" if transpose else "N")
        if not np.all(np.isfinite(X)):
            raise NumericalError("singular-to-working-precision (I - M) system")
        self._check(X, B, transpose, k)
        X *= np.ldexp(1.0, -k)
        return X[:, 0] if single else X


def stationary_small(P) -> np.ndarray:
    """Stationary row vector of a small irreducible stochastic matrix.

    Replaces one (redundant) balance equation of ``pi (I - P) = 0`` with the
    normalization ``sum(pi) = 1`` and solves the resulting nonsingular system
    densely.
    """
    n = P.shape[0]
    if n == 1:
        return np.ones(1)
    A = np.eye(n) - P.T
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
            "or numerically degenerate")
    pi = pi / pi.sum()
    resid = np.max(np.abs(pi @ P - pi))
    if resid > STATIONARY_RESIDUAL_TOL:
        raise NumericalError(
            f"stationary residual {resid:.3e} exceeds {STATIONARY_RESIDUAL_TOL:.1e}")
    return pi


def is_irreducible(M) -> bool:
    """Whether the graph of ``M``'s stored entries is strongly connected."""
    A = sp.csr_matrix(M) if not sp.issparse(M) else M.tocsr()
    structure = sp.csr_matrix((np.ones_like(A.data), A.indices, A.indptr), shape=A.shape)
    n_comp, _ = connected_components(structure, directed=True, connection="strong")
    return n_comp == 1
