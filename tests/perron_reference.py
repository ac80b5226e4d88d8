"""The paper's eigenvector route, kept as a reference for the tests.

The library stochasticizes the censored matrix ``G`` by row normalization
only: that stationary vector provably lies in the mixture family the
certified interval extremizes over.  The paper's second route twists ``G``
by its Perron eigenpair and bounds the stationary gap through a dense
fundamental matrix; this module reproduces it, with its residual guards,
so the tests can keep checking it against the truth and against the
library's total-variation formula.
"""

from typing import NamedTuple

import numpy as np

from truncbound.bounds import ell_lower_bound, tv_bound_general
from truncbound.errors import NumericalError

PERRON_TOL = 1e-12
PERRON_MAX_ITER = 1_000_000
STATIONARY_RESIDUAL_TOL = 1e-10
FUNDAMENTAL_RESIDUAL_TOL = 1e-9


class PerronEigenpair(NamedTuple):
    """Dominant eigenvalue with positive left/right eigenvectors.

    Normalized so that ``sum(nu * h) = 1``.
    """

    value: float
    left: np.ndarray
    right: np.ndarray


def perron_eigenpair(A: np.ndarray) -> PerronEigenpair:
    """Perron root and positive eigenvectors of an irreducible nonnegative matrix.

    Power iteration on ``A + I``; the unit shift breaks periodicity so the
    iteration converges for every irreducible nonnegative matrix.  The
    Rayleigh-quotient estimate of the shifted root is un-shifted at the end.
    """
    n = A.shape[0]
    if np.any(A < 0):
        raise ValueError("nonnegative matrix required")
    if n == 1:
        return PerronEigenpair(float(A[0, 0]), np.ones(1), np.ones(1))
    S = A + np.eye(n)
    h = np.full(n, 1.0 / n)
    nu = np.full(n, 1.0 / n)
    for _ in range(PERRON_MAX_ITER):
        h_new = S @ h
        nu_new = nu @ S
        h_new /= h_new.sum()
        nu_new /= nu_new.sum()
        delta = np.abs(h_new - h).sum() + np.abs(nu_new - nu).sum()
        h, nu = h_new, nu_new
        if delta < PERRON_TOL:
            break
    else:
        raise NumericalError(
            f"power iteration did not converge within {PERRON_MAX_ITER} iterations"
        )
    lam = float(nu @ A @ h) / float(nu @ h)
    nu = nu / float(nu @ h)             # scale: sum(nu * h) = 1
    res_r = np.max(np.abs(A @ h - lam * h)) / max(1.0, abs(lam))
    res_l = np.max(np.abs(nu @ A - lam * nu)) / max(1.0, abs(lam))
    if max(res_r, res_l) > 1e-10 * max(1.0, float(np.max(np.abs(A)))):
        raise NumericalError(
            f"Perron residual {max(res_r, res_l):.3e} too large after convergence"
        )
    return PerronEigenpair(lam, nu, h)


def perron_normalized(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue-twisted stochasticization ``P1(x,y) = G(x,y) h(y) / (lam h(x))``
    of a censored matrix, with its stationary vector ``pi1 ~ nu * h``."""
    lam, nu, h = perron_eigenpair(G)
    P1 = G * h[None, :] / (lam * h[:, None])
    pi1 = nu * h
    pi1 = pi1 / pi1.sum()
    resid = np.max(np.abs(pi1 @ P1 - pi1))
    if resid > STATIONARY_RESIDUAL_TOL:
        raise NumericalError(f"Perron stationary residual {resid:.3e}")
    return P1, pi1


def fundamental_matrix(P1: np.ndarray, pi1: np.ndarray) -> np.ndarray:
    """Fundamental matrix ``(I - P1 + Pi1)^{-1}`` of an irreducible stochastic P1.

    ``Pi1`` stacks ``pi1`` in every row.  The deviation matrix uses the
    matrix P1 itself (not the host chain's transition matrix): the group
    inverse it encodes is the one paired with ``pi1``.
    """
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


def delta1_bound(P1: np.ndarray, G: np.ndarray, F1: np.ndarray) -> float:
    """Perturbation bound on the stationary gap of the eigenvalue-twisted
    stochasticization, via the fundamental matrix."""
    if G.shape[0] == 1:
        return 0.0  # both laws are the same point mass
    delta = float(G.sum(axis=1).min())
    term1 = float(np.max(np.abs((P1 - G) @ F1).sum(axis=1)))
    term2 = max(0.0, 1.0 - delta) * float(np.max(np.abs(F1).sum(axis=1)))
    return term1 + term2


def perron_tv_bound(ws, inputs) -> tuple[float, np.ndarray]:
    """The paper's weighted total-variation bound for the Perron route on a
    workspace with |K| > 1, and the route's stationary vector over K: the
    general bound with ``pi1`` and ``delta1`` in place of the row route's."""
    kl_r, kl_e, beta1, beta2, ku_r, ku_e = ws.cycle_rewards(inputs)
    ca = ws.censored()
    P1, pi1 = perron_normalized(ca.G)
    approx = float(pi1 @ kl_r) / float(pi1 @ kl_e)
    delta1 = delta1_bound(P1, ca.G, fundamental_matrix(P1, pi1))
    ell = ell_lower_bound(ca.tau, kl_e)
    return tv_bound_general(pi1, beta1, beta2, approx, delta1, ku_r, ku_e, ell), pi1
