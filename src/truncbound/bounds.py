"""Certified two-sided bounds on equilibrium expectations and weighted
total-variation error, assembled from the censored approximation and a
verified drift certificate.

Bound shapes (all per return-cycle):

* expectation: the cycle ratios kl(r)/ku(e) <= pi r <= ku(r)/kl(e),
  extremized over the mixture family of normalized ``(I - G)^{-1}`` rows,
  which contains every stationary vector compatible with the minorization
  G <= true return matrix; a singleton return set is the one-row case;
* weighted total variation: twice the ratio-perturbation estimate built from
  the overflow weights, plus a stationary-gap term for non-singleton K.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import __version__ as _pkg_version
from .censor import TauFamily, TruncationWorkspace
from .errors import CertificateError, NumericalError
from .lyapunov import BoundInputs


@contextmanager
def timed(timings: dict, stage: str):
    """Add the block's wall time to ``timings[stage]``: the one timer of a run."""
    start = time.perf_counter()
    yield
    timings[stage] = timings.get(stage, 0.0) + time.perf_counter() - start


def minorization_bounds(tau: TauFamily, kl_r: np.ndarray, ku_r: np.ndarray,
                        kl_e: np.ndarray, ku_e: np.ndarray) -> tuple[float, float]:
    """Bounds that extremize the cycle ratios over the mixture family; for
    K = {z} the family is the point mass and they are ``kl_r/ku_e``,
    ``ku_r/kl_e`` at z."""
    den_hi = tau.rows @ ku_e
    den_lo = tau.rows @ kl_e
    if np.any(den_hi <= 0.0) or np.any(den_lo <= 0.0):
        raise NumericalError("nonpositive cycle-length denominator in mixture bounds")
    lower = float((tau.rows @ kl_r).min() / den_hi.max())
    upper = float((tau.rows @ ku_r).max() / den_lo.min())
    return lower, upper


def tv_bound_singleton(beta1_z: float, beta2_z: float, kl_e_z: float,
                       approx_r: float) -> float:
    """Weighted total-variation bound for K = {z}."""
    return 2.0 * max(beta1_z / kl_e_z, approx_r * beta2_z / kl_e_z)


def delta2_bound(tau: TauFamily) -> float:
    """L1 diameter of the mixture family, at most 2: bounds the gap between
    the row-normalized stationary vector and the true censored stationary
    vector (a clamped family's diameter is floored at a few ulps rather than
    claiming an accuracy the arithmetic cannot certify)."""
    return float(min(tau.l1_diameter(), 2.0))


def ell_lower_bound(tau: TauFamily, kl_e: np.ndarray) -> float:
    """Computable lower bound on the true mean cycle length seen from the
    censored stationary vector.

    The censored stationary vector is a mixture of the tau rows and the full
    cycle length dominates its within-A part, so
    ``min_x tau_x . kl(e)`` under-estimates it.  This is the denominator of
    the general total-variation bound; it is isolated here because the
    choice is the one discretionary step of that bound.
    """
    val = float((tau.rows @ kl_e).min())
    if val <= 0.0:
        raise NumericalError("cycle-length lower bound is nonpositive")
    return val


def tv_bound_general(pi_i: np.ndarray, beta1: np.ndarray, beta2: np.ndarray,
                     approx_r: float, delta_i: float,
                     ku_r: np.ndarray, ku_e: np.ndarray, ell: float) -> float:
    """Weighted total-variation bound for a general return set:
    ``2 * [pi_i.beta1 + approx * pi_i.beta2
           + delta_i (approx ||ku_e||_inf + ||ku_r||_inf)] / ell``."""
    if ell <= 0.0:
        raise NumericalError("nonpositive denominator in total-variation bound")
    eps = (float(pi_i @ beta1) + approx_r * float(pi_i @ beta2)) / ell \
        + delta_i * (approx_r * float(ku_e.max()) + float(ku_r.max())) / ell
    return 2.0 * eps


def combine_signed(pos: tuple[float, float], neg: tuple[float, float]) -> tuple[float, float]:
    """Interval for E[f+ - f-] from intervals for the two parts."""
    return pos[0] - neg[1], pos[1] - neg[0]


@dataclass
class BoundReport:
    """Everything one bound run certifies, with provenance."""

    reward_id: str
    method: str                  # "singleton" | "minorization"
    lower: float
    upper: float
    approx: float
    tv_bound: float
    delta: float
    beta1: np.ndarray
    beta2: np.ndarray
    timings: dict
    provenance: dict
    # lower <= approx <= upper, which exact arithmetic gives
    certified = property(lambda self: bool(self.lower <= self.approx <= self.upper))

    def to_dict(self) -> dict:
        return {
            "reward": self.reward_id,
            "method": self.method,
            "lower": self.lower,
            "upper": self.upper,
            "approx": self.approx,
            "tv_bound": self.tv_bound,
            "delta": self.delta,
            "beta1": np.asarray(self.beta1).tolist(),
            "beta2": np.asarray(self.beta2).tolist(),
            "certified": self.certified,
            "envelope": self.reward_id,
            "timings": self.timings,
            "provenance": self.provenance,
        }


def compute_bounds(ws: TruncationWorkspace, inputs: BoundInputs) -> BoundReport:
    """Full bound assembly for the certificate's envelope reward, which the
    report names by its envelope id.

    Produces the approximation, the two-sided expectation bounds over the
    mixture family, the matching stationary-gap estimate, and the weighted
    total-variation guarantee (the sharper singleton form when |K| = 1).
    """
    timings: dict[str, float] = {}
    with timed(timings, "cycle_rewards"):
        kl_r, kl_e, beta1, beta2, ku_r, ku_e = ws.cycle_rewards(inputs)
    with timed(timings, "censored_matrix"):
        ca = ws.censored()
    k = ws.partition.k_size
    with timed(timings, "mixture_family"):
        tau = ca.tau    # first, so any reducible G raises IrreducibilityError (exit 2)

    _, pi_i = ca.row_normalized
    approx = float(pi_i @ kl_r) / float(pi_i @ kl_e)

    with timed(timings, "bounds"):
        lower, upper = minorization_bounds(tau, kl_r, ku_r, kl_e, ku_e)
        if k == 1:
            delta_i = 0.0
            tv = tv_bound_singleton(float(beta1[0]), float(beta2[0]), float(kl_e[0]), approx)
            method = "singleton"
        else:
            delta_i = delta2_bound(tau)
            ell = ell_lower_bound(tau, kl_e)
            tv = tv_bound_general(pi_i, beta1, beta2, approx, delta_i, ku_r, ku_e, ell)
            method = "minorization"

    scalars = (lower, upper, approx, tv, delta_i)
    if not all(np.isfinite(s) for s in scalars):
        raise NumericalError(f"non-finite bound report entries: {scalars}")

    return BoundReport(
        reward_id=inputs.envelope_id,
        method=method,
        lower=lower,
        upper=upper,
        approx=approx,
        tv_bound=tv,
        delta=delta_i,
        beta1=beta1,
        beta2=beta2,
        timings=timings,
        provenance={
            "certificate_sha256": inputs.sha256,
            "k_size": k,
            "a_size": ws.partition.a_size,
            "library_version": _pkg_version,
        },
    )


def reward_interval(ws: TruncationWorkspace, inputs: BoundInputs,
                    f_A: np.ndarray) -> tuple[float, float]:
    """Certified interval for the equilibrium expectation of a reward with
    |f| dominated by the certificate envelope.  ``f_A`` must be finite with
    shape ``(|A|,)`` (else ``ValueError``).  A query costs one solve: the
    positive and negative parts of ``f`` are its columns, and the part
    intervals are combined; the cycle rewards come from the workspace."""
    f_A, unit = np.asarray(f_A, dtype=float), ws.partition.unit
    if f_A.shape != unit.shape:
        raise ValueError(f"reward over A: expected shape {unit.shape}, got {f_A.shape}")
    if not np.isfinite(f_A).all():
        raise ValueError("reward must be finite")
    if np.any(np.abs(f_A) > inputs.r_A * (1 + 1e-12) + 1e-15):
        raise CertificateError("reward is not dominated by the certificate envelope")
    _, kl_e, beta1, _, _, ku_e = ws.cycle_rewards(inputs)
    tau = ws.censored().tau

    pos = np.clip(f_A, 0.0, None)
    neg = np.clip(-f_A, 0.0, None)
    parts = [w for w in (pos, neg) if w.any()] or [pos]
    # one contiguous column per part: the solve's residual check reduces by column
    kl = ws.kappa_lower((np.array(parts) * unit).T)
    intervals = [minorization_bounds(tau, kl_w, kl_w + beta1, kl_e, ku_e) for kl_w in kl.T]
    if len(parts) == 2:
        return combine_signed(*intervals)
    lo, hi = intervals[0]
    return (lo, hi) if parts[0] is pos else (-hi, -lo)
