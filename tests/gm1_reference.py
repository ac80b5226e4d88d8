"""Extended-precision reference distribution of the gm1 queue: the oracle
that the queue's acceptance gate and model tests measure against."""

import numpy as np

from truncbound.errors import ModelError
from truncbound.models import GM1Model


def _beta_longdouble(gm1: GM1Model) -> np.ndarray:
    u = np.longdouble(gm1.mu) * np.longdouble(repr(gm1.b))
    pmf = [np.exp(-u)]
    j = 0
    while pmf[-1] > np.longdouble(1e-320) or j < u:
        j += 1
        pmf.append(pmf[-1] * u / j)
    pmf = np.array(pmf, dtype=np.longdouble)
    tail = np.cumsum(pmf[::-1])[::-1]
    beta = tail[1:] / u
    return beta[: len(gm1.beta_masses)]


def reference_distribution(gm1: GM1Model, a_max: int, k_top: int = 4) -> np.ndarray:
    """Equilibrium approximation in extended precision.

    Same construction as the double-precision pipeline (row-normalized
    stochasticization of the censored matrix, occupation solve, unit
    normalization) but with extended-precision masses and solves.  The
    queue is skip-free upward, so ``I - P22`` has a single superdiagonal
    and factors in O(states x row support) without pivoting; this keeps
    the data-sensitivity error of the nearly critical queue far below
    the certified total-variation guarantees.
    """
    ld = np.longdouble
    beta = _beta_longdouble(gm1)
    k = k_top + 1
    m = a_max + 1 - k
    if k_top < 0 or m < 2:
        raise ModelError("reference protocol needs k_top >= 0 and a larger truncation")
    D = min(len(beta) - 2, m - 1)
    usup = -beta[0]
    subs = -beta[2:2 + D]

    # LU of (I - P22): U is upper bidiagonal, L carries the lower band
    Udiag = np.empty(m, dtype=ld)
    Lfac = np.zeros((D, m), dtype=ld)
    cur_diag = 1 - beta[1]
    cur_subs = subs[: min(D, m - 1)].copy()
    for j in range(m):
        Udiag[j] = cur_diag
        t = min(D, m - 1 - j)
        if t:
            f = cur_subs[:t] / cur_diag
            Lfac[:t, j] = f
        if j + 1 < m:
            nxt_diag = (1 - beta[1]) - (Lfac[0, j] * usup if t else 0)
            nt = min(D, m - 2 - j)
            nxt_subs = subs[:nt].copy()
            upd = min(t - 1, nt)
            if upd > 0:
                nxt_subs[:upd] -= Lfac[1:1 + upd, j] * usup
            cur_diag, cur_subs = nxt_diag, nxt_subs

    def solve(b):
        y = b.astype(ld).copy()
        for j in range(m - 1):
            t = min(D, m - 1 - j)
            y[j + 1:j + 1 + t] -= Lfac[:t, j] * y[j]
        x = np.empty(m, dtype=ld)
        x[m - 1] = y[m - 1] / Udiag[m - 1]
        for j in range(m - 2, -1, -1):
            x[j] = (y[j] - usup * x[j + 1]) / Udiag[j]
        return x

    def solve_t(b):
        z = np.empty(m, dtype=ld)
        z[0] = b[0] / Udiag[0]
        for j in range(1, m):
            z[j] = (b[j] - usup * z[j - 1]) / Udiag[j]
        x = z.copy()
        for j in range(m - 2, -1, -1):
            t = min(D, m - 1 - j)
            x[j] -= Lfac[:t, j] @ x[j + 1:j + 1 + t]
        return x

    # censored matrix on K = {0..k_top}: P12 has the single entry
    # (k_top -> k) with mass beta_0
    P11 = np.zeros((k, k), dtype=ld)
    for x in range(k):
        for i in range(x + 1):
            y = x + 1 - i
            if y < k:
                P11[x, y] = beta[i]
        P11[x, 0] += 1 - beta[: x + 1].sum()
    P21 = np.zeros((m, k), dtype=ld)
    for idx in range(m):
        s = k + idx
        top = min(s, len(beta) - 1)
        for y in range(1, k):
            i = s + 1 - y
            if i <= top:
                P21[idx, y] = beta[i]
        P21[idx, 0] = 1 - beta[: top + 1].sum()  # complement mass at 0
    X = np.stack([solve(P21[:, y]) for y in range(k)], axis=1)
    G = P11.copy()
    G[k - 1, :] += beta[0] * X[0, :]
    pi2 = np.full(k, 1 / ld(k))
    P2 = G / G.sum(axis=1)[:, None]
    for _ in range(4000):
        nxt = pi2 @ P2
        nxt /= nxt.sum()
        if np.abs(nxt - pi2).max() < np.finfo(ld).eps * 4:
            pi2 = nxt
            break
        pi2 = nxt
    rhs = np.zeros(m, dtype=ld)
    rhs[0] = pi2[k - 1] * beta[0]
    v = solve_t(rhs)
    eta = np.concatenate([pi2, v])
    return eta / eta.sum()
