"""Shared test fixtures: random hosts and independent dense oracles.

Every expected value in the suite comes either from a hand computation, a
published constant, or one of the brute-force oracles below; none of the
oracles share code paths with the library machinery they check.
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark (perfbench/run.py): dense LAPACK
# results then do not depend on the thread count, and the acceptance suite
# can compare them with the benchmark's recorded answers bit for bit.  Set
# before numpy loads, which is the first time it reads these.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest

from truncbound import DiscreteModel
from truncbound.lyapunov import DriftCertificate, verify_certificate


def random_stochastic(rng: np.random.Generator, n: int, *, zeros: float = 0.4) -> np.ndarray:
    """Irreducible row-stochastic matrix with a controllable zero pattern."""
    P = rng.random((n, n)) ** 2
    mask = rng.random((n, n)) < zeros
    P[mask] = 0.0
    # a directed cycle keeps the chain irreducible whatever got zeroed
    for i in range(n):
        P[i, (i + 1) % n] += 0.05 + rng.random() * 0.1
    P /= P.sum(axis=1)[:, None]
    return P


def random_rate_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Irreducible conservative rate matrix with positive exit rates."""
    Q = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
    for i in range(n):
        Q[i, (i + 1) % n] += 0.2 + rng.random()
        Q[i, i] = 0.0
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def stationary_power(P: np.ndarray, squarings: int = 64) -> np.ndarray:
    """Stationary law by repeated squaring of the transition matrix."""
    M = P.copy()
    for _ in range(squarings):
        M = M @ M
        M /= M.sum(axis=1)[:, None]
    pi = M[0] / M[0].sum()
    return pi


def censored_matrix_oracle(P: np.ndarray, k: int) -> np.ndarray:
    """Exact return matrix on the leading k states, by dense Schur complement."""
    n = P.shape[0]
    P11 = P[:k, :k]
    P12 = P[:k, k:]
    P21 = P[k:, :k]
    P22 = P[k:, k:]
    return P11 + P12 @ np.linalg.solve(np.eye(n - k) - P22, P21)


def kappa_oracle(P: np.ndarray, k: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected reward per return cycle, by the dense absorbing-chain solve.

    Returns the cycle rewards over the leading-k return set and the
    continuation values over its complement.
    """
    n = P.shape[0]
    B = P[k:, k:]
    eta = np.linalg.solve(np.eye(n - k) - B, w[k:])
    return w[:k] + P[:k, k:] @ eta, eta


def exit_oracle(P_A: np.ndarray) -> np.ndarray:
    """Occupation before exit from A, seeded at index 0: ``nu (I - P_A) =
    delta_0`` solved densely and normalised.  With K = {0} it is the induced
    law ``approx_distribution(1)`` of a chain with unit holding times."""
    n = P_A.shape[0]
    delta = np.zeros(n)
    delta[0] = 1.0
    nu = np.linalg.solve((np.eye(n) - P_A).T, delta)
    return nu / nu.sum()


def upper_cycle_rewards(ws, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds on the full cycle rewards of the envelope and of the unit
    reward over K (within-A part plus the overflow beyond A), as the
    workspace gives them to ``compute_bounds`` and ``reward_interval``."""
    *_, ku_r, ku_e = ws.cycle_rewards(inputs)
    return ku_r, ku_e


def host_model(P: np.ndarray, name: str = "host"):
    n = P.shape[0]
    return DiscreteModel(
        name=name,
        seed=0,
        row=lambda x: [(j, float(P[x, j])) for j in range(n) if P[x, j] != 0.0],
        norm=lambda s: float(s),
        states_within=lambda rad: range(min(n, int(rad) + 1)),
        rewards={"r": lambda s: float(s), "e": lambda s: 1.0},
    )


def batch_model(row_fn, *, seed=0, name: str = "batch"):
    """The chain of ``row_fn`` given through the batch hook ``rows``.

    Entries are laid out by rank within the row (every state's first entry,
    then every state's second, ...), so states interleave as the hook's
    contract allows.
    """
    def rows(states):
        per_state = [list(row_fn(x)) for x in states]
        pos, targets, p = [], [], []
        for rank in range(max(map(len, per_state), default=0)):
            for i, entries in enumerate(per_state):
                if rank < len(entries):
                    pos.append(i)
                    targets.append(entries[rank][0])
                    p.append(entries[rank][1])
        return np.array(pos, dtype=np.intp), targets, np.array(p, dtype=float)

    return DiscreteModel(name=name, seed=seed, row=row_fn, rows=rows)


def model_forms(row_fn, *, seed=0):
    """The same chain given one state at a time and through the batch hook."""
    return [DiscreteModel(name="per-state", seed=seed, row=row_fn),
            batch_model(row_fn, seed=seed)]


def assert_partitions_identical(a, b) -> None:
    """Same states, bit-identical blocks (canonical CSR), boundary and unit."""
    assert a.space == b.space
    for block in ("P11", "P12", "P21", "P22"):
        x, y = getattr(a, block), getattr(b, block)
        assert x.shape == y.shape
        assert x.data.tobytes() == y.data.tobytes(), block
        assert np.array_equal(x.indices, y.indices) and np.array_equal(x.indptr, y.indptr)
    assert a.boundary == b.boundary
    assert a.unit.tobytes() == b.unit.tobytes()


def exact_certificate(P: np.ndarray, k: int, r: np.ndarray, model) -> "DriftCertificate":
    """Certificate whose functions solve the cycle-reward equations exactly.

    With these, the drift inequalities hold with equality on the complement
    of the return set and the upper cycle bounds coincide with the truth.
    """
    n = P.shape[0]
    _, eta_r = kappa_oracle(P, k, r)
    _, eta_e = kappa_oracle(P, k, np.ones(n))
    g1 = lambda x: 0.0 if x < k else float(eta_r[x - k])
    g2 = lambda x: 0.0 if x < k else float(eta_e[x - k])
    cert = DriftCertificate.pair(tuple(range(k)), lambda x: float(r[x]), g1, g2, n, n)
    return verify_certificate(model, cert, tolerance=1e-9)


def measured_weighted_tv(p: np.ndarray, q: np.ndarray, envelope: np.ndarray) -> float:
    """Exact weighted total-variation distance on a common finite support:
    the supremum over |f| <= envelope of the expectation gap."""
    return float(np.abs(p - q) @ envelope)


def partition_from_matrix(P_A: np.ndarray, k: int):
    """Hand-built partition over states 0..n-1 (K = first k) whose rows may be
    substochastic; the missing mass becomes a single exterior boundary entry.

    Lets tests build censored-matrix structures (e.g. genuinely reducible
    ones) that single-seed enumeration cannot reach.
    """
    import scipy.sparse as sp

    from truncbound.statespace import Partition, StateSpace

    n = P_A.shape[0]
    space = StateSpace(states=tuple(range(n)), k_size=k)
    boundary = []
    for i in range(n):
        missing = 1.0 - float(P_A[i].sum())
        boundary.append((("ext", missing),) if missing > 1e-15 else ())
    P = sp.csr_matrix(P_A)
    return Partition(
        space=space,
        P11=P[:k, :k].tocsr(),
        P12=P[:k, k:].tocsr(),
        P21=P[k:, :k].tocsr(),
        P22=P[k:, k:].tocsr(),
        boundary=tuple(boundary),
        unit=np.ones(n),
    )


@pytest.fixture(scope="session")
def toggle60():
    """toggle(20, 1) on the simplex of level 60 (|A| = 1,891, |K| = 98): the
    partition and the evaluated ``r`` and ``e`` certificates, which share
    one return set."""
    import warnings

    from truncbound import ctmc, lyapunov, statespace
    from truncbound.models import ToggleSwitchModel

    ts = ToggleSwitchModel(20.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # r does not dominate the exit rate
        certs = {env: lyapunov.verify_certificate(ts, ts.certificate_for_envelope(env))
                 for env in ("r", "e")}
    _, part = statespace.enumerate_space(
        ctmc.embed(ts), lambda s: s[0] + s[1] <= 60,
        statespace.explicit_k_predicate(certs["r"].return_set))
    return part, {env: lyapunov.evaluate_certificate(cert, part, envelope_id=env)
                  for env, cert in certs.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
