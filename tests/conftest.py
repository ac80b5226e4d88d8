"""Shared test fixtures: random hosts and independent dense oracles.

Every expected value in the suite comes either from a hand computation, a
published constant, or one of the brute-force oracles below; none of the
oracles share code paths with the library machinery they check.
"""

from __future__ import annotations

import os
import threading

# one BLAS thread, as in the benchmark (perfbench/run.py): dense LAPACK
# results then do not depend on the thread count, and the acceptance suite
# can compare them with the benchmark's recorded answers bit for bit.  Set
# before numpy loads, which is the first time it reads these.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest

from truncbound import DiscreteModel
from truncbound.errors import NumericalError
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


def tau_family_direct(G: np.ndarray) -> np.ndarray:
    """Normalized rows of a dense ``(I - G)^{-1}``: the mixture family without
    the deleted-state reformulation, trustworthy only when ``I - G`` is well
    conditioned."""
    k = G.shape[0]
    M = np.linalg.inv(np.eye(k) - G)
    sums = M.sum(axis=1)
    if np.any(sums <= 0.0):
        raise NumericalError("direct (I - G)^{-1} has a nonpositive row sum")
    return M / sums[:, None]


def stationary_reconstruction(pi_embedded: np.ndarray, exit_rates: np.ndarray) -> np.ndarray:
    """Jump-process stationary law from the embedded chain's stationary law:
    reweight by holding times 1/lambda and renormalize."""
    nu = pi_embedded / exit_rates
    return nu / nu.sum()


def upper_cycle_rewards(ws, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds on the full cycle rewards of the envelope and of the unit
    reward over K (within-A part plus the overflow beyond A), as the
    workspace gives them to ``compute_bounds`` and ``reward_interval``."""
    *_, ku_r, ku_e = ws.cycle_rewards(inputs)
    return ku_r, ku_e


def host_model(P: np.ndarray, name: str = "host"):
    """The chain of the dense matrix ``P`` on 0..n-1: each row's nonzeros in
    column order, read from P's CSR rows."""
    import scipy.sparse as sp

    n, csr = P.shape[0], sp.csr_matrix(P)

    def rows(states):
        x = np.asarray(states, dtype=np.int64).reshape(-1)
        starts, sizes = csr.indptr[x], np.diff(csr.indptr)[x]
        at = np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        return np.repeat(np.arange(len(x)), sizes), csr.indices[at][:, None], csr.data[at]

    return DiscreteModel(
        name=name,
        seed=0,
        rows=rows,
        states_within=lambda rad: range(min(n, int(rad) + 1)),
        drift=None,
    )


def states_of(coords) -> list:
    """The Python states (ints, or tuples) of a hook's coordinate array."""
    from truncbound.statespace import _coords, _objects

    return _objects(_coords(coords))


def batch_model(row_fn, *, seed=0, name: str = "batch", **hooks):
    """The chain whose state ``x`` has the row ``row_fn(x)``, given through
    the batch hook ``rows`` (its ``rows`` also serves as a jump model's
    ``rate_rows``); ``hooks`` are further fields, such as ``states_within``.

    The hook takes the states' coordinate rows and returns its targets as a
    list of states.  Entries are laid out by rank within the row (every
    state's first entry, then every state's second, ...), so states
    interleave as the hook's contract allows.
    """
    def rows(states):
        per_state = [list(row_fn(x)) for x in states_of(states)]
        pos, targets, p = [], [], []
        for rank in range(max(map(len, per_state), default=0)):
            for i, entries in enumerate(per_state):
                if rank < len(entries):
                    pos.append(i)
                    targets.append(entries[rank][0])
                    p.append(entries[rank][1])
        return np.array(pos, dtype=np.intp), targets, np.array(p, dtype=float)

    return DiscreteModel(name=name, seed=seed, rows=rows,
                         **{"states_within": None, "drift": None, **hooks})


def row_of(model, x) -> list:
    """``[(y, p), ...]`` of the state ``x`` (its rates, for a jump model), in
    row order, read through the model's batch hook."""
    hook = model.rate_rows if hasattr(model, "rate_rows") else model.rows
    _, targets, p = hook(np.array([x], dtype=np.int64).reshape(1, -1))[:3]
    return list(zip(states_of(targets), np.asarray(p, dtype=float).tolist()))


def boundary_rows(part) -> tuple:
    """Each A index's exits as ``((exterior state, mass), ...)`` in row order."""
    owner, at, q = part.exits
    rows = [[] for _ in range(part.a_size)]
    for i, y, p in zip(owner.tolist(), states_of(part.table[0][at]), q.tolist()):
        rows[i].append((y, p))
    return tuple(map(tuple, rows))


def assert_partitions_identical(a, b) -> None:
    """Same states, bit-identical blocks (canonical CSR), exits and unit.
    Each partition's table holds its states at its ids; the two may share
    no table, so exits compare by owner, exterior coordinates and mass."""
    assert a.space.k_size == b.space.k_size and np.array_equal(a.space.coords, b.space.coords)
    for block in ("P11", "P12", "P21", "P22"):
        x, y = getattr(a, block), getattr(b, block)
        assert x.shape == y.shape
        assert x.data.tobytes() == y.data.tobytes(), block
        assert np.array_equal(x.indices, y.indices) and np.array_equal(x.indptr, y.indptr)
    for part in (a, b):
        assert np.array_equal(part.table[0][part.ids], part.space.coords)
    (a_owner, a_at, a_q), (b_owner, b_at, b_q) = a.exits, b.exits
    assert a_owner.tobytes() == b_owner.tobytes() and a_q.tobytes() == b_q.tobytes()
    assert a.table[0][a_at].tobytes() == b.table[0][b_at].tobytes()
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
    cert = DriftCertificate(tuple(range(k)), lambda x: float(r[x]), g1, g2, n, n, False)
    return verify_certificate(model, cert, tolerance=1e-9)


def measured_weighted_tv(p: np.ndarray, q: np.ndarray, envelope: np.ndarray) -> float:
    """Exact weighted total-variation distance on a common finite support:
    the supremum over |f| <= envelope of the expectation gap."""
    return float(np.abs(p - q) @ envelope)


def partition_from_matrix(P_A: np.ndarray, k: int):
    """Hand-built partition over states 0..n-1 (K = first k) whose rows may be
    substochastic; the missing mass becomes a single exit to the state n.

    Lets tests build censored-matrix structures (e.g. genuinely reducible
    ones) that single-seed enumeration cannot reach.
    """
    import scipy.sparse as sp

    from truncbound.statespace import Partition, StateSpace

    n = P_A.shape[0]
    coords = np.arange(n + 1)[:, None]      # the states 0..n-1, then the exterior state n
    missing = 1.0 - P_A.sum(axis=1)
    owner = np.flatnonzero(missing > 1e-15)
    P = sp.csr_matrix(P_A)
    return Partition(
        space=StateSpace(coords=coords[:n], k_size=k),
        P11=P[:k, :k].tocsr(),
        P12=P[:k, k:].tocsr(),
        P21=P[k:, :k].tocsr(),
        P22=P[k:, k:].tocsr(),
        unit=np.ones(n),
        table=(coords, {}),
        ids=np.arange(n),
        exits=(owner, np.full(owner.size, n), missing[owner]),
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


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves more live threads than it found, such as an
    executor that an error path never shut down."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
