import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncbound import TruncationWorkspace, censor, enumerate_space
from truncbound.bounds import compute_bounds, reward_interval
from truncbound.errors import IrreducibilityError, ModelError, NumericalError
from truncbound.lyapunov import BoundInputs
from truncbound.models import GM1Model

from conftest import (
    censored_matrix_oracle,
    exit_oracle,
    host_model,
    partition_from_matrix,
    random_stochastic,
    stationary_power,
    tau_family_direct,
)
from perron_reference import perron_normalized


def workspace_for(P, k, a=None):
    n = P.shape[0]
    a = n if a is None else a
    model = host_model(P)
    _, part = enumerate_space(model, lambda s: s < a, lambda s: s < k)
    return TruncationWorkspace(part)



class TestCensoredMatrix:
    def test_matches_dense_schur_complement(self, rng):
        P = random_stochastic(rng, 12)
        ws = workspace_for(P, 3)
        G = ws.censored().G
        assert np.abs(G - censored_matrix_oracle(P, 3)).max() < 1e-12

    def test_no_middle_transitions_truncates_series(self):
        # A' states jump straight back into K: G = P11 + P12 P21
        P = np.array([
            [0.2, 0.3, 0.25, 0.25],
            [0.3, 0.2, 0.25, 0.25],
            [0.5, 0.5, 0.0, 0.0],
            [0.4, 0.6, 0.0, 0.0],
        ])
        ws = workspace_for(P, 2)
        expected = P[:2, :2] + P[:2, 2:] @ P[2:, :2]
        assert np.abs(ws.censored().G - expected).max() < 1e-15

    def test_k_equals_a(self, rng):
        P = random_stochastic(rng, 8)
        ws = workspace_for(P, 5, a=5)
        assert np.abs(ws.censored().G - P[:5, :5]).max() == 0.0

    def test_row_normalized_recovers_censored_stationary(self, rng):
        P = random_stochastic(rng, 12)
        ws = workspace_for(P, 4)
        _, pi2 = ws.censored().row_normalized
        pi = stationary_power(P)
        pi_k = pi[:4] / pi[:4].sum()
        assert np.abs(pi2 - pi_k).max() < 1e-11

    def test_reducible_censored_matrix_raises(self):
        # inside A, state 2's lobe never returns to state 0's lobe, so the
        # censored matrix is block-triangular (reducible)
        triangular = np.zeros((4, 4))
        triangular[0, 1] = 1.0
        triangular[1, 0], triangular[1, 2] = 0.5, 0.5
        triangular[2, 3] = 1.0
        triangular[3, 2] = 0.9  # remaining 0.1 exits A
        # two disjoint 2-cycles: the censored matrix is block-diagonal, with
        # two closed classes
        diagonal = np.zeros((4, 4))
        diagonal[0, 1] = diagonal[1, 0] = 1.0
        diagonal[2, 3] = diagonal[3, 2] = 1.0
        for P in (triangular, diagonal):
            part = partition_from_matrix(P[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])], 2)
            ws = TruncationWorkspace(part)
            ws.censored().G                 # the censored matrix itself is built
            inputs = BoundInputs("e", np.ones(4), np.zeros(4), np.zeros(4), sha256="")
            # every read of its stationary vector or mixture family raises
            for read in (lambda: ws.censored().tau, lambda: ws.censored().row_normalized,
                         lambda: compute_bounds(ws, inputs),
                         lambda: reward_interval(ws, inputs, np.ones(4))):
                with pytest.raises(IrreducibilityError):
                    read()

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_truncation_and_below_exact(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(8, 16))
        P = random_stochastic(r, n)
        k = int(r.integers(2, 4))
        exact = censored_matrix_oracle(P, k)
        prev = None
        for a in range(k + 1, n + 1):
            G = TruncationWorkspace(
                enumerate_space(host_model(P), lambda s, a=a: s < a,
                                lambda s: s < k)[1],
            ).censored().G
            assert (G <= exact + 1e-12).all()
            if prev is not None:
                assert (prev <= G + 1e-12).all()
            prev = G

    @pytest.mark.parametrize("chunk", [1, 7, 8, 42, 64])
    def test_chunked_solves_give_the_same_bits(self, toggle60, chunk, monkeypatch):
        # toggle60's P21 hits 43 of its |K| = 98 columns: 6 default blocks;
        # 42 leaves one column for the helper, 64 gives the caller all of them
        part, _ = toggle60
        want = TruncationWorkspace(part).censored().G
        monkeypatch.setattr(censor, "RHS_CHUNK", chunk)
        assert TruncationWorkspace(part).censored().G.tobytes() == want.tobytes()

    def test_repeated_builds_give_the_same_bits(self, toggle60):
        part, _ = toggle60
        want = TruncationWorkspace(part).censored().G.tobytes()
        assert all(TruncationWorkspace(part).censored().G.tobytes() == want
                   for _ in range(20))

    @pytest.mark.parametrize("failing, raised", [({1, 2}, 1), ({2}, 2), ({0, 5}, 0)])
    def test_solve_errors_surface_in_serial_order(self, toggle60, failing, raised):
        # blocks alternate between the caller (even) and the helper (odd)
        part, _ = toggle60
        P21 = part.P21.tocsc()
        cols = np.flatnonzero(np.diff(P21.indptr))
        block_of = {P21[:, cols[lo:lo + censor.RHS_CHUNK]].toarray().tobytes(): j
                    for j, lo in enumerate(range(0, len(cols), censor.RHS_CHUNK))}
        assert len(block_of) == 6
        ws = TruncationWorkspace(part)
        real = ws.solver.solve

        def solve(b, **kw):
            j = block_of[b.tobytes()]
            if j in failing:
                raise NumericalError(f"block {j}")
            return real(b, **kw)

        ws.solver.solve = solve
        with pytest.raises(NumericalError, match=f"^block {raised}$"):
            ws.censored()


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_two_lanes_returns_results_in_item_order(n):
    lanes = []

    def fn(i):
        lanes.append((i, threading.get_ident()))
        return i * i

    assert censor._two_lanes(fn, range(n)) == [i * i for i in range(n)]
    on_caller = {i for i, ident in lanes if ident == threading.get_ident()}
    assert on_caller == set(range(0, n, 2))


def test_two_lanes_caller_runs_ahead_of_the_helper():
    # the helper's item 1 waits for the caller's item 2: a caller that waited
    # for item 1's result before running item 2 would leave it waiting
    reached = threading.Event()

    def fn(i):
        if i == 1:
            return reached.wait(timeout=10)
        if i == 2:
            reached.set()
        return True

    assert censor._two_lanes(fn, range(4)) == [True] * 4


def test_two_lanes_under_contention():
    # four callers at once, eight threads on fewer cores, switching often:
    # every caller still gets its own results, in order
    results = {}

    def caller(c):
        results[c] = censor._two_lanes(lambda i: (c, i, sum(range(i))), range(300))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert results == {c: [(c, i, sum(range(i))) for i in range(300)] for c in range(4)}


class TestStochasticizations:
    def test_row_normalization_arithmetic(self):
        G = np.array([[0.4, 0.4], [0.2, 0.6]])
        n = G.sum(axis=1)
        assert np.abs(G / n[:, None] - [[0.5, 0.5], [0.25, 0.75]]).max() < 1e-15

    def test_already_stochastic_left_alone(self, rng):
        P = random_stochastic(rng, 6)
        ws = workspace_for(P, 6, a=6)
        P2, _ = ws.censored().row_normalized
        assert np.abs(P2 - P[:6, :6]).max() < 1e-14

    def test_zero_row_mass_names_state(self):
        # from K-state 1 the only within-A path leaves A (boundary), so the
        # censored row is empty
        P = np.zeros((3, 3))
        P[0, 0] = 0.5
        P[0, 1] = 0.5
        P[1, 2] = 1.0
        P[2, 0] = 1.0
        model = host_model(P)
        _, part = enumerate_space(model, lambda s: s < 2, lambda s: s < 2)
        ws = TruncationWorkspace(part)
        with pytest.raises(ModelError, match="index 1"):
            ws.censored().row_normalized
        # with two K states an empty row is also reducible, which a bound reports
        inputs = BoundInputs("e", np.ones(2), np.zeros(2), np.zeros(2), sha256="")
        with pytest.raises(IrreducibilityError):
            compute_bounds(ws, inputs)

    def test_perron_of_scaled_stochastic(self, rng):
        P = random_stochastic(rng, 7)
        P1, pi1 = perron_normalized(0.8 * P)
        assert np.abs(P1 - P).max() < 1e-9
        assert np.abs(pi1 - stationary_power(P)).max() < 1e-9

    def test_perron_scalar(self):
        P1, pi1 = perron_normalized(np.array([[0.9]]))
        assert P1[0, 0] == pytest.approx(1.0)
        assert pi1[0] == pytest.approx(1.0)

    def test_perron_stationarity_random(self, rng):
        G = rng.random((10, 10)) * 0.5 + 0.01
        G *= 0.9 / G.sum(axis=1).max()
        P1, pi1 = perron_normalized(G)
        assert np.abs(pi1 @ P1 - pi1).max() < 1e-10


class TestApproximations:
    def test_constant_reward_gives_one(self, rng):
        P = random_stochastic(rng, 9)
        ws = workspace_for(P, 3, a=7)
        _, pi2 = ws.censored().row_normalized
        dist = ws.approx_distribution(pi2)
        assert dist @ np.ones(7) == pytest.approx(1.0)
        assert dist @ (3.5 * np.ones(7)) == pytest.approx(3.5)

    def test_exact_on_full_space(self, rng):
        P = random_stochastic(rng, 12)
        ws = workspace_for(P, 3)
        _, pi2 = ws.censored().row_normalized
        r = np.arange(12.0)
        pi = stationary_power(P)
        assert abs(ws.approx_distribution(pi2) @ r - pi @ r) < 1e-10

    def test_distribution_point_mass(self):
        P = np.array([[1.0]])
        ws = workspace_for(P, 1)
        assert ws.approx_distribution(np.ones(1)).tolist() == [1.0]

    def test_distribution_two_state_symmetry(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        ws = workspace_for(P, 1)
        dist = ws.approx_distribution(np.ones(1))
        assert np.abs(dist - 0.5).max() < 1e-14

    def test_distribution_exact_on_full_space(self, rng):
        P = random_stochastic(rng, 12)
        ws = workspace_for(P, 4)
        _, pi2 = ws.censored().row_normalized
        assert np.abs(ws.approx_distribution(pi2) - stationary_power(P)).max() < 1e-10

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_expectation_within_reward_range(self, seed):
        from hypothesis import assume

        r2 = np.random.default_rng(seed)
        n = int(r2.integers(6, 14))
        a = int(r2.integers(4, n + 1))
        P = random_stochastic(r2, n)
        ws = workspace_for(P, 2, a=a)
        try:
            _, pi2 = ws.censored().row_normalized
        except (IrreducibilityError, ModelError):   # an empty row: reducible too
            assume(False)  # the construction's own precondition
        w = r2.random(a) * 10.0
        val = ws.approx_distribution(pi2) @ w
        assert w.min() - 1e-10 <= val <= w.max() + 1e-10


class TestExitApproximation:
    """With a singleton return set K = {z}, the induced law is the
    occupation-before-exit approximation seeded at z."""

    def test_single_state_truncation(self):
        P = np.array([[0.6, 0.4], [1.0, 0.0]])
        model = host_model(P)
        _, part = enumerate_space(model, lambda s: s == 0, lambda s: s == 0)
        ws = TruncationWorkspace(part)
        assert ws.approx_distribution(np.ones(1)).tolist() == [1.0]

    def test_matches_dense_oracle_on_three_state_host(self):
        P = np.array([
            [0.1, 0.6, 0.3],
            [0.5, 0.2, 0.3],
            [0.4, 0.4, 0.2],
        ])
        ws = workspace_for(P, 1, a=2)
        got = ws.approx_distribution(np.ones(1))
        assert np.abs(got - exit_oracle(P[:2, :2])).max() < 1e-13

    def test_gm1_singleton_equivalence(self):
        gm1 = GM1Model()
        _, part = enumerate_space(gm1, lambda s: s <= 500, lambda s: s == 0)
        ws = TruncationWorkspace(part)
        dist = ws.approx_distribution(np.ones(1))
        oracle = exit_oracle(part.full_matrix().toarray())
        assert np.abs(dist - oracle).max() < 1e-12


class TestTauFamily:
    def test_singleton(self):
        ws = workspace_for(np.array([[1.0]]), 1)
        tau = ws.censored().tau
        assert tau.rows.tolist() == [[1.0]]
        assert tau.l1_diameter() == 0.0

    def test_two_state_arithmetic(self):
        G = np.array([[0.0, 0.5], [0.5, 0.0]])
        from truncbound.censor import CensoredApprox

        tau = CensoredApprox(G=G, row_mass=G.sum(axis=1)).tau
        # (I-G)^{-1} = (1/0.75) [[1, .5], [.5, 1]] -> rows (2/3, 1/3), (1/3, 2/3)
        assert np.abs(tau.rows[0] - [2 / 3, 1 / 3]).max() < 1e-14
        assert np.abs(tau.rows[1] - [1 / 3, 2 / 3]).max() < 1e-14

    def test_stable_path_matches_direct_inverse(self, rng):
        from truncbound.censor import CensoredApprox

        for _ in range(10):
            G = rng.random((10, 10)) * 0.2
            G *= rng.uniform(0.5, 0.9) / G.sum(axis=1).max()
            tau = CensoredApprox(G=G, row_mass=G.sum(axis=1)).tau
            assert np.abs(tau.rows - tau_family_direct(G)).max() < 1e-8

    def test_super_stochastic_raises(self):
        from truncbound.censor import CensoredApprox

        G = np.array([[0.6, 0.6], [0.6, 0.6]])  # row sums 1.2
        with pytest.raises(NumericalError):
            CensoredApprox(G=G, row_mass=G.sum(axis=1)).tau


class TestConvergence:
    def test_approximations_converge_with_truncation(self, rng):
        P = random_stochastic(rng, 14)
        pi = stationary_power(P)
        r = np.arange(14.0)
        pir = pi @ r
        gaps = []
        for a in range(5, 15):
            model = host_model(P)
            _, part = enumerate_space(model, lambda s, a=a: s < a, lambda s: s < 3)
            ws = TruncationWorkspace(part)
            _, pi2 = ws.censored().row_normalized
            gaps.append(abs(ws.approx_distribution(pi2) @ r[:a] - pir))
        assert gaps[-1] < 1e-10
        # convergent within modest wobble; final truncations strictly better
        assert gaps[-1] <= gaps[0]
        assert max(gaps[-3:]) <= min(gaps[:3]) + 1e-12
