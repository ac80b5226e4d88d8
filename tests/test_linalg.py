import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from truncbound import censor
from truncbound.ctmc import embed
from truncbound.errors import NumericalError, ReducibleMatrixError
from truncbound.linalg import SubstochasticSolver, _band_order, is_irreducible, stationary_small
from truncbound.models import GM1Model, ToggleSwitchModel
from truncbound.pipeline import run_pipeline, truncation_predicate
from truncbound.statespace import cut, explicit_k_predicate, explore

import perron_reference
from conftest import random_stochastic, stationary_power
from perron_reference import fundamental_matrix, perron_eigenpair


def random_substochastic(rng, n, scale=0.9):
    M = rng.random((n, n))
    M *= scale / M.sum(axis=1)[:, None]
    return M


class TestSolveLinear:
    def test_zero_matrix_is_identity_system(self):
        v = np.array([3.0, -1.0, 0.5])
        assert np.array_equal(SubstochasticSolver(np.zeros((3, 3))).solve(v), v)

    def test_scalar_geometric_series(self):
        x = SubstochasticSolver(np.array([[0.5]])).solve(np.array([1.0]))
        assert x[0] == pytest.approx(2.0)

    def test_matches_truncated_neumann_series(self, rng):
        M = random_substochastic(rng, 20, scale=0.9)
        e = np.ones(20)
        x = SubstochasticSolver(M).solve(e)
        # partial sums of M^k e; tail below 1e-12 at this depth since ||M|| <= 0.9
        acc = np.zeros(20)
        term = e.copy()
        for _ in range(300):
            acc += term
            term = M @ term
        assert np.abs(x - acc).max() < 1e-11

    def test_multiple_rhs_and_transpose(self, rng):
        M = random_substochastic(rng, 10)
        B = rng.random((10, 3))
        X = SubstochasticSolver(M).solve(B)
        assert np.abs((np.eye(10) - M) @ X - B).max() < 1e-10

    def test_singular_system_raises(self):
        # row-stochastic M makes I - M singular
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NumericalError):
            SubstochasticSolver(M).solve(np.ones(2))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative_rhs_gives_nonnegative_solution(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 30))
        M = random_substochastic(r, n, scale=float(r.uniform(0.2, 0.95)))
        x = SubstochasticSolver(M).solve(r.random(n))
        assert x.min() > -1e-12


class TestResidualCheck:
    @pytest.mark.parametrize("transpose", [False, True])
    def test_perturbed_solution_fails_naming_its_column(self, rng, transpose):
        solver = SubstochasticSolver(sp.csr_matrix(random_substochastic(rng, 30)))
        B = rng.random((30, 4))
        X = solver.solve(B, transpose=transpose)
        X[7, 2] += 1e-3
        with pytest.raises(NumericalError, match="column 2,"):
            solver._check(X, B, transpose)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_residual_norms_equal_the_out_of_place_expression(self, seed):
        r = np.random.default_rng(seed)
        n, m = int(r.integers(1, 40)), int(r.integers(1, 6))
        M = random_substochastic(r, n) * (r.random((n, n)) < 0.3)
        solver = SubstochasticSolver(sp.csr_matrix(M))
        B = r.standard_normal((n, m))
        A = solver._A
        for transpose in (False, True):
            X = solver.solve(B, transpose=transpose)
            want = np.max(np.abs((A.T @ X if transpose else A @ X) - B), axis=0)
            assert solver._check(X, B, transpose).tobytes() == want.tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_residual_norms_equal_the_csr_product(self, rng, transpose):
        # I - M is held once, in CSC; for a block with sorted indices, as a
        # partition's are, its residual products give the CSR product's bits
        n, m = 300, 8
        M = sp.random(n, n, density=0.05, random_state=rng, format="csr")
        M = sp.diags(0.9 / np.maximum(np.asarray(M.sum(axis=1)).ravel(), 1.0)) @ M
        M.sort_indices()
        solver = SubstochasticSolver(M)
        assert solver._A.format == "csc"
        A = sp.identity(n, format="csr") - M
        B = rng.standard_normal((n, m))
        X = solver.solve(B, transpose=transpose)
        want = np.max(np.abs((A.T @ X if transpose else A @ X) - B), axis=0)
        assert solver._check(X, B, transpose).tobytes() == want.tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_check_holds_less_than_one_more_solution(self, transpose):
        # the solve returns X in Fortran order; a product over all its columns
        # at once would copy X to C order and hold R besides: twice X
        n, m = 20_000, 64
        M = sp.diags([np.full(n - 1, 0.3), np.full(n - 1, 0.4)], [-1, 1], format="csr")
        solver = SubstochasticSolver(M)
        B = np.random.default_rng(5).random((n, m))
        X = solver.solve(B, transpose=transpose)
        tracemalloc.start()
        try:
            solver._check(X, B, transpose)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes


def wrong_factorization(rng, n=30):
    """A solver whose residual check reads I - 1.01 M while its LU is of I - M."""
    M = random_substochastic(rng, n)
    solver = SubstochasticSolver(M)
    solver._A = sp.identity(n, format="csc") - sp.csc_matrix(1.01 * M)
    return solver, M


class TestScaledSolve:
    """``solve`` scales each column by 2^k, its largest magnitude near 2^256."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_normal_range_bits_equal_the_unscaled_solve(self, seed):
        r = np.random.default_rng(seed)
        n, m = int(r.integers(1, 40)), int(r.integers(1, 6))
        M = random_substochastic(r, n) * (r.random((n, n)) < 0.3)
        solver = SubstochasticSolver(sp.csr_matrix(M))
        B = r.standard_normal((n, m)) * 10.0 ** r.integers(-100, 100, m)
        for transpose in (False, True):
            want = solver._lu.solve(B, trans="T" if transpose else "N")
            assert solver.solve(B, transpose=transpose).tobytes() == want.tobytes()
            assert solver.solve(B[:, 0], transpose=transpose).tobytes() == want[:, 0].tobytes()

    @pytest.mark.parametrize("size", [1.0, 1e-300])
    def test_wrong_factorization_raises_at_any_scale(self, rng, size):
        solver, _ = wrong_factorization(rng)
        with pytest.raises(NumericalError, match="residual check failed"):
            solver.solve(rng.random((30, 3)) * size)

    def test_error_message_is_in_the_callers_units(self, rng):
        solver, M = wrong_factorization(rng)
        b = rng.random(30) * 1e-300
        x = np.linalg.solve(np.eye(30) - M, b)
        residual = np.abs(0.01 * (M @ x)).max()          # (I - 1.01 M) x - b
        tol = 1e-9 * max(b.max(), solver.operator_norm * x.max())
        with pytest.raises(NumericalError) as info:
            solver.solve(b)
        got = re.search(r"residual (\S+) > tol (\S+)$", str(info.value))
        assert float(got[1]) == pytest.approx(residual, rel=1e-3)
        assert float(got[2]) == pytest.approx(tol, rel=1e-3)

    def test_callers_array_is_unchanged(self, rng):
        solver = SubstochasticSolver(random_substochastic(rng, 20))
        B = rng.random((20, 3)) * 1e-200
        kept = B.copy()
        solver.solve(B)
        solver.solve(B[:, 1], transpose=True)
        assert B.tobytes() == kept.tobytes()

    def test_all_zero_column_solves_to_exact_zeros(self, rng):
        solver = SubstochasticSolver(random_substochastic(rng, 20))
        B = rng.random((20, 3))
        B[:, 1] = 0.0
        X = solver.solve(B)
        assert np.all(X[:, 1] == 0.0) and np.all(X[:, [0, 2]] > 0.0)
        assert np.all(solver.solve(np.zeros(20)) == 0.0)

    @pytest.mark.parametrize("b", [
        [2.0 ** 1000, 2.0 ** -1000],   # scaled down, 2^-1000 would fall below 2^-1074
        [2.0 ** -1060, 2.0 ** -1074],  # k is capped at 1022, so 2^-k is normal, not 0
    ], ids=["above-2^256", "subnormal"])
    def test_identity_system_returns_its_right_hand_side(self, b):
        b = np.array(b)
        assert SubstochasticSolver(np.zeros((2, 2))).solve(b).tobytes() == b.tobytes()


def band(rng, n, w, upper=1):
    """A substochastic M whose I - M holds the full band: row i has columns
    i+upper down to i-w."""
    offsets = range(-w, upper + 1)
    M = sp.diags([rng.random(n - abs(d)) + 0.1 for d in offsets], offsets, format="csr")
    return sp.diags(0.9 / np.asarray(M.sum(axis=1)).ravel()) @ M


def colamd_order(M) -> np.ndarray:
    """The columns of I - M in SuperLU's COLAMD order: I - M times Pc is (I - M)[:, order]."""
    return np.argsort(spla.splu(sp.identity(M.shape[0], format="csc") - sp.csc_matrix(M)).perm_c)


class TestBandOrder:
    """A full band is factored in COLAMD's column order, given in closed form."""

    @pytest.mark.parametrize("n, w", [
        (6, 2), (7, 2), (50, 2), (1000, 2), (22, 10), (23, 10), (400, 10), (382, 190),
        (383, 190), (1799, 190), (9799, 190), (9996, 190), (409, 200), (2000, 300),
    ])
    def test_rule_is_colamds_order(self, rng, n, w):
        M = band(rng, n, w)
        order = _band_order(sp.identity(n, format="csc") - sp.csc_matrix(M))
        assert np.array_equal(order, colamd_order(M))
        assert np.array_equal(order, np.r_[n - 1:w:-1, :w + 1])

    @pytest.mark.parametrize("n, w", [
        (4, 2), (5, 2), (12, 10), (21, 10), (192, 190), (381, 190),   # n < 2w + 2
        (408, 200), (1600, 400),                                       # dense columns
    ])
    def test_closed_form_is_not_colamds_outside_the_rule(self, rng, n, w):
        M = band(rng, n, w)
        assert _band_order(sp.identity(n, format="csc") - sp.csc_matrix(M)) is None
        assert not np.array_equal(np.r_[n - 1:w:-1, :w + 1], colamd_order(M))

    def test_other_patterns_keep_colamd(self, rng):
        missing = band(rng, 300, 5).tolil()
        missing[200, 196] = 0.0
        blocks = {
            "tridiagonal": band(rng, 300, 1),
            "missing entry": sp.csr_matrix(missing),
            "upper bandwidth 2": band(rng, 300, 5, upper=2),
            "toggle": toggle_block(),
        }
        for name, M in blocks.items():
            solver = SubstochasticSolver(M)
            assert solver._cols is None, name
            assert np.array_equal(solver._lu.perm_c, spla.splu(solver._A).perm_c), name

    @pytest.mark.parametrize("transpose", [False, True])
    def test_solves_are_bits_of_a_colamd_lu(self, rng, transpose):
        n = 1000
        M = band(rng, n, 20)
        solver = SubstochasticSolver(M)
        assert solver._cols is not None
        lu = spla.splu(sp.identity(n, format="csc") - sp.csc_matrix(M))
        B = rng.standard_normal((n, 5))
        want = lu.solve(B, trans="T" if transpose else "N")
        X = solver.solve(B, transpose=transpose)
        assert X.tobytes(order="A") == want.tobytes(order="A")
        assert X.flags.f_contiguous                     # the layout of the plain solve's
        assert solver.solve(B[:, 3], transpose=transpose).tobytes() == want[:, 3].tobytes()

    @pytest.mark.parametrize("transpose", [False, True])
    def test_wrong_factorization_raises_through_the_permuted_path(self, rng, transpose):
        n = 500
        M = band(rng, n, 10)
        solver = SubstochasticSolver(M)
        wrong = sp.identity(n, format="csc") - sp.csc_matrix(1.01 * M)
        solver._A = wrong[:, solver._cols]
        with pytest.raises(NumericalError, match="residual check failed"):
            solver.solve(rng.random((n, 3)), transpose=transpose)

    def test_gm1_blocks_take_the_rule(self, monkeypatch):
        solvers = []

        def recorded(M):
            solvers.append(SubstochasticSolver(M))
            return solvers[-1]

        monkeypatch.setattr(censor, "SubstochasticSolver", recorded)
        run_pipeline(GM1Model(), {"kind": "range", "max": 2000}, envelopes=["r", "e"])
        assert [s.n for s in solvers] == [1799, 1996]
        for s in solvers:
            assert s._cols is not None and np.array_equal(s._lu.perm_c, np.arange(s.n))


def without_diagonal(M):
    M = sp.csr_matrix(M, copy=True)
    M.setdiag(0.0)
    M.eliminate_zeros()
    return M


class TestOneCopy:
    """``_A`` is I - M in the factor's column order, built once from M's
    transpose: the arrays of scipy's ``(I - M)[:, order]``."""

    @pytest.mark.parametrize("case, banded", [
        ("band", True), ("band without diagonal", True), ("sparse", False),
        ("sparse without diagonal", False), ("toggle", False), ("dense", False)])
    def test_operator_equals_the_subtraction(self, rng, case, banded):
        M = {"band": lambda: band(rng, 400, 12),
             "band without diagonal": lambda: without_diagonal(band(rng, 400, 12)),
             "sparse": lambda: sp.csr_matrix(random_substochastic(rng, 200)
                                             * (rng.random((200, 200)) < 0.05)),
             "sparse without diagonal": lambda: without_diagonal(
                 random_substochastic(rng, 200) * (rng.random((200, 200)) < 0.05)),
             "toggle": toggle_block,
             "dense": lambda: random_substochastic(rng, 30)}[case]()
        solver = SubstochasticSolver(M)
        assert (solver._cols is not None) == banded
        want = sp.identity(M.shape[0], format="csc") - sp.csc_matrix(M)
        if banded:
            want = want[:, solver._cols]
        assert solver._A.format == "csc" and solver._A.has_canonical_format
        assert solver._A.data.tobytes() == want.data.tobytes()
        assert np.array_equal(solver._A.indices, want.indices)
        assert np.array_equal(solver._A.indptr, want.indptr)
        assert solver.operator_norm == pytest.approx(abs(want).sum(axis=1).max(), rel=1e-14)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40), density=st.floats(0.0, 1.0),
           diagonal=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_random_blocks_with_and_without_their_diagonal(self, seed, n, density, diagonal):
        r = np.random.default_rng(seed)
        M = random_substochastic(r, n) * (r.random((n, n)) < density)
        M[np.diag_indices(n)] *= r.random(n) < diagonal      # some diagonals not stored
        solver = SubstochasticSolver(sp.csr_matrix(M))
        want = sp.identity(n, format="csc") - sp.csc_matrix(M)
        if solver._cols is not None:
            want = want[:, solver._cols]
        assert solver._A.data.tobytes() == want.data.tobytes()
        assert np.array_equal(solver._A.indices, want.indices)
        assert np.array_equal(solver._A.indptr, want.indptr)


def toggle_block():
    """``P22`` of toggle20 at level 40, cut over the ``r`` return set."""
    model = ToggleSwitchModel(20.0, 1.0)
    pred = truncation_predicate(model, {"kind": "simplex", "level": 40})
    return_set = model.certificate_for_envelope("r").return_set
    return cut(explore(embed(model), pred), pred, explicit_k_predicate(return_set))[1].P22


class TestStationarySmall:
    def test_two_state_swap(self):
        pi = stationary_small(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.abs(pi - 0.5).max() < 1e-14

    def test_doubly_stochastic(self):
        pi = stationary_small(np.full((2, 2), 0.5))
        assert np.abs(pi - 0.5).max() < 1e-14

    def test_matches_power_iteration_oracle(self, rng):
        P = random_stochastic(rng, 10)
        pi = stationary_small(P)
        assert np.abs(pi - stationary_power(P)).max() < 1e-10

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 15))
        P = random_stochastic(r, n)
        perm = r.permutation(n)
        pi = stationary_small(P)
        pi_p = stationary_small(P[np.ix_(perm, perm)])
        assert np.abs(pi_p - pi[perm]).max() < 1e-10

    def test_reducible_detected(self):
        P = np.zeros((4, 4))
        P[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
        P[2:, 2:] = [[0.1, 0.9], [0.9, 0.1]]
        with pytest.raises((ReducibleMatrixError, NumericalError)):
            stationary_small(P)


class TestPerron:
    """The test-side reference of the paper's eigenvector route."""

    def test_scalar(self):
        pe = perron_eigenpair(np.array([[0.9]]))
        assert pe.value == pytest.approx(0.9)
        assert pe.left[0] * pe.right[0] == pytest.approx(1.0)

    def test_scaled_doubly_stochastic(self):
        G = 0.8 * np.full((2, 2), 0.5)
        pe = perron_eigenpair(G)
        assert pe.value == pytest.approx(0.8, abs=1e-12)
        assert np.abs(pe.right / pe.right[0] - 1.0).max() < 1e-10  # h proportional to ones

    def test_matches_dense_eigensolver(self, rng):
        G = rng.random((15, 15)) * 0.9
        G *= 0.95 / G.sum(axis=1).max()
        pe = perron_eigenpair(G)
        w = np.linalg.eigvals(G)
        lam_true = max(w.real)
        assert abs(pe.value - lam_true) < 1e-9
        assert np.abs(G @ pe.right - pe.value * pe.right).max() < 1e-10
        assert np.abs(pe.left @ G - pe.value * pe.left).max() < 1e-10
        assert pe.left @ pe.right == pytest.approx(1.0, abs=1e-10)

    def test_periodic_matrix_converges(self):
        # pure swap is 2-periodic; the unit shift still converges
        pe = perron_eigenpair(np.array([[0.0, 0.7], [0.7, 0.0]]))
        assert pe.value == pytest.approx(0.7, abs=1e-10)

    def test_iteration_cap_raises(self, rng, monkeypatch):
        G = rng.random((12, 12)) * 0.5 + 0.01
        monkeypatch.setattr(perron_reference, "PERRON_MAX_ITER", 1)
        with pytest.raises(NumericalError, match="converge"):
            perron_eigenpair(G)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_value_between_row_sum_extremes(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 12))
        G = r.random((n, n)) * 0.5 + 0.01
        pe = perron_eigenpair(G)
        sums = G.sum(axis=1)
        assert sums.min() - 1e-9 <= pe.value <= sums.max() + 1e-9


class TestFundamentalMatrix:
    def test_identity_one_by_one(self):
        F = fundamental_matrix(np.eye(1), np.ones(1))
        assert F[0, 0] == pytest.approx(1.0)

    def test_two_state_swap_inverse_relation(self):
        P1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi1 = np.array([0.5, 0.5])
        F = fundamental_matrix(P1, pi1)
        A = np.eye(2) - P1 + np.outer(np.ones(2), pi1)
        assert np.abs(F @ A - np.eye(2)).max() < 1e-12

    def test_matches_dense_inverse(self, rng):
        P = random_stochastic(rng, 8)
        pi = stationary_power(P)
        F = fundamental_matrix(P, pi)
        F_or = np.linalg.inv(np.eye(8) - P + np.outer(np.ones(8), pi))
        assert np.abs(F - F_or).max() < 1e-10


class TestSCC:
    def test_identity_three_components(self):
        assert not is_irreducible(np.eye(3))

    def test_cycle_is_one_component(self):
        P = np.roll(np.eye(4), 1, axis=1)
        assert is_irreducible(P)
        assert is_irreducible(sp.csr_matrix(P))

    def test_block_diagonal_two_components(self):
        P = np.zeros((4, 4))
        P[:2, :2] = [[0.5, 0.5], [0.5, 0.5]]
        P[2:, 2:] = [[0.0, 1.0], [1.0, 0.0]]
        assert not is_irreducible(P)
        P[1, 2] = P[3, 0] = 0.5     # a link each way joins the two blocks
        assert is_irreducible(P)
