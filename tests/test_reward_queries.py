"""Reward queries against one workspace: the certificate's cycle rewards are
solved once per workspace, and each ``reward_interval`` call makes one solve
whose columns are the reward's positive and negative parts.

The reference below is the per-vector assembly that solved every vector on
its own; the intervals must match it bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from truncbound import TruncationWorkspace, enumerate_space
from truncbound.bounds import (
    combine_signed,
    compute_bounds,
    minorization_bounds,
    reward_interval,
)
from truncbound.linalg import SubstochasticSolver
from truncbound.lyapunov import evaluate_certificate

from conftest import exact_certificate, host_model, random_stochastic


def reference_interval(ws, inputs, f_A):
    """Per-vector reference: each cycle reward and each sign part of ``f``
    gets its own one-column solve."""
    unit = ws.partition.unit
    kl_e = ws.kappa_lower(unit)
    ku_e = kl_e + ws.kappa_lower(inputs.h2_A)
    beta1 = ws.kappa_lower(inputs.h1_A)
    tau = ws.censored().tau

    def part_bounds(w_A):
        kl_w = ws.kappa_lower(w_A * unit)
        ku_w = kl_w + beta1
        if ws.partition.k_size == 1:   # the closed-form singleton ratios
            return float(kl_w[0] / ku_e[0]), float(ku_w[0] / kl_e[0])
        return minorization_bounds(tau, kl_w, ku_w, kl_e, ku_e)

    pos = np.clip(f_A, 0.0, None)
    neg = np.clip(-f_A, 0.0, None)
    if not neg.any():
        return part_bounds(pos)
    if not pos.any():
        lo, hi = part_bounds(neg)
        return -hi, -lo
    return combine_signed(part_bounds(pos), part_bounds(neg))


@pytest.fixture
def solve_log(monkeypatch):
    """Right-hand sides of every ``SubstochasticSolver.solve`` call, as
    ``(n, columns)`` copies in call order."""
    log = []
    inner = SubstochasticSolver.solve

    def counted(self, b, **kw):
        b = np.asarray(b, dtype=float)
        log.append(b.reshape(b.shape[0], -1).copy())
        return inner(self, b, **kw)

    monkeypatch.setattr(SubstochasticSolver, "solve", counted)
    return log


def toggle_rewards(part, inputs, env, seed=3):
    """Rewards under the envelope of ``env``: for ``e`` the marginal
    indicators of x1 = j and x2 = j, their negatives and uniform mixed-sign
    rewards; for ``r`` mixed-sign and one-signed multiples of the envelope."""
    rng = np.random.default_rng(seed)
    a = part.a_size
    if env == "e":
        counts = np.array(part.space.states)
        top = int(counts.sum(axis=1).max())
        out = [(counts[:, s] == j).astype(float) for s in (0, 1) for j in range(top + 1)]
        out += [-out[3], -out[top + 5]]
        out += list(rng.uniform(-1.0, 1.0, size=(8, a)))
    else:
        r = inputs["r"].r_A
        out = [u * r for u in rng.uniform(-1.0, 1.0, size=(6, a))]
        out += [0.7 * r, -0.3 * r]
    return out + [np.zeros(a)]


def unit_solves(log, ws):
    unit2 = ws.partition.unit[ws.partition.k_size:]
    return sum(np.array_equal(B[:, j], unit2) for B in log for j in range(B.shape[1]))


class TestSolveCounts:
    def test_each_query_is_one_solve(self, toggle60, solve_log):
        part, inputs = toggle60
        ws = TruncationWorkspace(part)
        ind = (np.array(part.space.states)[:, 0] == 4).astype(float)
        mixed = np.random.default_rng(1).uniform(-1.0, 1.0, part.a_size)
        reward_interval(ws, inputs["e"], mixed)   # warm-up: G, tau, cycle rewards
        for f, cols in ((ind, 1), (-ind, 1), (mixed, 2), (np.zeros(part.a_size), 1)):
            solve_log.clear()
            reward_interval(ws, inputs["e"], f)
            assert [B.shape[1] for B in solve_log] == [cols]

    def test_unit_reward_solved_once_per_workspace(self, toggle60, solve_log):
        # the cycle length kl(e) is solved once for both certificates, and
        # e's envelope, the unit reward too, reuses it
        part, inputs = toggle60
        ws = TruncationWorkspace(part)
        reports = [compute_bounds(ws, inputs[env]) for env in ("r", "e", "r", "e")]
        assert unit_solves(solve_log, ws) == 1
        assert reports[1].approx == pytest.approx(1.0)

    def test_single_pair_overflow_solved_once(self, toggle60, solve_log):
        # e's certificate is a pair of one drift function, so h2 is h1 and
        # beta2 is beta1; with its unit envelope, kl(e) and beta1 are the
        # only solves
        part, inputs = toggle60
        ws = TruncationWorkspace(part)
        ws.cycle_rewards(inputs["e"])
        assert len(solve_log) == 2
        ws.cycle_rewards(inputs["r"])
        assert len(solve_log) == 5   # kl(r), beta1 and beta2 of the pair

    def test_repeated_bounds_reuse_cycle_rewards(self, toggle60, solve_log):
        part, inputs = toggle60
        ws = TruncationWorkspace(part)
        first = compute_bounds(ws, inputs["r"])
        n_solves = len(solve_log)
        again = compute_bounds(ws, inputs["r"])
        reward_interval(ws, inputs["r"], 0.5 * inputs["r"].r_A)
        assert len(solve_log) == n_solves + 1
        assert (again.lower, again.upper, again.tv_bound) == \
            (first.lower, first.upper, first.tv_bound)

    def test_cycle_rewards_equal_per_vector_solves(self, toggle60):
        part, inputs = toggle60
        ws, fresh = TruncationWorkspace(part), TruncationWorkspace(part)
        for env in ("r", "e"):
            cr, ev = ws.cycle_rewards(inputs[env]), inputs[env]
            assert cr is ws.cycle_rewards(ev)
            assert (cr[0] is cr[1]) == (env == "e")   # e's envelope is the unit reward
            assert (cr[2] is cr[3]) == (env == "e")   # and its certificate a single pair
            kl_r = fresh.kappa_lower(ev.r_A * part.unit)
            kl_e = fresh.kappa_lower(part.unit)
            beta1, beta2 = fresh.kappa_lower(ev.h1_A), fresh.kappa_lower(ev.h2_A)
            expect = (kl_r, kl_e, beta1, beta2, kl_r + beta1, kl_e + beta2)
            assert len(cr) == len(expect)
            for got, e in zip(cr, expect):
                assert got.tobytes() == e.tobytes()
                with pytest.raises(ValueError):
                    got[0] = 0.0   # shared by every query: read-only


class TestBitIdentity:
    def test_sparse_two_column_solve_equals_one_column_solves(self):
        rng = np.random.default_rng(5)
        n = 256
        M = sp.random(n, n, density=0.05, random_state=rng, format="csr")
        M = sp.diags(0.95 / np.maximum(np.asarray(M.sum(axis=1)).ravel(), 1.0)) @ M
        solver = SubstochasticSolver(M)
        B = rng.uniform(0.0, 1.0, size=(n, 2))
        X = solver.solve(B)
        for j in range(2):
            assert X[:, j].tobytes() == solver.solve(B[:, j]).tobytes()

    def test_kappa_lower_columns_equal_single_solves(self, toggle60):
        part, _ = toggle60
        ws = TruncationWorkspace(part)
        W = np.random.default_rng(2).uniform(0.0, 1.0, size=(part.a_size, 2))
        KL = ws.kappa_lower(W)
        for j in range(2):
            assert KL[:, j].tobytes() == ws.kappa_lower(W[:, j]).tobytes()

    @pytest.mark.parametrize("env", ["r", "e"])
    def test_toggle_intervals_match_reference(self, toggle60, env):
        part, inputs = toggle60
        ws, ref_ws = TruncationWorkspace(part), TruncationWorkspace(part)
        for f in toggle_rewards(part, inputs, env):
            assert reward_interval(ws, inputs[env], f) == \
                reference_interval(ref_ws, inputs[env], f)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4),
           cut=st.integers(0, 4), extra=st.integers(0, 12))
    def test_sparse_host_intervals_match_reference(self, seed, k, cut, extra):
        # a sparse host with |A \ K| >= 64
        n = 64 + k + cut + extra
        ws, ref_ws, inputs, rewards = _host_case(seed, n, k, n - cut, zeros=0.4)
        for f in rewards:
            assert reward_interval(ws, inputs, f) == reference_interval(ref_ws, inputs, f)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 20),
           k=st.integers(1, 3), cut=st.integers(0, 2))
    def test_dense_host_intervals_match_reference(self, seed, n, k, cut):
        # a small host with a full P, which keeps its censored matrix
        # irreducible; mixed-sign rewards are bit-identical too
        ws, ref_ws, inputs, rewards = _host_case(seed, n, k, max(k + 1, n - cut), zeros=0.0)
        for f in rewards:
            assert reward_interval(ws, inputs, f) == reference_interval(ref_ws, inputs, f)


def _host_case(seed, n, k, a, zeros):
    rng = np.random.default_rng(seed)
    P = random_stochastic(rng, n, zeros=zeros)
    model = host_model(P)
    _, part = enumerate_space(model, lambda s: s < a, lambda s: s < k)
    cert = exact_certificate(P, k, np.arange(float(n)), model)
    inputs = evaluate_certificate(cert, part, envelope_id="r")
    r = inputs.r_A
    rewards = [u * r for u in rng.uniform(-1.0, 1.0, size=(3, a))]
    rewards += [rng.uniform(0.0, 1.0, a) * r, -rng.uniform(0.0, 1.0, a) * r, np.zeros(a)]
    return TruncationWorkspace(part), TruncationWorkspace(part), inputs, rewards
