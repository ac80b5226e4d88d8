import re
from dataclasses import replace

import numpy as np
import pytest

from truncbound import TruncationWorkspace, enumerate_space
from truncbound.bounds import (
    combine_signed,
    compute_bounds,
    delta2_bound,
    ell_lower_bound,
    minorization_bounds,
    reward_interval,
    tv_bound_general,
    tv_bound_singleton,
)
from truncbound.censor import CensoredApprox, TauFamily
from truncbound.errors import CertificateError, NumericalError
from truncbound.lyapunov import BoundInputs, evaluate_certificate
from truncbound.models import GM1Model

from conftest import (
    exact_certificate,
    host_model,
    kappa_oracle,
    measured_weighted_tv,
    random_stochastic,
    stationary_power,
    upper_cycle_rewards,
)
from perron_reference import delta1_bound, fundamental_matrix, perron_normalized, perron_tv_bound


def setup_host(rng, n=12, k=3, a=None, zeros=0.4):
    P = random_stochastic(rng, n, zeros=zeros)
    a = n if a is None else a
    model = host_model(P)
    _, part = enumerate_space(model, lambda s: s < a, lambda s: s < k)
    ws = TruncationWorkspace(part)
    cert = exact_certificate(P, k, np.arange(float(n)), model)
    inputs = evaluate_certificate(cert, part, envelope_id="r")
    return P, model, ws, inputs


class TestKappaUpper:
    def test_full_space_upper_equals_lower(self, rng):
        P, model, ws, inputs = setup_host(rng)
        kl = ws.kappa_lower(inputs.r_A * ws.partition.unit)
        assert np.abs(upper_cycle_rewards(ws, inputs)[0] - kl).max() < 1e-12

    def test_hand_three_state_host(self):
        # A = {0, 1}, K = {0}; state 2 outside A with hand-set certificate
        P = np.array([
            [0.2, 0.5, 0.3],
            [0.6, 0.1, 0.3],
            [1.0, 0.0, 0.0],
        ])
        model = host_model(P)
        _, part = enumerate_space(model, lambda s: s < 2, lambda s: s == 0)
        ws = TruncationWorkspace(part)
        from truncbound.lyapunov import DriftCertificate, verify_certificate

        r = np.array([1.0, 2.0, 1.5])
        _, eta_r = kappa_oracle(P, 1, r)
        _, eta_e = kappa_oracle(P, 1, np.ones(3))
        g1 = lambda x: 0.0 if x == 0 else float(eta_r[x - 1])
        g2 = lambda x: 0.0 if x == 0 else float(eta_e[x - 1])
        cert = DriftCertificate.pair((0,), lambda x: float(r[x]), g1, g2, 3, 3)
        cert = verify_certificate(model, cert, tolerance=1e-9)
        inputs = evaluate_certificate(cert, part, envelope_id="r")
        # by hand: kl(r) = r0 + P01 (I-P11)^{-1} r1 ; h1 = P(.,2) g1(2)
        kl_r = r[0] + P[0, 1] * r[1] / (1 - P[1, 1])
        h10 = P[0, 2] * eta_r[1]
        h11 = P[1, 2] * eta_r[1]
        expect = kl_r + h10 + P[0, 1] / (1 - P[1, 1]) * h11
        got, _ = upper_cycle_rewards(ws, inputs)
        assert got[0] == pytest.approx(expect, rel=1e-12)
        # and the exact-certificate construction reproduces the full truth
        kap_r, _ = kappa_oracle(P, 1, r)
        assert got[0] == pytest.approx(kap_r[0], rel=1e-12)

    def test_refuses_unverified(self, rng):
        P, model, ws, inputs = setup_host(rng)
        from dataclasses import replace

        with pytest.raises(CertificateError):
            compute_bounds(ws, replace(inputs, verified=False))


class TestSingletonBounds:
    def test_exact_certificate_degenerates_to_truth(self, rng):
        P, model, ws, inputs = setup_host(rng, n=10, k=1)
        rep = compute_bounds(ws, inputs)
        pir = stationary_power(P) @ np.arange(10.0)
        assert rep.method == "singleton"
        assert rep.lower == pytest.approx(pir, abs=1e-10)
        assert rep.upper == pytest.approx(pir, abs=1e-10)

    def test_unit_reward_brackets_one(self, rng):
        P, model, ws, inputs = setup_host(rng, n=10, k=1, a=8)
        kl_e = ws.kappa_lower(np.ones(8))
        _, ku_e = upper_cycle_rewards(ws, inputs)
        lo, hi = minorization_bounds(ws.censored().tau, kl_e, ku_e, kl_e, ku_e)
        assert lo <= 1.0 <= hi

    def test_gm1_singleton_contains_geometric_mean(self):
        # no polynomial drifts to the singleton {0} here (the reflection at 0
        # slows descent), so build the certificate from padded numeric
        # continuations: 1.2x the exact cycle sums drifts with strict margin.
        # The continuation window must cover every state the pipeline touches
        # (one step beyond the truncation).
        gm1 = GM1Model()
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        W = 12000
        rows, cols, vals = [], [], []
        for x in range(1, W + 1):
            for y, p in gm1.row(x):
                if 1 <= y <= W:
                    rows.append(x - 1), cols.append(y - 1), vals.append(p)
        B = sp.csr_matrix((vals, (rows, cols)), shape=(W, W))
        lu = spla.splu(sp.csc_matrix(sp.identity(W) - B))
        cont_r = lu.solve(np.arange(1.0, W + 1))
        cont_e = lu.solve(np.ones(W))
        g1 = lambda x: 0.0 if x < 1 else 1.2 * float(cont_r[min(x, W) - 1])
        g2 = lambda x: 0.0 if x < 1 else 1.2 * float(cont_e[min(x, W) - 1])
        from truncbound.lyapunov import DriftCertificate, verify_certificate

        cert = DriftCertificate.pair((0,), lambda x: float(x), g1, g2, 400, 400)
        cert = verify_certificate(gm1, cert)
        truth = float(gm1.exact_geometric().mean())

        # a modest truncation leaves a genuinely two-sided interval
        _, part = enumerate_space(gm1, lambda s: s <= 2000, lambda s: s == 0)
        rep = compute_bounds(TruncationWorkspace(part),
                             evaluate_certificate(cert, part, envelope_id="r"))
        assert rep.method == "singleton"
        assert rep.lower <= truth <= rep.upper
        assert rep.upper - rep.lower < 0.01 * truth

        # at the reference truncation the interval collapses to the floating
        # point floor of the long solves; containment holds to that floor
        _, part = enumerate_space(gm1, lambda s: s <= 10000, lambda s: s == 0)
        rep = compute_bounds(TruncationWorkspace(part),
                             evaluate_certificate(cert, part, envelope_id="r"))
        tol = 1e-8 * truth
        assert rep.lower - tol <= truth <= rep.upper + tol


class TestMinorizationBounds:
    def test_singleton_reduction_is_bitwise(self, rng):
        # with K = {z} the mixture bounds are the closed-form singleton
        # ratios kl(r)/ku(e) and ku(r)/kl(e), bit for bit
        P, model, ws, inputs = setup_host(rng, n=10, k=1, a=8)
        fresh = TruncationWorkspace(ws.partition)
        kl_r = fresh.kappa_lower(inputs.r_A * fresh.partition.unit)
        kl_e = fresh.kappa_lower(fresh.partition.unit)
        ku_r = kl_r + fresh.kappa_lower(inputs.h1_A)
        ku_e = kl_e + fresh.kappa_lower(inputs.h2_A)
        rep = compute_bounds(ws, inputs)
        assert rep.method == "singleton"
        assert rep.lower == kl_r[0] / ku_e[0]
        assert rep.upper == ku_r[0] / kl_e[0]

    def test_full_space_degenerate_interval(self, rng):
        P, model, ws, inputs = setup_host(rng, n=14, k=4)
        kl_r = ws.kappa_lower(inputs.r_A)
        kl_e = ws.kappa_lower(np.ones(14))
        ku_r, ku_e = upper_cycle_rewards(ws, inputs)
        lo, hi = minorization_bounds(ws.censored().tau, kl_r, ku_r, kl_e, ku_e)
        pir = stationary_power(P) @ np.arange(14.0)
        assert hi - lo < 1e-9
        assert lo <= pir + 1e-9 and pir - 1e-9 <= hi

    def test_interval_contains_truth_and_approximation(self, rng):
        for seed in range(25):
            r2 = np.random.default_rng(seed)
            P, model, ws, inputs = setup_host(r2, n=13, k=3, a=9)
            rep = compute_bounds(ws, inputs)
            pir = stationary_power(P) @ np.arange(13.0)
            assert rep.lower <= pir <= rep.upper
            assert rep.lower <= rep.approx <= rep.upper  # row route is bracketed


class TestApproxErrorBound:
    def test_width_bounds_approximation_error(self, rng):
        # the interval brackets both the approximation and the truth, so its
        # width bounds the approximation error
        P, model, ws, inputs = setup_host(rng, n=11, k=3, a=9)
        rep = compute_bounds(ws, inputs)
        pir = stationary_power(P) @ np.arange(11.0)
        assert rep.certified
        assert abs(rep.approx - pir) <= rep.upper - rep.lower


class TestTvBounds:
    def test_singleton_zero_overflow_gives_zero(self):
        assert tv_bound_singleton(0.0, 0.0, 1.7, 3.0) == 0.0

    def test_singleton_hand_arithmetic(self):
        assert tv_bound_singleton(0.3, 0.2, 2.0, 4.0) == pytest.approx(
            2.0 * max(0.3 / 2.0, 4.0 * 0.2 / 2.0)
        )

    def test_singleton_dominates_measured(self, rng):
        for seed in range(20):
            r2 = np.random.default_rng(seed + 1000)
            n = 12
            P, model, ws, inputs = setup_host(r2, n=n, k=1, a=9)
            rep = compute_bounds(ws, inputs)
            pi = stationary_power(P)
            dist = np.zeros(n)
            dist[:9] = ws.approx_distribution(ws.censored().row_normalized[1])
            meas = measured_weighted_tv(dist, pi, np.arange(float(n)))
            assert meas <= rep.tv_bound + 1e-11

    def test_general_zero_inputs_give_zero(self):
        z = np.zeros(3)
        assert tv_bound_general(np.ones(3) / 3, z, z, 1.0, 0.0,
                                np.ones(3), np.ones(3), 2.0) == 0.0

    def test_general_dominates_measured(self, rng):
        for seed in range(25):
            r2 = np.random.default_rng(seed + 300)
            n = int(r2.integers(10, 16))
            a = int(r2.integers(6, n))
            P, model, ws, inputs = setup_host(r2, n=n, k=3, a=a)
            rep = compute_bounds(ws, inputs)
            pi = stationary_power(P)
            dist = np.zeros(n)
            dist[:a] = ws.approx_distribution(ws.censored().row_normalized[1])
            meas = measured_weighted_tv(dist, pi, np.arange(float(n)))
            assert meas <= rep.tv_bound + 1e-11

    def test_perron_route_dominates_measured(self, rng):
        # the paper's eigenvector route, on the test-side reference
        for seed in range(15):
            r2 = np.random.default_rng(seed + 600)
            P, model, ws, inputs = setup_host(r2, n=12, k=3, a=9)
            tv, pi1 = perron_tv_bound(ws, inputs)
            pi = stationary_power(P)
            dist = np.zeros(12)
            dist[:9] = ws.approx_distribution(pi1)
            meas = measured_weighted_tv(dist, pi, np.arange(12.0))
            assert meas <= tv + 1e-11

    def test_ell_guard(self):
        ca = CensoredApprox(G=np.array([[0.5]]), row_mass=np.array([0.5]))
        with pytest.raises(Exception):
            ell_lower_bound(ca.tau, np.array([-1.0]))


class TestDeltas:
    def test_delta2_trivial_cases(self):
        ca = CensoredApprox(G=np.array([[0.5]]), row_mass=np.array([0.5]))
        assert delta2_bound(ca.tau) == 0.0

    def test_delta2_matches_bruteforce(self, rng):
        G = rng.random((6, 6)) * 0.3
        G *= 0.85 / G.sum(axis=1).max()
        ca = CensoredApprox(G=G, row_mass=G.sum(axis=1))
        tau = ca.tau
        brute = max(
            np.abs(tau.rows[x] - tau.rows[y]).sum()
            for x in range(6) for y in range(6)
        )
        assert delta2_bound(tau) == pytest.approx(brute)

    def test_delta2_dominates_true_gap(self, rng):
        for seed in range(20):
            r2 = np.random.default_rng(seed + 50)
            n, k, a = 12, 3, 9
            P, model, ws, inputs = setup_host(r2, n=n, k=k, a=a)
            ca = ws.censored()
            _, pi2 = ca.row_normalized
            pi = stationary_power(P)
            pi_k = pi[:k] / pi[:k].sum()
            assert np.abs(pi2 - pi_k).sum() <= delta2_bound(ca.tau) + 1e-11

    def test_non_finite_family_raises(self, rng):
        P, model, ws, inputs = setup_host(rng, n=12, k=3)
        ca = ws.censored()
        rows = ca.tau.rows.copy()
        rows[1, 0] = np.nan
        ca.tau = TauFamily(rows, ca.tau.denominator, ca.tau.clamped)
        with pytest.raises(NumericalError, match="non-finite"):
            compute_bounds(ws, inputs)

    def test_delta1_trivial_cases(self):
        # P1 equals a stochastic censored matrix: no perturbation at all
        G = np.array([[0.3, 0.7], [0.6, 0.4]])
        F1 = np.linalg.inv(np.eye(2) - G + np.outer(np.ones(2), [0.5, 0.5]))
        assert delta1_bound(G, G, F1) == 0.0
        assert delta1_bound(np.array([[1.0]]), np.array([[0.9]]), np.eye(1)) == 0.0

    def test_delta1_dominates_true_gap(self, rng):
        for seed in range(20):
            r2 = np.random.default_rng(seed + 70)
            n, k, a = 12, 3, 9
            P, model, ws, inputs = setup_host(r2, n=n, k=k, a=a)
            ca = ws.censored()
            P1, pi1 = perron_normalized(ca.G)
            pi = stationary_power(P)
            pi_k = pi[:k] / pi[:k].sum()
            bound = delta1_bound(P1, ca.G, fundamental_matrix(P1, pi1))
            assert np.abs(pi1 - pi_k).sum() <= bound + 1e-11


class TestMixedSignRewards:
    def test_combine_signed(self):
        lo, hi = combine_signed((1.0, 2.0), (0.5, 0.8))
        assert lo == pytest.approx(0.2) and hi == pytest.approx(1.5)

    def test_interval_contains_signed_expectation(self, rng):
        for seed in range(15):
            r2 = np.random.default_rng(seed + 90)
            n, k, a = 12, 3, 9
            P, model, ws, inputs = setup_host(r2, n=n, k=k, a=a)
            pi = stationary_power(P)
            # alternating signs under the envelope
            f = 0.8 * inputs.r_A * (-1.0) ** np.arange(a)
            lo, hi = reward_interval(ws, inputs, f)
            # the interval brackets the expectation of f extended by zero
            truth = float(pi[:a] @ f)
            assert lo - 1e-9 <= truth <= hi + 1e-9

    def test_envelope_domination_enforced(self, rng):
        P, model, ws, inputs = setup_host(rng, n=10, k=2, a=8)
        with pytest.raises(CertificateError):
            reward_interval(ws, inputs, inputs.r_A + 1.0)


class TestBoundReport:
    def test_json_roundtrip_and_determinism(self, rng):
        import json

        P, model, ws, inputs = setup_host(rng, n=10, k=3, a=8)
        rep1 = compute_bounds(ws, inputs)
        ws2 = TruncationWorkspace(ws.partition)
        rep2 = compute_bounds(ws2, inputs)
        d1, d2 = rep1.to_dict(), rep2.to_dict()
        d1.pop("timings"), d2.pop("timings")
        assert json.loads(json.dumps(d1)) == json.loads(json.dumps(d2))
        assert d1["provenance"]["certificate_sha256"] == inputs.sha256

    def test_reward_is_the_certificate_envelope(self, toggle60):
        part, inputs = toggle60
        rep = compute_bounds(TruncationWorkspace(part), inputs["e"])
        assert (rep.reward_id, rep.to_dict()["envelope"]) == ("e", "e")


def _interval_fields(report):
    return report.lower, report.upper, report.approx, report.tv_bound


class TestCycleRewardCache:
    """Cycle rewards cached on a workspace belong to one ``BoundInputs``:
    an equal fingerprint must not hand them to another envelope."""

    @pytest.mark.parametrize("how", ["default-sha", "replace"])
    def test_scaled_envelope_not_served_stale(self, toggle60, how):
        part, inputs = toggle60
        ev = inputs["r"]
        if how == "default-sha":   # both fingerprints are ""
            first = BoundInputs("r", ev.r_A, ev.h1_A, ev.h2_A, True, "")
            second = BoundInputs("r", 0.5 * ev.r_A, ev.h1_A, ev.h2_A, True, "")
        else:                      # replace keeps the fingerprint
            first, second = ev, replace(ev, r_A=0.5 * ev.r_A)
        assert first.sha256 == second.sha256
        ws = TruncationWorkspace(part)
        rep1 = compute_bounds(ws, first)
        rep2 = compute_bounds(ws, second)
        fresh = compute_bounds(TruncationWorkspace(part), second)
        assert _interval_fields(rep2) == _interval_fields(fresh)
        assert rep2.upper < 0.6 * rep1.upper

    def test_vectors_are_read_only_copies(self, toggle60):
        _, inputs = toggle60
        ev = inputs["r"]
        r = ev.r_A.copy()
        bi = BoundInputs("r", r, ev.h1_A, ev.h2_A, True, "")
        r *= 0.5
        assert np.array_equal(bi.r_A, ev.r_A)
        for name in ("r_A", "h1_A", "h2_A"):
            with pytest.raises(ValueError):
                getattr(bi, name)[0] = 1.0


class TestRewardShape:
    """``reward_interval`` takes one finite value per state of A."""

    @pytest.mark.parametrize("form", ["length-1", "column", "short", "long", "0-d"])
    def test_wrong_shape_rejected(self, toggle60, form):
        part, inputs = toggle60
        a = part.a_size
        f = {"length-1": np.array([0.5]), "column": np.full((a, 1), 0.5),
             "short": np.full(a - 1, 0.5), "long": np.full(a + 1, 0.5),
             "0-d": np.array(0.5)}[form]
        ws = TruncationWorkspace(part)
        msg = f"expected shape ({a},), got {f.shape}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            reward_interval(ws, inputs["e"], f)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, toggle60, bad):
        part, inputs = toggle60
        f = np.full(part.a_size, 0.5)
        f[7] = bad
        ws = TruncationWorkspace(part)
        with pytest.raises(ValueError, match="reward must be finite"):
            reward_interval(ws, inputs["e"], f)
