import json

import numpy as np
import pytest

from truncbound import TruncationWorkspace, enumerate_space
from truncbound.errors import CertificateError
from truncbound.lyapunov import (
    DriftCertificate,
    certificate_payload,
    construct_K,
    evaluate_certificate,
    moment_bound,
    tail_mass_bound,
    verify_certificate,
    verify_drift,
)
from truncbound.models import GM1Model, ToggleSwitchModel

from conftest import (
    exact_certificate,
    host_model,
    kappa_oracle,
    random_stochastic,
    stationary_power,
    upper_cycle_rewards,
)


class TestVerifyDrift:
    def test_gm1_quadratic_violations_end_at_designed_cutoff(self):
        gm1 = GM1Model()
        ly = gm1.lyapunov()
        rep = verify_drift(gm1, ly.g1, ly.r, (), range(260))
        assert max(rep.violations) == 201
        assert 0 in rep.violations

    def test_gm1_linear_violations_are_first_five_states(self):
        gm1 = GM1Model()
        ly = gm1.lyapunov()
        rep = verify_drift(gm1, ly.g2, lambda x: 1.0, (), range(260))
        assert rep.violations == (0, 1, 2, 3, 4)

    def test_zero_function_violates_everywhere(self):
        gm1 = GM1Model()
        rep = verify_drift(gm1, lambda x: 0.0, lambda x: 1.0, (), range(20))
        assert len(rep.violations) == 20

    def test_non_finite_function_rejected(self, rng):
        from truncbound.errors import NumericalError

        gm1 = GM1Model()
        with pytest.raises(NumericalError, match="finite"):
            verify_drift(gm1, lambda x: float("inf") if x > 3 else 1.0,
                         lambda x: 1.0, (), range(10))

    def test_nan_surplus_of_jump_model_rejected(self):
        # nan > allow is False, so a nan surplus used to pass as verified
        from truncbound.errors import NumericalError

        ts = ToggleSwitchModel(20.0, 1.0)
        ly = ts.lyapunov()
        K = construct_K(ts, ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
        g = lambda s: float("nan") if s == (20, 20) else ly.g2(s)
        # (19, 20) is the first state of the region with (20, 20) in its row
        with pytest.raises(NumericalError, match=r"not finite at state \(19, 20\)"):
            verify_drift(ts, g, lambda _: 1.0, K, ts.states_within(ly.n2))

    def test_non_finite_slack_rejected(self):
        from truncbound.errors import NumericalError

        gm1 = GM1Model()
        ly = gm1.lyapunov()
        slack = lambda x: float("nan") if x == 7 else 1.0
        with pytest.raises(NumericalError, match="not finite at state 7"):
            verify_drift(gm1, ly.g2, slack, (0, 1, 2, 3, 4), range(20))

    def test_exact_solution_has_zero_slack(self, rng):
        # the cycle-reward continuation solves the drift equation exactly
        P = random_stochastic(rng, 10)
        model = host_model(P)
        r = np.arange(10.0)
        _, eta = kappa_oracle(P, 2, r)
        g = lambda x: 0.0 if x < 2 else float(eta[x - 2])
        rep = verify_drift(model, g, lambda x: float(r[x]), (0, 1), range(10),
                           tolerance=1e-9)
        assert rep.verified
        assert abs(rep.worst_margin) < 1e-9 * (1 + float(np.abs(eta).max()))


class TestConstructK:
    def test_gm1_reference_return_set(self):
        gm1 = GM1Model()
        ly = gm1.lyapunov()
        K = construct_K(gm1, ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
        assert K == tuple(range(202))

    def test_toggle_20_return_set(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        ly = ts.lyapunov()
        assert (ly.n1, ly.n2) == (60, 57)
        K = construct_K(ts, ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
        assert len(K) == len(set(K))
        assert max(s[0] + s[1] for s in K) < 60
        # the violation blob surrounds the balance point, not the origin
        assert (4, 4) in K
        assert (0, 0) not in K

    def test_toggle_90_radii(self):
        ly = ToggleSwitchModel(90.0, 1.0).lyapunov()
        assert (ly.n1, ly.n2) == (220, 217)

    def test_all_violations_is_an_error(self):
        gm1 = GM1Model()
        zero = lambda x: 0.0
        with pytest.raises(CertificateError, match="whole candidate ball"):
            construct_K(gm1, zero, zero, lambda x: 1.0, 10, 10)

    def test_no_violations_warns_and_returns_empty(self, rng):
        P = random_stochastic(rng, 8)
        model = host_model(P)
        r = np.arange(8.0)
        _, eta_r = kappa_oracle(P, 1, r)
        _, eta_e = kappa_oracle(P, 1, np.ones(8))
        # scaled-up exact continuations satisfy the drift strictly off state 0,
        # and at state 0 the excluded-sum form holds as well for this host
        g1 = lambda x: 0.0 if x < 1 else 3.0 * float(eta_r[x - 1])
        g2 = lambda x: 0.0 if x < 1 else 3.0 * float(eta_e[x - 1])
        out = construct_K(model, g1, g2, lambda x: float(x), 8, 8)
        assert isinstance(out, tuple)


class TestBoundaryOverflow:
    def test_interior_states_have_zero_overflow(self):
        gm1 = GM1Model()
        _, part = enumerate_space(gm1, lambda s: s <= 300, lambda s: s == 0)
        h = part.boundary_overflow(lambda x: 300.0 * x * x)
        assert np.count_nonzero(h) == 1

    def test_gm1_top_state_overflow_value(self):
        gm1 = GM1Model()
        space, part = enumerate_space(gm1, lambda s: s <= 300, lambda s: s == 0)
        g = lambda x: 300.0 * x * x
        h = part.boundary_overflow(g)
        idx = space.index_of(300)
        assert h[idx] == pytest.approx(gm1.beta(0) * g(301), rel=1e-14)

    def test_full_space_overflow_vanishes(self, rng):
        P = random_stochastic(rng, 9)
        _, part = enumerate_space(host_model(P), lambda s: True, lambda s: s < 2)
        assert np.count_nonzero(part.boundary_overflow(lambda x: x * x + 1)) == 0

    def test_overflow_nonincreasing_pointwise_as_truncation_grows(self):
        gm1 = GM1Model()
        g = lambda x: 300.0 * x
        vecs = []
        for top in (250, 300, 400):
            _, part = enumerate_space(gm1, lambda s, t=top: s <= t, lambda s: s == 0)
            vecs.append(part.boundary_overflow(g))
        # at every fixed state the overflow can only drop once A grows
        assert (vecs[1][:251] <= vecs[0] + 1e-15).all()
        assert (vecs[2][:301] <= vecs[1] + 1e-15).all()
        assert vecs[1][250] == 0.0  # old edge state becomes interior


class TestMomentBound:
    def test_gm1_published_constant(self):
        gm1 = GM1Model()
        ly = gm1.lyapunov()
        assert ly.n3 == 1803
        c = moment_bound(gm1, ly.g3, ly.w, ly.n3)
        assert 0 < c <= 8.3e7

    def test_toggle_90_published_constant(self):
        ts = ToggleSwitchModel(90.0, 1.0)
        g3, w, n3 = ts.moment_data(alpha=4.0)
        assert n3 == 293
        c = moment_bound(ts, g3, w, n3)
        # published to three significant figures (16.4e3)
        assert 0 < c <= 16.45e3
        assert round(c / 1e3, 1) == 16.4

    def test_exact_relation_on_finite_host(self, rng):
        # a function solving the balance equation makes the surplus constant,
        # equal to the stationary expectation of the reward
        P = random_stochastic(rng, 12)
        pi = stationary_power(P)
        w = rng.random(12) + 0.2
        pw = float(pi @ w)
        F = np.linalg.inv(np.eye(12) - P + np.outer(np.ones(12), pi))
        g3_vec = F @ (w - pw)
        g3_vec -= g3_vec.min()  # nonnegative shift leaves the surplus unchanged
        model = host_model(P)
        g3 = lambda x: float(g3_vec[x])
        c = moment_bound(model, g3, lambda x: float(w[x]), 11)
        assert c == pytest.approx(pw, abs=1e-9)

    def test_tail_mass_bound(self, rng):
        P = random_stochastic(rng, 15)
        pi = stationary_power(P)
        w = np.arange(15.0)
        c = float(pi @ w) + 0.5  # any valid moment bound
        for level in (5.0, 10.0):
            guaranteed = tail_mass_bound(c, level)
            actual = pi[w < level].sum()
            assert actual >= guaranteed - 1e-12


class TestCertificate:
    def test_unverified_certificate_refused(self, rng):
        P = random_stochastic(rng, 8)
        model = host_model(P)
        cert = DriftCertificate.pair((0,), lambda x: float(x),
                                     lambda x: x * x, lambda x: float(x), 8, 8)
        _, part = enumerate_space(model, lambda s: True, lambda s: s == 0)
        with pytest.raises(CertificateError, match="verified"):
            evaluate_certificate(cert, part)

    def test_exactness_upper_equals_oracle(self, rng):
        P = random_stochastic(rng, 11)
        model = host_model(P)
        r = np.arange(11.0)
        cert = exact_certificate(P, 3, r, model)
        for a in (6, 9, 11):
            _, part = enumerate_space(model, lambda s, a=a: s < a, lambda s: s < 3)
            ws = TruncationWorkspace(part)
            inputs = evaluate_certificate(cert, part)
            ku_r, ku_e = upper_cycle_rewards(ws, inputs)
            kap_r, _ = kappa_oracle(P, 3, r)
            kap_e, _ = kappa_oracle(P, 3, np.ones(11))
            assert np.abs(ku_r - kap_r).max() < 1e-9
            assert np.abs(ku_e - kap_e).max() < 1e-9

    def test_single_pair_mode(self, rng):
        P = random_stochastic(rng, 9)
        model = host_model(P)
        _, eta = kappa_oracle(P, 2, np.maximum(np.arange(9.0), 1.0))
        g = lambda x: 0.0 if x < 2 else float(eta[x - 2])
        cert = DriftCertificate.single((0, 1), lambda x: float(x), g, 9)
        cert = verify_certificate(model, cert, tolerance=1e-9)
        assert cert.verified and cert.single_pair
        _, part = enumerate_space(model, lambda s: s < 7, lambda s: s < 2)
        inputs = evaluate_certificate(cert, part)
        assert np.array_equal(inputs.h1_A, inputs.h2_A)

    def test_payload_roundtrip_and_hash_stability(self, rng):
        P = random_stochastic(rng, 10)
        model = host_model(P)
        r = np.arange(10.0)
        cert = exact_certificate(P, 2, r, model)
        _, part = enumerate_space(model, lambda s: s < 8, lambda s: s < 2)
        inputs1 = evaluate_certificate(cert, part)
        inputs2 = evaluate_certificate(cert, part)
        assert inputs1.sha256 == inputs2.sha256
        payload = certificate_payload(cert, part, inputs1.r_A, inputs1.h1_A,
                                      inputs1.h2_A)
        restored = json.loads(json.dumps(payload))
        assert restored["radii"] == {"envelope": 10, "unit": 10}
        assert len(restored["g_envelope"]) == part.a_size
        assert restored["return_set"] == [0, 1]

    def test_certificate_partition_mismatch(self, rng):
        P = random_stochastic(rng, 9)
        model = host_model(P)
        cert = exact_certificate(P, 2, np.arange(9.0), model)
        _, part = enumerate_space(model, lambda s: s < 8, lambda s: s < 3)
        with pytest.raises(CertificateError, match="return set"):
            evaluate_certificate(cert, part)
