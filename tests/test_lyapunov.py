import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from truncbound import TruncationWorkspace, enumerate_space, lyapunov
from truncbound.errors import CertificateError, ModelError
from truncbound.lyapunov import (
    DriftCertificate,
    construct_K,
    evaluate_certificate,
    moment_bound,
    tail_mass_bound,
    verify_certificate,
    verify_drift,
)
from truncbound.models import GM1Model, ToggleSwitchModel
from truncbound.statespace import batched

from conftest import (
    exact_certificate,
    host_model,
    kappa_oracle,
    random_stochastic,
    stationary_power,
    upper_cycle_rewards,
)
from immigration_death import immigration_death


class TestVerifyDrift:
    def test_gm1_quadratic_violations_end_at_designed_cutoff(self):
        gm1 = GM1Model()
        ly = gm1.drift
        rep = verify_drift(gm1, ly.g1, ly.r, (), range(260))
        assert max(rep.violations) == 201
        assert 0 in rep.violations

    def test_gm1_linear_violations_are_first_five_states(self):
        gm1 = GM1Model()
        ly = gm1.drift
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
        ly = ts.drift
        K = construct_K(ts, ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
        g = lambda s: float("nan") if s == (20, 20) else ly.g2(s)
        # (19, 20) is the first state of the region with (20, 20) in its row
        with pytest.raises(NumericalError, match=r"not finite at state \(19, 20\)"):
            verify_drift(ts, g, lambda _: 1.0, K, ts.states_within(ly.n2))

    def test_non_finite_slack_rejected(self):
        from truncbound.errors import NumericalError

        gm1 = GM1Model()
        ly = gm1.drift
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
        ly = gm1.drift
        K = construct_K(gm1, ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
        assert K == tuple(range(202))

    def test_toggle_20_return_set(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        ly = ts.drift
        assert (ly.n1, ly.n2) == (60, 57)
        K = construct_K(ts, ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
        assert len(K) == len(set(K))
        assert max(s[0] + s[1] for s in K) < 60
        # the violation blob surrounds the balance point, not the origin
        assert (4, 4) in K
        assert (0, 0) not in K

    def test_toggle_90_radii(self):
        ly = ToggleSwitchModel(90.0, 1.0).drift
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
        idx = space.states.index(300)
        assert h[idx] == pytest.approx(float(gm1.beta_masses[0]) * g(301), rel=1e-14)

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
        g3, w, n3 = gm1.moment_data()
        assert n3 == 1803
        c = moment_bound(gm1, g3, w, n3)
        assert 0 < c <= 8.3e7

    def test_toggle_90_published_constant(self):
        ts = ToggleSwitchModel(90.0, 1.0)
        g3, w, n3 = ts.moment_data()
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
        cert = DriftCertificate((0,), lambda x: float(x),
                                lambda x: x * x, lambda x: float(x), 8, 8, False)
        _, part = enumerate_space(model, lambda s: True, lambda s: s == 0)
        with pytest.raises(CertificateError, match="verified"):
            evaluate_certificate(cert, part, envelope_id="r")

    def test_exactness_upper_equals_oracle(self, rng):
        P = random_stochastic(rng, 11)
        model = host_model(P)
        r = np.arange(11.0)
        cert = exact_certificate(P, 3, r, model)
        for a in (6, 9, 11):
            _, part = enumerate_space(model, lambda s, a=a: s < a, lambda s: s < 3)
            ws = TruncationWorkspace(part)
            inputs = evaluate_certificate(cert, part, envelope_id="r")
            ku_r, ku_e = upper_cycle_rewards(ws, inputs)
            kap_r, _ = kappa_oracle(P, 3, r)
            kap_e, _ = kappa_oracle(P, 3, np.ones(11))
            assert np.abs(ku_r - kap_r).max() < 1e-9
            assert np.abs(ku_e - kap_e).max() < 1e-9

    @pytest.mark.parametrize("case", ["toggle60", "gm1"])
    def test_fingerprint_keeps_its_value(self, case, toggle60):
        """``certificate_sha256`` as it was computed before the states' repr
        was cached on the state space."""
        def fingerprint(cert, part, inputs):
            g1 = part.evaluate(cert.g_r)
            g2 = g1 if cert.g_e is cert.g_r else part.evaluate(cert.g_e)
            digest = hashlib.sha256(repr((cert.radius_r, cert.radius_e, cert.g_e is cert.g_r,
                                          cert.return_set, part.space.states)).encode())
            for v in (inputs.r_A, g1, g2, inputs.h1_A, inputs.h2_A):
                digest.update(f"{v.dtype.str}{v.shape}".encode())
                digest.update(np.ascontiguousarray(v))
            return digest.hexdigest()

        if case == "toggle60":
            part, evaluated = toggle60
            model = ToggleSwitchModel(20.0, 1.0)
        else:
            model = GM1Model()
            cert = verify_certificate(model, model.certificate_for_envelope("e"))
            _, part = enumerate_space(model, lambda s: s <= 300,
                                      lambda s: s in cert.return_set)
            evaluated = {"e": evaluate_certificate(cert, part, envelope_id="e")}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
            certs = {env: verify_certificate(model, model.certificate_for_envelope(env))
                     for env in evaluated}
        for env, inputs in evaluated.items():
            assert inputs.sha256 == fingerprint(certs[env], part, inputs)

    def test_pair_of_one_function(self, rng):
        # g drifts against max(r, 1), so against r and against 1 alike
        P = random_stochastic(rng, 9)
        model = host_model(P)
        _, eta = kappa_oracle(P, 2, np.maximum(np.arange(9.0), 1.0))
        g = lambda x: 0.0 if x < 2 else float(eta[x - 2])
        cert = DriftCertificate((0, 1), lambda x: float(x), g, g, 9, 9, False)
        cert = verify_certificate(model, cert, tolerance=1e-9)
        assert cert.verified and len(cert.reports) == 2
        _, part = enumerate_space(model, lambda s: s < 7, lambda s: s < 2)
        inputs = evaluate_certificate(cert, part, envelope_id="r")
        assert np.array_equal(inputs.h1_A, inputs.h2_A)

    def test_fingerprint_is_stable_and_covers_every_input(self, rng):
        P = random_stochastic(rng, 10)
        model = host_model(P)
        cert = exact_certificate(P, 2, np.arange(10.0), model)
        _, part = enumerate_space(model, lambda s: s < 8, lambda s: s < 2)
        inputs = evaluate_certificate(cert, part, envelope_id="r")
        assert evaluate_certificate(cert, part, envelope_id="r").sha256 == inputs.sha256
        args = (inputs.r_A, inputs.h1_A, inputs.h2_A)
        base = lyapunov._fingerprint(cert, part, *args)
        assert base == inputs.sha256

        def bumped(v, i=3):
            w = v.copy()
            w[i] = np.nextafter(w[i], np.inf)     # one bit of one entry
            return w

        swapped = part.space.coords[[0, 1, 3, 2, *range(4, part.a_size)]]
        g_r, g_e = cert.g_r, cert.g_e
        variants = {
            "radius_r": (replace(cert, radius_r=11), part, *args),
            "radius_e": (replace(cert, radius_e=11), part, *args),
            "return_set": (replace(cert, return_set=(0, 2)), part, *args),
            "state order": (cert, replace(part, space=replace(part.space, coords=swapped)),
                            *args),
            "r_A": (cert, part, bumped(args[0]), *args[1:]),
            "h1": (cert, part, args[0], bumped(args[1], 7), args[2]),
            "h2": (cert, part, *args[:2], bumped(args[2], 7)),
            "g_r": (replace(cert, g_r=lambda x: g_r(x) + (x == 5)), part, *args),
            "g_e": (replace(cert, g_e=lambda x: g_e(x) + (x == 5)), part, *args),
            "array split": (cert, part, args[0], args[1][:-1], np.append(args[1][-1:], args[2])),
        }
        seen = {"base": base}
        for name, variant in variants.items():
            sha = lyapunov._fingerprint(*variant)
            assert sha not in seen.values(), name
            seen[name] = sha
        # whether g_e is g_r alone: one function, or two with the same values
        shared = replace(cert, g_e=g_r)
        assert lyapunov._fingerprint(shared, part, *args) != \
            lyapunov._fingerprint(replace(shared, g_e=lambda x: g_r(x)), part, *args)

    def test_return_set_is_stored_sorted_without_repeats(self):
        g = lambda x: 1.0
        pairs = DriftCertificate([(2, 1), (0, 5), (2, 1)], g, g, g, 3, 3, False)
        ints = DriftCertificate([3, 1, 3, 2], g, g, g, np.int64(3), 3.0, False)
        assert (pairs.return_set, ints.return_set) == (((0, 5), (2, 1)), (1, 2, 3))
        assert type(ints.return_set[0]) is int
        assert (type(ints.radius_r), type(ints.radius_e)) == (int, int)

    @pytest.mark.parametrize("make, env, states, k_star", [
        (GM1Model, "r", None, 201.0),
        (GM1Model, "e", None, 4.0),
        (lambda: immigration_death(5.0, 1.0, 3), "r", None, 24.0),
        (lambda: ToggleSwitchModel(20.0, 1.0), "r", [(3, 4), (10, 2), (0, 0)], 12.0),
    ], ids=["gm1-r", "gm1-e", "imdeath-width-3", "toggle-explicit"])
    def test_k_star_is_the_largest_coordinate_sum_of_the_return_set(
            self, make, env, states, k_star):
        # the smallest range or simplex size that holds K, as a float
        cert = make().certificate_for_envelope(env, states)
        assert type(cert.k_star) is float
        assert cert.k_star == k_star

    @pytest.mark.parametrize("states", [[{}], [[0, [1]]], [[0], [1, 2]], [0.5]],
                             ids=["object", "nested", "ragged", "float"])
    def test_return_set_states_are_checked(self, states):
        g = lambda x: 1.0
        with pytest.raises(ModelError, match="ints or int tuples"):
            DriftCertificate(states, g, g, g, 3, 3, False)

    def test_certificate_partition_mismatch(self, rng):
        P = random_stochastic(rng, 9)
        model = host_model(P)
        cert = exact_certificate(P, 2, np.arange(9.0), model)
        _, part = enumerate_space(model, lambda s: s < 8, lambda s: s < 3)
        with pytest.raises(CertificateError, match="return set"):
            evaluate_certificate(cert, part, envelope_id="r")


ENVELOPES = {"unit": lyapunov.unit, "per-state": lambda x: float(x),
             "batched": batched(lambda x: 1.0 * x)}


@pytest.mark.parametrize("tolerance", [0.0, 1e-9])
@pytest.mark.parametrize("envelope", ENVELOPES.values(), ids=ENVELOPES)
@pytest.mark.parametrize("scale", [1.0, 1.0 - 1e-6], ids=["exact", "short"])
@pytest.mark.parametrize("seed", range(3))
def test_pair_of_one_function_keeps_the_max_slack_verdict(seed, scale, envelope, tolerance):
    """A pair whose two functions are one g, checked against the envelope and
    against 1, passes exactly when g's check against max(r, 1) passes, and
    its two checks together fail at the same states."""
    P = random_stochastic(np.random.default_rng(seed), 9)
    model = host_model(P)
    K, ball = (0, 1), range(9)
    _, eta = kappa_oracle(P, 2, np.maximum([envelope(x) for x in range(9)], 1.0))
    g = lambda x: 0.0 if x < 2 else scale * float(eta[x - 2])
    old = verify_drift(model, g, lambda x: max(envelope(x), 1.0), K, ball, tolerance=tolerance)
    own = [verify_drift(model, g, slack, K, ball, tolerance=tolerance)
           for slack in (envelope, lyapunov.unit)]
    assert tuple(sorted(set(own[0].violations) | set(own[1].violations))) == old.violations
    cert = DriftCertificate(K, envelope, g, g, 9, 9, False)
    try:
        verified = verify_certificate(model, cert, tolerance=tolerance)
    except CertificateError:
        verified = None
    assert (verified is not None) == old.verified
    if verified is not None:
        assert verified.reports == tuple(own)


def test_constant_envelope_is_checked_once(monkeypatch):
    calls = []
    verify_drift = lyapunov.verify_drift
    monkeypatch.setattr(lyapunov, "verify_drift",
                        lambda *a, **k: calls.append(a) or verify_drift(*a, **k))
    gm1 = GM1Model()
    cert = verify_certificate(gm1, gm1.certificate_for_envelope("e"))
    assert len(calls) == 1 and cert.reports[0] is cert.reports[1]
    calls.clear()
    verify_certificate(gm1, gm1.certificate_for_envelope("r"))
    assert len(calls) == 2
