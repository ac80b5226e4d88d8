import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from truncbound import JumpModel, embed, enumerate_space, exit_rate
from truncbound.errors import EnumerationLimitError, ModelError
from truncbound.models import DiscreteModel, GM1Model, ToggleSwitchModel
from truncbound.statespace import DEFAULT_ENUMERATION_CAP

from conftest import (assert_partitions_identical, batch_model, full_matrix, random_stochastic,
                      states_of)
from gm1_reference import reference_distribution


def gm1_row(gm1: GM1Model, x: int) -> list:
    """Row x of the queue written out: beta_0 .. beta_{t-1} to x + 1, x, ...,
    then the complement at 0 when positive."""
    masses = gm1.beta_masses
    entries = [(x + 1 - i, float(masses[i])) for i in range(min(x, len(masses) - 1) + 1)]
    rest = 1.0 - math.fsum(p for _, p in entries)
    return entries + [(0, rest)] if rest > 0.0 else entries


def toggle_rate_row(ts: ToggleSwitchModel, state) -> list:
    """The toggle switch's four channels written out, decay only from a positive count."""
    x1, x2 = state
    out = [((x1 + 1, x2), ts.lam / (1.0 + x2)), ((x1, x2 + 1), ts.lam / (1.0 + x1))]
    return out + [((x1 - 1, x2), ts.mu * x1)] * (x1 > 0) + [((x1, x2 - 1), ts.mu * x2)] * (x2 > 0)


def rank_major_toggle(ts: ToggleSwitchModel):
    """The embedded toggle switch with its rate rows laid out rank by rank
    (every state's first channel, then every state's second, ...)."""
    jump = JumpModel(name="toggle-rank-major", seed=ts.seed,
                     rate_rows=batch_model(ts.rate_row).rows,
                     states_within=ts.states_within, drift=None)
    return embed(jump)


class TestGm1ServiceCounts:
    def test_beta0_closed_form(self):
        gm1 = GM1Model()
        expected = (1.0 - math.exp(-2.01)) / 2.01
        assert float(gm1.beta_masses[0]) == pytest.approx(expected, rel=1e-14)

    def test_completeness(self):
        gm1 = GM1Model()
        total = sum(float(gm1.beta_masses[i]) for i in range(61))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mean_service_count(self):
        gm1 = GM1Model()
        masses = gm1.beta_masses
        mean = float(np.arange(len(masses)) @ masses)
        assert mean == pytest.approx(1.005, abs=1e-12)  # mu * b / 2
        assert gm1.service_count_moment(1) == pytest.approx(1.005, rel=1e-14)

    @pytest.mark.parametrize("i", [0, 1, 2, 5, 10, 20, 35])
    def test_quadrature_cross_check(self, i):
        gm1 = GM1Model()
        val, err = quad(
            lambda t: math.exp(-t) * t**i / math.factorial(i) / 2.01,
            0.0, 2.01, epsabs=1e-14, epsrel=1e-13,
        )
        assert float(gm1.beta_masses[i]) == pytest.approx(val, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("x", [0, 1, 5, 200, 10000])
    def test_rows_exactly_stochastic(self, x):
        gm1 = GM1Model()
        total = math.fsum(p for _, p in gm1.row(x))
        assert abs(total - 1.0) < 1e-14
        assert all(p >= 0.0 for _, p in gm1.row(x))
        assert all(0 <= y <= x + 1 for y, _ in gm1.row(x))


class TestGm1Exact:
    def test_fixed_point_residual(self):
        gm1 = GM1Model()
        law = gm1.exact_geometric()
        xi = float(law.xi)
        resid = (1.0 / (1.0 - xi)) * (-np.expm1(-2.01 * xi)) / (2.01 * xi) - 1.0
        assert abs(resid) < 1e-12
        assert 0 < float(law.theta) < 1

    def test_heavier_traffic_raises_theta(self):
        # traffic thickens as the interarrival range shrinks toward the
        # stability boundary b = 2, where theta climbs to 1
        thetas = [float(GM1Model(b=b).exact_geometric().theta)
                  for b in (4.0, 3.0, 2.5, 2.1, 2.01)]
        assert thetas == sorted(thetas)
        assert all(0 < t < 1 for t in thetas)
        assert thetas[-1] > 0.99

    def test_unstable_parameters_rejected(self):
        with pytest.raises(ModelError, match="unstable"):
            GM1Model(b=1.5).exact_geometric()

    def test_masses_sum_to_one(self):
        law = GM1Model().exact_geometric()
        total = float(law.masses(200000).sum())
        assert total == pytest.approx(1.0, abs=1e-12)


class TestGm1Lyapunov:
    def test_published_radii(self):
        gm1 = GM1Model()
        assert (gm1.drift.n1, gm1.drift.n2, gm1.moment_data()[2]) == (202, 66, 1803)

    def test_nondefault_parameters_use_root_bound(self):
        gm1 = GM1Model(b=2.4)
        assert gm1.moment_data()[2] != 1803
        assert gm1.drift.n1 >= 1 and gm1.drift.n2 >= 1

    def test_coefficients_must_beat_the_load(self):
        with pytest.raises(ModelError):
            GM1Model(b=2.001).drift   # near-critical load: 2 c1 (EV-1) < 1
        with pytest.raises(ModelError, match="quartic moment route"):
            GM1Model(b=2.001).moment_data()   # and 4 c3 (EV-1) < 1

    def test_certificates_verify(self):
        from truncbound.lyapunov import verify_certificate

        gm1 = GM1Model()
        pair = verify_certificate(gm1, gm1.certificate_for_envelope("r"))
        assert pair.verified and len(pair.return_set) == 202
        unit = verify_certificate(gm1, gm1.certificate_for_envelope("e"))
        assert unit.verified and unit.return_set == (0, 1, 2, 3, 4)


class TestToggleSwitch:
    def test_origin_exit_rate(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        assert exit_rate(ts, (0, 0)) == pytest.approx(40.0)

    def test_balance_point_exit_rate(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        assert exit_rate(ts, (4, 4)) == pytest.approx(2 * 20 / 5 + 8)

    def test_balance_points(self):
        assert ToggleSwitchModel(20.0, 1.0).x_star == pytest.approx(4.0)
        assert ToggleSwitchModel(90.0, 1.0).x_star == pytest.approx(9.0)

    def test_generator_is_conservative(self, rng):
        ts = ToggleSwitchModel(20.0, 1.0)
        for _ in range(20):
            s = (int(rng.integers(0, 40)), int(rng.integers(0, 40)))
            rates = ts.rate_row(s)
            assert all(r >= 0 for _, r in rates)
            assert sum(r for _, r in rates) == pytest.approx(exit_rate(ts, s))

    def test_boundary_channels_vanish(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        targets = [y for y, _ in ts.rate_row((0, 3))]
        assert (-1, 3) not in targets
        assert len(targets) == 3

    def test_published_radii(self):
        assert (ToggleSwitchModel(20.0, 1.0).drift.n1,
                ToggleSwitchModel(20.0, 1.0).drift.n2) == (60, 57)
        assert (ToggleSwitchModel(90.0, 1.0).drift.n1,
                ToggleSwitchModel(90.0, 1.0).drift.n2) == (220, 217)

    def test_moment_route_radius(self):
        _, _, n3 = ToggleSwitchModel(90.0, 1.0).moment_data()
        assert n3 == 293

    def test_low_balance_point_rejected(self):
        with pytest.raises(ModelError, match="1/2"):
            ToggleSwitchModel(0.5, 1.0)


@pytest.mark.parametrize("env", ["r", "e"])
@pytest.mark.parametrize("model", [GM1Model(), ToggleSwitchModel(20.0, 1.0)],
                         ids=["gm1", "toggle20"])
def test_certificate_functions_are_built_once(model, env):
    # one object per function, so a shared drift table evaluates each once
    a, b = model.certificate_for_envelope(env), model.certificate_for_envelope(env)
    assert a.envelope is b.envelope and a.g_r is b.g_r and a.g_e is b.g_e


@pytest.mark.parametrize("model, env, message", [
    (batch_model(lambda x: [(0, 1.0)], name="explored"), "r",
     "model 'explored' has no drift data"),
    (GM1Model(), "m", r"unknown envelope 'm' \(use 'r' or 'e'\)"),
    # finite parameters whose drift radii (toggle) or service-count moments (gm1) overflow
    (ToggleSwitchModel(1e200, 1.0), "r", r"model 'toggle\(1e\+200,1\)': drift data overflow"),
    (GM1Model(mu=1e-150, b=1e152), "e", "drift data overflow: Numerical result out of range"),
], ids=["no-drift-data", "unknown-envelope", "toggle-lam-1e200", "gm1-b-1e152"])
def test_certificate_recipe_rejects(model, env, message):
    with pytest.raises(ModelError, match=message):
        model.certificate_for_envelope(env)


@pytest.mark.parametrize("model, radius, message, states_to_3", [
    (GM1Model(), 1e19, r"radius 1e\+19 has too many states", 4),
    (ToggleSwitchModel(20.0, 1.0), 4e9, r"radius 4000000000.0 has too many states", 10),
], ids=["gm1", "toggle"])
def test_ball_numpy_cannot_index_is_a_model_error(model, radius, message, states_to_3):
    # raised before any array of the ball is allocated
    with pytest.raises(ModelError, match=message):
        model.states_within(radius)
    assert len(model.states_within(3)) == states_to_3


@pytest.mark.parametrize("lam", [1e4, 1e5, 1e8])
def test_ball_past_the_enumeration_cap_raises_before_it_is_built(lam):
    # the design ball of radius max(n1, n2) (about 2 lam) holds about 2 lam^2 states:
    # past the cap at lam = 1e4, and 151 GiB of numpy arrays at 1e5
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(EnumerationLimitError, match="has too many states to enumerate"):
            ToggleSwitchModel(lam, 1.0).certificate_for_envelope("r")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21 and time.perf_counter() - start < 1.0


def test_shipped_balls_stay_far_under_the_cap():
    # a ball's states are counted exactly: gm1's n3 ball and toggle90's radius 220
    assert len(GM1Model().states_within(1803)) == 1804
    assert len(ToggleSwitchModel(90.0, 1.0).states_within(220)) == math.comb(222, 2)
    assert 100 * math.comb(222, 2) < DEFAULT_ENUMERATION_CAP


def toggle20(**params) -> ToggleSwitchModel:
    return ToggleSwitchModel(**{"lam": 20.0, "mu": 1.0, **params})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make, param", [
    (GM1Model, "mu"), (GM1Model, "b"), (toggle20, "lam"), (toggle20, "mu"),
], ids=["gm1-mu", "gm1-b", "toggle-lam", "toggle-mu"])
def test_non_finite_parameter_rejected(make, param, value):
    with pytest.raises(ModelError, match="must be positive and finite"):
        make(**{param: value})


class TestUserModel:
    def test_wraps_random_host(self, rng):
        P = random_stochastic(rng, 12)
        model = batch_model(lambda x: [(j, float(P[x, j])) for j in range(12) if P[x, j]],
                            name="user")
        space, part = enumerate_space(model, lambda s: True, lambda s: s < 3)
        assert space.a_size == 12
        assert np.abs(full_matrix(part).sum(axis=1) - 1.0).max() < 1e-12

    def test_wrapping_builtin_rows_is_bitwise_identical(self):
        # the built-in batch hooks against their one-state views laid out
        # rank by rank; gm1 both below and above len(beta_masses) = 192,
        # toggle at levels 30 and 200
        gm1 = GM1Model()
        wrapped = batch_model(gm1.row, name="gm1-wrapped")
        ts = ToggleSwitchModel(20.0, 1.0)
        cases = [(gm1, wrapped, lambda s, top=top: s <= top, lambda s: s <= 10)
                 for top in (50, 400)]
        cases += [(embed(ts), rank_major_toggle(ts), lambda s, lv=lv: s[0] + s[1] <= lv,
                   lambda s: s[0] + s[1] <= 4) for lv in (30, 200)]
        for builtin, rank_major, a_pred, k_pred in cases:
            _, p1 = enumerate_space(builtin, a_pred, k_pred)
            _, p2 = enumerate_space(rank_major, a_pred, k_pred)
            assert_partitions_identical(p1, p2)

    def test_rejects_super_stochastic_row(self):
        bad = batch_model(lambda x: [(0, 0.6), (1, 0.5)])
        with pytest.raises(ModelError, match="sums to 1.1"):
            enumerate_space(bad, lambda s: True, lambda s: s == 0)


class TestBatchRows:
    def test_gm1_rows_match_row_entry_for_entry(self):
        gm1 = GM1Model()
        n = len(gm1.beta_masses)
        states = [0, 1, 7, n - 2, n - 1, n, n + 1, 10000, 3]
        pos, targets, p = gm1.rows(np.array(states)[:, None])
        expected = [(i, y, q) for i, x in enumerate(states) for y, q in gm1_row(gm1, x)]
        assert list(zip(pos.tolist(), states_of(targets), p.tolist())) == expected
        assert [gm1.row(x) for x in states] == [gm1_row(gm1, x) for x in states]

    def test_toggle_rows_match_row_entry_for_entry(self):
        # rate_rows against the written-out channels and rate_row; the
        # embedded chain, with the rate rows as given and laid out rank by
        # rank, against each rate divided by the state's rates summed left to
        # right, and 1 / that sum as unit weight
        ts = ToggleSwitchModel(90.0, 1.0)
        states = [(0, 0), (3, 0), (0, 5), (7, 2), (120, 80)]
        exit_rates = []
        for x in states:
            lam = 0.0
            for _, r in toggle_rate_row(ts, x):
                lam += r
            exit_rates.append(lam)
        embedded_row = lambda x: [(y, r / exit_rates[states.index(x)])
                                  for y, r in toggle_rate_row(ts, x)]
        cases = [(ts.rate_rows, lambda x: toggle_rate_row(ts, x)), (ts.rate_rows, ts.rate_row)]
        cases += [(chain.rows, embedded_row) for chain in (embed(ts), rank_major_toggle(ts))]
        for batch, rows in cases:
            pos, targets, p = batch(states)[:3]
            got = {}
            for i, y, q in zip(pos.tolist(), states_of(targets), p.tolist()):
                got.setdefault(i, []).append((y, q))  # each state's entries in order
            assert got == {i: list(rows(x)) for i, x in enumerate(states)}
        for chain in (embed(ts), rank_major_toggle(ts)):
            assert chain.rows(states)[3].tobytes() == (1.0 / np.array(exit_rates)).tobytes()


class TestReferenceProtocol:
    def test_reference_matches_geometric_law(self):
        gm1 = GM1Model()
        ref = reference_distribution(gm1, 10000, 4)
        law = gm1.exact_geometric()
        geo = law.masses(10001)
        gap = float(np.abs(ref - geo).sum() + law.tail(10001))
        assert gap < 1e-13


class TestBatchStateFunctions:
    """Every library state function gives, on a table's coordinate columns,
    the bits it gives state by state: gm1 on 0..20,000, the toggle switch
    on the ball of radius 300.  Only correctly rounded operations pass; a
    plain numpy ``x ** 4`` for gm1's g3 does not."""

    @staticmethod
    def assert_batch_is_per_state(fn, coords, kind=float):
        from truncbound.statespace import _apply, _objects

        per_state = [kind(fn(s)) for s in _objects(coords)]
        assert _apply(fn, coords, kind).tobytes() == np.array(per_state, dtype=kind).tobytes()

    def test_model_functions(self):
        gm1 = GM1Model()
        ly, (q3, v, _) = gm1.drift, gm1.moment_data()
        ts = ToggleSwitchModel(20.0, 1.0)
        tl, (g3, w, _) = ts.drift, ts.moment_data()
        counts = np.arange(20_001)[:, None]
        for fn in (ly.g1, ly.g2, q3, v, ly.r):
            self.assert_batch_is_per_state(fn, counts)
        for fn in (tl.g1, tl.g2, tl.r, g3, w):
            self.assert_batch_is_per_state(fn, ts.states_within(300))

    def test_numpy_power_is_not_per_state_power(self):
        # why the library writes x ** 4 as (x * x) * (x * x)
        x = np.arange(20_001)
        assert (x.astype(float) ** 4 != np.array([float(v) ** 4 for v in range(20_001)])).any()

    def test_unit_predicates_and_return_set(self):
        from truncbound.lyapunov import unit
        from truncbound.pipeline import truncation_predicate
        from truncbound.statespace import explicit_k_predicate

        counts = np.arange(-50, 20_001)[:, None]
        pairs = np.concatenate([ToggleSwitchModel(20.0, 1.0).states_within(300),
                                [(-1, 0), (0, -3), (-2, -2)]])
        self.assert_batch_is_per_state(unit, counts)
        self.assert_batch_is_per_state(unit, pairs)
        range_pred = truncation_predicate(GM1Model(), {"kind": "range", "max": 10_000})
        simplex_pred = truncation_predicate(ToggleSwitchModel(20.0, 1.0),
                                            {"kind": "simplex", "level": 200})
        self.assert_batch_is_per_state(range_pred, counts, bool)
        self.assert_batch_is_per_state(simplex_pred, pairs, bool)
        for k_states, coords in (([0, 3, 10_000, 20_000, -7], counts),
                                 ([(0, 0), (4, 4), (300, 0), (-1, 0)], pairs), ([], counts)):
            self.assert_batch_is_per_state(explicit_k_predicate(k_states), coords, bool)

    def test_pair_checks_batched_or_not(self, rng):
        # a certificate checked against a batched envelope gives the reports
        # a per-state envelope gives
        from truncbound.lyapunov import DriftCertificate, verify_certificate
        from truncbound.statespace import batched

        from conftest import host_model, kappa_oracle

        P = random_stochastic(rng, 9)
        _, eta = kappa_oracle(P, 2, np.maximum(np.arange(9.0), 1.0))
        g = lambda x: 0.0 if x < 2 else float(eta[x - 2])
        reports = []
        for envelope in (lambda x: float(x), batched(lambda x: 1.0 * x)):
            cert = DriftCertificate((0, 1), envelope, g, g, 9, 9, False)
            reports.append(verify_certificate(host_model(P), cert, tolerance=1e-9).reports)
        assert reports[0] == reports[1]


class TestBatchHooksOnly:
    """The library reads rows through ``rows`` and ``rate_rows`` only; the
    built-in models' one-state views ``row`` and ``rate_row`` are for callers."""

    def test_runs_do_not_read_the_one_state_views(self, monkeypatch):
        from truncbound.pipeline import run_pipeline, run_sweep

        def refuse(*_):
            raise AssertionError("a one-state view was read")

        monkeypatch.setattr(GM1Model, "row", refuse)
        monkeypatch.setattr(ToggleSwitchModel, "rate_row", refuse)
        gm1 = run_pipeline(GM1Model(), {"kind": "range", "max": 600}, envelopes=["r", "e"])
        assert gm1.reports["r"].lower <= gm1.reports["r"].upper
        with pytest.warns(UserWarning, match="does not dominate"):
            levels = list(run_sweep(ToggleSwitchModel(20.0, 1.0),
                                    [{"kind": "simplex", "level": lv} for lv in (40, 60)],
                                    envelopes=["r", "e"], explicit_return_set=None,
                                    with_distribution=True))
        assert all(r.reports["e"].lower <= r.reports["e"].upper for r in levels)

    def test_models_defined_by_their_batch_hooks_alone(self):
        # a reflected walk (down 0.7, up 0.3) and a birth-death process (up 1,
        # down 2), each written in array form only
        from truncbound.lyapunov import DriftCertificate, unit, verify_certificate

        def walk_rows(states):
            x = states[:, 0]
            return (np.repeat(np.arange(len(x)), 2),
                    np.stack([np.maximum(x - 1, 0), x + 1], 1).reshape(-1, 1),
                    np.tile([0.7, 0.3], len(x)))

        def birth_death_rates(states):
            x = states[:, 0]
            down = np.flatnonzero(x)
            return (np.concatenate([np.arange(len(x)), down]),
                    np.concatenate([x + 1, x[down] - 1])[:, None],
                    np.concatenate([np.ones(len(x)), np.full(len(down), 2.0)]))

        within = lambda radius: np.arange(int(radius) + 1)
        walk = DiscreteModel(name="walk", seed=0, rows=walk_rows,
                             states_within=within, drift=None)
        jump = JumpModel(name="birth-death", seed=0, rate_rows=birth_death_rates,
                         states_within=within, drift=None)
        g = lambda x: 10.0 * x
        for model, chain in ((walk, walk), (jump, embed(jump))):
            space, part = enumerate_space(chain, lambda s: s <= 30, lambda s: s == 0)
            assert space.states == tuple(range(31))
            cert = DriftCertificate((0,), unit, g, g, 20, 20, True)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # the exit rate passes 1
                assert verify_certificate(model, cert).verified
        assert part.unit.tobytes() == (1.0 / np.array([1.0] + [3.0] * 30)).tobytes()
