import math

import numpy as np
import pytest
from scipy.integrate import quad

from truncbound import JumpModel, embed, enumerate_space, exit_rate
from truncbound.errors import ModelError
from truncbound.models import DiscreteModel, GM1Model, ToggleSwitchModel

from conftest import assert_partitions_identical, model_forms, random_stochastic
from gm1_reference import reference_distribution


def per_state_toggle(ts: ToggleSwitchModel):
    """The embedded toggle switch without ``rate_rows``: its rows come from a
    loop over ``rate_row``."""
    jump = JumpModel(name="toggle-per-state", seed=ts.seed, rate_row=ts.rate_row,
                     norm=ts.norm, states_within=ts.states_within, rewards=ts.rewards)
    return embed(jump)


class TestGm1ServiceCounts:
    def test_beta0_closed_form(self):
        gm1 = GM1Model()
        expected = (1.0 - math.exp(-2.01)) / 2.01
        assert gm1.beta(0) == pytest.approx(expected, rel=1e-14)

    def test_completeness(self):
        gm1 = GM1Model()
        total = sum(gm1.beta(i) for i in range(61))
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
        assert gm1.beta(i) == pytest.approx(val, rel=1e-10, abs=1e-14)

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
        ly = GM1Model().lyapunov()
        assert (ly.n1, ly.n2, ly.n3) == (202, 66, 1803)

    def test_nondefault_parameters_use_root_bound(self):
        ly = GM1Model(b=2.4).lyapunov()
        assert ly.n3 != 1803
        assert ly.n1 >= 1 and ly.n2 >= 1

    def test_coefficients_must_beat_the_load(self):
        with pytest.raises(ModelError):
            GM1Model().lyapunov(c1=50.0)   # 2 c1 (EV-1) < 1

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
        assert (ToggleSwitchModel(20.0, 1.0).lyapunov().n1,
                ToggleSwitchModel(20.0, 1.0).lyapunov().n2) == (60, 57)
        assert (ToggleSwitchModel(90.0, 1.0).lyapunov().n1,
                ToggleSwitchModel(90.0, 1.0).lyapunov().n2) == (220, 217)

    def test_moment_route_radius(self):
        _, _, n3 = ToggleSwitchModel(90.0, 1.0).moment_data(alpha=4.0)
        assert n3 == 293

    def test_low_balance_point_rejected(self):
        with pytest.raises(ModelError, match="1/2"):
            ToggleSwitchModel(0.5, 1.0)


class TestUserModel:
    def test_wraps_random_host(self, rng):
        P = random_stochastic(rng, 12)
        model = DiscreteModel(
            name="user", seed=0,
            row=lambda x: [(j, float(P[x, j])) for j in range(12) if P[x, j]],
        )
        space, part = enumerate_space(model, lambda s: True, lambda s: s < 3)
        assert space.a_size == 12
        assert np.abs(part.full_matrix().toarray().sum(axis=1) - 1.0).max() < 1e-12

    def test_wrapping_builtin_rows_is_bitwise_identical(self):
        # the built-in batch hooks against their per-state rows; gm1 both
        # below and above len(beta_masses) = 192, toggle at levels 30 and 200
        gm1 = GM1Model()
        wrapped = DiscreteModel(name="gm1-wrapped", seed=0, row=gm1.row)
        assert wrapped.rows is None
        ts = ToggleSwitchModel(20.0, 1.0)
        cases = [(gm1, wrapped, lambda s, top=top: s <= top, lambda s: s <= 10)
                 for top in (50, 400)]
        cases += [(embed(ts), per_state_toggle(ts), lambda s, lv=lv: s[0] + s[1] <= lv,
                   lambda s: s[0] + s[1] <= 4) for lv in (30, 200)]
        for batch, per_state, a_pred, k_pred in cases:
            _, p1 = enumerate_space(batch, a_pred, k_pred)
            _, p2 = enumerate_space(per_state, a_pred, k_pred)
            assert_partitions_identical(p1, p2)

    def test_rejects_super_stochastic_row(self):
        for bad in model_forms(lambda x: [(0, 0.6), (1, 0.5)]):
            with pytest.raises(ModelError, match="sums to 1.1"):
                enumerate_space(bad, lambda s: True, lambda s: s == 0)


class TestBatchRows:
    def test_gm1_rows_match_row_entry_for_entry(self):
        gm1 = GM1Model()
        n = len(gm1.beta_masses)
        states = [0, 1, 7, n - 2, n - 1, n, n + 1, 10000, 3]
        pos, targets, p = gm1.rows(states)
        expected = [(i, y, q) for i, x in enumerate(states) for y, q in gm1.row(x)]
        assert list(zip(pos.tolist(), targets, p.tolist())) == expected

    def test_toggle_rows_match_row_entry_for_entry(self):
        # rate_rows against rate_row; the embedded chain, through rate_rows
        # and through a loop over rate_row, against each rate divided by the
        # state's rates summed left to right, and 1 / that sum as unit weight
        ts = ToggleSwitchModel(90.0, 1.0)
        states = [(0, 0), (3, 0), (0, 5), (7, 2), (120, 80)]
        exit_rates = []
        for x in states:
            lam = 0.0
            for _, r in ts.rate_row(x):
                lam += r
            exit_rates.append(lam)
        embedded_row = lambda x: [(y, r / exit_rates[states.index(x)]) for y, r in ts.rate_row(x)]
        cases = [(ts.rate_rows, ts.rate_row)]
        cases += [(chain.rows, embedded_row) for chain in (embed(ts), per_state_toggle(ts))]
        for batch, rows in cases:
            pos, targets, p = batch(states)
            got = {}
            for i, y, q in zip(pos.tolist(), targets, p.tolist()):
                got.setdefault(i, []).append((y, q))  # each state's entries in order
            assert got == {i: list(rows(x)) for i, x in enumerate(states)}
        for chain in (embed(ts), per_state_toggle(ts)):
            assert chain.unit_weights(states).tobytes() == (1.0 / np.array(exit_rates)).tobytes()


class TestReferenceProtocol:
    def test_reference_matches_geometric_law(self):
        gm1 = GM1Model()
        ref = reference_distribution(gm1, 10000, 4)
        law = gm1.exact_geometric()
        geo = law.masses(10001)
        gap = float(np.abs(ref - geo).sum() + law.tail(10001))
        assert gap < 1e-13
