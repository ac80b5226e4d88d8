import numpy as np
import pytest

from truncbound import TruncationWorkspace, enumerate_space
from truncbound.bounds import compute_bounds, reward_interval
from truncbound.ctmc import JumpModel, embed, exit_rate
from truncbound.errors import ModelError
from truncbound.lyapunov import (
    DriftCertificate,
    evaluate_certificate,
    verify_certificate,
    verify_drift,
)
from truncbound.models import ToggleSwitchModel

from conftest import (
    batch_model,
    random_rate_matrix,
    row_of,
    stationary_power,
    stationary_reconstruction,
)


def jump_from_matrix(Q: np.ndarray, name="ctmc-host"):
    n = Q.shape[0]
    return JumpModel(
        name=name,
        seed=0,
        rate_rows=batch_model(lambda x: [(j, float(Q[x, j])) for j in range(n)
                                         if j != x and Q[x, j] != 0.0]).rows,
        states_within=lambda rad: range(min(n, int(rad) + 1)),
        drift=None,
    )


class ToggleWithRate(ToggleSwitchModel):
    """toggle(20, 1) with one extra rate ``rate`` from (3, 3) to (2, 4)."""

    def __init__(self, rate):
        super().__init__(20.0, 1.0)
        self.extra = rate

    def rate_rows(self, states):
        pos, targets, rates = super().rate_rows(states)
        at = [i for i, s in enumerate(states) if tuple(s) == (3, 3)]
        extra = np.array([(2, 4)] * len(at), dtype=np.int64).reshape(-1, 2)
        return (np.append(pos, at).astype(np.intp), np.concatenate([targets, extra]),
                np.append(rates, [self.extra] * len(at)))


def stationary_rate_oracle(Q: np.ndarray) -> np.ndarray:
    """Direct dense solve of nu Q = 0 with unit mass."""
    n = Q.shape[0]
    A = Q.T.copy()
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    nu = np.linalg.solve(A, b)
    return nu / nu.sum()


class TestEmbedding:
    def test_two_state_arithmetic(self):
        Q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        jm = jump_from_matrix(Q)
        chain = embed(jm)
        assert row_of(chain, 0) == [(1, 1.0)]
        assert row_of(chain, 1) == [(0, 1.0)]
        assert exit_rate(jm, 0) == 1.0 and exit_rate(jm, 1) == 2.0

    def test_birth_death_recovers_rate_stationary(self, rng):
        rates_up = rng.random(4) + 0.5
        rates_dn = rng.random(4) + 0.5
        Q = np.zeros((5, 5))
        for i in range(4):
            Q[i, i + 1] = rates_up[i]
            Q[i + 1, i] = rates_dn[i]
        np.fill_diagonal(Q, -Q.sum(axis=1))
        jm = jump_from_matrix(Q)
        chain = embed(jm)
        _, part = enumerate_space(chain, lambda s: True, lambda s: s == 0)
        ws = TruncationWorkspace(part)
        pi_embedded = np.zeros(5)
        # full-space censored stationary extends to the whole chain law
        dist = ws.approx_distribution(np.ones(1))
        nu = stationary_rate_oracle(Q)
        assert np.abs(dist - nu).max() < 1e-10

    def test_toggle_origin_row_is_symmetric(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        chain = embed(ts)
        row = dict(row_of(chain, (0, 0)))
        assert row[(1, 0)] == pytest.approx(0.5)
        assert row[(0, 1)] == pytest.approx(0.5)

    def test_absorbing_state_rejected(self):
        Q = np.zeros((2, 2))
        Q[0, 1] = 1.0
        Q[0, 0] = -1.0
        jm = jump_from_matrix(Q)
        chain = embed(jm)
        with pytest.raises(ModelError, match="absorbing state 1: zero exit rate"):
            row_of(chain, 1)
        with pytest.raises(ModelError, match="absorbing state 1: zero exit rate"):
            enumerate_space(chain, lambda s: True, lambda s: s == 0)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("form", ["rank-major", "batch"])
    def test_invalid_rate_rejected(self, form, bad):
        m = toggle = ToggleWithRate(bad)
        if form == "rank-major":      # the same rates, every state's first, then second, ...
            m = JumpModel(name="bad-rank-major", seed=m.seed,
                          rate_rows=batch_model(lambda x: row_of(toggle, x)).rows,
                          states_within=m.states_within, drift=None)
        with pytest.raises(ModelError, match=r"state \(3, 3\)"):
            enumerate_space(embed(m), lambda s: s[0] + s[1] <= 30, lambda s: s == (0, 0))
        with pytest.raises(ModelError, match=r"state \(3, 3\)"):
            exit_rate(m, (3, 3))
        with pytest.raises(ModelError, match=r"state \(3, 3\)"):   # drift checks read them too
            verify_drift(m, toggle.drift.g2, lambda s: 1.0, (), m.states_within(10))

    def test_unit_weights_are_holding_times(self):
        Q = np.array([[-1.0, 1.0], [2.0, -2.0]])
        chain = embed(jump_from_matrix(Q))
        w = chain.rows([0, 1])[3]
        assert np.abs(w - [1.0, 0.5]).max() < 1e-15


class TestUnitWeightsFromExploration:
    def test_each_state_reads_its_rates_once_and_weighs_one_over_its_exit_rate(self):
        # the embedded chain's rows carry 1 / lambda, so the exploration
        # needs no second pass over the rate rows
        seen = []

        class Counted(ToggleSwitchModel):
            def rate_rows(self, states):
                seen.extend(map(tuple, np.asarray(states).tolist()))
                return super().rate_rows(states)

        ts = Counted(20.0, 1.0)
        _, part = enumerate_space(embed(ts), lambda s: s[0] + s[1] <= 40, lambda s: s == (0, 0))
        assert sorted(seen) == sorted(part.space.states)
        lam = []
        for x in part.space.states:
            total = 0.0
            for _, r in ts.rate_row(x):
                total += r
            lam.append(total)
        assert part.unit.tobytes() == (1.0 / np.array(lam)).tobytes()


class TestRewardTransform:
    """The transform w -> w / lambda is the partition's unit weights: a
    workspace multiplies every reward over A by the partition's ``unit``."""

    def test_exit_rate_transforms_to_one(self):
        Q = np.array([[-3.0, 3.0], [0.5, -0.5]])
        jm = jump_from_matrix(Q)
        _, part = enumerate_space(embed(jm), lambda s: True, lambda s: s == 0)
        rate = np.array([exit_rate(jm, x) for x in part.space.states])
        assert rate * part.unit == pytest.approx(np.ones(2))

    def test_zero_stays_zero(self):
        Q = np.array([[-3.0, 3.0], [0.5, -0.5]])
        _, part = enumerate_space(embed(jump_from_matrix(Q)), lambda s: True,
                                  lambda s: s == 0)
        ws = TruncationWorkspace(part)
        assert not ws.kappa_lower(np.zeros(2) * ws.partition.unit).any()

    def test_toggle_balance_point_value(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        # at (4,4): total count 8, exit rate 2*20/5 + 8 = 16
        assert exit_rate(ts, (4, 4)) == pytest.approx(16.0)
        assert 8.0 * embed(ts).rows([(4, 4)])[3][0] == pytest.approx(0.5)


class TestCtmcDrift:
    def test_toggle20_envelope_drift_holds_beyond_design_radius(self):
        ts = ToggleSwitchModel(20.0, 1.0)
        ly = ts.drift
        region = [s for s in ts.states_within(75) if 60 <= s[0] + s[1]]
        rep = verify_drift(ts, ly.g1, ly.r, (), region)
        assert rep.verified

    def test_toggle90_unit_drift_holds_beyond_design_radius(self):
        ts = ToggleSwitchModel(90.0, 1.0)
        ly = ts.drift
        region = [s for s in ts.states_within(240) if 217 <= s[0] + s[1]]
        rep = verify_drift(ts, ly.g2, lambda s: 1.0, (), region)
        assert rep.verified

    def test_generator_and_embedded_forms_agree(self, rng):
        Q = random_rate_matrix(rng, 7)
        jm = jump_from_matrix(Q)
        g = lambda x: float(x * x + 1)
        slack = lambda x: float(x)
        # the generator inequality sum_{y notin K} Q(x,y) g(y) <= -slack(x)
        # and the embedded one sum_{y notin K} R(x,y) g(y) <= g(x) -
        # slack(x)/lambda(x) are equivalent: both flag the same states
        slack_embedded = lambda x: slack(x) / exit_rate(jm, x)
        rep_q = verify_drift(jm, g, slack, (0,), range(7))
        rep_r = verify_drift(embed(jm), g, slack_embedded, (0,), range(7))
        assert rep_q.violations == rep_r.violations

    def test_exact_solution_zero_slack(self):
        # hand 3-state chain; g solving the generator equation exactly
        Q = np.array([
            [-2.0, 1.5, 0.5],
            [1.0, -1.5, 0.5],
            [2.0, 1.0, -3.0],
        ])
        jm = jump_from_matrix(Q)
        r = np.array([1.0, 2.0, 1.5])
        # continuation on {1, 2}: sum_{y in Kc} Q(x,y) g(y) = -r(x)
        B = Q[1:, 1:]
        g_tail = np.linalg.solve(-B, r[1:])
        g = lambda x: 0.0 if x == 0 else float(g_tail[x - 1])
        rep = verify_drift(jm, g, lambda x: float(r[x]), (0,), range(3))
        assert rep.verified
        assert abs(rep.worst_margin) < 1e-12


class TestCtmcBounds:
    def _setup(self, rng, n=6, a=None):
        Q = random_rate_matrix(rng, n)
        jm = jump_from_matrix(Q)
        chain = embed(jm)
        a = n if a is None else a
        k = 2
        # exact certificate for the embedded chain with envelope r
        lam = np.array([exit_rate(jm, x) for x in range(n)])
        R = Q / lam[:, None]
        np.fill_diagonal(R, 0.0)
        r = np.arange(float(n)) + lam  # dominates exit rates
        rt = r / lam
        Kc = list(range(k, n))
        Bm = R[np.ix_(Kc, Kc)]
        eta_r = np.linalg.solve(np.eye(n - k) - Bm, rt[Kc])
        eta_e = np.linalg.solve(np.eye(n - k) - Bm, (1.0 / lam)[Kc])
        g1 = lambda x: 0.0 if x < k else float(eta_r[x - k])
        g2 = lambda x: 0.0 if x < k else float(eta_e[x - k])
        cert = DriftCertificate(tuple(range(k)), lambda x: float(r[x]),
                                g1, g2, n, n, False)
        cert = verify_certificate(jm, cert, tolerance=1e-9)
        _, part = enumerate_space(chain, lambda s: s < a, lambda s: s < k)
        ws = TruncationWorkspace(part)
        inputs = evaluate_certificate(cert, part, envelope_id="r")
        return Q, jm, ws, inputs, r

    def test_full_space_interval_degenerates_to_rate_stationary(self, rng):
        Q, jm, ws, inputs, r = self._setup(rng)
        nu = stationary_rate_oracle(Q)
        f = np.arange(float(Q.shape[0]))
        lo, hi = reward_interval(ws, inputs, f)
        truth = float(nu @ f)
        assert hi - lo < 1e-8
        assert lo - 1e-9 <= truth <= hi + 1e-9

    def test_exit_rate_reward_brackets_oracle(self, rng):
        Q, jm, ws, inputs, r = self._setup(rng)
        nu = stationary_rate_oracle(Q)
        lam = np.array([exit_rate(jm, x) for x in range(Q.shape[0])])
        lo, hi = reward_interval(ws, inputs, lam)
        truth = float(nu @ lam)
        assert lo - 1e-9 <= truth <= hi + 1e-9

    def test_zero_reward_brackets_zero(self, rng):
        Q, jm, ws, inputs, r = self._setup(rng)
        lo, hi = reward_interval(ws, inputs, np.zeros(Q.shape[0]))
        assert lo <= 0.0 <= hi

    def test_report_for_envelope(self, rng):
        Q, jm, ws, inputs, r = self._setup(rng, a=5)
        rep = compute_bounds(ws, inputs)
        nu = stationary_rate_oracle(Q)
        truth = float(nu @ r)
        assert rep.lower <= truth <= rep.upper

    def test_reconstruction_identity(self, rng):
        Q = random_rate_matrix(rng, 8)
        lam = -np.diag(Q)
        R = Q / lam[:, None]
        np.fill_diagonal(R, 0.0)
        pi = stationary_power(R)
        nu = stationary_reconstruction(pi, lam)
        assert np.abs(nu - stationary_rate_oracle(Q)).max() < 1e-10
