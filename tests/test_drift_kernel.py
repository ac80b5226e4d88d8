"""The batched drift kernel against a per-state reference, bit for bit.

The reference below walks each state's row one entry at a time, exactly as
drift checks were written before they were batched; every surplus, return
set, violation list and margin of the library must equal it in every bit.
The censored matrix and the mixture-family diameter are checked the same
way against their straightforward forms.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncbound import TruncationWorkspace, enumerate_space, explicit_k_predicate
from truncbound.censor import RHS_CHUNK, TauFamily
from truncbound.ctmc import JumpModel, embed
from truncbound.errors import CertificateError
from truncbound.lyapunov import (
    _DriftTable,
    _rate_domination_violations,
    construct_K,
    drift_excess,
    moment_bound,
    verify_certificate,
    verify_drift,
)
from truncbound.models import DiscreteModel, GM1Model, ToggleSwitchModel

from conftest import batch_model


def ref_drift_excess(model, g, slack, x, exclude=frozenset()):
    """Per-state drift surplus: one pass over ``row``/``rate_row``."""
    acc = 0.0
    if hasattr(model, "rate_row"):
        lam = 0.0
        for y, rate in model.rate_row(x):
            lam += rate
            if y not in exclude:
                acc += rate * float(g(y))
        if x not in exclude:
            acc -= lam * float(g(x))
        return acc + float(slack(x))
    for y, p in model.row(x):
        if y not in exclude:
            acc += p * float(g(y))
    return acc - float(g(x)) + float(slack(x))


def ref_verify(model, g, slack, K, region, tolerance=0.0):
    """(checked, violations, worst margin) by the per-state loop."""
    k_set = frozenset(K)
    violations, worst, checked = [], -np.inf, 0
    for x in region:
        if x in k_set:
            continue
        checked += 1
        s = ref_drift_excess(model, g, slack, x, k_set)
        if s > tolerance * (1.0 + abs(float(g(x))) + abs(float(slack(x)))):
            violations.append(x)
        else:
            worst = max(worst, s)
    return checked, tuple(sorted(violations)), float(worst)


def ref_construct_K(model, g1, g2, r, n1, n2):
    return tuple(sorted(
        x for x in model.states_within(max(n1, n2))
        if ref_drift_excess(model, g1, r, x) > 0.0
        or ref_drift_excess(model, g2, lambda _: 1.0, x) > 0.0
    ))


def ref_rate_domination(model, cert):
    return [x for x in model.states_within(max(cert.radius_r, cert.radius_e))
            if float(cert.envelope(x)) < sum(r for _, r in model.rate_row(x)) * (1.0 - 1e-12)]


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


# -- random models: repeated targets, exits from the region, signed masses ----

def random_rows(rng, n, jump):
    rows = {}
    for x in range(n + 3):                     # states n.. are only targets
        size = int(rng.integers(0, 6))
        targets = rng.integers(0, n + 3, size).tolist()
        if size:
            targets[-1] = targets[0]            # a repeated target
        w = rng.random(size) * 10.0 ** rng.integers(-3, 4, size)
        if not jump:
            w -= 0.1 * rng.random(size)         # the kernel does not validate masses
        rows[x] = [(int(y), float(v)) for y, v in zip(targets, w) if not (jump and y == x)]
        if jump and not rows[x]:
            rows[x] = [((x + 1) % (n + 3), 1.0)]  # every state of a jump process is left
    return rows


def rank_major_batch(row_of):
    """Batch hook with every row's first entry, then every second, ... (the
    states interleave, as the hook's contract allows)."""
    return batch_model(row_of).rows


class RateOnly:
    def __init__(self, rows, n):
        self.rate_row = lambda x: rows[x]
        self.states_within = lambda rad: range(min(n, int(rad) + 1))


class RateBatch(RateOnly):
    def __init__(self, rows, n):
        super().__init__(rows, n)
        self.rate_rows = rank_major_batch(self.rate_row)


def random_model(rng, n, jump, batch):
    rows = random_rows(rng, n, jump)
    if jump:
        return (RateBatch if batch else RateOnly)(rows, n)
    row = lambda x: rows[x]
    return DiscreteModel(name="random", seed=0, row=row,
                         states_within=lambda rad: range(min(n, int(rad) + 1)),
                         rows=rank_major_batch(row) if batch else None)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
       jump=st.booleans(), batch=st.booleans())
def test_batched_surplus_equals_per_state_reference(seed, n, jump, batch):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, jump, batch)
    gv = rng.standard_normal(n + 3) * 10.0 ** rng.integers(-2, 3, n + 3)
    sv = rng.standard_normal(n + 3)
    g = lambda x: gv[x]
    slack = lambda x: sv[x]
    region = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
    exclude = frozenset(rng.integers(0, n + 3, int(rng.integers(0, 4))).tolist())
    table = _DriftTable(model, region)
    got = table.surplus(g, slack, exclude)
    want = [ref_drift_excess(model, g, slack, x, exclude) for x in region]
    assert bits(got) == bits(want)
    assert bits([drift_excess(model, g, slack, x, exclude) for x in region]) == bits(want)
    # a function is evaluated once per state, not once per entry
    calls = []
    counted = lambda x: calls.append(x) or gv[x]
    table.surplus(counted, slack, exclude)
    assert len(calls) == len(set(calls))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), jump=st.booleans(), batch=st.booleans())
def test_verify_and_construct_equal_reference_on_random_models(seed, jump, batch):
    n = 10
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, jump, batch)
    gv, rv = rng.random(n + 3) * 5.0, rng.random(n + 3)
    g1, g2, r = (lambda x: gv[x] ** 2), (lambda x: gv[x]), (lambda x: rv[x])
    K = tuple(rng.integers(0, n, 3).tolist())
    rep = verify_drift(model, g1, r, K, range(n), tolerance=1e-9)
    checked, violations, worst = ref_verify(model, g1, r, K, range(n), tolerance=1e-9)
    assert (rep.checked, rep.violations) == (checked, violations)
    assert bits(rep.worst_margin) == bits(worst)
    want = ref_construct_K(model, g1, g2, r, 6, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # an empty return set warns
        if len(want) == 7:
            with pytest.raises(CertificateError, match="whole candidate ball"):
                construct_K(model, g1, g2, r, 6, 4)
        else:
            assert construct_K(model, g1, g2, r, 6, 4) == want


# -- the built-in models ------------------------------------------------------

def _certificates(model):
    # gm1's constant envelope has its own return set; toggle's shares the pair's
    ly = model.lyapunov()
    pair_args = (ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
    unit_args = (ly.g2, ly.g2, lambda x: 1.0, ly.n2, ly.n2) \
        if isinstance(model, GM1Model) else pair_args
    return [(model.certificate_for_envelope("r"), pair_args),
            (model.certificate_for_envelope("e"), unit_args)]


@pytest.mark.parametrize("model", [GM1Model(), ToggleSwitchModel(20.0, 1.0),
                                   ToggleSwitchModel(90.0, 1.0)],
                         ids=["gm1", "toggle20", "toggle90"])
def test_certificates_equal_reference(model):
    for cert, pair_args in _certificates(model):
        assert cert.return_set == ref_construct_K(model, *pair_args)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
            verified = verify_certificate(model, cert)
        if cert.single_pair:
            slack = lambda x: max(float(cert.envelope(x)), 1.0)
            pairs = [(cert.g_r, slack, max(cert.radius_r, cert.radius_e))] * 2
        else:
            pairs = [(cert.g_r, cert.envelope, cert.radius_r),
                     (cert.g_e, lambda _: 1.0, cert.radius_e)]
        for rep, (g, slack, radius) in zip(verified.reports, pairs):
            checked, violations, worst = ref_verify(model, g, slack, cert.return_set,
                                                    model.states_within(radius))
            assert (rep.checked, rep.violations) == (checked, violations)
            assert bits(rep.worst_margin) == bits(worst)
        if hasattr(model, "rate_row"):
            ball = _DriftTable(model, model.states_within(max(cert.radius_r, cert.radius_e)))
            assert _rate_domination_violations(ball, cert) == ref_rate_domination(model, cert)


def test_moment_bound_equals_reference():
    gm1 = GM1Model()
    ly = gm1.lyapunov()
    want = max([0.0] + [ref_drift_excess(gm1, ly.g3, ly.w, x) for x in range(301)])
    assert bits(moment_bound(gm1, ly.g3, ly.w, 300)) == bits(want)
    ts = ToggleSwitchModel(90.0, 1.0)
    g3, w, _ = ts.moment_data(alpha=4.0)
    want = max([0.0] + [ref_drift_excess(ts, g3, w, x) for x in ts.states_within(120)])
    assert bits(moment_bound(ts, g3, w, 120)) == bits(want)


def test_row_only_jump_model_uses_the_rate_row_adapter():
    ts = ToggleSwitchModel(20.0, 1.0)
    row_only = JumpModel(name="t", seed=(0, 0), rate_row=ts.rate_row, norm=ts.norm,
                         states_within=ts.states_within, rewards={})
    ly = ts.lyapunov()
    region = list(ts.states_within(30))
    a = _DriftTable(ts, region).surplus(ly.g1, ly.r, frozenset([(4, 4), (5, 4)]))
    b = _DriftTable(row_only, region).surplus(ly.g1, ly.r, frozenset([(4, 4), (5, 4)]))
    assert bits(a) == bits(b)


def test_embedded_chain_surplus_equals_reference():
    chain = embed(ToggleSwitchModel(20.0, 1.0))
    g = lambda s: float(s[0] * s[0] + 3 * s[1])
    slack = lambda s: 0.25 * s[0]
    region = list(chain.states_within(25))
    got = _DriftTable(chain, region).surplus(g, slack, frozenset([(3, 3)]))
    want = [ref_drift_excess(chain, g, slack, x, frozenset([(3, 3)])) for x in region]
    assert bits(got) == bits(want)


def test_toggle_pair_return_set_is_built_once(monkeypatch):
    from truncbound import models, pipeline

    calls = []
    real = models.construct_K
    monkeypatch.setattr(models, "construct_K",
                        lambda *a: calls.append(a[1:]) or real(*a))
    with pytest.warns(UserWarning, match="does not dominate"):
        result = pipeline.run_pipeline(ToggleSwitchModel(20.0, 1.0),
                                       {"kind": "simplex", "level": 80},
                                       envelopes=["r", "e"], with_distribution=False)
    assert len(calls) == 1
    assert result.runs["r"].certificate.return_set == result.runs["e"].certificate.return_set


# -- censored matrix and mixture family --------------------------------------

def all_columns_G(ws):
    """The censored matrix with one solve per K column, zero columns included."""
    part = ws.partition
    P21 = part.P21.toarray()
    X = np.empty_like(P21)
    for lo in range(0, ws.k_size, RHS_CHUNK):
        X[:, lo:lo + RHS_CHUNK] = ws.solver.solve(P21[:, lo:lo + RHS_CHUNK])
    G = part.P11.toarray() + part.P12 @ X
    np.clip(G, 0.0, None, out=G)
    return G


@pytest.mark.parametrize("model, truncation", [
    (GM1Model(), lambda s: 0 <= s <= 2000),
    (ToggleSwitchModel(20.0, 1.0), lambda s: s[0] + s[1] <= 200),
], ids=["gm1-2000", "toggle20"])
def test_censored_matrix_equals_all_columns_solve(model, truncation):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cert = verify_certificate(model, model.certificate_for_envelope("r"))
    chain = embed(model) if hasattr(model, "rate_row") else model
    _, part = enumerate_space(chain, truncation, explicit_k_predicate(cert.return_set))
    ws = TruncationWorkspace(part)
    G = ws.censored().G
    assert np.diff(part.P21.tocsc().indptr).astype(bool).sum() < part.k_size
    assert bits(G) == bits(all_columns_G(ws))


def loop_diameter(rows):
    """Exhaustive pairwise L1 diameter, one row against all per pass."""
    return max(float(np.abs(rows - rows[i]).sum(axis=1).max()) for i in range(len(rows)))


def brute_diameter(rows):
    return max(float(np.abs(a - b).sum()) for a in rows for b in rows)


@pytest.mark.parametrize("k", [1, 8, 13, 150])
def test_l1_diameter_equals_brute_force(k, rng):
    rows = rng.random((k, k)) ** 3
    rows /= rows.sum(axis=1)[:, None]
    fam = TauFamily(rows, 0, 0.5, False)
    d = fam.l1_diameter()
    assert bits(d) == bits(loop_diameter(rows)) == bits(brute_diameter(rows))
    fam.rows = np.zeros_like(rows)                # computed once per family
    assert bits(fam.l1_diameter()) == bits(d)
