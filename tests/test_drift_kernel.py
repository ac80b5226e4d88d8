"""The batched drift kernel against a per-state reference, bit for bit.

The reference below walks each state's row one entry at a time, exactly as
drift checks were written before they were batched; every surplus, return
set, violation list and margin of the library must equal it in every bit.
The censored matrix and the mixture-family diameter are checked the same
way against their straightforward forms.
"""

import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncbound import TruncationWorkspace, enumerate_space, explicit_k_predicate
from truncbound.bounds import delta2_bound
from truncbound.censor import RHS_CHUNK, TauFamily
from truncbound.ctmc import embed
from truncbound.errors import CertificateError, ModelError
from truncbound.lyapunov import (
    DriftCertificate,
    _DriftTable,
    _rate_domination_violations,
    construct_K,
    drift_excess,
    moment_bound,
    unit,
    verify_certificate,
    verify_drift,
)
from truncbound.models import GM1Model, ToggleSwitchModel
from truncbound.statespace import _objects

from conftest import batch_model, row_of, states_of


def ref_drift_excess(model, g, slack, x, exclude=frozenset()):
    """Per-state drift surplus: one pass over the state's row (its rates, for
    a jump process)."""
    acc = 0.0
    if hasattr(model, "rate_rows"):
        lam = 0.0
        for y, rate in row_of(model, x):
            lam += rate
            if y not in exclude:
                acc += rate * float(g(y))
        if x not in exclude:
            acc -= lam * float(g(x))
        return acc + float(slack(x))
    for y, p in row_of(model, x):
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
        x for x in states_of(model.states_within(max(n1, n2)))
        if ref_drift_excess(model, g1, r, x) > 0.0
        or ref_drift_excess(model, g2, lambda _: 1.0, x) > 0.0
    ))


def ref_rate_domination(model, cert):
    return [x for x in states_of(model.states_within(max(cert.radius_r, cert.radius_e)))
            if float(cert.envelope(x)) < sum(r for _, r in row_of(model, x)) * (1.0 - 1e-12)]


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


# -- random models: repeated targets, exits from the region, masses of many sizes

def random_rows(rng, n, jump):
    """Rows of 1 to 5 entries (0 to 5 rates) whose first target repeats; a
    chain's masses are nonnegative and sum to one, and their magnitudes
    spread over six decades as the rates' do."""
    rows = {}
    for x in range(n + 3):                     # states n.. are only targets
        size = int(rng.integers(0 if jump else 1, 6))
        targets = rng.integers(0, n + 3, size).tolist()
        if size:
            targets[-1] = targets[0]            # a repeated target
        w = rng.random(size) * 10.0 ** rng.integers(-3, 4, size)
        if not jump:
            w /= w.sum()
        rows[x] = [(int(y), float(v)) for y, v in zip(targets, w) if not (jump and y == x)]
        if jump and not rows[x]:
            rows[x] = [((x + 1) % (n + 3), 1.0)]  # every state of a jump process is left
    return rows


def random_model(rng, n, jump):
    """A random chain or jump process on 0..n+2 whose batch hook lays its
    rows out rank by rank (states interleave, as the contract allows)."""
    rows = random_rows(rng, n, jump)
    within = lambda rad: range(min(n, int(rad) + 1))
    if jump:                                   # any object with ``rate_rows``
        return SimpleNamespace(rate_rows=batch_model(lambda x: rows[x]).rows,
                               states_within=within)
    return batch_model(lambda x: rows[x], name="random", states_within=within)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), jump=st.booleans())
def test_batched_surplus_equals_per_state_reference(seed, n, jump):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, jump)
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
    assert bits([drift_excess(model, g, slack, x) for x in region]) \
        == bits([ref_drift_excess(model, g, slack, x) for x in region])
    # a function is evaluated once per state, not once per entry
    calls = []
    counted = lambda x: calls.append(x) or gv[x]
    table.surplus(counted, slack, exclude)
    assert len(calls) == len(set(calls))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), jump=st.booleans())
def test_verify_and_construct_equal_reference_on_random_models(seed, jump):
    n = 10
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, jump)
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


# -- drift checks read and check rows as exploration does ----------------------

def reflected_walk(row_7=None):
    """The walk down 0.7 and up 0.3 on 0, 1, ..., reflected at 0, with
    ``row_7`` in place of state 7's row when given."""
    def row(x):
        return row_7 if x == 7 and row_7 else [(max(x - 1, 0), 0.7), (x + 1, 0.3)]

    return batch_model(row, name="walk", states_within=lambda rad: range(int(rad) + 1))


@pytest.mark.parametrize("row_7, message", [
    ([(6, 0.35), (8, 0.15)], r"row of state 7 sums to 0\.5, not 1 within 1e-12$"),
    ([(6, 0.9), (8, 0.3), (7, -0.2)], r"invalid transition probability -0\.2 from state 7$"),
], ids=["row-sum", "negative-mass"])
def test_drift_checks_reject_invalid_rows(row_7, message):
    g = lambda x: 10.0 * x
    cert = DriftCertificate((0,), unit, g, g, 20, 20, False)
    assert verify_certificate(reflected_walk(), cert).verified
    model = reflected_walk(row_7)
    with pytest.raises(ModelError, match=message):
        verify_certificate(model, cert)
    with pytest.raises(ModelError, match=message):
        verify_drift(model, cert.g_r, unit, (0,), [9, 8, 7, 6])
    with pytest.raises(ModelError, match=message):
        enumerate_space(model, lambda s: s <= 30, lambda s: s == 0)


# -- the built-in models ------------------------------------------------------

def _certificates(model):
    # the constant envelope shares the pair's return set (toggle) or has its own (gm1)
    ly = model.drift
    pair_args = (ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
    unit_args = pair_args if ly.shared_return_set \
        else (ly.g2, ly.g2, lambda x: 1.0, ly.n2, ly.n2)
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
        pairs = [(cert.g_r, cert.envelope, cert.radius_r),
                 (cert.g_e, lambda _: 1.0, cert.radius_e)]
        for rep, (g, slack, radius) in zip(verified.reports, pairs):
            checked, violations, worst = ref_verify(model, g, slack, cert.return_set,
                                                    states_of(model.states_within(radius)))
            assert (rep.checked, rep.violations) == (checked, violations)
            assert bits(rep.worst_margin) == bits(worst)
        if hasattr(model, "rate_rows"):
            ball = _DriftTable(model, model.states_within(max(cert.radius_r, cert.radius_e)))
            want = ref_rate_domination(model, cert)
            ids = _rate_domination_violations(ball, ball.src, cert)
            assert _objects(ball.coords[ids]) == want
            with pytest.raises(CertificateError) as err:
                verify_certificate(model, replace(cert, skip_rate_domination=False))
            assert f"exit rate at {len(want)} states, e.g. {want[:5]};" in str(err.value)


def test_moment_bound_equals_reference():
    gm1 = GM1Model()
    g3, w, _ = gm1.moment_data()
    want = max([0.0] + [ref_drift_excess(gm1, g3, w, x) for x in range(301)])
    assert bits(moment_bound(gm1, g3, w, 300)) == bits(want)
    ts = ToggleSwitchModel(90.0, 1.0)
    g3, w, _ = ts.moment_data()
    want = max([0.0] + [ref_drift_excess(ts, g3, w, x) for x in states_of(ts.states_within(120))])
    assert bits(moment_bound(ts, g3, w, 120)) == bits(want)


def test_embedded_chain_surplus_equals_reference():
    chain = embed(ToggleSwitchModel(20.0, 1.0))
    g = lambda s: float(s[0] * s[0] + 3 * s[1])
    slack = lambda s: 0.25 * s[0]
    region = states_of(chain.states_within(25))
    got = _DriftTable(chain, region).surplus(g, slack, frozenset([(3, 3)]))
    want = [ref_drift_excess(chain, g, slack, x, frozenset([(3, 3)])) for x in region]
    assert bits(got) == bits(want)


@pytest.mark.parametrize("region", [[(0, 0), (2, 1), (1, 3)], []], ids=["states", "empty"])
def test_find_gives_ids_and_minus_one_for_absent_states(region):
    table = _DriftTable(embed(ToggleSwitchModel(20.0, 1.0)),
                        np.array(region, dtype=np.int64).reshape(-1, 2))
    held = states_of(table.coords)
    probes = [*reversed(held), (500, 0), (-1, 7), (0, 2**20)]
    assert table.find(probes).tolist() == [*reversed(range(len(held))), -1, -1, -1]


@pytest.mark.parametrize("make, truncation, builds", [
    (GM1Model, {"kind": "range", "max": 500}, 2),
    (lambda: ToggleSwitchModel(20.0, 1.0), {"kind": "simplex", "level": 80}, 1),
], ids=["gm1", "toggle20"])
def test_each_designed_return_set_is_built_once(monkeypatch, make, truncation, builds):
    from truncbound import models, pipeline

    calls = []
    real = models.construct_K
    monkeypatch.setattr(models, "construct_K",
                        lambda *a: calls.append(a[1:]) or real(*a))
    model = make()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
        result = pipeline.run_pipeline(model, truncation, envelopes=["r", "e"])
    for env in ("r", "e"):
        assert model.certificate_for_envelope(env).return_set \
            == result.certificates[env].return_set
    assert len(calls) == builds
    shared = result.certificates["r"].return_set == result.certificates["e"].return_set
    assert shared == model.drift.shared_return_set


# -- censored matrix and mixture family --------------------------------------

def all_columns_G(ws):
    """The censored matrix with one solve per K column, zero columns included."""
    part = ws.partition
    P21 = part.P21.toarray()
    X = np.empty_like(P21)
    for lo in range(0, part.k_size, RHS_CHUNK):
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
    chain = embed(model) if hasattr(model, "rate_rows") else model
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


def diameter_families(k, rng):
    """Random rows, rows a few ulps apart (spread about 1e-17) and rows with
    duplicates, each normalized to sum one."""
    rows = rng.random((k, k)) ** 3
    near = 1.0 + rng.integers(0, 4, (k, k)) * np.finfo(float).eps
    dup = rows[rng.integers(0, max(k // 3, 1), k)]
    for fam in (rows, near, dup):
        yield fam / fam.sum(axis=1)[:, None]


@pytest.mark.parametrize("k", [1, 2, 3, 8, 13, 150, 456])
def test_l1_diameter_equals_brute_force(k, rng):
    floor = 8.0 * np.finfo(float).eps
    for rows in diameter_families(k, rng):
        want = loop_diameter(rows)
        if k <= 150:
            assert bits(brute_diameter(rows)) == bits(want)
        for clamped in (False, True):
            fam = TauFamily(rows, 0.5, clamped)
            d = fam.l1_diameter()
            assert bits(d) == bits(max(want, floor) if clamped else want)
            fam.rows = np.zeros_like(rows)        # computed once per family
            assert bits(fam.l1_diameter()) == bits(d)


def test_delta2_bound_on_clamped_families(rng):
    floor = 8.0 * np.finfo(float).eps
    k = 40
    below = 1.0 + rng.integers(0, 2, (k, k)) * np.finfo(float).eps
    below /= below.sum(axis=1)[:, None]
    assert 0.0 < loop_diameter(below) < floor
    assert delta2_bound(TauFamily(below, 0.0, True)) == floor
    assert delta2_bound(TauFamily(below, 1e-17, False)) == loop_diameter(below)
    above = rng.random((k, k))
    above /= above.sum(axis=1)[:, None]
    assert bits(delta2_bound(TauFamily(above, 0.0, True))) == bits(brute_diameter(above))


def test_l1_diameter_of_non_finite_rows_is_nan():
    rows = np.full((4, 4), 0.25)
    rows[2, 1] = np.nan
    for clamped in (False, True):
        fam = TauFamily(rows, 0.0, clamped)
        assert np.isnan(fam.l1_diameter())
        assert np.isnan(delta2_bound(fam))
