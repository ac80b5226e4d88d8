"""Acceptance gate: the full contract checks at their stated tolerances.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``); a
criterion fails loudly through its assertions otherwise.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from truncbound import TruncationWorkspace, cli, enumerate_space, explicit_k_predicate
from truncbound.bounds import compute_bounds, reward_interval
from truncbound.ctmc import embed
from truncbound.lyapunov import (
    construct_K,
    evaluate_certificate,
    moment_bound,
    verify_certificate,
)
from truncbound.models import GM1Model, ToggleSwitchModel
from truncbound.pipeline import run_pipeline

from conftest import (
    censored_matrix_oracle,
    exact_certificate,
    exit_oracle,
    host_model,
    measured_weighted_tv,
    random_rate_matrix,
    random_stochastic,
    stationary_power,
    stationary_reconstruction,
    tau_family_direct,
)
from gm1_reference import reference_distribution
from perron_reference import perron_normalized


ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_REFERENCE = ROOT / "perfbench" / "reference.json"
CONFIGS = ROOT / "configs"


def _line(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def _fields(reports: dict) -> dict:
    """envelope id -> BoundReport, in the form the benchmark records."""
    return {env: {key: getattr(rep, key) for key in ("lower", "upper", "approx", "tv_bound")}
            for env, rep in reports.items()}


def _recorded(workload: str, got: dict) -> bool:
    """Whether ``got`` is the benchmark's recorded full-size answer for
    ``workload`` bit for bit: ``{"reports": ...}`` for a run, ``{"rows":
    ...}`` for the sweep, ``{"indicators": ...}`` for the marginals.  Floats
    are compared by their shortest repr, which round-trips every bit; BLAS
    runs on one thread in both (see conftest)."""
    want = json.loads(BENCHMARK_REFERENCE.read_text())["full"][workload]
    return json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.fixture(scope="module")
def gm1_runs():
    gm1 = GM1Model()
    pair = run_pipeline(gm1, {"kind": "range", "max": 10000}, envelopes=("r",))
    unit = run_pipeline(gm1, {"kind": "range", "max": 10000}, envelopes=("e",))
    return gm1, pair, unit


def test_criterion_1_lyapunov_constants():
    t0 = time.perf_counter()
    checks = {}

    gm1 = GM1Model()
    ly = gm1.lyapunov()
    checks["gm1 n1"] = ly.n1 == 202
    checks["gm1 n2"] = ly.n2 == 66
    checks["gm1 n3"] = ly.n3 == 1803
    K = construct_K(gm1, ly.g1, ly.g2, ly.r, ly.n1, ly.n2)
    checks["gm1 k*"] = max(K) == 201 and K == tuple(range(202))
    c_gm1 = moment_bound(gm1, ly.g3, ly.w, ly.n3)
    checks["gm1 moment"] = 0 < c_gm1 <= 8.3e7

    ts20 = ToggleSwitchModel(20.0, 1.0)
    ly20 = ts20.lyapunov()
    checks["ts20 n1"] = ly20.n1 == 60
    checks["ts20 n2"] = ly20.n2 == 57

    ts90 = ToggleSwitchModel(90.0, 1.0)
    ly90 = ts90.lyapunov()
    checks["ts90 n1"] = ly90.n1 == 220
    checks["ts90 n2"] = ly90.n2 == 217
    g3, w, n3 = ts90.moment_data()
    checks["ts90 n3"] = n3 == 293
    c_ts = moment_bound(ts90, g3, w, n3)
    # the exact constant is 16403.48...; published to three significant
    # figures as 16.4e3, so the gate is the printed precision
    checks["ts90 moment"] = 0 < c_ts <= 16.45e3 and round(c_ts / 1e3, 1) == 16.4

    elapsed = time.perf_counter() - t0
    checks["runtime < 10 s"] = elapsed < 10.0
    assert _line(1, "drift-certificate constants", all(checks.values())), checks


def test_criterion_2_gm1_certified_accuracy(gm1_runs):
    gm1, pair, unit = gm1_runs
    checks = {}

    rep_r = pair.reports["r"]
    checks["|K| = 202"] = len(pair.certificates["r"][0].return_set) == 202
    checks["envelope-weighted tv <= 1e-6"] = rep_r.tv_bound <= 1e-6

    rep_e = unit.reports["e"]
    checks["unit K = {0..4}"] = unit.certificates["e"][0].return_set == (0, 1, 2, 3, 4)
    checks["plain tv <= 1e-12"] = rep_e.tv_bound <= 1e-12
    # the upper cycle-length estimate hugs the lower one at this truncation
    # (cycle lengths are >= 1, so absolute overflow bounds the relative gap)
    checks["cycle-length gap <= 1e-6"] = float(np.max(rep_e.beta2)) <= 1e-6

    # measured distance of the reference realization from the analytic law
    ref = reference_distribution(gm1, 10000, 4)
    law = gm1.exact_geometric()
    geo = law.masses(10001)
    measured = float(np.abs(ref - geo).sum() + law.tail(10001))
    checks["measured <= computed bound"] = measured <= rep_e.tv_bound
    checks["r, e as benchmark recorded"] = \
        _recorded("gm1-ref", {"reports": _fields({"r": rep_r, "e": rep_e})})

    assert _line(2, "queue certified accuracy", all(checks.values())), checks


@pytest.mark.xfail(strict=True, reason="rounding is not yet enclosed: the certified r "
                   "interval lies 1.3e-9 below the exact mean")
def test_gm1_exact_mean_is_certified(gm1_runs):
    gm1, pair, _ = gm1_runs
    rep = pair.reports["r"]
    exact = float(gm1.exact_geometric().mean())     # 133.16712406432046
    assert rep.lower <= exact <= rep.upper
    assert abs(rep.approx - exact) <= rep.tv_bound


def test_criterion_3_toggle_certified_accuracy():
    checks = {}
    t0 = time.perf_counter()

    with pytest.warns(UserWarning, match="exit rate"):
        r20 = run_pipeline(ToggleSwitchModel(20.0, 1.0),
                           {"kind": "simplex", "level": 200},
                           envelopes=("r", "e"))
    checks["ts20 plain tv < 1e-12"] = r20.reports["e"].tv_bound < 1e-12
    checks["ts20 weighted tv < 1e-10"] = r20.reports["r"].tv_bound < 1e-10
    rep = r20.reports["r"]
    checks["ts20 interval width/mid <= 1e-9"] = \
        (rep.upper - rep.lower) <= 1e-9 * rep.approx

    with pytest.warns(UserWarning, match="exit rate"):
        r90 = run_pipeline(ToggleSwitchModel(90.0, 1.0),
                           {"kind": "simplex", "level": 200},
                           envelopes=("r", "e"))
    checks["ts90 plain tv < 1e-11"] = r90.reports["e"].tv_bound < 1e-11
    checks["ts90 weighted tv < 1e-9"] = r90.reports["r"].tv_bound < 1e-9
    checks["ts90 r, e as benchmark recorded"] = \
        _recorded("toggle90", {"reports": _fields({env: r90.reports[env] for env in ("r", "e")})})

    checks["runtime < 30 min"] = time.perf_counter() - t0 < 1800
    assert _line(3, "toggle-switch certified accuracy", all(checks.values())), checks


def test_toggle20_sweep_and_marginals_as_benchmark_recorded(tmp_path):
    """The two toggle20 workloads the benchmark checks, with its inputs: the
    sweep's rows through the CLI, and the 2 x 201 marginal indicators'
    intervals on one workspace for the ``e`` envelope at level 200."""
    config = CONFIGS / "toggle20.json"
    with pytest.warns(UserWarning, match="exit rate"):
        assert cli.main(["sweep", str(config), "--output-dir", str(tmp_path)]) == 0
    with open(tmp_path / json.loads(config.read_text())["output"]["csv"], newline="") as fh:
        rows = [{"truncation": int(row["truncation"]),
                 **{env: {key: float(row[f"{env}_{key}"])
                          for key in ("lower", "upper", "approx", "tv_bound")}
                    for env in ("r", "e")}}
                for row in csv.DictReader(fh)]
    assert [row["truncation"] for row in rows] == [50, 100, 150, 200]
    assert _recorded("toggle20-sweep", {"rows": rows})

    ts = ToggleSwitchModel(20.0, 1.0)
    with pytest.warns(UserWarning, match="exit rate"):
        cert = verify_certificate(ts, ts.certificate_for_envelope("e"))
    _, part = enumerate_space(embed(ts), lambda s: s[0] + s[1] <= 200,
                              explicit_k_predicate(cert.return_set))
    ws = TruncationWorkspace(part)
    inputs = evaluate_certificate(cert, part, envelope_id="e")
    counts = np.array(part.space.states)
    intervals = [list(reward_interval(ws, inputs, (counts[:, species] == j).astype(float)))
                 for species in (0, 1) for j in range(201)]
    assert _recorded("toggle20-marginals", {"indicators": intervals})


def test_criterion_4_oracle_equivalence_suite():
    seeds = range(200)
    fails = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 31))
        k = int(rng.integers(1, 5))
        P = random_stochastic(rng, n, zeros=float(rng.uniform(0.2, 0.7)))
        model = host_model(P)
        r = np.arange(float(n))
        pi = stationary_power(P)
        pir = float(pi @ r)

        # full-space workspace -------------------------------------------------
        _, part = enumerate_space(model, lambda s: True, lambda s, k=k: s < k)
        ws = TruncationWorkspace(part)
        cert = exact_certificate(P, k, r, model)
        inputs = evaluate_certificate(cert, part, envelope_id="r")

        # (a) censored matrix equals the dense Schur complement
        if np.abs(ws.censored().G - censored_matrix_oracle(P, k)).max() > 1e-12:
            fails.append((seed, "a"))
        # (b) both stochasticization routes reproduce the expectation
        ca = ws.censored()
        _, pi2 = ca.row_normalized
        _, pi1 = perron_normalized(ca.G)     # the paper's eigenvector route
        if abs(ws.approx_distribution(pi2) @ r - pir) > 1e-10 or \
           abs(ws.approx_distribution(pi1) @ r - pir) > 1e-10:
            fails.append((seed, "b"))
        # (c) full-space intervals contain the truth (degenerate; fp slack)
        rep_full = compute_bounds(ws, inputs)
        tol_c = 1e-10 * (1.0 + abs(pir))
        if not (rep_full.lower - tol_c <= pir <= rep_full.upper + tol_c):
            fails.append((seed, "c-full"))
        # (d) full-space TV bound dominates the (noise-level) measured TV
        dist = ws.approx_distribution(pi2)
        if measured_weighted_tv(dist, pi, r) > rep_full.tv_bound + 1e-11:
            fails.append((seed, "d-full"))

        # strict truncation: the smallest A whose censored matrix is still
        # irreducible (the bound construction assumes exactly that)
        from truncbound.errors import IrreducibilityError

        for a in range(int(rng.integers(k + 2, n)), n):
            _, part_t = enumerate_space(model, lambda s, a=a: s < a,
                                        lambda s, k=k: s < k)
            ws_t = TruncationWorkspace(part_t)
            try:
                if ws_t.censored().row_mass.min() <= 0.0:
                    continue
                ws_t.censored().tau
            except IrreducibilityError:
                continue
            break
        inputs_t = evaluate_certificate(cert, part_t, envelope_id="r")
        rep_t = compute_bounds(ws_t, inputs_t)
        if not (rep_t.lower <= pir <= rep_t.upper):
            fails.append((seed, "c-strict"))
        dist_t = np.zeros(n)
        dist_t[:a] = ws_t.approx_distribution(ws_t.censored().row_normalized[1])
        if measured_weighted_tv(dist_t, pi, r) > rep_t.tv_bound:
            fails.append((seed, "d-strict"))

        # (e) with K = {0} the induced law is the occupation before exit
        _, part_z = enumerate_space(model, lambda s, a=a: s < a, lambda s: s == 0)
        ws_z = TruncationWorkspace(part_z)
        exit_law = exit_oracle(P[:a, :a])[list(part_z.space.states)]
        gap = np.abs(ws_z.approx_distribution(np.ones(1)) - exit_law).max()
        if gap > 1e-11:
            fails.append((seed, "e"))

        # (f) jump-process law reconstructed through the embedded chain
        Q = random_rate_matrix(rng, n)
        lam = -np.diag(Q).copy()
        R = Q / lam[:, None]
        np.fill_diagonal(R, 0.0)
        nu_direct = np.linalg.solve(
            np.vstack([Q.T[:-1], np.ones(n)]),
            np.concatenate([np.zeros(n - 1), [1.0]]),
        )
        nu_embedded = stationary_reconstruction(stationary_power(R), lam)
        if np.abs(nu_embedded - nu_direct).max() > 1e-10:
            fails.append((seed, "f"))

    assert _line(4, "oracle equivalence, 200 seeds", not fails), fails[:10]


def test_criterion_5_convergence_suite():
    rng = np.random.default_rng(30303)
    n, k = 30, 3
    P = random_stochastic(rng, n, zeros=0.5)
    model = host_model(P)
    r = np.arange(float(n))
    cert = exact_certificate(P, k, r, model)
    lowers, uppers, widths = [], [], []
    for a in range(k + 2, n + 1):
        _, part = enumerate_space(model, lambda s, a=a: s < a, lambda s: s < k)
        ws = TruncationWorkspace(part)
        rep = compute_bounds(ws, evaluate_certificate(cert, part, envelope_id="r"))
        lowers.append(rep.lower)
        uppers.append(rep.upper)
        widths.append(rep.upper - rep.lower)
    checks = {
        "lower bounds nondecreasing": all(
            b >= a - 1e-12 for a, b in zip(lowers, lowers[1:])
        ),
        "upper bounds nonincreasing": all(
            b <= a + 1e-12 for a, b in zip(uppers, uppers[1:])
        ),
        "widths shrink": all(b <= a + 1e-12 for a, b in zip(widths, widths[1:])),
        "width at full space <= 1e-9": widths[-1] <= 1e-9,
    }
    assert _line(5, "nested-truncation convergence", all(checks.values())), checks


def test_criterion_6_stability_suite(gm1_runs):
    checks = {}

    # deleted-state reformulation matches the direct inverse when I - G is
    # comfortably nonsingular
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed + 77)
        m = int(rng.integers(3, 12))
        G = rng.random((m, m)) * 0.3
        G *= rng.uniform(0.4, 0.9) / G.sum(axis=1).max()
        from truncbound.censor import CensoredApprox

        tau = CensoredApprox(G=G, row_mass=G.sum(axis=1)).tau
        worst = max(worst, float(np.abs(tau.rows - tau_family_direct(G)).max()))
    checks["stable path matches direct (well-conditioned)"] = worst <= 1e-8

    # queue at the reference truncation: the censored rows are within 1e-9 of
    # stochastic, the direct system is numerically singular, yet the
    # deleted-state path passes its denominator guard
    gm1, pair, _ = gm1_runs
    _, part = enumerate_space(
        gm1, lambda s: s <= 10000,
        lambda s: s in set(pair.certificates["r"][0].return_set),
    )
    ws = TruncationWorkspace(part)
    ca = ws.censored()
    checks["rows nearly stochastic"] = ca.row_mass.min() > 1.0 - 1e-9
    tau = ca.tau
    checks["denominator guard passes"] = np.isfinite(tau.rows).all()
    checks["rows are distributions"] = (
        np.abs(tau.rows.sum(axis=1) - 1.0).max() < 1e-12
        and tau.rows.min() >= 0.0
    )
    assert _line(6, "deleted-state stability", all(checks.values())), checks
