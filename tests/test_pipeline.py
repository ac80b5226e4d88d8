import csv
import dataclasses
import json
import threading
import time
import warnings
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from truncbound import censor, cli, lyapunov, pipeline
from truncbound.bounds import timed
from truncbound.errors import CertificateError, ModelError
from truncbound.lyapunov import DriftData
from truncbound.models import DiscreteModel, GM1Model, ToggleSwitchModel
from truncbound.pipeline import run_pipeline

from immigration_death import immigration_death

MODELS = [GM1Model, lambda: ToggleSwitchModel(20.0, 1.0), lambda: ToggleSwitchModel(90.0, 1.0)]
MODEL_IDS = ["gm1", "toggle20", "toggle90"]


def without_timings(report) -> dict:
    doc = report.to_dict()
    doc.pop("timings")
    return doc


@pytest.mark.parametrize("spec", [{"kind": "range"}, {"kind": "simplex", "max": 5}])
def test_truncation_without_its_size_names_the_key(spec):
    size = pipeline.SIZE_KEYS[spec["kind"]]
    with pytest.raises(ModelError, match=f"needs '{size}'"):
        pipeline.truncation_predicate(GM1Model(), spec)


@pytest.mark.parametrize("size", [400.5, "10", True, None])
def test_library_truncation_sizes_follow_the_config_rule(size):
    # a result must not be labelled with a size it did not run
    with pytest.raises(ModelError, match="must be integers"):
        pipeline.truncation_predicate(GM1Model(), {"kind": "range", "max": size})


def test_integer_valued_float_size_is_its_int():
    assert pipeline.truncation_predicate(GM1Model(), {"kind": "range", "max": 400.0}).radius == 400


@pytest.mark.parametrize("make, spec, fits", [
    (GM1Model, {"kind": "simplex", "level": 50}, False),
    (lambda: ToggleSwitchModel(20.0, 1.0), {"kind": "range", "max": 50}, False),
    (lambda: immigration_death(5.0, d=3), {"kind": "range", "max": 40}, False),
    (lambda: immigration_death(5.0, d=3), {"kind": "simplex", "level": 40}, True),
], ids=["gm1-simplex", "toggle-range", "imdeath3-range", "imdeath3-simplex"])
def test_truncation_kind_must_fit_the_state_width(make, spec, fits):
    if not fits:
        with pytest.raises(ModelError, match=f"a {spec['kind']} truncation takes states of"):
            pipeline.truncation_predicate(make(), spec)
        return
    pred = pipeline.truncation_predicate(make(), spec)    # the coordinate sum, of any width
    assert pred.radius == 40
    assert [pred((13, 13, 14)), pred((13, 13, 15))] == [True, False]
    assert pred(np.array([[13, 13], [13, 13], [14, 15]])).tolist() == [True, False]


def test_no_envelopes_raises_before_any_work(monkeypatch):
    def explore(*args):
        raise AssertionError("explored without envelopes")

    monkeypatch.setattr(pipeline, "explore", explore)
    with pytest.raises(ModelError, match="no envelopes"):
        run_pipeline(GM1Model(), {"kind": "range", "max": 300}, envelopes=[])


def test_no_truncations_raises_before_any_work(monkeypatch):
    def verified_certificates(*args):
        raise AssertionError("verified certificates without truncations")

    monkeypatch.setattr(pipeline, "verified_certificates", verified_certificates)
    with pytest.raises(ModelError, match="no truncations"):
        next(pipeline.run_sweep(GM1Model(), [], envelopes=["r"], explicit_return_set=None,
                                with_distribution=False))


def test_return_set_state_outside_the_block_is_found_before_the_lu(monkeypatch):
    # from the seed 0 only even states are reached, so the return set's
    # state 1 is not in A: the certificate check fails before any factorization
    def rows(states):
        x = states[:, 0]
        even, odd = np.flatnonzero(x % 2 == 0), np.flatnonzero(x % 2)
        return (np.concatenate([even, even, odd]),
                np.concatenate([x[even] + 2, np.maximum(x[even] - 2, 0), x[odd] - 1])[:, None],
                np.concatenate([np.full(len(even), 0.3), np.full(len(even), 0.7),
                                np.ones(len(odd))]))

    g = lambda x: 2.0 * x
    model = DiscreteModel(name="evens", seed=0, rows=rows,
                          states_within=lambda radius: np.arange(int(radius) + 1),
                          drift=DriftData(g, g, lambda x: x, 4, 4, False, True))
    solvers = []
    solver = censor.SubstochasticSolver

    def counted(*args):
        solvers.append(args)
        return solver(*args)

    monkeypatch.setattr(censor, "SubstochasticSolver", counted)
    with pytest.raises(CertificateError, match="its state 1 is not in A's return-set block"):
        run_pipeline(model, {"kind": "range", "max": 50}, envelopes=["e"],
                     explicit_return_set=[0, 1])
    assert solvers == []


class TestSharedEnumeration:
    @pytest.mark.parametrize("envelopes", [["r", "e"], ["e", "r"]], ids=["r-first", "e-first"])
    def test_envelopes_share_one_enumeration_and_match_single_runs(self, envelopes,
                                                                   monkeypatch):
        calls = []
        explore = pipeline.explore

        def counted(*args, **kwargs):
            calls.append(args)
            return explore(*args, **kwargs)

        gm1 = GM1Model()
        truncation = {"kind": "range", "max": 2000}
        monkeypatch.setattr(pipeline, "explore", counted)
        both = run_pipeline(gm1, truncation, envelopes=envelopes)
        assert len(calls) == 1
        # r and e have different return sets (|K| = 202 and 5)
        first, second = envelopes
        assert set(both.timings) == {
            "certificates", "explore", "cut", f"factorize[{first}]", f"certificate[{first}]",
            f"repartition[{second}]", f"factorize[{second}]", f"certificate[{second}]",
            f"bounds[{second}]", "wait", "distribution", "total"}
        for env in envelopes:
            single = run_pipeline(gm1, truncation, envelopes=[env])
            assert without_timings(both.reports[env]) == without_timings(single.reports[env])
            if env == envelopes[0]:   # the distribution is the first envelope's
                (space, mass), (single_space, single_mass) = both.distribution, single.distribution
                assert mass.tobytes() == single_mass.tobytes()
                assert space.coords.tobytes() == single_space.coords.tobytes()


def test_partition_stage_times_certificate_evaluation(monkeypatch):
    # the factorization and the certificate evaluation are timed apart
    def slow(fn, pause):
        def slowed(*args, **kwargs):
            time.sleep(pause)
            return fn(*args, **kwargs)
        return slowed

    monkeypatch.setattr(pipeline, "evaluate_certificate",
                        slow(pipeline.evaluate_certificate, 0.2))
    monkeypatch.setattr(pipeline, "TruncationWorkspace", slow(pipeline.TruncationWorkspace, 0.5))
    timings = run_pipeline(GM1Model(), {"kind": "range", "max": 400}, envelopes=["r"]).timings
    assert 0.2 <= timings["certificate[r]"] < 0.5 <= timings["factorize[r]"]


GM1_2000 = {"kind": "range", "max": 2000}


@pytest.mark.parametrize("make, truncation", [
    (GM1Model, GM1_2000),
    (lambda: ToggleSwitchModel(20.0, 1.0), {"kind": "simplex", "level": 100}),
], ids=["gm1", "toggle20"])
def test_stages_add_up_to_the_total(make, truncation):
    # every stage but total is a disjoint stage of the main thread, the
    # inline bounds and the wait for the worker included
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
        timings = dict(run_pipeline(make(), truncation, envelopes=["r", "e"]).timings)
    total = timings.pop("total")
    assert sum(timings.values()) == pytest.approx(total, rel=0.1)
    assert sum(timings.values()) <= total


def test_timer_adds_up_repeated_blocks():
    timings = {}
    for _ in range(2):
        with timed(timings, "stage"):
            time.sleep(0.05)
    assert 0.1 <= timings["stage"] < 0.5
    with pytest.raises(MainFailure), timed(timings, "failed"):
        raise MainFailure
    assert set(timings) == {"stage"}


class WorkerFailure(Exception):
    pass


class MainFailure(Exception):
    pass


class TestOverlap:
    def test_next_partition_is_built_while_bounds_run(self, monkeypatch):
        # r's bounds wait until the main thread repartitions for e: a serial
        # pipeline would time out here
        repartitioned = threading.Event()
        compute_bounds, repartition = pipeline.compute_bounds, pipeline.repartition
        on_main = {}

        def waiting(ws, inputs, **kwargs):
            on_main[inputs.envelope_id] = threading.current_thread() is threading.main_thread()
            if inputs.envelope_id == "r":
                assert repartitioned.wait(timeout=60)
            return compute_bounds(ws, inputs, **kwargs)

        def signalling(*args):
            out = repartition(*args)
            repartitioned.set()
            return out

        monkeypatch.setattr(pipeline, "compute_bounds", waiting)
        monkeypatch.setattr(pipeline, "repartition", signalling)
        result = run_pipeline(GM1Model(), GM1_2000, envelopes=["r", "e"])
        assert list(result.reports) == ["r", "e"]
        # the last return set's bounds have nothing to overlap with
        assert on_main == {"r": False, "e": True}

    def test_one_return_set_starts_no_thread(self, monkeypatch):
        threads = threading.active_count()
        seen = []
        compute_bounds = pipeline.compute_bounds

        def counting(*args, **kwargs):
            seen.append(threading.active_count())
            return compute_bounds(*args, **kwargs)

        monkeypatch.setattr(pipeline, "compute_bounds", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
            run_pipeline(ToggleSwitchModel(20.0, 1.0), {"kind": "simplex", "level": 40},
                         envelopes=["r", "e"])
        assert seen == [threads, threads]

    @pytest.mark.parametrize("bounds_fail", [True, False])
    def test_errors_surface_in_serial_order(self, bounds_fail, monkeypatch):
        # serially, r's bounds come before e's partition: their error wins
        compute_bounds = pipeline.compute_bounds

        def failing(ws, inputs, **kwargs):
            if bounds_fail and inputs.envelope_id == "r":
                raise WorkerFailure("r")
            return compute_bounds(ws, inputs, **kwargs)

        def broken(*args):
            raise MainFailure("e")

        monkeypatch.setattr(pipeline, "compute_bounds", failing)
        monkeypatch.setattr(pipeline, "repartition", broken)
        with pytest.raises(WorkerFailure if bounds_fail else MainFailure):
            run_pipeline(GM1Model(), GM1_2000, envelopes=["r", "e"])

    @pytest.mark.parametrize("envelopes", [["r", "e"], ["e", "r"]], ids=["r-first", "e-first"])
    def test_repeated_runs_give_identical_reports(self, envelopes):
        runs = [run_pipeline(GM1Model(), GM1_2000, envelopes=envelopes) for _ in range(2)]
        for env in envelopes:
            assert without_timings(runs[0].reports[env]) == without_timings(runs[1].reports[env])
        assert runs[0].distribution[1].tobytes() == runs[1].distribution[1].tobytes()


def tables_built(monkeypatch) -> list:
    """Weak references to every drift table built from now on."""
    built = []
    init = lyapunov._DriftTable.__init__

    def recorded(self, *args):
        built.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(lyapunov._DriftTable, "__init__", recorded)
    return built


def certify(model, envelopes, staged: bool):
    """Each envelope's (return set, reports repr) and the warning texts, from
    one certificate stage or from a fresh drift table per check."""
    def fresh(check, *args):
        lyapunov.release_drift_table(model)
        return check(*args)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if staged:
            certs = pipeline.verified_certificates(model, envelopes, None)
        else:
            certs = {env: fresh(lyapunov.verify_certificate, model,
                                fresh(model.certificate_for_envelope, env))
                     for env in envelopes}
    return ({env: (c.return_set, repr(c.reports)) for env, c in certs.items()},
            [str(w.message) for w in caught])


class TestSharedDriftTable:
    @pytest.mark.parametrize("make", MODELS, ids=MODEL_IDS)
    def test_one_table_per_certificate_stage_released_on_return(self, make, monkeypatch):
        built = tables_built(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
            pipeline.verified_certificates(make(), ["r", "e"], None)
        assert len(built) == 1
        assert all(ref() is None for ref in built)

    @pytest.mark.parametrize("env", ["r", "e"])
    @pytest.mark.parametrize("make", MODELS[:2], ids=MODEL_IDS[:2])
    def test_library_checks_share_the_models_table(self, make, env, monkeypatch):
        # the return set's construction and its verification read one table
        built = tables_built(monkeypatch)
        model = make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
            lyapunov.verify_certificate(model, model.certificate_for_envelope(env))
        assert len(built) == 1
        lyapunov.release_drift_table(model)
        assert all(ref() is None for ref in built)

    @pytest.mark.parametrize("make", MODELS[:2], ids=MODEL_IDS[:2])
    def test_threads_share_the_models_table_and_its_bits(self, make):
        def reports(model, env):
            cert = lyapunov.verify_certificate(model, model.certificate_for_envelope(env))
            return cert.return_set, repr(cert.reports)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
            alone = [reports(make(), env) for env in ("r", "e")]
            model = make()
            with ThreadPoolExecutor(max_workers=2) as pool:
                shared = list(pool.map(lambda env: reports(model, env), ["r", "e"] * 2))
        assert shared == alone * 2

    @pytest.mark.parametrize("envelopes", [["r", "e"], ["e", "r"]])
    @pytest.mark.parametrize("make", MODELS, ids=MODEL_IDS)
    def test_shared_table_checks_what_private_tables_check(self, make, envelopes):
        # separate models, so the unshared run constructs its own return sets;
        # gm1 with "e" first grows the stage's table from the n2 to the n1 ball
        assert certify(make(), envelopes, staged=True) \
            == certify(make(), envelopes, staged=False)


TOGGLE_LEVELS = [{"kind": "simplex", "level": level} for level in (40, 60)]


def sweep_config(tmp_path, model, truncation, rewards) -> str:
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "model": model, "truncation": truncation,
        "bounds": {"rewards": rewards},
        "output": {"dir": str(tmp_path / "out"), "csv": "sweep.csv"},
    }))
    return str(path)


class TestSweep:
    def test_gm1_sweep_matches_runs_level_by_level(self, tmp_path):
        gm1 = GM1Model()
        levels = [{"kind": "range", "max": top} for top in (250, 400)]
        singles = [run_pipeline(gm1, t, envelopes=["r", "e"]) for t in levels]
        swept = pipeline.run_sweep(gm1, levels, envelopes=["r", "e"],
                                   explicit_return_set=None, with_distribution=False)
        for single, result in zip(singles, swept, strict=True):
            assert [len(cert.return_set) for cert in single.certificates.values()] == [202, 5]
            for env in ("r", "e"):
                assert without_timings(result.reports[env]) == without_timings(single.reports[env])
        config = sweep_config(tmp_path, {"name": "gm1", "params": {"mu": 1.0, "b": 2.01}},
                              {"kind": "range", "schedule": [250, 400]}, ["r", "e"])
        assert cli.main(["sweep", config]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for single, row in zip(singles, rows, strict=True):
            for env in ("r", "e"):
                rep = single.reports[env]
                for key in ("lower", "upper", "approx", "tv_bound"):
                    assert float(row[f"{env}_{key}"]) == getattr(rep, key)

    def test_sweep_certifies_and_explores_once(self, tmp_path, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)

        counting("verify_certificate", pipeline.verify_certificate)
        counting("explore", pipeline.explore)
        counting("cut", pipeline.cut)
        config = sweep_config(tmp_path, {"name": "toggle", "params": {"lam": 20.0, "mu": 1.0}},
                              {"kind": "simplex", "schedule": [40, 50, 60]}, ["r"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["sweep", config]) == 0
        assert calls == {"verify_certificate": 1, "explore": 1, "cut": 3}
        assert ["exit rate" in str(w.message) for w in caught] == [True]
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            assert [row["truncation"] for row in csv.DictReader(fh)] == ["40", "50", "60"]

    def test_first_result_carries_the_shared_stages(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
            results = list(pipeline.run_sweep(
                ToggleSwitchModel(20.0, 1.0), TOGGLE_LEVELS, envelopes=["r", "e"],
                explicit_return_set=None, with_distribution=False))
        level_stages = {"cut", "factorize[r,e]", "certificate[r,e]", "bounds[r,e]", "wait",
                        "total"}
        assert [set(r.timings) for r in results] == [
            level_stages | {"certificates", "explore"}, level_stages]
        first = results[0].timings
        assert first["total"] >= first["certificates"] + first["explore"] + first["cut"]

    def test_each_certificate_function_is_called_once_per_state(self, monkeypatch):
        seen = Counter()
        wrapped = {}

        def counting(fn):
            if fn not in wrapped:
                def counted(x):
                    seen[counted, x] += 1
                    return fn(x)
                wrapped[fn] = counted
            return wrapped[fn]

        verified = pipeline.verified_certificates
        certs = {}

        def counting_certificates(*args):
            for env, cert in verified(*args).items():
                certs[env] = dataclasses.replace(cert, envelope=counting(cert.envelope),
                                                 g_r=counting(cert.g_r), g_e=counting(cert.g_e))
            return dict(certs)

        levels = TOGGLE_LEVELS[::-1]              # the largest first
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # toggle: rate domination
            reference = run_pipeline(ToggleSwitchModel(20.0, 1.0), levels[1],
                                     envelopes=["r", "e"])
            monkeypatch.setattr(pipeline, "verified_certificates", counting_certificates)
            results = list(pipeline.run_sweep(
                ToggleSwitchModel(20.0, 1.0), levels, envelopes=["r", "e"],
                explicit_return_set=None, with_distribution=False))
        assert max(seen.values()) == 1
        # the envelope of r is read on A of the largest level (simplex 60), nowhere else
        on_envelope = {x for fn, x in seen if fn is certs["r"].envelope}
        assert len(on_envelope) == 61 * 62 // 2
        for env in ("r", "e"):
            assert without_timings(results[1].reports[env]) \
                == without_timings(reference.reports[env])
