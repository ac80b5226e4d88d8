import json
import os
import subprocess
import sys
import textwrap

import io
import warnings

import pytest

import truncbound
from truncbound import cli
from truncbound.cli import main


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": {"name": "gm1", "params": {"mu": 1.0, "b": 2.01}},
        "truncation": {"kind": "range", "max": 400, "schedule": [250, 400]},
        "return_set": {"mode": "lyapunov"},
        "bounds": {"rewards": ["e"]},
        "output": {"dir": str(tmp_path / "out"), "report": "report.json",
                   "csv": "sweep.csv"},
    }
    for key, val in overrides.items():
        if val is None:
            cfg.pop(key, None)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestRun:
    def test_writes_report(self, tmp_path, capsys):
        path, cfg = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        rep = doc["reports"]["e"]
        assert rep["lower"] <= 1.0 <= rep["upper"]
        assert rep["certified"] is True
        assert doc["return_sets"]["e"]["k_size"] == 5
        assert len(doc["distribution"]["states"]) == 401
        assert abs(sum(doc["distribution"]["probability"]) - 1.0) < 1e-12

    def test_deterministic_reports_modulo_timings(self, tmp_path):
        path, cfg = write_config(tmp_path)
        main(["run", str(path)])
        doc1 = json.loads((tmp_path / "out" / "report.json").read_text())
        main(["run", str(path)])
        doc2 = json.loads((tmp_path / "out" / "report.json").read_text())

        def strip(d):
            d.pop("timings", None)
            for rep in d.get("reports", {}).values():
                rep.pop("timings", None)
            return d

        assert strip(doc1) == strip(doc2)

    @pytest.mark.parametrize("command, overrides", [
        pytest.param("run", {"model": {}, "truncation": None, "return_set": None,
                             "bounds": None, "output": None}, id="no-model-name"),
        pytest.param("run", {"truncation": {"kind": "range", "max": "ten"}},
                     id="max-not-integer"),
        pytest.param("run", {"truncation": {"kind": "range", "max": 400.5}},
                     id="max-fraction"),
        pytest.param("run", {"model": {"name": "toggle", "params": {"lam": 20.0, "mu": 1.0}},
                             "truncation": {"kind": "simplex", "level": "ten"}},
                     id="level-not-integer"),
        pytest.param("sweep", {"truncation": {"kind": "range", "schedule": [250, "x"]}},
                     id="schedule-entry-not-integer"),
        pytest.param("run", {"model": {"name": "gm1", "params": {"bb": 2.0}}},
                     id="unknown-param"),
        pytest.param("verify", {"model": {"name": "toggle", "params": {"lam": "20", "mu": 1.0}}},
                     id="param-not-number"),
        pytest.param("run", {"bounds": {"rewards": "re"}}, id="rewards-not-list"),
        pytest.param("run", {"bounds": "r"}, id="bounds-not-object"),
        pytest.param("run", {"bounds": {"rewards": ["e"], "stochasticization": "perron"}},
                     id="stale-bounds-key"),
        pytest.param("sweep", {"bounds": {"rewards": ["e"], "stochasticization": "row"}},
                     id="stale-bounds-key-sweep"),
        pytest.param("sweep", {"return_set": "lyapunov"}, id="return-set-not-object"),
        pytest.param("run", {"return_set": {"mode": "explicit", "states": 5}},
                     id="return-set-states-not-list"),
        pytest.param("run", {"return_set": {"mode": "explicit", "states": [{}]}},
                     id="return-set-state-object"),
        pytest.param("run", {"return_set": {"mode": "explicit", "states": [[0, [1]]]}},
                     id="return-set-state-nested"),
        pytest.param("run", {"return_set": {"mode": "explicit", "states": [[0], [1, 2]]}},
                     id="return-set-states-ragged"),
        pytest.param("run", {"output": {"report": 5}}, id="output-report-not-string"),
        pytest.param("run", {"output": {"dir": 5}}, id="output-dir-not-string"),
        pytest.param("sweep", {"output": {"csv": 5}}, id="output-csv-not-string"),
        pytest.param("sweep", {"truncation": {"kind": "range", "schedule": [400, 300]}},
                     id="schedule-decreasing"),
    ])
    def test_malformed_config_exits_1_without_outputs(self, tmp_path, capsys,
                                                      command, overrides):
        path, _ = write_config(tmp_path, **overrides)
        assert main([command, str(path)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unparseable_json_exits_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["run", str(path)]) == 1

    def test_unknown_model_exits_1(self, tmp_path):
        path, _ = write_config(tmp_path, model={"name": "mystery", "params": {}})
        assert main(["run", str(path)]) == 1

    def test_bad_return_set_exits_2(self, tmp_path):
        # the quadratic drift fails at the origin when it is left outside K
        path, _ = write_config(
            tmp_path,
            return_set={"mode": "explicit", "states": [5]},
            bounds={"rewards": ["r"]},
        )
        assert main(["run", str(path)]) == 2

    def test_return_set_state_outside_a_exits_2_naming_it(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path, truncation={"kind": "range", "max": 500},
            return_set={"mode": "explicit", "states": [0, 1, 2, 3, 4, 900]})
        assert main(["run", str(path)]) == 2
        assert "state 900" in capsys.readouterr().err

    def test_return_set_is_stored_sorted_without_repeats(self, tmp_path):
        # the designed unit return set {0..4}, given unsorted and with repeats,
        # is the same certificate as the designed one
        docs = []
        for return_set in ({"mode": "lyapunov"},
                           {"mode": "explicit", "states": [4, 0, 3, 1, 2, 0, 4]}):
            path, _ = write_config(tmp_path, return_set=return_set)
            assert main(["run", str(path)]) == 0
            docs.append(json.loads((tmp_path / "out" / "report.json").read_text()))
        designed, explicit = ({k: doc[k] for k in ("reports", "return_sets")} for doc in docs)
        for doc in (designed, explicit):
            doc["reports"]["e"].pop("timings")
        assert explicit == designed
        assert explicit["return_sets"]["e"]["k_size"] == 5


# a tiny toggle run, whose fields the type test below replaces one at a time
TINY = {"model": {"name": "toggle", "params": {"lam": 20.0, "mu": 1.0}},
        "truncation": {"kind": "simplex", "level": 30},
        "return_set": {"mode": "lyapunov"}, "bounds": {"rewards": ["r"]},
        "output": {"dir": "out", "report": "report.json", "csv": "sweep.csv"}}
SHAPES = {"object": {}, "list-of-object": [{}], "ragged": [[0], [1, 2]], "string": "x",
          "null": None, "bool": True, "float": 0.5}
ALL, SIZED = ("run", "verify", "sweep"), ("run", "sweep")
# each field of docs/config.schema.json -> the commands that read it (verify reads
# no truncation size; run reads the size, not the schedule)
FIELDS = {"model": ALL, "model.name": ALL, "model.params": ALL, "truncation": SIZED,
          "truncation.kind": SIZED, "truncation.max": SIZED, "truncation.level": SIZED,
          "truncation.schedule": ("sweep",), "return_set": ALL, "return_set.mode": ALL,
          "return_set.states": ALL, "bounds": ALL, "bounds.rewards": ALL, "output": ALL,
          "output.dir": ALL, "output.report": ALL, "output.csv": ALL}
# the section a field is read in, where it is not TINY's
SECTION = {"truncation.max": {"kind": "range"}, "return_set.states": {"mode": "explicit"}}
# the shapes the schema allows: sections whose keys all have defaults, and file names
ACCEPTED = {("return_set", "object"), ("bounds", "object"), ("output", "object"),
            ("output.dir", "string"), ("output.report", "string"), ("output.csv", "string")}


@pytest.mark.parametrize("command, field, shape", [
    pytest.param(command, field, shape, id=f"{command}-{field}-{shape}")
    for field, commands in FIELDS.items() for shape in SHAPES for command in commands])
def test_config_field_of_any_shape_exits_cleanly(tmp_path, monkeypatch, capsys,
                                                 command, field, shape):
    """A field of the wrong type ends in a config error that writes nothing,
    never in a traceback; a shape the schema allows runs."""
    monkeypatch.chdir(tmp_path)         # an output section of {} writes to "."
    section, _, key = field.partition(".")
    cfg = json.loads(json.dumps(TINY))
    cfg[section] = {**SECTION.get(field, cfg[section]), key: SHAPES[shape]} if key \
        else SHAPES[shape]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # rate domination
        rc = main([command, "cfg.json"])
    if (field, shape) in ACCEPTED:
        assert rc == 0
    else:
        assert rc == 1
        assert "config error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]


def report_doc(result) -> dict:
    """A ``cmd_run``-shaped report doc, distribution as the writer takes it."""
    return {"model": result.model_name, "truncation": result.truncation,
            "reports": {env: rep.to_dict() for env, rep in result.reports.items()},
            "distribution": result.distribution, "timings": result.timings}


def json_form(doc) -> dict:
    space, mass = doc["distribution"]
    return {**doc, "distribution": {
        "states": [list(s) if isinstance(s, tuple) else s for s in space.states],
        "probability": mass.tolist()}}


class TestReportWriter:
    @pytest.mark.parametrize("case", ["gm1", "toggle"])
    def test_bytes_equal_indented_json_dump(self, case):
        from truncbound.models import GM1Model, ToggleSwitchModel
        from truncbound.pipeline import run_pipeline

        if case == "gm1":
            doc = report_doc(run_pipeline(GM1Model(), {"kind": "range", "max": 300},
                                          envelopes=["r", "e"]))
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # rate domination
                doc = report_doc(run_pipeline(ToggleSwitchModel(20.0, 1.0),
                                              {"kind": "simplex", "level": 40},
                                              envelopes=["r"]))
        written = io.StringIO()
        cli._dump_report(doc, written)
        expected = io.StringIO()
        json.dump(json_form(doc), expected, indent=1)
        assert written.getvalue() == expected.getvalue()

    def test_run_writes_the_indented_dump_of_its_own_report(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        text = (tmp_path / "out" / "report.json").read_text()
        assert text == json.dumps(json.loads(text), indent=1)


class TestVerify:
    def test_prints_radii_and_return_set(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, bounds={"rewards": ["r", "e"]})
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n1 = 202" in out
        assert "n2 = 66" in out
        assert "n3 = 1803" in out
        assert "k* = 201" in out
        assert "k* = 4" in out

    def test_creates_no_output_directory(self, tmp_path, capsys):
        # verify writes nothing, so neither the configured directory nor an
        # --output-dir override is created
        path, _ = write_config(tmp_path)
        override = tmp_path / "override"
        assert main(["verify", str(path), "--output-dir", str(override)]) == 0
        assert main(["verify", str(path)]) == 0
        assert not override.exists()
        assert not (tmp_path / "out").exists()

    def test_toggle_verify(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            model={"name": "toggle", "params": {"lam": 90.0, "mu": 1.0}},
            truncation={"kind": "simplex", "level": 60},
        )
        with pytest.warns(UserWarning, match="exit rate"):
            assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n1 = 220" in out
        assert "n2 = 217" in out


class TestThreads:
    def test_thread_cap_is_in_the_environment_when_numpy_loads(self, tmp_path):
        # a fresh interpreter, so numpy is not loaded yet; a meta-path hook
        # records the thread variables at the moment numpy is first imported
        path, _ = write_config(tmp_path)
        script = textwrap.dedent("""
            import json, os, sys
            NAMES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            seen = {}

            class Watch:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.update({v: os.environ.get(v) for v in NAMES})
                    return None

            sys.meta_path.insert(0, Watch())
            from truncbound.cli import main
            rc = main(["--threads", "3", "verify", sys.argv[1]])
            print(json.dumps({"rc": rc, "seen": seen}))
        """)
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(truncbound.__file__))
        done = subprocess.run([sys.executable, "-c", script, str(path)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout.strip().splitlines()[-1])
        assert out["rc"] == 0
        assert out["seen"] == {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": "3",
                               "MKL_NUM_THREADS": "3"}

    def test_package_attributes_load_on_first_access(self):
        script = textwrap.dedent("""
            import sys
            import truncbound.cli
            assert "numpy" not in sys.modules
            import truncbound
            assert truncbound.models.GM1Model is truncbound.GM1Model
            assert hasattr(truncbound, "bounds") and not hasattr(truncbound, "nosuch")
            assert "models" in dir(truncbound) and "enumerate_space" in dir(truncbound)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(truncbound.__file__))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr


class TestSweep:
    def test_schedule_produces_rows_and_monotone_bounds(self, tmp_path):
        path, _ = write_config(tmp_path,
                               truncation={"kind": "range",
                                           "schedule": [250, 350, 450]})
        assert main(["sweep", str(path)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        header = lines[0].split(",")
        tv_idx = header.index("e_tv_bound")
        bounds = [float(row.split(",")[tv_idx]) for row in lines[1:]]
        assert bounds[0] + 1e-12 >= bounds[1] >= bounds[2] - 1e-12

    def test_single_point_schedule(self, tmp_path):
        path, _ = write_config(tmp_path,
                               truncation={"kind": "range", "schedule": [300]})
        assert main(["sweep", str(path)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_empty_schedule_exits_1(self, tmp_path):
        path, _ = write_config(tmp_path,
                               truncation={"kind": "range", "schedule": []})
        assert main(["sweep", str(path)]) == 1
