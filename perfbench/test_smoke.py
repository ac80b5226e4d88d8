"""Smoke test of the benchmark: every workload once at reduced size.

    python3 -m pytest -q perfbench/test_smoke.py

It checks that each run prints every metric BENCHMARK.json names, with its
unit, that the output checks ran on every operation, and that the checks
catch answers that contradict the seed's.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# printed for people on every untraced run, whether or not the JSON carries them
HUMAN_METRICS = ("op_s", "setup_s", "peak_rss_mb", "fail_frac", "truth_miss", "approx_outside")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        for name in HUMAN_METRICS:
            assert any(line.startswith(name + " ") for line in lines), name
    with open(os.path.join(ROOT, ".perfbench_out",
                           f"{workload}-seed7-trace{trace}.json")) as fh:
        record = json.load(fh)
    assert all("approx_outside" in op for op in record["records"])  # checks ran
    if workload == "gm1-ref":
        assert all(op["truth_claims"] == 5 for op in record["records"])


SEED_REPORT = {"lower": 1.0, "upper": 1.5, "approx": 1.25, "tv_bound": 0.1}


def test_checks_accept_a_wider_sound_answer():
    wider = {"lower": 0.9, "upper": 1.6, "approx": 1.3, "tv_bound": 0.2}
    assert checks.check_reports({"reports": {"r": wider}},
                                {"reports": {"r": SEED_REPORT}}) == ([], [])


@pytest.mark.parametrize("bad, kind", [
    ({"lower": 1.6, "upper": 1.7, "approx": 1.65, "tv_bound": 0.5}, "overlap"),
    ({"lower": 1.0, "upper": 1.5, "approx": 1.45, "tv_bound": 0.05}, "moved"),
    ({"lower": 1.0, "upper": float("nan"), "approx": 1.25, "tv_bound": 0.1}, "non-finite"),
])
def test_checks_reject_answers_that_contradict_the_seed(bad, kind):
    problems, _ = checks.check_reports({"reports": {"r": bad}}, {"reports": {"r": SEED_REPORT}})
    assert len(problems) == 1 and kind in problems[0]


def test_approx_outside_its_interval_is_counted_not_failed():
    off = dict(SEED_REPORT, approx=1.5 + 1e-9, tv_bound=0.2)
    problems, outside = checks.check_reports({"reports": {"r": off}},
                                             {"reports": {"r": SEED_REPORT}})
    assert problems == [] and len(outside) == 1


def test_marginal_bounds_must_bracket_one():
    intervals = [(0.1, 0.2)] * 4  # two species, level 1: each sums to [0.2, 0.4]
    problems, _ = checks.check_marginals({"intervals": intervals},
                                         {"indicators": intervals}, [0.15] * 4, level=1)
    assert len(problems) == 2 and all("misses 1" in p for p in problems)
