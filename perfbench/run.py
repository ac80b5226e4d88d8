"""Benchmark of truncbound's certified analyses, run from the repository root.

    python3 perfbench/run.py --workload gm1-ref --seed 1 --seconds 20 --trace 0

Workloads: gm1-ref, toggle90, toggle20-sweep, toggle20-marginals (see
perfbench/README.md for why each is there).  A run sets the workload up,
then repeats operations until ``--seconds`` have passed (at least one) and
checks the output of every operation.  Times are corrected for the host's
speed while they were taken (see speed.py).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs untraced operations for the
first half of the time and traced ones for the second, and reports the
per-layer metrics.  ``--smoke`` shrinks every truncation for a quick test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same figures for people, and the full record (every sample, the
problem sizes, the environment and, when traced, every span) goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings

from speed import REFERENCE_PROBE_S, Speedometer

# BLAS threads are pinned before numpy loads, so runs do not depend on how
# many cores the machine happens to have free.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

NAMES = ("gm1-ref", "toggle90", "toggle20-sweep", "toggle20-marginals")
SETUP_PROBES = 4          # set-ups in fresh processes, besides the run's own
SETUP_PROBE_TIMEOUT = 120
PERCENTILES = (50, 90, 99, 99.9)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process, print the seconds and exit")
    return ap.parse_args(argv)


def _setup(args, speed):
    """Import the library and build the workload; returns (workload, seconds
    at reference speed)."""
    speed.probe()
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(args.workload, "smoke" if args.smoke else "full", args.seed)
    t1 = time.perf_counter()
    speed.probe()
    return wl, speed.corrected(t0, t1)


def _setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=SETUP_PROBE_TIMEOUT, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def _run_ops(wl, reference, budget, records, speed, tracer=None):
    """Repeat operations until ``budget`` seconds have passed (at least one)."""
    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < budget:
        first = False
        op_id = len(records)
        rec = {"op": op_id, "traced": tracer is not None, "problems": []}
        speed.probe()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc, output = wl.operation()
            else:
                with tracer.operation(op_id):
                    rc, output = wl.operation()
        except Exception:  # one failed operation must not end the run
            rc, output = None, None
            rec["problems"].append(traceback.format_exc(limit=4))
        t1 = time.perf_counter()
        speed.probe()
        rec["wall_s"] = t1 - t0
        rec["seconds"] = speed.corrected(t0, t1)
        if rc is not None and rc != 0:
            rec["problems"].append(f"exit code {rc}")
        if output is not None:
            problems, outside = wl.check(output, reference)
            rec["problems"] += problems
            rec["approx_outside"], rec["outside_found"] = len(outside), outside
            truth = wl.truth_misses(output)
            if truth is not None:
                rec["truth_miss"], rec["truth_claims"], rec["truth_found"] = truth
        elif not rec["problems"]:
            rec["problems"].append("no output")
        records.append(rec)


def _describe(values) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            out["percentile"] = p
            out["value_at_percentile"] = values[math.ceil(n * p / 100) - 1]
    return out


def _environment() -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    # the toggle certificates warn on every run by design (expert flag)
    warnings.filterwarnings("ignore", message="envelope does not dominate the exit rate",
                            category=UserWarning)
    speed = Speedometer()
    with speed:
        wl, setup_here = _setup(args, speed)
    if args.setup_only:
        print(repr(setup_here))
        return 0

    import tracing
    import workloads

    setup_samples = [setup_here] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
    reference = wl.load_reference()
    wl.prepare_checks()

    records = []
    tracer = None
    with speed:
        if args.trace:
            _run_ops(wl, reference, args.seconds / 2, records, speed)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _run_ops(wl, reference, args.seconds / 2, records, speed, tracer)
            finally:
                tracer.uninstall()
        else:
            _run_ops(wl, reference, args.seconds, records, speed)

    failed = sum(1 for r in records if r["problems"])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "size": "smoke" if args.smoke else "full",
        "trace": args.trace,
        "environment": _environment(),
        "op_s": _describe([r["seconds"] for r in records]),
        "op_wall_s": _describe([r["wall_s"] for r in records]),
        "host_slowdown": statistics.fmean(dt for _, dt in speed.samples) / REFERENCE_PROBE_S,
        "setup_s": statistics.median(setup_samples),
        "setup_samples": setup_samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "truth_miss": _median_of(records, "truth_miss"),
        "approx_outside": _median_of(records, "approx_outside"),
        "records": records,
    }
    print(f"perfbench {args.workload} seed={args.seed} size={summary['size']} "
          f"trace={args.trace}")
    print("environment " + json.dumps(summary["environment"], sort_keys=True))
    print("op_s " + json.dumps(summary["op_s"]) + " s")
    print("op_wall_s " + json.dumps(summary["op_wall_s"]) + " s")
    print(f"host_slowdown {summary['host_slowdown']:.3f} (mean probe time / reference)")
    print(f"setup_s {summary['setup_s']:.4f} s (median of {setup_samples})")
    print(f"peak_rss_mb {summary['peak_rss_mb']:.1f} MB")
    print(f"fail_frac {summary['fail_frac']:g} fraction ({failed} of {len(records)} operations)")
    for key, what in (("truth_miss", "truth_found"), ("approx_outside", "outside_found")):
        found = next((r[what] for r in records if r.get(key)), [])
        value = "n/a" if summary[key] is None else f"{summary[key]:g}"
        print(f"{key} {value} count per operation " + "; ".join(found[:4]))
    for r in records:
        for problem in r["problems"]:
            print(f"op {r['op']} FAILED: {problem}")

    if args.trace:
        traced = [r for r in records if r["traced"]]
        layer = tracing.median_metrics([tracer.op_layer_metrics(r["op"]) for r in traced])
        layer["bounds.truth_miss"] = _median_of(traced, "truth_miss") or 0
        layer["bounds.approx_outside"] = _median_of(traced, "approx_outside") or 0
        layer["trace.overhead_s"] = (statistics.median(r["seconds"] for r in traced)
                                     - statistics.median(r["seconds"] for r in records
                                                         if not r["traced"]))
        # one more set-up, traced, shows which layers the set-up time goes to
        tracer.install()
        try:
            with tracer.operation("setup"):
                workloads.make(args.workload, summary["size"], args.seed)
        finally:
            tracer.uninstall()
        setup_layers = tracer.op_layer_metrics("setup")
        sizes = tracer.op_sizes(traced[0]["op"]) or tracer.op_sizes("setup")
        summary.update(per_layer=layer, setup_layers=setup_layers, sizes=sizes,
                       spans=tracer.dump_spans())
        print("sizes " + json.dumps(summary["sizes"]))
        print(f"{'per-layer metric (median over traced operations)':52s} {'value':>12s}"
              f"  {'in set-up':>10s}")
        for key in sorted(layer):
            print(f"  {key:50s} {layer[key]:12.6g}  {setup_layers.get(key, 0):10.4g}")
        values, kind = layer, "per_layer"
    else:
        values = {"op_s": summary["op_s"]["median"], "setup_s": summary["setup_s"],
                  "peak_rss_mb": summary["peak_rss_mb"]}
        kind = "end_to_end"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, default=float)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def _median_of(records, key):
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


if __name__ == "__main__":
    raise SystemExit(main())
