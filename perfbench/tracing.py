"""Span tracer for the traced run, and the per-layer metrics derived from it.

The tracer wraps public entry points of each truncbound layer from outside
the package: it rebinds every module attribute (and class attribute) that
refers to an entry point to a wrapper, and restores them afterwards.  A span
records (name, start, end, parent span, operation id, attributes); hot leaf
calls (model rows, drift evaluations) are only counted, since a span per
call would cost more than the call.  Spans and counts stay in memory until
the run writes them out.

Every ``*_s`` metric is a self time: the span's duration minus the time its
traced children cover.  Self times of all layers, plus the benchmark's own
time in the operation, add up to the traced operation's wall time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

from truncbound import bounds, censor, cli, linalg, lyapunov, models, pipeline, statespace

# span name -> self-time metric, for names that do not just take "_s"
SELF_TIME_METRIC = {
    "pipeline.run": "pipeline.unattributed_s",
    "cli.main": "cli.self_s",
}
SPAN_NAMES = (
    "cli.main", "pipeline.run", "statespace.enumerate", "linalg.factorize",
    "linalg.solve", "censor.censored", "censor.mixture", "censor.l1_diameter",
    "censor.distribution", "lyapunov.construct", "lyapunov.verify",
    "lyapunov.evaluate", "bounds.compute", "bounds.interval",
)
ENVELOPES = ("r", "e")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id, attrs]
        self.counts = {}         # op id -> Counter
        self.op = None
        self._stack = []
        self._patches = []

    @contextmanager
    def operation(self, op_id):
        self.op = op_id
        try:
            with self._span("op"):
                yield
        finally:
            self.op = None

    @contextmanager
    def _span(self, name):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def spanned(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span[5] = attrs(args, result)
            return result
        return wrapper

    def counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts.setdefault(self.op, Counter())[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing and removing the wrappers --------------------------------

    def _rebind_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "truncbound" or mod_name.startswith("truncbound.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _rebind_method(self, cls, attr, replacement):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        for fn, name, attrs in (
            (cli.main, "cli.main", None),
            (pipeline.run_pipeline, "pipeline.run", None),
            (statespace.enumerate_space, "statespace.enumerate", _partition_attrs),
            (lyapunov.construct_K, "lyapunov.construct", None),
            (lyapunov.verify_certificate, "lyapunov.verify", None),
            (lyapunov.evaluate_certificate, "lyapunov.evaluate", None),
            (bounds.compute_bounds, "bounds.compute", _report_attrs),
            (bounds.reward_interval, "bounds.interval", None),
        ):
            self._rebind_everywhere(fn, self.spanned(name, fn, attrs))
        self._rebind_everywhere(lyapunov.drift_excess,
                                self.counted("lyapunov.drift_evals", lyapunov.drift_excess))
        solver = linalg.SubstochasticSolver
        self._rebind_method(solver, "__init__",
                            self.spanned("linalg.factorize", solver.__init__, _factor_attrs))
        self._rebind_method(solver, "solve",
                            self.spanned("linalg.solve", solver.solve, _solve_attrs))
        ws = censor.TruncationWorkspace
        self._rebind_method(ws, "censored", self.spanned("censor.censored", ws.censored))
        self._rebind_method(ws, "approx_distribution",
                            self.spanned("censor.distribution", ws.approx_distribution))
        self._rebind_method(censor.TauFamily, "l1_diameter",
                            self.spanned("censor.l1_diameter", censor.TauFamily.l1_diameter))
        tau = censor.CensoredApprox.__dict__["tau"]
        traced_tau = functools.cached_property(self.spanned("censor.mixture", tau.func))
        traced_tau.__set_name__(censor.CensoredApprox, "tau")
        self._rebind_method(censor.CensoredApprox, "tau", traced_tau)
        self._rebind_method(models.GM1Model, "row",
                            self.counted("models.rows", models.GM1Model.row))
        self._rebind_method(models.ToggleSwitchModel, "rate_row",
                            self.counted("models.rows", models.ToggleSwitchModel.rate_row))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived metrics -------------------------------------------------------

    def op_layer_metrics(self, op_id) -> dict:
        """Per-layer metrics of one operation."""
        idx = [i for i, s in enumerate(self.spans) if s[4] == op_id]
        child_time = Counter()
        for i in idx:
            parent = self.spans[i][3]
            if parent is not None:
                child_time[parent] += self.spans[i][2] - self.spans[i][1]
        out = {SELF_TIME_METRIC.get(name, f"{name}_s"): 0.0 for name in SPAN_NAMES}
        n = Counter()
        sums = Counter()
        last_report = {}
        for i in idx:
            name, start, end, parent, _, attrs = self.spans[i]
            n[name] += 1
            if name in SPAN_NAMES:
                out[SELF_TIME_METRIC.get(name, f"{name}_s")] += end - start - child_time[i]
            if attrs:
                if name == "bounds.compute":
                    last_report[attrs["env"]] = attrs
                    continue
                for key, value in attrs.items():
                    sums[f"{name}.{key}"] += value
                if name == "linalg.solve" and parent is not None \
                        and self.spans[parent][0] == "censor.censored":
                    sums["censor.censored_rhs"] += attrs["cols"]
        counts = self.counts.get(op_id, Counter())
        out.update({
            "statespace.enumerations": n["statespace.enumerate"],
            "statespace.states": sums["statespace.enumerate.states"],
            "statespace.k_states": sums["statespace.enumerate.k_states"],
            "statespace.nnz": sums["statespace.enumerate.nnz"],
            "models.rows": counts["models.rows"],
            "linalg.factorizations": n["linalg.factorize"],
            "linalg.lu_fill": sums["linalg.factorize.lu_fill"],
            "linalg.solve_calls": n["linalg.solve"],
            "linalg.rhs_cols": sums["linalg.solve.cols"],
            "censor.censored_rhs": sums["censor.censored_rhs"],
            "lyapunov.drift_evals": counts["lyapunov.drift_evals"],
            "bounds.intervals": n["bounds.interval"],
        })
        for env in ENVELOPES:
            rep = last_report.get(env)  # the sweep keeps its largest truncation
            out[f"bounds.tv_bound.{env}"] = rep["tv"] if rep else 0.0
            out[f"bounds.width.{env}"] = rep["width"] if rep else 0.0
        return out

    def op_sizes(self, op_id) -> list:
        """Problem sizes of one operation: each partition and its factorization."""
        sizes = []
        for name, _, _, _, op, attrs in self.spans:
            if op != op_id or not attrs:
                continue
            if name == "statespace.enumerate":
                sizes.append({"k": attrs["k_states"], "a": attrs["states"],
                              "nnz_p22": attrs["nnz"]})
            elif name == "linalg.factorize" and sizes and "lu_fill" not in sizes[-1] \
                    and attrs["n"] == sizes[-1]["a"] - sizes[-1]["k"]:
                sizes[-1]["lu_fill"] = attrs["lu_fill"]
        return sizes

    def dump_spans(self) -> list:
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4],
                 **({"attrs": s[5]} if s[5] else {})} for s in self.spans]


def _partition_attrs(args, result):
    part = result[1]
    return {"states": part.a_size, "k_states": part.k_size, "nnz": int(part.P22.nnz)}


def _factor_attrs(args, result):
    # the LU lives in private solver fields; the benchmark only reads its size
    solver = args[0]
    mode = solver._mode
    if mode == "sparse":
        fill = int(solver._lu.L.nnz + solver._lu.U.nnz)
    else:
        fill = solver.n * solver.n
    return {"n": solver.n, "lu_fill": fill}


def _solve_attrs(args, result):
    b = args[1]
    return {"cols": 1 if getattr(b, "ndim", 1) == 1 else int(b.shape[1])}


def _report_attrs(args, result):
    return {"env": result.reward_id, "tv": result.tv_bound, "width": result.upper - result.lower}


def median_metrics(per_op: list) -> dict:
    """Median over operations of each per-layer metric."""
    return {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
