"""The four benchmark workloads: set-up, one operation, and its output.

Every workload drives truncbound through its public entry points only.  The
three config workloads call ``truncbound.cli.main`` in-process, exactly as
``truncbound run|sweep <config>`` would, so each operation parses the config,
builds its model and workspace from scratch and writes its report or CSV.
``toggle20-marginals`` builds one workspace in set-up and then answers
batches of ``reward_interval`` queries against it.

Library functions are always looked up on their module at call time
(``cli.main``, ``bounds.reward_interval``), so the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

from truncbound import bounds, censor, cli, ctmc, lyapunov, pipeline, statespace

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

# workload -> (cli command, config file); the smoke size shrinks the truncation
# only, keeping every return set inside it
CONFIG_WORKLOADS = {
    "gm1-ref": ("run", "gm1_reference.json"),
    "toggle90": ("run", "toggle90.json"),
    "toggle20-sweep": ("sweep", "toggle20.json"),
}
SMOKE_TRUNCATION = {
    "gm1-ref": {"max": 500},
    "toggle90": {"level": 100},
    "toggle20-sweep": {"schedule": [50, 100]},
}

MARGINALS_CONFIG = "toggle20.json"
MARGINALS_ENVELOPE = "e"
# full size: 402 marginal indicators + 98 random rewards = 500 queries a batch
MARGINALS_RANDOM = {"full": 98, "smoke": 4}
MARGINALS_SMOKE_LEVEL = 50


def _read_config(name: str) -> dict:
    with open(os.path.join(ROOT, "configs", name)) as fh:
        return json.load(fh)


class _Workload:
    name: str
    size: str

    def load_reference(self) -> dict:
        """The seed's results for this workload and size."""
        with open(REFERENCE) as fh:
            return json.load(fh)[self.size][self.name]

    def prepare_checks(self) -> None:
        """Data the output checks need, computed once outside the timing."""

    def truth_misses(self, output):
        return None


class ConfigWorkload(_Workload):
    """One ``truncbound run`` or ``truncbound sweep`` per operation."""

    def __init__(self, name: str, size: str, seed: int):
        self.name = name
        self.size = size
        self.seed = seed  # recorded only: the config fully determines the inputs
        self.command, config_file = CONFIG_WORKLOADS[name]
        self.outdir = os.path.join(OUT_ROOT, name)
        os.makedirs(self.outdir, exist_ok=True)
        cfg = _read_config(config_file)
        self.config_path = os.path.join(ROOT, "configs", config_file)
        if size == "smoke":
            cfg["truncation"].update(SMOKE_TRUNCATION[name])
            self.config_path = os.path.join(self.outdir, "config.json")
            with open(self.config_path, "w") as fh:
                json.dump(cfg, fh)
        self.cfg = cfg
        self.model = pipeline.build_model(cfg["model"]["name"], cfg["model"].get("params", {}))
        key = "report" if self.command == "run" else "csv"
        default = "report.json" if self.command == "run" else "sweep.csv"
        self.output_path = os.path.join(self.outdir, cfg.get("output", {}).get(key, default))
        self.truth = None

    def prepare_checks(self):
        if self.name == "gm1-ref":
            self.truth = checks.GM1Truth(self.model)

    def check(self, output, reference) -> list:
        if self.command == "run":
            return checks.check_reports(output, reference)
        return checks.check_sweep(output, reference)

    def truth_misses(self, output):
        return self.truth.misses(output) if self.truth is not None else None

    def reference_of(self, output) -> dict:
        if self.command == "run":
            return {"reports": output["reports"]}
        return output

    def operation(self):
        """Run the CLI once; returns (exit code, parsed output or None)."""
        if os.path.exists(self.output_path):
            os.remove(self.output_path)  # a stale file must never pass the checks
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([self.command, self.config_path, "--output-dir", self.outdir])
        if rc != 0:
            return rc, None
        return rc, self._read_output()

    def _read_output(self):
        if self.command == "run":
            with open(self.output_path) as fh:
                doc = json.load(fh)
            return {
                "reports": {env: {k: rep[k] for k in ("lower", "upper", "approx", "tv_bound")}
                            for env, rep in doc["reports"].items()},
                "states": doc["distribution"]["states"],
                "probability": doc["distribution"]["probability"],
            }
        with open(self.output_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        envs = self.cfg["bounds"]["rewards"]
        return {"rows": [
            {"truncation": int(row["truncation"]),
             **{env: {k: float(row[f"{env}_{k}"]) for k in ("lower", "upper", "approx", "tv_bound")}
                for env in envs}}
            for row in rows
        ]}


class MarginalsWorkload(_Workload):
    """One toggle20 workspace; each operation is a batch of reward queries."""

    def __init__(self, name: str, size: str, seed: int):
        self.name = name
        self.size = size
        self.seed = seed
        cfg = _read_config(MARGINALS_CONFIG)
        model = pipeline.build_model(cfg["model"]["name"], cfg["model"]["params"])
        level = cfg["truncation"]["level"] if size == "full" else MARGINALS_SMOKE_LEVEL
        truncation = {"kind": cfg["truncation"]["kind"], "level": level}
        cert = lyapunov.verify_certificate(
            model, model.certificate_for_envelope(MARGINALS_ENVELOPE))
        _, part = statespace.enumerate_space(
            ctmc.embed(model), pipeline.truncation_predicate(model, truncation),
            statespace.explicit_k_predicate(cert.return_set))
        self.ws = censor.TruncationWorkspace(part)
        self.inputs = lyapunov.evaluate_certificate(cert, part, envelope_id=MARGINALS_ENVELOPE)
        self.ws.censored().tau  # G and the mixture family belong to the build
        self.level = level
        self.counts = np.array(part.space.states)  # (|A|, 2) molecule counts
        rng = np.random.default_rng(seed)
        self.random_rewards = rng.uniform(-1.0, 1.0, size=(MARGINALS_RANDOM[size], part.a_size))

    def rewards(self):
        """Marginal indicators of x1 = j and x2 = j for j = 0..level, then the
        seeded random rewards; all are dominated by the unit envelope."""
        for species in (0, 1):
            column = self.counts[:, species]
            for j in range(self.level + 1):
                yield (column == j).astype(float)
        yield from self.random_rewards

    def operation(self):
        intervals = [bounds.reward_interval(self.ws, self.inputs, f) for f in self.rewards()]
        return 0, {"intervals": intervals}

    def prepare_checks(self):
        # the workspace's approximate law; its expectation of each reward is
        # the approximation every certified interval must contain
        dist = self.ws.approx_distribution(self.ws.censored().row_normalized[1])
        self.approx = [float(dist @ f) for f in self.rewards()]

    def check(self, output, reference) -> list:
        return checks.check_marginals(output, reference, self.approx, self.level)

    def reference_of(self, output) -> dict:
        return {"indicators": [list(i) for i in output["intervals"][:2 * (self.level + 1)]]}


def make(name: str, size: str, seed: int):
    if name in CONFIG_WORKLOADS:
        return ConfigWorkload(name, size, seed)
    if name == "toggle20-marginals":
        return MarginalsWorkload(name, size, seed)
    raise ValueError(f"unknown workload {name!r}")
