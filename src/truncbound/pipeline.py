"""End-to-end orchestration: model -> certificate -> partition -> bounds.

This is the programmatic core of the command-line driver and of the
benchmark reproductions: given a model, a truncation choice and a list of
envelope rewards, it constructs and verifies the certificates, enumerates
the truncation set once and repartitions it for each further return set,
and assembles the bound reports plus the induced equilibrium approximation.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundReport, compute_bounds
from .censor import TruncationWorkspace
from .ctmc import embed
from .errors import ModelError
from .lyapunov import DriftCertificate, drift_stage, evaluate_certificate, verify_certificate
from .models import GM1Model, ToggleSwitchModel
from .statespace import enumerate_space, explicit_k_predicate, is_jump, repartition


def build_model(name: str, params: dict):
    if name == "gm1":
        return GM1Model(**params)
    if name == "toggle":
        return ToggleSwitchModel(**params)
    raise ModelError(f"unknown model {name!r} (available: gm1, toggle)")


def truncation_predicate(model, spec: dict):
    kind = spec.get("kind")
    if kind == "range":
        top = int(spec["max"])
        return lambda s: 0 <= s <= top
    if kind == "simplex":
        level = int(spec["level"])
        return lambda s: s[0] + s[1] <= level
    raise ModelError(f"unknown truncation kind {spec!r}")


@dataclass
class EnvelopeRun:
    envelope_id: str
    certificate: DriftCertificate
    report: BoundReport
    k_size: int
    k_star: float


@dataclass
class PipelineResult:
    model_name: str
    truncation: dict
    runs: dict = field(default_factory=dict)           # envelope id -> EnvelopeRun
    distribution_states: list = field(default_factory=list)
    distribution_mass: np.ndarray | None = None
    timings: dict = field(default_factory=dict)

    def report(self, envelope_id: str) -> BoundReport:
        return self.runs[envelope_id].report


def run_pipeline(model, truncation: dict, *, envelopes=("r",),
                 stochasticization: str = "row",
                 explicit_return_set=None,
                 with_distribution: bool = True) -> PipelineResult:
    """Run the full bound pipeline for each envelope reward.

    Jump-process models are embedded first; their certificates are verified
    in generator form on the jump model itself.  The truncation set is
    enumerated once; each further return set's partition is a K-first
    permutation of the first, and envelopes whose certificates designate the
    same return set share one partition.  The distribution comes from the
    partition of the first envelope's return set.

    The bounds of each return set but the last are computed on one worker
    thread, in submission order, while this thread partitions and
    factorizes the next return set: the solves release the GIL, the
    partitioning and the ordering inside the LU mostly hold it.  The last
    return set's bounds are computed here, as nothing is left to prepare;
    a run with one return set starts no thread.  Every workspace is used by
    one thread at a time and every quantity comes from the same call on the
    same data as a serial run, so reports do not depend on the overlap.
    Errors surface in serial order: a failure here is raised only after the
    jobs submitted before it have been collected.  ``timings`` stages may
    therefore overlap.
    """
    t_all = time.perf_counter()
    result = PipelineResult(model_name=model.name, truncation=dict(truncation))
    a_pred = truncation_predicate(model, truncation)
    chain = embed(model) if is_jump(model) else model

    certs = verified_certificates(model, envelopes, explicit_return_set)
    by_return_set: dict[tuple, list[str]] = {}
    for env, (cert, _) in certs.items():
        by_return_set.setdefault(cert.return_set, []).append(env)

    last = len(by_return_set) - 1
    submitted = []                    # (envelope id, future report) on the worker
    inline = []                       # (envelope id, report) of the last return set
    primary = None                    # the first group's workspace: it holds envelopes[0]
    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            part = None
            for i, (return_set, env_group) in enumerate(by_return_set.items()):
                k_pred = explicit_k_predicate(return_set)
                t0 = time.perf_counter()
                if part is None:
                    _, part = enumerate_space(chain, a_pred, k_pred)
                    result.timings["enumerate"] = time.perf_counter() - t0
                    t0 = time.perf_counter()
                else:
                    _, part = repartition(part, k_pred)
                ws = TruncationWorkspace(part)
                if i == 0:
                    primary = ws
                result.timings[f"partition[{','.join(env_group)}]"] = time.perf_counter() - t0
                for env in env_group:
                    inputs = evaluate_certificate(certs[env][0], part, envelope_id=env)
                    if i < last:
                        submitted.append((env, worker.submit(
                            compute_bounds, ws, inputs, stochasticization=stochasticization)))
                    else:       # nothing is left to prepare: no need for the worker
                        inline.append((env, compute_bounds(
                            ws, inputs, stochasticization=stochasticization)))
        except Exception:
            for _, job in submitted:    # an earlier job's error came first serially
                job.result()
            raise
        reports = [(env, job.result()) for env, job in submitted] + inline

    for env, report in reports:
        report.provenance["model"] = model.name
        report.provenance["truncation"] = dict(truncation)
        cert, k_star = certs[env]
        result.runs[env] = EnvelopeRun(
            envelope_id=env,
            certificate=cert,
            report=report,
            k_size=len(cert.return_set),
            k_star=k_star,
        )

    if with_distribution and primary is not None:
        t0 = time.perf_counter()
        censored = primary.censored()
        _, pi_k = censored.row_normalized if stochasticization == "row" \
            else censored.perron_normalized
        dist = primary.approx_distribution(pi_k)
        result.distribution_states = list(primary.partition.space.states)
        result.distribution_mass = dist
        result.timings["distribution"] = time.perf_counter() - t0

    result.timings["total"] = time.perf_counter() - t_all
    return result


def verified_certificates(model, envelopes, explicit_return_set) -> dict:
    """Construct and verify each envelope's certificate, without any linear
    algebra (a jump process is checked in generator form).  All drift checks
    share one drift table, which is released before this returns.

    ``explicit_return_set`` (or None for each model's designed one) is used
    for every envelope.  Maps each envelope id to ``(certificate, k_star)``,
    where ``k_star`` is the largest norm in the certificate's return set.
    """
    rs = tuple(explicit_return_set) if explicit_return_set is not None else None
    out = {}
    with drift_stage(model):
        for env in envelopes:
            cert = verify_certificate(model, model.certificate_for_envelope(env, return_set=rs))
            out[env] = cert, max(model.norm(s) for s in cert.return_set)
    return out
