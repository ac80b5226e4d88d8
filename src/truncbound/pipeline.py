"""End-to-end orchestration: model -> certificate -> partition -> bounds.

This is the programmatic core of the command-line driver and of the
benchmark reproductions: given a model, a truncation choice and a list of
envelope rewards, it constructs and verifies the certificates, explores the
truncation set once (a sweep, its largest set) and cuts and repartitions it,
and assembles the bound reports plus the induced equilibrium approximation.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .bounds import BoundReport, compute_bounds
from .censor import TruncationWorkspace
from .ctmc import embed
from .errors import ModelError
from .lyapunov import DriftCertificate, drift_stage, evaluate_certificate, verify_certificate
from .models import GM1Model, ToggleSwitchModel
from .statespace import (DEFAULT_ENUMERATION_CAP, batched, cut, explicit_k_predicate, explore,
                         is_jump, repartition)


def build_model(name: str, params: dict):
    if name == "gm1":
        return GM1Model(**params)
    if name == "toggle":
        return ToggleSwitchModel(**params)
    raise ModelError(f"unknown model {name!r} (available: gm1, toggle)")


def truncation_predicate(model, spec: dict):
    kind = spec.get("kind")
    if kind not in ("range", "simplex"):
        raise ModelError(f"unknown truncation kind {spec!r}")
    radius = int(spec["max"] if kind == "range" else spec["level"])
    pred = batched((lambda s: (0 <= s) & (s <= radius)) if kind == "range"
                   else lambda s: s[0] + s[1] <= radius)
    pred.radius = radius      # of the norm ball it describes: explore starts from that ball
    return pred


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
    distribution: tuple | None = None    # (state space, masses) of the approximation
    timings: dict = field(default_factory=dict)

    def report(self, envelope_id: str) -> BoundReport:
        return self.runs[envelope_id].report


def run_pipeline(model, truncation: dict, *, envelopes=("r",),
                 explicit_return_set=None,
                 with_distribution: bool = True) -> PipelineResult:
    """Run the full bound pipeline for each envelope reward.

    Jump-process models are embedded first; their certificates are verified
    in generator form on the jump model itself.  The truncation set is
    explored once and cut over the first return set; each further return
    set's partition is a K-first permutation of the first, and envelopes
    whose certificates designate the same return set share one partition,
    the first envelope's giving the distribution.  The bounds of each return
    set but the last are computed on one worker thread while this thread
    partitions and factorizes the next; every quantity comes from the same
    call on the same data as a serial run, and errors surface in serial
    order.  ``timings`` stages may therefore overlap; a ``partition[...]``
    stage covers its return set's repartition, factorization and
    certificate evaluations.
    """
    return next(run_sweep(model, [truncation], envelopes=envelopes,
                          explicit_return_set=explicit_return_set,
                          with_distribution=with_distribution))


def run_sweep(model, truncations: list, *, envelopes, explicit_return_set,
              with_distribution: bool):
    """:func:`run_pipeline`'s result for each of the nested ``truncations``,
    in order, from a generator.  It verifies the certificates and explores
    the largest set once, before the first result, whose ``timings`` carry
    both stages (``certificates`` and ``explore``); each level is cut from
    that exploration (its ``cut``), and levels run one after the other."""
    t_all = time.perf_counter()
    timings: dict = {}
    a_preds = [truncation_predicate(model, t) for t in truncations]
    chain = embed(model) if is_jump(model) else model

    certs = verified_certificates(model, envelopes, explicit_return_set)
    by_return_set: dict[tuple, list[str]] = {}
    for env, (cert, _) in certs.items():
        by_return_set.setdefault(cert.return_set, []).append(env)
    timings["certificates"] = time.perf_counter() - t_all

    t0 = time.perf_counter()
    exploration = explore(chain, max(a_preds, key=lambda a: a.radius), cap=DEFAULT_ENUMERATION_CAP)
    timings["explore"] = time.perf_counter() - t0
    for level, (truncation, a_pred) in enumerate(zip(truncations, a_preds)):
        t0 = time.perf_counter()
        _, part = cut(exploration, a_pred, explicit_k_predicate(next(iter(by_return_set))))
        if level == len(truncations) - 1:
            del exploration           # and its entry stream: no level is left to cut
        timings["cut"] = time.perf_counter() - t0
        result = PipelineResult(model_name=model.name, truncation=dict(truncation),
                                timings=timings)
        _bound(result, part, certs, by_return_set, with_distribution)
        del part                      # a level's partitions end with its bounds
        timings["total"] = time.perf_counter() - t_all
        yield result
        t_all = time.perf_counter()
        timings = {}


def _bound(result: PipelineResult, part, certs: dict, by_return_set: dict,
           with_distribution: bool) -> None:
    """Bounds on ``part`` (over the first return set) and its repartitions."""
    last = len(by_return_set) - 1
    submitted = []                    # (envelope id, future report) on the worker
    inline = []                       # (envelope id, report) of the last return set
    primary = None                    # the first group's workspace: it holds envelopes[0]
    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            for i, (return_set, env_group) in enumerate(by_return_set.items()):
                t0 = time.perf_counter()
                if i > 0:
                    _, part = repartition(part, explicit_k_predicate(return_set))
                ws = TruncationWorkspace(part)
                if i == 0:
                    primary = ws
                group = [(env, evaluate_certificate(certs[env][0], part, envelope_id=env))
                         for env in env_group]
                result.timings[f"partition[{','.join(env_group)}]"] = time.perf_counter() - t0
                for env, inputs in group:
                    if i < last:
                        submitted.append((env, worker.submit(compute_bounds, ws, inputs)))
                    else:       # nothing is left to prepare: no need for the worker
                        inline.append((env, compute_bounds(ws, inputs)))
        except Exception:
            for _, job in submitted:    # an earlier job's error came first serially
                job.result()
            raise
        reports = [(env, job.result()) for env, job in submitted] + inline

    for env, report in reports:
        report.provenance["model"] = result.model_name
        report.provenance["truncation"] = dict(result.truncation)
        cert, k_star = certs[env]
        result.runs[env] = EnvelopeRun(env, cert, report, len(cert.return_set), k_star)

    if with_distribution and primary is not None:
        t0 = time.perf_counter()
        result.distribution = primary.partition.space, \
            primary.approx_distribution(primary.censored().row_normalized[1])
        result.timings["distribution"] = time.perf_counter() - t0


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
