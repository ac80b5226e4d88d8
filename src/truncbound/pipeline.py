"""End-to-end orchestration: model -> certificate -> partition -> bounds.

This is the programmatic core of the command-line driver and of the
benchmark reproductions: given a model, a truncation choice and a list of
envelope rewards, it constructs and verifies the certificates, explores the
truncation set once (a sweep, its largest set) and cuts and repartitions it,
and assembles the bound reports plus the induced equilibrium approximation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .bounds import compute_bounds, timed
from .censor import TruncationWorkspace
from .ctmc import embed
from .errors import ModelError
from .lyapunov import evaluate_certificate, release_drift_table, verify_certificate
from .models import GM1Model, ToggleSwitchModel
from .statespace import (_apply, _coords, batched, cut, explicit_k_predicate, explore, is_jump,
                         repartition)

SIZE_KEYS = {"range": "max", "simplex": "level"}    # each kind's size: its norm ball's radius


def build_model(name: str, params: dict):
    if name == "gm1":
        return GM1Model(**params)
    if name == "toggle":
        return ToggleSwitchModel(**params)
    raise ModelError(f"unknown model {name!r} (available: gm1, toggle)")


def truncation_predicate(model, spec: dict):
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in SIZE_KEYS:
        raise ModelError(f"unknown truncation kind {spec!r}")
    if SIZE_KEYS[kind] not in spec:
        raise ModelError(f"a {kind} truncation needs {SIZE_KEYS[kind]!r}, got {spec!r}")
    radius = truncation_size(spec[SIZE_KEYS[kind]])
    width = _coords([model.seed]).shape[1]
    if (width == 1) != (kind == "range"):     # range: ints; simplex: tuples of any width
        raise ModelError(f"a {kind} truncation takes states of "
                         f"{'1 coordinate' if kind == 'range' else '2 or more coordinates'}; "
                         f"model {model.name!r} has states of {width}")
    pred = batched((lambda s: (0 <= s) & (s <= radius)) if kind == "range"
                   else lambda s: sum(s) <= radius)     # exact int adds, left to right
    pred.radius = radius      # of the norm ball it describes: explore starts from that ball
    return pred


def truncation_size(v) -> int:
    """A truncation's size: an int, or a float with an integer value."""
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ModelError(f"truncation sizes must be integers, got {v!r}")
    return v


@dataclass
class PipelineResult:
    model_name: str
    truncation: dict
    reports: dict                 # envelope id -> BoundReport
    certificates: dict            # envelope id -> its verified certificate
    distribution: tuple | None    # (state space, masses) of the approximation; None in a sweep
    timings: dict


def run_pipeline(model, truncation: dict, *, envelopes,
                 explicit_return_set=None) -> PipelineResult:
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
    order.  ``timings`` holds this thread's stages, which are disjoint and
    add up to ``total``.  Each return set has a ``certificate[...]`` stage
    (its certificates' evaluations) and then a ``factorize[...]`` stage (its
    workspace, with the LU of ``I - P22``), and each after the first a
    ``repartition[...]`` stage, named by its envelope ids; the last return
    set's bounds are ``bounds[...]``, and ``wait`` is the wait for the
    worker's reports.  A report's own ``timings`` split its bounds, on
    whichever thread computed them.
    """
    return next(run_sweep(model, [truncation], envelopes=envelopes,
                          explicit_return_set=explicit_return_set,
                          with_distribution=True))


def run_sweep(model, truncations: list, *, envelopes, explicit_return_set,
              with_distribution: bool):
    """:func:`run_pipeline`'s result for each of the nested ``truncations``,
    in order, from a generator.  It verifies the certificates and explores
    the largest set once, before the first result, whose ``timings`` carry
    both stages (``certificates`` and ``explore``); each level is cut from
    that exploration (its ``cut``), and levels run one after the other.  A
    smallest set without all of a return set raises :class:`ModelError`
    before the exploration."""
    if not envelopes or not truncations:
        raise ModelError(f"no {'truncations' if envelopes else 'envelopes'} to bound")
    timings: dict = {}
    with timed(timings, "total"), timed(timings, "certificates"):
        a_preds = [truncation_predicate(model, t) for t in truncations]
        chain = embed(model) if is_jump(model) else model
        certs = verified_certificates(model, envelopes, explicit_return_set)
        smallest, in_smallest = min(zip(truncations, a_preds), key=lambda t: t[1].radius)
        by_return_set: dict[tuple, list[str]] = {}
        for env, cert in certs.items():
            inside = _apply(in_smallest, _coords(cert.return_set), bool)
            if not inside.all():          # every level must hold every return set
                raise ModelError(f"the truncation {smallest} does not hold the return set "
                                 f"of envelope {env!r}: its state "
                                 f"{cert.return_set[inside.argmin()]!r} is outside")
            by_return_set.setdefault(cert.return_set, []).append(env)
    with timed(timings, "total"), timed(timings, "explore"):
        exploration = explore(chain, max(a_preds, key=lambda a: a.radius))
    for level, (truncation, a_pred) in enumerate(zip(truncations, a_preds)):
        with timed(timings, "total"):
            with timed(timings, "cut"):
                _, part = cut(exploration, a_pred, explicit_k_predicate(next(iter(by_return_set))))
                if level == len(truncations) - 1:
                    del exploration       # and its entry stream: no level is left to cut
            reports, distribution = _bound(part, certs, by_return_set, timings, with_distribution)
            del part                      # a level's partitions end with its bounds
            for report in reports.values():
                report.provenance.update(model=model.name, truncation=dict(truncation))
        yield PipelineResult(model.name, dict(truncation), reports, certs, distribution, timings)
        timings = {}


def _bound(part, certs: dict, by_return_set: dict, timings: dict,
           with_distribution: bool) -> tuple[dict, tuple | None]:
    """Reports on ``part`` (over the first return set) and its repartitions,
    by envelope id, and the distribution (or None); stages go to ``timings``."""
    last = len(by_return_set) - 1
    submitted = []                    # (envelope id, future report) on the worker
    primary = None                    # the first group's workspace: it holds envelopes[0]
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="truncbound-worker") as worker:
        try:
            for i, (return_set, env_group) in enumerate(by_return_set.items()):
                envs = ",".join(env_group)
                if i > 0:
                    with timed(timings, f"repartition[{envs}]"):
                        _, part = repartition(part, explicit_k_predicate(return_set))
                with timed(timings, f"certificate[{envs}]"):   # no LU for a mismatched block
                    group = [(env, evaluate_certificate(certs[env], part, envelope_id=env))
                             for env in env_group]
                with timed(timings, f"factorize[{envs}]"):
                    ws = TruncationWorkspace(part)
                primary = primary or ws
                if i < last:
                    submitted += [(env, worker.submit(compute_bounds, ws, inputs))
                                  for env, inputs in group]
            with timed(timings, f"bounds[{envs}]"):   # nothing is left to prepare: no worker
                inline = [(env, compute_bounds(ws, inputs)) for env, inputs in group]
        except Exception:
            for _, job in submitted:    # an earlier job's error came first serially
                job.result()
            raise
        with timed(timings, "wait"):
            reports = dict([(env, job.result()) for env, job in submitted] + inline)

    if not with_distribution:
        return reports, None
    with timed(timings, "distribution"):
        distribution = primary.partition.space, \
            primary.approx_distribution(primary.censored().row_normalized[1])
    return reports, distribution


def verified_certificates(model, envelopes, explicit_return_set) -> dict:
    """Construct and verify each envelope's certificate, without any linear
    algebra (a jump process is checked in generator form).  All drift checks
    share the model's drift table, which is released before this returns.

    ``explicit_return_set`` (or None for each model's designed one) is used
    for every envelope.  Maps each envelope id to its verified certificate,
    whose ``k_star`` is its return set's largest coordinate sum.
    """
    try:
        return {env: verify_certificate(
                    model, model.certificate_for_envelope(env, explicit_return_set))
                for env in envelopes}
    finally:
        release_drift_table(model)
