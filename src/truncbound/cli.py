"""Command-line driver: run | verify | sweep over a JSON experiment config.

Exit codes: 0 success, 1 config error, 2 assumption violated
(irreducibility / drift), 3 numerical failure (residual or denominator
guards).  Two runs of the same config produce identical report JSON except
for the timing fields, provided the BLAS thread count is fixed (``--threads``).

The config format is documented in docs/config.schema.json; reports follow
docs/report.schema.json and sweep CSVs are plot-ready (one row per
truncation size).  A sweep certifies and explores its largest truncation
once, cutting every level from it; errors there surface before any bounds."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

MONOTONE_SLACK = 1e-12


class ConfigError(Exception):
    pass


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="truncbound")
    ap.add_argument("--threads", type=int, default=None,
                    help="cap BLAS/OpenMP threads (set before numerics load)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("run", "full pipeline: bounds + approximation report"),
        ("verify", "certificate verification only; prints return-set data"),
        ("sweep", "bounds across a truncation-size schedule, CSV output"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to the JSON experiment config")
        p.add_argument("--output-dir", default=None,
                       help="override the configured output directory")
    return ap.parse_args(argv)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict) or not {"model", "truncation"} <= cfg.keys():
        raise ConfigError(f"config {path} needs a 'model' and a 'truncation' section")
    for section in ("model", "truncation", "return_set", "bounds", "output"):
        if not isinstance(cfg.get(section, {}), dict):
            raise ConfigError(f"config section {section!r} must be an object")
    for key in ("dir", "report", "csv"):
        if not isinstance(cfg.get("output", {}).get(key, ""), str):
            raise ConfigError(f"output.{key} must be a string")
    if "name" not in cfg["model"]:
        raise ConfigError("config model section needs a 'name'")
    return cfg


def _outdir(cfg: dict, override: str | None) -> str:
    """The output directory, checked before the run: the nearest of it and
    its parents that exists must be a directory."""
    out = override or cfg.get("output", {}).get("dir", ".")
    there = os.path.abspath(out)
    while not os.path.exists(there):
        there = os.path.dirname(there)
    if not os.path.isdir(there):
        raise ConfigError(f"output directory {out!r}: {there} is not a directory")
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _build(cfg: dict):
    from .pipeline import build_model

    params = cfg["model"].get("params", {})
    if not isinstance(params, dict) or not all(map(_is_number, params.values())):
        raise ConfigError("model.params must map parameter names to numbers")
    try:
        return build_model(cfg["model"]["name"], params)
    except TypeError as exc:   # a keyword the model's constructor does not take
        raise ConfigError(f"bad model.params: {exc}") from exc


def _bounds_options(cfg: dict) -> list:
    bounds = cfg.get("bounds", {})
    unknown = sorted(bounds.keys() - {"rewards"})
    if unknown:
        raise ConfigError(f"unknown bounds key(s) {', '.join(map(repr, unknown))} "
                          "(the bounds section takes only 'rewards')")
    envelopes = bounds.get("rewards", ["r"])
    if not isinstance(envelopes, list) or not envelopes:
        raise ConfigError("bounds.rewards must name at least one reward")
    for env in envelopes:
        if env not in ("r", "e"):
            raise ConfigError(f"unknown reward {env!r} (use 'r' or 'e')")
    return envelopes


def _return_set(cfg: dict):
    rs = cfg.get("return_set", {})
    mode = rs.get("mode", "lyapunov")
    if mode == "lyapunov" and "states" in rs:
        raise ConfigError("return_set.states are read only with \"mode\": \"explicit\"")
    if mode == "lyapunov":
        return None
    if mode == "explicit":
        states = rs.get("states")
        if not isinstance(states, list) or not states:
            raise ConfigError("explicit return_set needs a nonempty 'states' list")
        return states
    raise ConfigError(f"unknown return_set mode {mode!r}")


def _truncation_schedule(cfg: dict, *, prefer_size: bool = False) -> list[dict]:
    """The schedule's truncations, else the one of ``max``/``level``;
    ``prefer_size`` takes ``max``/``level`` over the schedule."""
    from .pipeline import SIZE_KEYS, truncation_size

    trunc = cfg["truncation"]
    kind = trunc.get("kind")
    if not isinstance(kind, str) or kind not in SIZE_KEYS:
        raise ConfigError("truncation.kind must be 'range' or 'simplex'")
    size_key = SIZE_KEYS[kind]
    if size_key in trunc and (prefer_size or "schedule" not in trunc):
        sizes = [trunc[size_key]]
    elif "schedule" in trunc:
        sizes = trunc["schedule"]
        if not isinstance(sizes, list) or not sizes:
            raise ConfigError("truncation.schedule must be a nonempty list")
    else:
        raise ConfigError(f"truncation needs '{size_key}' or 'schedule'")
    sizes = [truncation_size(v) for v in sizes]
    # nested sets, each level's inside the next: a sweep cuts every level from the last
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"truncation.schedule must be strictly increasing, got {sizes}")
    return [{"kind": kind, size_key: v} for v in sizes]


def cmd_run(cfg: dict, override: str | None) -> int:
    from . import __version__
    from .pipeline import run_pipeline

    envelopes = _bounds_options(cfg)
    truncation, return_set = _truncation_schedule(cfg, prefer_size=True)[0], _return_set(cfg)
    model, outdir = _build(cfg), _outdir(cfg, override)
    result = run_pipeline(model, truncation, envelopes=envelopes,
                          explicit_return_set=return_set)
    doc = {
        "library_version": __version__,
        "model": result.model_name,
        "truncation": result.truncation,
        "reports": {env: rep.to_dict() for env, rep in result.reports.items()},
        "return_sets": {env: {"k_size": len(result.certificates[env].return_set),
                              "k_star": result.certificates[env].k_star} for env in result.reports},
        "distribution": result.distribution,
        "timings": result.timings,
    }
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, cfg.get("output", {}).get("report", "report.json"))
    with open(path, "w") as fh:
        _dump_report(doc, fh)
    print(f"report written to {path}")
    for env, rep in result.reports.items():
        print(f"  [{env}] approx={rep.approx:.12g}  interval=[{rep.lower:.12g}, "
              f"{rep.upper:.12g}]  tv_bound={rep.tv_bound:.3e}  certified={rep.certified}")
    return 0


def _dump_report(doc: dict, fh) -> None:
    """Write ``json.dumps(doc, indent=1)`` for a doc whose ``distribution``, a
    state space and its masses, is written as ``{"states", "probability"}``.
    The int64 coordinates (of one width) and the finite masses are joined in
    C rather than by json's pure-Python indent encoder."""
    space, mass = doc["distribution"]
    n, d = space.coords.shape
    state = "%d" if d == 1 else "[\n" + ",\n".join(["    %d"] * d) + "\n   ]"
    states = ",\n   ".join([state] * n) % tuple(space.coords.ravel().tolist())
    masses = ",\n   ".join(map(float.__repr__, mass.tolist()))
    text = json.dumps({**doc, "distribution": {"states": "@S@", "probability": "@P@"}}, indent=1)
    for mark, joined in (("@S@", states), ("@P@", masses)):
        text = text.replace(f'"{mark}"', f"[\n   {joined}\n  ]", 1)
    fh.write(text)


def cmd_verify(cfg: dict, override: str | None) -> int:
    from .pipeline import verified_certificates

    envelopes, return_set, model = _bounds_options(cfg), _return_set(cfg), _build(cfg)
    certs = verified_certificates(model, envelopes, return_set)
    print(f"n1 = {model.drift.n1}\nn2 = {model.drift.n2}")
    for env, cert in certs.items():
        print(f"[{env}] k* = {cert.k_star:g}  |K| = {len(cert.return_set)}  verified")
    return 0


def cmd_sweep(cfg: dict, override: str | None) -> int:
    from .errors import NumericalError
    from .pipeline import SIZE_KEYS, run_sweep

    envelopes = _bounds_options(cfg)
    schedule, return_set = _truncation_schedule(cfg), _return_set(cfg)
    model, outdir = _build(cfg), _outdir(cfg, override)
    rows = []
    prev_tv = {env: None for env in envelopes}
    results = run_sweep(model, schedule, envelopes=envelopes,
                        explicit_return_set=return_set, with_distribution=False)
    for trunc, result in zip(schedule, results):
        row = {
            "truncation": trunc[SIZE_KEYS[trunc["kind"]]],
            "time_total": result.timings["total"],
        }
        for env, rep in result.reports.items():
            for key in ("lower", "upper", "approx", "tv_bound", "certified"):
                row[f"{env}_{key}"] = getattr(rep, key)
            for key, stage in (("censored", "censored_matrix"),
                               ("mixture", "mixture_family"), ("bounds", "bounds")):
                row[f"{env}_time_{key}"] = rep.timings.get(stage, 0.0)
            if prev_tv[env] is not None and rep.tv_bound > prev_tv[env] + MONOTONE_SLACK:
                raise NumericalError(f"tv bound for {env!r} increased along the schedule: "
                                     f"{prev_tv[env]:.6e} -> {rep.tv_bound:.6e}")
            prev_tv[env] = rep.tv_bound
        rows.append(row)
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, cfg.get("output", {}).get("csv", "sweep.csv"))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"sweep written to {path} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    from .errors import (CertificateError, IrreducibilityError, ModelError, NumericalError,
                         TruncboundError)

    try:
        cfg = _load_config(args.config)
        command = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
        # run and sweep make the output directory once their results are in
        return command(cfg, args.output_dir)
    except (ConfigError, ModelError) as exc:    # EnumerationLimitError among them
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (IrreducibilityError, CertificateError) as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, TruncboundError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
