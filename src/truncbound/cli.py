"""Command-line driver: run | verify | sweep over a JSON experiment config.

Exit codes: 0 success, 1 config error, 2 assumption violated
(irreducibility / drift), 3 numerical failure (residual or denominator
guards).  Two runs of the same config produce identical report JSON except
for the timing fields.

The config format is documented in docs/config.schema.json; reports follow
docs/report.schema.json and sweep CSVs are plot-ready (one row per
truncation size).
"""

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
    model = cfg["model"]
    if "name" not in model:
        raise ConfigError("config model section needs a 'name'")
    return cfg


def _outdir(cfg: dict, override: str | None) -> str:
    out = override or os.environ.get("TRUNCBOUND_OUTDIR") \
        or cfg.get("output", {}).get("dir", ".")
    os.makedirs(out, exist_ok=True)
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


def _bounds_options(cfg: dict) -> tuple[list, str]:
    bounds = cfg.get("bounds", {})
    envelopes = bounds.get("rewards", ["r"])
    if not isinstance(envelopes, list) or not envelopes:
        raise ConfigError("bounds.rewards must name at least one reward")
    for env in envelopes:
        if env not in ("r", "e"):
            raise ConfigError(f"unknown reward {env!r} (use 'r' or 'e')")
    stoch = bounds.get("stochasticization", "row")
    if stoch not in ("row", "perron"):
        raise ConfigError("bounds.stochasticization must be 'row' or 'perron'")
    return envelopes, stoch


def _return_set(cfg: dict):
    rs = cfg.get("return_set", {"mode": "lyapunov"})
    mode = rs.get("mode", "lyapunov")
    if mode == "lyapunov":
        return None
    if mode == "explicit":
        states = rs.get("states")
        if not states:
            raise ConfigError("explicit return_set needs a nonempty 'states' list")
        return [tuple(s) if isinstance(s, list) else s for s in states]
    raise ConfigError(f"unknown return_set mode {mode!r}")


def _size(v) -> int:
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"truncation sizes must be integers, got {v!r}")
    return v


def _truncation_schedule(cfg: dict, *, prefer_size: bool = False) -> list[dict]:
    """The schedule's truncations, else the one of ``max``/``level``;
    ``prefer_size`` takes ``max``/``level`` over the schedule."""
    trunc = cfg["truncation"]
    kind = trunc.get("kind")
    if kind not in ("range", "simplex"):
        raise ConfigError("truncation.kind must be 'range' or 'simplex'")
    size_key = "max" if kind == "range" else "level"
    if size_key in trunc and (prefer_size or "schedule" not in trunc):
        sizes = [trunc[size_key]]
    elif "schedule" in trunc:
        sizes = trunc["schedule"]
        if not isinstance(sizes, list) or not sizes:
            raise ConfigError("truncation.schedule must be a nonempty list")
    else:
        raise ConfigError(f"truncation needs '{size_key}' or 'schedule'")
    return [{"kind": kind, size_key: _size(v)} for v in sizes]


def _single_truncation(cfg: dict) -> dict:
    return _truncation_schedule(cfg, prefer_size=True)[0]


def cmd_run(cfg: dict, override: str | None) -> int:
    from . import __version__
    from .lyapunov import _state_key
    from .pipeline import run_pipeline

    envelopes, stoch = _bounds_options(cfg)
    truncation, return_set = _single_truncation(cfg), _return_set(cfg)
    model = _build(cfg)
    outdir = _outdir(cfg, override)
    result = run_pipeline(model, truncation, envelopes=envelopes,
                          stochasticization=stoch, explicit_return_set=return_set)
    doc = {
        "library_version": __version__,
        "model": result.model_name,
        "truncation": result.truncation,
        "reports": {env: run.report.to_dict() for env, run in result.runs.items()},
        "return_sets": {env: {"k_size": run.k_size, "k_star": run.k_star}
                        for env, run in result.runs.items()},
        "distribution": {
            "states": [_state_key(s) for s in result.distribution_states],
            "probability": result.distribution_mass.tolist()
            if result.distribution_mass is not None else [],
        },
        "timings": result.timings,
    }
    path = os.path.join(outdir, cfg.get("output", {}).get("report", "report.json"))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"report written to {path}")
    for env, run in result.runs.items():
        rep = run.report
        print(f"  [{env}] approx={rep.approx:.12g}  interval=[{rep.lower:.12g}, "
              f"{rep.upper:.12g}]  tv_bound={rep.tv_bound:.3e}")
    return 0


def cmd_verify(cfg: dict, override: str | None) -> int:
    from .pipeline import verified_certificates

    envelopes, _ = _bounds_options(cfg)
    return_set = _return_set(cfg)
    model = _build(cfg)
    ly = model.lyapunov()
    radii = {k: getattr(ly, k) for k in ("n1", "n2", "n3") if hasattr(ly, k)}
    certs = verified_certificates(model, envelopes, return_set)
    for name, value in radii.items():
        print(f"{name} = {value}")
    for env, (cert, k_star) in certs.items():
        print(f"[{env}] k* = {k_star:g}  |K| = {len(cert.return_set)}  verified")
    return 0


def cmd_sweep(cfg: dict, override: str | None) -> int:
    from .pipeline import run_pipeline

    envelopes, stoch = _bounds_options(cfg)
    schedule, return_set = _truncation_schedule(cfg), _return_set(cfg)
    model = _build(cfg)
    outdir = _outdir(cfg, override)
    rows = []
    prev_tv = {env: None for env in envelopes}
    for trunc in schedule:
        result = run_pipeline(model, trunc, envelopes=envelopes,
                              stochasticization=stoch,
                              explicit_return_set=return_set,
                              with_distribution=False)
        size_key = "max" if trunc["kind"] == "range" else "level"
        row = {
            "truncation": trunc[size_key],
            "time_total": result.timings["total"],
        }
        for env, run in result.runs.items():
            rep = run.report
            row[f"{env}_lower"] = rep.lower
            row[f"{env}_upper"] = rep.upper
            row[f"{env}_approx"] = rep.approx
            row[f"{env}_tv_bound"] = rep.tv_bound
            row[f"{env}_time_censored"] = rep.timings.get("censored_matrix", 0.0)
            row[f"{env}_time_mixture"] = rep.timings.get("mixture_family", 0.0)
            row[f"{env}_time_bounds"] = rep.timings.get("bounds", 0.0)
            if prev_tv[env] is not None and rep.tv_bound > prev_tv[env] + MONOTONE_SLACK:
                from .errors import NumericalError

                raise NumericalError(
                    f"tv bound for {env!r} increased along the schedule: "
                    f"{prev_tv[env]:.6e} -> {rep.tv_bound:.6e}"
                )
            prev_tv[env] = rep.tv_bound
        rows.append(row)
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

    from .errors import (
        CertificateError,
        EnumerationLimitError,
        IrreducibilityError,
        ModelError,
        NumericalError,
        TruncboundError,
    )

    try:
        cfg = _load_config(args.config)
        command = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
        # run and sweep make the output directory once the config has parsed
        return command(cfg, args.output_dir)
    except (ConfigError, ModelError, EnumerationLimitError) as exc:
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
