"""Config-driven command line front end with reproducible artifacts.

Subcommands
-----------
simulate        probability series for one observable (CSV: t,value)
dichotomy       series plus the zero/nonzero classification report
weak-causality  two-run ensemble difference and front detection (CSV: t,delta)
fermi-integral  second-order amplitude for one or both frequency ranges
                (CSV: t,amplitude_sq,range)
cutoff-sweep    repeat the excitation run across cutoffs (CSV: one row per
                cutoff) with a trend report

Every subcommand writes a CSV plus a JSON summary that embeds the run
manifest (config snapshot, grid, tolerances, output names, and a
fingerprint hashing all of them).  Floats are printed with 17 significant
digits and no timestamps are recorded, so a rerun of the same manifest on
the dense path is byte-identical.  Files are written to temporaries and
renamed into place only after the computation succeeded.

Config files are flat ``key = value`` text; keys are exactly the config
dataclass field names plus ``field_model`` (``continuum`` or ``lattice``),
and unknown keys are rejected outright.  Every flag can also be supplied
through an environment variable with the ``TWOATOM_`` prefix (for example
``TWOATOM_GRID``); explicit flags win over the environment.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical
non-convergence, 4 basis dimension overflow, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import analysis
from .config import AnyConfig, LatticeConfig, ModelConfig, config_items
from .errors import (ConfigError, ConvergenceError, DimensionError,
                     DomainError, TwoAtomError)
from .operators import format_triplets
from .perturbation import (DEFAULT_QUAD_TOL, FREQUENCY_RANGES,
                           exchange_amplitude_series)
from .propagator import DEFAULT_TOL

SCHEMA_VERSION = 1
ENV_PREFIX = "TWOATOM_"

OBSERVABLE_CHOICES = {
    "excitation_B": "excitation_b",
    "exchange": "exchange",
    "photon_region": "photon_region",
}

_FIELD_MODELS = {"continuum": ModelConfig, "lattice": LatticeConfig}
_CONVERTERS = {"int": int, "float": float, "str": str}


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------


def parse_config_text(text: str, source: str = "<config>") -> AnyConfig:
    """Parse flat ``key = value`` lines into a model config.

    ``field_model`` picks the config class (default continuum); all other
    keys must exactly match that class's field names.  Unknown keys,
    duplicate keys, and unparsable values are configuration errors.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        entries[key] = value

    model_name = entries.pop("field_model", "continuum")
    if model_name not in _FIELD_MODELS:
        raise ConfigError(
            f"{source}: field_model must be one of {sorted(_FIELD_MODELS)}, "
            f"got {model_name!r}")
    cls = _FIELD_MODELS[model_name]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in entries.items():
        if key not in fields:
            raise ConfigError(
                f"{source}: unknown key {key!r} for field_model={model_name}; "
                f"valid keys: {', '.join(sorted(fields))}")
        converter = _CONVERTERS.get(str(fields[key].type), str)
        try:
            kwargs[key] = converter(value)
        except ValueError as exc:
            raise ConfigError(f"{source}: bad value for {key!r}: {value!r}") from exc
    return cls(**kwargs)


def load_config(path: str | None) -> AnyConfig:
    if path is None:
        return ModelConfig()
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=path)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def format_float(value: float) -> str:
    return format(float(value), ".17g")


def canonical_json(obj) -> str:
    """JSON with sorted keys and floats at 17 significant digits."""
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v) or math.isinf(v):
            raise ValueError("non-finite float in JSON output")
        return format_float(v)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {canonical_json(v)}" for k, v in items) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-twoatom-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows, header: str) -> str:
    return "\n".join([header] + rows) + "\n"


def _manifest(subcommand: str, config: AnyConfig, outputs: dict, **extras) -> dict:
    manifest = {
        "subcommand": subcommand,
        "config": config_items(config),
        "outputs": outputs,
    }
    manifest.update(extras)
    manifest["fingerprint"] = hashlib.sha256(
        canonical_json(manifest).encode()).hexdigest()
    return manifest


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _env(name: str):
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))


def _resolve(args: argparse.Namespace, name: str, default=None, convert=str):
    """Flag beats environment beats default."""
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        value = _env(name)
    if value is None:
        return default
    if isinstance(value, str):
        try:
            return convert(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for --{name}: {value!r}") from exc
    return value


def _parse_grid(text: str) -> tuple[float, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(text)
    return float(parts[0]), int(parts[1])


def _parse_region(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(text)
    return float(parts[0]), float(parts[1])


def _parse_float_list(text: str) -> list[float]:
    values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(text)
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoatom",
        description="numerical experiments on two atoms coupled to a field")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--grid", help='time grid as "t_max,steps"')
        p.add_argument("--method", choices=["auto", "dense", "krylov"],
                       help="propagation backend (default auto)")
        p.add_argument("--tol", help=f"propagation tolerance (default {DEFAULT_TOL:g})")

    p = sub.add_parser("simulate", help="probability series for one observable")
    common(p)
    p.add_argument("--observable", choices=sorted(OBSERVABLE_CHOICES),
                   help="default excitation_B")
    p.add_argument("--region", help='photon_region bounds as "lo,hi"')
    p.add_argument("--dump-hamiltonian", action="store_true", default=None,
                   help="also write the Hamiltonian as text triplets")

    p = sub.add_parser("dichotomy", help="series plus zero/nonzero classification")
    common(p)
    p.add_argument("--observable", choices=sorted(OBSERVABLE_CHOICES),
                   help="default excitation_B")
    p.add_argument("--region", help='photon_region bounds as "lo,hi"')

    p = sub.add_parser("weak-causality",
                       help="ensemble difference with and without the emitter")
    common(p)

    p = sub.add_parser("fermi-integral",
                       help="second-order amplitude over one or both ranges")
    common(p)
    p.add_argument("--range", choices=list(FREQUENCY_RANGES) + ["both"],
                   help="default both")
    p.add_argument("--quad-tol",
                   help=f"quadrature absolute error (default {DEFAULT_QUAD_TOL:g})")

    p = sub.add_parser("cutoff-sweep", help="excitation run across cutoff values")
    common(p)
    p.add_argument("--cutoffs",
                   help='comma list of cutoffs (default "4,8,16,32" x omega_a)')
    p.add_argument("--workers", help="parallel rows (default 1)")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _series_csv(series: analysis.ProbabilitySeries, value_name: str) -> str:
    rows = [f"{format_float(t)},{format_float(v)}"
            for t, v in zip(series.times, series.values)]
    return _csv(rows, f"t,{value_name}")


def _observable(args) -> str:
    name = _resolve(args, "observable", default="excitation_B")
    if name not in OBSERVABLE_CHOICES:
        raise ConfigError(
            f"observable must be one of {sorted(OBSERVABLE_CHOICES)}, got {name!r}")
    return OBSERVABLE_CHOICES[name]


def _common_setup(args, default_steps: int = 800):
    config = load_config(_resolve(args, "config"))
    out_dir = _resolve(args, "out", default=".")
    grid_spec = _resolve(args, "grid", convert=_parse_grid)
    if grid_spec is None:
        grid_spec = (2.0 * config.light_cone_time, default_steps)
    t_max, steps = grid_spec
    grid = analysis.make_time_grid(t_max, steps)
    method = _resolve(args, "method", default="auto")
    tol = _resolve(args, "tol", default=DEFAULT_TOL, convert=float)
    return config, out_dir, grid, (t_max, steps), method, tol


def _report_dict(report: analysis.DichotomyReport) -> dict:
    return {
        "classification": report.classification,
        "num_zero_candidates": len(report.zero_candidates),
        "num_isolated_zero_candidates": sum(
            1 for c in report.zero_candidates if c.isolated),
        "interior_plateaus": [list(p) for p in report.interior_plateaus],
        "log_integral": report.log_integral,
        "floor_dominated": report.floor_dominated,
        "epsilon_zero": report.epsilon_zero,
        "floor": report.floor,
    }


def _run_series(args) -> list[tuple[str, str]]:
    """simulate and dichotomy: one observable's series, summarized two ways."""
    name = args.subcommand
    config, out_dir, grid, grid_spec, method, tol = _common_setup(args)
    observable = _observable(args)
    region = _resolve(args, "region", convert=_parse_region)
    dump = name == "simulate" and bool(
        _resolve(args, "dump-hamiltonian", default=False,
                 convert=lambda s: s.lower() in ("1", "true", "yes")))
    series = analysis.probability_series(config, observable, grid,
                                         method=method, tol=tol, region=region)
    report = analysis.dichotomy_scan(series)
    outputs = {"csv": f"{name}.csv", "summary": f"{name}.json"}
    if dump:
        outputs["hamiltonian"] = "hamiltonian.txt"
    tolerances = {"tol": tol}
    if name == "dichotomy":
        tolerances.update(epsilon_zero=report.epsilon_zero, floor=report.floor)
    manifest = _manifest(name, config, outputs,
                         grid={"t_max": grid_spec[0], "steps": grid_spec[1]},
                         tolerances=tolerances, method=method,
                         observable=observable,
                         region=list(region) if region else None)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "observable": series.observable,
    }
    if name == "dichotomy":
        summary["report"] = _report_dict(report)
    else:
        summary.update(classification=report.classification,
                       log_integral=report.log_integral,
                       max_value=float(series.values.max()),
                       final_value=float(series.values[-1]))
    files = [(os.path.join(out_dir, outputs["csv"]), _series_csv(series, "value")),
             (os.path.join(out_dir, outputs["summary"]), canonical_json(summary) + "\n")]
    if dump:
        _, hamiltonian = analysis.build_model(config)
        files.append((os.path.join(out_dir, outputs["hamiltonian"]),
                      format_triplets(hamiltonian)))
    return files


def _run_weak_causality(args) -> list[tuple[str, str]]:
    config, out_dir, grid, grid_spec, method, tol = _common_setup(args)
    delta = analysis.weak_causality_difference(config, grid,
                                               method=method, tol=tol)
    front = analysis.detect_front(delta)
    cone = config.light_cone_time
    before = np.abs(delta.values[delta.times < 0.9 * cone])
    outputs = {"csv": "weak_causality.csv", "summary": "weak_causality.json"}
    manifest = _manifest("weak-causality", config, outputs,
                         grid={"t_max": grid_spec[0], "steps": grid_spec[1]},
                         tolerances={"tol": tol}, method=method)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "light_cone_time": cone,
        "max_abs_delta": float(np.max(np.abs(delta.values))),
        "max_abs_delta_before_cone": float(before.max()) if before.size else 0.0,
        "front": {
            "detected": front.detected,
            "arrival_time": front.arrival_time,
            "uncertainty": front.uncertainty,
            "threshold": front.threshold,
            "max_abs": front.max_abs,
        },
    }
    return [(os.path.join(out_dir, outputs["csv"]), _series_csv(delta, "delta")),
            (os.path.join(out_dir, outputs["summary"]), canonical_json(summary) + "\n")]


def _run_fermi_integral(args) -> list[tuple[str, str]]:
    config, out_dir, grid, grid_spec, _, _ = _common_setup(args, default_steps=160)
    quad_tol = _resolve(args, "quad-tol", default=DEFAULT_QUAD_TOL, convert=float)
    choice = _resolve(args, "range", default="both")
    ranges = list(FREQUENCY_RANGES) if choice == "both" else [choice]

    rows = []
    per_range = {}
    cone = config.light_cone_time
    for frequency_range in ranges:
        series = exchange_amplitude_series(config, grid,
                                           frequency_range=frequency_range,
                                           tol=quad_tol)
        mags = np.abs(series.values) ** 2
        before = np.abs(series.values[series.times < cone])
        per_range[frequency_range] = {
            "max_abs_amplitude": float(np.max(np.abs(series.values))),
            "max_abs_before_light_cone": float(before.max()) if before.size else 0.0,
            "achieved_error": series.achieved_error,
        }
        rows += [f"{format_float(t)},{format_float(m)},{frequency_range}"
                 for t, m in zip(series.times, mags)]

    outputs = {"csv": "fermi_integral.csv", "summary": "fermi_integral.json"}
    manifest = _manifest("fermi-integral", config, outputs,
                         grid={"t_max": grid_spec[0], "steps": grid_spec[1]},
                         tolerances={"quad_tol": quad_tol},
                         ranges=ranges)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "light_cone_time": cone,
        "ranges": per_range,
    }
    return [(os.path.join(out_dir, outputs["csv"]),
             _csv(rows, "t,amplitude_sq,range")),
            (os.path.join(out_dir, outputs["summary"]), canonical_json(summary) + "\n")]


def _run_cutoff_sweep(args) -> list[tuple[str, str]]:
    config, out_dir, grid, grid_spec, method, tol = _common_setup(args)
    if not isinstance(config, ModelConfig):
        raise ConfigError("cutoff-sweep requires a continuum (box field) config")
    cutoffs = _resolve(args, "cutoffs", convert=_parse_float_list)
    if cutoffs is None:
        cutoffs = [m * config.omega_a for m in (4.0, 8.0, 16.0, 32.0)]
    workers = _resolve(args, "workers", default=1, convert=int)
    result = analysis.cutoff_sweep(config, cutoffs, grid, method=method,
                                   tol=tol, workers=workers)
    rows = []
    for row in result.rows:
        rows.append(",".join([
            format_float(row.cutoff),
            str(row.modes_retained),
            format_float(row.max_prob_before_cone)
            if row.max_prob_before_cone is not None else "",
            format_float(row.log_integral) if row.log_integral is not None else "",
            (row.error or "").replace(",", ";"),
        ]))
    outputs = {"csv": "cutoff_sweep.csv", "summary": "cutoff_sweep.json"}
    manifest = _manifest("cutoff-sweep", config, outputs,
                         grid={"t_max": grid_spec[0], "steps": grid_spec[1]},
                         tolerances={"tol": tol}, method=method,
                         cutoffs=list(cutoffs), workers=workers)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "trend": result.trend,
        "rows": [{
            "cutoff": row.cutoff,
            "modes_retained": row.modes_retained,
            "max_prob_before_cone": row.max_prob_before_cone,
            "log_integral": row.log_integral,
            "error": row.error,
        } for row in result.rows],
    }
    return [(os.path.join(out_dir, outputs["csv"]),
             _csv(rows, "cutoff,modes_retained,max_prob_before_cone,log_integral,error")),
            (os.path.join(out_dir, outputs["summary"]), canonical_json(summary) + "\n")]


_RUNNERS = {
    "simulate": _run_series,
    "dichotomy": _run_series,
    "weak-causality": _run_weak_causality,
    "fermi-integral": _run_fermi_integral,
    "cutoff-sweep": _run_cutoff_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        files = _RUNNERS[args.subcommand](args)
        for path, _ in files:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
        for path, data in files:
            _atomic_write(path, data)
        for path, _ in files:
            print(path)
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"twoatom: config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"twoatom: did not converge: {exc}", file=sys.stderr)
        return 3
    except DimensionError as exc:
        print(f"twoatom: model too large: {exc}", file=sys.stderr)
        return 4
    except TwoAtomError as exc:
        print(f"twoatom: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
