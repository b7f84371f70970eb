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

Every subcommand takes ``--config``, ``--out`` and ``--grid``; the four
that propagate (all but fermi-integral) also take ``--method`` and
``--tol``.  Every subcommand writes a CSV plus a JSON summary that embeds
the run manifest (config snapshot, grid, tolerances, output names, and a
fingerprint hashing all of them).  Floats are printed with 17 significant
digits and no timestamps are recorded, so on one BLAS build at one thread
count a rerun of the same manifest is byte-identical on either backend.
Files go to temporaries after the computation and are renamed into place
once all are written: a run whose outputs cannot be written leaves none.

Config files are flat ``key = value`` text; keys are exactly the config
dataclass field names plus ``field_model`` (``continuum`` or ``lattice``),
and unknown keys are rejected outright.  Flags and the config file are a
run's only inputs.

Exit codes: 0 success, 2 configuration, usage or output-path error (or a
grid whose points repeat or exceed the subcommand's arithmetic, or whose
states or series table would not fit in physical memory), 3 numerical
non-convergence, 4 basis dimension overflow (or a photon-region sector, or
the dense eigendecomposition that only --method dense reaches, too large
for physical memory), 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

# the model stack (analysis, operators, propagator) is imported by the
# runners that use it, so fermi-integral loads only the quadrature
from .config import (DEFAULT_TOL, AnyConfig, LatticeConfig, ModelConfig, config_items,
                     make_time_grid)
from .errors import (ConfigError, ConvergenceError, DimensionError,
                     DomainError, TwoAtomError)
from .perturbation import (DEFAULT_QUAD_TOL, FREQUENCY_RANGES,
                           exchange_amplitude_series)

SCHEMA_VERSION = 1

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


def _missing_directories(directory: str) -> list[str]:
    """directory and each ancestor of it that does not exist yet, deepest first."""
    missing = []
    while directory and not os.path.lexists(directory):
        missing.append(directory)
        directory = os.path.dirname(directory)
    return missing


def _temporary_path(directory: str) -> str:
    return os.path.join(directory, f".tmp-twoatom-{os.urandom(8).hex()}")


def _write_outputs(files) -> None:
    """Write a fresh temporary beside each path, then rename them all into place.

    Temporaries are created with mode 0o666, so the umask applies just as it
    does to a plain open(path, "w").  A file a path already names is moved
    aside before the rename and deleted once every rename is done.  Any
    temporary left over is removed, and an OSError becomes ConfigError: a
    failed write undoes its renames in reverse order, restoring each file
    moved aside, so it leaves no file of the run, and no directory it
    created that is still empty.  A directory that existed before the call
    is never removed.
    """
    temps, created, renamed = [], [], []
    written = False
    try:
        for path, data in files:
            directory = os.path.dirname(path) or "."
            created += reversed(_missing_directories(directory))
            os.makedirs(directory, exist_ok=True)
            tmp = _temporary_path(directory)
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            temps.append(tmp)
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
        for tmp, (path, _) in zip(temps, files):
            aside = None
            # a directory stays where it is, for the rename to refuse
            if os.path.lexists(path) and not os.path.isdir(path):
                aside = _temporary_path(os.path.dirname(path) or ".")
                os.replace(path, aside)
            renamed.append((path, aside))
            os.replace(tmp, path)
        written = True
    except OSError as exc:
        raise ConfigError(f"cannot write outputs: {exc}") from exc
    finally:
        # after the last rename the old files go; after a failure each
        # comes back, and a new file with no predecessor goes
        for path, aside in reversed(renamed):
            with contextlib.suppress(OSError):
                if written:
                    if aside is not None:
                        os.unlink(aside)
                elif aside is None:
                    os.unlink(path)
                else:
                    os.replace(aside, path)
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if not written:
            # children before parents; rmdir refuses one that is not empty
            for directory in reversed(created):
                with contextlib.suppress(OSError):
                    os.rmdir(directory)


def _csv(rows, header: str) -> str:
    return "\n".join([header] + rows) + "\n"


def _manifest(subcommand: str, config: AnyConfig, outputs: dict, **extras) -> dict:
    manifest = {
        "subcommand": subcommand,
        "config": config_items(config),
        "outputs": outputs,
    }
    manifest.update(extras)
    import hashlib  # here: its OpenSSL would otherwise sit beside fermi-integral's quadrature
    manifest["fingerprint"] = hashlib.sha256(
        canonical_json(manifest).encode()).hexdigest()
    return manifest


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _parsed(args: argparse.Namespace, name: str, parse, default=None):
    """--name's text through parse, or default when the flag was not given.

    Parsed here rather than by argparse, so that a value parse refuses is a
    ConfigError: main returns 2 for it before any work.
    """
    text = getattr(args, name.replace("-", "_"))
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for --{name}: {text!r}") from exc


def _parse_pair(text: str, second=float) -> tuple:
    """'a,b' as (float(a), second(b))."""
    first, comma, rest = text.partition(",")
    if not comma:
        raise ValueError(text)
    return float(first), second(rest)


def _tolerance(text: str) -> float:
    """A tolerance: a finite, non-negative float."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(text)
    return value


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

    def subcommand(name, help, propagates=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--grid", help='time grid as "t_max,steps"')
        if propagates:
            p.add_argument("--method", choices=["auto", "dense", "krylov"], default="auto",
                           help="auto and krylov: the Chebyshev series; dense: the "
                                "eigendecomposition oracle (default %(default)s)")
            p.add_argument("--tol", help=f"propagation tolerance (default {DEFAULT_TOL:g}); "
                                         "below about 1e-14 it is met or missed by rounding")
        return p

    p = subcommand("simulate", "probability series for one observable")
    p.add_argument("--observable", choices=sorted(OBSERVABLE_CHOICES),
                   default="excitation_B", help="default %(default)s")
    p.add_argument("--region", help='photon_region bounds as "lo,hi"')
    p.add_argument("--dump-hamiltonian", action="store_true",
                   help="also write the Hamiltonian as text triplets")

    p = subcommand("dichotomy", "series plus zero/nonzero classification")
    p.add_argument("--observable", choices=sorted(OBSERVABLE_CHOICES),
                   default="excitation_B", help="default %(default)s")
    p.add_argument("--region", help='photon_region bounds as "lo,hi"')

    subcommand("weak-causality", "ensemble difference with and without the emitter")

    p = subcommand("fermi-integral", "second-order amplitude over one or both ranges",
                   propagates=False)
    p.add_argument("--range", choices=list(FREQUENCY_RANGES) + ["both"],
                   default="both", help="default %(default)s")
    p.add_argument("--quad-tol",
                   help=f"quadrature absolute error (default {DEFAULT_QUAD_TOL:g})")

    p = subcommand("cutoff-sweep", "excitation run across cutoff values")
    p.add_argument("--cutoffs",
                   help='comma list of cutoffs (default "4,8,16,32" x omega_a)')
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------
#
# Each runner computes what only its subcommand has and returns
# (config, csv_text, results, extra_files, manifest): the summary's own
# entries, any further files by name, and the manifest entries besides the
# subcommand, config and outputs.  _artifacts builds the rest for all five.


def _series_csv(series, value_name: str) -> str:
    """An analysis.ProbabilitySeries as ``t,<value_name>`` CSV."""
    rows = [f"{format_float(t)},{format_float(v)}"
            for t, v in zip(series.times, series.values)]
    return _csv(rows, f"t,{value_name}")


def _common_setup(args, default_steps: int = 800):
    """Config, time grid, and the manifest entries holding the grid."""
    config = load_config(args.config)
    grid_spec = _parsed(args, "grid", lambda text: _parse_pair(text, int))
    t_max, steps = grid_spec or (2.0 * config.light_cone_time, default_steps)
    grid = make_time_grid(t_max, steps)
    return config, grid, {"grid": {"t_max": t_max, "steps": steps}}


def _propagation(args, manifest: dict) -> tuple[str, float]:
    """--method and --tol, also recorded in the manifest entries."""
    tol = _parsed(args, "tol", _tolerance, default=DEFAULT_TOL)
    manifest.update(method=args.method, tolerances={"tol": tol})
    return args.method, tol


def _report_dict(report) -> dict:
    """The summary entries of an analysis.DichotomyReport."""
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


def _run_series(args):
    """simulate and dichotomy: one observable's series, summarized two ways."""
    from . import analysis

    config, grid, manifest = _common_setup(args)
    method, tol = _propagation(args, manifest)
    observable = OBSERVABLE_CHOICES[args.observable]
    region = _parsed(args, "region", _parse_pair)
    manifest.update(observable=observable, region=list(region) if region else None)
    series = analysis.probability_series(config, observable, grid,
                                         method=method, tol=tol, region=region)
    report = analysis.dichotomy_scan(series)
    results = {"observable": series.observable}
    extra_files = {}
    if args.subcommand == "dichotomy":
        manifest["tolerances"].update(epsilon_zero=report.epsilon_zero,
                                      floor=report.floor)
        results["report"] = _report_dict(report)
    else:
        results.update(classification=report.classification,
                       log_integral=report.log_integral,
                       max_value=float(series.values.max()),
                       final_value=float(series.values[-1]))
        if args.dump_hamiltonian:
            from .operators import format_triplets

            _, hamiltonian = analysis.build_model(config)
            extra_files["hamiltonian.txt"] = format_triplets(hamiltonian)
    return config, _series_csv(series, "value"), results, extra_files, manifest


def _run_weak_causality(args):
    from . import analysis

    config, grid, manifest = _common_setup(args)
    method, tol = _propagation(args, manifest)
    delta = analysis.weak_causality_difference(config, grid,
                                               method=method, tol=tol)
    cone = config.light_cone_time
    before = np.abs(delta.values[delta.times < 0.9 * cone])
    results = {
        "light_cone_time": cone,
        "max_abs_delta": float(np.max(np.abs(delta.values))),
        "max_abs_delta_before_cone": float(before.max()) if before.size else 0.0,
        "front": dataclasses.asdict(analysis.detect_front(delta)),
    }
    return config, _series_csv(delta, "delta"), results, {}, manifest


def _run_fermi_integral(args):
    config, grid, manifest = _common_setup(args, default_steps=160)
    quad_tol = _parsed(args, "quad-tol", _tolerance, default=DEFAULT_QUAD_TOL)
    ranges = list(FREQUENCY_RANGES) if args.range == "both" else [args.range]
    manifest.update(tolerances={"quad_tol": quad_tol}, ranges=ranges)

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
    results = {"light_cone_time": cone, "ranges": per_range}
    return config, _csv(rows, "t,amplitude_sq,range"), results, {}, manifest


def _run_cutoff_sweep(args):
    from . import analysis

    config, grid, manifest = _common_setup(args)
    method, tol = _propagation(args, manifest)
    cutoffs = _parsed(args, "cutoffs", _parse_float_list)
    if cutoffs is None:
        cutoffs = [m * config.omega_a for m in (4.0, 8.0, 16.0, 32.0)]
    manifest["cutoffs"] = list(cutoffs)
    result = analysis.cutoff_sweep(config, cutoffs, grid, method=method, tol=tol)
    rows = [",".join([
        format_float(row.cutoff),
        str(row.modes_retained),
        format_float(row.max_prob_before_cone)
        if row.max_prob_before_cone is not None else "",
        format_float(row.log_integral) if row.log_integral is not None else "",
        (row.error or "").replace(",", ";"),
    ]) for row in result.rows]
    results = {"trend": result.trend,
               "rows": [dataclasses.asdict(row) for row in result.rows]}
    header = "cutoff,modes_retained,max_prob_before_cone,log_integral,error"
    return config, _csv(rows, header), results, {}, manifest


_RUNNERS = {
    "simulate": _run_series,
    "dichotomy": _run_series,
    "weak-causality": _run_weak_causality,
    "fermi-integral": _run_fermi_integral,
    "cutoff-sweep": _run_cutoff_sweep,
}


def _artifacts(args) -> list[tuple[str, str]]:
    """(path, text) for every file of a run: CSV, JSON summary, extra files."""
    name = args.subcommand
    config, csv_text, results, extra_files, manifest_extras = _RUNNERS[name](args)
    stem = name.replace("-", "_")
    outputs = {"csv": f"{stem}.csv", "summary": f"{stem}.json"}
    outputs.update((os.path.splitext(f)[0], f) for f in extra_files)
    summary = {"schema_version": SCHEMA_VERSION,
               "manifest": _manifest(name, config, outputs, **manifest_extras),
               **results}
    texts = [csv_text, canonical_json(summary) + "\n", *extra_files.values()]
    return [(os.path.join(args.out, f), text)
            for f, text in zip(outputs.values(), texts)]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        files = _artifacts(args)
        _write_outputs(files)
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
