"""Output checks applied to every timed run.

Each check returns a list of problems; an empty list is a pass.  The model
workloads are compared with the same run on the other propagation backend
(the oracle), point by point, to the acceptance-criterion-6 bound.  Where
``results/reference.json`` holds a series recorded for the same config, they
are also compared with it to the same bound; that catches an error in a layer
both backends share.  The quadrature workload is checked against its own
error gate and against the frequency-range dichotomy well before the light
cone.
"""

from __future__ import annotations

import numpy as np

P_TOL = 1e-10              # |dP| bound of acceptance criterion 6
# "Well before the front" is t < R - PRE_FRONT_CUTOFFS / cutoff.  The
# cutoff smears the extended-range front over a time set by 1/cutoff, not
# by R, so a fixed fraction of R would reach into the smeared front at
# small separations.  At the defaults (R = pi, cutoff 16) this is t < 0.80 R.
PRE_FRONT_CUTOFFS = 10.0
EXTENDED_PRE_FRONT_MAX = 1e-14
POSITIVE_ONLY_PRE_FRONT_MIN = 1e-7


def read_series(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) from a two-column ``t,value`` CSV."""
    rows = [line.split(",") for line in text.splitlines()[1:] if line]
    data = np.array([[float(t), float(v)] for t, v in rows])
    return data[:, 0], data[:, 1]


def read_fermi(text: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """range -> (times, |A|^2) from a ``t,amplitude_sq,range`` CSV."""
    out: dict[str, list[tuple[float, float]]] = {}
    for line in text.splitlines()[1:]:
        if not line:
            continue
        t, value, frequency_range = line.split(",")
        out.setdefault(frequency_range, []).append((float(t), float(value)))
    return {r: (np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))
            for r, pts in out.items()}


def check_against_oracle(csv_text: str, oracle_csv_text: str,
                         tol: float = P_TOL) -> list[str]:
    times, values = read_series(csv_text)
    oracle_times, oracle_values = read_series(oracle_csv_text)
    if not np.array_equal(times, oracle_times):
        return ["time grid differs from the oracle's"]
    gap = float(np.max(np.abs(values - oracle_values)))
    if not gap <= tol:
        return [f"max |dP| {gap:.3g} vs oracle exceeds {tol:g}"]
    return []


def check_against_reference(csv_text: str, entry: dict, tol: float = P_TOL) -> list[str]:
    """Compare with a recorded series: same grid, every ``stride``-th value."""
    times, values = read_series(csv_text)
    if len(times) != entry["points"] or float(times[-1]) != entry["t_max"]:
        return ["time grid differs from the recorded reference's"]
    recorded = np.array(entry["values"])
    gap = float(np.max(np.abs(values[::entry["stride"]] - recorded)))
    if not gap <= tol:
        return [f"max |dP| {gap:.3g} vs recorded reference exceeds {tol:g}"]
    return []


def check_dichotomy(summary: dict) -> list[str]:
    report = summary["report"]
    problems = []
    if report["classification"] != "nonzero_almost_everywhere":
        problems.append(f"classification {report['classification']!r}")
    if report["interior_plateaus"]:
        problems.append(f"{len(report['interior_plateaus'])} interior plateaus")
    return problems


def check_fermi(csv_text: str, summary: dict) -> list[str]:
    problems = []
    quad_tol = summary["manifest"]["tolerances"]["quad_tol"]
    for frequency_range, entry in sorted(summary["ranges"].items()):
        if not entry["achieved_error"] <= quad_tol:
            problems.append(f"{frequency_range}: achieved_error "
                            f"{entry['achieved_error']:.3g} > quad_tol {quad_tol:g}")
    series = read_fermi(csv_text)
    if set(series) != {"positive_only", "extended"}:
        return problems + [f"ranges in CSV: {sorted(series)}"]
    cutoff = summary["manifest"]["config"]["cutoff"]
    front = summary["light_cone_time"] - PRE_FRONT_CUTOFFS / cutoff
    pre = {r: a[t < front] for r, (t, a) in series.items()}
    extended = float(np.max(pre["extended"]))
    positive = float(np.max(pre["positive_only"]))
    if not extended <= EXTENDED_PRE_FRONT_MAX:
        problems.append(f"extended |A|^2 {extended:.3g} well before "
                        f"the front exceeds {EXTENDED_PRE_FRONT_MAX:g}")
    if not positive >= POSITIVE_ONLY_PRE_FRONT_MIN:
        problems.append(f"positive_only |A|^2 {positive:.3g} well before "
                        f"the front is below {POSITIVE_ONLY_PRE_FRONT_MIN:g}")
    return problems


def check_outputs(workload_name: str, csv_text: str, summary: dict,
                  oracle_csv_text: str | None,
                  reference: dict | None = None) -> list[str]:
    """All checks that apply to one workload's outputs."""
    if workload_name == "fermi-both":
        return check_fermi(csv_text, summary)
    problems = check_against_oracle(csv_text, oracle_csv_text)
    if reference is not None:
        problems += check_against_reference(csv_text, reference)
    if workload_name == "dense-photon":
        problems += check_dichotomy(summary)
    return problems
