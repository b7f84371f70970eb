"""Which public names the traced run wraps, and the per-layer metrics.

The boundaries are the names one layer calls in the next, patched where the
caller looks them up (``twoatom.analysis.evolve_grid`` rather than
``twoatom.propagator.evolve_grid``), so the program itself is unchanged.
"""

from __future__ import annotations

from tracer import Boundary, self_time_by_name


def _basis_built(tracer, args, kwargs, basis):
    tracer.set("basis.dim", basis.dimension)
    tracer.add("analysis.model_builds")


def _hamiltonian_built(tracer, args, kwargs, hamiltonian):
    tracer.set("operators.nnz", hamiltonian.matrix.nnz)


def _observable_built(tracer, args, kwargs, observable):
    factor = observable.sqrt_factor if observable.sqrt_factor is not None else observable.matrix
    tracer.set("operators.observable_nnz", factor.nnz)


def _eigensystem_called(tracer, args, kwargs, result):
    # eigensystem() caches on the operator: only the first call per
    # operator runs eigh
    if tracer.first_time(("eigh", id(args[0]))):
        tracer.add("operators.eigh_calls")


def _evolved(tracer, args, kwargs, states):
    tracer.add("propagator.points", len(states))


def _quad_name(args, kwargs):
    return "perturbation.quad." + kwargs.get("frequency_range", "positive_only")


def _quad_done(tracer, args, kwargs, series):
    tracer.set("perturbation.achieved_error." + series.frequency_range,
               series.achieved_error)
    tracer.set("perturbation.times", len(series.times))


BOUNDARIES = (
    Boundary("twoatom.analysis", "probability_series", "analysis.series"),
    Boundary("twoatom.analysis", "dichotomy_scan", "analysis.scan"),
    Boundary("twoatom.analysis", "build_basis", "basis.build", _basis_built),
    Boundary("twoatom.analysis", "build_hamiltonian", "operators.assemble",
             _hamiltonian_built),
    Boundary("twoatom.analysis", "excitation_observable_b", "operators.observable",
             _observable_built),
    Boundary("twoatom.analysis", "exchange_projector", "operators.observable",
             _observable_built),
    Boundary("twoatom.analysis", "local_photon_observable", "operators.observable",
             _observable_built),
    Boundary("twoatom.operators", "HermitianOperator.eigensystem", "operators.eigh",
             _eigensystem_called),
    Boundary("twoatom.analysis", "evolve_grid", "propagator.evolve", _evolved),
    Boundary("twoatom.analysis", "expectation_grid", "propagator.expect"),
    Boundary("twoatom.cli", "exchange_amplitude_series", _quad_name, _quad_done),
)

# per-layer metric -> span whose self time it reports
SELF_TIME_METRICS = {
    "basis.build_s": "basis.build",
    "operators.assemble_s": "operators.assemble",
    "operators.observable_s": "operators.observable",
    "operators.eigh_s": "operators.eigh",
    "propagator.evolve_s": "propagator.evolve",
    "propagator.expect_s": "propagator.expect",
    "analysis.scan_s": "analysis.scan",
    "analysis.self_s": "analysis.series",
    "perturbation.quad_s.positive_only": "perturbation.quad.positive_only",
    "perturbation.quad_s.extended": "perturbation.quad.extended",
    "cli.import_s": "cli.import",
    "cli.self_s": "cli.main",
}

COUNTERS = (
    "basis.dim", "operators.nnz", "operators.observable_nnz",
    "operators.eigh_calls", "propagator.points", "analysis.model_builds",
    "perturbation.achieved_error.positive_only",
    "perturbation.achieved_error.extended", "perturbation.times",
)


def layer_metrics(spans, counters: dict, traced_wall: float,
                  untraced_wall: float, bytes_written: int) -> dict[str, float]:
    """Per-layer values of one traced process.

    ``trace.interpreter_s`` is the traced wall time outside every span:
    interpreter start-up and exit, which an untraced process pays as well.
    """
    own = self_time_by_name(spans)
    values = {metric: own.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
    values.update({name: counters.get(name, 0) for name in COUNTERS})
    values["cli.bytes_written"] = bytes_written
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.interpreter_s"] = traced_wall - sum(own.values())
    return values
