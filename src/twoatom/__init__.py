"""Numerical laboratory for two localized atoms coupled to a quantized field.

The package builds truncated product-space models (two multi-level atoms,
a boson field in a periodic box or on a hopping chain), evolves them
exactly, and provides the diagnostics needed to study when excitation
probabilities can vanish: the zero/nonzero dichotomy forced on bounded
observables by a Hamiltonian with spectrum bounded below, ensemble
differences that isolate genuine signalling, and the second-order exchange
amplitude whose causality hinges on the frequency integration range.

Each public name is resolved from its submodule the first time it is
accessed (PEP 562).  ``import twoatom`` imports only ``config`` and
``errors``, so a caller that needs only the quadrature never loads the
model stack.
"""

import importlib

# config (with numpy and errors) loads with the package, since every
# submodule and subcommand needs it.  Loaded before the CLI's own module,
# it also keeps the model subcommands' peak RSS where the eager package had
# it: with nothing imported here, the import order alone left 0.1-0.15 MB
# more resident memory (measured without bytecode caching)
from . import config  # noqa: F401

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "basis": ("FockBasis", "build_basis", "index_of_bare_state"),
    "config": ("COUPLING_FORMS", "AnyConfig", "LatticeConfig", "ModelConfig",
               "ModeTable", "config_items", "make_time_grid", "mode_table"),
    "errors": ("BasisLookupError", "ConfigError", "ConvergenceError",
               "DimensionError", "DomainError", "TwoAtomError"),
    "operators": ("BoundedObservable", "HermitianOperator", "build_hamiltonian",
                  "exchange_projector", "excitation_observable_b", "format_triplets",
                  "gershgorin_bounds", "local_photon_observable"),
    "propagator": ("evolve_grid", "expectation_grid", "prepare_initial_state"),
    "perturbation": ("FREQUENCY_RANGES", "AmplitudeSeries", "exchange_amplitude_series",
                     "mode_sum_amplitude", "oscillatory_kernel",
                     "second_order_time_kernel"),
    "analysis": ("CutoffRow", "CutoffSweepResult", "DichotomyReport", "FrontDetection",
                 "PerturbativeComparison", "ProbabilitySeries", "ZeroCandidate",
                 "build_model", "cutoff_sweep", "detect_front", "dichotomy_scan",
                 "log_integral", "perturbative_vs_exact", "probability_series",
                 "resolve_observable", "series_from_operators",
                 "weak_causality_difference"),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
