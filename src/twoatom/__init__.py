"""Numerical laboratory for two localized atoms coupled to a quantized field.

The package builds truncated product-space models (two multi-level atoms,
a boson field in a periodic box or on a hopping chain), evolves them
exactly, and provides the diagnostics needed to study when excitation
probabilities can vanish: the zero/nonzero dichotomy forced on bounded
observables by a Hamiltonian with spectrum bounded below, ensemble
differences that isolate genuine signalling, and the second-order exchange
amplitude whose causality hinges on the frequency integration range.
"""

from .basis import FockBasis, build_basis, index_of_bare_state
from .config import (COUPLING_FORMS, AnyConfig, LatticeConfig, ModelConfig,
                     ModeTable, config_items, mode_table)
from .errors import (BasisLookupError, ConfigError, ConvergenceError,
                     DimensionError, DomainError, TwoAtomError)
from .operators import (BoundedObservable, HermitianOperator, build_hamiltonian,
                        exchange_projector, excitation_observable_b,
                        format_triplets, gershgorin_bounds, local_photon_observable)
from .propagator import evolve_grid, expectation_grid, prepare_initial_state
from .perturbation import (FREQUENCY_RANGES, AmplitudeSeries,
                           exchange_amplitude_series, mode_sum_amplitude,
                           oscillatory_kernel, second_order_time_kernel)
from .analysis import (CutoffRow, CutoffSweepResult, DichotomyReport,
                       FrontDetection, PerturbativeComparison, ProbabilitySeries,
                       ZeroCandidate, build_model,
                       cutoff_sweep, detect_front, dichotomy_scan, log_integral,
                       make_time_grid, perturbative_vs_exact, probability_series,
                       resolve_observable, series_from_operators,
                       weak_causality_difference)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeSeries", "AnyConfig", "BasisLookupError", "BoundedObservable",
    "COUPLING_FORMS", "ConfigError", "ConvergenceError", "CutoffRow",
    "CutoffSweepResult", "DichotomyReport", "DimensionError", "DomainError",
    "FREQUENCY_RANGES", "FockBasis", "FrontDetection", "HermitianOperator",
    "LatticeConfig", "ModeTable", "ModelConfig", "PerturbativeComparison",
    "ProbabilitySeries", "TwoAtomError", "ZeroCandidate",
    "build_basis", "build_hamiltonian", "build_model",
    "config_items", "cutoff_sweep", "detect_front",
    "dichotomy_scan", "evolve_grid",
    "exchange_amplitude_series", "exchange_projector",
    "excitation_observable_b", "expectation_grid",
    "format_triplets", "gershgorin_bounds", "index_of_bare_state", "local_photon_observable",
    "log_integral", "make_time_grid", "mode_sum_amplitude", "mode_table",
    "oscillatory_kernel", "perturbative_vs_exact", "prepare_initial_state",
    "probability_series", "resolve_observable",
    "second_order_time_kernel", "series_from_operators",
    "weak_causality_difference",
]
