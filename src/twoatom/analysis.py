"""Causality diagnostics built on top of the propagator.

The central objects are probability time series P(t) = <psi_t|O|psi_t> for
bounded observables O.  For a Hamiltonian bounded below, such a series is
either identically zero or nonzero at almost every time; an isolated stretch
of machine zeros between nonzero values is therefore a numerical artifact,
never a causal "quiet period".  The helpers here classify series against
that dichotomy, attach the discrete log-integral witness (a finite value of
integral ln P(t) / (1 + t^2) dt is what forbids extended zero intervals),
difference two-atom runs against atom-free runs, locate signal fronts, and
compare the second-order exchange probability with the propagated one.

States are plain real or complex arrays over the basis.  A series is one
propagator.chebyshev_expectation call, which forms no state; on the dense
oracle it is one propagator.evolve_grid call, whose states meet the
observable in propagator.expectation_grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import build_basis, index_of_bare_state
from .config import DEFAULT_TOL, AnyConfig, ModelConfig, checked_times, mode_table
from .errors import ConfigError, DomainError, TwoAtomError
from .operators import (BoundedObservable, HermitianOperator, build_hamiltonian,
                        exchange_projector, excitation_observable_b,
                        local_photon_observable)
from .perturbation import mode_sum_amplitude
from .propagator import (chebyshev_expectation, evolve_grid, expectation_grid,
                         prepare_initial_state)

DEFAULT_EPSILON_ZERO = 1e-12
DEFAULT_FLOOR = 1e-30
DEFAULT_FRONT_FRACTION = 0.01
# Second-order probabilities above this are treated as strong coupling: the
# neglected fourth-order terms enter at relative size ~sqrt(p), so beyond
# p ~ 1e-2 the truncation is no longer decisively small.
WEAK_COUPLING_BOUND = 1e-2

OBSERVABLE_NAMES = ("excitation_b", "exchange", "photon_region")

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class ProbabilitySeries:
    """Sampled expectation values over a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray
    observable: str
    signed: bool = False

    def __post_init__(self):
        times = checked_times(self.times, np.finfo(float).max)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be matching 1-D arrays")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("time grid must be strictly increasing")
        lo = -1.0 - _BOUND_SLACK if self.signed else -_BOUND_SLACK
        if values.size and (values.min() < lo or values.max() > 1.0 + _BOUND_SLACK):
            raise ValueError("series values escape the unit range")

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class ZeroCandidate:
    index: int
    time: float
    value: float
    left_value: float | None
    right_value: float | None
    isolated: bool


@dataclass(frozen=True)
class DichotomyReport:
    classification: str  # "identically_zero" or "nonzero_almost_everywhere"
    zero_candidates: tuple[ZeroCandidate, ...]
    interior_plateaus: tuple[tuple[int, int], ...]
    log_integral: float
    floor_dominated: bool
    epsilon_zero: float
    floor: float


@dataclass(frozen=True)
class FrontDetection:
    detected: bool
    arrival_time: float | None
    uncertainty: float
    threshold: float
    max_abs: float


@dataclass(frozen=True)
class PerturbativeComparison:
    times: np.ndarray
    exact_probability: np.ndarray
    perturbative_probability: np.ndarray
    max_abs_difference: float
    coupling_note: str | None


@dataclass(frozen=True)
class CutoffRow:
    cutoff: float
    modes_retained: int
    max_prob_before_cone: float | None
    log_integral: float | None
    error: str | None = None


@dataclass(frozen=True)
class CutoffSweepResult:
    rows: tuple[CutoffRow, ...]
    trend: str


# ---------------------------------------------------------------------------
# the model in use
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_model(config: AnyConfig):
    """(basis, hamiltonian) for a config; only the last one built is kept,
    the one a run re-reads (resolve_observable, the Hamiltonian dump)."""
    basis = build_basis(config)
    return basis, build_hamiltonian(basis)


def resolve_observable(config: AnyConfig, observable, region=None) -> BoundedObservable:
    """Accept an observable instance or one of the documented names.

    region bounds photon_region; with any other observable it raises
    ConfigError.  An unknown name, a region with another observable and
    photon_region on a lattice config are refused before a model is built.
    """
    if region is not None and observable != "photon_region":
        raise ConfigError(f"a region applies to photon_region only, not to "
                          f"{getattr(observable, 'label', observable)!r}")
    if isinstance(observable, BoundedObservable):
        return observable
    if observable not in OBSERVABLE_NAMES:
        raise ConfigError(
            f"unknown observable {observable!r}; expected one of {OBSERVABLE_NAMES}"
        )
    if observable == "photon_region" and not isinstance(config, ModelConfig):
        raise DomainError("photon_region is defined for the box field only")
    basis, _ = build_model(config)
    if observable == "excitation_b":
        return excitation_observable_b(basis)
    if observable == "exchange":
        return exchange_projector(basis)
    if region is None:
        region = (0.0, config.box_length / 2.0)
    return local_photon_observable(basis, (float(region[0]), float(region[1])))


# ---------------------------------------------------------------------------
# series construction
# ---------------------------------------------------------------------------


def _check_method(method: str) -> None:
    if method not in ("auto", "dense", "krylov"):
        raise DomainError(f"unknown propagation method {method!r}")


def series_from_operators(hamiltonian: HermitianOperator, initial,
                          observable: BoundedObservable, time_grid, *,
                          method: str = "auto", tol: float = DEFAULT_TOL) -> ProbabilitySeries:
    """P(t) over a grid for explicitly supplied operators, labelled by the observable.

    This is the model-independent core: any Hamiltonian bounded below and
    any 0 <= O <= 1 qualify for the dichotomy statement.

    The work happens inside the invariant block of H that holds psi_0: C is
    the union of the connected components of H's nonzero pattern that meet
    psi_0's support (HermitianOperator.invariant_block).  No entry of H
    joins C to the rest of the space, so psi(t) = exp(-iHt) psi_0 vanishes
    outside C and evolving H[C, C] is exact, with no assumption about which
    symmetry H has.  P(t) is then evaluated with the observable restricted
    to C (BoundedObservable.restricted), also exact.

    An unknown method, or a grid that config.checked_times refuses or that
    is not strictly increasing, raises DomainError before any work.  "auto"
    and "krylov" sum P(t) from the Chebyshev series
    (propagator.chebyshev_expectation) and form no state.  "dense" forms
    every state with evolve_grid, the dense eigendecomposition, and
    evaluates them with expectation_grid: it shares no evaluation with the
    series and is its oracle.
    """
    _check_method(method)
    times = checked_times(time_grid, np.finfo(float).max)  # each backend checks its own limit
    if np.any(times[1:] <= times[:-1]):
        raise DomainError("time grid must be strictly increasing")
    initial = np.asarray(initial)
    if initial.shape != (hamiltonian.dimension,):
        raise ValueError("initial state and Hamiltonian differ in dimension")
    # checked here, since the observable is restricted to the block below
    if observable.dimension != hamiltonian.dimension:
        raise ValueError("observable and Hamiltonian differ in dimension")
    block = hamiltonian.invariant_block(np.flatnonzero(initial))
    sub, start, obs = hamiltonian.block(block), initial[block], observable.restricted(block)
    if method == "dense":
        values = expectation_grid(obs, evolve_grid(sub, start, times))
    else:
        values = chebyshev_expectation(sub, obs, start, times, tol=tol)
    return ProbabilitySeries(times, values, observable.label)


def probability_series(config: AnyConfig, observable, time_grid, *,
                       method: str = "auto", tol: float = DEFAULT_TOL,
                       region=None) -> ProbabilitySeries:
    """P(t) for a config, starting from (excited A, ground B, vacuum).

    The series is computed by series_from_operators inside the invariant
    block of H that holds the initial state: dim 1122 of 2244 for the
    default config under full coupling (parity), 34 under rotating_wave
    (excitation number).

    Parameters
    ----------
    observable : str or BoundedObservable
        One of "excitation_b", "exchange", "photon_region", or a prebuilt
        observable on the config's basis.
    method : {"auto", "dense", "krylov"}
        "auto" and "krylov" are the Chebyshev series; "dense" is the
        eigendecomposition oracle (series_from_operators).  An unknown
        name raises DomainError before the model is built.
    """
    _check_method(method)
    obs = resolve_observable(config, observable, region=region)
    basis, hamiltonian = build_model(config)
    return series_from_operators(hamiltonian, prepare_initial_state(basis), obs,
                                 time_grid, method=method, tol=tol)


# ---------------------------------------------------------------------------
# dichotomy classification
# ---------------------------------------------------------------------------


def log_integral(series: ProbabilitySeries, floor: float = DEFAULT_FLOOR) -> float:
    """integral ln(max(|P|, floor)) / (1 + t^2) dt, ln P linear between grid points.

    The floor regularizes grid zeros; a finite, floor-stable value is the
    discrete witness that zeros of the series cannot fill an interval, and
    |value| <= |ln floor| * pi on any grid.  Each step [p, q], 0 <= p < q
    (split at t = 0, mirrored from t <= 0), is exact: it weighs 1 by
    D = arctan(h / (1 + pq)) and (t - p) / h by W = (L - p D) / h, h = q - p,
    L = 1/2 log1p(x), x = h (p + q) / (1 + p^2), all from h / max(p, 1) with
    no cancellation or overflow (past h / max(p, 1) = 1e150, log1p(x) is ln x).
    """
    if floor <= 0:
        raise DomainError("floor must be positive")
    t = series.times
    v = np.log(np.maximum(np.abs(series.values), floor))
    k = np.searchsorted(t, 0.0, side="right")
    if 0 < k < len(t) and t[k - 1] < 0:  # v(0) on the step's line, with no h formed
        size = max(-t[k - 1], t[k])
        share = -t[k - 1] / size / (t[k] / size - t[k - 1] / size)
        t, v = np.insert(t, k, 0.0), np.insert(v, k, v[k - 1] + share * (v[k] - v[k - 1]))
    right = t[1:] > 0
    p, q = np.where(right, t[:-1], -t[1:]), np.where(right, t[1:], -t[:-1])
    h, m = q - p, np.maximum(p, 1.0)
    r, u = h / m, p / m
    factor = (2 * u + r) / (m ** -2.0 + u ** 2)  # x / r
    far = r > 1e150  # where x overflows
    x = np.maximum(np.where(far, 1.0, r) * factor, 1e-300)  # log1p(x) / x is 1 below
    logs = (np.log(r) + np.log(factor)) / np.where(far, h, 1.0)  # L / h where far
    delta = np.arctan(r / (1 / m + u * q))
    slope = np.where(far, logs, np.log1p(x) / x * factor / m) / 2 - p / h * delta  # W
    return float(np.sum(v[:-1] * delta + np.diff(v) * np.where(right, slope, delta - slope)))


def dichotomy_scan(series: ProbabilitySeries, *,
                   epsilon_zero: float = DEFAULT_EPSILON_ZERO,
                   floor: float = DEFAULT_FLOOR) -> DichotomyReport:
    """Classify a series as identically zero or nonzero almost everywhere.

    Grid points below epsilon_zero become zero candidates, reported with
    their neighbours so isolation is checkable.  Interior plateaus (3 or
    more consecutive zeros flanked by nonzero values) are listed separately:
    for an exact series from a Hamiltonian bounded below they cannot occur,
    so any hit flags a numerical problem rather than physics.
    """
    values = np.abs(series.values)
    below = values < epsilon_zero

    candidates = []
    for i in np.nonzero(below)[0]:
        left = float(values[i - 1]) if i > 0 else None
        right = float(values[i + 1]) if i + 1 < len(values) else None
        isolated = all(v is None or v >= epsilon_zero for v in (left, right))
        candidates.append(ZeroCandidate(int(i), float(series.times[i]),
                                        float(series.values[i]), left, right,
                                        isolated))

    # runs of zeros start where `below` rises and end where it falls
    edges = np.diff(np.concatenate([[0], below.astype(int), [0]]))
    runs = zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1)
    plateaus = [(int(i), int(j)) for i, j in runs
                if j - i >= 2 and i > 0 and j < len(values) - 1]

    return DichotomyReport(
        classification="identically_zero" if below.all() else "nonzero_almost_everywhere",
        zero_candidates=tuple(candidates),
        interior_plateaus=tuple(plateaus),
        log_integral=log_integral(series, floor),
        floor_dominated=bool(np.all(values <= floor)),
        epsilon_zero=float(epsilon_zero),
        floor=float(floor),
    )


# ---------------------------------------------------------------------------
# weak-causality difference and front detection
# ---------------------------------------------------------------------------


def weak_causality_difference(config: AnyConfig, time_grid, *,
                              method: str = "auto", tol: float = DEFAULT_TOL) -> ProbabilitySeries:
    """P_B(with A present) - P_B(A decoupled) on one shared Hilbert space.

    The subtrahend run zeroes A's coupling scale and starts from
    (ground A, ground B, vacuum); B, the field, and the truncation are
    identical in both branches, so the vacuum-fluctuation background that a
    counter-rotating coupling gives atom B cancels pointwise until a signal
    from A can reach it.
    """
    with_a = probability_series(config, "excitation_b", time_grid,
                                method=method, tol=tol)
    cfg_without = dataclasses.replace(config, coupling_scale_a=0.0)
    basis_wo, hamiltonian_wo = build_model(cfg_without)
    ground = np.zeros(basis_wo.dimension)
    ground[index_of_bare_state(basis_wo, 0, 0, basis_wo.vacuum)] = 1.0
    without_a = series_from_operators(hamiltonian_wo, ground,
                                      resolve_observable(cfg_without, "excitation_b"),
                                      time_grid, method=method, tol=tol)
    return ProbabilitySeries(with_a.times, with_a.values - without_a.values,
                             "excitation_b_difference", signed=True)


def detect_front(series: ProbabilitySeries, *,
                 threshold_fraction: float = DEFAULT_FRONT_FRACTION) -> FrontDetection:
    """First time |value| reaches threshold_fraction of the global maximum.

    The arrival estimate carries the local grid spacing as its uncertainty.
    A series of exact zeros has no front.
    """
    if not (0 < threshold_fraction <= 1):
        raise DomainError("threshold_fraction must lie in (0, 1]")
    mags = np.abs(series.values)
    max_abs = float(mags.max()) if mags.size else 0.0
    if max_abs == 0.0:
        return FrontDetection(False, None, 0.0, 0.0, 0.0)
    threshold = threshold_fraction * max_abs
    idx = int(np.argmax(mags >= threshold))
    # the step into the arrival point, or out of it when it is the first
    steps = np.diff(series.times)
    spacing = float(steps[max(idx - 1, 0)]) if steps.size else 0.0
    return FrontDetection(True, float(series.times[idx]), spacing,
                          float(threshold), max_abs)


# ---------------------------------------------------------------------------
# second order against exact propagation
# ---------------------------------------------------------------------------


def perturbative_vs_exact(config: ModelConfig, times, *, method: str = "auto",
                          tol: float = DEFAULT_TOL) -> PerturbativeComparison:
    """|A(t)|^2 from second order against the exact exchange probability.

    Both sides live on the same discrete mode set: the perturbative branch
    is the mode-sum amplitude, the exact branch projects the propagated
    state onto the exchanged configuration.  A coupling_note is attached
    when either probability exceeds WEAK_COUPLING_BOUND, beyond which the
    dropped fourth-order terms are no longer decisively small.
    """
    # the mode sum first: it checks the grid, and refuses a lattice or multi-level config
    amplitude = mode_sum_amplitude(config, times)
    times, pert = amplitude.times, np.abs(amplitude.values) ** 2
    exact = probability_series(config, "exchange", times, method=method, tol=tol)
    peak = max(float(exact.values.max(initial=0.0)), float(pert.max(initial=0.0)))
    note = None
    if peak > WEAK_COUPLING_BOUND:
        note = (f"exchange probability reaches {peak:.3g} > {WEAK_COUPLING_BOUND:g}; "
                "second-order truncation is not reliable at this coupling")
    return PerturbativeComparison(times, exact.values, pert,
                                  float(np.max(np.abs(exact.values - pert))),
                                  note)


# ---------------------------------------------------------------------------
# cutoff sweep
# ---------------------------------------------------------------------------


def _sweep_row(config: ModelConfig, cutoff: float, time_grid, method, tol):
    cfg = dataclasses.replace(config, cutoff=float(cutoff))
    retained = len(mode_table(cfg))
    try:
        series = probability_series(cfg, "excitation_b", time_grid,
                                    method=method, tol=tol)
        before = series.times < cfg.light_cone_time
        max_prob = float(np.max(series.values[before])) if before.any() else None
        li = log_integral(series)
        return CutoffRow(float(cutoff), retained, max_prob, li)
    except TwoAtomError as exc:
        return CutoffRow(float(cutoff), retained, None, None, error=str(exc))


def _classify_trend(points: list[float]) -> str:
    if len(points) < 2:
        return "constant"
    scale = max(abs(p) for p in points) or 1.0
    tol = 1e-12 * scale
    diffs = np.diff(points)
    if np.all(np.abs(diffs) <= tol):
        return "constant"
    if np.all(diffs >= -tol):
        return "increasing"
    if np.all(diffs <= tol):
        return "decreasing"
    return "non_monotone"


def cutoff_sweep(config: ModelConfig, cutoffs, time_grid, *,
                 method: str = "auto", tol: float = DEFAULT_TOL) -> CutoffSweepResult:
    """Repeat the excitation run across cutoff values and report the trend.

    Each row records the retained mode count, the maximum excitation
    probability before the light cone, and the log-integral; rows that fail
    keep their error message instead of aborting the sweep.  The observed
    trend of the pre-cone maxima is reported as is, with no expectation
    attached.  Rows are computed one after another in the input order.
    """
    if not isinstance(config, ModelConfig):
        raise ConfigError("cutoff sweeps apply to the box-field config only")
    cutoffs = [float(c) for c in cutoffs]
    if not cutoffs:
        raise ConfigError("cutoff sweep needs at least one cutoff value")
    rows = [_sweep_row(config, c, time_grid, method, tol) for c in cutoffs]
    maxima = [r.max_prob_before_cone for r in rows if r.error is None
              and r.max_prob_before_cone is not None]
    return CutoffSweepResult(tuple(rows), _classify_trend(maxima))
