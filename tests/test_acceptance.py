"""Acceptance gate: one test per advertised guarantee, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines on
passing runs too.  Each test prints exactly one line of the form
``acceptance criterion N: PASS/FAIL (...)`` before asserting, so a failing
gate still reports every measured number.
"""

import time

import numpy as np
import pytest

from twoatom.analysis import (
    detect_front,
    dichotomy_scan,
    log_integral,
    make_time_grid,
    probability_series,
    resolve_observable,
    series_from_operators,
    weak_causality_difference,
    cutoff_sweep,
    build_model,
)
from twoatom.config import LatticeConfig, ModelConfig
from twoatom.operators import BoundedObservable, HermitianOperator
from twoatom.perturbation import exchange_amplitude_series
from twoatom.propagator import (
    chebyshev_expectation,
    evolve_grid,
    expectation_grid,
    prepare_initial_state,
)

CLASSIFICATIONS = {"identically_zero", "nonzero_almost_everywhere"}


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def default_run():
    """Default-config excitation series on the R/400 grid, dense backend."""
    config = ModelConfig()
    grid = make_time_grid(config.light_cone_time, 400)
    start = time.monotonic()
    series = probability_series(config, "excitation_b", grid, method="dense")
    elapsed = time.monotonic() - start
    return config, series, elapsed


@pytest.fixture(scope="module")
def decoupled_run():
    config = ModelConfig(coupling_strength=0.0)
    grid = make_time_grid(config.light_cone_time, 400)
    series = probability_series(config, "excitation_b", grid, method="dense")
    return config, series


def test_criterion_1_randomized_dichotomy():
    # random bounded-below Hamiltonians, random projectors, random initial
    # states: every series must fall into one of the two classes, with no
    # interior vanishing interval and only isolated grid zeros
    rng = np.random.default_rng(20260815)
    grid = make_time_grid(10.0, 399)          # 400 grid points
    trials = 200
    candidates = 0
    not_isolated = 0
    plateaus = 0
    classified = 0
    start = time.monotonic()
    for _ in range(trials):
        dim = int(rng.integers(2, 65))
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = (raw + raw.conjugate().T) / 2.0
        floor = np.linalg.eigvalsh(herm)[0]
        ham = HermitianOperator(herm - floor * np.eye(dim))

        unitary, _ = np.linalg.qr(
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        rank = int(rng.integers(1, dim))
        block = unitary[:, :rank]
        # the rank-r projector B B^dagger, held as its factor B^dagger
        observable = BoundedObservable([(np.arange(dim), block.conjugate().T)], dim,
                                       label="random_projector")

        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = vec / np.linalg.norm(vec)

        series = series_from_operators(ham, psi, observable, grid)
        report = dichotomy_scan(series)
        classified += report.classification in CLASSIFICATIONS
        candidates += len(report.zero_candidates)
        not_isolated += sum(1 for c in report.zero_candidates if not c.isolated)
        plateaus += len(report.interior_plateaus)
    elapsed = time.monotonic() - start
    ok = (classified == trials and not_isolated == 0 and plateaus == 0
          and elapsed < 120.0)
    _verdict(1, ok, f"{trials} instances, {candidates} zero candidates, "
                    f"{not_isolated} non-isolated, {plateaus} interior plateaus, "
                    f"{elapsed:.1f}s")
    assert classified == trials
    assert not_isolated == 0
    assert plateaus == 0
    assert elapsed < 120.0


def test_criterion_2_immediate_excitation(default_run):
    config, series, elapsed = default_run
    first = float(series.values[1])
    interior = series.values[1:-1]
    fraction = float(np.mean(interior > 1e-12))
    ok = first > 1e-12 and fraction >= 0.99 and elapsed < 60.0
    _verdict(2, ok, f"P_B(R/400)={first:.3e}, {100 * fraction:.2f}% of interior "
                    f"points above 1e-12, dense run {elapsed:.1f}s")
    assert first > 1e-12
    assert fraction >= 0.99
    assert elapsed < 60.0


def test_criterion_3_decoupled_null(decoupled_run):
    _, series = decoupled_run
    peak = float(np.max(np.abs(series.values)))
    ok = peak <= 1e-25
    _verdict(3, ok, f"max P_B over the grid = {peak:.3e} with zero coupling")
    assert peak <= 1e-25


def test_criterion_4_frequency_range_dichotomy():
    # frozen instance: wide cutoff sharpens the front so the pre-arrival
    # amplitude is limited by arithmetic, not by front smearing
    config = ModelConfig(cutoff=100.0, coupling_strength=0.1)
    r = config.separation
    times = np.linspace(0.0, 0.95 * r, 400)
    extended = exchange_amplitude_series(config, times, frequency_range="extended")
    positive = exchange_amplitude_series(config, times,
                                         frequency_range="positive_only")
    max_ext = float(np.max(np.abs(extended.values)))
    max_pos = float(np.max(np.abs(positive.values)))
    ok = max_ext <= 1e-10 and max_pos >= 1e3 * 1e-10
    _verdict(4, ok, f"extended max|A|={max_ext:.3e} <= 1e-10, "
                    f"positive_only max|A|={max_pos:.3e} >= 1e-7, t < R")
    assert max_ext <= 1e-10
    assert max_pos >= 1e3 * 1e-10


def test_criterion_5_lattice_front():
    config = LatticeConfig()
    r = config.light_cone_time
    grid = make_time_grid(2.0 * r, 800)
    start = time.monotonic()
    delta = weak_causality_difference(config, grid, method="dense")
    elapsed = time.monotonic() - start
    mags = np.abs(delta.values)
    before = float(np.max(mags[delta.times < 0.9 * r]))
    overall = float(np.max(mags))
    ratio = before / overall
    front = detect_front(delta, threshold_fraction=0.005)
    arrival_off = abs(front.arrival_time - r) / r if front.detected else np.inf
    ok = ratio <= 1e-3 and front.detected and arrival_off <= 0.15 and elapsed < 60.0
    _verdict(5, ok, f"pre-cone/overall = {ratio:.2e} <= 1e-3, arrival "
                    f"{front.arrival_time:.3f} vs R={r:.0f} "
                    f"({100 * arrival_off:.1f}% off), {elapsed:.1f}s")
    assert ratio <= 1e-3
    assert front.detected
    assert arrival_off <= 0.15
    assert elapsed < 60.0


def test_criterion_6_krylov_matches_dense():
    suite = [
        ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3),
        ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3,
                    coupling_form="rotating_wave"),
        ModelConfig(num_modes=24, n_max=1),
        ModelConfig(num_modes=12, n_max=2, cutoff=4.0),
        LatticeConfig(),
        LatticeConfig(num_sites=8, site_a=1, site_b=6),
    ]
    grid = make_time_grid(6.0, 30)
    rng = np.random.default_rng(6)
    worst = 0.0
    dims = []
    for config in suite:
        basis, ham = build_model(config)
        assert basis.dimension <= 2000
        dims.append(basis.dimension)
        psi = prepare_initial_state(basis)
        names = ["excitation_b", "exchange"]
        if isinstance(config, ModelConfig):
            names.append("photon_region")
        observables = [resolve_observable(config, name) for name in names]
        # rank-one projectors |u><u|, complex u: P sees the relative phases
        for _ in range(2):
            u = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(
                basis.dimension)
            u /= np.linalg.norm(u)
            observables.append(BoundedObservable(
                [(np.arange(basis.dimension), u.conj()[None, :])], basis.dimension))
        # the series against the dense states, its oracle
        states = evolve_grid(ham, psi, grid)
        for obs in observables:
            series = chebyshev_expectation(ham, obs, psi, grid, tol=1e-12)
            worst = max(worst, float(np.max(np.abs(series - expectation_grid(obs, states)))))
    ok = worst <= 1e-10
    _verdict(6, ok, f"worst |P_series - P_dense| {worst:.3e} <= 1e-10 over "
                    f"{len(suite)} instances, dims {dims}")
    assert worst <= 1e-10


def test_criterion_7_conservation_suite():
    config = ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3)
    basis, ham = build_model(config)

    gap = ham.matrix - ham.matrix.conjugate().T
    gap.eliminate_zeros()
    hermitian_exact = gap.nnz == 0

    rng = np.random.default_rng(11)
    grid = make_time_grid(5.0, 25)
    # dense: the norm and the energy of each state
    vec = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi = vec / np.linalg.norm(vec)
    states = evolve_grid(ham, psi, grid)
    norms = np.linalg.norm(states, axis=1)
    unit_drift = float(np.max(np.abs(norms - 1.0)))
    energies = np.array([np.vdot(s, ham.matrix @ s).real for s in states])
    energy_drift = float(np.max(np.abs(energies - energies[0])))
    # series: P of the identity, and of (H - lo) / (hi - lo) from H's dense eigh
    vec = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi = vec / np.linalg.norm(vec)
    everything = np.arange(basis.dimension)
    identity = BoundedObservable([(everything, None)], basis.dimension)
    norms = np.sqrt(chebyshev_expectation(ham, identity, psi, grid, tol=1e-12))
    unit_drift = max(unit_drift, float(np.max(np.abs(norms - 1.0))))
    w, v = np.linalg.eigh(ham.matrix.toarray())
    lo, span = w[0], w[-1] - w[0]
    energy = BoundedObservable([(everything, np.sqrt((w - lo) / span)[:, None] * v.conj().T)],
                               basis.dimension)
    energies = lo + span * chebyshev_expectation(ham, energy, psi, grid, tol=1e-12)
    energy_drift = max(energy_drift, float(np.max(np.abs(energies - energies[0]))))

    observables = [
        resolve_observable(config, "excitation_b"),
        resolve_observable(config, "exchange"),
        resolve_observable(config, "photon_region"),
    ]
    lo, hi = np.inf, -np.inf
    for _ in range(100):
        vec = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(
            basis.dimension)
        psi = vec / np.linalg.norm(vec)
        for obs in observables:
            value = expectation_grid(obs, psi[None, :])[0]
            lo = min(lo, value)
            hi = max(hi, value)

    ok = (hermitian_exact and unit_drift <= 1e-12 and energy_drift <= 1e-10
          and lo >= -1e-12 and hi <= 1.0 + 1e-12)
    _verdict(7, ok, f"hermitian gap nnz=0: {hermitian_exact}, unitarity drift "
                    f"{unit_drift:.2e} <= 1e-12, energy drift {energy_drift:.2e} "
                    f"<= 1e-10, observable range [{lo:.2e}, {hi:.12f}] on 100 states")
    assert hermitian_exact
    assert unit_drift <= 1e-12
    assert energy_drift <= 1e-10
    assert lo >= -1e-12
    assert hi <= 1.0 + 1e-12


def test_criterion_8_log_integral_witness(default_run, decoupled_run):
    _, series, _ = default_run
    report = dichotomy_scan(series)
    li_30 = report.log_integral
    li_40 = log_integral(series, floor=1e-40)
    change = abs(li_40 - li_30) / abs(li_30)
    _, null_series = decoupled_run
    null_report = dichotomy_scan(null_series)
    ok = (np.isfinite(li_30) and np.isfinite(li_40) and change < 0.10
          and null_report.floor_dominated
          and null_report.classification == "identically_zero")
    _verdict(8, ok, f"log integral {li_30:.4f} (floor 1e-30) vs {li_40:.4f} "
                    f"(1e-40), change {100 * change:.2f}% < 10%; decoupled run "
                    f"floor_dominated={null_report.floor_dominated}")
    assert np.isfinite(li_30)
    assert np.isfinite(li_40)
    assert change < 0.10
    assert null_report.floor_dominated
    assert null_report.classification == "identically_zero"


def test_criterion_9_cutoff_sweep_reports_trend():
    config = ModelConfig()
    cutoffs = [m * config.omega_a for m in (4.0, 8.0, 16.0, 32.0)]
    grid = make_time_grid(2.0 * config.light_cone_time, 160)
    start = time.monotonic()
    result = cutoff_sweep(config, cutoffs, grid)
    elapsed = time.monotonic() - start
    failures = [row.cutoff for row in result.rows if row.error is not None]
    maxima = [row.max_prob_before_cone for row in result.rows]
    ok = (len(result.rows) == 4 and not failures
          and result.trend in {"constant", "increasing", "decreasing",
                               "non_monotone"})
    _verdict(9, ok, f"4 rows in {elapsed:.1f}s, pre-cone maxima "
                    f"{[f'{m:.3e}' for m in maxima]}, trend: {result.trend}")
    assert len(result.rows) == 4
    assert not failures
    assert result.trend in {"constant", "increasing", "decreasing", "non_monotone"}
