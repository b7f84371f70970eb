"""Series diagnostics: dichotomy, witness integral, fronts, cutoff sweep."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from twoatom import analysis
from twoatom.analysis import (
    DEFAULT_EPSILON_ZERO,
    ProbabilitySeries,
    build_model,
    cutoff_sweep,
    detect_front,
    dichotomy_scan,
    log_integral,
    probability_series,
    resolve_observable,
    series_from_operators,
    weak_causality_difference,
)
from twoatom.basis import index_of_bare_state
from twoatom.config import LatticeConfig, ModelConfig, make_time_grid
from twoatom.errors import ConfigError, DomainError
from twoatom.operators import BoundedObservable, HermitianOperator
from twoatom.propagator import evolve_grid, expectation_grid, prepare_initial_state


def synthetic_series(values, signed=False, t_max=None):
    values = np.asarray(values, dtype=float)
    t_max = float(len(values) - 1) if t_max is None else t_max
    times = np.linspace(0.0, t_max, len(values))
    return ProbabilitySeries(times, values, "excitation_b", signed=signed)


def test_make_time_grid():
    grid = make_time_grid(2.0, 4)
    assert_allclose(grid, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ConfigError):
        make_time_grid(0.0, 4)
    with pytest.raises(ConfigError):
        make_time_grid(1.0, 0)


def test_series_validation():
    with pytest.raises(ValueError):
        ProbabilitySeries(np.array([0.0, 0.0]), np.array([0.1, 0.2]), "x")
    with pytest.raises(ValueError):
        ProbabilitySeries(np.array([0.0, 1.0]), np.array([0.1, 1.5]), "x")
    with pytest.raises(ValueError):
        ProbabilitySeries(np.array([0.0, 1.0]), np.array([-0.5, 0.5]), "x")
    with pytest.raises(ValueError, match="matching 1-D arrays"):
        ProbabilitySeries(np.array([0.0, 1.0]), np.array([0.5]), "x")
    with pytest.raises(ValueError, match="finite"):
        ProbabilitySeries(np.array([0.0, np.inf]), np.array([0.1, 0.2]), "x")
    # signed series admit negative values down to -1
    s = ProbabilitySeries(np.array([0.0, 1.0]), np.array([-0.5, 0.5]), "x",
                          signed=True)
    assert s.signed


def test_decoupled_series_identically_zero():
    cfg = ModelConfig(num_modes=4, n_max=1, coupling_strength=0.0)
    series = probability_series(cfg, "excitation_b", make_time_grid(4.0, 50))
    assert np.max(np.abs(series.values)) <= 1e-28
    report = dichotomy_scan(series)
    assert report.classification == "identically_zero"
    assert report.floor_dominated
    assert not report.interior_plateaus


def test_initial_orthogonality():
    cfg = ModelConfig(num_modes=4, n_max=1)
    for name in ("excitation_b", "exchange"):
        series = probability_series(cfg, name, make_time_grid(1.0, 10))
        assert series.values[0] <= 1e-28


def test_default_style_run_is_nonzero_after_zero():
    # D = 180 instance: immediate excitation away from t = 0
    cfg = ModelConfig(num_modes=8, n_max=2)
    r = cfg.light_cone_time
    series = probability_series(cfg, "excitation_b", make_time_grid(r, 100))
    assert series.values[1] > 1e-12
    interior = series.values[1:-1]
    assert np.all(interior > 1e-12)
    report = dichotomy_scan(series)
    assert report.classification == "nonzero_almost_everywhere"
    assert all(c.isolated for c in report.zero_candidates)
    assert not report.interior_plateaus


def test_exchange_observable_same_dichotomy():
    # the theorem does not care which bounded observable we watch:
    # the exchange probability on the same instance is also nonzero
    # almost everywhere, with t = 0 the only (isolated) zero
    cfg = ModelConfig(num_modes=8, n_max=2)
    grid = make_time_grid(cfg.light_cone_time, 100)
    series = probability_series(cfg, "exchange", grid)
    report = dichotomy_scan(series)
    assert report.classification == "nonzero_almost_everywhere"
    assert [c.index for c in report.zero_candidates] == [0]
    assert all(c.isolated for c in report.zero_candidates)
    assert not report.interior_plateaus


def test_alternating_series_zeros_isolated():
    series = synthetic_series([0.0, 0.5, 0.0, 0.5, 0.0, 0.5])
    report = dichotomy_scan(series)
    assert report.classification == "nonzero_almost_everywhere"
    assert len(report.zero_candidates) == 3
    assert all(c.isolated for c in report.zero_candidates)


def test_interior_plateau_is_flagged():
    series = synthetic_series([0.4, 0.2, 0.0, 0.0, 0.0, 0.3, 0.5])
    report = dichotomy_scan(series)
    assert report.interior_plateaus == ((2, 4),)
    # zeros inside a plateau are not isolated
    assert not all(c.isolated for c in report.zero_candidates)


def test_edge_runs_are_not_interior_plateaus():
    # a zero run touching either end of the grid is startup/shutdown, not an
    # interior vanishing interval
    series = synthetic_series([0.0, 0.0, 0.0, 0.2, 0.4, 0.1])
    assert not dichotomy_scan(series).interior_plateaus
    series = synthetic_series([0.2, 0.4, 0.1, 0.0, 0.0, 0.0])
    assert not dichotomy_scan(series).interior_plateaus


def test_log_integral_constant_one():
    series = synthetic_series(np.ones(200), t_max=40.0)
    assert abs(log_integral(series)) <= 1e-12


def test_log_integral_identically_zero_matches_floor_formula():
    times = np.linspace(0.0, 30.0, 400)
    series = ProbabilitySeries(times, np.zeros_like(times), "x")
    floor = 1e-30
    got = log_integral(series, floor)
    # the steps' exact weights sum to the weight's integral, arctan(30)
    assert_allclose(got, np.log(floor) * np.arctan(30.0), rtol=1e-12)


def test_log_integral_is_exact_for_the_linear_interpolant():
    # ln P linear between the points of an uneven grid through negative
    # times, integrated step by step by scipy's quad
    rng = np.random.default_rng(3)
    times = np.sort(rng.uniform(-6.0, 9.0, 40))
    values = rng.uniform(1e-3, 1.0, 40)
    values[[5, 6, 20]] = 0.0
    floor = 1e-30
    logs = np.log(np.maximum(values, floor))
    expected = sum(quad(lambda t: np.interp(t, times, logs) / (1 + t * t), a, b,
                        epsabs=0, epsrel=1e-13)[0]
                   for a, b in zip(times[:-1], times[1:]))
    got = log_integral(ProbabilitySeries(times, values, "x"), floor)
    assert_allclose(got, expected, rtol=1e-12)


@pytest.mark.parametrize("times", [
    [0.0, 1e300], [0.0, 1.7e308], [-1.7e308, 1.7e308], [-1.7e308, -1e-10, 5e-324],
    [1e200, 1e201, 1e250], [-5e-324, 0.0, 5e-324], [1.0, 1.0 + 2**-52, 1e154, 1e156],
], ids=["1e300", "max", "both-signs", "negative", "far", "subnormal", "spread"])
def test_log_integral_stays_within_its_bound_on_extreme_grids(times):
    # |value| <= |ln floor| (arctan t_end - arctan t_start) for any grid, with
    # no overflow (a warning is an error here); P = 0 reaches the bound
    times = np.array(times)
    if times[0] > 1:  # arctan t_end - arctan t_start, without their cancellation
        span = np.arctan(1 / times[0]) - np.arctan(1 / times[-1])
    else:
        span = np.arctan(times[-1]) - np.arctan(times[0])
    zero = ProbabilitySeries(times, np.zeros_like(times), "x")
    assert_allclose(log_integral(zero), np.log(1e-30) * span, rtol=1e-12)
    some = ProbabilitySeries(times, np.linspace(0.0, 0.9, len(times)), "x")
    assert abs(log_integral(some)) <= abs(np.log(1e-30)) * span * (1 + 1e-12)


def test_log_integral_floor_validation():
    series = synthetic_series([0.1, 0.2])
    with pytest.raises(DomainError):
        log_integral(series, 0.0)
    with pytest.raises(DomainError):
        log_integral(series, -1e-3)


def test_log_integral_floor_independent_when_bounded_away():
    series = synthetic_series(np.linspace(0.2, 0.9, 50), t_max=10.0)
    a = log_integral(series, 1e-30)
    b = log_integral(series, 1e-40)
    assert a == b


def test_resolve_observable_errors():
    cfg = ModelConfig(num_modes=2, n_max=1)
    with pytest.raises(ConfigError):
        resolve_observable(cfg, "not_an_observable")
    with pytest.raises(DomainError):
        resolve_observable(LatticeConfig(), "photon_region")


def test_weak_causality_difference_trivial_zero():
    cfg = ModelConfig(num_modes=3, n_max=1, coupling_strength=0.0)
    grid = make_time_grid(4.0, 30)
    delta = weak_causality_difference(cfg, grid)
    assert delta.signed
    assert np.max(np.abs(delta.values)) <= 1e-28


def test_weak_causality_difference_zero_at_start():
    cfg = LatticeConfig(num_sites=8, site_a=1, site_b=6)
    delta = weak_causality_difference(cfg, make_time_grid(8.0, 60))
    assert abs(delta.values[0]) <= 1e-24
    # the difference really is signed data somewhere on the grid
    assert np.min(delta.values) < 0.0 or np.max(delta.values) > 0.0


def test_detect_front_synthetic_step():
    values = np.zeros(100)
    times = np.linspace(0.0, 10.0, 100)
    values[times >= 3.0] = 0.8
    series = ProbabilitySeries(times, values, "excitation_b")
    front = detect_front(series)
    assert front.detected
    step = times[1] - times[0]
    assert abs(front.arrival_time - 3.0) <= step + 1e-12
    assert front.uncertainty == pytest.approx(step)


def test_detect_front_threshold_one_is_argmax():
    values = np.array([0.0, 0.1, 0.3, 0.9, 0.2, 0.05])
    series = synthetic_series(values)
    front = detect_front(series, threshold_fraction=1.0)
    assert front.arrival_time == series.times[np.argmax(values)]


def test_detect_front_all_zero():
    series = synthetic_series(np.zeros(10))
    front = detect_front(series)
    assert not front.detected
    assert front.arrival_time is None


def test_detect_front_fraction_validation():
    series = synthetic_series([0.0, 0.5])
    with pytest.raises(DomainError):
        detect_front(series, threshold_fraction=0.0)
    with pytest.raises(DomainError):
        detect_front(series, threshold_fraction=1.5)


@pytest.fixture(scope="module")
def sweep_config():
    return ModelConfig(num_modes=8, n_max=1, coupling_strength=0.2)


def test_cutoff_sweep_single_row_matches_standalone(sweep_config):
    grid = make_time_grid(2 * sweep_config.light_cone_time, 80)
    result = cutoff_sweep(sweep_config, [sweep_config.cutoff], grid)
    row = result.rows[0]
    series = probability_series(sweep_config, "excitation_b", grid)
    before = series.values[series.times < sweep_config.light_cone_time]
    assert row.error is None
    assert_allclose(row.max_prob_before_cone, float(np.max(before)), rtol=1e-12)
    assert_allclose(row.log_integral, log_integral(series), rtol=1e-12)


def test_cutoff_sweep_determinism(sweep_config):
    grid = make_time_grid(4.0, 60)
    # repeating a cutoff gives identical rows, as do two cutoffs so large
    # that the smooth profile rounds to exactly 1.0 for every retained mode
    result = cutoff_sweep(sweep_config, [8.0, 8.0, 1e200, 5e200], grid)
    r = result.rows
    assert (r[0].max_prob_before_cone, r[0].log_integral) == (
        r[1].max_prob_before_cone, r[1].log_integral)
    assert r[2].modes_retained == r[3].modes_retained
    assert (r[2].max_prob_before_cone, r[2].log_integral) == (
        r[3].max_prob_before_cone, r[3].log_integral)


def test_cutoff_sweep_rows_and_trend(sweep_config):
    grid = make_time_grid(4.0, 40)
    result = cutoff_sweep(sweep_config, [2.0, 4.0, 8.0], grid)
    assert len(result.rows) == 3
    maxima = [row.max_prob_before_cone for row in result.rows]
    assert result.trend == analysis._classify_trend(maxima)
    # every label, on points whose trend is plain; equal points within
    # 1e-12 of the largest are one level
    for points, label in (([0.3], "constant"), ([0.3, 0.3, 0.3 + 1e-14], "constant"),
                          ([0.1, 0.2, 0.2], "increasing"), ([0.3, 0.2, 0.2], "decreasing"),
                          ([0.1, 0.3, 0.2], "non_monotone")):
        assert analysis._classify_trend(points) == label
    retained = [row.modes_retained for row in result.rows]
    assert retained == sorted(retained)
    for row in result.rows:
        assert row.error is None
        assert row.max_prob_before_cone is not None


def test_cutoff_sweep_zero_mode_row_is_valid():
    # a cutoff below every mode frequency leaves an atoms-only model whose
    # excitation probability vanishes; that is a legitimate row, not an error
    cfg = ModelConfig(num_modes=8, n_max=1)
    grid = make_time_grid(4.0, 30)
    result = cutoff_sweep(cfg, [0.5, 8.0], grid)
    row = result.rows[0]
    assert row.error is None
    assert row.modes_retained == 0
    assert row.max_prob_before_cone == 0.0
    assert result.rows[1].modes_retained == 8


def test_cutoff_sweep_failed_row_is_reported():
    # opening the cutoff wide enough to retain every mode blows past the
    # basis dimension ceiling; the sweep keeps going and stores the error
    # on that row alone
    cfg = ModelConfig(num_modes=80_000, n_max=1)
    grid = make_time_grid(2.0, 20)
    result = cutoff_sweep(cfg, [1.0, 1e6], grid)
    assert result.rows[0].error is None
    assert result.rows[1].error is not None
    assert "dimension" in result.rows[1].error


def test_sparse_sweep_keeps_the_callers_rng(sweep_config):
    # the sparse path draws nothing from np.random: the rows are the same
    # under any global seed, and the caller's stream is where its seed left it
    grid = make_time_grid(4.0, 40)
    cutoffs = [4.0, 6.0, 8.0]
    saved = np.random.get_state()
    try:
        results = []
        for seed in (3, 11):
            np.random.seed(seed)
            results.append(cutoff_sweep(sweep_config, cutoffs, grid, method="krylov"))
            assert np.random.random() == np.random.RandomState(seed).random()
    finally:
        np.random.set_state(saved)
    assert results[0] == results[1]


def test_cutoff_sweep_validation(sweep_config):
    grid = make_time_grid(2.0, 10)
    with pytest.raises(ConfigError):
        cutoff_sweep(sweep_config, [], grid)
    with pytest.raises(ConfigError):
        cutoff_sweep(LatticeConfig(), [4.0], grid)


def test_a_region_needs_photon_region(monkeypatch):
    def refuse(config):
        raise AssertionError("a model was built")

    monkeypatch.setattr(analysis, "build_basis", refuse)
    build_model.cache_clear()
    config = ModelConfig(num_modes=4, n_max=1)
    identity = BoundedObservable([(np.arange(4), None)], 4, label="identity")
    for observable in ("excitation_b", "exchange", identity):
        with pytest.raises(ConfigError, match="photon_region only"):
            resolve_observable(config, observable, region=(0.0, 1.0))


def test_photon_region_series_stays_bounded():
    cfg = ModelConfig(num_modes=4, n_max=1, coupling_strength=0.3)
    region = (0.0, cfg.box_length / 4)
    series = probability_series(cfg, "photon_region", make_time_grid(6.0, 60),
                                region=region)
    assert np.all(series.values >= -1e-12)
    assert np.all(series.values <= 1.0 + 1e-12)


def test_probability_series_accepts_prebuilt_observable():
    cfg = ModelConfig(num_modes=3, n_max=1)
    obs = resolve_observable(cfg, "exchange")
    grid = make_time_grid(2.0, 20)
    a = probability_series(cfg, obs, grid)
    b = probability_series(cfg, "exchange", grid)
    assert_allclose(a.values, b.values, atol=0)


def test_dichotomy_epsilon_respected():
    series = synthetic_series([0.4, 1e-13, 0.4, 1e-11, 0.4])
    report = dichotomy_scan(series, epsilon_zero=DEFAULT_EPSILON_ZERO)
    assert [c.index for c in report.zero_candidates] == [1]
    report_wide = dichotomy_scan(series, epsilon_zero=1e-10)
    assert [c.index for c in report_wide.zero_candidates] == [1, 3]


# ---------------------------------------------------------------------------
# series inside the invariant block of the initial state
# ---------------------------------------------------------------------------

# the criterion-6 suite, then a larger RWA box and a 3-level emitter
BLOCK_ORACLE_CONFIGS = {
    "box8": ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3),
    "box8_rwa": ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3,
                            coupling_form="rotating_wave"),
    "box24_n1": ModelConfig(num_modes=24, n_max=1),
    "box12_cut4": ModelConfig(num_modes=12, n_max=2, cutoff=4.0),
    "lattice": LatticeConfig(),
    "lattice8": LatticeConfig(num_sites=8, site_a=1, site_b=6),
    "box16_rwa": ModelConfig(num_modes=16, n_max=2, coupling_form="rotating_wave"),
    "box8_3level": ModelConfig(levels_a=3, num_modes=8, n_max=2, coupling_strength=0.3),
}


def _start(config, without_a: bool):
    """Canonical start, or the weak-causality start with A decoupled."""
    if not without_a:
        return config, prepare_initial_state(build_model(config)[0])
    config = dataclasses.replace(config, coupling_scale_a=0.0)
    basis, _ = build_model(config)
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[index_of_bare_state(basis, 0, 0, basis.vacuum)] = 1.0
    return config, amp


@pytest.mark.parametrize("method", ["dense", "krylov"])
@pytest.mark.parametrize("without_a", [False, True], ids=["with_a", "without_a"])
@pytest.mark.parametrize("name", BLOCK_ORACLE_CONFIGS)
def test_block_series_matches_full_space(name, without_a, method):
    config, psi = _start(BLOCK_ORACLE_CONFIGS[name], without_a)
    basis, ham = build_model(config)
    block = ham.invariant_block(np.flatnonzero(psi))
    assert len(block) < basis.dimension
    observables = ["excitation_b", "exchange"]
    if isinstance(config, ModelConfig):
        observables.append("photon_region")
    grid = make_time_grid(6.0, 30)
    full_states = evolve_grid(ham, psi, grid)
    block_states = np.zeros_like(full_states)
    block_states[:, block] = evolve_grid(ham.block(block), psi[block], grid)
    for observable in observables:
        obs = resolve_observable(config, observable)
        series = series_from_operators(ham, psi, obs, grid, method=method)
        full = expectation_grid(obs, full_states)
        assert np.max(np.abs(series.values - full)) <= 1e-12, observable
        # both stacks against O = W^dagger W formed from the assembled factor
        w = obs.sqrt_factor
        o = w.conjugate().T @ w
        for states, values in ((full_states, full), (block_states, series.values)):
            formed = np.real(np.einsum("ij,ij->i", states.conjugate(), (o @ states.T).T))
            assert np.max(np.abs(values - formed)) <= 1e-13, observable


AUTO_CONFIGS = {
    "default": ModelConfig(),
    "box8": ModelConfig(num_modes=8, n_max=2),
    "lattice": LatticeConfig(),
    "rotating_wave": ModelConfig(coupling_form="rotating_wave"),
    "box7_complex": ModelConfig(num_modes=7),
}


@pytest.mark.parametrize("name", AUTO_CONFIGS)
def test_auto_is_the_series_at_every_dimension(name, monkeypatch):
    # "auto" names the Chebyshev series at every dimension: 2244 states
    # (default, rotating_wave), 364 (lattice), 180 (box8) and a complex H of
    # 144 (odd num_modes)
    config = AUTO_CONFIGS[name]
    if name == "box7_complex":
        assert np.iscomplexobj(build_model(config)[1].matrix.data)

    def refuse(self):
        raise AssertionError("auto took the dense eigendecomposition")

    monkeypatch.setattr(HermitianOperator, "eigensystem", refuse)
    grid = make_time_grid(2.0, 20)
    auto = probability_series(config, "excitation_b", grid, method="auto")
    krylov = probability_series(config, "excitation_b", grid, method="krylov")
    assert auto.values.tobytes() == krylov.values.tobytes()
    assert auto.values[-1] > 0


def test_dense_is_one_eigendecomposition(monkeypatch):
    calls = []
    eigensystem = HermitianOperator.eigensystem

    def counted(self):
        calls.append(self.dimension)
        return eigensystem(self)

    monkeypatch.setattr(HermitianOperator, "eigensystem", counted)
    probability_series(ModelConfig(num_modes=8, n_max=2), "excitation_b",
                       make_time_grid(2.0, 20), method="dense")
    assert len(calls) == 1


def test_unknown_method_is_refused_before_the_model(monkeypatch):
    config = ModelConfig(num_modes=8, n_max=2)
    ham = build_model(config)[1]
    obs = resolve_observable(config, "excitation_b")

    def refuse(config):
        raise AssertionError("a model was built for an unknown method")

    monkeypatch.setattr("twoatom.analysis.build_model", refuse)
    grid = make_time_grid(1.0, 4)
    with pytest.raises(DomainError, match="unknown propagation method 'bogus'"):
        probability_series(config, "excitation_b", grid, method="bogus")
    # the operator-level call refuses it before checking anything else
    with pytest.raises(DomainError, match="unknown propagation method 'bogus'"):
        series_from_operators(ham, np.zeros(1), obs, grid, method="bogus")


def test_krylov_series_forms_no_grid_of_states(monkeypatch):
    # the default config's 801 points over its 1122-state block would be a
    # 14.4 MB complex grid of states; the series path sums P(t) from K
    # coordinates per point and never calls the states path
    config = ModelConfig()
    build_model(config)
    grid = make_time_grid(2 * config.light_cone_time, 800)

    def refuse(*args, **kwargs):
        raise AssertionError("the krylov series went through the states")

    monkeypatch.setattr("twoatom.analysis.evolve_grid", refuse)
    monkeypatch.setattr("twoatom.analysis.expectation_grid", refuse)
    tracemalloc.start()
    try:
        series = probability_series(config, "excitation_b", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.values[0] == 0.0
    assert series.values[1:].min() > 0.0
    assert peak < 801 * 1122 * 16 / 2


def test_dense_series_goes_through_the_states(monkeypatch):
    # the dense path is the oracle of the series path: it shares none of it
    calls = []

    def counted(name):
        original = getattr(analysis, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("evolve_grid", "expectation_grid"):
        monkeypatch.setattr(analysis, name, counted(name))
    probability_series(ModelConfig(num_modes=4, n_max=2), "exchange",
                       make_time_grid(2.0, 10), method="dense")
    assert calls == ["evolve_grid", "expectation_grid"]


def test_series_leaves_no_state_on_its_hamiltonian():
    config = ModelConfig(num_modes=6, n_max=2, coupling_strength=0.2)
    basis, ham = build_model(config)
    psi = prepare_initial_state(basis)
    assert len(ham.invariant_block(np.flatnonzero(psi))) < basis.dimension
    assert ham.block(np.arange(basis.dimension)) is ham
    obs = resolve_observable(config, "exchange")
    grid = make_time_grid(2.0, 10)
    for method in ("dense", "krylov"):
        first = series_from_operators(ham, psi, obs, grid, method=method).values
        second = series_from_operators(ham, psi, obs, grid, method=method).values
        assert np.array_equal(first, second)
    assert np.array_equal(evolve_grid(ham, psi, grid), evolve_grid(ham, psi, grid))
    # no block, eigensystem or other memo outlives the series
    assert set(vars(ham)) == {"matrix"}


def test_a_sweep_keeps_one_model(sweep_config):
    build_model.cache_clear()
    result = cutoff_sweep(sweep_config, [4.0, 8.0], make_time_grid(2.0, 10))
    assert len(result.rows) == 2
    assert build_model.cache_info().maxsize == build_model.cache_info().currsize == 1


@pytest.mark.parametrize("method", ["dense", "krylov"])
def test_zero_coupling_block_is_one_state(method):
    config = ModelConfig(num_modes=8, n_max=2, coupling_strength=0.0)
    basis, ham = build_model(config)
    psi = prepare_initial_state(basis)
    block = ham.invariant_block(np.flatnonzero(psi))
    assert block.tolist() == np.flatnonzero(psi).tolist()
    series = series_from_operators(ham, psi, resolve_observable(config, "excitation_b"),
                                   make_time_grid(4.0, 20), method=method)
    assert np.all(series.values == 0.0)


@pytest.mark.parametrize("method", ["dense", "krylov"])
def test_block_of_a_two_component_start_is_their_union(method):
    config = ModelConfig(num_modes=8, n_max=2, coupling_form="rotating_wave")
    basis, ham = build_model(config)
    one = index_of_bare_state(basis, 1, 0, basis.vacuum)
    ground = index_of_bare_state(basis, 0, 0, basis.vacuum)
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[[one, ground]] = np.sqrt(0.5)
    psi = amp
    block = ham.invariant_block([one, ground])
    assert np.array_equal(block, np.union1d(ham.invariant_block([one]),
                                            ham.invariant_block([ground])))
    assert len(ham.invariant_block([one])) < len(block) < basis.dimension
    obs = resolve_observable(config, "photon_region")
    grid = make_time_grid(3.0, 15)
    series = series_from_operators(ham, psi, obs, grid, method=method)
    full = expectation_grid(obs, evolve_grid(ham, psi, grid))
    assert np.max(np.abs(series.values - full)) <= 1e-12


@pytest.mark.parametrize("method", ["dense", "krylov"])
@pytest.mark.parametrize("observable", ["excitation_b", "exchange", "photon_region"])
def test_series_starts_exactly_at_initial_value(method, observable):
    # psi(0) is psi_0 itself on both backends, so P(0) = <psi_0|O|psi_0> = 0
    # exactly, not rounding noise of a round trip through the eigenbasis
    series = probability_series(ModelConfig(num_modes=8), observable,
                                make_time_grid(1.0, 4), method=method)
    assert series.values[0] == 0.0
    assert series.values[1] > 0.0


def _unit_norm(factor):
    return factor / np.linalg.norm(factor, 2)


def _generic_observable(rng):
    # W is not Hermitian, maps the start's component into the other one too
    # and has a row that is empty on it, which the restriction keeps as zeros
    factor = 0.2 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    factor[4, :3] = 0.0
    blocks = [(np.arange(6), factor)]
    return BoundedObservable(blocks, 6), blocks


def _identity_observable(rng):
    blocks = [([1, 2, 4], None)]
    return BoundedObservable(blocks, 6), blocks


def _cut_dense_observable(rng):
    # C = {0, 1, 2} keeps two of the block's four columns
    factor = _unit_norm(rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)))
    blocks = [([1, 2, 3, 5], factor)]
    return BoundedObservable(blocks, 6), blocks


def _zero_rows_observable(rng):
    factor = _unit_norm(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    blocks = [([0, 1], np.zeros((0, 2), dtype=complex)), ([2, 3], factor)]
    return BoundedObservable(blocks, 6), blocks


SYNTHETIC_OBSERVABLES = {
    "generic": (_generic_observable, 6),
    "identity": (_identity_observable, 2),
    "cut_dense": (_cut_dense_observable, 3),
    "zero_rows": (_zero_rows_observable, 2),
}


@pytest.mark.parametrize("method", ["dense", "krylov"])
@pytest.mark.parametrize("case", SYNTHETIC_OBSERVABLES)
def test_factor_leaving_the_block_is_evaluated_exactly(case, method):
    # two 3-state components; the start lies in the first, and each
    # observable has weight on both
    rng = np.random.default_rng(5)
    herm = np.zeros((6, 6), dtype=complex)
    for part in (slice(0, 3), slice(3, 6)):
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        herm[part, part] = raw + raw.conj().T
    ham = HermitianOperator(herm)
    build, restricted_rows = SYNTHETIC_OBSERVABLES[case]
    obs, blocks = build(rng)
    # O = sum_k P_k^T F_k^dagger F_k P_k, formed by hand
    formed = np.zeros((6, 6), dtype=complex)
    for indices, factor in blocks:
        indices = list(indices)
        gram = np.eye(len(indices)) if factor is None else factor.conj().T @ factor
        formed[np.ix_(indices, indices)] += gram
    w = obs.sqrt_factor
    assert np.max(np.abs((w.conjugate().T @ w).toarray() - formed)) <= 1e-15
    psi = np.array([0.6, 0.0, 0.8j, 0.0, 0.0, 0.0])
    block = ham.invariant_block([0, 2])
    assert block.tolist() == [0, 1, 2]
    restricted = obs.restricted(block)
    assert sum(len(i) if f is None else f.shape[0]
               for i, f in restricted.blocks) == restricted_rows
    assert all(f is None or f.shape[0] > 0 for _, f in restricted.blocks)
    grid = make_time_grid(2.0, 12)
    series = series_from_operators(ham, psi, obs, grid, method=method)
    states = evolve_grid(ham, psi, grid)
    direct = np.real(np.einsum("ij,ij->i", states.conjugate(), states @ formed.T))
    assert np.max(np.abs(series.values - direct)) <= 1e-13


def test_sparse_series_ignores_the_callers_global_rng():
    # the sparse path draws nothing from np.random: the series is the same
    # under any global seed, and the caller's stream is left untouched
    grid = make_time_grid(2 * np.pi, 800)
    saved = np.random.get_state()
    try:
        runs = []
        for seed in (0, 24):
            np.random.seed(seed)
            runs.append(probability_series(ModelConfig(), "excitation_b", grid,
                                           method="krylov").values)
            # the caller's stream is where the seed left it
            assert np.random.random() == np.random.RandomState(seed).random()
    finally:
        np.random.set_state(saved)
    assert np.array_equal(runs[0], runs[1])


@pytest.mark.parametrize("method", ["dense", "krylov"])
def test_block_series_edge_inputs(method):
    config = ModelConfig(num_modes=4, n_max=1)
    basis, ham = build_model(config)
    obs = resolve_observable(config, "excitation_b")
    empty = series_from_operators(ham, prepare_initial_state(basis), obs, [],
                                  method=method)
    assert len(empty) == 0
    zero = np.zeros(basis.dimension)
    series = series_from_operators(ham, zero, obs, make_time_grid(1.0, 4),
                                   method=method)
    assert np.all(series.values == 0.0)
    with pytest.raises(ValueError):
        series_from_operators(ham, np.ones(3), obs, [0.0], method=method)


@pytest.mark.parametrize("method", ["dense", "krylov"])
@pytest.mark.parametrize("grid", [[1.0, 0.5, -2.0], [0.0, 1.0, 1.0]], ids=["unordered", "repeated"])
def test_series_refuses_a_grid_out_of_order_before_any_work(monkeypatch, method, grid):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran on a grid out of order")

    config = ModelConfig(num_modes=4, n_max=1)
    basis, ham = build_model(config)
    obs = resolve_observable(config, "excitation_b")
    for name in ("chebyshev_expectation", "evolve_grid"):
        monkeypatch.setattr(analysis, name, refuse)
    monkeypatch.setattr(HermitianOperator, "invariant_block", refuse)
    with pytest.raises(DomainError, match="strictly increasing") as refused:
        series_from_operators(ham, prepare_initial_state(basis), obs, grid, method=method)
    assert isinstance(refused.value, ValueError)


@pytest.mark.parametrize("method", ["dense", "krylov"])
@pytest.mark.parametrize("size", [3, 6])
def test_series_refuses_an_observable_of_another_dimension(method, size):
    # the observable is restricted to the start's block, whose own size would
    # match, so its dimension is checked against H's before the restriction
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    ham = HermitianOperator(a + a.T)
    obs = BoundedObservable([([0], None)], size)
    with pytest.raises(ValueError, match="observable and Hamiltonian differ"):
        series_from_operators(ham, np.eye(4)[0], obs, [0.0, 0.5], method=method)
