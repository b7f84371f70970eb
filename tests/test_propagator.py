"""Real-time propagation against dense spectral oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

from twoatom.analysis import build_model, resolve_observable
from twoatom.basis import build_basis, index_of_bare_state
from twoatom.config import LatticeConfig, ModelConfig, make_time_grid
from twoatom.errors import ConvergenceError, DomainError
from twoatom.operators import (
    BoundedObservable,
    build_hamiltonian,
    exchange_projector,
    excitation_observable_b,
)
from twoatom.propagator import (
    QR_ROWS,
    _bessel_table,
    _chebyshev_blocks,
    _coefficient_chunks,
    _observed_series,
    _series_order,
    chebyshev_expectation,
    evolve_grid,
    expectation_grid,
    prepare_initial_state,
)


@pytest.fixture(scope="module")
def small_model():
    basis = build_basis(ModelConfig(num_modes=2, n_max=2, coupling_strength=0.3))
    return basis, build_hamiltonian(basis)


@pytest.fixture(scope="module")
def mid_model():
    basis = build_basis(ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3))
    return basis, build_hamiltonian(basis)


def _bracket(ham):
    # (lo, rho) as chebyshev_expectation forms them: H's spectrum in [lo, lo + 2 rho]
    lo, hi = ham.spectral_bounds
    return lo, (hi - lo) / 2 or 1.0


def _rank_one_projectors(dimension, count=3, seed=29):
    # |u><u| for random complex unit u over the whole basis, held as the
    # factor u^dagger: P(t) = |<u|psi(t)>|^2 sees the relative phases of psi(t)
    rng = np.random.default_rng(seed)
    projectors = []
    for _ in range(count):
        u = rng.standard_normal(dimension) + 1j * rng.standard_normal(dimension)
        u /= np.linalg.norm(u)
        projectors.append(BoundedObservable([(np.arange(dimension), u.conj()[None, :])],
                                            dimension, "rank_one"))
    return projectors


def _series_observables(basis):
    # the three named observables of the box, and rank-one projectors
    return [*(resolve_observable(basis.config, name)
              for name in ("excitation_b", "exchange", "photon_region")),
            *_rank_one_projectors(basis.dimension)]


def test_initial_state(small_model):
    basis, _ = small_model
    psi0 = prepare_initial_state(basis)
    assert psi0.dtype == np.float64
    assert np.linalg.norm(psi0) == 1.0
    assert expectation_grid(excitation_observable_b(basis), psi0[None, :])[0] == 0.0
    assert expectation_grid(exchange_projector(basis), psi0[None, :])[0] == 0.0
    i = index_of_bare_state(basis, 1, 0, basis.vacuum)
    assert psi0[i] == 1.0


def test_zero_time_is_identity(small_model):
    basis, ham = small_model
    psi0 = prepare_initial_state(basis)
    for grid in ([0.0], [0.0, 0.0]):
        out = evolve_grid(ham, psi0, grid)
        # exp(0) is the identity: psi0 itself, with no round-off
        assert np.array_equal(out[0], psi0)


def test_decoupled_probabilities_are_static():
    basis = build_basis(ModelConfig(num_modes=2, n_max=1, coupling_strength=0.0))
    ham = build_hamiltonian(basis)
    psi0 = prepare_initial_state(basis)
    obs = excitation_observable_b(basis)
    e0 = ham.matrix.diagonal().real[index_of_bare_state(basis, 1, 0, basis.vacuum)]
    for t in (0.3, 1.7, 12.0):
        psi_t = evolve_grid(ham, psi0, [t])[0]
        # pure phase on the initial amplitude
        assert_allclose(
            psi_t[index_of_bare_state(basis, 1, 0, basis.vacuum)],
            np.exp(-1j * e0 * t),
            atol=1e-13,
        )
        assert expectation_grid(obs, psi_t[None, :])[0] <= 1e-28


def test_group_property(small_model):
    basis, ham = small_model
    assert basis.dimension == 24
    psi0 = prepare_initial_state(basis)
    # exp(-iH t1) exp(-iH t2) = exp(-iH (t1 + t2))
    t1, t2 = 1.1, 1.4
    one_shot = evolve_grid(ham, psi0, [t1 + t2])[0]
    half = evolve_grid(ham, psi0, [t1])[0]
    two_step = evolve_grid(ham, half, [t2])[0]
    assert np.linalg.norm(one_shot - two_step) <= 1e-10


def test_krylov_matches_dense(mid_model):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    grid = np.linspace(0.0, 2 * basis.config.light_cone_time, 30)
    states = evolve_grid(ham, psi0, grid)
    for obs in _series_observables(basis):
        series = chebyshev_expectation(ham, obs, psi0, grid, tol=1e-12)
        assert np.max(np.abs(series - expectation_grid(obs, states))) <= 1e-10, obs


@pytest.mark.parametrize("grid", [
    # two spacings and a repeated time
    np.concatenate([np.linspace(0.0, 2.0, 11), np.linspace(2.0, 6.0, 7)]),
    # uniform but starting after t = 0
    np.linspace(1.5, 6.0, 19),
    np.full(3, 2.0),
    # empty: no states, but still a (0, dim) stack and no values
    np.array([]),
    # every point is its own sum from t = 0: order and sign are free
    np.array([0.0, 1.0, 0.5, -1.0, -3.5]),
], ids=["two_spacings", "offset_uniform", "constant", "empty", "decreasing"])
def test_krylov_matches_dense_on_grid(mid_model, grid):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    states = evolve_grid(ham, psi0, grid)
    assert states.shape == (len(grid), basis.dimension)
    for obs in _series_observables(basis):
        series = chebyshev_expectation(ham, obs, psi0, grid)
        assert series.shape == (len(grid),)
        dense = expectation_grid(obs, states)
        assert np.max(np.abs(series - dense), initial=0.0) <= 1e-10, obs


@pytest.mark.parametrize("method", ["dense", "krylov"])
def test_global_phase_of_the_start_rides_along(mid_model, method):
    # a real H and a real psi0 evolve through a real eigenbasis (or the
    # float64 recurrence), e^{i phi} psi0 through complex amplitudes (or the
    # complex recurrence): the states differ by the phase alone, and P(t)
    # by rounding alone
    basis, ham = mid_model
    assert ham.matrix.dtype == np.float64
    psi0 = prepare_initial_state(basis)
    phase = np.exp(0.83j)
    grid = np.linspace(0.0, 2 * basis.config.light_cone_time, 30)
    if method == "dense":
        real = evolve_grid(ham, psi0, grid)
        rotated = evolve_grid(ham, phase * psi0, grid)
        assert np.max(np.abs(rotated - phase * real)) <= 1e-13
        return
    for obs in _series_observables(basis):
        real = chebyshev_expectation(ham, obs, psi0, grid)
        rotated = chebyshev_expectation(ham, obs, phase * psi0, grid)
        assert np.max(np.abs(rotated - real)) <= 1e-13, obs


def test_krylov_matches_expm_multiply(mid_model):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    t = 3.0
    reference = expm_multiply(-1j * t * ham.matrix.tocsc(), psi0)
    for obs in _series_observables(basis):
        ours = chebyshev_expectation(ham, obs, psi0, [t], tol=1e-12)[0]
        assert abs(ours - expectation_grid(obs, reference[None, :])[0]) <= 1e-9, obs


def test_complex_time_rejects_upper_half_plane(small_model):
    # real time only: a complex-typed grid is refused on both backends
    basis, ham = small_model
    psi = prepare_initial_state(basis)
    obs = excitation_observable_b(basis)
    for grid in ([1.0 + 0.5j], [0.0, -1j, 2.0 + 1e-9j]):
        with pytest.raises(DomainError):
            evolve_grid(ham, psi, grid)
        with pytest.raises(DomainError):
            chebyshev_expectation(ham, obs, psi, grid)


def test_real_axis_consistency(small_model):
    # a complex-typed grid is refused even where every imaginary part is 0;
    # the same points read as a real grid give the same P on both backends
    basis, ham = small_model
    psi0 = prepare_initial_state(basis)
    for grid in ([1.3 + 0j], np.array([0.0, 2.0], dtype=complex)):
        with pytest.raises(DomainError):
            evolve_grid(ham, psi0, grid)
        with pytest.raises(DomainError):
            chebyshev_expectation(ham, excitation_observable_b(basis), psi0, grid)
    state = evolve_grid(ham, psi0, [1.3])
    for obs in _series_observables(basis):
        series = chebyshev_expectation(ham, obs, psi0, [1.3], tol=1e-12)[0]
        assert abs(series - expectation_grid(obs, state)[0]) <= 1e-10, obs


def test_non_finite_or_overflowing_points_raise(small_model):
    # refused before any table or phase is formed: 1e308 times the spectral
    # scale (about 4.5 here) overflows, and a NaN or inf point has no value
    basis, ham = small_model
    psi = prepare_initial_state(basis)
    obs = excitation_observable_b(basis)
    for grid in ([0.0, np.nan], [np.inf], [1.0, 1e308]):
        with pytest.raises(DomainError):
            evolve_grid(ham, psi, grid)
        with pytest.raises(DomainError):
            chebyshev_expectation(ham, obs, psi, grid)


def test_unitarity_and_energy_conservation(mid_model):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    grid = np.linspace(0.0, 12.0, 25)
    states = evolve_grid(ham, psi0, grid)
    norms = np.linalg.norm(states, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    energies = np.real(np.einsum("ij,ij->i", states.conj(), (ham.matrix @ states.T).T))
    assert np.max(np.abs(energies - energies[0])) <= 1e-10
    # the series: the norm from the identity observable, the energy from
    # (H - lo) / (hi - lo), which lies in [0, 1]
    identity = BoundedObservable([(np.arange(basis.dimension), None)], basis.dimension)
    norms = np.sqrt(chebyshev_expectation(ham, identity, psi0, grid, tol=1e-12))
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    energy, lo, span = _energy_observable(ham)
    energies = lo + span * chebyshev_expectation(ham, energy, psi0, grid, tol=1e-12)
    assert np.max(np.abs(energies - energies[0])) <= 1e-10


def _energy_observable(ham):
    """((H - lo) / span, lo, span) from H's dense eigh, lo and lo + span its extremes.

    The observable is held as its square-root factor diag(sqrt(w - lo) / span) V^dagger.
    """
    w, v = np.linalg.eigh(ham.matrix.toarray())
    lo, span = w[0], w[-1] - w[0]
    factor = np.sqrt((w - lo) / span)[:, None] * v.conj().T
    return BoundedObservable([(np.arange(len(w)), factor)], len(w), "energy"), lo, span


def test_probability_continuity(mid_model):
    # |P(t+d) - P(t)| <= C d with C = 2 ||H|| for a projector observable
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    obs = excitation_observable_b(basis)
    w = np.linalg.eigvalsh(ham.matrix.toarray())
    lipschitz = 2.0 * max(abs(w[0]), abs(w[-1]))
    for steps in (40, 80, 160):
        grid = np.linspace(0.0, 6.0, steps + 1)
        probs = expectation_grid(obs, evolve_grid(ham, psi0, grid))
        delta = grid[1] - grid[0]
        assert np.max(np.abs(np.diff(probs))) <= lipschitz * delta * (1.0 + 1e-9)


def test_expectation_projector_mean_over_random_states(small_model):
    # Haar average of <psi|O|psi> for a rank-r projector is r/D
    basis, _ = small_model
    obs = exchange_projector(basis)
    rng = np.random.default_rng(37)
    n_samples = 4000
    total = 0.0
    for _ in range(n_samples):
        v = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        total += expectation_grid(obs, (v / np.linalg.norm(v))[None, :])[0]
    mean = total / n_samples
    assert abs(mean - 1.0 / basis.dimension) < 4.0 / basis.dimension / np.sqrt(n_samples) * 3


def test_wrong_shape_state_raises(small_model):
    basis, ham = small_model
    obs = excitation_observable_b(basis)

    def series(ham, psi, grid):
        return chebyshev_expectation(ham, obs, psi, grid)

    for propagate in (evolve_grid, series):
        for psi in (np.zeros((2, basis.dimension), dtype=complex),
                    np.zeros(basis.dimension - 1, dtype=complex)):
            with pytest.raises(ValueError):
                propagate(ham, psi, [1.0])
        # and the grid is one-dimensional
        with pytest.raises(ValueError):
            propagate(ham, prepare_initial_state(basis), [[1.0]])


def test_lattice_propagation_unitary():
    cfg = LatticeConfig(num_sites=6, site_a=1, site_b=4)
    basis = build_basis(cfg)
    ham = build_hamiltonian(basis)
    psi0 = prepare_initial_state(basis)
    grid = np.linspace(0.0, 8.0, 20)
    states = evolve_grid(ham, psi0, grid)
    assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-12


def test_bessel_table_matches_scipy_jv():
    # Miller's recurrence against scipy's J_k, with no warning on the way:
    # w = 0, tiny |w| (ratios 2k/w near 1e14 before rescaling), either sign
    # and |w| near 400
    w = np.array([0.0, 1e-12, -3e-13, 0.7, 25.0, -60.0, -2.3, 399.0, -380.0])
    order = 600
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = _bessel_table(w, order + 1)
    assert table.dtype == np.float64
    k = np.arange(order - 50)[:, None]
    # the normalising sum has order / 2 terms, each rounded once
    assert np.max(np.abs(table[:order - 50] - jv(k, w))) <= order * np.finfo(float).eps / 2
    assert np.array_equal(table[:, 0], np.eye(order + 1)[0])


# ---------------------------------------------------------------------------
# P(t) from the Chebyshev series, against the dense states
# ---------------------------------------------------------------------------

CRITERION_6_CONFIGS = {
    "box8": ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3),
    "box8_rwa": ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3,
                            coupling_form="rotating_wave"),
    "box24_n1": ModelConfig(num_modes=24, n_max=1),
    "box12_cut4": ModelConfig(num_modes=12, n_max=2, cutoff=4.0),
    "lattice": LatticeConfig(),
    "lattice8": LatticeConfig(num_sites=8, site_a=1, site_b=6),
}


def _observables(config):
    names = ["excitation_b", "exchange"]
    if isinstance(config, ModelConfig):
        names.append("photon_region")
    return [resolve_observable(config, name) for name in names]


def _dense_series(ham, obs, psi, grid):
    return expectation_grid(obs, evolve_grid(ham, psi, grid))


@pytest.mark.parametrize("name", CRITERION_6_CONFIGS)
def test_chebyshev_expectation_matches_dense_states(name):
    config = CRITERION_6_CONFIGS[name]
    basis, ham = build_model(config)
    psi = prepare_initial_state(basis)
    grid = make_time_grid(6.0, 30)
    for obs in _observables(config):
        values = chebyshev_expectation(ham, obs, psi, grid)
        assert np.max(np.abs(values - _dense_series(ham, obs, psi, grid))) <= 1e-12, obs
        assert values.min() >= 0.0


def test_chebyshev_expectation_complex_hamiltonian_and_start():
    # an odd num_modes keeps one running wave, so H is complex; the start is
    # a random complex state spread over the whole basis
    config = ModelConfig(num_modes=7, n_max=2, coupling_strength=0.3)
    basis, ham = build_model(config)
    assert ham.matrix.dtype == np.complex128
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    psi /= np.linalg.norm(psi)
    grid = np.array([0.0, 0.4, 1.1, 2.5, 5.0, -0.7])
    for obs in _observables(config):
        values = chebyshev_expectation(ham, obs, psi, grid)
        assert np.max(np.abs(values - _dense_series(ham, obs, psi, grid))) <= 1e-12, obs
        # P(0) is <psi|O|psi> itself, not its round trip through the series
        assert values[0] == expectation_grid(obs, psi[None, :])[0]


def test_chebyshev_expectation_first_rwa_point_is_relatively_exact():
    # at the default grid's first step under RWA, P is 8.2e-14: a value the
    # dense eigenbasis gets only to ~4e-10 relative.  The oracle is the
    # Taylor series of exp(-iHt) psi0 in extended precision on the 34-state
    # block; the Chebyshev P must match it to 1e-12 relative.  The whole
    # grid sets the series length: its tail cut is absolute, so a grid of
    # [0, t] alone would stop early, near 1e-11 relative at this point
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    config = ModelConfig(coupling_form="rotating_wave")
    basis, ham = build_model(config)
    psi = prepare_initial_state(basis)
    block = ham.invariant_block(np.flatnonzero(psi))
    sub = ham.block(block)
    obs = resolve_observable(config, "excitation_b").restricted(block)
    grid = make_time_grid(2 * config.light_cone_time, 800)
    value = chebyshev_expectation(sub, obs, psi[block], grid)
    assert value[0] == 0.0
    t = grid[1]
    h = sub.matrix.toarray().astype(np.longdouble) * np.longdouble(t)
    term_re, term_im = psi[block].astype(np.longdouble), np.zeros(len(block), np.longdouble)
    sum_re, sum_im = term_re.copy(), term_im.copy()
    for k in range(1, 40):   # ||H t|| < 0.3: the terms fall below 1e-40
        term_re, term_im = h @ term_im / k, -(h @ term_re) / k
        sum_re += term_re
        sum_im += term_im
    (indices, factor), = obs.blocks
    assert factor is None
    oracle = np.sum(sum_re[indices] ** 2 + sum_im[indices] ** 2)
    assert 8e-14 < oracle < 8.5e-14
    assert abs(value[1] - oracle) <= 1e-12 * oracle


def test_chebyshev_expectation_keeps_the_checks_of_the_states_path(mid_model):
    basis, ham = mid_model
    psi = prepare_initial_state(basis)
    obs = excitation_observable_b(basis)
    # a norm tolerance below rounding: the same ConvergenceError, residual
    # attached (on [0, 1, 2] alone the weights round to exactly 1)
    with pytest.raises(ConvergenceError) as caught:
        chebyshev_expectation(ham, obs, psi, [0.0, 1.0, 2.0, 3.0], tol=1e-30)
    assert 1e-30 < caught.value.residual < 1e-12
    for grid in ([1.0 + 0.5j], np.array([0.0, 2.0], dtype=complex),
                 [0.0, np.nan], [np.inf], [1.0, 1e308]):
        with pytest.raises(DomainError):
            chebyshev_expectation(ham, obs, psi, grid)
    with pytest.raises(ValueError):
        chebyshev_expectation(ham, obs, psi[:-1], [1.0])
    with pytest.raises(ValueError):
        chebyshev_expectation(ham, obs, psi, [[1.0]])
    with pytest.raises(ValueError, match="differ in dimension"):
        chebyshev_expectation(ham, BoundedObservable([([0], None)], ham.dimension + 1),
                              psi, [1.0])
    assert chebyshev_expectation(ham, obs, psi, []).shape == (0,)


@pytest.mark.parametrize("name", CRITERION_6_CONFIGS)
def test_series_certificate_holds_on_the_vectors(name):
    # the two checks of the series from the stored vectors: every ||V_k||
    # within ||psi0||, the weights J_0^2 + 2 sum_k J_k^2 at 1, and with them
    # the norm ||sum_k a_k V_k|| = ||psi0|| at every point, for the complex
    # a_k = (2 - delta_k0) (-i)^k J_k (the phase e^{-i (lo + rho) t} keeps norms)
    config = CRITERION_6_CONFIGS[name]
    basis, ham = build_model(config)
    psi = prepare_initial_state(basis)
    grid = make_time_grid(6.0, 30)
    lo, radius = _bracket(ham)
    terms = _series_order(radius, grid, basis.dimension, 0)
    vectors = np.vstack([block.copy()
                         for _, block in _chebyshev_blocks(ham, lo, radius, psi, terms)])
    assert vectors.shape == (terms, basis.dimension)
    norm = np.linalg.norm(psi)
    assert np.linalg.norm(vectors, axis=1).max() <= norm * (1 + 1e-13)
    k = np.arange(terms)
    doubles = np.where(k == 0, 1.0, 2.0)
    for _, table in _coefficient_chunks(radius, grid, terms):
        assert np.max(np.abs(doubles @ table ** 2 - 1)) <= 1e-14
        coeff = (doubles * (-1j) ** k)[:, None] * table
        lengths = np.linalg.norm(vectors.T @ coeff, axis=0)
        assert np.max(np.abs(lengths - norm)) <= 1e-13


def test_coefficient_check_catches_a_perturbed_coefficient(mid_model, monkeypatch):
    # one J_k off by 1e-6 relative moves the weights by about 2e-6 J_k^2,
    # far above the tolerance, while the bracket check sees nothing
    basis, ham = mid_model
    chunks = _coefficient_chunks

    def perturbed(*args):
        for columns, table in chunks(*args):
            table[1] *= 1 + 1e-6
            yield columns, table

    monkeypatch.setattr("twoatom.propagator._coefficient_chunks", perturbed)
    with pytest.raises(ConvergenceError):
        chebyshev_expectation(ham, excitation_observable_b(basis),
                              prepare_initial_state(basis), make_time_grid(6.0, 30))


@pytest.mark.parametrize("reach", [0.0, 0.1, 1.0, 10.0, 100.0, 1e4])
def test_one_probe_leaves_the_series_its_margin(reach):
    # _series_order probes once, at order = rho|t| + 18 (rho|t|)^(1/3) + 30,
    # and Miller's table needs K ten orders below that; the probe leaves at
    # least 19 more.  K itself is the tail count from scipy's J_k, give or
    # take the one term where that tail crosses unit roundoff
    order = int(reach + 18 * np.cbrt(reach) + 30)
    terms = _series_order(1.0, np.array([0.0, -reach]), 1, 1)
    assert terms <= order - 10 - 19
    weights = np.where(np.arange(order) == 0, 1.0, 2.0) * np.abs(jv(np.arange(order), reach))
    tail = np.cumsum(weights[::-1])[::-1]
    assert abs(terms - max(np.count_nonzero(tail > np.finfo(float).eps / 2), 1)) <= 1


def test_a_probe_that_falls_short_raises(monkeypatch):
    # a tail still above unit roundoff ten orders below the probe would cut
    # the series short by more than the coefficient weights can see
    monkeypatch.setattr("twoatom.propagator._series_length", lambda table: len(table) - 10)
    with pytest.raises(ConvergenceError, match="needs more than the 65 terms probed"):
        _series_order(1.0, np.array([5.0]), 1, 1)


def test_moment_norm_catches_a_divergent_series(mid_model, monkeypatch):
    # a bracket 20 % narrower than the spectrum: the scaled H reaches past
    # [-1, 1], where T_k grows like 2^k, so the truncated series is far off
    # and its norm check must fail
    basis, ham = mid_model
    w = np.linalg.eigvalsh(ham.matrix.toarray())
    span = w[-1] - w[0]
    monkeypatch.setattr("twoatom.operators.gershgorin_bounds",
                        lambda matrix: (w[0] + 0.1 * span, w[-1] - 0.1 * span))
    psi = prepare_initial_state(basis)
    grid = make_time_grid(6.0, 30)
    with pytest.raises(ConvergenceError):
        chebyshev_expectation(ham, excitation_observable_b(basis), psi, grid)


def test_series_keeps_no_vectors():
    # at n_max = 3 the start's block holds 13 090 states, and the K series
    # vectors would be K x block float64 entries; the exchange observable
    # keeps one observed row per vector, so all the series holds is one
    # block of vectors, its factors and a chunk of coefficients
    config = ModelConfig(n_max=3, x_b=2.68, coupling_strength=0.23)
    basis, ham = build_model(config)
    psi = prepare_initial_state(basis)
    block = ham.invariant_block(np.flatnonzero(psi))
    sub = ham.block(block)
    obs = resolve_observable(config, "exchange").restricted(block)
    grid = make_time_grid(2 * config.light_cone_time, 800)
    terms = _series_order(_bracket(sub)[1], grid, len(block), 0)
    tracemalloc.start()
    try:
        values = chebyshev_expectation(sub, obs, psi[block], grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(block) == 13090
    assert values[1:].min() > 0.0
    assert peak < terms * len(block) * 8


def test_series_holds_no_k_by_k_array(mid_model):
    # out to t = 300 the series of the 180-state model has K far above the
    # block, so a K x K array of float64, K^2 * 8 bytes, would outweigh all
    # the series needs: its observed rows, their QR and a chunk of the table
    basis, ham = mid_model
    psi = prepare_initial_state(basis)
    obs = excitation_observable_b(basis)
    grid = make_time_grid(300.0, 400)
    terms = _series_order(_bracket(ham)[1], grid, basis.dimension, 0)
    tracemalloc.start()
    try:
        chebyshev_expectation(ham, obs, psi, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms > 5 * basis.dimension
    assert peak < terms**2 * 8


def test_qr_of_tall_observed_rows_copies_one_chunk(monkeypatch):
    # at n_max = 3 the excited-B rows M of the start's block are 6545 x 192,
    # 10.1 MB; np.linalg.qr copies its argument, so one QR of all of M would
    # hold a second M.  Reduced QR_ROWS rows at a time, the factorization
    # adds one chunk's copies and the factor beside M
    config = ModelConfig(n_max=3, x_b=2.68, coupling_strength=0.23)
    basis, ham = build_model(config)
    psi = prepare_initial_state(basis)
    block = ham.invariant_block(np.flatnonzero(psi))
    sub = ham.block(block)
    obs = resolve_observable(config, "excitation_b").restricted(block)
    grid = make_time_grid(2 * config.light_cone_time, 800)
    held = {}

    def observed_series(*args):
        observed, lengths = _observed_series(*args)
        held.update(rows=len(observed), size=observed.nbytes,
                    base=tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return observed, lengths

    monkeypatch.setattr("twoatom.propagator._observed_series", observed_series)
    tracemalloc.start()
    try:
        values = chebyshev_expectation(sub, obs, psi[block], grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held["rows"] > QR_ROWS
    assert peak - held["base"] < held["size"]
    monkeypatch.setattr("twoatom.propagator.QR_ROWS", held["rows"])
    assert_allclose(values, chebyshev_expectation(sub, obs, psi[block], grid),
                    atol=1e-15, rtol=0)
