"""Real- and complex-time propagation against dense spectral oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from twoatom.basis import build_basis, index_of_bare_state
from twoatom.config import LatticeConfig, ModelConfig
from twoatom.errors import DomainError
from twoatom.operators import (
    HermitianOperator,
    build_hamiltonian,
    exchange_projector,
    excitation_observable_b,
)
from twoatom.propagator import (
    StateVector,
    evolve_complex,
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


def test_initial_state(small_model):
    basis, _ = small_model
    psi0 = prepare_initial_state(basis)
    assert psi0.norm() == 1.0
    assert expectation_grid(excitation_observable_b(basis), psi0.amplitudes[None, :])[0] == 0.0
    assert expectation_grid(exchange_projector(basis), psi0.amplitudes[None, :])[0] == 0.0
    i = index_of_bare_state(basis, 1, 0, basis.vacuum)
    assert psi0.amplitudes[i] == 1.0


def test_zero_time_is_identity(small_model):
    basis, ham = small_model
    psi0 = prepare_initial_state(basis)
    out = evolve_complex(ham, psi0, 0.0)
    assert_allclose(out.amplitudes, psi0.amplitudes, atol=1e-14)


def test_decoupled_probabilities_are_static():
    basis = build_basis(ModelConfig(num_modes=2, n_max=1, coupling_strength=0.0))
    ham = build_hamiltonian(basis)
    psi0 = prepare_initial_state(basis)
    obs = excitation_observable_b(basis)
    e0 = ham.matrix.diagonal().real[index_of_bare_state(basis, 1, 0, basis.vacuum)]
    for t in (0.3, 1.7, 12.0):
        psi_t = evolve_complex(ham, psi0, t)
        # pure phase on the initial amplitude
        assert_allclose(
            psi_t.amplitudes[index_of_bare_state(basis, 1, 0, basis.vacuum)],
            np.exp(-1j * e0 * t),
            atol=1e-13,
        )
        assert expectation_grid(obs, psi_t.amplitudes[None, :])[0] <= 1e-28


def test_group_property(small_model):
    basis, ham = small_model
    assert basis.dimension == 24
    psi0 = prepare_initial_state(basis)
    one_shot = evolve_complex(ham, psi0, 2.5)
    two_step = evolve_complex(ham, evolve_complex(ham, psi0, 1.1), 1.4)
    assert np.linalg.norm(one_shot.amplitudes - two_step.amplitudes) <= 1e-10


def test_krylov_matches_dense(mid_model):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    grid = np.linspace(0.0, 2 * basis.config.light_cone_time, 30)
    dense = evolve_grid(ham, psi0, grid, method="dense")
    krylov = evolve_grid(ham, psi0, grid, method="krylov", tol=1e-12)
    assert np.max(np.linalg.norm(dense - krylov, axis=1)) <= 1e-10


@pytest.mark.parametrize("grid", [
    # two spacings and a repeated time: one expm_multiply call per interval
    np.concatenate([np.linspace(0.0, 2.0, 11), np.linspace(2.0, 6.0, 7)]),
    # uniform but starting after t = 0: one call from times[0]
    np.linspace(1.5, 6.0, 19),
    # constant: expm_multiply's interval mode would skip the propagation
    np.full(3, 2.0),
    # empty: no states, but still a (0, dim) stack on both paths
    np.array([]),
], ids=["two_spacings", "offset_uniform", "constant", "empty"])
def test_krylov_matches_dense_on_grid(mid_model, grid):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    dense = evolve_grid(ham, psi0, grid, method="dense")
    krylov = evolve_grid(ham, psi0, grid, method="krylov")
    assert dense.shape == krylov.shape == (len(grid), basis.dimension)
    assert np.max(np.linalg.norm(dense - krylov, axis=1), initial=0.0) <= 1e-10


def test_krylov_matches_expm_multiply(mid_model):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    t = 3.0
    ours = evolve_complex(ham, psi0, t, method="krylov", tol=1e-12)
    reference = expm_multiply(-1j * t * ham.matrix.tocsc(), psi0.amplitudes)
    assert np.linalg.norm(ours.amplitudes - reference) <= 1e-9


def test_complex_time_diagonal_case():
    ham = HermitianOperator(sparse.diags([0.0, 1.0]).astype(complex), 0.0)
    psi = StateVector(np.array([1.0, 1.0], dtype=complex) / np.sqrt(2))
    out = evolve_complex(ham, psi, -1j)
    assert_allclose(out.amplitudes, psi.amplitudes * np.array([1.0, np.exp(-1.0)]),
                    atol=1e-14)


def test_complex_time_rejects_upper_half_plane(small_model):
    _, ham = small_model
    psi = prepare_initial_state(ham.basis)
    with pytest.raises(DomainError):
        evolve_complex(ham, psi, 1.0 + 0.5j)


def test_real_axis_consistency(small_model):
    basis, ham = small_model
    psi0 = prepare_initial_state(basis)
    a = StateVector(evolve_grid(ham, psi0, [1.3])[0])
    b = evolve_complex(ham, psi0, 1.3 + 0.0j)
    assert np.linalg.norm(a.amplitudes - b.amplitudes) <= 1e-12


def test_complex_time_norm_bound(small_model):
    # ||exp(-iH(t+iy)) psi|| <= exp(y * E_min) ||psi|| for y < 0
    basis, ham = small_model
    w, vecs = np.linalg.eigh(ham.matrix.toarray())
    e_min = w[0]
    rng = np.random.default_rng(23)
    for _ in range(50):
        v = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        v /= np.linalg.norm(v)
        y = -rng.uniform(0.05, 4.0)
        t = rng.uniform(-3.0, 3.0)
        out = evolve_complex(ham, StateVector(v, basis), t + 1j * y)
        assert out.norm() <= np.exp(y * e_min) * (1.0 + 1e-12)
        # exact value from the dense spectral oracle
        oracle = np.linalg.norm(np.exp(y * w) * (vecs.conjugate().T @ v))
        assert_allclose(out.norm(), oracle, rtol=1e-11)


def test_krylov_complex_time_matches_dense(mid_model):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    z = 1.0 - 0.7j
    dense = evolve_complex(ham, psi0, z, method="dense")
    krylov = evolve_complex(ham, psi0, z, method="krylov", tol=1e-12)
    assert np.linalg.norm(dense.amplitudes - krylov.amplitudes) <= 1e-10


def test_unitarity_and_energy_conservation(mid_model):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    grid = np.linspace(0.0, 12.0, 25)
    for method in ("dense", "krylov"):
        states = evolve_grid(ham, psi0, grid, method=method, tol=1e-12)
        norms = np.linalg.norm(states, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12
        energies = np.real(np.einsum("ij,ij->i", states.conj(), (ham.matrix @ states.T).T))
        assert np.max(np.abs(energies - energies[0])) <= 1e-10


def test_probability_continuity(mid_model):
    # |P(t+d) - P(t)| <= C d with C = 2 ||H|| for a projector observable
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    obs = excitation_observable_b(basis)
    w = np.linalg.eigvalsh(ham.matrix.toarray())
    lipschitz = 2.0 * max(abs(w[0]), abs(w[-1]))
    for steps in (40, 80, 160):
        grid = np.linspace(0.0, 6.0, steps + 1)
        probs = expectation_grid(obs, evolve_grid(ham, psi0, grid, method="dense"))
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


def test_grid_requires_monotone_times_for_krylov(mid_model):
    basis, ham = mid_model
    psi0 = prepare_initial_state(basis)
    with pytest.raises(DomainError):
        evolve_grid(ham, psi0, [0.0, 1.0, 0.5], method="krylov")
    with pytest.raises(DomainError):
        evolve_grid(ham, psi0, [-1.0, 0.0, 1.0], method="krylov")


def test_state_vector_validation(small_model):
    basis, _ = small_model
    with pytest.raises(ValueError):
        StateVector(np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        StateVector(np.zeros(3, dtype=complex), basis)


def test_lattice_propagation_unitary():
    cfg = LatticeConfig(num_sites=6, site_a=1, site_b=4)
    basis = build_basis(cfg)
    ham = build_hamiltonian(basis)
    psi0 = prepare_initial_state(basis)
    grid = np.linspace(0.0, 8.0, 20)
    states = evolve_grid(ham, psi0, grid, method="dense")
    assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-12
