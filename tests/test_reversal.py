"""Time reversal: the real-form dense path against the complex eigh and the series."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from twoatom.analysis import probability_series
from twoatom.basis import build_basis, time_reversal
from twoatom.config import LatticeConfig, ModelConfig
from twoatom.operators import (
    HermitianOperator,
    build_hamiltonian,
    reversal_eigh,
    restricted_reversal,
)
from twoatom.propagator import evolve_grid, prepare_initial_state


def _random_configs(count, seed=15):
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        x_a, x_b = rng.uniform(0.0, 2.0 * np.pi, size=2)
        configs.append(ModelConfig(x_a=float(x_a), x_b=float(x_b), num_modes=12,
                                   coupling_strength=float(rng.uniform(0.05, 0.6))))
    return configs


CONFIGS = [
    ModelConfig(),
    ModelConfig(coupling_form="rotating_wave"),
    ModelConfig(num_modes=30),
    ModelConfig(levels_a=3, num_modes=16),
    ModelConfig(levels_a=3, levels_b=4, coupling_form="rotating_wave"),
    ModelConfig(coupling_scale_a=0.0),
    ModelConfig(cutoff=5.0),
    LatticeConfig(),
    LatticeConfig(coupling_form="rotating_wave"),
    *_random_configs(6),
]
IDS = ["default", "rwa", "modes30", "levels3", "levels3x4_rwa", "a_decoupled",
       "cutoff5", "lattice", "lattice_rwa", *(f"random{i}" for i in range(6))]


@pytest.fixture(scope="module", params=CONFIGS, ids=IDS)
def start_block(request):
    """(basis, H, psi0, block operator, psi0 on the block, complex eigh of the block)."""
    basis = build_basis(request.param)
    ham = build_hamiltonian(basis)
    psi0 = prepare_initial_state(basis)
    block = ham.invariant_block(np.flatnonzero(psi0))
    operator = ham.block(block)
    return basis, ham, psi0, operator, psi0[block], np.linalg.eigh(operator.matrix.toarray())


def test_start_block_is_diagonalized_in_real_form(start_block):
    # the real-form eigensystem against the complex eigh of the same matrix
    basis, ham, _, operator, _, (w_ref, _) = start_block
    assert ham.reversal is not None
    assert operator.reversal is not None  # psi0 is reversal-invariant
    matrix = operator.matrix.toarray()
    w, v = operator.eigensystem()
    assert np.max(np.abs(w - w_ref)) <= 1e-12
    # every eigenpair's residual, and V^dagger V - I in the Frobenius norm,
    # which bounds the 2-norm
    assert np.max(np.linalg.norm(matrix @ v - v * w, axis=0)) <= 1e-12
    assert np.linalg.norm(v.conjugate().T @ v - np.eye(len(w))) <= 1e-12


def test_dense_evolution_matches_complex_eigh_and_series(start_block):
    basis, _, _, operator, psi0, (w_ref, v_ref) = start_block
    grid = np.linspace(0.0, 2.0 * basis.config.light_cone_time, 25)
    reference = (v_ref @ (np.exp(-1j * np.outer(grid, w_ref))
                          * (v_ref.conjugate().T @ psi0)).T).T
    dense = evolve_grid(operator, psi0, grid, method="dense")
    series = evolve_grid(operator, psi0, grid, method="krylov")
    assert np.max(np.abs(dense - reference)) <= 1e-12
    assert np.max(np.abs(dense - series)) <= 1e-12


def test_odd_mode_count_has_no_reversal_and_still_matches():
    # mode n = 16 keeps k but not -k, so no permutation reflects it
    basis = build_basis(ModelConfig(num_modes=31))
    assert time_reversal(basis) is None
    ham = build_hamiltonian(basis)
    assert ham.reversal is None
    psi0 = prepare_initial_state(basis)
    block = ham.invariant_block(np.flatnonzero(psi0))
    operator = ham.block(block)
    assert operator.reversal is None
    grid = np.linspace(0.0, 2.0 * basis.config.light_cone_time, 25)
    dense = evolve_grid(operator, psi0[block], grid, method="dense")
    series = evolve_grid(operator, psi0[block], grid, method="krylov")
    assert np.max(np.abs(dense - series)) <= 1e-12


def test_reversal_swaps_mode_partners_and_fixes_the_atoms():
    basis = build_basis(ModelConfig(num_modes=6, n_max=2, levels_a=3))
    p = time_reversal(basis)
    k = np.asarray(basis.modes.k)
    states = [(a, b, occ) for a in range(basis.levels_a) for b in range(basis.levels_b)
              for occ in basis.occupations]
    partner = [int(np.flatnonzero(k == -kj)[0]) for kj in k]
    for i, (a, b, occ) in enumerate(states):
        a2, b2, occ2 = states[p[i]]
        assert (a2, b2) == (a, b)
        # the photons at k are those the reflected state has at -k
        assert all(occ2[j] == occ[partner[j]] for j in range(len(k)))
    assert np.array_equal(p[p], np.arange(basis.dimension))
    lattice = build_basis(LatticeConfig())
    assert np.array_equal(time_reversal(lattice), np.arange(lattice.dimension))


@pytest.mark.parametrize("box_length", [15.40414258930905, 6.920917552893706])
def test_reversal_is_exact_where_the_field_energy_sums_many_photons(box_length):
    # summed slot by slot, the field energy of an occupation and that of its
    # reflection add the same terms in another order; with three or more
    # photons some of those sums rounded apart at these box lengths, and the
    # constructor's zero-slack check refused H
    config = ModelConfig(box_length=box_length, x_b=box_length / 2.3, n_max=5,
                         num_modes=6, cutoff=100.0)
    ham = build_hamiltonian(build_basis(config))
    p = ham.reversal
    gap = ham.matrix[p][:, p].conjugate() - ham.matrix
    gap.eliminate_zeros()
    assert gap.nnz == 0


def test_constructor_rejects_a_permutation_that_is_no_symmetry():
    basis = build_basis(ModelConfig(num_modes=4, n_max=2))
    matrix = build_hamiltonian(basis).matrix
    # the identity reverses only a real H, and this one has complex couplings
    with pytest.raises(ValueError, match="not an exact symmetry"):
        HermitianOperator(matrix, reversal=np.arange(basis.dimension))
    # reading the indices backwards is its own inverse but moves the atoms
    with pytest.raises(ValueError, match="not an exact symmetry"):
        HermitianOperator(matrix, reversal=np.arange(basis.dimension)[::-1])
    # a cycle, and the true reversal one index short
    with pytest.raises(ValueError, match="its own inverse"):
        HermitianOperator(matrix, reversal=np.roll(np.arange(basis.dimension), 1))
    with pytest.raises(ValueError, match="its own inverse"):
        HermitianOperator(matrix, reversal=time_reversal(basis)[:-1])


def test_block_drops_the_reversal_on_a_set_it_does_not_map_onto_itself():
    basis = build_basis(ModelConfig(num_modes=4, n_max=2))
    ham = build_hamiltonian(basis)
    p = ham.reversal
    moved = np.flatnonzero(p != np.arange(basis.dimension))
    one_side = np.sort(moved[moved < p[moved]])
    assert ham.block(one_side).reversal is None
    assert restricted_reversal(p, one_side) is None
    both = np.sort(np.concatenate([one_side, p[one_side]]))
    kept = ham.block(both).reversal
    assert np.array_equal(both[kept], p[both])


def test_real_form_eigh_matches_complex_eigh_on_random_symmetric_matrices():
    # random Hermitian X, then H = X + conj(X[p][:, p]) has the symmetry
    # exactly, for a p with both fixed points and swapped pairs
    rng = np.random.default_rng(3)
    for dim in (1, 2, 7, 40):
        p = np.arange(dim)
        swaps = rng.permutation(dim)[:2 * ((dim + 1) // 3)].reshape(-1, 2)
        p[swaps[:, 0]], p[swaps[:, 1]] = swaps[:, 1], swaps[:, 0]
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = x + x.conjugate().T
        h = x + x[p][:, p].conjugate()
        HermitianOperator(sparse.csr_matrix(h), reversal=p)  # exact by construction
        w, v = reversal_eigh(sparse.csr_matrix(h), p)
        assert_allclose(w, np.linalg.eigvalsh(h), rtol=0, atol=1e-12 * np.abs(h).max())
        assert np.linalg.norm(h @ v - v * w, 2) <= 1e-12 * np.abs(h).max() * dim
        assert np.linalg.norm(v.conjugate().T @ v - np.eye(dim), 2) <= 1e-13 * dim


@pytest.mark.parametrize("config", [ModelConfig(), ModelConfig(num_modes=30)],
                         ids=["default", "modes30"])
def test_dense_path_runs_real_eigh(monkeypatch, config):
    # a change to the mode order that loses the reversal would fall back to
    # the complex eigh of H, about four times slower, with no other sign;
    # the photon observable runs one eigh, of the m x m region kernel
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: shapes.append((m.shape, m.dtype)) or eigh(m))
    observable = "photon_region" if config.num_modes == 30 else "excitation_b"
    probability_series(config, observable, np.linspace(0.0, 1.0, 5), method="dense")
    kernel = [(shape, dtype) for shape, dtype in shapes if shape == (30, 30)]
    assert kernel == ([((30, 30), np.dtype(np.complex128))]
                      if observable == "photon_region" else [])
    others = [dtype for shape, dtype in shapes if shape != (30, 30)]
    assert others and set(others) == {np.dtype(np.float64)}
