"""Hamiltonian assembly and observables against hand-built oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from twoatom.basis import build_basis, index_of_bare_state
from twoatom.config import LatticeConfig, ModelConfig
from twoatom.errors import DomainError
from twoatom.operators import (
    BoundedObservable,
    HermitianOperator,
    build_hamiltonian,
    exchange_projector,
    excitation_observable_b,
    format_triplets,
    gershgorin_floor,
    local_photon_observable,
)
from twoatom.propagator import expectation_grid, prepare_initial_state


def basis_states(basis):
    """(a_level, b_level, occupations) per basis index, atoms outermost."""
    return [(a, b, occ) for a in range(basis.levels_a) for b in range(basis.levels_b)
            for occ in basis.occupations]


def excitation_numbers(basis):
    """Total excitation count (atom levels plus photons) per basis state."""
    return np.array([a + b + sum(occ) for a, b, occ in basis_states(basis)], dtype=float)


def mode_coupling(cfg, k, omega):
    return cfg.coupling_strength * math.sqrt(omega / cfg.box_length) * math.exp(
        -((omega / cfg.cutoff) ** 2)
    )


def test_decoupled_hamiltonian_is_diagonal():
    cfg = ModelConfig(num_modes=4, n_max=2, coupling_strength=0.0)
    basis = build_basis(cfg)
    ham = build_hamiltonian(basis)
    off = ham.matrix - sparse.diags(ham.matrix.diagonal())
    off.eliminate_zeros()
    assert off.nnz == 0
    # eigenvalues are the bare sums of level energies and photon frequencies
    omegas = np.asarray(basis.modes.omega)
    expected = np.array(
        [
            a * cfg.omega_a + b * cfg.omega_b + float(np.dot(omegas, occ))
            for a, b, occ in basis_states(basis)
        ]
    )
    assert_allclose(ham.matrix.diagonal().real, expected, rtol=0, atol=0)


def test_single_excitation_block_hand_oracle():
    # one mode, one photon, rotating wave: the single-excitation sector is a
    # 3x3 block over (e_A g_B 0), (g_A g_B 1), (g_A e_B 0)
    cfg = ModelConfig(num_modes=1, n_max=1, coupling_form="rotating_wave")
    basis = build_basis(cfg)
    ham = build_hamiltonian(basis).matrix.toarray()

    k, omega = basis.modes.k[0], basis.modes.omega[0]
    g0 = mode_coupling(cfg, k, omega)
    idx = [
        index_of_bare_state(basis, 1, 0, (0,)),
        index_of_bare_state(basis, 0, 0, (1,)),
        index_of_bare_state(basis, 0, 1, (0,)),
    ]
    block = ham[np.ix_(idx, idx)]

    c_a = g0 * np.exp(1j * k * cfg.x_a)
    c_b = g0 * np.exp(1j * k * cfg.x_b)
    hand = np.array(
        [
            [cfg.omega_a, c_a, 0.0],
            [np.conjugate(c_a), omega, np.conjugate(c_b)],
            [0.0, c_b, cfg.omega_b],
        ]
    )
    assert_allclose(block, hand, rtol=0, atol=1e-15)

    # closed-form eigenvalues of the hand block (characteristic polynomial
    # factors since the three diagonal entries coincide)
    r = math.hypot(abs(c_a), abs(c_b))
    expected = np.sort([omega - r, omega, omega + r])
    assert_allclose(np.linalg.eigvalsh(block), expected, atol=1e-14)


def test_counter_rotating_terms_change_excitation_by_two():
    cfg_full = ModelConfig(num_modes=3, n_max=2, coupling_form="full")
    cfg_rwa = ModelConfig(num_modes=3, n_max=2, coupling_form="rotating_wave")
    basis = build_basis(cfg_full)
    h_full = build_hamiltonian(basis).matrix
    h_rwa = build_hamiltonian(build_basis(cfg_rwa)).matrix
    diff = (h_full - h_rwa).tocoo()
    counts = excitation_numbers(basis)
    jumps = np.abs(counts[diff.row] - counts[diff.col])
    assert diff.nnz > 0
    assert np.all(jumps == 2.0)


def test_excitation_number_commutator():
    basis = build_basis(ModelConfig(num_modes=3, n_max=2, coupling_form="rotating_wave"))
    n_op = sparse.diags(excitation_numbers(basis))
    h = build_hamiltonian(basis).matrix
    comm = h @ n_op - n_op @ h
    assert np.abs(comm.toarray()).max() == 0.0

    basis_full = build_basis(ModelConfig(num_modes=3, n_max=2, coupling_form="full"))
    h_full = build_hamiltonian(basis_full).matrix
    comm_full = h_full @ n_op - n_op @ h_full
    assert np.abs(comm_full.toarray()).max() > 0.0


def test_three_level_ladder_hand_oracle():
    # atom A climbs 1 -> 2 by absorbing one photon (rotating) or emitting
    # one (counter-rotating); the ladder has no direct 0 <-> 2 step
    cfg = ModelConfig(levels_a=3, num_modes=3, n_max=2, coupling_form="full")
    basis = build_basis(cfg)
    ham = build_hamiltonian(basis).matrix
    vac = basis.vacuum
    for j, (k, omega) in enumerate(zip(basis.modes.k, basis.modes.omega)):
        c_a = mode_coupling(cfg, k, omega) * np.exp(1j * k * cfg.x_a)
        one = tuple(int(i == j) for i in range(basis.num_slots))
        top = index_of_bare_state(basis, 2, 0, vac)
        mid = index_of_bare_state(basis, 1, 0, one)
        assert ham[top, mid] == c_a
        assert ham[mid, top] == np.conjugate(c_a)
        emitted = index_of_bare_state(basis, 2, 0, one)
        assert ham[emitted, index_of_bare_state(basis, 1, 0, vac)] == np.conjugate(c_a)
    coo = ham.tocoo()
    a_level = np.array([a for a, _, _ in basis_states(basis)])
    assert np.all(np.abs(a_level[coo.row] - a_level[coo.col]) <= 1)
    assert np.any(a_level[coo.row] == 2)


def test_hermiticity_is_exact():
    for cfg in (
        ModelConfig(num_modes=6, n_max=2, coupling_form="full"),
        LatticeConfig(num_sites=6, site_a=1, site_b=4),
        ModelConfig(levels_a=3, levels_b=4, num_modes=4, n_max=3, coupling_form="full"),
        LatticeConfig(num_sites=6, site_a=1, site_b=4, coupling_form="rotating_wave"),
    ):
        ham = build_hamiltonian(build_basis(cfg))
        gap = ham.matrix - ham.matrix.conjugate().T
        gap.eliminate_zeros()
        assert gap.nnz == 0


def test_constructor_rejects_non_hermitian():
    bad = sparse.csr_matrix(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        HermitianOperator(bad, 0.0)


def test_spectral_floor_is_lower_bound():
    basis = build_basis(ModelConfig(num_modes=4, n_max=2, coupling_strength=0.4))
    ham = build_hamiltonian(basis)
    w = np.linalg.eigvalsh(ham.matrix.toarray())
    assert ham.spectral_floor <= w[0] + 1e-12


def test_gershgorin_floor_exact_for_diagonal():
    mat = sparse.diags([3.0, -1.5, 2.0]).tocsr()
    assert gershgorin_floor(mat) == -1.5


def test_excitation_observable_b():
    basis = build_basis(ModelConfig(num_modes=2, n_max=1))
    obs = excitation_observable_b(basis)
    psi0 = prepare_initial_state(basis)
    assert expectation_grid(obs, psi0[None, :])[0] == 0.0
    exchanged = np.zeros(basis.dimension, dtype=complex)
    exchanged[index_of_bare_state(basis, 0, 1, basis.vacuum)] = 1.0
    assert expectation_grid(obs, exchanged[None, :])[0] == 1.0
    # B excited on exactly half of a two-level-B basis
    o = obs.sqrt_factor.conjugate().T @ obs.sqrt_factor
    trace = float(np.real(o.diagonal().sum()))
    assert trace == basis.dimension / 2
    # projector: O^2 = O exactly
    assert (o @ o != o).nnz == 0


def test_exchange_projector():
    basis = build_basis(ModelConfig(num_modes=2, n_max=1))
    obs = exchange_projector(basis)
    o = obs.sqrt_factor.conjugate().T @ obs.sqrt_factor
    assert float(np.real(o.diagonal().sum())) == 1.0
    psi0 = prepare_initial_state(basis)
    assert expectation_grid(obs, psi0[None, :])[0] == 0.0
    target = np.zeros(basis.dimension, dtype=complex)
    target[index_of_bare_state(basis, 0, 1, basis.vacuum)] = 1.0
    assert expectation_grid(obs, target[None, :])[0] == 1.0
    assert (o @ o != o).nnz == 0


def one_photon_state(basis, mode_index):
    occ = [0] * basis.num_slots
    occ[mode_index] = 1
    amp = np.zeros(basis.dimension, dtype=complex)
    amp[index_of_bare_state(basis, 0, 0, tuple(occ))] = 1.0
    return amp


def test_photon_observable_full_box_completeness():
    cfg = ModelConfig(num_modes=4, n_max=1)
    basis = build_basis(cfg)
    obs = local_photon_observable(basis, (0.0, cfg.box_length))
    for j in range(basis.num_slots):
        state = one_photon_state(basis, j)
        assert expectation_grid(obs, state[None, :])[0] == pytest.approx(1.0, abs=1e-12)


def test_photon_observable_vacuum():
    cfg = ModelConfig(num_modes=4, n_max=1)
    basis = build_basis(cfg)
    obs = local_photon_observable(basis, (0.0, cfg.box_length / 2))
    vac = np.zeros(basis.dimension, dtype=complex)
    vac[index_of_bare_state(basis, 0, 0, basis.vacuum)] = 1.0
    assert expectation_grid(obs, vac[None, :])[0] == 0.0


def test_photon_observable_half_box_dense_oracle():
    # independent spectral oracle: build the one-photon region kernel from
    # the overlap integrals of exp(ikx)/sqrt(L), diagonalize, saturate at 1
    cfg = ModelConfig(num_modes=6, n_max=1)
    basis = build_basis(cfg)
    lo, hi = 0.0, cfg.box_length / 2
    obs = local_photon_observable(basis, (lo, hi))

    k = np.asarray(basis.modes.k)
    m = len(k)
    kernel = np.empty((m, m), dtype=complex)
    for j in range(m):
        for l in range(m):
            q = k[l] - k[j]
            if q == 0:
                kernel[j, l] = (hi - lo) / cfg.box_length
            else:
                kernel[j, l] = (np.exp(1j * q * hi) - np.exp(1j * q * lo)) / (
                    1j * q * cfg.box_length
                )
    lam, vec = np.linalg.eigh(kernel)
    clipped = np.clip(lam, 0.0, 1.0)
    oracle = (vec * clipped) @ vec.conjugate().T

    for j in range(m):
        got = expectation_grid(obs, one_photon_state(basis, j)[None, :])[0]
        assert_allclose(got, oracle[j, j].real, atol=1e-12)
        # for a single mode the diagonal entry is just the region fraction
        assert_allclose(got, 0.5, atol=1e-12)


def test_photon_observable_spectrum_in_unit_interval():
    cfg = ModelConfig(num_modes=4, n_max=2)
    basis = build_basis(cfg)
    obs = local_photon_observable(basis, (1.0, 4.0))
    w = np.linalg.eigvalsh((obs.sqrt_factor.conjugate().T @ obs.sqrt_factor).toarray())
    assert w[0] >= -1e-12
    assert w[-1] <= 1.0 + 1e-12


def test_photon_factor_rows_stay_in_one_photon_number_sector():
    # N_S conserves the photon count, so no row of W may join two counts
    # (or two atom states)
    basis = build_basis(ModelConfig(num_modes=8, n_max=2))
    w = local_photon_observable(basis, (1.0, 4.0)).sqrt_factor
    keys = np.array([(a * basis.levels_b + b) * (basis.n_max + 1) + sum(occ)
                     for a, b, occ in basis_states(basis)])
    assert w.nnz > 0
    for start, stop in zip(w.indptr[:-1], w.indptr[1:]):
        assert len(set(keys[w.indices[start:stop]])) <= 1


@pytest.mark.parametrize("config", [ModelConfig(num_modes=8, n_max=2),
                                    ModelConfig(num_modes=30)], ids=["modes8", "modes30"])
def test_photon_factor_is_the_sector_factors_on_each_atom_state(config):
    # the assembled W is kron(I_atoms, vstack F_n) entry for entry, with the
    # dense F_n of the blocks on the first atom state placed on their sectors
    basis = build_basis(config)
    obs = local_photon_observable(basis, (0.0, config.box_length / 2))
    n_occ = basis.num_occupations
    rows = []
    for indices, factor in obs.blocks:
        if indices[-1] < n_occ:
            row = np.zeros((factor.shape[0], n_occ), dtype=complex)
            row[:, indices] = factor
            rows.append(row)
    kron = sparse.kron(sparse.identity(basis.levels_a * basis.levels_b),
                       sparse.csr_matrix(np.vstack(rows)), format="csr")
    w = obs.sqrt_factor
    assert w.shape == kron.shape
    assert w.nnz == kron.nnz
    assert (w != kron).nnz == 0
    # the blocks of one photon number share a single factor
    assert len({id(factor) for _, factor in obs.blocks}) == len(rows)
    if config.num_modes == 30:
        assert w.nnz == 860_452
        # inside the invariant block of the start: dense blocks only, none
        # joining two photon numbers or two atom states
        ham = build_hamiltonian(basis)
        block = ham.invariant_block([index_of_bare_state(basis, 1, 0, basis.vacuum)])
        restricted = obs.restricted(block)
        keys = np.array([(a * basis.levels_b + b) * (basis.n_max + 1) + sum(occ)
                         for a, b, occ in basis_states(basis)])
        assert restricted.blocks
        for indices, factor in restricted.blocks:
            assert isinstance(factor, np.ndarray)
            assert len(set(keys[block[indices]])) == 1


def test_observable_blocks_are_validated():
    with pytest.raises(ValueError):
        BoundedObservable([([0, 1], np.ones((1, 3)))], 4)
    with pytest.raises(ValueError):
        BoundedObservable([([2, 4], None)], 4)


def test_photon_factor_matches_hand_enumerated_number_operator():
    # N_S from hand-enumerated <occ'| adag_j a_l |occ> elements, min(N_S, 1)
    # by eigh, placed on each atom state: the oracle for W^dagger W
    cfg = ModelConfig(num_modes=4, n_max=2)
    basis = build_basis(cfg)
    lo, hi = 1.0, 4.0
    k = np.asarray(basis.modes.k)
    m = len(k)
    kernel = np.empty((m, m), dtype=complex)
    for j in range(m):
        for l in range(m):
            q = k[l] - k[j]
            kernel[j, l] = ((hi - lo) / cfg.box_length if q == 0 else
                            (np.exp(1j * q * hi) - np.exp(1j * q * lo)) / (1j * q * cfg.box_length))
    occs = basis.occupations
    n_s = np.zeros((len(occs), len(occs)), dtype=complex)
    for i, occ in enumerate(occs):
        for j in range(m):
            for l in range(m):
                if occ[l] == 0:
                    continue
                moved = list(occ)
                amp = math.sqrt(moved[l])
                moved[l] -= 1
                amp *= math.sqrt(moved[j] + 1)
                moved[j] += 1
                n_s[occs.index(tuple(moved)), i] += kernel[j, l] * amp
    lam, vec = np.linalg.eigh(n_s)
    assert lam[-1] > 1.0  # the saturation min(N_S, 1) is exercised
    o_occ = (vec * np.clip(lam, 0.0, 1.0)) @ vec.conjugate().T
    oracle = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    states = basis_states(basis)
    for row, (a, b, occ_row) in enumerate(states):
        for col, (a2, b2, occ_col) in enumerate(states):
            if (a, b) == (a2, b2):
                oracle[row, col] = o_occ[occs.index(occ_row), occs.index(occ_col)]

    w = local_photon_observable(basis, (lo, hi)).sqrt_factor
    assert np.max(np.abs((w.conjugate().T @ w).toarray() - oracle)) <= 1e-12


def test_photon_observable_bad_region():
    basis = build_basis(ModelConfig(num_modes=2, n_max=1))
    with pytest.raises(DomainError):
        local_photon_observable(basis, (2.0, 2.0))
    with pytest.raises(DomainError):
        local_photon_observable(basis, (-1.0, 2.0))
    with pytest.raises(DomainError):
        local_photon_observable(
            build_basis(LatticeConfig(num_sites=4, site_a=0, site_b=3)), (0.0, 1.0)
        )


def test_bounded_observable_on_random_states():
    basis = build_basis(ModelConfig(num_modes=3, n_max=2))
    observables = [
        excitation_observable_b(basis),
        exchange_projector(basis),
        local_photon_observable(basis, (0.0, basis.config.box_length / 2)),
    ]
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
        state = v / np.linalg.norm(v)
        for obs in observables:
            val = expectation_grid(obs, state[None, :])[0]
            assert -1e-12 <= val <= 1.0 + 1e-12


def test_triplet_round_trip(tmp_path):
    basis = build_basis(ModelConfig(num_modes=3, n_max=1, coupling_form="full"))
    ham = build_hamiltonian(basis)
    text = format_triplets(ham)
    path = tmp_path / "ham.txt"
    path.write_text(text)
    rows, cols, real, imag = np.loadtxt(path, comments="#", ndmin=2).T
    back = sparse.csr_matrix((real + 1j * imag, (rows.astype(int), cols.astype(int))),
                             shape=(ham.dimension, ham.dimension))
    assert f"# dimension {ham.dimension}\n" in text
    assert (back != ham.matrix).nnz == 0
    # formatting the read-back matrix gives identical text
    assert format_triplets(HermitianOperator(back, ham.spectral_floor)) == text


def test_lattice_hamiltonian_structure():
    cfg = LatticeConfig(num_sites=5, site_a=1, site_b=3)
    basis = build_basis(cfg)
    ham = build_hamiltonian(basis).matrix
    # single-photon hopping block: nearest-neighbor chain, open ends
    states = [(0, 0, tuple(1 if i == j else 0 for i in range(5))) for j in range(5)]
    idx = [index_of_bare_state(basis, *s) for s in states]
    block = ham.toarray()[np.ix_(idx, idx)]
    hand = np.diag([cfg.site_frequency] * 5).astype(complex)
    for j in range(4):
        hand[j, j + 1] = hand[j + 1, j] = -cfg.hopping
    assert_allclose(block, hand, atol=1e-15)

