"""Hamiltonian assembly and observables against hand-built oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from twoatom.basis import FockBasis, build_basis, index_of_bare_state
from twoatom.config import LatticeConfig, ModelConfig
from twoatom.errors import DimensionError, DomainError
from twoatom.operators import (
    BoundedObservable,
    HermitianOperator,
    _one_particle_data,
    _region_modes,
    _smeared,
    build_hamiltonian,
    exchange_projector,
    excitation_observable_b,
    format_triplets,
    gershgorin_bounds,
    local_photon_observable,
)
from twoatom.propagator import _series_order, expectation_grid, prepare_initial_state


def dense(factor):
    """A block factor as an ndarray: the factor applied to the identity."""
    return factor @ np.identity(factor.shape[1])


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


def standing_waves(k):
    """The unitary V from running waves to slots, built from its definition.

    For each pair +k at slot p and -k at slot q, row p of V is
    (e_p + e_q) / sqrt(2), the cos(k x) wave, and row q is
    i (e_p - e_q) / sqrt(2), the sin(|k| x) wave; a mode with no partner
    keeps its row of the identity.
    """
    k = list(k)
    v = np.eye(len(k), dtype=complex)
    for p, kp in enumerate(k):
        if kp > 0 and -kp in k:
            q = k.index(-kp)
            v[p, p] = v[p, q] = 1 / math.sqrt(2)
            v[q, p] = 1j / math.sqrt(2)
            v[q, q] = -1j / math.sqrt(2)
    return v


def slot_couplings(cfg, basis, x):
    """g_j exp(i k_j x) per running wave, taken to the slots by conj(V)."""
    k = np.asarray(basis.modes.k)
    g = np.array([mode_coupling(cfg, kj, abs(kj)) for kj in k])
    return standing_waves(k).conjugate() @ (g * np.exp(1j * k * x))


@pytest.mark.parametrize("config, dtype", [
    (ModelConfig(num_modes=6, n_max=2), np.float64),
    (ModelConfig(num_modes=6, n_max=2, coupling_form="rotating_wave"), np.float64),
    (ModelConfig(levels_a=3, num_modes=4, n_max=2, x_a=0.7), np.float64),
    (ModelConfig(num_modes=32, n_max=1, cutoff=7.5), np.float64),
    (LatticeConfig(num_sites=6, site_a=1, site_b=4), np.float64),
    (LatticeConfig(num_sites=6, site_a=1, site_b=4, coupling_form="rotating_wave"),
     np.float64),
    (ModelConfig(num_modes=7, n_max=2), np.complex128),
    (ModelConfig(num_modes=1, n_max=1, coupling_form="rotating_wave"), np.complex128),
], ids=["full", "rwa", "levels3", "cutoff_trimmed", "chain", "chain_rwa", "modes7_odd",
        "modes1_odd"])
def test_hamiltonian_is_real_unless_a_mode_has_no_partner(config, dtype):
    # the slots of a +-k pair are its cos and sin standing waves, so every
    # coupling is real; an odd num_modes leaves one running wave exp(ikx)
    basis = build_basis(config)
    if isinstance(config, ModelConfig) and config.cutoff == 7.5:
        assert len(basis.modes) == 14  # |k| <= 7.5 keeps 7 whole pairs of 32 modes
    ham = build_hamiltonian(basis)
    assert ham.matrix.dtype == dtype
    assert ham.block(ham.invariant_block([0])).matrix.dtype == dtype
    if dtype == np.complex128:
        assert np.any(ham.matrix.data.imag != 0)


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


@pytest.mark.parametrize("config, count, top", [
    (ModelConfig(num_modes=5, n_max=3), 56, 3),
    (LatticeConfig(num_sites=5, site_a=1, site_b=3, n_max=3), 56, 3),
    (ModelConfig(num_modes=1, n_max=300), 301, 300),
    (ModelConfig(num_modes=4, cutoff=0.5), 1, 0),
], ids=["box5", "chain5", "one_slot_nmax300", "no_slots"])
def test_smeared_annihilator_matches_state_by_state_oracle(config, count, top):
    # a(w) = sum_j w_j a_j for random complex w, assembled state by state from
    # <occ - e_j| a_j |occ> = sqrt(occ_j); each entry comes from one slot
    # alone, so the package's a(w) must match it bit for bit
    basis = build_basis(config)
    assert basis.occupations.shape == (count, basis.num_slots)
    assert basis.occupations.max(initial=0) == top
    occs = [tuple(occ) for occ in basis.occupations.tolist()]
    rng = np.random.default_rng(11)
    w = rng.normal(size=basis.num_slots) + 1j * rng.normal(size=basis.num_slots)
    row_of = {occ: i for i, occ in enumerate(occs)}
    oracle = np.zeros((len(occs), len(occs)), dtype=complex)
    for col, occ in enumerate(occs):
        for j, count in enumerate(occ):
            if count:
                lowered = occ[:j] + (count - 1,) + occ[j + 1:]
                oracle[row_of[lowered], col] += w[j] * math.sqrt(count)
    smeared = _smeared(w, basis.lowering, oracle.shape)
    assert smeared.dtype == np.complex128
    assert np.array_equal(smeared.toarray(), oracle)


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
    # one (counter-rotating); the ladder has no direct 0 <-> 2 step.  Three
    # modes are one +-k pair, whose slots couple through sqrt(2) g cos(k x)
    # and sqrt(2) g sin(|k| x), and one running wave, through g exp(i k x)
    cfg = ModelConfig(levels_a=3, num_modes=3, n_max=2, coupling_form="full", x_a=0.7)
    basis = build_basis(cfg)
    ham = build_hamiltonian(basis).matrix
    vac = basis.vacuum
    k, omega = basis.modes.k, basis.modes.omega
    assert k[1] == -k[0] and -k[2] not in k
    closed_form = [math.sqrt(2) * math.cos(k[0] * cfg.x_a),
                   math.sqrt(2) * math.sin(k[0] * cfg.x_a), np.exp(1j * k[2] * cfg.x_a)]
    couplings = slot_couplings(cfg, basis, cfg.x_a)
    for j in range(basis.num_slots):
        c_a = couplings[j]
        assert_allclose(c_a, mode_coupling(cfg, k[j], omega[j]) * closed_form[j],
                        rtol=0, atol=1e-15)
        one = tuple(int(i == j) for i in range(basis.num_slots))
        top = index_of_bare_state(basis, 2, 0, vac)
        mid = index_of_bare_state(basis, 1, 0, one)
        emitted = index_of_bare_state(basis, 2, 0, one)
        assert_allclose([ham[top, mid], ham[mid, top],
                         ham[emitted, index_of_bare_state(basis, 1, 0, vac)]],
                        [c_a, np.conjugate(c_a), np.conjugate(c_a)], rtol=0, atol=1e-15)
    coo = ham.tocoo()
    a_level = np.array([a for a, _, _ in basis_states(basis)])
    assert np.all(np.abs(a_level[coo.row] - a_level[coo.col]) <= 1)
    assert np.any(a_level[coo.row] == 2)


@pytest.mark.parametrize("config", [
    ModelConfig(num_modes=4, n_max=2),
    ModelConfig(num_modes=5, n_max=2),
    ModelConfig(levels_a=3, levels_b=2, num_modes=4, n_max=2, x_a=0.7),
    ModelConfig(num_modes=5, n_max=2, coupling_form="rotating_wave"),
    ModelConfig(num_modes=4, n_max=2, coupling_scale_a=0.0),
    LatticeConfig(num_sites=5, site_a=1, site_b=3, n_max=2),
], ids=["modes4", "modes5", "levels3x2", "rwa", "scale_a0", "chain5"])
def test_hamiltonian_matches_state_by_state_oracle(config):
    # H element by element from its definition: the bare diagonal, each
    # atom's rise with one photon absorbed (and, under "full", one emitted),
    # the hopping adag_j a_l with j < l, and the adjoint of all of these
    basis = build_basis(config)
    h1, c_a, c_b = _one_particle_data(basis)
    states = basis_states(basis)
    index = {(a, b, tuple(occ)): i for i, (a, b, occ) in enumerate(states)}
    raising = np.zeros((len(states), len(states)), dtype=complex)
    diagonal = np.zeros(len(states))
    for col, (a, b, occ) in enumerate(states):
        occ = tuple(int(n) for n in occ)
        diagonal[col] = a * config.omega_a + b * config.omega_b + np.dot(occ, np.diag(h1))
        for j, n in enumerate(occ):
            lowered = occ[:j] + (n - 1,) + occ[j + 1:]
            raised = occ[:j] + (n + 1,) + occ[j + 1:]
            for rise, c_x in (((1, 0), c_a), ((0, 1), c_b)):
                top = (a + rise[0], b + rise[1])
                if top[0] == basis.levels_a or top[1] == basis.levels_b:
                    continue
                if n:
                    raising[index[(*top, lowered)], col] += c_x[j] * math.sqrt(n)
                if config.coupling_form == "full" and sum(occ) < basis.n_max:
                    raising[index[(*top, raised)], col] += np.conj(c_x[j]) * math.sqrt(n + 1)
            for l, m in enumerate(occ):
                if l > j and m and h1[j, l]:
                    hopped = list(occ)
                    hopped[l] -= 1
                    hopped[j] += 1
                    raising[index[(a, b, tuple(hopped))], col] += (
                        h1[j, l] * math.sqrt(m) * math.sqrt(n + 1))
    oracle = np.diag(diagonal) + raising + raising.conj().T
    matrix = build_hamiltonian(basis).matrix
    ham = matrix.toarray()
    assert matrix.nnz == np.count_nonzero(oracle)  # no stored zeros
    assert np.array_equal(ham != 0, oracle != 0)
    assert_allclose(ham, oracle, rtol=0, atol=1e-14 * np.abs(ham).max())


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


def test_constructor_rejects_non_hermitian(monkeypatch):
    bad = sparse.csr_matrix(np.array([[0.0, 1.0], [0.5, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        HermitianOperator(bad)
    with pytest.raises(ValueError, match="square"):
        HermitianOperator(sparse.csr_matrix(np.zeros((2, 3))))
    # a repr reads the matrix only: no Gershgorin discs
    monkeypatch.setattr("twoatom.operators.gershgorin_bounds", None)
    good = HermitianOperator(sparse.csr_matrix(np.array([[1.0, 0.5], [0.5, 0.0]])))
    assert repr(good) == "HermitianOperator(dim=2, nnz=3)"


def test_invariant_block_is_the_components_that_meet_the_support():
    # the closure grown by products with |H| against scipy's graph search, on
    # random Hermitian patterns that fall into several components
    rng = np.random.default_rng(7)
    most = 0
    for _ in range(20):
        dim = int(rng.integers(5, 60))
        upper = np.triu(rng.standard_normal((dim, dim))
                        * (rng.random((dim, dim)) < rng.uniform(0.01, 0.08)), 1)
        diagonal = np.diag(rng.standard_normal(dim))
        ham = HermitianOperator(sparse.csr_matrix(upper + upper.T + diagonal))
        count, labels = connected_components(ham.matrix != 0, directed=False)
        most = max(most, count)
        support = rng.choice(dim, size=int(rng.integers(1, 4)), replace=False)
        expected = np.flatnonzero(np.isin(labels, labels[support]))
        assert np.array_equal(ham.invariant_block(support), expected)
        assert ham.invariant_block([]).size == 0
        assert np.array_equal(ham.invariant_block(np.arange(dim)), np.arange(dim))
    assert most >= 3
    # a model Hamiltonian: the block of the start is a proper part of the space
    basis = build_basis(ModelConfig(num_modes=6, n_max=2))
    ham = build_hamiltonian(basis)
    start = index_of_bare_state(basis, 1, 0, basis.vacuum)
    _, labels = connected_components(ham.matrix != 0, directed=False)
    block = ham.invariant_block([start])
    assert np.array_equal(block, np.flatnonzero(labels == labels[start]))
    assert 1 < len(block) < basis.dimension


def _start_block(config):
    basis = build_basis(config)
    ham = build_hamiltonian(basis)
    return ham.block(ham.invariant_block(np.flatnonzero(prepare_initial_state(basis))))


def test_spectral_floor_is_lower_bound():
    # the whole H of one box, then the start's block of every criterion-6
    # config, a complex H (odd num_modes) and a diagonal one (no coupling)
    configs = [
        ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3),
        ModelConfig(num_modes=8, n_max=2, coupling_strength=0.3,
                    coupling_form="rotating_wave"),
        ModelConfig(num_modes=24, n_max=1),
        ModelConfig(num_modes=12, n_max=2, cutoff=4.0),
        LatticeConfig(),
        LatticeConfig(num_sites=8, site_a=1, site_b=6),
        ModelConfig(num_modes=5, n_max=2, coupling_strength=0.4),
        ModelConfig(num_modes=4, n_max=2, coupling_strength=0.0),
    ]
    whole = build_hamiltonian(build_basis(ModelConfig(num_modes=4, n_max=2,
                                                      coupling_strength=0.4)))
    blocks = [whole] + [_start_block(config) for config in configs]
    assert blocks[-2].matrix.dtype == np.complex128 and blocks[-1].dimension == 1
    for ham in blocks:
        w = np.linalg.eigvalsh(ham.matrix.toarray())
        floor, ceiling = ham.spectral_bounds
        assert floor <= w[0] + 1e-12 and w[-1] - 1e-12 <= ceiling, ham


def test_weighted_floor_shortens_the_default_series():
    ham = _start_block(ModelConfig())
    diag = ham.matrix.diagonal().real
    radii = np.asarray(abs(ham.matrix).sum(axis=1)).ravel() - np.abs(diag)
    floor, ceiling = ham.spectral_bounds
    plain_floor, plain_ceiling = np.min(diag - radii), np.max(diag + radii)
    assert ceiling == pytest.approx(plain_ceiling, rel=1e-14)
    assert floor > plain_floor + 1.0
    times = np.array([2.0 * ModelConfig().light_cone_time])
    assert _series_order((ceiling - floor) / 2, times, ham.dimension, 1) < _series_order(
        (plain_ceiling - plain_floor) / 2, times, ham.dimension, 1)


def test_gershgorin_floor_exact_for_diagonal():
    mat = sparse.diags([3.0, -1.5, 2.0]).tocsr()
    assert gershgorin_bounds(mat) == (-1.5, 3.0)


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
    # the overlap integrals of exp(ikx)/sqrt(L), take it to the standing
    # waves, diagonalize, saturate at 1
    cfg = ModelConfig(num_modes=6, n_max=1)
    basis = build_basis(cfg)
    lo, hi = 0.0, cfg.box_length / 2
    obs = local_photon_observable(basis, (lo, hi))

    m = basis.num_slots
    lam, vec = np.linalg.eigh(region_kernel(basis, lo, hi))
    clipped = np.clip(lam, 0.0, 1.0)
    oracle = (vec * clipped) @ vec.conjugate().T

    for j in range(m):
        got = expectation_grid(obs, one_photon_state(basis, j)[None, :])[0]
        assert_allclose(got, oracle[j, j].real, atol=1e-12)
        # cos^2 and sin^2 both fill half of the box
        assert_allclose(got, 0.5, atol=1e-12)


def test_photon_observable_spectrum_in_unit_interval():
    cfg = ModelConfig(num_modes=4, n_max=2)
    basis = build_basis(cfg)
    obs = local_photon_observable(basis, (1.0, 4.0))
    w = np.linalg.eigvalsh((obs.sqrt_factor.conjugate().T @ obs.sqrt_factor).toarray())
    assert w[0] >= -1e-12
    assert w[-1] <= 1.0 + 1e-12


@pytest.mark.parametrize("num_modes, factor_dtype", [(4, np.float64), (5, np.complex128)])
def test_factor_parts_keep_a_real_stack_real(num_modes, factor_dtype):
    # a real stack (the Chebyshev vectors of a real H) meets a real factor
    # in a real product and is never copied to complex; a complex factor
    # (odd num_modes) or a complex stack gives the complex parts
    cfg = ModelConfig(num_modes=num_modes, n_max=2)
    basis = build_basis(cfg)
    obs = local_photon_observable(basis, (0.0, cfg.box_length / 2))
    assert {f.dtype for _, f in obs.blocks} == {np.dtype(factor_dtype)}
    rng = np.random.default_rng(11)
    real = rng.standard_normal((5, basis.dimension))
    for part, oracle in zip(obs.factor_parts(real), obs.factor_parts(real.astype(complex)),
                            strict=True):
        assert part.dtype == factor_dtype
        assert oracle.dtype == np.complex128
        assert np.max(np.abs(part - oracle)) <= 1e-14
    identity = exchange_projector(basis)
    (part,) = identity.factor_parts(real)
    assert part.dtype == np.float64
    assert np.array_equal(expectation_grid(identity, real),
                          expectation_grid(identity, real.astype(complex)))


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
            row[:, indices] = dense(factor)
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
        # rows below the resolution rule are left out (1960 -> 1928 rows)
        assert w.shape[0] == 1928
        # each sector's min(N_S, 1) = F^dagger F against the hand-enumerated
        # N_S, diagonalized sector by sector; the count of stored entries
        # would also count exact zeros of the eigenvectors, which move with
        # the construction
        assert_sectors_match(obs, basis, hand_region_number(basis, 0.0, config.box_length / 2),
                             atol=1e-12)
        # inside the invariant block of the start: blocks with one column
        # per index, none joining two photon numbers or two atom states
        ham = build_hamiltonian(basis)
        block = ham.invariant_block([index_of_bare_state(basis, 1, 0, basis.vacuum)])
        restricted = obs.restricted(block)
        keys = np.array([(a * basis.levels_b + b) * (basis.n_max + 1) + sum(occ)
                         for a, b, occ in basis_states(basis)])
        assert restricted.blocks
        for indices, factor in restricted.blocks:
            assert factor.shape[1] == len(indices)
            assert len(set(keys[block[indices]])) == 1


def test_observable_blocks_are_validated():
    with pytest.raises(ValueError):
        BoundedObservable([([0, 1], np.ones((1, 3)))], 4)
    with pytest.raises(ValueError):
        BoundedObservable([([2, 4], None)], 4)


def test_factor_rows_count_the_rows_of_every_part():
    basis = build_basis(ModelConfig(num_modes=3, n_max=2))
    photons = local_photon_observable(basis, (0.0, basis.config.box_length / 2))
    start = np.flatnonzero(prepare_initial_state(basis))
    in_block = photons.restricted(build_hamiltonian(basis).invariant_block(start))
    u = np.random.default_rng(3).standard_normal(basis.dimension)
    rank_one = BoundedObservable([(np.arange(basis.dimension), u[None, :] / np.linalg.norm(u))],
                                 basis.dimension)
    # an identity block, dense factors, the same on a start block, one dense row
    for obs in (excitation_observable_b(basis), photons, in_block, rank_one):
        parts = obs.factor_parts(np.zeros((1, obs.dimension)))
        assert obs.factor_rows == sum(len(part) for part in parts)
        assert repr(obs).endswith(f"factor_rows={obs.factor_rows})")
    assert rank_one.factor_rows == 1
    assert 0 < in_block.factor_rows < photons.factor_rows


def region_kernel(basis, lo, hi):
    """The slots' region kernel V K V^dagger, V from standing_waves.

    K[j, l] = int_lo^hi exp(i (k_l - k_j) x) dx / L over the running waves,
    from the end-point exponentials.
    """
    cfg = basis.config
    k = np.asarray(basis.modes.k)
    m = len(k)
    kernel = np.empty((m, m), dtype=complex)
    for j in range(m):
        for l in range(m):
            q = k[l] - k[j]
            kernel[j, l] = ((hi - lo) / cfg.box_length if q == 0 else
                            (np.exp(1j * q * hi) - np.exp(1j * q * lo)) / (1j * q * cfg.box_length))
    v = standing_waves(k)
    return v @ kernel @ v.conjugate().T


def hand_region_number(basis, lo, hi):
    """N_S on the occupation block from hand-enumerated <occ'| adag_j a_l |occ>."""
    kernel = region_kernel(basis, lo, hi)
    m = len(kernel)
    occs = [tuple(occ) for occ in basis.occupations.tolist()]
    row_of = {occ: i for i, occ in enumerate(occs)}
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
                n_s[row_of[tuple(moved)], i] += kernel[j, l] * amp
    return n_s


def assert_sectors_match(obs, basis, number, atol):
    """F^dagger F of each block on the first atom state is its sector's min(N_S, 1).

    number is N_S on the occupation block; each photon-number sector is
    diagonalized on its own, and every block of one photon number shares
    one factor.
    """
    photons = basis.occupations.sum(axis=1)
    first_atom_state = [(indices, factor) for indices, factor in obs.blocks
                        if indices[-1] < basis.num_occupations]
    assert [photons[indices[0]] for indices, _ in first_atom_state] == \
        [n for n in range(1, basis.n_max + 1)]
    for indices, factor in first_atom_state:
        assert np.array_equal(indices, np.flatnonzero(photons == photons[indices[0]]))
        lam, vec = np.linalg.eigh(number[np.ix_(indices, indices)])
        oracle = (vec * np.clip(lam, 0.0, 1.0)) @ vec.conjugate().T
        factor = dense(factor)
        assert np.max(np.abs(factor.conjugate().T @ factor - oracle)) <= atol
    assert len(obs.blocks) == len(first_atom_state) * basis.levels_a * basis.levels_b


def on_each_atom_state(basis, o_occ):
    """The occupation-block operator o_occ placed on every atom state."""
    n_occ = basis.num_occupations
    oracle = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    states = basis_states(basis)
    for row, (a, b, _) in enumerate(states):
        for col, (a2, b2, _) in enumerate(states):
            if (a, b) == (a2, b2):
                oracle[row, col] = o_occ[row % n_occ, col % n_occ]
    return oracle


def test_photon_factor_matches_hand_enumerated_number_operator():
    # min(N_S, 1) by eigh of the hand-enumerated N_S, placed on each atom
    # state: the oracle for W^dagger W
    cfg = ModelConfig(num_modes=4, n_max=2)
    basis = build_basis(cfg)
    lam, vec = np.linalg.eigh(hand_region_number(basis, 1.0, 4.0))
    assert lam[-1] > 1.0  # the saturation min(N_S, 1) is exercised
    oracle = on_each_atom_state(basis, (vec * np.clip(lam, 0.0, 1.0)) @ vec.conjugate().T)

    w = local_photon_observable(basis, (1.0, 4.0)).sqrt_factor
    assert np.max(np.abs((w.conjugate().T @ w).toarray() - oracle)) <= 1e-12


@pytest.mark.parametrize("config, region", [
    (ModelConfig(num_modes=8, n_max=4, box_length=7.3, x_b=3.1), (0.7, 3.9)),
    (ModelConfig(num_modes=7, n_max=2), (1.0, 4.0)),
], ids=["modes8_nmax4", "modes7_odd"])
def test_photon_sectors_match_hand_enumerated_number_operator(config, region):
    # every sector's min(N_S, 1) against the eigh of the hand-enumerated N_S,
    # above n_max = 3 and for an odd mode count, where one mode has no
    # partner -k and keeps its running wave, so the factors are complex
    basis = build_basis(config)
    obs = local_photon_observable(basis, region)
    assert {factor.dtype for _, factor in obs.blocks} == {
        np.dtype(np.complex128 if config.num_modes % 2 else np.float64)}
    assert_sectors_match(obs, basis, hand_region_number(basis, *region), atol=1e-12)


def test_photon_observable_full_box_counts_any_photon():
    # over the whole box K = I, so N_S is the photon number and min(N_S, 1)
    # is 1 on every basis state with a photon and 0 on the vacuum
    cfg = ModelConfig(num_modes=4, n_max=3)
    basis = build_basis(cfg)
    w = local_photon_observable(basis, (0.0, cfg.box_length)).sqrt_factor
    photons = np.array([sum(occ) for _, _, occ in basis_states(basis)])
    assert photons.max() == 3
    assert np.max(np.abs((w.conjugate().T @ w).toarray() - np.diag(photons > 0))) <= 1e-12


def test_photon_sector_vectors_are_orthonormal_with_exact_eigenvalues():
    # no kernel eigenvalue is small here, so every row of F_n is kept and
    # F_n = diag(sqrt(f)) V_n^dagger gives back all of V_n; its rows are the
    # Fock states of the rotated modes, ordered as the sector's occupations,
    # with eigenvalue occ @ kappa
    cfg = ModelConfig(num_modes=4, n_max=3)
    basis = build_basis(cfg)
    region = (1.0, 4.0)
    kappa = np.linalg.eigvalsh(region_kernel(basis, *region))
    assert kappa.min() > 0.05
    obs = local_photon_observable(basis, region)
    for indices, factor in obs.blocks:
        if indices[-1] >= basis.num_occupations:
            continue
        f = np.minimum(basis.occupations[indices] @ kappa, 1.0)
        assert factor.shape == (len(indices), len(indices))
        factor = dense(factor)
        assert np.max(np.abs(factor @ factor.conjugate().T - np.diag(f))) <= 1e-13
        bras = factor / np.sqrt(f)[:, None]
        assert np.max(np.abs(bras.conjugate().T @ bras - np.eye(len(indices)))) <= 1e-13
        assert np.max(np.abs(bras @ bras.conjugate().T - np.eye(len(indices)))) <= 1e-13


def bras_oracle(basis, kappa, rotation, top_rows=None):
    """[(sector, F_n)]: each sector's factor as one dense array, by a recursion over b_i.

    The bras of the n-photon sector, the rows of V_n^dagger, come from those
    of sector n - 1: <nu| = <nu - e_i| b_i / sqrt(nu_i), with i the first
    occupied slot of nu and b_i = a(conj U[:, i]), restricted to sector n,
    from the lowering entries whose source has n photons.  i and the parent
    row nu - e_i are read from nu's first entry in that table.  F_n is
    diag(sqrt(min(lambda, 1))) V_n^dagger less the rows with lambda at or
    below len(sector) * eps * max(1, max lambda).  With top_rows, the
    n_max sector forms only its first top_rows rows of F_n.
    """
    photons = basis.occupations.sum(axis=1)
    dst, src, slot, amp = basis.lowering
    position = np.zeros(basis.num_occupations, dtype=int)  # of each occupation in its sector
    bras = np.ones((1, 1), dtype=rotation.dtype)  # <vacuum|
    factors = []
    for n in range(1, basis.n_max + 1):
        sector = np.flatnonzero(photons == n)
        size = len(sector)
        position[sector] = np.arange(size)
        lam = basis.occupations[sector] @ kappa
        keep = np.flatnonzero(lam > size * np.finfo(float).eps * max(1.0, lam.max()))
        formed = np.arange(size) if n < basis.n_max else keep[:top_rows]
        head = np.searchsorted(src, sector[formed])  # each row's entry for its first slot
        first, parent, norm = slot[head], position[dst[head]], amp[head]
        inside = photons[src] == n
        entries = (position[dst[inside]], position[src[inside]], slot[inside], amp[inside])
        below, bras = bras, np.empty((len(formed), size), dtype=rotation.dtype)
        for i in np.unique(first):
            own = first == i
            lowering = _smeared(rotation[:, i].conjugate(), entries, (len(below), size))
            bras[own] = (below[parent[own]] / norm[own, None]) @ lowering
        kept = np.isin(formed, keep)
        if kept.any():
            f = np.minimum(lam[formed[kept]], 1.0)
            factors.append((sector, bras[kept] * np.sqrt(f)[:, None]))
    return factors


@pytest.mark.parametrize("config, top_rows", [
    (ModelConfig(num_modes=16, n_max=2), None),
    (ModelConfig(num_modes=16, n_max=3), None),
    (ModelConfig(num_modes=30, n_max=2), None),
    (ModelConfig(num_modes=30, n_max=3), 256),
    (ModelConfig(num_modes=15, n_max=3), None),
], ids=["modes16_nmax2", "modes16_nmax3", "modes30_nmax2", "modes30_nmax3", "modes15_odd"])
def test_photon_contractions_match_the_dense_bras(config, top_rows):
    # the contractions against the recursion's dense F_n, from the same
    # eigh of the kernel: on unit columns within 1e-12, and entry by entry
    # where the oracle forms the whole sector.  At 30 modes and n_max = 3 it
    # forms 256 rows of the 4960-state top sector; at 15 modes U is complex
    basis = build_basis(config)
    region = (0.0, config.box_length / 2)
    obs = local_photon_observable(basis, region)
    factors = [factor for indices, factor in obs.blocks if indices[-1] < basis.num_occupations]
    kappa, rotation = _region_modes(basis, *region)
    assert rotation.dtype == (np.complex128 if config.num_modes % 2 else np.float64)
    oracle = bras_oracle(basis, kappa, rotation, top_rows)
    assert len(oracle) == len(factors) == basis.n_max
    rng = np.random.default_rng(17)
    for factor, (sector, expected) in zip(factors, oracle):
        assert factor.dtype == expected.dtype
        assert factor.shape[1] == len(sector)
        columns = rng.standard_normal((len(sector), 8)).view(complex)
        columns /= np.linalg.norm(columns, axis=0)
        got = factor @ columns
        assert np.max(np.abs(got[:len(expected)] - expected @ columns)) <= 1e-12
        if top_rows is None:
            assert factor.shape == expected.shape
            assert np.max(np.abs(dense(factor) - expected)) <= 1e-12


def test_sector_factor_slices_columns_as_its_dense_form(monkeypatch):
    # F[:, mask] is the dense F's columns, the dropped ones embedding as
    # zeros; with room for two columns of the widest step (343 complex
    # entries each), nine columns run in five chunks
    cfg = ModelConfig(num_modes=7, n_max=3)
    basis = build_basis(cfg)
    obs = local_photon_observable(basis, (1.0, 4.0))
    factor = obs.blocks[-1][1]
    full = dense(factor)
    mask = np.random.default_rng(2).random(factor.shape[1]) < 0.4
    sliced = factor[:, mask]
    assert sliced.shape == (factor.shape[0], mask.sum())
    assert np.max(np.abs(dense(sliced) - full[:, mask])) <= 1e-15
    assert np.max(np.abs(dense(sliced[:, 1:]) - full[:, mask][:, 1:])) <= 1e-15
    with pytest.raises(IndexError):
        factor[1:, :]
    columns = np.random.default_rng(4).standard_normal((factor.shape[1], 9))
    monkeypatch.setattr("twoatom.operators.CONTRACTION_BYTES", 2 * 7**3 * 16)
    assert np.max(np.abs(factor @ columns - full @ columns)) <= 1e-13


def test_photon_sector_too_large_for_memory_is_a_dimension_error(monkeypatch):
    # 30 modes at n_max = 3: turning the second of three photons holds
    # 30 * 30 * 30 entries per column, twice, 0.864 MB at 16 bytes each,
    # refused against 0.5 MB before any table is formed
    basis = build_basis(ModelConfig(num_modes=30, n_max=3))
    monkeypatch.setattr("twoatom.config.physical_memory", lambda: 5 * 10**5)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="contracting photon states through 27000 "
                                                 "entries per column needs 0.000864 GB"):
            local_photon_observable(basis, (0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_photon_factor_keeps_no_row_below_eigh_resolution():
    # at 24 modes the one-photon region kernel has eigenvalues below eigh's
    # resolution n * eps * max(1, max|lambda|); their square roots (~3e-8)
    # are left out of the factor, and W^dagger W is still min(N_S, 1)
    cfg = ModelConfig(num_modes=24, n_max=1)
    basis = build_basis(cfg)
    region = (0.0, cfg.box_length / 2)
    n_s = hand_region_number(basis, *region)
    photons = basis.occupations.sum(axis=1)
    threshold = np.empty(len(photons))
    dropped = 0
    for n in range(basis.n_max + 1):
        sector = photons == n
        lam = np.linalg.eigvalsh(n_s[np.ix_(sector, sector)])
        threshold[sector] = sector.sum() * np.finfo(float).eps * max(1.0, np.abs(lam).max())
        dropped += np.count_nonzero((0.0 < lam) & (lam <= threshold[sector][0]))
    assert dropped > 0

    obs = local_photon_observable(basis, region)
    for indices, factor in obs.blocks:
        rows = np.linalg.norm(dense(factor), axis=1)
        assert np.all(rows >= np.sqrt(threshold[indices % basis.num_occupations]).max())

    lam, vec = np.linalg.eigh(n_s)
    oracle = on_each_atom_state(basis, (vec * np.clip(lam, 0.0, 1.0)) @ vec.conjugate().T)
    w = obs.sqrt_factor
    assert np.max(np.abs((w.conjugate().T @ w).toarray() - oracle)) <= 1e-14


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
    assert format_triplets(HermitianOperator(back)) == text


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



def test_photon_region_makes_no_second_row_search(monkeypatch):
    # every parent row and lowering entry comes from the table the basis built
    calls = []
    rows_of = FockBasis.rows_of

    def counted(self, occupations):
        calls.append(len(occupations))
        return rows_of(self, occupations)

    monkeypatch.setattr(FockBasis, "rows_of", counted)
    basis = build_basis(ModelConfig(num_modes=6, n_max=3))
    calls.clear()
    obs = local_photon_observable(basis, (0.0, basis.config.box_length / 2))
    assert obs.factor_rows > 0
    assert calls == []
    basis.rows_of(basis.occupations[:2])  # the count does see a search
    assert calls == [2]
