"""Time reversal: the real H of the standing waves against a running-wave oracle.

In the running waves exp(i k x) of the periodic box every coupling is
complex, and the model's time reversal swaps the modes k and -k.  The
package's field slots are the standing waves cos(k x) and sin(|k| x) of
each pair, where that reversal is plain complex conjugation, so H is real
from the start.  The oracle here assembles H in the running waves, by hand
and independent of the package's slot basis, and the package's series
must match dense evolution of it.  The real-form dense path is also
checked against the complex eigh of the same matrix, and the float64
series against that dense path, through rank-one projectors |u><u| with
complex u that see every relative phase of psi(t).
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from twoatom.analysis import probability_series
from twoatom.basis import build_basis, index_of_bare_state
from twoatom.config import LatticeConfig, ModelConfig
from twoatom.operators import BoundedObservable, HermitianOperator, build_hamiltonian
from twoatom.propagator import (chebyshev_expectation, evolve_grid, expectation_grid,
                                prepare_initial_state)


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
    reference = np.linalg.eigh(operator.matrix.toarray().astype(complex))
    return basis, ham, psi0, operator, psi0[block], reference


def _assert_series_match_dense_states(operator, psi0, grid, states, bound):
    # rank-one projectors |u><u| with random complex unit u over the block
    rng = np.random.default_rng(41)
    for _ in range(3):
        u = rng.standard_normal(len(psi0)) + 1j * rng.standard_normal(len(psi0))
        obs = BoundedObservable([(np.arange(len(u)), u.conj()[None, :] / np.linalg.norm(u))],
                                len(u))
        series = chebyshev_expectation(operator, obs, psi0, grid)
        assert np.max(np.abs(series - expectation_grid(obs, states))) <= bound


def test_start_block_is_diagonalized_in_real_form(start_block):
    # the real eigensystem against the complex eigh of the same matrix
    basis, ham, _, operator, _, (w_ref, _) = start_block
    assert ham.matrix.dtype == operator.matrix.dtype == np.float64
    matrix = operator.matrix.toarray()
    w, v = operator.eigensystem()
    assert v.dtype == np.float64
    assert np.max(np.abs(w - w_ref)) <= 1e-12
    # every eigenpair's residual, and V^T V - I in the Frobenius norm,
    # which bounds the 2-norm
    assert np.max(np.linalg.norm(matrix @ v - v * w, axis=0)) <= 1e-12
    assert np.linalg.norm(v.T @ v - np.eye(len(w))) <= 1e-12


def test_dense_evolution_matches_complex_eigh_and_series(start_block):
    basis, _, _, operator, psi0, (w_ref, v_ref) = start_block
    grid = np.linspace(0.0, 2.0 * basis.config.light_cone_time, 25)
    reference = (v_ref @ (np.exp(-1j * np.outer(grid, w_ref))
                          * (v_ref.conjugate().T @ psi0)).T).T
    dense = evolve_grid(operator, psi0, grid)
    assert np.max(np.abs(dense - reference)) <= 1e-12
    _assert_series_match_dense_states(operator, psi0, grid, dense, 1e-12)


def test_odd_mode_count_has_no_reversal_and_still_matches():
    # mode n = 16 keeps k but not -k: its slot stays a running wave, whose
    # couplings are complex, and the complex eigh and recurrence serve
    basis = build_basis(ModelConfig(num_modes=31))
    ham = build_hamiltonian(basis)
    assert ham.matrix.dtype == np.complex128
    psi0 = prepare_initial_state(basis)
    block = ham.invariant_block(np.flatnonzero(psi0))
    operator = ham.block(block)
    assert operator.eigensystem()[1].dtype == np.complex128
    grid = np.linspace(0.0, 2.0 * basis.config.light_cone_time, 25)
    dense = evolve_grid(operator, psi0[block], grid)
    _assert_series_match_dense_states(operator, psi0[block], grid, dense, 1e-12)


def running_wave_states(basis):
    """(a_level, b_level, occupations) per basis index, atoms outermost."""
    return [(a, b, occ) for a in range(basis.levels_a) for b in range(basis.levels_b)
            for occ in basis.occupations]


def running_wave_hamiltonian(basis):
    """H over the running waves exp(i k x), enumerated state by state.

    Atom X couples through Phi_X = sum_j c_j a_j with
    c_j = g_j scale_X exp(i k_j x_X): raise_X Phi_X + lower_X Phi_X^dagger,
    plus raise_X Phi_X^dagger + lower_X Phi_X under the full coupling.
    """
    cfg = basis.config
    states = running_wave_states(basis)
    index = {state: i for i, state in enumerate(states)}
    k = np.asarray(basis.modes.k)
    omega = np.abs(k)
    g = cfg.coupling_strength * np.sqrt(omega / cfg.box_length) * np.exp(
        -(omega / cfg.cutoff) ** 2)
    atoms = ((0, cfg.x_a, cfg.coupling_scale_a, cfg.levels_a),
             (1, cfg.x_b, cfg.coupling_scale_b, cfg.levels_b))
    ham = np.zeros((len(states), len(states)), dtype=complex)
    for i, (a, b, occ) in enumerate(states):
        ham[i, i] = a * cfg.omega_a + b * cfg.omega_b + float(np.dot(omega, occ))
        for which, x, scale, levels in atoms:
            level = (a, b)[which]
            c = g * scale * np.exp(1j * k * x)
            for step in (1, -1):
                if not 0 <= level + step < levels:
                    continue
                moved = [a, b]
                moved[which] += step
                for j in range(len(k)):
                    # absorb (a_j) with the raise, emit (a_j^dagger) with the lower
                    for photons in ((-1, 1) if cfg.coupling_form == "full" else
                                    (-step,)):
                        new = list(occ)
                        new[j] += photons
                        target = index.get((*moved, tuple(new)))
                        if new[j] < 0 or target is None:
                            continue
                        amp = math.sqrt(max(occ[j], new[j]))
                        ham[target, i] += amp * (c[j] if photons < 0 else np.conjugate(c[j]))
    assert np.array_equal(ham, ham.conjugate().T)
    return ham


def running_wave_observable(basis, name, region):
    """The observable's matrix over the running-wave basis."""
    cfg = basis.config
    states = running_wave_states(basis)
    if name == "excitation_b":
        return np.diag([float(b > 0) for _, b, _ in states])
    if name == "exchange":
        out = np.zeros((len(states), len(states)))
        i = index_of_bare_state(basis, 0, 1, basis.vacuum)
        out[i, i] = 1.0
        return out
    # min(N_S, 1) with N_S = sum_jl K[j, l] adag_j a_l and the overlaps
    # K[j, l] = int_region exp(i (k_l - k_j) x) dx / L of the running waves
    lo, hi = region
    k = np.asarray(basis.modes.k)
    q = k[None, :] - k[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        kernel = np.where(q == 0, (hi - lo) / cfg.box_length,
                          (np.exp(1j * q * hi) - np.exp(1j * q * lo)) / (1j * q * cfg.box_length))
    occs = basis.occupations
    row = {occ: i for i, occ in enumerate(occs)}
    number = np.zeros((len(occs), len(occs)), dtype=complex)
    for i, occ in enumerate(occs):
        for j in range(len(k)):
            for l in range(len(k)):
                if occ[l] == 0:
                    continue
                moved = list(occ)
                amp = math.sqrt(moved[l])
                moved[l] -= 1
                amp *= math.sqrt(moved[j] + 1)
                moved[j] += 1
                number[row[tuple(moved)], i] += kernel[j, l] * amp
    lam, vec = np.linalg.eigh(number)
    saturated = (vec * np.clip(lam, 0.0, 1.0)) @ vec.conjugate().T
    return np.kron(np.eye(basis.levels_a * basis.levels_b), saturated)


ORACLE_CONFIGS = [
    ModelConfig(num_modes=6, n_max=2, x_a=0.4, x_b=2.9, coupling_strength=0.4),
    ModelConfig(num_modes=6, n_max=2, x_a=1.1, x_b=4.0, coupling_strength=0.4,
                coupling_form="rotating_wave"),
    ModelConfig(levels_a=3, num_modes=6, n_max=2, x_a=0.3, x_b=3.4),
]


@pytest.mark.parametrize("observable", ["excitation_b", "exchange", "photon_region"])
@pytest.mark.parametrize("config", ORACLE_CONFIGS, ids=["full", "rwa", "levels3"])
def test_series_match_the_running_wave_hamiltonian(config, observable):
    basis = build_basis(config)
    region = (1.0, 4.0)
    ham = running_wave_hamiltonian(basis)
    o = running_wave_observable(basis, observable, region)
    psi0 = np.zeros(basis.dimension)
    psi0[index_of_bare_state(basis, 1, 0, basis.vacuum)] = 1.0
    grid = np.linspace(0.0, 3.0 * config.light_cone_time, 31)
    w, v = np.linalg.eigh(ham)
    states = v @ (np.exp(-1j * np.outer(w, grid)) * (v.conjugate().T @ psi0)[:, None])
    oracle = np.real(np.einsum("it,ij,jt->t", states.conjugate(), o, states))
    assert oracle.max() > 1e-4
    for method in ("dense", "krylov"):
        series = probability_series(config, observable, grid, method=method, region=region)
        assert np.max(np.abs(series.values - oracle)) <= 1e-12


def test_reversal_swaps_mode_partners_and_fixes_the_atoms():
    # the reversal p maps (a, b, occ) to (a, b, occ') with occ' the photons
    # of occ at -k; with complex conjugation it is a symmetry of the
    # running-wave H, and in the standing waves it is conjugation alone,
    # which leaves the package's H unchanged because H is real
    config = ModelConfig(num_modes=6, n_max=2, levels_a=3, x_a=0.9, x_b=3.7)
    basis = build_basis(config)
    k = list(basis.modes.k)
    partner = [k.index(-kj) for kj in k]
    states = running_wave_states(basis)
    index = {state: i for i, state in enumerate(states)}
    p = np.array([index[(a, b, tuple(occ[j] for j in partner))] for a, b, occ in states])
    for i, (a, b, occ) in enumerate(states):
        a2, b2, occ2 = states[p[i]]
        assert (a2, b2) == (a, b)
        assert all(occ2[j] == occ[partner[j]] for j in range(len(k)))
    assert np.array_equal(p[p], np.arange(basis.dimension))
    ham = running_wave_hamiltonian(basis)
    assert np.any(ham.imag != 0)
    assert_allclose(ham[p][:, p].conjugate(), ham, rtol=0, atol=1e-15)
    assert build_hamiltonian(basis).matrix.dtype == np.float64


def test_real_form_eigh_matches_complex_eigh_on_random_symmetric_matrices():
    # a real symmetric matrix stays float64 and gets the real eigh; a
    # complex Hermitian one stays complex128
    rng = np.random.default_rng(3)
    for dim in (1, 2, 7, 40):
        x = rng.standard_normal((dim, dim))
        h = x + x.T
        operator = HermitianOperator(sparse.csr_matrix(h))
        assert operator.matrix.dtype == np.float64
        w, v = operator.eigensystem()
        assert v.dtype == np.float64
        assert_allclose(w, np.linalg.eigvalsh(h.astype(complex)), rtol=0,
                        atol=1e-12 * np.abs(h).max())
        assert np.linalg.norm(h @ v - v * w, 2) <= 1e-12 * np.abs(h).max() * dim
        assert np.linalg.norm(v.T @ v - np.eye(dim), 2) <= 1e-13 * dim
        y = h + 1j * (x - x.T)
        assert HermitianOperator(sparse.csr_matrix(y)).matrix.dtype == np.complex128


@pytest.mark.parametrize("config", [ModelConfig(), ModelConfig(num_modes=30)],
                         ids=["default", "modes30"])
def test_dense_path_runs_real_eigh(monkeypatch, config):
    # a change that made H complex would fall back to the complex eigh of H,
    # about four times slower, with no other sign; the photon observable
    # runs one eigh, of the real m x m region kernel
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda m: shapes.append((m.shape, m.dtype)) or eigh(m))
    observable = "photon_region" if config.num_modes == 30 else "excitation_b"
    probability_series(config, observable, np.linspace(0.0, 1.0, 5), method="dense")
    kernel = [(shape, dtype) for shape, dtype in shapes if shape == (30, 30)]
    assert kernel == ([((30, 30), np.dtype(np.float64))]
                      if observable == "photon_region" else [])
    others = [dtype for shape, dtype in shapes if shape != (30, 30)]
    assert others and set(others) == {np.dtype(np.float64)}
