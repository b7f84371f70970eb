"""Enumeration, indexing, and truncation of the product basis."""

import itertools
import math

import numpy as np
import pytest

from twoatom.basis import (
    DIMENSION_LIMIT,
    build_basis,
    index_of_bare_state,
    occupation_count,
)
from twoatom.config import LatticeConfig, ModelConfig, mode_table
from twoatom.errors import BasisLookupError, DimensionError
from twoatom.operators import excitation_observable_b


def brute_occupations(slots, n_max):
    """Independent enumeration oracle: full product scan, then filter."""
    return [
        occ
        for occ in itertools.product(range(n_max + 1), repeat=slots)
        if sum(occ) <= n_max
    ]


def bare_states(basis):
    """Every (a_level, b_level, occupations) triple, from an independent scan."""
    return [(a, b, occ)
            for a in range(basis.levels_a)
            for b in range(basis.levels_b)
            for occ in brute_occupations(basis.num_slots, basis.n_max)]


def test_dimension_single_mode_single_photon():
    basis = build_basis(ModelConfig(num_modes=1, n_max=1))
    assert basis.dimension == 2 * 2 * 2 == 8


def test_dimension_two_modes_two_photons():
    basis = build_basis(ModelConfig(num_modes=2, n_max=2))
    assert basis.dimension == 24
    expected = [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0]]
    assert np.array_equal(basis.occupations, expected)
    assert repr(basis) == "FockBasis(dim=24, levels=2x2, slots=2, n_max=2)"


def test_dimension_eight_modes_brute_force():
    basis = build_basis(ModelConfig(num_modes=8, n_max=2))
    oracle = brute_occupations(8, 2)
    assert len(oracle) == 45
    assert basis.dimension == 4 * len(oracle) == 180
    assert np.array_equal(basis.occupations, sorted(oracle))


@pytest.mark.parametrize("slots,n_max", [(0, 3), (1, 1), (2, 2), (5, 3), (8, 2), (12, 2)])
def test_count_law_matches_combinatorics(slots, n_max):
    # weak compositions of 0..n_max into `slots` parts, counted two ways;
    # the sum over totals needs a slot, as comb(slots + s - 1, s) breaks down
    direct = len(brute_occupations(slots, n_max))
    assert occupation_count(slots, n_max) == direct
    if slots:
        assert direct == sum(math.comb(slots + s - 1, s) for s in range(n_max + 1))


def test_zero_slots_has_single_empty_occupation():
    # a cutoff below every mode frequency leaves an atoms-only basis
    assert occupation_count(0, 3) == 1
    basis = build_basis(ModelConfig(num_modes=4, cutoff=0.5))
    assert basis.num_slots == 0
    assert basis.occupations.shape == (1, 0)
    assert basis.dimension == 4
    assert basis.vacuum == ()


def test_index_round_trip_every_state():
    basis = build_basis(ModelConfig(num_modes=3, n_max=2, levels_a=3, levels_b=2))
    indices = [index_of_bare_state(basis, a, b, occ) for a, b, occ in bare_states(basis)]
    # every state has its own index, and together they fill 0..dim-1
    assert sorted(indices) == list(range(basis.dimension))
    for a, b, occ in bare_states(basis):
        row = basis.occupations.tolist().index(list(occ))
        assert basis.rows_of(np.array([occ])).tolist() == [row]
        assert index_of_bare_state(basis, a, b, occ) == (
            (a * basis.levels_b + b) * basis.num_occupations + row)


def test_dimension_product_law():
    cfg = ModelConfig(num_modes=4, n_max=2, levels_a=3, levels_b=4)
    basis = build_basis(cfg)
    assert basis.dimension == 3 * 4 * occupation_count(4, 2)


def test_deterministic_ordering():
    cfg = ModelConfig(num_modes=5, n_max=2)
    first = build_basis(cfg)
    second = build_basis(ModelConfig(num_modes=5, n_max=2))
    assert np.array_equal(first.occupations, second.occupations)
    assert first.occupations.dtype == second.occupations.dtype == np.int64


def test_lexicographic_ordering():
    basis = build_basis(ModelConfig(num_modes=2, n_max=1, levels_a=3))
    states = bare_states(basis)
    by_index = sorted(states, key=lambda s: index_of_bare_state(basis, *s))
    assert by_index == sorted(states)


def test_lookup_errors():
    basis = build_basis(ModelConfig(num_modes=2, n_max=1))
    with pytest.raises(BasisLookupError):
        index_of_bare_state(basis, 2, 0, (0, 0))
    with pytest.raises(BasisLookupError):
        index_of_bare_state(basis, 0, -1, (0, 0))
    with pytest.raises(BasisLookupError):
        index_of_bare_state(basis, 0, 0, (0,))
    with pytest.raises(BasisLookupError):
        index_of_bare_state(basis, 0, 0, (1, -1))
    # one photon over the truncation boundary
    with pytest.raises(BasisLookupError):
        index_of_bare_state(basis, 0, 0, (1, 1))
    # counts that are not whole numbers are refused, not truncated
    with pytest.raises(BasisLookupError, match="integers"):
        index_of_bare_state(basis, 0, 0, [0.5, 0])
    with pytest.raises(BasisLookupError, match="integers"):
        index_of_bare_state(basis, 0, 0, [1.9, 0])


def test_cutoff_filters_modes():
    # box length 2*pi puts mode n at frequency |n|; cutoff 3.5 keeps |n| <= 3
    cfg = ModelConfig(num_modes=12, cutoff=3.5)
    table = mode_table(cfg)
    assert len(table) == 6
    assert np.all(np.asarray(table.omega) <= 3.5)
    basis = build_basis(cfg)
    assert basis.num_slots == 6


def test_cutoff_boundary_inclusive():
    # frequencies equal to the cutoff stay
    cfg = ModelConfig(num_modes=8, cutoff=4.0)
    table = mode_table(cfg)
    assert np.max(np.abs(np.asarray(table.k))) == pytest.approx(4.0)


def test_mode_enumeration_order():
    table = mode_table(ModelConfig(num_modes=5))
    assert list(table.k)[:5] == [1.0, -1.0, 2.0, -2.0, 3.0]


def test_dimension_overflow():
    # dim 1 743 588: refused from the count, before any enumeration
    with pytest.raises(DimensionError):
        build_basis(ModelConfig(num_modes=32, n_max=5))
    # default limit is high enough for the default config
    assert build_basis(ModelConfig()).dimension <= DIMENSION_LIMIT


def test_lattice_slots_are_sites():
    cfg = LatticeConfig()
    basis = build_basis(cfg)
    assert basis.num_slots == cfg.num_sites
    assert basis.modes is None
    assert basis.dimension == 4 * occupation_count(cfg.num_sites, cfg.n_max)


def test_excitation_numbers():
    # the tensor layout gives every state's excitation count as a broadcast sum
    basis = build_basis(ModelConfig(num_modes=2, n_max=2, levels_b=3))
    photons = basis.occupations.sum(axis=1)
    counts = np.add.outer(np.add.outer(np.arange(basis.levels_a),
                                       np.arange(basis.levels_b)), photons).ravel()
    i = index_of_bare_state(basis, 1, 0, (0, 1))
    assert counts[i] == 2
    j = index_of_bare_state(basis, 0, 0, basis.vacuum)
    assert counts[j] == 0
    for a, b, occ in bare_states(basis):
        assert counts[index_of_bare_state(basis, a, b, occ)] == a + b + sum(occ)


def test_vacuum_property():
    basis = build_basis(ModelConfig(num_modes=3, n_max=1))
    assert basis.vacuum == (0, 0, 0)
    assert sum(basis.vacuum) == 0


@pytest.mark.parametrize("config", [ModelConfig(num_modes=6, n_max=3), LatticeConfig()],
                         ids=["box6_nmax3", "chain"])
def test_lowering_table_matches_a_per_state_search(config):
    # one entry per occupied slot of each row, in row-major order, with the
    # lowered occupation found by scanning the table state by state
    basis = build_basis(config)
    table = basis.occupations
    expected = []
    for row, occ in enumerate(table):
        for j in np.flatnonzero(occ):
            lowered = occ.copy()
            lowered[j] -= 1
            (dst,) = np.flatnonzero((table == lowered).all(axis=1))
            expected.append((dst, row, j, math.sqrt(occ[j])))
    dst, src, slot, amp = basis.lowering
    assert len(src) == np.count_nonzero(table)
    assert [tuple(entry) for entry in zip(dst.tolist(), src.tolist(), slot.tolist(),
                                          amp.tolist())] == expected
    # each row's first entry lowers its first occupied slot
    rows = np.arange(1, basis.num_occupations)  # every row but the vacuum
    head = np.searchsorted(src, rows)
    assert np.array_equal(src[head], rows)
    assert np.array_equal(slot[head], np.argmax(table[rows] > 0, axis=1))


def test_states_is_the_one_layout():
    basis = build_basis(ModelConfig(num_modes=3, n_max=2, levels_a=3, levels_b=2))
    rows = {tuple(occ): row for row, occ in enumerate(basis.occupations.tolist())}
    for a, b, occ in bare_states(basis):
        pair = a * basis.levels_b + b
        assert basis.states(pair, rows[occ]).tolist() == [
            index_of_bare_state(basis, a, b, occ)]
    # pairs outermost: every pair's rows in a row
    pairs, picked = np.array([4, 1]), np.array([0, 7, 2])
    assert basis.states(pairs, picked).tolist() == [
        int(basis.states(pair, row)[0]) for pair in pairs for row in picked]
    excited = {index_of_bare_state(basis, a, b, occ)
               for a, b, occ in bare_states(basis) if b >= 1}
    ((indices, factor),) = excitation_observable_b(basis).blocks
    assert factor is None
    assert indices.tolist() == sorted(excited)
