"""Truncated product basis: atom A levels x atom B levels x Fock occupations.

Basis states are triples (a_level, b_level, occupations) where occupations
is one photon count per retained mode (or per chain site for the lattice
variant) with total count at most n_max.  States are ordered
lexicographically on the full triple, so the layout is a plain tensor
product: the occupation block repeats identically for every atom pair, and
state (a, b, occ) sits at index (a * levels_b + b) * num_occupations + row
(FockBasis.states), with row the position of occ in the occupation table,
stored as one int64 array with one row lookup (FockBasis.rows_of) and the
lowering entries of every field term built from it (FockBasis.lowering).
"""

from __future__ import annotations

import math

import numpy as np

from .config import AnyConfig, LatticeConfig, ModeTable, mode_table
from .errors import BasisLookupError, DimensionError

# hard cap on the basis dimension, checked before enumeration: it bounds the
# occupation table and every sparse matrix and vector over the basis; dense
# arrays are checked against physical memory instead (config.require_memory)
DIMENSION_LIMIT = 300_000


def occupation_count(slots: int, n_max: int) -> int:
    """Occupation vectors over `slots` modes with total <= n_max (hockey stick)."""
    return math.comb(slots + n_max, n_max)


def _keys(rows: np.ndarray) -> np.ndarray:
    # one bytes key per occupation row, ordered as the rows: big-endian 4-byte
    # words compare as the counts do, and no slots still take one (no dtype S0)
    words = np.ascontiguousarray(rows if rows.shape[1] else np.zeros((len(rows), 1)), ">u4")
    return words.view(f"S{words.shape[1] * 4}").ravel()


class FockBasis:
    """Indexed enumeration of the truncated product basis.

    Parameters
    ----------
    config : ModelConfig or LatticeConfig
        Source configuration; decides the number of field slots.  A total
        dimension above DIMENSION_LIMIT raises DimensionError before any
        enumeration work is done.

    Attributes
    ----------
    occupations : ndarray of int64, shape (num_occupations, num_slots)
        All occupation vectors in lexicographic order, the vacuum as row 0.
    modes : ModeTable or None
        Retained box modes; None for the lattice variant.
    lowering : (dst, src, slot, amp), four ndarrays
        One entry a_j |occ> = amp |occ - e_j> per occupied slot j of each
        row src, with amp = sqrt(occ_j) and dst the row of occ - e_j, in
        row-major order: src is sorted, and each row's first entry lowers
        its first occupied slot.
    states : method
        Basis indices of (atom pair, occupation row), the one layout formula.
    """

    def __init__(self, config: AnyConfig):
        self.config = config
        if isinstance(config, LatticeConfig):
            self.modes: ModeTable | None = None
            self.num_slots = config.num_sites
        else:
            self.modes = mode_table(config)
            self.num_slots = len(self.modes)
        self.n_max = config.n_max
        self.levels_a = config.levels_a
        self.levels_b = config.levels_b

        n_occ = occupation_count(self.num_slots, self.n_max)
        dim = self.levels_a * self.levels_b * n_occ
        if dim > DIMENSION_LIMIT:
            raise DimensionError(
                f"basis dimension {dim} exceeds the hard limit {DIMENSION_LIMIT}"
            )

        table = np.zeros((1, 0), dtype=np.int64)
        for _ in range(self.num_slots):  # prepend each head the row totals leave room for
            table = np.concatenate([np.insert(table[table.sum(1) <= self.n_max - h], 0, h, 1)
                                    for h in range(self.n_max + 1)])
        table.flags.writeable = False  # the keys below are built from it
        self.occupations = table
        self.num_occupations = n_occ
        self._keys = _keys(table)
        self.dimension = dim
        src, slot = np.nonzero(table)
        dst = np.empty_like(src)
        for j in range(self.num_slots):  # one slot's lowered occupations held at a time
            own = slot == j
            lowered = table[src[own]]
            lowered[:, j] -= 1
            dst[own] = self.rows_of(lowered)
        self.lowering = (dst, src, slot, np.sqrt(table[src, slot]))

    def rows_of(self, occupations: np.ndarray) -> np.ndarray:
        """Table rows of the occupation rows given, each of which must be in the table."""
        return np.searchsorted(self._keys, _keys(occupations))

    def states(self, pairs, rows) -> np.ndarray:
        """Indices pair * num_occupations + row, pairs outermost; pair = a * levels_b + b."""
        return np.add.outer(np.multiply(pairs, self.num_occupations), rows).ravel()

    @property
    def vacuum(self) -> tuple:
        return (0,) * self.num_slots

    def __repr__(self):
        return (
            f"FockBasis(dim={self.dimension}, levels={self.levels_a}x{self.levels_b}, "
            f"slots={self.num_slots}, n_max={self.n_max})"
        )


def build_basis(config: AnyConfig) -> FockBasis:
    """The truncated basis of a config; equal configs give identical state orderings."""
    return FockBasis(config)


def index_of_bare_state(basis: FockBasis, a_level: int, b_level: int, occupations) -> int:
    """Index of a bare product state, with explicit domain errors.

    Raises
    ------
    BasisLookupError
        If the levels are out of range, the occupation vector has the wrong
        length or entries that are negative or not whole numbers, or the
        total photon number exceeds the truncation.
    """
    if not (0 <= a_level < basis.levels_a):
        raise BasisLookupError(f"a_level {a_level} outside 0..{basis.levels_a - 1}")
    if not (0 <= b_level < basis.levels_b):
        raise BasisLookupError(f"b_level {b_level} outside 0..{basis.levels_b - 1}")
    occ = np.asarray(occupations)
    if occ.shape != (basis.num_slots,):
        raise BasisLookupError(f"occupation vector has {occ.size} slots, "
                               f"basis has {basis.num_slots}")
    if np.any(occ < 0) or np.any(occ % 1):
        raise BasisLookupError("occupation numbers must be non-negative integers")
    if occ.sum() > basis.n_max:
        raise BasisLookupError(f"total occupation {occ.sum()} exceeds truncation "
                               f"n_max={basis.n_max}")
    return int(basis.states(a_level * basis.levels_b + b_level, basis.rows_of(occ[None]))[0])
