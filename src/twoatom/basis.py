"""Truncated product basis: atom A levels x atom B levels x Fock occupations.

Basis states are triples (a_level, b_level, occupations) where occupations
is one photon count per retained mode (or per chain site for the lattice
variant) with total count at most n_max.  States are ordered
lexicographically on the full triple, so the layout is a plain tensor
product: the occupation block repeats identically for every atom pair, and
state (a, b, occ) sits at index (a * levels_b + b) * num_occupations + row,
with row the position of occ in the occupation table.  Only that table is
stored; no per-state list or map is built.
"""

from __future__ import annotations

import math
import os

from .config import AnyConfig, LatticeConfig, ModeTable, mode_table
from .errors import BasisLookupError, DimensionError

# hard cap on the basis dimension, checked before enumeration: it bounds the
# occupation table and every sparse matrix and vector over the basis; dense
# arrays are checked against physical memory instead (require_memory)
DIMENSION_LIMIT = 300_000


def physical_memory() -> int:
    """Bytes of physical memory, the ceiling of every dense-array guard."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(needed: int, error: type, what: str, remedy: str) -> None:
    """Raise error when `what` needs more bytes than physical memory holds.

    Callers ask before they allocate, so a refused job forms nothing large.
    """
    memory = physical_memory()
    if needed > memory:
        raise error(f"{what} needs {needed / 1e9:.3g} GB against {memory / 1e9:.3g} GB "
                    f"of physical memory: {remedy}")


def occupation_count(slots: int, n_max: int) -> int:
    """Number of occupation vectors over `slots` modes with total <= n_max."""
    if slots == 0:
        # only the empty occupation; comb(slots + s - 1, s) breaks down here
        return 1
    return sum(math.comb(slots + s - 1, s) for s in range(n_max + 1))


def _occupations(slots, budget):
    # lexicographically ascending enumeration of all occupation vectors
    if slots == 0:
        yield ()
        return
    for head in range(budget + 1):
        for rest in _occupations(slots - 1, budget - head):
            yield (head,) + rest


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
    occupations : list of tuple
        All occupation vectors in lexicographic order.
    occupation_rows : dict
        Inverse map from occupation vector to its row in `occupations`.
    modes : ModeTable or None
        Retained box modes; None for the lattice variant.
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

        self.occupations = list(_occupations(self.num_slots, self.n_max))
        self.num_occupations = len(self.occupations)
        assert self.num_occupations == n_occ
        self.occupation_rows = {occ: i for i, occ in enumerate(self.occupations)}
        self.dimension = dim

    @property
    def vacuum(self) -> tuple:
        return (0,) * self.num_slots

    def __len__(self):
        return self.dimension

    def __repr__(self):
        return (
            f"FockBasis(dim={self.dimension}, levels={self.levels_a}x{self.levels_b}, "
            f"slots={self.num_slots}, n_max={self.n_max})"
        )


def build_basis(config: AnyConfig) -> FockBasis:
    """Construct the truncated basis for a config.

    Deterministic: equal configs give identical state orderings.
    """
    return FockBasis(config)


def index_of_bare_state(basis: FockBasis, a_level: int, b_level: int, occupations) -> int:
    """Index of a bare product state, with explicit domain errors.

    Raises
    ------
    BasisLookupError
        If the levels are out of range, the occupation vector has the wrong
        length or negative entries, or the total photon number exceeds the
        truncation.
    """
    if not (0 <= a_level < basis.levels_a):
        raise BasisLookupError(f"a_level {a_level} outside 0..{basis.levels_a - 1}")
    if not (0 <= b_level < basis.levels_b):
        raise BasisLookupError(f"b_level {b_level} outside 0..{basis.levels_b - 1}")
    occ = tuple(int(n) for n in occupations)
    if len(occ) != basis.num_slots:
        raise BasisLookupError(
            f"occupation vector has {len(occ)} slots, basis has {basis.num_slots}"
        )
    if any(n < 0 for n in occ):
        raise BasisLookupError("occupation numbers must be non-negative")
    if sum(occ) > basis.n_max:
        raise BasisLookupError(
            f"total occupation {sum(occ)} exceeds truncation n_max={basis.n_max}"
        )
    atoms = a_level * basis.levels_b + b_level
    return atoms * basis.num_occupations + basis.occupation_rows[occ]
