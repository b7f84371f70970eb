"""Operator assembly on the truncated basis.

The Hamiltonian is the bare sum

    H = H_atom_A + H_atom_B + H_field + H_int_A + H_int_B

with uniform-ladder atoms (level j at energy j*omega_x), a quadratic field
term sum_jl h[j, l] adag_j a_l, and dipole-type interactions.  With the
smeared annihilator Phi_X = sum_j c_X[j] a_j the two coupling forms are

    rotating_wave:  raise_X * Phi_X + lower_X * Phi_X^dagger
    full:           (raise_X + lower_X) * (Phi_X + Phi_X^dagger)

For the box field c_X[j] = g_j * scale_X * exp(+i k_j x_X) (phase on the
annihilator); for the hopping chain c_X picks out the coupled site.

Every field term is built from per-slot annihilators a_j on the occupation
block and placed on the atoms by a Kronecker product (the basis is atoms x
occupations).  Hermiticity is structural: the Hamiltonian is assembled as
D + U + U^dagger from its real diagonal D and the terms U that raise the
basis index, and IEEE addition commutes with conjugation, so
matrix == matrix.conj().T holds with zero floating-point slack.

Every observable 0 <= O <= 1 is stored as a few blocks of a square-root
factor W with O = W^dagger W, and O itself is never formed.  A block is a
set of basis indices with a factor acting on just those amplitudes, or with
none for the identity.  The two projectors are one identity block each; the
photon-region observable is one block per atom state and photon number,
and the blocks of one photon number share a single dense factor.

format_triplets renders a Hamiltonian as the text dump that
`twoatom simulate --dump-hamiltonian` writes: '#' header lines, then one
'row col re im' line per stored entry, which np.loadtxt reads back exactly.
"""

from __future__ import annotations

import cmath
from functools import cached_property

import numpy as np
from scipy import sparse

from .basis import FockBasis, index_of_bare_state
from .config import LatticeConfig
from .errors import DomainError


class HermitianOperator:
    """Sparse Hermitian matrix plus a certified lower bound on its spectrum.

    The spectral_floor is a rigorous (possibly loose) lower bound used to
    shift complex-time propagation into a numerically safe regime.  Dense
    eigendecompositions and principal blocks are computed lazily and cached
    on the instance.
    """

    def __init__(self, matrix, spectral_floor: float):
        matrix = sparse.csr_matrix(matrix, dtype=np.complex128)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        herm_gap = (matrix - matrix.conjugate().T)
        herm_gap.eliminate_zeros()
        if herm_gap.nnz != 0:
            raise ValueError("matrix is not exactly Hermitian")
        self.matrix = matrix
        self.spectral_floor = float(spectral_floor)
        self._eigensystem = None
        self._blocks = {}

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Dense eigendecomposition (w, V), cached after the first call."""
        if self._eigensystem is None:
            w, v = np.linalg.eigh(self.matrix.toarray())
            self._eigensystem = (w, v)
        return self._eigensystem

    def invariant_block(self, support) -> np.ndarray:
        """Sorted indices C of the components of H's pattern that meet support.

        The components are those of the undirected graph with an edge
        wherever H has a nonzero entry.  No entry joins C to the rest of the
        space, so span{e_i : i in C} is invariant under H and exp(-iHz), and
        evolving H[C, C] is exact for any state supported inside C.
        """
        # imported here: runs that propagate nothing (fermi-integral) skip it
        from scipy.sparse.csgraph import connected_components

        _, labels = connected_components(self.matrix != 0, directed=False)
        return np.flatnonzero(np.isin(labels, labels[np.asarray(support, dtype=int)]))

    def block(self, indices) -> "HermitianOperator":
        """H[C, C] as an operator, cached on this one per index set C.

        C holds sorted, distinct indices, as invariant_block returns them.
        By Cauchy interlacing the spectrum of any principal submatrix lies
        inside H's, so the spectral floor carries over.  When C is the whole
        space this operator is returned itself.
        """
        indices = np.asarray(indices, dtype=int)
        if len(indices) == self.dimension:
            return self
        key = indices.tobytes()
        if key not in self._blocks:
            self._blocks[key] = HermitianOperator(
                self.matrix[indices][:, indices], self.spectral_floor)
        return self._blocks[key]

    def __repr__(self):
        return (
            f"HermitianOperator(dim={self.dimension}, nnz={self.matrix.nnz}, "
            f"floor={self.spectral_floor:.6g})"
        )


class BoundedObservable:
    """Observable O with spectrum inside [0, 1], held as blocks of a square-root factor.

    Block k is a pair (indices, factor): I_k, a sorted array of basis
    indices, and F_k, any matrix with one column per index that supports
    .shape, column slicing and @ (a numpy array or a scipy sparse matrix),
    or None for the identity.  With P_k the map psi -> psi[I_k],

        O = sum_k P_k^T F_k^dagger F_k P_k,

    so expectation values are sum_k ||F_k psi[I_k]||^2, non-negative by
    construction and never clamped after the fact.  O itself is never
    formed.  A factor W over all `dimension` states is the single block
    (arange(dimension), W).
    """

    def __init__(self, blocks, dimension: int, label: str = "observable"):
        self.dimension = int(dimension)
        self.blocks = tuple((np.asarray(indices, dtype=int), factor)
                            for indices, factor in blocks)
        for indices, factor in self.blocks:
            if indices.size and not 0 <= indices.min() <= indices.max() < self.dimension:
                raise ValueError("block index outside the basis")
            if factor is not None and factor.shape[1] != len(indices):
                raise ValueError("block factor needs one column per index")
        self.label = label

    def factor_parts(self, states):
        """F_k psi[I_k] for each block k, for states stacked as rows.

        Each part has one column per state, and one row per factor row (per
        index for an identity block).
        """
        columns = np.asarray(states).T
        for indices, factor in self.blocks:
            part = columns[indices]
            yield part if factor is None else factor @ part

    @cached_property
    def sqrt_factor(self):
        """W as one csr matrix: the blocks' rows stacked in block order.

        Assembled on first use and then kept; evaluation never needs it.
        """
        parts = [sparse.csr_matrix((0, self.dimension), dtype=np.complex128)]
        for indices, factor in self.blocks:
            rows = (sparse.identity(len(indices), format="csr") if factor is None
                    else sparse.csr_matrix(factor))
            parts.append(sparse.csr_matrix((rows.data, indices[rows.indices], rows.indptr),
                                           shape=(rows.shape[0], self.dimension)))
        return sparse.vstack(parts, format="csr", dtype=np.complex128)

    def restricted(self, indices) -> "BoundedObservable":
        """The observable on states that vanish outside the sorted index set C.

        For such psi only the factor columns whose index lies in C carry
        weight, so each block keeps those columns, with its indices renumbered
        to their positions in C.  Blocks left with no columns or no rows are
        dropped.
        """
        indices = np.asarray(indices, dtype=int)
        if len(indices) == self.dimension:
            return self
        blocks = []
        for own, factor in self.blocks:
            inside = np.isin(own, indices)
            if not inside.any():
                continue
            if factor is not None and not inside.all():
                factor = factor[:, inside]
            if factor is not None and factor.shape[0] == 0:
                continue
            blocks.append((np.searchsorted(indices, own[inside]), factor))
        return BoundedObservable(blocks, len(indices), self.label)

    def __repr__(self):
        rows = sum(len(i) if f is None else f.shape[0] for i, f in self.blocks)
        return (f"BoundedObservable({self.label!r}, dim={self.dimension}, "
                f"blocks={len(self.blocks)}, factor_rows={rows})")


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------


def gershgorin_floor(matrix) -> float:
    """Rigorous lower bound on the spectrum from Gershgorin discs."""
    matrix = sparse.csr_matrix(matrix)
    if matrix.shape[0] == 0:
        return 0.0
    diag = matrix.diagonal().real
    row_sums = np.asarray(np.abs(matrix).sum(axis=1)).ravel()
    radii = row_sums - np.abs(matrix.diagonal())
    return float(np.min(diag - radii))


def _one_particle_data(basis: FockBasis):
    """(h, c_a, c_b): one-boson matrix and per-atom smearing amplitudes."""
    cfg = basis.config
    m = basis.num_slots
    if isinstance(cfg, LatticeConfig):
        h = np.zeros((m, m), dtype=complex)
        np.fill_diagonal(h, cfg.site_frequency)
        for j in range(m - 1):
            h[j, j + 1] = -cfg.hopping
            h[j + 1, j] = -cfg.hopping
        c_a = np.zeros(m, dtype=complex)
        c_b = np.zeros(m, dtype=complex)
        c_a[cfg.site_a] = cfg.coupling_strength * cfg.coupling_scale_a
        c_b[cfg.site_b] = cfg.coupling_strength * cfg.coupling_scale_b
        return h, c_a, c_b
    k, omega, g = basis.modes.as_arrays()
    h = np.diag(omega.astype(complex))
    c_a = g * cfg.coupling_scale_a * np.exp(1j * k * cfg.x_a)
    c_b = g * cfg.coupling_scale_b * np.exp(1j * k * cfg.x_b)
    return h, c_a, c_b


def _raising(levels: int):
    """|j + 1><j| on one atom's ladder (unit amplitudes)."""
    return sparse.eye(levels, k=-1, format="csr")


def _annihilators(basis: FockBasis) -> list:
    """a_j on the occupation block, one csr matrix per field slot."""
    occs = basis.occupations
    n = basis.num_occupations
    out = []
    for j in range(basis.num_slots):
        src = [s for s, occ in enumerate(occs) if occ[j]]
        dst = [basis.occupation_rows[occs[s][:j] + (occs[s][j] - 1,) + occs[s][j + 1:]]
               for s in src]
        amp = np.sqrt([occs[s][j] for s in src])
        out.append(sparse.csr_matrix((amp, (dst, src)), shape=(n, n)))
    return out


def build_hamiltonian(basis: FockBasis) -> HermitianOperator:
    """Assemble the bare Hamiltonian for a basis.

    Returns a HermitianOperator whose spectral_floor is the Gershgorin
    bound (exact min of the diagonal when the coupling vanishes).

    Notes
    -----
    H = D + U + U^dagger: D is the diagonal, U collects the raising-side
    terms (field hopping adag_j a_l with j < l, raise_X Phi_X, and under
    "full" also raise_X Phi_X^dagger), each a Kronecker product of an atom
    factor and a field factor built from the per-slot annihilators.
    """
    cfg = basis.config
    h1, c_a, c_b = _one_particle_data(basis)
    ann = _annihilators(basis)
    n_occ = basis.num_occupations
    eye_a = sparse.identity(basis.levels_a, format="csr")
    eye_b = sparse.identity(basis.levels_b, format="csr")
    empty = sparse.csr_matrix((n_occ, n_occ), dtype=complex)

    # D: atom ladders plus the field's one-particle diagonal, as an outer sum
    atoms = np.add.outer(np.arange(basis.levels_a) * cfg.omega_a,
                         np.arange(basis.levels_b) * cfg.omega_b).ravel()
    occupations = np.array(basis.occupations, dtype=float).reshape(n_occ, basis.num_slots)
    field = occupations @ np.real(np.diag(h1))
    diagonal = sparse.diags(np.add.outer(atoms, field).ravel())

    # U: every term that raises the basis index; U^dagger supplies the rest
    hopping = sum((h1[j, l] * (ann[j].T @ ann[l])
                   for j, l in zip(*np.nonzero(np.triu(h1, 1)))), empty)
    upper = sparse.kron(sparse.identity(basis.levels_a * basis.levels_b), hopping)
    for raise_x, c_x in ((sparse.kron(_raising(basis.levels_a), eye_b), c_a),
                         (sparse.kron(eye_a, _raising(basis.levels_b)), c_b)):
        phi = sum((c * a for c, a in zip(c_x, ann)), empty)
        upper += sparse.kron(raise_x, phi)
        if cfg.coupling_form == "full":
            upper += sparse.kron(raise_x, phi.conjugate().T)

    matrix = diagonal + upper + upper.conjugate().T
    return HermitianOperator(matrix, gershgorin_floor(matrix))


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def excitation_observable_b(basis: FockBasis) -> BoundedObservable:
    """Projector onto 'atom B is in any excited level': one identity block."""
    layout = np.arange(basis.dimension).reshape(basis.levels_a, basis.levels_b, -1)
    excited = layout[:, 1:].ravel()
    return BoundedObservable([(excited, None)], basis.dimension, label="excitation_b")


def exchange_projector(basis: FockBasis) -> BoundedObservable:
    """Rank-1 projector onto (ground A, first excited B, vacuum)."""
    idx = index_of_bare_state(basis, 0, 1, basis.vacuum)
    return BoundedObservable([([idx], None)], basis.dimension, label="exchange")


def local_photon_observable(basis: FockBasis, region: tuple[float, float]) -> BoundedObservable:
    """Saturated photon count in a spatial region of the box field.

    The smeared number operator N_S = sum_jl K[j, l] adag_j a_l uses the
    overlap kernel of the box mode functions exp(i k x)/sqrt(L) restricted
    to the region.  The observable is min(N_S, 1) by spectral calculus:
    eigenvalue 0 on the no-photon-in-region subspace, saturating at 1, so
    the spectrum sits in [0, 1] with no post-hoc clipping.  On one-photon
    states it reduces to the plain detection probability in the region.

    N_S is assembled as sum_j adag_j (sum_l K[j, l] a_l) from the per-slot
    annihilators and commutes with the total photon number, so the
    truncation is exact and N_S splits into one block per photon number n.
    Each block is diagonalized densely, N_S = V_n diag(lambda) V_n^dagger,
    and gives the dense factor F_n = diag(sqrt(f)) V_n^dagger with
    f = min(lambda, 1), less the rows where f = 0.  The observable is one
    block per atom state and photon number n, over that sector's indices,
    and all blocks of one n share F_n; sectors with no rows are left out.
    No block joins two photon numbers or two atom states.  The construction
    is meant for diagnostic-size bases.
    """
    cfg = basis.config
    if isinstance(cfg, LatticeConfig):
        raise DomainError("local photon regions are defined for the box field only")
    lo, hi = float(region[0]), float(region[1])
    if not (0.0 <= lo < hi <= cfg.box_length):
        raise DomainError("region must satisfy 0 <= lo < hi <= box_length")

    k = np.asarray(basis.modes.k)
    m = basis.num_slots
    kernel = np.empty((m, m), dtype=complex)
    for j in range(m):
        kernel[j, j] = (hi - lo) / cfg.box_length
        for l in range(j + 1, m):
            q = k[l] - k[j]
            val = (cmath.exp(1j * q * hi) - cmath.exp(1j * q * lo)) / (1j * q * cfg.box_length)
            kernel[j, l] = val
            kernel[l, j] = np.conjugate(val)

    # N_S = sum_j adag_j (sum_l K[j, l] a_l) = A^dagger (K x 1) A with the
    # annihilators stacked into A; a_l only reaches occupations below n_max,
    # so A keeps just those rows and K x 1 stays m^2 times their count
    below = [i for i, occ in enumerate(basis.occupations) if sum(occ) < basis.n_max]
    stacked = sparse.vstack([a[below] for a in _annihilators(basis)]
                            or [sparse.csr_matrix((0, basis.num_occupations))], format="csr")
    smeared = sparse.kron(kernel, sparse.identity(len(below)), format="csr")
    number = (stacked.T @ smeared @ stacked).tocsr()

    photons = np.array([sum(occ) for occ in basis.occupations])
    sectors = []
    for n in range(basis.n_max + 1):
        sector = np.flatnonzero(photons == n)
        lam, vec = np.linalg.eigh(number[sector][:, sector].toarray())
        f = np.clip(lam, 0.0, 1.0)
        keep = f > 0.0
        if keep.any():
            sectors.append((sector, np.sqrt(f[keep])[:, None] * vec[:, keep].conjugate().T))

    n_occ = basis.num_occupations
    blocks = [(atoms * n_occ + sector, factor)
              for atoms in range(basis.levels_a * basis.levels_b)
              for sector, factor in sectors]
    return BoundedObservable(blocks, basis.dimension, label="photon_region")


# ---------------------------------------------------------------------------
# sparse triplet dump (documented text format)
# ---------------------------------------------------------------------------

TRIPLET_HEADER = "# twoatom sparse hermitian triplets v1"


def format_triplets(operator: HermitianOperator) -> str:
    """The matrix as text triplets: 'row col re im' per line.

    The header records the dimension and entry count; rows come out in CSR
    (row-major) order with 17 significant digits, so formatting the same
    operator again gives an identical string.
    """
    coo = operator.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [TRIPLET_HEADER,
             f"# dimension {operator.dimension}",
             f"# entries {coo.nnz}"]
    for i in order:
        v = coo.data[i]
        lines.append(f"{coo.row[i]} {coo.col[i]} {v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"
