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
"""

from __future__ import annotations

import cmath
import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .basis import FockBasis, index_of_bare_state
from .config import LatticeConfig
from .errors import ConvergenceError, DomainError

# largest dimension handled by dense eigendecomposition, here and in the propagator
DENSE_LIMIT = 2000


class HermitianOperator:
    """Sparse Hermitian matrix plus a certified lower bound on its spectrum.

    The spectral_floor is a rigorous (possibly loose) lower bound used to
    shift complex-time propagation into a numerically safe regime.  Dense
    eigendecompositions and principal blocks are computed lazily and cached
    on the instance.
    """

    def __init__(self, matrix, spectral_floor: float, basis: FockBasis | None = None):
        matrix = sparse.csr_matrix(matrix, dtype=np.complex128)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        herm_gap = (matrix - matrix.conjugate().T)
        herm_gap.eliminate_zeros()
        if herm_gap.nnz != 0:
            raise ValueError("matrix is not exactly Hermitian")
        self.matrix = matrix
        self.spectral_floor = float(spectral_floor)
        self.basis = basis
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
    """Observable with spectrum inside [0, 1].

    sqrt_factor is any matrix W with O = W^dagger W; expectation values are
    then evaluated as ||W psi||^2, which is non-negative by construction and
    never clamped after the fact.  Projectors are their own square root.
    """

    def __init__(self, operator: HermitianOperator, is_projector: bool = False,
                 sqrt_factor=None, label: str = "observable"):
        self.operator = operator
        self.is_projector = bool(is_projector)
        if sqrt_factor is None and self.is_projector:
            sqrt_factor = operator.matrix
        self.sqrt_factor = sqrt_factor
        self.label = label

    @property
    def matrix(self):
        return self.operator.matrix

    @property
    def dimension(self) -> int:
        return self.operator.dimension

    def restricted(self, indices) -> "BoundedObservable":
        """The observable on states that vanish outside the sorted index set C.

        For such psi, <psi|O|psi> = psi_C^dagger O[C, C] psi_C and
        ||W psi||^2 = ||W[:, C] psi_C||^2 for any factor W.  The factor
        keeps only its nonempty rows, which carry all of that norm.  O[C, C]
        need not be a projector when O is, so the result always carries its
        factor explicitly.
        """
        indices = np.asarray(indices, dtype=int)
        if len(indices) == self.dimension:
            return self
        factor = None
        if self.sqrt_factor is not None:
            factor = sparse.csr_matrix(self.sqrt_factor)[:, indices]
            factor = factor[np.flatnonzero(factor.getnnz(axis=1))]
        return BoundedObservable(self.operator.block(indices), sqrt_factor=factor,
                                 label=self.label)

    def __repr__(self):
        return f"BoundedObservable({self.label!r}, dim={self.dimension}, projector={self.is_projector})"


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
    position = {occ: i for i, occ in enumerate(occs)}
    n = basis.num_occupations
    out = []
    for j in range(basis.num_slots):
        src = [s for s, occ in enumerate(occs) if occ[j]]
        dst = [position[occs[s][:j] + (occs[s][j] - 1,) + occs[s][j + 1:]] for s in src]
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
    return HermitianOperator(matrix, gershgorin_floor(matrix), basis)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def excitation_observable_b(basis: FockBasis) -> BoundedObservable:
    """Projector onto 'atom B is in any excited level'.  Diagonal 0/1."""
    mask = np.array([1.0 if b >= 1 else 0.0 for _, b, _ in basis.states])
    mat = sparse.diags(mask, format="csr", dtype=np.complex128)
    op = HermitianOperator(mat, gershgorin_floor(mat), basis)
    return BoundedObservable(op, is_projector=True, label="excitation_b")


def exchange_projector(basis: FockBasis) -> BoundedObservable:
    """Rank-1 projector onto (ground A, first excited B, vacuum)."""
    idx = index_of_bare_state(basis, 0, 1, basis.vacuum)
    mat = sparse.csr_matrix(
        ([1.0 + 0.0j], ([idx], [idx])), shape=(basis.dimension, basis.dimension)
    )
    op = HermitianOperator(mat, gershgorin_floor(mat), basis)
    return BoundedObservable(op, is_projector=True, label="exchange")


def _hermitize(dense):
    # exact Hermitian symmetrization: conj pairing of add/2 is exact in IEEE
    return (dense + dense.conjugate().T) / 2.0


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
    truncation is exact.  The construction diagonalizes the occupation block
    densely; it is meant for diagnostic-size bases.
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
    block = _hermitize((stacked.T @ smeared @ stacked).toarray())

    lam, vec = np.linalg.eigh(block)
    f = np.minimum(np.maximum(lam, 0.0), 1.0)
    o_block = _hermitize((vec * f) @ vec.conjugate().T)
    w_block = _hermitize((vec * np.sqrt(f)) @ vec.conjugate().T)

    eye_atoms = sparse.identity(basis.levels_a * basis.levels_b, format="csr")
    mat = sparse.kron(eye_atoms, sparse.csr_matrix(o_block), format="csr")
    sqrt_factor = sparse.kron(eye_atoms, sparse.csr_matrix(w_block), format="csr")
    op = HermitianOperator(mat, gershgorin_floor(mat), basis)
    return BoundedObservable(op, is_projector=False, sqrt_factor=sqrt_factor,
                             label="photon_region")


def spectral_bounds(operator: HermitianOperator, dense_limit: int = DENSE_LIMIT):
    """Enclosure (e_min, e_max) of the extreme eigenvalues.

    Dense and effectively exact up to dense_limit; above that an iterative
    extremal eigensolver is used and the enclosure is widened by the
    residual norm of each Ritz pair.
    """
    mat = operator.matrix
    dim = operator.dimension
    if dim <= dense_limit:
        w = np.linalg.eigvalsh(mat.toarray())
        return float(w[0]), float(w[-1])
    out = []
    for which in ("SA", "LA"):
        try:
            w, v = eigsh(mat, k=1, which=which, maxiter=5000, tol=1e-12)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"extremal eigensolver did not converge ({which})",
                residual=getattr(exc, "eigenvalues", None),
            ) from exc
        ritz = float(w[0])
        resid = float(np.linalg.norm(mat @ v[:, 0] - ritz * v[:, 0]))
        out.append(ritz - resid if which == "SA" else ritz + resid)
    return out[0], out[1]


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


def write_triplets(operator: HermitianOperator, path) -> None:
    """Write format_triplets(operator) to path."""
    with open(path, "w") as fh:
        fh.write(format_triplets(operator))


def read_triplets(path):
    """Read a triplet dump back into a csr matrix."""
    rows, cols, vals = [], [], []
    dim = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# dimension"):
                    dim = int(line.split()[-1])
                continue
            r, c, re, im = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(complex(float(re), float(im)))
    if dim is None:
        raise ValueError("triplet file lacks a dimension header")
    return sparse.csr_matrix(
        (vals, (rows, cols)), shape=(dim, dim), dtype=np.complex128
    )
