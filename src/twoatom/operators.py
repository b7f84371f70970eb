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

Hermiticity is structural: every matrix element is accumulated once in the
canonical (upper triangle) slot and mirrored by exact complex conjugation,
so matrix == matrix.conj().T holds with zero floating-point slack.
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
    eigendecompositions are computed lazily and cached on the instance.
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

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Dense eigendecomposition (w, V), cached after the first call."""
        if self._eigensystem is None:
            w, v = np.linalg.eigh(self.matrix.toarray())
            self._eigensystem = (w, v)
        return self._eigensystem

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

    def __repr__(self):
        return f"BoundedObservable({self.label!r}, dim={self.dimension}, projector={self.is_projector})"


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------


class _HermitianBuilder:
    """Accumulates matrix elements with structurally exact Hermiticity."""

    def __init__(self, dim):
        self.dim = dim
        self.diag = np.zeros(dim, dtype=float)
        self.upper = {}

    def add(self, i, j, value):
        # H[i, j] += value, mirror entry implied
        if i == j:
            if value.imag != 0.0:
                raise ValueError("diagonal elements must be real")
            self.diag[i] += value.real
            return
        if i < j:
            self.upper[(i, j)] = self.upper.get((i, j), 0.0 + 0.0j) + value
        else:
            self.upper[(j, i)] = self.upper.get((j, i), 0.0 + 0.0j) + np.conjugate(value)

    def to_csr(self):
        n_up = len(self.upper)
        rows = np.empty(self.dim + 2 * n_up, dtype=np.int64)
        cols = np.empty_like(rows)
        vals = np.empty(self.dim + 2 * n_up, dtype=np.complex128)
        rows[: self.dim] = np.arange(self.dim)
        cols[: self.dim] = np.arange(self.dim)
        vals[: self.dim] = self.diag
        for m, ((i, j), v) in enumerate(self.upper.items()):
            rows[self.dim + 2 * m] = i
            cols[self.dim + 2 * m] = j
            vals[self.dim + 2 * m] = v
            rows[self.dim + 2 * m + 1] = j
            cols[self.dim + 2 * m + 1] = i
            vals[self.dim + 2 * m + 1] = np.conjugate(v)
        mat = sparse.coo_matrix((vals, (rows, cols)), shape=(self.dim, self.dim))
        mat = mat.tocsr()
        mat.eliminate_zeros()
        return mat


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


def build_hamiltonian(basis: FockBasis) -> HermitianOperator:
    """Assemble the bare Hamiltonian for a basis.

    Returns a HermitianOperator whose spectral_floor is the Gershgorin
    bound (exact min of the diagonal when the coupling vanishes).

    Notes
    -----
    Matrix elements are accumulated per source column by applying the
    raising-side terms only; the lowering partners are implied by the
    structural mirroring, so Hermiticity is exact by construction.
    """
    cfg = basis.config
    h1, c_a, c_b = _one_particle_data(basis)
    full = cfg.coupling_form == "full"
    builder = _HermitianBuilder(basis.dimension)

    # only canonical j < l moves are applied; the builder's exact mirroring
    # supplies the reverse moves, so each unordered pair enters once
    h1_offdiag = [
        (j, l, h1[j, l])
        for j in range(basis.num_slots)
        for l in range(j + 1, basis.num_slots)
        if h1[j, l] != 0
    ]
    h1_diag = np.real(np.diag(h1))

    for s, (a, b, occ) in enumerate(basis.states):
        # diagonal: atom ladders plus field one-particle diagonal
        e = a * cfg.omega_a + b * cfg.omega_b
        e += float(np.dot(h1_diag, occ)) if basis.num_slots else 0.0
        builder.add(s, s, complex(e))

        # field off-diagonal hopping: adag_j a_l moves one boson l -> j
        for j, l, amp in h1_offdiag:
            if occ[l] == 0:
                continue
            new = list(occ)
            new[l] -= 1
            new[j] += 1
            t = basis.index[(a, b, tuple(new))]
            builder.add(t, s, amp * np.sqrt(occ[l] * (occ[j] + 1)))

        # interactions: apply the atom-raising terms from each source state
        for atom, c_vec in (("a", c_a), ("b", c_b)):
            lvl = a if atom == "a" else b
            if lvl + 1 >= (basis.levels_a if atom == "a" else basis.levels_b):
                continue
            up = (a + 1, b) if atom == "a" else (a, b + 1)
            for j in range(basis.num_slots):
                if c_vec[j] == 0:
                    continue
                # raise_X a_j with amplitude c_X[j]
                if occ[j] > 0:
                    new = list(occ)
                    new[j] -= 1
                    t = basis.index[(up[0], up[1], tuple(new))]
                    builder.add(t, s, c_vec[j] * np.sqrt(occ[j]))
                # counter-rotating raise_X adag_j with amplitude conj(c_X[j])
                if full and sum(occ) < basis.n_max:
                    new = list(occ)
                    new[j] += 1
                    t = basis.index[(up[0], up[1], tuple(new))]
                    builder.add(t, s, np.conjugate(c_vec[j]) * np.sqrt(occ[j] + 1))

    matrix = builder.to_csr()
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

    N_S commutes with the total photon number, so the truncation is exact.
    The construction diagonalizes the occupation block densely; it is meant
    for diagnostic-size bases.
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

    # assemble N_S on the occupation block
    n_occ = basis.num_occupations
    occ_index = {occ: i for i, occ in enumerate(basis.occupations)}
    block = np.zeros((n_occ, n_occ), dtype=complex)
    for s, occ in enumerate(basis.occupations):
        block[s, s] += float(np.dot(np.real(np.diag(kernel)), occ)) if m else 0.0
        for l in range(m):
            if occ[l] == 0:
                continue
            for j in range(m):
                if j == l:
                    continue
                new = list(occ)
                new[l] -= 1
                new[j] += 1
                t = occ_index[tuple(new)]
                block[t, s] += kernel[j, l] * np.sqrt(occ[l] * (occ[j] + 1))
    block = _hermitize(block)

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
