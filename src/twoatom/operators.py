"""Operator assembly on the truncated basis.

The Hamiltonian is the bare sum

    H = H_atom_A + H_atom_B + H_field + H_int_A + H_int_B

with uniform-ladder atoms (level j at energy j*omega_x), a quadratic field
term sum_jl h[j, l] adag_j a_l, and dipole-type interactions.  With the
smeared annihilator Phi_X = sum_j c_X[j] a_j the two coupling forms are

    rotating_wave:  raise_X * Phi_X + lower_X * Phi_X^dagger
    full:           (raise_X + lower_X) * (Phi_X + Phi_X^dagger)

For the hopping chain c_X picks out the coupled site.  The box field's
slots are its real standing waves: for each pair of modes +k, -k, the +k
slot holds sqrt(2) cos(k x) and the -k slot sqrt(2) sin(|k| x), so
c_X = g * scale_X * sqrt(2) cos(k x_X) and g * scale_X * sqrt(2) sin(|k| x_X)
there (_standing_waves).  Every coupling is then real, and so is H: the
time-reversal symmetry of the box is built into the basis, not detected
afterwards (Haake, Quantum Signatures of Chaos, ch. 2).  A mode with no
partner (odd num_modes) keeps its running wave exp(i k x), with coupling
g * scale_X * exp(i k x_X), and H is complex.

Every field term is linear in the smeared annihilator a(w) = sum_j w_j a_j
on the occupation block, and all of them come from one table of lowering
entries: a_j |occ> = sqrt(occ_j) |occ - e_j> for every occupied slot j of
every occupation, which the basis holds (FockBasis.lowering).  a(w) is that
table with entries w_j sqrt(occ_j) (_smeared): Phi_X = a(c_X) and
a_j = a(e_j) in the hopping; the photon-region observable reads its
contraction tables from the same entries.  The Hamiltonian's terms are (row, col, value) triplets
placed on their atom pairs by FockBasis.states, the basis layout's formula.
Hermiticity is structural: the Hamiltonian is assembled as D + U + U^dagger
from its real diagonal D and the terms U that raise the basis index, and
IEEE addition commutes with conjugation, so matrix == matrix.conj().T holds
with zero floating-point slack.  A real H is stored as float64.

Every observable 0 <= O <= 1 is stored as a few blocks of a square-root
factor W with O = W^dagger W, and O itself is never formed.  A block is a
set of basis indices with a factor acting on just those amplitudes, or with
none for the identity.  The two projectors are one identity block each; the
photon-region observable is one block per atom state and photon number,
and the blocks of one photon number share a single factor.  Its region
count N_S is the second quantization of an m x m one-body kernel, so one
eigh of that kernel gives every eigenvector, as a Fock state of rotated
modes, and no sector of N_S is ever formed or diagonalized.  A sector's
factor is applied by contracting the kernel's eigenvectors along each axis
of a symmetric tensor (_SectorFactor), so it is never formed either.

format_triplets renders a Hamiltonian as the text dump that
`twoatom simulate --dump-hamiltonian` writes: '#' header lines, then one
'row col re im' line per stored entry, which np.loadtxt reads back exactly.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np
import scipy

from .basis import FockBasis, index_of_bare_state
from .config import LatticeConfig, require_memory
from .errors import DimensionError, DomainError


class HermitianOperator:
    """Sparse Hermitian matrix plus a certified bracket of its spectrum.

    spectral_bounds is (floor, ceiling) from gershgorin_bounds, weighted
    discs for the floor and plain ones for the ceiling: the interval the
    sparse backend expands over, computed on each read: the series reads it once.

    A real matrix is kept as float64 and a complex one as complex128, so
    the dense eigendecomposition is a real symmetric eigh whenever H is
    real: every box model with even num_modes and every chain.
    """

    def __init__(self, matrix):
        matrix = scipy.sparse.csr_matrix(matrix)
        matrix = matrix.astype(np.result_type(matrix.dtype, np.float64), copy=False)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        herm_gap = (matrix - matrix.conjugate().T)
        herm_gap.eliminate_zeros()
        if herm_gap.nnz != 0:
            raise ValueError("matrix is not exactly Hermitian")
        self.matrix = matrix

    @property
    def spectral_bounds(self) -> tuple[float, float]:
        """(floor, ceiling) with floor <= E_min and E_max <= ceiling."""
        return gershgorin_bounds(self.matrix)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def eigensystem(self):
        """Dense eigendecomposition (w, V), computed afresh on every call.

        np.linalg.eigh holds five n x n arrays at once: the dense copy of
        the matrix, its own copy for LAPACK, V, and the divide-and-conquer
        workspace of about 2 n^2 more.  Those that could not fit in physical
        memory raise DimensionError before any is formed.
        """
        n = self.dimension
        require_memory(5 * n * n * self.matrix.dtype.itemsize, DimensionError,
                       f"a dense eigendecomposition of dimension {n}",
                       "drop --method dense, or lower n_max or num_modes")
        # numpy's eigh, not scipy.linalg's in-place one: scipy links its own
        # OpenBLAS (scipy.libs/libscipy_openblas) beside numpy's
        # (numpy.libs/libscipy_openblas64_), and a model run maps only
        # numpy's.  Tried on the 992-state block of the bench's dense-photon
        # config (2 cores), eigh(overwrite_a=True) cut peak RSS from 95.5 to
        # 89.8 MB, but importing scipy.linalg cost 0.04 s and 6-8 MB, and the
        # eigh took 0.11-0.14 s in most runs and 0.80-0.96 s in two
        return np.linalg.eigh(self.matrix.toarray())

    def invariant_block(self, support) -> np.ndarray:
        """Sorted indices C of every state that H's nonzero pattern links to support.

        C is the least index set that holds support and every j with
        H[i, j] != 0 for some i in C.  It grows from support by one product
        with |H| per step, reached |= (|H| @ reached) != 0, until a step adds
        nothing; a sum of non-negative terms is nonzero exactly when one of
        them is.  No entry joins C to the rest of the space, so
        span{e_i : i in C} is invariant under H and exp(-iHz), and evolving
        H[C, C] is exact for any state supported inside C.
        """
        pattern = abs(self.matrix)
        reached = np.zeros(self.dimension, dtype=bool)
        reached[np.asarray(support, dtype=int)] = True
        while True:
            grown = reached | (pattern @ reached != 0)
            if np.array_equal(grown, reached):
                return np.flatnonzero(reached)
            reached = grown

    def block(self, indices) -> "HermitianOperator":
        """H[C, C] as a new operator.

        C holds sorted, distinct indices, as invariant_block returns them.
        The block brackets its own spectrum, which by Cauchy interlacing
        lies inside H's.  When C is the whole space this operator is
        returned itself.
        """
        indices = np.asarray(indices, dtype=int)
        if len(indices) == self.dimension:
            return self
        return HermitianOperator(self.matrix[indices][:, indices])

    def __repr__(self):
        return f"HermitianOperator(dim={self.dimension}, nnz={self.matrix.nnz})"


class BoundedObservable:
    """Observable O with spectrum inside [0, 1], held as blocks of a square-root factor.

    Block k is a pair (indices, factor): I_k, a sorted array of basis
    indices, and F_k, any matrix with one column per index that supports
    .shape, .dtype, column slicing F[:, mask] and F @ X for a 2-d X (a
    numpy array, a scipy sparse matrix or a _SectorFactor), or None for
    the identity.  With P_k the map psi -> psi[I_k],

        O = sum_k P_k^T F_k^dagger F_k P_k,

    so expectation values are sum_k ||F_k psi[I_k]||^2, non-negative by
    construction and never clamped after the fact.  O itself is never
    formed.  A factor W over all `dimension` states is the single block
    (arange(dimension), W).  factor_rows counts W's rows, one per index of
    an identity block.
    """

    def __init__(self, blocks, dimension: int, label: str = "observable"):
        self.dimension = int(dimension)
        self.blocks = tuple((np.asarray(indices, dtype=int), factor)
                            for indices, factor in blocks)
        self.factor_rows = 0
        for indices, factor in self.blocks:
            if indices.size and not 0 <= indices.min() <= indices.max() < self.dimension:
                raise ValueError("block index outside the basis")
            if factor is not None and factor.shape[1] != len(indices):
                raise ValueError("block factor needs one column per index")
            self.factor_rows += len(indices) if factor is None else factor.shape[0]
        self.label = label

    def factor_parts(self, states):
        """F_k psi[I_k] for each block k, for states stacked as rows.

        Each part has one column per state, and one row per factor row (per
        index for an identity block).  Real states stay real, and a real
        factor meets complex states in one real product (_real_product):
        neither is copied to complex.
        """
        columns = np.asarray(states)
        columns = columns.astype(np.result_type(columns.dtype, np.float64), copy=False).T
        for indices, factor in self.blocks:
            part = columns[indices]
            yield part if factor is None else _real_product(factor, part)

    @cached_property
    def sqrt_factor(self):
        """W as one csr matrix: the blocks' rows stacked in block order.

        Each factor is applied to the identity, so this forms every block
        densely; assembled on first use and then kept, and evaluation never
        needs it.
        """
        parts = [scipy.sparse.csr_matrix((0, self.dimension), dtype=np.complex128)]
        for indices, factor in self.blocks:
            rows = (scipy.sparse.identity(len(indices), format="csr") if factor is None
                    else scipy.sparse.csr_matrix(factor @ np.identity(len(indices))))
            parts.append(scipy.sparse.csr_matrix(
                (rows.data, indices[rows.indices], rows.indptr),
                shape=(rows.shape[0], self.dimension)))
        return scipy.sparse.vstack(parts, format="csr", dtype=np.complex128)

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
        return (f"BoundedObservable({self.label!r}, dim={self.dimension}, "
                f"blocks={len(self.blocks)}, factor_rows={self.factor_rows})")


# bytes of one contraction step's tensor that _SectorFactor forms at a time,
# whenever one column fits.  On a 2-core host with 2 MiB of L2 per core,
# 1 MiB chunks ran as fast as 8 MiB ones or faster (16 modes, n_max = 4:
# 0.03 against 0.05-0.06 s per 32 columns) and held an eighth of the memory
CONTRACTION_BYTES = 2**20


@dataclasses.dataclass(frozen=True, eq=False)
class _SectorFactor:
    """F_n = diag(sqrt(f)) V_n^dagger on one n-photon sector, applied by contractions.

    V_n^dagger = Gamma(U)^dagger: on the symmetric tensors of (C^m)^(x n) it
    is U^dagger on each of the n axes.  F @ x, for a block of columns,
    embeds each column as the symmetric tensor whose entry at every index
    tuple of occupation occ is x[occ] / sqrt(c_occ), with c_occ =
    n! / prod(occ!) such tuples (embed); contracts U^dagger along the axes
    one at a time; and reads row nu as the entry of occupation nu times
    sqrt(c_nu) sqrt(f_nu) (scale).

    After k contractions the tensor is symmetric in its k turned axes and
    in its n - k others, so it is held as T[alpha, column, beta], one entry
    per occupation alpha of the k turned photons and beta of the others.
    Step k + 1 (steps[k] = (raised, parent, slot)) takes one photon j out
    of beta (raised[beta', j] is the position of beta' + e_j), turns it,

        T'[A, column, beta'] = sum_j conj(U[j, i]) T[alpha, column, beta' + e_j],

    with A = alpha + e_i, i = slot[A] its first occupied slot and
    alpha = parent[A], and the last step forms only the kept rows.  A step
    holds at most m len(alpha) len(beta') entries per column, and columns
    go CONTRACTION_BYTES of them at a time (at least one): no
    sector x sector array is formed.

    columns are the sector positions of the factor's columns, all of them
    until F[:, mask] keeps a subset, as BoundedObservable.restricted slices
    it: the others embed as zeros.  A real U gives a real F.
    """

    rotation: np.ndarray
    embed: np.ndarray
    steps: tuple
    scale: np.ndarray
    columns: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.scale), len(self.columns)

    @property
    def dtype(self) -> np.dtype:
        return self.rotation.dtype

    def __getitem__(self, key) -> "_SectorFactor":
        rows, columns = key
        if rows != slice(None):
            raise IndexError("a sector factor slices its columns only")
        return dataclasses.replace(self, columns=self.columns[columns])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        dtype = np.result_type(self.dtype, x.dtype)
        weighted = np.zeros((len(self.embed), x.shape[1]), dtype=dtype)
        weighted[self.columns] = x
        weighted *= self.embed[:, None]
        out = np.empty((self.shape[0], x.shape[1]), dtype=dtype)
        turn = self.rotation.conjugate()
        m = len(turn)
        held = [1] + [len(parent) for _, parent, _ in self.steps[:-1]]  # alphas before each step
        entries = max(rows * raised.size for rows, (raised, _, _) in zip(held, self.steps))
        width = max(1, CONTRACTION_BYTES // (entries * dtype.itemsize))
        for first in range(0, x.shape[1], width):
            tensor = weighted[:, first:first + width].T[None]  # no photon turned yet
            for raised, parent, slot in self.steps:
                # [alpha, column, beta', j] through the raised table, turned over j
                turned = np.take(tensor, raised, axis=2).reshape(-1, m) @ turn
                tensor = turned.reshape(*tensor.shape[:2], *raised.shape)[parent, :, :, slot]
            # beta' is the vacuum alone after the last step
            out[:, first:first + width] = tensor[:, :, 0] * self.scale[:, None]
        return out


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------


def _real_product(left, right: np.ndarray) -> np.ndarray:
    """left @ right, with no complex copy of a real left.

    A real left (dense or sparse) multiplies a complex C-contiguous right's
    interleaved real and imaginary parts, viewed as one real array with
    twice the columns; numpy would copy it to complex, and scipy would
    upcast its data on every call.  A complex left, or a real right, takes
    the plain product.
    """
    if not np.iscomplexobj(right):
        return left @ right
    dtype = np.result_type(left.dtype, np.float64)
    return (left @ right.view(dtype)).view(np.complex128)


# Power steps behind the weighted floor.  On the seed-1 benchmark block 10
# steps give K = 142, 20 give 140 and 200 give 139, against 167 for the plain
# discs; at n_max = 4 the 20 steps take about 25 ms, the 200 took 0.35-0.54 s.
FLOOR_STEPS = 20


def gershgorin_bounds(matrix) -> tuple[float, float]:
    """Rigorous (floor, ceiling) of a Hermitian spectrum from Gershgorin discs.

    With H = D + X, D diagonal, every eigenvalue lies within r_i =
    sum_{j != i} |H_ij| of some D_ii: the plain discs, with floor
    min_i (D_ii - r_i) and ceiling max_i (D_ii + r_i).  The discs of
    S^-1 H S, S = diag(s) > 0, have the same centres and radii
    (|X| s)_i / s_i, so any positive s gives a floor too.  FLOOR_STEPS power
    steps on max(D) - D + |X| from s = 1 lift it toward lambda_min(D - |X|)
    <= E_min (Collatz-Wielandt), and the floor is the higher of the two: on
    the default start's block -5.98 becomes 0.277, against E_min = 0.639.
    The ceiling stays plain, 33.47 against E_max = 33.01; weights would move
    it to 33.03, worth a term or two of the series.
    """
    matrix = scipy.sparse.csr_matrix(matrix)
    if matrix.shape[0] == 0:
        return 0.0, 0.0
    diag = matrix.diagonal().real
    couplings = abs(matrix - scipy.sparse.diags(matrix.diagonal()))
    radii = np.asarray(couplings.sum(axis=1)).ravel()
    shift = np.max(diag) - diag
    weights, spread = np.ones(len(diag)), radii  # spread = |X| @ weights
    for _ in range(FLOOR_STEPS):
        weights = shift * weights + spread
        # a positive floor keeps every disc finite; a tiny weight only loosens it
        weights = np.maximum(weights / (np.max(weights) or 1.0), 1e-30)
        spread = couplings @ weights
    weighted = np.min(diag - spread / weights)
    return float(max(np.min(diag - radii), weighted)), float(np.max(diag + radii))


def _standing_waves(k):
    """(V, real): the unitary from the box's running waves to its field slots.

    Slot s holds the mode b_s = sum_j V[s, j] a_j, with a_j the running wave
    exp(i k_j x) / sqrt(L).  For a pair +k at slot p and -k at slot q,
    b_p = (a_p + a_q) / sqrt(2) is the standing wave sqrt(2 / L) cos(k x)
    and b_q = i (a_p - a_q) / sqrt(2) is sqrt(2 / L) sin(|k| x); a mode with
    no partner keeps its running wave.  A smearing c over the running waves
    is conj(V) c over the slots, and a one-body kernel K is V K V^dagger.
    real is True when every mode has its partner: then both are real for
    any real function of position, and their imaginary parts are rounding.
    """
    k = np.asarray(k)
    v = np.eye(len(k), dtype=complex)
    partner = {kj: j for j, kj in enumerate(k)}
    pairs = np.array([(p, partner[-kp]) for p, kp in enumerate(k)
                      if kp > 0 and -kp in partner], dtype=int).reshape(-1, 2)
    p, q = pairs.T
    half = np.sqrt(0.5)
    v[p, p] = v[p, q] = half
    v[q, p], v[q, q] = 1j * half, -1j * half
    return v, 2 * len(pairs) == len(k)


def _one_particle_data(basis: FockBasis):
    """(h, c_a, c_b): real one-boson matrix and per-atom smearing amplitudes.

    The amplitudes are float64 for the chain and for a box whose every mode
    has its partner, and complex128 otherwise.
    """
    cfg = basis.config
    m = basis.num_slots
    if isinstance(cfg, LatticeConfig):
        h = np.diag(np.full(m, cfg.site_frequency)) - cfg.hopping * (
            np.eye(m, k=1) + np.eye(m, k=-1))
        c_a = np.zeros(m)
        c_b = np.zeros(m)
        c_a[cfg.site_a] = cfg.coupling_strength * cfg.coupling_scale_a
        c_b[cfg.site_b] = cfg.coupling_strength * cfg.coupling_scale_b
        return h, c_a, c_b
    k, omega, g = basis.modes.as_arrays()
    v, real = _standing_waves(k)
    # the partners of a pair share omega, so V diag(omega) V^dagger = diag(omega)
    h = np.diag(omega)
    c_a, c_b = (v.conjugate() @ (g * scale * np.exp(1j * k * x))
                for x, scale in ((cfg.x_a, cfg.coupling_scale_a),
                                 (cfg.x_b, cfg.coupling_scale_b)))
    return (h, c_a.real, c_b.real) if real else (h, c_a, c_b)


def _smeared(w, entries, shape):
    """a(w) = sum_j w_j a_j as one csr matrix, from lowering entries (dst, src, slot, amp)."""
    dst, src, slot, amp = entries
    return scipy.sparse.csr_matrix((w[slot] * amp, (dst, src)), shape=shape)


def build_hamiltonian(basis: FockBasis) -> HermitianOperator:
    """Assemble the bare Hamiltonian for a basis.

    Returns a HermitianOperator (its floor is the exact min of the diagonal
    when the coupling vanishes).

    Notes
    -----
    H = D + U + U^dagger: D is the diagonal, U the terms that raise the
    basis index (hopping adag_j a_l with j < l, raise_X Phi_X, and under
    "full" raise_X Phi_X^dagger), each one field factor's (row, col, value)
    triplets placed on atom pairs by FockBasis.states.  Phi_X is the
    lowering table's c_X[slot] * amp, src to dst, from each pair whose atom
    X can rise to the pair one step up (levels_b for A, 1 for B);
    Phi_X^dagger the same with conj(c_X[slot]), dst to src; the hopping is
    h[j, l] a(e_j)^T a(e_l) (_smeared) on every pair.  D + U is one csr
    matrix, and U^dagger joins it as a sparse sum; H is real when c_X is.
    """
    h1, c_a, c_b = _one_particle_data(basis)
    shape = (basis.num_occupations,) * 2
    pairs = np.arange(basis.levels_a * basis.levels_b)
    level_a, level_b = np.divmod(pairs, basis.levels_b)

    # D: atom ladders plus the field's one-particle diagonal, on every state
    states = basis.states(pairs, np.arange(basis.num_occupations))
    atoms = level_a * basis.config.omega_a + level_b * basis.config.omega_b
    diagonal = np.add.outer(atoms, basis.occupations @ np.diag(h1)).ravel()

    # U: field factors (occupation rows r <- c, values v) on atom pairs p <- q
    factors = []
    slots = np.arange(basis.num_slots)  # a_j = a(e_j), e_j = (slots == j)
    for j, l in zip(*np.nonzero(np.triu(h1, 1))):
        hop = (h1[j, l] * (_smeared(slots == j, basis.lowering, shape).T
                           @ _smeared(slots == l, basis.lowering, shape))).tocoo()
        factors.append((pairs, pairs, hop.row, hop.col, hop.data))
    dst, src, slot, amp = basis.lowering
    for c_x, step, can_rise in ((c_a, basis.levels_b, level_a < basis.levels_a - 1),
                                (c_b, 1, level_b < basis.levels_b - 1)):
        on = c_x[slot] != 0  # no zero entry, which would leave slack in H's arrays
        below, coupling = pairs[can_rise], c_x[slot[on]]
        factors.append((below + step, below, dst[on], src[on], coupling * amp[on]))
        if basis.config.coupling_form == "full":
            factors.append((below + step, below, src[on], dst[on], coupling.conjugate() * amp[on]))
    row = np.concatenate([states] + [basis.states(p, r) for p, _, r, _, _ in factors])
    col = np.concatenate([states] + [basis.states(q, c) for _, q, _, c, _ in factors])
    value = np.concatenate([diagonal] + [np.tile(v, len(p)) for p, _, _, _, v in factors])
    up, dim = slice(len(states), None), (basis.dimension,) * 2
    # a sparse sum adds U^dagger: exact zeros drop, and 0 + (-0) stores +0
    matrix = scipy.sparse.csr_matrix((value, (row, col)), shape=dim) + (
        scipy.sparse.csr_matrix((value[up].conjugate(), (col[up], row[up])), shape=dim))
    del row, col, value  # freed before the Hermiticity check makes its temporaries
    return HermitianOperator(matrix)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def excitation_observable_b(basis: FockBasis) -> BoundedObservable:
    """Projector onto 'atom B is in any excited level': one identity block."""
    pairs = np.arange(basis.levels_a * basis.levels_b)
    excited = basis.states(pairs[pairs % basis.levels_b > 0], np.arange(basis.num_occupations))
    return BoundedObservable([(excited, None)], basis.dimension, label="excitation_b")


def exchange_projector(basis: FockBasis) -> BoundedObservable:
    """Rank-1 projector onto (ground A, first excited B, vacuum)."""
    idx = index_of_bare_state(basis, 0, 1, basis.vacuum)
    return BoundedObservable([([idx], None)], basis.dimension, label="exchange")


def _region_modes(basis: FockBasis, lo: float, hi: float):
    """(kappa, U): eigh of the slots' kernel of the region [lo, hi], real when the kernel is."""
    q = np.subtract.outer(basis.modes.k, basis.modes.k)
    kernel = (hi - lo) / basis.config.box_length * np.exp(-0.5j * q * (hi + lo)) * np.sinc(
        q * (hi - lo) / (2 * np.pi))
    v, real = _standing_waves(basis.modes.k)
    kernel = v @ kernel @ v.conjugate().T
    return np.linalg.eigh(kernel.real if real else kernel)


def local_photon_observable(basis: FockBasis, region: tuple[float, float]) -> BoundedObservable:
    """Saturated photon count in a spatial region of the box field.

    The smeared number operator N_S = sum_jl K[j, l] adag_j a_l uses the
    overlap kernel of the field slots' mode functions on the region: for
    the running waves exp(i k x)/sqrt(L) it is
    K[j, l] = (w / L) exp(-i q c) sin(q w / 2) / (q w / 2), with
    q = k_j - k_l, w the region's width and c its centre, and for the slots
    it is V K V^dagger (_standing_waves), real when every mode has its
    partner; K below names that slot kernel.  The observable
    is min(N_S, 1) by spectral calculus: eigenvalue 0 on the
    no-photon-in-region subspace, saturating at 1, so the spectrum sits in
    [0, 1] with no post-hoc clipping.  On one-photon states it reduces to
    the plain detection probability in the region.

    N_S is the second quantization dGamma(K) of the m x m kernel (Reed &
    Simon, Methods of Modern Mathematical Physics II, section X.7), so one
    eigh K = U diag(kappa) U^dagger gives its whole spectral decomposition.
    Its eigenvectors are the Fock states |nu> of the modes
    b_i = sum_j conj(U[j, i]) a_j, labelled by the basis's own occupation
    table, and the eigenvalue of |nu> is the exact sum nu @ kappa.  N_S
    keeps the photon number, so the truncation is exact.  On the n-photon
    sector the map to those eigenvectors' coefficients, V_n^dagger, is
    Gamma(U)^dagger, the n-fold tensor power of U^dagger on symmetric
    tensors, which _SectorFactor applies one axis at a time.  Its tables
    come from the basis' lowering entries (FockBasis.lowering): for each
    occupation of n photons its first occupied slot i and the row of
    occ - e_i, and the row of occ + e_j for each occupation of n - 1
    photons and slot j.  No eigh runs but the one of K, N_S is never
    formed, and the same code serves every num_modes.

    Each sector gives the factor F_n = diag(sqrt(f)) V_n^dagger with
    f = min(lambda, 1), less the rows whose lambda is at or below
    len(sector) * eps * max(1, max lambda): so small an eigenvalue holds
    only the rounding of kappa, and its row would add only that.  The
    observable is one block per atom state and photon number n, over that
    sector's indices, and all blocks of one n share F_n; sectors with no
    rows are left out.  No block joins two photon numbers or two atom
    states.  When one column's widest contraction step (_SectorFactor),
    m * len(sector k) * len(sector n - 1 - k) entries for k + 1 of n photons
    turned, could not fit in physical memory, DimensionError is raised
    before any table is formed.
    """
    cfg = basis.config
    if isinstance(cfg, LatticeConfig):
        raise DomainError("local photon regions are defined for the box field only")
    lo, hi = float(region[0]), float(region[1])
    if not (0.0 <= lo < hi <= cfg.box_length):
        raise DomainError("region must satisfy 0 <= lo < hi <= box_length")
    m, top = basis.num_slots, basis.n_max
    photons = basis.occupations.sum(axis=1)
    sizes = np.bincount(photons)
    # a step's gathered and turned tensors (up to 16 bytes an entry) for one column
    widest = m * max(int(sizes[k]) * int(sizes[n - 1 - k])
                     for n in range(1, top + 1) for k in range(n))
    require_memory(2 * 16 * widest, DimensionError,
                   f"contracting photon states through {widest} entries per column",
                   "lower n_max or num_modes")
    kappa, rotation = _region_modes(basis, lo, hi)

    dst, src, slot, _ = basis.lowering
    position = np.zeros(basis.num_occupations, dtype=int)  # of each occupation in its sector
    count = np.ones(1)  # c_occ = n! / prod(occ!) on sector n, from the vacuum's 1
    raising, heads = [None], [None]  # per photon number n >= 1
    sectors = []
    for n in range(1, top + 1):
        sector = np.flatnonzero(photons == n)
        position[sector] = np.arange(len(sector))
        inside = photons[src] == n
        raised = np.empty((sizes[n - 1], m), dtype=int)  # of occ + e_j, occ on sector n - 1
        raised[position[dst[inside]], slot[inside]] = position[src[inside]]
        head = np.searchsorted(src, sector)  # each occupation's entry for its first occupied slot
        first, parent = slot[head], position[dst[head]]
        count = n * count[parent] / basis.occupations[sector, first]
        raising.append(raised)
        heads.append((parent, first))
        lam = basis.occupations[sector] @ kappa
        keep = lam > len(sector) * np.finfo(float).eps * max(1.0, lam.max(initial=0.0))
        if not keep.any():
            continue
        steps = tuple((raising[n - k], *heads[k + 1]) for k in range(n - 1))
        steps += ((raising[1], parent[keep], first[keep]),)
        sectors.append((sector, _SectorFactor(
            rotation, 1.0 / np.sqrt(count), steps,
            np.sqrt(count[keep] * np.minimum(lam[keep], 1.0)), np.arange(len(sector)))))

    blocks = [(basis.states(pair, sector), factor)
              for pair in range(basis.levels_a * basis.levels_b)
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
