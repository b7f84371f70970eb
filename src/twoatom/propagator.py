"""Exact time evolution of truncated-basis states, and P(t) without the states.

evolve_grid is the dense propagation call ("dense"), and the independent
oracle of the series.  It takes a state as a plain real or complex array and
returns exp(-i H t) psi0 for every real time t of a grid: the Hamiltonian
is diagonalized once per call and evolution is exact phase multiplication
in the eigenbasis.  Where H is real (every box model with even num_modes,
and every chain) that is a real symmetric eigh, in about a quarter of the
complex eigh's time.  A real eigenbasis meets the complex phases in one
real product over their interleaved real and imaginary parts
(_real_product), never as a complex copy.  psi(0) is psi0 itself.

expectation_grid is the one evaluation of an observable held as blocks
(indices I_k, factor F_k): sum_k ||F_k psi[I_k]||^2 for a stack of states,
one matrix product per factor block and a plain sum of |psi|^2 per
identity block.  A single state psi is the stack psi[None, :].

chebyshev_expectation is the production backend ("auto" and "krylov" at
every dimension): P(t) = <psi(t)|O|psi(t)> with no state formed and no series
vector kept.  It sums the Chebyshev series of Tal-Ezer & Kosloff (J. Chem.
Phys. 81, 3967, 1984) over H's spectral bounds [lo, lo + 2 rho], read once
and handed on as values with the length K, psi(t) = sum_k a_k(t) V_k with
V_k = T_k((H - lo) / rho - 1) psi0, until its tail is below unit roundoff
at every point.  The three-term recurrence runs once, BLOCK vectors at a
time, in float64 when H and psi0 are both real; each block leaves its
observed rows M and its lengths ||V_k||, a thin QR reduces M to a
triangular factor S (an M of at most K rows is its own S), and
P(t) = ||T J(rho t)||^2 at each point, in real arithmetic: T is real,
formed once from S, and J is a real Bessel table.
The lengths and the table certify the series (_check_accuracy).  Its
memory is the K observed rows, the factor, one block of vectors and one
chunk of J, where evolve_grid's states are one entry per point and basis
state.
"""

from __future__ import annotations

import numpy as np
import scipy

from .basis import FockBasis, index_of_bare_state
from .config import DEFAULT_TOL, checked_times, require_memory
from .errors import ConvergenceError, DomainError
from .operators import BoundedObservable, HermitianOperator, _real_product
from .perturbation import _miller_recurrence

# Read by nothing in the package: auto runs the series at every dimension.
# Kept only for bench/test_bench.py, which imports it; the benchmark's next
# refresh (ROADMAP item 1a) deletes it together with that test.
DENSE_LIMIT = 2000
# series vectors formed, observed and summed at a time
BLOCK = 32
# points whose coefficients are evaluated at a time: each chunk runs Miller's
# recurrence once, so fewer points per chunk cost more interpreter time
CHUNK = 256
# rows of the observed M that one QR call copies: a taller M is reduced a
# chunk at a time, so its QR never holds a second M
QR_ROWS = 2048


def prepare_initial_state(basis: FockBasis) -> np.ndarray:
    """Unit amplitude on (first excited A, ground B, field vacuum), as float64."""
    psi0 = np.zeros(basis.dimension)
    psi0[index_of_bare_state(basis, 1, 0, basis.vacuum)] = 1.0
    return psi0


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """sum_j |x_ij|^2 for each row i, from the real and imaginary views: no copy."""
    re = rows.real
    out = np.einsum("ij,ij->i", re, re)
    if np.iscomplexobj(rows):
        out += np.einsum("ij,ij->i", rows.imag, rows.imag)
    return out


# ---------------------------------------------------------------------------
# sparse path
# ---------------------------------------------------------------------------


def _bessel_table(w: np.ndarray, terms: int) -> np.ndarray:
    """J_k(w) for k < terms as float64, one column per real point w.

    Miller's backward recurrence (_miller_recurrence) from J_order = 1,
    order = max(terms, ceil(max|w|)) + 10, normalised by J_0 + 2 sum_k J_2k
    = 1 (Abramowitz & Stegun, section 9.1).  Orders near the start are
    inaccurate; ten orders below it, past |w|, they are not, which is the
    margin _series_order leaves above K.  Below |w| = 1e-150 it is
    J_k = delta_k0 to double precision.
    """
    small = np.abs(w) < 1e-150
    order = max(terms, int(np.ceil(np.max(np.abs(w), initial=0.0)))) + 10
    table = _miller_recurrence(2.0 / np.where(small, 1, w), 0.0, order, order + 1)
    bessel = table[:terms] / (table[0] + 2.0 * table[2::2].sum(axis=0))
    bessel[:, small] = 0.0
    bessel[0, small] = 1.0
    return bessel


def _series_length(table: np.ndarray) -> int:
    """The least K >= 1 with max_t sum_{k >= K} |a_k(t)| at most unit roundoff.

    |a_k| = (2 - delta_k0) |J_k| for the table J; the factor at k = 0 is in
    no tail past K = 0, so 2 |J_k| serves at every k.
    """
    sums = 2.0 * np.abs(table[::-1])
    tail = np.cumsum(sums, axis=0, out=sums)[::-1].max(axis=1, initial=0.0)
    return max(int(np.count_nonzero(tail > np.finfo(float).eps / 2)), 1)


def _series_order(radius: float, times: np.ndarray, size: int, rows: int) -> int:
    """The series length K for a grid, on a bracket of half-width rho = radius.

    K is the least order whose computed tail, max_t sum_{k >= K} |a_k(rho t)|,
    is at most unit roundoff.  Above the order |w|, every |J_k(w)| grows
    with |w| (J_k rises on [0, k]), and K lies above rho |t| at every point,
    so w = max rho |t| sets K alone: one probe of order w + 18 w^(1/3) + 30.
    The tail past k = w falls over a width like w^(1/3), and K is at least
    29 below that order for every w in [0, 1e6], where _bessel_table
    needs 10; a probe short of 10, which the weights would not see, raises
    ConvergenceError.

    A series of up to `order` terms observed on `rows` rows keeps, per term,
    the observed rows M, the QR's copies (of M, or of one chunk stacked
    under the factor so far, and that stack's own copy) and S, or once M is
    gone S and S', beside one block of vectors of `size` entries and one
    chunk of the Bessel table.  A run whose entries, at 16 bytes each,
    could not fit in physical memory raises DomainError before the probe
    table is formed.
    """
    largest = float(np.max(np.abs(radius * times), initial=0.0))
    order = int(largest + 18 * np.cbrt(largest) + 30)
    copies = rows if rows <= QR_ROWS else 2 * (QR_ROWS + order)
    held = order * (rows + copies + order)
    # a chunk of Miller's table beside J and T J
    table = 3 * (order + 2) * min(CHUNK, len(times))
    require_memory((held + (BLOCK + 2) * size + table) * 16, DomainError,
                   f"the Chebyshev series of order {order:.3g} for rho*|t| up to {largest:.3g}",
                   "shorten the grid")
    terms = _series_length(_bessel_table(np.array([largest]), order + 1))
    if terms > order - 10:
        raise ConvergenceError(f"the Chebyshev series for rho*|t| up to {largest:.3g} "
                               f"needs more than the {order} terms probed")
    return terms


def _coefficient_chunks(radius: float, times: np.ndarray, terms: int):
    """(columns, J) for consecutive chunks of the grid, J[k] = J_k(radius t) for k < terms.

    Each chunk of the table holds its K rows, from a recurrence started ten
    orders above K (_bessel_table).
    """
    for first in range(0, len(times), CHUNK):
        columns = slice(first, first + CHUNK)
        yield columns, _bessel_table(radius * times[columns], terms)


def _chebyshev_blocks(hamiltonian: HermitianOperator, lo: float, radius: float,
                      psi0: np.ndarray, terms: int):
    """(k0, V[k0:k0 + m]) for the vectors V_k = T_k((H - lo) / rho - 1) psi0, k < terms.

    The three-term recurrence runs once, BLOCK vectors at a time, in one
    buffer that also carries the two vectors before each block.  The
    recurrence is float64 when H and psi0 are both real.  Each block
    yielded is overwritten by the next: the caller keeps what it needs.
    """
    scaled = (hamiltonian.matrix - (lo + radius) * scipy.sparse.identity(psi0.size)) / radius
    # one cast of a real H for a complex psi0: scipy would upcast it per product
    scaled = scaled.astype(np.result_type(scaled.dtype, psi0.dtype), copy=False)
    rows = np.empty((min(BLOCK, terms) + 2, psi0.size), dtype=scaled.dtype)
    for start in range(0, terms, BLOCK):
        if start:
            rows[:2] = rows[-2:]  # every block but the last is full
        stop = min(start + BLOCK, terms)
        for k in range(start, stop):
            i = k - start + 2
            if k == 0:
                rows[i] = psi0
            elif k == 1:
                rows[i] = scaled @ psi0
            else:
                rows[i] = 2.0 * (scaled @ rows[i - 1]) - rows[i - 2]
        yield start, rows[2:2 + stop - start]


def _bessel_weights(table: np.ndarray) -> np.ndarray:
    """J_0^2 + 2 sum_{k >= 1} J_k^2 for every column of a table J_k, which is 1 (A & S 9.1)."""
    return 2.0 * np.einsum("kj,kj->j", table, table) - table[0] ** 2


def _observed_series(hamiltonian: HermitianOperator, lo: float, radius: float,
                     observable: BoundedObservable, psi0: np.ndarray,
                     terms: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, ||V_k||) for the series vectors V_k, k < terms, from one pass of the recurrence.

    M = [F_b V[:, I_b]^T] stacks the observed rows, one matrix product per
    block of vectors and observable block.  ||V_0|| is ||psi0||.
    """
    dtype = np.result_type(hamiltonian.matrix.dtype, psi0.dtype,
                           *(factor.dtype for _, factor in observable.blocks
                             if factor is not None))
    observed = np.empty((observable.factor_rows, terms), dtype=dtype)
    squares = np.empty(terms)
    for start, vectors in _chebyshev_blocks(hamiltonian, lo, radius, psi0, terms):
        stop = start + len(vectors)
        top = 0
        for part in observable.factor_parts(vectors):
            observed[top:top + len(part), start:stop] = part
            top += len(part)
        squares[start:stop] = _squared_norms(vectors)
    return observed, np.sqrt(squares)


def _check_accuracy(lengths: np.ndarray, weights: np.ndarray, tol: float) -> None:
    """Raise ConvergenceError where the lengths ||V_k|| or the weights say the series is off.

    On a true bracket |T_k| <= 1 on the spectrum, so no ||V_k|| exceeds
    ||V_0|| = ||psi0||; a bracket too narrow makes some ||V_k|| grow like
    2^k.  The weights J_0^2 + 2 sum_k J_k^2 (_bessel_weights) are 1 at
    every point, which checks Miller's table against an identity other than
    its normalisation.  With both, psi(t) is off the truncated series by at
    most ||psi0|| sum_{k >= K} (2 - delta_k0) |J_k(rho t)|, which
    _series_length holds below unit roundoff.
    """
    norm = lengths[0]
    excess = lengths.max() - norm
    defect = norm * np.max(np.abs(np.sqrt(weights) - 1.0), initial=0.0)
    worst = float(np.maximum(excess, defect))
    if not worst <= tol:
        raise ConvergenceError(
            f"sparse propagation may be off by {worst:.3e}, above tol={tol:.3e}",
            residual=worst,
        )


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------


def _checked(hamiltonian: HermitianOperator, psi0, times, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """psi0 as float64 or complex128, or ValueError, and times through config.checked_times."""
    psi0 = np.asarray(psi0)
    psi0 = psi0.astype(np.result_type(psi0.dtype, np.float64), copy=False)
    if psi0.shape != (hamiltonian.dimension,):
        raise ValueError(f"need a state of shape ({hamiltonian.dimension},), got {psi0.shape}")
    # on H's bracket [lo, hi] either backend multiplies t by max(hi - lo, |lo|)
    return psi0, checked_times(times, np.finfo(float).max / max(hi - lo, abs(lo), 1.0))


def evolve_grid(hamiltonian: HermitianOperator, psi0, times) -> np.ndarray:
    """exp(-i H t) psi0 at every real time t of a grid; shape (len(times), dim).

    Exact phase multiplication in H's dense eigenbasis
    (HermitianOperator.eigensystem), so the result is complex128 and
    psi(0) is psi0 itself.  psi0, of shape (dim,), is read as float64 when
    real and as complex128 otherwise.  The times may come in any order; a
    single time t is evolve_grid(H, psi0, [t])[0].  The grid passes
    config.checked_times (_checked) before anything is computed, and a grid
    whose states, beside the eigenvectors, would not fit in physical memory
    raises DomainError.
    """
    psi0, times = _checked(hamiltonian, psi0, times, *hamiltonian.spectral_bounds)
    # two complex arrays of one entry per eigenvalue and time, phases and
    # states, beside the n x n eigenvectors
    n = len(psi0)
    require_memory(2 * len(times) * n * 16 + n * n * hamiltonian.matrix.dtype.itemsize,
                   DomainError,
                   f"a grid of {len(times)} dense states of dimension {n}, "
                   "beside the eigenvectors,",
                   "shorten the grid")
    w, v = hamiltonian.eigensystem()
    coeff = _real_product(v.conjugate().T, psi0.astype(np.complex128)[:, None])
    phases = np.exp(-1j * w[:, None] * times[None, :])  # per eigenvalue and time
    phases *= coeff
    out = _real_product(v, phases).T  # shape (len(times), dim)
    # exp(0) is the identity: psi(0) exactly, not its round trip through V
    out[times == 0] = psi0
    return out


def chebyshev_expectation(hamiltonian: HermitianOperator, observable: BoundedObservable,
                          psi0, times, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """<psi(t)|O|psi(t)> at every real time t of a grid, with no state formed.

    The sparse backend's series gives psi(t) = sum_k a_k(t) V_k, so block b
    of the observable sees F_b psi(t)[I_b] = M_b a(t), M_b = F_b V[:, I_b]^T.
    With M = Q S the thin QR of the stacked M_b, P(t) = ||S a(t)||^2, where
    a_k(t) = (2 - delta_k0) (-i)^k J_k(rho t) e^{-i (lo + rho) t}.  The
    phase drops out of the norm, so with S' = S diag((2 - delta_k0) (-i)^k),
    formed once, and the real T = [Re S'; Im S'], a view of S' and no copy,
    P(t) = ||T J(rho t)||^2: a sum of squares of one real product,
    non-negative by construction (for a real S, Re S' holds the even
    columns and Im S' the odd ones).
    Householder QR is backward stable column by column, so T J carries the
    rounding of M a(t) and a P of 1e-13 keeps its relative digits; the Gram
    form a^dagger M^dagger M a would square M's conditioning instead.  An M
    taller than QR_ROWS rows is reduced a chunk at a time,
    S <- qr([S; M_chunk]), because np.linalg.qr copies its argument: the QR
    holds one chunk, not a second M.  An M of at most K rows is used as S
    itself: ||M a||^2 is the same sum, and its QR would cost time and a
    K-column R no smaller than M.

    The recurrence runs once, and each block of vectors leaves only its
    observed rows and its lengths ||V_k|| behind (_observed_series), so no
    V is kept.  The real table J is formed a chunk of points at a time.
    The work per point is one real product with T; the memory is K
    observed rows, the factor, one block of vectors and one chunk of J.

    The grid and the state are checked as in evolve_grid.  A series that
    could not fit in physical memory raises DomainError before it is
    formed, and one whose largest ||V_k|| or whose Bessel weights
    (_check_accuracy) are off by more than tol raises ConvergenceError.
    P(0) is <psi0|O|psi0> itself.
    """
    lo, hi = hamiltonian.spectral_bounds
    psi0, times = _checked(hamiltonian, psi0, times, lo, hi)
    if observable.dimension != hamiltonian.dimension:
        raise ValueError("observable and Hamiltonian differ in dimension")
    # K grows with rho, which the floor's weighted discs (gershgorin_bounds)
    # keep small: K = 158 at the defaults, against 180 on the plain discs
    radius = (hi - lo) / 2 or 1.0  # a scalar H: any interval holding it serves
    terms = _series_order(radius, times, psi0.size, observable.factor_rows)
    observed, lengths = _observed_series(hamiltonian, lo, radius, observable, psi0, terms)
    factor = observed  # an M no taller than K is no larger than its S
    if len(observed) > terms:
        # S <- qr([S; M_chunk]) down the chunks: an M of up to QR_ROWS rows
        # is one plain QR, and a taller one never has a whole copy
        factor = np.linalg.qr(observed[:QR_ROWS], mode="r")
        for first in range(QR_ROWS, len(observed), QR_ROWS):
            chunk = observed[first:first + QR_ROWS]
            factor = np.linalg.qr(np.concatenate([factor, chunk]), mode="r")
    del observed
    # S'^T = diag((2 - delta_k0) (-i)^k) S^T, formed once; its float64 view
    # is T^T with the rows of T = [Re S'; Im S'] interleaved, which leaves
    # every norm as it is and needs no copy of S'
    scale = np.array([2, -2j, -2, 2j])[np.arange(terms) % 4]
    scale[0] = 1
    factor = np.multiply(scale[:, None], factor.T, order="C").view(np.float64)
    values, weights = np.empty(len(times)), np.empty(len(times))
    for columns, table in _coefficient_chunks(radius, times, terms):
        values[columns] = _squared_norms(table.T @ factor)
        weights[columns] = _bessel_weights(table)
    _check_accuracy(lengths, weights, tol)
    values[times == 0] = expectation_grid(observable, psi0[None, :])
    return values


def expectation_grid(observable: BoundedObservable, states: np.ndarray) -> np.ndarray:
    """sum_k ||F_k psi[I_k]||^2 for a stack of states psi, shape (n_times, dim).

    The blocks are summed in their stored order.
    """
    values = np.zeros(len(states))
    for part in observable.factor_parts(states):
        values += _squared_norms(part.T)
    return values
