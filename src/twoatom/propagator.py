"""Exact time evolution of truncated-basis states, and P(t) without the states.

evolve_grid is the dense propagation call, and the independent oracle of
the sparse backend.  It takes a state as a plain real or complex array and
returns exp(-i H t) psi0 for every real time t of a grid: the Hamiltonian
is diagonalized once (cached on the operator) and evolution is exact
phase multiplication in the eigenbasis.  Where H is real (every box model
with even num_modes, and every chain) that is a real symmetric eigh, in
about a quarter of the complex eigh's time.  A real eigenbasis meets the
complex phases in one real product over their interleaved real and
imaginary parts (_real_product), never as a complex copy.  psi(0) is psi0
itself.

expectation_grid is the one evaluation of an observable held as blocks
(indices I_k, factor F_k): sum_k ||F_k psi[I_k]||^2 for a stack of states,
one matrix product per factor block and a plain sum of |psi|^2 per
identity block.  A single state psi is the stack psi[None, :].

chebyshev_expectation is the sparse backend ("krylov", and "auto" above
DENSE_LIMIT): P(t) = <psi(t)|O|psi(t)> with no state formed and no series
vector kept.  It sums the Chebyshev series of Tal-Ezer & Kosloff (J. Chem.
Phys. 81, 3967, 1984) over H's spectral bounds [lo, lo + 2 rho],
psi(t) = sum_k a_k(t) V_k with V_k = T_k((H - lo) / rho - 1) psi0, until
its tail is below unit roundoff at every point.  The three-term
recurrence runs once, BLOCK vectors at a time, in float64 when H and psi0
are both real; each block leaves its observed rows M and its Chebyshev
moments, a thin QR reduces M to a K x K triangular factor S, and
P(t) = ||S a(t)||^2 at each point.  The moments give the vectors' Gram
matrix G, and with it the norm check ||psi(t)||^2 = a(t)^dagger G a(t).
Its memory is the K observed rows, the K x K factors, one block of
vectors and one chunk of the coefficients a(t), where evolve_grid's
states are one entry per point and basis state.
"""

from __future__ import annotations

import numpy as np
import scipy

from .basis import FockBasis, index_of_bare_state, require_memory
from .config import DEFAULT_TOL
from .errors import ConvergenceError, DomainError
from .operators import BoundedObservable, HermitianOperator, _real_product

# largest dimension that "auto" hands to the dense eigendecomposition
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


def resolve_method(method: str, dim: int) -> str:
    """The backend that `method` names for a Hamiltonian of dimension dim."""
    if method == "auto":
        return "dense" if dim <= DENSE_LIMIT else "krylov"
    if method not in ("dense", "krylov"):
        raise DomainError(f"unknown propagation method {method!r}")
    return method


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


def _exp_coefficients(w: np.ndarray, order: int, terms: int | None = None) -> np.ndarray:
    """a_k(w) for k < terms, where exp(-i w (1 + x)) = sum_k a_k T_k(x) on [-1, 1].

    a_k = (2 - delta_k0) (-i)^k J_k(w) e^{-iw}, one column per real point w,
    so |a_k| <= 2.  The real J_k come from Miller's backward recurrence from
    J_{order+1} = 0, normalised by e^{iw} = J_0 + 2 sum_k i^k J_k, which has
    modulus 1 and also supplies the factor e^{-iw}.  A step from order k
    grows the recurrence by at most k max|2/w| + 1, so before that growth
    since the last rescale could pass 1e100, every column above 1e100 is
    rescaled: a tiny |w| cannot overflow.  Below |w| = 1e-150 it is
    J_k = delta_k0 to double precision.  Orders near the start are
    inaccurate.  terms defaults to order + 1, every order.
    """
    terms = order + 1 if terms is None else terms
    small = np.abs(w) < 1e-150
    ratio = 2.0 / np.where(small, 1, w)
    steepest = float(np.max(np.abs(ratio), initial=0.0))
    table = np.zeros((order + 2, len(w)))
    table[order] = 1.0
    growth = 1.0  # the entries are at most 1e100 * growth
    for k in range(order, 0, -1):
        bound = k * steepest + 1
        if growth * bound > 1e100:
            scale = np.maximum(np.abs(table[k]), np.abs(table[k + 1]))
            big = scale > 1e100
            table[k:, big] /= scale[big]
            growth = 1.0
        growth *= bound
        row = table[k - 1]
        np.multiply(k, ratio, out=row)
        row *= table[k]
        row -= table[k + 1]
    weights = 2.0 * np.array([1, 1j, -1, -1j])[np.arange(order + 1) % 4]
    weights[0] = 1.0  # (2 - delta_k0) i^k
    # the weights are real or imaginary: two real products, no complex table
    norm = weights.real @ table[:-1] + 1j * (weights.imag @ table[:-1])
    coeff = table[:terms] / norm
    coeff *= weights.conjugate()[:terms, None]
    coeff[:, small] = 0.0
    coeff[0, small] = 1.0
    return coeff


def _series_length(coeff: np.ndarray) -> int:
    """The least K >= 1 with max_t sum_{k >= K} |a_k(t)| at most unit roundoff."""
    sums = np.abs(coeff[::-1])
    tail = np.cumsum(sums, axis=0, out=sums)[::-1].max(axis=1, initial=0.0)
    return max(int(np.count_nonzero(tail > np.finfo(float).eps / 2)), 1)


def _interval(hamiltonian: HermitianOperator) -> tuple[float, float]:
    """(lo, rho): H's spectrum lies in [lo, lo + 2 rho], from its spectral bounds."""
    lo, hi = hamiltonian.spectral_bounds
    return lo, (hi - lo) / 2 or 1.0  # a scalar H: any interval holding it serves


def _series_order(hamiltonian: HermitianOperator, times: np.ndarray, size: int,
                  rows: int) -> tuple[int, int]:
    """(order, K): the table's starting order, and the series length K.

    K is the least order whose computed tail, max_t sum_{k >= K} |a_k(rho t)|,
    is at most unit roundoff.  Above the order |w|, every |J_k(w)| grows
    with |w| (J_k rises on [0, k]), and K lies above rho |t| at every point,
    so the largest rho |t| sets K alone: one column of the table.  The table
    starts past k = rho |t|, and higher until K is ten orders below.

    A series of up to `order` terms observed on `rows` rows keeps, per term,
    the observed rows M, the QR's copies (of M, or of one chunk stacked
    under the factor so far, and that stack's own copy), G and S, beside one
    block of vectors of `size` entries and one chunk of the coefficient
    table.  A run whose entries, at 16 bytes each, could not fit in physical
    memory raises DomainError before the table at that order is formed.
    """
    lo, radius = _interval(hamiltonian)
    largest = float(np.max(np.abs(radius * times), initial=0.0))
    order = int(largest + 18 * np.cbrt(largest) + 30)
    while True:
        copies = rows if rows <= QR_ROWS else 2 * (QR_ROWS + order)
        held = order * (rows + copies + 2 * order)
        # a chunk of the table beside its a(t), S a(t) and G a(t)
        table = 4 * (order + 2) * min(CHUNK, len(times))
        require_memory((held + (BLOCK + 2) * size + table) * 16,
                       DomainError,
                       f"the Chebyshev series of order {order} for rho*|t| up to {largest:.3g}",
                       "shorten the grid")
        terms = _series_length(_exp_coefficients(np.array([largest]), order))
        if terms <= order - 10:
            return order, terms
        order *= 2


def _coefficient_chunks(hamiltonian: HermitianOperator, times: np.ndarray,
                        order: int, terms: int):
    """(columns, a) for consecutive chunks of the grid, a[k] = a_k(t) for k < terms.

    exp(-i H t) psi0 = sum_k a_k(t) V_k over H's spectral bounds; each chunk
    of the table is built at the starting order and cut to K rows.
    """
    lo, radius = _interval(hamiltonian)
    for first in range(0, len(times), CHUNK):
        columns = slice(first, first + CHUNK)
        coeff = _exp_coefficients(radius * times[columns], order, terms)
        coeff *= np.exp(-1j * lo * times[columns])
        yield columns, coeff


def _chebyshev_blocks(hamiltonian: HermitianOperator, psi0: np.ndarray, terms: int):
    """(k0, V[k0:k0 + m]) for the vectors V_k = T_k((H - lo) / rho - 1) psi0, k < terms.

    The three-term recurrence runs once, BLOCK vectors at a time, in one
    buffer that also carries the two vectors before each block.  The
    recurrence is float64 when H and psi0 are both real.  Each block
    yielded is overwritten by the next: the caller keeps what it needs.
    """
    lo, radius = _interval(hamiltonian)
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


def _squared_lengths(factor: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """||factor @ a||^2 for every column a of coeff."""
    return _squared_norms(_real_product(factor, coeff).T)


def _row_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Re <left_i, right_i> for each row i, over the interleaved real and imaginary parts."""
    return np.einsum("ij,ij->i", left.view(np.float64), right.view(np.float64))


def _gram_lengths(gram: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """a^dagger G a for every column a of coeff, G real symmetric."""
    # Re(conj(x) y) = re x re y + im x im y, summed over each column's rows
    sums = np.einsum("ij,ij->j", coeff.view(np.float64),
                     _real_product(gram, coeff).view(np.float64))
    return sums.reshape(-1, 2).sum(axis=1)


def _observed_rows(observable: BoundedObservable) -> int:
    """Rows of the observable's square-root factor: one per index of an identity block."""
    return sum(len(indices) if factor is None else factor.shape[0]
               for indices, factor in observable.blocks)


def _observed_series(hamiltonian: HermitianOperator, observable: BoundedObservable,
                     psi0: np.ndarray, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, G) for the series vectors V_k, k < terms, from one pass of the recurrence.

    M = [F_b V[:, I_b]^T] stacks the observed rows, one matrix product per
    block of vectors and observable block.  G_jk = <V_j, V_k> is the Gram
    matrix: T_j T_k = (T_{j+k} + T_{|j-k|}) / 2 gives
    G_jk = (mu_{j+k} + mu_{|j-k|}) / 2 from the Chebyshev moments
    mu_n = <psi0|T_n|psi0>, and each vector supplies two of them,
    mu_2k = 2 <V_k, V_k> - mu_0 and mu_2k+1 = 2 <V_k+1, V_k> - mu_1 (the
    kernel polynomial method: Weisse, Wellein, Alvermann & Fehske, Rev. Mod.
    Phys. 78, 275, 2006).
    """
    dtype = np.result_type(hamiltonian.matrix.dtype, psi0.dtype,
                           *(factor.dtype for _, factor in observable.blocks
                             if factor is not None))
    observed = np.empty((_observed_rows(observable), terms), dtype=dtype)
    squares, crosses = np.empty(terms), np.empty(terms)  # <V_k, V_k>, <V_k, V_k-1>
    for start, vectors in _chebyshev_blocks(hamiltonian, psi0, terms):
        stop = start + len(vectors)
        top = 0
        for part in observable.factor_parts(vectors):
            observed[top:top + len(part), start:stop] = part
            top += len(part)
        squares[start:stop] = _row_products(vectors, vectors)
        crosses[start + 1:stop] = _row_products(vectors[1:], vectors[:-1])
        if start:
            crosses[start] = _row_products(vectors[:1], last)[0]
        last = vectors[-1:].copy()
    moments = np.empty(2 * terms - 1)
    moments[0::2] = 2.0 * squares - squares[0]
    moments[1::2] = 2.0 * crosses[1:] - crosses[1:2]
    # Hankel plus Toeplitz: row j of each is a window of the moments, the
    # second over mu_|n| for -K < n < K, so only G itself is formed
    windows = np.lib.stride_tricks.sliding_window_view
    mirrored = np.concatenate([moments[terms - 1:0:-1], moments[:terms]])
    gram = windows(moments, terms) + windows(mirrored, terms)[::-1]
    gram *= 0.5
    return observed, gram


def _check_accuracy(norms: np.ndarray, psi0: np.ndarray, tol: float) -> None:
    """Raise ConvergenceError where a sparse result's norm moved by more than tol."""
    worst = float(np.max(np.abs(norms - float(np.linalg.norm(psi0))), initial=0.0))
    if not worst <= tol:
        raise ConvergenceError(
            f"sparse propagation may be off by {worst:.3e}, above tol={tol:.3e}",
            residual=worst,
        )


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------


def _checked(hamiltonian: HermitianOperator, psi0, times) -> tuple[np.ndarray, np.ndarray]:
    """psi0 as float64 or complex128 and times as a float array, or the grid's errors.

    A complex-typed grid raises DomainError, even where every imaginary part
    is 0, and so does a time that is not finite or whose product with the
    spectral bounds overflows.  Shapes that do not match raise ValueError.
    """
    psi0 = np.asarray(psi0)
    psi0 = psi0.astype(np.result_type(psi0.dtype, np.float64), copy=False)
    if np.iscomplexobj(times):
        raise DomainError("propagation is in real time only: the grid is complex")
    times = np.asarray(times, dtype=float)
    if psi0.shape != (hamiltonian.dimension,) or times.ndim != 1:
        raise ValueError(f"need a state of shape ({hamiltonian.dimension},) and a 1-D "
                         f"grid, got shapes {psi0.shape} and {times.shape}")
    lo, hi = hamiltonian.spectral_bounds
    # either backend multiplies a time by at most max(hi - lo, |lo|)
    limit = np.finfo(float).max / max(hi - lo, abs(lo), 1.0)
    if not (np.all(np.isfinite(times)) and np.abs(times).max(initial=0.0) <= limit):
        raise DomainError(f"grid points must be finite and at most {limit:.3g} in size, "
                          "or exp(-iHt) overflows")
    return psi0, times


def evolve_grid(hamiltonian: HermitianOperator, psi0, times) -> np.ndarray:
    """exp(-i H t) psi0 at every real time t of a grid; shape (len(times), dim).

    Exact phase multiplication in H's dense eigenbasis
    (HermitianOperator.eigensystem), so the result is complex128 and
    psi(0) is psi0 itself.  The times may come in any order.  A single time
    t is evolve_grid(H, psi0, [t])[0].  A complex-typed grid raises
    DomainError, even where every imaginary part is 0, and so does a time
    that is not finite or whose product with the spectral bounds overflows,
    before anything is computed.  So does a grid whose states, beside the
    eigenvectors, would not fit in physical memory.

    Parameters
    ----------
    psi0 : array of shape (dim,)
        Initial amplitudes, read as float64 when real and as complex128
        otherwise.
    times : 1-D sequence of real times
    """
    psi0, times = _checked(hamiltonian, psi0, times)
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
    With M = Q S the thin QR of the stacked M_b, P(t) = ||S a(t)||^2: a sum
    of squares, non-negative by construction.  Householder QR is backward
    stable column by column, so S a(t) carries the rounding of M a(t) and
    a P of 1e-13 keeps its relative digits; the Gram form a^dagger M^dagger
    M a would square M's conditioning instead.  An M taller than QR_ROWS
    rows is reduced a chunk at a time, S <- qr([S; M_chunk]), because
    np.linalg.qr copies its argument: the QR holds one chunk, not a second M.

    The recurrence runs once, and each block of vectors leaves only its
    observed rows and its Chebyshev moments behind (_observed_series), so
    no V is kept.  The coefficients a(t) are formed a chunk of points at a
    time.  The work is K x K per point; the memory is K observed rows, the
    K x K factors, one block of vectors and one chunk of the table.

    The checks on the grid and the state are evolve_grid's: the same
    DomainError and ValueError.  A series that could not fit in physical
    memory raises DomainError before it is formed, and the norm check
    ||psi(t)||^2 = a(t)^dagger G a(t), G the Gram matrix of the V_k from
    their moments, raises ConvergenceError where the norm moved by more
    than tol.  P(0) is <psi0|O|psi0> itself.
    """
    psi0, times = _checked(hamiltonian, psi0, times)
    if observable.dimension != hamiltonian.dimension:
        raise ValueError("observable and Hamiltonian differ in dimension")
    order, terms = _series_order(hamiltonian, times, psi0.size, _observed_rows(observable))
    observed, gram = _observed_series(hamiltonian, observable, psi0, terms)
    # S <- qr([S; M_chunk]) down the chunks: an M of up to QR_ROWS rows is
    # one plain QR, and a taller one never has a whole copy
    factor = np.linalg.qr(observed[:QR_ROWS], mode="r")
    for first in range(QR_ROWS, len(observed), QR_ROWS):
        chunk = observed[first:first + QR_ROWS]
        factor = np.linalg.qr(np.concatenate([factor, chunk]), mode="r")
    del observed
    values, norms = np.empty(len(times)), np.empty(len(times))
    for columns, coeff in _coefficient_chunks(hamiltonian, times, order, terms):
        values[columns] = _squared_lengths(factor, coeff)
        norms[columns] = _gram_lengths(gram, coeff)
    # a divergent series can make the Gram form negative: a norm of 0 then fails
    _check_accuracy(np.sqrt(np.maximum(norms, 0.0)), psi0, tol)
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
