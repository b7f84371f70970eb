"""Exact time evolution of truncated-basis states, and P(t) without the states.

evolve_grid is the one propagation call.  It takes a state as a plain
real or complex array and returns exp(-i H t) psi0 for every real time t
of a grid, on one of two backends.  Up to DENSE_LIMIT the Hamiltonian is
diagonalized once (cached on the operator) and evolution is exact phase
multiplication in the eigenbasis.  Where H is real (every box model with
even num_modes, and every chain) that is a real symmetric eigh, in about
a quarter of the complex eigh's time.  Above DENSE_LIMIT the sparse
backend (method "krylov") sums the Chebyshev series of Tal-Ezer & Kosloff
(J. Chem. Phys. 81, 3967, 1984) over H's spectral bounds [lo, lo + 2 rho],
psi(t) = sum_k a_k(t) V_k with V_k = T_k((H - lo) / rho - 1) psi0 from the
three-term recurrence, until its tail is below unit roundoff at every
point; the recurrence runs in float64 when H and psi0 are both real.  Both
backends evaluate all points in one matrix product and return psi0 at
t = 0.  A real operand (eigenvectors or Chebyshev vectors) meets the
complex phases or coefficients in one real product over their interleaved
real and imaginary parts (_real_product), never as a complex copy.

expectation_grid is the one evaluation of an observable held as blocks
(indices I_k, factor F_k): sum_k ||F_k psi[I_k]||^2 for a stack of states,
one matrix product per factor block and a plain sum of |psi|^2 per
identity block.  A single state psi is the stack psi[None, :].

chebyshev_expectation is the sparse backend's P(t) = <psi(t)|O|psi(t)>
with no state formed: the observable's blocks meet the K series vectors
once, a thin QR reduces them to a K x K triangular factor S, and
P(t) = ||S a(t)||^2 at each point.  Its memory is the K vectors and K
coordinates per point, where evolve_grid's states are one entry per point
and basis state.
"""

from __future__ import annotations

import numpy as np
import scipy

from .basis import FockBasis, index_of_bare_state, require_memory
from .errors import ConvergenceError, DomainError
from .operators import BoundedObservable, HermitianOperator, _real_product

# largest dimension that "auto" hands to the dense eigendecomposition
DENSE_LIMIT = 2000
# default norm-drift tolerance of the sparse backend, shared by every caller
DEFAULT_TOL = 1e-10


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
# dense path
# ---------------------------------------------------------------------------


def _dense_apply(hamiltonian, amplitudes, times) -> np.ndarray:
    # two complex arrays of one entry per eigenvalue and time, phases and
    # states, beside the n x n eigenvectors
    n = len(amplitudes)
    require_memory(2 * len(times) * n * 16 + n * n * hamiltonian.matrix.dtype.itemsize,
                   DomainError,
                   f"a grid of {len(times)} dense states of dimension {n}, "
                   "beside the eigenvectors,",
                   "shorten the grid")
    w, v = hamiltonian.eigensystem()
    coeff = _real_product(v.conjugate().T, amplitudes.astype(np.complex128)[:, None])
    phases = np.exp(-1j * w[:, None] * times[None, :])  # per eigenvalue and time
    phases *= coeff
    out = _real_product(v, phases).T  # shape (len(times), dim)
    # exp(0) is the identity: psi(0) exactly, not its round trip through V
    out[times == 0] = amplitudes
    return out


# ---------------------------------------------------------------------------
# sparse path
# ---------------------------------------------------------------------------


def _exp_coefficients(w: np.ndarray, order: int) -> np.ndarray:
    """a_k(w) for k <= order, where exp(-i w (1 + x)) = sum_k a_k T_k(x) on [-1, 1].

    a_k = (2 - delta_k0) (-i)^k J_k(w) e^{-iw}, one column per real point w,
    so |a_k| <= 2.  The real J_k come from Miller's backward recurrence from
    J_{order+1} = 0, normalised by e^{iw} = J_0 + 2 sum_k i^k J_k, which has
    modulus 1 and also supplies the factor e^{-iw}.  A column is rescaled
    whenever it passes 1e100, so a tiny |w| cannot overflow; below
    |w| = 1e-150 it is J_k = delta_k0 to double precision.  Orders near the
    start are inaccurate.
    """
    small = np.abs(w) < 1e-150
    ratio = 2.0 / np.where(small, 1, w)
    table = np.zeros((order + 2, len(w)))
    table[order] = 1.0
    for k in range(order, 0, -1):
        table[k - 1] = k * ratio * table[k] - table[k + 1]
        big = np.abs(table[k - 1]) > 1e100
        if big.any():
            table[k - 1:, big] /= np.abs(table[k - 1, big])
    weights = 2.0 * np.array([1, 1j, -1, -1j])[np.arange(order + 1) % 4]
    weights[0] = 1.0  # (2 - delta_k0) i^k
    coeff = table[:-1] / (weights @ table[:-1])
    coeff *= weights.conjugate()[:, None]
    coeff[:, small] = 0.0
    coeff[0, small] = 1.0
    return coeff


def _series_length(coeff: np.ndarray) -> int:
    """The least K >= 1 with max_t sum_{k >= K} |a_k(t)| at most unit roundoff."""
    sums = np.abs(coeff[::-1])
    tail = np.cumsum(sums, axis=0, out=sums)[::-1].max(axis=1, initial=0.0)
    return max(int(np.count_nonzero(tail > np.finfo(float).eps / 2)), 1)


def _chebyshev_series(hamiltonian: HermitianOperator, psi0: np.ndarray,
                      times: np.ndarray, width: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(V, a) with exp(-i H t) psi0 = sum_k a_k(t) V_k over H's spectral bounds.

    V holds the K vectors V_k = T_k((H - lo) / rho - 1) psi0 as rows, and a
    the complex coefficients, one column per time.  The series stops at the
    least order K whose computed tail, max_t sum_{k >= K} |a_k(rho t)|, is
    at most unit roundoff.  The table starts past k = rho |t|, and higher
    until K is ten orders below.  The coefficient table, the vectors, K x
    len(times) coordinates and `width` more entries per term, which the
    caller forms from the vectors, that could not fit in physical memory
    raise DomainError before any of them is formed.
    """
    lo, hi = hamiltonian.spectral_bounds
    radius = (hi - lo) / 2 or 1.0  # a scalar H: any interval holding it serves
    largest = float(np.max(np.abs(radius * times), initial=0.0))
    order = int(largest + 18 * np.cbrt(largest) + 30)
    while True:
        # entries of up to 16 bytes, (order + 2) of each kind: coefficients
        # and coordinates per point, vector entries, and the caller's width
        require_memory((order + 2) * (2 * len(times) + psi0.size + width) * 16,
                       DomainError,
                       f"the Chebyshev series of order {order} for rho*|t| up to {largest:.3g}",
                       "shorten the grid")
        coeff = _exp_coefficients(radius * times, order)
        coeff *= np.exp(-1j * lo * times)
        terms = _series_length(coeff)
        if terms <= order - 10:
            break
        order *= 2
    coeff = coeff[:terms].copy()  # the orders past the tail cut are dropped
    scaled = (hamiltonian.matrix - (lo + radius) * scipy.sparse.identity(psi0.size)) / radius
    # one cast of a real H for a complex psi0: scipy would upcast it per product
    scaled = scaled.astype(np.result_type(scaled.dtype, psi0.dtype), copy=False)
    vectors = np.empty((terms, psi0.size), dtype=scaled.dtype)
    vectors[0] = psi0
    if terms > 1:
        vectors[1] = scaled @ psi0
    for k in range(2, terms):
        vectors[k] = 2.0 * (scaled @ vectors[k - 1]) - vectors[k - 2]
    return vectors, coeff


def _chebyshev_apply(hamiltonian: HermitianOperator, psi0: np.ndarray,
                     times: np.ndarray, tol: float) -> np.ndarray:
    """exp(-i H t) psi0 as the sum of the Chebyshev series; shape (len(times), dim).

    States that could not fit in physical memory raise DomainError before
    the series is summed, and so does the series itself (_chebyshev_series).
    """
    require_memory(len(times) * psi0.size * 16, DomainError,
                   f"a grid of {len(times)} states of dimension {psi0.size}",
                   "shorten the grid")
    vectors, coeff = _chebyshev_series(hamiltonian, psi0, times)
    out = _real_product(vectors.T, coeff).T
    out[times == 0] = psi0
    _check_accuracy(np.sqrt(_squared_norms(out)), psi0, tol)
    return out


def _squared_lengths(factor: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """||factor @ a||^2 for every column a of coeff."""
    return _squared_norms(_real_product(factor, coeff).T)


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


def evolve_grid(hamiltonian: HermitianOperator, psi0, times, *,
                method: str = "auto", tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(-i H t) psi0 at every real time t of a grid; shape (len(times), dim).

    The times may come in any order.  A single time t is
    evolve_grid(H, psi0, [t])[0].  A complex-typed grid raises DomainError,
    even where every imaginary part is 0, and so does a time that is not
    finite or whose product with the spectral bounds overflows, before
    anything is computed.  So does a grid whose states, or on the sparse
    path whose series table, would not fit in physical memory.

    Parameters
    ----------
    psi0 : array of shape (dim,)
        Initial amplitudes, read as float64 when real and as complex128
        otherwise.
    times : 1-D sequence of real times
    method : {"auto", "dense", "krylov"}
        "auto" picks dense up to dimension DENSE_LIMIT, the sparse
        Chebyshev backend ("krylov") above.
    tol : float
        Largest norm change the sparse backend may leave at any time before
        it raises ConvergenceError.  It does not set the length of the
        series, which runs until its tail is below unit roundoff.
    """
    psi0, times = _checked(hamiltonian, psi0, times)
    if resolve_method(method, hamiltonian.dimension) == "dense":
        return _dense_apply(hamiltonian, psi0, times)
    return _chebyshev_apply(hamiltonian, psi0, times, tol)


def chebyshev_expectation(hamiltonian: HermitianOperator, observable: BoundedObservable,
                          psi0, times, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """<psi(t)|O|psi(t)> at every real time t of a grid, with no state formed.

    The sparse backend's series gives psi(t) = sum_k a_k(t) V_k, so block b
    of the observable sees F_b psi(t)[I_b] = M_b a(t), M_b = F_b V[:, I_b]^T.
    With M = Q S the thin QR of the stacked M_b, P(t) = ||S a(t)||^2: a sum
    of squares, non-negative by construction.  Householder QR is backward
    stable column by column, so S a(t) carries the rounding of M a(t) and
    a P of 1e-13 keeps its relative digits; the Gram form a^dagger M^dagger
    M a would square M's conditioning instead.  The work is K x K per
    point, and the memory K vectors and K coordinates per point; the
    (points x dim) states of evolve_grid never exist.

    The checks are evolve_grid's with method "krylov": the same DomainError
    and ValueError on the grid and the state, a memory guard, and the norm
    check ||psi(t)|| = ||S_0 a(t)|| (S_0 the triangular factor of V^T)
    against tol.  P(0) is <psi0|O|psi0> itself.
    """
    psi0, times = _checked(hamiltonian, psi0, times)
    if observable.dimension != hamiltonian.dimension:
        raise ValueError("observable and Hamiltonian differ in dimension")
    rows = sum(len(indices) if factor is None else factor.shape[0]
               for indices, factor in observable.blocks)
    # the observed vectors, and a copy of the vectors for their QR
    vectors, coeff = _chebyshev_series(hamiltonian, psi0, times, width=rows + psi0.size)
    # the two triangular factors are all the rest needs of the vectors
    norm_factor = np.linalg.qr(vectors.T, mode="r")
    observed = np.vstack([np.zeros((0, len(vectors))), *observable.factor_parts(vectors)])
    factor = np.linalg.qr(observed, mode="r")
    del vectors, observed
    _check_accuracy(np.sqrt(_squared_lengths(norm_factor, coeff)), psi0, tol)
    values = _squared_lengths(factor, coeff)
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
