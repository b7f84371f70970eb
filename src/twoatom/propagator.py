"""Exact time evolution of truncated-basis states.

evolve_grid is the one propagation call.  It takes a state as a plain
complex array and returns exp(-i H z) psi0 for every point z of a grid,
real or complex with Im z <= 0, on one of two backends.  Up to DENSE_LIMIT
the Hamiltonian is diagonalized once (cached on the operator) and
evolution is exact phase multiplication in the eigenbasis, all points in
one BLAS call.  Above it the sparse backend (method "krylov") applies the
truncated-Taylor action of the matrix exponential,
scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput.
33, 2011): one call over an increasing uniform real grid, one call per
step otherwise.  It rejects a real-time result whose norm drifted from
the initial norm by more than the requested tolerance.  For complex z the
spectrum is shifted by the operator's certified floor before
exponentiation so the damped factors never overflow, then the shift is
restored as a scalar.  Both backends return psi0 itself at z = 0.

scipy's expm_multiply picks its step count from onenormest, which draws
random probe vectors from numpy's global legacy RNG.  Each call here runs
with that RNG seeded to a fixed state, and the caller's state restored
afterwards, so a sparse result does not depend on the caller's np.random.

expectation_grid is the one evaluation of an observable held as blocks
(indices I_k, factor F_k): sum_k ||F_k psi[I_k]||^2 for a stack of states,
one matrix product per factor block and a plain sum of |psi|^2 per
identity block.  A single state psi is the stack psi[None, :].
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import sparse

from .basis import FockBasis, index_of_bare_state
from .errors import ConvergenceError, DomainError
from .operators import BoundedObservable, HermitianOperator

# largest dimension that "auto" hands to the dense eigendecomposition
DENSE_LIMIT = 2000
# default norm-drift tolerance of the sparse backend, shared by every caller
DEFAULT_TOL = 1e-10


def prepare_initial_state(basis: FockBasis) -> np.ndarray:
    """Unit amplitude on (first excited A, ground B, field vacuum)."""
    psi0 = np.zeros(basis.dimension, dtype=np.complex128)
    psi0[index_of_bare_state(basis, 1, 0, basis.vacuum)] = 1.0
    return psi0


def resolve_method(method: str, dim: int) -> str:
    """The backend that `method` names for a Hamiltonian of dimension dim."""
    if method == "auto":
        return "dense" if dim <= DENSE_LIMIT else "krylov"
    if method not in ("dense", "krylov"):
        raise DomainError(f"unknown propagation method {method!r}")
    return method


def _floor_phase(hamiltonian: HermitianOperator, zs) -> np.ndarray:
    """The scalar factors exp(-i z floor) removed by the shift."""
    restore = np.exp(-1j * np.asarray(zs) * hamiltonian.spectral_floor)
    if not np.all(np.isfinite(restore)):
        raise DomainError(
            f"complex-time factor exp(-i*floor*z) overflows for z={zs}, "
            f"floor={hamiltonian.spectral_floor}"
        )
    return restore


# ---------------------------------------------------------------------------
# dense path
# ---------------------------------------------------------------------------


def _dense_apply(hamiltonian, amplitudes, zs) -> np.ndarray:
    w, v = hamiltonian.eigensystem()
    coeff = v.conjugate().T @ amplitudes
    zs = np.asarray(zs, dtype=complex)
    # exp(-i w z) per time and eigenvalue; the shifted exponent has
    # non-positive real part for Im z <= 0
    phases = np.exp((-1j * zs)[:, None] * (w - hamiltonian.spectral_floor)[None, :])
    phases *= _floor_phase(hamiltonian, zs)[:, None]
    out = (v @ (phases * coeff).T).T  # shape (len(zs), dim)
    # exp(0) is the identity: psi(0) exactly, not its round trip through V
    out[zs == 0] = amplitudes
    return out


# ---------------------------------------------------------------------------
# sparse path
# ---------------------------------------------------------------------------


def _shifted_generator(hamiltonian: HermitianOperator):
    """-i (H - floor I), so exp(z A) stays bounded for Im z <= 0."""
    identity = sparse.identity(hamiltonian.dimension, dtype=np.complex128, format="csr")
    return -1j * (hamiltonian.matrix - hamiltonian.spectral_floor * identity)


# held while the legacy RNG is reseeded: cutoff_sweep propagates on threads
_LEGACY_RNG_LOCK = threading.Lock()


def _expm_multiply(*args, **kwargs) -> np.ndarray:
    """scipy's expm_multiply with np.random seeded to 0, the caller's state restored."""
    # imported here: only the sparse backend loads scipy.sparse.linalg
    from scipy.sparse.linalg import expm_multiply

    with _LEGACY_RNG_LOCK:
        saved = np.random.get_state()
        np.random.seed(0)
        try:
            return expm_multiply(*args, **kwargs)
        finally:
            np.random.set_state(saved)


def _sparse_apply(hamiltonian, generator, amplitudes, z) -> np.ndarray:
    """exp(-i H z) amplitudes by expm_multiply on the shifted generator."""
    if z == 0:
        return amplitudes.copy()
    return _expm_multiply(z * generator, amplitudes) * _floor_phase(hamiltonian, z)


def _check_unitary(states: np.ndarray, times: np.ndarray, initial_norm: float,
                   tol: float) -> None:
    """Raise ConvergenceError when a state at a real time drifts in norm above tol."""
    # norms first, then the real points: masking the states would copy them
    drift = np.abs(np.linalg.norm(states, axis=1) - initial_norm)[times.imag == 0]
    defect = float(np.max(drift, initial=0.0))
    if not defect <= tol:
        raise ConvergenceError(
            f"sparse propagation changed the state norm by {defect:.3e}, "
            f"above tol={tol:.3e}",
            residual=defect,
        )


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------


def evolve_grid(hamiltonian: HermitianOperator, psi0, times, *,
                method: str = "auto", tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(-i H z) psi0 at every point z of a grid; shape (len(times), dim).

    The points may be complex with Im z <= 0.  There the result is not
    normalized: its norm obeys ||psi_z|| <= exp(Im(z) * spectral_floor) * ||psi0||.
    A single point z is evolve_grid(H, psi0, [z])[0].

    The dense path evaluates every point from one eigendecomposition.  The
    sparse path steps from z = 0 through the points in order, so a real
    grid must not decrease and no step of a complex grid may raise Im z.
    An increasing uniform real grid, exactly np.linspace(times[0],
    times[-1], len(times)), takes one expm_multiply call over the whole
    grid; any other grid takes one call per step, each starting from the
    previous state.  Every real point of a sparse result must keep the norm
    of psi0 to within tol.

    Parameters
    ----------
    psi0 : array of shape (dim,)
        Initial amplitudes, read as complex128.
    times : 1-D sequence of real or complex points
        A complex sequence stays complex even where Im z = 0.
    method : {"auto", "dense", "krylov"}
        "auto" picks dense up to dimension DENSE_LIMIT, the sparse
        expm_multiply backend ("krylov") above.
    tol : float
        Largest norm change the sparse backend may leave at a real point
        before it raises ConvergenceError.
    """
    psi0 = np.asarray(psi0, dtype=np.complex128)
    times = np.asarray(times)
    times = times.astype(np.complex128 if np.iscomplexobj(times) else float)
    if psi0.shape != (hamiltonian.dimension,) or times.ndim != 1:
        raise ValueError(f"need a state of shape ({hamiltonian.dimension},) and a 1-D "
                         f"grid, got shapes {psi0.shape} and {times.shape}")
    if np.any(times.imag > 0):
        raise DomainError("complex times need Im z <= 0: only there does exp(-iHz) "
                          "stay bounded for a Hamiltonian bounded below")
    if resolve_method(method, hamiltonian.dimension) == "dense":
        return _dense_apply(hamiltonian, psi0, times)
    steps = np.diff(times, prepend=0.0)
    if np.any(steps.imag > 0) or (np.isrealobj(steps) and np.any(steps < 0)):
        raise DomainError("the sparse path steps from z = 0: a real grid must not "
                          "decrease and no step of a complex grid may raise Im z")
    if psi0.size == 0:  # expm_multiply divides by the dimension
        return np.empty((len(times), 0), dtype=np.complex128)
    generator = _shifted_generator(hamiltonian)
    # expm_multiply's interval mode returns the unpropagated vector when
    # start == stop, so a constant grid takes the stepped path
    if np.isrealobj(times) and len(times) >= 2 and times[-1] > times[0] and np.array_equal(
            times, np.linspace(times[0], times[-1], len(times))):
        out = _expm_multiply(generator, psi0, start=times[0], stop=times[-1],
                             num=len(times), endpoint=True)
        out *= _floor_phase(hamiltonian, times)[:, None]
    else:
        out = np.empty((len(times), psi0.size), dtype=np.complex128)
        current = psi0
        for i, dt in enumerate(steps):
            current = out[i] = _sparse_apply(hamiltonian, generator, current, dt)
    _check_unitary(out, times, float(np.linalg.norm(psi0)), tol)
    return out


def expectation_grid(observable: BoundedObservable, states: np.ndarray) -> np.ndarray:
    """sum_k ||F_k psi[I_k]||^2 for a stack of states psi, shape (n_times, dim).

    The blocks are summed in their stored order.
    """
    values = np.zeros(len(states))
    for part in observable.factor_parts(states):
        values += np.real(np.einsum("ij,ij->j", part.conjugate(), part))
    return values
