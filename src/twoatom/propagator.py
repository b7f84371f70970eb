"""Exact time evolution of truncated-basis states.

Two propagation paths share one interface.  Up to DENSE_LIMIT the
Hamiltonian is diagonalized once (cached on the operator) and evolution is
exact phase multiplication in the eigenbasis.  Above it the sparse backend
(method "krylov") applies the truncated-Taylor action of the matrix
exponential, scipy.sparse.linalg.expm_multiply (Al-Mohy & Higham, SIAM J.
Sci. Comput. 33, 2011), and rejects a real-time result whose norm drifted
from the initial norm by more than the requested tolerance.  Complex times
z with Im z <= 0 are allowed everywhere; the spectrum is shifted by the
operator's certified floor before exponentiation so the damped factors
never overflow, then the shift is restored as a scalar.

Grid sweeps on the dense path evaluate all requested times in one BLAS
call; on the sparse path a uniform grid is one expm_multiply call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .basis import FockBasis, index_of_bare_state
from .errors import ConvergenceError, DomainError
from .operators import DENSE_LIMIT, BoundedObservable, HermitianOperator

DEFAULT_TOL = 1e-10


@dataclass
class StateVector:
    """Complex amplitude vector over a basis (basis optional for synthetic use)."""

    amplitudes: np.ndarray
    basis: FockBasis | None = None

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.ndim != 1:
            raise ValueError("state amplitudes must be a 1-D array")
        if self.basis is not None and len(self.amplitudes) != self.basis.dimension:
            raise ValueError("amplitude length does not match basis dimension")

    @property
    def dimension(self) -> int:
        return len(self.amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def prepare_initial_state(basis: FockBasis) -> StateVector:
    """Unit amplitude on (first excited A, ground B, field vacuum)."""
    amp = np.zeros(basis.dimension, dtype=np.complex128)
    amp[index_of_bare_state(basis, 1, 0, basis.vacuum)] = 1.0
    return StateVector(amp, basis)


def _check_z(z: complex) -> complex:
    z = complex(z)
    if z.imag > 0:
        raise DomainError(
            f"complex time {z} has positive imaginary part; only Im z <= 0 "
            "keeps exp(-iHz) bounded for a Hamiltonian bounded below"
        )
    return z


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
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    # exp(-i w z) per time and eigenvalue; the shifted exponent has
    # non-positive real part for Im z <= 0
    phases = np.exp((-1j * zs)[:, None] * (w - hamiltonian.spectral_floor)[None, :])
    phases *= _floor_phase(hamiltonian, zs)[:, None]
    return (v @ (phases * coeff).T).T  # shape (len(zs), dim)


# ---------------------------------------------------------------------------
# sparse path
# ---------------------------------------------------------------------------


def _shifted_generator(hamiltonian: HermitianOperator):
    """-i (H - floor I), so exp(z A) stays bounded for Im z <= 0."""
    identity = sparse.identity(hamiltonian.dimension, dtype=np.complex128, format="csr")
    return -1j * (hamiltonian.matrix - hamiltonian.spectral_floor * identity)


def _sparse_apply(hamiltonian, generator, amplitudes, z) -> np.ndarray:
    """exp(-i H z) amplitudes by expm_multiply on the shifted generator."""
    if z == 0:
        return amplitudes.copy()
    return expm_multiply(z * generator, amplitudes) * _floor_phase(hamiltonian, z)


def _check_unitary(states: np.ndarray, initial_norm: float, tol: float) -> None:
    """Raise ConvergenceError when a real-time state's norm drifts above tol."""
    defect = float(np.max(np.abs(np.linalg.norm(states, axis=1) - initial_norm),
                          initial=0.0))
    if not defect <= tol:
        raise ConvergenceError(
            f"sparse propagation changed the state norm by {defect:.3e}, "
            f"above tol={tol:.3e}",
            residual=defect,
        )


# ---------------------------------------------------------------------------
# public interface
# ---------------------------------------------------------------------------


def evolve(hamiltonian: HermitianOperator, state: StateVector, t: float, *,
           method: str = "auto", tol: float = DEFAULT_TOL) -> StateVector:
    """Propagate a state by exp(-i H t) for real t.

    Parameters
    ----------
    method : {"auto", "dense", "krylov"}
        "auto" picks dense up to dimension DENSE_LIMIT, the sparse
        expm_multiply backend ("krylov") above.
    tol : float
        Largest norm change the sparse backend may leave in the result
        before it raises ConvergenceError.
    """
    return evolve_complex(hamiltonian, state, float(t), method=method, tol=tol)


def evolve_complex(hamiltonian: HermitianOperator, state: StateVector, z: complex, *,
                   method: str = "auto", tol: float = DEFAULT_TOL) -> StateVector:
    """Propagate by exp(-i H z) for complex z with Im z <= 0.

    The result is not normalized: for Im z < 0 its norm obeys
    ||psi_z|| <= exp(Im(z) * spectral_floor) * ||psi||.  The sparse
    backend's norm check against tol applies to real z only.
    """
    z = _check_z(z)
    chosen = resolve_method(method, hamiltonian.dimension)
    if chosen == "dense":
        out = _dense_apply(hamiltonian, state.amplitudes, [z])[0]
    else:
        out = _sparse_apply(hamiltonian, _shifted_generator(hamiltonian),
                            state.amplitudes, z)
        if z.imag == 0:
            _check_unitary(out[None, :], state.norm(), tol)
    return StateVector(out, state.basis)


def evolve_grid(hamiltonian: HermitianOperator, state: StateVector, times, *,
                method: str = "auto", tol: float = DEFAULT_TOL) -> np.ndarray:
    """States at many real times; shape (len(times), dim).

    The dense path evaluates every grid point from one eigendecomposition.
    The sparse path needs times that do not decrease from t = 0.  An
    increasing uniform grid, exactly np.linspace(times[0], times[-1],
    len(times)), takes one expm_multiply call over the whole grid; any
    other grid takes one call per interval, each starting from the previous
    state.  Either way the result must pass the norm check against tol.
    """
    times = np.asarray(times, dtype=float)
    chosen = resolve_method(method, hamiltonian.dimension)
    if chosen == "dense":
        return _dense_apply(hamiltonian, state.amplitudes, times)
    steps = np.diff(times, prepend=0.0)
    if np.any(steps < 0):
        raise DomainError("time grid must be non-decreasing from t = 0 for the "
                          "sparse path")
    if state.dimension == 0:  # expm_multiply divides by the dimension
        return np.empty((len(times), 0), dtype=np.complex128)
    generator = _shifted_generator(hamiltonian)
    # expm_multiply's interval mode returns the unpropagated vector when
    # start == stop, so a constant grid takes the per-interval path
    if len(times) >= 2 and times[-1] > times[0] and np.array_equal(
            times, np.linspace(times[0], times[-1], len(times))):
        out = expm_multiply(generator, state.amplitudes, start=times[0],
                            stop=times[-1], num=len(times), endpoint=True)
        out *= _floor_phase(hamiltonian, times)[:, None]
    else:
        out = np.empty((len(times), state.dimension), dtype=np.complex128)
        current = state.amplitudes
        for i, dt in enumerate(steps):
            current = out[i] = _sparse_apply(hamiltonian, generator, current, dt)
    _check_unitary(out, state.norm(), tol)
    return out


def expectation(observable: BoundedObservable, state: StateVector) -> float:
    """<psi|O|psi> as a real number.

    When the observable carries a square-root factor W (projectors always
    do), the value is computed as ||W psi||^2, which keeps it inside
    [0, ||psi||^2] by construction rather than by clipping.
    """
    amp = state.amplitudes
    if observable.sqrt_factor is not None:
        half = observable.sqrt_factor @ amp
        return float(np.real(np.vdot(half, half)))
    return float(np.real(np.vdot(amp, observable.matrix @ amp)))


def expectation_grid(observable: BoundedObservable, states: np.ndarray) -> np.ndarray:
    """Expectation values for a stack of states, shape (n_times, dim)."""
    if observable.sqrt_factor is not None:
        half = observable.sqrt_factor @ states.T
        return np.real(np.einsum("ij,ij->j", half.conjugate(), half))
    tmp = observable.matrix @ states.T
    return np.real(np.einsum("ij,ij->j", states.T.conjugate(), tmp))
