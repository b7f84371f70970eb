"""Model configurations for the two-atom emitter/absorber laboratory.

Two field variants are supported.  The default is a periodic 1-D box of
scalar modes with linear dispersion (omega = |k|, propagation speed 1 in
natural units), which is the setting for the frequency-cutoff and
perturbation studies.  A strictly local nearest-neighbour hopping chain is
available as an alternative field; its rigorous maximum signal speed
(2 * hopping) makes it the cleaner stage for front-detection experiments.

Both configs are frozen dataclasses, so they hash and compare by value and
can key caches.  All numbers are in natural units (hbar = c = 1 for the box
field; lattice spacing 1 for the chain).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

COUPLING_FORMS = ("full", "rotating_wave")
# default tolerance on the sparse series' certificate (propagator._check_accuracy),
# shared by every caller
DEFAULT_TOL = 1e-10


def physical_memory() -> int:
    """Bytes of physical memory, the ceiling of every dense-array guard."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(needed: int, error: type, what: str, remedy: str) -> None:
    """Raise error when `what` needs more bytes than physical memory holds.

    Callers ask before they allocate, so a refused job forms nothing large.
    """
    memory = physical_memory()
    if needed > memory:
        if needed > 1e300:  # past a float's range: only such a refusal imports Decimal
            from decimal import Decimal
            needed = Decimal(int(needed))
        raise error(f"{what} needs {needed / 10**9:.3g} GB against {memory / 1e9:.3g} GB "
                    f"of physical memory: {remedy}")


def _check_atoms_and_coupling(config) -> None:
    """The shared checks: finite floats, atoms, truncation and coupling."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
    if config.levels_a < 2 or config.levels_b < 2:
        raise ConfigError("each atom needs at least 2 levels")
    if config.omega_a <= 0 or config.omega_b <= 0:
        raise ConfigError("atomic transition frequencies must be positive")
    if config.n_max < 1:
        raise ConfigError("n_max must be at least 1")
    if config.coupling_strength < 0:
        raise ConfigError("coupling_strength must be non-negative")
    if config.coupling_form not in COUPLING_FORMS:
        raise ConfigError(f"coupling_form must be one of {COUPLING_FORMS}")
    if config.coupling_scale_a < 0 or config.coupling_scale_b < 0:
        raise ConfigError("coupling scales must be non-negative")


@dataclass(frozen=True)
class ModelConfig:
    """Two atoms coupled to a truncated boson field in a periodic box.

    Atom levels form a uniform ladder: level j of atom X carries energy
    j * omega_x, with level 0 the ground state.  Mode wavenumbers are
    k = 2*pi*n / box_length with n = 1, -1, 2, -2, ... (the first
    ``num_modes`` values); modes with |k| > cutoff are dropped.  The
    per-mode coupling is

        g_k = coupling_strength * sqrt(omega_k / box_length)
              * exp(-(omega_k / cutoff)**2)

    and each atom's vertex additionally carries its coupling_scale factor,
    which is the hook used to decouple one atom while leaving the field
    untouched.
    """

    levels_a: int = 2
    levels_b: int = 2
    omega_a: float = 1.0
    omega_b: float = 1.0
    x_a: float = 0.0
    x_b: float = math.pi
    box_length: float = 2.0 * math.pi
    num_modes: int = 32
    n_max: int = 2
    cutoff: float = 16.0
    coupling_strength: float = 0.2
    coupling_form: str = "full"
    coupling_scale_a: float = 1.0
    coupling_scale_b: float = 1.0

    def __post_init__(self):
        _check_atoms_and_coupling(self)
        if self.box_length <= 0:
            raise ConfigError("box_length must be positive")
        if not (0 <= self.x_a < self.box_length and 0 <= self.x_b < self.box_length):
            raise ConfigError("atom positions must lie in [0, box_length)")
        if self.x_a == self.x_b:
            raise ConfigError("atoms must be separated (x_a != x_b)")
        if self.num_modes < 1:
            raise ConfigError("num_modes must be at least 1")
        if self.cutoff <= 0:
            raise ConfigError("cutoff must be positive")

    @property
    def separation(self) -> float:
        return abs(self.x_b - self.x_a)

    @property
    def light_cone_time(self) -> float:
        """Earliest classical signal arrival time (speed 1)."""
        return self.separation


@dataclass(frozen=True)
class LatticeConfig:
    """Two atoms side-coupled to single sites of a hopping chain.

    The field is an open chain of ``num_sites`` boson sites with on-site
    frequency ``site_frequency`` and nearest-neighbour hopping amplitude
    ``hopping``.  The one-boson band is site_frequency - 2*hopping*cos(k),
    so the maximum group velocity (and the rigorous signal speed for this
    strictly local model) is 2*hopping.  Tuning omega_a to the band centre
    makes the emitted packet travel at exactly that speed.
    """

    levels_a: int = 2
    levels_b: int = 2
    omega_a: float = 4.0
    omega_b: float = 4.0
    num_sites: int = 12
    hopping: float = 0.5
    site_frequency: float = 4.0
    site_a: int = 2
    site_b: int = 9
    n_max: int = 2
    coupling_strength: float = 0.15
    coupling_form: str = "full"
    coupling_scale_a: float = 1.0
    coupling_scale_b: float = 1.0

    def __post_init__(self):
        _check_atoms_and_coupling(self)
        if self.num_sites < 2:
            raise ConfigError("num_sites must be at least 2")
        if self.hopping <= 0:
            raise ConfigError("hopping must be positive")
        if self.site_frequency < 2 * self.hopping:
            # keeps the one-boson band non-negative so the bare vacuum is
            # the field ground state
            raise ConfigError("site_frequency must be at least 2*hopping")
        for name, site in (("site_a", self.site_a), ("site_b", self.site_b)):
            if not (0 <= site < self.num_sites):
                raise ConfigError(f"{name} must lie in [0, num_sites)")
        if self.site_a == self.site_b:
            raise ConfigError("atoms must sit on different sites")

    @property
    def separation(self) -> float:
        return float(abs(self.site_b - self.site_a))

    @property
    def front_speed(self) -> float:
        return 2.0 * self.hopping

    @property
    def light_cone_time(self) -> float:
        """Earliest arrival allowed by the chain's maximum group velocity."""
        return self.separation / self.front_speed


AnyConfig = ModelConfig | LatticeConfig


@dataclass(frozen=True)
class ModeTable:
    """Retained field modes of a box config: wavenumber, frequency, coupling."""

    k: tuple[float, ...]
    omega: tuple[float, ...]
    g: tuple[float, ...]

    def __len__(self):
        return len(self.k)

    def as_arrays(self):
        return (np.asarray(self.k), np.asarray(self.omega), np.asarray(self.g))


def mode_table(config: ModelConfig) -> ModeTable:
    """Enumerate retained modes of a box config in deterministic order.

    Wavenumber index order is n = 1, -1, 2, -2, ...; modes with
    omega > cutoff are filtered out, which is how the cutoff constraint
    "cutoff >= every retained omega" is enforced.
    """
    ks, omegas, gs = [], [], []
    for i in range(config.num_modes):
        n = (i // 2) + 1
        sign = 1 if i % 2 == 0 else -1
        k = sign * 2.0 * math.pi * n / config.box_length
        omega = abs(k)
        if omega > config.cutoff:
            continue
        g = (
            config.coupling_strength
            * math.sqrt(omega / config.box_length)
            * math.exp(-((omega / config.cutoff) ** 2))
        )
        ks.append(k)
        omegas.append(omega)
        gs.append(g)
    return ModeTable(tuple(ks), tuple(omegas), tuple(gs))


def make_time_grid(t_max: float, steps: int) -> np.ndarray:
    """Uniform grid 0..t_max with `steps` intervals (steps+1 points); repeated points raise."""
    if not 0 < t_max < np.inf or steps < 1:
        raise ConfigError("time grid needs a finite t_max > 0 and steps >= 1")
    require_memory((int(steps) + 1) * 8, ConfigError, f"a grid of {int(steps) + 1} points",
                   "lower the step count")
    grid = np.linspace(0.0, float(t_max), int(steps) + 1)
    if not np.all(grid[1:] > grid[:-1]):  # np.linspace repeats subnormal points
        raise ConfigError(f"a grid of {int(steps)} steps to {t_max!r} repeats points")
    return grid


def checked_times(times, limit: float) -> np.ndarray:
    """times as a 1-D float array of finite points at most `limit` in size, or DomainError.

    The one check of every time grid, at the size past which the caller's
    arithmetic on a time overflows.  A complex-typed grid is refused even
    where every imaginary part is 0, which a cast to float would drop.
    """
    if np.iscomplexobj(times):
        raise DomainError("times must be real: the grid is complex")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise DomainError("times must be a 1-D array")
    if not (np.all(np.isfinite(times)) and np.abs(times).max(initial=0.0) <= limit):
        raise DomainError(f"grid points must be finite and at most {limit:.3g} in size")
    return times


def config_items(config: AnyConfig) -> dict:
    """Field name to value mapping, plus the variant tag, for manifests."""
    out = {"field_model": "lattice" if isinstance(config, LatticeConfig) else "continuum"}
    for f in dataclasses.fields(config):
        out[f.name] = getattr(config, f.name)
    return out
