"""The three benchmark workloads and their seeded inputs.

Each workload is one ``twoatom`` CLI invocation.  The seed draws the
absorber position ``x_b`` and the coupling strength; everything else stays
at the CLI defaults, apart from ``num_modes = 30`` for ``dense-photon``,
which puts the basis (dim 1984) just under the dense/sparse switch at 2000.
The program receives only the generated config file through ``--config``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

X_B_RANGE = (0.8 * math.pi, 1.2 * math.pi)
COUPLING_RANGE = (0.15, 0.25)


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]      # subcommand and flags, without --config/--out
    csv: str                       # CSV the subcommand writes
    summary: str                   # JSON summary the subcommand writes
    extra_config: tuple[tuple[str, str], ...] = ()
    oracle_args: tuple[str, ...] | None = None   # same run on the other backend
    observable: str | None = None  # what set-up builds before propagation
    # untraced samples per end-to-end run, at least.  fermi-both's samples
    # are short, single-threaded and fall near one of two speeds of the
    # host, so its median needs more of them to stay put from run to run.
    min_samples: int = 3


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sparse-excitation",
            cli_args=("simulate",),
            csv="simulate.csv", summary="simulate.json",
            oracle_args=("--method", "dense"),
            observable="excitation_b"),
        Workload(
            name="dense-photon",
            cli_args=("dichotomy", "--observable", "photon_region"),
            csv="dichotomy.csv", summary="dichotomy.json",
            extra_config=(("num_modes", "30"),),
            oracle_args=("--method", "krylov"),
            observable="photon_region"),
        Workload(
            name="fermi-both",
            cli_args=("fermi-integral",),
            csv="fermi_integral.csv", summary="fermi_integral.json",
            min_samples=10),
    )
}


def config_text(workload: Workload, seed: int) -> str:
    """Flat ``key = value`` config for one seed; the same seed gives the same bytes."""
    rng = random.Random(seed)
    x_b = rng.uniform(*X_B_RANGE)
    coupling = rng.uniform(*COUPLING_RANGE)
    lines = [f"# bench workload {workload.name}, seed {seed}",
             f"x_b = {x_b!r}",
             f"coupling_strength = {coupling!r}"]
    lines += [f"{key} = {value}" for key, value in workload.extra_config]
    return "\n".join(lines) + "\n"
