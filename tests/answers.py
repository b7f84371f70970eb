"""The physics answers of the reference configs, as the CLI reports them.

    PYTHONPATH=src python tests/answers.py

runs every reference config through ``twoatom.cli.main`` at its default
grid and writes what each run reports to ``tests/answers.json`` beside
this file; ``tests/test_answers.py`` runs them again and compares.
A change that moves an answer regenerates the file and says which values
moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from twoatom.cli import main, parse_config_text
from twoatom.config import ModelConfig

ANSWERS = Path(__file__).with_name("answers.json")

# name -> (config file text, observable of simulate and dichotomy)
CONFIGS = {
    "box": ("", "excitation_B"),
    "box_rotating_wave": ("coupling_form = rotating_wave\n", "excitation_B"),
    "box_n_max_3": ("n_max = 3\n", "excitation_B"),
    "box_7_modes": ("num_modes = 7\n", "excitation_B"),  # complex H
    "photon_region_16_modes": ("num_modes = 16\n", "photon_region"),
    "lattice": ("field_model = lattice\n", "excitation_B"),
    "lattice_rotating_wave": ("field_model = lattice\ncoupling_form = rotating_wave\n",
                              "excitation_B"),
}


def _answers(subcommand: str, summary: dict) -> dict:
    """The answers in one run's JSON summary."""
    if subcommand == "dichotomy":
        report = summary["report"]
        return {key: report[key] for key in (
            "classification", "num_zero_candidates", "num_isolated_zero_candidates",
            "interior_plateaus", "floor_dominated", "log_integral")}
    if subcommand == "simulate":
        return {key: summary[key] for key in ("max_value", "final_value")}
    if subcommand == "weak-causality":
        front = summary["front"]
        return {"detected": front["detected"], "arrival_time": front["arrival_time"],
                "uncertainty": front["uncertainty"],
                "max_abs_delta": summary["max_abs_delta"],
                "max_abs_delta_before_cone": summary["max_abs_delta_before_cone"]}
    if subcommand == "fermi-integral":
        return {name: {key: entry[key] for key in (
                    "max_abs_amplitude", "max_abs_before_light_cone")}
                for name, entry in summary["ranges"].items()}
    return {"trend": summary["trend"], "rows": summary["rows"]}  # cutoff-sweep


def run(name: str, subcommand: str, workdir: Path) -> dict:
    """The answers of one reference config under one subcommand."""
    text, observable = CONFIGS[name]
    config = workdir / f"{name}.cfg"
    config.write_text(text)
    out = workdir / name / subcommand
    argv = [subcommand, "--config", str(config), "--out", str(out)]
    if subcommand in ("simulate", "dichotomy"):
        argv += ["--observable", observable]
    with contextlib.redirect_stdout(io.StringIO()):  # the paths main prints
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{subcommand} on {name} failed")
    summary = json.loads((out / f"{subcommand.replace('-', '_')}.json").read_text())
    return _answers(subcommand, summary)


def subcommands(name: str) -> list[str]:
    """What a config runs: fermi-integral and cutoff-sweep apply to the box only."""
    box = isinstance(parse_config_text(CONFIGS[name][0]), ModelConfig)
    return (["simulate", "dichotomy", "weak-causality"]
            + (["fermi-integral", "cutoff-sweep"] if box else []))


def collect() -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        return {name: {sub: run(name, sub, Path(workdir)) for sub in subcommands(name)}
                for name in CONFIGS}


if __name__ == "__main__":
    ANSWERS.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"{ANSWERS}\n")
