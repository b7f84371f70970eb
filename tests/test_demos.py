"""Narrated demos run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("name", [
    "01_immediate_excitation.py",
    "02_random_ensemble_dichotomy.py",
    "03_lattice_front.py",
    "05_cutoff_sweep.py",
])
def test_demo_runs_cleanly(tmp_path, name):
    done = run_demo(name, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout


def test_frequency_ranges_demo(tmp_path):
    # cutoff 100 gives the quadrature far more panels than the CLI default
    done = run_demo("04_frequency_ranges.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    header = lines.index("      t / R    positive frequencies    extended to full axis")
    rows = [line.split() for line in lines[header + 1:header + 8]]
    assert [len(row) for row in rows] == [3] * 7
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 0.95
    # the extended amplitude is below the quadrature's achieved error before
    # the cone, so every entry is a bound; the positive range is data at t > 0
    assert all(row[2].startswith("<") for row in rows)
    assert all(float(row[1]) > 0.0 for row in rows[1:])
    maxima = {line.split(":")[0].strip(): line.split(":")[1].strip()
              for line in lines if line.startswith("max before the cone")}
    assert maxima["max before the cone, extended"].startswith("<")
    assert float(maxima["max before the cone, positive_only"]) > 0.0
