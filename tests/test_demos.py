"""Narrated demos run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_frequency_ranges_demo(tmp_path):
    # cutoff 100 gives the quadrature far more panels than the CLI default
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "04_frequency_ranges.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    header = lines.index("      t / R    positive frequencies    extended to full axis")
    rows = [line.split() for line in lines[header + 1:header + 8]]
    assert [len(row) for row in rows] == [3] * 7
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 0.95
    assert "max before the cone, positive_only" in done.stdout
