"""Reference series of the model workloads, recorded when the benchmark was defined.

    python3 bench/reference.py SEEDS       # e.g. 0-39; rewrites results/reference.json

The backend comparison in ``checks.py`` cannot see an error in a layer that
both backends share: the basis, the Hamiltonian, the observable and the
expectation values.  This file keeps every ``STRIDE``-th value of each model
workload's series, for a range of seeds, as the program computed them at the
commit that defined the benchmark.  A timed run whose config has a recorded
series is compared with it to the same bound as the backend comparison.
Entries are keyed by a digest of the config text, so a change to the seeding
finds no reference rather than a wrong one.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from checks import read_series
from workloads import WORKLOADS, config_text

BENCH = Path(__file__).resolve().parent
PATH = BENCH / "results" / "reference.json"
STRIDE = 20


def config_key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summarise(csv_text: str) -> dict:
    """The grid and every STRIDE-th value of a ``t,value`` series."""
    times, values = read_series(csv_text)
    return {"points": len(times), "t_max": float(times[-1]), "stride": STRIDE,
            "values": [float(v) for v in values[::STRIDE]]}


def lookup(workload: str, text: str) -> dict | None:
    """The recorded series for a workload's config text, if there is one."""
    if not PATH.is_file():
        return None
    return json.loads(PATH.read_text()).get(workload, {}).get(config_key(text))


def record(seeds) -> dict:
    from run import child_env   # the environment of the timed processes

    out: dict = {}
    for workload in WORKLOADS.values():
        if workload.oracle_args is None:
            continue
        for seed in seeds:
            text = config_text(workload, seed)
            with tempfile.TemporaryDirectory() as tmp:
                config = Path(tmp) / "workload.cfg"
                config.write_text(text)
                subprocess.run([sys.executable, "-m", "twoatom.cli", *workload.cli_args,
                                "--config", str(config), "--out", tmp],
                               env=child_env(), check=True, stdout=subprocess.DEVNULL)
                entry = summarise((Path(tmp) / workload.csv).read_text())
            out.setdefault(workload.name, {})[config_key(text)] = {"seed": seed, **entry}
            print(f"{workload.name} seed {seed}: {entry['points']} points", flush=True)
    return out


if __name__ == "__main__":
    from report import parse_seeds

    PATH.write_text(json.dumps(record(parse_seeds(sys.argv[1])), indent=1) + "\n")
