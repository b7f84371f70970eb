"""twoatom benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh
``python -m twoatom.cli`` process run to completion before the next starts
(a closed loop with one client), with BLAS capped at the usable CPU count.
Every sample's outputs are checked against an independent oracle that is
computed once per seed and cached under ``.bench_work/``, and against the
series recorded in ``results/reference.json`` where the seed has one.
Workload rationale, metric names, units and the default ``--seconds`` come
from ``BENCHMARK.json``.

``--trace 0`` times untraced processes for S seconds and reports the
end-to-end metrics: median wall time, median peak RSS, the median set-up
time of fresh processes that only build the model, and the share of runs
that passed their checks.  ``--trace 1`` alternates untraced runs with runs
of ``bench/traced.py`` and reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Exits
with code 2, printing no result, if the program cannot be run or an oracle
cannot be computed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_outputs
from layers import layer_metrics
from reference import lookup
from spec import load_spec, quartiles
from tracer import Span
from workloads import WORKLOADS, Workload, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

MIN_TRACED = 2           # traced/untraced pairs per per-layer run, at least
SETUP_SAMPLES = 5        # fresh set-up processes per end-to-end run, at least
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The program cannot be benchmarked; no result is printed."""


@dataclass(frozen=True)
class Sample:
    wall: float
    rss_mb: float
    code: int


def child_env() -> dict[str, str]:
    """Environment of every measured process: the checkout's sources, BLAS
    capped at the usable CPU count, no TWOATOM_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TWOATOM_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(cmd: list[str], env: dict, cwd: Path, log: Path) -> Sample:
    """Run a process to completion; wall time and peak RSS from wait4."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def _tail(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


class Run:
    """State of one benchmark run: its workload, directories and samples."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path):
        self.workload = workload
        self.dir = run_dir
        self.env = child_env()
        self.config_text = config_text(workload, seed)
        self.config = run_dir / "workload.cfg"
        self.config.write_text(self.config_text)
        self.reference = lookup(workload.name, self.config_text)
        self.attempted = 0
        self.failed = 0

    def cli_args(self, out_dir: Path, extra=()) -> list[str]:
        return [*self.workload.cli_args, "--config", str(self.config),
                "--out", str(out_dir), *extra]

    def prepare(self) -> str | None:
        """Compile and import the package once, then fetch or compute the oracle."""
        log = self.dir / "prepare.log"
        warm = run_child([sys.executable, "-c", "import twoatom.cli"],
                         self.env, self.dir, log)
        if warm.code != 0:
            raise BenchError(f"cannot import twoatom.cli: {_tail(log)}")
        if self.workload.oracle_args is None:
            return None
        # keyed by the program's sources too, so an edited program never
        # meets an oracle computed by an older one
        digest = hashlib.sha256(self.config_text.encode())
        for source in sorted((ROOT / "src" / "twoatom").glob("*.py")):
            digest.update(source.read_bytes())
        cached = WORK / "oracle" / f"{self.workload.name}-{digest.hexdigest()[:16]}"
        csv = cached / self.workload.csv
        if not csv.is_file():
            staging = self.dir / "oracle"
            staging.mkdir()
            cmd = [sys.executable, "-m", "twoatom.cli",
                   *self.cli_args(staging, self.workload.oracle_args)]
            sample = run_child(cmd, self.env, self.dir, log)
            if sample.code != 0:
                raise BenchError(f"oracle run exited {sample.code}: {_tail(log)}")
            cached.parent.mkdir(parents=True, exist_ok=True)
            shutil.rmtree(cached, ignore_errors=True)
            os.replace(staging, cached)
            print(f"oracle: computed with {' '.join(self.workload.oracle_args)} "
                  f"in {sample.wall:.2f} s")
        print("reference: " + ("recorded series for this config" if self.reference
                               else "none recorded for this config"))
        return csv.read_text()

    def setup_time(self) -> float:
        """Wall time of one fresh process that builds the model and observable."""
        cmd = [sys.executable, str(BENCH / "probe.py"), str(self.config)]
        if self.workload.observable:
            cmd.append(self.workload.observable)
        log = self.dir / "setup.log"
        sample = run_child(cmd, self.env, self.dir, log)
        if sample.code != 0:
            raise BenchError(f"set-up probe exited {sample.code}: {_tail(log)}")
        return sample.wall

    def sample(self, oracle_csv: str | None, spans: Path | None = None):
        """One checked CLI process; traced in-process when spans is given.

        Returns (sample, bytes written, problems)."""
        out = self.dir / f"out-{self.attempted}"
        out.mkdir()
        log = self.dir / "sample.log"
        if spans is None:
            cmd = [sys.executable, "-m", "twoatom.cli", *self.cli_args(out)]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(spans),
                   *self.cli_args(out)]
        s = run_child(cmd, self.env, self.dir, log)
        self.attempted += 1
        written = 0
        if s.code != 0:
            problems = [f"exit code {s.code}: {_tail(log)}"]
        else:
            try:
                csv = (out / self.workload.csv).read_text()
                summary = json.loads((out / self.workload.summary).read_text())
                problems = check_outputs(self.workload.name, csv, summary,
                                         oracle_csv, self.reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            written = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
        self.failed += bool(problems)
        kind = "traced" if spans is not None else "untraced"
        verdict = "pass" if not problems else "FAIL " + "; ".join(problems)
        print(f"sample {self.attempted} {kind}: wall {s.wall:.4f} s, "
              f"rss {s.rss_mb:.1f} MB, check {verdict}")
        return s, written, problems


def end_to_end(run: Run, seconds: float, oracle: str | None) -> dict[str, float]:
    # set-up probes alternate with the samples, so that a slow spell of the
    # machine affects both alike
    samples, setups = [], []
    start = time.monotonic()
    while (len(samples) < run.workload.min_samples
           or time.monotonic() - start < seconds):
        samples.append(run.sample(oracle)[0])
        setups.append(run.setup_time())
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.setup_time())
    walls = [s.wall for s in samples]
    q1, _, q3 = quartiles(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "setup_s": statistics.median(setups),
        "pass_share": (run.attempted - run.failed) / run.attempted,
    }
    print(f"wall_s: median of {len(walls)} samples, quartiles {q1:.4f} .. {q3:.4f} s")
    print(f"setup_s: median of {len(setups)} set-up processes")
    return metrics


def per_layer(run: Run, seconds: float, oracle: str | None) -> dict[str, float]:
    untraced, traced = [], []
    start = time.monotonic()
    while len(traced) < MIN_TRACED or time.monotonic() - start < seconds:
        untraced.append(run.sample(oracle)[0].wall)
        spans_path = run.dir / "spans.json"
        sample, written, _ = run.sample(oracle, spans=spans_path)
        if sample.code == 0:
            traced.append((sample.wall, written, json.loads(spans_path.read_text())))
    if not traced:
        raise BenchError("no traced run succeeded")
    baseline = statistics.median(untraced)
    rows = [layer_metrics([Span(**s) for s in data["spans"]], data["counters"],
                          wall, baseline, written)
            for wall, written, data in traced]
    print(f"per-layer medians over {len(rows)} traced runs "
          f"(untraced median {baseline:.4f} s over {len(untraced)} runs)")
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    gap, overhead = values["trace.interpreter_s"], values["trace.overhead_s"]
    verdict = "yes" if abs(gap) <= abs(overhead) else "no"
    print(f"self times sum to {values['trace.wall_s'] - gap:.4f} s against a traced "
          f"wall of {values['trace.wall_s']:.4f} s; within |trace.overhead_s| = "
          f"{abs(overhead):.4f} s: {verdict}")
    return values


def environment(env: dict, run_dir: Path) -> dict:
    out = subprocess.run([sys.executable, str(BENCH / "envinfo.py")], env=env,
                         cwd=run_dir, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"cannot read the environment: {out.stderr.strip()}")
    return json.loads(out.stdout)


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "twoatom" / "cli.py").is_file():
        print(f"bench: no twoatom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        run = Run(workload, args.seed, run_dir)
        print(f"workload: {workload.name} seed {args.seed} -- {why[workload.name]}")
        print("config: " + json.dumps(run.config_text))
        print("env: " + json.dumps(environment(run.env, run_dir), sort_keys=True))
        oracle = run.prepare()
        measure = per_layer if args.trace else end_to_end
        values = measure(run, args.seconds, oracle)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"BENCHMARK.json declares unmeasured metrics {missing}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
