"""Run the benchmark over workloads and seeds, print and compare the results.

    python3 bench/report.py [--seeds 1] [--trace 0|1] [--save FILE]
    python3 bench/report.py --compare BEFORE.json AFTER.json

The first form runs ``bench/run.py`` once per seed on every workload of
``BENCHMARK.json`` for its ``run_seconds``.  ``--seeds`` takes a list such as
``1-10`` or ``3,5``; ``SEED*N`` repeats one seed N times, which shows the
run-to-run spread of one input.  It prints every metric by name and unit
with each check's verdict, and summarises
each metric per workload as median, quartiles and spread (interquartile
range over median) against the bound in ``BENCHMARK.json``.  ``--save``
writes the raw results, seeds, generated configs and environment to a JSON
file.  ``--compare`` reads two saved files and flags every end-to-end
metric whose median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from spec import ROOT, load_spec, quartiles

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        part, _, times = part.partition("*")
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1)) * int(times or 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "exit_code": proc.returncode,
              "run_wall_s": round(time.monotonic() - start, 1)}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        record["error"] = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return record
    for line in lines:
        key, _, rest = line.partition(": ")
        if key in ("config", "env"):
            record[key] = json.loads(rest)
        elif line.startswith("self times sum"):
            record["self_time_check"] = line
    samples = [line for line in lines if line.startswith("sample ")]
    record["checks"] = [line.split(" check ", 1)[1] for line in samples]
    record["sample_walls"] = [float(line.split(" wall ", 1)[1].split()[0])
                              for line in samples]
    record["result"] = json.loads(lines[-1])
    return record


def quartile_summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def summarise(records: list[dict]) -> dict:
    """workload -> metric -> quartile summary over the runs that succeeded."""
    out: dict = {}
    for r in records:
        for name, m in r.get("result", {}).get("metrics", {}).items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return {w: {name: quartile_summary(v) for name, v in metrics.items()}
            for w, metrics in out.items()}


def print_run(r: dict) -> None:
    head = f"{r['workload']} seed {r['seed']}"
    if "result" not in r:
        print(f"{head}: ERROR exit {r['exit_code']}: {' '.join(r['error'])}")
        return
    res = r["result"]
    verdicts = sorted(set(r["checks"]))
    print(f"{head}: correct={res['correct']} {res['attempted'] - res['failed']}"
          f"/{res['attempted']} runs passed; checks: {', '.join(verdicts)}")
    if "self_time_check" in r:
        print(f"    {r['self_time_check']}")
    for name, m in res["metrics"].items():
        print(f"    {name:44s} {m['value']:14.6g} {m['unit']}")


def print_summary(summary: dict, spec: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, metrics in summary.items():
        print(f"{workload}:")
        for name, s in metrics.items():
            line = (f"    {name:44s} median {s['median']:12.6g}  "
                    f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  n {s['n']}")
            if name in bounds and s["n"] > 1:
                ratio = s["spread"] / bounds[name]
                line += (f"  spread {s['spread']:.3f} = {ratio:.2f} of bound "
                         f"{bounds[name]}")
            print(line)


def compare(before_path: str, after_path: str, spec: dict) -> int:
    before = json.loads(Path(before_path).read_text())["summary"]
    after = json.loads(Path(after_path).read_text())["summary"]
    worse = 0
    for m in spec["end_to_end"]:
        for workload in sorted(set(before) & set(after)):
            if m["name"] not in before[workload] or m["name"] not in after[workload]:
                continue
            a = before[workload][m["name"]]["median"]
            b = after[workload][m["name"]]["median"]
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "WORSE" if change > m["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:18s} {m['name']:12s} {a:12.6g} -> {b:12.6g} "
                  f"{m['unit']:3s} worse by {change:+.3f} (bound {m['bound']}) {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)

    seconds = spec["run_seconds"]
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in parse_seeds(args.seeds):
            record = run_once(workload, seed, seconds, args.trace)
            print_run(record)
            sys.stdout.flush()
            records.append(record)
    summary = summarise(records)
    print_summary(summary, spec)
    if args.save:
        env = next((r["env"] for r in records if "env" in r), None)
        Path(args.save).write_text(json.dumps(
            {"seconds": seconds, "trace": args.trace, "env": env,
             "summary": summary, "runs": records}, indent=1) + "\n")
    failed = any("result" not in r or not r["result"]["correct"] for r in records)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
