"""Steadiness check: one workload, several seeds, each run a fresh process.

    python3 perfbench/steady.py --workload keyword-2d --seeds 1-10 --seconds 10
    python3 perfbench/steady.py --workload keyword-2d --seeds 1-10 --sets 2

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` beside the metric's bound from ``BENCHMARK.json``.
With ``--sets N`` the same seeds run N times over; each set gets its own
table, and the shift of each later set's median from the first one's is
judged against the same bound, which measures run-to-run noise of the same
code and inputs.  The share of failed operations must be the same in every
run.  All run results, with the Python and NumPy versions and the CPU
count, are written to ``.perfbench/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread_table(results: list[dict], bounds: dict[str, float]) -> list[dict]:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        rows.append({
            "metric": name, "unit": results[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the seeds this many times over (default 1)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }
    seeds = parse_seeds(args.seeds)
    sets: list[list[dict]] = []
    for number in range(args.sets):
        results = []
        for seed in seeds:
            result = run_once(args.workload, seed, seconds)
            result.update(seed=seed, set=number, environment=environment)
            results.append(result)
            share = Fraction(result["failed"], result["attempted"])
            print(f"set {number} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({float(share):.4f})", flush=True)
        sets.append(results)

    steady = True
    tables = []
    for number, results in enumerate(sets):
        rows = spread_table(results, bounds)
        tables.append(rows)
        print(f"\n{args.workload} set {number}: {len(results)} runs of {seconds} s; "
              f"python {environment['python']}, numpy {environment['numpy']}, "
              f"{environment['cpus']} cpus")
        print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for row in rows:
            bound = row["bound"]
            ok = bound is None or row["spread"] < bound
            steady &= ok
            flag = "" if ok else "  OVER BOUND"
            print(f"{row['metric']:28} {row['median']:12.5g} {row['q1']:12.5g} "
                  f"{row['q3']:12.5g} {row['spread']:8.4f} "
                  f"{bound if bound is not None else '-':>6}{flag}")
    for number, rows in enumerate(tables[1:], start=1):
        print(f"\nmedian of set {number} against set 0 (shift = set {number} / set 0 - 1)")
        for first, row in zip(tables[0], rows):
            shift = row["median"] / first["median"] - 1.0 if first["median"] else float("inf")
            bound = row["bound"]
            ok = bound is None or abs(shift) < bound
            steady &= ok
            flag = "" if ok else "  OVER BOUND"
            print(f"{row['metric']:28} {first['median']:12.5g} {row['median']:12.5g} "
                  f"{shift:+8.4f} {bound if bound is not None else '-':>6}{flag}")
    results = [r for results in sets for r in results]
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    if len(shares) > 1:
        steady = False
        print(f"failed share differs between runs: {sorted(map(float, shares))}")
    if not all(r["correct"] for r in results):
        steady = False
        print("some runs were not correct")

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seconds": seconds, "environment": environment,
         "runs": results, "spread": tables}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
