"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload keyword-2d --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` instruments every layer, prints the
per-layer metrics, writes the span log under ``.perfbench/`` and reports the
tracing overhead against an untraced run of the same seed in a child
process.  The program is imported from ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, metrics  # noqa: E402

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "update_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "messages_per_query": "count",
    "processing_nodes_per_query": "count",
}

LAYER_UNITS = {
    "keywords.parse.calls": "count",
    "keywords.parse.self_ms": "ms",
    "keywords.filter.calls": "count",
    "keywords.filter.self_ms": "ms",
    "keywords.filter.pass_ratio": "ratio",
    "sfc.encode.self_ms": "ms",
    "sfc.refine.calls": "count",
    "sfc.refine.self_ms": "ms",
    "sfc.refine.clusters_out": "count",
    "overlay.route.calls": "count",
    "overlay.route.self_ms": "ms",
    "overlay.route.hops": "count",
    "overlay.membership.self_ms": "ms",
    "store.scan.calls": "count",
    "store.scan.elements": "count",
    "store.scan.self_ms": "ms",
    "store.write.self_ms": "ms",
    "engine.work_entries": "count",
    "engine.entries_per_message": "ratio",
    "engine.self_ms": "ms",
    "engine.budget_exhausted": "count",
    "plancache.hit_ratio": "ratio",
    "resultcache.hit_ratio": "ratio",
    "resultcache.invalidate.self_ms": "ms",
    "loadbalance.join.self_ms": "ms",
    "net.transport.self_ms": "ms",
    "net.transport.wait_ms": "ms",
    "net.encode.self_ms": "ms",
    "net.wire.self_ms": "ms",
    "other.self_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(workload, tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of a traced run (see README for each one)."""
    summary = tracer.summary()

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def self_ms(*names):
        return sum(get(n, "self_s") for n in names) * 1e3

    counts = tracer.counts
    run = workload.run
    costs = run.costs
    executed = [c for c in costs if not c[4]]
    messages = sum(c[1] for c in costs)
    entries = get("engine.process", "calls")
    filter_calls = get("keywords.filter", "calls")
    server_s = get("net.transport", "total_s") + get("net.encode", "total_s")
    return {
        "keywords.parse.calls": get("keywords.parse", "calls"),
        "keywords.parse.self_ms": self_ms("keywords.parse"),
        "keywords.filter.calls": filter_calls,
        "keywords.filter.self_ms": self_ms("keywords.filter"),
        "keywords.filter.pass_ratio": (
            counts.get("keywords.filter.passed", 0) / filter_calls if filter_calls else 0.0
        ),
        "sfc.encode.self_ms": self_ms("sfc.encode"),
        "sfc.refine.calls": get("sfc.refine", "calls"),
        "sfc.refine.self_ms": self_ms("sfc.refine"),
        "sfc.refine.clusters_out": counts.get("sfc.refine.clusters_out", 0),
        "overlay.route.calls": get("overlay.route", "calls"),
        "overlay.route.self_ms": self_ms("overlay.route"),
        "overlay.route.hops": counts.get("overlay.route.hops", 0),
        "overlay.membership.self_ms": self_ms("overlay.membership"),
        "store.scan.calls": get("store.scan", "calls"),
        "store.scan.elements": counts.get("store.scan.elements", 0),
        "store.scan.self_ms": self_ms("store.scan"),
        "store.write.self_ms": self_ms("store.write"),
        "engine.work_entries": entries,
        "engine.entries_per_message": entries / messages if messages else 0.0,
        "engine.self_ms": self_ms("engine.process", "engine.run"),
        "engine.budget_exhausted": run.budget_exhausted,
        "plancache.hit_ratio": (
            sum(1 for c in executed if c[3]) / len(executed) if executed else 0.0
        ),
        "resultcache.hit_ratio": sum(1 for c in costs if c[4]) / len(costs) if costs else 0.0,
        "resultcache.invalidate.self_ms": self_ms("resultcache.invalidate"),
        "loadbalance.join.self_ms": self_ms("loadbalance.join"),
        # The transport span lasts while its request waits for the other
        # connection's work; that waiting is reported on its own.
        "net.transport.self_ms": (
            self_ms("net.transport") - counts.get("net.transport.wait_s", 0.0) * 1e3
        ),
        "net.transport.wait_ms": counts.get("net.transport.wait_s", 0.0) * 1e3,
        "net.encode.self_ms": self_ms("net.encode"),
        "net.wire.self_ms": (
            (getattr(workload, "client_seconds", 0.0) - server_s) * 1e3 if server_s else 0.0
        ),
        "other.self_ms": (wall_s - tracer.covered_seconds()) * 1e3,
        "trace.wall_ms": wall_s * 1e3,
    }


def untraced_ops_per_s(args) -> float:
    """ops_per_s of an untraced run of the same seed, in a fresh process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--scale", args.scale,
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]["ops_per_s"]["value"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="input sizes; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.scale)
    if args.trace:
        baseline = untraced_ops_per_s(args)
        tracer = tracing.SpanTracer()
        tracing.instrument(tracer)
        start = perf_counter()
        try:
            workload.execute(repeats=1)
        finally:
            wall = perf_counter() - start
            tracer.restore()
    else:
        workload.execute()
    correct, failed = workload.check()

    if args.trace:
        values = layer_metrics(workload, tracer, wall)
        traced = sum(workload.run.attempted.values()) / workload.run.elapsed
        values["trace.overhead_pct"] = (baseline / traced - 1.0) * 100.0
        units = LAYER_UNITS
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(span_file)
        print(f"spans: {len(tracer.kind)} written to {span_file.relative_to(ROOT)}")
    else:
        values = metrics(workload)
        units = UNITS

    run = workload.run
    kinds = ", ".join(
        f"{kind} {run.attempted[kind]} attempted / {run.failed[kind]} failed"
        for kind in sorted(run.attempted)
    )
    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds in {run.elapsed:.2f} s; {kinds}")
    for problem in run.problems[:20]:
        print(f"PROBLEM: {problem}")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted.values()),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
