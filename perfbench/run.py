"""Wall-clock benchmark of whole runs, with a traced per-layer split.

    python3 perfbench/run.py --workload cluster_mixed --seed 1 --seconds 25 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout it
lives in.  With ``--trace 0`` it measures the end-to-end metrics with no
tracing at all; with ``--trace 1`` it runs the same untraced passes and
then one more pass under the layer tracer and the profiler, and reports
the per-layer metrics instead.  Every op's output is checked either
way.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
clock = time.perf_counter

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "stored_bytes_per_input_byte": "ratio",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure(workload, seconds: float):
    """Set up, then run passes of the same work until ``seconds`` of
    timed wall have accumulated; returns ``(setup times, pass results)``."""
    setups = []
    for _ in range(workload.setup_repeats):
        t0 = clock()
        workload.setup()
        setups.append(clock() - t0)
    results = []
    timed = 0.0
    while timed < seconds:
        if results and workload.setup_per_pass:
            t0 = clock()
            workload.setup()
            setups.append(clock() - t0)
        result = workload.run_pass(len(results))
        if results and len(result.segments) != len(results[0].segments):
            result.problems.append("the pass's event sequence differs from pass 0's")
            result.failed = result.ops
        results.append(result)
        timed += result.wall
    return setups, results


def end_to_end(workload, setups, results) -> dict:
    """The end-to-end metrics of a run's untraced passes.

    Every pass does the same work, cut into the same segments.  Noise on
    a shared machine only ever adds time, so each segment counts at its
    fastest over the passes; an op's latency is the sum of its segments.
    """
    best = [min(column) for column in zip(*(r.segments for r in results))]
    latencies = [
        sum(best[i] for i in indices) for indices in results[0].spans.values()
    ]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": results[0].ops / sum(best),
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stored_bytes_per_input_byte": (
            workload.fs.blockstore.total_bytes / workload.input_size()
        ),
    }


def traced_pass(workload, untraced_wall: float, seed: int):
    """One more pass under the tracer and the profiler, after one
    profiled set-up; returns ``(per-layer metrics, pass result)``."""
    import layertrace

    functions = layertrace.counted_functions()
    setup_profile = cProfile.Profile()
    setup_profile.enable()
    workload.setup()
    setup_profile.disable()
    setup_self_s, _ = layertrace.fold(pstats.Stats(setup_profile), {})

    tracer = layertrace.Tracer()
    result = workload.run_pass(0, probe=tracer)
    self_s, calls = layertrace.fold(pstats.Stats(tracer.profile), functions)
    metrics = layertrace.layer_metrics(
        self_s, calls, tracer, result.wall, untraced_wall,
        result.kept_attempts, setup_self_s,
    )
    tracer.write(
        ROOT / ".perfbench" / f"spans-{workload.name}-{seed}.jsonl",
        {name: value for name, (value, _) in metrics.items()},
    )
    return metrics, result


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes):
    """Run one workload and print its metrics; returns ``(result line,
    pass results)``."""
    import scenarios

    workload = scenarios.WORKLOADS[name](seed, sizes)
    setups, results = measure(workload, seconds)
    if trace:
        metrics, traced = traced_pass(
            workload, statistics.median(r.wall for r in results), seed,
        )
        results.append(traced)
        named = metrics
    else:
        named = {
            k: (v, END_TO_END_UNITS[k])
            for k, v in end_to_end(workload, setups, results).items()
        }
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for problem in r.problems[:5]:
            print(f"CHECK FAILED [{name}] {problem}")
    print(f"== {name} seed={seed} passes={len(results)} ops={attempted}")
    for metric, (value, unit) in named.items():
        print(f"{metric:40s} {value:>16.6g} {unit}")
    print(f"{'fail_ratio':40s} {failed / attempted:>16.6g} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in named.items()
        },
    }, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all",
        help="cluster_mixed, crawl_queries, ingest, or all (default)",
    )
    parser.add_argument("--seed", type=int, default=20110401)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no package to benchmark at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import scenarios

    names = list(scenarios.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in scenarios.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    ok = True
    for name in names:
        outcome, _ = run_workload(
            name, args.seed, args.seconds, bool(args.trace), scenarios.Sizes(),
        )
        ok = ok and outcome["correct"]
        print(json.dumps(outcome, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
