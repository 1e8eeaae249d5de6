"""The benchmark's own smoke test, at a tiny input size.

    python3 perfbench/smoke.py

Checks, for every workload:

- the untraced run prints every end-to-end metric of BENCHMARK.json,
  with its unit, and every output check passes;
- the traced run emits every per-layer metric of BENCHMARK.json;
- two traced runs at one seed, each in a fresh process, give identical
  call counts, identical ratios and identical output digests;
- the layer self times fit inside the traced wall, and ``spec.json``
  names the same metrics and workloads as BENCHMARK.json.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7

#: Wall-clock-derived ratios, which may differ between two runs.
TIMED_RATIOS = {"trace.overhead_ratio"}


def tiny_sizes(scenarios):
    return scenarios.Sizes(
        crawl_records=60, crawl_content_bytes=256, query_instances=1,
        ingest_partitions=2, ingest_records=8, ingest_content_bytes=256,
        cluster_datasets={
            "crawl_records": 20, "content_bytes": 1024,
            "micro_records": 100, "point_records": 20,
        },
    )


def child(workload: str, trace: int) -> None:
    """Run one workload in this process; print its result and digests."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import scenarios

    outcome, results = run.run_workload(
        workload, SEED, 0.01, bool(trace), tiny_sizes(scenarios),
    )
    outcome["digests"] = [r.digest for r in results]
    print(json.dumps(outcome, sort_keys=True))


def spawn(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", workload, str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    extra = json.loads((HERE / "spec.json").read_text())
    check(
        set(extra["layer_map"]) == set(per_layer)
        and set(extra["workloads"]) == {w["name"] for w in spec["workloads"]},
        "spec.json and BENCHMARK.json name different metrics or workloads",
    )
    for workload in (w["name"] for w in spec["workloads"]):
        plain = spawn(workload, 0)
        check(plain["correct"] and plain["failed"] == 0, f"{workload}: output checks")
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        check(got == end_to_end, f"{workload}: end-to-end metrics {sorted(got)}")
        check(
            all(v["value"] > 0 for v in plain["metrics"].values()),
            f"{workload}: an end-to-end metric is 0",
        )

        first, second = spawn(workload, 1), spawn(workload, 1)
        got = {k: v["unit"] for k, v in first["metrics"].items()}
        check(got == per_layer, f"{workload}: per-layer metrics {sorted(got)}")
        check(first["correct"] and second["correct"], f"{workload}: traced output checks")
        check(first["digests"] == second["digests"], f"{workload}: output digests differ")
        check(
            first["metrics"]["other.self_s"]["value"] >= 0,
            f"{workload}: layer self times exceed the traced wall",
        )
        for name, unit in per_layer.items():
            if (unit == "count" or unit == "bytes" or unit == "ratio") and name not in TIMED_RATIOS:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                check(a == b, f"{workload}: {name} differs between runs ({a} != {b})")
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        child(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit(main())
