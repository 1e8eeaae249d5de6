"""The benchmark's three workloads.

Each workload makes its inputs from the seed alone, runs one *pass* of
ops through the public entry points the way a user would, and checks
every output after the pass, outside the timed region.  Every pass of a
run does the same work: ``crawl_queries`` and ``ingest`` replay one
seeded op sequence, and a ``cluster_mixed`` pass is one whole
``repro cluster run --json`` over the built-in traffic trace.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.bench import harness
from repro.check.generators import freeze, normalize
from repro.check.oracle import scan_records
from repro.cluster import traffic
from repro.cluster.manager import ClusterManager
from repro.compress.codecs import get_codec
from repro.core import ColumnSpec, cof
from repro.core.cif import ColumnInputFormat
from repro.formats import rcfile, sequence_file
from repro.hdfs import FileSystem
from repro.mapreduce import runner
from repro.obs import EventBus, MetricRegistry, NULL_TRACER, Observability
from repro.obs.alerts import ClusterMonitor
from repro.obs.tsdb import reconcile_tsdb
from repro.query import Q, avg, col, count, max_
from repro.serde.binary import encode_datum
from repro.workloads.crawl import (
    CRAWL_PREDICATE,
    compress_content_column,
    crawl_records,
    crawl_schema,
)
from repro.workloads.jobs import distinct_content_types_job
from repro.workloads.micro import micro_records, micro_schema

clock = time.perf_counter

HERE = Path(__file__).resolve().parent

#: The seed ``repro cluster run`` uses by default; at this seed the
#: ``--json`` report must hash to the digest stored beside this file.
CLUSTER_DEFAULT_SEED = traffic.TrafficProfile().seed
CLUSTER_DIGEST_FILE = HERE / "cluster_mixed.sha256"

TERMINAL_EVENTS = ("job.finish", "admission.reject", "admission.shed")
PROGRAM_OUTCOMES = ("completed", "rejected", "shed")

#: Table 1's eleven layouts, in the paper's order.
LAYOUTS = [
    "SEQ-uncomp", "SEQ-record", "SEQ-block", "SEQ-custom",
    "RCFile", "RCFile-comp",
    "CIF-ZLIB", "CIF", "CIF-LZO", "CIF-SL", "CIF-DCSL",
]
#: metadata-column layout of each CIF variant (Section 6.3)
CIF_METADATA = {
    "CIF": None,
    "CIF-ZLIB": ColumnSpec("cblock", codec="zlib", block_bytes=4 * 1024),
    "CIF-LZO": ColumnSpec("cblock", codec="lzo", block_bytes=4 * 1024),
    "CIF-SL": ColumnSpec("skiplist"),
    "CIF-DCSL": ColumnSpec("dcsl"),
}


@dataclass
class Sizes:
    """Input sizes; the smoke test shrinks them."""

    crawl_records: int = 400
    crawl_content_bytes: int = 2048
    query_instances: int = 6          # per template, per pass
    ingest_partitions: int = 10
    ingest_records: int = 60
    ingest_content_bytes: int = 2048
    cluster_datasets: Optional[Dict[str, int]] = None   # profile default


@dataclass
class PassResult:
    wall: float                       # timed seconds of the pass
    ops: int
    failed: int = 0
    #: The pass's timed wall cut into consecutive segments that do the
    #: same work in every pass, and the indices of each op's segments.
    segments: List[float] = field(default_factory=list)
    spans: Dict[str, List[int]] = field(default_factory=dict)
    kept_attempts: int = 0            # cluster_mixed: attempts kept
    problems: List[str] = field(default_factory=list)
    digest: str = ""                  # sha256 of the pass's outputs


@dataclass
class Op:
    op_id: str
    fn: Callable[[], object]


def timed_region(probe):
    """The traced run's probe covers exactly the timed region."""
    return probe.region() if probe is not None else contextlib.nullcontext()


def run_ops(ops: List[Op], probe=None) -> tuple:
    """Run ops back to back (closed loop, one client); returns
    ``(loop wall, per-op walls, outputs, errors)``.  The traced run's
    ``probe`` marks each op's boundary."""
    if probe is not None:
        ops = [Op(op.op_id, probe.op_fn(op.op_id, op.fn)) for op in ops]
    walls: List[float] = []
    outputs: List[object] = []
    errors: Dict[int, str] = {}
    with timed_region(probe):
        start = clock()
        for index, op in enumerate(ops):
            t0 = clock()
            try:
                outputs.append(op.fn())
            except Exception as exc:   # an op that raises is a failed op
                outputs.append(None)
                errors[index] = f"{op.op_id}: {type(exc).__name__}: {exc}"
            walls.append(clock() - t0)
        wall = clock() - start
    return wall, walls, outputs, errors


def encoded_bytes(schema, records) -> int:
    """Bytes of the records each encoded once with the binary serde."""
    return sum(len(encode_datum(schema, r)) for r in records)


def _layout_fs() -> FileSystem:
    fs = harness.cluster_fs(num_nodes=8, block_size=1 << 20)
    fs.use_column_placement()
    return fs


def write_layout(fs: FileSystem, layout: str, path: str, records) -> None:
    """Write ``records`` at ``path`` in one of Table 1's layouts."""
    schema = crawl_schema()
    if layout == "SEQ-uncomp":
        sequence_file.write_sequence_file(fs, path, schema, records)
    elif layout in ("SEQ-record", "SEQ-block"):
        sequence_file.write_sequence_file(
            fs, path, schema, records, compression=layout[4:],
        )
    elif layout == "SEQ-custom":
        sequence_file.write_sequence_file(
            fs, path, schema, list(compress_content_column(records)),
        )
    elif layout in ("RCFile", "RCFile-comp"):
        rcfile.write_rcfile(
            fs, path, schema, records,
            row_group_bytes=harness.MICRO_ROW_GROUP,
            codec="zlib" if layout == "RCFile-comp" else None,
        )
    else:
        spec = CIF_METADATA[layout]
        cof.write_dataset(
            fs, path, schema, records,
            specs={"metadata": spec} if spec else None,
            split_bytes=harness.MICRO_BLOCK // 2,
        )


def _read_layout(fs: FileSystem, layout: str, path: str) -> list:
    if layout.startswith("SEQ"):
        fmt = sequence_file.SequenceFileInputFormat(path)
    elif layout.startswith("RCFile"):
        fmt = rcfile.RCFileInputFormat(path)
    else:
        fmt = ColumnInputFormat(path, lazy=False)
    rows, _ = scan_records(fs, fmt)
    return rows


# -- cluster_mixed ---------------------------------------------------------


class ClusterMixed:
    """``repro cluster run --json`` on the built-in 3-tenant profile.

    The arrival trace is always the built-in profile's own (197 requests);
    the workload seed generates the contents of the three datasets and
    the cluster's placement.  Seeded arrivals would make each run's
    request mix a fresh draw: across seeds the run's throughput then
    varies by ~25%, far more than a regression bound can absorb.
    """

    name = "cluster_mixed"
    setup_repeats = 3
    setup_per_pass = True

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.fs: Optional[FileSystem] = None
        self.profile = None

    def setup(self) -> None:
        profile = traffic.sample_profile()
        if self.sizes.cluster_datasets:
            profile.datasets.update(self.sizes.cluster_datasets)
        self.profile = profile
        self.fs = traffic.build_filesystem(
            dataclasses.replace(profile, seed=self.seed)
        )

    def run_pass(self, index: int, probe=None) -> PassResult:
        profile, fs = self.profile, self.fs
        stamps: List[float] = []          # wall time of every bus event
        owners: Dict[str, List[int]] = {}  # job -> indices of its events
        terminal: Dict[str, int] = {}
        splits: Dict[str, int] = {}

        def watch(event) -> None:
            stamps.append(event.wall_time)
            job = event.attrs.get("job")
            if job is None:
                return
            owners.setdefault(job, []).append(len(stamps))
            if event.kind in TERMINAL_EVENTS:
                terminal[job] = terminal.get(job, 0) + 1
            elif event.kind == "admission.accept":
                splits[job] = event.attrs["splits"]

        # The timed region is what the CLI does after building the
        # filesystem: draw the trace, run it with the SLO monitor
        # attached, reconcile the monitor, render the JSON report.
        with timed_region(probe):
            start = clock()
            policy = profile.cluster_policy(None)
            bus = EventBus()
            obs = Observability(
                NULL_TRACER, MetricRegistry(), enabled=True, bus=bus,
            )
            monitor = ClusterMonitor.for_policy(policy).attach(bus)
            bus.subscribe(watch)
            requests = traffic.generate_requests(profile)
            report = ClusterManager(fs, policy, obs=obs).run(requests)
            mismatches = reconcile_tsdb(monitor.store, report)
            payload = report.to_dict()
            payload["slo"] = {
                "statuses": [s.to_dict() for s in monitor.statuses()],
                "alerts": list(monitor.store.alerts),
            }
            text = json.dumps(payload, indent=2, sort_keys=True)
            end = clock()

        # The simulation is deterministic, so the work between two
        # consecutive bus events is the same in every pass.  The manager
        # announces each step (admission, attempt launch, completion,
        # reduce) with an event naming the job and then does it, so the
        # segment after a job's event is that job's work.  A request's
        # latency is the wall the cluster spends on it: the sum of those
        # segments.  (Its latency from arrival to finish is simulated
        # time; in wall it would mostly measure the other requests.)
        bounds = [start] + stamps + [end]
        result = PassResult(
            wall=end - start, ops=len(requests),
            segments=[b - a for a, b in zip(bounds, bounds[1:])],
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        )
        names = {r.job.name: r.request_id for r in requests}
        seen: Dict[int, int] = {}
        bad = set()
        for outcome in report.outcomes:
            seen[outcome.request_id] = seen.get(outcome.request_id, 0) + 1
            if outcome.status not in PROGRAM_OUTCOMES:
                bad.add(outcome.request_id)
                result.problems.append(
                    f"{outcome.job_name}: {outcome.status} ({outcome.error})"
                )
            elif outcome.status == "completed":
                result.kept_attempts += splits.get(outcome.job_name, 0)
        for name, request_id in names.items():
            if seen.get(request_id) != 1 or terminal.get(name) != 1:
                bad.add(request_id)
                result.problems.append(
                    f"{name}: {seen.get(request_id, 0)} outcome(s), "
                    f"{terminal.get(name, 0)} terminal event(s)"
                )
            else:
                result.spans[name] = owners[name]
        if mismatches:
            result.problems += [f"tsdb mismatch: {m}" for m in mismatches]
            bad = set(names.values())
        if self.seed == CLUSTER_DEFAULT_SEED and not self.sizes.cluster_datasets:
            expected = CLUSTER_DIGEST_FILE.read_text().split()[0]
            if result.digest != expected:
                result.problems.append(
                    f"--json report digest {result.digest} != stored {expected}"
                )
                bad = set(names.values())
        result.failed = len(bad)
        return result

    def input_size(self) -> int:
        sizes = self.profile.datasets
        seed = self.seed
        crawl = crawl_records(
            sizes["crawl_records"], content_bytes=sizes["content_bytes"],
            seed=seed,
        )
        return (
            encoded_bytes(crawl_schema(), crawl)
            + encoded_bytes(micro_schema(), micro_records(
                sizes["micro_records"], seed=seed))
            + encoded_bytes(micro_schema(), micro_records(
                sizes["point_records"], seed=seed + 1))
        )


# -- crawl_queries ---------------------------------------------------------

CIF_COPIES = ["CIF", "CIF-SL", "CIF-DCSL"]
JOB_COPIES = ["SEQ-custom", "RCFile-comp"]
ENGINES = ["scalar", "vectorized"]
#: each matches exactly one of the crawl's eight content types
CONTENT_TYPE_WORDS = ["pdf", "xml", "plain", "png", "msword"]
FETCH_BASE = 1_293_840_000     # crawl_records' first fetchTime
FETCH_STEP = 37


def _host(url: str) -> str:
    return url.split("/")[2]


def _fig1_query(dataset: str, params: dict) -> Q:
    """Figure 1's selective group-by."""
    return (
        Q(dataset)
        .where(col("url").contains(CRAWL_PREDICATE))
        .group_by(content_type=col("metadata")["content-type"])
        .aggregate(pages=count(), last_fetch=max_(col("fetchTime")))
    )


def _fig1_truth(records, params) -> list:
    groups: Dict[str, list] = {}
    for r in records:
        if CRAWL_PREDICATE in r.get("url"):
            g = groups.setdefault(r.get("metadata")["content-type"], [0, None])
            g[0] += 1
            t = r.get("fetchTime")
            g[1] = t if g[1] is None else max(g[1], t)
    return [
        {"content_type": k, "pages": v[0], "last_fetch": v[1]}
        for k, v in groups.items()
    ]


def _host_query(dataset: str, params: dict) -> Q:
    """Per-host aggregation over a fetch-time range."""
    return (
        Q(dataset)
        .where(col("fetchTime") >= params["since"])
        .group_by(host=col("url").apply(_host, "host"))
        .aggregate(pages=count(), mean_inlinks=avg(col("inlink").length()))
    )


def _host_truth(records, params) -> list:
    groups: Dict[str, list] = {}
    for r in records:
        if r.get("fetchTime") >= params["since"]:
            g = groups.setdefault(_host(r.get("url")), [0, 0])
            g[0] += 1
            g[1] += len(r.get("inlink"))
    return [
        {"host": k, "pages": v[0], "mean_inlinks": v[1] / v[0]}
        for k, v in groups.items()
    ]


def _projection_query(dataset: str, params: dict) -> Q:
    """Selective projection: recent pages of one content type."""
    return (
        Q(dataset)
        .where(
            (col("fetchTime") > params["after"])
            & col("metadata")["content-type"].contains(params["type"])
        )
        .select("url", fetched=col("fetchTime"))
    )


def _projection_truth(records, params) -> list:
    return [
        {"url": r.get("url"), "fetched": r.get("fetchTime")}
        for r in records
        if r.get("fetchTime") > params["after"]
        and params["type"] in r.get("metadata")["content-type"]
    ]


TEMPLATES = {
    "fig1": (_fig1_query, _fig1_truth),
    "host": (_host_query, _host_truth),
    "projection": (_projection_query, _projection_truth),
}


def canonical_rows(rows) -> list:
    """Order-free comparable form of a result's rows."""
    return sorted((freeze(normalize(row)) for row in rows), key=repr)


class CrawlQueries:
    """Closed loop, one client: seeded queries over one crawl dataset."""

    name = "crawl_queries"
    setup_repeats = 5
    setup_per_pass = False

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.fs: Optional[FileSystem] = None
        self.records: list = []
        self.ops: List[Op] = []
        self.expected: List[list] = []

    def setup(self) -> None:
        fs = _layout_fs()
        records = list(crawl_records(
            self.sizes.crawl_records, selectivity=0.1,
            content_bytes=self.sizes.crawl_content_bytes, seed=self.seed,
        ))
        for layout in CIF_COPIES + JOB_COPIES:
            write_layout(fs, layout, f"/crawl/{layout}", records)
        self.fs, self.records = fs, records

    def input_size(self) -> int:
        return encoded_bytes(crawl_schema(), self.records)

    def plan(self) -> None:
        """The seeded op sequence of one pass and each op's expected rows
        (ground truth over the generated records; computed untimed)."""
        rng = random.Random(f"{self.seed}:queries")
        n = self.sizes.crawl_records
        k = self.sizes.query_instances
        planned = []
        for template in TEMPLATES:
            for i in range(k):
                # Stratified draws keep each pass's total work steady.
                frac = (i + rng.random()) / (2 * k)
                params = {
                    "since": FETCH_BASE + int(frac * n) * FETCH_STEP,
                    "after": FETCH_BASE + int((frac + 0.25) * n) * FETCH_STEP,
                    "type": rng.choice(CONTENT_TYPE_WORDS),
                }
                truth = canonical_rows(
                    TEMPLATES[template][1](self.records, params)
                )
                for layout in CIF_COPIES:
                    for engine in ENGINES:
                        planned.append((
                            f"{template}#{i}@{layout}/{engine}",
                            self._query_op(template, params, layout, engine),
                            truth,
                        ))
        job_truth = sorted({
            r.get("metadata")["content-type"]
            for r in self.records if CRAWL_PREDICATE in r.get("url")
        })
        for layout in JOB_COPIES:
            planned.append((
                f"fig1-job@{layout}", self._job_op(layout), job_truth,
            ))
        rng.shuffle(planned)
        self.ops = [Op(op_id, fn) for op_id, fn, _ in planned]
        self.expected = [truth for _, _, truth in planned]

    def _query_op(self, template, params, layout, engine):
        build = TEMPLATES[template][0]
        dataset = f"/crawl/{layout}"

        def op():
            return build(dataset, params).run(self.fs, execution=engine).rows

        return op

    def _job_op(self, layout):
        path = f"/crawl/{layout}"

        def op():
            if layout.startswith("SEQ"):
                fmt = sequence_file.SequenceFileInputFormat(path)
            else:
                fmt = rcfile.RCFileInputFormat(
                    path, columns=["url", "metadata"]
                )
            job = distinct_content_types_job(fmt, num_reducers=4)
            return runner.run_job(self.fs, job).output

        return op

    def run_pass(self, index: int, probe=None) -> PassResult:
        if not self.ops:
            self.plan()
        wall, walls, outputs, errors = run_ops(self.ops, probe)
        result = PassResult(
            wall=wall, ops=len(self.ops), segments=walls,
            spans={op.op_id: [i] for i, op in enumerate(self.ops)},
        )
        digest = hashlib.sha256()
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            if i in errors:
                result.problems.append(errors[i])
                continue
            if op.op_id.startswith("fig1-job"):
                got = sorted(key for key, _ in out)
            else:
                got = canonical_rows(out)
            digest.update(repr(got).encode("utf-8"))
            if got != self.expected[i]:
                result.problems.append(f"{op.op_id}: rows differ from ground truth")
        result.digest = digest.hexdigest()
        result.failed = len(result.problems)
        return result


# -- ingest ------------------------------------------------------------------


class Ingest:
    """Closed loop, one writer: each partition into each Table 1 layout."""

    name = "ingest"
    setup_repeats = 11
    setup_per_pass = False

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.seed = seed
        self.sizes = sizes
        self.partitions: List[list] = []
        self.fs: Optional[FileSystem] = None
        self.digest: Optional[str] = None

    def setup(self) -> None:
        self.partitions = [
            list(crawl_records(
                self.sizes.ingest_records,
                content_bytes=self.sizes.ingest_content_bytes,
                seed=self.seed * 1000 + p,
            ))
            for p in range(self.sizes.ingest_partitions)
        ]

    def input_size(self) -> int:
        return sum(
            encoded_bytes(crawl_schema(), part) for part in self.partitions
        )

    def _ops(self, fs: FileSystem) -> List[Op]:
        ops = []
        for p, part in enumerate(self.partitions):
            for layout in LAYOUTS:
                path = f"/ingest/{layout}/part-{p}"
                ops.append(Op(
                    f"{layout}/part-{p}",
                    lambda layout=layout, path=path, part=part:
                        write_layout(fs, layout, path, part),
                ))
        return ops

    @staticmethod
    def _fs_digest(fs: FileSystem) -> str:
        """sha256 over every file's path and bytes, in path order."""
        h = hashlib.sha256()
        pending = ["/"]
        while pending:
            path = pending.pop()
            if fs.is_dir(path):
                base = path.rstrip("/")
                pending += [f"{base}/{n}" for n in sorted(fs.listdir(path), reverse=True)]
            else:
                h.update(path.encode("utf-8"))
                h.update(fs.read_file(path))
        return h.hexdigest()

    def run_pass(self, index: int, probe=None) -> PassResult:
        fs = _layout_fs()
        ops = self._ops(fs)
        wall, walls, _, errors = run_ops(ops, probe)
        result = PassResult(
            wall=wall, ops=len(ops), segments=walls,
            spans={op.op_id: [i] for i, op in enumerate(ops)},
        )
        result.problems = list(errors.values())
        digest = result.digest = self._fs_digest(fs)
        # Every pass writes the same bytes; the first pass's filesystem
        # is read back in full, later passes must store identical bytes.
        if self.digest is None:
            self.digest = digest
            self.fs = fs
            result.problems += self.read_back(fs)
        elif digest != self.digest:
            result.problems.append(f"pass {index} stored different bytes")
            result.failed = result.ops
            return result
        result.failed = len(result.problems)
        return result

    def read_back(self, fs: FileSystem) -> List[str]:
        """Untimed: every partition reads back equal to its input."""
        problems = []
        lzo = get_codec("lzo")
        for p, part in enumerate(self.partitions):
            expected = [normalize(r) for r in part]
            for layout in LAYOUTS:
                path = f"/ingest/{layout}/part-{p}"
                try:
                    rows = _read_layout(fs, layout, path)
                except Exception as exc:
                    problems.append(f"{layout}/part-{p}: {type(exc).__name__}: {exc}")
                    continue
                if layout == "SEQ-custom":
                    for row in rows:
                        row["content"] = lzo.decompress(row["content"])
                if rows != expected:
                    problems.append(f"{layout}/part-{p}: read back differs")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (ClusterMixed, CrawlQueries, Ingest)
}
