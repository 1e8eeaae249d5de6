"""The traced run: spans and counts at layer boundaries, self time by layer.

Wrappers installed from this file (never from inside the program)
record one span per call of each entry point below -- name, start, end,
parent span and the op the call belongs to -- plus the counts the
per-layer ratios need.  Leaf layers that are called about a million
times per run (util varints and buffers, sim charges) are left to a
deterministic profiler: :func:`fold` turns its call graph into self
time per layer and exact call counts.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import json
import os
import pstats
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

import repro
from repro.cluster.manager import ClusterManager
from repro.compress.codecs import Codec
from repro.core import cof, columnio
from repro.formats import rcfile, sequence_file
from repro.hdfs.blockstore import BlockStore
from repro.hdfs.filesystem import FileSystem
from repro.mapreduce.runner import JobRunner
from repro.obs.events import EventBus
from repro.query.query import Q
from repro.serde import vecdecode
from repro.serde.binary import BinaryDecoder, BinaryEncoder
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.util import varint

clock = time.perf_counter

#: Spans kept per traced pass; later calls are still counted.
SPAN_CAP = 200_000

#: A layer is a ``repro.<package>``; two modules are also reported as
#: sub-layers, whose self time is part of their package's.
LAYERS = (
    "hdfs", "util", "serde", "compress", "sim", "formats", "core",
    "query", "mapreduce", "cluster", "obs", "workloads",
)
SUBLAYERS = {
    os.path.join("serde", "vecdecode.py"): "serde.vecdecode",
    os.path.join("mapreduce", "scheduler.py"): "mapreduce.scheduler",
}
REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


class Tracer:
    """In-memory spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []    # (id, op, name, start, end, parent)
        self.counts: Counter = Counter()
        self.fetched: Counter = Counter()   # block id -> fetches
        self.op: Optional[str] = None
        self.origin = clock()
        self._stack: List[int] = []
        self._next_id = 0
        self._patches: List[tuple] = []
        self.profile = cProfile.Profile()

    @contextlib.contextmanager
    def region(self):
        """Trace and profile the enclosed (timed) code."""
        self._install()
        try:
            self.profile.enable()
            try:
                yield
            finally:
                self.profile.disable()
        finally:
            self._uninstall()

    # -- spans ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, op_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            previous_op = tracer.op
            if op_of is not None:
                tracer.op = op_of(args)
            tracer._stack.append(span_id)
            tracer.counts[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((
                        span_id, tracer.op, name,
                        start - tracer.origin, end - tracer.origin, parent,
                    ))
                tracer.op = previous_op
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def op_fn(self, op_id: str, fn):
        """``fn`` as one benchmark op: a root span carrying ``op_id``."""
        return self._wrap("op", fn, op_of=lambda args: op_id)

    def patch(self, owner, attr: str, name: str, after=None, op_of=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, after, op_of))

    # -- the entry points ------------------------------------------------

    def _install(self) -> None:
        counts, fetched = self.counts, self.fetched

        def served(args, result):
            fetched[args[1].block_id] += 1
            counts["hdfs.bytes_served"] += len(result[0])

        def checksummed(args, result):
            counts["hdfs.checksum_bytes"] += len(args[0].get(args[1]))

        def compressed(args, result):
            counts["compress.bytes_in"] += len(args[1])

        self.patch(FileSystem, "fetch_block", "hdfs.fetch_block", served)
        self.patch(BlockStore, "verify", "hdfs.verify", checksummed)
        self.patch(BinaryDecoder, "read_datum", "serde.read_datum")
        self.patch(Codec, "compress", "compress.compress", compressed)
        self.patch(Q, "run", "query.Q.run")
        self.patch(JobRunner, "run", "mapreduce.run_job")
        # A cluster attempt runs on behalf of one request: its job name.
        self.patch(
            JobRunner, "execute_map_attempt", "mapreduce.map_attempt",
            op_of=lambda args: self.op or args[1].name,
        )
        self.patch(ClusterManager, "run", "cluster.ClusterManager.run")
        self.patch(sequence_file, "write_sequence_file", "formats.write_sequence_file")
        self.patch(rcfile, "write_rcfile", "formats.write_rcfile")
        self.patch(cof, "write_dataset", "core.write_dataset")

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, summary: dict) -> None:
        """Spans as JSON lines, then one summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, op, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "op": op, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
            handle.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")


# -- the profile fold ----------------------------------------------------------


def _key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _methods(module, names) -> List:
    """Every function named in ``names`` defined on a class of ``module``."""
    found = []
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for name in names:
                fn = obj.__dict__.get(name)
                if callable(fn):
                    found.append(fn)
    return found


def counted_functions() -> Dict[str, List]:
    """Call counts read from the profile, by metric name."""
    charges = [
        fn for name, fn in vars(CpuCostModel).items()
        if name.startswith("charge_")
    ] + [Metrics.charge_cpu]
    return {
        "util.varint_decode.calls": [varint.decode_varint],
        "util.varint_encode.calls": [varint.encode_varint],
        "serde.read_datum.calls": [BinaryDecoder.read_datum],
        "serde.skip_datum.calls": [BinaryDecoder.skip_datum],
        "serde.write_datum.calls": [BinaryEncoder.write_datum],
        "sim.charge.calls": charges,
        "core.read_value.calls": _methods(columnio, ["read_value"]),
        "core.read_vector.calls": _methods(columnio, ["read_vector"]),
        "core.skip.calls": _methods(columnio, ["skip"]),
        "mapreduce.map_tasks": [JobRunner._run_map_task],
        "cluster.map_attempts": [ClusterManager._execute_attempt],
        "obs.events": [EventBus.emit],
        "vecdecode.kernels": [vecdecode._kernel],
        "vecdecode.fallbacks": [vecdecode._fallback],
    }


def _source_layer(filename: str) -> tuple:
    """(layer, sub-layer) of a Python source file."""
    path = os.path.abspath(filename)
    if not path.startswith(REPRO_DIR):
        return ("other", None)
    rel = path[len(REPRO_DIR):]
    package = rel.split(os.sep)[0]
    if package not in LAYERS:
        return ("other", None)
    return (package, SUBLAYERS.get(rel))


def fold(stats: pstats.Stats, functions: Dict[str, List]) -> tuple:
    """Self time per layer and call counts from one profile.

    A C builtin (``zlib.crc32``, ``zlib.compress``, ``dict.get`` ...)
    has no source file of its own: its time on each call edge goes to
    the layer of the caller on that edge, so checksums land in hdfs and
    compression in compress.
    """
    table = stats.stats
    memo: Dict[tuple, tuple] = {}

    def layer_of(func, depth=0) -> tuple:
        if func in memo:
            return memo[func]
        filename = func[0]
        if filename != "~":
            memo[func] = _source_layer(filename)
            return memo[func]
        # A builtin called by a builtin: the layer of its heaviest caller.
        memo[func] = ("other", None)
        callers = table.get(func, (0, 0, 0, 0, {}))[4]
        if callers and depth < 8:
            heaviest = max(callers, key=lambda c: callers[c][2])
            memo[func] = layer_of(heaviest, depth + 1)
        return memo[func]

    self_s: Counter = Counter()

    def charge(where: tuple, seconds: float) -> None:
        layer, sub = where
        self_s[layer] += seconds
        if sub:
            self_s[sub] += seconds

    for func, (_, _, tt, _, callers) in table.items():
        if func[0] != "~":
            charge(layer_of(func), tt)
            continue
        attributed = 0.0
        for caller, edge in callers.items():
            charge(layer_of(caller), edge[2])
            attributed += edge[2]
        charge(("other", None), max(tt - attributed, 0.0))

    calls = {}
    for metric, fns in functions.items():
        keys = {_key(fn) for fn in fns}
        calls[metric] = sum(table[k][1] for k in keys if k in table)
    return self_s, calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    self_s: Counter,
    calls: Dict[str, int],
    tracer: Tracer,
    traced_wall: float,
    untraced_wall: float,
    kept_attempts: int,
    setup_self_s: Counter,
) -> Dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    counts = tracer.counts
    fetches = counts["hdfs.fetch_block"]
    accesses = (
        calls["core.read_value.calls"] + calls["core.read_vector.calls"]
        + calls["core.skip.calls"]
    )
    out: Dict[str, tuple] = {}
    for layer in LAYERS + tuple(SUBLAYERS.values()):
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    named = sum(self_s[layer] for layer in LAYERS)
    out["other.self_s"] = (traced_wall - named, "s")
    out["workloads.setup_self_s"] = (setup_self_s["workloads"], "s")
    out.update({
        "hdfs.fetch_block.calls": (fetches, "count"),
        "hdfs.verify.calls": (counts["hdfs.verify"], "count"),
        "hdfs.checksum_bytes_per_byte_served": (
            _ratio(counts["hdfs.checksum_bytes"], counts["hdfs.bytes_served"]),
            "ratio",
        ),
        "hdfs.reread_ratio": (
            _ratio(fetches - len(tracer.fetched), fetches), "ratio",
        ),
        "compress.bytes_in": (counts["compress.bytes_in"], "bytes"),
        "serde.vecdecode.fallback_ratio": (
            _ratio(calls["vecdecode.fallbacks"], calls["vecdecode.kernels"]),
            "ratio",
        ),
        "core.skip_ratio": (_ratio(calls["core.skip.calls"], accesses), "ratio"),
        "cluster.useful_attempt_ratio": (
            _ratio(kept_attempts, calls["cluster.map_attempts"]), "ratio",
        ),
        "trace.overhead_ratio": (_ratio(traced_wall, untraced_wall), "ratio"),
    })
    for metric in (
        "util.varint_decode.calls", "util.varint_encode.calls",
        "serde.read_datum.calls", "serde.skip_datum.calls",
        "serde.write_datum.calls", "sim.charge.calls",
        "core.read_value.calls", "core.skip.calls",
        "mapreduce.map_tasks", "cluster.map_attempts", "obs.events",
    ):
        out[metric] = (calls[metric], "count")
    return out
