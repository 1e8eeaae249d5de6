"""Shared experiment plumbing: scaled clusters, scans, table rendering.

The paper's experiments ran at terabyte scale; ours run megabytes.  To
keep the *shape* of the results scale-invariant, experiments shrink the
three storage granularities (HDFS block, readahead buffer, RCFile row
group) by the same factor as the dataset, so every "X is smaller/larger
than the readahead window" relationship in the paper still holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce.types import InputFormat, TaskContext
from repro.obs import current_obs
from repro.obs.fold import metrics_snapshot
from repro.sim import calibration
from repro.sim.cost import CpuCostModel
from repro.sim.metrics import Metrics
from repro.sim.models import DiskModel, NetworkModel

#: The experiments shrink the paper's datasets ~100x-1000x; the storage
#: granularities shrink by GRANULARITY_SCALE so every "smaller/larger
#: than the readahead window / row group / block" relationship in the
#: paper is preserved.  Per-seek and per-transfer *latencies* shrink by
#: the same factor: a scaled-down dataset crosses file/block boundaries
#: proportionally more often per byte, and leaving latencies full-size
#: would make fixed costs dominate in a way they do not at paper scale.
GRANULARITY_SCALE = 0.01
MICRO_IO_BUFFER = 12 * 1024         # paper: 128 KB readahead
MICRO_BLOCK = 4 * 1024 * 1024       # scaled block; >> row group, as in paper
MICRO_ROW_GROUP = 384 * 1024        # paper: 4 MB = 31 readahead windows
MICRO_SPLIT_BYTES = 512 * 1024      # CIF split-directories ("~one block")


def scaled_disk() -> DiskModel:
    return DiskModel(seek_seconds=calibration.SEEK_SECONDS * GRANULARITY_SCALE)


def scaled_network() -> NetworkModel:
    return NetworkModel(
        latency_seconds=calibration.REMOTE_LATENCY_SECONDS * GRANULARITY_SCALE
    )


def single_node_fs(
    block_size: int = 64 * 1024 * 1024, io_buffer: int = MICRO_IO_BUFFER
) -> FileSystem:
    """The single-node setup of Section 6.2's microbenchmark.

    The default block size exceeds the microbenchmark datasets so each
    file scans as a single split, as in the paper's single-node test
    (no mid-file sync resynchronization).
    """
    return FileSystem(
        ClusterConfig(
            num_nodes=1,
            replication=1,
            map_slots_per_node=1,
            block_size=block_size,
            io_buffer_size=io_buffer,
            disk=scaled_disk(),
            network=scaled_network(),
        )
    )


def cluster_fs(
    num_nodes: int = 40,
    block_size: int = MICRO_BLOCK,
    io_buffer: int = MICRO_IO_BUFFER,
    job_overhead: float = 0.0,
    seed: int = 20110401,
) -> FileSystem:
    """The full-cluster setup of Section 6.1 (40 nodes, 6 map slots)."""
    return FileSystem(
        ClusterConfig(
            num_nodes=num_nodes,
            map_slots_per_node=6,
            reduce_slots_per_node=1,
            block_size=block_size,
            io_buffer_size=io_buffer,
            disk=scaled_disk(),
            network=scaled_network(),
            job_overhead_seconds=job_overhead,
            seed=seed,
        )
    )


def make_context(
    fs: FileSystem, node: Optional[int] = 0, cost: Optional[CpuCostModel] = None
) -> TaskContext:
    return TaskContext(
        node=node,
        cost=cost if cost is not None else CpuCostModel(),
        io_buffer_size=fs.cluster.io_buffer_size,
    )


def scan(
    fs: FileSystem,
    input_format: InputFormat,
    touch_columns: Optional[Sequence[str]] = None,
    node: Optional[int] = 0,
) -> Metrics:
    """Scan every split of ``input_format`` on one node; return metrics.

    ``touch_columns`` calls ``record.get`` on those columns (what a map
    function would do); None touches nothing beyond materialization.

    Under an active flight recorder the scan is traced (one span per
    scan, one per split) and its metrics snapshot is published as a
    ``scan.finish`` event, so every
    benchmark emits a flight-recorder artifact with no extra plumbing.
    """
    obs = current_obs()
    ctx = make_context(fs, node=node)
    fmt = type(input_format).__name__
    dataset = getattr(
        input_format, "dataset", getattr(input_format, "path", "")
    )
    label = f"scan:{fmt}:{dataset}" + (
        f":{'+'.join(touch_columns)}" if touch_columns else ""
    )
    with obs.tracer.span(
        "scan", kind="scan", format=fmt, dataset=dataset,
        columns=list(touch_columns) if touch_columns else None,
        metrics=ctx.metrics,
    ):
        for split in input_format.get_splits(fs, fs.cluster):
            reader = input_format.open_reader(fs, split, ctx)
            try:
                with obs.tracer.span(
                    "split_scan", kind="split", split=split.label,
                    metrics=ctx.metrics,
                ):
                    for _, record in reader:
                        if touch_columns:
                            for column in touch_columns:
                                record.get(column)
            finally:
                reader.close()
    obs.emit("scan.finish", label=label, metrics=metrics_snapshot(ctx.metrics))
    return ctx.metrics


@dataclass
class Row:
    """One printable result row: a label plus named values."""

    label: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]


def format_table(title: str, headers: List[str], rows: List[Row]) -> str:
    """Render rows as a fixed-width table like the paper's."""
    widths = [max(len(h), 14) for h in headers]
    label_width = max([len(r.label) for r in rows] + [12])
    lines = [title, "=" * len(title)]
    lines.append(
        " ".join(["Layout".ljust(label_width)] + [
            h.rjust(w) for h, w in zip(headers, widths)
        ])
    )
    for row in rows:
        cells = []
        for header, width in zip(headers, widths):
            value = row.values.get(header, "")
            if isinstance(value, float):
                value = f"{value:,.2f}"
            cells.append(str(value).rjust(width))
        lines.append(" ".join([row.label.ljust(label_width)] + cells))
    return "\n".join(lines)


def ratio(base: float, other: float) -> float:
    """Speedup of ``other`` relative to ``base`` (base / other)."""
    return base / other if other else float("inf")
