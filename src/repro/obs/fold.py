"""The one fold from a run's event log to its derived views.

Instrumentation publishes each run fact once, as a bus event.  Every
other view of those facts is computed here: the simulated-clock spans
(``map_task``, ``reduce_task``, ``fault``, ``op:<operator>``), the
derived registry metrics (``task.attempts{outcome}``,
``scheduler.assignments{placement}``, ``op.rows.in`` ...), the
``sim.Metrics`` snapshots and the job counter dumps.  A
:class:`~repro.obs.recorder.FlightRecorder` runs the fold live as a bus
subscriber; a :class:`~repro.obs.recorder.RunReport` runs it again over
the events it holds, so a live run, a reload and a replay agree by
construction.  Hot-path probe counters and wall-clock spans are not
run facts of this kind and are published directly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.obs.opprofile import OPS
from repro.obs.registry import (
    TASK_DURATION_BOUNDARIES,
    LabelSet,
    MetricRegistry,
    _label_key,
)

#: ``sim.Metrics`` fields of a snapshot, in schema order.
METRICS_FIELDS = (
    "disk_bytes", "net_bytes", "requested_bytes", "seeks",
    "io_time", "cpu_time", "records", "cells", "objects",
)

#: ``map_task`` span attrs, from the attempt's ``task.finish``.
_MAP_ATTRS = (
    "split", "node", "slot", "data_local", "speculative", "killed",
    "attempt", "failed", "format", "disk_bytes", "net_bytes",
    "requested_bytes", "seeks", "records",
)

#: ``op:<operator>`` span attrs, from one operator of a profile.
_OP_ATTRS = (
    "rows_in", "rows_out", "selectivity", "cells_decoded", "cells_skipped",
    "batches", "batch_rows", "kernel_calls", "fallback_calls", "wall_time",
)

#: per-operator profile field -> ``op.*`` counter.
_OP_COUNTERS = (
    ("rows_in", "op.rows.in"), ("rows_out", "op.rows.out"),
    ("cells_decoded", "op.cells.decoded"),
    ("cells_skipped", "op.cells.skipped"), ("batches", "op.batches"),
    ("kernel_calls", "op.invocations.kernel"),
    ("fallback_calls", "op.invocations.fallback"),
)


def metrics_snapshot(metrics) -> dict:
    """A JSON-ready snapshot of one ``sim.Metrics``."""
    snap = {name: getattr(metrics, name) for name in METRICS_FIELDS}
    if metrics.extra:
        snap["extra"] = dict(sorted(metrics.extra.items()))
    return snap


def _span(event, name, kind, sim_start, sim_duration, attrs,
          sim_io=None, sim_cpu=None) -> dict:
    """A simulated-clock span record (numbered later), parented under
    the wall span that was open when ``event`` was emitted."""
    span = {
        "parent": event.span_id, "name": name, "kind": kind,
        "wall_start": event.wall_time, "wall_end": event.wall_time,
    }
    for key, value in (
        ("sim_start", sim_start), ("sim_duration", sim_duration),
        ("sim_io", sim_io), ("sim_cpu", sim_cpu),
    ):
        if value is not None:
            span[key] = value
    span["attrs"] = attrs
    return span


class EventFold:
    """Folds :class:`~repro.obs.events.Event`\\ s, in emission order.

    Derived metrics go into ``registry``; :attr:`owned` names every
    (name, labels) key written, so a recorder can tell them from its
    probe metrics.  Map attempts commit their span and duration in
    launch order, whatever order they finish in; :meth:`finish`
    commits those still queued behind an attempt that never ended.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.spans: List[dict] = []
        self.metrics: List[dict] = []
        self.counters: List[dict] = []
        self.owned: Set[Tuple[str, LabelSet]] = set()
        self._launched: Deque[dict] = deque()
        self._running: Dict[tuple, dict] = {}

    def __call__(self, event) -> None:
        handler = getattr(self, "_on_" + event.kind.replace(".", "_"), None)
        if handler is not None:
            handler(event, event.attrs)

    def finish(self) -> "EventFold":
        for attempt in self._launched:
            if "span" in attempt:
                self._commit(attempt)
        self._launched.clear()
        self._running.clear()
        return self

    def _count(self, name: str, amount: int = 1, /, **labels) -> None:
        self.owned.add((name, _label_key(labels)))
        self.registry.counter(name, **labels).inc(amount)

    def _duration(self, kind: str, value: float) -> None:
        name = "task.duration.seconds"
        self.owned.add((name, _label_key({"kind": kind})))
        self.registry.histogram(
            name, TASK_DURATION_BOUNDARIES, kind=kind
        ).observe(value)

    def _commit(self, attempt: dict) -> None:
        self.spans.append(attempt["span"])
        self._duration("map", attempt["span"]["sim_duration"])

    # -- one handler per event kind ------------------------------------

    def _on_task_start(self, event, attrs) -> None:
        if attrs["kind"] == "map":
            self._count("scheduler.assignments", placement=attrs["placement"])
            self._launched.append({})
            self._running[_attempt_key(attrs)] = self._launched[-1]

    def _on_task_finish(self, event, attrs) -> None:
        if attrs["kind"] == "reduce":
            self._duration("reduce", attrs["duration"])
            self.spans.append(_span(
                event, "reduce_task", "task", 0.0, attrs["duration"],
                {key: attrs[key] for key in
                 ("partition", "records", "net_bytes")},
                attrs["sim_io"], attrs["sim_cpu"],
            ))
            return
        outcome = attrs["outcome"]
        self._count("task.attempts", outcome=(
            "node_lost" if outcome == "lost" else outcome
        ))
        if outcome == "failed" and attrs["speculative"]:
            self._count("scheduler.speculation", outcome="failed")
        attempt = self._running.pop(_attempt_key(attrs), None)
        if attempt is None:  # launched before the log began
            attempt = {}
            self._launched.append(attempt)
        span_attrs = dict(attrs, killed=outcome == "killed")
        attempt["span"] = _span(
            event, "map_task", "task", attrs["start"], attrs["duration"],
            {key: span_attrs[key] for key in _MAP_ATTRS},
            attrs["sim_io"], attrs["sim_cpu"],
        )
        while self._launched and "span" in self._launched[0]:
            self._commit(self._launched.popleft())

    def _on_task_speculative(self, event, attrs) -> None:
        self._count("scheduler.speculation", outcome="launched")

    def _on_scheduler_speculation(self, event, attrs) -> None:
        self._count("scheduler.speculation", outcome=attrs["outcome"])

    def _on_task_preempted(self, event, attrs) -> None:
        self._count("cluster.preemptions", queue=attrs["queue"])
        if attrs["speculative"]:
            self._count("scheduler.speculation", outcome="preempted")

    def _on_node_blacklisted(self, event, attrs) -> None:
        self._count("scheduler.blacklisted", node=attrs["node"])

    def _on_mapoutput_lost(self, event, attrs) -> None:
        self._count("cluster.mapoutput.lost")

    def _on_replica_failover(self, event, attrs) -> None:
        self._count("replica.failover")

    def _on_fault_injected(self, event, attrs) -> None:
        self._count("faults.injected", kind=attrs["fault"])
        self.spans.append(
            _span(event, "fault", "fault", event.sim_time, 0.0, dict(attrs))
        )

    def _on_operator_profile(self, event, attrs) -> None:
        engine = attrs["engine"]
        meta = {
            key: attrs[key] for key in sorted(attrs)
            if key not in ("engine", "ops", "kernels", "fallbacks")
        }
        for op in OPS:
            stats = dict(attrs["ops"][op])
            rows_in = stats["rows_in"]
            stats["selectivity"] = round(
                stats["rows_out"] / rows_in if rows_in else 1.0, 6
            )
            self.spans.append(_span(
                event, f"op:{op}", "operator", None, stats["sim_time"],
                {"engine": engine, "op": op,
                 **{key: stats[key] for key in _OP_ATTRS}, **meta},
            ))
            for field, name in _OP_COUNTERS:
                if stats[field]:
                    self._count(name, stats[field], engine=engine, op=op)
        for kernel, calls in attrs.get("kernels", {}).items():
            self._count(
                "vecdecode.kernel.calls", calls, kernel=kernel, engine=engine
            )
        for method, readers in attrs.get("fallbacks", {}).items():
            for reader, calls in readers.items():
                self._count(f"vecdecode.fallback.{method}", calls,
                            reader=reader, engine=engine)

    def _on_job_finish(self, event, attrs) -> None:
        if "map_metrics" not in attrs:
            return  # a cluster job's outcome, not a JobRunner result
        label = f"job:{attrs['job']}"
        self.metrics.append({"label": f"{label}:map", **attrs["map_metrics"]})
        self.metrics.append(
            {"label": f"{label}:reduce", **attrs["reduce_metrics"]}
        )
        self.counters.append({"label": label, "values": attrs["counters"]})
        self._count("map.data_local_tasks", attrs["data_local_tasks"])

    def _on_scan_finish(self, event, attrs) -> None:
        self.metrics.append({"label": attrs["label"], **attrs["metrics"]})


def _attempt_key(attrs: dict) -> tuple:
    """One slot runs one attempt at a time."""
    return attrs["job"], attrs["split"], attrs["node"], attrs["slot"]
