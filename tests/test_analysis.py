"""The analysis layer (`repro.obs.analysis`) on known span trees.

Critical-path and straggler tests use hand-built ``RunReport``\\ s whose
answers are known by construction; the integration tests record real
runs (including chaos runs) and assert the analyzer's invariants — most
importantly that the critical path's summed step time equals the run's
simulated wall time.
"""

import pytest

from repro.core import ColumnInputFormat, write_dataset
from repro.faults import FaultEvent, FaultPlan
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.obs import FlightRecorder, RunReport
from repro.obs.analysis import (
    build_tree,
    critical_path,
    detect_stragglers,
    diff_runs,
    io_breakdown,
    partition_skew,
    render_breakdown,
    render_stragglers,
    render_timeline,
    timeline,
)
from repro.workloads.micro import micro_records


def span(
    id,
    parent,
    name,
    kind="op",
    sim_start=None,
    sim_duration=None,
    sim_io=None,
    sim_cpu=None,
    **attrs,
):
    record = {
        "id": id, "parent": parent, "name": name, "kind": kind,
        "wall_start": 0.0, "wall_end": 0.0,
    }
    for key, value in (
        ("sim_start", sim_start), ("sim_duration", sim_duration),
        ("sim_io", sim_io), ("sim_cpu", sim_cpu),
    ):
        if value is not None:
            record[key] = value
    if attrs:
        record["attrs"] = attrs
    return record


def report_of(spans, registry=(), metrics=()):
    """A report of hand-built spans and registry entries; each metrics
    snapshot arrives the way a scan publishes one, as an event."""
    events = [
        {"seq": seq, "kind": "scan.finish", "wall": 0.0, "attrs": {
            "label": snap["label"],
            "metrics": {k: v for k, v in snap.items() if k != "label"},
        }}
        for seq, snap in enumerate(metrics, 1)
    ]
    return RunReport(
        meta={}, spans=list(spans), registry=list(registry), events=events,
    )


def task(id, parent, start, duration, node=0, slot=0, **attrs):
    return span(
        id, parent, "map_task", kind="task", sim_start=start,
        sim_duration=duration, node=node, slot=slot, **attrs,
    )


def span_ids(path):
    return [step.node.span_id for step in path.steps if step.node is not None]


class TestCriticalPath:
    def test_single_slot_chain_is_the_whole_path(self):
        # Three tasks back-to-back on one slot: the chain is all of them.
        report = report_of([
            span(1, None, "map_phase", kind="phase"),
            task(2, 1, 0.0, 2.0),
            task(3, 1, 2.0, 3.0),
            task(4, 1, 5.0, 1.0),
        ])
        path = critical_path(report)
        assert span_ids(path) == [2, 3, 4]
        assert path.total == pytest.approx(6.0)
        assert path.root_time == pytest.approx(6.0)
        assert path.coverage == pytest.approx(1.0)

    def test_longest_slot_wins_and_short_slots_are_ignored(self):
        report = report_of([
            span(1, None, "map_phase", kind="phase"),
            task(2, 1, 0.0, 4.0, node=0),
            task(3, 1, 0.0, 1.0, node=1),
            task(4, 1, 1.0, 2.0, node=1),
        ])
        path = critical_path(report)
        assert span_ids(path) == [2]
        assert path.total == pytest.approx(4.0)

    def test_idle_gap_becomes_an_explicit_step(self):
        # Slot waits 1s between tasks: the path accounts for the gap so
        # the total still equals the makespan.
        report = report_of([
            span(1, None, "map_phase", kind="phase"),
            task(2, 1, 0.0, 1.0, node=0),
            task(3, 1, 2.0, 2.0, node=1),
        ])
        path = critical_path(report)
        assert span_ids(path) == [2, 3]
        idle = [s for s in path.steps if s.node is None]
        assert len(idle) == 1 and idle[0].sim_time == pytest.approx(1.0)
        assert path.total == pytest.approx(4.0) == path.root_time

    def test_same_slot_predecessor_preferred(self):
        # Two candidate predecessors finish in time; the one on the
        # final task's own slot is the one it actually waited for.
        report = report_of([
            span(1, None, "map_phase", kind="phase"),
            task(2, 1, 0.0, 3.0, node=0),
            task(3, 1, 0.0, 2.9, node=1),
            task(4, 1, 3.0, 2.0, node=1),
        ])
        path = critical_path(report)
        assert span_ids(path) == [3, 4]

    def test_sequential_spans_descend_with_self_time(self):
        # scan(10s) contains splits totalling 7s: the missing 3s (split
        # planning, open_reader) must surface as the scan's self time.
        report = report_of([
            span(1, None, "scan", kind="scan", sim_duration=10.0),
            span(2, 1, "split_scan", kind="split", sim_duration=3.0),
            span(3, 1, "split_scan", kind="split", sim_duration=4.0),
        ])
        path = critical_path(report)
        assert path.total == pytest.approx(10.0) == path.root_time
        self_steps = [s for s in path.steps if s.note == "self"]
        assert len(self_steps) == 1
        assert self_steps[0].sim_time == pytest.approx(3.0)
        assert self_steps[0].node.span_id == 1

    def test_multiple_roots_form_a_virtual_run(self):
        report = report_of([
            span(1, None, "scan", kind="scan", sim_duration=2.0),
            span(2, None, "scan", kind="scan", sim_duration=5.0),
        ])
        path = critical_path(report)
        assert path.root.name == "run"
        assert path.total == pytest.approx(7.0) == path.root_time

    def test_root_id_narrows_the_analysis(self):
        report = report_of([
            span(1, None, "scan", kind="scan", sim_duration=2.0),
            span(2, None, "scan", kind="scan", sim_duration=5.0),
        ])
        path = critical_path(report, root_id=2)
        assert path.total == pytest.approx(5.0)
        with pytest.raises(ValueError):
            critical_path(report, root_id=99)

    def test_render_mentions_coverage(self):
        report = report_of([
            span(1, None, "scan", kind="scan", sim_duration=2.0),
        ])
        text = critical_path(report).render()
        assert "100.00%" in text and "scan#1" in text


class TestTimelineAndStragglers:
    def make_report(self):
        # Four tasks; #5 is 6x the median and its excess is disk bytes.
        return report_of([
            span(1, None, "map_phase", kind="phase"),
            task(2, 1, 0.0, 1.0, node=0, disk_bytes=100, records=10),
            task(3, 1, 0.0, 1.0, node=1, disk_bytes=100, records=10),
            task(4, 1, 0.0, 1.0, node=2, disk_bytes=100, records=10),
            task(5, 1, 0.0, 6.0, node=3, disk_bytes=5000, records=10,
                 sim_io=5.9),
        ])

    def test_lanes_group_by_node_and_slot(self):
        lanes = timeline(self.make_report())
        assert len(lanes) == 4
        assert all(len(lane.tasks) == 1 for lane in lanes)

    def test_straggler_found_with_dominant_cost(self):
        stragglers = detect_stragglers(self.make_report())
        assert len(stragglers) == 1
        straggler = stragglers[0]
        assert straggler.node.span_id == 5
        assert straggler.factor == pytest.approx(6.0)
        assert straggler.dominant_cost == "disk transfer"
        assert "4,900" in straggler.detail

    def test_balanced_group_has_no_stragglers(self):
        report = report_of([
            span(1, None, "map_phase", kind="phase"),
            *[task(i, 1, 0.0, 1.0, node=i) for i in range(2, 7)],
        ])
        assert detect_stragglers(report) == []

    def test_small_groups_are_skipped(self):
        report = report_of([
            span(1, None, "map_phase", kind="phase"),
            task(2, 1, 0.0, 1.0),
            task(3, 1, 0.0, 9.0),
        ])
        assert detect_stragglers(report) == []

    def test_cpu_dominant_straggler(self):
        report = report_of([
            span(1, None, "map_phase", kind="phase"),
            *[task(i, 1, 0.0, 1.0, node=i, sim_cpu=0.1) for i in range(2, 6)],
            task(6, 1, 0.0, 8.0, node=6, sim_cpu=7.9),
        ])
        (straggler,) = detect_stragglers(report)
        assert straggler.dominant_cost == "cpu"

    def test_killed_attempts_do_not_pollute_the_baseline(self):
        report = report_of([
            span(1, None, "map_phase", kind="phase"),
            *[task(i, 1, 0.0, 1.0, node=i) for i in range(2, 6)],
            task(6, 1, 0.0, 0.01, node=6, killed=True),
        ])
        assert detect_stragglers(report) == []

    def test_partition_skew_stats(self):
        (group,) = partition_skew(self.make_report())
        assert group.name == "map_task"
        assert group.count == 4
        assert group.skew == pytest.approx(6.0)
        assert group.records_min == group.records_max == 10

    def test_renderers_on_hand_built_tree(self):
        report = self.make_report()
        gantt = render_timeline(report, width=32)
        assert "node 3" in gantt and "|" in gantt
        text = render_stragglers(report)
        assert "disk transfer" in text and "skew=6.00x" in text

    def test_timeline_empty_report(self):
        assert "no scheduled task spans" in render_timeline(report_of([]))


class TestIoBreakdown:
    def counter(self, name, value, **labels):
        return {"kind": "counter", "name": name, "labels": labels,
                "value": value}

    def test_rows_fold_per_format_and_column(self):
        report = report_of([], registry=[
            self.counter("hdfs.bytes.requested", 100, format="cif",
                         column="url", file="/d/s0/url"),
            self.counter("hdfs.bytes.disk", 160, format="cif", column="url",
                         file="/d/s0/url"),
            self.counter("hdfs.seeks", 2, format="cif", column="url",
                         file="/d/s0/url"),
            self.counter("hdfs.bytes.requested", 50, format="txt",
                         file="/t"),
            self.counter("hdfs.bytes.net", 80, format="txt", file="/t"),
            self.counter("other.counter", 9),
        ])
        rows = io_breakdown(report)
        assert [(r.format, r.column) for r in rows] == [
            ("cif", "url"), ("txt", "-"),
        ]
        cif, txt = rows
        assert cif.requested == 100 and cif.disk == 160 and cif.waste == 60
        assert cif.seeks == 2
        assert txt.net == 80 and txt.waste == 30
        text = render_breakdown(report)
        assert "cif/url" in text and "TOTAL" in text

    def test_empty_registry(self):
        assert "no stream-probe counters" in render_breakdown(report_of([]))


class TestDiffRuns:
    def metrics(self, **over):
        snap = {"label": "job", "disk_bytes": 1000, "net_bytes": 0,
                "requested_bytes": 900, "seeks": 10, "io_time": 1.0,
                "cpu_time": 0.5, "records": 100, "cells": 700, "objects": 0}
        snap.update(over)
        return snap

    def test_identical_runs_diff_clean(self):
        a = report_of([], metrics=[self.metrics()])
        b = report_of([], metrics=[self.metrics()])
        diff = diff_runs(a, b)
        assert diff.ok and diff.entries == []
        assert "equivalent" in diff.render()

    def test_cost_growth_is_a_regression(self):
        a = report_of([], metrics=[self.metrics()])
        b = report_of([], metrics=[self.metrics(seeks=15)])
        diff = diff_runs(a, b)
        assert not diff.ok
        (entry,) = diff.regressions
        assert entry.key == "seeks" and entry.a == 10 and entry.b == 15

    def test_cost_shrink_is_an_improvement(self):
        a = report_of([], metrics=[self.metrics()])
        b = report_of([], metrics=[self.metrics(disk_bytes=500)])
        diff = diff_runs(a, b)
        assert diff.ok and len(diff.improvements) == 1

    def test_record_count_change_is_drift_not_regression(self):
        a = report_of([], metrics=[self.metrics()])
        b = report_of([], metrics=[self.metrics(records=200)])
        diff = diff_runs(a, b)
        assert diff.ok and len(diff.drifts) == 1

    def test_tolerance_swallows_noise(self):
        a = report_of([], metrics=[self.metrics(io_time=1.0)])
        b = report_of([], metrics=[self.metrics(io_time=1.005)])
        assert diff_runs(a, b, rel_tol=0.01).ok
        assert not diff_runs(a, b, rel_tol=0.001).ok

    def test_span_time_growth_is_a_regression(self):
        a = report_of([span(1, None, "scan", sim_duration=1.0)])
        b = report_of([span(1, None, "scan", sim_duration=2.0)])
        diff = diff_runs(a, b)
        assert [e.key for e in diff.regressions] == ["scan.sim_time"]

    def test_cost_counter_vs_logical_counter(self):
        def rep(value):
            return report_of([], registry=[
                {"kind": "counter", "name": "hdfs.bytes.disk",
                 "labels": {"file": "/x"}, "value": value},
                {"kind": "counter", "name": "task.attempts",
                 "labels": {}, "value": value},
            ])

        diff = diff_runs(rep(100), rep(200))
        assert len(diff.regressions) == 1
        assert diff.regressions[0].key.startswith("hdfs.bytes.disk")
        assert len(diff.drifts) == 1

    def test_wall_times_are_never_compared(self):
        a = report_of([dict(span(1, None, "scan", sim_duration=1.0),
                            wall_start=0.0, wall_end=5.0)])
        b = report_of([dict(span(1, None, "scan", sim_duration=1.0),
                            wall_start=0.0, wall_end=99.0)])
        assert diff_runs(a, b).ok


NUM_NODES = 6


def run_recorded_job(faults=None, records=150):
    fs = FileSystem(ClusterConfig(
        num_nodes=NUM_NODES, replication=3, block_size=16 * 1024,
        io_buffer_size=2048,
    ))
    fs.use_column_placement()
    data = list(micro_records(records))
    write_dataset(fs, "/an/cif", data[0].schema, data, split_bytes=12 * 1024)
    fmt = ColumnInputFormat("/an/cif", columns=["int0", "str0"], lazy=False)

    def mapper(key, value, emit, ctx):
        emit(value.get("int0") % 5, 1)

    def reducer(key, values, emit, ctx):
        emit(key, sum(values))

    recorder = FlightRecorder(meta={"test": "analysis"})
    with recorder.activate():
        result = run_job(
            fs, Job("an", mapper, fmt, reducer=reducer, num_reducers=2),
            faults=faults,
        )
    return recorder.report(), result


class TestOnRealRuns:
    def test_job_critical_path_covers_the_simulated_makespan(self):
        report, result = run_recorded_job()
        path = critical_path(report)
        assert path.coverage == pytest.approx(1.0, abs=0.01)
        assert any(step.node is not None and step.node.name == "map_task"
                   for step in path.steps)

    def test_chaos_roundtrip_preserves_fault_and_attempt_spans(self, tmp_path):
        # JSONL export -> load -> analyze, with a node kill mid-job: the
        # fault span and the attempt-labeled task spans must survive,
        # and every analysis entry point must digest the loaded report.
        # A kill at t~0 only forces a retry if the victim was running a
        # first-wave task; sweep victims until one does (same idiom as
        # test_chaos's every-victim kill test).
        loaded = None
        for victim in range(NUM_NODES):
            plan = FaultPlan(
                [FaultEvent("kill_node", node=victim, at_time=1e-9)],
                seed=victim,
            )
            report, result = run_recorded_job(faults=plan)
            if not result.failed_tasks:
                continue
            target = tmp_path / "chaos.jsonl"
            report.write_jsonl(str(target))
            loaded = RunReport.load(str(target))
            break
        assert loaded is not None, "no victim forced a retry"

        fault_spans = [s for s in loaded.spans if s["kind"] == "fault"]
        assert [s["attrs"]["fault"] for s in fault_spans] == ["kill_node"]
        attempts = {
            s["attrs"].get("attempt", 0)
            for s in loaded.spans
            if s["name"] == "map_task"
        }
        assert len(attempts) > 1  # the retry is visible

        path = critical_path(loaded)
        assert path.coverage == pytest.approx(1.0, abs=0.01)
        assert render_timeline(loaded)
        assert render_stragglers(loaded)
        assert render_breakdown(loaded)
        assert partition_skew(loaded)

    def test_same_seed_runs_diff_to_zero_regressions(self):
        a, _ = run_recorded_job()
        b, _ = run_recorded_job()
        diff = diff_runs(a, b)
        assert diff.ok and not diff.drifts and not diff.improvements

    def test_tree_roundtrip_matches_span_count(self):
        report, _ = run_recorded_job()
        roots = build_tree(report)

        def count(nodes):
            return sum(1 + count(n.children) for n in nodes)

        assert count(roots) == len(report.spans)

    def test_task_spans_carry_slot_format_and_bytes(self):
        report, _ = run_recorded_job()
        map_spans = [s for s in report.spans if s["name"] == "map_task"]
        assert map_spans
        for record in map_spans:
            attrs = record["attrs"]
            assert attrs["format"] == "ColumnInputFormat"
            assert attrs["slot"] >= 0
            assert "disk_bytes" in attrs and "seeks" in attrs
