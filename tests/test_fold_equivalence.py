"""Fold equivalence: every view of a run is one fold over one event log.

A run's facts are published once, as bus events; spans, derived
counters, ``sim.Metrics`` snapshots, job counter dumps, the live
monitor's frame and the ``.tsdb`` sidecar are all folded from them.
So the views a live run builds must equal the views rebuilt from its
recording, whichever way it is read back:

- ``RunReport.from_jsonl(report.to_jsonl())``;
- ``EventBus.replay(report.events)`` into a fresh ``LiveMonitor`` and a
  fresh ``ClusterMonitor`` (byte-equal sidecars).

Inputs are seeded single jobs — with and without a fault plan, with
speculation on and off — and a small seeded cluster profile.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.traffic import run_traffic, sample_profile
from repro.core import ColumnInputFormat, write_dataset
from repro.faults import FaultPlan
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.obs import EventBus, FlightRecorder, LiveMonitor, RunReport
from repro.obs.alerts import ClusterMonitor
from repro.workloads.micro import micro_records, micro_schema

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _job_fs(seed: int):
    fs = FileSystem(ClusterConfig(
        num_nodes=5, map_slots_per_node=2, replication=3,
        block_size=8 * 1024, io_buffer_size=2048, seed=seed,
    ))
    schema = micro_schema()
    write_dataset(fs, "/fe/cif", schema, micro_records(240, seed=seed),
                  split_bytes=6 * 1024)
    return fs


def _mapper(key, record, emit, ctx):
    emit(record.get("int0") % 5, 1)


def _reducer(key, values, emit, ctx):
    emit(key, sum(values))


def _watch(recorder, monitor: ClusterMonitor):
    """Live views: a quiet LiveMonitor and a ClusterMonitor on the
    recorder's bus, as ``repro top`` and ``--tsdb`` attach them."""
    lines = []
    live = LiveMonitor(lines.append, quiet=True).attach(recorder.bus)
    monitor.attach(recorder.bus)
    return live, lines


def _assert_views_agree(recorder, live, lines, monitor, factory, tmp_path):
    live.final()
    report = recorder.report()
    # Map attempts keep launch order, whatever order they finished in.
    launched = [
        (e["attrs"]["split"], e["attrs"]["node"], e["attrs"]["slot"])
        for e in report.events
        if e["kind"] == "task.start" and e["attrs"]["kind"] == "map"
    ]
    assert [
        (s["attrs"]["split"], s["attrs"]["node"], s["attrs"]["slot"])
        for s in report.spans if s["name"] == "map_task"
    ] == launched
    # The live fold wrote its counters into the recorder's registry;
    # the report re-folded the events it holds.
    assert recorder.registry.snapshot() == report.registry

    back = RunReport.from_jsonl(report.to_jsonl())
    assert back.warnings == []
    assert back.spans == report.spans
    assert back.registry == report.registry
    assert back.metrics == report.metrics
    assert back.counters == report.counters
    assert back.summary() == report.summary()
    assert back.to_jsonl() == report.to_jsonl()

    # repro top --replay: the LiveMonitor on its own bus.
    replayed = []
    bus = EventBus()
    replay_live = LiveMonitor(replayed.append, quiet=True).attach(bus)
    bus.replay(back.events)
    replay_live.final()
    assert replayed == lines

    # --tsdb from a replay: a fresh monitor folds the same sidecar.
    fresh = factory().attach(EventBus())
    fresh.engine.bus.replay(back.events)
    live_path, replay_path = tmp_path / "live.tsdb", tmp_path / "replay.tsdb"
    monitor.save(str(live_path), merge=False)
    fresh.save(str(replay_path), merge=False)
    assert live_path.read_bytes() == replay_path.read_bytes()


@SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    faulted=st.booleans(),
    speculate=st.booleans(),
)
def test_single_job_views_are_one_fold(seed, faulted, speculate, tmp_path):
    fs = _job_fs(seed)
    job = Job(
        "fold", _mapper,
        ColumnInputFormat("/fe/cif", columns=["int0"]),
        reducer=_reducer, num_reducers=2, speculative=speculate,
    )
    plan = FaultPlan.random(seed, num_nodes=5) if faulted else None
    recorder = FlightRecorder(meta={"seed": seed})
    monitor = ClusterMonitor()
    live, lines = _watch(recorder, monitor)
    with recorder.activate():
        run_job(fs, job, faults=plan)
    assert any(s["name"] == "map_task" for s in recorder.report().spans)
    _assert_views_agree(
        recorder, live, lines, monitor, ClusterMonitor, tmp_path
    )


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_cluster_views_are_one_fold(seed, tmp_path):
    profile = sample_profile()
    profile.seed = seed
    profile.duration = 0.15
    profile.datasets.update(
        crawl_records=40, content_bytes=2048, micro_records=150,
        point_records=20,
    )
    profile.speculation = dataclasses.replace(
        profile.speculation, enabled=True
    )
    policy = profile.cluster_policy()
    recorder = FlightRecorder(meta={"seed": seed})
    monitor = ClusterMonitor.for_policy(policy)
    live, lines = _watch(recorder, monitor)
    with recorder.activate():
        run_traffic(profile)
    _assert_views_agree(
        recorder, live, lines, monitor,
        lambda: ClusterMonitor.for_policy(policy), tmp_path,
    )
