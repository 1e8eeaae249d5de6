"""Fault injection and fault tolerance: plans, injector, failover, retry."""

import pytest

from repro.faults import RANDOM, FaultEvent, FaultInjector, FaultPlan, current_fault_plan
from repro.hdfs import (
    ClusterConfig,
    CorruptBlockError,
    FileSystem,
    TransientReadError,
)
from repro.mapreduce import Job, JobFailedError, run_job
from repro.mapreduce.types import InputSplit
from repro.obs import FlightRecorder
from repro.sim.metrics import Metrics
from tests.conftest import micro_records, micro_schema, run_splits


def cpp_fs(num_nodes=6, block_size=16 * 1024):
    fs = FileSystem(
        ClusterConfig(
            num_nodes=num_nodes, replication=3, block_size=block_size,
            io_buffer_size=4096,
        )
    )
    fs.use_column_placement()
    return fs


class TestFaultPlan:
    def test_event_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            FaultEvent("kill_node", node=0)
        with pytest.raises(ValueError):
            FaultEvent("kill_node", node=0, at_time=1.0, at_task=1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent("set_on_fire", node=0, at_time=1.0)

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            [
                FaultEvent("kill_node", node=2, at_time=0.5),
                FaultEvent("transient_read_error", node=RANDOM,
                           count=3, at_task=1),
                FaultEvent("corrupt_replica", path="/d/f", block_index=1,
                           at_task=0),
            ],
            seed=42,
        )
        loaded = FaultPlan.from_json(plan.to_json())
        assert loaded.to_dict() == plan.to_dict()
        target = tmp_path / "plan.json"
        plan.save(str(target))
        assert FaultPlan.load(str(target)).to_dict() == plan.to_dict()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json("not json")
        with pytest.raises(ValueError):
            FaultPlan.from_json("[1, 2]")

    def test_random_plans_are_survivable(self):
        for seed in range(25):
            plan = FaultPlan.random(seed, num_nodes=6)
            assert 1 <= len(plan) <= 3
            kills = [e for e in plan if e.kind == "kill_node"]
            assert len(kills) <= 1  # 3-way replication survives one
            assert all(e.at_task is not None for e in plan)

    def test_activate_installs_ambient_plan(self):
        plan = FaultPlan(seed=9)
        assert current_fault_plan() is None
        with plan.activate():
            assert current_fault_plan() is plan
        assert current_fault_plan() is None


class TestInjector:
    def test_kill_at_time_fires_when_due(self, fs):
        fs.write_file("/f", b"z" * 100_000)
        plan = FaultPlan([FaultEvent("kill_node", node=1, at_time=5.0)])
        injector = FaultInjector(fs, plan)
        injector.advance_time(4.9)
        assert 1 not in fs.failed_nodes
        injector.advance_time(5.1)
        assert 1 in fs.failed_nodes
        assert injector.drain_dead() == [(1, 5.0)]  # dies at its own time
        assert injector.drain_dead() == []

    def test_task_boundary_trigger(self, fs):
        fs.write_file("/f", b"z" * 10_000)
        plan = FaultPlan([FaultEvent("slow_node", node=3, at_task=2)])
        injector = FaultInjector(fs, plan)
        injector.on_task_start()  # boundary 0
        injector.on_task_start()  # boundary 1
        assert fs.slowdown_of(3) == 1.0
        injector.on_task_start()  # boundary 2 -> fires
        assert fs.slowdown_of(3) == 2.0

    def test_fired_events_emit_obs(self, fs):
        fs.write_file("/f", b"z" * 10_000)
        recorder = FlightRecorder()
        plan = FaultPlan([
            FaultEvent("kill_node", node=0, at_time=0.0),
            FaultEvent("transient_read_error", node=2, count=2, at_time=0.0),
        ])
        with recorder.activate():
            FaultInjector(fs, plan).fire_all()
        assert recorder.registry.value_of(
            "faults.injected", kind="kill_node"
        ) == 1
        assert recorder.registry.value_of(
            "faults.injected", kind="transient_read_error"
        ) == 1
        fault_spans = [
            s for s in recorder.report().spans if s["name"] == "fault"
        ]
        assert len(fault_spans) == 2

    def test_random_node_resolution_is_seeded(self, fs):
        fs.write_file("/f", b"z" * 10_000)
        plan = FaultPlan(
            [FaultEvent("kill_node", node=RANDOM, at_time=0.0)], seed=5
        )
        victims = set()
        for _ in range(3):
            fresh = FileSystem(fs.cluster)
            fresh.write_file("/f", b"z" * 10_000)
            injector = FaultInjector(fresh, plan)
            injector.fire_all()
            victims.add(next(iter(fresh.failed_nodes)))
        assert len(victims) == 1  # same seed, same victim


class TestReplicaFailover:
    def test_corrupt_replica_read_fails_over_and_repairs(self):
        fs = cpp_fs()
        fs.write_file("/plain", b"q" * 50_000)
        block = fs.namenode.blocks_of("/plain")[0]
        reader_node = block.locations[0]
        fs.blockstore.mark_replica_corrupt(block.block_id, reader_node)

        recorder = FlightRecorder()
        with recorder.activate():
            data = fs.open("/plain", node=reader_node).read_fully()
        assert data == b"q" * 50_000  # served from a clean replica
        assert recorder.registry.value_of(
            "replica.corrupt_detected", node=reader_node
        ) >= 1
        # auto-repair replaced the evicted copy: replication is back to 3
        # and no replica is still marked corrupt
        assert len(fs.namenode.blocks_of("/plain")[0].locations) == 3
        assert fs.fsck_report().healthy

    def test_payload_corruption_is_unrecoverable(self, fs):
        fs.write_file("/f", b"p" * 10_000)
        block = fs.namenode.blocks_of("/f")[0]
        fs.blockstore.corrupt(block.block_id)
        with pytest.raises(CorruptBlockError):
            fs.open("/f", node=block.locations[0]).read_fully()

    def test_transient_error_fires_once_then_clears(self, fs):
        fs.write_file("/f", b"t" * 10_000)
        node = fs.namenode.blocks_of("/f")[0].locations[0]
        fs.arm_transient_errors(node, 1)
        with pytest.raises(TransientReadError):
            fs.open("/f", node=node).read_fully()
        assert fs.open("/f", node=node).read_fully() == b"t" * 10_000

    def test_scrub_evicts_marked_replicas(self):
        fs = cpp_fs()
        fs.write_file("/s", b"s" * 40_000)
        block = fs.namenode.blocks_of("/s")[0]
        victim = block.locations[1]
        fs.blockstore.mark_replica_corrupt(block.block_id, victim)
        assert fs.scrub() == 1
        report = fs.fsck_report()
        assert report.healthy
        assert report.corrupt_replicas == []

    def test_decommission_has_no_underreplication_window(self):
        fs = cpp_fs()
        schema = micro_schema()
        from repro.core import write_dataset

        write_dataset(
            fs, "/d/cif", schema, micro_records(schema, 60),
            split_bytes=8 * 1024,
        )
        node = fs.namenode.blocks_of(
            list(fs.namenode.files_with_blocks())[0]
        )[0].locations[0]
        fs.decommission_node(node)
        report = fs.fsck_report()
        assert report.healthy  # copies moved off before invalidation
        assert node in report.decommissioned_nodes
        assert report.non_colocated_split_dirs == []


class TestSchedulerRetry:
    def _splits(self, n, nodes=4):
        return [InputSplit(10, [i % nodes], f"s{i}") for i in range(n)]

    def _metrics(self, seconds=1.0):
        m = Metrics()
        m.charge_io(seconds)
        return m

    def test_transient_failure_is_retried_elsewhere(self):
        failed_once = []

        def execute(split, node):
            if split.label == "s1" and not failed_once:
                failed_once.append(node)
                raise TransientReadError("flaky read")
            return self._metrics()

        recorder = FlightRecorder()
        with recorder.activate():
            tasks = run_splits(
                self._splits(4), 4, 1, execute, max_attempts=4,
                obs=recorder,
            )
        survivors = [t for t in tasks if t.produced_output]
        assert sorted(t.split.label for t in survivors) == [
            "s0", "s1", "s2", "s3"
        ]
        retried = [t for t in tasks if t.split.label == "s1"]
        assert len(retried) == 2
        assert retried[0].failed and retried[0].error == "flaky read"
        assert retried[1].attempt == 1
        # the retry was re-placed away from the node that failed it
        assert retried[1].node != failed_once[0]
        assert recorder.registry.value_of(
            "task.attempts", outcome="failed"
        ) == 1
        assert recorder.registry.value_of("task.attempts", outcome="ok") == 4

    def test_exhausted_attempts_raise_job_failed(self):
        def execute(split, node):
            if split.label == "s0":
                raise TransientReadError("always broken")
            return self._metrics()

        with pytest.raises(JobFailedError) as info:
            run_splits(self._splits(3), 4, 1, execute, max_attempts=2)
        assert len(info.value.attempts) == 2
        assert all(a["split"] == "s0" for a in info.value.attempts)
        assert info.value.attempts[0]["attempt"] == 0
        assert info.value.attempts[1]["attempt"] == 1

    def test_repeatedly_failing_node_is_blacklisted(self):
        def execute(split, node):
            if node == 0:
                raise TransientReadError("bad disk")
            return self._metrics()

        recorder = FlightRecorder()
        tasks = run_splits(
            self._splits(8), 4, 1, execute, max_attempts=8, obs=recorder,
        )
        survivors = [t for t in tasks if t.produced_output]
        assert len(survivors) == 8
        assert all(t.node != 0 for t in survivors)
        failures_on_0 = [t for t in tasks if t.node == 0 and t.failed]
        assert len(failures_on_0) == 3  # then the job benched the node
        assert recorder.registry.value_of(
            "scheduler.blacklisted", node=0
        ) == 1

    def test_banned_node_beats_a_deadlocked_job(self):
        # The retry is banned from the only node; rather than strand the
        # job the scheduler runs it there anyway.
        failed_once = []

        def execute(split, node):
            if not failed_once:
                failed_once.append(node)
                raise TransientReadError("flaky read")
            return self._metrics()

        tasks = run_splits(
            [InputSplit(10, [0], "s0")], 1, 1, execute, max_attempts=2
        )
        assert [(t.node, t.failed) for t in tasks] == [(0, True), (0, False)]

    def test_fault_metrics_occupy_the_slot(self):
        # A failed attempt's partial work still burned slot time.
        def execute(split, node):
            if split.label == "s0" and node == 0:
                error = TransientReadError("mid-read")
                error.metrics = self._metrics(7.0)
                raise error
            return self._metrics(1.0)

        tasks = run_splits(
            [InputSplit(10, [0], "s0")], 2, 1, execute, max_attempts=2
        )
        failed = [t for t in tasks if t.failed]
        assert failed and failed[0].duration == pytest.approx(7.0)
        retry = [t for t in tasks if t.produced_output][0]
        assert retry.start >= 0.0


class TestSpeculationTermination:
    def test_speculate_stops_once_nothing_is_eligible(self):
        # One straggler among 40 idle nodes: it is cloned exactly once,
        # the clone wins, and with nothing left to speculate on the run
        # ends instead of cloning onto the remaining idle slots.
        def execute(split, node):
            m = Metrics()
            m.charge_io(100.0 if (split.label, node) == ("slow", 3) else 1.0)
            return m

        splits = [InputSplit(10, [i], f"q{i}") for i in range(3)]
        splits.append(InputSplit(10, [3], "slow"))
        tasks = run_splits(splits, 40, 1, execute, speculative=True)
        duplicates = [t for t in tasks if t.speculative]
        assert len(duplicates) == 1
        assert not duplicates[0].killed
        assert duplicates[0].start == 1.5  # 1.5x the 1s median
        assert len(tasks) == 5
        assert max(t.end for t in tasks) == 2.5

    def test_speculative_run_duplicates_each_split_at_most_once(self):
        splits = [InputSplit(10, [0], f"s{i}") for i in range(6)]

        def execute(split, node):
            m = Metrics()
            m.charge_io(5.0 if node != 0 else 1.0)
            return m

        tasks = run_splits(splits, 3, 2, execute, speculative=True)
        from collections import Counter

        per_split = Counter(t.split.label for t in tasks)
        assert all(count <= 2 for count in per_split.values())
        winners = [t for t in tasks if t.produced_output and not t.killed]
        assert sorted({t.split.label for t in winners}) == sorted(
            s.label for s in splits
        )


class TestJobLevelFaults:
    def _dataset(self, fs):
        from repro.formats.sequence_file import (
            SequenceFileInputFormat,
            write_sequence_file,
        )

        schema = micro_schema()
        write_sequence_file(
            fs, "/jobs/seq", schema, micro_records(schema, 150),
            sync_interval=50,
        )
        return SequenceFileInputFormat("/jobs/seq")

    @staticmethod
    def _job(fmt):
        def mapper(key, value, emit, ctx):
            emit(value.get("int0") % 5, 1)

        def reducer(key, values, emit, ctx):
            emit(key, sum(values))

        return Job("agg", mapper, fmt, reducer=reducer, num_reducers=2)

    def test_node_death_mid_job_preserves_output(self):
        def build():
            fs = FileSystem(ClusterConfig(
                num_nodes=6, replication=3, block_size=16 * 1024,
                io_buffer_size=4096,
            ))
            return fs, self._dataset(fs)

        fs, fmt = build()
        baseline = run_job(fs, self._job(fmt))
        victim = baseline.tasks[0].node
        plan = FaultPlan(
            [FaultEvent("kill_node", node=victim, at_time=1e-9)]
        )
        recorder = FlightRecorder()
        fs2, fmt2 = build()
        with recorder.activate():
            result = run_job(fs2, self._job(fmt2), faults=plan)
        assert sorted(result.output) == sorted(baseline.output)
        assert result.counters.as_dict() == baseline.counters.as_dict()
        assert result.failed_tasks >= 1
        assert result.attempts > len(baseline.tasks) - 1
        assert recorder.registry.value_of(
            "task.attempts", outcome="node_lost"
        ) >= 1
        assert fs2.fsck_report().healthy

    def test_ambient_plan_reaches_run_job(self):
        fs = FileSystem(ClusterConfig(
            num_nodes=6, replication=3, block_size=16 * 1024,
            io_buffer_size=4096,
        ))
        fmt = self._dataset(fs)
        plan = FaultPlan([FaultEvent("kill_node", node=0, at_task=0)])
        with plan.activate():
            run_job(fs, self._job(fmt))
        assert 0 in fs.failed_nodes

    def test_unsurvivable_job_fails_cleanly(self):
        fs = FileSystem(ClusterConfig(
            num_nodes=4, replication=3, block_size=16 * 1024,
            io_buffer_size=4096,
        ))
        fmt = self._dataset(fs)
        # Arm an endless stream of read errors on every node: retries
        # exhaust max_attempts and the job must fail with history.
        for node in range(4):
            fs.arm_transient_errors(node, 10_000)
        job = self._job(fmt)
        job.max_attempts = 2
        with pytest.raises(JobFailedError) as info:
            run_job(fs, job)
        assert info.value.attempts  # carries the attempt history


class TestFsckCli:
    def test_fsck_healthy_exit_zero(self):
        from repro.cli import main

        lines = []
        code = main(
            ["fsck", "--records", "40", "--nodes", "6"], out=lines.append
        )
        assert code == 0
        assert any("HEALTHY" in line for line in lines)

    def test_fsck_reports_faults_and_repairs(self, tmp_path):
        from repro.cli import main

        plan = FaultPlan([
            FaultEvent("kill_node", node=1, at_time=0.0, repair=False),
            FaultEvent("corrupt_replica", node=RANDOM, at_task=0),
        ], seed=3)
        plan_path = tmp_path / "plan.json"
        plan.save(str(plan_path))

        degraded = []
        code = main(
            ["fsck", "--records", "40", "--nodes", "6",
             "--faults", str(plan_path)],
            out=degraded.append,
        )
        assert code == 1
        assert any("DEGRADED" in line for line in degraded)

        repaired = []
        code = main(
            ["fsck", "--records", "40", "--nodes", "6",
             "--faults", str(plan_path), "--repair"],
            out=repaired.append,
        )
        assert code == 0
        assert any("HEALTHY" in line for line in repaired)

    def test_fsck_bad_plan_path(self):
        from repro.cli import main

        lines = []
        code = main(
            ["fsck", "--faults", "/nonexistent/plan.json"],
            out=lines.append,
        )
        assert code == 1
        assert any("cannot load fault plan" in line for line in lines)
