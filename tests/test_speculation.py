"""Tests for speculative execution of map stragglers.

Speculation is progress-based: once a queue has ``min_samples`` (3)
completed attempts, a running original that has taken 1.5x their
median is cloned onto an idle slot; the first finisher wins and the
other attempt is killed.
"""

from collections import Counter

from repro.core import ColumnInputFormat, write_dataset
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.mapreduce.scheduler import makespan
from repro.mapreduce.types import InputSplit
from repro.sim.metrics import Metrics
from tests.conftest import micro_records, micro_schema, run_splits


def _slow_node_execute(slow_seconds, slow_node=1):
    """Every attempt takes 1s, except on ``slow_node``."""

    def execute(split, node):
        m = Metrics()
        m.charge_io(slow_seconds if node == slow_node else 1.0)
        return m

    return execute


def _signature(tasks):
    return [
        (t.split.label, t.node, t.slot, t.start, t.duration, t.data_local,
         t.speculative, t.killed)
        for t in tasks
    ]


class TestSchedulerSpeculation:
    def _splits(self, n, nodes=(0, 1)):
        return [InputSplit(10, list(nodes), f"s{i}") for i in range(n)]

    def test_duplicate_wins_and_original_killed(self):
        # 2 nodes x 1 slot, node 1 takes 5s per attempt.  Node 0 runs
        # s0, s2, s3 back to back; at t=3 the queue has 3 samples of 1s,
        # s1 (running 3s on node 1) is a straggler, and its clone on
        # node 0 finishes at t=4 — before the original.
        tasks = run_splits(
            self._splits(4), 2, 1, _slow_node_execute(5.0), speculative=True
        )
        assert len(tasks) == 5  # 4 originals + 1 duplicate
        duplicate = next(t for t in tasks if t.speculative)
        original = next(
            t for t in tasks
            if t.split.label == duplicate.split.label and not t.speculative
        )
        assert (duplicate.node, duplicate.start) == (0, 3.0)
        assert not duplicate.killed
        assert original.killed
        assert original.end == duplicate.end == 4.0  # killed at commit

    def test_speculation_improves_makespan(self):
        execute = _slow_node_execute(5.0)
        baseline = run_splits(self._splits(4), 2, 1, execute)
        speculated = run_splits(
            self._splits(4), 2, 1, execute, speculative=True
        )
        assert makespan(baseline) == 5.0
        assert makespan(speculated) == 4.0

    def test_no_speculation_when_everything_local(self):
        # Every attempt takes the typical 1s: nothing ever straggles.
        tasks = run_splits(
            self._splits(4), 2, 1, _slow_node_execute(1.0), speculative=True
        )
        assert not any(t.speculative for t in tasks)

    def test_losing_duplicate_marked_killed(self):
        # The original needs 3.5s; its clone launches at t=3 and would
        # end at t=4, so the original commits first and the clone dies.
        tasks = run_splits(
            self._splits(4), 2, 1, _slow_node_execute(3.5), speculative=True
        )
        duplicates = [t for t in tasks if t.speculative]
        assert len(duplicates) == 1
        assert duplicates[0].killed
        assert duplicates[0].end == 3.5
        original = next(
            t for t in tasks
            if t.split.label == duplicates[0].split.label
            and not t.speculative
        )
        assert not original.killed

    def test_each_split_speculated_at_most_once(self):
        tasks = run_splits(
            self._splits(8, nodes=(0, 1, 2, 3)), 4, 1,
            _slow_node_execute(20.0), speculative=True,
        )
        per_split = Counter(t.split.label for t in tasks)
        assert all(count <= 2 for count in per_split.values())
        assert any(t.speculative for t in tasks)

    def test_off_by_default_matches_plain(self):
        execute = _slow_node_execute(5.0)
        plain = run_splits(self._splits(4), 2, 1, execute)
        assert not any(t.speculative for t in plain)
        # Speculation that never fires leaves the schedule untouched.
        quiet = run_splits(
            self._splits(4), 2, 1, _slow_node_execute(1.0), speculative=True
        )
        assert _signature(quiet) == _signature(
            run_splits(self._splits(4), 2, 1, _slow_node_execute(1.0))
        )


class TestJobSpeculation:
    def test_output_unchanged_by_speculation(self):
        # A CIF dataset on a tiny cluster without CPP: some tasks run
        # remotely, speculation re-runs them — the job's answer must be
        # byte-identical to the non-speculative run.
        fs = FileSystem(
            ClusterConfig(num_nodes=4, map_slots_per_node=1,
                          block_size=32 * 1024)
        )
        schema = micro_schema()
        records = micro_records(schema, 300)
        write_dataset(fs, "/sp/d", schema, records, split_bytes=8 * 1024)

        def mapper(key, record, emit, ctx):
            emit(record.get("int0") % 10, 1)

        def reducer(key, values, emit, ctx):
            emit(key, sum(values))

        fmt = ColumnInputFormat("/sp/d", columns=["int0"], lazy=False)
        plain = run_job(fs, Job("p", mapper, fmt, reducer=reducer))
        spec = run_job(
            fs, Job("s", mapper, fmt, reducer=reducer, speculative=True)
        )
        assert sorted(plain.output) == sorted(spec.output)
        assert spec.counters.as_dict() == plain.counters.as_dict()
        # Speculative duplicates never *increase* wall clock.
        assert spec.map_makespan <= plain.map_makespan + 1e-9
