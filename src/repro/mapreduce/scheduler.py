"""The one map-slot scheduler: locality, attempts, faults, speculation.

Reproduces the scheduling behaviour the paper's co-location argument
depends on (Section 4.1): when a map slot frees up, the scheduler
prefers a split whose data is local to that node; if none exists the
task runs anyway and pays remote-read costs.  Task durations are not
known in advance — the scheduler *executes* each attempt (through the
request's ``execute(split, node) -> (metrics, payload)`` function) once
it has decided where it runs, because placement determines how much of
the split is read remotely.  The attempt's completion then becomes an
event on the simulated timeline.

:class:`SlotScheduler` is the only event loop that runs map attempts.
A single job (``JobRunner.run``, and with it ``run_job`` and ``Q.run``)
and the parallel COF loader each run as one request alone on the
cluster, FIFO with one tenant (:meth:`SlotScheduler.run_alone`).  The multi-job
:class:`~repro.cluster.manager.ClusterManager` subclasses the loop and
adds admission control, hierarchical fair share, preemption and the
write-ahead log on top.

On top of placement sits Hadoop's fault-tolerance contract:

- each split runs as a sequence of *attempts*.  An attempt that raises
  a :class:`~repro.hdfs.errors.FaultError` (transient read error, dead
  node, missing block) — or that was running on a node when it died —
  is retried on another node after a seeded exponential backoff, up to
  ``max_attempts`` per split.  A node that fails
  :data:`BLACKLIST_AFTER` of one job's attempts is blacklisted for that
  job.  When a split exhausts its attempts the job fails; a single
  request raises :class:`JobFailedError`,
- a completed attempt's spilled output lives on the node that ran it.
  The job stays vulnerable until its shuffle window closes (the time
  the largest reduce partition takes to cross the network — a lower
  bound on the reduce makespan, so fault-free finish times are
  unchanged).  A node death before then re-queues every split whose
  output it held, without consuming retry budget,
- stragglers are cloned onto idle slots (:class:`SpeculationConfig`);
  the first finisher wins and the loser is killed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from repro.hdfs.errors import FaultError
from repro.hdfs.filesystem import FileSystem
from repro.mapreduce.backoff import BackoffConfig, ExponentialBackoff
from repro.mapreduce.job import Job
from repro.mapreduce.types import InputSplit
from repro.obs import Observability, current_obs
from repro.sim.metrics import Metrics

#: Failed attempts of one job on one node before that job blacklists it.
BLACKLIST_AFTER = 3

#: ``execute(split, node) -> (metrics, payload)``: one attempt, run for
#: real.  It raises :class:`~repro.hdfs.errors.FaultError` (optionally
#: carrying the partial ``metrics``) when the attempt dies mid-read.
Execute = Callable[[InputSplit, int], Tuple[Metrics, object]]


@dataclass
class ScheduledTask:
    """One executed map-task attempt (or speculative duplicate)."""

    split: InputSplit
    node: int
    start: float
    duration: float
    metrics: Metrics
    data_local: bool
    speculative: bool = False
    killed: bool = False  # lost the race against its duplicate/original
    attempt: int = 0      # 0-based attempt number for this split
    failed: bool = False  # attempt died (fault or node loss); was retried
    error: Optional[str] = None
    split_index: int = -1
    slot: int = -1        # which of the node's map slots ran the attempt

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def produced_output(self) -> bool:
        """Did this attempt's output make it into the job's result?"""
        return not self.killed and not self.failed


class JobFailedError(RuntimeError):
    """A split exhausted its task attempts (or the cluster died).

    ``attempts`` is the failed-attempt history: one dict per failed
    attempt with ``split``, ``node``, ``attempt``, ``start``, ``error``.
    """

    def __init__(self, message: str, attempts: Optional[List[dict]] = None):
        super().__init__(message)
        self.attempts: List[dict] = list(attempts or [])


@dataclass(frozen=True)
class SpeculationConfig:
    """When and how aggressively the scheduler clones stragglers.

    Every completed attempt's duration feeds a per-queue sample.  A
    running original attempt becomes a straggler once it has run longer
    than ``slowdown`` times the queue's ``quantile`` duration
    (nearest-rank, so detection is deterministic).  With fewer than
    ``min_samples`` completions in a queue there is no trustworthy
    notion of "slow" yet, so nothing speculates.
    """

    enabled: bool = False
    slowdown: float = 1.5    # straggler = elapsed > slowdown * typical
    quantile: float = 0.5    # "typical" = this quantile of completions
    min_samples: int = 3     # per-queue completions before speculating

    def __post_init__(self) -> None:
        if self.slowdown < 1.0:
            raise ValueError("speculation slowdown must be >= 1.0")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("speculation quantile must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("speculation min_samples must be >= 1")

    def to_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "slowdown": self.slowdown,
            "quantile": self.quantile,
            "min_samples": self.min_samples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpeculationConfig":
        return cls(
            enabled=bool(data.get("enabled", False)),
            slowdown=float(data.get("slowdown", 1.5)),
            quantile=float(data.get("quantile", 0.5)),
            min_samples=int(data.get("min_samples", 3)),
        )


@dataclass(frozen=True)
class JobRequest:
    """One job submission: who wants what, and when.

    ``deadline`` (seconds after arrival, None = none) arms the cluster
    manager's deadline-aware admission: it sheds the job up front if
    the cost model predicts it cannot finish in time.
    """

    job: Job
    tenant: str
    arrival: float
    request_id: int = 0
    kind: str = ""  # workload class label (crawl_scan / analytics / ...)
    deadline: Optional[float] = None


def percentile(sample: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (p in [0, 100]) of an unsorted sample."""
    if not sample:
        return 0.0
    ordered = sorted(sample)
    if p <= 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
    return ordered[min(len(ordered), int(rank)) - 1]


def estimate_pair_size(key, value) -> int:
    """Approximate serialized size of a shuffled (key, value) pair."""
    return _sizeof(key) + _sizeof(value) + 2


def _sizeof(obj) -> int:
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 5
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        return len(obj) + 2
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 2
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 4 + sum(_sizeof(x) for x in obj)
    if isinstance(obj, dict):
        return 4 + sum(_sizeof(k) + _sizeof(v) for k, v in obj.items())
    return 16


@dataclass
class _Pending:
    """A split waiting to run (first time or retry)."""

    index: int
    attempt: int
    ready: float = 0.0
    banned: FrozenSet[int] = field(default_factory=frozenset)


@dataclass
class _Running:
    """One in-flight map attempt on a slot."""

    execution: "_Execution"
    pending: _Pending
    task: ScheduledTask
    node: int
    slot: int
    seq: int = 0
    payload: object = None
    alive: bool = True      # False once preempted / node died / killed
    speculative: bool = False
    partner_seq: Optional[int] = None  # the other attempt in a race


class _Execution:
    """Mutable per-job state while a job is on the cluster.

    ``state`` walks ``mapping -> shuffling -> finished``; a node death
    that destroys committed map output reverts ``shuffling`` back to
    ``mapping`` (the shuffle aborts) until the lost splits re-run.
    """

    def __init__(
        self,
        request: JobRequest,
        queue: str,
        splits: List[InputSplit],
        execute: Execute,
        eid: int,
    ) -> None:
        self.request = request
        self.job: Job = request.job
        self.tenant = request.tenant
        self.queue = queue
        self.splits = splits
        self.execute = execute
        self.eid = eid
        self.pending: List[_Pending] = [
            _Pending(i, 0) for i in range(len(splits))
        ]
        self.attempts_used = [0] * len(splits)
        #: committed payload and winning attempt of each split; the
        #: winner's node holds the split's spilled map output
        self.payloads: Dict[int, object] = {}
        self.winners: Dict[int, ScheduledTask] = {}
        self.tasks: List[ScheduledTask] = []
        self.running = 0
        self.started = False
        self.start = 0.0
        self.preemptions = 0
        self.failed: Optional[str] = None
        self.state = "mapping"
        self.map_end = 0.0
        self.shuffle_gen = 0  # bumped on every start/abort; stales heap entries
        #: split indices that already have (or had) a speculative clone
        self.speculated: Set[int] = set()
        self.node_failures: Dict[int, int] = {}
        self.blacklist: Set[int] = set()

    def done(self) -> bool:
        return (
            self.failed is None
            and not self.pending
            and self.running == 0
            and len(self.payloads) == len(self.splits)
        )

    def unfinished(self) -> bool:
        return self.failed is None and self.state != "finished"

    def ready(self, now: float) -> List[_Pending]:
        if self.failed is not None:
            return []
        return [p for p in self.pending if p.ready <= now]


class SlotScheduler:
    """The event loop arbitrating one cluster's map slots.

    ``faults`` is an optional :class:`~repro.faults.FaultInjector`
    driven by the timeline.  ``max_attempts`` (when set) overrides every
    job's own.  ``wal`` is an optional journal with an ``append(kind,
    **fields)`` method that records every scheduling decision.
    """

    def __init__(
        self,
        fs: FileSystem,
        obs: Optional[Observability] = None,
        faults=None,
        speculation: Optional[SpeculationConfig] = None,
        backoff: Optional[BackoffConfig] = None,
        max_attempts: Optional[int] = None,
        wal=None,
    ) -> None:
        self.fs = fs
        self.obs = obs if obs is not None else current_obs()
        self.faults = faults
        self.speculation = speculation or SpeculationConfig()
        backoff = backoff or BackoffConfig()
        if backoff.seed == 0:
            backoff = replace(backoff, seed=fs.cluster.seed)
        self.retry_backoff = ExponentialBackoff(backoff)
        self.max_attempts = max_attempts
        self.wal = wal

        cluster = fs.cluster
        # Nodes the filesystem already reports dead or decommissioned
        # never offer a slot.
        self.free: List[Tuple[int, int]] = [
            (node, slot)
            for node in range(cluster.num_nodes)
            if fs.is_node_live(node)
            for slot in range(cluster.map_slots_per_node)
        ]
        self.total_slots = len(self.free)
        self.dead_nodes: set = set()
        self.running: Dict[int, _Running] = {}
        self._completions: List[Tuple[float, int]] = []
        self._shuffles: List[Tuple[float, int, int]] = []  # (end, eid, gen)
        self._attempt_seq = 0
        self.executions: List[_Execution] = []
        #: per-queue successful attempt durations (speculation samples)
        self._durations: Dict[str, List[float]] = {}
        self.busy_slot_seconds = 0.0
        self.map_output_losses = 0
        self.speculative_attempts = 0
        self.horizon = 0.0
        self.now = 0.0

    def _wal_append(self, kind: str, /, **fields) -> None:
        if self.wal is not None:
            self.wal.append(kind, **fields)

    # -- requests -------------------------------------------------------

    def submit(
        self,
        request: JobRequest,
        splits: List[InputSplit],
        execute: Execute,
        queue: str = "default",
    ) -> _Execution:
        """Put a request's splits on the cluster at the current instant."""
        execution = _Execution(
            request, queue, splits, execute, len(self.executions)
        )
        self.executions.append(execution)
        return execution

    def run_alone(
        self, job: Job, splits: List[InputSplit], execute: Execute
    ) -> _Execution:
        """Run ``job`` as the cluster's only request — FIFO with one
        tenant — through its shuffle window; raises
        :class:`JobFailedError` if it cannot finish."""
        execution = self.submit(
            JobRequest(job, "default", 0.0), splits, execute
        )
        if not self.fs.cluster.total_map_slots:
            return execution  # a cluster without map slots runs nothing
        self._loop()
        if execution.failed is not None:
            raise JobFailedError(execution.failed, [
                {"split": t.split.label, "node": t.node,
                 "attempt": t.attempt, "start": t.start, "error": t.error}
                for t in execution.tasks
                if t.failed
            ])
        return execution

    # -- the event loop -------------------------------------------------

    def _loop(self) -> None:
        while True:
            # Everything due at the current instant, in causal order:
            # completed shuffles commit (their data is safely across the
            # network), faults fire, finished attempts release their
            # slots, new jobs arrive, then the freed/idle slots are
            # assigned.
            self._drain_shuffles(self.now)
            self._fire_faults(self.now)
            self._drain_completions(self.now)
            self._arrive(self.now)
            self._assign(self.now)

            # Advance to the next event.  Assignment executes attempts
            # eagerly, so completions scheduled for this same instant
            # (zero-length attempts) re-run the loop without moving.
            self._prune_completions()
            self._prune_shuffles()
            future = self._future_events()
            if not future:
                if self._lift_bans():
                    continue
                # Work left with nowhere to run and no event that could
                # change that: every slot died under it.
                self._strand()
                break
            self.now = max(self.now, min(future))
            self.horizon = max(self.horizon, self.now)

    def _future_events(self) -> List[float]:
        future = []
        arrival = self._next_arrival()
        if arrival is not None:
            future.append(arrival)
        if self._completions:
            future.append(self._completions[0][0])
        if self._shuffles:
            future.append(self._shuffles[0][0])
        for execution in self.executions:
            if execution.failed is not None:
                continue
            for p in execution.pending:
                if p.ready > self.now:
                    future.append(p.ready)
        if self.speculation.enabled and self.free:
            wake = self._next_speculation_time()
            if wake is not None and wake > self.now:
                future.append(wake)
        if self.faults is not None and (
            arrival is not None
            or any(e.unfinished() for e in self.executions)
        ):
            # While work is outstanding, faults are timeline events of
            # their own: they must land at their exact instants —
            # through the shuffle window included — not at whatever
            # scheduling boundary follows.
            next_fault = self.faults.next_time()
            if next_fault is not None:
                future.append(next_fault)
        return future

    def _lift_bans(self) -> bool:
        """Nothing left could free a slot: a node a retry is banned
        from beats a deadlocked job.  True if any ban was lifted."""
        lifted = False
        if self.free:
            for execution in self.executions:
                for pending in execution.ready(self.now):
                    if pending.banned:
                        pending.banned = frozenset()
                        lifted = True
        return lifted

    # -- hooks the cluster manager fills in ------------------------------

    def _arrive(self, now: float) -> None:
        """Admit the requests due at ``now``."""

    def _next_arrival(self) -> Optional[float]:
        return None

    def _dispatched(self, execution: _Execution, now: float) -> None:
        """The job's first attempt just launched."""

    def _at_quota(self, execution: _Execution) -> bool:
        """May the job not take another slot right now?"""
        return False

    def _finalize(self, execution: _Execution, map_end: float) -> None:
        """Shuffle complete: the job's map outputs are durable."""
        execution.state = "finished"

    def _fail_job(
        self, execution: _Execution, error: str, now: float
    ) -> None:
        execution.failed = error
        execution.pending.clear()

    def _strand(self) -> None:
        for execution in self.executions:
            if execution.failed is None and not execution.done():
                unfinished = len(execution.splits) - len(execution.payloads)
                self._fail_job(
                    execution,
                    "no live map slots remain "
                    f"({unfinished} splits unfinished)",
                    self.now,
                )

    # -- faults / node loss --------------------------------------------

    def _fire_faults(self, now: Optional[float] = None) -> None:
        """Apply the faults due by ``now`` — or, without it, those the
        injector has already fired."""
        if self.faults is None:
            return
        if now is not None:
            self.faults.advance_time(now)
        for node, died_at in self.faults.drain_dead():
            self._node_lost(node, died_at)
        for node in self.faults.drain_retired():
            self._retire_node(node)

    def _boundary_kills(self, node: int) -> bool:
        """An attempt is about to start: fire the task-boundary faults.
        True if they took ``node`` out."""
        if self.faults is None:
            return False
        self.faults.on_task_start()
        self._fire_faults()
        return node in self.dead_nodes or self.faults.is_dead(node)

    def _retire_node(self, node: int) -> None:
        self.dead_nodes.add(node)
        self.free = [(n, s) for n, s in self.free if n != node]

    def _node_lost(self, node: int, died_at: float) -> None:
        self._retire_node(node)
        self.obs.emit("node.lost", sim_time=died_at, node=node)
        self._wal_append("node_lost", t=died_at, node=node)
        for running in list(self.running.values()):
            if not running.alive or running.node != node:
                continue
            self._truncate(running, died_at, "node died")
            self._emit_finish(running, died_at, "lost")
            execution = running.execution
            self._wal_append(
                "complete", t=died_at, job=execution.job.name,
                split=execution.splits[running.pending.index].label,
                node=node, outcome="lost",
            )
            self._retry(running, died_at, "node died")
        self._invalidate_outputs(node, died_at)

    def _invalidate_outputs(self, node: int, died_at: float) -> None:
        """Durable-output bookkeeping: a dead node takes every spilled
        map output it held.  Jobs whose shuffle has not completed lose
        those splits and re-run them (no retry budget consumed — output
        loss is not the task's failure); an in-flight shuffle aborts."""
        for execution in self.executions:
            if not execution.unfinished():
                continue
            lost = sorted(
                index
                for index, winner in execution.winners.items()
                if winner.node == node
            )
            if not lost:
                continue
            if execution.state == "shuffling":
                execution.state = "mapping"
                execution.shuffle_gen += 1
                self.obs.emit(
                    "shuffle.abort", sim_time=died_at,
                    job=execution.job.name, tenant=execution.tenant,
                    node=node, lost_splits=len(lost),
                )
                self._wal_append(
                    "shuffle_abort", t=died_at, job=execution.job.name,
                    node=node,
                )
            for index in lost:
                del execution.payloads[index]
                del execution.winners[index]
                self.map_output_losses += 1
                split_label = execution.splits[index].label
                self.obs.emit(
                    "mapoutput.lost", sim_time=died_at,
                    split=split_label, node=node,
                    job=execution.job.name, tenant=execution.tenant,
                )
                self._wal_append(
                    "output_lost", t=died_at, job=execution.job.name,
                    split=split_label, node=node,
                )
                self._requeue(
                    execution,
                    _Pending(
                        index, execution.attempts_used[index], died_at,
                    ),
                    died_at, frozenset({node}), "map output lost",
                    consume_attempt=False,
                )

    # -- attempt lifecycle ---------------------------------------------

    def _truncate(
        self, running: _Running, at: float, error: str
    ) -> None:
        """Stop a live attempt at ``at``; its work so far is wasted."""
        task = running.task
        task.failed = True
        task.error = error
        task.duration = max(0.0, at - task.start)
        self._release(running)

    def _release(self, running: _Running) -> None:
        """An attempt stopped: account its slot time and return the
        slot to the pool, unless the slot's node died."""
        running.alive = False
        running.execution.running -= 1
        self.busy_slot_seconds += running.task.duration
        if running.node not in self.dead_nodes:
            self.free.append((running.node, running.slot))

    def _live_partner(self, running: _Running) -> Optional[_Running]:
        """The other attempt racing this one, if it is still alive."""
        if running.partner_seq is None:
            return None
        partner = self.running.get(running.partner_seq)
        if partner is not None and partner.alive:
            return partner
        return None

    def _retry(self, running: _Running, at: float, error: str) -> None:
        """A live attempt died: re-queue its split away from its node —
        unless the attempt racing it still covers the split, in which
        case losing one contender costs nothing further."""
        execution = running.execution
        if self._live_partner(running) is not None:
            if running.speculative:
                execution.speculated.discard(running.pending.index)
            return
        self._requeue(
            execution, running.pending, at, frozenset({running.node}),
            error, consume_attempt=not running.speculative,
        )

    def _requeue(
        self,
        execution: _Execution,
        pending: _Pending,
        now: float,
        banned: frozenset,
        error: str,
        consume_attempt: bool,
    ) -> None:
        index = pending.index
        label = execution.splits[index].label or str(index)
        if not consume_attempt:
            # A preempted attempt (or a lost map output) is the
            # scheduler's fault, not the task's: give the attempt back
            # so eviction can never starve a job into failed-job
            # territory.
            execution.attempts_used[index] -= 1
        used = execution.attempts_used[index]
        limit = max(
            1,
            self.max_attempts
            if self.max_attempts is not None
            else execution.job.max_attempts,
        )
        if used >= limit:
            self._fail_job(
                execution,
                f"split {label} failed {used} of {limit} "
                f"allowed attempts (last error: {error})",
                now,
            )
            return
        delay = 0.0
        if consume_attempt:
            # A genuine failure backs off before relaunching — seeded
            # exponential delay with jitter so simultaneous failures
            # spread out instead of re-colliding.
            delay = self.retry_backoff.delay(
                f"{execution.job.name}:{label}", max(0, used - 1)
            )
            if delay > 0:
                self.obs.emit(
                    "retry.backoff", sim_time=now,
                    job=execution.job.name, split=label,
                    attempt=used, delay=delay, ready=now + delay,
                )
        execution.pending.append(
            _Pending(index, used, now + delay, pending.banned | banned)
        )
        self._wal_append(
            "requeue", t=now, job=execution.job.name, split=label,
            ready=now + delay, attempt=used,
        )

    def _note_node_failure(self, execution: _Execution, node: int) -> None:
        """Count a failed attempt against ``node``; blacklist the node
        for this job once it has failed :data:`BLACKLIST_AFTER`."""
        failures = execution.node_failures.get(node, 0) + 1
        execution.node_failures[node] = failures
        if failures >= BLACKLIST_AFTER and node not in execution.blacklist:
            execution.blacklist.add(node)
            self.obs.emit(
                "node.blacklisted", node=node, failures=failures,
                job=execution.job.name,
            )

    def _emit_finish(
        self, running: _Running, at: float, outcome: str
    ) -> None:
        """Publish how an attempt ended: its ``task.finish`` event is
        the one record of the attempt's outcome, time and cost."""
        if not self.obs.enabled:
            return
        task = running.task
        metrics = task.metrics
        execution = running.execution
        extra = {"error": task.error} if task.error else {}
        self.obs.emit(
            "task.finish", sim_time=at, kind="map",
            split=task.split.label, node=running.node, slot=running.slot,
            attempt=running.pending.attempt, outcome=outcome,
            duration=task.duration, job=execution.job.name,
            tenant=execution.tenant, speculative=running.speculative,
            failed=task.failed, start=task.start,
            sim_io=metrics.io_time, sim_cpu=metrics.cpu_time,
            disk_bytes=metrics.disk_bytes, net_bytes=metrics.net_bytes,
            requested_bytes=metrics.requested_bytes, seeks=metrics.seeks,
            records=metrics.records, data_local=task.data_local,
            format=type(execution.job.input_format).__name__, **extra,
        )

    # -- completions ----------------------------------------------------

    def _prune_completions(self) -> None:
        """Drop stale heap tops (attempts preempted / killed with
        their node) so they never masquerade as future events."""
        while self._completions:
            _, seq = self._completions[0]
            running = self.running.get(seq)
            if running is not None and running.alive:
                return
            heapq.heappop(self._completions)
            self.running.pop(seq, None)

    def _drain_completions(self, upto: float) -> None:
        while self._completions and self._completions[0][0] <= upto:
            end, seq = heapq.heappop(self._completions)
            running = self.running.pop(seq, None)
            if running is None or not running.alive:
                continue  # preempted or killed with the node
            self._release(running)
            execution = running.execution
            outcome = "failed" if running.task.failed else "ok"
            self._emit_finish(running, end, outcome)
            self._wal_append(
                "complete", t=end, job=execution.job.name,
                split=execution.splits[running.pending.index].label,
                node=running.node, outcome=outcome,
            )
            if running.task.failed:
                self._note_node_failure(execution, running.node)
                self._retry(running, end, running.task.error or "fault")
            else:
                execution.payloads[running.pending.index] = running.payload
                execution.winners[running.pending.index] = running.task
                self._durations.setdefault(
                    execution.queue, []
                ).append(running.task.duration)
                partner = self._live_partner(running)
                if partner is not None:
                    self._lose_race(partner, end, winner=running)
            if execution.done():
                self._start_shuffle(execution, end)

    def _lose_race(
        self, loser: _Running, end: float, winner: _Running
    ) -> None:
        """First finisher wins: the moment the winner's payload commits,
        the racing attempt is killed (not failed — no budget, no
        requeue) and its slot returns to the pool."""
        task = loser.task
        saved = max(0.0, task.end - end)
        task.killed = True
        task.duration = max(0.0, end - task.start)
        self._release(loser)
        execution = loser.execution
        outcome = "won" if winner.speculative else "lost"
        self._emit_finish(loser, end, "killed")
        split_label = execution.splits[loser.pending.index].label
        self.obs.emit(
            "scheduler.speculation", sim_time=end,
            split=split_label, job=execution.job.name,
            tenant=execution.tenant, outcome=outcome,
            winner_node=winner.node, loser_node=loser.node,
            saved=saved,
        )
        self._wal_append(
            "complete", t=end, job=execution.job.name,
            split=split_label, node=loser.node, outcome="killed",
        )

    # -- shuffle window -------------------------------------------------

    def _shuffle_window(self, execution: _Execution) -> float:
        """How long the job's map outputs stay vulnerable after the last
        map finishes: the time the largest reduce partition takes to
        cross the network.  Each reduce task charges at least its own
        partition's shuffle time, so this is a lower bound on the reduce
        makespan — the fault-free timeline is unchanged."""
        job = execution.job
        if job.is_map_only or job.num_reducers <= 0:
            return 0.0
        rate = self.fs.cluster.network.shuffle_bytes_per_sec
        if rate <= 0:
            return 0.0
        partitions = max(job.num_reducers, 1)
        per_partition = [0] * partitions
        for payload, _counters in execution.payloads.values():
            for index, partition in enumerate(payload):
                per_partition[index] += sum(
                    estimate_pair_size(key, value)
                    for key, value in partition
                )
        return max(per_partition) / rate

    def _start_shuffle(self, execution: _Execution, map_end: float) -> None:
        """All splits committed: open the shuffle window.  The job's
        output is durable only once the window closes; until then a node
        death can claw back this job's map outputs."""
        execution.map_end = map_end
        window = self._shuffle_window(execution)
        if window <= 0.0:
            self._finalize(execution, map_end)
            return
        execution.state = "shuffling"
        execution.shuffle_gen += 1
        end = map_end + window
        heapq.heappush(
            self._shuffles, (end, execution.eid, execution.shuffle_gen)
        )
        self.obs.emit(
            "shuffle.start", sim_time=map_end,
            job=execution.job.name, tenant=execution.tenant,
            window=window, end=end,
            partitions=max(execution.job.num_reducers, 1),
        )
        self._wal_append(
            "shuffle_start", t=map_end, job=execution.job.name, end=end,
        )

    def _prune_shuffles(self) -> None:
        while self._shuffles:
            _end, eid, gen = self._shuffles[0]
            execution = self.executions[eid]
            if (
                execution.failed is None
                and execution.state == "shuffling"
                and execution.shuffle_gen == gen
            ):
                return
            heapq.heappop(self._shuffles)

    def _drain_shuffles(self, upto: float) -> None:
        while self._shuffles and self._shuffles[0][0] <= upto:
            end, eid, gen = heapq.heappop(self._shuffles)
            execution = self.executions[eid]
            if (
                execution.failed is not None
                or execution.state != "shuffling"
                or execution.shuffle_gen != gen
            ):
                continue  # aborted (and possibly restarted) since
            self.obs.emit(
                "shuffle.finish", sim_time=end,
                job=execution.job.name, tenant=execution.tenant,
            )
            self._finalize(execution, execution.map_end)

    # -- assignment -----------------------------------------------------

    def _assign(self, now: float) -> None:
        """Place ready work on free slots, then clone stragglers."""
        while self.free:
            placement = self._select(now)
            if placement is None:
                break
            self._launch(now, *placement)
        if self.speculation.enabled and self.free:
            self._speculate(now)

    def _select(self, now: float):
        """FIFO: the oldest job with a placeable split goes first."""
        ordered = sorted(
            (e for e in self.executions if e.ready(now)),
            key=lambda e: (e.request.arrival, e.request.request_id),
        )
        for execution in ordered:
            placed = self._place(execution, now)
            if placed is not None:
                return placed
        return None

    @staticmethod
    def _first_slot(free, banned, locations=None):
        """The first of the sorted ``free`` slots off every ``banned``
        node — and, with ``locations``, on one of those nodes."""
        for node, slot in free:
            if node in banned:
                continue
            if locations is None or node in locations:
                return node, slot
        return None

    def _place(self, execution: _Execution, now: float):
        """Match one of the job's ready splits to a free slot,
        data-local first."""
        free = sorted(self.free)
        ready = execution.ready(now)
        for local in (True, False):
            for pending in ready:
                found = self._first_slot(
                    free,
                    pending.banned | execution.blacklist,
                    execution.splits[pending.index].locations
                    if local else None,
                )
                if found is not None:
                    return (execution, pending, *found, local)
        return None

    def _launch(
        self,
        now: float,
        execution: _Execution,
        pending: _Pending,
        node: int,
        slot: int,
        local: bool,
    ) -> None:
        self.free.remove((node, slot))
        execution.pending.remove(pending)
        if self._boundary_kills(node):
            # The slot died with its node; the attempt never started.
            execution.pending.append(pending)
            return
        execution.attempts_used[pending.index] += 1
        if not execution.started:
            execution.started = True
            execution.start = now
            self._dispatched(execution, now)
        self._execute_attempt(now, execution, pending, node, slot, local)

    def _execute_attempt(
        self,
        now: float,
        execution: _Execution,
        pending: _Pending,
        node: int,
        slot: int,
        local: bool,
        speculative: bool = False,
        partner_seq: Optional[int] = None,
    ) -> _Running:
        """Announce one attempt, run it eagerly and register its
        completion event."""
        job = execution.job
        split = execution.splits[pending.index]
        flag = {"speculative": True} if speculative else {}
        placement = "local" if local else "remote"
        self.obs.emit(
            "task.start", sim_time=now, kind="map",
            split=split.label, node=node, slot=slot,
            attempt=pending.attempt, placement=placement, **flag,
            job=job.name, tenant=execution.tenant, queue=execution.queue,
        )
        self._wal_append(
            "launch", t=now, job=job.name, split=split.label,
            node=node, slot=slot, attempt=pending.attempt, **flag,
        )
        faulted = False
        payload = None
        try:
            metrics, payload = execution.execute(split, node)
            error = None
        except FaultError as exc:
            metrics = getattr(exc, "metrics", None) or Metrics()
            error = str(exc) or type(exc).__name__
            faulted = True
        duration = metrics.task_time
        task = ScheduledTask(
            split, node, now, duration, metrics, local,
            attempt=pending.attempt, failed=faulted, error=error,
            split_index=pending.index, slot=slot,
            speculative=speculative,
        )
        execution.tasks.append(task)
        execution.running += 1
        # task.finish is deferred until the attempt actually resolves
        # (drain / preemption / node loss): an attempt launched now may
        # never reach its computed end.
        self._attempt_seq += 1
        running = _Running(
            execution=execution,
            pending=pending,
            task=task,
            node=node,
            slot=slot,
            seq=self._attempt_seq,
            payload=payload,
            speculative=speculative,
            partner_seq=partner_seq,
        )
        self.running[self._attempt_seq] = running
        heapq.heappush(
            self._completions, (now + duration, self._attempt_seq)
        )
        return running

    # -- speculation ----------------------------------------------------

    def _stragglers(self, now: Optional[float]):
        """``(threshold, seq, attempt)`` for every running original
        attempt that may be cloned; with ``now`` given, only those that
        have crossed their threshold by then."""
        cfg = self.speculation
        found = []
        for seq in sorted(self.running):
            running = self.running[seq]
            if not running.alive or running.speculative:
                continue
            if self._live_partner(running) is not None:
                continue
            execution = running.execution
            if execution.failed is not None:
                continue
            if running.pending.index in execution.speculated:
                continue
            samples = self._durations.get(execution.queue, ())
            if len(samples) < cfg.min_samples:
                continue
            typical = percentile(samples, cfg.quantile * 100)
            if typical <= 0:
                continue
            # elapsed >= slowdown * typical, so the threshold-crossing
            # wake-up itself qualifies
            if now is not None and now - running.task.start < (
                cfg.slowdown * typical
            ):
                continue
            found.append((
                running.task.start + cfg.slowdown * typical, seq, running,
            ))
        return found

    def _next_speculation_time(self) -> Optional[float]:
        """Earliest instant a running attempt crosses the straggler
        threshold.  Without this the event loop would only notice a
        straggler at the next natural event — which in a quiet cluster
        is the straggler's own completion, too late to help."""
        return min(
            (threshold for threshold, _, _ in self._stragglers(None)),
            default=None,
        )

    def _speculate(self, now: float) -> None:
        """Clone stragglers onto otherwise-idle slots.

        Progress-based detection — the scheduler never peeks at an
        attempt's predetermined end.  Worst straggler (longest running)
        first; each clone is charged to the owning job's share, and
        never consumes the original's retry budget.
        """
        stragglers = sorted(
            self._stragglers(now),
            key=lambda item: (-(now - item[2].task.start), item[1]),
        )
        for _threshold, _seq, original in stragglers:
            if not self.free:
                break
            if not original.alive:
                continue
            execution = original.execution
            if self._at_quota(execution):
                continue
            banned = (
                original.pending.banned
                | frozenset({original.node})
                | execution.blacklist
            )
            locations = execution.splits[original.pending.index].locations
            free = sorted(self.free)
            found = self._first_slot(free, banned, locations)
            local = found is not None
            if not local:
                found = self._first_slot(free, banned)
            if found is not None:
                self._launch_speculative(now, original, *found, local)

    def _launch_speculative(
        self,
        now: float,
        original: _Running,
        node: int,
        slot: int,
        local: bool,
    ) -> None:
        execution = original.execution
        index = original.pending.index
        self.free.remove((node, slot))
        execution.speculated.add(index)
        if self._boundary_kills(node):
            # The slot died with its node; the clone never starts.
            execution.speculated.discard(index)
            return
        if (
            not original.alive
            or execution.failed is not None
            or index in execution.payloads
        ):
            # A boundary fault resolved the original (or the job);
            # nothing left to race.
            execution.speculated.discard(index)
            self.free.append((node, slot))
            return
        pending = _Pending(
            index, original.pending.attempt, now,
            original.pending.banned | frozenset({original.node}),
        )
        self.speculative_attempts += 1
        self.obs.emit(
            "task.speculative", sim_time=now,
            split=execution.splits[index].label,
            node=node, slot=slot, victim_node=original.node,
            elapsed=now - original.task.start,
            job=execution.job.name, tenant=execution.tenant,
            queue=execution.queue,
        )
        duplicate = self._execute_attempt(
            now, execution, pending, node, slot, local,
            speculative=True, partner_seq=original.seq,
        )
        original.partner_seq = duplicate.seq


def makespan(tasks: Sequence[ScheduledTask]) -> float:
    """Wall-clock end of the last task (0 for an empty task list)."""
    return max((t.end for t in tasks), default=0.0)


def simulate_wave_makespan(durations: Sequence[float], total_slots: int) -> float:
    """Makespan of independent tasks on ``total_slots`` identical slots.

    Used for the reduce phase, where there is no data locality: a simple
    longest-processing-time-first packing over a slot heap.
    """
    if not durations or total_slots < 1:
        return 0.0
    slots = [0.0] * min(total_slots, len(durations))
    heapq.heapify(slots)
    for duration in sorted(durations, reverse=True):
        free = heapq.heappop(slots)
        heapq.heappush(slots, free + duration)
    return max(slots)
