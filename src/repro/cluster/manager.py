"""The multi-job resource manager: one slot pool, many jobs.

:class:`ClusterManager` is the map scheduler
(:class:`~repro.mapreduce.scheduler.SlotScheduler`, which places,
retries and speculates every attempt) with a multi-tenancy layer on
top.  Each finished job's shuffle/sort/reduce runs through
``JobRunner.run_reduce_phase``, so a job computes byte-identical output
whether it runs alone or under contention.  The layer adds:

- **admission control** — each tenant has a bounded queue of admitted-
  but-not-started jobs; submissions beyond it are rejected immediately
  (``admission.reject``), and jobs with a deadline the calibrated cost
  model predicts they will miss are *shed* at the door
  (``admission.shed``) instead of wasting slots,
- **hierarchical fair share** — slots go to the most-underserved queue
  (running/capacity), then the most-underserved tenant within it
  (running/weight, respecting slot quotas, which speculative clones
  count against), then the oldest job,
- **preemption** — a queue marked ``preempts`` that is under its
  guaranteed share evicts the longest-remaining attempt from a
  ``preemptible`` queue; the evicted split re-queues *without*
  consuming a fault attempt.  Speculative duplicates are the preferred
  victims — killing a clone costs nothing,
- **a FIFO mode** — strict arrival order, quotas and queues ignored:
  the Hadoop-default baseline the fair policy is measured against,
- **the write-ahead log** — every scheduling decision can be journaled
  to a :class:`~repro.cluster.wal.ClusterWAL` for crash recovery by
  verified deterministic replay.

Everything flows through the ambient EventBus, so ``repro top`` and the
trace exporters render multi-job runs with no extra plumbing.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.hdfs.filesystem import FileSystem
from repro.mapreduce.counters import Counters
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.scheduler import (
    JobRequest,
    SlotScheduler,
    _Execution,
    _Running,
)
from repro.obs import Observability, current_obs

from repro.cluster.config import ClusterPolicy
from repro.cluster.report import ClusterReport, JobOutcome
from repro.cluster.wal import ClusterWAL


class ClusterManager(SlotScheduler):
    """Arbitrates one cluster's map slots between many jobs."""

    def __init__(
        self,
        fs: FileSystem,
        policy: ClusterPolicy,
        obs: Optional[Observability] = None,
        faults=None,
        max_attempts: Optional[int] = None,
        wal: Optional[ClusterWAL] = None,
    ) -> None:
        obs = obs if obs is not None else current_obs()
        self.runner = JobRunner(fs, obs, faults)
        super().__init__(
            fs, obs, self.runner._injector(),
            speculation=policy.speculation,
            backoff=policy.backoff,
            max_attempts=max_attempts,
            wal=wal,
        )
        self.policy = policy
        self._queue: List[JobRequest] = []
        self._next_req = 0
        self.outcomes: List[JobOutcome] = []
        #: committed job results, keyed by request_id (tests, repro.check)
        self.job_counters: Dict[int, Counters] = {}
        self.job_outputs: Dict[int, List[Tuple[object, object]]] = {}
        self.preemptions = 0

    # -- public entry point --------------------------------------------

    def run(self, requests: List[JobRequest]) -> ClusterReport:
        """Run every request to completion; returns the latency report."""
        self._queue = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        self._next_req = 0
        self.obs.emit(
            "cluster.start", sim_time=0.0,
            policy=self.policy.policy,
            nodes=self.fs.cluster.num_nodes,
            slots=self.total_slots,
            queues=len(self.policy.queues),
            tenants=len(self.policy.tenants),
            jobs=len(self._queue),
        )
        self._loop()
        self._flush_faults()
        report = ClusterReport(
            policy=self.policy.policy,
            outcomes=sorted(
                self.outcomes, key=lambda o: o.request_id
            ),
            makespan=self.horizon,
            total_slots=self.total_slots,
            busy_slot_seconds=self.busy_slot_seconds,
            preemptions=self.preemptions,
            map_output_losses=self.map_output_losses,
            speculative_attempts=self.speculative_attempts,
        )
        self.obs.emit(
            "cluster.finish", sim_time=self.horizon,
            policy=self.policy.policy,
            completed=len(report.completed),
            rejected=len(report.rejected),
            failed=len(report.failed),
            shed=len(report.shed),
            makespan=self.horizon,
            utilization=report.utilization,
            preemptions=self.preemptions,
            map_output_losses=self.map_output_losses,
            speculative_attempts=self.speculative_attempts,
        )
        self._wal_append(
            "cluster_finish", t=self.horizon, makespan=self.horizon,
            completed=len(report.completed),
            rejected=len(report.rejected),
            failed=len(report.failed), shed=len(report.shed),
            preemptions=self.preemptions,
            map_output_losses=self.map_output_losses,
        )
        return report

    # -- admission ------------------------------------------------------

    def _arrive(self, now: float) -> None:
        """New jobs pass admission, then under-served queues evict."""
        while (
            self._next_req < len(self._queue)
            and self._queue[self._next_req].arrival <= now
        ):
            self._admit(self._queue[self._next_req])
            self._next_req += 1
        if self.policy.policy == "fair":
            self._preempt(now)

    def _next_arrival(self) -> Optional[float]:
        if self._next_req < len(self._queue):
            return self._queue[self._next_req].arrival
        return None

    def _admit(self, request: JobRequest) -> None:
        tenant = self.policy.tenant(request.tenant)
        queue = tenant.queue
        self.obs.emit(
            "job.submitted", sim_time=request.arrival,
            job=request.job.name, tenant=request.tenant, queue=queue,
            kind=request.kind,
        )
        waiting = sum(
            1 for e in self.executions
            if e.tenant == request.tenant
            and not e.started
            and e.failed is None
        )
        if waiting >= tenant.max_queued:
            self.obs.emit(
                "admission.reject", sim_time=request.arrival,
                job=request.job.name, tenant=request.tenant, queue=queue,
                queued=waiting, limit=tenant.max_queued,
            )
            self._wal_append(
                "reject", t=request.arrival, job=request.job.name,
                tenant=request.tenant, queued=waiting,
            )
            self._outcome(
                request, queue, "rejected",
                error=f"tenant queue full ({waiting}/{tenant.max_queued})",
            )
            return
        splits = request.job.input_format.get_splits(
            self.fs, self.fs.cluster
        )
        if request.deadline is not None:
            predicted = self._predict_latency(request, splits)
            if predicted > request.deadline:
                self.obs.emit(
                    "admission.shed", sim_time=request.arrival,
                    job=request.job.name, tenant=request.tenant,
                    queue=queue, predicted=predicted,
                    deadline=request.deadline,
                )
                self._wal_append(
                    "shed", t=request.arrival, job=request.job.name,
                    tenant=request.tenant, predicted=predicted,
                    deadline=request.deadline,
                )
                self._outcome(
                    request, queue, "shed",
                    error=(
                        f"predicted latency {predicted:.3f}s exceeds "
                        f"deadline {request.deadline:.3f}s"
                    ),
                )
                return
        self.submit(
            request, splits,
            partial(self.runner.execute_map_attempt, request.job),
            queue=queue,
        )
        self.obs.emit(
            "admission.accept", sim_time=request.arrival,
            job=request.job.name, tenant=request.tenant, queue=queue,
            queued=waiting + 1, splits=len(splits),
        )
        self._wal_append(
            "admit", t=request.arrival, job=request.job.name,
            tenant=request.tenant, queue=queue, splits=len(splits),
        )

    def _outcome(
        self, request: JobRequest, queue: str, status: str, **fields
    ) -> JobOutcome:
        """Record the request's terminal state."""
        outcome = JobOutcome(
            request_id=request.request_id,
            job_name=request.job.name,
            tenant=request.tenant,
            queue=queue,
            kind=request.kind,
            arrival=request.arrival,
            status=status,
            deadline=request.deadline,
            **fields,
        )
        self.outcomes.append(outcome)
        return outcome

    def _predict_latency(self, request: JobRequest, splits: List) -> float:
        """Cost-model estimate of the job's completion latency.

        Map work is charged at the disk's sequential rate plus one seek
        per split, spread over the slots the tenant's queue can expect
        (its capacity share under fair scheduling, the whole pool under
        FIFO), behind the queue's current pending backlog.  Deliberately
        conservative-simple: shedding must be cheap, deterministic and
        explainable — not a second scheduler.
        """
        cluster = self.fs.cluster
        disk = cluster.disk

        def cost(split) -> float:
            return split.length / disk.bytes_per_sec + disk.seek_seconds

        work = sum(cost(split) for split in splits)
        queue = self.policy.tenant(request.tenant).queue
        live = max(1, self._live_slots())
        if self.policy.policy == "fair":
            share = self.policy.queue(queue).capacity
            slots = max(1, math.floor(share * live))
        else:
            slots = live
        backlog = 0.0
        for execution in self.executions:
            if not execution.unfinished() or execution.queue != queue:
                continue
            for pending in execution.pending:
                backlog += cost(execution.splits[pending.index])
        return (backlog + work) / slots + cluster.job_overhead_seconds

    # -- faults ---------------------------------------------------------

    def _flush_faults(self) -> None:
        """End of run: fire every fault due inside the job timeline
        (node deaths during the last reduce still make the record) and
        report the truly out-of-range leftovers instead of dropping
        them silently."""
        if self.faults is None:
            return
        self._fire_faults(self.horizon)
        for event in self.faults.pending_events():
            attrs = {"fault": event.kind}
            if event.at_time is not None:
                attrs["at_time"] = event.at_time
                attrs["reason"] = "scheduled beyond the end of the run"
            else:
                attrs["at_task"] = event.at_task
                attrs["reason"] = "beyond the last task boundary"
            self.obs.emit(
                "fault.ignored", sim_time=self.horizon, **attrs
            )

    # -- job lifecycle --------------------------------------------------

    def _dispatched(self, execution: _Execution, now: float) -> None:
        self.obs.emit(
            "job.dispatch", sim_time=now,
            job=execution.job.name, tenant=execution.tenant,
            queue=execution.queue, splits=len(execution.splits),
            wait=now - execution.request.arrival,
        )

    def _fail_job(
        self, execution: _Execution, error: str, now: float
    ) -> None:
        super()._fail_job(execution, error, now)
        self.obs.emit(
            "job.finish", sim_time=now,
            job=execution.job.name, tenant=execution.tenant,
            queue=execution.queue, outcome="failed", error=error,
        )
        self._wal_append(
            "job_failed", t=now, job=execution.job.name, error=error,
        )
        self._outcome(
            execution.request, execution.queue, "failed",
            start=execution.start,
            attempts=len(execution.tasks),
            preemptions=execution.preemptions,
            error=error,
        )

    def _finalize(self, execution: _Execution, map_end: float) -> None:
        """Shuffle complete: run sort/reduce and commit the job.  From
        here the job is immune to node deaths — its inputs are across
        the network."""
        super()._finalize(execution, map_end)
        job = execution.job
        counters = Counters()
        reduce_makespan, _, collected = self.runner.run_reduce_phase(
            job, execution.payloads, counters, map_end
        )
        finish = (
            map_end + reduce_makespan
            + self.fs.cluster.job_overhead_seconds
        )
        self.horizon = max(self.horizon, finish)
        request_id = execution.request.request_id
        self.job_counters[request_id] = counters
        if collected is not None:
            self.job_outputs[request_id] = collected
        outcome = self._outcome(
            execution.request, execution.queue, "completed",
            start=execution.start,
            finish=finish,
            map_makespan=map_end - execution.start,
            reduce_time=reduce_makespan,
            attempts=len(execution.tasks),
            preemptions=execution.preemptions,
        )
        finish_attrs = {}
        if outcome.deadline is not None:
            finish_attrs["deadline"] = outcome.deadline
            finish_attrs["deadline_miss"] = outcome.deadline_missed
        self.obs.emit(
            "job.finish", sim_time=finish,
            job=job.name, tenant=execution.tenant, queue=execution.queue,
            outcome="completed", latency=outcome.latency,
            wait=outcome.wait, preemptions=execution.preemptions,
            attempts=len(execution.tasks), **finish_attrs,
        )
        self._wal_append(
            "job_complete", t=finish, job=job.name, finish=finish,
        )

    # -- preemption -----------------------------------------------------

    def _live_slots(self) -> int:
        return len(self.free) + sum(
            1 for r in self.running.values() if r.alive
        )

    def _running_in_queue(self, queue: str) -> int:
        return sum(
            1 for r in self.running.values()
            if r.alive and r.execution.queue == queue
        )

    def _preempt(self, now: float) -> None:
        live = self._live_slots()
        if live <= 0:
            return
        for queue in self.policy.queues:
            if not queue.preempts:
                continue
            demand = sum(
                len(e.ready(now)) for e in self.executions
                if e.queue == queue.name
            )
            if demand == 0:
                continue
            deserved = max(1, math.floor(queue.capacity * live))
            shortfall = min(demand, deserved) \
                - self._running_in_queue(queue.name) - len(self.free)
            while shortfall > 0:
                victim = self._pick_victim(queue.name)
                if victim is None:
                    break
                self._preempt_one(victim, now, queue.name)
                shortfall -= 1

    def _pick_victim(self, for_queue: str) -> Optional[_Running]:
        preemptible = {
            q.name for q in self.policy.queues
            if q.preemptible and q.name != for_queue
        }
        candidates = [
            r for r in self.running.values()
            if r.alive and r.execution.queue in preemptible
        ]
        if not candidates:
            return None
        # Speculative duplicates first: killing a clone reclaims a slot
        # at zero cost (the original keeps running).  Then the attempt
        # with the most remaining work — least sunk cost per reclaimed
        # second; ties break on placement for determinism.
        return max(
            candidates,
            key=lambda r: (r.speculative, r.task.end, -r.node, -r.slot),
        )

    def _preempt_one(
        self, running: _Running, now: float, by_queue: str
    ) -> None:
        self._truncate(running, now, "preempted")
        execution = running.execution
        execution.preemptions += 1
        self.preemptions += 1
        split = execution.splits[running.pending.index]
        self._emit_finish(running, now, "preempted")
        self.obs.emit(
            "task.preempted", sim_time=now,
            split=split.label, node=running.node, slot=running.slot,
            job=execution.job.name, tenant=execution.tenant,
            queue=execution.queue, by_queue=by_queue,
            ran=running.task.duration, speculative=running.speculative,
        )
        self._wal_append(
            "preempt", t=now, job=execution.job.name, split=split.label,
            node=running.node, slot=running.slot,
            speculative=running.speculative,
        )
        if running.speculative:
            # Evicting a clone must not touch the original attempt's
            # retry budget — the original is still running; the split
            # may be re-cloned later if it keeps straggling.
            execution.speculated.discard(running.pending.index)
            return
        self._requeue(
            execution, running.pending, now, frozenset(),
            "preempted", consume_attempt=False,
        )

    # -- assignment -----------------------------------------------------

    def _select(self, now: float):
        if self.policy.policy == "fifo":
            return super()._select(now)
        # Hierarchical fair share: most-underserved queue, then
        # most-underserved tenant under quota, then oldest job.
        ready = [e for e in self.executions if e.ready(now)]
        running = Counter(
            r.execution.tenant for r in self.running.values() if r.alive
        )
        queues = sorted(
            {e.queue for e in ready},
            key=lambda name: (
                self._running_in_queue(name)
                / self.policy.queue(name).capacity,
                name,
            ),
        )
        for queue in queues:
            in_queue = [e for e in ready if e.queue == queue]
            tenants = sorted(
                {e.tenant for e in in_queue},
                key=lambda name: (
                    running[name] / self.policy.tenant(name).weight, name,
                ),
            )
            for tenant in tenants:
                quota = self.policy.tenant(tenant).max_running_slots
                if 0 < quota <= running[tenant]:
                    continue
                for execution in sorted(
                    (e for e in in_queue if e.tenant == tenant),
                    key=lambda e: (e.request.arrival, e.request.request_id),
                ):
                    placed = self._place(execution, now)
                    if placed is not None:
                        return placed
        return None

    def _at_quota(self, execution: _Execution) -> bool:
        quota = self.policy.tenant(execution.tenant).max_running_slots
        return 0 < quota <= sum(
            1 for r in self.running.values()
            if r.alive and r.execution.tenant == execution.tenant
        )
