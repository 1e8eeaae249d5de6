"""The FaultInjector: applies a FaultPlan to a live FileSystem.

The injector is driven by the MapReduce scheduler's event loop:
``advance_time(now)`` fires every ``at_time`` event that has come due,
and ``on_task_start()`` fires ``at_task`` events as task attempts
launch.  Every fired event is published once, as a ``fault.injected``
bus event on the ambient observability; a flight recording folds it
into the ``faults.injected{kind}`` counter and a zero-length ``fault``
span (:mod:`repro.obs.fold`), so it shows exactly when the world broke.

Node deaths are queued for the scheduler (``drain_dead`` /
``drain_retired``): the scheduler fails running attempts on dead nodes,
removes their slots, and retries the lost work elsewhere.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.faults.plan import RANDOM, FaultEvent, FaultPlan
from repro.obs import Observability, current_obs


class FaultInjector:
    """Binds one :class:`FaultPlan` to one ``FileSystem`` for one run."""

    def __init__(
        self, fs, plan: FaultPlan, obs: Optional[Observability] = None
    ) -> None:
        self.fs = fs
        self.plan = plan
        self.obs = obs if obs is not None else current_obs()
        self._rng = random.Random(plan.seed)
        self._time_events: List[FaultEvent] = sorted(
            (e for e in plan.events if e.at_time is not None),
            key=lambda e: e.at_time,
        )
        self._task_events: List[FaultEvent] = sorted(
            (e for e in plan.events if e.at_task is not None),
            key=lambda e: e.at_task,
        )
        self._tasks_started = 0
        self._sim_now = 0.0
        self._newly_dead: List[tuple] = []  # (node, sim time of death)
        self._newly_retired: List[int] = []
        self.fired: List[FaultEvent] = []

    # -- scheduler hooks ----------------------------------------------

    def advance_time(self, now: float) -> None:
        """Fire every ``at_time`` event due at simulated time ``now``.

        Each event fires *at its own timestamp*, not at ``now``: the
        scheduler only advances time at batch boundaries, so a node
        killed between two boundaries must still die at its scheduled
        instant — tasks running across that instant lose their work.
        """
        while self._time_events and self._time_events[0].at_time <= now:
            event = self._time_events.pop(0)
            self._sim_now = max(self._sim_now, event.at_time)
            self._fire(event)
        self._sim_now = max(self._sim_now, now)

    def on_task_start(self) -> None:
        """Note a task-attempt launch; fire due ``at_task`` events."""
        boundary = self._tasks_started
        self._tasks_started += 1
        while self._task_events and self._task_events[0].at_task <= boundary:
            self._fire(self._task_events.pop(0))

    def next_time(self) -> Optional[float]:
        """Earliest unfired ``at_time`` event (None when exhausted).

        Event-loop drivers include this in their next-event horizon so
        faults land at their exact scheduled instants — including after
        every map task has finished — instead of at whatever scheduling
        boundary happens to come next.
        """
        return self._time_events[0].at_time if self._time_events else None

    def pending_events(self) -> List[FaultEvent]:
        """Every event still unfired, time-triggered first.

        A driver that finishes its run with events left over reports
        them (``fault.ignored``) instead of dropping them silently.
        """
        return list(self._time_events) + list(self._task_events)

    def drain_dead(self) -> List[tuple]:
        """``(node, died_at)`` pairs killed since the last drain (the
        scheduler fails attempts running at ``died_at`` on that node and
        removes its slots)."""
        out, self._newly_dead = self._newly_dead, []
        return out

    def drain_retired(self) -> List[int]:
        """Nodes decommissioned since the last drain (slots removed;
        running attempts finish normally)."""
        out, self._newly_retired = self._newly_retired, []
        return out

    def is_dead(self, node: int) -> bool:
        return node in self.fs.failed_nodes

    def fire_all(self) -> int:
        """Fire every remaining event immediately (CLI / fsck driver)."""
        count = 0
        for event in self._time_events + self._task_events:
            self._fire(event)
            count += 1
        self._time_events = []
        self._task_events = []
        return count

    # -- firing --------------------------------------------------------

    def _fire(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_fire_{event.kind}")
        detail = handler(event)
        self.fired.append(event)
        self.obs.emit(
            "fault.injected", sim_time=self._sim_now,
            fault=event.kind, **(detail or {}),
        )

    def _resolve_node(self, event: FaultEvent, exclude=()) -> Optional[int]:
        if isinstance(event.node, int):
            return event.node
        candidates = [n for n in self.fs.live_nodes() if n not in exclude]
        if not candidates:
            return None
        return self._rng.choice(candidates)

    def _fire_kill_node(self, event: FaultEvent) -> dict:
        node = self._resolve_node(event)
        if node is None or node in self.fs.failed_nodes:
            return {"node": node, "skipped": True}
        self.fs.crash_node(node)
        if event.repair:
            self.fs.repair()
        self._newly_dead.append((node, self._sim_now))
        return {"node": node}

    def _fire_decommission_node(self, event: FaultEvent) -> dict:
        node = self._resolve_node(event)
        if node is None or not self.fs.is_node_live(node):
            return {"node": node, "skipped": True}
        moved = self.fs.decommission_node(node)
        self._newly_retired.append(node)
        return {"node": node, "moved": moved}

    def _fire_slow_node(self, event: FaultEvent) -> dict:
        node = self._resolve_node(event)
        if node is None:
            return {"skipped": True}
        self.fs.set_node_slowdown(node, event.factor)
        return {"node": node, "factor": event.factor}

    def _fire_transient_read_error(self, event: FaultEvent) -> dict:
        node = self._resolve_node(event)
        if node is None:
            return {"skipped": True}
        self.fs.arm_transient_errors(node, event.count)
        return {"node": node, "count": event.count}

    def _pick_block(self, event: FaultEvent):
        """Resolve (path, block) for a corruption event."""
        if event.path is not None:
            blocks = self.fs.namenode.blocks_of(event.path)
            if not blocks:
                return event.path, None
            return event.path, blocks[event.block_index % len(blocks)]
        files = [
            (path, blocks)
            for path, blocks in sorted(
                self.fs.namenode.files_with_blocks().items()
            )
            if blocks and any(b.length for b in blocks)
        ]
        if not files:
            return None, None
        path, blocks = self._rng.choice(files)
        return path, self._rng.choice(blocks)

    def _fire_corrupt_replica(self, event: FaultEvent) -> dict:
        path, block = self._pick_block(event)
        if block is None or not block.locations:
            return {"path": path, "skipped": True}
        if isinstance(event.node, int):
            node = event.node
        else:
            node = self._rng.choice(sorted(block.locations))
        if node not in block.locations:
            return {"path": path, "node": node, "skipped": True}
        self.fs.blockstore.mark_replica_corrupt(block.block_id, node)
        return {"path": path, "block": block.block_id, "node": node}

    def _fire_corrupt_block(self, event: FaultEvent) -> dict:
        path, block = self._pick_block(event)
        if block is None:
            return {"path": path, "skipped": True}
        self.fs.blockstore.corrupt(block.block_id)
        return {"path": path, "block": block.block_id}
