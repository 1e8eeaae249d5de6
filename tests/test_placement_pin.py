"""Placement pin: exact fault-free schedules under ties and contention.

Two hundred seeded synthetic clusters (1-6 nodes, 1-3 map slots each,
1-80 splits replicated on 1-3 nodes, durations either all tied or drawn
from a small set, remote attempts slower by a per-case penalty) run as
one request each.  The digest of every task's (split, node, slot,
start, duration, data_local) was recorded from the standalone
single-job scheduler this loop replaced; the loop must keep
reproducing it, so any change to locality matching, slot order or
tie-breaking shows up here first.
"""

import hashlib
import json
import random

from repro.mapreduce.types import InputSplit
from repro.sim.metrics import Metrics
from tests.conftest import run_splits

CASES = 200
SEED = 20110401
PINNED_DIGEST = (
    "196583e3e774b8a3e6bcb0e0d380a22ff01bf8ebecd604cdfa1fb1a077235ea7"
)
PINNED_TASKS = 8537


def make_case(index):
    """``(nodes, slots, splits, execute)`` of synthetic case ``index``."""
    rng = random.Random(SEED + index)
    nodes = rng.randint(1, 6)
    slots = rng.randint(1, 3)
    count = rng.randint(1, 80)
    replication = min(rng.randint(1, 3), nodes)
    tied = rng.random() < 0.5
    penalty = rng.choice((1.5, 2.0, 3.0))
    splits, base = [], {}
    for i in range(count):
        label = f"s{i}"
        locations = rng.sample(range(nodes), replication)
        splits.append(InputSplit(1, locations, label))
        base[label] = (
            1.0 if tied else rng.choice((0.25, 0.5, 1.0, 1.5, 2.0, 3.0))
        )

    def execute(split, node):
        m = Metrics()
        local = node in split.locations
        m.charge_io(base[split.label] * (1.0 if local else penalty))
        return m

    return nodes, slots, splits, execute


def signature(tasks):
    return sorted(
        (t.split.label, t.node, t.slot, round(t.start, 9),
         round(t.duration, 9), t.data_local)
        for t in tasks
    )


def test_fault_free_schedules_match_the_pinned_digest():
    signatures = []
    for index in range(CASES):
        nodes, slots, splits, execute = make_case(index)
        signatures.append(signature(run_splits(splits, nodes, slots, execute)))
    assert sum(len(s) for s in signatures) == PINNED_TASKS
    digest = hashlib.sha256(json.dumps(signatures).encode()).hexdigest()
    assert digest == PINNED_DIGEST
