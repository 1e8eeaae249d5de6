"""Pin the event stream of the default ``repro cluster run``.

Consumers cut and attribute a cluster run by its bus events: perfbench
splits ``cluster_mixed`` into per-request segments at every event and
charges each segment to the event's ``job``; the tsdb and the live
monitor fold the same stream.  Events may gain attrs, but the sequence
of ``(kind, sim_time, job, tenant)`` must not move.  The digest below
was taken from the stream before events became the only publication
of task, fault and operator facts.
"""

import hashlib
import json

from repro.cli import main

EVENTS = 4531
DIGEST = "588a786c8b70d9e4a01cba1b661ff6927cf81787745c2c65a93e28bf65554649"


def test_default_cluster_run_event_stream_is_pinned(tmp_path):
    path = tmp_path / "events.jsonl"
    code = main(
        ["cluster", "run", "--events-out", str(path), "--json"],
        out=lambda line: None,
    )
    assert code == 0
    digest = hashlib.sha256()
    count = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            attrs = event.get("attrs", {})
            digest.update(json.dumps([
                event["kind"], event.get("sim"),
                attrs.get("job"), attrs.get("tenant"),
            ]).encode("utf-8") + b"\n")
            count += 1
    assert count == EVENTS
    assert digest.hexdigest() == DIGEST
