"""Hostile input for the three JSONL log readers.

Flight recordings, ``.tsdb`` sidecars and cluster WALs share one
reader (:mod:`repro.util.jsonl`) and each add their own header checks.
One fixture per format holds a real gzipped log; every case damages it
the same way and names the outcome per format:

- ``salvage``: the reader loads a prefix and says so in a warning, and
  the CLI verb over the file still succeeds;
- ``error``: the reader raises :class:`LogFormatError` and the CLI verb
  prints one ``error:`` line and exits 1.

Neither may end in a traceback.
"""

import gzip
from dataclasses import dataclass
from typing import Callable, List

import pytest

from repro.cli import main
from repro.cluster import ClusterWAL
from repro.cluster.traffic import run_traffic, sample_profile
from repro.core import ColumnInputFormat, write_dataset
from repro.hdfs import ClusterConfig, FileSystem
from repro.mapreduce import Job, run_job
from repro.obs import EventBus, FlightRecorder, RunReport
from repro.obs.alerts import ClusterMonitor
from repro.obs.tsdb import TimeSeriesStore
from repro.util.jsonl import LogFormatError
from repro.workloads.micro import micro_records, micro_schema


@dataclass
class LogFormat:
    name: str
    #: reads the file; returns its loader warnings
    load: Callable[[str], List[str]]
    #: the CLI verb over the file
    argv: Callable[[str], List[str]]


def _load_recording(path):
    return RunReport.load(path).warnings


def _load_tsdb(path):
    return TimeSeriesStore.load(path)[1]


def _load_wal(path):
    return ClusterWAL.load(path)[1]


FORMATS = {
    "recording": LogFormat(
        "recording", _load_recording,
        lambda path: ["top", "--replay", path, "--quiet", "--no-color"],
    ),
    "tsdb": LogFormat("tsdb", _load_tsdb, lambda path: ["slo", path]),
    "wal": LogFormat(
        "wal", _load_wal, lambda path: ["cluster", "resume", "--wal", path],
    ),
}


# -- one fixture per format: a real, gzipped log --------------------------


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    fs = FileSystem(ClusterConfig(
        num_nodes=4, replication=2, block_size=8 * 1024, io_buffer_size=2048,
    ))
    schema = micro_schema()
    write_dataset(fs, "/hl/cif", schema, micro_records(200),
                  split_bytes=4 * 1024)
    recorder = FlightRecorder(meta={"fixture": "recording"})
    with recorder.activate():
        run_job(fs, Job(
            "hostile", lambda k, r, emit, ctx: emit(r.get("int0") % 3, 1),
            ColumnInputFormat("/hl/cif", columns=["int0"]),
            reducer=lambda k, vs, emit, ctx: emit(k, sum(vs)),
            num_reducers=2,
        ))
    path = tmp_path_factory.mktemp("logs") / "run.jsonl.gz"
    recorder.report().write_jsonl(str(path))
    return path


@pytest.fixture(scope="module")
def tsdb(recording, tmp_path_factory):
    bus = EventBus()
    monitor = ClusterMonitor().attach(bus)
    bus.replay(RunReport.load(str(recording)).events)
    path = tmp_path_factory.mktemp("logs") / "run.tsdb"
    monitor.save(str(path))
    return path


@pytest.fixture(scope="module")
def wal(tmp_path_factory):
    profile = sample_profile()
    profile.duration = 0.1
    profile.datasets.update(
        crawl_records=40, content_bytes=2048, micro_records=150,
        point_records=20,
    )
    path = tmp_path_factory.mktemp("logs") / "run.wal.gz"
    run_traffic(profile, wal=ClusterWAL(path=str(path)))
    return path


# -- the damage ------------------------------------------------------------


def _lines(blob: bytes) -> List[str]:
    return gzip.decompress(blob).decode("utf-8").splitlines(keepends=True)


def torn_gzip(blob: bytes) -> bytes:
    """Cut the gzip stream mid-way: no end-of-stream marker."""
    return blob[: len(blob) * 3 // 5]


def torn_line(blob: bytes) -> bytes:
    """Plain text whose final line stops mid-record."""
    lines = _lines(blob)
    return "".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]).encode()


def garbage_line(blob: bytes) -> bytes:
    lines = _lines(blob)
    lines.insert(2, "{this is not json\n")
    return "".join(lines).encode()


def empty(blob: bytes) -> bytes:
    return b""


def wrong_header(blob: bytes) -> bytes:
    lines = _lines(blob)
    return "".join(['{"type": "bogus", "v": 99}\n'] + lines[1:]).encode()


def missing_header(blob: bytes) -> bytes:
    return "".join(_lines(blob)[1:]).encode()


#: (damage, {format: expected outcome})
CASES = [
    (torn_gzip, {"recording": "salvage", "tsdb": "salvage", "wal": "salvage"}),
    (torn_line, {"recording": "salvage", "tsdb": "salvage", "wal": "salvage"}),
    (garbage_line, {"recording": "error", "tsdb": "error", "wal": "error"}),
    (empty, {"recording": "error", "tsdb": "error", "wal": "error"}),
    (wrong_header, {"recording": "error", "tsdb": "error", "wal": "error"}),
    # A recording without its meta line is a bare event stream (what
    # ``--events-out`` writes); the other two cannot be read headless.
    (missing_header, {"recording": "salvage", "tsdb": "error",
                      "wal": "error"}),
]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize(
    "damage,expected", CASES, ids=[case[0].__name__ for case in CASES],
)
def test_damaged_log(fmt, damage, expected, request, tmp_path):
    source = request.getfixturevalue(fmt)
    target = tmp_path / source.name
    target.write_bytes(damage(source.read_bytes()))
    reader = FORMATS[fmt]
    lines: List[str] = []
    if expected[fmt] == "salvage":
        warnings = reader.load(str(target))
        assert warnings, "a salvaged log must say what was dropped"
        code = main(reader.argv(str(target)), out=lines.append)
        assert code == 0, lines
        assert any("warning" in line.lower() for line in lines), lines
    else:
        with pytest.raises(LogFormatError):
            reader.load(str(target))
        code = main(reader.argv(str(target)), out=lines.append)
        assert code == 1, lines
        assert any(line.startswith("error:") for line in lines), lines


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_undamaged_log_loads_clean(fmt, request):
    assert FORMATS[fmt].load(str(request.getfixturevalue(fmt))) == []
