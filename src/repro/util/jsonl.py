"""The one reader and writer behind every JSONL log the package keeps.

Flight recordings (and ``--events-out`` streams), ``.tsdb`` sidecars
and the cluster WAL are all JSON-object-per-line logs, optionally
gzip-framed, that a crash can cut short mid-write.  Reading sniffs gzip
from the magic bytes, salvages a torn gzip stream to its decodable
prefix and drops a torn final line, each with a warning; any other
damage raises :class:`LogFormatError`.  Each format adds its own
header, version and sequence checks on top.  Writing appends
sorted-key lines; the gzip header carries no file name or timestamp,
so the same records always give the same bytes.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib
from typing import List, Optional, Tuple


class LogFormatError(ValueError):
    """A JSONL log is damaged beyond what salvage can recover."""


def read_jsonl(path: str, what: str) -> Tuple[List[dict], List[str]]:
    """``(records, warnings)`` of the log at ``path``; ``what`` names
    the format in error messages."""
    with open(path, "rb") as handle:
        blob = handle.read()
    warnings: List[str] = []
    if blob[:2] == b"\x1f\x8b":
        try:
            blob = gzip.decompress(blob)
        except (EOFError, OSError, zlib.error) as exc:
            try:
                blob = zlib.decompressobj(31).decompress(blob)
            except zlib.error:
                raise LogFormatError(
                    f"{path}: unreadable gzip stream: {exc}"
                ) from exc
            warnings.append(
                f"torn gzip stream salvaged to {len(blob)} byte(s)"
            )
    try:
        text = blob.decode("utf-8", errors="replace" if warnings else "strict")
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"{path}: not a {what} log: {exc}") from exc
    records, torn = parse_jsonl(text, what)
    return records, warnings + torn


def parse_jsonl(text: str, what: str) -> Tuple[List[dict], List[str]]:
    """``(records, warnings)`` of JSONL ``text``.

    Every record must be a JSON object with a ``type``.  A bad final
    line after at least one good record is the one a crash tore: it is
    dropped with a warning.  Any other bad line is an error.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    records: List[dict] = []
    for lineno, line in lines:
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError("not a JSON object with a 'type'")
        except ValueError as exc:
            if records and lineno == lines[-1][0]:
                return records, [
                    f"truncated final line (line {lineno}) dropped — a "
                    f"torn final record from an interrupted write: {exc}"
                ]
            raise LogFormatError(
                f"line {lineno} is not a {what} record: {exc}"
            ) from exc
        records.append(record)
    return records, []


class JsonlWriter:
    """Appends records to a JSONL log, flushed every ``flush_every``.

    ``gzipped`` forces gzip framing; by default a ``.gz`` suffix
    decides.  With ``flush_every=1`` each record is on disk (and,
    gzipped, decodable) as soon as :meth:`write` returns.
    """

    def __init__(
        self, path: str, gzipped: Optional[bool] = None, flush_every: int = 1
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.flush_every = flush_every
        self._pending = 0
        self._file = open(path, "wb")
        raw = self._file
        if gzipped or (gzipped is None and path.endswith(".gz")):
            raw = gzip.GzipFile(fileobj=raw, mode="wb", filename="", mtime=0)
        self._handle = io.TextIOWrapper(raw, encoding="utf-8")

    @property
    def closed(self) -> bool:
        return self._file.closed

    def write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._pending += 1
        if self._pending >= self.flush_every:
            self._handle.flush()
            self._pending = 0

    def close(self) -> None:
        self._handle.close()
        self._file.close()  # a GzipFile leaves its fileobj open

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
