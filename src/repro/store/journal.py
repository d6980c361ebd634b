"""Append-only CRC-checked write-ahead journal.

The journal is the durability backbone of a crawl campaign
(:mod:`repro.store.campaign`): every page fetched and every batch of
edges emitted is appended as one record, so after a crash the campaign
loses at most the records that were still sitting in the write buffer —
never a *corrupt* prefix.

Format
------
A journal file is a 6-byte magic header followed by records::

    header  := b"RWAL1\\n"
    record  := <u32 length> <u32 crc32(payload)> <payload: length bytes>
    payload := <u8 kind> <body: length-1 bytes>

Integers are little-endian; the CRC covers the payload only.  Record
kinds are small ints owned by the caller (see the ``KIND_*`` constants
in :mod:`repro.store.campaign`).

Recovery
--------
:func:`scan` walks records from the start and stops at the first one
whose length field overruns the file or whose CRC mismatches — the torn
tail a kill can leave behind.  Everything before that point is valid by
construction (records are written strictly append-only); everything
from it on is dropped when a :class:`JournalWriter` reopens the file.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.obs.metrics import Registry, get_registry

from .atomio import DEFAULT_IO, StoreIO, fsync_dir

__all__ = [
    "MAGIC",
    "HEADER_SIZE",
    "JournalError",
    "JournalRecord",
    "JournalScan",
    "JournalWriter",
    "iter_records",
    "scan",
]

MAGIC = b"RWAL1\n"

#: Size of the file header — also the offset of an empty journal's end.
HEADER_SIZE = len(MAGIC)

_RECORD_HEADER = struct.Struct("<II")


class JournalError(Exception):
    """The file is not a journal (bad magic) or the API was misused."""


@dataclass(frozen=True)
class JournalRecord:
    """One decoded record plus the offset of its on-disk header."""

    kind: int
    body: bytes
    offset: int

    @property
    def end_offset(self) -> int:
        """Offset of the first byte after this record."""
        return self.offset + _RECORD_HEADER.size + 1 + len(self.body)


@dataclass
class JournalScan:
    """Result of measuring a journal's valid prefix."""

    valid_end: int
    n_records: int
    torn_bytes: int
    records_by_kind: dict[int, int] = field(default_factory=dict)

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0


def iter_records(path: str | Path, upto: int | None = None) -> Iterator[JournalRecord]:
    """Yield valid records in order, stopping at the torn tail.

    ``upto`` bounds the walk to records starting before that byte offset
    — pass a checkpoint's journal offset to replay exactly the records
    the checkpoint covers.
    """
    with open(path, "rb") as handle:
        magic = handle.read(HEADER_SIZE)
        if magic != MAGIC:
            raise JournalError(f"{path}: not a journal file (bad magic)")
        offset = HEADER_SIZE
        while True:
            if upto is not None and offset >= upto:
                return
            header = handle.read(_RECORD_HEADER.size)
            if len(header) < _RECORD_HEADER.size:
                return
            length, crc = _RECORD_HEADER.unpack(header)
            if length < 1:
                return
            payload = handle.read(length)
            if len(payload) < length:
                return
            if zlib.crc32(payload) != crc:
                return
            yield JournalRecord(kind=payload[0], body=payload[1:], offset=offset)
            offset += _RECORD_HEADER.size + length


def scan(path: str | Path) -> JournalScan:
    """Measure the valid prefix of a journal (recovery's first step)."""
    size = Path(path).stat().st_size
    valid_end = HEADER_SIZE
    n_records = 0
    by_kind: dict[int, int] = {}
    for record in iter_records(path):
        n_records += 1
        by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
        valid_end = record.end_offset
    return JournalScan(
        valid_end=valid_end,
        n_records=n_records,
        torn_bytes=size - valid_end,
        records_by_kind=by_kind,
    )


class JournalWriter:
    """Batched appender with crash recovery on open.

    Appends are buffered and written out once the batch reaches
    ``flush_records`` records or ``flush_bytes`` bytes (or on an
    explicit :meth:`flush`, which checkpoints use to pin a durable
    offset).  Opening an existing journal scans it and truncates any
    torn tail, so the writer always appends at a record boundary.

    ``fsync=True`` additionally fsyncs every flush — durability against
    OS crashes at the price of one syscall per batch; the default
    survives process kills, which is what the simulated campaigns need.

    ``journal_scan`` hands over a :func:`scan` of the existing file that
    the caller already took (campaign recovery does), so opening does
    not walk the journal a second time.
    """

    def __init__(
        self,
        path: str | Path,
        flush_records: int = 64,
        flush_bytes: int = 256 * 1024,
        fsync: bool = False,
        registry: Registry | None = None,
        io: StoreIO | None = None,
        journal_scan: JournalScan | None = None,
    ):
        self.path = Path(path)
        self._flush_records = max(1, flush_records)
        self._flush_bytes = max(1, flush_bytes)
        self._fsync = fsync
        self._io = io if io is not None else DEFAULT_IO
        self._buffer: list[bytes] = []
        self._buffered_bytes = 0
        self._appended = False
        registry = registry if registry is not None else get_registry()
        self._m_bytes = registry.counter(
            "store.journal_bytes", "Journal bytes flushed to disk"
        )
        self._m_records = registry.counter(
            "store.journal_records", "Journal records appended", labels=("kind",)
        )
        #: One bound ``store.journal_records`` series per kind seen.
        self._records_by_kind: dict[int, object] = {}
        self._m_flushes = registry.counter(
            "store.journal_flushes", "Journal batch flushes"
        )
        self._m_truncated = registry.counter(
            "store.journal_truncated_bytes", "Torn-tail bytes dropped on recovery"
        )
        if self.path.exists() and self.path.stat().st_size >= HEADER_SIZE:
            self.recovery: JournalScan | None = (
                journal_scan if journal_scan is not None else scan(self.path)
            )
            if self.recovery.torn_bytes:
                os.truncate(self.path, self.recovery.valid_end)
                self._m_truncated.inc(self.recovery.torn_bytes)
            self._handle = open(self.path, "r+b")
            self.offset = self.recovery.valid_end
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.recovery = None
            self._handle = open(self.path, "wb")
            self._handle.write(MAGIC)
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())
            # Make the journal's *existence* durable regardless: a lost
            # dirent would orphan every checkpoint that references it.
            fsync_dir(self.path.parent)
            self.offset = HEADER_SIZE

    def truncate_to(self, offset: int) -> None:
        """Roll back to a known-good record boundary (checkpoint offset).

        Only legal before the first append — this is the resume-time
        rollback of records written after the last usable checkpoint.
        """
        if self._appended or self._buffer:
            raise JournalError("truncate_to is only legal before appending")
        if not HEADER_SIZE <= offset <= self.offset:
            raise ValueError(f"offset {offset} outside journal [{HEADER_SIZE}, {self.offset}]")
        self._handle.seek(offset)
        self._handle.truncate()
        self.offset = offset

    def append(self, kind: int, body: bytes) -> None:
        """Buffer one record; flushes automatically at the batch limits."""
        if not 0 <= kind <= 255:
            raise ValueError("record kind must fit one byte")
        payload = bytes([kind]) + bytes(body)
        record = _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._buffer.append(record)
        self._buffered_bytes += len(record)
        self._appended = True
        series = self._records_by_kind.get(kind)
        if series is None:
            series = self._records_by_kind[kind] = self._m_records.labels(kind=kind)
        series.inc()
        if (
            len(self._buffer) >= self._flush_records
            or self._buffered_bytes >= self._flush_bytes
        ):
            self.flush()

    def flush(self) -> None:
        """Write the buffered batch out; ``offset`` then covers it."""
        if not self._buffer:
            return
        blob = b"".join(self._buffer)
        self._handle.seek(self.offset)
        # Routed through the StoreIO seam: an injected fault raises here
        # with the buffer intact (an honest crash can retry or die), and
        # a torn write leaves exactly the prefix a real kill would.
        self._io.write(self._handle, blob)
        self._handle.flush()
        if self._fsync:
            self._io.fsync(self._handle)
        durable_end = self.offset
        self.offset += len(blob)
        self._buffer.clear()
        self._buffered_bytes = 0
        self._m_bytes.inc(len(blob))
        self._m_flushes.inc()
        # Post-flush hook: sealed-history faults (journal bit rot, the
        # file vanishing) attach to [HEADER_SIZE, durable_end).
        self._io.flushed(self._handle, self.path, durable_end)

    def close(self) -> None:
        self.flush()
        self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
