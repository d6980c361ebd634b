"""Sharded append-only columnar edge segments.

Edges stream into an in-memory buffer; every ``shard_edges`` edges (and
at every checkpoint) the buffer is *sealed* into an immutable segment
file holding the two int64 columns back to back.  Sealed segments are
never rewritten — rollback deletes whole files, compaction merges them
— which keeps crash recovery trivial: a segment either exists complete
and CRC-clean, or it does not count.

Format
------
::

    segment := b"RSEG1\\n" <u64 n_edges> <u32 crc32(data)> <data>
    data    := sources[n x int64 LE] ++ targets[n x int64 LE]

Files are named ``seg-000001.edges``, ``seg-000002.edges``, … and are
written to a temp name then renamed, so a kill mid-write leaves no
half-segment under a live name.

:func:`compact` merges every shard, in order, into the ``edges.npz``
archive format :meth:`repro.crawler.dataset.CrawlDataset.load` reads.
"""

from __future__ import annotations

import re
import struct
import zlib
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.obs.metrics import Registry, get_registry

from .atomio import StoreIO, publish_bytes

__all__ = [
    "SealCallback",
    "SegmentError",
    "SegmentWriter",
    "compact",
    "iter_segment_paths",
    "load_edges",
    "read_segment",
    "segment_edge_count",
    "write_segment",
]

MAGIC = b"RSEG1\n"
_HEADER = struct.Struct("<QI")
_NAME_RE = re.compile(r"^seg-(\d{6})\.edges$")

#: Numpy dtype of both on-disk columns.
EDGE_DTYPE = np.dtype("<i8")


class SegmentError(Exception):
    """A segment file is missing, corrupt, or inconsistent."""


def _segment_name(index: int) -> str:
    return f"seg-{index:06d}.edges"


def write_segment(
    path: str | Path,
    sources: np.ndarray,
    targets: np.ndarray,
    io: StoreIO | None = None,
) -> Path:
    """Write one sealed segment atomically (tmp → fsync → rename)."""
    path = Path(path)
    sources = np.ascontiguousarray(sources, dtype=EDGE_DTYPE)
    targets = np.ascontiguousarray(targets, dtype=EDGE_DTYPE)
    if sources.shape != targets.shape or sources.ndim != 1:
        raise ValueError("sources/targets must be equal-length 1-D arrays")
    data = sources.tobytes() + targets.tobytes()
    blob = MAGIC + _HEADER.pack(len(sources), zlib.crc32(data)) + data
    return publish_bytes(path, blob, kind="segment", io=io)


def read_segment(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Load one segment's (sources, targets), verifying magic and CRC."""
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise SegmentError(f"{path}: not a segment file (bad magic)")
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise SegmentError(f"{path}: truncated header")
        n_edges, crc = _HEADER.unpack(header)
        data = handle.read()
    expected = 2 * n_edges * EDGE_DTYPE.itemsize
    if len(data) != expected:
        raise SegmentError(f"{path}: expected {expected} data bytes, found {len(data)}")
    if zlib.crc32(data) != crc:
        raise SegmentError(f"{path}: CRC mismatch")
    column = n_edges * EDGE_DTYPE.itemsize
    sources = np.frombuffer(data[:column], dtype=EDGE_DTYPE)
    targets = np.frombuffer(data[column:], dtype=EDGE_DTYPE)
    return sources, targets


def segment_edge_count(path: str | Path) -> int:
    """Edge count from the header alone (no data read, no CRC check)."""
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC)) != MAGIC:
            raise SegmentError(f"{path}: not a segment file (bad magic)")
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise SegmentError(f"{path}: truncated header")
        n_edges, _ = _HEADER.unpack(header)
    return int(n_edges)


def iter_segment_paths(directory: str | Path) -> list[Path]:
    """Sealed segment paths under a directory, in shard order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    names = [p.name for p in directory.iterdir() if _NAME_RE.match(p.name)]
    return [directory / name for name in sorted(names)]


def load_edges(
    directory: str | Path, names: Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate shards (all, or exactly ``names`` in order) into arrays."""
    directory = Path(directory)
    if names is None:
        paths = iter_segment_paths(directory)
    else:
        paths = [directory / name for name in names]
    sources: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for path in paths:
        s, t = read_segment(path)
        sources.append(s)
        targets.append(t)
    if not sources:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return (
        np.concatenate(sources).astype(np.int64, copy=False),
        np.concatenate(targets).astype(np.int64, copy=False),
    )


def compact(
    directory: str | Path,
    out_dir: str | Path,
    names: Sequence[str] | None = None,
) -> Path:
    """Merge shards into ``<out_dir>/edges.npz`` (the archive format).

    The result is byte-compatible with what :meth:`CrawlDataset.save`
    writes, so :meth:`CrawlDataset.load` reads it unchanged.
    """
    sources, targets = load_edges(directory, names=names)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "edges.npz"
    np.savez_compressed(out_path, sources=sources, targets=targets)
    return out_path


#: Signature of :attr:`SegmentWriter.on_seal` observers: the sealed
#: path plus the exact in-memory columns that were written, so stream
#: consumers (live sketches) never re-read what was just flushed.
SealCallback = Callable[[Path, np.ndarray, np.ndarray], None]


class SegmentWriter:
    """Accumulates edges and seals them into numbered shard files."""

    def __init__(
        self,
        directory: str | Path,
        shard_edges: int = 65_536,
        registry: Registry | None = None,
        on_seal: SealCallback | None = None,
        io: StoreIO | None = None,
    ):
        if shard_edges < 1:
            raise ValueError("shard_edges must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.shard_edges = shard_edges
        self.on_seal = on_seal
        self._io = io
        #: Buffered ``(n, 2)`` int64 edge blocks, ``_n_buffered`` rows in
        #: all; no block crosses a shard boundary.
        self._buf: list[np.ndarray] = []
        self._n_buffered = 0
        registry = registry if registry is not None else get_registry()
        self._m_sealed = registry.counter(
            "store.segments_sealed", "Edge segment shards sealed to disk"
        )
        self._m_edges = registry.counter(
            "store.segment_edges", "Edges sealed into segment shards"
        )
        self._g_sealed_edges = registry.gauge(
            "store.sealed_edges", "Edges currently durable in sealed segment shards"
        )
        self._sealed: list[tuple[str, int]] = [
            (path.name, segment_edge_count(path))
            for path in iter_segment_paths(self.directory)
        ]
        self._g_sealed_edges.set(self.n_sealed_edges)

    @property
    def n_sealed_edges(self) -> int:
        return sum(count for _, count in self._sealed)

    @property
    def n_buffered(self) -> int:
        return self._n_buffered

    def sealed_names(self) -> list[str]:
        return [name for name, _ in self._sealed]

    def sealed_counts(self) -> list[int]:
        """Per-shard edge counts, aligned with :meth:`sealed_names`."""
        return [count for _, count in self._sealed]

    def append(self, u: int, v: int) -> None:
        self.extend(((int(u), int(v)),))

    def extend(self, edges: Iterable[tuple[int, int]] | np.ndarray) -> None:
        """Buffer ``(u, v)`` pairs — an iterable of pairs or an ``(n, 2)``
        integer array — sealing a shard each time the buffer fills."""
        if isinstance(edges, np.ndarray):
            block = np.asarray(edges, dtype=EDGE_DTYPE).reshape(-1, 2)
        else:
            block = np.array(list(edges), dtype=EDGE_DTYPE).reshape(-1, 2)
        start, n = 0, len(block)
        while start < n:
            stop = min(n, start + self.shard_edges - self._n_buffered)
            self._buf.append(block[start:stop])
            self._n_buffered += stop - start
            start = stop
            if self._n_buffered >= self.shard_edges:
                self.seal()

    def seal(self) -> Path | None:
        """Flush the buffer into a new shard; None when nothing buffered."""
        if not self._n_buffered:
            return None
        index = self._next_index()
        block = np.concatenate(self._buf)
        sources = np.ascontiguousarray(block[:, 0])
        targets = np.ascontiguousarray(block[:, 1])
        path = write_segment(
            self.directory / _segment_name(index), sources, targets, io=self._io
        )
        self._sealed.append((path.name, self._n_buffered))
        self._m_sealed.inc()
        self._m_edges.inc(self._n_buffered)
        self._g_sealed_edges.set(self.n_sealed_edges)
        self._buf = []
        self._n_buffered = 0
        if self.on_seal is not None:
            self.on_seal(path, sources, targets)
        return path

    def _next_index(self) -> int:
        if not self._sealed:
            return 1
        last = self._sealed[-1][0]
        return int(_NAME_RE.match(last).group(1)) + 1

    def rollback(self, keep: Sequence[str]) -> None:
        """Drop buffered edges and every shard not in ``keep``.

        ``keep`` must be a prefix of the sealed shard sequence (shards
        are append-only, so a checkpoint can only ever reference a
        prefix); everything later — including stray files left by a
        killed run — is deleted.
        """
        keep = list(keep)
        names = self.sealed_names()
        if names[: len(keep)] != keep:
            raise SegmentError(
                f"rollback target {keep!r} is not a prefix of sealed shards {names!r}"
            )
        for name in names[len(keep):]:
            (self.directory / name).unlink()
        self._sealed = self._sealed[: len(keep)]
        self._g_sealed_edges.set(self.n_sealed_edges)
        self._buf = []
        self._n_buffered = 0
