"""Out-of-core columnar world state: spilled circle arrays + edge segment.

A columnar world's dominant memory is the circle CSR — O(edges) target,
label and follower arrays (:class:`repro.platform.columnar.ColumnarCircles`).
This module spills those arrays to a directory and reloads them
memory-mapped, so a 1M–10M user world crawls with the OS paging circle
slices in on demand instead of holding every edge resident::

    spill/
      columns.json      # manifest: n, labels, per-array dtype/shape/CRC
      out_indptr.npy    # membership CSR (insertion order, labelled)
      out_targets.npy
      out_labels.npy
      flat_indptr.npy   # deduped contact CSR (absent when it aliases out_*)
      flat_targets.npy
      in_indptr.npy     # follower CSR
      in_sources.npy
      edges.rseg        # the deduped link list, RSEG1 (repro.store.segments)

Every file is published atomically (tmp → fsync → rename) through
:mod:`repro.store.atomio`, and the link list additionally rides the
CRC-checked ``RSEG1`` segment format — the exact bytes
:func:`repro.store.segments.read_segment` and campaign compaction
already understand, so spilled edges feed the analysis stack directly.

:func:`spill_service` is the one-call form: it spills a live
:class:`~repro.platform.service.GooglePlusService`'s base circles and
swaps the resident arrays for the memory-mapped views in place.
"""

from __future__ import annotations

import io as _io
import json
import zlib
from pathlib import Path

import numpy as np

from repro.platform.columnar import ColumnarCircles
from repro.platform.service import GooglePlusService

from .atomio import StoreIO, publish_bytes, publish_text
from .segments import SegmentError, segment_edge_count, write_segment

__all__ = [
    "EDGES_NAME",
    "MANIFEST_NAME",
    "SpillError",
    "load_circles",
    "spill_circles",
    "spill_service",
    "verify_spill",
]

MANIFEST_NAME = "columns.json"
EDGES_NAME = "edges.rseg"

#: The spilled arrays, in manifest order.  ``flat_*`` is omitted when it
#: aliases ``out_*`` (an ingest batch without duplicate pairs).
_CIRCLE_ARRAYS = (
    "out_indptr",
    "out_targets",
    "out_labels",
    "flat_indptr",
    "flat_targets",
    "in_indptr",
    "in_sources",
)


class SpillError(Exception):
    """A spill directory is missing files or inconsistent with its manifest."""


def _npy_bytes(array: np.ndarray) -> bytes:
    buf = _io.BytesIO()
    np.save(buf, np.ascontiguousarray(array))
    return buf.getvalue()


def spill_circles(
    circles: ColumnarCircles,
    directory: str | Path,
    io: StoreIO | None = None,
) -> Path:
    """Write the circle CSR to ``directory``; returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    flat_shares_out = circles.flat_targets is circles.out_targets
    arrays: dict[str, dict] = {}
    for name in _CIRCLE_ARRAYS:
        if flat_shares_out and name.startswith("flat_"):
            continue
        array = getattr(circles, name)
        blob = _npy_bytes(array)
        publish_bytes(directory / f"{name}.npy", blob, kind="column", io=io)
        arrays[name] = {
            "file": f"{name}.npy",
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "crc": zlib.crc32(blob),
        }
    n = len(circles.out_indptr) - 1
    link_sources = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(circles.flat_indptr)
    )
    write_segment(
        directory / EDGES_NAME,
        link_sources,
        circles.flat_targets.astype(np.int64, copy=False),
        io=io,
    )
    manifest = {
        "version": 1,
        "n": n,
        "labels": list(circles.labels),
        "flat_shares_out": flat_shares_out,
        "n_links": int(circles.flat_indptr[-1]),
        "arrays": arrays,
    }
    return publish_text(
        directory / MANIFEST_NAME, json.dumps(manifest, indent=2) + "\n", io=io
    )


def load_circles(directory: str | Path, mmap: bool = True) -> ColumnarCircles:
    """Reload spilled circles, memory-mapped by default.

    Structural checks (shapes, declared link count vs the segment
    header) always run; they read metadata only, preserving the lazy
    load.  Use :func:`verify_spill` for a full CRC pass.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise SpillError(f"{directory}: no {MANIFEST_NAME}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    loaded: dict[str, np.ndarray] = {}
    for name, meta in manifest["arrays"].items():
        path = directory / meta["file"]
        if not path.exists():
            raise SpillError(f"{directory}: missing column file {meta['file']}")
        array = np.load(path, mmap_mode="r" if mmap else None)
        if list(array.shape) != meta["shape"] or str(array.dtype) != meta["dtype"]:
            raise SpillError(
                f"{path}: expected {meta['dtype']}{meta['shape']}, "
                f"found {array.dtype}{list(array.shape)}"
            )
        loaded[name] = array
    if manifest["flat_shares_out"]:
        loaded["flat_indptr"] = loaded["out_indptr"]
        loaded["flat_targets"] = loaded["out_targets"]
    try:
        sealed = segment_edge_count(directory / EDGES_NAME)
    except (OSError, SegmentError) as exc:
        raise SpillError(f"{directory}: edge segment unreadable: {exc}") from exc
    if sealed != manifest["n_links"]:
        raise SpillError(
            f"{directory}: edge segment holds {sealed} links, "
            f"manifest declares {manifest['n_links']}"
        )
    return ColumnarCircles(labels=tuple(manifest["labels"]), **loaded)


def verify_spill(directory: str | Path) -> list[str]:
    """Full integrity pass over a spill directory ([] = clean).

    Reads every byte: per-array CRCs against the manifest and the edge
    segment's own CRC (via its reader).  Complements the structural
    checks :func:`load_circles` performs for free.
    """
    from .segments import read_segment

    directory = Path(directory)
    problems: list[str] = []
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        return [f"{directory}: no {MANIFEST_NAME}"]
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for name, meta in manifest["arrays"].items():
        path = directory / meta["file"]
        if not path.exists():
            problems.append(f"{meta['file']}: missing")
            continue
        if zlib.crc32(path.read_bytes()) != meta["crc"]:
            problems.append(f"{meta['file']}: CRC mismatch")
    try:
        sources, targets = read_segment(directory / EDGES_NAME)
        if len(sources) != manifest["n_links"]:
            problems.append(
                f"{EDGES_NAME}: {len(sources)} links, manifest says "
                f"{manifest['n_links']}"
            )
    except (OSError, SegmentError) as exc:
        problems.append(f"{EDGES_NAME}: {exc}")
    return problems


def spill_service(
    service: GooglePlusService,
    directory: str | Path,
    io: StoreIO | None = None,
) -> Path:
    """Spill a live service's base circles and remap them in place.

    After this call the service's circle/follower reads go through
    memory-mapped arrays — the resident CSR is released to the garbage
    collector and the OS pages edge slices in on demand.  Returns the
    manifest path.
    """
    manifest = spill_circles(service.base_circles, directory, io=io)
    service.base_circles = load_circles(directory)
    return manifest
