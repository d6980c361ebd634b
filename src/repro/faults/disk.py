"""Deterministic disk-fault injection for the campaign store.

The network chaos layer (:mod:`repro.faults.schedule`) scripts what the
*service* does to the crawler; this module scripts what the *disk* does
to the store.  A :class:`DiskFaultSchedule` holds virtual-clock-windowed
rules that fire on the store's durability events — journal batch
writes, fsyncs, and atomic publishes of segments and checkpoints — via
the :class:`~repro.store.atomio.StoreIO` seam threaded through
``journal.py``, ``segments.py``, and ``checkpoint.py``.

Rule kinds
----------
``torn_write``
    A write that dies partway: a random prefix of the batch lands, then
    :class:`DiskFaultError` aborts the process path (the classic torn
    journal tail / half-written temp file).
``enospc`` / ``eio``
    ``OSError``-style failures (disk full, medium error) raised before
    any byte lands; ``eio`` also fires on fsync and rename.
``dropped_fsync``
    The fsync silently does nothing.  If the file is later published by
    rename without an intervening successful fsync, a random tail of it
    is cut first — exactly the page-cache loss window the fsync
    discipline in :mod:`repro.store.atomio` exists to close.
``bit_rot``
    Flips one random bit in a file *after* it went durable — sealed
    segments by default; ``targets`` extends it to checkpoints or the
    journal's already-flushed region (``zone`` narrows where in that
    region the flip may land).
``missing_file``
    Unlinks a file after it was published (vanished checkpoint shard;
    with ``targets: ["journal"]``, the journal itself).
``duplicate_segment``
    Copies a freshly sealed segment to the next free shard name — the
    stray-file debris a confused retry loop leaves behind.

Determinism
-----------
The rules and the schedule subclass the network plane's rule core
(:class:`~repro.faults.schedule.WindowedRule`,
:class:`~repro.faults.schedule.WindowedSchedule`), so seeding
(``SeedSequence([scenario_seed, rule_index])``), the scenario parser
and the checkpointed state format are the same code.  Every rule whose
window is open and whose op matches draws a **fixed** number of
variates whether or not it fires, so the draw sequence depends only on
the store's op timeline.  The schedule state rides in crawl checkpoints
under the ``disk_faults`` extension key, so repeated crash/resume
cycles replay the same chaos decisions deterministically.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import IO, Sequence

from repro.store.atomio import StoreIO

from .schedule import FaultSpecError, WindowedRule, WindowedSchedule, _rate_in_unit

__all__ = [
    "BitRot",
    "DiskFaultError",
    "DiskFaultRule",
    "DiskFaultSchedule",
    "DroppedFsync",
    "DuplicateSegment",
    "Enospc",
    "Eio",
    "FaultyStoreIO",
    "MissingFile",
    "TornWrite",
]

#: Targets a published/flushed-path rule may aim at.  ``segment``,
#: ``checkpoint`` and ``manifest`` are publish kinds (see the ``kind``
#: argument the store passes to ``StoreIO.replace``/``published``);
#: ``journal`` attaches to the post-flush hook instead.
_KNOWN_TARGETS = frozenset({"segment", "checkpoint", "manifest", "journal"})


class DiskFaultError(OSError):
    """An injected disk fault (carries the rule kind that fired)."""

    def __init__(self, kind: str, message: str, err: int | None = None):
        super().__init__(err if err is not None else 0, message)
        self.kind = kind


class _Decision:
    """What one rule does to one store op."""

    __slots__ = ("kind", "err", "keep_fraction", "lose_fraction", "rot", "unlink", "duplicate")

    def __init__(
        self,
        kind: str,
        err: int | None = None,
        keep_fraction: float | None = None,
        lose_fraction: float | None = None,
        rot: tuple[float, int] | None = None,
        unlink: bool = False,
        duplicate: bool = False,
    ):
        self.kind = kind
        self.err = err
        self.keep_fraction = keep_fraction
        self.lose_fraction = lose_fraction
        self.rot = rot  # (relative offset in eligible region, bit index)
        self.unlink = unlink
        self.duplicate = duplicate


class DiskFaultRule(WindowedRule):
    """A disk-plane rule: the rule core plus an op and target filter."""

    #: Store ops this rule is consulted on ("write", "fsync", "replace",
    #: "published", "flushed").
    ops: frozenset[str] = frozenset()

    def matches_target(self, target: str) -> bool:
        return True

    def decide(self, op: str, now: float, target: str) -> _Decision | None:
        """Consult the rule for one op; draws a fixed variate count."""
        raise NotImplementedError


def _targets(targets: Sequence[str] | None, default: tuple[str, ...], kind: str):
    chosen = tuple(targets) if targets is not None else default
    unknown = set(chosen) - _KNOWN_TARGETS
    if unknown:
        raise FaultSpecError(f"{kind}: unknown targets {sorted(unknown)}")
    return frozenset(chosen)


class TornWrite(DiskFaultRule):
    """A batch write that lands a random prefix, then dies."""

    kind = "torn_write"
    ops = frozenset({"write"})

    def __init__(self, start=0.0, end=float("inf"), rate: float = 0.05, seed: int = 0):
        super().__init__(start, end, seed)
        self.rate = _rate_in_unit(rate, "torn_write.rate")

    def decide(self, op, now, target):
        # Two draws per consulted op (hit?, where to tear?) — always
        # both, so the sequence is independent of the hit outcome.
        hit = self._chance(self.rate)
        fraction = float(self._rng.random())
        if not hit:
            return None
        return _Decision(self.kind, keep_fraction=fraction)


class Enospc(DiskFaultRule):
    """The disk is full: writes fail before any byte lands."""

    kind = "enospc"
    ops = frozenset({"write"})

    def __init__(self, start=0.0, end=float("inf"), rate: float = 1.0, seed: int = 0):
        super().__init__(start, end, seed)
        self.rate = _rate_in_unit(rate, "enospc.rate")

    def decide(self, op, now, target):
        if not self._chance(self.rate):
            return None
        return _Decision(self.kind, err=errno.ENOSPC)


class Eio(DiskFaultRule):
    """Medium errors: any write, fsync, or rename may fail with EIO."""

    kind = "eio"
    ops = frozenset({"write", "fsync", "replace"})

    def __init__(self, start=0.0, end=float("inf"), rate: float = 0.05, seed: int = 0):
        super().__init__(start, end, seed)
        self.rate = _rate_in_unit(rate, "eio.rate")

    def decide(self, op, now, target):
        if not self._chance(self.rate):
            return None
        return _Decision(self.kind, err=errno.EIO)


class DroppedFsync(DiskFaultRule):
    """An fsync that silently does nothing (lying drive / page cache)."""

    kind = "dropped_fsync"
    ops = frozenset({"fsync"})

    def __init__(self, start=0.0, end=float("inf"), rate: float = 0.5, seed: int = 0):
        super().__init__(start, end, seed)
        self.rate = _rate_in_unit(rate, "dropped_fsync.rate")

    def decide(self, op, now, target):
        # hit? + how much of the tail the cache would lose — both drawn.
        hit = self._chance(self.rate)
        lose = float(self._rng.random())
        if not hit:
            return None
        return _Decision(self.kind, lose_fraction=lose)


class BitRot(DiskFaultRule):
    """Flip one bit in a file after it became durable."""

    kind = "bit_rot"
    ops = frozenset({"published", "flushed"})

    def __init__(
        self,
        start=0.0,
        end=float("inf"),
        rate: float = 0.1,
        targets: Sequence[str] | None = None,
        zone: Sequence[float] | None = None,
        seed: int = 0,
    ):
        super().__init__(start, end, seed)
        self.rate = _rate_in_unit(rate, "bit_rot.rate")
        self.targets = _targets(targets, ("segment",), self.kind)
        lo, hi = (0.0, 1.0) if zone is None else (float(zone[0]), float(zone[1]))
        if not 0.0 <= lo < hi <= 1.0:
            raise FaultSpecError(f"bit_rot.zone must satisfy 0 <= lo < hi <= 1, got {zone}")
        self.zone = (lo, hi)

    def matches_target(self, target):
        return target in self.targets

    def decide(self, op, now, target):
        hit = self._chance(self.rate)
        rel = float(self._rng.random())
        bit = int(self._rng.integers(8))
        if not hit:
            return None
        lo, hi = self.zone
        return _Decision(self.kind, rot=(lo + rel * (hi - lo), bit))


class MissingFile(DiskFaultRule):
    """A published file vanishes (lost dirent, eager cleanup job)."""

    kind = "missing_file"
    ops = frozenset({"published", "flushed"})

    def __init__(
        self,
        start=0.0,
        end=float("inf"),
        rate: float = 0.25,
        targets: Sequence[str] | None = None,
        seed: int = 0,
    ):
        super().__init__(start, end, seed)
        self.rate = _rate_in_unit(rate, "missing_file.rate")
        self.targets = _targets(targets, ("checkpoint",), self.kind)

    def matches_target(self, target):
        return target in self.targets

    def decide(self, op, now, target):
        if not self._chance(self.rate):
            return None
        return _Decision(self.kind, unlink=True)


class DuplicateSegment(DiskFaultRule):
    """A sealed segment gets cloned to the next free shard name."""

    kind = "duplicate_segment"
    ops = frozenset({"published"})

    def __init__(self, start=0.0, end=float("inf"), rate: float = 0.1, seed: int = 0):
        super().__init__(start, end, seed)
        self.rate = _rate_in_unit(rate, "duplicate_segment.rate")

    def matches_target(self, target):
        return target == "segment"

    def decide(self, op, now, target):
        if not self._chance(self.rate):
            return None
        return _Decision(self.kind, duplicate=True)


class DiskFaultSchedule(WindowedSchedule):
    """An ordered, resumable set of disk-fault rules."""

    rule_kinds = {
        cls.kind: cls
        for cls in (TornWrite, Enospc, Eio, DroppedFsync, BitRot, MissingFile, DuplicateSegment)
    }
    spec_label = "disk scenario"
    kind_label = "disk fault kind"

    def decide(self, op: str, now: float, target: str = "file") -> list[_Decision]:
        """All firing decisions for one store op at virtual ``now``.

        Every matching rule is consulted (fixed draw discipline);
        outside the envelope of all windows the loop is skipped, which
        is the armed-but-quiet fast path the overhead gate measures.
        """
        if now < self._window_start or now >= self._window_end:
            return []
        decisions: list[_Decision] = []
        for rule in self.rules:
            if op not in rule.ops or not rule.active(now):
                continue
            if not rule.matches_target(target):
                continue
            decision = rule.decide(op, now, target)
            if decision is not None:
                decisions.append(decision)
        return decisions


def _flip_bit(path: Path, offset: int, bit: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        if not byte:
            return
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ (1 << bit)]))


class FaultyStoreIO(StoreIO):
    """A :class:`StoreIO` that injects a :class:`DiskFaultSchedule`.

    The clock arrives via :meth:`bind_clock` (the store forwards the
    crawl's virtual clock before any routed op runs); until then ops
    evaluate at t=0, which is before every sane scenario window.
    """

    armed = True

    def __init__(self, schedule: DiskFaultSchedule, clock=None, registry=None):
        self.schedule = schedule
        self._now = clock if clock is not None else (lambda: 0.0)
        #: Live files whose last fsync was dropped: path -> lose_fraction.
        self._unsynced: dict[str, float] = {}
        if registry is None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
        self._m_injected = registry.counter(
            "store.disk_faults_injected", "Disk faults injected, by rule kind",
            labels=("kind",),
        )

    def bind_clock(self, clock) -> None:
        self._now = clock.now if hasattr(clock, "now") else clock

    def _raise_if_error(self, decisions: list[_Decision]) -> None:
        for decision in decisions:
            if decision.err is not None:
                self._m_injected.inc(kind=decision.kind)
                raise DiskFaultError(
                    decision.kind,
                    f"injected {decision.kind}",
                    err=decision.err,
                )

    # -- routed ops ----------------------------------------------------------

    def write(self, handle: IO[bytes], data: bytes) -> None:
        decisions = self.schedule.decide("write", self._now())
        self._raise_if_error(decisions)
        for decision in decisions:
            if decision.keep_fraction is not None and len(data) > 1:
                keep = min(len(data) - 1, int(decision.keep_fraction * len(data)))
                handle.write(data[:keep])
                handle.flush()
                self._m_injected.inc(kind=decision.kind)
                raise DiskFaultError(decision.kind, f"torn write after {keep} bytes")
        handle.write(data)

    def fsync(self, handle: IO[bytes]) -> None:
        decisions = self.schedule.decide("fsync", self._now())
        self._raise_if_error(decisions)
        handle.flush()
        for decision in decisions:
            if decision.lose_fraction is not None:
                # The fsync lies: bytes stay in the (simulated) cache.
                self._unsynced[handle.name] = decision.lose_fraction
                self._m_injected.inc(kind=decision.kind)
                return
        os.fsync(handle.fileno())
        self._unsynced.pop(handle.name, None)

    def replace(self, src: str | Path, dst: str | Path, kind: str = "file") -> None:
        decisions = self.schedule.decide("replace", self._now(), target=kind)
        self._raise_if_error(decisions)
        lose = self._unsynced.pop(str(src), None)
        if lose is not None:
            # Publishing a never-synced file: the rename lands but the
            # cached tail never hit the platter — cut it.
            size = os.path.getsize(src)
            lost = max(1, int(size * lose))
            os.truncate(src, max(0, size - lost))
        os.replace(src, dst)

    def published(self, path: Path, kind: str = "file") -> None:
        path = Path(path)
        decisions = self.schedule.decide("published", self._now(), target=kind)
        for decision in decisions:
            if decision.unlink:
                path.unlink(missing_ok=True)
                self._m_injected.inc(kind=decision.kind)
                return  # nothing left to rot or duplicate
            if decision.rot is not None and path.exists():
                size = os.path.getsize(path)
                if size:
                    rel, bit = decision.rot
                    _flip_bit(path, min(size - 1, int(rel * size)), bit)
                    self._m_injected.inc(kind=decision.kind)
            if decision.duplicate and kind == "segment" and path.exists():
                clone = self._next_segment_name(path)
                clone.write_bytes(path.read_bytes())
                self._m_injected.inc(kind=decision.kind)

    def flushed(self, handle: IO[bytes], path: Path, durable_end: int) -> None:
        decisions = self.schedule.decide("flushed", self._now(), target="journal")
        for decision in decisions:
            if decision.unlink:
                Path(path).unlink(missing_ok=True)
                self._m_injected.inc(kind=decision.kind)
                return
            if decision.rot is not None:
                # Rot only already-durable history, never the batch that
                # just landed (that is torn_write's territory).
                from repro.store.journal import HEADER_SIZE

                span = durable_end - HEADER_SIZE
                if span > 0:
                    rel, bit = decision.rot
                    offset = HEADER_SIZE + min(span - 1, int(rel * span))
                    handle.flush()
                    _flip_bit(Path(path), offset, bit)
                    self._m_injected.inc(kind=decision.kind)

    @staticmethod
    def _next_segment_name(path: Path) -> Path:
        from repro.store.segments import iter_segment_paths

        existing = iter_segment_paths(path.parent)
        last = int(existing[-1].name[4:10]) if existing else 0
        return path.parent / f"seg-{last + 1:06d}.edges"
