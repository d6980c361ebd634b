"""Durable crawl campaigns: journal + segments + checkpoints + manifest.

The authors' crawl ran ~52 days across 11 machines — a campaign that
only works if progress is durable and a killed crawler resumes where it
stopped.  :class:`CampaignStore` implements the crawler's
:class:`~repro.crawler.bfs.CrawlHooks` against a campaign directory::

    campaign/
      manifest.json   # CampaignConfig + status (created/running/complete)
      journal.wal     # WAL of page/edge/stats records  (repro.store.journal)
      segments/       # sealed columnar edge shards     (repro.store.segments)
      checkpoints/    # verified resume points          (repro.store.checkpoint)
      archive/        # compacted CrawlDataset archive (edges.npz, ...)

Write path, per fetched page: append a PAGE record (the profile, through
the same JSON codecs the archive uses) and an EDGES record (the page's
new deduplicated edges, packed int64 pairs) to the journal, and stream
the edges into the segment writer.  At every checkpoint: flush the
journal, seal the segment buffer, and write a checkpoint pinning
(journal offset, segment list, control snapshot).

Recovery contract, on open: drop the journal's torn tail; pick the
newest checkpoint whose journal offset and segment list are actually
durable (CRC-verified, counts matching); roll journal and segments back
to exactly that cut; replay the journal's PAGE records into profiles and
the segments into edge arrays.  Because the control snapshot restores
the frontier, fleet counters, clock, rate-limiter buckets and failure
RNG bit-for-bit, the resumed crawl fetches the exact page sequence the
uninterrupted crawl would have — the resulting dataset is bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from repro.crawler.bfs import (
    BidirectionalBFSCrawler,
    CrawlConfig,
    CrawlHooks,
    CrawlSnapshot,
    HookChain,
    ResumeState,
)
from repro.crawler.dataset import CrawlDataset, profile_from_json
from repro.crawler.dataset import profile_to_json as _profile_to_json
from repro.obs.metrics import Registry, get_registry, log_buckets

from . import checkpoint as ckpt
from .atomio import StoreIO, publish_text
from .journal import (
    HEADER_SIZE,
    JournalScan,
    JournalWriter,
    iter_records,
    scan as scan_journal,
)
from .segments import (
    SegmentError,
    SegmentWriter,
    iter_segment_paths,
    load_edges,
    segment_edge_count,
)

__all__ = [
    "ARCHIVE_DIR",
    "CHECKPOINTS_DIR",
    "CampaignConfig",
    "CampaignError",
    "CampaignStore",
    "CorruptStoreError",
    "CrawlCampaign",
    "HEARTBEAT_NAME",
    "JOURNAL_NAME",
    "KIND_DEADLETTER",
    "KIND_EDGES",
    "KIND_PAGE",
    "KIND_STATS",
    "MANIFEST_NAME",
    "SEGMENTS_DIR",
    "SimulatedCrash",
    "dataset_diff",
]

#: Journal record kinds (the u8 leading each payload).
KIND_PAGE = 1
KIND_EDGES = 2
KIND_STATS = 3
#: Audit trail of dead-letter traffic (a page entering the queue, or
#: being recovered by redrive).  Never replayed into state — the
#: authoritative queue lives in the checkpoint snapshot.
KIND_DEADLETTER = 4

KIND_NAMES = {
    KIND_PAGE: "page",
    KIND_EDGES: "edges",
    KIND_STATS: "stats",
    KIND_DEADLETTER: "dead_letter",
}

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.wal"
SEGMENTS_DIR = "segments"
CHECKPOINTS_DIR = "checkpoints"
ARCHIVE_DIR = "archive"
#: Wall-clock liveness file the supervisor watches (see
#: :mod:`repro.store.supervisor`); written when the store opens, at
#: every checkpoint, and otherwise at most once per
#: :data:`HEARTBEAT_EVERY_SECONDS` of wall time while pages land.
HEARTBEAT_NAME = "heartbeat.json"
HEARTBEAT_EVERY_SECONDS = 1.0

#: Compact JSON encoder for PAGE records; the bytes equal
#: ``json.dumps(obj, separators=(",", ":"))``.
_PAGE_ENCODER = json.JSONEncoder(separators=(",", ":"))


class CampaignError(Exception):
    """The campaign directory is unusable or was opened inconsistently."""


class CorruptStoreError(CampaignError):
    """Checkpoints exist but none is satisfiable — run fsck, don't reset.

    Distinct from the fresh-directory case (no checkpoint files at all,
    which legitimately starts from scratch): when resume points *exist*
    but the on-disk data cannot satisfy any of them, silently resetting
    would destroy the evidence a repair needs.  ``python -m repro.store
    fsck --repair`` quarantines/rebuilds what it can; the exit-code
    taxonomy in :mod:`repro.store.exitcodes` lets supervisors branch on
    this condition.
    """


class SimulatedCrash(RuntimeError):
    """Raised by the crash-injection hook (tests exercise kill/resume)."""


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to rebuild the same world + crawl deterministically.

    A campaign's config is frozen into ``manifest.json`` at creation;
    reopening with a different config is an error, because resuming
    under different parameters would silently diverge from the original
    page sequence.
    """

    n_users: int = 8_000
    seed: int = 5
    circle_display_limit: int = 10_000
    n_machines: int = 11
    request_latency: float = 0.02
    max_pages: int | None = None
    rate_per_ip: float = 200.0
    burst: float = 400.0
    error_rate: float = 0.0
    #: Checkpoint every N fetched pages (0 disables the page trigger).
    checkpoint_every_pages: int = 500
    #: Checkpoint every N seconds of *virtual* time (0 disables).
    checkpoint_every_virtual: float = 0.0
    shard_edges: int = 65_536
    keep_checkpoints: int = 3
    #: Fault scenario document (``repro.faults.FaultSchedule.from_dict``
    #: schema), frozen into the manifest like every other knob so a
    #: resumed campaign replays the exact same chaos.  None = clean run.
    faults: dict | None = None
    #: Overrides for :class:`~repro.crawler.bfs.CrawlConfig`'s resilience
    #: knobs (max_retries, max_backoff, retry_budget, breaker_*,
    #: parse_retries, max_redrive_rounds, ...).  None = defaults.
    resilience: dict | None = None
    #: Interactive traffic served alongside the crawl
    #: (:func:`repro.serve.build_traffic` schema: n_clients, seed, mix,
    #: cache, faults, ...).  Frozen into the manifest like every other
    #: knob; the load generator's state rides in the crawl checkpoints,
    #: so a killed mixed campaign resumes bit-identically.  None = the
    #: crawler has the site to itself.
    traffic: dict | None = None
    #: Disk-fault scenario document
    #: (:meth:`repro.faults.disk.DiskFaultSchedule.from_dict` schema),
    #: injected into the store's I/O paths via :class:`StoreIO`.  Frozen
    #: into the manifest so every resumed incarnation replays the same
    #: disk chaos.  None = the disk is trustworthy.
    disk_faults: dict | None = None
    #: World generation engine (``"reference"`` | ``"fast"``) — frozen so
    #: a resumed campaign rebuilds the identical world.
    engine: str = "reference"
    #: ``WorldConfig.store`` label (``"dict"`` | ``"columnar"``), kept so
    #: saved manifests reopen with an equal config; both values build
    #: the same world on the one service store (docs/storage.md).
    store: str = "dict"

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CampaignConfig":
        return cls(**data)

    def crawl_config(self) -> CrawlConfig:
        resilience = dict(self.resilience) if self.resilience else {}
        return CrawlConfig(
            n_machines=self.n_machines,
            max_pages=self.max_pages,
            request_latency=self.request_latency,
            **resilience,
        )


def _select_checkpoint(directory: Path):
    """The newest checkpoint the on-disk data can actually satisfy.

    Returns ``(record | None, journal_scan | None)``.  A checkpoint is
    usable when it verifies (CRC), its journal offset lies within the
    journal's valid prefix, and every segment it references exists with
    counts summing to its edge total.
    """
    journal_path = directory / JOURNAL_NAME
    journal_scan = scan_journal(journal_path) if journal_path.exists() else None
    for path in reversed(ckpt.list_checkpoint_paths(directory / CHECKPOINTS_DIR)):
        try:
            record = ckpt.load_checkpoint(path)
        except ckpt.CheckpointError:
            continue
        if journal_scan is None or record.journal_offset > journal_scan.valid_end:
            continue
        try:
            sealed = sum(
                segment_edge_count(directory / SEGMENTS_DIR / name)
                for name in record.segments
            )
        except (OSError, SegmentError):
            continue
        if sealed != record.n_edges:
            continue
        return record, journal_scan
    return None, journal_scan


class CampaignStore(CrawlHooks):
    """The crawler hooks that persist a crawl into a campaign directory."""

    def __init__(
        self,
        directory: str | Path,
        config: CampaignConfig,
        registry: Registry | None = None,
        kill_after_pages: int | None = None,
        crash_after_pages: int | None = None,
        crash_after_checkpoints: int | None = None,
        hang_after_pages: int | None = None,
        io: StoreIO | None = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.config = config
        #: The I/O seam every durability event routes through; the
        #: default passthrough is the production path, a
        #: :class:`~repro.faults.disk.FaultyStoreIO` injects disk chaos.
        self.io = io if io is not None else StoreIO()
        registry = registry if registry is not None else get_registry()
        self._registry = registry
        self._m_checkpoints = registry.counter(
            "store.checkpoints", "Checkpoints written"
        )
        self._m_checkpoint_seconds = registry.histogram(
            "store.checkpoint_seconds",
            "Wall-clock time spent writing one checkpoint",
            buckets=log_buckets(0.0001, 2.0, 16),
        )
        self._m_recoveries = registry.counter(
            "store.recoveries", "Campaign opens that restored from a checkpoint"
        )
        self._m_replayed_pages = registry.counter(
            "store.replayed_pages", "Page records replayed from the journal on resume"
        )
        self._m_rolled_back = registry.counter(
            "store.rolled_back_records",
            "Journal records discarded to reach a consistent checkpoint",
        )
        self._m_dead_letters = registry.counter(
            "store.dead_letter_records",
            "Dead-letter audit records journaled, by event",
            labels=("event",),
        )
        #: Crash injection (tests / CI smoke): SIGKILL or raise after N
        #: pages fetched *by this process*, or right after checkpoint N.
        self.kill_after_pages = kill_after_pages
        self.crash_after_pages = crash_after_pages
        self.crash_after_checkpoints = crash_after_checkpoints
        #: Stall injection: stop making progress (without exiting) after
        #: N pages, so supervisor heartbeat-timeout detection can be
        #: exercised end to end.
        self.hang_after_pages = hang_after_pages
        self._pages_this_process = 0
        self._checkpoints_this_process = 0

        self.segments = SegmentWriter(
            self.directory / SEGMENTS_DIR,
            shard_edges=config.shard_edges,
            registry=registry,
            io=self.io,
        )
        self._resume, rollback_offset, journal_scan = self._recover()
        self.journal = JournalWriter(
            self.directory / JOURNAL_NAME,
            registry=registry,
            io=self.io,
            journal_scan=journal_scan,
        )
        if rollback_offset is not None and rollback_offset < self.journal.offset:
            self.journal.truncate_to(rollback_offset)
        self._sequence = self._next_sequence()
        self._pages_since_checkpoint = 0
        self._last_checkpoint_virtual = (
            self._resume.snapshot.virtual_now if self._resume is not None else 0.0
        )
        self._beat()

    # -- liveness ------------------------------------------------------------

    def _beat(self) -> None:
        """Refresh the wall-clock heartbeat the supervisor watches.

        Deliberately *not* routed through the fault seam (the supervisor
        needs an honest liveness signal even while the simulated disk is
        dying) and best-effort: a failed heartbeat must never take the
        campaign down.
        """
        self._next_beat = time.monotonic() + HEARTBEAT_EVERY_SECONDS
        document = json.dumps(
            {
                "pid": os.getpid(),
                "unix": time.time(),
                "pages": self._pages_this_process,
            }
        )
        tmp = self.directory / (HEARTBEAT_NAME + ".tmp")
        try:
            tmp.write_text(document, encoding="utf-8")
            os.replace(tmp, self.directory / HEARTBEAT_NAME)
        except OSError:
            pass

    # -- recovery ------------------------------------------------------------

    def _recover(
        self,
    ) -> tuple[ResumeState | None, int | None, JournalScan | None]:
        """Roll back to the newest usable checkpoint and replay it.

        Returns the resume state (None for a fresh campaign), the journal
        offset to truncate to, and the journal scan taken on the way —
        which the writer reuses, so a resume walks the journal twice:
        once to scan it, once to replay it.
        """
        journal_path = self.directory / JOURNAL_NAME
        record, journal_scan = _select_checkpoint(self.directory)
        if record is None:
            if ckpt.list_checkpoint_paths(self.directory / CHECKPOINTS_DIR):
                # Resume points exist but none is satisfiable: refuse to
                # reset (that would delete the evidence fsck repairs
                # from) and hand the taxonomy a distinct failure.
                raise CorruptStoreError(
                    f"{self.directory}: checkpoints exist but none is satisfiable "
                    f"by the on-disk journal/segments; run "
                    f"`python -m repro.store fsck --dir {self.directory} --repair`"
                )
            # No resume point was ever written: reset to an empty campaign.
            self.segments.rollback([])
            if journal_scan is not None and journal_scan.n_records:
                self._m_rolled_back.inc(journal_scan.n_records)
            return (
                None,
                HEADER_SIZE if journal_scan is not None else None,
                journal_scan,
            )
        self.segments.rollback(record.segments)
        profiles = {}
        replayed = 0
        for rec in iter_records(journal_path, upto=record.journal_offset):
            replayed += 1
            if rec.kind == KIND_PAGE:
                profile = profile_from_json(json.loads(rec.body.decode("utf-8")))
                profiles[profile.user_id] = profile
        if len(profiles) != record.n_pages:
            raise CampaignError(
                f"journal replays {len(profiles)} pages, checkpoint "
                f"{record.sequence} expects {record.n_pages}"
            )
        if journal_scan is not None:
            self._m_rolled_back.inc(max(0, journal_scan.n_records - replayed))
        sources, targets = load_edges(
            self.directory / SEGMENTS_DIR, names=record.segments
        )
        snapshot = CrawlSnapshot.from_json_dict(record.snapshot)
        self._m_recoveries.inc()
        self._m_replayed_pages.inc(len(profiles))
        resume = ResumeState(
            snapshot=snapshot,
            profiles=profiles,
            sources=sources,
            targets=targets,
        )
        return resume, record.journal_offset, journal_scan

    def _next_sequence(self) -> int:
        paths = ckpt.list_checkpoint_paths(self.directory / CHECKPOINTS_DIR)
        if not paths:
            return 1
        last = paths[-1].stem  # "ckpt-000042"
        return int(last.split("-")[1]) + 1

    # -- CrawlHooks ----------------------------------------------------------

    def bind_clock(self, clock) -> None:
        # First hook the crawler calls — hands the virtual clock to the
        # fault seam so disk-fault windows run on crawl time.
        self.io.bind_clock(clock)

    def resume_state(self) -> ResumeState | None:
        return self._resume

    def on_page(self, user_id, profile, new_edges) -> None:
        body = _PAGE_ENCODER.encode(_profile_to_json(profile))
        self.journal.append(KIND_PAGE, body.encode("utf-8"))
        if new_edges:
            pairs = np.fromiter(
                chain.from_iterable(new_edges), "<i8", count=2 * len(new_edges)
            )
            self.journal.append(KIND_EDGES, pairs.tobytes())
            self.segments.extend(pairs.reshape(-1, 2))
        self._pages_since_checkpoint += 1
        self._pages_this_process += 1
        if time.monotonic() >= self._next_beat:
            self._beat()
        if (
            self.hang_after_pages is not None
            and self._pages_this_process >= self.hang_after_pages
        ):
            # Stop beating and stop progressing — the injected stall the
            # supervisor must detect and SIGKILL.
            while True:
                time.sleep(3600)
        if (
            self.crash_after_pages is not None
            and self._pages_this_process >= self.crash_after_pages
        ):
            # Abandon buffers unflushed — an honest crash, minus the SIGKILL.
            raise SimulatedCrash(f"injected crash after {self._pages_this_process} pages")
        if (
            self.kill_after_pages is not None
            and self._pages_this_process >= self.kill_after_pages
        ):
            os.kill(os.getpid(), signal.SIGKILL)

    def _dead_letter_record(self, event: str, user_id: int, detail: dict) -> None:
        body = json.dumps(
            {"event": event, "user_id": int(user_id), **detail},
            separators=(",", ":"),
        )
        self.journal.append(KIND_DEADLETTER, body.encode("utf-8"))
        self._m_dead_letters.inc(event=event)

    def on_dead_letter(self, user_id, reason, virtual_now) -> None:
        self._dead_letter_record(
            "dead", user_id, {"reason": reason, "virtual_now": virtual_now}
        )

    def on_redrive(self, user_id, virtual_now) -> None:
        self._dead_letter_record("redriven", user_id, {"virtual_now": virtual_now})

    def should_checkpoint(self, n_pages: int, virtual_now: float) -> bool:
        every_pages = self.config.checkpoint_every_pages
        if every_pages and self._pages_since_checkpoint >= every_pages:
            return True
        every_virtual = self.config.checkpoint_every_virtual
        if every_virtual and virtual_now - self._last_checkpoint_virtual >= every_virtual:
            return True
        return False

    def on_checkpoint(self, snapshot: CrawlSnapshot) -> None:
        started = time.perf_counter()
        accounting = {
            "n_pages": snapshot.n_pages,
            "n_edges": snapshot.n_edges,
            "virtual_now": snapshot.virtual_now,
        }
        self.journal.append(
            KIND_STATS, json.dumps(accounting, separators=(",", ":")).encode("utf-8")
        )
        self.journal.flush()
        self.segments.seal()
        record = ckpt.CheckpointRecord(
            sequence=self._sequence,
            n_pages=snapshot.n_pages,
            n_edges=snapshot.n_edges,
            journal_offset=self.journal.offset,
            segments=self.segments.sealed_names(),
            snapshot=snapshot.to_json_dict(),
            segment_counts=self.segments.sealed_counts(),
        )
        ckpt.write_checkpoint(
            self.directory / CHECKPOINTS_DIR,
            record,
            keep=self.config.keep_checkpoints,
            io=self.io,
        )
        self._sequence += 1
        self._pages_since_checkpoint = 0
        self._last_checkpoint_virtual = snapshot.virtual_now
        self._checkpoints_this_process += 1
        self._beat()
        self._m_checkpoints.inc()
        self._m_checkpoint_seconds.observe(time.perf_counter() - started)
        if (
            self.crash_after_checkpoints is not None
            and self._checkpoints_this_process >= self.crash_after_checkpoints
        ):
            raise SimulatedCrash(
                f"injected crash after checkpoint {record.sequence}"
            )

    def on_finish(self, dataset: CrawlDataset) -> None:
        self.journal.close()


class CrawlCampaign:
    """A durable synthetic-world crawl campaign rooted at a directory.

    Creating one writes the manifest; reopening an existing directory
    loads (and enforces) the stored config.  :meth:`run` builds the
    world and crawls to completion, resuming automatically from the
    newest checkpoint — running and resuming are the same operation.
    """

    def __init__(self, directory: str | Path, config: CampaignConfig | None = None):
        self.directory = Path(directory)
        #: The :class:`~repro.serve.LoadGenerator` of the most recent
        #: :meth:`run`, when the config carries a ``traffic`` block.
        self.last_traffic = None
        manifest = self.directory / MANIFEST_NAME
        if manifest.exists():
            data = json.loads(manifest.read_text(encoding="utf-8"))
            stored = CampaignConfig.from_json_dict(data["config"])
            if config is not None and config != stored:
                raise CampaignError(
                    f"campaign at {self.directory} exists with a different config"
                )
            self.config = stored
            self.status = data.get("status", "created")
        else:
            self.config = config if config is not None else CampaignConfig()
            self.directory.mkdir(parents=True, exist_ok=True)
            self.status = "created"
            self._write_manifest()

    def _write_manifest(self) -> None:
        document = {
            "version": 1,
            "config": self.config.to_json_dict(),
            "status": self.status,
        }
        publish_text(
            self.directory / MANIFEST_NAME, json.dumps(document, indent=2) + "\n"
        )

    def run(
        self,
        registry: Registry | None = None,
        kill_after_pages: int | None = None,
        crash_after_pages: int | None = None,
        crash_after_checkpoints: int | None = None,
        hang_after_pages: int | None = None,
        live: object = None,
    ) -> CrawlDataset:
        """Run (or resume) the campaign to completion and archive it.

        ``live`` enables streaming telemetry: pass ``True`` for a
        default :class:`~repro.obs.live.LiveTelemetry` writing
        ``run_report.json`` into the campaign directory, or a
        pre-configured instance.  The telemetry rides behind the store
        on a :class:`~repro.crawler.bfs.HookChain` and consumes edge
        batches from sealed segments, so every figure it publishes
        describes durable data.
        """
        # Lazy import: inspect/compact must work without pulling in the
        # synthetic-world generator stack.
        from repro.faults import FaultSchedule
        from repro.synth import build_world, WorldConfig

        cfg = self.config
        world = build_world(
            WorldConfig(
                n_users=cfg.n_users,
                seed=cfg.seed,
                circle_display_limit=cfg.circle_display_limit,
                engine=cfg.engine,
                store=cfg.store,
            )
        )
        traffic = None
        if cfg.traffic:
            from repro.serve import EventClock, build_traffic

            # Swap in the event clock *before* the crawler's front end is
            # built, so both transports share it: the crawler's politeness
            # and backoff waits dispatch the due client requests at their
            # exact virtual times.
            clock = EventClock(world.clock.now())
            world.clock = clock
            traffic = build_traffic(
                world.service, clock, cfg.traffic, registry=registry
            )
        self.last_traffic = traffic
        faults = FaultSchedule.from_dict(cfg.faults) if cfg.faults else None
        frontend = world.frontend(
            rate_per_ip=cfg.rate_per_ip,
            burst=cfg.burst,
            error_rate=cfg.error_rate,
            faults=faults,
        )
        crawler = BidirectionalBFSCrawler(frontend, cfg.crawl_config())
        if traffic is not None:
            # The generator's full state (client RNGs, next-event times,
            # mutation log, cache metadata) rides in every crawl snapshot
            # and is restored on resume, after the world is rebuilt.
            crawler.extension_providers["serve"] = traffic.export_state

            def _restore_serve(state, _traffic=traffic):
                if state is not None:
                    _traffic.restore_state(state)

            crawler.extension_restorers["serve"] = _restore_serve
        disk_io = None
        if cfg.disk_faults:
            from repro.faults.disk import DiskFaultSchedule, FaultyStoreIO

            disk_schedule = DiskFaultSchedule.from_dict(cfg.disk_faults)
            disk_io = FaultyStoreIO(disk_schedule, registry=registry)
            # The schedule's RNG states ride in every checkpoint (like
            # the network fault RNGs and the traffic generator), so
            # repeated crash/resume cycles replay the same disk chaos.
            crawler.extension_providers["disk_faults"] = disk_schedule.export_state

            def _restore_disk(state, _schedule=disk_schedule):
                if state is not None:
                    _schedule.restore_state(state)

            crawler.extension_restorers["disk_faults"] = _restore_disk
        store = CampaignStore(
            self.directory,
            cfg,
            registry=registry,
            kill_after_pages=kill_after_pages,
            crash_after_pages=crash_after_pages,
            crash_after_checkpoints=crash_after_checkpoints,
            hang_after_pages=hang_after_pages,
            io=disk_io,
        )
        hooks: CrawlHooks = store
        if live:
            from repro.obs.live import LiveTelemetry
            from repro.obs.report import RUN_REPORT_FILENAME

            if live is True:
                live = LiveTelemetry(
                    self.directory / RUN_REPORT_FILENAME,
                    registry=registry,
                    # The store's checkpoint cadence pins every epoch to a
                    # durable (n_pages, n_edges) cut; no telemetry-driven
                    # checkpoints on top of it.
                    epoch_every_pages=0,
                    config={
                        "campaign_dir": str(self.directory),
                        **self.config.to_json_dict(),
                    },
                )
            if live.enabled:
                live.consume_seals(store.segments)
                if traffic is not None:
                    live.sections["serving"] = traffic.slo.section
                hooks = HookChain(store, live)
            # A disabled registry (REPRO_OBS=0) removes the observer
            # from the hot path entirely — not even a no-op in the
            # chain — so the kill switch really is free.
        self.status = "running"
        self._write_manifest()
        dataset = crawler.crawl([world.seed_user_id()], hooks=hooks)
        self.status = "complete"
        self._write_manifest()
        self.compact()
        return dataset

    def compact(self, out_dir: str | Path | None = None) -> Path:
        """Merge journal + segments into a ``CrawlDataset.load`` archive.

        Compacts *as of the newest usable checkpoint* — for a completed
        campaign that is the final state; mid-campaign it is the last
        consistent cut.
        """
        record, _ = _select_checkpoint(self.directory)
        if record is None:
            raise CampaignError(f"nothing to compact: {self.directory} has no checkpoint")
        out = Path(out_dir) if out_dir is not None else self.directory / ARCHIVE_DIR
        out.mkdir(parents=True, exist_ok=True)
        sources, targets = load_edges(
            self.directory / SEGMENTS_DIR, names=record.segments
        )
        np.savez_compressed(out / "edges.npz", sources=sources, targets=targets)
        with open(out / "profiles.jsonl", "w", encoding="utf-8") as handle:
            for rec in iter_records(
                self.directory / JOURNAL_NAME, upto=record.journal_offset
            ):
                if rec.kind == KIND_PAGE:
                    handle.write(rec.body.decode("utf-8") + "\n")
        stats = ckpt.stats_from_snapshot(record.snapshot, self.config.n_machines)
        with open(out / "stats.json", "w", encoding="utf-8") as handle:
            json.dump(vars(stats), handle)
        return out

    def inspect(self) -> dict:
        """Machine-readable status of the campaign directory."""
        report: dict = {
            "directory": str(self.directory),
            "status": self.status,
            "config": self.config.to_json_dict(),
        }
        journal_path = self.directory / JOURNAL_NAME
        if journal_path.exists():
            journal_scan = scan_journal(journal_path)
            report["journal"] = {
                "valid_bytes": journal_scan.valid_end,
                "torn_bytes": journal_scan.torn_bytes,
                "records": {
                    KIND_NAMES.get(kind, str(kind)): count
                    for kind, count in sorted(journal_scan.records_by_kind.items())
                },
            }
        segment_paths = iter_segment_paths(self.directory / SEGMENTS_DIR)
        report["segments"] = {
            "count": len(segment_paths),
            "edges": sum(segment_edge_count(p) for p in segment_paths),
        }
        checkpoints = []
        for path in ckpt.list_checkpoint_paths(self.directory / CHECKPOINTS_DIR):
            try:
                rec = ckpt.load_checkpoint(path)
            except ckpt.CheckpointError:
                checkpoints.append({"file": path.name, "corrupt": True})
                continue
            checkpoints.append(
                {
                    "file": path.name,
                    "sequence": rec.sequence,
                    "n_pages": rec.n_pages,
                    "n_edges": rec.n_edges,
                    "journal_offset": rec.journal_offset,
                }
            )
        report["checkpoints"] = checkpoints
        report["archive"] = (self.directory / ARCHIVE_DIR / "edges.npz").exists()
        return report


def dataset_diff(a: CrawlDataset, b: CrawlDataset) -> list[str]:
    """Human-readable differences between two datasets ([] = identical)."""
    problems: list[str] = []
    if not np.array_equal(a.sources, b.sources):
        problems.append(f"sources differ ({len(a.sources)} vs {len(b.sources)} edges)")
    if not np.array_equal(a.targets, b.targets):
        problems.append("targets differ")
    if a.profiles != b.profiles:
        only_a = a.profiles.keys() - b.profiles.keys()
        only_b = b.profiles.keys() - a.profiles.keys()
        changed = sum(
            1
            for uid in a.profiles.keys() & b.profiles.keys()
            if a.profiles[uid] != b.profiles[uid]
        )
        problems.append(
            f"profiles differ ({len(only_a)} extra, {len(only_b)} missing, "
            f"{changed} changed)"
        )
    if vars(a.stats) != vars(b.stats):
        problems.append(f"stats differ ({vars(a.stats)} vs {vars(b.stats)})")
    return problems
