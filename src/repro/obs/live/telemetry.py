"""The live telemetry hook: streaming figures + crawl health reporting.

:class:`LiveTelemetry` is a :class:`~repro.crawler.bfs.CrawlHooks`
implementation that turns a running crawl into a continuously observable
system.  It feeds the incremental sketches of
:mod:`repro.obs.live.sketches` from two event streams:

* **profile events** — every ``on_page`` call updates the attribute /
  country tallies and buffers the page's node id and edges;
* **sealed edge segments** — when attached to a campaign's
  :class:`~repro.store.segments.SegmentWriter` (:meth:`consume_seals`),
  edge batches arrive through the writer's ``on_seal`` callback as the
  exact in-memory arrays that were just made durable.  Without a store,
  the page-edge buffer is flushed at epoch boundaries instead.

At every checkpoint the telemetry emits an **epoch**: a figure snapshot
(degree CCDF buckets, reciprocity, components, attribute/country
tallies, and an ``msbfs``-based path-length refresh on a virtual-clock
cadence) pinned to the checkpoint's exact ``(n_pages, n_edges)`` cut.
Epochs are only emitted when the sketches agree with the checkpoint
snapshot's accounting — if the store journaled a page the telemetry
never saw (a crash injected between the two hooks), the inconsistent cut
is skipped and the previous epoch stands, which is what keeps every
published epoch provably bit-equal to a batch recomputation.

The whole layer honours the ``REPRO_OBS=0`` kill switch: with the
registry disabled every hook returns immediately and no report is
written.

The continuously-rewritten ``run_report.json`` (atomic replace, see
:meth:`~repro.obs.report.RunReport.write`) carries a schema-versioned
``extra["live"]`` section; :func:`validate_live_section` checks its
shape.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.crawler.bfs import CrawlHooks, CrawlSnapshot, ResumeState
from repro.crawler.dataset import CrawlDataset
from repro.obs.metrics import Registry, get_registry, quantile_from_sample
from repro.obs.report import RunReport

from .sketches import (
    AttributeSketch,
    ComponentSketch,
    DegreeSketch,
    ReciprocitySketch,
    sample_source_indices,
)

__all__ = [
    "LIVE_SCHEMA_VERSION",
    "LiveTelemetry",
    "path_length_refresh",
    "validate_live_section",
]

LIVE_SCHEMA_VERSION = 1

#: Required keys of the ``extra["live"]`` section and their types.
_LIVE_KEYS: dict[str, type | tuple[type, ...]] = {
    "live_schema_version": int,
    "status": str,
    "progress": dict,
    "fleet": dict,
    "history": list,
}

_EPOCH_KEYS: dict[str, type | tuple[type, ...]] = {
    "sequence": int,
    "n_pages": int,
    "n_edges": int,
    "virtual_now": (int, float),
    "figures": dict,
}

_STATUSES = ("running", "aborted", "complete")


def validate_live_section(live: object) -> list[str]:
    """Check a decoded ``extra["live"]`` section; ``[]`` means valid."""
    problems: list[str] = []
    if not isinstance(live, Mapping):
        return [f"live section must be a mapping, got {type(live).__name__}"]
    for key, expected in _LIVE_KEYS.items():
        if key not in live:
            problems.append(f"live section missing key {key!r}")
        elif not isinstance(live[key], expected):
            problems.append(f"live.{key} must be {expected}")
    if live.get("status") not in (None,) + _STATUSES:
        problems.append(f"live.status {live.get('status')!r} not in {_STATUSES}")
    version = live.get("live_schema_version")
    if isinstance(version, int) and version > LIVE_SCHEMA_VERSION:
        problems.append(
            f"live_schema_version {version} is newer than supported "
            f"{LIVE_SCHEMA_VERSION}"
        )
    epochs = list(live.get("history") or [])
    if live.get("epoch") is not None:
        epochs.append(live["epoch"])
    for i, epoch in enumerate(epochs):
        if not isinstance(epoch, Mapping):
            problems.append(f"epoch[{i}] must be a mapping")
            continue
        for key, expected in _EPOCH_KEYS.items():
            if key not in epoch:
                problems.append(f"epoch[{i}] missing key {key!r}")
            elif not isinstance(epoch[key], expected):
                problems.append(f"epoch[{i}].{key} must be {expected}")
    return problems


def path_length_refresh(graph, n_sources: int) -> dict:
    """Sampled multi-source BFS hop histogram over a (partial) graph.

    Deterministic in the graph and ``n_sources`` (see
    :func:`~repro.obs.live.sketches.sample_source_indices`), so the
    batch pipeline reproduces a live refresh exactly.
    """
    from repro.graph.msbfs import batch_hop_counts

    sources = sample_source_indices(graph.n, n_sources)
    counts = batch_hop_counts(graph, sources)
    total = int(counts.sum())
    weighted = int((np.arange(len(counts), dtype=np.int64) * counts).sum())
    return {
        "n_sources": int(len(sources)),
        "hop_counts": counts.tolist(),
        "mean_hops": weighted / total if total else None,
        "as_of_n_edges": int(graph.n_edges),
    }


class _ReverseGraph:
    """Reverse-CSR view for the live path refresh.

    Directed :func:`~repro.graph.msbfs.batch_hop_counts` reads exactly
    ``n`` / ``rindptr`` / ``rindices`` / ``n_edges`` (its edge table is
    the in-edges grouped by target).  The reciprocity sketch already
    holds the edge set deduplicated, so the adjacency assembles from one
    packed ``(dst, src)`` key sort, as :class:`~repro.graph.csr.CSRGraph`
    builds its reverse side: a rank table remaps the (dense, ascending)
    node ids.  Compact indices equal what
    ``CSRGraph.from_edge_arrays(..., node_ids=...)`` assigns over the
    same node universe, which keeps the refresh bit-equal to the batch
    recomputation.
    """

    def __init__(self, n, rindptr, rindices, n_edges):
        self.n = n
        self.rindptr = rindptr
        self.rindices = rindices
        self.n_edges = n_edges


def _reverse_graph(reciprocity, degrees) -> _ReverseGraph:
    sources, targets = reciprocity.edge_arrays()
    node_ids = degrees.node_ids()  # every edge endpoint is "seen"
    n = len(node_ids)
    rank = np.empty(int(node_ids[-1]) + 1 if n else 0, dtype=np.int64)
    rank[node_ids] = np.arange(n, dtype=np.int64)
    dst = rank[targets]
    rindptr = np.zeros(n + 1, dtype=np.int64)
    rindptr[1:] = np.bincount(dst, minlength=n)
    np.cumsum(rindptr, out=rindptr)
    key = np.sort(dst * np.int64(max(n, 1)) + rank[sources])
    return _ReverseGraph(n, rindptr, key % max(n, 1), len(sources))


class LiveTelemetry(CrawlHooks):
    """Streaming figure sketches + a continuously-rewritten run report.

    Compose with a :class:`~repro.store.campaign.CampaignStore` through
    :class:`~repro.crawler.bfs.HookChain` (store first) and
    :meth:`consume_seals`, or use standalone as the only hooks object —
    then :paramref:`epoch_every_pages` drives the epoch cadence and
    edges are ingested from the page buffer.
    """

    def __init__(
        self,
        report_path: str | Path | None = None,
        registry: Registry | None = None,
        epoch_every_pages: int = 500,
        progress_every_pages: int = 250,
        path_sources: int = 8,
        path_refresh_virtual: float = 5.0,
        history: int = 24,
        config: Mapping[str, object] | None = None,
        progress_min_wall_seconds: float = 0.5,
    ):
        self.report_path = Path(report_path) if report_path is not None else None
        self._registry = registry if registry is not None else get_registry()
        self.epoch_every_pages = epoch_every_pages
        self.progress_every_pages = progress_every_pages
        self.path_sources = path_sources
        #: Minimum virtual seconds between msbfs path refreshes (0 =
        #: refresh at every epoch).  The refresh is the one figure whose
        #: cost grows with the whole graph (CSR rebuild + batched BFS),
        #: so it rides the virtual clock rather than the page count.
        self.path_refresh_virtual = path_refresh_virtual
        self.history = history
        self._config = dict(config or {})
        #: Minimum wall seconds between page-cadence report rewrites; a
        #: fast simulated crawl would otherwise rewrite the report far
        #: faster than any dashboard polls it.  Epoch and terminal
        #: writes are never throttled.
        self.progress_min_wall_seconds = progress_min_wall_seconds
        #: Extra report sections: name -> zero-arg provider whose return
        #: value is embedded under ``extra[name]`` on every rewrite.
        #: Campaigns register the serving layer's SLO section here.
        self.sections: dict[str, object] = {}

        self.degrees = DegreeSketch()
        self.reciprocity = ReciprocitySketch()
        self.components = ComponentSketch()
        self.attributes = AttributeSketch()

        self._clock = None
        self._seal_fed = False
        self._pages = 0
        self._started: float | None = None
        self._dead_letters = 0
        self._redriven = 0
        self._status = "running"
        self._error: str | None = None
        self._epochs: list[dict] = []
        self._history_cache: list[dict] = []
        self._epoch_sequence = 0
        self._last_epoch_pages = 0
        self._last_paths: dict | None = None
        self._last_path_virtual = -float("inf")
        self._metrics_cache: dict = {}
        self._last_write_wall = -float("inf")
        self._buf_nodes: list[int] = []
        self._buf_pages: list[list] = []
        self._buf_profiles: list = []

    # -- wiring ---------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """False under ``REPRO_OBS=0`` — callers may then skip chaining
        this hook entirely (every hook body would no-op anyway)."""
        return self._registry.enabled

    def consume_seals(self, writer) -> None:
        """Feed edge sketches from a SegmentWriter's seal callback.

        Once attached, ``on_page`` stops buffering edges entirely — every
        edge reaches the sketches through a sealed (durable) segment, as
        the exact arrays the writer just flushed.
        """
        writer.on_seal = self._on_seal
        self._seal_fed = True
        self._buf_pages = []

    def _on_seal(self, path, sources, targets) -> None:
        if not self._registry.enabled:
            return
        self._ingest_edges(sources, targets)

    # -- CrawlHooks -----------------------------------------------------------

    def bind_clock(self, clock) -> None:
        self._clock = clock

    def on_resume(self, resume: ResumeState) -> None:
        if not self._registry.enabled:
            return
        self._pages = len(resume.profiles)
        self._last_epoch_pages = self._pages
        self._started = resume.snapshot.started
        for profile in resume.profiles.values():
            self.attributes.add_profile(profile)
        ids = np.fromiter(
            resume.profiles, dtype=np.int64, count=len(resume.profiles)
        )
        self.degrees.add_nodes(ids)
        self.components.add_nodes(ids)
        self._ingest_edges(
            np.asarray(resume.sources, dtype=np.int64),
            np.asarray(resume.targets, dtype=np.int64),
        )

    def on_page(self, user_id, profile, new_edges) -> None:
        if not self._registry.enabled:
            return
        self._pages += 1
        if self._started is None and self._clock is not None:
            self._started = self._clock.now()
        self._buf_profiles.append(profile)
        self._buf_nodes.append(int(user_id))
        if not self._seal_fed and new_edges:
            self._buf_pages.append(new_edges)
        if (
            self.progress_every_pages
            and self._pages % self.progress_every_pages == 0
        ):
            self._write_report(throttled=True)

    def should_checkpoint(self, n_pages: int, virtual_now: float) -> bool:
        if not self._registry.enabled or not self.epoch_every_pages:
            return False
        return self._pages - self._last_epoch_pages >= self.epoch_every_pages

    def on_checkpoint(self, snapshot: CrawlSnapshot) -> None:
        if not self._registry.enabled:
            return
        self._flush_buffers()
        consistent = (
            self._pages == snapshot.n_pages
            and self.degrees.n_edges == snapshot.n_edges
        )
        if consistent:
            self._emit_epoch(snapshot)
        # The full registry dump is embedded only at terminal writes;
        # mid-run readers get fleet health from the live section, and a
        # checkpoint write stays a sub-millisecond compact rewrite.
        self._write_report(virtual_now=snapshot.virtual_now)

    def on_dead_letter(self, user_id, reason, virtual_now) -> None:
        if self._registry.enabled:
            self._dead_letters += 1

    def on_redrive(self, user_id, virtual_now) -> None:
        if self._registry.enabled:
            self._redriven += 1

    def on_abort(self, error: BaseException) -> None:
        if not self._registry.enabled:
            return
        self._status = "aborted"
        self._error = f"{type(error).__name__}: {error}"
        self._metrics_cache = self._registry.snapshot()
        self._write_report()

    def on_finish(self, dataset: CrawlDataset) -> None:
        if not self._registry.enabled:
            return
        if self._status != "aborted":
            self._status = "complete"
        self._metrics_cache = self._registry.snapshot()
        self._write_report(coverage=dict(vars(dataset.stats)))

    # -- sketch ingestion -----------------------------------------------------

    def _ingest_edges(self, sources, targets) -> None:
        self.degrees.add_edges(sources, targets)
        self.reciprocity.add_edges(sources, targets)
        self.components.add_edges(sources, targets)

    def _flush_buffers(self) -> None:
        if self._buf_profiles:
            self.attributes.add_profiles(self._buf_profiles)
            self._buf_profiles = []
        if self._buf_nodes:
            ids = np.asarray(self._buf_nodes, dtype=np.int64)
            self.degrees.add_nodes(ids)
            self.components.add_nodes(ids)
            self._buf_nodes = []
        if self._buf_pages:
            pairs = np.array(
                [edge for page in self._buf_pages for edge in page],
                dtype=np.int64,
            )
            self._ingest_edges(pairs[:, 0], pairs[:, 1])
            self._buf_pages = []

    # -- epochs & figures -----------------------------------------------------

    def _emit_epoch(self, snapshot: CrawlSnapshot) -> None:
        self._epoch_sequence += 1
        self._last_epoch_pages = self._pages
        self._refresh_paths(snapshot.virtual_now)
        epoch = {
            "sequence": self._epoch_sequence,
            "n_pages": int(snapshot.n_pages),
            "n_edges": int(snapshot.n_edges),
            "virtual_now": float(snapshot.virtual_now),
            "figures": self.figures(),
        }
        self._epochs.append(epoch)
        if len(self._epochs) > self.history:
            self._epochs = self._epochs[-self.history:]
        # History only changes here, so the report's history rows are
        # rebuilt per epoch, not per write.
        self._history_cache = [
            {
                "sequence": e["sequence"],
                "n_pages": e["n_pages"],
                "n_edges": e["n_edges"],
                "virtual_now": e["virtual_now"],
                "figures": e["figures"],
            }
            for e in self._epochs[:-1]
        ]

    def _refresh_paths(self, virtual_now: float) -> None:
        if self.path_sources <= 0 or self.reciprocity.n_edges == 0:
            return
        if (
            self.path_refresh_virtual > 0
            and virtual_now - self._last_path_virtual < self.path_refresh_virtual
        ):
            return
        self._last_paths = path_length_refresh(
            _reverse_graph(self.reciprocity, self.degrees), self.path_sources
        )
        self._last_path_virtual = virtual_now

    def figures(self) -> dict:
        """Current figure estimates from the sketches (one epoch's payload)."""
        self._flush_buffers()
        figures = {
            "n_nodes": self.degrees.n_nodes,
            "n_edges": self.degrees.n_edges,
            "degree": self.degrees.figures(),
            "components": self.components.summary(self.degrees.node_ids()),
            "path_lengths": self._last_paths,
        }
        figures.update(self.reciprocity.figures())
        figures.update(self.attributes.figures())
        return figures

    # -- the live report ------------------------------------------------------

    def _progress(self, virtual_now: float | None) -> dict:
        if virtual_now is None and self._clock is not None:
            virtual_now = self._clock.now()
        elapsed = None
        if virtual_now is not None and self._started is not None:
            elapsed = max(0.0, virtual_now - self._started)
        rate = self._pages / elapsed if elapsed else None
        frontier = self._gauge_value("crawl.frontier_size")
        eta = None
        if rate and frontier is not None:
            eta = frontier / rate
        return {
            "pages": self._pages,
            "edges": self.degrees.n_edges,
            "nodes": self.degrees.n_nodes,
            "frontier": frontier,
            "virtual_now": virtual_now,
            "virtual_elapsed": elapsed,
            "pages_per_virtual_second": rate,
            "eta_virtual_seconds": eta,
        }

    def _gauge_value(self, name: str):
        metric = self._registry.get(name)
        if metric is None:
            return None
        samples = metric.samples()
        return samples[0]["value"] if samples else None

    def _fleet(self) -> dict:
        fleet: dict = {
            "dead_letters": self._dead_letters,
            "redriven": self._redriven,
            "breakers": {"closed": 0, "half_open": 0, "open": 0},
            "retry_budget_remaining": self._gauge_value(
                "crawler.retry_budget_remaining"
            ),
            "fetch_latency": {"p50": None, "p99": None},
        }
        breaker = self._registry.get("crawler.breaker_state")
        if breaker is not None:
            names = {0.0: "closed", 1.0: "half_open", 2.0: "open"}
            for sample in breaker.samples():
                state = names.get(sample["value"])
                if state is not None:
                    fleet["breakers"][state] += 1
        latency = self._registry.get("crawler.fetch_virtual_seconds")
        if latency is not None:
            merged = merge_histogram_samples(
                [s["value"] for s in latency.samples()]
            )
            if merged is not None:
                fleet["fetch_latency"] = {
                    "p50": quantile_from_sample(merged, 0.50),
                    "p99": quantile_from_sample(merged, 0.99),
                }
        return fleet

    def live_section(self, virtual_now: float | None = None) -> dict:
        return {
            "live_schema_version": LIVE_SCHEMA_VERSION,
            "status": self._status,
            "error": self._error,
            "progress": self._progress(virtual_now),
            "fleet": self._fleet(),
            "epoch": self._epochs[-1] if self._epochs else None,
            "history": self._history_cache,
        }

    def _write_report(
        self,
        virtual_now: float | None = None,
        coverage: dict | None = None,
        throttled: bool = False,
    ) -> None:
        if self.report_path is None:
            return
        now = time.monotonic()
        if (
            throttled
            and now - self._last_write_wall < self.progress_min_wall_seconds
        ):
            return
        self._last_write_wall = now
        extra: dict = {"live": self.live_section(virtual_now)}
        for name, provider in self.sections.items():
            extra[name] = provider()
        report = RunReport(
            kind="live_crawl",
            config=dict(self._config),
            metrics=self._metrics_cache,
            coverage=dict(coverage or {}),
            extra=extra,
        )
        report.write(self.report_path, indent=None)


def merge_histogram_samples(samples: list) -> dict | None:
    """Pool histogram series with identical bucket edges into one sample.

    The fleet records fetch latency per machine; the health report wants
    fleet-wide quantiles.  Bucket counts and totals add; min/max narrow.
    Returns ``None`` when nothing has been observed.
    """
    merged: dict | None = None
    for sample in samples:
        if not sample["count"]:
            continue
        if merged is None:
            merged = {
                "count": sample["count"],
                "sum": sample["sum"],
                "min": sample["min"],
                "max": sample["max"],
                "bucket_edges": list(sample["bucket_edges"]),
                "cumulative_counts": list(sample["cumulative_counts"]),
            }
            continue
        if list(sample["bucket_edges"]) != merged["bucket_edges"]:
            raise ValueError("cannot merge histograms with different buckets")
        merged["count"] += sample["count"]
        merged["sum"] += sample["sum"]
        merged["min"] = min(merged["min"], sample["min"])
        merged["max"] = max(merged["max"], sample["max"])
        merged["cumulative_counts"] = [
            a + b
            for a, b in zip(merged["cumulative_counts"], sample["cumulative_counts"])
        ]
    return merged
