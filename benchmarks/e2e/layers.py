"""Per-layer tracing for the end-to-end benchmark.

Everything here lives in the benchmark, not in ``src/``: a traced job
wraps the public calls into each layer, records spans around the
benchmark's own calls, and removes every wrapper afterwards.

A span's *self time* is its wall time minus the wall time of the spans
nested inside it, so the self times of one traced job sum to the wall
time of its root span.  The same holds for peak-RSS rises
(``ru_maxrss``): each span is charged only the rise its nested spans do
not account for, which names the call that actually grew the heap.

Wrap targets are public names only — a module attribute the call site
looks up (``repro.core.pipeline.analyze_path_lengths``), a method of a
public class, or an attribute of a live instance.  A target that no
longer exists is listed in :attr:`LayerTracer.missing` instead of
failing the run, so later refactors cannot break the trace.
"""

from __future__ import annotations

import importlib
import resource
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: Marks an attribute that lived on the class (or nowhere), not on the
#: wrapped object itself: unwrapping deletes the wrapper instead of
#: restoring a value.
_ABSENT = object()


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class LayerTracer:
    """Span stack with count, wall time, self time and RSS attribution."""

    def __init__(self) -> None:
        #: span name -> [count, wall seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: Wrap targets that did not resolve, as ``owner.attribute``.
        self.missing: list[str] = []
        #: Largest self-attributed ``ru_maxrss`` rise: (KiB, span name).
        self.rss_step: tuple[int, str] = (0, "")
        self._stack: list[list] = []
        self._wrapped: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> tuple[float, int]:
        self._stack.append([0.0, 0])
        return perf_counter(), _maxrss_kb()

    def _leave(self, name: str, started: tuple[float, int]) -> None:
        wall = perf_counter() - started[0]
        rise = _maxrss_kb() - started[1]
        child_wall, child_rise = self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent[0] += wall
            parent[1] += rise
        row = self.stats.get(name)
        if row is None:
            row = self.stats[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += wall
        row[2] += wall - child_wall
        own_rise = rise - child_rise
        if own_rise > self.rss_step[0]:
            self.rss_step = (own_rise, name)

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span named ``name``."""
        started = self._enter()
        try:
            yield
        finally:
            self._leave(name, started)

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner: object, attribute: str, name: str, label: str = "") -> None:
        """Replace ``owner.attribute`` by a wrapper recording span ``name``.

        ``owner`` is a module, a class or an instance.  A class-level
        wrapper is a plain function, so it binds like the method it
        replaces.  ``label`` names the target in :attr:`missing`.
        """
        original = getattr(owner, attribute, None)
        if original is None:
            self.missing.append(label or f"{type(owner).__name__}.{attribute}")
            return
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            started = enter()
            try:
                return original(*args, **kwargs)
            finally:
                leave(name, started)

        self._wrapped.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, wrapper)

    def wrap_path(self, target: str, name: str) -> None:
        """Wrap ``package.module:Attr.attr`` (a module or class attribute)."""
        module_name, _, attr_path = target.partition(":")
        *owners, attribute = attr_path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owners:
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        self.wrap(owner, attribute, name, label=target)

    def unwrap(self) -> None:
        """Restore every wrapped attribute to the object it held before."""
        while self._wrapped:
            owner, attribute, saved = self._wrapped.pop()
            if saved is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, saved)

    @contextmanager
    def wrapped(self, targets: dict[str, str]):
        """Wrap ``{span name: target path}`` for the enclosed block."""
        try:
            for name, target in targets.items():
                self.wrap_path(target, name)
            yield self
        finally:
            self.unwrap()

    # -- readout -------------------------------------------------------------

    def total(self, names: tuple[str, ...], field: str) -> float:
        column = {"count": 0, "wall": 1, "self": 2}[field]
        return sum(self.stats[name][column] for name in names if name in self.stats)

    def table(self) -> list[dict]:
        """Per-span rows, largest self time first."""
        return [
            {"span": name, "count": count, "wall_s": wall, "self_s": own}
            for name, (count, wall, own) in sorted(
                self.stats.items(), key=lambda item: -item[1][2]
            )
        ]


#: Program calls every traced job wraps, by span name.  The
#: pipeline entries name the module attribute ``MeasurementStudy.run``
#: actually looks up.  Instance methods (the service, the campaign
#: store, the serving stack) are wrapped by the workloads themselves.
MODULE_TARGETS = {
    "crawl.loop": "repro.crawler.bfs:BidirectionalBFSCrawler.crawl",
    "crawl.fetch": "repro.crawler.workers:MachinePool.fetch_profile",
    "crawl.parse": "repro.crawler.bfs:parse_profile_page",
    "http.handle": "repro.platform.http:HttpFrontend.handle",
    "paths": "repro.core.pipeline:analyze_path_lengths",
    "table4": "repro.core.pipeline:google_plus_table4_row",
    "degrees": "repro.core.pipeline:analyze_degrees",
    "reciprocity": "repro.core.pipeline:analyze_reciprocity",
    "clustering": "repro.core.pipeline:analyze_clustering",
    "sccs": "repro.core.pipeline:analyze_sccs",
    "geo.index": "repro.core.pipeline:build_geo_index",
    "profiles.top_users": "repro.core.pipeline:top_users_by_in_degree",
    "profiles.attributes": "repro.core.pipeline:attribute_availability",
    "profiles.tel_users": "repro.core.pipeline:compare_tel_users",
    "profiles.fields": "repro.core.pipeline:fields_shared_ccdfs",
    "profiles.lost_edges": "repro.core.pipeline:estimate_lost_edges",
    "path_miles": "repro.core.pipeline:analyze_path_miles",
    "path_miles.country": "repro.core.pipeline:analyze_country_path_miles",
    "geography.countries": "repro.core.pipeline:top_countries",
    "geography.penetration": "repro.core.pipeline:penetration_analysis",
    "geography.openness": "repro.core.pipeline:openness_by_country",
    "geography.links": "repro.core.pipeline:analyze_link_geography",
    "geography.occupations": "repro.core.pipeline:top_occupations_by_country",
    "serve.class_of": "repro.serve.cache:ViewerClasser.class_of",
    "serve.render_for_class": "repro.serve.cache:render_for_class",
}

#: Methods of the live service instance every traced job wraps, as
#: spans named ``service.<method>``.
SERVICE_METHODS = ("profile_page", "add_to_circle", "remove_from_circle", "plus_one")


@dataclass(frozen=True)
class SpanMetric:
    """A per-layer metric read from span totals."""

    name: str
    unit: str
    spans: tuple[str, ...]
    field: str  # "count", "wall" or "self"


_MUTATIONS = tuple(f"service.{m}" for m in SERVICE_METHODS[1:])

SPAN_METRICS = (
    SpanMetric("platform.render_s", "s", ("service.profile_page",), "wall"),
    SpanMetric("platform.render_calls", "count", ("service.profile_page",), "count"),
    SpanMetric("platform.http_s", "s", ("http.handle",), "self"),
    SpanMetric("platform.requests", "count", ("http.handle",), "count"),
    SpanMetric("platform.mutation_s", "s", _MUTATIONS, "wall"),
    SpanMetric("platform.mutations", "count", _MUTATIONS, "count"),
    SpanMetric("crawler.fetch_s", "s", ("crawl.fetch",), "self"),
    SpanMetric("crawler.parse_s", "s", ("crawl.parse",), "wall"),
    SpanMetric("crawler.loop_s", "s", ("crawl.loop",), "self"),
    SpanMetric("store.on_page_s", "s", ("store.on_page",), "wall"),
    SpanMetric("store.journal_s", "s", ("journal.append", "journal.flush"), "self"),
    SpanMetric("store.segment_s", "s", ("segments.extend", "segments.seal"), "self"),
    SpanMetric("store.checkpoint_s", "s", ("store.on_checkpoint",), "wall"),
    SpanMetric("store.checkpoints", "count", ("store.on_checkpoint",), "count"),
    SpanMetric("store.fsync_s", "s", ("io.fsync", "io.fsync_dir"), "wall"),
    SpanMetric("store.fsyncs", "count", ("io.fsync", "io.fsync_dir"), "count"),
    SpanMetric("store.publishes", "count", ("io.published",), "count"),
    SpanMetric("store.recover_s", "s", ("store.recover",), "wall"),
    SpanMetric("store.compact_s", "s", ("store.compact",), "wall"),
    SpanMetric("graph.freeze_s", "s", ("graph.freeze",), "wall"),
    SpanMetric("graph.paths_s", "s", ("paths",), "wall"),
    SpanMetric("analysis.table4_s", "s", ("table4",), "wall"),
    SpanMetric("analysis.degrees_s", "s", ("degrees",), "wall"),
    SpanMetric("analysis.reciprocity_s", "s", ("reciprocity",), "wall"),
    SpanMetric("analysis.clustering_s", "s", ("clustering",), "wall"),
    SpanMetric("analysis.sccs_s", "s", ("sccs",), "wall"),
    SpanMetric("geo.index_s", "s", ("geo.index",), "wall"),
    SpanMetric(
        "analysis.profiles_s",
        "s",
        tuple(name for name in MODULE_TARGETS if name.startswith("profiles.")),
        "wall",
    ),
    SpanMetric("analysis.path_miles_s", "s", ("path_miles", "path_miles.country"), "wall"),
    SpanMetric(
        "analysis.geography_s",
        "s",
        tuple(name for name in MODULE_TARGETS if name.startswith("geography.")),
        "wall",
    ),
    SpanMetric("experiments.render_s", "s", ("experiments.render",), "wall"),
    SpanMetric("serve.stack_s", "s", ("serve.stack",), "wall"),
    SpanMetric("serve.lookup_s", "s", ("serve.lookup",), "self"),
    SpanMetric("serve.classify_s", "s", ("serve.class_of",), "wall"),
    SpanMetric("serve.miss_render_s", "s", ("serve.render_for_class",), "wall"),
)

#: Per-layer metrics the workloads compute from their own counters,
#: with units.  Every traced run reports all of them (0 where a layer
#: does not run on that workload).
COMPUTED_METRICS = {
    "synth.build_s": "s",
    "synth.graphgen_s": "s",
    "synth.profiles_s": "s",
    "synth.service_s": "s",
    "crawler.pages": "count",
    "crawler.list_entries": "count",
    "crawler.new_edges": "count",
    "crawler.dedup_yield": "ratio",
    "crawler.retries": "count",
    "crawler.dead_letters": "count",
    "store.resume_s": "s",
    "store.restore_s": "s",
    "store.bytes_per_edge": "B",
    "graph.bfs_sources": "count",
    "analysis.rss_step_mb": "MB",
    "serve.loadgen_s": "s",
    "serve.hit_rate": "ratio",
    "serve.evictions": "count",
    "serve.invalidations": "count",
    "latency.p99_us": "us",
    "host.cpu_s": "s",
    "host.cpu_wall_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {metric.name: metric.unit for metric in SPAN_METRICS}
    units.update(COMPUTED_METRICS)
    return units


def span_metrics(tracer: LayerTracer, jobs: int) -> dict[str, float]:
    """Span-derived per-layer metrics, per traced job."""
    return {
        metric.name: tracer.total(metric.spans, metric.field) / jobs
        for metric in SPAN_METRICS
    }
