"""Dependency-free metrics: counters, gauges, and histograms.

The registry is the measurement substrate for every layer of the
reproduction — the HTTP front end counts requests by status, the crawl
fleet records per-machine latency histograms, the BFS crawler publishes
frontier-depth gauges.  Design constraints, in order:

1. **Zero third-party dependencies.**  The platform layer imports this
   module, so it must not pull in anything beyond the standard library.
2. **Near-zero cost when disabled.**  Every mutator bails out on a
   single attribute check, so an instrumented crawl with ``REPRO_OBS=0``
   runs at seed speed.
3. **Deterministic output.**  Snapshots order metrics and label series
   lexicographically so reports diff cleanly across runs.

Metrics support labels (named dimensions, e.g. ``status="429"`` or
``machine="10.0.0.3"``); each distinct label-value combination is an
independent series.  A hot path binds its series once with
``metric.labels(**values)`` and records through the returned child,
which skips the per-call label-key build.  Histograms use fixed
log-spaced bucket edges (see :func:`log_buckets`) because the
quantities we track — latencies, waits — span several orders of
magnitude.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import threading
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "log_buckets",
    "quantile_from_sample",
    "set_registry",
]

#: Environment variable gating the default registry: ``REPRO_OBS=0``
#: creates it disabled, anything else (or unset) enabled.
OBS_ENV_VAR = "REPRO_OBS"


def log_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` log-spaced upper bucket edges: start, start*factor, ...

    A terminal ``+inf`` edge is implicit in every histogram, so the
    returned edges only cover the finite range.
    """
    if start <= 0.0:
        raise ValueError("bucket edges must be positive")
    if factor <= 1.0:
        raise ValueError("bucket factor must be > 1")
    if count < 1:
        raise ValueError("need at least one bucket edge")
    return tuple(start * factor**i for i in range(count))


#: Default edges for latency/wait histograms: 1 ms .. ~524 s, factor 2.
DEFAULT_LATENCY_BUCKETS = log_buckets(0.001, 2.0, 20)


class _Metric:
    """Common machinery: label handling and the per-series value dict."""

    kind = "abstract"

    def __init__(self, registry: "Registry", name: str, help: str, labels: Sequence[str]):
        self._registry = registry
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self._series: dict[tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if not labels and not self.label_names:
            return ()
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, got "
                f"{tuple(labels)}"
            )
        try:
            return tuple(str(labels[n]) for n in self.label_names)
        except KeyError as exc:
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, got "
                f"{tuple(labels)}"
            ) from exc

    def clear(self) -> None:
        """Drop every recorded series (registration is kept)."""
        self._series.clear()

    def labels(self, **values: object) -> "_Child":
        """The series for ``values``, its key built once.

        The child records exactly as the labelled call would; it creates
        no series until it records, and it stays valid across
        :meth:`clear` and registry resets.
        """
        return self._child_cls(self, self._key(values))

    # -- snapshot helpers ---------------------------------------------------

    def _sample_value(self, raw: object) -> object:
        return raw

    def samples(self) -> list[dict]:
        """All series, sorted by label values, as JSON-ready dicts."""
        out = []
        for key in sorted(self._series):
            out.append(
                {
                    "labels": dict(zip(self.label_names, key)),
                    "value": self._sample_value(self._series[key]),
                }
            )
        return out

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "samples": self.samples(),
        }


class _Child:
    """One series of a metric, bound by :meth:`_Metric.labels`.

    Mutators check the registry's switch first, like the labelled calls,
    so a disabled registry stays a no-op.
    """

    __slots__ = ("_metric", "_registry", "_key")

    def __init__(self, metric: _Metric, key: tuple[str, ...]):
        self._metric = metric
        self._registry = metric._registry
        self._key = key

    def value(self) -> float:
        return float(self._metric._series.get(self._key, 0.0))  # type: ignore[arg-type]


class _CounterChild(_Child):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            self._metric._add(self._key, amount)


class Counter(_Metric):
    """A monotonically increasing sum (requests served, retries, ...)."""

    kind = "counter"
    _child_cls = _CounterChild

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if self._registry.enabled:
            self._add(self._key(labels), amount)

    def _add(self, key: tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """Current value of one series (0.0 when never incremented)."""
        return float(self._series.get(self._key(labels), 0.0))  # type: ignore[arg-type]


class _GaugeChild(_Child):
    __slots__ = ()

    def set(self, value: float) -> None:
        if self._registry.enabled:
            self._metric._series[self._key] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._registry.enabled:
            self._metric._add(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Gauge(_Metric):
    """A value that goes up and down (frontier size, pool totals)."""

    kind = "gauge"
    _child_cls = _GaugeChild

    def set(self, value: float, **labels: object) -> None:
        if self._registry.enabled:
            self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if self._registry.enabled:
            self._add(self._key(labels), amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def _add(self, key: tuple[str, ...], amount: float) -> None:
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return float(self._series.get(self._key(labels), 0.0))  # type: ignore[arg-type]


class _HistSeries:
    """One histogram series: per-bucket counts plus running aggregates."""

    __slots__ = ("bucket_counts", "count", "total", "minimum", "maximum")

    def __init__(self, n_edges: int):
        self.bucket_counts = [0] * (n_edges + 1)  # final slot = +inf overflow
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf


class _HistogramChild(_Child):
    __slots__ = ()

    def observe(self, value: float) -> None:
        if self._registry.enabled:
            self._metric._observe(self._key, value)


class Histogram(_Metric):
    """Distribution of observations over fixed log-spaced buckets.

    An observation lands in the first bucket whose upper edge is >= the
    value (``le`` semantics); values above the last edge land in the
    implicit ``+inf`` overflow bucket.
    """

    kind = "histogram"
    _child_cls = _HistogramChild

    def __init__(
        self,
        registry: "Registry",
        name: str,
        help: str,
        labels: Sequence[str],
        buckets: Iterable[float] | None = None,
    ):
        super().__init__(registry, name, help, labels)
        edges = tuple(buckets) if buckets is not None else DEFAULT_LATENCY_BUCKETS
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("bucket edges must be strictly increasing")
        self.bucket_edges = edges

    def observe(self, value: float, **labels: object) -> None:
        if self._registry.enabled:
            self._observe(self._key(labels), value)

    def _observe(self, key: tuple[str, ...], value: float) -> None:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistSeries(len(self.bucket_edges))
        series.count += 1
        series.total += value
        if value < series.minimum:
            series.minimum = value
        if value > series.maximum:
            series.maximum = value
        series.bucket_counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        return bisect.bisect_left(self.bucket_edges, value)  # first edge >= value

    def _sample_value(self, raw: object) -> object:
        series: _HistSeries = raw  # type: ignore[assignment]
        cumulative = []
        running = 0
        for n in series.bucket_counts:
            running += n
            cumulative.append(running)
        return {
            "count": series.count,
            "sum": series.total,
            "min": series.minimum if series.count else None,
            "max": series.maximum if series.count else None,
            "bucket_edges": list(self.bucket_edges) + ["+inf"],
            "cumulative_counts": cumulative,
        }

    def series_stats(self, **labels: object) -> dict | None:
        """Snapshot of one series (None when never observed)."""
        raw = self._series.get(self._key(labels))
        return None if raw is None else self._sample_value(raw)  # type: ignore[return-value]

    def quantile(self, q: float, **labels: object) -> float | None:
        """Quantile estimate of one series by log-bucket interpolation.

        Returns ``None`` when the series has never been observed.  The
        estimate interpolates linearly inside the bucket holding the
        ``q``-th observation and is clamped to the observed ``[min, max]``
        range, so ``quantile(0.0)`` is the exact minimum, ``quantile(1.0)``
        the exact maximum, and a single-valued series returns that value
        for every ``q``.  Observations in the ``+inf`` overflow bucket
        report the observed maximum.
        """
        stats = self.series_stats(**labels)
        return None if stats is None else quantile_from_sample(stats, q)


def quantile_from_sample(sample: Mapping[str, object], q: float) -> float:
    """Quantile from a histogram sample dict (the ``samples()`` value shape).

    Works on live :meth:`Histogram.series_stats` output and on snapshots
    read back from a run report, so dashboards can compute p50/p99 rows
    without the original :class:`Histogram` object.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    count = int(sample["count"])  # type: ignore[arg-type]
    if count <= 0:
        raise ValueError("cannot take a quantile of an empty histogram series")
    minimum = float(sample["min"])  # type: ignore[arg-type]
    maximum = float(sample["max"])  # type: ignore[arg-type]
    cumulative: Sequence[int] = sample["cumulative_counts"]  # type: ignore[assignment]
    edges: Sequence[object] = sample["bucket_edges"]  # type: ignore[assignment]
    rank = q * count
    # First bucket whose cumulative count covers the rank.
    bucket = 0
    while bucket < len(cumulative) and cumulative[bucket] < rank:
        bucket += 1
    bucket = min(bucket, len(cumulative) - 1)
    if edges[bucket] == "+inf":  # the overflow bucket: clamp to the max
        return maximum
    upper = float(edges[bucket])  # type: ignore[arg-type]
    lower = float(edges[bucket - 1]) if bucket > 0 else 0.0  # type: ignore[arg-type]
    below = cumulative[bucket - 1] if bucket > 0 else 0
    in_bucket = cumulative[bucket] - below
    if in_bucket <= 0:
        estimate = upper
    else:
        estimate = lower + (upper - lower) * (rank - below) / in_bucket
    return min(max(estimate, minimum), maximum)


_METRIC_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Registry:
    """Holds named metrics; get-or-create semantics per (name, kind).

    ``enabled=None`` (the default) consults the ``REPRO_OBS`` environment
    variable, so an operator can switch off all instrumentation without
    touching code.
    """

    def __init__(self, enabled: bool | None = None):
        if enabled is None:
            enabled = os.environ.get(OBS_ENV_VAR, "1") != "0"
        self.enabled = bool(enabled)
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric's series; registrations are preserved."""
        with self._lock:
            for metric in self._metrics.values():
                metric.clear()

    # -- registration -------------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str, labels, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                if tuple(labels) != existing.label_names:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.label_names}"
                    )
                return existing
            metric = cls(self, name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Iterable[float] | None = None,
    ) -> Histogram:
        return self._get_or_create(  # type: ignore[return-value]
            Histogram, name, help, labels, buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict snapshot of every metric, deterministically ordered."""
        return {
            "enabled": self.enabled,
            "metrics": [
                self._metrics[name].snapshot() for name in sorted(self._metrics)
            ],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def render_text(self) -> str:
        """Prometheus-flavoured text exposition (for humans and dumps)."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample in metric.samples():
                label_text = ",".join(
                    f'{k}="{v}"' for k, v in sample["labels"].items()
                )
                suffix = f"{{{label_text}}}" if label_text else ""
                value = sample["value"]
                if isinstance(value, dict):  # histogram
                    lines.append(f"{name}_count{suffix} {value['count']}")
                    lines.append(f"{name}_sum{suffix} {value['sum']:.6g}")
                else:
                    lines.append(f"{name}{suffix} {value:.6g}")
        return "\n".join(lines)


_default_registry: Registry | None = None
_default_lock = threading.Lock()


def get_registry() -> Registry:
    """The process-global default registry (created lazily)."""
    global _default_registry
    if _default_registry is None:
        with _default_lock:
            if _default_registry is None:
                _default_registry = Registry()
    return _default_registry


def set_registry(registry: Registry) -> Registry:
    """Install ``registry`` as the process-global registry (tests,
    embedders); returns the one it replaced, so ``old =
    set_registry(new) … set_registry(old)`` restores."""
    global _default_registry
    previous = get_registry()
    _default_registry = registry
    return previous
