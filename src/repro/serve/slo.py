"""SLO accounting for the serving layer.

Tracks request outcomes and modelled virtual latencies, publishes them
through :mod:`repro.obs` (``serve.requests``, the
``serve.latency_virtual_seconds`` histogram whose
:meth:`~repro.obs.metrics.Histogram.quantile` yields the p50/p99 rows),
and emits a schema-versioned ``serving`` section for ``run_report.json``
and the live dashboard.

Error-budget semantics: the availability SLI counts **completed**
requests only — 429 throttles are the platform *defending* the SLO, so
they are reported separately and excluded from the budget.  Errors are
injected failures and timeouts (403/408/5xx); 404s are correct answers
to bad requests.  The burn rate is the ratio of the observed error rate
to the budget ``1 - target``: burn 1.0 exactly spends the budget,
above 1.0 eats into it.

The tracker keeps plain internal tallies alongside the registry metrics
so the section stays correct under the ``REPRO_OBS=0`` kill switch
(latency quantiles then report ``None`` — the histogram is the one
obs-owned piece).
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.obs.metrics import Registry, get_registry, log_buckets, quantile_from_sample

__all__ = [
    "SERVING_SCHEMA_VERSION",
    "SLOTracker",
    "validate_serving_section",
]

SERVING_SCHEMA_VERSION = 1

_ERROR_STATUSES = frozenset({403, 408})


def _merge_samples(samples: list) -> dict | None:
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
        merged["count"] += sample["count"]
        merged["sum"] += sample["sum"]
        merged["min"] = min(merged["min"], sample["min"])
        merged["max"] = max(merged["max"], sample["max"])
        merged["cumulative_counts"] = [
            a + b
            for a, b in zip(merged["cumulative_counts"], sample["cumulative_counts"])
        ]
    return merged


class SLOTracker:
    """Per-op request/latency accounting with an availability budget."""

    def __init__(
        self,
        availability_target: float = 0.999,
        registry: Registry | None = None,
        cache=None,
    ):
        if not 0.0 < availability_target < 1.0:
            raise ValueError("availability_target must be in (0, 1)")
        self.availability_target = float(availability_target)
        self.cache = cache
        registry = registry if registry is not None else get_registry()
        self._m_requests = registry.counter(
            "serve.requests",
            "Serving-layer requests, by op and status",
            labels=("op", "status"),
        )
        self._latency = registry.histogram(
            "serve.latency_virtual_seconds",
            "Modelled virtual service latency of successful requests, by op",
            labels=("op",),
            buckets=log_buckets(0.0001, 1.6, 24),
        )
        #: Bound series, one per (op, status) and per op seen.
        self._request_series: dict[tuple[str, int], Any] = {}
        self._latency_series: dict[str, Any] = {}
        self.total = 0
        self.throttled = 0
        self.errors = 0
        self.hits = 0
        self.misses = 0
        self.by_op: dict[str, int] = {}
        self.by_status: dict[str, int] = {}

    def observe(
        self,
        op: str,
        status: int,
        latency: float | None = None,
        hit: bool | None = None,
    ) -> None:
        requests = self._request_series.get((op, status))
        if requests is None:
            requests = self._request_series[(op, status)] = self._m_requests.labels(
                op=op, status=status
            )
        requests.inc()
        if latency is not None:
            series = self._latency_series.get(op)
            if series is None:
                series = self._latency_series[op] = self._latency.labels(op=op)
            series.observe(latency)
        self.total += 1
        self.by_op[op] = self.by_op.get(op, 0) + 1
        key = str(status)
        self.by_status[key] = self.by_status.get(key, 0) + 1
        if status == 429:
            self.throttled += 1
        elif status >= 500 or status in _ERROR_STATUSES:
            self.errors += 1
        if hit is True:
            self.hits += 1
        elif hit is False:
            self.misses += 1

    # -- quantiles ------------------------------------------------------------

    def _overall_sample(self) -> dict | None:
        samples = [
            sample["value"]
            for sample in self._latency.samples()
            if sample["value"]["count"]
        ]
        return _merge_samples(samples)

    def quantile(self, q: float, op: str | None = None) -> float | None:
        """Latency quantile, overall or for one op; None when unobserved
        (including under ``REPRO_OBS=0``)."""
        if op is not None:
            return self._latency.quantile(q, op=op)
        sample = self._overall_sample()
        return None if sample is None else quantile_from_sample(sample, q)

    # -- the report section ---------------------------------------------------

    def section(self) -> dict:
        """The schema-versioned ``serving`` block for run reports."""
        completed = self.total - self.throttled
        ok = completed - self.errors
        availability = ok / completed if completed else None
        budget = 1.0 - self.availability_target
        error_rate = self.errors / completed if completed else 0.0
        burn_rate = error_rate / budget if completed else None
        latency: dict[str, Any] = {
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "by_op": {},
        }
        for op in sorted(self.by_op):
            p50 = self._latency.quantile(0.5, op=op)
            if p50 is None:
                continue
            latency["by_op"][op] = {
                "p50": p50,
                "p99": self._latency.quantile(0.99, op=op),
            }
        lookups = self.hits + self.misses
        return {
            "serving_schema_version": SERVING_SCHEMA_VERSION,
            "requests": {
                "total": self.total,
                "throttled": self.throttled,
                "errors": self.errors,
                "by_op": dict(sorted(self.by_op.items())),
                "by_status": dict(sorted(self.by_status.items())),
            },
            "availability": {
                "target": self.availability_target,
                "observed": availability,
                "error_rate": error_rate if completed else None,
                "burn_rate": burn_rate,
            },
            "latency": latency,
            "cache": (
                self.cache.stats()
                if self.cache is not None
                else {
                    "hits": self.hits,
                    "misses": self.misses,
                    "hit_rate": self.hits / lookups if lookups else None,
                    "evictions": None,
                    "invalidations": None,
                    "size": None,
                }
            ),
        }

    # -- resumable state -------------------------------------------------------

    def export_state(self) -> dict:
        return {
            "total": self.total,
            "throttled": self.throttled,
            "errors": self.errors,
            "hits": self.hits,
            "misses": self.misses,
            "by_op": dict(self.by_op),
            "by_status": dict(self.by_status),
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self.total = int(state["total"])
        self.throttled = int(state["throttled"])
        self.errors = int(state["errors"])
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.by_op = {str(k): int(v) for k, v in state["by_op"].items()}
        self.by_status = {str(k): int(v) for k, v in state["by_status"].items()}


def validate_serving_section(section: Any) -> list[str]:
    """Shape-check a ``serving`` report section; returns problem strings."""
    problems: list[str] = []
    if not isinstance(section, Mapping):
        return ["serving section is not a mapping"]
    version = section.get("serving_schema_version")
    if not isinstance(version, int):
        problems.append("missing or non-integer serving_schema_version")
    elif version > SERVING_SCHEMA_VERSION:
        problems.append(
            f"serving_schema_version {version} is newer than supported "
            f"{SERVING_SCHEMA_VERSION}"
        )
    for key, kind in (
        ("requests", Mapping),
        ("availability", Mapping),
        ("latency", Mapping),
        ("cache", Mapping),
    ):
        if not isinstance(section.get(key), kind):
            problems.append(f"missing or malformed {key!r} block")
    if isinstance(section.get("requests"), Mapping):
        for key in ("total", "throttled", "errors", "by_op", "by_status"):
            if key not in section["requests"]:
                problems.append(f"requests block missing {key!r}")
    if isinstance(section.get("availability"), Mapping):
        for key in ("target", "observed", "burn_rate"):
            if key not in section["availability"]:
                problems.append(f"availability block missing {key!r}")
    if isinstance(section.get("latency"), Mapping):
        for key in ("p50", "p99", "by_op"):
            if key not in section["latency"]:
                problems.append(f"latency block missing {key!r}")
    return problems
