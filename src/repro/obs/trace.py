"""Span-based tracing with dual wall/virtual time accounting.

The reproduction runs on two clocks at once: real wall time
(``time.perf_counter``) tells you where the *hardware* spends its
seconds, while the platform's :class:`~repro.platform.http.SimulatedClock`
tells you where the *simulated crawl campaign* spends its virtual days —
throttle waits and backoffs advance the virtual clock by hours while
costing microseconds of wall time.  Every span records both.

Spans nest: the tracer keeps a stack, and aggregates finished spans by
their full path (``study.run/study.crawl/crawl.bfs``), which is what the
flame-style summary renders.  Aggregation happens on span exit, so
tracing a million-page crawl stores one row per distinct path, not one
row per page.

Usage::

    from repro.obs import trace

    trace.bind_clock(frontend.clock)
    with trace.span("crawl.bfs", seeds=1):
        ...

Module-level ``span``/``bind_clock``/``summary`` operate on the default
tracer, which shares the default registry's enabled flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol

from .metrics import Registry, get_registry

__all__ = [
    "Span",
    "SpanStats",
    "Tracer",
    "bind_clock",
    "get_tracer",
    "render_summary",
    "reset",
    "set_tracer",
    "span",
    "summary",
]


class _ClockLike(Protocol):
    def now(self) -> float: ...


@dataclass
class SpanStats:
    """Aggregate of every finished span sharing one path."""

    path: tuple[str, ...]
    count: int = 0
    wall_seconds: float = 0.0
    virtual_seconds: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "path": "/".join(self.path),
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "virtual_seconds": self.virtual_seconds,
            "attributes": dict(self.attributes),
        }


class Span:
    """A live span; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "attributes", "path", "_wall_start", "_virtual_start")

    def __init__(self, tracer: "Tracer", name: str, attributes: Mapping[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attributes = dict(attributes)
        self.path: tuple[str, ...] = ()
        self._wall_start = 0.0
        self._virtual_start = 0.0

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.path = tuple(s.name for s in tracer._stack) + (self.name,)
        tracer._stack.append(self)
        self._wall_start = time.perf_counter()
        clock = tracer._clock
        self._virtual_start = clock.now() if clock is not None else 0.0
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        wall = time.perf_counter() - self._wall_start
        clock = tracer._clock
        virtual = (clock.now() - self._virtual_start) if clock is not None else 0.0
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        tracer._record(self.path, wall, virtual, self.attributes)


class _NullSpan:
    """Returned when tracing is disabled; enters and exits for free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans and aggregates them by path.

    When ``registry`` is given, the tracer obeys its enabled flag, so
    ``Registry.disable()`` (or ``REPRO_OBS=0``) silences tracing and
    metrics together.
    """

    def __init__(
        self,
        registry: Registry | None = None,
        clock: _ClockLike | None = None,
    ):
        self._registry = registry
        self._enabled = True
        self._clock = clock
        self._stack: list[Span] = []
        self._aggregate: dict[tuple[str, ...], SpanStats] = {}

    # -- state --------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        if self._registry is not None:
            return self._registry.enabled and self._enabled
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def bind_clock(self, clock: _ClockLike | None) -> None:
        """Attach the virtual clock spans should read (None detaches)."""
        self._clock = clock

    def reset(self) -> None:
        self._stack.clear()
        self._aggregate.clear()

    # -- spans --------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Context manager for one span; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attributes)

    def _record(
        self,
        path: tuple[str, ...],
        wall: float,
        virtual: float,
        attributes: Mapping[str, Any],
    ) -> None:
        stats = self._aggregate.get(path)
        if stats is None:
            stats = self._aggregate[path] = SpanStats(path=path)
        stats.count += 1
        stats.wall_seconds += wall
        stats.virtual_seconds += virtual
        stats.attributes.update(attributes)

    # -- export -------------------------------------------------------------

    def summary(self) -> list[SpanStats]:
        """Finished-span aggregates in depth-first (flame) order."""
        return [self._aggregate[path] for path in sorted(self._aggregate)]

    def render_summary(self) -> str:
        """Flame-style text: indentation mirrors span nesting."""
        rows = self.summary()
        if not rows:
            return "(no spans recorded)"
        name_width = max(2 * s.depth + len(s.name) for s in rows)
        lines = [
            f"{'span'.ljust(name_width)}  {'count':>7}  {'wall s':>10}  {'virtual s':>12}"
        ]
        for s in rows:
            label = ("  " * s.depth + s.name).ljust(name_width)
            lines.append(
                f"{label}  {s.count:>7}  {s.wall_seconds:>10.4f}  "
                f"{s.virtual_seconds:>12.2f}"
            )
        return "\n".join(lines)


_default_tracer: Tracer | None = None


def get_tracer() -> Tracer:
    """The process-global tracer, tied to the default registry."""
    global _default_tracer
    if _default_tracer is None:
        _default_tracer = Tracer(registry=get_registry())
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global tracer; returns the one
    it replaced, so ``old = set_tracer(new) … set_tracer(old)`` restores."""
    global _default_tracer
    previous = get_tracer()
    _default_tracer = tracer
    return previous


# -- module-level conveniences over the default tracer -------------------------

def span(name: str, **attributes: Any):
    return get_tracer().span(name, **attributes)


def bind_clock(clock: _ClockLike | None) -> None:
    get_tracer().bind_clock(clock)


def summary() -> list[SpanStats]:
    return get_tracer().summary()


def render_summary() -> str:
    return get_tracer().render_summary()


def reset() -> None:
    get_tracer().reset()
