"""Process-parallel executor for the batched multi-source BFS kernel.

:class:`BFSEngine` shards a source list into batches of ``batch_size``
(one :mod:`~repro.graph.msbfs` kernel invocation each) and fans the
batches out over a ``multiprocessing`` worker pool.  The CSR arrays are
published once into ``multiprocessing.shared_memory`` — workers attach
read-only views, so the graph is never pickled and never copied per
task.  Results are merged in submission order, which together with the
deterministic kernel makes every engine answer independent of worker
count: ``n_workers=8`` and the in-process ``n_workers=1`` fallback are
bit-identical.

The engine owns OS resources (worker processes, shared-memory
segments); call :meth:`BFSEngine.close` or use it as a context manager.
Engine throughput is published under the ``graph.*`` metrics (see
``docs/observability.md``).
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.obs.metrics import Registry, get_registry

from .msbfs import _check_mode, DIRECTED, EdgeTable, UNDIRECTED, WORD_BITS

__all__ = ["BFSEngine", "DEFAULT_BATCH_SIZE", "SharedCSR"]

#: Eight frontier words per node. Every hop scans the whole edge table
#: once per batch whatever its width, so wider batches amortise that
#: scan. The gathered words are bounded by the table's blocks
#: (``msbfs.BLOCK_ROWS`` rows), so a wider batch costs memory only per
#: node and per block row, not per edge. Measured on the seed-5 20k
#: crawl graph (Figure 5 sampling plus Table 4 sweeps, one process,
#: median of 5 in each of two interleaved rounds on a 2-vCPU host):
#: 256 lanes 1.32/1.22 s, 512 lanes 0.95/1.14 s, 1024 lanes 1.15/1.06 s.
DEFAULT_BATCH_SIZE = 8 * WORD_BITS

#: CSR arrays the kernel traverses (node_ids is never needed).
_CSR_ARRAYS = ("indptr", "indices", "rindptr", "rindices")


class SharedCSR:
    """The four CSR arrays exported into shared-memory segments.

    ``descriptor`` is a picklable recipe (segment names, lengths,
    dtypes) from which :class:`_SharedCSRView` reattaches zero-copy in a
    worker process.  The owner must :meth:`unlink` when done.
    """

    def __init__(self, graph):
        self._segments: list[shared_memory.SharedMemory] = []
        self.descriptor: dict = {"n": int(graph.n)}
        try:
            for name in _CSR_ARRAYS:
                source = np.ascontiguousarray(getattr(graph, name))
                segment = shared_memory.SharedMemory(
                    create=True, size=max(1, source.nbytes)
                )
                self._segments.append(segment)
                view = np.ndarray(source.shape, source.dtype, buffer=segment.buf)
                view[:] = source
                self.descriptor[name] = (
                    segment.name,
                    int(source.shape[0]),
                    str(source.dtype),
                )
        except BaseException:
            self.unlink()
            raise

    def unlink(self) -> None:
        """Release the segments (idempotent)."""
        for segment in self._segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments = []


class _SharedCSRView:
    """Worker-side zero-copy view satisfying the kernel's CSR protocol."""

    def __init__(self, descriptor: dict):
        self.n = int(descriptor["n"])
        self._segments = []
        for name in _CSR_ARRAYS:
            segment_name, length, dtype = descriptor[name]
            # Workers share the owner's resource tracker (the fd is
            # inherited), so this attach-time registration is a set
            # no-op and the owner's unlink() is the single cleanup.
            segment = shared_memory.SharedMemory(name=segment_name)
            self._segments.append(segment)
            setattr(
                self,
                name,
                np.ndarray((length,), np.dtype(dtype), buffer=segment.buf),
            )


#: Worker-global graph view and its edge table per mode, installed once
#: per process by the pool initializer so tasks only ship (kind,
#: sources, mode).  The view stays referenced: the directed table's
#: sources are its shared reverse-CSR array.
_WORKER_GRAPH: _SharedCSRView | None = None
_WORKER_TABLES: dict[str, EdgeTable] = {}


def _worker_init(descriptor: dict) -> None:
    global _WORKER_GRAPH, _WORKER_TABLES
    _WORKER_GRAPH = _SharedCSRView(descriptor)
    _WORKER_TABLES = {
        mode: EdgeTable(_WORKER_GRAPH, mode) for mode in (DIRECTED, UNDIRECTED)
    }


def _worker_run(task: tuple) -> object:
    kind, sources, mode = task
    return getattr(_WORKER_TABLES[mode], kind)(sources)


class BFSEngine:
    """Batched BFS over a fixed graph, optionally across processes.

    ``n_workers=1`` (the default) runs every batch in-process — no
    processes, no shared memory — and is what the analysis entry points
    create when not handed an engine.  ``n_workers > 1`` lazily starts
    the pool on first use.  Answers are bit-identical either way.
    """

    def __init__(
        self,
        graph,
        n_workers: int = 1,
        batch_size: int = DEFAULT_BATCH_SIZE,
        registry: Registry | None = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.graph = graph
        self.n_workers = n_workers
        self.batch_size = batch_size
        self._pool: ProcessPoolExecutor | None = None
        self._shared: SharedCSR | None = None
        self._tables: dict[str, EdgeTable] = {}
        registry = registry if registry is not None else get_registry()
        self._m_seconds = registry.histogram(
            "graph.bfs_seconds",
            "Wall time per engine call, by operation",
            labels=("op",),
        )
        self._m_sources = registry.counter(
            "graph.bfs_sources",
            "BFS sources traversed by the analysis engine",
            labels=("mode",),
        )
        self._m_batches = registry.counter(
            "graph.bfs_batches", "Source batches executed by the engine"
        )
        self._m_throughput = registry.gauge(
            "graph.bfs_source_throughput",
            "Sources per wall second of the engine's most recent call",
        )
        registry.gauge(
            "graph.parallel_workers", "Worker processes configured on the engine"
        ).set(float(n_workers))

    # -- lifecycle ---------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._shared = SharedCSR(self.graph)
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=context,
                initializer=_worker_init,
                initargs=(self._shared.descriptor,),
            )
        return self._pool

    def close(self) -> None:
        """Shut the pool down and release the shared segments."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._shared is not None:
            self._shared.unlink()
            self._shared = None

    def __enter__(self) -> "BFSEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort; close() is the supported path
        try:
            self.close()
        except Exception:
            pass

    # -- execution ---------------------------------------------------------

    def _batches(self, sources: np.ndarray) -> list[np.ndarray]:
        return [
            sources[i : i + self.batch_size]
            for i in range(0, len(sources), self.batch_size)
        ]

    def _table(self, mode: str) -> EdgeTable:
        """The in-process edge table for ``mode``, built on first use."""
        table = self._tables.get(mode)
        if table is None:
            table = self._tables[mode] = EdgeTable(self.graph, mode)
        return table

    def _run(self, kind: str, sources, mode: str) -> list:
        sources = np.asarray(sources, dtype=np.int64)
        batches = self._batches(sources)
        started = time.perf_counter()
        if self.n_workers == 1 or len(batches) <= 1:
            results = [getattr(self._table(mode), kind)(batch) for batch in batches]
        else:
            _check_mode(mode)
            pool = self._ensure_pool()
            # Executor.map preserves submission order: the merge is
            # deterministic no matter which worker finishes first.
            results = list(
                pool.map(_worker_run, [(kind, batch, mode) for batch in batches])
            )
        elapsed = time.perf_counter() - started
        self._m_seconds.observe(elapsed, op=kind)
        self._m_sources.inc(len(sources), mode=mode)
        self._m_batches.inc(len(batches))
        if elapsed > 0:
            self._m_throughput.set(len(sources) / elapsed)
        return results

    def hop_counts(self, sources, mode: str = DIRECTED) -> np.ndarray:
        """Pooled hop histogram over all sources (see ``msbfs``)."""
        partials = self._run("hop_counts", sources, mode)
        if not partials:
            return np.zeros(1, dtype=np.int64)
        width = max(len(p) for p in partials)
        merged = np.zeros(width, dtype=np.int64)
        for partial in partials:
            merged[: len(partial)] += partial
        return merged

    def eccentricities(
        self, sources, mode: str = DIRECTED
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-source (eccentricity, first farthest node), source order."""
        partials = self._run("eccentricities", sources, mode)
        if not partials:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        ecc = np.concatenate([p[0] for p in partials])
        far = np.concatenate([p[1] for p in partials])
        return ecc, far

    def distances(self, sources, mode: str = DIRECTED) -> np.ndarray:
        """Stacked per-source distance rows (mainly for tests/tools)."""
        partials = self._run("distances", sources, mode)
        if not partials:
            return np.empty((0, self.graph.n), dtype=np.int32)
        return np.vstack(partials)
