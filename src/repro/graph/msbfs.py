"""Batched multi-source BFS over a target-grouped edge table (the analysis kernel).

The paper's Section 3.3.5 estimates run thousands of single-source BFS
traversals; doing them one at a time costs a full Python/numpy round
trip per source per hop.  This kernel runs a *batch* of B sources at
once: each node carries ``ceil(B / 64)`` ``np.uint64`` words, one bit
per source.  The graph's edges are laid out once per traversal mode in
an :class:`EdgeTable`, grouped by target and cut into blocks of at most
``BLOCK_ROWS`` rows that never split a target's run.  One hop of the
whole batch walks the blocks in order: in each it keeps the rows whose
source is on the frontier, gathers those sources' words (already in
target order) and ORs each target's run with one ``reduceat`` — no
per-hop sort.  A hop's temporaries are therefore bounded by
``BLOCK_ROWS`` rows times the batch's words, not by the table size.
Frontier nodes shared by many sources are expanded once instead of once
per source, which on small-diameter social graphs collapses most of the
work.

The traversal semantics match :func:`repro.graph.paths.bfs_distances`
exactly in both modes: BFS levels are unique, so every derived quantity
(distance matrices, hop histograms, eccentricities) is bit-identical to
the sequential path.  :mod:`repro.graph.parallel` shards batches of
this kernel across worker processes.
"""

from __future__ import annotations

import sys

import numpy as np

#: BFS traversal modes (canonical home; re-exported by ``paths``).
DIRECTED = "directed"
UNDIRECTED = "undirected"

#: Sources packed per frontier word.
WORD_BITS = 64

#: Most edge-table rows one hop works on at once (a node whose run is
#: longer is a block of its own).  A block's gathered frontier words
#: take at most ``BLOCK_ROWS * ceil(B / 64) * 8`` bytes (2 MB at 512
#: lanes), so a hop's working set stays cache-sized whatever the
#: graph's size.  See ``docs/analysis.md`` for how it was picked.
BLOCK_ROWS = 32_768

__all__ = [
    "BLOCK_ROWS",
    "DIRECTED",
    "UNDIRECTED",
    "WORD_BITS",
    "EdgeTable",
    "batch_eccentricities",
    "batch_hop_counts",
    "msbfs_distances",
]


def _check_mode(mode: str) -> None:
    if mode not in (DIRECTED, UNDIRECTED):
        raise ValueError(f"unknown BFS mode: {mode!r}")


def _source_bit_rows(sources: np.ndarray, n_words: int) -> np.ndarray:
    """Row ``j`` holds the single set bit addressing source ``j``."""
    rows = np.zeros((len(sources), n_words), dtype=np.uint64)
    lanes = np.arange(len(sources), dtype=np.uint64)
    rows[np.arange(len(sources)), (lanes // WORD_BITS).astype(np.int64)] = (
        np.uint64(1) << (lanes % np.uint64(WORD_BITS))
    )
    return rows


def _unpack_lanes(bits: np.ndarray, n_sources: int) -> np.ndarray:
    """(k, W) uint64 words -> (k, n_sources) boolean lane matrix."""
    if sys.byteorder == "little":
        as_bytes = bits.view(np.uint8)
    else:
        # Big-endian: reverse each word's bytes so lane 0 is bit 0.
        as_bytes = (
            bits[:, :, None].view(np.uint8)[:, :, ::-1].reshape(len(bits), -1)
        )
    unpacked = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return unpacked[:, :n_sources].astype(bool, copy=False)


def _popcount(bits: np.ndarray) -> int:
    if hasattr(np, "bitwise_count"):
        return int(np.bitwise_count(bits).sum())
    return int(_unpack_lanes(bits, bits.shape[1] * WORD_BITS).sum())


def _block_offsets(run_starts: np.ndarray, block_rows: int) -> np.ndarray:
    """Row offsets cutting a table into blocks of at most ``block_rows``
    rows, each starting at a run start (``run_starts`` ascending, ending
    with the row count).  A run longer than ``block_rows`` is a block of
    its own."""
    total = int(run_starts[-1])
    offsets = [0]
    while offsets[-1] < total:
        start = offsets[-1]
        last = np.searchsorted(run_starts, start + block_rows, "right") - 1
        end = int(run_starts[last])
        if end <= start:
            end = int(run_starts[np.searchsorted(run_starts, start, "right")])
        offsets.append(end)
    return np.asarray(offsets, dtype=np.int64)


class EdgeTable:
    """A graph's traversable edges for one mode, grouped by target.

    Row ``i`` is an edge ``sources[i] -> targets[i]`` and ``targets`` is
    ascending, so each node's incoming rows form one contiguous run.  In
    ``DIRECTED`` mode the rows are the reverse CSR as it stands (no
    copy of the sources).  In ``UNDIRECTED`` mode each target's run is
    its in-slice followed by its out-slice, so a reciprocal pair
    appears twice in that run; OR-ing a word in twice changes nothing.
    ``blocks`` holds the row offsets of blocks of at most ``BLOCK_ROWS``
    rows, each a whole number of runs.  Built once per graph and mode,
    then shared by every batch.
    """

    def __init__(self, graph, mode: str):
        _check_mode(mode)
        self.n = int(graph.n)
        in_degrees = np.diff(graph.rindptr)
        run_lengths = in_degrees
        self.sources = graph.rindices
        if mode == UNDIRECTED:
            out_degrees = np.diff(graph.indptr)
            run_lengths = in_degrees + out_degrees
            self.sources = np.empty(
                run_lengths.sum(), np.result_type(graph.rindices, graph.indices)
            )
            # Target v's merged run starts at rindptr[v] + indptr[v]: its
            # in-slice shifts up by indptr[v], its out-slice by rindptr[v+1].
            for slices, shifts, degrees in (
                (graph.rindices, graph.indptr[:-1], in_degrees),
                (graph.indices, graph.rindptr[1:], out_degrees),
            ):
                at = np.arange(len(slices)) + np.repeat(shifts, degrees)
                self.sources[at] = slices
        self.targets = np.repeat(np.arange(self.n, dtype=np.int32), run_lengths)
        run_starts = np.concatenate(([0], np.cumsum(run_lengths)))
        self.blocks = _block_offsets(run_starts, BLOCK_ROWS)

    def levels(self, sources: np.ndarray):
        """Yield ``(hop, nodes, fresh)`` per BFS level of the whole batch.

        ``nodes`` is ascending; ``fresh`` holds the bits of the sources
        that first reached each node at this hop.
        """
        n_words = max(1, -(-len(sources) // WORD_BITS))
        visited = np.zeros((self.n, n_words), dtype=np.uint64)
        np.bitwise_or.at(visited, sources, _source_bit_rows(sources, n_words))
        nodes = np.flatnonzero(visited.any(axis=1))
        bits = visited[nodes]
        # A frontier node's row in ``bits``; -1 off the frontier.  int32
        # halves the per-hop gather over the table.
        slot = np.full(self.n, -1, dtype=np.int32)
        spans = list(zip(self.blocks[:-1].tolist(), self.blocks[1:].tolist()))
        hop = 0
        while len(nodes):
            hop += 1
            slot[nodes] = np.arange(len(nodes), dtype=np.int32)
            reached, claimed = [], []
            for lo, hi in spans:
                rows = np.take(slot, self.sources[lo:hi])
                in_frontier = rows >= 0
                targets = self.targets[lo:hi][in_frontier]
                if targets.size == 0:
                    continue
                # Kept rows are still grouped by target and no run spans
                # two blocks: one reduceat per run ORs together every
                # source reaching that target.
                seg = np.flatnonzero(np.r_[True, targets[1:] != targets[:-1]])
                candidates = targets[seg]
                combined = np.bitwise_or.reduceat(
                    np.take(bits, rows[in_frontier], axis=0), seg, axis=0
                )
                fresh = combined & ~np.take(visited, candidates, axis=0)
                keep = fresh.any(axis=1)
                if keep.any():
                    reached.append(candidates[keep])
                    claimed.append(fresh[keep])
            slot[nodes] = -1
            if not reached:
                break
            # Blocks are in row order, so the targets stay ascending.
            nodes = np.concatenate(reached)
            bits = np.concatenate(claimed)
            visited[nodes] |= bits
            yield hop, nodes, bits

    def distances(self, sources) -> np.ndarray:
        """See :func:`msbfs_distances`."""
        sources = np.asarray(sources, dtype=np.int64)
        dist = np.full((len(sources), self.n), -1, dtype=np.int32)
        dist[np.arange(len(sources)), sources] = 0
        for hop, nodes, bits in self.levels(sources):
            reached, lane = np.nonzero(_unpack_lanes(bits, len(sources)))
            dist[lane, nodes[reached]] = hop
        return dist

    def hop_counts(self, sources) -> np.ndarray:
        """See :func:`batch_hop_counts`."""
        levels = self.levels(np.asarray(sources, dtype=np.int64))
        return np.asarray([0] + [_popcount(bits) for *_, bits in levels], dtype=np.int64)

    def eccentricities(self, sources) -> tuple[np.ndarray, np.ndarray]:
        """See :func:`batch_eccentricities`."""
        sources = np.asarray(sources, dtype=np.int64)
        ecc = np.zeros(len(sources), dtype=np.int64)
        far = sources.copy()
        for hop, nodes, bits in self.levels(sources):
            lanes = _unpack_lanes(bits, len(sources))
            touched = lanes.any(axis=0)
            # nodes is ascending, so argmax picks the smallest node index.
            first = np.argmax(lanes, axis=0)
            ecc[touched] = hop
            far[touched] = nodes[first[touched]]
        return ecc, far


def msbfs_distances(graph, sources, mode: str = DIRECTED) -> np.ndarray:
    """Hop counts from each source to every node; -1 where unreachable.

    Row ``j`` equals ``bfs_distances(graph, sources[j], mode)`` exactly.
    """
    return EdgeTable(graph, mode).distances(sources)


def batch_hop_counts(graph, sources, mode: str = DIRECTED) -> np.ndarray:
    """Pooled hop histogram of the batch: ``counts[h]`` (source, target)
    pairs at distance ``h >= 1``, unreachable pairs excluded.

    Equals the sum over the batch of ``np.bincount(dist[dist > 0])`` on
    the per-source sequential distances — the popcount of each level's
    freshly visited bits, without materialising any distance matrix.
    """
    return EdgeTable(graph, mode).hop_counts(sources)


def batch_eccentricities(
    graph, sources, mode: str = DIRECTED
) -> tuple[np.ndarray, np.ndarray]:
    """Per-source eccentricity and the first farthest node.

    Matches the sequential double-sweep bookkeeping: ``ecc[j]`` is
    ``dist.max()`` of source ``j``'s BFS (0 when nothing is reachable)
    and ``far[j]`` the smallest compact index at that distance.
    """
    return EdgeTable(graph, mode).eccentricities(sources)
