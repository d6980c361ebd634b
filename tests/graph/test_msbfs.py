"""Tests for the batched multi-source BFS kernel.

The load-bearing property is bit-identity with the sequential
:func:`repro.graph.paths.bfs_distances`: BFS levels are unique, so the
batched kernel must reproduce it exactly — not approximately — in both
traversal modes, for any batch width (including multi-word batches of
more than 64 sources).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import msbfs
from repro.graph.csr import CSRGraph
from repro.graph.msbfs import (
    batch_eccentricities,
    batch_hop_counts,
    EdgeTable,
    msbfs_distances,
)
from repro.graph.paths import bfs_distances, DIRECTED, UNDIRECTED


def edges_strategy(max_nodes: int = 24, max_edges: int = 70):
    node = st.integers(min_value=0, max_value=max_nodes - 1)
    return st.lists(
        st.tuples(node, node).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=max_edges,
    )


def sequential_distances(graph, sources, mode):
    return np.vstack(
        [bfs_distances(graph, int(s), mode=mode) for s in sources]
    ) if len(sources) else np.empty((0, graph.n), dtype=np.int32)


class TestDistances:
    @given(edges=edges_strategy(), mode=st.sampled_from([DIRECTED, UNDIRECTED]))
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_bfs(self, edges, mode):
        graph = CSRGraph.from_edges(edges)
        sources = np.arange(graph.n, dtype=np.int64)
        expected = sequential_distances(graph, sources, mode)
        np.testing.assert_array_equal(
            msbfs_distances(graph, sources, mode), expected
        )

    @given(edges=edges_strategy(), mode=st.sampled_from([DIRECTED, UNDIRECTED]))
    @settings(max_examples=25, deadline=None)
    def test_multi_word_batches(self, edges, mode):
        """More than 64 sources forces a second frontier word per node;
        duplicated sources must each get their own identical lane."""
        graph = CSRGraph.from_edges(edges)
        sources = np.resize(np.arange(graph.n, dtype=np.int64), 70)
        got = msbfs_distances(graph, sources, mode)
        np.testing.assert_array_equal(
            got, sequential_distances(graph, sources, mode)
        )

    def test_empty_sources(self):
        graph = CSRGraph.from_edges([(0, 1)])
        assert msbfs_distances(graph, []).shape == (0, 2)

    def test_invalid_mode(self):
        graph = CSRGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            msbfs_distances(graph, [0], mode="sideways")
        with pytest.raises(ValueError):
            msbfs_distances(graph, [], mode="sideways")


class TestHopCounts:
    @given(edges=edges_strategy(), mode=st.sampled_from([DIRECTED, UNDIRECTED]))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_source_bincounts(self, edges, mode):
        graph = CSRGraph.from_edges(edges)
        sources = np.arange(graph.n, dtype=np.int64)
        counts = batch_hop_counts(graph, sources, mode)
        assert counts[0] == 0
        dist = sequential_distances(graph, sources, mode)
        reached = dist[dist > 0]
        expected = (
            np.bincount(reached, minlength=1)
            if reached.size
            else np.zeros(1, dtype=np.int64)
        )
        np.testing.assert_array_equal(counts, expected)

    def test_empty_sources(self):
        graph = CSRGraph.from_edges([(0, 1)])
        assert batch_hop_counts(graph, []).tolist() == [0]


class TestEccentricities:
    @given(edges=edges_strategy(), mode=st.sampled_from([DIRECTED, UNDIRECTED]))
    @settings(max_examples=40, deadline=None)
    def test_matches_sequential_bookkeeping(self, edges, mode):
        graph = CSRGraph.from_edges(edges)
        sources = np.arange(graph.n, dtype=np.int64)
        ecc, far = batch_eccentricities(graph, sources, mode)
        for j, source in enumerate(sources):
            dist = bfs_distances(graph, int(source), mode=mode)
            expected_ecc = int(dist.max(initial=0))
            assert ecc[j] == expected_ecc
            if expected_ecc == 0:
                assert far[j] == source
            else:
                # First farthest node = smallest compact index at max hop.
                assert far[j] == int(np.flatnonzero(dist == expected_ecc)[0])

    def test_empty_sources(self):
        graph = CSRGraph.from_edges([(0, 1)])
        ecc, far = batch_eccentricities(graph, [])
        assert len(ecc) == 0 and len(far) == 0


def assert_kernels_match_sequential(graph, sources, mode):
    """Distances, pooled hop counts and (ecc, far) all equal the
    one-source-at-a-time BFS."""
    sources = np.asarray(sources, dtype=np.int64)
    dist = sequential_distances(graph, sources, mode)
    np.testing.assert_array_equal(msbfs_distances(graph, sources, mode), dist)
    reached = dist[dist > 0]
    expected_counts = np.bincount(reached, minlength=1) if reached.size else [0]
    np.testing.assert_array_equal(
        batch_hop_counts(graph, sources, mode), expected_counts
    )
    ecc, far = batch_eccentricities(graph, sources, mode)
    expected_ecc = dist.max(axis=1, initial=0)
    np.testing.assert_array_equal(ecc, expected_ecc)
    for j, source in enumerate(sources):
        if expected_ecc[j] == 0:
            assert far[j] == source
        else:
            assert far[j] == int(np.flatnonzero(dist[j] == expected_ecc[j])[0])


def reciprocal_heavy_strategy(max_nodes: int = 20, max_pairs: int = 40):
    """Edge lists where most pairs are linked both ways."""
    node = st.integers(min_value=0, max_value=max_nodes - 1)
    pair = st.tuples(node, node, st.booleans(), st.integers(0, 3))
    return st.lists(
        pair.filter(lambda p: p[0] != p[1]), min_size=1, max_size=max_pairs
    ).map(
        lambda pairs: [
            edge
            for a, b, forward, kind in pairs
            # kind 0: one direction only; otherwise both directions.
            for edge in ([(a, b) if forward else (b, a)] if kind == 0 else [(a, b), (b, a)])
        ]
    )


class TestEdgeTable:
    @given(edges=edges_strategy(), mode=st.sampled_from([DIRECTED, UNDIRECTED]))
    @settings(max_examples=40, deadline=None)
    def test_rows_are_the_edges_grouped_by_target(self, edges, mode):
        graph = CSRGraph.from_edges(edges)
        table = EdgeTable(graph, mode)
        assert np.all(np.diff(table.targets) >= 0)
        src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
        expected = list(zip(src.tolist(), graph.indices.tolist()))
        if mode == UNDIRECTED:
            expected += [(b, a) for a, b in expected]
        got = list(zip(table.sources.tolist(), table.targets.tolist()))
        assert sorted(got) == sorted(expected)

    def test_reciprocal_pair_appears_twice_in_undirected_table(self):
        graph = CSRGraph.from_edges([(0, 1), (1, 0), (1, 2)])
        table = EdgeTable(graph, UNDIRECTED)
        rows = list(zip(table.sources.tolist(), table.targets.tolist()))
        assert rows.count((0, 1)) == 2 and rows.count((1, 0)) == 2
        assert rows.count((2, 1)) == 1 and rows.count((1, 2)) == 1

    @given(
        edges=reciprocal_heavy_strategy(),
        mode=st.sampled_from([DIRECTED, UNDIRECTED]),
    )
    @settings(max_examples=50, deadline=None)
    def test_reciprocal_heavy_graphs_match_sequential(self, edges, mode):
        graph = CSRGraph.from_edges(edges)
        assert_kernels_match_sequential(graph, np.arange(graph.n), mode)

    @pytest.mark.parametrize("mode", [DIRECTED, UNDIRECTED])
    def test_nodes_without_in_or_out_edges(self, mode):
        # 0 and 7 have in-degree 0, 3/5/6 out-degree 0, 8 and 9 no edges.
        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (4, 5), (7, 4), (7, 6)]
        src, dst = np.asarray(edges).T
        graph = CSRGraph.from_edge_arrays(src, dst, node_ids=np.arange(10))
        assert graph.n == 10
        assert_kernels_match_sequential(graph, np.arange(10), mode)
        assert_kernels_match_sequential(graph, [8, 9, 3, 0, 8], mode)

    @pytest.mark.parametrize("n_sources", [63, 64, 65, 513])
    @pytest.mark.parametrize("mode", [DIRECTED, UNDIRECTED])
    def test_lane_and_batch_boundaries_with_duplicates(self, n_sources, mode):
        rng = np.random.default_rng(n_sources)
        edges = rng.integers(0, 40, size=(120, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        graph = CSRGraph.from_edge_arrays(
            edges[:, 0], edges[:, 1], node_ids=np.arange(45)
        )
        sources = rng.integers(0, graph.n, size=n_sources)
        assert len(np.unique(sources)) < n_sources
        assert_kernels_match_sequential(graph, sources, mode)

    @pytest.mark.parametrize("mode", [DIRECTED, UNDIRECTED])
    def test_far_is_smallest_of_many_equidistant_nodes(self, mode):
        # Source 0 fans out to a shuffled layer of 30 nodes, each of
        # which reaches every node of a second shuffled layer of 30, so
        # 30 nodes tie at the eccentricity from 0.
        rng = np.random.default_rng(4)
        labels = rng.permutation(np.arange(1, 61))
        first, second = labels[:30], labels[30:]
        edges = [(0, int(a)) for a in first]
        edges += [(int(a), int(b)) for a in first for b in second]
        graph = CSRGraph.from_edges(edges)
        ecc, far = batch_eccentricities(graph, [0, 0, int(first[0])], mode)
        if mode == DIRECTED:
            assert ecc.tolist() == [2, 2, 1]
            assert far.tolist() == [second.min()] * 3
        else:
            assert ecc.tolist() == [2, 2, 2]
            assert far[:2].tolist() == [second.min()] * 2
        assert_kernels_match_sequential(graph, [0, 0, int(first[0])], mode)


def run_starts(table):
    """Row offset of every target's run, ending with the row count."""
    return np.concatenate(([0], np.cumsum(np.bincount(table.targets, minlength=table.n))))


def assert_blocks_well_formed(table, block_rows):
    """Blocks tile the rows in order, each starts at a run start, and
    only a single run longer than ``block_rows`` exceeds it."""
    blocks = table.blocks
    assert blocks[0] == 0 and blocks[-1] == len(table.sources)
    assert np.all(np.diff(blocks) > 0)
    starts = run_starts(table)
    assert np.isin(blocks, starts).all()
    for lo, hi in zip(blocks[:-1], blocks[1:]):
        if hi - lo > block_rows:
            assert table.targets[lo] == table.targets[hi - 1]
        # Greedy: the next run would not have fit.
        if hi < len(table.sources):
            next_end = starts[np.searchsorted(starts, hi, "right")]
            assert next_end - lo > block_rows


def graph_with_isolated(edges, n):
    src, dst = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    return CSRGraph.from_edge_arrays(src, dst, node_ids=np.arange(n))


class TestBlockedTable:
    """One hop walks the table block by block (``BLOCK_ROWS`` rows at
    most, never splitting a target's run); small blocks force every
    boundary case onto small graphs."""

    @given(
        edges=edges_strategy(),
        mode=st.sampled_from([DIRECTED, UNDIRECTED]),
        block_rows=st.sampled_from([1, 2, 3, 7, 64]),
    )
    @settings(max_examples=80, deadline=None)
    def test_small_blocks_match_sequential(self, edges, mode, block_rows):
        graph = CSRGraph.from_edges(edges)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(msbfs, "BLOCK_ROWS", block_rows)
            assert_blocks_well_formed(EdgeTable(graph, mode), block_rows)
            assert_kernels_match_sequential(graph, np.arange(graph.n), mode)

    @pytest.mark.parametrize("mode", [DIRECTED, UNDIRECTED])
    def test_hub_runs_longer_than_a_block(self, monkeypatch, mode):
        # Node 0 has 12 in-edges and 12 out-edges; leaves link in a ring.
        monkeypatch.setattr(msbfs, "BLOCK_ROWS", 4)
        edges = [(leaf, 0) for leaf in range(1, 13)]
        edges += [(0, leaf) for leaf in range(1, 13)]
        edges += [(leaf, leaf % 12 + 1) for leaf in range(1, 13)]
        graph = CSRGraph.from_edges(edges)
        table = EdgeTable(graph, mode)
        assert_blocks_well_formed(table, 4)
        hub_rows = 12 if mode == DIRECTED else 24
        assert table.blocks[1] == hub_rows
        assert_kernels_match_sequential(graph, [0, 5, 5, 12], mode)

    def test_boundaries_fall_exactly_at_run_ends(self, monkeypatch):
        # Every node has in-degree 2, so blocks of 4 rows hold exactly
        # two runs each.
        monkeypatch.setattr(msbfs, "BLOCK_ROWS", 4)
        n = 10
        edges = [(v, (v + 1) % n) for v in range(n)]
        edges += [(v, (v + 3) % n) for v in range(n)]
        graph = CSRGraph.from_edges(edges)
        table = EdgeTable(graph, DIRECTED)
        assert table.blocks.tolist() == [0, 4, 8, 12, 16, 20]
        for mode in (DIRECTED, UNDIRECTED):
            assert_blocks_well_formed(EdgeTable(graph, mode), 4)
            assert_kernels_match_sequential(graph, np.arange(n), mode)

    @pytest.mark.parametrize("mode", [DIRECTED, UNDIRECTED])
    def test_blocks_without_frontier_rows(self, monkeypatch, mode):
        # Two components; a batch inside the first never puts a row of
        # the second component's blocks on the frontier.
        monkeypatch.setattr(msbfs, "BLOCK_ROWS", 2)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        edges += [(v, v + 1) for v in range(4, 15)]
        graph = CSRGraph.from_edges(edges)
        assert len(EdgeTable(graph, mode).blocks) > 6
        assert_kernels_match_sequential(graph, [0, 2, 2], mode)
        assert_kernels_match_sequential(graph, [14, 0, 7], mode)

    @pytest.mark.parametrize("mode", [DIRECTED, UNDIRECTED])
    def test_graph_smaller_than_one_block(self, mode):
        graph = CSRGraph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        table = EdgeTable(graph, mode)
        assert table.blocks.tolist() == [0, len(table.sources)]
        assert_kernels_match_sequential(graph, [0, 3, 3], mode)

    @pytest.mark.parametrize("mode", [DIRECTED, UNDIRECTED])
    def test_graph_without_edges(self, mode):
        graph = graph_with_isolated([], 5)
        table = EdgeTable(graph, mode)
        assert table.blocks.tolist() == [0]
        assert_kernels_match_sequential(graph, [0, 4, 4], mode)

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    @pytest.mark.parametrize("n_sources", [1, 64, 65, 513])
    @pytest.mark.parametrize("mode", [DIRECTED, UNDIRECTED])
    def test_batch_widths_with_duplicates(
        self, monkeypatch, mode, n_sources, block_rows
    ):
        monkeypatch.setattr(msbfs, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(n_sources + block_rows)
        edges = rng.integers(0, 40, size=(150, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        # Node 0 becomes a hub whose run is longer than any block.
        edges = np.vstack([edges, [(v, 0) for v in range(1, 40)]])
        graph = graph_with_isolated(edges, 45)
        sources = rng.integers(0, graph.n, size=n_sources)
        if n_sources > 1:
            sources[-1] = sources[0]
        assert_kernels_match_sequential(graph, sources, mode)

    def test_hop_working_set_is_bounded_by_the_block(self, monkeypatch):
        """A 512-source hop allocates in proportion to ``BLOCK_ROWS`` and
        n, not to the table: the unblocked gather of every kept row's
        words alone would take ``rows * 64`` bytes."""
        block_rows, n, n_sources = 1024, 2_000, 512
        monkeypatch.setattr(msbfs, "BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(11)
        edges = rng.integers(0, n, size=(64_000, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        graph = graph_with_isolated(edges, n)
        table = EdgeTable(graph, UNDIRECTED)
        assert len(table.sources) > 100 * block_rows
        sources = rng.integers(0, n, size=n_sources)
        word_bytes = 8 * (n_sources // 64)
        # Per node, a few word rows: visited, the frontier, this hop's
        # fresh parts and their concatenation, the gathered visited rows.
        # Per block row: the gathered words, slot rows and the masks.
        bound = 8 * n * word_bytes + 2 * block_rows * (word_bytes + 16)
        assert bound < len(table.sources) * word_bytes / 4
        tracemalloc.start()
        try:
            counts = table.hop_counts(sources)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() > 0
        assert peak < bound, (peak, bound)

