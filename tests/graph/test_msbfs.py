"""Tests for the batched multi-source BFS kernel.

The load-bearing property is bit-identity with the sequential
:func:`repro.graph.paths.bfs_distances`: BFS levels are unique, so the
batched kernel must reproduce it exactly — not approximately — in both
traversal modes, for any batch width (including multi-word batches of
more than 64 sources).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
