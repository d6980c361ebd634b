"""Connected components: SCC and WCC decompositions (Section 3.3.4).

The paper identifies 9,771,696 strongly connected components, among which
a single giant SCC of ~25.2M nodes (70% of the graph), using "a procedure
involving two Depth First Searches" (Kosaraju's algorithm). We provide an
iterative Tarjan implementation — one pass, no recursion, safe for graphs
far deeper than Python's recursion limit — plus a union-find WCC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph


@dataclass(frozen=True)
class ComponentDecomposition:
    """Node labels plus per-component sizes, largest component first.

    ``labels[i]`` is the component index of compact node ``i``; component
    indexes are ordered by decreasing size, so label 0 is the giant
    component (when any).
    """

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def n_components(self) -> int:
        return len(self.sizes)

    @property
    def giant_size(self) -> int:
        return int(self.sizes[0]) if len(self.sizes) else 0

    def giant_fraction(self) -> float:
        total = int(self.sizes.sum())
        return self.giant_size / total if total else 0.0

    def members(self, component: int) -> np.ndarray:
        return np.flatnonzero(self.labels == component)


def _sorted_by_size(raw_labels: np.ndarray) -> ComponentDecomposition:
    """Relabel components in decreasing-size order."""
    unique, counts = np.unique(raw_labels, return_counts=True)
    order = np.argsort(-counts, kind="stable")
    remap = np.empty(len(unique), dtype=np.int64)
    remap[order] = np.arange(len(unique))
    # unique is sorted, so raw labels can be mapped via searchsorted.
    labels = remap[np.searchsorted(unique, raw_labels)]
    return ComponentDecomposition(labels=labels, sizes=counts[order])


def strongly_connected_components(graph: CSRGraph) -> ComponentDecomposition:
    """Tarjan's SCC algorithm, fully iterative.

    Runs in O(n + m); the explicit work stack replaces recursion so the
    giant-component case (paths of millions of nodes) cannot overflow.
    The walk runs over Python lists: indexing a list costs a fraction
    of a numpy scalar read.
    """
    n = graph.n
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    UNVISITED = -1
    index_of = [UNVISITED] * n
    lowlink = [0] * n
    on_stack = [False] * n
    labels = [UNVISITED] * n
    stack: list[int] = []
    next_index = 0
    next_label = 0

    for root in range(n):
        if index_of[root] != UNVISITED:
            continue
        # Work stack of (node, next-edge-offset) frames.
        work: list[tuple[int, int]] = [(root, indptr[root])]
        while work:
            node, edge_pos = work[-1]
            if index_of[node] == UNVISITED:
                index_of[node] = lowlink[node] = next_index
                next_index += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            end = indptr[node + 1]
            while edge_pos < end:
                child = indices[edge_pos]
                edge_pos += 1
                if index_of[child] == UNVISITED:
                    work[-1] = (node, edge_pos)
                    work.append((child, indptr[child]))
                    advanced = True
                    break
                if on_stack[child]:
                    if index_of[child] < lowlink[node]:
                        lowlink[node] = index_of[child]
            if advanced:
                continue
            # All children explored: close the frame.
            work.pop()
            if lowlink[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    labels[member] = next_label
                    if member == node:
                        break
                next_label += 1
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
    return _sorted_by_size(np.asarray(labels, dtype=np.int64))


class UnionFind:
    """Disjoint-set forest with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = int(parent[x])
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def weakly_connected_components(graph: CSRGraph) -> ComponentDecomposition:
    """WCC decomposition via union-find over all edges."""
    uf = UnionFind(graph.n)
    sources = np.repeat(np.arange(graph.n, dtype=np.int64), graph.out_degrees())
    for u, v in zip(sources, graph.indices):
        uf.union(int(u), int(v))
    raw = np.fromiter((uf.find(i) for i in range(graph.n)), dtype=np.int64, count=graph.n)
    return _sorted_by_size(raw)


def scc_size_ccdf_input(decomposition: ComponentDecomposition) -> np.ndarray:
    """Component sizes array — the sample behind Figure 4c's CCDF."""
    return decomposition.sizes.astype(np.int64)
