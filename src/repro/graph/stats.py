"""One-stop structural summary of a social graph (Table 4 row).

Bundles the individual metrics — node/edge counts, mean degrees, global
reciprocity, sampled average path length, estimated diameter, giant-SCC
share — into the row format of Table 4 so the comparison against the
quoted Facebook/Twitter/Orkut numbers is mechanical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import ComponentDecomposition, strongly_connected_components
from .csr import CSRGraph
from .parallel import BFSEngine
from .paths import DIRECTED, UNDIRECTED, estimate_diameter, sampled_path_lengths
from .reciprocity import global_reciprocity


@dataclass(frozen=True)
class GraphSummary:
    """The Table 4 metrics for one graph."""

    n_nodes: int
    n_edges: int
    mean_in_degree: float
    mean_out_degree: float
    reciprocity: float
    avg_path_length: float
    path_length_mode: int
    diameter: int
    undirected_avg_path_length: float
    undirected_diameter: int
    n_sccs: int
    giant_scc_fraction: float


def summarize_graph(
    graph: CSRGraph,
    rng: np.random.Generator,
    path_samples: int = 2_000,
    diameter_sweeps: int = 10,
    precomputed_directed=None,
    precomputed_undirected=None,
    engine: BFSEngine | None = None,
    sccs: ComponentDecomposition | None = None,
    reciprocity: float | None = None,
) -> GraphSummary:
    """Compute the full structural summary of a graph.

    ``path_samples`` caps the BFS-source count for the path-length
    estimates; the convergence procedure of Section 3.3.5 may stop
    earlier. Callers that already ran the Figure 5 sampling can pass the
    two distributions in to avoid recomputing them, an SCC
    decomposition via ``sccs`` and the global reciprocity via
    ``reciprocity`` for the same reason, and an ``engine`` to share one
    BFS worker pool across every sweep.
    """
    own_engine = engine is None
    if own_engine:
        engine = BFSEngine(graph)
    try:
        dist_directed = precomputed_directed or sampled_path_lengths(
            graph,
            rng,
            initial_k=min(500, path_samples),
            max_k=path_samples,
            mode=DIRECTED,
            engine=engine,
        )
        dist_undirected = precomputed_undirected or sampled_path_lengths(
            graph,
            rng,
            initial_k=min(500, path_samples),
            max_k=path_samples,
            mode=UNDIRECTED,
            engine=engine,
        )
        if sccs is None:
            sccs = strongly_connected_components(graph)
        mean_degree = graph.n_edges / graph.n if graph.n else 0.0
        return GraphSummary(
            n_nodes=graph.n,
            n_edges=graph.n_edges,
            mean_in_degree=mean_degree,
            mean_out_degree=mean_degree,
            reciprocity=(
                global_reciprocity(graph) if reciprocity is None else reciprocity
            ),
            avg_path_length=dist_directed.mean,
            path_length_mode=dist_directed.mode,
            diameter=max(
                estimate_diameter(
                    graph, rng, n_sweeps=diameter_sweeps, mode=DIRECTED, engine=engine
                ),
                dist_directed.max_observed,
            ),
            undirected_avg_path_length=dist_undirected.mean,
            undirected_diameter=max(
                estimate_diameter(
                    graph,
                    rng,
                    n_sweeps=diameter_sweeps,
                    mode=UNDIRECTED,
                    engine=engine,
                ),
                dist_undirected.max_observed,
            ),
            n_sccs=sccs.n_components,
            giant_scc_fraction=sccs.giant_fraction(),
        )
    finally:
        if own_engine:
            engine.close()
