"""Structural analyses of the social graph (Section 3.3).

Bundles the Figure 3/4/5 computations and the Google+ row of Table 4 into
result objects the experiment harness and benches can render.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.clustering import sampled_clustering
from repro.graph.components import (
    ComponentDecomposition,
    strongly_connected_components,
)
from repro.graph.csr import CSRGraph
from repro.graph.degree import degree_distributions, DegreeDistributions
from repro.graph.parallel import BFSEngine
from repro.graph.paths import (
    DIRECTED,
    PathLengthDistribution,
    sampled_path_lengths,
    UNDIRECTED,
)
from repro.graph.powerlaw import fit_powerlaw_ccdf, PowerLawFit
from repro.graph.reciprocity import (
    global_reciprocity,
    reciprocated_edge_mask,
    relation_reciprocity,
)
from repro.graph.stats import GraphSummary, summarize_graph


@dataclass(frozen=True)
class DegreeAnalysis:
    """Figure 3: degree CCDFs plus power-law fits."""

    distributions: DegreeDistributions
    in_fit: PowerLawFit
    out_fit: PowerLawFit
    out_degree_cap: int

    def cap_knee_visible(self) -> bool:
        """True when some users sit at (or past) the out-degree cap."""
        return bool((self.distributions.out_degrees >= self.out_degree_cap).any())


def analyze_degrees(graph: CSRGraph, out_degree_cap: int = 5_000) -> DegreeAnalysis:
    """Compute Figure 3 with the paper's regression estimator.

    The out-degree fit excludes points beyond the cap knee, as the paper's
    conjectured policy distorts the tail there.
    """
    distributions = degree_distributions(graph)
    in_fit = fit_powerlaw_ccdf(distributions.in_ccdf, x_min=1.0)
    out_fit = fit_powerlaw_ccdf(
        distributions.out_ccdf, x_min=1.0, x_max=float(out_degree_cap)
    )
    return DegreeAnalysis(
        distributions=distributions,
        in_fit=in_fit,
        out_fit=out_fit,
        out_degree_cap=out_degree_cap,
    )


@dataclass(frozen=True)
class ReciprocityAnalysis:
    """Figure 4a + the Table 4 reciprocity number."""

    rr_values: np.ndarray
    global_reciprocity: float

    def fraction_rr_above(self, threshold: float) -> float:
        if len(self.rr_values) == 0:
            return float("nan")
        return float((self.rr_values > threshold).mean())


def analyze_reciprocity(graph: CSRGraph) -> ReciprocityAnalysis:
    """Figure 4a and global reciprocity from one reciprocated-edge mask."""
    mask = reciprocated_edge_mask(graph)
    rr = relation_reciprocity(graph, mask=mask)
    return ReciprocityAnalysis(
        rr_values=rr[~np.isnan(rr)],
        global_reciprocity=global_reciprocity(graph, mask=mask),
    )


@dataclass(frozen=True)
class ClusteringAnalysis:
    """Figure 4b: clustering coefficients of a node sample."""

    values: np.ndarray
    sample_size: int

    def fraction_above(self, threshold: float) -> float:
        defined = self.values[~np.isnan(self.values)]
        if len(defined) == 0:
            return float("nan")
        return float((defined > threshold).mean())

    @property
    def mean(self) -> float:
        defined = self.values[~np.isnan(self.values)]
        return float(defined.mean()) if len(defined) else float("nan")


def analyze_clustering(
    graph: CSRGraph, rng: np.random.Generator, sample_size: int | None = None
) -> ClusteringAnalysis:
    """Figure 4b; the paper sampled 1M of 35M nodes, we sample ~3%
    proportionally (minimum 1,000) unless told otherwise."""
    if sample_size is None:
        sample_size = max(1_000, graph.n * 3 // 100)
    values = sampled_clustering(graph, sample_size, rng)
    return ClusteringAnalysis(values=values, sample_size=len(values))


@dataclass(frozen=True)
class SCCAnalysis:
    """Figure 4c: SCC decomposition and size CCDF input."""

    decomposition: ComponentDecomposition

    @property
    def n_components(self) -> int:
        return self.decomposition.n_components

    @property
    def giant_size(self) -> int:
        return self.decomposition.giant_size

    @property
    def giant_fraction(self) -> float:
        return self.decomposition.giant_fraction()

    def sizes(self) -> np.ndarray:
        return self.decomposition.sizes


def analyze_sccs(graph: CSRGraph) -> SCCAnalysis:
    return SCCAnalysis(decomposition=strongly_connected_components(graph))


@dataclass(frozen=True)
class PathLengthAnalysis:
    """Figure 5: directed and undirected hop distributions."""

    directed: PathLengthDistribution
    undirected: PathLengthDistribution


def analyze_path_lengths(
    graph: CSRGraph,
    rng: np.random.Generator,
    initial_k: int = 2_000,
    max_k: int = 10_000,
    engine: BFSEngine | None = None,
) -> PathLengthAnalysis:
    """Figure 5 with the paper's grow-until-stable sampling.

    Pass ``engine`` to run both sweeps through one (possibly
    multi-process) BFS worker pool; results do not depend on it.
    """
    own_engine = engine is None
    if own_engine:
        engine = BFSEngine(graph)
    try:
        return PathLengthAnalysis(
            directed=sampled_path_lengths(
                graph, rng, initial_k=initial_k, max_k=max_k, mode=DIRECTED,
                engine=engine,
            ),
            undirected=sampled_path_lengths(
                graph, rng, initial_k=initial_k, max_k=max_k, mode=UNDIRECTED,
                engine=engine,
            ),
        )
    finally:
        if own_engine:
            engine.close()


def google_plus_table4_row(
    graph: CSRGraph,
    rng: np.random.Generator,
    path_samples: int = 2_000,
    paths: PathLengthAnalysis | None = None,
    engine: BFSEngine | None = None,
    sccs: SCCAnalysis | None = None,
    reciprocity: ReciprocityAnalysis | None = None,
) -> GraphSummary:
    """The measured Google+ row of Table 4.

    Pass the Figure 5 result via ``paths`` to reuse its BFS sampling,
    the Figure 4c result via ``sccs`` to reuse its SCC decomposition,
    the Figure 4a result via ``reciprocity`` to reuse its reciprocated-edge
    mask, and ``engine`` to share a BFS worker pool with the other
    analyses.
    """
    return summarize_graph(
        graph,
        rng,
        path_samples=path_samples,
        precomputed_directed=paths.directed if paths else None,
        precomputed_undirected=paths.undirected if paths else None,
        engine=engine,
        sccs=sccs.decomposition if sccs is not None else None,
        reciprocity=(
            reciprocity.global_reciprocity if reciprocity is not None else None
        ),
    )
