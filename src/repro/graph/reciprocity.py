"""Reciprocity metrics (Section 3.3.2).

Two quantities from the paper:

* **Relation Reciprocity** of a node,
  ``RR(u) = |OS(u) ∩ IS(u)| / |OS(u)|`` — the fraction of a user's
  followees that follow back (Equation 1);
* **global reciprocity** — the fraction of all directed edges whose
  reverse edge also exists (32% for Google+ vs 22.1% for Twitter).
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph


def _edge_keys(graph: CSRGraph) -> np.ndarray:
    """Sorted array of ``u * n + v`` keys for every edge, for O(log m) lookup."""
    n = np.int64(graph.n)
    sources = np.repeat(np.arange(graph.n, dtype=np.int64), graph.out_degrees())
    keys = sources * n + graph.indices
    keys.sort()
    return keys


def reciprocated_edge_mask(graph: CSRGraph) -> np.ndarray:
    """Boolean mask over edges (CSR order): True when the reverse exists."""
    n = np.int64(graph.n)
    sources = np.repeat(np.arange(graph.n, dtype=np.int64), graph.out_degrees())
    keys = _edge_keys(graph)
    reverse = graph.indices.astype(np.int64) * n + sources
    pos = np.searchsorted(keys, reverse)
    pos = np.minimum(pos, len(keys) - 1) if len(keys) else pos
    return keys[pos] == reverse if len(keys) else np.zeros(0, dtype=bool)


def global_reciprocity(graph: CSRGraph, *, mask: np.ndarray | None = None) -> float:
    """Fraction of directed edges whose reverse edge also exists
    (``mask``: a :func:`reciprocated_edge_mask` the caller already built)."""
    if graph.n_edges == 0:
        return 0.0
    if mask is None:
        mask = reciprocated_edge_mask(graph)
    return float(mask.mean())


def relation_reciprocity(
    graph: CSRGraph,
    nodes: np.ndarray | None = None,
    *,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """RR(u) per node (Equation 1); NaN for nodes with out-degree 0.

    One pass over the edges: ``|OS(u) ∩ IS(u)|`` is the number of
    ``u``'s out-edges whose reverse exists, a bincount of edge sources
    over :func:`reciprocated_edge_mask` (pass ``mask`` when the caller
    already built it: each build sorts every edge key).
    """
    if mask is None:
        mask = reciprocated_edge_mask(graph)
    out_degrees = graph.out_degrees()
    sources = np.repeat(np.arange(graph.n), out_degrees)
    mutual = np.bincount(sources[mask], minlength=graph.n)
    result = np.full(graph.n, np.nan)
    has_out = out_degrees > 0
    result[has_out] = mutual[has_out] / out_degrees[has_out]
    return result if nodes is None else result[np.asarray(nodes)]


def reciprocity_cdf_input(graph: CSRGraph) -> np.ndarray:
    """RR values of all nodes with out-degree > 0 (Figure 4a's sample)."""
    rr = relation_reciprocity(graph)
    return rr[~np.isnan(rr)]
