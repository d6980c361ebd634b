"""Percentiles, quartiles and the ``compare`` verdict rule.

The verdict follows the benchmark's own rules: a metric may worsen by
at most its bound; where the run-to-run spread is wider than the bound
the row is *unresolved* unless every run of one side beats every run
of the other; a gain is claimed only when the new side wins at least
nine tenths of the paired runs and its median moved by more than the
base side's own spread, over at least ten paired runs.
"""

from __future__ import annotations

import statistics

import numpy as np

#: Fewest samples a reported percentile must have beyond it.
MIN_BEYOND = 10
#: Fewest paired runs on which a gain may be claimed.
MIN_PAIRS = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile, refusing one with < 10 samples beyond it."""
    n = len(samples)
    beyond = n * (100.0 - q) / 100.0
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond:.1f} beyond it; need {MIN_BEYOND}"
        )
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


IMPROVED = "improved"
REGRESSED = "regressed"
WITHIN = "within bound"
UNRESOLVED = "unresolved"


def verdict(base, new, bound: float, better: str) -> str:
    """Classify ``new`` runs against ``base`` runs of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    # Scores: lower is better whichever way the metric points.
    base_scores = [sign * v for v in base]
    new_scores = [sign * v for v in new]
    base_median = quartiles(base)[1]
    # Positive = worse, as a share of the base median.
    worsening = sign * (quartiles(new)[1] - base_median) / abs(base_median)
    separated = max(new_scores) < min(base_scores) or max(base_scores) < min(new_scores)
    if max(spread(base), spread(new)) > bound and not separated:
        return UNRESOLVED
    if worsening > bound:
        return REGRESSED
    pairs = min(len(base), len(new))
    wins = sum(n < b for b, n in zip(base_scores, new_scores))
    if pairs >= MIN_PAIRS and -worsening > spread(base) and wins >= 0.9 * pairs:
        return IMPROVED
    return WITHIN
