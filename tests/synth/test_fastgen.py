"""Tests for the vectorized world-generation engine (fastgen).

Covers edge validity, bit-stable determinism (in-process and across
processes), metric emission, the vectorized duplicate-edge filter, and
hypothesis property tests for the incremental cumulative-weight sampler.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Registry, get_registry, set_registry
from repro.synth.config import GraphGenConfig, WorldConfig
from repro.synth.fastgen import IncrementalPools, _KeySet, generate_graph_fast
from repro.synth.profiles import generate_population

N = 2_000

_HASH_SNIPPET = """\
import hashlib
import numpy as np
from repro.synth.config import GraphGenConfig, WorldConfig
from repro.synth.fastgen import generate_graph_fast
from repro.synth.profiles import generate_population

config = WorldConfig(n_users={n}, seed=5)
population = generate_population(config, np.random.default_rng(config.seed))
graph = generate_graph_fast(
    population, GraphGenConfig(), np.random.default_rng(17)
)
digest = hashlib.sha256()
digest.update(np.ascontiguousarray(graph.sources).tobytes())
digest.update(np.ascontiguousarray(graph.targets).tobytes())
print(digest.hexdigest())
"""


def _edge_digest(graph) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(graph.sources).tobytes())
    digest.update(np.ascontiguousarray(graph.targets).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def population():
    config = WorldConfig(n_users=N, seed=5)
    return generate_population(config, np.random.default_rng(config.seed))


@pytest.fixture(scope="module")
def generated(population):
    return generate_graph_fast(
        population, GraphGenConfig(), np.random.default_rng(17)
    )


class TestEdgeValidity:
    def test_no_self_loops(self, generated):
        assert not (generated.sources == generated.targets).any()

    def test_no_duplicate_edges(self, generated):
        pairs = set(zip(generated.sources.tolist(), generated.targets.tolist()))
        assert len(pairs) == generated.n_edges

    def test_ids_in_range(self, generated):
        assert generated.sources.min() >= 0
        assert generated.targets.max() < N

    def test_edges_grouped_by_source(self, generated):
        # The fast engine emits edges sorted by source (stable), so bulk
        # service ingest gets nearly-free owner grouping.
        assert (np.diff(generated.sources) >= 0).all()

    def test_most_users_touched(self, generated):
        touched = set(generated.sources.tolist()) | set(generated.targets.tolist())
        assert len(touched) > 0.99 * N


class TestDeterminism:
    def test_same_seed_bit_identical(self, population, generated):
        again = generate_graph_fast(
            population, GraphGenConfig(), np.random.default_rng(17)
        )
        assert np.array_equal(generated.sources, again.sources)
        assert np.array_equal(generated.targets, again.targets)

    def test_bit_identical_across_processes(self, generated):
        """Same seed ⇒ the same edge arrays in a fresh interpreter.

        Guards against salted ``hash()``, wall-clock input, or any other
        per-process state leaking into the generator.
        """
        snippet = _HASH_SNIPPET.format(n=N)
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        )
        assert out.stdout.strip() == _edge_digest(generated)


class TestMetrics:
    def test_generation_emits_synth_metrics(self, population):
        previous = get_registry()
        registry = Registry(enabled=True)
        set_registry(registry)
        try:
            generate_graph_fast(
                population, GraphGenConfig(), np.random.default_rng(17)
            )
        finally:
            set_registry(previous)
        assert registry.get("synth.gen_rounds").value() > 0
        assert registry.get("synth.gen_round_batches").value() > 0
        assert registry.get("synth.gen_stubs").value() > 0
        edges = registry.get("synth.gen_edges")
        assert edges.value(kind="forward") > 0
        assert edges.value(kind="followback") > 0
        rebuilds = registry.get("synth.pool_rebuilds")
        assert rebuilds.value(layer="country") > 0
        assert registry.get("synth.gen_edges_per_round").value() > 0
        assert registry.get("synth.gen_retry_fraction").value() >= 0


class TestKeySet:
    def test_matches_python_set_semantics(self):
        rng = np.random.default_rng(0)
        keyset = _KeySet(expected=8)  # tiny: forces repeated table growth
        reference: set[int] = set()
        for _ in range(60):
            keys = rng.integers(0, 20_000, size=int(rng.integers(1, 800)))
            got = keyset.contains(keys)
            want = np.fromiter(
                (int(k) in reference for k in keys), bool, count=len(keys)
            )
            assert (got == want).all()
            fresh = np.unique(keys)
            fresh = fresh[~keyset.contains(fresh)]
            keyset.add(fresh)
            reference.update(fresh.tolist())
        sweep = np.arange(0, 25_000, dtype=np.int64)
        got = keyset.contains(sweep)
        want = np.fromiter(
            (int(k) in reference for k in sweep), bool, count=len(sweep)
        )
        assert (got == want).all()

    def test_empty_queries(self):
        keyset = _KeySet()
        empty = np.empty(0, dtype=np.int64)
        assert keyset.contains(empty).shape == (0,)
        keyset.add(empty)  # no-op


# ---------------------------------------------------------------------------
# IncrementalPools property tests
# ---------------------------------------------------------------------------

weights_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=40,
)


@st.composite
def pool_and_bumps(draw):
    """A (group_ids, weights, bump member sequence) triple."""
    n = draw(st.integers(min_value=1, max_value=40))
    group_ids = draw(
        st.lists(
            st.integers(min_value=0, max_value=4), min_size=n, max_size=n
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    bumps = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=60)
    )
    return group_ids, weights, bumps


class TestIncrementalPoolsProperties:
    @given(pool_and_bumps())
    @settings(max_examples=60, deadline=None)
    def test_weights_stay_non_negative(self, data):
        group_ids, weights, bumps = data
        pools = IncrementalPools(np.array(group_ids), np.array(weights))
        for member in bumps:
            pools.add_weight(member, 1.0)
        for member in range(len(weights)):
            assert pools.weight_of(member) >= 0.0

    @given(pool_and_bumps())
    @settings(max_examples=60, deadline=None)
    def test_updates_match_from_scratch_rebuild(self, data):
        """Incremental bumps leave the same state as rebuilding from the
        final weights."""
        group_ids, weights, bumps = data
        pools = IncrementalPools(np.array(group_ids), np.array(weights))
        final = np.array(weights, dtype=np.float64)
        if bumps:
            pools.add_weights(np.array(bumps), 1.0)
            np.add.at(final, np.array(bumps), 1.0)
        rebuilt = IncrementalPools(np.array(group_ids), final)
        for group in range(pools.n_groups):
            np.testing.assert_allclose(
                pools.group_weights(group), rebuilt.group_weights(group)
            )
            if pools.group_size(group):
                np.testing.assert_allclose(
                    pools.cumulative(group), rebuilt.cumulative(group)
                )

    @given(weights_strategy)
    @settings(max_examples=25, deadline=None)
    def test_pick_frequencies_converge_to_weights(self, weights):
        """Empirical pick frequencies approach the normalized weights."""
        weights = np.array(weights, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            return  # nothing samplable; pick() raises, covered below
        pools = IncrementalPools(np.zeros(len(weights), dtype=np.int64), weights)
        rng = np.random.default_rng(7)
        picks = pools.pick(0, rng.random(20_000))
        freq = np.bincount(picks, minlength=len(weights)) / 20_000
        np.testing.assert_allclose(freq, weights / total, atol=0.02)

    def test_negative_update_rejected(self):
        pools = IncrementalPools(np.zeros(3, dtype=np.int64), np.ones(3))
        with pytest.raises(ValueError):
            pools.add_weight(1, -2.0)
        with pytest.raises(ValueError):
            pools.add_weights(np.array([0, 0]), -0.6)
        # Failed batch update must roll back cleanly.
        assert pools.weight_of(0) == pytest.approx(1.0)

    def test_empty_group_is_unsamplable(self):
        pools = IncrementalPools(np.array([0, 2]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            pools.pick(1, np.array([0.5]))

    def test_zero_total_weight_rejected(self):
        pools = IncrementalPools(np.array([0, 0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            pools.pick(0, np.array([0.5]))
