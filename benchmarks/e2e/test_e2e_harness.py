"""Tests of the end-to-end benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import types

import pytest

import run
from layers import LayerTracer, per_layer_units
from summary import IMPROVED, REGRESSED, UNRESOLVED, WITHIN, percentile, verdict
from workloads import (
    SEED_STRIDE,
    WORKLOADS,
    crawl_coverage_problems,
    crawl_seed_visible,
    setup,
)


def _benchmark() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- tracer --------------------------------------------------------------------


def _fake_layers():
    """outer() calls inner() twice through a module-like namespace."""
    fake = types.SimpleNamespace()

    def inner(n):
        return sum(range(n))

    def outer():
        return fake.inner(20_000) + fake.inner(30_000)

    fake.inner, fake.outer = inner, outer
    return fake


def test_self_time_excludes_nested_spans_and_sums_to_root_wall():
    fake = _fake_layers()
    tracer = LayerTracer()
    tracer.wrap(fake, "inner", "inner")
    tracer.wrap(fake, "outer", "outer")
    with tracer.span("root"):
        fake.outer()
    (_, root_wall, root_self), (_, outer_wall, outer_self), (inner_count, inner_wall, _) = (
        tracer.stats[name] for name in ("root", "outer", "inner")
    )
    assert inner_count == 2
    assert outer_self == pytest.approx(outer_wall - inner_wall, abs=1e-12)
    assert root_self == pytest.approx(root_wall - outer_wall, abs=1e-12)
    total_self = sum(row[2] for row in tracer.stats.values())
    assert total_self == pytest.approx(root_wall, abs=1e-12)


def test_unwrap_restores_originals_by_identity():
    class Layer:
        def call(self):
            return "class"

    module = types.SimpleNamespace(function=lambda: "module")
    instance = Layer()
    originals = (vars(Layer)["call"], module.function)
    tracer = LayerTracer()
    tracer.wrap(Layer, "call", "class")
    tracer.wrap(module, "function", "module")
    tracer.wrap(instance, "call", "instance")
    assert instance.call() == "class" and module.function() == "module"
    assert tracer.stats["class"][0] == 1 and tracer.stats["instance"][0] == 1
    tracer.unwrap()
    assert vars(Layer)["call"] is originals[0]
    assert module.function is originals[1]
    assert "call" not in vars(instance)


def test_wrapped_context_unwraps_on_error_and_lists_missing_targets():
    import repro.crawler.bfs as bfs

    original = bfs.parse_profile_page
    tracer = LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer.wrapped(
            {
                "parse": "repro.crawler.bfs:parse_profile_page",
                "gone": "repro.crawler.bfs:no_such_function",
                "gone.module": "repro.no_such_module:f",
            }
        ):
            assert bfs.parse_profile_page is not original
            raise RuntimeError("job failed")
    assert bfs.parse_profile_page is original
    assert tracer.missing == [
        "repro.crawler.bfs:no_such_function",
        "repro.no_such_module:f",
    ]


# -- percentiles and verdicts --------------------------------------------------


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert percentile(range(1000), 99) == pytest.approx(989.01)
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    assert percentile(range(20), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile(range(19), 50)


def _runs(median: float, half_range: float, n: int = 10) -> list[float]:
    """``n`` runs spread evenly over ``median`` +/- ``half_range``."""
    step = 2 * half_range / (n - 1)
    return [median - half_range + i * step for i in range(n)]


@pytest.mark.parametrize(
    "base, new, better, expected",
    [
        # Tight runs, same level: within the 10% bound.
        (_runs(100, 1), _runs(100, 1), "lower", WITHIN),
        # Tight runs, 5% worse: still within the bound.
        (_runs(100, 1), _runs(105, 1), "lower", WITHIN),
        # Tight runs, 20% worse.
        (_runs(100, 1), _runs(120, 1), "lower", REGRESSED),
        # Tight runs, 20% better, every pair won.
        (_runs(100, 1), _runs(80, 1), "lower", IMPROVED),
        # The same gain on three pairs is too few runs to claim.
        (_runs(100, 1, 3), _runs(80, 1, 3), "lower", WITHIN),
        # Better by less than the base's own spread: not a gain.
        (_runs(100, 4), _runs(98, 4), "lower", WITHIN),
        # Spread wider than the bound, overlapping: unresolved.
        (_runs(100, 30), _runs(110, 30), "lower", UNRESOLVED),
        # Spread wider than the bound, but every new run beats every base.
        (_runs(100, 30), _runs(30, 10), "lower", IMPROVED),
        # ...or every base run beats every new run.
        (_runs(100, 30), _runs(180, 40), "lower", REGRESSED),
        # Higher is better: a 20% drop regresses, a 20% rise improves.
        (_runs(100, 1), _runs(80, 1), "higher", REGRESSED),
        (_runs(100, 1), _runs(120, 1), "higher", IMPROVED),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert verdict(base, new, 0.10, better) == expected


def test_compare_rows_cover_every_workload_and_end_to_end_metric():
    names = [m["name"] for m in _benchmark()["end_to_end"]]

    def document(scale):
        return {
            "runs": [
                {
                    "workload": w,
                    "result": {
                        "correct": True,
                        "metrics": {n: {"value": scale * (1 + r / 100)} for n in names},
                    },
                }
                for w in ("a", "b")
                for r in range(3)
            ]
        }

    rows = run.compare(document(1.0), document(1.0))
    assert [(row["workload"], row["metric"]) for row in rows] == [
        (w, n) for w in ("a", "b") for n in names
    ]
    assert {row["verdict"] for row in rows} == {WITHIN}


# -- the benchmark's contract ----------------------------------------------------


def test_benchmark_json_lists_every_per_layer_metric():
    declared = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    assert declared == per_layer_units()
    assert set(WORKLOADS) == {w["name"] for w in _benchmark()["workloads"]}


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_emits_every_metric_and_passes_its_checks(workload, traced):
    record = run.run_one(workload, seed=5, seconds=0, traced=traced, n_users=3_000)
    kind = "per_layer" if traced else "end_to_end"
    assert record["problems"] == []
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()[kind]}
    if traced:
        assert record["detail"]["missing"] == []
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_setup_skips_a_seed_whose_crawl_seed_hides_its_lists():
    from repro.synth import build_world

    def make(config):
        world = build_world(config)
        return world, world

    # At 3,000 users, world seed 38 puts the crawl seed behind hidden lists.
    world, times, world_seed, _ = setup(3_000, 38, make)
    assert world_seed == 38 + SEED_STRIDE
    assert crawl_seed_visible(world) and len(times) == 3


def test_coverage_check_rejects_the_100k_seed_7_world_by_name():
    from repro.core.pipeline import MeasurementStudy, StudyConfig
    from workloads import world_config

    study = MeasurementStudy(StudyConfig(world=world_config(100_000, 7), seed=7))
    assert not crawl_seed_visible(study.world)
    dataset = study.crawl()
    cap = int(100_000 * study.config.crawl_fraction)
    problems = crawl_coverage_problems(dataset, cap, 7)
    assert len(problems) == 1 and "world seed 7" in problems[0]
    assert f"{dataset.n_profiles} of its {cap}-page cap" in problems[0]
