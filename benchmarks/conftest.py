"""Shared fixtures for the benchmark harness.

One bench-scale world (larger than the test worlds) is built and crawled
once per session; every per-artifact bench times its *analysis* stage on
that shared crawl and writes the rendered artifact (the same rows/series
the paper reports) to ``benchmarks/output/<artifact>.txt``.

The harness also records every bench's wall time: each ``bench_<name>``
module gets a ``benchmarks/output/BENCH_<name>.json`` run report (see
:mod:`repro.obs.report`), so the perf trajectory of each artifact is
tracked file-by-file across PRs.  A report's metrics are those recorded
while its own module's benches ran: the registry is reset before each
bench and its snapshot folded into the module's afterwards, so neither
session fixtures (the shared study) nor other modules leak in.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import MeasurementStudy, StudyConfig, StudyResults
from repro.experiments.registry import EXPERIMENTS
from repro.obs import RunReport, get_registry

#: Bench world scale; large enough for stable per-country statistics.
BENCH_USERS = 12_000
BENCH_SEED = 7

OUTPUT_DIR = Path(__file__).parent / "output"


#: Per-module bench timings collected as run-report phase records.
_BENCH_PHASES: dict[str, list[dict]] = {}

#: Per-module world config stamped into each report: the module's own
#: ``USERS``/``SEED`` where it defines them, else the shared bench world.
_BENCH_CONFIG: dict[str, dict] = {}

#: Free-form per-module payloads merged into each report's ``extra``
#: (e.g. the fig5 bench records its sequential-vs-parallel speedup).
_BENCH_EXTRA: dict[str, dict] = {}

#: Per-module registry snapshot of the metrics its benches recorded.
_BENCH_METRICS: dict[str, dict] = {}


def _merge_sample(kind: str, held: dict, new: dict) -> dict:
    """One series recorded over two benches: counters and histograms
    add up, a gauge keeps its latest value."""
    if kind == "gauge":
        return new
    if kind == "counter":
        return held + new
    extremes = [v for v in (held["min"], new["min"]) if v is not None]
    peaks = [v for v in (held["max"], new["max"]) if v is not None]
    return {
        **new,
        "count": held["count"] + new["count"],
        "sum": held["sum"] + new["sum"],
        "min": min(extremes, default=None),
        "max": max(peaks, default=None),
        "cumulative_counts": [
            a + b for a, b in zip(held["cumulative_counts"], new["cumulative_counts"])
        ],
    }


def _merge_snapshots(held: dict | None, new: dict) -> dict:
    """Fold registry snapshot ``new`` into a module's ``held`` one."""
    if held is None:
        return new
    metrics = {metric["name"]: metric for metric in held["metrics"]}
    for metric in new["metrics"]:
        previous = metrics.setdefault(metric["name"], metric)
        if previous is metric:
            continue
        series = {tuple(s["labels"].values()): s for s in previous["samples"]}
        for sample in metric["samples"]:
            key = tuple(sample["labels"].values())
            if key in series:
                sample = {
                    "labels": sample["labels"],
                    "value": _merge_sample(
                        metric["kind"], series[key]["value"], sample["value"]
                    ),
                }
            series[key] = sample
        previous["samples"] = [series[key] for key in sorted(series)]
    return {**new, "metrics": [metrics[name] for name in sorted(metrics)]}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Time every bench and collect it as a run-report phase, with the
    metrics it recorded."""
    module = Path(str(item.fspath)).stem
    is_bench = module.startswith("bench_")
    if is_bench:
        get_registry().reset()
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    if is_bench:
        _BENCH_METRICS[module] = _merge_snapshots(
            _BENCH_METRICS.get(module), get_registry().snapshot()
        )
        _BENCH_CONFIG[module] = {
            "users": getattr(item.module, "USERS", BENCH_USERS),
            "seed": getattr(item.module, "SEED", BENCH_SEED),
        }
        _BENCH_PHASES.setdefault(module, []).append(
            {
                "name": item.name,
                "path": item.name,
                "count": 1,
                "wall_seconds": elapsed,
                "virtual_seconds": 0.0,
            }
        )


def pytest_sessionfinish(session, exitstatus):
    """Write one BENCH_<name>.json run report per bench module."""
    if not _BENCH_PHASES:
        return
    OUTPUT_DIR.mkdir(exist_ok=True)
    for module, phases in sorted(_BENCH_PHASES.items()):
        report = RunReport(
            kind="bench",
            config={"module": module, **_BENCH_CONFIG[module]},
            phases=phases,
            metrics=_BENCH_METRICS[module],
            extra=_BENCH_EXTRA.get(module, {}),
        )
        report.write(OUTPUT_DIR / f"BENCH_{module.removeprefix('bench_')}.json")


@pytest.fixture(scope="session")
def bench_config() -> StudyConfig:
    return StudyConfig(
        n_users=BENCH_USERS,
        seed=BENCH_SEED,
        path_sample_start=300,
        path_sample_max=1_000,
        path_mile_pairs=150_000,
    )


@pytest.fixture(scope="session")
def bench_study(bench_config) -> MeasurementStudy:
    return MeasurementStudy(bench_config)


@pytest.fixture(scope="session")
def bench_dataset(bench_study):
    return bench_study.crawl()


@pytest.fixture(scope="session")
def bench_graph(bench_dataset):
    return bench_dataset.to_csr()


@pytest.fixture(scope="session")
def bench_geo(bench_dataset):
    from repro.geo.index import build_geo_index

    return build_geo_index(bench_dataset)


@pytest.fixture(scope="session")
def bench_results(bench_study, bench_dataset) -> StudyResults:
    """Full study results over the shared crawl (computed once)."""
    return bench_study.run(dataset=bench_dataset)


@pytest.fixture(scope="session")
def bench_rng():
    return np.random.default_rng(99)


@pytest.fixture
def bench_extra(request):
    """Record a payload into this bench module's BENCH_<name>.json extra."""
    module = Path(str(request.fspath)).stem

    def record(**payload) -> None:
        _BENCH_EXTRA.setdefault(module, {}).update(payload)

    return record


@pytest.fixture(scope="session")
def artifact_sink():
    """Writes rendered artifacts to benchmarks/output/ for inspection."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def write(artifact_id: str, results: StudyResults) -> str:
        text = EXPERIMENTS[artifact_id].render(results)
        (OUTPUT_DIR / f"{artifact_id}.txt").write_text(text + "\n")
        return text

    return write
