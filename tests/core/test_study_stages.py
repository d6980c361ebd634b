"""The study computes every artifact once and leaves its world untouched.

Growth and diffusion run as study stages (their results are
``StudyResults`` fields), the SCC decomposition is shared by Figure 4c
and Table 4, and rendering only formats: a study plus a full render
writes nothing into the world's service, and rendering twice gives the
same text.
"""

import pytest

from repro.core import MeasurementStudy, StudyConfig
from repro.experiments import run_experiments
from repro.graph import components
from repro.obs import trace
from repro.obs.metrics import Registry
from repro.obs.trace import Tracer
from repro.serve.cache import page_to_bytes

PAGE_SAMPLE = range(0, 1_500, 7)


def _config() -> StudyConfig:
    return StudyConfig(
        n_users=1_500,
        seed=3,
        engine="fast",
        path_sample_start=60,
        path_sample_max=120,
        path_mile_pairs=2_000,
    )


def _served_state(service) -> tuple:
    notes = [
        [(n.kind, n.actor_id, n.subject_id) for n in service.notifications(uid)]
        for uid in service.user_ids()
    ]
    pages = []
    for uid in PAGE_SAMPLE:
        followers = service.followers(uid)
        for viewer in (None, uid, *followers[:2]):
            pages.append(page_to_bytes(service.profile_page(uid, viewer)))
    return notes, pages


@pytest.fixture(scope="module")
def study_run(monkeypatch_module):
    """One study plus a full render, with SCC passes counted and spans
    recorded by a private tracer."""
    scc_calls = []
    real = components.strongly_connected_components

    def counting(graph):
        scc_calls.append(graph.n)
        return real(graph)

    for module in ("repro.graph.stats", "repro.analysis.structure"):
        monkeypatch_module.setattr(f"{module}.strongly_connected_components", counting)
    old_tracer = trace.get_tracer()
    tracer = Tracer(registry=Registry(enabled=True))
    trace.set_tracer(tracer)
    try:
        study = MeasurementStudy(_config())
        world = study.world
        before = _served_state(world.service)
        results = study.run()
        first = run_experiments(results)
        second = run_experiments(results)
    finally:
        trace.set_tracer(old_tracer)
    return {
        "world": world,
        "before": before,
        "results": results,
        "renders": (first, second),
        "scc_calls": scc_calls,
        "spans": {stats.name for stats in tracer.summary()},
    }


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as patch:
        yield patch


def test_service_holds_no_posts(study_run):
    service = study_run["world"].service
    assert not service._posts
    assert all(not service.stream_for(uid) for uid in PAGE_SAMPLE)


def test_feeds_and_pages_unchanged(study_run):
    assert _served_state(study_run["world"].service) == study_run["before"]


def test_rendering_twice_gives_identical_text(study_run):
    first, second = study_run["renders"]
    assert len(first) == 20
    assert first == second


def test_extensions_are_study_results(study_run):
    results = study_run["results"]
    assert results.growth is not None and results.growth.snapshots
    assert results.diffusion is not None and len(results.diffusion.cascade_sizes)
    assert {"study.analyze.growth", "study.analyze.diffusion"} <= study_run["spans"]


def test_one_scc_pass_per_study(study_run):
    assert study_run["scc_calls"] == [study_run["results"].graph.n]
    results = study_run["results"]
    assert results.table4_row.n_sccs == results.fig4c_sccs.n_components
    assert results.table4_row.giant_scc_fraction == results.fig4c_sccs.giant_fraction


def test_foreign_dataset_has_no_extensions(small_crawl):
    config = StudyConfig(
        n_users=2_500,
        seed=13,
        path_sample_start=40,
        path_sample_max=80,
        path_mile_pairs=1_000,
    )
    results = MeasurementStudy(config).run(dataset=small_crawl)
    assert results.growth is None and results.diffusion is None
    artifacts = run_experiments(results, ["ext_growth", "ext_diffusion"])
    assert all("not available" in text for text in artifacts.values())
