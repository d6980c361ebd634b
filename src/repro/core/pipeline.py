"""The measurement study pipeline — the library's primary entry point.

:class:`MeasurementStudy` replays the paper end to end:

1. build (or accept) a synthetic Google+ world,
2. crawl it bidirectionally over the simulated HTTP front end,
3. freeze the crawl into the social graph ``G(V, E)``,
4. resolve the located users,
5. run every analysis of Sections 3 and 4,
6. with the generating world at hand, run the Section 7 extensions
   (growth snapshots and content diffusion) as data beside it.

The study only reads the world: every artifact renders from the
returned :class:`StudyResults`.

Typical use::

    from repro.core import MeasurementStudy, StudyConfig

    study = MeasurementStudy(StudyConfig(n_users=20_000, seed=7))
    results = study.run()
    print(results.table4_row)

The paper crawled 27.5M of the ~35M users it discovered (and stopped
there); ``crawl_fraction`` reproduces that partial-coverage situation,
which is what gives the graph its fringe of uncrawled nodes and the SCC
decomposition its singleton tail.
"""

from __future__ import annotations

import resource
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.analysis.attributes import attribute_availability, AttributeAvailability
from repro.analysis.distancefx import (
    analyze_country_path_miles,
    analyze_path_miles,
    CountryPathMiles,
    PathMileAnalysis,
)
from repro.analysis.diffusion import analyze_diffusion, DiffusionAnalysis
from repro.analysis.geo_dist import (
    CountryShare,
    penetration_analysis,
    PenetrationAnalysis,
    top_countries,
)
from repro.analysis.growth import analyze_growth, GrowthAnalysis
from repro.analysis.linkgeo import analyze_link_geography, LinkGeographyAnalysis
from repro.analysis.openness import openness_by_country, OpennessAnalysis
from repro.analysis.structure import (
    analyze_clustering,
    analyze_degrees,
    analyze_path_lengths,
    analyze_reciprocity,
    analyze_sccs,
    ClusteringAnalysis,
    DegreeAnalysis,
    google_plus_table4_row,
    PathLengthAnalysis,
    ReciprocityAnalysis,
    SCCAnalysis,
)
from repro.analysis.tel_users import (
    compare_tel_users,
    fields_shared_ccdfs,
    FieldsSharedCCDFs,
    TelUserComparison,
)
from repro.analysis.top_users import (
    CountryTopRow,
    top_occupations_by_country,
    top_users_by_in_degree,
    TopUser,
)
from repro.crawler.bfs import BidirectionalBFSCrawler, CrawlConfig
from repro.crawler.dataset import CrawlDataset
from repro.crawler.lost_edges import estimate_lost_edges, LostEdgeEstimate
from repro.geo.index import build_geo_index, GeoIndex, locate_edges
from repro.graph.csr import CSRGraph
from repro.graph.parallel import BFSEngine
from repro.obs import trace
from repro.graph.stats import GraphSummary
from repro.synth.activity import simulate_activity
from repro.synth.countries import TOP10_CODES
from repro.synth.growth import build_timeline
from repro.synth.world import build_world, SyntheticWorld, WorldConfig


@dataclass(frozen=True)
class StudyConfig:
    """End-to-end study configuration."""

    n_users: int = 20_000
    seed: int = 7
    #: Fraction of discovered users actually crawled before stopping.
    #: The paper fetched 27.5M of ~35M discovered (≈ 0.78).
    crawl_fraction: float = 0.78
    n_machines: int = 11
    #: BFS path-length sampling bounds (the paper used 2,000 → 10,000 out
    #: of 35M nodes; proportionally we need far fewer sources).
    path_sample_start: int = 300
    path_sample_max: int = 1_200
    #: Maximum pairs per population for the path-mile analysis.
    path_mile_pairs: int = 200_000
    #: Worker processes for the batched BFS analysis engine (Figure 5,
    #: Table 4 diameters). 1 = in-process; results are identical for any
    #: worker count (see ``docs/analysis.md``).
    path_workers: int = 1
    #: World generation engine: "reference" (bit-stable sequential) or
    #: "fast" (vectorized, statistically equivalent — see docs/synth.md).
    engine: str = "reference"
    world: WorldConfig | None = None

    def world_config(self) -> WorldConfig:
        if self.world is not None:
            return self.world
        return WorldConfig(n_users=self.n_users, seed=self.seed, engine=self.engine)


@dataclass
class StudyResults:
    """Every artifact of the paper, computed from one crawl."""

    config: StudyConfig
    dataset: CrawlDataset
    graph: CSRGraph
    geo: GeoIndex
    # Section 3.
    table1_top_users: list[TopUser]
    table2_attributes: list[AttributeAvailability]
    table3_tel_users: TelUserComparison
    table4_row: GraphSummary
    fig2_fields: FieldsSharedCCDFs
    fig3_degrees: DegreeAnalysis
    fig4a_reciprocity: ReciprocityAnalysis
    fig4b_clustering: ClusteringAnalysis
    fig4c_sccs: SCCAnalysis
    fig5_paths: PathLengthAnalysis
    lost_edges: LostEdgeEstimate
    # Section 4.
    fig6_countries: list[CountryShare]
    fig7_penetration: PenetrationAnalysis
    fig8_openness: OpennessAnalysis
    fig9a_path_miles: PathMileAnalysis
    fig9b_country_miles: CountryPathMiles
    fig10_links: LinkGeographyAnalysis
    table5_occupations: list[CountryTopRow]
    extras: dict = dataclass_field(default_factory=dict)
    # Section 7 extensions; None when the dataset has no generating world.
    growth: GrowthAnalysis | None = None
    diffusion: DiffusionAnalysis | None = None


def _peak_rss_mb() -> float:
    """This process's peak resident set so far (``ru_maxrss``), in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


@contextmanager
def _stage(peaks: dict, name: str, **attributes):
    """Run a study stage under its span; record the peak RSS at its end."""
    with trace.span(name, **attributes):
        yield
    peaks[name] = _peak_rss_mb()


class MeasurementStudy:
    """Orchestrates world → crawl → graph → analyses."""

    def __init__(self, config: StudyConfig | None = None):
        self.config = config if config is not None else StudyConfig()
        self._world: SyntheticWorld | None = None

    @property
    def world(self) -> SyntheticWorld:
        if self._world is None:
            with trace.span("study.build_world"):
                self._world = build_world(self.config.world_config())
        return self._world

    def crawl(self, hooks=None) -> CrawlDataset:
        """Run the bidirectional BFS crawl over the world's front end.

        ``hooks`` (a :class:`~repro.crawler.bfs.CrawlHooks`, e.g. a
        :class:`~repro.obs.live.LiveTelemetry`) observes the crawl as it
        runs; ``None`` keeps the plain in-memory behaviour.
        """
        world = self.world
        max_pages = None
        if self.config.crawl_fraction < 1.0:
            max_pages = int(world.n_users * self.config.crawl_fraction)
        crawler = BidirectionalBFSCrawler(
            world.frontend(),
            CrawlConfig(n_machines=self.config.n_machines, max_pages=max_pages),
        )
        with trace.span("study.crawl", machines=self.config.n_machines):
            return crawler.crawl([world.seed_user_id()], hooks=hooks)

    def run(
        self, dataset: CrawlDataset | None = None, hooks=None
    ) -> StudyResults:
        """Crawl (unless given a dataset) and compute every artifact.

        Each pipeline phase runs under its own span, so a run report can
        show where wall time (and, for the crawl, virtual time) went, and
        ``extras["stage_peak_rss_mb"]`` holds the process's peak RSS at
        the end of each stage.  ``hooks`` is forwarded to :meth:`crawl`
        (ignored with a dataset).
        """
        config = self.config
        peaks: dict[str, float] = {}
        if dataset is None:
            dataset = self.crawl(hooks=hooks)
            peaks["study.crawl"] = _peak_rss_mb()
        world = self._world  # populated by .crawl(); None for foreign datasets
        with _stage(peaks, "study.freeze_graph"):
            graph = dataset.to_csr()
        with _stage(peaks, "study.geo_index"):
            geo = build_geo_index(dataset)
        rng = np.random.default_rng(config.seed + 1)
        top10 = list(TOP10_CODES)
        engine = BFSEngine(graph, n_workers=config.path_workers)
        try:
            with _stage(peaks, "study.analyze.paths", workers=config.path_workers):
                fig5 = analyze_path_lengths(
                    graph,
                    rng,
                    initial_k=config.path_sample_start,
                    max_k=config.path_sample_max,
                    engine=engine,
                )
            with _stage(peaks, "study.analyze.structure"):
                fig4c_sccs = analyze_sccs(graph)
                fig4a_reciprocity = analyze_reciprocity(graph)
                table4_row = google_plus_table4_row(
                    graph,
                    rng,
                    path_samples=config.path_sample_max,
                    paths=fig5,
                    sccs=fig4c_sccs,
                    reciprocity=fig4a_reciprocity,
                    engine=engine,
                )
                fig3_degrees = analyze_degrees(graph)
                fig4b_clustering = analyze_clustering(graph, rng)
        finally:
            engine.close()
        with _stage(peaks, "study.analyze.profiles"):
            table1_top_users = top_users_by_in_degree(dataset, graph, k=20)
            table2_attributes = attribute_availability(dataset)
            table3_tel_users = compare_tel_users(dataset, geo)
            fig2_fields = fields_shared_ccdfs(dataset)
            lost_edges = estimate_lost_edges(dataset)
        with _stage(peaks, "study.analyze.geography"):
            fig6_countries = top_countries(geo, k=10)
            fig7_penetration = penetration_analysis(geo)
            fig8_openness = openness_by_country(dataset, geo, top10)
            # One located-edge table feeds Figures 9a, 9b and 10.
            located = locate_edges(dataset, geo)
            fig9a_path_miles = analyze_path_miles(
                dataset, geo, rng, max_pairs=config.path_mile_pairs, edges=located
            )
            fig9b_country_miles = analyze_country_path_miles(
                dataset, geo, top10, edges=located
            )
            fig10_links = analyze_link_geography(dataset, geo, top10, edges=located)
            table5_occupations = top_occupations_by_country(
                dataset, graph, geo, top10
            )
        growth = diffusion = None
        if world is not None:
            with _stage(peaks, "study.analyze.growth"):
                growth = growth_stage(world)
            with _stage(peaks, "study.analyze.diffusion"):
                diffusion = diffusion_stage(world)
        return StudyResults(
            config=config,
            dataset=dataset,
            graph=graph,
            geo=geo,
            table1_top_users=table1_top_users,
            table2_attributes=table2_attributes,
            table3_tel_users=table3_tel_users,
            table4_row=table4_row,
            fig2_fields=fig2_fields,
            fig3_degrees=fig3_degrees,
            fig4a_reciprocity=fig4a_reciprocity,
            fig4b_clustering=fig4b_clustering,
            fig4c_sccs=fig4c_sccs,
            fig5_paths=fig5,
            lost_edges=lost_edges,
            fig6_countries=fig6_countries,
            fig7_penetration=fig7_penetration,
            fig8_openness=fig8_openness,
            fig9a_path_miles=fig9a_path_miles,
            fig9b_country_miles=fig9b_country_miles,
            fig10_links=fig10_links,
            table5_occupations=table5_occupations,
            extras={"world": world, "stage_peak_rss_mb": peaks},
            growth=growth,
            diffusion=diffusion,
        )


def growth_stage(world: SyntheticWorld) -> GrowthAnalysis:
    """Section 7 growth: topology snapshots along the world's adoption
    arc (own seeds, so it draws nothing from the study's stream)."""
    timeline = build_timeline(
        world.graph, world.config.field_trial_fraction, seed=world.config.seed + 7
    )
    return analyze_growth(
        timeline, seed=world.config.seed + 8, n_snapshots=6, path_samples=120
    )


def diffusion_stage(world: SyntheticWorld) -> DiffusionAnalysis:
    """Section 7 diffusion: posting and reshare cascades over the
    world's circles, simulated as data (the service is only read)."""
    log = simulate_activity(world, seed=world.config.seed + 9, max_users=10_000)
    return analyze_diffusion(log, world.population, countries=list(TOP10_CODES))


def run_study(
    n_users: int = 20_000, seed: int = 7, **kwargs
) -> StudyResults:
    """One-call convenience: build, crawl, analyse."""
    return MeasurementStudy(StudyConfig(n_users=n_users, seed=seed, **kwargs)).run()
