"""Experiment runner: regenerate every table and figure in one go.

Usage (module CLI)::

    python -m repro.experiments                 # all artifacts, default world
    python -m repro.experiments --users 30000 --seed 11 table1 fig3

The runner performs exactly one study (world + crawl + analyses) and
renders the requested artifacts from it.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

from repro.core.compare import compare_results
from repro.core.pipeline import MeasurementStudy, StudyConfig, StudyResults
from repro.obs import RUN_REPORT_FILENAME, RunReport, build_report, get_registry, trace

from .registry import EXPERIMENTS
from .render import format_table


def run_experiments(
    results: StudyResults, artifact_ids: Iterable[str] | None = None
) -> dict[str, str]:
    """Render the requested artifacts (all when none named)."""
    ids = list(artifact_ids) if artifact_ids else list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown artifacts: {unknown}; known: {sorted(EXPERIMENTS)}")
    return {i: EXPERIMENTS[i].render(results) for i in ids}


def save_artifacts(
    results: StudyResults,
    directory: str | Path,
    artifact_ids: Iterable[str] | None = None,
) -> list[Path]:
    """Render artifacts to ``<directory>/<id>.txt``; returns the paths."""
    return write_artifacts(run_experiments(results, artifact_ids), directory)


def write_artifacts(artifacts: dict[str, str], directory: str | Path) -> list[Path]:
    """Write already-rendered artifacts to ``<directory>/<id>.txt``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for artifact_id, text in artifacts.items():
        path = directory / f"{artifact_id}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        written.append(path)
    return written


def build_study_report(results: StudyResults, live=None) -> RunReport:
    """Assemble the machine-readable record of one study run.

    Phases come from the global tracer, metrics from the global registry
    (both populated by the instrumented pipeline); coverage combines the
    crawl's accounting with the Section 2.2 lost-edge estimate.  When a
    :class:`~repro.obs.live.LiveTelemetry` rode along on the crawl, its
    final ``live`` section is embedded so the study report supersedes
    the streaming one.
    """
    lost = results.lost_edges
    coverage = {
        **vars(results.dataset.stats),
        "profiles": results.dataset.n_profiles,
        "edges": results.dataset.n_edges,
        "graph_nodes": results.graph.n,
        "lost_edges": {
            "capped_users": lost.capped_users,
            "declared_edges": lost.declared_edges,
            "collected_edges": lost.collected_edges,
            "missing_edges": lost.missing_edges,
            "lost_fraction": lost.lost_fraction,
            "display_limit": lost.display_limit,
        },
    }
    fig5 = results.fig5_paths
    table4 = results.table4_row
    extra = {
        # The Figure 5 distribution and the Table 4 diameters ride along
        # verbatim so runs with different BFS worker counts can be
        # diffed for bit-identity (the CI analysis-parallel job does
        # exactly that).
        "fig5_paths": {
            "directed": {
                "counts": fig5.directed.counts.tolist(),
                "n_sources": fig5.directed.n_sources,
            },
            "undirected": {
                "counts": fig5.undirected.counts.tolist(),
                "n_sources": fig5.undirected.n_sources,
            },
        },
        "table4_diameters": {
            "directed": table4.diameter,
            "undirected": table4.undirected_diameter,
        },
        "path_workers": results.config.path_workers,
        # Peak RSS (MB) at the end of each study.* stage, in stage order.
        "stage_peak_rss_mb": results.extras.get("stage_peak_rss_mb", {}),
    }
    if live is not None:
        extra["live"] = live.live_section()
    return build_report(
        kind="study", config=asdict(results.config), coverage=coverage, extra=extra
    )


def save_run_report(
    results: StudyResults, directory: str | Path | None = None, live=None
) -> Path:
    """Write ``run_report.json`` into ``directory`` (default: cwd)."""
    directory = Path(directory) if directory is not None else Path(".")
    return build_study_report(results, live=live).write(
        directory / RUN_REPORT_FILENAME
    )


def render_comparison_table(results: StudyResults) -> str:
    """The paper-vs-measured summary (EXPERIMENTS.md material)."""
    rows = []
    for comparison in compare_results(results):
        rows.append(
            (
                comparison.artifact,
                comparison.metric,
                f"{comparison.paper:.4g}",
                f"{comparison.measured:.4g}",
                "scale" if comparison.scale_sensitive else "",
                comparison.shape_note,
            )
        )
    return format_table(
        ["Artifact", "Metric", "Paper", "Measured", "", "Note"],
        rows,
        title="Paper vs measured",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("artifacts", nargs="*", help="artifact ids (default: all)")
    parser.add_argument("--users", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--path-workers", type=int, default=1, metavar="N",
        help="worker processes for the batched BFS analysis engine "
        "(default 1 = in-process; results are identical for any N)",
    )
    parser.add_argument(
        "--engine", choices=("reference", "fast"), default="reference",
        help="world generation engine: 'reference' is the bit-stable "
        "sequential original, 'fast' the vectorized statistically "
        "equivalent engine (see docs/synth.md)",
    )
    parser.add_argument(
        "--compare", action="store_true",
        help="also print the paper-vs-measured summary table",
    )
    parser.add_argument(
        "--save", metavar="DIR", default=None,
        help="also write each artifact to DIR/<id>.txt",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="write run_report.json (config, per-phase wall+virtual timings, "
        "metric snapshot, crawl coverage) next to the artifacts",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="stream live telemetry into run_report.json during the crawl "
        "(render with `python -m repro.obs.live`; implies continuous "
        "rewrites of the report while crawling)",
    )
    args = parser.parse_args(argv)
    if args.report or args.live:
        # The report should describe this run only, not whatever the
        # process accumulated before it.
        get_registry().reset()
        trace.get_tracer().reset()
    study = MeasurementStudy(
        StudyConfig(
            n_users=args.users,
            seed=args.seed,
            path_workers=args.path_workers,
            engine=args.engine,
        )
    )
    telemetry = None
    if args.live:
        from repro.obs.live import LiveTelemetry

        live_dir = Path(args.save) if args.save else Path(".")
        live_dir.mkdir(parents=True, exist_ok=True)
        telemetry = LiveTelemetry(
            live_dir / RUN_REPORT_FILENAME,
            config={"users": args.users, "seed": args.seed, "engine": args.engine},
        )
    results = study.run(hooks=telemetry)
    artifacts = run_experiments(results, args.artifacts or None)
    for artifact_id, text in artifacts.items():
        print(f"\n=== {artifact_id}: {EXPERIMENTS[artifact_id].title} ===")
        print(text)
    if args.compare:
        print()
        print(render_comparison_table(results))
    if args.save:
        written = write_artifacts(artifacts, args.save)
        print(f"\nwrote {len(written)} artifacts to {args.save}")
    if args.report or args.live:
        report_path = save_run_report(results, args.save, live=telemetry)
        print(f"\nwrote run report to {report_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
