"""Registry of the paper's evaluation artifacts.

One entry per table/figure (plus the Section 2.2 methodology check).
Each renderer turns a :class:`~repro.core.pipeline.StudyResults` into the
text form of the artifact — the same rows/series the paper reports —
with the paper's reference numbers printed alongside.  Renderers only
format: every number they print was computed by the study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.paper_tables import GooglePlusPaper as P, TABLE4_ROWS
from repro.core.pipeline import StudyResults
from repro.graph.degree import cdf
from repro.synth.growth import OPEN_SIGNUP_DAY

from .render import (
    AsciiPlot,
    format_number,
    format_table,
    percent,
    render_ccdf_plot,
)


@dataclass(frozen=True)
class Experiment:
    """One reproducible artifact."""

    artifact_id: str
    title: str
    section: str
    render: Callable[[StudyResults], str]


def _table1(r: StudyResults) -> str:
    rows = [
        (u.rank, u.name, u.about, format_number(u.in_degree))
        for u in r.table1_top_users
    ]
    it_count = sum(
        1 for u in r.table1_top_users if u.occupation and u.occupation.value == "IT"
    )
    table = format_table(
        ["Rank", "Name", "About", "In-degree"],
        rows,
        title="Table 1: Top 20 users ranked by in-degree",
    )
    return table + (
        f"\nIT-related users in top-20: {it_count}"
        f"  (paper: {P.TOP20_IT_COUNT} of 20)"
    )


def _table2(r: StudyResults) -> str:
    rows = [
        (a.label, format_number(a.available), f"{a.percent:.2f}")
        for a in r.table2_attributes
    ]
    return format_table(
        ["Attribute", "Available", "%"],
        rows,
        title="Table 2: Public attributes available",
    )


def _table3(r: StudyResults) -> str:
    t3 = r.table3_tel_users
    lines = [
        "Table 3: Information shared by all users and tel-users",
        f"Total: all={format_number(t3.n_all)}  tel={format_number(t3.n_tel)}"
        f"  (tel rate {percent(t3.tel_rate)}; paper {percent(P.TEL_USER_RATE)})",
    ]
    sections = [
        ("Gender", t3.gender_all, t3.gender_tel),
        ("Relationship", t3.relationship_all, t3.relationship_tel),
        ("Location", t3.location_all, t3.location_tel),
    ]
    for label, all_shares, tel_shares in sections:
        keys = list(all_shares.shares)
        rows = [
            (key, percent(all_shares.shares[key]), percent(tel_shares.shares.get(key, 0.0)))
            for key in keys
        ]
        lines.append("")
        lines.append(
            format_table(
                [f"{label} (N all={all_shares.total}, tel={tel_shares.total})",
                 "All users", "Tel-users"],
                rows,
            )
        )
    return "\n".join(lines)


def _table4(r: StudyResults) -> str:
    t4 = r.table4_row
    measured = (
        "Google+ (measured)",
        format_number(t4.n_nodes),
        format_number(t4.n_edges),
        f"{100 * r.dataset.n_profiles / t4.n_nodes:.0f}%",
        f"{t4.avg_path_length:.1f}",
        percent(t4.reciprocity, 0),
        t4.diameter,
        f"{t4.mean_in_degree:.1f}",
        f"{t4.mean_out_degree:.1f}",
    )
    rows = [measured]
    for row in TABLE4_ROWS:
        rows.append(
            (
                row.network + " (paper)",
                format_number(row.nodes),
                format_number(row.edges),
                f"{row.crawled_percent:.0f}%",
                f"{row.path_length:.1f}",
                f"{row.reciprocity_percent:.0f}%",
                row.diameter,
                "-" if row.mean_in_degree is None else f"{row.mean_in_degree:.1f}",
                "-" if row.mean_out_degree is None else f"{row.mean_out_degree:.2f}",
            )
        )
    return format_table(
        ["Network", "Nodes", "Edges", "% Crawled", "Path length",
         "Reciprocity", "Diameter", "In-degree", "Out-degree"],
        rows,
        title="Table 4: Topological comparison of OSNs",
    )


def _table5(r: StudyResults) -> str:
    rows = [
        (row.country, row.codes(), f"{row.jaccard_vs_us:.2f}")
        for row in r.table5_occupations
    ]
    return format_table(
        ["Country", "Profession codes of the top-10 users", "Jaccard"],
        rows,
        title="Table 5: Occupation-job title of the top users",
    )


def _fig2(r: StudyResults) -> str:
    f2 = r.fig2_fields
    plot = render_ccdf_plot(
        [
            (f2.all_users.x, f2.all_users.p, ".", "All users"),
            (f2.tel_users.x, f2.tel_users.p, "o", "Telephone users"),
        ],
        title="Figure 2: CCDF of #fields shared (contacts excluded)",
        x_log=False,
        y_log=False,
    )
    return plot + (
        f"\nsharing >6 fields: all={percent(f2.fraction_sharing_more_than(6, 'all'))}"
        f" (paper {percent(P.ALL_SHARE_MORE_THAN_6_FIELDS)}),"
        f" tel={percent(f2.fraction_sharing_more_than(6, 'tel'))}"
        f" (paper {percent(P.TEL_SHARE_MORE_THAN_6_FIELDS)})"
    )


def _fig3(r: StudyResults) -> str:
    f3 = r.fig3_degrees
    d = f3.distributions
    plot = render_ccdf_plot(
        [
            (d.in_ccdf.x, d.in_ccdf.p, "i", "Google+ In"),
            (d.out_ccdf.x, d.out_ccdf.p, "o", "Google+ Out"),
        ],
        title="Figure 3: Degree distributions (CCDF, log-log)",
    )
    return plot + (
        f"\nalpha_in={f3.in_fit.alpha:.2f} (R2={f3.in_fit.r_squared:.3f};"
        f" paper {P.ALPHA_IN} at R2={P.ALPHA_R_SQUARED})"
        f"  alpha_out={f3.out_fit.alpha:.2f} (paper {P.ALPHA_OUT})"
        f"\nout-degree cap at {f3.out_degree_cap}: "
        + ("knee visible" if f3.cap_knee_visible() else "below cap at this scale")
    )


def _fig4a(r: StudyResults) -> str:
    rr = r.fig4a_reciprocity
    x, p = cdf(rr.rr_values)
    plot = render_ccdf_plot(
        [(x, p, "+", "Google+ RR CDF")],
        title="Figure 4a: Relation Reciprocity distribution (CDF)",
        x_log=False,
        y_log=False,
    )
    return plot + (
        f"\nglobal reciprocity={percent(rr.global_reciprocity)}"
        f" (paper {percent(P.GLOBAL_RECIPROCITY)};"
        f" Twitter {percent(P.TWITTER_RECIPROCITY)})"
        f"\nRR > 0.6: {percent(rr.fraction_rr_above(0.6))}"
        f" (paper >{percent(P.RR_ABOVE_06_FRACTION, 0)})"
    )


def _fig4b(r: StudyResults) -> str:
    cc = r.fig4b_clustering
    defined = cc.values[~np.isnan(cc.values)]
    x, p = cdf(defined)
    plot = render_ccdf_plot(
        [(x, p, "+", "Google+ CC CDF")],
        title="Figure 4b: Clustering coefficient distribution (CDF)",
        x_log=False,
        y_log=False,
    )
    return plot + (
        f"\nsampled nodes: {cc.sample_size} (paper sampled {format_number(P.CC_SAMPLE)})"
        f"\nCC > 0.2: {percent(cc.fraction_above(0.2))}"
        f" (paper {percent(P.CC_ABOVE_02_FRACTION, 0)}); mean CC {cc.mean:.3f}"
    )


def _fig4c(r: StudyResults) -> str:
    scc = r.fig4c_sccs
    sizes = scc.sizes()
    unique, counts = np.unique(sizes, return_counts=True)
    tail = np.cumsum(counts[::-1])[::-1] / len(sizes)
    plot = render_ccdf_plot(
        [(unique.astype(float), tail, "#", "SCC sizes")],
        title="Figure 4c: Size of the strongly connected components (CCDF)",
    )
    return plot + (
        f"\nSCCs: {format_number(scc.n_components)}"
        f" (paper {format_number(P.N_SCCS)});"
        f" giant SCC {percent(scc.giant_fraction)} of nodes"
        f" (paper ~{percent(P.GIANT_SCC_FRACTION, 0)})"
    )


def _fig5(r: StudyResults) -> str:
    f5 = r.fig5_paths
    pd_, pu = f5.directed, f5.undirected
    plot = AsciiPlot(
        x_log=False, y_log=False,
        title="Figure 5: Estimated path length distribution",
    )
    hops_d = np.arange(len(pd_.counts))
    hops_u = np.arange(len(pu.counts))
    plot.add_series(hops_d, pd_.probabilities(), "D", "Directed")
    plot.add_series(hops_u, pu.probabilities(), "U", "Undirected")
    return plot.render() + (
        f"\ndirected: mode={pd_.mode} mean={pd_.mean:.2f}"
        f" (paper mode {P.PATH_LENGTH_DIRECTED_MODE}, mean"
        f" {P.PATH_LENGTH_DIRECTED_MEAN}; scale-sensitive)"
        f"\nundirected: mode={pu.mode} mean={pu.mean:.2f}"
        f" (paper mode {P.PATH_LENGTH_UNDIRECTED_MODE}, mean"
        f" {P.PATH_LENGTH_UNDIRECTED_MEAN})"
        f"\nBFS sources used: {pd_.n_sources} (grown until stable, as Sec 3.3.5)"
    )


def _fig6(r: StudyResults) -> str:
    rows = [
        (share.code, format_number(share.users), f"{share.fraction:.3f}")
        for share in r.fig6_countries
    ]
    paper_note = ", ".join(
        f"{code}={frac:.3f}" for code, frac in P.TOP_COUNTRY_SHARES.items()
    )
    return (
        format_table(
            ["Country", "Located users", "Fraction"],
            rows,
            title="Figure 6: Top 10 countries with Google+ users",
        )
        + f"\npaper top-5 fractions: {paper_note}"
    )


def _fig7(r: StudyResults) -> str:
    f7 = r.fig7_penetration
    rows = [
        (
            p.code,
            p.region,
            format_number(p.gdp_per_capita),
            percent(p.internet_penetration, 0),
            format_number(p.gplus_users),
            f"{1e3 * p.gplus_penetration:.3f}",
        )
        for p in sorted(f7.points, key=lambda q: -q.gplus_penetration)
    ]
    return (
        format_table(
            ["Country", "Region", "GDP pc (PPP)", "Internet pen.",
             "G+ users", "GPR (per 1k netizens)"],
            rows,
            title="Figure 7: GDP per capita vs Google+/Internet penetration",
        )
        + f"\ncorr(GDP, IPR)={f7.ipr_gdp_correlation:.2f} (paper: linear)"
        + f"\ncorr(GDP, GPR)={f7.gpr_gdp_correlation:.2f} (paper: no trend;"
        + " India top, low-GDP countries on equal footing)"
    )


def _fig8(r: StudyResults) -> str:
    f8 = r.fig8_openness
    series = []
    markers = "IMUBGECTND"
    for marker, code in zip(markers, f8.by_country):
        curve = f8.by_country[code].curve
        series.append((curve.x, curve.p, marker, code))
    plot = render_ccdf_plot(
        series,
        title="Figure 8: CCDF of #fields shared per country",
        x_log=False,
        y_log=False,
    )
    rows = [
        (code, f"{f8.by_country[code].mean_fields:.2f}",
         percent(f8.by_country[code].fraction_sharing_more_than(10)))
        for code in f8.ranking()
    ]
    return (
        plot
        + "\n"
        + format_table(["Country", "Mean fields", ">10 fields"], rows)
        + f"\nmost conservative: {f8.most_conservative()}"
        + f" (paper: {P.MOST_CONSERVATIVE_COUNTRY});"
        + f" most open (paper): {' & '.join(P.MOST_OPEN_COUNTRIES)}"
    )


def _fig9(r: StudyResults) -> str:
    f9 = r.fig9a_path_miles
    samples = f9.samples
    series = []
    for values, marker, label in (
        (samples.random_pairs, "r", "Random"),
        (samples.friends, "f", "Friends"),
        (samples.reciprocal, "c", "Reciprocal"),
    ):
        if len(values) == 0:
            continue
        x, p = cdf(np.minimum(values, 12_000) / 1000.0)
        step = max(1, len(x) // 400)
        series.append((x[::step], p[::step], marker, label))
    plot = render_ccdf_plot(
        series,
        title="Figure 9a: Path-mile CDF (thousand miles)",
        x_log=False,
        y_log=False,
    )
    rows = [
        (code, format_number(r.fig9b_country_miles.average(code)),
         format_number(r.fig9b_country_miles.deviation(code)))
        for code in r.fig9b_country_miles.stats
    ]
    table = format_table(
        ["Country", "Avg path mile", "Std dev"],
        rows,
        title="Figure 9b: Average path mile per country",
    )
    return (
        plot
        + f"\nfriends within 1000 miles: {percent(f9.friends_within_1000mi())}"
        + f" (paper ~{percent(P.FRIENDS_WITHIN_1000_MILES, 0)});"
        + f" within 10 miles: {percent(f9.friends_within_10mi())}"
        + f" (paper ~{percent(P.FRIENDS_WITHIN_10_MILES, 0)})"
        + f"\nordering reciprocal<friends<random holds: {f9.ordering_holds()}"
        + "\n\n"
        + table
    )


def _fig10(r: StudyResults) -> str:
    graph = r.fig10_links.graph
    rows = []
    for source in graph.countries:
        weights = " ".join(
            f"{target}:{graph.weight(source, target):.2f}"
            for target in graph.countries
            if graph.weight(source, target) >= 0.01
        )
        paper_loop = P.SELF_LOOPS.get(source)
        rows.append(
            (
                source,
                f"{graph.self_loop(source):.2f}",
                "-" if paper_loop is None else f"{paper_loop:.2f}",
                weights,
            )
        )
    return (
        format_table(
            ["Country", "Self-loop", "Paper", "Out-links (weight >= 0.01)"],
            rows,
            title="Figure 10: Link distribution across the top countries",
        )
        + f"\nUS is the dominant cross-border sink: {r.fig10_links.us_is_dominant_sink()}"
        + f"\ninward looking (>0.5 self-loop): {r.fig10_links.inward_looking()}"
        + f"\noutward looking (<0.4): {r.fig10_links.outward_looking()}"
    )


def _methodology(r: StudyResults) -> str:
    lost = r.lost_edges
    stats = r.dataset.stats
    return "\n".join(
        [
            "Section 2.2: Crawl methodology accounting",
            f"profiles crawled: {format_number(r.dataset.n_profiles)}"
            f" of {format_number(r.graph.n)} discovered"
            f" ({percent(r.dataset.n_profiles / r.graph.n)})"
            f" [paper: {format_number(P.CRAWLED_PROFILES)} of"
            f" {format_number(P.GRAPH_NODES)}]",
            f"edges collected: {format_number(r.dataset.n_edges)}"
            f" [paper: {format_number(P.GRAPH_EDGES)}]",
            f"machines: {stats.n_machines} (paper: {P.CRAWL_MACHINES});"
            f" throttled requests: {format_number(stats.throttled)};"
            f" server errors retried: {format_number(stats.server_errors)}",
            f"users over the {format_number(lost.display_limit)}-entry display cap:"
            f" {format_number(lost.capped_users)} [paper: {P.CAPPED_USERS}]",
            f"declared vs collected for capped users:"
            f" {format_number(lost.declared_edges)} vs"
            f" {format_number(lost.collected_edges)}",
            f"lost-edge fraction: {percent(lost.lost_fraction)}"
            f" [paper: {percent(P.LOST_EDGE_FRACTION)}]",
        ]
    )


def _ext_growth(r: StudyResults) -> str:
    growth = r.growth
    if growth is None:
        return "(growth study requires the generating world; not available)"
    rows = [
        (
            f"{s.day:.0f}",
            format_number(s.n_nodes),
            format_number(s.n_edges),
            f"{s.mean_degree:.1f}",
            f"{s.mean_path_length:.2f}",
            f"{s.reciprocity:.2f}",
        )
        for s in growth.snapshots
    ]
    return (
        format_table(
            ["Day", "Nodes", "Edges", "Mean deg", "Path len", "Reciprocity"],
            rows,
            title="Extension (Sec 7): topology snapshots over the growth arc",
        )
        + f"\ntipping point day {growth.tipping_day:.0f}"
        + f" (open signup: day {OPEN_SIGNUP_DAY:.0f});"
        + f" stabilization day {growth.stabilization_day:.0f};"
        + f" densification exponent a={growth.densification_exponent:.2f}"
    )


def _ext_diffusion(r: StudyResults) -> str:
    analysis = r.diffusion
    if analysis is None:
        return "(diffusion study requires the generating world; not available)"
    reach = analysis.reach
    rows = [
        (code, activity.n_posts, percent(activity.public_share),
         f"{activity.mean_audience:.1f}")
        for code, activity in sorted(analysis.by_country.items())
    ]
    return (
        format_table(
            ["Country", "Posts", "Public share", "Mean audience"],
            rows,
            title="Extension (Sec 7): posting culture and reach",
        )
        + f"\npublic posts reach {reach.public_mean_audience:.1f} users vs"
        + f" {reach.scoped_mean_audience:.1f} for circle-scoped"
        + f" ({reach.reach_ratio:.1f}x); max cascade {analysis.max_cascade()}"
    )


def _ext_implications(r: StudyResults) -> str:
    from repro.analysis.implications import campaign_countries, derive_strategies

    strategies = derive_strategies(r)
    rows = [
        (
            s.country,
            s.recommend_scope,
            f"{s.self_loop:.2f}",
            s.featured_label,
            "yes" if s.political_campaign_viable else "no",
            s.privacy_posture,
        )
        for s in strategies.values()
    ]
    return (
        format_table(
            ["Country", "Recommend", "Self-loop", "Feature",
             "Political?", "Privacy posture"],
            rows,
            title="Section 6 implications, derived from the measurements",
        )
        + f"\npolitical campaigns viable in: {campaign_countries(strategies) or 'none'}"
    )


EXPERIMENTS: dict[str, Experiment] = {
    exp.artifact_id: exp
    for exp in (
        Experiment("table1", "Top 20 users by in-degree", "3.1", _table1),
        Experiment("table2", "Public attribute availability", "3.1", _table2),
        Experiment("table3", "All users vs tel-users", "3.2", _table3),
        Experiment("table4", "OSN topology comparison", "3.3", _table4),
        Experiment("table5", "Top occupations per country", "4.2", _table5),
        Experiment("fig2", "Fields shared: tel vs all (CCDF)", "3.2", _fig2),
        Experiment("fig3", "Degree distributions", "3.3.1", _fig3),
        Experiment("fig4a", "Reciprocity CDF", "3.3.2", _fig4a),
        Experiment("fig4b", "Clustering coefficient CDF", "3.3.3", _fig4b),
        Experiment("fig4c", "SCC size CCDF", "3.3.4", _fig4c),
        Experiment("fig5", "Path length distribution", "3.3.5", _fig5),
        Experiment("fig6", "Top 10 countries", "4", _fig6),
        Experiment("fig7", "Economics of adoption", "4.1", _fig7),
        Experiment("fig8", "Openness per country", "4.3", _fig8),
        Experiment("fig9", "Path miles", "4.4", _fig9),
        Experiment("fig10", "Links across geography", "4.5", _fig10),
        Experiment("methodology", "Crawl accounting", "2.2", _methodology),
        Experiment("ext_growth", "Growth phases & densification", "7", _ext_growth),
        Experiment("ext_diffusion", "Content diffusion via circles", "7", _ext_diffusion),
        Experiment("ext_implications", "Derived product strategies", "6", _ext_implications),
    )
}
