"""World-build bench: wall time and peak RSS per generation engine.

Each (engine, size) cell runs ``build_world`` in a fresh
subprocess — heap reuse and allocator state make in-process trials
flatter than reality. Wall time takes the best of ``TRIALS`` runs (the
standard way to damp scheduler noise on a busy box); peak RSS takes the
*max* across trials, because the memory requirement of a build is its
worst observed footprint, not its luckiest.

Peak RSS is the kernel's own account of the child: the parent reaps the
subprocess with ``os.wait4`` and reads ``ru_maxrss`` from the returned
rusage. A self-report from inside the child (``RUSAGE_SELF`` before
exit) misses everything after the measurement point — interpreter
teardown, late GC, the report itself — and a parent-side
``RUSAGE_CHILDREN`` read is a high-water mark over *all* reaped
children, so one big trial poisons every later cell. ``wait4`` charges
exactly one child's whole lifetime.

The per-cell numbers land in ``BENCH_world_build.json`` via the shared
bench harness. Both engines build onto the one service store. Gates:
the fast engine must not out-eat the reference, and ≥5× speedup is
asserted at the largest size when it reaches 100k users.

Override the sizes with ``REPRO_BENCH_WORLD_USERS`` (comma-separated)
and the trial count with ``REPRO_BENCH_WORLD_TRIALS``. Setting
``REPRO_BENCH_MILLION=1`` enables the million-user cell: a 1M-user
fast-engine build with a hard ≤2 GB RSS gate and a crawl sample over
the built world (the CI ``million-user`` job runs exactly this).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SIZES = tuple(
    int(s)
    for s in os.environ.get("REPRO_BENCH_WORLD_USERS", "20000,100000").split(",")
)
TRIALS = int(os.environ.get("REPRO_BENCH_WORLD_TRIALS", "3"))
#: Stamped into the bench report's config: the sizes actually run.
USERS = list(SIZES)
SEED = 7

ENGINES = ("reference", "fast")

MILLION_USERS = 1_000_000
MILLION_RSS_MB = 2_048
MILLION_WALL_SECONDS = 900.0

_CHILD = """\
import json
import sys
import time

from repro.synth import build_world, WorldConfig

engine, n, seed, crawl_pages = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
)
wall0 = time.perf_counter()
cpu0 = time.process_time()
world = build_world(WorldConfig(n_users=n, seed=seed, engine=engine))
cpu1 = time.process_time()
wall1 = time.perf_counter()
result = {
    "wall_seconds": wall1 - wall0,
    "cpu_seconds": cpu1 - cpu0,
    "edges": world.graph.n_edges,
}
if crawl_pages:
    from repro.crawler.bfs import BidirectionalBFSCrawler, CrawlConfig

    crawler = BidirectionalBFSCrawler(
        world.frontend(rate_per_ip=1e9, burst=1e9),
        CrawlConfig(n_machines=3, max_pages=crawl_pages, request_latency=0.0),
    )
    dataset = crawler.crawl([world.seed_user_id()])
    result["crawl_pages"] = dataset.stats.pages_fetched
    result["crawl_edges"] = int(dataset.n_edges)
print(json.dumps(result))
"""


def _build_once(engine: str, n_users: int, crawl_pages: int = 0) -> dict:
    """One subprocess build; RSS comes from the wait4 rusage, not the child."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable, "-c", _CHILD, engine, str(n_users), str(SEED), str(crawl_pages)
    ]
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    output = proc.stdout.read()
    proc.stdout.close()
    _, status, rusage = os.wait4(proc.pid, 0)
    # Hand the already-reaped status to Popen so its cleanup never waits
    # on a pid the kernel no longer knows.
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(
            f"child build failed ({engine} n={n_users}):\n{output}"
        )
    result = json.loads(output.splitlines()[-1])
    # Linux ru_maxrss is in KiB.
    result["peak_rss_mb"] = rusage.ru_maxrss // 1024
    return result


def _bench_cell(engine: str, n_users: int, trials: int) -> dict:
    runs = [_build_once(engine, n_users) for _ in range(trials)]
    best = min(runs, key=lambda r: r["wall_seconds"])
    edges = {r["edges"] for r in runs}
    assert len(edges) == 1, f"{engine} n={n_users} not deterministic: {edges}"
    return {
        **best,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "trials": trials,
        "all_wall_seconds": sorted(r["wall_seconds"] for r in runs),
        "all_peak_rss_mb": sorted(r["peak_rss_mb"] for r in runs),
    }


def test_world_build_speedup(bench_extra):
    cells: dict[str, dict] = {}
    for n_users in SIZES:
        for engine in ENGINES:
            cell = _bench_cell(engine, n_users, TRIALS)
            cells[f"{engine}_{n_users}"] = cell
            print(
                f"\n{engine:>9} n={n_users}:"
                f" wall {cell['wall_seconds']:.2f}s"
                f" cpu {cell['cpu_seconds']:.2f}s rss {cell['peak_rss_mb']}MB"
                f" edges {cell['edges']}"
            )
    largest = max(SIZES)
    speedups = {
        n: cells[f"reference_{n}"]["wall_seconds"] / cells[f"fast_{n}"]["wall_seconds"]
        for n in SIZES
    }
    for n, ratio in speedups.items():
        print(f"speedup n={n}: {ratio:.2f}x")
    bench_extra(
        sizes=list(SIZES),
        trials=TRIALS,
        cells=cells,
        speedups={str(n): round(s, 3) for n, s in speedups.items()},
    )
    # Memory: the fast engine must not out-eat the reference.
    assert (
        cells[f"fast_{largest}"]["peak_rss_mb"]
        <= 1.2 * cells[f"reference_{largest}"]["peak_rss_mb"]
    )
    # Acceptance gate: ≥5× at 100k users.
    if largest >= 100_000:
        assert speedups[largest] >= 5.0, (
            f"fast engine only {speedups[largest]:.2f}x faster at n={largest}"
        )
    else:
        assert speedups[largest] >= 3.0  # smoke-scale floor


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_MILLION"),
    reason="million-user cell is opt-in (REPRO_BENCH_MILLION=1)",
)
def test_million_user_world(bench_extra):
    """The headline cell: 1M users, fast engine, hard RSS + wall gates."""
    cell = _build_once("fast", MILLION_USERS, crawl_pages=2_000)
    print(
        f"\nmillion-user build: wall {cell['wall_seconds']:.1f}s"
        f" rss {cell['peak_rss_mb']}MB edges {cell['edges']}"
        f" crawl_pages {cell['crawl_pages']} crawl_edges {cell['crawl_edges']}"
    )
    bench_extra(million=cell)
    assert cell["peak_rss_mb"] <= MILLION_RSS_MB, (
        f"1M-user build peaked at {cell['peak_rss_mb']}MB"
        f" (gate {MILLION_RSS_MB}MB)"
    )
    assert cell["wall_seconds"] <= MILLION_WALL_SECONDS
    assert cell["crawl_pages"] > 0 and cell["crawl_edges"] > 0
