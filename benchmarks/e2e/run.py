"""End-to-end benchmark: one run, a round-robin set of runs, or a comparison.

One run of one workload (what ``BENCHMARK.json`` names as the command)::

    python3 benchmarks/e2e/run.py --workload study_20k --seed 5 --seconds 12 --trace 0

prints each metric with its unit, median, quartiles and sample count,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit code is
0 only when every correctness check passed.

A set runs every workload ``--reps`` times round-robin, each run in a
fresh child process, and can save the runs as JSON::

    python3 benchmarks/e2e/run.py --seed 5 --reps 3 --out set.json
    python3 benchmarks/e2e/run.py --seed 5 --reps 1 --trace 1 --out traced.json

``compare`` judges a new set against a base set, one row per workload
and end-to-end metric, with the bounds in ``BENCHMARK.json``::

    python3 benchmarks/e2e/run.py compare base.json new.json

See ``benchmarks/e2e/README.md`` for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict[str, dict]:
    return {metric["name"]: metric for metric in _benchmark()[kind]}


# -- one run -------------------------------------------------------------------


def run_one(
    workload: str, seed: int, seconds: float, traced: bool, n_users: int | None = None
) -> dict:
    """Run one workload in this process; returns the run record.

    ``n_users`` overrides the workload's world size (tests run small).
    """
    from workloads import N_USERS, WORKLOADS

    started = perf_counter()
    outcome = WORKLOADS[workload](
        seed=seed, seconds=seconds, traced=traced, n_users=n_users or N_USERS
    )
    metrics = outcome.metrics
    kind = "per_layer" if traced else "end_to_end"
    declared = _declared(kind)
    problems = list(outcome.problems)
    if set(metrics) != set(declared):
        problems.append(
            f"{kind} metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(metrics))}, extra {sorted(set(metrics) - set(declared))}"
        )
    result = {
        "correct": not problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": declared[name]["unit"]}
            for name in declared
            if name in metrics
        },
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "wall_s": perf_counter() - started,
        "result": result,
        "problems": problems,
        "spread": outcome.spread,
        "detail": outcome.detail,
    }


def print_run(record: dict) -> None:
    detail = record["detail"]
    print(
        f"{record['workload']}: seed {record['seed']} (world seed {detail['world_seed']}), "
        f"{detail['n_users']} users, {len(detail['job_s'])} jobs, {record['wall_s']:.1f} s"
    )
    quartile_rows = record["spread"]
    print(f"  {'metric':<24} {'value':>14} {'unit':<6} {'q1':>14} {'q3':>14} {'n':>8}")
    for name, metric in record["result"]["metrics"].items():
        q1, _, q3, n = quartile_rows.get(name, [None, None, None, 1])
        spread = f"{q1:>14.6g} {q3:>14.6g}" if q1 is not None else f"{'-':>14} {'-':>14}"
        print(f"  {name:<24} {metric['value']:>14.6g} {metric['unit']:<6} {spread} {n:>8}")
    if record["trace"]:
        print(f"  largest RSS rise in span: {detail['rss_step_span'] or '-'}")
        print(f"  {'span':<28} {'count':>10} {'wall s':>10} {'self s':>10}")
        for row in detail["spans"]:
            print(
                f"  {row['span']:<28} {row['count']:>10} "
                f"{row['wall_s']:>10.4f} {row['self_s']:>10.4f}"
            )
        for target in detail["missing"]:
            print(f"  missing: {target}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


# -- a set of runs -------------------------------------------------------------


def run_set(seed: int, reps: int, seconds: float, traced: bool) -> tuple[dict, bool]:
    """Every workload ``reps`` times, round-robin, one child process each.

    Round-robin (w1 w2 w3 w4 w1 ...) spreads machine drift over all
    workloads alike instead of loading it onto whichever ran last.
    """
    import numpy

    from workloads import (
        N_USERS,
        SETUP_REPS,
        SERVE_BATCH,
        SERVE_CLIENTS,
        WORK_ROOT,
        WORKLOADS,
    )

    runs, ok = [], True
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as scratch:
        for rep in range(reps):
            for workload in WORKLOADS:
                out = Path(scratch) / f"{workload}-{rep}.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(int(traced)),
                    "--out", str(out),
                ]
                child = subprocess.run(command, capture_output=True, text=True)
                if not out.exists():
                    ok = False
                    print(f"{workload} rep {rep}: exit {child.returncode}\n{child.stderr}")
                    continue
                record = json.loads(out.read_text(encoding="utf-8"))
                ok = ok and child.returncode == 0
                runs.append(record)
                print_run(record)
    stamp = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "reps": reps,
        "seconds": seconds,
        "trace": int(traced),
        "config": {
            "n_users": N_USERS,
            "engine": "fast",
            "store": "columnar",
            "setup_reps": SETUP_REPS,
            "serve_clients": SERVE_CLIENTS,
            "serve_batch": SERVE_BATCH,
        },
    }
    return {"stamp": stamp, "runs": runs}, ok


def by_workload(document: dict) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values over the set's correct runs."""
    table: dict[str, dict[str, list[float]]] = {}
    for run in document["runs"]:
        if not run["result"]["correct"]:
            continue
        row = table.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            row.setdefault(name, []).append(metric["value"])
    return table


def print_set(document: dict) -> None:
    from summary import quartiles

    kind = "per_layer" if document["stamp"]["trace"] else "end_to_end"
    units = {name: m["unit"] for name, m in _declared(kind).items()}
    print(f"\n{'workload':<18} {'metric':<24} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for workload, metrics in by_workload(document).items():
        for name, values in metrics.items():
            q1, median, q3 = quartiles(values)
            print(
                f"{workload:<18} {name:<24} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{len(values):>3} {units[name]}"
            )


# -- compare -------------------------------------------------------------------


def compare(base: dict, new: dict) -> list[dict]:
    """One verdict row per workload and end-to-end metric."""
    from summary import quartiles, verdict

    rows = []
    base_table, new_table = by_workload(base), by_workload(new)
    for workload in base_table:
        for name, metric in _declared("end_to_end").items():
            before = base_table[workload].get(name)
            after = new_table.get(workload, {}).get(name)
            if not before or not after:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "base": quartiles(before),
                    "new": quartiles(after),
                    "bound": metric["bound"],
                    "verdict": verdict(before, after, metric["bound"], metric["better"]),
                }
            )
    return rows


def print_compare(rows: list[dict]) -> None:
    print(
        f"{'workload':<18} {'metric':<14} {'base q1/med/q3':>32} "
        f"{'new q1/med/q3':>32} {'bound':>6}  verdict"
    )
    for row in rows:
        base = "/".join(f"{v:.4g}" for v in row["base"])
        new = "/".join(f"{v:.4g}" for v in row["new"])
        print(
            f"{row['workload']:<18} {row['metric']:<14} {base:>32} {new:>32} "
            f"{row['bound']:>6.0%}  {row['verdict']}"
        )


# -- command line --------------------------------------------------------------


def main(argv: list[str]) -> int:
    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("new", type=Path)
        args = parser.parse_args(argv[1:])
        rows = compare(
            json.loads(args.base.read_text(encoding="utf-8")),
            json.loads(args.new.read_text(encoding="utf-8")),
        )
        print_compare(rows)
        return 1 if any(row["verdict"] == "regressed" for row in rows) else 0

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=float(_benchmark()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3, help="runs per workload in a set")
    parser.add_argument("--out", type=Path, help="write the run (or set) record here")
    args = parser.parse_args(argv)

    if args.workload is None:
        document, ok = run_set(args.seed, args.reps, args.seconds, bool(args.trace))
        print_set(document)
        if args.out:
            args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        return 0 if ok else 1

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        args.out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print_run(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
