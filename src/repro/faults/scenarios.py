"""Named chaos scenarios — curated fault scripts for tests, CI, and demos.

Each scenario is a plain JSON-compatible document (see
:meth:`repro.faults.schedule.FaultSchedule.from_dict`) whose windows are
calibrated for the default campaign shape the ``python -m repro.faults``
CLI runs (a few thousand users, 11 machines, 20 ms request latency —
roughly 4–10 virtual seconds of crawl).  Scenarios are data, not code:
copy one, tweak the windows, and feed it back via ``--scenario-file``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

from .schedule import FaultSchedule, FaultSpecError

__all__ = [
    "DISK_SCENARIOS",
    "SCENARIOS",
    "disk_scenario_names",
    "get_disk_scenario",
    "get_scenario",
    "load_scenario_file",
    "scenario_names",
]


SCENARIOS: dict[str, dict[str, Any]] = {
    # The bread-and-butter chaos mix: two 503 bursts, a partial-fleet
    # ban, and a stretch of dirty pages.  The crawl should complete with
    # zero (or fully re-driven) dead letters.
    "flaky-fleet": {
        "seed": 7,
        "description": "503 bursts + a 3-machine ban + corrupted pages",
        "rules": [
            {"kind": "error_burst", "start": 0.2, "end": 1.4, "rate": 0.35,
             "retry_after": 0.01},
            {"kind": "error_burst", "start": 2.4, "end": 3.0, "rate": 0.5,
             "retry_after": 0.01},
            {
                "kind": "ip_ban",
                "start": 0.9,
                "end": 1.8,
                "ips": ["10.0.0.2", "10.0.0.5", "10.0.0.8"],
                "retry_after": 0.05,
            },
            {"kind": "corrupt_pages", "start": 0.6, "end": 2.6, "rate": 0.12},
        ],
    },
    # Every IP banned for a window: the breaker fleet must quarantine,
    # wait the bans out, and re-drive whatever dead-lettered meanwhile.
    "ban-hammer": {
        "seed": 11,
        "description": "a whole-fleet 403 window plus background 503s",
        "rules": [
            {"kind": "ip_ban", "start": 1.0, "end": 2.2, "retry_after": 0.1},
            {"kind": "bernoulli_errors", "rate": 0.05},
        ],
    },
    # A hard outage mid-crawl: everything 503s until the window lifts.
    "rolling-outage": {
        "seed": 13,
        "description": "two short full outages with clean air between",
        "rules": [
            {"kind": "outage", "start": 0.8, "end": 1.5, "retry_after": 0.1},
            {"kind": "outage", "start": 2.6, "end": 3.1, "retry_after": 0.1},
        ],
    },
    # Garbage in: a long window of mangled payloads plus slow responses
    # and hung requests.  Exercises parse hardening and timeout retries.
    "dirty-pages": {
        "seed": 17,
        "description": "heavy page corruption, slow responses, timeouts",
        "rules": [
            {"kind": "corrupt_pages", "start": 0.3, "end": 3.5, "rate": 0.25},
            {"kind": "slow_responses", "start": 0.5, "end": 2.5, "rate": 0.2,
             "extra_latency": 0.3},
            {"kind": "timeouts", "start": 1.0, "end": 2.0, "rate": 0.08,
             "timeout": 0.05},
        ],
    },
    # Peak-hour serving chaos: latency degradation and short 503/408
    # windows while interactive clients and the crawler share the site.
    # Deliberately no corrupt_pages — serving responses must stay
    # byte-comparable for the page-cache differential proofs.
    "serving-rush": {
        "seed": 29,
        "description": "slow responses + 503 bursts + timeouts (cache-safe)",
        "rules": [
            {"kind": "slow_responses", "start": 0.5, "end": 6.0, "rate": 0.25,
             "extra_latency": 0.08},
            {"kind": "error_burst", "start": 1.0, "end": 2.0, "rate": 0.2,
             "retry_after": 0.02},
            {"kind": "timeouts", "start": 2.5, "end": 4.0, "rate": 0.05,
             "timeout": 0.05},
            {"kind": "error_burst", "start": 4.5, "end": 5.2, "rate": 0.35,
             "retry_after": 0.02},
        ],
    },
    # Everything at once — the closest analogue to a hostile live site.
    "kitchen-sink": {
        "seed": 23,
        "description": "bursts + bans + outage + corruption + timeouts",
        "rules": [
            {"kind": "bernoulli_errors", "rate": 0.03},
            {"kind": "error_burst", "start": 0.4, "end": 1.2, "rate": 0.4,
             "retry_after": 0.01},
            {"kind": "ip_ban", "start": 0.8, "end": 1.6,
             "ips": ["10.0.0.1", "10.0.0.4", "10.0.0.7", "10.0.0.10"],
             "retry_after": 0.05},
            {"kind": "outage", "start": 2.0, "end": 2.4, "retry_after": 0.1},
            {"kind": "corrupt_pages", "start": 0.5, "end": 3.0, "rate": 0.1},
            {"kind": "timeouts", "start": 1.4, "end": 2.8, "rate": 0.05,
             "timeout": 0.05},
        ],
    },
}


#: Disk-fault scenarios (:meth:`repro.faults.disk.DiskFaultSchedule.from_dict`
#: schema).  Windows use the same virtual timescale as the network
#: scenarios above; disk ops fire on journal flushes (~every 64 pages)
#: and on segment/checkpoint publishes, so rates are per durability
#: event, not per page.
DISK_SCENARIOS: dict[str, dict[str, Any]] = {
    # Crash-consistency classics: occasional torn batch writes plus a
    # stretch of lying fsyncs.  Everything is recoverable from the
    # journal's valid prefix — fsck repairs, the supervisor resumes.
    "torn-tail": {
        "seed": 31,
        "description": "torn journal batches + dropped fsyncs",
        "rules": [
            {"kind": "torn_write", "start": 0.3, "end": 2.4, "rate": 0.04},
            {"kind": "dropped_fsync", "start": 0.5, "end": 2.0, "rate": 0.3},
        ],
    },
    # Sealed data decays: bit flips in published segments and stray
    # duplicate shards.  fsck rebuilds rotted segments by journal replay
    # and quarantines the strays.
    "rotten-segments": {
        "seed": 37,
        "description": "bit rot in sealed segments + duplicate shards",
        "rules": [
            {"kind": "bit_rot", "start": 0.2, "end": 3.0, "rate": 0.3,
             "targets": ["segment"]},
            {"kind": "duplicate_segment", "start": 0.5, "end": 2.5, "rate": 0.2},
        ],
    },
    # Resume points vanish and rot: newest-verifiable-wins fallback plus
    # fsck quarantine keep the campaign resumable from an older cut.
    "vanishing-checkpoints": {
        "seed": 41,
        "description": "checkpoint files deleted or rotted after publish",
        "rules": [
            {"kind": "missing_file", "start": 0.3, "end": 2.8, "rate": 0.3,
             "targets": ["checkpoint"]},
            {"kind": "bit_rot", "start": 0.3, "end": 2.8, "rate": 0.2,
             "targets": ["checkpoint"]},
        ],
    },
    # A drive on its way out: transient EIO, a short full-disk window,
    # lying fsyncs, the odd torn write.  Crashy but journal-recoverable.
    "disk-dying": {
        "seed": 43,
        "description": "EIO + a short ENOSPC window + dropped fsyncs",
        "rules": [
            {"kind": "eio", "start": 0.4, "end": 2.6, "rate": 0.05},
            {"kind": "enospc", "start": 1.2, "end": 1.5, "rate": 0.5},
            {"kind": "dropped_fsync", "start": 0.3, "end": 2.2, "rate": 0.25},
            {"kind": "torn_write", "start": 0.6, "end": 2.0, "rate": 0.03},
        ],
    },
    # The CI grinder: every *recoverable* fault kind at once.  A
    # supervised campaign must ride through this to a bit-identical
    # dataset (the journal always survives).
    "full-grind": {
        "seed": 47,
        "description": "torn writes + segment rot + vanishing checkpoints + strays",
        "rules": [
            {"kind": "torn_write", "start": 0.4, "end": 2.2, "rate": 0.03},
            {"kind": "bit_rot", "start": 0.3, "end": 2.8, "rate": 0.2,
             "targets": ["segment"]},
            {"kind": "missing_file", "start": 0.5, "end": 2.5, "rate": 0.2,
             "targets": ["checkpoint"]},
            {"kind": "duplicate_segment", "start": 0.6, "end": 2.4, "rate": 0.15},
            {"kind": "dropped_fsync", "start": 0.3, "end": 2.0, "rate": 0.2},
        ],
    },
    # Journal destroyers — the *unrecoverable* scenarios.  "journal-rot"
    # flips a bit early in the journal's history (before every retained
    # checkpoint's offset); "journal-vanishes" unlinks the file
    # outright.  Either way fsck must emit an exact loss manifest.
    "journal-rot": {
        "seed": 53,
        "description": "bit rot lands early in the journal history",
        "rules": [
            {"kind": "bit_rot", "start": 1.2, "end": 1e9, "rate": 1.0,
             "targets": ["journal"], "zone": [0.0, 0.15]},
        ],
    },
    "journal-vanishes": {
        "seed": 59,
        "description": "the journal file is unlinked mid-campaign",
        "rules": [
            {"kind": "missing_file", "start": 0.8, "end": 1e9, "rate": 1.0,
             "targets": ["journal"]},
        ],
    },
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def disk_scenario_names() -> list[str]:
    return sorted(DISK_SCENARIOS)


def _lookup(table: Mapping[str, dict[str, Any]], name: str, schedule_cls) -> dict[str, Any]:
    """``table[name]``, validated buildable by ``schedule_cls``."""
    try:
        spec = table[name]
    except KeyError:
        raise FaultSpecError(
            f"unknown {schedule_cls.spec_label} {name!r} (known: {', '.join(sorted(table))})"
        ) from None
    schedule_cls.from_dict(spec)  # validate eagerly: bad data fails loudly
    return spec


def get_disk_scenario(name: str) -> dict[str, Any]:
    """The named disk scenario document (validated buildable)."""
    # Imported here, not at module top: ``.disk`` pulls in the store's
    # I/O seam, whose package init imports the crawler — which imports
    # this package.  Deferring breaks the cycle.
    from .disk import DiskFaultSchedule

    return _lookup(DISK_SCENARIOS, name, DiskFaultSchedule)


def get_scenario(name: str) -> dict[str, Any]:
    """The named scenario document (validated buildable); KeyError-safe."""
    return _lookup(SCENARIOS, name, FaultSchedule)


def load_scenario_file(path: str | Path) -> dict[str, Any]:
    """Load and validate a scenario document from a JSON file."""
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FaultSpecError(f"{path}: unreadable scenario file ({exc})") from exc
    if not isinstance(spec, Mapping):
        raise FaultSpecError(f"{path}: scenario must be a JSON object")
    FaultSchedule.from_dict(spec)
    return dict(spec)
