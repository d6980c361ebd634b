"""Pinned digests of every named scenario's draws over a fixed timeline.

The other fault tests check that a schedule agrees with itself within
one version of the code.  These pins check it against the past: each
named scenario is driven over the same synthetic timeline, and the
sha256 of its decision sequence and of its final ``export_state()``
JSON must match the digests recorded here.  A refactor of the rule
core that changes a single random draw — its order, its count, or the
seed a rule derives — changes a digest; so would a change to the
checkpointed state format old campaign directories resume from.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults import DISK_SCENARIOS, SCENARIOS, FaultSchedule
from repro.faults.disk import DiskFaultSchedule

#: The crawl fleet's client IPs (one per machine, as in the paper's 11).
FLEET_IPS = tuple(f"10.0.0.{i}" for i in range(1, 12))

#: Virtual instants covering every finite scenario window (all close by 6.0).
TIMELINE = tuple(i * 0.0125 for i in range(560))

DISK_OPS = ("write", "fsync", "replace", "published", "flushed")
DISK_TARGETS = ("file", "segment", "checkpoint", "manifest", "journal")

#: name -> (decision-sequence sha256, final export_state sha256).
PINS = {
    "ban-hammer": (
        "e8cff37ec15cd8185ac7457d520b863dd569648ae150b6175b85350b307a553e",
        "7e4d726b672c6599e3e7059c0f2dfa50346cd151a5b9b385732af728e3bcc704",
    ),
    "dirty-pages": (
        "1e05e5521e532895db6a8d38421b53cf531637994fa9581007f75f8d42e184a7",
        "e15612835859742e476d22d269838da44bde092ec46837e1ea86a27fb757e3eb",
    ),
    "disk-dying": (
        "e2664465790797c98bb990aa256a7e527810800e9bdbaaab148cacd8418ae2e7",
        "2fe77fa53335bfd5db0bb53886fbf216721e7666c3dc689f2dd7f031c058a74a",
    ),
    "flaky-fleet": (
        "19ff1b8c22b3da67f2042f8dd8ea54fd934eedaa6463c4f1a3ee10677e6e2c41",
        "ef0ce6111ff73df317579a418c706dc8c1728cd8fa24fe815d73d617d55569be",
    ),
    "full-grind": (
        "1c241944e63e73e72de7e46d3ca04fa6b69084483589d27009eca0140d1cee77",
        "5ce61b552a6c54b7ef60a123958eacd57d5f0789ee19e0927a2230fe95f4d98c",
    ),
    "journal-rot": (
        "5a19ad200506baf96570d09d0aeaf48ac9d0ac23283bb4087c5d990890778b45",
        "322cdf0215abd314434453c44ef5c636271cc40b966137bc748d355574992d9c",
    ),
    "journal-vanishes": (
        "01d020f444b56b851dfdc07b4d0cfd66022f3bc6980747ef60ced431678db39e",
        "1a036a0fe488d4ac54d7e6bf64ab85f55b11f57734dfef5393afe3c0ee139f3e",
    ),
    "kitchen-sink": (
        "68400c09377e845c275c6437627111ef72edbdb0c7a03f09c459e2f66c8dad3c",
        "851591eba57f5b1dd7f729517f8791f1a8bf7170479d2a2fc13ea421165fdd0e",
    ),
    "rolling-outage": (
        "f06220eb043252a04633bcfab5ffc6293e45bfe07d14cca7289e40d7a0330628",
        "5963a29299b5921750381d664c7758fdb1be51cb70ecb6c1fc632f5416f0f64d",
    ),
    "rotten-segments": (
        "8676331aa602e8ebeae6b713a2d012964199a644208e62556d47efe86ef50508",
        "822b1d68fc131900635af356cbb43e235751f035880f602666a6bdeae4148410",
    ),
    "serving-rush": (
        "3e29231a79d7d2204bb4b5ebd7b7bde4a8595e5b6ee124789c162c3e32d97894",
        "aabe4ddeca537768d676dc8f0bcc9c0de222116c1dd0e8b307795c187c6b0564",
    ),
    "torn-tail": (
        "b14cb319416b01ddcd5a05872f1f65e9107e3dad941b41597d4ed477e186601d",
        "36403de042ec12b7ff5969cdb97854d3e38b388f013fa50e25cd90a436bfc119",
    ),
    "vanishing-checkpoints": (
        "de11b54846380a11a15cfb7bf95a14d8cadd65cf00fdc2bc5daf199352edd54a",
        "364eaa6c428353ff73ee8f48c6b432ef9ebef258718acca9166029c9a50b0ad7",
    ),
}


def _fields(decision) -> list:
    return [getattr(decision, slot) for slot in decision.__slots__]


def network_digests(spec: dict) -> tuple[str, str]:
    schedule = FaultSchedule.from_dict(spec)
    decisions = []
    for now in TIMELINE:
        for ip in FLEET_IPS:
            decision = schedule.evaluate(now, ip)
            decisions.append(None if decision is None else _fields(decision))
    return _digests(decisions, schedule)


def disk_digests(spec: dict) -> tuple[str, str]:
    schedule = DiskFaultSchedule.from_dict(spec)
    decisions = []
    for now in TIMELINE:
        for op in DISK_OPS:
            for target in DISK_TARGETS:
                decisions.append([_fields(d) for d in schedule.decide(op, now, target)])
    return _digests(decisions, schedule)


def _digests(decisions: list, schedule) -> tuple[str, str]:
    state = json.dumps(schedule.export_state(), sort_keys=True)
    return _sha256(json.dumps(decisions)), _sha256(state)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CASES = {
    **{name: (network_digests, spec) for name, spec in SCENARIOS.items()},
    **{name: (disk_digests, spec) for name, spec in DISK_SCENARIOS.items()},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scenario_draws_match_pins(name):
    digests, spec = CASES[name]
    assert digests(spec) == PINS[name]
