"""Journal format, batching, and torn-tail recovery."""

from __future__ import annotations

import struct

import pytest

from repro.obs.metrics import Counter, Registry
from repro.store import CampaignConfig, CrawlCampaign
from repro.store.journal import (
    HEADER_SIZE,
    JournalError,
    JournalWriter,
    MAGIC,
    iter_records,
    scan,
)


@pytest.fixture
def registry() -> Registry:
    return Registry()


def write_records(path, records, registry, **kwargs):
    with JournalWriter(path, registry=registry, **kwargs) as journal:
        for kind, body in records:
            journal.append(kind, body)
    return path


class TestRoundTrip:
    def test_records_come_back_in_order(self, tmp_path, registry):
        path = tmp_path / "j.wal"
        records = [(1, b"alpha"), (2, b""), (3, b"\x00" * 100), (1, b"omega")]
        write_records(path, records, registry)
        decoded = [(r.kind, r.body) for r in iter_records(path)]
        assert decoded == records

    def test_file_starts_with_magic(self, tmp_path, registry):
        path = write_records(tmp_path / "j.wal", [(1, b"x")], registry)
        assert path.read_bytes().startswith(MAGIC)

    def test_empty_journal_scans_clean(self, tmp_path, registry):
        path = write_records(tmp_path / "j.wal", [], registry)
        result = scan(path)
        assert result.n_records == 0
        assert result.valid_end == HEADER_SIZE
        assert not result.torn

    def test_scan_counts_by_kind(self, tmp_path, registry):
        path = write_records(
            tmp_path / "j.wal", [(1, b"a"), (1, b"b"), (7, b"c")], registry
        )
        result = scan(path)
        assert result.records_by_kind == {1: 2, 7: 1}

    def test_not_a_journal(self, tmp_path):
        path = tmp_path / "bogus.wal"
        path.write_bytes(b"NOPE!\n" + b"data")
        with pytest.raises(JournalError):
            list(iter_records(path))

    def test_upto_bounds_replay(self, tmp_path, registry):
        path = write_records(tmp_path / "j.wal", [(1, b"a"), (2, b"b")], registry)
        first = next(iter_records(path))
        bounded = list(iter_records(path, upto=first.end_offset))
        assert [(r.kind, r.body) for r in bounded] == [(1, b"a")]


class TestBatching:
    def test_appends_buffer_until_flush(self, tmp_path, registry):
        path = tmp_path / "j.wal"
        journal = JournalWriter(path, flush_records=1000, registry=registry)
        journal.append(1, b"held")
        assert scan(path).n_records == 0  # still buffered
        journal.flush()
        assert scan(path).n_records == 1
        journal.close()

    def test_record_count_triggers_flush(self, tmp_path, registry):
        path = tmp_path / "j.wal"
        journal = JournalWriter(path, flush_records=4, registry=registry)
        for _ in range(4):
            journal.append(1, b"x")
        assert scan(path).n_records == 4
        journal.close()

    def test_byte_budget_triggers_flush(self, tmp_path, registry):
        path = tmp_path / "j.wal"
        journal = JournalWriter(
            path, flush_records=1000, flush_bytes=64, registry=registry
        )
        journal.append(1, b"y" * 100)
        assert scan(path).n_records == 1
        journal.close()

    def test_metrics_account_flushed_bytes(self, tmp_path, registry):
        path = write_records(tmp_path / "j.wal", [(1, b"abc")], registry)
        flushed = registry.counter("store.journal_bytes", "").value()
        assert flushed == path.stat().st_size - HEADER_SIZE

    def test_kind_must_fit_one_byte(self, tmp_path, registry):
        journal = JournalWriter(tmp_path / "j.wal", registry=registry)
        with pytest.raises(ValueError):
            journal.append(256, b"")
        journal.close()


class TestRecovery:
    def test_torn_tail_is_dropped_on_reopen(self, tmp_path, registry):
        path = write_records(tmp_path / "j.wal", [(1, b"keep")], registry)
        good_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", 100, 0) + b"only-part")
        assert scan(path).torn
        reopened = JournalWriter(path, registry=registry)
        reopened.close()
        assert path.stat().st_size == good_size
        assert [(r.kind, r.body) for r in iter_records(path)] == [(1, b"keep")]
        assert registry.counter("store.journal_truncated_bytes", "").value() > 0

    def test_corrupt_crc_ends_valid_prefix(self, tmp_path, registry):
        path = write_records(tmp_path / "j.wal", [(1, b"aaaa"), (2, b"bbbb")], registry)
        first_end = next(iter_records(path)).end_offset
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte in the last record's body
        path.write_bytes(bytes(data))
        result = scan(path)
        assert result.n_records == 1
        assert result.valid_end == first_end

    def test_corrupt_first_record_loses_everything(self, tmp_path, registry):
        path = write_records(tmp_path / "j.wal", [(1, b"aaaa"), (2, b"bbbb")], registry)
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + 8] ^= 0xFF  # first payload byte of record one
        path.write_bytes(bytes(data))
        result = scan(path)
        assert result.n_records == 0
        assert result.valid_end == HEADER_SIZE

    def test_appends_after_recovery_extend_the_good_prefix(self, tmp_path, registry):
        path = write_records(tmp_path / "j.wal", [(1, b"old")], registry)
        with open(path, "ab") as handle:
            handle.write(b"\xff" * 3)  # garbage shorter than a header
        with JournalWriter(path, registry=registry) as journal:
            journal.append(2, b"new")
        assert [(r.kind, r.body) for r in iter_records(path)] == [
            (1, b"old"),
            (2, b"new"),
        ]


class TestTruncateTo:
    def test_rolls_back_to_offset(self, tmp_path, registry):
        path = write_records(tmp_path / "j.wal", [(1, b"a"), (2, b"b")], registry)
        first_end = next(iter_records(path)).end_offset
        journal = JournalWriter(path, registry=registry)
        journal.truncate_to(first_end)
        journal.close()
        assert [(r.kind, r.body) for r in iter_records(path)] == [(1, b"a")]

    def test_illegal_after_append(self, tmp_path, registry):
        journal = JournalWriter(tmp_path / "j.wal", registry=registry)
        journal.append(1, b"x")
        with pytest.raises(JournalError):
            journal.truncate_to(HEADER_SIZE)
        journal.close()

    def test_offset_must_be_in_range(self, tmp_path, registry):
        journal = JournalWriter(tmp_path / "j.wal", registry=registry)
        with pytest.raises(ValueError):
            journal.truncate_to(HEADER_SIZE - 1)
        with pytest.raises(ValueError):
            journal.truncate_to(journal.offset + 1)
        journal.close()


class _LabelledCalls:
    """A stand-in for a bound counter child that records through the
    labelled call instead."""

    def __init__(self, counter: Counter, values: dict):
        self._counter = counter
        self._values = values

    def inc(self, amount: float = 1.0) -> None:
        self._counter.inc(amount, **self._values)


def campaign_registry(tmp_path, name: str) -> Registry:
    registry = Registry(enabled=True)
    config = CampaignConfig(n_users=400, seed=3, checkpoint_every_pages=100)
    CrawlCampaign(tmp_path / name, config).run(registry=registry)
    # The one wall-clock series: checkpoint write time.
    registry.get("store.checkpoint_seconds").clear()
    return registry


class TestRecordCounter:
    def test_counts_records_by_kind(self, tmp_path, registry):
        write_records(tmp_path / "j.wal", [(1, b"a"), (2, b"b"), (1, b"c")], registry)
        records = registry.get("store.journal_records")
        assert records.value(kind=1) == 2 and records.value(kind=2) == 1

    def test_campaign_metrics_match_labelled_calls(self, tmp_path, monkeypatch):
        bound = campaign_registry(tmp_path, "bound")
        monkeypatch.setattr(
            Counter, "labels", lambda counter, **values: _LabelledCalls(counter, values)
        )
        labelled = campaign_registry(tmp_path, "labelled")
        assert bound.get("store.journal_records").samples()
        assert bound.to_json() == labelled.to_json()
        assert bound.render_text() == labelled.render_text()
