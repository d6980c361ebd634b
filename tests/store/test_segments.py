"""Segment format, shard sealing, rollback, and compaction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crawler.dataset import CrawlDataset
from repro.obs.metrics import Registry
from repro.store.segments import (
    SegmentError,
    SegmentWriter,
    compact,
    iter_segment_paths,
    load_edges,
    read_segment,
    segment_edge_count,
    write_segment,
)


@pytest.fixture
def registry() -> Registry:
    return Registry()


class TestSegmentFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seg-000001.edges"
        write_segment(path, np.array([1, 2, 3]), np.array([4, 5, 6]))
        sources, targets = read_segment(path)
        assert sources.tolist() == [1, 2, 3]
        assert targets.tolist() == [4, 5, 6]
        assert segment_edge_count(path) == 3

    def test_empty_segment(self, tmp_path):
        path = tmp_path / "seg-000001.edges"
        write_segment(path, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        sources, targets = read_segment(path)
        assert len(sources) == 0 and len(targets) == 0

    def test_mismatched_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_segment(tmp_path / "s", np.array([1, 2]), np.array([3]))

    def test_corrupt_data_fails_crc(self, tmp_path):
        path = tmp_path / "seg-000001.edges"
        write_segment(path, np.array([1, 2, 3]), np.array([4, 5, 6]))
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentError, match="CRC"):
            read_segment(path)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "seg-000001.edges"
        write_segment(path, np.array([1, 2, 3]), np.array([4, 5, 6]))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(SegmentError, match="data bytes"):
            read_segment(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "seg-000001.edges"
        path.write_bytes(b"NOTSEG" + b"\x00" * 20)
        with pytest.raises(SegmentError, match="magic"):
            read_segment(path)
        with pytest.raises(SegmentError, match="magic"):
            segment_edge_count(path)


class TestSegmentWriter:
    def test_seals_at_shard_limit(self, tmp_path, registry):
        writer = SegmentWriter(tmp_path, shard_edges=3, registry=registry)
        for i in range(7):
            writer.append(i, i + 100)
        assert len(writer.sealed_names()) == 2
        assert writer.n_sealed_edges == 6
        assert writer.n_buffered == 1

    def test_explicit_seal_and_reload(self, tmp_path, registry):
        writer = SegmentWriter(tmp_path, registry=registry)
        writer.extend([(1, 2), (3, 4)])
        writer.seal()
        assert writer.sealed_names() == ["seg-000001.edges"]
        reopened = SegmentWriter(tmp_path, registry=registry)
        assert reopened.sealed_names() == ["seg-000001.edges"]
        assert reopened.n_sealed_edges == 2
        reopened.append(5, 6)
        reopened.seal()
        assert reopened.sealed_names() == ["seg-000001.edges", "seg-000002.edges"]

    def test_seal_empty_buffer_is_noop(self, tmp_path, registry):
        writer = SegmentWriter(tmp_path, registry=registry)
        assert writer.seal() is None
        assert writer.sealed_names() == []

    def test_load_edges_concatenates_in_order(self, tmp_path, registry):
        writer = SegmentWriter(tmp_path, shard_edges=2, registry=registry)
        writer.extend([(1, 10), (2, 20), (3, 30)])
        writer.seal()
        sources, targets = load_edges(tmp_path)
        assert sources.tolist() == [1, 2, 3]
        assert targets.tolist() == [10, 20, 30]

    def test_load_edges_by_name_subset(self, tmp_path, registry):
        writer = SegmentWriter(tmp_path, shard_edges=2, registry=registry)
        writer.extend([(1, 10), (2, 20), (3, 30), (4, 40)])
        sources, _ = load_edges(tmp_path, names=["seg-000001.edges"])
        assert sources.tolist() == [1, 2]

    def test_load_edges_empty_directory(self, tmp_path):
        sources, targets = load_edges(tmp_path / "nothing")
        assert sources.dtype == np.int64
        assert len(sources) == 0 and len(targets) == 0

    def test_rollback_deletes_suffix(self, tmp_path, registry):
        writer = SegmentWriter(tmp_path, shard_edges=2, registry=registry)
        writer.extend([(i, i) for i in range(6)])
        writer.append(99, 99)  # buffered, not sealed
        assert len(writer.sealed_names()) == 3
        writer.rollback(["seg-000001.edges"])
        assert writer.sealed_names() == ["seg-000001.edges"]
        assert writer.n_buffered == 0
        assert [p.name for p in iter_segment_paths(tmp_path)] == ["seg-000001.edges"]

    def test_rollback_rejects_non_prefix(self, tmp_path, registry):
        writer = SegmentWriter(tmp_path, shard_edges=1, registry=registry)
        writer.extend([(1, 1), (2, 2)])
        with pytest.raises(SegmentError, match="prefix"):
            writer.rollback(["seg-000002.edges"])

    def test_metrics_count_sealed_edges(self, tmp_path, registry):
        writer = SegmentWriter(tmp_path, shard_edges=2, registry=registry)
        writer.extend([(1, 1), (2, 2), (3, 3), (4, 4)])
        assert registry.counter("store.segments_sealed", "").value() == 2
        assert registry.counter("store.segment_edges", "").value() == 4


class TestSealObservability:
    def test_sealed_edges_gauge_tracks_durable_edges(self, tmp_path, registry):
        gauge = registry.gauge("store.sealed_edges", "")
        writer = SegmentWriter(tmp_path, shard_edges=2, registry=registry)
        assert gauge.value() == 0.0
        writer.extend([(1, 1), (2, 2), (3, 3)])  # two sealed, one buffered
        assert gauge.value() == 2.0
        writer.seal()
        assert gauge.value() == 3.0
        writer.rollback(["seg-000001.edges"])
        assert gauge.value() == 2.0

    def test_gauge_initialised_from_existing_shards(self, tmp_path, registry):
        writer = SegmentWriter(tmp_path, shard_edges=2, registry=registry)
        writer.extend([(1, 1), (2, 2), (3, 3), (4, 4)])
        # A fresh writer (resume) over the same directory reports the
        # edges already durable on disk, before any new appends.
        reopened = Registry()
        SegmentWriter(tmp_path, shard_edges=2, registry=reopened)
        assert reopened.gauge("store.sealed_edges", "").value() == 4.0

    def test_on_seal_receives_exact_sealed_columns(self, tmp_path, registry):
        seals = []
        writer = SegmentWriter(
            tmp_path, shard_edges=2, registry=registry,
            on_seal=lambda path, s, t: seals.append((path.name, s.tolist(), t.tolist())),
        )
        writer.extend([(1, 10), (2, 20), (3, 30)])
        writer.seal()
        assert seals == [
            ("seg-000001.edges", [1, 2], [10, 20]),
            ("seg-000002.edges", [3], [30]),
        ]
        # Each callback's columns match what the shard holds on disk.
        for name, sources, targets in seals:
            disk_sources, disk_targets = read_segment(tmp_path / name)
            assert disk_sources.tolist() == sources
            assert disk_targets.tolist() == targets

    def test_on_seal_fires_after_shard_is_durable(self, tmp_path, registry):
        observed = []

        def callback(path, sources, targets):
            # The shard must already be complete and CRC-clean when the
            # observer runs — consumers may re-read it immediately.
            observed.append(read_segment(path)[0].tolist())

        writer = SegmentWriter(tmp_path, shard_edges=4, registry=registry)
        writer.on_seal = callback  # attachable after construction too
        writer.extend([(7, 8), (9, 10)])
        writer.seal()
        assert observed == [[7, 9]]

    def test_empty_seal_does_not_fire_callback(self, tmp_path, registry):
        seals = []
        writer = SegmentWriter(
            tmp_path, registry=registry, on_seal=lambda *a: seals.append(a)
        )
        writer.seal()
        assert seals == []


class TestCompact:
    def test_compact_produces_loadable_archive(self, tmp_path, registry):
        seg_dir = tmp_path / "segments"
        writer = SegmentWriter(seg_dir, shard_edges=2, registry=registry)
        writer.extend([(1, 2), (3, 4), (5, 6)])
        writer.seal()
        out = tmp_path / "archive"
        compact(seg_dir, out)
        # CrawlDataset.load needs the companion files save() would write.
        (out / "profiles.jsonl").write_text("")
        dataset = CrawlDataset.load(out)
        assert dataset.sources.tolist() == [1, 3, 5]
        assert dataset.targets.tolist() == [2, 4, 6]


def _shard_bytes(directory) -> dict:
    return {path.name: path.read_bytes() for path in iter_segment_paths(directory)}


class TestBatchedExtend:
    """``extend`` writes the same shards as one ``append`` per edge."""

    EDGES = [(u, (u * 7 + 3) % 41) for u in range(0, 230)]
    #: Page-sized batches; several span two or more 16-edge shards.
    CUTS = [0, 3, 3, 40, 41, 90, 91, 92, 150, 230]

    def per_edge(self, directory, registry):
        writer = SegmentWriter(directory, shard_edges=16, registry=registry)
        for u, v in self.EDGES:
            writer.append(u, v)
        writer.seal()
        shards = _shard_bytes(directory)
        # Independent of the writer: 16-edge slices written directly.
        edges = np.array(self.EDGES, dtype=np.int64)
        for index, lo in enumerate(range(0, len(edges), 16), start=1):
            path = directory.parent / f"direct-{index}"
            write_segment(path, edges[lo : lo + 16, 0], edges[lo : lo + 16, 1])
            assert shards[f"seg-{index:06d}.edges"] == path.read_bytes()
        return shards

    @pytest.mark.parametrize("form", ["pairs", "array", "generator"])
    def test_batches_spanning_shards_match_per_edge_append(
        self, tmp_path, registry, form
    ):
        expected = self.per_edge(tmp_path / "per_edge", registry)
        writer = SegmentWriter(tmp_path / "batched", shard_edges=16, registry=registry)
        for lo, hi in zip(self.CUTS, self.CUTS[1:]):
            batch = self.EDGES[lo:hi]
            if form == "array":
                batch = np.array(batch, dtype=np.int64).reshape(-1, 2)
            elif form == "generator":
                batch = (pair for pair in batch)
            writer.extend(batch)
            assert writer.n_buffered == hi % 16
        writer.seal()
        assert _shard_bytes(tmp_path / "batched") == expected
        assert len(expected) == -(-len(self.EDGES) // 16)

    def test_on_seal_sees_the_same_columns(self, tmp_path, registry):
        seen = {"per_edge": [], "batched": []}
        for name in seen:
            writer = SegmentWriter(
                tmp_path / name,
                shard_edges=16,
                registry=registry,
                on_seal=lambda path, s, t, out=seen[name]: out.append(
                    (s.tolist(), t.tolist(), s.dtype, t.flags.c_contiguous)
                ),
            )
            if name == "per_edge":
                for u, v in self.EDGES:
                    writer.append(u, v)
            else:
                writer.extend(self.EDGES)
            writer.seal()
        assert seen["batched"] == seen["per_edge"]
