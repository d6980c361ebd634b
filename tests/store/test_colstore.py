"""Spill/reload roundtrip for out-of-core columnar circles."""

import numpy as np
import pytest

from repro.platform.columnar import ColumnarCircles
from repro.serve.cache import page_to_bytes
from repro.store.colstore import (
    EDGES_NAME,
    load_circles,
    MANIFEST_NAME,
    spill_circles,
    spill_service,
    SpillError,
    verify_spill,
)
from repro.store.segments import read_segment
from repro.synth import build_world, WorldConfig

ARRAY_NAMES = (
    "out_indptr",
    "out_targets",
    "out_labels",
    "flat_indptr",
    "flat_targets",
    "in_indptr",
    "in_sources",
)


@pytest.fixture(scope="module")
def world():
    return build_world(
        WorldConfig(n_users=800, seed=21, engine="fast", store="columnar")
    )


def _circles(world) -> ColumnarCircles:
    return world.service.base_circles


class TestSpillRoundtrip:
    def test_arrays_roundtrip_memory_mapped(self, world, tmp_path):
        circles = _circles(world)
        manifest = spill_circles(circles, tmp_path)
        assert manifest.name == MANIFEST_NAME
        reloaded = load_circles(tmp_path)
        for name in ARRAY_NAMES:
            original, mapped = getattr(circles, name), getattr(reloaded, name)
            assert isinstance(mapped, np.memmap), name
            assert np.array_equal(original, mapped), name
        assert reloaded.labels == circles.labels

    def test_flat_aliasing_survives_reload(self, world, tmp_path):
        circles = _circles(world)
        assert circles.flat_targets is circles.out_targets  # fastgen: no dups
        spill_circles(circles, tmp_path)
        reloaded = load_circles(tmp_path)
        assert reloaded.flat_targets is reloaded.out_targets
        assert not (tmp_path / "flat_targets.npy").exists()

    def test_edge_segment_holds_the_link_list(self, world, tmp_path):
        circles = _circles(world)
        spill_circles(circles, tmp_path)
        sources, targets = read_segment(tmp_path / EDGES_NAME)
        assert len(sources) == int(circles.flat_indptr[-1])
        expected_src = np.repeat(
            np.arange(len(circles.flat_indptr) - 1), np.diff(circles.flat_indptr)
        )
        assert np.array_equal(sources, expected_src)
        assert np.array_equal(targets, circles.flat_targets)

    def test_verify_clean_spill(self, world, tmp_path):
        spill_circles(_circles(world), tmp_path)
        assert verify_spill(tmp_path) == []


class TestSpillIntegrity:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SpillError, match="columns.json"):
            load_circles(tmp_path)
        assert verify_spill(tmp_path)

    def test_missing_column_file(self, world, tmp_path):
        spill_circles(_circles(world), tmp_path)
        (tmp_path / "in_sources.npy").unlink()
        with pytest.raises(SpillError, match="in_sources"):
            load_circles(tmp_path)

    def test_corrupt_column_detected_by_verify(self, world, tmp_path):
        spill_circles(_circles(world), tmp_path)
        path = tmp_path / "out_targets.npy"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert any("out_targets" in p for p in verify_spill(tmp_path))

    def test_edge_count_mismatch(self, world, tmp_path):
        import json

        spill_circles(_circles(world), tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["n_links"] += 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SpillError, match="links"):
            load_circles(tmp_path)


class TestSpillService:
    def test_reads_identical_after_spill(self, world, tmp_path):
        service = world.service
        users = sorted(service.user_ids())[::37]
        before = {
            uid: (
                service.followees(uid),
                service.followers(uid),
                page_to_bytes(service.profile_page(uid, None)),
            )
            for uid in users
        }
        spill_service(service, tmp_path)
        assert isinstance(service.base_circles.out_targets, np.memmap)
        for uid in users:
            after = (
                service.followees(uid),
                service.followers(uid),
                page_to_bytes(service.profile_page(uid, None)),
            )
            assert after == before[uid], uid
