"""The anonymous page from the public-field mask equals the generic render.

:class:`~repro.platform.columnar.ColumnarProfileStore` precomputes, per
base user, a bitmask of the fields present and visible to
``ANON_CLASS``; the service renders an anonymous page from it.  Every
other case — overlaid users, stores pinning a per-user key order — runs
the generic path: :meth:`field_entries` filtered through
:func:`visible_to`.  These tests hold both to the generic path and to
the independent oracle in ``tests/reference_pages.py``.
"""

import pytest

from repro.platform.privacy import ANON_CLASS, ONLY_YOU, PUBLIC, visible_to
from repro.serve.cache import page_to_bytes
from repro.synth import build_world, WorldConfig
from tests.reference_pages import reference_page


def generic_fields(service, uid) -> list:
    return [
        (key, entry.value)
        for key, entry in service.field_entries(uid)
        if visible_to(entry.privacy, ANON_CLASS)
    ]


def assert_anon_page_matches(service, uid) -> None:
    assert list(service.visible_fields(uid, ANON_CLASS).items()) == generic_fields(
        service, uid
    )
    assert page_to_bytes(service.profile_page(uid)) == page_to_bytes(
        reference_page(service, uid, None)
    )


@pytest.fixture(scope="module", params=["fast", "reference"])
def world(request):
    return build_world(WorldConfig(n_users=1_200, seed=3, engine=request.param))


def test_every_base_user(world):
    service = world.service
    for uid in range(len(service)):
        assert_anon_page_matches(service, uid)


def test_mask_bits_follow_the_visibility_table(world):
    store = world.service.base_profiles
    if world.config.engine == "reference":
        # The reference engine pins a per-user key order, which a mask
        # over one global field order cannot express: no mask at all.
        assert store.key_order is not None
        assert store.anon_mask is None and store.anon_fields(0) is None
        return
    assert store.key_order is None and store.anon_mask is not None
    for uid in range(store.n):
        expected = [
            key
            for key, entry in store.iter_entries(uid)
            if visible_to(entry.privacy, ANON_CLASS)
        ]
        assert list(store.anon_fields(uid)) == expected


def test_overlaid_users_after_edits():
    world = build_world(WorldConfig(n_users=1_200, seed=3, engine="fast"))
    service = world.service
    edited = list(range(1, 1_200, 97))
    for i, uid in enumerate(edited):
        entries = list(service.field_entries(uid))
        if entries:
            key, entry = entries[i % len(entries)]
            # Flip one field's visibility, keeping its value.
            flipped = ONLY_YOU if entry.privacy.is_public() else PUBLIC
            service.update_field(uid, key, entry.value, flipped)
        service.update_field(uid, "occupation", f"Edited {uid}", PUBLIC)
        service.set_lists_public(uid, i % 2 == 0)
    service.set_lists_public(0, False)  # lists-only overlay
    for uid in [0, *edited]:
        assert uid in service._profiles
        assert_anon_page_matches(service, uid)
    for uid in edited:
        assert service.visible_fields(uid, ANON_CLASS)["occupation"] == f"Edited {uid}"
    # Base users beside the edited ones still read the mask, unchanged.
    for uid in range(2, 1_200, 89):
        assert_anon_page_matches(service, uid)
