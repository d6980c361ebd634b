"""Tests for the bulk ingest paths: ``GooglePlusService.ingest_world``
and ``CircleStore.extend``.

The load-bearing property is *state identity*: a bulk call must leave the
service in exactly the state the equivalent scalar-call sequence would —
including every insertion order the crawler observes (circle membership,
flattened contact lists, follower lists, notification feeds).
"""

import numpy as np
import pytest

from repro.platform.circles import OUT_CIRCLE_LIMIT, CircleStore
from repro.platform.columnar import ColumnarProfileStore
from repro.platform.errors import CircleLimitError, UnknownUserError
from repro.platform.models import UserProfile
from repro.platform.service import GooglePlusService
from tests.model_service import observable_state

N_USERS = 40
LABELS = ("friends", "family", "colleagues")


def profile(user_id: int) -> UserProfile:
    return UserProfile(user_id=user_id, name=f"User {user_id}")


def per_edge_service(src, dst, circles, exempt=()) -> tuple[GooglePlusService, int]:
    """The world built the scalar way: register, then one add per edge."""
    svc = GooglePlusService(open_signup=True)
    for uid in range(N_USERS):
        svc.register(profile(uid), exempt_from_circle_limit=uid in set(exempt))
    new_links = 0
    for u, v, c in zip(src.tolist(), dst.tolist(), circles):
        new_links += svc.add_to_circle(u, v, c)
    return svc, new_links


def ingest(src, dst, codes, n: int = N_USERS, exempt=()) -> tuple[GooglePlusService, int]:
    svc = GooglePlusService(open_signup=True)
    profiles = ColumnarProfileStore.from_profiles({uid: profile(uid) for uid in range(n)})
    created = svc.ingest_world(
        profiles, src, dst, LABELS, np.asarray(codes, dtype=np.uint8), exempt_ids=exempt
    )
    return svc, created


@pytest.fixture
def edges():
    """A batch exercising every interesting shape: repeated owners,
    shared targets, the same pair in several circles, and exact
    duplicate (owner, target, circle) triples."""
    rng = np.random.default_rng(3)
    src = rng.integers(0, N_USERS, size=400)
    dst = rng.integers(0, N_USERS, size=400)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    codes = [i % 3 for i in range(len(src))]
    # Force exact duplicates and same-pair-different-circle cases.
    src = np.concatenate((src, src[:20], src[:10]))
    dst = np.concatenate((dst, dst[:20], dst[:10]))
    codes = codes + codes[:20] + [(i + 1) % 3 for i in range(10)]
    return src, dst, codes


class TestIngestWorldStateIdentity:
    def test_matches_per_edge_adds(self, edges):
        src, dst, codes = edges
        exempt = {3, 7}
        scalar, new_links = per_edge_service(
            src, dst, [LABELS[c] for c in codes], exempt
        )
        bulk, created = ingest(src, dst, codes, exempt=exempt)
        assert created == new_links
        users = range(N_USERS)
        assert observable_state(bulk, users, LABELS) == observable_state(
            scalar, users, LABELS
        )

    def test_empty_batch(self):
        empty = np.empty(0, np.int64)
        svc, created = ingest(empty, empty, [])
        assert created == 0
        assert len(svc) == N_USERS

    def test_runs_only_on_an_empty_service(self, edges):
        src, dst, codes = edges
        svc, _ = ingest(src, dst, codes)
        with pytest.raises(ValueError, match="empty service"):
            svc.ingest_world(
                ColumnarProfileStore.empty(), src[:0], dst[:0], LABELS, np.zeros(0)
            )


class TestIngestWorldValidation:
    def test_unknown_source_rejected(self):
        with pytest.raises(UnknownUserError):
            ingest(np.array([99]), np.array([1]), [0], n=5)

    def test_unknown_target_rejected(self):
        with pytest.raises(UnknownUserError):
            ingest(np.array([1]), np.array([-3]), [0], n=5)

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError, match="themselves"):
            ingest(np.array([1, 2]), np.array([3, 2]), [0, 0], n=5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ingest(np.array([1, 2]), np.array([3]), [0, 0], n=5)

    def test_circle_cap_enforced(self):
        n = OUT_CIRCLE_LIMIT + 2
        targets = np.arange(1, n)
        with pytest.raises(CircleLimitError):
            ingest(np.zeros(len(targets), np.int64), targets, [0] * len(targets), n=n)

    def test_exempt_owner_escapes_cap(self):
        n = OUT_CIRCLE_LIMIT + 2
        targets = np.arange(1, n)
        svc, created = ingest(
            np.zeros(len(targets), np.int64), targets, [0] * len(targets), n=n, exempt=[0]
        )
        assert created == len(targets)
        assert svc.out_degree(0) == len(targets)


class TestCircleStoreExtend:
    def test_matches_add_sequence(self):
        a = CircleStore(0)
        b = CircleStore(0)
        targets = [5, 3, 5, 9, 3, 1]
        new_a = [t for t in targets if a.add(t, "friends")]
        new_b = b.extend(targets, "friends")
        assert new_b == list(dict.fromkeys(new_a))
        assert list(a.all_members) == list(b.all_members)
        assert {k: list(v) for k, v in a.members_by_circle.items()} == {
            k: list(v) for k, v in b.members_by_circle.items()
        }

    def test_failing_batch_mutates_nothing(self):
        store = CircleStore(0)
        store.add(1)
        with pytest.raises(ValueError):
            store.extend([2, 3, 0])  # self-add fails the whole batch
        assert list(store.all_members) == [1]

    def test_cap_counts_distinct_new_members(self):
        store = CircleStore(0)
        for t in range(1, OUT_CIRCLE_LIMIT + 1):
            store.add(t)
        # Re-adding existing members stays legal at the cap...
        store.extend([1, 2, 3], "inner")
        # ...but one genuinely new member trips it, atomically.
        with pytest.raises(CircleLimitError):
            store.extend([1, OUT_CIRCLE_LIMIT + 1])
        assert OUT_CIRCLE_LIMIT + 1 not in store.all_members
