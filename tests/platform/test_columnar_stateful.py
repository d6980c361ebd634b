"""Stateful differential proof: the columnar store IS the dict store.

One hypothesis state machine drives a dict-backed
:class:`GooglePlusService` and a columnar
:class:`ColumnarGooglePlusService` seeded with the same world through
identical randomized operation sequences — circle edits (including
removals and never-member removals), field updates across every privacy
level, list-visibility toggles, post-ingest registrations — and asserts
after every step that every observable agrees: profile fields and
privacy-rendered pages (byte-for-byte, and against the per-field
oracle in ``tests/reference_pages.py``), ``circles_of`` / ``flattened``
/ ``out_degree``, followers, and ``member_of``.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    invariant,
    rule,
    RuleBasedStateMachine,
)

from repro.platform.columnar import (
    ColumnarGooglePlusService,
    ColumnarProfileStore,
)
from repro.platform.models import UserProfile
from repro.platform.privacy import (
    custom,
    EXTENDED_CIRCLES,
    ONLY_YOU,
    PUBLIC,
    YOUR_CIRCLES,
)
from repro.platform.service import GooglePlusService
from repro.serve.cache import page_to_bytes
from tests.reference_pages import reference_page

N_BASE = 10
CIRCLES = ("friends", "family", "vips")
FIELDS = ("occupation", "introduction", "education", "employment")
PRIVACIES = (PUBLIC, ONLY_YOU, YOUR_CIRCLES, EXTENDED_CIRCLES, custom("vips"))

#: The ingested base world: (source, target, circle-label index).
BASE_EDGES = (
    (0, 1, 2),  # 0 has 1 in "vips" — exercises CUSTOM reads
    (0, 2, 0),
    (1, 0, 0),
    (2, 3, 1),
    (4, 0, 0),
    (5, 6, 0),
)


def base_profiles() -> dict[int, UserProfile]:
    profiles = {}
    for uid in range(N_BASE):
        profile = UserProfile(user_id=uid, name=f"User {uid}")
        profiles[uid] = profile
    profiles[0].set_field("gender", "female", PUBLIC)
    profiles[0].set_field("occupation", "engineer", YOUR_CIRCLES)
    profiles[0].set_field("education", "stanford", EXTENDED_CIRCLES)
    profiles[0].set_field("introduction", "hello vips", custom("vips"))
    profiles[0].set_field("employment", "secret corp", ONLY_YOU)
    profiles[1].set_field("occupation", "artist", YOUR_CIRCLES)
    profiles[1].lists_public = False
    return profiles


def build_pair() -> tuple[GooglePlusService, ColumnarGooglePlusService]:
    profiles = base_profiles()
    reference = GooglePlusService(open_signup=True)
    for uid in range(N_BASE):
        reference.register(profiles[uid])
    import numpy as np

    sources = np.array([e[0] for e in BASE_EDGES])
    targets = np.array([e[1] for e in BASE_EDGES])
    labels = np.array([e[2] for e in BASE_EDGES], dtype=np.uint8)
    reference.add_edges_bulk(sources, targets, circle_index=(CIRCLES, labels))
    columnar = ColumnarGooglePlusService(open_signup=True)
    columnar.ingest_world(
        ColumnarProfileStore.from_profiles(base_profiles()),
        sources,
        targets,
        CIRCLES,
        labels,
    )
    return reference, columnar


class ColumnarEquivalenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.reference, self.columnar = build_pair()
        self.next_uid = N_BASE

    users = st.integers(min_value=0, max_value=N_BASE - 1)

    def _both(self, op):
        """Apply an operation to both services; outcomes must match too."""
        results = []
        for service in (self.reference, self.columnar):
            try:
                results.append(("ok", op(service)))
            except Exception as exc:  # identical failures are agreement
                results.append(("err", type(exc).__name__))
        assert results[0] == results[1], results
        return results[0]

    @rule(u=users, v=users, circle=st.sampled_from(CIRCLES))
    def add_to_circle(self, u, v, circle):
        self._both(lambda s: s.add_to_circle(u, v, circle))

    @rule(u=users, v=users, circle=st.sampled_from(CIRCLES + (None,)))
    def remove_from_circle(self, u, v, circle):
        # Includes never-member and unknown-circle removals: the return
        # value and the raised error must agree across stores.
        self._both(lambda s: s.remove_from_circle(u, v, circle))

    @rule(
        u=users,
        key=st.sampled_from(FIELDS),
        value=st.integers(min_value=0, max_value=99),
        privacy=st.sampled_from(range(len(PRIVACIES))),
    )
    def update_field(self, u, key, value, privacy):
        self._both(
            lambda s: s.update_field(u, key, f"v{value}", PRIVACIES[privacy])
        )

    @rule(u=users, public=st.booleans())
    def set_lists_public(self, u, public):
        self._both(lambda s: s.set_lists_public(u, public))

    @rule()
    def register_new_user(self):
        uid = self.next_uid
        self.next_uid += 1
        self._both(
            lambda s: s.register(UserProfile(user_id=uid, name=f"User {uid}"))
        )

    @invariant()
    def circle_state_identical(self):
        for uid in range(self.next_uid):
            ref = self.reference._account(uid).circles
            col = self.columnar._account(uid).circles
            assert ref.flattened() == col.flattened(), uid
            assert ref.out_degree() == col.out_degree(), uid
            for target in range(self.next_uid):
                assert ref.circles_of(target) == col.circles_of(target)
                assert ref.contains(target) == col.contains(target)
                for circle in CIRCLES:
                    assert ref.member_of(target, circle) == col.member_of(
                        target, circle
                    ), (uid, target, circle)
            assert self.reference.followers(uid) == self.columnar.followers(uid)

    @invariant()
    def rendered_pages_identical(self):
        viewers = [None] + list(range(self.next_uid))
        for owner in range(self.next_uid):
            for viewer in viewers:
                ref = page_to_bytes(self.reference.profile_page(owner, viewer))
                col = page_to_bytes(self.columnar.profile_page(owner, viewer))
                assert ref == col, (owner, viewer)
                oracle = page_to_bytes(reference_page(self.reference, owner, viewer))
                assert oracle == ref, (owner, viewer)

    @invariant()
    def profiles_identical(self):
        for uid in range(self.next_uid):
            ref = self.reference.profile(uid)
            col = self.columnar.profile(uid)
            assert ref.name == col.name, uid
            assert ref.lists_public == col.lists_public, uid
            assert set(ref.fields) == set(col.fields), uid
            for key, entry in ref.fields.items():
                other = col.fields[key]
                assert entry.value == other.value, (uid, key)
                assert entry.privacy == other.privacy, (uid, key)


TestColumnarEquivalence = ColumnarEquivalenceMachine.TestCase
TestColumnarEquivalence.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
