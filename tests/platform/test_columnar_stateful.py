"""Stateful differential proof: the service matches a plain-object model.

One hypothesis state machine drives :class:`GooglePlusService`, with its
base world ingested as columns, and the pure-Python
:class:`tests.model_service.ModelService`, with the same world built by
per-edge adds, through identical randomized operation sequences —
circle edits (including removals and never-member removals), field
updates across every privacy level, list-visibility toggles, post-ingest
registrations — and asserts after every step that every observable
agrees: ordered profile fields, circle names, memberships, followers,
followees and notifications, and privacy-rendered pages (byte-for-byte,
against the per-field oracle in ``tests/reference_pages.py``).
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import settings
from hypothesis.stateful import (
    invariant,
    rule,
    RuleBasedStateMachine,
)

from repro.platform.columnar import ColumnarProfileStore
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
from tests.model_service import ModelService, observable_state
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


def build_pair() -> tuple[ModelService, GooglePlusService]:
    model = ModelService()
    for profile in base_profiles().values():
        model.register(profile)
    for source, target, label in BASE_EDGES:
        model.add_to_circle(source, target, CIRCLES[label])
    service = GooglePlusService(open_signup=True)
    service.ingest_world(
        ColumnarProfileStore.from_profiles(base_profiles()),
        np.array([e[0] for e in BASE_EDGES]),
        np.array([e[1] for e in BASE_EDGES]),
        CIRCLES,
        np.array([e[2] for e in BASE_EDGES], dtype=np.uint8),
    )
    return model, service


class ColumnarEquivalenceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.model, self.service = build_pair()
        self.next_uid = N_BASE

    users = st.integers(min_value=0, max_value=N_BASE - 1)

    def _both(self, op):
        """Apply an operation to both sides; outcomes must match too."""
        results = []
        for side in (self.model, self.service):
            try:
                results.append(("ok", op(side)))
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
        # value and the raised error must agree.
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
        uids = range(self.next_uid)
        assert observable_state(self.service, uids, CIRCLES) == observable_state(
            self.model, uids, CIRCLES
        )

    @invariant()
    def circle_members_match_membership(self):
        # Two named circles plus an unknown name; a target in both named
        # circles is listed twice.
        names = (CIRCLES[0], CIRCLES[-1], "no such circle")
        uids = range(self.next_uid)
        for owner in uids:
            expected = [
                target
                for name in names
                for target in uids
                if self.model.member_of(owner, target, name)
            ]
            got = self.service.circle_members(owner, names).tolist()
            assert sorted(got) == sorted(expected), owner

    @invariant()
    def rendered_pages_identical(self):
        viewers = [None] + list(range(self.next_uid))
        for owner in range(self.next_uid):
            for viewer in viewers:
                page = page_to_bytes(self.service.profile_page(owner, viewer))
                oracle = page_to_bytes(reference_page(self.model, owner, viewer))
                assert page == oracle, (owner, viewer)

    @invariant()
    def profiles_identical(self):
        for uid in range(self.next_uid):
            mine = self.service.profile(uid)
            theirs = self.model.profile(uid)
            assert mine.name == theirs.name, uid
            assert mine.lists_public == theirs.lists_public, uid
            assert list(mine.fields.items()) == list(theirs.fields.items()), uid


TestColumnarEquivalence = ColumnarEquivalenceMachine.TestCase
TestColumnarEquivalence.settings = settings(
    max_examples=25, stateful_step_count=15, deadline=None
)
