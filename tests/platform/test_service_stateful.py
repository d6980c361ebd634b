"""Stateful property test: random operation sequences keep the service
internally consistent (followers/followees symmetry, degree accounting,
page-list agreement)."""

import hypothesis.strategies as st
from hypothesis.stateful import (
    invariant,
    rule,
    RuleBasedStateMachine,
)

from repro.platform.circles import OUT_CIRCLE_LIMIT
from repro.platform.errors import CircleLimitError
from repro.platform.models import UserProfile
from repro.platform.service import GooglePlusService

N_USERS = 12
CIRCLES = ("friends", "family", "colleagues")


class ServiceMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.service = GooglePlusService(open_signup=True)
        for uid in range(N_USERS):
            self.service.register(UserProfile(user_id=uid, name=f"U{uid}"))
        # Reference model: set of directed links.
        self.links: set[tuple[int, int]] = set()

    users = st.integers(min_value=0, max_value=N_USERS - 1)

    @rule(u=users, v=users, circle=st.sampled_from(CIRCLES))
    def add(self, u, v, circle):
        if u == v:
            return
        try:
            self.service.add_to_circle(u, v, circle)
        except CircleLimitError:
            assert len(self.links) >= OUT_CIRCLE_LIMIT  # unreachable here
            return
        self.links.add((u, v))

    @rule(u=users, v=users)
    def remove_everywhere(self, u, v):
        if u == v or not self.service.in_circles(u, v):
            return
        removed = self.service.remove_from_circle(u, v)
        assert removed
        self.links.discard((u, v))

    @rule(u=users, v=users, circle=st.sampled_from(CIRCLES))
    def remove_from_one_circle(self, u, v, circle):
        if circle not in self.service.circle_names(u):
            return
        was_linked = (u, v) in self.links
        fully_removed = self.service.remove_from_circle(u, v, circle)
        if fully_removed:
            # True means an existing link died — never-members report False.
            assert was_linked
            self.links.discard((u, v))
        else:
            assert (u, v) in self.links or not was_linked

    @invariant()
    def links_match_model(self):
        actual = {
            (u, v)
            for u in range(N_USERS)
            for v in self.service.followees(u)
        }
        assert actual == self.links

    @invariant()
    def followers_mirror_followees(self):
        for v in range(N_USERS):
            for u in self.service.followers(v):
                assert v in self.service.followees(u)
        for u in range(N_USERS):
            for v in self.service.followees(u):
                assert u in self.service.followers(v)

    @invariant()
    def degrees_consistent(self):
        total_out = sum(self.service.out_degree(u) for u in range(N_USERS))
        total_in = sum(self.service.in_degree(u) for u in range(N_USERS))
        assert total_out == total_in == len(self.links)

    @invariant()
    def pages_agree_with_state(self):
        page = self.service.profile_page(0)
        assert page.out_list.declared_count == self.service.out_degree(0)
        assert page.in_list.declared_count == self.service.in_degree(0)


TestServiceStateMachine = ServiceMachine.TestCase
