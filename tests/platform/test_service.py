"""Tests for the Google+ service simulator."""

from array import array

import pytest

from repro.platform.errors import (
    AlreadyRegisteredError,
    SignupClosedError,
    UnknownUserError,
)
from repro.platform.http import (
    HttpFrontend,
    Request,
    SimulatedClock,
    STATUS_NOT_FOUND,
    STATUS_OK,
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


def profile(user_id: int) -> UserProfile:
    return UserProfile(user_id=user_id, name=f"User {user_id}")


@pytest.fixture
def service() -> GooglePlusService:
    svc = GooglePlusService(open_signup=True)
    for uid in range(5):
        svc.register(profile(uid))
    return svc


class TestSignup:
    def test_field_trial_requires_invitation(self):
        svc = GooglePlusService(open_signup=False)
        with pytest.raises(SignupClosedError):
            svc.register(profile(0))

    def test_invitation_chain(self):
        svc = GooglePlusService(open_signup=True)
        svc.register(profile(0))
        svc.open_signup = False
        svc.register(profile(1), invited_by=0)
        assert 1 in svc

    def test_invitation_from_unknown_user_rejected(self):
        svc = GooglePlusService(open_signup=False)
        with pytest.raises(UnknownUserError):
            svc.register(profile(1), invited_by=99)

    def test_open_signup_needs_no_invite(self):
        svc = GooglePlusService(open_signup=False)
        svc.enable_open_signup()
        svc.register(profile(0))
        assert len(svc) == 1

    def test_duplicate_registration_rejected(self, service):
        with pytest.raises(AlreadyRegisteredError):
            service.register(profile(0))


class TestCircleLinks:
    def test_add_creates_directed_link(self, service):
        assert service.add_to_circle(0, 1) is True
        assert service.followees(0) == [1]
        assert service.followers(1) == [0]
        assert service.followees(1) == []  # no confirmation needed, no reverse

    def test_degrees(self, service):
        service.add_to_circle(0, 1)
        service.add_to_circle(2, 1)
        assert service.in_degree(1) == 2
        assert service.out_degree(0) == 1

    def test_second_circle_same_target_is_not_new(self, service):
        service.add_to_circle(0, 1, "friends")
        assert service.add_to_circle(0, 1, "family") is False
        assert service.in_degree(1) == 1

    def test_remove_drops_follower(self, service):
        service.add_to_circle(0, 1)
        assert service.remove_from_circle(0, 1) is True
        assert service.followers(1) == []

    def test_unknown_users_raise(self, service):
        with pytest.raises(UnknownUserError):
            service.add_to_circle(0, 99)
        with pytest.raises(UnknownUserError):
            service.add_to_circle(99, 0)


class TestFieldVisibility:
    def make_owner(self, service, privacy):
        service.profile(0).set_field("occupation", "Engineer", privacy)

    def test_public_visible_to_anonymous(self, service):
        self.make_owner(service, PUBLIC)
        assert service.can_view_field(0, None, "occupation")

    def test_only_you_hidden_from_everyone_but_owner(self, service):
        self.make_owner(service, ONLY_YOU)
        assert service.can_view_field(0, 0, "occupation")
        assert not service.can_view_field(0, 1, "occupation")
        assert not service.can_view_field(0, None, "occupation")

    def test_your_circles_requires_membership(self, service):
        self.make_owner(service, YOUR_CIRCLES)
        service.add_to_circle(0, 1)
        assert service.can_view_field(0, 1, "occupation")
        assert not service.can_view_field(0, 2, "occupation")

    def test_extended_circles_reaches_friends_of_friends(self, service):
        self.make_owner(service, EXTENDED_CIRCLES)
        service.add_to_circle(0, 1)
        service.add_to_circle(1, 2)
        assert service.can_view_field(0, 2, "occupation")
        assert not service.can_view_field(0, 3, "occupation")

    def test_custom_restricted_to_named_circles(self, service):
        service.profile(0).set_field("occupation", "Engineer", custom("family"))
        service.add_to_circle(0, 1, "family")
        service.add_to_circle(0, 2, "friends")
        assert service.can_view_field(0, 1, "occupation")
        assert not service.can_view_field(0, 2, "occupation")

    def test_name_always_visible(self, service):
        assert service.can_view_field(0, None, "name")

    def test_absent_field_invisible(self, service):
        assert not service.can_view_field(0, 0, "occupation")


class TestProfilePage:
    def test_anonymous_page_has_public_fields_only(self, service):
        service.profile(0).set_field("occupation", "Engineer", PUBLIC)
        service.profile(0).set_field("education", "MIT", ONLY_YOU)
        page = service.profile_page(0)
        assert page.fields == {"occupation": "Engineer"}

    def test_lists_shown_with_true_counts(self, service):
        service.add_to_circle(0, 1)
        service.add_to_circle(2, 0)
        page = service.profile_page(0)
        assert page.out_list.user_ids == array("I", [1])
        assert page.in_list.user_ids == array("I", [2])
        assert page.out_list.declared_count == 1

    def test_private_lists_hidden_from_public(self, service):
        service.profile(0).lists_public = False
        page = service.profile_page(0)
        assert page.in_list is None and page.out_list is None
        # ... but the owner still sees them.
        own_page = service.profile_page(0, viewer_id=0)
        assert own_page.in_list is not None

    def test_display_cap_truncates_but_declares(self):
        svc = GooglePlusService(open_signup=True, circle_display_limit=3)
        for uid in range(6):
            svc.register(profile(uid))
        for follower in range(1, 6):
            svc.add_to_circle(follower, 0)
        page = svc.profile_page(0)
        assert len(page.in_list.user_ids) == 3
        assert page.in_list.declared_count == 5
        assert page.in_list.truncated

    def test_invalid_display_limit(self):
        with pytest.raises(ValueError):
            GooglePlusService(circle_display_limit=0)


class TestContentLayer:
    def test_public_post_visible_to_all(self, service):
        post = service.publish(0, "hello world")
        assert service.can_view_post(post.post_id, None)

    def test_circle_scoped_post(self, service):
        service.add_to_circle(0, 1, "family")
        service.add_to_circle(0, 2, "friends")
        post = service.publish(0, "family news", to_circles=frozenset({"family"}))
        assert service.can_view_post(post.post_id, 1)
        assert not service.can_view_post(post.post_id, 2)
        assert not service.can_view_post(post.post_id, None)
        assert service.can_view_post(post.post_id, 0)  # author

    def test_publish_to_unknown_circle_rejected(self, service):
        with pytest.raises(ValueError):
            service.publish(0, "x", to_circles=frozenset({"nope"}))

    def test_plus_one(self, service):
        post = service.publish(0, "x")
        service.plus_one(1, post.post_id)
        assert 1 in post.plus_ones

    def test_plus_one_unknown_post(self, service):
        with pytest.raises(KeyError):
            service.plus_one(1, 999)

    def test_reshare_references_original(self, service):
        original = service.publish(0, "x")
        reshare = service.publish(1, "RT", reshared_from=original.post_id)
        assert reshare.reshared_from == original.post_id

    def test_reshare_of_unknown_post_rejected(self, service):
        with pytest.raises(KeyError):
            service.publish(1, "RT", reshared_from=42)

    def test_stream_shows_followed_circle_visible_posts(self, service):
        service.add_to_circle(1, 0)  # 1 follows 0
        visible = service.publish(0, "public")
        service.publish(2, "not followed")
        stream = service.stream_for(1)
        assert [p.post_id for p in stream] == [visible.post_id]


class TestHttpHandler:
    def test_profile_path(self, service):
        status, page = service.handle_path("/u/0")
        assert status == STATUS_OK
        assert page.user_id == 0

    @pytest.mark.parametrize("path", ["/u/999", "/other", "/u/abc", ""])
    def test_bad_paths(self, service, path):
        status, page = service.handle_path(path)
        assert status == STATUS_NOT_FOUND
        assert page is None

    @pytest.mark.parametrize(
        "path", ["/u/1_0", "/u/ 10 ", "/u/+10", "/u/010", "/u/\u0661\u0660", "/u/-0", "/u/"]
    )
    def test_non_canonical_paths_do_not_alias(self, path):
        """``int()`` accepts each of these as 10 (or 0); only ``/u/10``
        names user 10's page."""
        from repro.serve.loadgen import ServingStack

        svc = GooglePlusService(open_signup=True)
        for uid in range(11):
            svc.register(profile(uid))
        stack = ServingStack(svc, SimulatedClock(), rate_per_ip=1e9, burst=1e9)
        frontend = HttpFrontend(
            svc.handle_path, clock=SimulatedClock(), rate_per_ip=1e9, burst=1e9
        )
        for handle in (frontend.handle, stack.frontend.handle):
            assert handle(Request("/u/10", "1.2.3.4")).status == STATUS_OK
            assert handle(Request("/u/0", "1.2.3.4")).status == STATUS_OK
            assert handle(Request(path, "1.2.3.4")).status == STATUS_NOT_FOUND
        assert svc.handle_path(path) == (STATUS_NOT_FOUND, None)


class TestNotifications:
    def test_circle_add_notifies_target(self, service):
        from repro.platform.service import Notification

        service.add_to_circle(0, 1)
        feed = service.notifications(1)
        assert feed == [Notification(kind="added_to_circle", actor_id=0)]

    def test_readding_same_target_does_not_renotify(self, service):
        service.add_to_circle(0, 1, "friends")
        service.add_to_circle(0, 1, "family")
        assert len(service.notifications(1)) == 1

    def test_plus_one_notifies_author(self, service):
        post = service.publish(0, "hello")
        service.plus_one(1, post.post_id)
        feed = service.notifications(0)
        assert feed[-1].kind == "plus_one"
        assert feed[-1].actor_id == 1
        assert feed[-1].subject_id == post.post_id

    def test_duplicate_plus_one_does_not_renotify(self, service):
        post = service.publish(0, "hello")
        service.plus_one(1, post.post_id)
        service.plus_one(1, post.post_id)
        assert len(service.notifications(0)) == 1

    def test_clear_consumes_feed(self, service):
        service.add_to_circle(0, 1)
        assert service.notifications(1, clear=True)
        assert service.notifications(1) == []
