"""A small pure-Python model of the service, kept as a test oracle.

It holds every account as plain objects — a :class:`UserProfile`, a
:class:`CircleStore`, a follower dict and a notification list — and
applies each operation the obvious way, one account at a time.  It has
no bulk ingest, no columns, no overlays and no content layer, so state
comparisons against :class:`repro.platform.service.GooglePlusService`
check the service's column-plus-overlay bookkeeping against the
definition.  Its read calls match the service's, so
:func:`tests.reference_pages.reference_page` renders pages from either.
"""

from repro.platform.circles import CIRCLE_DISPLAY_LIMIT, CircleStore, DEFAULT_CIRCLE
from repro.platform.errors import AlreadyRegisteredError, UnknownUserError
from repro.platform.models import UserProfile
from repro.platform.service import Notification


class ModelService:
    def __init__(self, circle_display_limit: int = CIRCLE_DISPLAY_LIMIT):
        self.circle_display_limit = circle_display_limit
        self._profiles: dict[int, UserProfile] = {}
        self._circles: dict[int, CircleStore] = {}
        self._followers: dict[int, dict[int, None]] = {}
        self._notes: dict[int, list[Notification]] = {}

    def _user(self, user_id: int) -> int:
        if user_id not in self._profiles:
            raise UnknownUserError(user_id)
        return user_id

    def register(self, profile: UserProfile, exempt_from_circle_limit: bool = False):
        user_id = profile.user_id
        if user_id in self._profiles:
            raise AlreadyRegisteredError(user_id)
        store = CircleStore(user_id, exempt_from_limit=exempt_from_circle_limit)
        store.create_circle(DEFAULT_CIRCLE)
        self._profiles[user_id] = profile
        self._circles[user_id] = store
        self._followers[user_id] = {}
        self._notes[user_id] = []

    def add_to_circle(self, user_id, target_id, circle=DEFAULT_CIRCLE) -> bool:
        store = self._circles[self._user(user_id)]
        self._user(target_id)
        is_new_link = store.add(target_id, circle)
        if is_new_link:
            self._followers[target_id][user_id] = None
            self._notes[target_id].append(
                Notification(kind="added_to_circle", actor_id=user_id)
            )
        return is_new_link

    def remove_from_circle(self, user_id, target_id, circle=None) -> bool:
        link_removed = self._circles[self._user(user_id)].remove(target_id, circle)
        if link_removed:
            self._followers[target_id].pop(user_id, None)
        return link_removed

    def update_field(self, user_id, key, value, privacy) -> None:
        self.profile(user_id).set_field(key, value, privacy)

    def set_lists_public(self, user_id, public) -> None:
        self.profile(user_id).lists_public = bool(public)

    def profile(self, user_id) -> UserProfile:
        return self._profiles[self._user(user_id)]

    def followers(self, user_id) -> list[int]:
        return list(self._followers[self._user(user_id)])

    def followees(self, user_id) -> list[int]:
        return self._circles[self._user(user_id)].flattened()

    def in_circles(self, owner_id, viewer_id) -> bool:
        return self._circles[self._user(owner_id)].contains(viewer_id)

    def member_of(self, owner_id, target_id, circle) -> bool:
        return self._circles[self._user(owner_id)].member_of(target_id, circle)

    def circle_names(self, user_id) -> list[str]:
        return self._circles[self._user(user_id)].circle_names()

    def exempt_from_circle_limit(self, user_id) -> bool:
        return self._circles[self._user(user_id)].exempt_from_limit

    def notifications(self, user_id) -> list[Notification]:
        return list(self._notes[self._user(user_id)])


def observable_state(service, user_ids, circles) -> list:
    """Everything a crawl or a page can observe of these users' links,
    read through service-level calls with insertion orders intact."""
    state = []
    for uid in user_ids:
        state.append(
            (
                uid,
                service.exempt_from_circle_limit(uid),
                service.circle_names(uid),
                service.followees(uid),
                service.followers(uid),
                [(note.kind, note.actor_id) for note in service.notifications(uid)],
                [
                    (target, circle)
                    for target in user_ids
                    for circle in circles
                    if service.member_of(uid, target, circle)
                ],
                [target for target in user_ids if service.in_circles(uid, target)],
            )
        )
    return state
