"""A materialising oracle for notification feeds, kept as a test oracle.

It keeps every feed the obvious way: a base user's feed is copied in
full from the base world's in-row (one ``added_to_circle`` per incoming
link) on its first note or read, then appended to and cleared as a
plain list.  The service instead keeps only the notes appended after
the base feed plus a "cleared" mark; differential tests check that both
give the same feed after every operation.
"""

from repro.platform.service import Notification


class MaterialisingFeeds:
    def __init__(self, service):
        # The base CSR is never written after ingest, so its in-rows
        # are the feeds every base user starts with.
        self._base = service.base_circles
        self._n = len(service.base_circles.in_indptr) - 1
        self._feeds: dict[int, list[Notification]] = {}

    def _feed(self, user_id: int) -> list[Notification]:
        feed = self._feeds.get(user_id)
        if feed is None:
            actors = self._base.in_slice(user_id).tolist() if user_id < self._n else []
            feed = self._feeds[user_id] = [
                Notification(kind="added_to_circle", actor_id=actor) for actor in actors
            ]
        return feed

    def circle_added(self, actor_id: int, target_id: int) -> None:
        self._feed(target_id).append(Notification(kind="added_to_circle", actor_id=actor_id))

    def plus_oned(self, actor_id: int, author_id: int, post_id: int) -> None:
        self._feed(author_id).append(
            Notification(kind="plus_one", actor_id=actor_id, subject_id=post_id)
        )

    def read(self, user_id: int, clear: bool = False) -> list[Notification]:
        items = list(self._feed(user_id))
        if clear:
            self._feeds[user_id] = []
        return items
