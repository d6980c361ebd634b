"""BFS frontier for the bidirectional snowball crawl.

A plain FIFO queue with a visited set gives breadth-first order — the
paper's crawl strategy. The frontier also tracks *discovered* users
(seen in someone's circle list but not yet fetched), which is what makes
the final graph larger than the set of crawled profiles (35.1M nodes vs
27.5M crawled profiles in the paper).
"""

from __future__ import annotations

from collections import deque


class BFSFrontier:
    """FIFO crawl frontier with dedup across enqueued/visited states."""

    def __init__(self) -> None:
        self._queue: deque[int] = deque()
        self._seen: set[int] = set()
        self._visited: set[int] = set()

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def add(self, user_id: int) -> bool:
        """Enqueue a user if never seen; True when actually enqueued."""
        if user_id in self._seen:
            return False
        self._seen.add(user_id)
        self._queue.append(user_id)
        return True

    def add_all(self, user_ids) -> int:
        """Enqueue every never-seen id, in first-occurrence order; returns
        how many were enqueued (the same as calling :meth:`add` on each)."""
        seen = self._seen
        fresh = [uid for uid in dict.fromkeys(user_ids) if uid not in seen]
        seen.update(fresh)
        self._queue.extend(fresh)
        return len(fresh)

    def pop(self) -> int:
        """Dequeue the next user to crawl (FIFO = breadth-first)."""
        user_id = self._queue.popleft()
        self._visited.add(user_id)
        return user_id

    def visited(self, user_id: int) -> bool:
        return user_id in self._visited

    def discovered(self, user_id: int) -> bool:
        return user_id in self._seen

    @property
    def n_discovered(self) -> int:
        return len(self._seen)

    @property
    def n_visited(self) -> int:
        return len(self._visited)

    # -- checkpointing (see repro.store) -------------------------------------

    def export_state(self) -> dict:
        """JSON-ready snapshot of queue + seen + visited.

        The queue keeps its FIFO order (it drives the crawl sequence);
        the sets are sorted so equal frontiers serialise identically.
        Ids are coerced to native ints — callers may have fed numpy
        integers, which hash like ints but do not survive JSON.
        """
        return {
            "queue": list(map(int, self._queue)),
            "seen": sorted(map(int, self._seen)),
            "visited": sorted(map(int, self._visited)),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite contents from an :meth:`export_state` snapshot."""
        self._queue = deque(int(user_id) for user_id in state["queue"])
        self._seen = {int(user_id) for user_id in state["seen"]}
        self._visited = {int(user_id) for user_id in state["visited"]}
