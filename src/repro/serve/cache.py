"""Privacy-aware profile-page cache keyed by (owner, viewer-privacy-class).

Google+ profile pages are expensive to render for celebrities (truncated
10,000-entry circle lists) yet served to millions of viewers, almost all
of whom see one of a handful of *privacy classes* of the page.  The
cache exploits the key structural fact of the privacy model:

    The bytes of a profile page rendered for a given privacy class
    depend only on the **owner's own state** (profile fields and circle
    store).  Other users' circles — the two-hop EXTENDED_CIRCLES reach —
    only change which class a *viewer* maps to, never the content of a
    class's page.

So cached pages are keyed by ``(owner_id, class_key)``, with the class
keys of :mod:`repro.platform.privacy`: ``("anon",)``, ``("self",)`` or
a member's ``("m", in_circles, in_extended, custom)``.

**Rendering.** There is one renderer,
:func:`repro.platform.pages.render_for_class`, re-exported here; the
uncached ``service.profile_page(owner, viewer)`` is that renderer
applied to ``service.class_of(owner, viewer)``.  :class:`ViewerClasser`
memoises the same classification.  So a cached page and an uncached
one are the same function of owner state and class.

Invalidation therefore splits cleanly:

* a **circle mutation** by ``u`` on ``v`` drops the cached pages of the
  two owners whose lists changed (``u``'s out-list, ``v``'s in-list —
  only the ``self`` page when an owner hides lists), and drops the
  viewer→class memo for ``u`` and for ``u``'s followers (whose extended
  reach flows through ``u``);
* a **profile mutation** on ``o`` drops every cached class of ``o``'s
  page, its class memo and its privacy-needs entry;
* **posts and +1s** never touch profile pages and are ignored.

Differential tests check cached bytes against uncached ones, and both
against an independent per-field oracle kept under ``tests/``.
"""

from __future__ import annotations

import enum
import hashlib
import json
from collections import OrderedDict
from typing import Any, Mapping

from repro.obs.metrics import Registry, get_registry
from repro.platform.pages import CircleListView, ProfilePage, render_for_class
from repro.platform.privacy import ANON_CLASS, SELF_CLASS, member_needs

__all__ = [
    "ANON_CLASS",
    "PageCache",
    "SELF_CLASS",
    "ViewerClasser",
    "page_to_bytes",
    "payload_digest",
    "payload_to_bytes",
    "render_for_class",
]

#: When a circle mutation's two-hop memo fan-out (the actor's follower
#: count) exceeds this, the whole memo is cleared instead — coarser but
#: still correct, and bounded work for celebrity actors.
_MEMO_FANOUT_LIMIT = 10_000


def _jsonify(value: Any) -> Any:
    """A canonical JSON-ready view of any profile-page value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, CircleListView):
        return {"ids": list(value.user_ids), "declared": value.declared_count}
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonify(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_jsonify(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return repr(value)


def page_to_bytes(page: ProfilePage) -> bytes:
    """Canonical byte serialisation of a profile page (for differential
    byte-identity proofs and body digests)."""
    document = {
        "user_id": page.user_id,
        "name": page.name,
        "fields": {key: _jsonify(value) for key, value in page.fields.items()},
        "in_list": _jsonify(page.in_list),
        "out_list": _jsonify(page.out_list),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_to_bytes(payload: Any) -> bytes:
    """Canonical bytes of any response payload a serving route returns."""
    if payload is None:
        return b"null"
    if isinstance(payload, ProfilePage):
        return page_to_bytes(payload)
    return json.dumps(
        _jsonify(payload), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def payload_digest(payload: Any) -> str:
    """Hex SHA-256 of a payload's canonical bytes."""
    return hashlib.sha256(payload_to_bytes(payload)).hexdigest()


class ViewerClasser:
    """Maps ``(owner, viewer)`` pairs to privacy-class keys, memoised.

    The memo is an owner-keyed two-level dict so invalidation by owner
    is O(1); the per-owner *privacy needs* (does any field use
    EXTENDED_CIRCLES? which circles do CUSTOM fields reference?) are
    cached too, because they gate the expensive extended-circles scan.
    Memoised class keys are interned, so the memo holds a handful of
    distinct key tuples, not one per pair.
    """

    def __init__(self, service):
        self._service = service
        #: owner -> (has_extended, custom circle names, sorted)
        self._needs: dict[int, tuple[bool, tuple[str, ...]]] = {}
        #: owner -> viewer -> class key
        self._memo: dict[int, dict[int, tuple]] = {}
        #: class key -> its one shared instance
        self._keys: dict[tuple, tuple] = {}
        #: viewer -> the accounts holding the viewer in circles.  With
        #: the service's owner-side contact sets, the extended bit
        #: becomes a small-side set intersection instead of a fresh
        #: two-hop scan for every new (owner, viewer) pair; a viewer's
        #: followers serve every owner they browse.
        self._follower_sets: dict[int, set[int]] = {}

    def needs(self, owner_id: int) -> tuple[bool, tuple[str, ...]]:
        cached = self._needs.get(owner_id)
        if cached is None:
            entries = self._service.field_entries(owner_id)
            cached = self._needs[owner_id] = member_needs(entries)
        return cached

    def class_of(self, owner_id: int, viewer_id: int | None) -> tuple:
        """``service.class_of(owner_id, viewer_id)``, memoised."""
        service = self._service
        if viewer_id is None or viewer_id == owner_id:
            return service.class_of(owner_id, viewer_id)
        per_owner = self._memo.get(owner_id)
        if per_owner is not None:
            key = per_owner.get(viewer_id)
            if key is not None:
                return key
        else:
            per_owner = self._memo[owner_id] = {}
        key = service.class_of(
            owner_id, viewer_id, self.needs(owner_id), self._in_extended
        )
        key = per_owner[viewer_id] = self._keys.setdefault(key, key)
        return key

    def _in_extended(self, owner_id: int, viewer_id: int) -> bool:
        """The extended bit for a viewer not in the owner's own circles:
        whether any of the owner's contacts has the viewer in circles,
        i.e. ``contacts(owner) ∩ followers(viewer)`` is non-empty.
        Equivalent to ``service.in_extended_circles``, but both sides
        are sets (the owner's is the service's own contact set) and the
        intersection walks the smaller one.
        """
        followers = self._follower_sets.get(viewer_id)
        if followers is None:
            if viewer_id not in self._service:
                return False  # not a user: nobody has them in circles
            followers = set(self._service.followers(viewer_id))
            self._follower_sets[viewer_id] = followers
        contacts = self._service.contacts(owner_id)
        if len(contacts) <= len(followers):
            return not followers.isdisjoint(contacts)
        return not contacts.isdisjoint(followers)

    def drop_owner(self, owner_id: int, needs: bool = False) -> None:
        self._memo.pop(owner_id, None)
        if needs:
            self._needs.pop(owner_id, None)

    def on_circle_mutation(self, actor_id: int, target_id: int | None = None) -> None:
        """A circle edit by ``actor_id`` on ``target_id`` remaps:
        viewers' classes w.r.t. the actor, the classes of every owner
        that has the actor in circles (two-hop reach flows through the
        actor), and the target's follower set.  The actor's contact set
        is the service's live overlay, so nothing of it is cached here.
        """
        memo = self._memo
        memo.pop(actor_id, None)
        if target_id is not None:
            self._follower_sets.pop(target_id, None)
        followers = self._service.followers(actor_id)
        if len(followers) > _MEMO_FANOUT_LIMIT:
            memo.clear()
            return
        for owner_id in followers:
            memo.pop(owner_id, None)

    def clear(self) -> None:
        self._memo.clear()
        self._needs.clear()
        self._follower_sets.clear()
        self._keys.clear()


def _class_to_json(class_key: tuple) -> list:
    if class_key == ANON_CLASS:
        return ["anon"]
    if class_key == SELF_CLASS:
        return ["self"]
    _, in_circles, in_extended, custom = class_key
    return ["m", bool(in_circles), bool(in_extended), list(custom)]


def _class_from_json(data: list) -> tuple:
    if data[0] == "anon":
        return ANON_CLASS
    if data[0] == "self":
        return SELF_CLASS
    return ("m", bool(data[1]), bool(data[2]), tuple(str(n) for n in data[3]))


class PageCache:
    """LRU + TTL cache of rendered profile pages, invalidated exactly.

    Subscribes to the service's mutation events (see the module
    docstring for the invalidation rules).  ``ttl`` of 0 disables time
    eviction; entries then live until LRU pressure or invalidation.
    """

    def __init__(
        self,
        service,
        clock,
        capacity: int = 4096,
        ttl: float = 0.0,
        registry: Registry | None = None,
        subscribe: bool = True,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        if ttl < 0:
            raise ValueError("ttl must be >= 0")
        self._service = service
        self._clock = clock
        self.capacity = capacity
        self.ttl = ttl
        self._classer = ViewerClasser(service)
        #: (owner, class) -> (page, inserted_at), in LRU order (oldest first).
        self._entries: OrderedDict[tuple, tuple[ProfilePage, float]] = OrderedDict()
        #: owner -> set of class keys currently cached, for O(1) owner drops.
        self._by_owner: dict[int, set[tuple]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        registry = registry if registry is not None else get_registry()
        self._m_hits = registry.counter("serve.cache.hits", "Page-cache hits")
        self._m_misses = registry.counter("serve.cache.misses", "Page-cache misses")
        self._m_evictions = registry.counter(
            "serve.cache.evictions", "Entries evicted, by policy", labels=("reason",)
        )
        self._m_invalidations = registry.counter(
            "serve.cache.invalidations",
            "Entries dropped by mutation events, by mutation kind",
            labels=("reason",),
        )
        self._m_size = registry.gauge("serve.cache.size", "Cached page entries")
        if subscribe:
            service.add_mutation_listener(self.on_mutation)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def keys(self):
        return self._entries.keys()

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (
                self.hits / (self.hits + self.misses)
                if self.hits + self.misses
                else None
            ),
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": len(self._entries),
        }

    # -- lookup --------------------------------------------------------------

    def class_of(self, owner_id: int, viewer_id: int | None) -> tuple:
        return self._classer.class_of(owner_id, viewer_id)

    def lookup(self, owner_id: int, viewer_id: int | None) -> tuple[ProfilePage, bool]:
        """The page as ``viewer_id`` sees it, plus whether it was a hit."""
        key = (owner_id, self._classer.class_of(owner_id, viewer_id))
        entry = self._entries.get(key)
        if entry is not None and self.ttl:
            if self._clock.now() - entry[1] >= self.ttl:
                self._discard(key)
                self.evictions += 1
                self._m_evictions.inc(reason="ttl")
                entry = None
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            self._m_hits.inc()
            return entry[0], True
        page = render_for_class(self._service, owner_id, key[1])
        self._insert(key, page, self._clock.now())
        self.misses += 1
        self._m_misses.inc()
        return page, False

    def _insert(self, key: tuple, page: ProfilePage, inserted_at: float) -> None:
        self._entries[key] = (page, inserted_at)
        self._entries.move_to_end(key)
        self._by_owner.setdefault(key[0], set()).add(key[1])
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._unindex(evicted)
            self.evictions += 1
            self._m_evictions.inc(reason="lru")
        self._m_size.set(len(self._entries))

    def _unindex(self, key: tuple) -> None:
        classes = self._by_owner.get(key[0])
        if classes is not None:
            classes.discard(key[1])
            if not classes:
                del self._by_owner[key[0]]

    def _discard(self, key: tuple) -> bool:
        if self._entries.pop(key, None) is None:
            return False
        self._unindex(key)
        self._m_size.set(len(self._entries))
        return True

    # -- invalidation --------------------------------------------------------

    def _invalidate_owner(self, owner_id: int, reason: str, self_only: bool) -> None:
        if self_only:
            dropped = 1 if self._discard((owner_id, SELF_CLASS)) else 0
        else:
            classes = self._by_owner.get(owner_id)
            dropped = 0
            if classes:
                for class_key in list(classes):
                    if self._discard((owner_id, class_key)):
                        dropped += 1
        if dropped:
            self.invalidations += dropped
            self._m_invalidations.inc(dropped, reason=reason)

    def on_mutation(self, event) -> None:
        kind = event.kind
        if kind in ("circle_add", "circle_remove"):
            for owner_id in (event.user_id, event.target_id):
                if owner_id is None:
                    continue
                # Per-class page content reads the owner's circles only
                # through the displayed lists: owners hiding them keep
                # every member/anon entry valid — only the self page
                # (lists always shown to the owner) must go.
                lists_public = self._service.lists_public(owner_id)
                self._invalidate_owner(
                    owner_id, reason="circle", self_only=not lists_public
                )
            self._classer.on_circle_mutation(event.user_id, event.target_id)
        elif kind == "profile":
            self._invalidate_owner(event.user_id, reason="profile", self_only=False)
            self._classer.drop_owner(event.user_id, needs=True)
        elif kind == "bulk_edges":
            dropped = len(self._entries)
            self.clear()
            if dropped:
                self.invalidations += dropped
                self._m_invalidations.inc(dropped, reason="bulk")
        # "post" / "plus_one": profile pages are unaffected.

    def clear(self) -> None:
        self._entries.clear()
        self._by_owner.clear()
        self._classer.clear()
        self._m_size.set(0)

    # -- resumable state -----------------------------------------------------

    def export_state(self) -> dict:
        """Entry metadata in LRU order; pages re-render on restore.

        Restoring against a service in the same state (world rebuilt,
        mutation log replayed) reproduces the exact cache contents: any
        entry still cached was, by the invalidation rules, rendered from
        owner state that no later mutation touched.
        """
        return {
            "entries": [
                [key[0], _class_to_json(key[1]), inserted_at]
                for key, (_, inserted_at) in self._entries.items()
            ],
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self._entries.clear()
        self._by_owner.clear()
        self._classer.clear()
        for owner_id, class_json, inserted_at in state["entries"]:
            key = (int(owner_id), _class_from_json(class_json))
            page = render_for_class(self._service, key[0], key[1])
            self._insert(key, page, float(inserted_at))
        self.hits = int(state["hits"])
        self.misses = int(state["misses"])
        self.evictions = int(state["evictions"])
        self.invalidations = int(state["invalidations"])
        self._m_size.set(len(self._entries))
