"""An independent oracle for privacy-rendered profile pages.

The platform renders a page by classifying the viewer once and reading
one visibility table per field.  This oracle decides every field on its
own instead: it walks the five visibility levels per field, repeats the
two-hop reach scan for every EXTENDED_CIRCLES field, and builds the
circle lists from the owner's full follower and followee lists.  It
reads only service-level calls, so it runs against the service and
against the pure-Python model in ``tests/model_service.py``.
Differential tests compare the renderer's bytes against it.
"""

from repro.platform.pages import ProfilePage, truncate_list
from repro.platform.privacy import Visibility


def reference_can_view(service, owner_id, viewer_id, key) -> bool:
    """Whether ``viewer_id`` (None = anonymous) may see one field."""
    if key == "name":
        return True
    entry = service.profile(owner_id).fields.get(key)
    if entry is None:
        return False
    if viewer_id == owner_id:
        return True
    visibility = entry.privacy.visibility
    if visibility is Visibility.PUBLIC:
        return True
    if viewer_id is None:
        return False
    if visibility is Visibility.ONLY_YOU:
        return False
    if visibility is Visibility.YOUR_CIRCLES:
        return service.in_circles(owner_id, viewer_id)
    if visibility is Visibility.EXTENDED_CIRCLES:
        if service.in_circles(owner_id, viewer_id):
            return True
        return any(
            service.in_circles(contact, viewer_id)
            for contact in service.followees(owner_id)
        )
    # CUSTOM: the viewer must be in one of the named circles.
    return any(
        service.member_of(owner_id, viewer_id, name)
        for name in entry.privacy.custom_circles
    )


def reference_page(service, owner_id, viewer_id) -> ProfilePage:
    """The owner's page as ``viewer_id`` (None = anonymous) sees it."""
    profile = service.profile(owner_id)
    visible = {
        key: entry.value
        for key, entry in profile.fields.items()
        if reference_can_view(service, owner_id, viewer_id, key)
    }
    in_list = out_list = None
    if profile.lists_public or viewer_id == owner_id:
        limit = service.circle_display_limit
        in_list = truncate_list(service.followers(owner_id), limit)
        out_list = truncate_list(service.followees(owner_id), limit)
    return ProfilePage(
        user_id=owner_id,
        name=profile.name,
        fields=visible,
        in_list=in_list,
        out_list=out_list,
    )
