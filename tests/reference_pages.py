"""An independent oracle for privacy-rendered profile pages.

The platform renders a page by classifying the viewer once and reading
one visibility table per field.  This oracle decides every field on its
own instead: it walks the five visibility levels per field, repeats the
two-hop reach scan for every EXTENDED_CIRCLES field, and builds the
circle lists from the owner account's follower and circle stores.
Differential tests compare the renderer's bytes against it.
"""

from repro.platform.pages import ProfilePage, truncate_list
from repro.platform.privacy import Visibility


def reference_can_view(service, owner_id, viewer_id, key) -> bool:
    """Whether ``viewer_id`` (None = anonymous) may see one field."""
    if key == "name":
        return True
    owner = service._account(owner_id)
    entry = owner.profile.fields.get(key)
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
        return owner.circles.contains(viewer_id)
    if visibility is Visibility.EXTENDED_CIRCLES:
        if owner.circles.contains(viewer_id):
            return True
        return any(
            service._account(contact).circles.contains(viewer_id)
            for contact in owner.circles.flattened()
        )
    # CUSTOM: the viewer must be in one of the named circles.
    return any(
        owner.circles.member_of(viewer_id, name)
        for name in entry.privacy.custom_circles
    )


def reference_page(service, owner_id, viewer_id) -> ProfilePage:
    """The owner's page as ``viewer_id`` (None = anonymous) sees it."""
    account = service._account(owner_id)
    profile = account.profile
    visible = {
        key: entry.value
        for key, entry in profile.fields.items()
        if reference_can_view(service, owner_id, viewer_id, key)
    }
    in_list = out_list = None
    if profile.lists_public or viewer_id == owner_id:
        limit = service.circle_display_limit
        in_list = truncate_list(list(account.followers), limit)
        out_list = truncate_list(account.circles.flattened(), limit)
    return ProfilePage(
        user_id=owner_id,
        name=profile.name,
        fields=visible,
        in_list=in_list,
        out_list=out_list,
    )
