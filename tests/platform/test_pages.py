"""Tests for profile-page documents and circle-list truncation."""

from array import array

import pytest

from repro.platform.pages import CircleListView, ProfilePage, truncate_list


class TestCircleListView:
    def test_truncated_flag(self):
        view = CircleListView(user_ids=(1, 2), declared_count=5)
        assert view.truncated

    def test_not_truncated_when_complete(self):
        view = CircleListView(user_ids=(1, 2), declared_count=2)
        assert not view.truncated

    def test_declared_count_cannot_undercut_shown(self):
        with pytest.raises(ValueError):
            CircleListView(user_ids=(1, 2, 3), declared_count=2)


class TestTruncateList:
    def test_no_truncation_below_limit(self):
        view = truncate_list([1, 2, 3], limit=10)
        assert view.user_ids == array("I", [1, 2, 3])
        assert view.declared_count == 3

    def test_truncation_preserves_true_count(self):
        view = truncate_list(list(range(100)), limit=10)
        assert len(view.user_ids) == 10
        assert view.declared_count == 100
        assert view.user_ids == array("I", range(10))

    def test_empty_list(self):
        view = truncate_list([])
        assert view.user_ids == array("I")
        assert view.declared_count == 0


class TestProfilePage:
    def test_visible_field_keys_include_name(self):
        page = ProfilePage(user_id=1, name="Ada", fields={"occupation": "Eng"})
        assert page.visible_field_keys() == ["name", "occupation"]
