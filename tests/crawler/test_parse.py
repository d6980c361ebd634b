"""Tests for profile-page parsing."""

import json
from array import array
from types import SimpleNamespace

import numpy as np
import pytest

from repro.crawler.dataset import profile_from_json, profile_to_json
from repro.crawler.parse import PageParseError, parse_profile_page, ParsedProfile
from repro.faults import CORRUPTION_MODES, corrupt_payload
from repro.platform.models import ContactInfo, Gender, Place, Relationship
from repro.platform.pages import CircleListView, ProfilePage


def page_with(fields=None, in_list=None, out_list=None) -> ProfilePage:
    return ProfilePage(
        user_id=7,
        name="Ada",
        fields=fields or {},
        in_list=in_list,
        out_list=out_list,
    )


class TestParse:
    def test_basic_extraction(self):
        page = page_with(
            fields={"occupation": "Engineer"},
            in_list=CircleListView((1, 2), 2),
            out_list=CircleListView((3,), 5),
        )
        profile = parse_profile_page(page)
        assert profile.user_id == 7
        assert profile.fields["occupation"] == "Engineer"
        assert profile.in_list == array("I", [1, 2])
        assert profile.declared_in == 2
        assert profile.declared_out == 5

    def test_hidden_lists(self):
        profile = parse_profile_page(page_with())
        assert profile.in_list is None
        assert profile.out_list is None
        assert profile.declared_in == 0


class TestParsedProfileAccessors:
    def test_count_fields_excludes_contacts_by_default(self):
        profile = ParsedProfile(
            user_id=1,
            name="x",
            fields={
                "occupation": "E",
                "work_contact": ContactInfo(phone="+1"),
            },
        )
        assert profile.count_fields() == 2  # name + occupation
        assert profile.count_fields(include_contacts=True) == 3

    def test_shares_phone(self):
        with_phone = ParsedProfile(
            user_id=1, name="x", fields={"home_contact": ContactInfo(phone="+1")}
        )
        without = ParsedProfile(
            user_id=1, name="x", fields={"home_contact": ContactInfo(email="e")}
        )
        assert with_phone.shares_phone()
        assert not without.shares_phone()

    def test_typed_accessors(self):
        profile = ParsedProfile(
            user_id=1,
            name="x",
            fields={
                "gender": Gender.FEMALE,
                "relationship": Relationship.SINGLE,
                "places_lived": [Place("A", 1.0, 2.0, "US")],
            },
        )
        assert profile.gender() is Gender.FEMALE
        assert profile.relationship() is Relationship.SINGLE
        assert profile.current_place().name == "A"
        assert profile.country() == "US"

    def test_accessors_none_when_absent(self):
        profile = ParsedProfile(user_id=1, name="x")
        assert profile.gender() is None
        assert profile.relationship() is None
        assert profile.current_place() is None
        assert profile.country() is None

    def test_has_field(self):
        profile = ParsedProfile(user_id=1, name="x", fields={"phrase": "hi"})
        assert profile.has_field("name")
        assert profile.has_field("phrase")
        assert not profile.has_field("education")


class TestCorruptPageHardening:
    """Every shape the fault layer can inject raises PageParseError."""

    def full_page(self) -> ProfilePage:
        return page_with(
            fields={"occupation": "Engineer"},
            in_list=CircleListView((1, 2), 2),
            out_list=CircleListView((3,), 5),
        )

    @pytest.mark.parametrize("mode", CORRUPTION_MODES)
    def test_injected_corruption_raises_typed_error(self, mode):
        mangled = corrupt_payload(self.full_page(), mode)
        with pytest.raises(PageParseError):
            parse_profile_page(mangled)

    def test_blank_page(self):
        with pytest.raises(PageParseError, match="empty page"):
            parse_profile_page(None)

    def test_truncated_document(self):
        with pytest.raises(PageParseError, match="name"):
            parse_profile_page(SimpleNamespace(user_id=7))

    def test_unusable_user_id(self):
        for bad in (None, "7", -1, True):
            with pytest.raises(PageParseError, match="user id"):
                parse_profile_page(SimpleNamespace(user_id=bad, name="Ada"))

    def test_missing_name(self):
        with pytest.raises(PageParseError, match="name"):
            parse_profile_page(SimpleNamespace(user_id=7, name=None, fields={}))

    def test_malformed_field_block(self):
        with pytest.raises(PageParseError, match="field block"):
            parse_profile_page(
                SimpleNamespace(user_id=7, name="Ada", fields="occupation")
            )

    def test_circle_list_without_ids(self):
        page = SimpleNamespace(
            user_id=7,
            name="Ada",
            fields={},
            in_list=SimpleNamespace(declared_count=3),
            out_list=None,
        )
        with pytest.raises(PageParseError, match="no id sequence"):
            parse_profile_page(page)

    def test_circle_list_with_garbage_ids(self):
        for garbage in ("<a href>", None, -1.5, -2, True):
            page = SimpleNamespace(
                user_id=7,
                name="Ada",
                fields={},
                in_list=None,
                out_list=SimpleNamespace(user_ids=(1, garbage), declared_count=5),
            )
            with pytest.raises(PageParseError, match="non-id"):
                parse_profile_page(page)

    def test_circle_list_with_invalid_declared_count(self):
        for declared in (None, 1, True, "5"):
            page = SimpleNamespace(
                user_id=7,
                name="Ada",
                fields={},
                in_list=SimpleNamespace(user_ids=(1, 2, 3), declared_count=declared),
                out_list=None,
            )
            with pytest.raises(PageParseError, match="invalid"):
                parse_profile_page(page)

    def test_intact_page_still_parses(self):
        profile = parse_profile_page(self.full_page())
        assert profile.user_id == 7
        assert profile.in_list == array("I", [1, 2])


class _Id(int):
    """An int subclass: not exactly ``int``, but a valid id."""


def per_entry_parse(user_ids, declared):
    """The per-entry validation loop, kept as the fast path's oracle."""
    clean = []
    for entry in user_ids:
        if not isinstance(entry, int) or isinstance(entry, bool) or not 0 <= entry < 2**32:
            raise PageParseError(
                f"page 7: out circle list holds a non-id entry {entry!r}"
            )
        clean.append(entry)
    if not isinstance(declared, int) or isinstance(declared, bool) or declared < len(clean):
        raise PageParseError(
            f"page 7: out circle list declares an invalid count {declared!r} "
            f"for {len(clean)} shown ids"
        )
    return array("I", clean), declared


def outcome(parse, user_ids, declared):
    """``("ok", ids, their types, declared)`` or ``("error", message)``."""
    try:
        ids, count = parse(user_ids, declared)
    except PageParseError as error:
        return ("error", str(error))
    return ("ok", ids, [type(i) for i in ids], count)


def via_page(user_ids, declared):
    page = SimpleNamespace(
        user_id=7,
        name="Ada",
        fields={},
        in_list=None,
        out_list=SimpleNamespace(user_ids=user_ids, declared_count=declared),
    )
    profile = parse_profile_page(page)
    return profile.out_list, profile.declared_out


class TestCircleListFastPath:
    """The all-``int`` fast path answers exactly like the per-entry loop."""

    @pytest.mark.parametrize(
        "entries",
        [
            [],
            [0],
            [1, 2, 3],
            [3, 3, 1, 2**40],
            [1, True],
            [False],
            [1, -1],
            [-5, 2],
            [1, 2.0],
            [1.0],
            [1, "2"],
            ["x"],
            [np.int64(3)],
            [1, np.int64(-3)],
            [_Id(4), 5],
            [_Id(-4)],
            [1, None],
            [[1], 2],
            [2**32 - 1],
            [2**32],
            [_Id(2**32)],
        ],
    )
    @pytest.mark.parametrize("container", [list, tuple])
    def test_same_result_or_same_message(self, entries, container):
        ids = container(entries)
        declared = len(entries) + 1
        assert outcome(via_page, ids, declared) == outcome(
            per_entry_parse, ids, declared
        )

    @pytest.mark.parametrize("declared", [0, 2, 5, -1, True, None, 2.0])
    def test_declared_count_checks_are_unchanged(self, declared):
        for ids in ([], [1, 2], (4, 5, 6)):
            assert outcome(via_page, ids, declared) == outcome(
                per_entry_parse, ids, declared
            )

    def test_list_and_tuple_parse_to_the_same_tuple(self):
        assert via_page([4, 1, 4], 3) == via_page((4, 1, 4), 3) == (
            array("I", [4, 1, 4]),
            3,
        )

    def test_ids_below_the_pack_bound_only(self):
        assert via_page([2**32 - 1], 1) == (array("I", [2**32 - 1]), 1)
        for bad in ([2**32], [1, 2**40], (2**32,)):
            with pytest.raises(PageParseError, match="non-id"):
                via_page(bad, 2)

    def test_page_user_id_below_the_pack_bound(self):
        page = SimpleNamespace(user_id=2**32, name="Ada", fields={})
        with pytest.raises(PageParseError, match="user id"):
            parse_profile_page(page)


class TestParsedProfileLists:
    """Every profile holds its lists as ``array('I')``, however built."""

    def test_sequences_become_uint32_arrays(self):
        for given in ((3, 1, 3), [3, 1, 3], array("I", [3, 1, 3])):
            profile = ParsedProfile(user_id=1, name="x", in_list=given, out_list=given)
            for ids in (profile.in_list, profile.out_list):
                assert type(ids) is array and ids.typecode == "I"
                assert ids.tolist() == [3, 1, 3]

    def test_hidden_lists_stay_none(self):
        profile = ParsedProfile(user_id=1, name="x")
        assert profile.in_list is None and profile.out_list is None

    def test_equal_whatever_the_input_sequence(self):
        a = ParsedProfile(user_id=1, name="x", in_list=(2, 5), out_list=())
        b = ParsedProfile(user_id=1, name="x", in_list=[2, 5], out_list=[])
        c = ParsedProfile(
            user_id=1, name="x", in_list=array("I", [2, 5]), out_list=array("I")
        )
        assert a == b == c
        assert a != ParsedProfile(user_id=1, name="x", in_list=(5, 2), out_list=())

    def test_json_bytes_equal_for_tuple_and_array_input(self):
        from_tuple = ParsedProfile(
            user_id=1, name="x", in_list=(9, 2**32 - 1), out_list=None,
            declared_in=3,
        )
        from_array = ParsedProfile(
            user_id=1, name="x", in_list=array("I", [9, 2**32 - 1]),
            out_list=None, declared_in=3,
        )
        encoded = json.dumps(profile_to_json(from_tuple))
        assert encoded == json.dumps(profile_to_json(from_array))
        assert '"in_list": [9, 4294967295]' in encoded
        assert profile_from_json(json.loads(encoded)) == from_tuple

    def test_ids_outside_uint32_are_refused(self):
        for bad in ((-1,), (2**32,)):
            with pytest.raises(OverflowError):
                ParsedProfile(user_id=1, name="x", in_list=bad)
