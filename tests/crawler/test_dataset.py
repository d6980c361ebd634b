"""Tests for the crawl dataset container and serialisation."""

from array import array

import numpy as np
import pytest

from repro.crawler.dataset import (
    CrawlDataset,
    CrawlStats,
    profile_from_json,
    profile_to_json,
)
from repro.crawler.parse import ParsedProfile
from repro.platform.models import (
    ContactInfo,
    Gender,
    LookingFor,
    Place,
    Relationship,
)


@pytest.fixture
def dataset() -> CrawlDataset:
    profiles = {
        1: ParsedProfile(
            user_id=1,
            name="Ada",
            fields={
                "gender": Gender.FEMALE,
                "relationship": Relationship.MARRIED,
                "places_lived": [Place("London", 51.5, -0.1, "GB")],
                "work_contact": ContactInfo(phone="+44", email="a@b.c"),
                "other_profiles": ["https://x"],
            },
            in_list=(2,),
            out_list=(2, 3),
            declared_in=1,
            declared_out=2,
        ),
        2: ParsedProfile(user_id=2, name="Bob"),
    }
    return CrawlDataset(
        profiles=profiles,
        sources=np.array([1, 1, 2], dtype=np.int64),
        targets=np.array([2, 3, 1], dtype=np.int64),
        stats=CrawlStats(pages_fetched=2, n_machines=3),
    )


class TestGraphExport:
    def test_node_ids_include_uncrawled_endpoints(self, dataset):
        assert dataset.node_ids().tolist() == [1, 2, 3]

    def test_to_csr(self, dataset):
        graph = dataset.to_csr()
        assert graph.n == 3
        assert graph.n_edges == 3
        assert graph.has_edge(
            graph.compact_index(1), graph.compact_index(2)
        )

    def test_to_digraph(self, dataset):
        graph = dataset.to_digraph()
        assert graph.n_nodes == 3
        assert graph.has_edge(2, 1)

    def test_counts(self, dataset):
        assert dataset.n_profiles == 2
        assert dataset.n_edges == 3


class TestSerialisation:
    def test_roundtrip(self, dataset, tmp_path):
        dataset.save(tmp_path / "crawl")
        reloaded = CrawlDataset.load(tmp_path / "crawl")
        assert reloaded.n_profiles == dataset.n_profiles
        assert np.array_equal(reloaded.sources, dataset.sources)
        assert np.array_equal(reloaded.targets, dataset.targets)
        assert reloaded.stats.pages_fetched == 2
        assert reloaded.stats.n_machines == 3

    def test_typed_fields_survive(self, dataset, tmp_path):
        dataset.save(tmp_path / "crawl")
        reloaded = CrawlDataset.load(tmp_path / "crawl")
        profile = reloaded.profiles[1]
        assert profile.gender() is Gender.FEMALE
        assert profile.relationship() is Relationship.MARRIED
        place = profile.current_place()
        assert isinstance(place, Place)
        assert place.country == "GB"
        contact = profile.fields["work_contact"]
        assert isinstance(contact, ContactInfo)
        assert contact.phone == "+44"
        assert profile.fields["other_profiles"] == ["https://x"]

    def test_lists_and_counts_survive(self, dataset, tmp_path):
        dataset.save(tmp_path / "crawl")
        profile = CrawlDataset.load(tmp_path / "crawl").profiles[1]
        assert profile.in_list == array("I", [2])
        assert profile.out_list == array("I", [2, 3])
        assert profile.declared_out == 2

    def test_hidden_lists_survive_as_none(self, dataset, tmp_path):
        dataset.save(tmp_path / "crawl")
        profile = CrawlDataset.load(tmp_path / "crawl").profiles[2]
        assert profile.in_list is None


class TestEnumRoundTrip:
    """Every enum-typed field value survives the JSON codecs exactly."""

    def roundtrip(self, fields: dict) -> ParsedProfile:
        profile = ParsedProfile(user_id=9, name="Eve", fields=fields)
        return profile_from_json(profile_to_json(profile))

    @pytest.mark.parametrize("gender", list(Gender))
    def test_every_gender(self, gender):
        back = self.roundtrip({"gender": gender})
        assert back.fields["gender"] is gender

    @pytest.mark.parametrize("relationship", list(Relationship))
    def test_every_relationship(self, relationship):
        back = self.roundtrip({"relationship": relationship})
        assert back.fields["relationship"] is relationship

    def test_looking_for_is_a_list_of_enums(self):
        # looking_for is multi-valued on real profiles.
        values = [LookingFor.FRIENDS, LookingFor.NETWORKING]
        back = self.roundtrip({"looking_for": values})
        assert back.fields["looking_for"] == values
        assert all(isinstance(v, LookingFor) for v in back.fields["looking_for"])

    @pytest.mark.parametrize("looking_for", list(LookingFor))
    def test_every_looking_for(self, looking_for):
        back = self.roundtrip({"looking_for": [looking_for]})
        assert back.fields["looking_for"] == [looking_for]

    def test_contact_info_all_fields(self):
        contact = ContactInfo(phone="+1-555", email="e@f.g", address="1 Way")
        back = self.roundtrip({"home_contact": contact})
        assert back.fields["home_contact"] == contact

    def test_full_profile_equality(self, dataset):
        # The codec round-trip is the identity on a fully loaded profile
        # (dataclass equality covers every field at once).
        original = dataset.profiles[1]
        assert profile_from_json(profile_to_json(original)) == original


class TestWriteEdgeList:
    def expected(self, dataset) -> str:
        return "".join(
            f"{u}\t{v}\n" for u, v in zip(dataset.sources, dataset.targets)
        )

    def test_content_matches_rows(self, dataset, tmp_path):
        path = tmp_path / "edges.tsv"
        dataset.write_edge_list(path)
        assert path.read_text() == self.expected(dataset)

    def test_chunked_writes_agree_with_single_chunk(self, tmp_path):
        n = 1000
        dataset = CrawlDataset(
            profiles={},
            sources=np.arange(n, dtype=np.int64),
            targets=np.arange(n, dtype=np.int64) + 7,
        )
        small = tmp_path / "small.tsv"
        big = tmp_path / "big.tsv"
        dataset.write_edge_list(small, chunk_size=3)  # not a divisor of n
        dataset.write_edge_list(big, chunk_size=10 * n)
        assert small.read_text() == big.read_text()
        assert small.read_text().count("\n") == n

    def test_chunk_boundary_exact_divisor(self, dataset, tmp_path):
        path = tmp_path / "edges.tsv"
        dataset.write_edge_list(path, chunk_size=len(dataset.sources))
        assert path.read_text() == self.expected(dataset)

    def test_rows_are_native_ints(self, dataset, tmp_path):
        path = tmp_path / "edges.tsv"
        dataset.write_edge_list(path, chunk_size=2)
        first = path.read_text().splitlines()[0]
        assert first == "1\t2"

    def test_empty_dataset_writes_empty_file(self, tmp_path):
        dataset = CrawlDataset(
            profiles={},
            sources=np.empty(0, dtype=np.int64),
            targets=np.empty(0, dtype=np.int64),
        )
        path = tmp_path / "edges.tsv"
        dataset.write_edge_list(path)
        assert path.read_text() == ""

    def test_rejects_nonpositive_chunk(self, dataset, tmp_path):
        with pytest.raises(ValueError):
            dataset.write_edge_list(tmp_path / "x", chunk_size=0)
