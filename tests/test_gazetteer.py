"""Gazetteer ingestion: line parsing, normalization, round trips, admin tables."""

from __future__ import annotations

import dataclasses
import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_entry
from placelink.index import build_index, load_index, save_index
from placelink.gazetteer import (
    CorruptGazetteerError,
    GazetteerEntry,
    GazetteerError,
    ascii_fold,
    build_admin_tables,
    entry_to_tsv_line,
    load_gazetteer,
    normalize_name,
    parse_gazetteer,
    write_gazetteer_tsv,
)
from placelink.toygaz import build_toy_gazetteer


def tsv_line(
    geoname_id="2988507",
    name="Paris",
    ascii_name="Paris",
    alternates="Lutetia,Paname",
    lat="48.85341",
    lon="2.3488",
    fclass="P",
    fcode="PPLC",
    cc="FR",
    admin1="11",
    admin2="75",
    population="2138551",
):
    cols = [
        geoname_id, name, ascii_name, alternates, lat, lon, fclass, fcode,
        cc, "", admin1, admin2, "", "", population, "", "", "Europe/Paris", "2023-01-01",
    ]
    return "\t".join(cols)


class TestNormalizeName:
    def test_case_and_whitespace(self):
        assert normalize_name("  PARIS ") == "paris"
        assert normalize_name("New\t York") == "new york"

    def test_diacritics_preserved(self):
        assert normalize_name("São Paulo") == "são paulo"

    def test_empty_in_empty_out(self):
        assert normalize_name("") == ""
        assert normalize_name("   ") == ""

    def test_composes_decomposed_input(self):
        # NFD "ü" (u + combining diaeresis) and NFC "ü" must key identically
        assert normalize_name("Zürich") == normalize_name("Zürich")

    @given(st.text(max_size=40))
    def test_idempotent_and_trimmed(self, raw):
        once = normalize_name(raw)
        assert normalize_name(once) == once
        assert once == once.strip()
        assert "  " not in once


class TestAsciiFold:
    def test_strips_diacritics(self):
        assert ascii_fold("são paulo") == "sao paulo"
        assert ascii_fold("café") == "cafe"

    def test_drops_unmappable_characters(self):
        assert ascii_fold("αθήνα") == ""
        assert ascii_fold("łódź") == "odz"


class TestNameVariants:
    def test_collects_all_name_fields(self):
        entry = make_entry(1, "São Paulo", ascii_name="Sao Paulo", alternates=("SP", "Sampa"))
        variants = entry.name_variants()
        assert set(variants) == {"são paulo", "sao paulo", "sp", "sampa"}

    def test_deduplicates(self):
        entry = make_entry(1, "Paris", ascii_name="Paris", alternates=("paris",))
        assert entry.name_variants() == ["paris"]

    def test_skips_empty_names(self):
        entry = make_entry(1, "Paris", ascii_name="", alternates=())
        assert entry.name_variants() == ["paris"]


class TestParseGazetteer:
    def test_well_formed_line(self):
        result = parse_gazetteer([tsv_line()])
        assert result.malformed_count == 0
        assert result.line_count == 1
        entry = result.entries[0]
        assert entry.geoname_id == 2988507
        assert entry.name == "Paris"
        assert entry.latitude == 48.85341
        assert entry.longitude == 2.3488
        assert entry.alternative_names == ("Lutetia", "Paname")
        assert entry.feature_class == "P"
        assert entry.feature_code == "PPLC"
        assert entry.country_code == "FR"
        assert entry.admin1_code == "11"
        assert entry.population == 2138551

    def test_empty_alternatenames_column(self):
        result = parse_gazetteer([tsv_line(alternates="")])
        assert result.entries[0].alternative_names == ()

    def test_alternates_stripped_and_empties_dropped(self):
        result = parse_gazetteer([tsv_line(alternates=" Lutetia , ,Paname ")])
        assert result.entries[0].alternative_names == ("Lutetia", "Paname")

    def test_empty_population_becomes_zero(self):
        result = parse_gazetteer([tsv_line(population="")])
        assert result.entries[0].population == 0

    def test_country_code_uppercased(self):
        result = parse_gazetteer([tsv_line(cc="fr")])
        assert result.entries[0].country_code == "FR"

    @pytest.mark.parametrize(
        "bad",
        [
            tsv_line(lat="91.0"),
            tsv_line(lon="-181.0"),
            tsv_line(lat="not-a-number"),
            tsv_line(geoname_id="abc"),
            tsv_line(geoname_id="0"),
            tsv_line(name="   "),
            tsv_line(fclass="X"),
            tsv_line(population="-5"),
            "only\tthree\tcolumns",
        ],
    )
    def test_malformed_line_skipped_and_counted(self, bad):
        result = parse_gazetteer([tsv_line(), bad])
        assert len(result.entries) == 1
        assert result.malformed_count == 1
        assert result.line_count == 2

    def test_duplicate_id_counted_as_malformed(self):
        result = parse_gazetteer([tsv_line(), tsv_line(name="Paris Again")])
        assert len(result.entries) == 1
        assert result.entries[0].name == "Paris"
        assert result.malformed_count == 1

    def test_blank_lines_ignored_entirely(self):
        result = parse_gazetteer(["", "   \n", tsv_line()])
        assert result.line_count == 1
        assert result.malformed_count == 0

    def test_majority_malformed_raises(self):
        lines = [tsv_line(), "junk", "more junk"]
        with pytest.raises(CorruptGazetteerError):
            parse_gazetteer(lines)

    def test_exactly_half_malformed_is_tolerated(self):
        result = parse_gazetteer([tsv_line(), "junk"])
        assert result.malformed_count == 1
        assert len(result.entries) == 1

    def test_feature_class_filter(self):
        lines = [tsv_line(), tsv_line(geoname_id="3", fclass="A", fcode="ADM1")]
        result = parse_gazetteer(lines, feature_classes={"A"})
        assert [e.geoname_id for e in result.entries] == [3]
        # filtered lines are well-formed, so they are not malformed
        assert result.malformed_count == 0
        assert result.line_count == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(GazetteerError, match="no-such-file"):
            load_gazetteer(str(tmp_path / "no-such-file.txt"))


# entries whose fields survive the TSV round trip: tabs/newlines never occur,
# alternates carry no commas or surrounding whitespace
_name = st.text(alphabet="abcdefghijklmnopqrstuvwxyzàéîöü", min_size=1, max_size=12)
_code = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", max_size=4)

_entry = st.builds(
    GazetteerEntry,
    geoname_id=st.integers(min_value=1, max_value=10**8),
    name=_name,
    ascii_name=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=12),
    alternative_names=st.lists(_name, max_size=3).map(tuple),
    latitude=st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    longitude=st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
    feature_class=st.sampled_from("AHLPRSTUV"),
    feature_code=_code,
    country_code=_code.filter(lambda c: c.isalpha() or not c),
    admin1_code=_code,
    admin2_code=_code,
    population=st.integers(min_value=0, max_value=10**10),
)


class TestRoundTrip:
    def test_mini_fixture_round_trips(self, mini_entries):
        buf = io.StringIO()
        write_gazetteer_tsv(mini_entries, buf)
        result = parse_gazetteer(buf.getvalue().splitlines())
        assert result.malformed_count == 0
        assert result.entries == mini_entries

    def test_write_to_path(self, tmp_path, mini_entries):
        path = tmp_path / "gaz.tsv"
        write_gazetteer_tsv(mini_entries, str(path))
        result = load_gazetteer(str(path))
        assert result.entries == mini_entries

    @settings(max_examples=60)
    @given(st.lists(_entry, min_size=1, max_size=6, unique_by=lambda e: e.geoname_id))
    def test_any_entries_round_trip(self, entries):
        lines = [entry_to_tsv_line(e) for e in entries]
        result = parse_gazetteer(lines)
        assert result.entries == entries
        assert result.malformed_count == 0


class TestAdminTables:
    def test_adm1_lookup(self, mini_tables):
        assert mini_tables.adm1_id("FR", "11") == 3
        assert mini_tables.adm1_id("US", "TX") == 5
        assert mini_tables.adm1_id("US", "DC") == 9

    def test_missing_key_is_none(self, mini_tables):
        assert mini_tables.adm1_id("US", "IL") is None
        assert mini_tables.adm1_id("", "TX") is None
        assert mini_tables.adm1_id("US", "") is None

    def test_every_stored_id_resolves(self, mini_entries, mini_tables):
        known = {e.geoname_id for e in mini_entries}
        for gid in mini_tables.admin1_index.values():
            assert gid in known

    def test_no_adm1_entries_gives_empty_index(self):
        tables = build_admin_tables([make_entry(1, "Paris", cc="FR")])
        assert tables.admin1_index == {}

    def test_duplicate_adm1_keeps_higher_population(self):
        a = make_entry(1, "Old Texas", fclass="A", fcode="ADM1", cc="US", admin1="TX", population=10)
        b = make_entry(2, "Texas", fclass="A", fcode="ADM1", cc="US", admin1="TX", population=20)
        for order in ([a, b], [b, a]):
            tables = build_admin_tables(order)
            assert tables.adm1_id("US", "TX") == 2

    def test_duplicate_adm1_population_tie_keeps_lower_id(self):
        a = make_entry(7, "Texas", fclass="A", fcode="ADM1", cc="US", admin1="TX", population=10)
        b = make_entry(3, "Texas", fclass="A", fcode="ADM1", cc="US", admin1="TX", population=10)
        tables = build_admin_tables([a, b])
        assert tables.adm1_id("US", "TX") == 3


class TestParsedEntryMemory:
    """A parsed entry carries no instance dict and shares its strings: one
    object per distinct code, and the name itself as an equal ascii name."""

    def parse(self):
        lines = [
            tsv_line("1", "Paris", ascii_name="Paris", cc="fr", admin1="11", admin2="75"),
            tsv_line("2", "Lyon", ascii_name="Lyon", cc="fr", admin1="84", admin2="69"),
            tsv_line("3", "Évry", ascii_name="Evry", cc="FR", admin1="11", admin2="91"),
        ]
        return parse_gazetteer(lines).entries

    def test_entries_have_no_instance_dict(self):
        for entry in self.parse():
            assert not hasattr(entry, "__dict__")

    def test_entries_of_one_country_share_their_codes(self):
        paris, lyon, evry = self.parse()
        assert paris.country_code is lyon.country_code is evry.country_code
        assert paris.feature_code is lyon.feature_code is evry.feature_code
        assert paris.admin1_code is evry.admin1_code

    def test_equal_ascii_name_is_the_name(self):
        paris, _, evry = self.parse()
        assert paris.ascii_name is paris.name
        assert evry.ascii_name == "Evry" and evry.name == "Évry"


class TestSlottedEntryValues:
    """Slotted entries keep the value semantics of a frozen dataclass."""

    def test_pickle_round_trip(self, mini_entries):
        assert pickle.loads(pickle.dumps(mini_entries)) == mini_entries

    def test_replace_and_asdict(self, mini_entries):
        paris = mini_entries[1]
        moved = dataclasses.replace(paris, population=1)
        assert moved.population == 1 and moved != paris
        assert dataclasses.replace(moved, population=paris.population) == paris
        fields = dataclasses.asdict(paris)
        assert list(fields) == [f.name for f in dataclasses.fields(GazetteerEntry)]
        assert GazetteerEntry(**fields) == paris

    def test_eq_and_hash_are_by_value(self, mini_entries):
        paris = mini_entries[1]
        twin = GazetteerEntry(**dataclasses.asdict(paris))
        assert twin == paris and twin is not paris
        assert hash(twin) == hash(paris) == hash(dataclasses.astuple(paris))
        assert len({*mini_entries, twin}) == len(mini_entries)

    def test_frozen(self, mini_entries):
        with pytest.raises(dataclasses.FrozenInstanceError):
            mini_entries[0].population = 1

    def test_toy_parsed_and_materialised_entries_are_equal(self, tmp_path):
        built = build_toy_gazetteer(n_countries=3, cities_per_adm1=5)
        write_gazetteer_tsv(built, str(tmp_path / "toy.tsv"))
        parsed = load_gazetteer(str(tmp_path / "toy.tsv")).entries
        save_index(build_index(parsed), str(tmp_path / "toy.idx"))
        materialised = load_index(str(tmp_path / "toy.idx")).entries()
        assert built == parsed == materialised
        assert all(not hasattr(entry, "__dict__") for entry in (*built, *materialised))
