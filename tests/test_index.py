"""Fuzzy index: build coverage, query semantics, ordering, file round trips.

The heavier oracle comparison (5000 entries, 200 queries) lives in the
acceptance suite; here a brute-force rescan checks the mini fixture.
"""

from __future__ import annotations

import gc
import math
import struct
import sys
import tracemalloc
import zlib
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import damage_bytes, entry_store, make_entry
from oracles import build_dict_index, dict_query, reference_columns, scan_candidates
from placelink import artifact
from placelink.gazetteer import normalize_name
from placelink.index import (
    _ARRAYS,
    INDEX_MAGIC,
    MIN_SHARED_NGRAMS,
    CandidateSet,
    GazetteerIndex,
    IndexConfig,
    IndexCorruptError,
    IndexFileError,
    IndexVersionError,
    build_index,
    char_ngrams,
    load_index,
    query,
    retrieval_score,
    save_index,
)
from placelink.toygaz import build_toy_gazetteer


def exact_index(index) -> dict[str, list[int]]:
    """Name variant -> sorted geoname ids, read through the exact lookup."""
    ids = index.arrays["geoname_id"]
    return {name: sorted(int(ids[row]) for row in index.exact_rows(name)) for name in index.variants}


def ngram_index(index) -> dict[str, list[int]]:
    """N-gram -> sorted geoname ids, read from the CSR postings."""
    ids, postings, offsets = (index.arrays[k] for k in ("geoname_id", "postings", "posting_offsets"))
    return {
        gram: sorted(int(ids[row]) for row in postings[offsets[slot] : offsets[slot + 1]])
        for slot, gram in enumerate(index.grams)
    }


class TestCharNgrams:
    def test_trigrams(self):
        assert char_ngrams("paris", 3) == ["par", "ari", "ris"]

    def test_short_text_yields_nothing(self):
        assert char_ngrams("ab", 3) == []

    def test_exact_length(self):
        assert char_ngrams("abc", 3) == ["abc"]

    def test_bigram_size(self):
        assert char_ngrams("abc", 2) == ["ab", "bc"]


class TestIndexConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_candidates": 0},
            {"max_candidates": -1},
            {"max_candidates": -(10**9)},
            {"max_candidates": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            IndexConfig(**kwargs)


class TestBuildIndex:
    def test_empty_entry_list_rejected(self):
        with pytest.raises(ValueError):
            build_index([])

    def test_exact_index_covers_all_variants(self):
        entry = make_entry(9, "Berlin", alternates=("Berlín",))
        index = build_index([entry])
        assert exact_index(index)["berlin"] == [9]
        assert exact_index(index)["berlín"] == [9]

    def test_homonyms_share_a_key(self, mini_index):
        assert exact_index(mini_index)["paris"] == [2, 6]

    def test_alternate_names_indexed(self, mini_index):
        assert exact_index(mini_index)["usa"] == [4]
        assert exact_index(mini_index)["lutetia"] == [2]

    def test_trigram_postings(self):
        index = build_index([make_entry(5, "Paris")])
        for gram in ("par", "ari", "ris"):
            assert ngram_index(index)[gram] == [5]

    def test_postings_reference_stored_entries(self, mini_index):
        for ids in ngram_index(mini_index).values():
            for gid in ids:
                assert gid in entry_store(mini_index)
        for ids in exact_index(mini_index).values():
            for gid in ids:
                assert gid in entry_store(mini_index)

    def test_len_and_name_count(self, mini_index, mini_entries):
        assert len(mini_index) == len(mini_entries)
        assert mini_index.name_count == len(exact_index(mini_index))


class TestQuery:
    def test_exact_hit_ranks_first(self, mini_index):
        result = query(mini_index, "Paris")
        assert result.ids()[0] == 2
        assert result.candidates[0][1] >= 1e6

    def test_homonyms_ordered_by_population(self, mini_index):
        assert query(mini_index, "Paris").ids()[:2] == [2, 6]

    def test_fuzzy_match_included(self, mini_index):
        # one insertion away from both Paris entries
        result = query(mini_index, "Pariss")
        assert result.ids()[:2] == [2, 6]
        assert 11 in result.ids()  # Parisot at distance 2

    def test_no_shared_trigrams_empty(self, mini_index):
        assert query(mini_index, "Qqqqqq").ids() == []

    def test_empty_query_empty_result(self, mini_index):
        result = query(mini_index, "   ")
        assert result.ids() == []
        assert result.normalized_query == ""

    def test_k_must_be_positive(self, mini_index):
        with pytest.raises(ValueError):
            query(mini_index, "Paris", k=0)

    def test_k_truncates(self, mini_index):
        assert query(mini_index, "Paris", k=1).ids() == [2]

    def test_exact_outranks_high_population_fuzzy(self):
        index = build_index([
            make_entry(1, "Berlin", population=0),
            make_entry(2, "Berlina", population=10**9),
        ])
        assert query(index, "Berlin").ids() == [1, 2]

    def test_population_tie_broken_by_ascending_id(self):
        index = build_index([
            make_entry(30, "Springfield", population=100),
            make_entry(20, "Springfield", population=100),
        ])
        assert query(index, "Springfield").ids() == [20, 30]

    def test_scores_non_increasing_and_ids_unique(self, mini_index):
        for text in ("Paris", "Pariss", "Texas", "washington"):
            result = query(mini_index, text)
            scores = [s for _, s in result.candidates]
            assert scores == sorted(scores, reverse=True)
            assert len(set(result.ids())) == len(result.ids())

    def test_distance_beyond_bound_excluded(self, mini_index):
        # "Parisoto" is distance 1 from Parisot but 3 from Paris
        ids = query(mini_index, "Parisoto").ids()
        assert 11 in ids
        assert 2 not in ids and 6 not in ids

    def test_diacritic_query_matches_folded_variant(self):
        index = build_index([make_entry(4, "Sao Paulo")])
        # the query normalizes with diacritics; the entry only has the plain form
        result = query(index, "São Paulo")
        assert result.ids() == [4]

    def test_exact_primary_name_recall(self, mini_index, mini_entries):
        for entry in mini_entries:
            assert entry.geoname_id in query(mini_index, entry.name).ids()

    def test_identical_queries_identical_results(self, mini_index):
        first = query(mini_index, "Pariss")
        second = query(mini_index, "Pariss")
        assert first.ids() == second.ids()
        assert [s for _, s in first.candidates] == [s for _, s in second.candidates]


@settings(max_examples=80)
@given(data=st.data())
def test_single_substitution_recall(mini_index, mini_entries, data):
    entry = data.draw(st.sampled_from(mini_entries))
    name = normalize_name(entry.name)
    pos = data.draw(st.integers(min_value=0, max_value=len(name) - 1))
    letter = data.draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz"))
    mutated = name[:pos] + letter + name[pos + 1 :]
    entry_grams = set()
    for variant in entry.name_variants():
        entry_grams.update(char_ngrams(variant, 3))
    shared = len(set(char_ngrams(normalize_name(mutated), 3)) & entry_grams)
    if shared >= MIN_SHARED_NGRAMS:
        assert entry.geoname_id in query(mini_index, mutated).ids()


class TestBruteForceEquivalence:
    QUERIES = [
        "Paris", "Pariss", "parisot", "usa", "Austin", "Springfeld",
        "Ile-de-France", "texas", "qqqq", "Washingtin", "United  States",
    ]

    def test_matches_exhaustive_scan(self, mini_index, mini_entries):
        for text in self.QUERIES:
            got = query(mini_index, text)
            want = scan_candidates(mini_entries, text)
            assert got.ids() == [gid for gid, _ in want], text
            for (_, got_score), (_, want_score) in zip(got.candidates, want):
                assert got_score == pytest.approx(want_score, abs=1e-9)


class TestRetrievalScore:
    def test_component_ordering(self):
        exact = retrieval_score(True, 0, 0)
        near = retrieval_score(False, 1, 10**9)
        far = retrieval_score(False, 2, 10**9)
        assert exact > near > far

    def test_population_term(self):
        low = retrieval_score(False, 1, 0)
        high = retrieval_score(False, 1, 999)
        assert high - low == pytest.approx(3.0)
        assert retrieval_score(False, 0, 0) == 0.0


class TestCandidateSet:
    def test_without_id(self, mini_index):
        result = query(mini_index, "Paris")
        pruned = result.without_id(2)
        assert 2 not in pruned.ids()
        assert pruned.ids() == [i for i in result.ids() if i != 2]
        assert pruned.query_text == result.query_text

    def test_without_absent_id_is_noop(self, mini_index):
        result = query(mini_index, "Paris")
        assert result.without_id(999999).ids() == result.ids()


class TestIndexFile:
    def test_round_trip_preserves_queries(self, tmp_path, mini_index):
        path = str(tmp_path / "gaz.idx")
        save_index(mini_index, path)
        loaded = load_index(path)
        for text in ("Paris", "Pariss", "usa", "Qqqqqq"):
            a, b = query(mini_index, text), query(loaded, text)
            assert a.ids() == b.ids()
            assert [s for _, s in a.candidates] == [s for _, s in b.candidates]

    def test_save_is_deterministic(self, tmp_path, mini_index):
        p1, p2 = str(tmp_path / "a.idx"), str(tmp_path / "b.idx")
        save_index(mini_index, p1)
        save_index(mini_index, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_empty_file_is_corrupt(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(b"")
        with pytest.raises(IndexCorruptError):
            load_index(str(path))

    def test_wrong_magic_is_corrupt(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 32)
        with pytest.raises(IndexCorruptError):
            load_index(str(path))

    def test_bumped_version_rejected(self, tmp_path, mini_index):
        path = tmp_path / "gaz.idx"
        save_index(mini_index, str(path))
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(INDEX_MAGIC), 999)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexVersionError):
            load_index(str(path))

    def test_truncated_payload_is_corrupt(self, tmp_path, mini_index):
        path = tmp_path / "gaz.idx"
        save_index(mini_index, str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(INDEX_MAGIC) + 4 + 5])
        with pytest.raises(IndexCorruptError):
            load_index(str(path))


class TestDuplicateIds:
    def test_build_rejects_a_duplicate_id(self):
        with pytest.raises(ValueError, match="duplicate geoname id 1"):
            build_index([make_entry(1, "Paris"), make_entry(1, "Berlin")])

    def test_load_rejects_a_duplicate_id(self, tmp_path, mini_index):
        ids = mini_index.arrays["geoname_id"].copy()
        ids[1] = ids[0]
        with pytest.raises(IndexCorruptError, match="duplicate geoname id"):
            load_index(_tampered(tmp_path, mini_index, geoname_id=ids))


def _tampered(tmp_path, index, **arrays) -> str:
    """Save an index with some arrays replaced. The constructor's validator is
    bypassed and the checksum is right, so only the loader's validator can
    refuse the file."""
    path = str(tmp_path / "tampered.idx")
    save_index(SimpleNamespace(config=index.config, arrays={**index.arrays, **arrays}), path)
    return path


def _set(name, pos, value):
    def change(arrays):
        column = arrays[name].copy()
        column[pos] = value
        return {name: column}

    return change


def _swap(name):
    def change(arrays):
        column = arrays[name].copy()
        column[[1, 2]] = column[[2, 1]]
        return {name: column}

    return change


def _reverse_a_posting_list(arrays):
    offsets, postings = arrays["posting_offsets"], arrays["postings"].copy()
    slot = int(np.flatnonzero(np.diff(offsets) >= 2)[0])
    postings[offsets[slot] : offsets[slot + 1]] = postings[offsets[slot] : offsets[slot + 1]][::-1]
    return {"postings": postings}


class TestLoaderValidator:
    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda a: {"latitude": a["latitude"][:-1]}, id="column-lengths-disagree"),
            pytest.param(lambda a: {"entry_variants": a["entry_variants"][:-1]}, id="entry-offsets-short"),
            pytest.param(lambda a: {"gram_offsets": a["gram_offsets"][:-1]}, id="gram-tables-disagree"),
            pytest.param(_swap("variant_offsets"), id="variant-offsets-non-monotone"),
            pytest.param(_swap("posting_offsets"), id="posting-offsets-non-monotone"),
            pytest.param(_swap("entry_names"), id="entry-names-non-monotone"),
            pytest.param(_set("posting_offsets", -1, 10**6), id="posting-offsets-past-the-end"),
            pytest.param(lambda a: {"postings": a["postings"] + len(a["geoname_id"])}, id="posting-row-out-of-range"),
            pytest.param(_set("postings", 0, -1), id="posting-row-negative"),
            pytest.param(_reverse_a_posting_list, id="posting-list-unsorted"),
            pytest.param(_set("latitude", 0, 90.5), id="latitude-above-90"),
            pytest.param(_set("longitude", 0, -180.5), id="longitude-below-180"),
            pytest.param(_set("latitude", 3, np.nan), id="latitude-nan"),
            pytest.param(_set("longitude", 3, np.inf), id="longitude-infinite"),
            pytest.param(_set("population", 0, -1), id="population-negative"),
            pytest.param(_set("country_code", 0, 10**6), id="code-outside-table"),
            pytest.param(_set("variant_text", 0, 0xFF), id="variant-text-not-utf8"),
            pytest.param(lambda a: {"geoname_id": a["geoname_id"][:0]}, id="no-entries"),
        ],
    )
    def test_refuses(self, tmp_path, mini_index, change):
        path = _tampered(tmp_path, mini_index, **change(mini_index.arrays))
        with pytest.raises(IndexCorruptError):
            load_index(path)

    def test_ngram_size_below_two(self, tmp_path, mini_index):
        # one-character n-grams, still sorted and distinct, one per posting list
        grams = [chr(0x4E00 + slot) for slot in range(len(mini_index.grams))]
        text = np.frombuffer("".join(grams).encode("utf-8"), dtype=np.uint8)
        offsets = np.arange(len(grams) + 1, dtype=np.int64)
        path = _tampered(tmp_path, mini_index, gram_text=text, gram_offsets=offsets)
        with pytest.raises(IndexCorruptError, match="3 characters long"):
            load_index(path)

    def test_checksum_catches_a_flipped_payload_byte(self, tmp_path, mini_index):
        path = tmp_path / "gaz.idx"
        save_index(mini_index, str(path))
        data = bytearray(path.read_bytes())
        data[-20] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(IndexCorruptError, match="checksum"):
            load_index(str(path))

    def test_version_two_file_is_refused(self, tmp_path, mini_index):
        # the version-2 layout: the same container with the retrieval rule in
        # the config
        path = str(tmp_path / "v2.idx")
        config = {
            "ngram_size": 3, "max_candidates": 50, "max_edit_distance": 2, "fuzzy_min_shared_ngrams": 2,
        }
        arrays = {name: np.asarray(mini_index.arrays[name], dtype) for name, dtype in _ARRAYS.items()}
        artifact.write(path, INDEX_MAGIC, 2, {"config": config}, arrays)
        with pytest.raises(IndexVersionError, match="version 2.*build-index"):
            load_index(path)

    def test_version_one_file_is_refused(self, tmp_path):
        path = tmp_path / "v1.idx"
        payload = zlib.compress(b'{"config": {}, "entries": []}')
        path.write_bytes(INDEX_MAGIC + struct.pack("<I", 1) + payload)
        with pytest.raises(IndexVersionError, match="build-index"):
            load_index(str(path))

    def test_concurrent_queries_equal_sequential_ones(self, tmp_path, mini_index):
        # entries are materialised lazily into a shared cache; threads that
        # race on one row must still all see equal entries
        path = str(tmp_path / "gaz.idx")
        save_index(mini_index, path)
        names = ["Paris", "Pariss", "usa", "Texas", "Austin", "Springfeld", "Washingtin", "Parisot"] * 25
        want = {name: query(load_index(path), name).candidates for name in set(names)}
        loaded = load_index(path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda name: query(loaded, name).candidates, names, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[name] for name in names]

    def test_loaded_arrays_are_read_only_views(self, tmp_path, mini_index):
        path = str(tmp_path / "gaz.idx")
        save_index(mini_index, path)
        loaded = load_index(path)
        assert not loaded.arrays["postings"].flags.writeable


def _same_index(a, b) -> bool:
    return a.config == b.config and all(np.array_equal(a.arrays[k], b.arrays[k], equal_nan=True) for k in a.arrays)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flipped_or_truncated_file_loads_equal_or_raises(tmp_path_factory, mini_index, data):
    path = tmp_path_factory.mktemp("flip") / "gaz.idx"
    save_index(mini_index, str(path))
    path.write_bytes(damage_bytes(data, path.read_bytes()))
    try:
        loaded = load_index(str(path))
    except IndexFileError:
        return
    assert _same_index(loaded, mini_index)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damage_behind_a_valid_checksum_raises_only_index_errors(tmp_path_factory, mini_index, data):
    """With the checksum recomputed, damage reaches the layout parser and the
    validator: the file loads to an index whose entries all materialise, or
    raises an IndexFileError subclass, never a bare exception."""
    path = tmp_path_factory.mktemp("flip") / "gaz.idx"
    save_index(mini_index, str(path))
    blob = path.read_bytes()
    start = len(INDEX_MAGIC) + 12
    damaged = bytearray(blob[:start] + damage_bytes(data, blob[start:]))
    struct.pack_into("<I", damaged, len(INDEX_MAGIC) + 8, zlib.crc32(damaged[start:]))
    path.write_bytes(bytes(damaged))
    try:
        loaded = load_index(str(path))
    except IndexFileError:
        return
    loaded.entries()
    query(loaded, "Paris")


_LETTERS = "abeilnorsu"
_ACCENTS = str.maketrans("aeiou", "áéíöü")


@st.composite
def _gazetteers(draw, shortest=3):
    """Small worlds with homonyms (names drawn from a small pool), names of
    shortest to 8 letters, alternative names and diacritics."""
    pool = draw(st.lists(st.text(_LETTERS, min_size=shortest, max_size=8), min_size=1, max_size=6, unique=True))
    pool += [name.translate(_ACCENTS) for name in pool]
    n = draw(st.integers(1, 20))
    ids = draw(st.lists(st.integers(1, 10**7), min_size=n, max_size=n, unique=True))
    return [
        make_entry(
            gid,
            draw(st.sampled_from(pool)).capitalize(),
            alternates=tuple(draw(st.lists(st.sampled_from(pool), max_size=2))),
            population=draw(st.sampled_from([0, 0, 7, 1_000, 250_000])),
            lat=draw(st.floats(-90, 90)),
            lon=draw(st.floats(-180, 180)),
            cc=draw(st.sampled_from(["FR", "US", ""])),
        )
        for gid in ids
    ]


@st.composite
def _queries(draw, entries):
    name = draw(st.sampled_from(entries)).name
    pos = draw(st.integers(0, len(name)))
    letter = draw(st.sampled_from(_LETTERS + "xé"))
    return draw(
        st.sampled_from(
            [
                name,
                f"  {name.upper()} ",
                name[:pos] + letter + name[pos + 1 :],
                name[:pos] + letter + name[pos:],
                name[:pos] + name[pos + 1 :],
                "",
                " \t ",
            ]
        )
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_query_equals_dict_index_oracle(tmp_path_factory, data):
    entries = data.draw(_gazetteers(), label="entries")
    index = build_index(entries)
    oracle = build_dict_index(entries)
    folder = tmp_path_factory.mktemp("oracle")
    save_index(index, str(folder / "a.idx"))
    save_index(index, str(folder / "b.idx"))
    assert (folder / "a.idx").read_bytes() == (folder / "b.idx").read_bytes()
    loaded = load_index(str(folder / "a.idx"))
    save_index(loaded, str(folder / "c.idx"))
    assert (folder / "c.idx").read_bytes() == (folder / "a.idx").read_bytes()
    for _ in range(5):
        text = data.draw(_queries(entries), label="query")
        k = data.draw(st.integers(1, 60), label="k")
        want = dict_query(oracle, text, k)
        for got in (query(index, text, k), query(loaded, text, k)):
            assert got.normalized_query == want.normalized_query
            assert [(e.geoname_id, s) for e, s in got.candidates] == [
                (e.geoname_id, s) for e, s in want.candidates
            ]
            assert got.entries() == want.entries()


@settings(max_examples=100, deadline=None)
@given(entries=_gazetteers(shortest=1))
@example(entries=[make_entry(1, "Ab"), make_entry(2, "É", alternates=("Y",))])
def test_build_equals_reference_columns(tmp_path_factory, entries):
    """The flat-pair build gives the arrays and file bytes of the dict-of-lists
    build, also when names of one or two letters leave no n-gram at all."""
    index = build_index(entries)
    want = reference_columns(entries)
    for name in ("gram_text", "gram_offsets", "posting_offsets", "postings", "entry_names", "entry_variants"):
        assert index.arrays[name].dtype == want[name].dtype
        assert np.array_equal(index.arrays[name], want[name]), name
    folder = tmp_path_factory.mktemp("columns")
    save_index(index, str(folder / "built.idx"))
    save_index(GazetteerIndex(index.config, want), str(folder / "reference.idx"))
    assert (folder / "built.idx").read_bytes() == (folder / "reference.idx").read_bytes()


def test_build_peak_memory_stays_near_what_it_keeps():
    """build_index frees its scratch before the index decodes its tables: its
    traced peak stays within 1.5 times the memory the index keeps."""
    entries = build_toy_gazetteer()
    gc.collect()
    tracemalloc.start()
    try:
        index = build_index(entries)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index) == len(entries)
    assert peak <= 1.5 * kept, f"peak {peak} B for {kept} B kept ({peak / kept:.2f}x)"
