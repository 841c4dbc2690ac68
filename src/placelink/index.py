"""In-process fuzzy-search index over gazetteer names.

Retrieval works in two stages: exact lookups over every indexed name variant
(primary, ascii, alternatives, each with an ascii-folded twin), then trigram
blocking with bounded edit-distance verification for fuzzy matches. Candidates
are ordered by (exact hit, smallest edit distance, log population), with ties
broken by ascending geoname id so results are total and reproducible.

The index is columnar: numpy columns for the entry fields, UTF-8 arenas for
the names, CSR postings for the n-grams. The file stores the same arrays, so
loading maps them with ``np.frombuffer`` and derives only the two lookups;
shared n-grams are counted in numpy, candidates are verified with the
bit-parallel edit distance of :mod:`placelink.features`, and entries are
materialised only for the rows a query returns. The index is immutable once
built and safe for concurrent queries.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import asdict, dataclass
from collections import defaultdict
from itertools import chain, count, pairwise
from typing import Sequence

import numpy as np

from placelink import artifact
from placelink.features import bounded_edit_distance
from placelink.gazetteer import GazetteerEntry, normalize_name

INDEX_MAGIC = b"PLGAZIDX"
INDEX_FORMAT_VERSION = 3

# The retrieval rule: a fuzzy candidate shares at least MIN_SHARED_NGRAMS
# distinct NGRAM_SIZE-grams with the query and lies within MAX_EDIT_DISTANCE
# of one of its name variants.
NGRAM_SIZE = 3
MIN_SHARED_NGRAMS = 2
MAX_EDIT_DISTANCE = 2

_CODE_COLUMNS = ("feature_class", "feature_code", "country_code", "admin1_code", "admin2_code")
# every array of an index, with its little-endian dtype, in file order
_ARRAYS = {
    "geoname_id": "<i8",
    "latitude": "<f8",
    "longitude": "<f8",
    "population": "<i8",
    **{column: "<i4" for column in _CODE_COLUMNS},
    "code_text": "|u1",
    "code_offsets": "<i8",
    "name_text": "|u1",
    "name_offsets": "<i8",
    "entry_names": "<i8",
    "variant_text": "|u1",
    "variant_offsets": "<i8",
    "entry_variants": "<i8",
    "variant_ids": "<i4",
    "gram_text": "|u1",
    "gram_offsets": "<i8",
    "posting_offsets": "<i8",
    "postings": "<i4",
}

# Scalar retrieval score packs the (exact, -edit distance, log population)
# ordering tuple: the population term stays < 1e3 and edit distances are at
# most MAX_EDIT_DISTANCE, so each component dominates the next.
_EXACT_WEIGHT = 1.0e6
_DISTANCE_WEIGHT = 1.0e3


class IndexFileError(Exception):
    """Raised when an index file cannot be read."""


class IndexVersionError(IndexFileError):
    """Raised when an index file was written by an incompatible format
    version; the message tells the user to rebuild it."""

    def __init__(self, message: str):
        super().__init__(f"{message}; rebuild it with build-index")


class IndexCorruptError(IndexFileError):
    """Raised when an index file is truncated or otherwise unreadable."""


@dataclass(frozen=True)
class IndexConfig:
    max_candidates: int = 50

    def __post_init__(self) -> None:
        if not self.max_candidates >= 1:
            raise ValueError(f"max_candidates must be >= 1, got {self.max_candidates}")


@dataclass
class CandidateSet:
    """Retrieved candidates for one query, best first."""

    query_text: str
    normalized_query: str
    candidates: list[tuple[GazetteerEntry, float]]

    def entries(self) -> list[GazetteerEntry]:
        return [entry for entry, _ in self.candidates]

    def ids(self) -> list[int]:
        return [entry.geoname_id for entry, _ in self.candidates]

    def __len__(self) -> int:
        return len(self.candidates)

    def without_id(self, geoname_id: int) -> "CandidateSet":
        """Copy with one entry removed (used for impossible-case training)."""
        return CandidateSet(
            query_text=self.query_text,
            normalized_query=self.normalized_query,
            candidates=[(e, s) for e, s in self.candidates if e.geoname_id != geoname_id],
        )


def char_ngrams(text: str, n: int) -> list[str]:
    """Sliding-window character n-grams; empty for text shorter than n."""
    if len(text) < n:
        return []
    return [text[i : i + n] for i in range(len(text) - n + 1)]


class GazetteerIndex:
    """Immutable columnar index; safe for concurrent queries.

    ``arrays`` holds every column the index file stores (names and dtypes in
    ``_ARRAYS``): the entry columns; the codes as indexes into one string
    table; the raw names, the sorted distinct name variants and the sorted
    n-grams as UTF-8 arenas cut by code-point offsets; each entry's variants
    as ids into the variant table (``entry_variants`` offsets into
    ``variant_ids``); and CSR postings of entry rows per n-gram. The
    constructor validates the columns and derives the two lookups: the rows
    of each variant (the transpose of ``variant_ids``, found by bisecting the
    sorted variant table) and an n-gram -> posting slot dict. Entries are
    materialised on first access and cached; an index from ``build_index``
    starts with the entries it was built from.
    """

    def __init__(
        self,
        config: IndexConfig,
        arrays: dict[str, np.ndarray],
        entries: Sequence[GazetteerEntry] | None = None,
    ):
        _check_columns(arrays)
        self.config = config
        self.arrays = arrays
        # distinct normalized name variants and n-grams, each sorted
        self.variants = _sorted_strings(arrays, "variant")
        self.grams = _sorted_strings(arrays, "gram")
        if any(len(gram) != NGRAM_SIZE for gram in self.grams):
            raise ValueError(f"n-grams are not all {NGRAM_SIZE} characters long")
        self._gram_slot = dict(zip(self.grams, range(len(self.grams))))
        self._posting_offsets = arrays["posting_offsets"].tolist()
        self._entry_variants = arrays["entry_variants"].tolist()
        self._variant_ids = arrays["variant_ids"].tolist()
        self._codes = _strings(arrays, "code")
        self._names = _text(arrays, "name")
        n = len(arrays["geoname_id"])
        variant_ids = arrays["variant_ids"]
        pair_rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(arrays["entry_variants"]))
        self._variant_rows = pair_rows[np.argsort(variant_ids, kind="stable")]
        self._variant_row_offsets = _offsets(np.bincount(variant_ids, minlength=len(self.variants)))
        self._entries: list[GazetteerEntry | None] = list(entries) if entries is not None else [None] * n

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def name_count(self) -> int:
        """Distinct normalized name variants."""
        return len(self.variants)

    def exact_rows(self, name: str) -> tuple[int, ...]:
        """Rows with a name variant equal to the normalized name, ascending."""
        i = bisect_left(self.variants, name)
        if i == len(self.variants) or self.variants[i] != name:
            return ()
        offsets = self._variant_row_offsets
        return tuple(self._variant_rows[offsets[i] : offsets[i + 1]].tolist())

    def fuzzy_rows(self, text: str) -> np.ndarray:
        """Rows sharing at least MIN_SHARED_NGRAMS distinct n-grams with
        text, ascending. A row occurs once in each posting list it is on, so
        after a sort a run of equal rows is its shared count."""
        need = MIN_SHARED_NGRAMS
        slot_of, offsets = self._gram_slot, self._posting_offsets
        slots = [slot_of[g] for g in set(char_ngrams(text, NGRAM_SIZE)) if g in slot_of]
        if len(slots) < need:
            return _NO_ROWS
        postings = self.arrays["postings"]
        rows = np.concatenate([postings[offsets[s] : offsets[s + 1]] for s in slots])
        rows.sort()
        # keep each run's first row when the run is at least need long
        last = len(rows) - need + 1
        keep = np.empty(last, dtype=bool)
        keep[0] = True
        np.not_equal(rows[1:last], rows[: last - 1], out=keep[1:])
        keep &= rows[need - 1 :] == rows[:last]
        return rows[:last][keep]

    def rows_where(self, column: str, value: str) -> list[int]:
        """Rows whose code column (feature_code, country_code, ...) holds
        value, ascending."""
        codes = [i for i, code in enumerate(self._codes) if code == value]
        return np.flatnonzero(np.isin(self.arrays[column], codes)).tolist()

    def column_values(self, column: str) -> set[str]:
        """The distinct values of a code column."""
        return {self._codes[i] for i in np.unique(self.arrays[column]).tolist()}

    def entries(self, rows: Sequence[int] | None = None) -> list[GazetteerEntry]:
        """The entries at the given rows (every entry, in build order, by
        default), materialised from the columns on first access and cached."""
        cache = self._entries
        rows = range(len(cache)) if rows is None else rows
        missing = [row for row in rows if cache[row] is None]
        if missing:
            # no lock: threads racing on a row build it twice, and the
            # copies are equal
            for row, entry in zip(missing, self._materialise(missing)):
                cache[row] = entry
        return [cache[row] for row in rows]

    def _materialise(self, rows: list[int]) -> list[GazetteerEntry]:
        a, codes, text = self.arrays, self._codes, self._names
        at = np.array(rows, dtype=np.int64)
        name_offsets = a["name_offsets"]
        columns = zip(
            a["geoname_id"][at].tolist(),
            a["latitude"][at].tolist(),
            a["longitude"][at].tolist(),
            a["population"][at].tolist(),
            a["entry_names"][at].tolist(),
            a["entry_names"][at + 1].tolist(),
            *(map(codes.__getitem__, a[column][at].tolist()) for column in _CODE_COLUMNS),
        )
        entries = []
        for gid, lat, lon, population, first, last, fclass, fcode, country, admin1, admin2 in columns:
            bounds = name_offsets[first : last + 1].tolist()
            names = [text[start:end] for start, end in pairwise(bounds)]
            entries.append(
                GazetteerEntry(
                    geoname_id=gid,
                    name=names[0],
                    ascii_name=names[1],
                    alternative_names=tuple(names[2:]),
                    latitude=lat,
                    longitude=lon,
                    feature_class=fclass,
                    feature_code=fcode,
                    country_code=country,
                    admin1_code=admin1,
                    admin2_code=admin2,
                    population=population,
                )
            )
        return entries


_NO_ROWS = np.empty(0, dtype=np.int32)


def build_index(entries: Sequence[GazetteerEntry], config: IndexConfig | None = None) -> GazetteerIndex:
    """Build the columns and the n-gram postings over every name variant.

    Deterministic for a fixed entry order; raises ValueError on an empty
    entry list, a duplicate geoname id, or a value the index file refuses
    (coordinates out of range, negative population, non-finite values).
    """
    if not entries:
        raise ValueError("cannot build an index from an empty entry list")
    return GazetteerIndex(config or IndexConfig(), _columns(entries), entries)


def _columns(entries: Sequence[GazetteerEntry]) -> dict[str, np.ndarray]:
    """Every array of an index over entries. Strings are numbered at first
    sight, then by sorted rank; (n-gram, row) pairs become CSR postings by one
    stable sort. The scratch dies here, before the index decodes its tables."""
    n = len(entries)
    codes = sorted({getattr(entry, column) for entry in entries for column in _CODE_COLUMNS})
    code_of = {code: i for i, code in enumerate(codes)}
    names: list[str] = []
    variant_first, gram_first = defaultdict(count().__next__), defaultdict(count().__next__)
    # entry after entry: each entry's counts, and its variant and n-gram numbers
    name_counts, variant_counts, gram_counts = [], [], []
    pair_variants, pair_grams = [], []
    for entry in entries:
        names += (entry.name, entry.ascii_name, *entry.alternative_names)
        name_counts.append(2 + len(entry.alternative_names))
        own = entry.name_variants()
        pair_variants += map(variant_first.__getitem__, own)
        variant_counts.append(len(own))
        own_grams = set(chain.from_iterable(char_ngrams(name, NGRAM_SIZE) for name in own))
        pair_grams += map(gram_first.__getitem__, own_grams)
        gram_counts.append(len(own_grams))
    variants, variant_rank = _ranked(variant_first)
    grams, gram_rank = _ranked(gram_first)
    variant_ids = variant_rank[np.array(pair_variants, dtype=np.int32)]
    gram_of_pair = gram_rank[np.array(pair_grams, dtype=np.int32)]
    del pair_variants, pair_grams
    row_of_pair = np.repeat(np.arange(n, dtype=np.int32), gram_counts)
    return {
        **{
            column: np.fromiter(map(operator.attrgetter(column), entries), _ARRAYS[column], n)
            for column in ("geoname_id", "latitude", "longitude", "population")
        },
        **{
            column: np.fromiter(map(code_of.get, map(operator.attrgetter(column), entries)), np.int32, n)
            for column in _CODE_COLUMNS
        },
        **_string_table("code", codes),
        **_string_table("name", names),
        "entry_names": _offsets(name_counts),
        **_string_table("variant", variants),
        "entry_variants": _offsets(variant_counts),
        "variant_ids": variant_ids,
        **_string_table("gram", grams),
        "posting_offsets": _offsets(np.bincount(gram_of_pair, minlength=len(grams))),
        "postings": row_of_pair[np.argsort(gram_of_pair, kind="stable")],
    }


def _ranked(first_seen: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The strings of first_seen sorted, and the rank of each one's number."""
    strings = sorted(first_seen)
    numbers = np.fromiter(map(first_seen.__getitem__, strings), dtype=np.int32, count=len(strings))
    return strings, np.argsort(numbers).astype(np.int32)


def _string_table(prefix: str, strings: Sequence[str]) -> dict[str, np.ndarray]:
    blob = "".join(strings).encode("utf-8")
    return {
        f"{prefix}_text": np.frombuffer(blob, dtype=np.uint8),
        f"{prefix}_offsets": _offsets(list(map(len, strings))),
    }


def _offsets(lengths: Sequence[int] | np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _text(arrays: dict[str, np.ndarray], prefix: str) -> str:
    text = arrays[f"{prefix}_text"].tobytes().decode("utf-8")
    _check_offsets(f"{prefix}_offsets", arrays[f"{prefix}_offsets"], len(text))
    return text


def _strings(arrays: dict[str, np.ndarray], prefix: str) -> list[str]:
    text = _text(arrays, prefix)
    return [text[start:end] for start, end in pairwise(arrays[f"{prefix}_offsets"].tolist())]


def _sorted_strings(arrays: dict[str, np.ndarray], prefix: str) -> list[str]:
    strings = _strings(arrays, prefix)
    if any(map(operator.ge, strings, strings[1:])):
        raise ValueError(f"{prefix} table is not sorted and distinct")
    return strings


def _check_offsets(name: str, offsets: np.ndarray, total: int) -> None:
    if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != total:
        raise ValueError(f"{name} must run from 0 to {total}")
    if np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"{name} are not monotone")


def _check_columns(arrays: dict[str, np.ndarray]) -> None:
    """The one validator of index columns, for built and loaded indexes
    alike; raises ValueError. String tables are checked as they decode."""
    n = len(arrays["geoname_id"])
    if n == 0:
        raise ValueError("an index holds at least one entry")
    for column in ("latitude", "longitude", "population", *_CODE_COLUMNS):
        if len(arrays[column]) != n:
            raise ValueError(f"{column} has {len(arrays[column])} values for {n} entries")
    if len(arrays["posting_offsets"]) != len(arrays["gram_offsets"]):
        raise ValueError("posting_offsets and gram_offsets disagree in length")
    for column, total in (
        ("entry_names", len(arrays["name_offsets"]) - 1),
        ("entry_variants", len(arrays["variant_ids"])),
    ):
        if len(arrays[column]) != n + 1:
            raise ValueError(f"{column} has {len(arrays[column])} offsets for {n} entries")
        _check_offsets(column, arrays[column], total)
    variant_ids = arrays["variant_ids"]
    if np.any(variant_ids < 0) or np.any(variant_ids >= len(arrays["variant_offsets"]) - 1):
        raise ValueError("a variant id points outside the variant table")
    if np.any(np.diff(arrays["entry_names"]) < 2):
        raise ValueError("every entry needs a name and an ascii name")
    ids = np.sort(arrays["geoname_id"])
    repeated = ids[1:][ids[1:] == ids[:-1]]
    if len(repeated):
        raise ValueError(f"duplicate geoname id {repeated[0]}")
    lat, lon = arrays["latitude"], arrays["longitude"]
    if not (np.all(np.isfinite(lat)) and np.all(np.isfinite(lon))):
        raise ValueError("coordinates must be finite")
    if np.any(np.abs(lat) > 90.0) or np.any(np.abs(lon) > 180.0):
        raise ValueError("latitude must lie in [-90, 90] and longitude in [-180, 180]")
    if np.any(arrays["population"] < 0):
        raise ValueError("population must be non-negative")
    n_codes = len(arrays["code_offsets"]) - 1
    for column in _CODE_COLUMNS:
        codes = arrays[column]
        if np.any(codes < 0) or np.any(codes >= n_codes):
            raise ValueError(f"{column} points outside the code table")
    offsets, postings = arrays["posting_offsets"], arrays["postings"]
    _check_offsets("posting_offsets", offsets, len(postings))
    if np.any(offsets[1:] == offsets[:-1]):
        raise ValueError("an n-gram has no postings")
    if np.any(postings < 0) or np.any(postings >= n):
        raise ValueError("a posting points outside the entry rows")
    # rows strictly ascend within each posting list
    starts = np.zeros(len(postings), dtype=bool)
    starts[offsets[:-1]] = True
    if np.any(~starts[1:] & (postings[1:] <= postings[:-1])):
        raise ValueError("posting lists are not strictly ascending")


def retrieval_score(exact: bool, min_distance: int, population: int) -> float:
    """Scalar encoding of the (exact, -distance, log10(population+1)) ordering."""
    return (
        (_EXACT_WEIGHT if exact else 0.0)
        - _DISTANCE_WEIGHT * min_distance
        + math.log10(population + 1)
    )


def query(index: GazetteerIndex, name: str, k: int | None = None) -> CandidateSet:
    """Retrieve the top-k candidate entries for a place name.

    Exact matches on any indexed variant come first; fuzzy candidates must
    share at least MIN_SHARED_NGRAMS trigrams with the query and lie within
    MAX_EDIT_DISTANCE of some variant. An empty query yields an empty
    candidate set; k must be positive.
    """
    if k is None:
        k = index.config.max_candidates
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    normalized = normalize_name(name)
    if not normalized:
        return CandidateSet(query_text=name, normalized_query=normalized, candidates=[])

    population = index.arrays["population"]
    ids = index.arrays["geoname_id"]
    exact_rows = index.exact_rows(normalized)
    # (score, geoname id, row)
    scored = [(retrieval_score(True, 0, int(population[row])), int(ids[row]), row) for row in exact_rows]
    exact = set(exact_rows)
    bound = MAX_EDIT_DISTANCE
    length = len(normalized)
    variants, variant_ids, bounds = index.variants, index._variant_ids, index._entry_variants
    for row in index.fuzzy_rows(normalized).tolist():
        if row in exact:
            continue
        # no variant of a fuzzy row equals the query, so every length-eligible
        # variant is verified
        best = None
        for variant_id in variant_ids[bounds[row] : bounds[row + 1]]:
            variant = variants[variant_id]
            if abs(len(variant) - length) > bound:
                continue
            dist = bounded_edit_distance(normalized, variant, bound)
            if dist is not None and (best is None or dist < best):
                best = dist
        if best is not None:
            scored.append((retrieval_score(False, best, int(population[row])), int(ids[row]), row))

    scored.sort(key=lambda item: (-item[0], item[1]))
    top = scored[:k]
    entries = index.entries([row for _, _, row in top])
    return CandidateSet(
        query_text=name,
        normalized_query=normalized,
        candidates=[(entry, score) for entry, (score, _, _) in zip(entries, top)],
    )


def save_index(index: GazetteerIndex, path: str) -> None:
    """Write the index to one versioned, byte-deterministic file in the
    :mod:`placelink.artifact` container: the build config in the header, then
    the arrays of ``_ARRAYS``."""
    fields = {"config": asdict(index.config)}
    arrays = {name: np.asarray(index.arrays[name], dtype) for name, dtype in _ARRAYS.items()}
    artifact.write(path, INDEX_MAGIC, INDEX_FORMAT_VERSION, fields, arrays)


def load_index(path: str) -> GazetteerIndex:
    """Read an index file written by :func:`save_index`. The arrays are views
    of the file's bytes; only the name and n-gram lookups are rebuilt.

    Raises IndexVersionError for another format version (rebuild the index
    with ``build-index``) and IndexCorruptError for anything that does not
    check out: checksum, layout, or a column the validator refuses.
    """
    errors = (IndexFileError, IndexVersionError, IndexCorruptError)
    fields, arrays = artifact.read(path, INDEX_MAGIC, INDEX_FORMAT_VERSION, _ARRAYS, errors)
    try:
        config = fields["config"]
        if not all(type(value) is int for value in config.values()):
            raise ValueError("config values must be integers")
        return GazetteerIndex(IndexConfig(**config), arrays)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise IndexCorruptError(f"{path!r} is corrupt: {exc}") from exc
