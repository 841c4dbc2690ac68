"""Per-candidate features for the ranking model.

Three groups, mirroring how the ranker consumes them: string comparisons
between the query and each candidate's gazetteer names, coherence features
computed from the other place names mentioned in the same document, and the
context vectors the ranker compares against its country / feature-type
embeddings.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from placelink.gazetteer import AdminTables, GazetteerEntry, normalize_name

if TYPE_CHECKING:
    from placelink.index import CandidateSet

_WORD_RE = re.compile(r"\w+", re.UNICODE)
_SPAN_NGRAM_SIZE = 4


def edit_distance(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance (insert/delete/substitute)."""
    return _bit_parallel_distance(a, b, len(a) + len(b))


def bounded_edit_distance(a: str, b: str, bound: int) -> int | None:
    """Levenshtein distance if it is <= bound, else None."""
    if abs(len(a) - len(b)) > bound:
        return None
    if a == b:
        return 0
    if bound == 0:
        return None
    return _bit_parallel_distance(a, b, bound)


@lru_cache(maxsize=1024)
def _match_masks(pattern: str) -> dict[str, int]:
    """Per-character bit masks of the positions where it occurs in pattern."""
    masks: dict[str, int] = {}
    bit = 1
    for ch in pattern:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def _bit_parallel_distance(a: str, b: str, bound: int) -> int | None:
    """Myers' bit-parallel edit distance (Myers 1999, JACM 46(3), in Hyyro's
    global form) on Python ints, so a can be any length.

    Bit i of the vertical delta vectors pv/mv says whether D[i+1][j] is one
    more / one less than D[i][j]; each character of b updates the whole column
    in a few integer operations, and score tracks D[len(a)][j]. The score
    moves by at most one per remaining character of b, so the scan stops
    with None once score - remaining exceeds the bound.
    """
    m = len(a)
    if not m:
        return len(b) if len(b) <= bound else None
    masks = _match_masks(a)
    pv = (1 << m) - 1
    mv = 0
    score = m
    high = 1 << (m - 1)
    remaining = len(b)
    for ch in b:
        eq = masks.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        remaining -= 1
        if score - remaining > bound:
            return None
        ph = (ph << 1) | 1
        pv = (mh << 1) | ~(xv | ph)
        mv = ph & xv
    return score if score <= bound else None


@dataclass(frozen=True)
class CandidateFeatures:
    """Numeric features for one candidate of one toponym.

    Edit distances are length-normalized to [0, 1]; population and
    alternative-name counts are log10(x + 1) of heavy-tailed raw values.
    """

    min_edit_distance: float
    avg_edit_distance: float
    exact_match_flag: int
    alt_name_count_log: float
    population_log: float
    is_adm1_of_other_toponym: int
    has_adm1_parent_in_doc: int
    shared_country_fraction: float
    candidate_country: str
    candidate_feature_class: str


@dataclass
class ContextVectors:
    """Context embeddings for one toponym: its own mention, the average of
    the other mentions (zero vector when there are none), and the document."""

    mention_vector: np.ndarray
    other_mentions_vector: np.ndarray
    document_vector: np.ndarray

    def __post_init__(self) -> None:
        dims = {v.shape for v in (self.mention_vector, self.other_mentions_vector, self.document_vector)}
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise ValueError(f"context vectors must share one 1-D shape, got {dims}")
        for v in (self.mention_vector, self.other_mentions_vector, self.document_vector):
            if not np.all(np.isfinite(v)):
                raise ValueError("context vectors must be finite")

    @property
    def dimension(self) -> int:
        return self.mention_vector.shape[0]


class HashedBowProvider:
    """Seeded hashing bag-of-words provider.

    A document's vector hashes lowercased word tokens; span vectors additionally
    hash character 4-grams of the mention surface. Vectors are L2-normalized
    counts (the zero vector for empty input).
    """

    def __init__(self, dimension: int, seed: int):
        if dimension < 16:
            raise ValueError(f"provider dimension must be >= 16, got {dimension}")
        self.dimension = dimension
        self.seed = seed
        self._key = seed.to_bytes(8, "little", signed=True)

    def _slot(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), key=self._key, digest_size=8).digest()
        return int.from_bytes(digest, "little") % self.dimension

    def _vector(self, tokens: Iterable[str]) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        for token in tokens:
            vec[self._slot(token)] += 1.0
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            vec /= norm
        return vec

    def embed_document(self, text: str) -> np.ndarray:
        return self._vector(_WORD_RE.findall(text.casefold()))

    def embed_span(self, text: str, span: tuple[int, int]) -> np.ndarray:
        start, end = span
        surface = text[start:end].casefold()
        tokens = _WORD_RE.findall(surface)
        n = _SPAN_NGRAM_SIZE
        if len(surface) >= n:
            tokens.extend(surface[i : i + n] for i in range(len(surface) - n + 1))
        return self._vector(tokens)


def hashed_bow_provider(dimension: int, seed: int) -> HashedBowProvider:
    """Default context provider: deterministic, dependency-free."""
    return HashedBowProvider(dimension, seed)


def string_features(query: str, candidate: GazetteerEntry) -> tuple[float, float, int]:
    """(min, avg) length-normalized edit distance from the normalized query
    to the candidate's name set, plus the exact-match flag.

    The name set is the primary name, the ascii name, and the alternative
    names, normalized and deduplicated. Each distance is divided by
    max(len(query), len(name)) before aggregation.
    """
    names: dict[str, None] = {}
    for raw in (candidate.name, candidate.ascii_name, *candidate.alternative_names):
        norm = normalize_name(raw)
        if norm:
            names.setdefault(norm)
    if not names:
        return 1.0, 1.0, 0
    exact = 0
    normalized_distances = []
    for name in names:
        if name == query:
            exact = 1
            normalized_distances.append(0.0)
            continue
        longest = max(len(query), len(name))
        if longest == 0:
            normalized_distances.append(0.0)
            continue
        normalized_distances.append(edit_distance(query, name) / longest)
    return min(normalized_distances), sum(normalized_distances) / len(normalized_distances), exact


@dataclass(frozen=True)
class CandidateSummary:
    """Per-toponym digest of a candidate set, precomputed so coherence checks
    are O(1) per candidate."""

    ids: frozenset[int]
    countries: frozenset[str]
    admin_pair_ids: dict[tuple[str, str], tuple[int, ...]]


def summarize_candidates(candidate_set: "CandidateSet") -> CandidateSummary:
    ids = set()
    countries = set()
    pair_ids: dict[tuple[str, str], list[int]] = {}
    for entry, _ in candidate_set.candidates:
        ids.add(entry.geoname_id)
        if entry.country_code:
            countries.add(entry.country_code)
            if entry.admin1_code:
                pair_ids.setdefault((entry.country_code, entry.admin1_code), []).append(
                    entry.geoname_id
                )
    return CandidateSummary(
        ids=frozenset(ids),
        countries=frozenset(countries),
        admin_pair_ids={k: tuple(v) for k, v in pair_ids.items()},
    )


def coherence_from_summaries(
    candidate: GazetteerEntry,
    other_summaries: Sequence[CandidateSummary],
    admin_tables: AdminTables,
) -> tuple[int, int, float]:
    """(is_adm1_of_other, has_adm1_parent, shared_country_fraction) computed
    against the other toponyms' candidate sets. Never reads gold labels."""
    if not other_summaries:
        return 0, 0, 0.0

    has_parent = 0
    parent_id = admin_tables.adm1_id(candidate.country_code, candidate.admin1_code)
    if parent_id is not None:
        has_parent = int(any(parent_id in summary.ids for summary in other_summaries))

    is_adm1_of_other = 0
    if candidate.feature_code == "ADM1" and candidate.country_code and candidate.admin1_code:
        key = (candidate.country_code, candidate.admin1_code)
        for summary in other_summaries:
            inside = summary.admin_pair_ids.get(key)
            # containment is proper: the ADM1 entry itself does not count
            if inside and any(gid != candidate.geoname_id for gid in inside):
                is_adm1_of_other = 1
                break

    shared = 0.0
    if candidate.country_code:
        matching = sum(1 for s in other_summaries if candidate.country_code in s.countries)
        shared = matching / len(other_summaries)
    return is_adm1_of_other, has_parent, shared


def candidate_features(
    normalized_query: str,
    candidate: GazetteerEntry,
    other_summaries: Sequence[CandidateSummary],
    admin_tables: AdminTables,
) -> CandidateFeatures:
    """Assemble the full feature record for one candidate."""
    min_edit, avg_edit, exact = string_features(normalized_query, candidate)
    is_adm1, has_parent, shared = coherence_from_summaries(candidate, other_summaries, admin_tables)
    return CandidateFeatures(
        min_edit_distance=min_edit,
        avg_edit_distance=avg_edit,
        exact_match_flag=exact,
        alt_name_count_log=math.log10(len(candidate.alternative_names) + 1),
        population_log=math.log10(candidate.population + 1),
        is_adm1_of_other_toponym=is_adm1,
        has_adm1_parent_in_doc=has_parent,
        shared_country_fraction=shared,
        candidate_country=candidate.country_code,
        candidate_feature_class=candidate.feature_class,
    )
