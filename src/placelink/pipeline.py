"""End-to-end document processing.

Four stages: toponym extraction (pluggable; a gazetteer-dictionary matcher is
built in), candidate retrieval, feature assembly, and ranking. Coherence
features for a span are computed from the *other* spans' raw candidate sets
in a single pass, never from their final resolutions and never from gold
labels. An optional final stage selects the toponym where a reported event
occurred.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from placelink.corpus import CorpusDocument
from placelink.features import (
    CandidateSummary,
    ContextVectors,
    EmbeddingProvider,
    candidate_features,
    summarize_candidates,
)
from placelink.gazetteer import AdminTables
from placelink.index import CandidateSet, GazetteerIndex, query
from placelink.ranker import (
    ModelDimensionError,
    RankerModel,
    RankingExample,
    score_candidates,
)

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
_MAX_MATCH_TOKENS = 6

DEFAULT_WINDOW_CHARS = 10_000


@dataclass(frozen=True)
class Span:
    start: int
    end: int
    surface: str


@dataclass
class Document:
    doc_id: str
    text: str
    toponym_spans: list[Span] = field(default_factory=list)
    event_trigger_span: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        last_end = -1
        for span in sorted(self.toponym_spans, key=lambda s: s.start):
            if not 0 <= span.start < span.end <= len(self.text):
                raise ValueError(f"span ({span.start}, {span.end}) out of bounds")
            if span.start < last_end:
                raise ValueError("toponym spans must not overlap")
            last_end = span.end


@dataclass
class ResolutionRecord:
    """Outcome for one toponym span. A missing predicted id means the model
    abstained (or had nothing to rank); predicted coordinates are present
    exactly when the id is. score is the softmax probability of the chosen
    slot. Gold fields are carried through for evaluation when known."""

    doc_id: str
    start: int
    end: int
    query_text: str
    predicted_geoname_id: int | None
    predicted_lat: float | None
    predicted_lon: float | None
    predicted_country: str
    predicted_admin1: str
    predicted_feature_class: str
    score: float
    candidate_count: int
    gold_geoname_id: int | None = None
    gold_lat: float | None = None
    gold_lon: float | None = None
    gold_country: str = ""
    gold_admin1: str = ""
    gold_feature_class: str = ""
    impossible: bool = False
    gold_in_candidates: bool = False

    @property
    def abstained(self) -> bool:
        return self.predicted_geoname_id is None


class ToponymExtractor(Protocol):
    def extract(self, text: str) -> list[Span]: ...


class EventLocator(Protocol):
    def select(self, doc: Document, records: Sequence[ResolutionRecord]) -> ResolutionRecord | None: ...


@dataclass
class EventLocationResult:
    """status 'located' carries the chosen record; 'no_location' means no
    resolvable toponym; 'not_applicable' means the locator had nothing to
    anchor on (no trigger span for the proximity baseline)."""

    status: str
    record: ResolutionRecord | None = None


class TriggerProximityLocator:
    """Baseline event locator: the resolved toponym whose span midpoint is
    nearest the trigger midpoint, ties to the earlier span."""

    def select(self, doc: Document, records: Sequence[ResolutionRecord]) -> ResolutionRecord | None:
        if doc.event_trigger_span is None:
            return None
        trig_mid = sum(doc.event_trigger_span) / 2.0
        resolved = [r for r in records if not r.abstained]
        if not resolved:
            return None
        return min(resolved, key=lambda r: (abs((r.start + r.end) / 2.0 - trig_mid), r.start))


def dictionary_extract(text: str, index: GazetteerIndex, min_token_len: int = 2) -> list[Span]:
    """Deterministic extraction stand-in: greedy longest-match scan over runs
    of capitalized tokens whose normalized form is an exact indexed name."""
    from placelink.gazetteer import normalize_name

    tokens = list(_TOKEN_RE.finditer(text))
    spans: list[Span] = []
    i = 0
    while i < len(tokens):
        if not tokens[i].group(0)[0].isupper():
            i += 1
            continue
        run_end = i
        while (
            run_end < len(tokens)
            and run_end - i < _MAX_MATCH_TOKENS
            and tokens[run_end].group(0)[0].isupper()
        ):
            run_end += 1
        matched = False
        for j in range(run_end - 1, i - 1, -1):
            start, end = tokens[i].start(), tokens[j].end()
            surface = text[start:end]
            if len(surface) >= min_token_len and index.exact_rows(normalize_name(surface)):
                spans.append(Span(start=start, end=end, surface=surface))
                i = j + 1
                matched = True
                break
        if not matched:
            i += 1
    return spans


class DictionaryExtractor:
    def __init__(self, index: GazetteerIndex, min_token_len: int = 2):
        self.index = index
        self.min_token_len = min_token_len

    def extract(self, text: str) -> list[Span]:
        return dictionary_extract(text, self.index, self.min_token_len)


def _document_window(text: str, span: Span, window_chars: int) -> str:
    if len(text) <= window_chars:
        return text
    mid = (span.start + span.end) // 2
    half = window_chars // 2
    lo = max(0, mid - half)
    return text[lo : lo + window_chars]


def _context_vectors(
    provider: EmbeddingProvider,
    text: str,
    spans: Sequence[Span],
    mention_vecs: Sequence[np.ndarray],
    position: int,
    window_chars: int,
    whole_doc_vec: np.ndarray | None,
) -> ContextVectors:
    others = [v for i, v in enumerate(mention_vecs) if i != position]
    if others:
        other_vec = np.mean(others, axis=0)
    else:
        other_vec = np.zeros(provider.dimension, dtype=np.float64)
    if whole_doc_vec is not None:
        doc_vec = whole_doc_vec
    else:
        doc_vec = provider.embed_document(_document_window(text, spans[position], window_chars))
    return ContextVectors(
        mention_vector=mention_vecs[position],
        other_mentions_vector=other_vec,
        document_vector=doc_vec,
    )


def _check_dimensions(model: RankerModel, provider: EmbeddingProvider) -> None:
    if provider.dimension != model.provider_dim:
        raise ModelDimensionError(
            f"provider dimension {provider.dimension} != model provider_dim {model.provider_dim}"
        )


def _scored_spans(
    text: str,
    spans: Sequence[Span],
    candidate_sets: Sequence[CandidateSet],
    model: RankerModel,
    provider: EmbeddingProvider,
    admin_tables: AdminTables,
    window_chars: int,
):
    """Score every span of one document. Yields (scored, features, context)
    per span, with scored None when there were no candidates to rank."""
    summaries = [summarize_candidates(cs) for cs in candidate_sets]
    mention_vecs = [provider.embed_span(text, (s.start, s.end)) for s in spans]
    whole_doc = provider.embed_document(text) if len(text) <= window_chars else None
    out = []
    for pos, (span, cs) in enumerate(zip(spans, candidate_sets)):
        context = _context_vectors(
            provider, text, spans, mention_vecs, pos, window_chars, whole_doc
        )
        if not cs.candidates:
            out.append((None, [], context))
            continue
        other_summaries = [s for i, s in enumerate(summaries) if i != pos]
        feats = [
            candidate_features(cs.normalized_query, entry, other_summaries, admin_tables)
            for entry, _ in cs.candidates
        ]
        scored = score_candidates(model, feats, context)
        out.append((scored, feats, context))
    return out


def resolve_document(
    doc: Document,
    index: GazetteerIndex,
    model: RankerModel,
    provider: EmbeddingProvider,
    admin_tables: AdminTables,
    k: int | None = None,
    window_chars: int = DEFAULT_WINDOW_CHARS,
) -> list[ResolutionRecord]:
    """Resolve every toponym span of one document, one record per span, in
    span order. Pure inference; gold labels are never consulted."""
    _check_dimensions(model, provider)
    spans = doc.toponym_spans
    candidate_sets = [query(index, s.surface, k) for s in spans]
    records = []
    for span, cs, (scored, _, _) in zip(
        spans,
        candidate_sets,
        _scored_spans(doc.text, spans, candidate_sets, model, provider, admin_tables, window_chars),
    ):
        records.append(_record_from_scored(doc.doc_id, span, cs, scored))
    return records


def _record_from_scored(
    doc_id: str, span: Span, cs: CandidateSet, scored
) -> ResolutionRecord:
    if scored is None or scored.abstained:
        return ResolutionRecord(
            doc_id=doc_id,
            start=span.start,
            end=span.end,
            query_text=span.surface,
            predicted_geoname_id=None,
            predicted_lat=None,
            predicted_lon=None,
            predicted_country="",
            predicted_admin1="",
            predicted_feature_class="",
            score=1.0 if scored is None else float(scored.probabilities[scored.predicted_slot]),
            candidate_count=len(cs.candidates),
        )
    entry, _ = cs.candidates[scored.predicted_slot]
    return ResolutionRecord(
        doc_id=doc_id,
        start=span.start,
        end=span.end,
        query_text=span.surface,
        predicted_geoname_id=entry.geoname_id,
        predicted_lat=entry.latitude,
        predicted_lon=entry.longitude,
        predicted_country=entry.country_code,
        predicted_admin1=entry.admin1_code,
        predicted_feature_class=entry.feature_class,
        score=float(scored.probabilities[scored.predicted_slot]),
        candidate_count=len(cs.candidates),
    )


def _annotated_candidate_sets(doc: CorpusDocument, index: GazetteerIndex, k: int | None):
    sets = []
    for ann in doc.annotations:
        cs = query(index, ann.surface, k)
        if ann.exclude_gold and ann.gold_geoname_id is not None:
            cs = cs.without_id(ann.gold_geoname_id)
        sets.append(cs)
    return sets


def _spans_of(doc: CorpusDocument) -> list[Span]:
    return [Span(start=a.start, end=a.end, surface=a.surface) for a in doc.annotations]


def resolve_annotated_document(
    doc: CorpusDocument,
    index: GazetteerIndex,
    model: RankerModel,
    provider: EmbeddingProvider,
    admin_tables: AdminTables,
    k: int | None = None,
    window_chars: int = DEFAULT_WINDOW_CHARS,
) -> list[ResolutionRecord]:
    """Resolve a gold-annotated document, honoring exclude_gold flags by
    withholding the gold entry from its own span's candidates. Gold fields
    are copied onto the records for evaluation; they never influence scoring."""
    _check_dimensions(model, provider)
    spans = _spans_of(doc)
    candidate_sets = _annotated_candidate_sets(doc, index, k)
    records = []
    scored_all = _scored_spans(
        doc.text, spans, candidate_sets, model, provider, admin_tables, window_chars
    )
    for ann, span, cs, (scored, _, _) in zip(doc.annotations, spans, candidate_sets, scored_all):
        record = _record_from_scored(doc.doc_id, span, cs, scored)
        record.gold_geoname_id = ann.gold_geoname_id
        record.gold_lat = ann.gold_lat
        record.gold_lon = ann.gold_lon
        record.gold_country = ann.gold_country
        record.gold_admin1 = ann.gold_admin1
        record.gold_feature_class = ann.gold_feature_class
        record.impossible = ann.exclude_gold
        record.gold_in_candidates = ann.gold_geoname_id is not None and ann.gold_geoname_id in set(
            cs.ids()
        )
        records.append(record)
    return records


def resolve_corpus(
    docs: Sequence[CorpusDocument],
    index: GazetteerIndex,
    model: RankerModel,
    provider: EmbeddingProvider,
    admin_tables: AdminTables,
    k: int | None = None,
    window_chars: int = DEFAULT_WINDOW_CHARS,
    jobs: int = 1,
) -> list[ResolutionRecord]:
    """Resolve a whole annotated corpus, preserving document order. Documents
    are independent, so jobs > 1 fans them out across threads."""

    def one(doc: CorpusDocument) -> list[ResolutionRecord]:
        return resolve_annotated_document(
            doc, index, model, provider, admin_tables, k, window_chars
        )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_doc = list(pool.map(one, docs))
    else:
        per_doc = [one(doc) for doc in docs]
    return [record for records in per_doc for record in records]


def assemble_examples(
    docs: Iterable[CorpusDocument],
    index: GazetteerIndex,
    provider: EmbeddingProvider,
    admin_tables: AdminTables,
    k: int | None = None,
    window_chars: int = DEFAULT_WINDOW_CHARS,
) -> list[RankingExample]:
    """Build ranking examples from an annotated corpus.

    The gold slot is the gold id's position among the retrieved candidates,
    or the abstention slot when it was not retrieved or was withheld by an
    exclude_gold flag. Spans with zero candidates yield no example (there is
    nothing to rank)."""
    examples: list[RankingExample] = []
    for doc in docs:
        spans = _spans_of(doc)
        candidate_sets = _annotated_candidate_sets(doc, index, k)
        summaries = [summarize_candidates(cs) for cs in candidate_sets]
        mention_vecs = [provider.embed_span(doc.text, (s.start, s.end)) for s in spans]
        whole_doc = provider.embed_document(doc.text) if len(doc.text) <= window_chars else None
        for pos, (ann, cs) in enumerate(zip(doc.annotations, candidate_sets)):
            if not cs.candidates:
                continue
            context = _context_vectors(
                provider, doc.text, spans, mention_vecs, pos, window_chars, whole_doc
            )
            other_summaries = [s for i, s in enumerate(summaries) if i != pos]
            feats = [
                candidate_features(cs.normalized_query, entry, other_summaries, admin_tables)
                for entry, _ in cs.candidates
            ]
            ids = [entry.geoname_id for entry, _ in cs.candidates]
            gold_slot = (
                ids.index(ann.gold_geoname_id)
                if ann.gold_geoname_id is not None and ann.gold_geoname_id in ids
                else len(ids)
            )
            examples.append(
                RankingExample(
                    features=feats,
                    context=context,
                    gold_slot=gold_slot,
                    gold_country=ann.gold_country,
                    doc_id=doc.doc_id,
                )
            )
    return examples


def locate_event(
    doc: Document,
    records: Sequence[ResolutionRecord],
    locator: EventLocator | None = None,
) -> EventLocationResult:
    """Pick the record where the reported event occurred. With the built-in
    proximity baseline a document without a trigger span is not applicable,
    which is distinct from having no resolvable location."""
    if locator is None:
        locator = TriggerProximityLocator()
    if isinstance(locator, TriggerProximityLocator) and doc.event_trigger_span is None:
        return EventLocationResult(status="not_applicable")
    chosen = locator.select(doc, records)
    if chosen is None:
        return EventLocationResult(status="no_location")
    return EventLocationResult(status="located", record=chosen)


def record_to_dict(record: ResolutionRecord) -> dict:
    return {
        "doc_id": record.doc_id,
        "start": record.start,
        "end": record.end,
        "query_text": record.query_text,
        "predicted_geoname_id": record.predicted_geoname_id,
        "predicted_lat": record.predicted_lat,
        "predicted_lon": record.predicted_lon,
        "predicted_country": record.predicted_country,
        "predicted_admin1": record.predicted_admin1,
        "predicted_feature_class": record.predicted_feature_class,
        "score": record.score,
        "candidate_count": record.candidate_count,
        "gold_geoname_id": record.gold_geoname_id,
        "gold_lat": record.gold_lat,
        "gold_lon": record.gold_lon,
        "gold_country": record.gold_country,
        "gold_admin1": record.gold_admin1,
        "gold_feature_class": record.gold_feature_class,
        "impossible": record.impossible,
        "gold_in_candidates": record.gold_in_candidates,
    }


def record_from_dict(raw: dict) -> ResolutionRecord:
    return ResolutionRecord(
        doc_id=str(raw["doc_id"]),
        start=int(raw["start"]),
        end=int(raw["end"]),
        query_text=str(raw["query_text"]),
        predicted_geoname_id=(
            None if raw.get("predicted_geoname_id") is None else int(raw["predicted_geoname_id"])
        ),
        predicted_lat=None if raw.get("predicted_lat") is None else float(raw["predicted_lat"]),
        predicted_lon=None if raw.get("predicted_lon") is None else float(raw["predicted_lon"]),
        predicted_country=str(raw.get("predicted_country", "")),
        predicted_admin1=str(raw.get("predicted_admin1", "")),
        predicted_feature_class=str(raw.get("predicted_feature_class", "")),
        score=float(raw["score"]),
        candidate_count=int(raw["candidate_count"]),
        gold_geoname_id=None if raw.get("gold_geoname_id") is None else int(raw["gold_geoname_id"]),
        gold_lat=None if raw.get("gold_lat") is None else float(raw["gold_lat"]),
        gold_lon=None if raw.get("gold_lon") is None else float(raw["gold_lon"]),
        gold_country=str(raw.get("gold_country", "")),
        gold_admin1=str(raw.get("gold_admin1", "")),
        gold_feature_class=str(raw.get("gold_feature_class", "")),
        impossible=bool(raw.get("impossible", False)),
        gold_in_candidates=bool(raw.get("gold_in_candidates", False)),
    )
