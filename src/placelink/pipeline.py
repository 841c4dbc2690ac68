"""End-to-end document processing.

Four stages: toponym extraction (a gazetteer-dictionary matcher), candidate
retrieval, feature assembly, and ranking. Training and inference share one
per-document builder. Coherence features for a span are computed from the
*other* spans' raw candidate sets in a single pass, never from their final
resolutions and never from gold labels. An optional final stage selects the
toponym where a reported event occurred.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from placelink.corpus import Annotation, CorpusDocument, field_value, read_jsonl
from placelink.features import (
    ContextVectors,
    HashedBowProvider,
    candidate_features,
    summarize_candidates,
)
from placelink.gazetteer import AdminTables
from placelink.index import CandidateSet, GazetteerIndex, query
from placelink.ranker import (
    ModelDimensionError,
    RankerModel,
    RankingExample,
    ScoredCandidateSet,
    score_candidates,
)

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)
_MAX_MATCH_TOKENS = 6

DEFAULT_WINDOW_CHARS = 10_000


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


@dataclass
class EventLocationResult:
    """status 'located' carries the chosen record; 'no_location' means no
    resolvable toponym; 'not_applicable' means the document has no trigger
    span to anchor on."""

    status: str
    record: ResolutionRecord | None = None


class RecordFormatError(ValueError):
    """A records line does not conform to the ResolutionRecord schema."""


def dictionary_extract(
    text: str, index: GazetteerIndex, min_token_len: int = 2
) -> list[Annotation]:
    """Deterministic extraction stand-in: greedy longest-match scan over runs
    of capitalized tokens whose normalized form is an exact indexed name."""
    from placelink.gazetteer import normalize_name

    tokens = list(_TOKEN_RE.finditer(text))
    spans: list[Annotation] = []
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
                spans.append(Annotation(start=start, end=end, surface=surface))
                i = j + 1
                matched = True
                break
        if not matched:
            i += 1
    return spans


def _document_window(text: str, span: Annotation, window_chars: int) -> str:
    if len(text) <= window_chars:
        return text
    mid = (span.start + span.end) // 2
    half = window_chars // 2
    lo = max(0, mid - half)
    return text[lo : lo + window_chars]


def _context_vectors(
    provider: HashedBowProvider,
    text: str,
    spans: Sequence[Annotation],
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


def _check_dimensions(model: RankerModel, provider: HashedBowProvider) -> None:
    if provider.dimension != model.provider_dim:
        raise ModelDimensionError(
            f"provider dimension {provider.dimension} != model provider_dim {model.provider_dim}"
        )


def _document_rows(
    doc: CorpusDocument,
    index: GazetteerIndex,
    provider: HashedBowProvider,
    admin_tables: AdminTables,
    k: int | None,
    window_chars: int,
):
    """Ranker inputs for every annotation of one document, in annotation
    order: yields (annotation, candidate set, feature rows, context). An
    exclude_gold annotation's gold entry is withheld from its own candidates.
    Rows and context are None for a span with no candidates to rank."""
    candidate_sets = []
    for ann in doc.annotations:
        cs = query(index, ann.surface, k)
        if ann.exclude_gold and ann.gold_geoname_id is not None:
            cs = cs.without_id(ann.gold_geoname_id)
        candidate_sets.append(cs)
    summaries = [summarize_candidates(cs) for cs in candidate_sets]
    mention_vecs = [provider.embed_span(doc.text, (a.start, a.end)) for a in doc.annotations]
    whole_doc = provider.embed_document(doc.text) if len(doc.text) <= window_chars else None
    for pos, (ann, cs) in enumerate(zip(doc.annotations, candidate_sets)):
        if not cs.candidates:
            yield ann, cs, None, None
            continue
        context = _context_vectors(
            provider, doc.text, doc.annotations, mention_vecs, pos, window_chars, whole_doc
        )
        other_summaries = [s for i, s in enumerate(summaries) if i != pos]
        feats = [
            candidate_features(cs.normalized_query, entry, other_summaries, admin_tables)
            for entry, _ in cs.candidates
        ]
        yield ann, cs, feats, context


def _record(
    doc_id: str, ann: Annotation, cs: CandidateSet, scored: ScoredCandidateSet | None
) -> ResolutionRecord:
    chosen = None if scored is None or scored.abstained else cs.candidates[scored.predicted_slot][0]
    return ResolutionRecord(
        doc_id=doc_id,
        start=ann.start,
        end=ann.end,
        query_text=ann.surface,
        predicted_geoname_id=None if chosen is None else chosen.geoname_id,
        predicted_lat=None if chosen is None else chosen.latitude,
        predicted_lon=None if chosen is None else chosen.longitude,
        predicted_country="" if chosen is None else chosen.country_code,
        predicted_admin1="" if chosen is None else chosen.admin1_code,
        predicted_feature_class="" if chosen is None else chosen.feature_class,
        score=1.0 if scored is None else float(scored.probabilities[scored.predicted_slot]),
        candidate_count=len(cs.candidates),
        gold_geoname_id=ann.gold_geoname_id,
        gold_lat=ann.gold_lat,
        gold_lon=ann.gold_lon,
        gold_country=ann.gold_country,
        gold_admin1=ann.gold_admin1,
        gold_feature_class=ann.gold_feature_class,
        impossible=ann.exclude_gold,
        gold_in_candidates=ann.gold_geoname_id is not None and ann.gold_geoname_id in cs.ids(),
    )


def resolve_document(
    doc: CorpusDocument,
    index: GazetteerIndex,
    model: RankerModel,
    provider: HashedBowProvider,
    admin_tables: AdminTables,
    k: int | None = None,
    window_chars: int = DEFAULT_WINDOW_CHARS,
) -> list[ResolutionRecord]:
    """Resolve every annotated span of one document, one record per span, in
    span order, honoring exclude_gold flags. Gold fields are copied onto the
    records for evaluation; they never influence scoring."""
    _check_dimensions(model, provider)
    return [
        _record(doc.doc_id, ann, cs, None if feats is None else score_candidates(model, feats, context))
        for ann, cs, feats, context in _document_rows(
            doc, index, provider, admin_tables, k, window_chars
        )
    ]


def resolve_corpus(
    docs: Sequence[CorpusDocument],
    index: GazetteerIndex,
    model: RankerModel,
    provider: HashedBowProvider,
    admin_tables: AdminTables,
    k: int | None = None,
    window_chars: int = DEFAULT_WINDOW_CHARS,
) -> list[ResolutionRecord]:
    """Resolve a whole annotated corpus, preserving document order."""
    records = []
    for doc in docs:
        records.extend(resolve_document(doc, index, model, provider, admin_tables, k, window_chars))
    return records


def assemble_examples(
    docs: Iterable[CorpusDocument],
    index: GazetteerIndex,
    provider: HashedBowProvider,
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
        for ann, cs, feats, context in _document_rows(
            doc, index, provider, admin_tables, k, window_chars
        ):
            if feats is None:
                continue
            ids = cs.ids()
            examples.append(
                RankingExample(
                    features=feats,
                    context=context,
                    gold_slot=ids.index(ann.gold_geoname_id) if ann.gold_geoname_id in ids else len(ids),
                    gold_country=ann.gold_country,
                    doc_id=doc.doc_id,
                )
            )
    return examples


def locate_event(doc: CorpusDocument, records: Sequence[ResolutionRecord]) -> EventLocationResult:
    """Pick the record where the reported event occurred: the resolved
    toponym whose span midpoint is nearest the trigger midpoint, ties to the
    earlier span. A document without a trigger span is not applicable, which
    is distinct from having no resolvable location."""
    if doc.event_trigger is None:
        return EventLocationResult(status="not_applicable")
    trig_mid = sum(doc.event_trigger) / 2.0
    resolved = [r for r in records if not r.abstained]
    if not resolved:
        return EventLocationResult(status="no_location")
    chosen = min(resolved, key=lambda r: (abs((r.start + r.end) / 2.0 - trig_mid), r.start))
    return EventLocationResult(status="located", record=chosen)


def _record_from_dict(raw: object, where: str) -> ResolutionRecord:
    try:
        values = {f.name: field_value(raw, f.name, f.type, f.default) for f in fields(ResolutionRecord)}
    except KeyError as exc:
        raise RecordFormatError(f"{where}: missing required key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise RecordFormatError(f"{where}: {exc}") from exc
    return ResolutionRecord(**values)


def load_records(path: str) -> list[ResolutionRecord]:
    """Read a records file written by `placelink parse`: one JSON object per
    line, blank lines skipped. Raises RecordFormatError naming path:line for
    invalid JSON or UTF-8, a missing required key, a wrong type or a
    non-finite number."""
    return [_record_from_dict(raw, where) for where, raw in read_jsonl(path, RecordFormatError)]
