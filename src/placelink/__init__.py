"""Gazetteer-backed toponym resolution.

Retrieval of candidate gazetteer entries for place names via a character
trigram index with edit-distance verification, a trainable neural ranker
with an abstention slot, synthetic corpus generation, an evaluation suite,
and a command-line pipeline tying them together.
"""

from placelink.corpus import Annotation, CorpusDocument
from placelink.evaluation import MetricsReport, evaluate, haversine_km, query_recall
from placelink.features import (
    CandidateFeatures,
    ContextVectors,
    HashedBowProvider,
    hashed_bow_provider,
)
from placelink.gazetteer import (
    AdminTables,
    GazetteerEntry,
    build_admin_tables,
    load_gazetteer,
    normalize_name,
    parse_gazetteer,
)
from placelink.index import (
    CandidateSet,
    GazetteerIndex,
    IndexConfig,
    build_index,
    load_index,
    query,
    save_index,
)
from placelink.pipeline import (
    ResolutionRecord,
    dictionary_extract,
    locate_event,
    resolve_corpus,
    resolve_document,
)
from placelink.ranker import (
    RankerConfig,
    RankerModel,
    RankingExample,
    gradient_check,
    load_model,
    save_model,
    score_candidates,
    train,
)
from placelink.synthgen import Template, augment_impossible, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "AdminTables",
    "Annotation",
    "CandidateFeatures",
    "CandidateSet",
    "ContextVectors",
    "CorpusDocument",
    "GazetteerEntry",
    "GazetteerIndex",
    "HashedBowProvider",
    "IndexConfig",
    "MetricsReport",
    "RankerConfig",
    "RankerModel",
    "RankingExample",
    "ResolutionRecord",
    "Template",
    "augment_impossible",
    "build_admin_tables",
    "build_index",
    "dictionary_extract",
    "evaluate",
    "generate_corpus",
    "gradient_check",
    "hashed_bow_provider",
    "haversine_km",
    "load_gazetteer",
    "load_index",
    "load_model",
    "locate_event",
    "normalize_name",
    "parse_gazetteer",
    "query",
    "query_recall",
    "resolve_corpus",
    "resolve_document",
    "save_index",
    "save_model",
    "score_candidates",
    "train",
]
