"""Canonical corpus format: newline-delimited JSON, one document per line.

Each document carries its text, gold-annotated toponym spans, and optionally
an event trigger span. Annotations flagged exclude_gold are "impossible"
cases: the loader withholds the gold entry from retrieval so the correct
answer becomes the abstention slot, while the original id stays recorded for
bookkeeping.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable


class CorpusFormatError(ValueError):
    """A corpus line does not conform to the canonical schema."""


@dataclass
class Annotation:
    start: int
    end: int
    surface: str
    gold_geoname_id: int | None = None
    gold_lat: float | None = None
    gold_lon: float | None = None
    gold_country: str = ""
    gold_admin1: str = ""
    gold_feature_class: str = ""
    exclude_gold: bool = False


@dataclass
class CorpusDocument:
    doc_id: str
    text: str
    annotations: list[Annotation] = field(default_factory=list)
    event_trigger: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        _validate_document(self)


def _validate_document(doc: CorpusDocument) -> None:
    """Every span lies inside the text with start < end, matches its text
    slice and overlaps no other span; the trigger span lies inside the text."""
    where = f"document {doc.doc_id!r}"
    last_end = 0
    for ann in sorted(doc.annotations, key=lambda a: a.start):
        if not 0 <= ann.start < ann.end <= len(doc.text):
            raise CorpusFormatError(
                f"{where}: span ({ann.start}, {ann.end}) out of bounds for text of "
                f"length {len(doc.text)}"
            )
        if doc.text[ann.start : ann.end] != ann.surface:
            raise CorpusFormatError(
                f"{where}: surface {ann.surface!r} does not match text slice "
                f"{doc.text[ann.start:ann.end]!r}"
            )
        if ann.start < last_end:
            raise CorpusFormatError(f"{where}: span ({ann.start}, {ann.end}) overlaps another")
        last_end = ann.end
    if doc.event_trigger is not None:
        ts, te = doc.event_trigger
        if not 0 <= ts < te <= len(doc.text):
            raise CorpusFormatError(f"{where}: event trigger ({ts}, {te}) out of bounds")


def document_from_dict(raw: dict, where: str = "corpus") -> CorpusDocument:
    try:
        annotations = [
            Annotation(
                start=int(a["start"]),
                end=int(a["end"]),
                surface=str(a["surface"]),
                gold_geoname_id=None if a.get("gold_geoname_id") is None else int(a["gold_geoname_id"]),
                gold_lat=None if a.get("gold_lat") is None else float(a["gold_lat"]),
                gold_lon=None if a.get("gold_lon") is None else float(a["gold_lon"]),
                gold_country=str(a.get("gold_country", "")),
                gold_admin1=str(a.get("gold_admin1", "")),
                gold_feature_class=str(a.get("gold_feature_class", "")),
                exclude_gold=bool(a.get("exclude_gold", False)),
            )
            for a in raw.get("annotations", [])
        ]
        trigger = raw.get("event_trigger")
        return CorpusDocument(
            doc_id=str(raw["doc_id"]),
            text=str(raw["text"]),
            annotations=annotations,
            event_trigger=None if trigger is None else (int(trigger[0]), int(trigger[1])),
        )
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{where}: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorpusFormatError(f"{where}: malformed document record: {exc}") from exc


def dump_corpus(docs: Iterable[CorpusDocument]) -> str:
    lines = [
        json.dumps(asdict(d), ensure_ascii=False, sort_keys=True) for d in docs
    ]
    return "".join(line + "\n" for line in lines)


def save_corpus(docs: Iterable[CorpusDocument], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_corpus(docs))


def load_corpus(path: str) -> list[CorpusDocument]:
    docs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            docs.append(document_from_dict(raw, where=f"{path}:{lineno}"))
    return docs
