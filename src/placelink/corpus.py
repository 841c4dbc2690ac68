"""Canonical corpus format: newline-delimited JSON, one document per line.

Each document carries its text, gold-annotated toponym spans, and optionally
an event trigger span. Annotations flagged exclude_gold are "impossible"
cases: the loader withholds the gold entry from retrieval so the correct
answer becomes the abstention slot, while the original id stays recorded for
bookkeeping.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field
from types import NoneType
from typing import Iterable, Iterator


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


def _value(raw: object, key: str, kinds: tuple[type, ...], default=MISSING):
    """raw[key] if its type is one of kinds (so a bool is not an int) and, for
    a float, finite. An absent key gives the default, if there is one."""
    if type(raw) is not dict:
        raise TypeError(f"expected a JSON object, got {raw!r}")
    value = raw.get(key, default)
    if value is MISSING:
        raise KeyError(key)
    if type(value) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise TypeError(f"{key} must be {names}, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return value


# the JSON types each scalar field annotation admits; a float field takes an int
_FIELD_KINDS = {"str": (str,), "int": (int,), "float": (float, int), "bool": (bool,)}


def field_value(raw: object, name: str, annotation: str, default=MISSING):
    """raw[name] checked by _value against a dataclass field annotation
    ("int", "float | None", ...), so a dataclass with postponed annotations
    can check each field as field_value(raw, f.name, f.type, f.default). An
    int for a float field comes back as a float."""
    kind, _, optional = annotation.partition(" | ")
    value = _value(raw, name, _FIELD_KINDS[kind] + ((NoneType,) if optional else ()), default)
    return float(value) if kind == "float" and value is not None else value


def _bounded(raw: object, key: str, kinds: tuple[type, ...], low: float, high: float = math.inf):
    """_value with a None default, and a value that is not None must lie in
    [low, high]."""
    value = _value(raw, key, (*kinds, NoneType), None)
    if value is not None and not low <= value <= high:
        raise ValueError(f"{key} must lie in [{low}, {high}], got {value!r}")
    return value


def document_from_dict(raw: dict, where: str = "corpus") -> CorpusDocument:
    try:
        annotations = [
            Annotation(
                start=_value(a, "start", (int,)),
                end=_value(a, "end", (int,)),
                surface=_value(a, "surface", (str,)),
                gold_geoname_id=_bounded(a, "gold_geoname_id", (int,), 1),
                gold_lat=_bounded(a, "gold_lat", (float, int), -90.0, 90.0),
                gold_lon=_bounded(a, "gold_lon", (float, int), -180.0, 180.0),
                gold_country=_value(a, "gold_country", (str,), ""),
                gold_admin1=_value(a, "gold_admin1", (str,), ""),
                gold_feature_class=_value(a, "gold_feature_class", (str,), ""),
                exclude_gold=_value(a, "exclude_gold", (bool,), False),
            )
            for a in _value(raw, "annotations", (list,), [])
        ]
        trigger = _value(raw, "event_trigger", (list, tuple, NoneType), None)
        if trigger is not None:
            if len(trigger) != 2 or not all(type(t) is int for t in trigger):
                raise ValueError(f"event_trigger must be two integers, got {trigger!r}")
            trigger = tuple(trigger)
        return CorpusDocument(
            doc_id=_value(raw, "doc_id", (str,)),
            text=_value(raw, "text", (str,)),
            annotations=annotations,
            event_trigger=trigger,
        )
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{where}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{where}: malformed document record: {exc}") from exc


def dump_corpus(docs: Iterable[CorpusDocument]) -> str:
    lines = [
        json.dumps(asdict(d), ensure_ascii=False, sort_keys=True) for d in docs
    ]
    return "".join(line + "\n" for line in lines)


def save_corpus(docs: Iterable[CorpusDocument], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_corpus(docs))


def read_jsonl(path: str, error: type[ValueError]) -> Iterator[tuple[str, object]]:
    """Yield (path:line, value) for each non-blank line of a JSON-lines file.
    Each line is decoded on its own, so invalid UTF-8 or JSON raises error
    naming path:line."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            raw = json.loads(line.decode("utf-8"))
        except ValueError as exc:
            raise error(f"{where}: invalid JSON: {exc}") from exc
        yield where, raw


def load_corpus(path: str) -> list[CorpusDocument]:
    """Read a corpus file. Raises CorpusFormatError naming path:line for
    invalid UTF-8 or JSON and for a document that does not fit the schema."""
    return [document_from_dict(raw, where) for where, raw in read_jsonl(path, CorpusFormatError)]
