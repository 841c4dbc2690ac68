"""Seeded inputs the benchmark derives from synthetic corpora.

Typo noise substitutes one letter after the first character of a surface, in
the surface and in the document text alike. The length does not change, so
every offset stays valid, and the gold ids stay as they were.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def substitute_letter(word: str, rng: np.random.Generator) -> str:
    """word with one letter after the first character replaced by another
    ascii letter of the same case; unchanged if it has no such letter."""
    positions = [i for i in range(1, len(word)) if word[i].isalpha()]
    if not positions:
        return word
    i = positions[int(rng.integers(len(positions)))]
    old = word[i]
    choices = [c for c in _LETTERS if c != old.casefold()]
    new = choices[int(rng.integers(len(choices)))]
    if old.isupper():
        new = new.upper()
    return word[:i] + new + word[i + 1 :]


def add_typos(docs, share: float, seed: int):
    """Copy of the corpus in which a seeded share of the spans carries one
    substituted letter."""
    rng = np.random.default_rng(seed)
    out = []
    for doc in docs:
        text = doc.text
        annotations = []
        for ann in doc.annotations:
            if rng.random() < share:
                surface = substitute_letter(ann.surface, rng)
                text = text[: ann.start] + surface + text[ann.end :]
                ann = replace(ann, surface=surface)
            annotations.append(ann)
        for ann in annotations:
            if text[ann.start : ann.end] != ann.surface:
                raise ValueError(f"{doc.doc_id}: typo noise broke span ({ann.start}, {ann.end})")
        out.append(replace(doc, text=text, annotations=annotations))
    return out


@dataclass(frozen=True)
class Query:
    text: str
    gold_id: int | None
    # counted towards recall: has a gold id that is not withheld by design
    counted: bool


def query_mix(docs, seed: int) -> list[Query]:
    """Every annotation surface once as written and once with one letter
    substituted, in a seeded order."""
    rng = np.random.default_rng(seed)
    queries = []
    for doc in docs:
        for ann in doc.annotations:
            counted = ann.gold_geoname_id is not None and not ann.exclude_gold
            queries.append(Query(ann.surface, ann.gold_geoname_id, counted))
            queries.append(Query(substitute_letter(ann.surface, rng), ann.gold_geoname_id, counted))
    return [queries[int(i)] for i in rng.permutation(len(queries))]
