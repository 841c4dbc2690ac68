"""Output checks and the quality summary built from resolution records.

The retrieval oracle is an exhaustive scan written independently of
``placelink.index``: full-matrix edit distance, its own ascii folding, and a
pass over every entry that has a name variant of a length that can lie
within the edit-distance bound. It returns ids in the ranking order of the
retrieval contract: exact hits first, then smaller edit distance, then larger
log population, then smaller geoname id. It normalizes the entries once;
tests/oracles.scan_candidates does so on every query, which takes seconds
per query on the 163,200-entry world.
"""

from __future__ import annotations

import hashlib
import math
import unicodedata
from collections import Counter, defaultdict

import numpy as np

from placelink.gazetteer import normalize_name


def _fold(text: str) -> str:
    return unicodedata.normalize("NFKD", text).encode("ascii", "ignore").decode("ascii")


def _grams(text: str, n: int) -> set[str]:
    return {text[i : i + n] for i in range(len(text) - n + 1)}


def _dp_distance(a: str, b: str) -> int:
    table = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[-1][-1]


class ScanOracle:
    def __init__(self, entries, ngram_size: int = 3, max_edit_distance: int = 2, min_shared: int = 2):
        self.n = ngram_size
        self.bound = max_edit_distance
        self.min_shared = min_shared
        self.rows = []
        self.by_length: defaultdict[int, set[int]] = defaultdict(set)
        for entry in entries:
            variants = set()
            for raw in (entry.name, entry.ascii_name, *entry.alternative_names):
                norm = normalize_name(raw)
                if norm:
                    variants.add(norm)
                    folded = _fold(norm)
                    if folded:
                        variants.add(folded)
            grams = set()
            for v in variants:
                grams |= _grams(v, ngram_size)
            row = len(self.rows)
            self.rows.append((entry, variants, grams))
            for v in variants:
                self.by_length[len(v)].add(row)

    def ids(self, raw_query: str, k: int) -> list[int]:
        q = normalize_name(raw_query)
        if not q:
            return []
        q_grams = _grams(q, self.n)
        rows = set()
        for length in range(len(q) - self.bound, len(q) + self.bound + 1):
            rows |= self.by_length.get(length, set())
        ranked = []
        for row in rows:
            entry, variants, grams = self.rows[row]
            exact = q in variants
            if exact:
                distance = 0
            else:
                if len(q_grams & grams) < self.min_shared:
                    continue
                distance = min(_dp_distance(q, v) for v in variants)
                if distance > self.bound:
                    continue
            ranked.append((not exact, distance, -math.log10(entry.population + 1), entry.geoname_id))
        ranked.sort()
        return [gid for *_, gid in ranked[:k]]


def check_scan(query_ids, oracle: ScanOracle, queries, k: int, seed: int, sample: int):
    """Compare query_ids(text) with the exhaustive scan on a seeded sample."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(queries), size=min(sample, len(queries)), replace=False)
    wrong = [queries[int(i)].text for i in picks if query_ids(queries[int(i)].text) != oracle.ids(queries[int(i)].text, k)]
    return not wrong, f"{len(picks) - len(wrong)}/{len(picks)} sampled queries equal the exhaustive scan" + (
        f"; differ: {wrong[:5]}" if wrong else ""
    )


_BUCKETS = ("0", "1", "2", "3-5", "6-10", "11-49", "50+")


def _bucket(n: int) -> str:
    if n <= 2:
        return str(n)
    if n <= 5:
        return "3-5"
    if n <= 10:
        return "6-10"
    return "11-49" if n < 50 else "50+"


def candidate_histogram(counts) -> dict[str, int]:
    hist = Counter(_bucket(n) for n in counts)
    return {b: hist[b] for b in _BUCKETS if hist[b]}


def check_records(records: list[dict], docs, candidates_of):
    """One record per annotation, in corpus order; the candidate count and
    the predicted id agree with the span's candidates. candidates_of(ann)
    returns the span's candidate entries, gold withheld where flagged.

    Also returns the quality summary of the records."""
    problems = []
    expected = [(d.doc_id, a.start, a.end) for d in docs for a in d.annotations]
    got = [(r["doc_id"], r["start"], r["end"]) for r in records]
    if got != expected:
        problems.append(f"{len(got)} records for {len(expected)} annotations, or out of order")
    counts = []
    no_candidates = ranker_abstained = baseline_hits = baseline_total = 0
    if not problems:
        for record, ann in zip(records, (a for d in docs for a in d.annotations)):
            entries = candidates_of(ann)
            ids = [e.geoname_id for e in entries]
            if record["candidate_count"] != len(ids):
                problems.append(f"{record['doc_id']}@{record['start']}: candidate count {record['candidate_count']} != {len(ids)}")
            predicted = record["predicted_geoname_id"]
            if predicted is not None and predicted not in ids:
                problems.append(f"{record['doc_id']}@{record['start']}: predicted id {predicted} is not a candidate")
            counts.append(len(ids))
            if predicted is None:
                if ids:
                    ranker_abstained += 1
                else:
                    no_candidates += 1
            if not ann.exclude_gold and ann.gold_geoname_id is not None:
                baseline_total += 1
                if entries:
                    best = max(range(len(entries)), key=lambda i: (entries[i].population, -i))
                    baseline_hits += ids[best] == ann.gold_geoname_id
    quality = {
        "abstain_no_candidates": no_candidates,
        "abstain_ranker": ranker_abstained,
        "candidate_histogram": candidate_histogram(counts),
        "population_baseline_exact_match": baseline_hits / baseline_total if baseline_total else 0.0,
    }
    detail = f"{len(records)} records, one per annotation; predicted ids are candidates"
    return not problems, (detail if not problems else "; ".join(problems[:5])), quality


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
