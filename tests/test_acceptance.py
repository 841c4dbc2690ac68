"""Acceptance gate: ten numbered criteria, one test and one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The expensive shared fixture (synthetic world, trained model, held-out
records) is built once per module; criterion 8 rebuilds it from scratch to
check determinism end to end.
"""

import hashlib
import json
import math
import statistics
import string
import time
from dataclasses import asdict

import numpy as np
import pytest

from oracles import reference_haversine, scan_candidates
from placelink.corpus import Annotation, CorpusDocument
from placelink.evaluation import evaluate, haversine_km, query_recall
from placelink.features import CandidateFeatures, ContextVectors, hashed_bow_provider
from placelink.gazetteer import build_admin_tables, normalize_name
from placelink.index import IndexConfig, build_index, query, save_index
from placelink.pipeline import ResolutionRecord, assemble_examples, resolve_corpus
from placelink.ranker import (
    RankerConfig,
    RankerModel,
    RankingExample,
    gradient_check,
    save_model,
    score_candidates,
    train,
)
from placelink.synthgen import augment_impossible, generate_corpus
from placelink.toygaz import build_toy_gazetteer

K = 50
PROVIDER_DIM = 256
PROVIDER_SEED = 0
# epochs/batch/dropout/lr stay at their defaults; mode and widths below
# are free implementation choices
WORLD_CONFIG = dict(
    score_mode="logit",
    embedding_dim=64,
    multitask_country_weight=0.3,
    seed=0,
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --- shared fixtures -------------------------------------------------------


@pytest.fixture(scope="module")
def fixture5k():
    entries = build_toy_gazetteer(30, 5, 32)
    assert len(entries) >= 5000
    return entries, build_index(entries, IndexConfig())


def _build_world(out_dir):
    t0 = time.monotonic()
    entries = build_toy_gazetteer()
    tables = build_admin_tables(entries)
    index = build_index(entries, IndexConfig())
    provider = hashed_bow_provider(PROVIDER_DIM, PROVIDER_SEED)
    train_docs = augment_impossible(generate_corpus(entries, tables, 2000, 11), 0.1, 12)
    held_docs = augment_impossible(generate_corpus(entries, tables, 500, 99), 0.1, 100)
    examples = assemble_examples(train_docs, index, provider, tables, K)
    model = RankerModel.initialize(
        countries=sorted({e.country_code for e in entries if e.country_code}),
        feature_classes=sorted({e.feature_class for e in entries}),
        provider_dim=PROVIDER_DIM,
        config=RankerConfig(**WORLD_CONFIG),
        metadata={"provider": "hashed_bow", "provider_seed": PROVIDER_SEED},
    )
    model, history = train(model, examples)
    records = resolve_corpus(held_docs, index, model, provider, tables, K)
    report = evaluate(records)
    model_path = out_dir / "world_model.bin"
    save_model(model, str(model_path))
    return {
        "entries": entries,
        "index": index,
        "provider": provider,
        "train_docs": train_docs,
        "held_docs": held_docs,
        "records": records,
        "report": report,
        "model_bytes": model_path.read_bytes(),
        "seconds": time.monotonic() - t0,
    }


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    return _build_world(tmp_path_factory.mktemp("world_a"))


# --- retrieval criteria ----------------------------------------------------


def test_criterion_01_index_matches_bruteforce_scan(fixture5k):
    entries, index = fixture5k
    rng = np.random.default_rng(20260819)
    picks = rng.choice(len(entries), size=200, replace=False)
    queries = [entries[i].name for i in picks[:100]]
    letters = string.ascii_lowercase
    for i in picks[100:]:
        name = normalize_name(entries[i].name)
        pos = int(rng.integers(len(name)))
        repl = letters[int(rng.integers(26))]
        queries.append(name[:pos] + repl + name[pos + 1 :])

    t0 = time.monotonic()
    mismatches = 0
    for q in queries:
        got = query(index, q, K)
        want = scan_candidates(entries, q, k=K)
        ids_ok = got.ids() == [gid for gid, _ in want]
        scores_ok = all(
            abs(score - ref) <= 1e-9
            for (_, score), (_, ref) in zip(got.candidates, want)
        )
        if not (ids_ok and scores_ok):
            mismatches += 1
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        "index equals brute-force scan on 200 queries",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_exact_name_missing_at_50_is_zero(fixture5k):
    entries, index = fixture5k
    docs = [
        CorpusDocument(
            doc_id=f"x{e.geoname_id}",
            text=e.name,
            annotations=[
                Annotation(start=0, end=len(e.name), surface=e.name, gold_geoname_id=e.geoname_id)
            ],
        )
        for e in entries
    ]
    missing = query_recall(index, docs, [K])
    _verdict(
        2,
        "missing@50 is 0% for exact-name queries",
        missing == {K: 0.0},
        f"missing@50 = {missing[K] * 100:.4f}% over {len(docs)} names",
    )


# --- model criteria --------------------------------------------------------


def _random_features(rng: np.random.Generator, n: int, countries, fclasses):
    out = []
    for _ in range(n):
        out.append(
            CandidateFeatures(
                min_edit_distance=float(rng.uniform(0, 1)),
                avg_edit_distance=float(rng.uniform(0, 1)),
                exact_match_flag=int(rng.integers(2)),
                alt_name_count_log=float(rng.uniform(0, 2)),
                population_log=float(rng.uniform(0, 7)),
                is_adm1_of_other_toponym=int(rng.integers(2)),
                has_adm1_parent_in_doc=int(rng.integers(2)),
                shared_country_fraction=float(rng.uniform(0, 1)),
                candidate_country=str(rng.choice(countries)),
                candidate_feature_class=str(rng.choice(fclasses)),
            )
        )
    return out


def _random_context(rng: np.random.Generator, dim: int, zero_other: bool = False):
    other = np.zeros(dim) if zero_other else rng.normal(size=dim)
    return ContextVectors(
        mention_vector=rng.normal(size=dim),
        other_mentions_vector=other,
        document_vector=rng.normal(size=dim),
    )


def test_criterion_03_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    countries = ["AA", "BB", "CC", "ZZ"]
    fclasses = ["P", "A", "H"]
    worst = 0.0
    for i in range(20):
        dim = int(rng.integers(16, 33))
        cfg = RankerConfig(
            embedding_dim=int(rng.integers(3, 9)),
            hidden_dim=int(rng.integers(3, 11)),
            dropout=0.0,
            score_mode="logit" if i % 2 else "sigmoid",
            multitask_country_weight=0.5 if i % 3 == 0 else 0.0,
            seed=i,
        )
        model = RankerModel.initialize(countries[:3], fclasses[:2], dim, cfg)
        n = int(rng.integers(1, 7))
        example = RankingExample(
            features=_random_features(rng, n, countries, fclasses),
            context=_random_context(rng, dim, zero_other=(i == 5)),
            gold_slot=int(rng.integers(n + 1)),
            gold_country=str(rng.choice(countries)),
        )
        worst = max(worst, gradient_check(model, example))
    _verdict(
        3,
        "analytic gradients within 1e-4 of finite differences",
        worst < 1e-4,
        f"max relative error {worst:.2e} over 20 instances",
    )


def test_criterion_04_softmax_normalized_and_shift_invariant():
    rng = np.random.default_rng(4)
    countries = ["AA", "BB", "CC"]
    fclasses = ["P", "A"]
    worst_sum = 0.0
    shift_breaks = 0
    calls = 0
    for m in range(10):
        dim = int(rng.integers(16, 33))
        cfg = RankerConfig(
            embedding_dim=int(rng.integers(3, 9)),
            hidden_dim=int(rng.integers(3, 11)),
            score_mode="logit" if m % 2 else "sigmoid",
            seed=m,
        )
        model = RankerModel.initialize(countries, fclasses, dim, cfg)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            scored = score_candidates(
                model,
                _random_features(rng, n, countries, fclasses),
                _random_context(rng, dim),
            )
            calls += 1
            worst_sum = max(worst_sum, abs(float(scored.probabilities.sum()) - 1.0))
            # log p is the score vector up to an additive constant, so
            # re-softmaxing a shifted copy must reproduce the distribution
            logits = np.log(scored.probabilities)
            for c in (-50.0, 3.7, 100.0):
                shifted = logits + c
                p = np.exp(shifted - shifted.max())
                p /= p.sum()
                if int(np.argmax(p)) != scored.predicted_slot:
                    shift_breaks += 1
                if np.abs(p - scored.probabilities).max() > 1e-9:
                    shift_breaks += 1
    _verdict(
        4,
        "softmax sums to 1 and argmax survives logit shifts",
        calls == 1000 and worst_sum <= 1e-9 and shift_breaks == 0,
        f"{calls} calls, max |sum-1| = {worst_sum:.2e}",
    )


# --- synthetic reproduction ------------------------------------------------


def _population_baseline_exact(index, docs) -> float:
    n = hits = 0
    for doc in docs:
        for ann in doc.annotations:
            if ann.gold_geoname_id is None or ann.exclude_gold:
                continue
            n += 1
            cands = query(index, ann.surface, K).entries()
            if cands:
                best = max(cands, key=lambda e: (e.population, -e.geoname_id))
                if best.geoname_id == ann.gold_geoname_id:
                    hits += 1
    return hits / n if n else 0.0


def test_criterion_05_heldout_exact_match(world):
    report = world["report"]
    baseline = _population_baseline_exact(world["index"], world["held_docs"])
    ok = (
        report.exact_match >= 0.90
        and report.exact_match >= baseline
        and world["seconds"] < 600.0
    )
    _verdict(
        5,
        "held-out exact match >= 90% and beats population baseline",
        ok,
        f"exact {report.exact_match * 100:.2f}%, baseline {baseline * 100:.2f}%, "
        f"pipeline {world['seconds']:.0f}s",
    )


def test_criterion_06_abstention_recall(world):
    report = world["report"]
    n_impossible = sum(
        1 for d in world["held_docs"] for a in d.annotations if a.exclude_gold
    )
    ok = n_impossible > 0 and report.abstention_recall >= 0.80
    _verdict(
        6,
        "abstention recall >= 80% on held-out impossible cases",
        ok,
        f"recall {report.abstention_recall * 100:.2f}% over {n_impossible} cases",
    )


# --- metric criteria -------------------------------------------------------


def test_criterion_07_haversine_reference_distances():
    london_paris = haversine_km(51.5074, -0.1278, 48.8566, 2.3522)
    antipodal = haversine_km(0.0, 0.0, 0.0, 180.0)
    ok = (
        abs(london_paris - 343.6) / 343.6 < 0.005
        and abs(antipodal - 20015.1) / 20015.1 < 0.001
    )
    _verdict(
        7,
        "haversine hits reference distances",
        ok,
        f"London-Paris {london_paris:.1f} km, antipodal {antipodal:.1f} km",
    )


def test_criterion_08_pipeline_is_deterministic(world, tmp_path_factory):
    rebuilt = _build_world(tmp_path_factory.mktemp("world_b"))
    same_model = rebuilt["model_bytes"] == world["model_bytes"]
    same_report = rebuilt["report"] == world["report"]
    _verdict(
        8,
        "identical seeds give byte-identical model and identical metrics",
        same_model and same_report,
        f"model bytes equal: {same_model}, reports equal: {same_report}",
    )


# sha256 of the default world's artifacts. A deliberate re-baseline (a new
# toy world, a change in summation order) updates these in the same change
# and states the old and new digests in CHANGES.md.
GOLDEN_DIGESTS = {
    "index": "de91382ac93d71748db08ac310602fe57be5c6f597ac675b6faf041d02507e5d",
    "model": "cb91d77aac14f424b61a62c7e863c0ccdf29edc0fa0bb0162ff42d781915571b",
    "records": "9d4ede51009e772dd348f2cadf402ff6a66bf7e0bbfdacae4b797ad9dee3aee4",
    "report": "51b8f967b8538ec05dfe7b21d3f62142d286683808b068bfb59691ea7f1ced22",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_artifacts_are_pinned(world, tmp_path):
    index_path = tmp_path / "world.idx"
    save_index(world["index"], str(index_path))
    records = "".join(
        json.dumps(asdict(r), sort_keys=True, ensure_ascii=False) + "\n" for r in world["records"]
    )
    got = {
        "index": _sha256(index_path.read_bytes()),
        "model": _sha256(world["model_bytes"]),
        "records": _sha256(records.encode("utf-8")),
        "report": _sha256(json.dumps(asdict(world["report"]), sort_keys=True).encode("utf-8")),
    }
    assert got == GOLDEN_DIGESTS


def _eval_fixture_records() -> list[ResolutionRecord]:
    """100 records: 30 exact hits, 20 near misses at 100 km, 15 country-only
    hits at 800 km, 10 false abstentions, 10 caught impossibles, 5 missed
    impossibles, 10 wrong-country predictions straddling the 161 km line."""
    km = 180.0 / (math.pi * 6371.0088)  # degrees of latitude per km
    records = []

    def add(i, *, gold, pred, impossible=False, in_cands=True):
        glat, glon = 10.0 + (i % 37) * 0.7, -40.0 + (i % 53) * 1.3
        fields = dict(
            doc_id=f"d{i}",
            start=0,
            end=4,
            query_text=f"q{i}",
            score=0.8,
            candidate_count=5,
            gold_geoname_id=gold["id"],
            gold_lat=glat,
            gold_lon=glon,
            gold_country=gold["cc"],
            gold_admin1=gold["adm1"],
            gold_feature_class=gold["fc"],
            impossible=impossible,
            gold_in_candidates=in_cands,
        )
        if pred is None:
            records.append(
                ResolutionRecord(
                    predicted_geoname_id=None,
                    predicted_lat=None,
                    predicted_lon=None,
                    predicted_country="",
                    predicted_admin1="",
                    predicted_feature_class="",
                    **fields,
                )
            )
        else:
            records.append(
                ResolutionRecord(
                    predicted_geoname_id=pred["id"],
                    predicted_lat=glat + pred["km"] * km,
                    predicted_lon=glon,
                    predicted_country=pred["cc"],
                    predicted_admin1=pred["adm1"],
                    predicted_feature_class=pred["fc"],
                    **fields,
                )
            )

    i = 0
    for _ in range(30):  # exact hits
        gold = dict(id=1000 + i, cc="AA", adm1="01", fc="P")
        add(i, gold=gold, pred=dict(id=gold["id"], km=0.0, cc="AA", adm1="01", fc="P"))
        i += 1
    for j in range(20):  # near misses, adm1 and class agree for half
        gold = dict(id=1000 + i, cc="BB", adm1="02", fc="P")
        pred = dict(
            id=5000 + i,
            km=100.0,
            cc="BB",
            adm1="02" if j < 10 else "03",
            fc="P" if j % 2 == 0 else "A",
        )
        add(i, gold=gold, pred=pred)
        i += 1
    for _ in range(15):  # country-only hits, far away
        gold = dict(id=1000 + i, cc="CC", adm1="04", fc="P")
        add(i, gold=gold, pred=dict(id=5000 + i, km=800.0, cc="CC", adm1="05", fc="H"))
        i += 1
    for _ in range(10):  # abstained although the gold was retrievable
        gold = dict(id=1000 + i, cc="AA", adm1="01", fc="P")
        add(i, gold=gold, pred=None)
        i += 1
    for _ in range(10):  # impossible, correctly abstained
        gold = dict(id=1000 + i, cc="BB", adm1="02", fc="P")
        add(i, gold=gold, pred=None, impossible=True, in_cands=False)
        i += 1
    for _ in range(5):  # impossible but resolved anyway
        gold = dict(id=1000 + i, cc="BB", adm1="02", fc="P")
        add(
            i,
            gold=gold,
            pred=dict(id=5000 + i, km=300.0, cc="DD", adm1="09", fc="A"),
            impossible=True,
            in_cands=False,
        )
        i += 1
    for j in range(10):  # wrong country, distances straddle the threshold
        gold = dict(id=1000 + i, cc="CC", adm1="04", fc="P")
        pred = dict(id=5000 + i, km=160.0 if j < 5 else 162.0, cc="EE", adm1="01", fc="A")
        add(i, gold=gold, pred=pred, in_cands=j >= 5)
        i += 1
    assert len(records) == 100
    return records


def test_criterion_09_evaluation_matches_bruteforce():
    records = _eval_fixture_records()
    report = evaluate(records)

    possible = [r for r in records if not r.impossible]
    impossible = [r for r in records if r.impossible]
    with_gold = [r for r in possible if r.gold_geoname_id is not None]
    resolved = [r for r in possible if r.predicted_geoname_id is not None]
    retrievable = [r for r in possible if r.gold_in_candidates]
    dists = [
        reference_haversine(r.predicted_lat, r.predicted_lon, r.gold_lat, r.gold_lon)
        for r in resolved
    ]

    exact = sum(1 for r in with_gold if r.predicted_geoname_id == r.gold_geoname_id)
    country = sum(1 for r in resolved if r.predicted_country == r.gold_country)
    adm1 = sum(
        1
        for r in resolved
        if r.predicted_country == r.gold_country and r.predicted_admin1 == r.gold_admin1
    )
    fclass = sum(
        1 for r in resolved if r.predicted_feature_class == r.gold_feature_class
    )
    within = sum(1 for d in dists if d <= 161.0)
    caught = sum(1 for r in impossible if r.predicted_geoname_id is None)
    false_abst = sum(1 for r in retrievable if r.predicted_geoname_id is None)

    fractions_ok = (
        report.n_eval == 100
        and report.exact_match == exact / len(with_gold)
        and report.correct_country == country / len(resolved)
        and report.correct_adm1 == adm1 / len(resolved)
        and report.correct_feature_class == fclass / len(resolved)
        and report.acc_at_161km == within / len(dists)
        and report.abstention_recall == caught / len(impossible)
        and report.abstention_false_rate == false_abst / len(retrievable)
    )
    mean_ok = math.isclose(report.mean_error_km, statistics.fmean(dists), rel_tol=1e-9)
    median_ok = math.isclose(
        report.median_error_km, statistics.median(dists), rel_tol=1e-9
    )
    # anchor a few values by hand so the recomputation cannot share a bug
    anchors_ok = (
        report.exact_match == 30 / 85
        and report.abstention_recall == 10 / 15
        and report.abstention_false_rate == 10 / 80
        and report.acc_at_161km == 55 / 75
        and math.isclose(report.median_error_km, 100.0, rel_tol=1e-9)
    )
    _verdict(
        9,
        "evaluate() matches brute-force recomputation on 100 records",
        fractions_ok and mean_ok and median_ok and anchors_ok,
        f"exact {report.exact_match:.4f}, mean {report.mean_error_km:.2f} km",
    )


def test_criterion_10_missing_rate_monotone_in_k(world, fixture5k):
    entries5k, index5k = fixture5k
    exact_docs = [
        CorpusDocument(
            doc_id=f"x{e.geoname_id}",
            text=e.name,
            annotations=[
                Annotation(start=0, end=len(e.name), surface=e.name, gold_geoname_id=e.geoname_id)
            ],
        )
        for e in entries5k[:1000]
    ]
    corpora = [
        ("train", world["index"], world["train_docs"]),
        ("held-out", world["index"], world["held_docs"]),
        ("exact names", index5k, exact_docs),
    ]
    details = []
    ok = True
    for name, index, docs in corpora:
        missing = query_recall(index, docs, [50, 500])
        ok = ok and missing[500] <= missing[50]
        details.append(f"{name}: {missing[50] * 100:.2f}% -> {missing[500] * 100:.2f}%")
    _verdict(10, "missing@500 <= missing@50 on every corpus", ok, "; ".join(details))
