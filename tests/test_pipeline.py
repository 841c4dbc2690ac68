"""Document pipeline: extraction, resolution, training-example assembly, and
event location."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import damage_bytes, make_entry
from placelink.corpus import Annotation, CorpusDocument
from placelink.features import hashed_bow_provider
from placelink.index import build_index
from placelink.pipeline import (
    RecordFormatError,
    ResolutionRecord,
    assemble_examples,
    dictionary_extract,
    load_records,
    locate_event,
    resolve_corpus,
    resolve_document,
)
from placelink.ranker import ModelDimensionError, RankerConfig, RankerModel, train
from placelink.synthgen import augment_impossible, generate_corpus

PROVIDER_DIM = 64


@pytest.fixture(scope="module")
def mini_world(mini_entries, mini_index, mini_tables):
    """A small trained model over the mini gazetteer."""
    provider = hashed_bow_provider(PROVIDER_DIM, seed=0)
    docs = augment_impossible(generate_corpus(mini_entries, mini_tables, n=120, seed=3), 0.1, seed=4)
    examples = assemble_examples(docs, mini_index, provider, mini_tables)
    cfg = RankerConfig(epochs=8, embedding_dim=16, hidden_dim=32, seed=0)
    model = RankerModel.initialize(
        [e.country_code for e in mini_entries],
        [e.feature_class for e in mini_entries],
        PROVIDER_DIM,
        cfg,
    )
    train(model, examples)
    return model, provider


def rec(start=0, end=5, gid=1, doc_id="d", **overrides) -> ResolutionRecord:
    fields = dict(
        doc_id=doc_id,
        start=start,
        end=end,
        query_text="x",
        predicted_geoname_id=gid,
        predicted_lat=0.0 if gid is not None else None,
        predicted_lon=0.0 if gid is not None else None,
        predicted_country="FR" if gid is not None else "",
        predicted_admin1="",
        predicted_feature_class="P" if gid is not None else "",
        score=0.9,
        candidate_count=3,
    )
    fields.update(overrides)
    return ResolutionRecord(**fields)


class TestDocument:
    def test_valid_document(self):
        doc = CorpusDocument(
            "d", "Paris and Austin", [Annotation(0, 5, "Paris"), Annotation(10, 16, "Austin")]
        )
        assert len(doc.annotations) == 2

    def test_out_of_bounds_span(self):
        with pytest.raises(ValueError):
            CorpusDocument("d", "short", [Annotation(0, 99, "x")])

    def test_inverted_span(self):
        with pytest.raises(ValueError):
            CorpusDocument("d", "short", [Annotation(3, 3, "")])

    def test_overlapping_spans(self):
        with pytest.raises(ValueError):
            CorpusDocument(
                "d", "Paris Texas", [Annotation(0, 8, "Paris Te"), Annotation(6, 11, "Texas")]
            )


class TestDictionaryExtract:
    def test_single_hit(self, mini_index):
        spans = dictionary_extract("Protests in Paris yesterday", mini_index)
        assert spans == [Annotation(12, 17, "Paris")]

    def test_lowercase_not_matched(self, mini_index):
        assert dictionary_extract("protests in paris yesterday", mini_index) == []

    def test_longest_match_wins(self):
        index = build_index([
            make_entry(1, "New York"),
            make_entry(2, "New York City"),
            make_entry(3, "York"),
        ])
        spans = dictionary_extract("He left New York City on Monday", index)
        assert spans == [Annotation(8, 21, "New York City")]

    def test_multiple_hits_in_order(self, mini_index):
        spans = dictionary_extract("From Paris to Austin", mini_index)
        assert [s.surface for s in spans] == ["Paris", "Austin"]

    def test_surfaces_match_text_slices(self, mini_index):
        text = "Meanwhile Texas, France and Springfield reacted."
        for span in dictionary_extract(text, mini_index):
            assert text[span.start : span.end] == span.surface

    def test_short_tokens_skipped(self):
        index = build_index([make_entry(1, "A")])
        assert dictionary_extract("A big day", index, min_token_len=2) == []

    def test_multi_word_name(self, mini_index):
        spans = dictionary_extract("The United States responded", mini_index)
        assert spans == [Annotation(4, 17, "United States")]


class TestResolveDocument:
    def test_no_spans_no_records(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        doc = CorpusDocument("d", "Nothing to see here.")
        assert resolve_document(doc, mini_index, model, provider, mini_tables) == []

    def test_zero_candidate_span_abstains(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        doc = CorpusDocument("d", "Welcome to Zzzzz today", [Annotation(11, 16, "Zzzzz")])
        (record,) = resolve_document(doc, mini_index, model, provider, mini_tables)
        assert record.abstained
        assert record.candidate_count == 0
        assert record.predicted_geoname_id is None
        assert record.predicted_lat is None
        assert record.score == 1.0

    def test_one_record_per_span_in_order(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        text = "From Paris to Austin and beyond"
        doc = CorpusDocument("d", text, [Annotation(5, 10, "Paris"), Annotation(14, 20, "Austin")])
        records = resolve_document(doc, mini_index, model, provider, mini_tables)
        assert [(r.start, r.end) for r in records] == [(5, 10), (14, 20)]
        assert all(r.doc_id == "d" for r in records)

    def test_predicted_fields_present_iff_resolved(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        doc = CorpusDocument("d", "Paris and Zzzzz", [Annotation(0, 5, "Paris"), Annotation(10, 15, "Zzzzz")])
        for record in resolve_document(doc, mini_index, model, provider, mini_tables):
            if record.abstained:
                assert record.predicted_lat is None and record.predicted_lon is None
            else:
                assert record.predicted_lat is not None and record.predicted_lon is not None
            assert 0.0 <= record.score <= 1.0

    def test_inference_is_deterministic(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        doc = CorpusDocument("d", "Paris met Texas", [Annotation(0, 5, "Paris"), Annotation(10, 15, "Texas")])
        a = resolve_document(doc, mini_index, model, provider, mini_tables)
        b = resolve_document(doc, mini_index, model, provider, mini_tables)
        assert [asdict(r) for r in a] == [asdict(r) for r in b]

    def test_span_order_permutes_records_not_predictions(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        text = "Paris met Texas"
        spans = [Annotation(0, 5, "Paris"), Annotation(10, 15, "Texas")]
        fwd = resolve_document(CorpusDocument("d", text, spans), mini_index, model, provider, mini_tables)
        rev = resolve_document(
            CorpusDocument("d", text, spans[::-1]), mini_index, model, provider, mini_tables
        )
        by_start_fwd = {r.start: (r.predicted_geoname_id, r.score) for r in fwd}
        by_start_rev = {r.start: (r.predicted_geoname_id, r.score) for r in rev}
        assert by_start_fwd == by_start_rev
        assert [r.start for r in rev] == [10, 0]

    def test_dimension_mismatch_rejected(self, mini_index, mini_tables, mini_world):
        model, _ = mini_world
        other = hashed_bow_provider(PROVIDER_DIM * 2, seed=0)
        doc = CorpusDocument("d", "Paris", [Annotation(0, 5, "Paris")])
        with pytest.raises(ModelDimensionError):
            resolve_document(doc, mini_index, model, other, mini_tables)

    def test_small_window_still_resolves(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        filler = "The talks continued for days. " * 20
        text = filler + "Paris hosted them."
        start = len(filler)
        doc = CorpusDocument("d", text, [Annotation(start, start + 5, "Paris")])
        (record,) = resolve_document(
            doc, mini_index, model, provider, mini_tables, window_chars=60
        )
        assert record.candidate_count > 0

    def test_trained_model_uses_context(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        text = "Paris, the capital of France"
        doc = CorpusDocument(
            "d", text, [Annotation(0, 5, "Paris"), Annotation(22, 28, "France")]
        )
        records = resolve_document(doc, mini_index, model, provider, mini_tables)
        assert records[0].predicted_geoname_id == 2  # the French Paris
        assert records[1].predicted_geoname_id == 1


class TestResolveAnnotated:
    def make_doc(self, exclude=False):
        return CorpusDocument(
            doc_id="d",
            text="Paris, the capital of France",
            annotations=[
                Annotation(
                    start=0, end=5, surface="Paris", gold_geoname_id=2,
                    gold_lat=48.8566, gold_lon=2.3522, gold_country="FR",
                    gold_admin1="11", gold_feature_class="P", exclude_gold=exclude,
                ),
                Annotation(start=22, end=28, surface="France", gold_geoname_id=1),
            ],
        )

    def test_gold_fields_copied(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        records = resolve_document(
            self.make_doc(), mini_index, model, provider, mini_tables
        )
        assert records[0].gold_geoname_id == 2
        assert records[0].gold_country == "FR"
        assert records[0].gold_admin1 == "11"
        assert records[0].gold_lat == 48.8566
        assert not records[0].impossible
        assert records[0].gold_in_candidates

    def test_exclude_gold_withholds_the_entry(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        records = resolve_document(
            self.make_doc(exclude=True), mini_index, model, provider, mini_tables
        )
        assert records[0].impossible
        assert not records[0].gold_in_candidates
        assert records[0].predicted_geoname_id != 2

    def test_corpus_resolution_preserves_order(self, mini_index, mini_tables, mini_world):
        model, provider = mini_world
        docs = [self.make_doc(), self.make_doc()]
        docs[1].doc_id = "e"
        records = resolve_corpus(docs, mini_index, model, provider, mini_tables)
        assert [r.doc_id for r in records] == ["d", "d", "e", "e"]


class TestAssembleExamples:
    def test_gold_slot_points_at_gold_candidate(self, mini_index, mini_tables):
        provider = hashed_bow_provider(PROVIDER_DIM, seed=0)
        doc = CorpusDocument(
            doc_id="d",
            text="Paris in Texas",
            annotations=[Annotation(start=0, end=5, surface="Paris", gold_geoname_id=6)],
        )
        (example,) = assemble_examples([doc], mini_index, provider, mini_tables)
        # candidates for "Paris" are [2, 6, 11]; gold id 6 sits at slot 1
        assert example.gold_slot == 1
        assert example.doc_id == "d"

    def test_unretrievable_gold_becomes_null_slot(self, mini_index, mini_tables):
        provider = hashed_bow_provider(PROVIDER_DIM, seed=0)
        doc = CorpusDocument(
            doc_id="d",
            text="Paris spoke",
            annotations=[Annotation(start=0, end=5, surface="Paris", gold_geoname_id=999)],
        )
        (example,) = assemble_examples([doc], mini_index, provider, mini_tables)
        assert example.gold_slot == len(example.features)

    def test_excluded_gold_becomes_null_slot(self, mini_index, mini_tables):
        provider = hashed_bow_provider(PROVIDER_DIM, seed=0)
        doc = CorpusDocument(
            doc_id="d",
            text="Paris spoke",
            annotations=[
                Annotation(start=0, end=5, surface="Paris", gold_geoname_id=2, exclude_gold=True)
            ],
        )
        (example,) = assemble_examples([doc], mini_index, provider, mini_tables)
        assert example.gold_slot == len(example.features)
        # the withheld entry is really gone from the feature rows
        assert len(example.features) == 2

    def test_zero_candidate_spans_skipped(self, mini_index, mini_tables):
        provider = hashed_bow_provider(PROVIDER_DIM, seed=0)
        doc = CorpusDocument(
            doc_id="d",
            text="Zzzzz said",
            annotations=[Annotation(start=0, end=5, surface="Zzzzz", gold_geoname_id=None)],
        )
        assert assemble_examples([doc], mini_index, provider, mini_tables) == []

    def test_gold_country_copied(self, mini_index, mini_tables):
        provider = hashed_bow_provider(PROVIDER_DIM, seed=0)
        doc = CorpusDocument(
            doc_id="d",
            text="Paris spoke",
            annotations=[
                Annotation(start=0, end=5, surface="Paris", gold_geoname_id=2, gold_country="FR")
            ],
        )
        (example,) = assemble_examples([doc], mini_index, provider, mini_tables)
        assert example.gold_country == "FR"


def filler_doc(spans, trigger=None) -> CorpusDocument:
    """100 characters of filler with one annotation per (start, end) pair."""
    annotations = [Annotation(start, end, "x" * (end - start)) for start, end in spans]
    return CorpusDocument("d", "x" * 100, annotations, event_trigger=trigger)


class TestLocateEvent:
    def doc_with_trigger(self, trigger=(38, 45)):
        return filler_doc([(15, 25), (85, 95)], trigger)

    def test_nearest_resolved_span_chosen(self):
        doc = self.doc_with_trigger()  # trigger midpoint 41.5
        records = [rec(start=15, end=25, gid=1), rec(start=85, end=95, gid=2)]
        result = locate_event(doc, records)
        assert result.status == "located"
        assert result.record.predicted_geoname_id == 1

    def test_tie_goes_to_earlier_span(self):
        doc = filler_doc([(10, 20), (40, 50)], (25, 35))  # midpoint 30, both spans 15 away
        records = [rec(start=10, end=20, gid=1), rec(start=40, end=50, gid=2)]
        assert locate_event(doc, records).record.predicted_geoname_id == 1

    def test_abstentions_are_ignored(self):
        doc = self.doc_with_trigger()
        records = [rec(start=15, end=25, gid=None), rec(start=85, end=95, gid=7)]
        assert locate_event(doc, records).record.predicted_geoname_id == 7

    def test_all_abstained_no_location(self):
        doc = self.doc_with_trigger()
        records = [rec(start=15, end=25, gid=None), rec(start=85, end=95, gid=None)]
        assert locate_event(doc, records).status == "no_location"

    def test_no_trigger_not_applicable(self):
        doc = filler_doc([(15, 25)])
        result = locate_event(doc, [rec(start=15, end=25, gid=1)])
        assert result.status == "not_applicable"
        assert result.record is None

    def test_single_resolved_span_always_wins(self):
        doc = self.doc_with_trigger(trigger=(0, 2))
        records = [rec(start=85, end=95, gid=4)]
        assert locate_event(doc, records).record.predicted_geoname_id == 4


class TestRecordSerialization:
    def test_round_trip(self, tmp_path):
        records = [
            rec(),
            rec(gid=None, score=0.4, candidate_count=0),
            rec(gold_geoname_id=9, gold_lat=1.5, gold_lon=-2.5, gold_country="US",
                gold_admin1="TX", gold_feature_class="P", impossible=True,
                gold_in_candidates=True),
        ]
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(asdict(r)) + "\n" for r in records), encoding="utf-8")
        assert load_records(str(path)) == records


def _records_file(tmp_path, *raws) -> str:
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in raws), encoding="utf-8")
    return str(path)


class TestLoadRecords:
    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("\n" + json.dumps(asdict(rec())) + "\n\n", encoding="utf-8")
        assert load_records(str(path)) == [rec()]

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps(asdict(rec())) + "\n{broken\n", encoding="utf-8")
        with pytest.raises(RecordFormatError, match=r"records\.jsonl:2: invalid JSON"):
            load_records(str(path))

    def test_missing_required_key(self, tmp_path):
        raw = asdict(rec())
        del raw["score"]
        with pytest.raises(RecordFormatError, match=r":1: missing required key 'score'"):
            load_records(_records_file(tmp_path, raw))

    def test_optional_keys_default(self, tmp_path):
        raw = {k: v for k, v in asdict(rec()).items() if not k.startswith("gold_")}
        assert load_records(_records_file(tmp_path, raw)) == [rec()]

    @pytest.mark.parametrize(
        "key, value",
        [("start", "0"), ("start", 1.5), ("start", True), ("doc_id", 7), ("score", "0.9"),
         ("impossible", 1), ("predicted_geoname_id", 2.0), ("gold_country", None)],
    )
    def test_wrong_type(self, tmp_path, key, value):
        raw = asdict(rec())
        raw[key] = value
        with pytest.raises(RecordFormatError, match=key):
            load_records(_records_file(tmp_path, raw))

    @pytest.mark.parametrize("key", ["score", "predicted_lat", "predicted_lon", "gold_lat", "gold_lon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_number(self, tmp_path, key, value):
        raw = asdict(rec())
        raw[key] = value
        with pytest.raises(RecordFormatError, match=f"{key} must be finite"):
            load_records(_records_file(tmp_path, raw))

    def test_not_an_object(self, tmp_path):
        with pytest.raises(RecordFormatError, match="expected a JSON object"):
            load_records(_records_file(tmp_path, [1, 2]))

    def test_integer_score_read_as_float(self, tmp_path):
        raw = asdict(rec())
        raw["score"] = 1
        (record,) = load_records(_records_file(tmp_path, raw))
        assert record.score == 1.0 and isinstance(record.score, float)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flipped_or_truncated_records_load_or_raise(tmp_path_factory, data):
    records = [
        rec(),
        rec(start=6, end=11, gid=None, score=0.4, gold_geoname_id=3, gold_lat=1.5, impossible=True),
    ]
    path = tmp_path_factory.mktemp("flip") / "records.jsonl"
    body = "".join(json.dumps(asdict(r), sort_keys=True, ensure_ascii=False) + "\n" for r in records)
    path.write_bytes(damage_bytes(data, body.encode("utf-8")))
    try:
        loaded = load_records(str(path))
    except RecordFormatError:
        return
    assert all(isinstance(r, ResolutionRecord) for r in loaded)
