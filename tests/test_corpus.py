"""Corpus file format: JSONL round trips and schema validation."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import damage_bytes
from placelink.corpus import (
    Annotation,
    CorpusDocument,
    CorpusFormatError,
    document_from_dict,
    dump_corpus,
    load_corpus,
    save_corpus,
)


def sample_docs() -> list[CorpusDocument]:
    return [
        CorpusDocument(
            doc_id="d1",
            text="Fighting near Donetsk continued.",
            annotations=[
                Annotation(
                    start=14,
                    end=21,
                    surface="Donetsk",
                    gold_geoname_id=709717,
                    gold_lat=48.0,
                    gold_lon=37.8,
                    gold_country="UA",
                    gold_admin1="05",
                    gold_feature_class="P",
                )
            ],
            event_trigger=(0, 8),
        ),
        CorpusDocument(doc_id="d2", text="No places here."),
        CorpusDocument(
            doc_id="d3",
            text="São Paulo hosted the summit.",
            annotations=[
                Annotation(start=0, end=9, surface="São Paulo", gold_geoname_id=3448439,
                           exclude_gold=True)
            ],
        ),
    ]


class TestRoundTrip:
    def test_dict_round_trip(self):
        for doc in sample_docs():
            assert document_from_dict(asdict(doc)) == doc

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "corpus.jsonl")
        docs = sample_docs()
        save_corpus(docs, path)
        assert load_corpus(path) == docs

    def test_one_json_object_per_line(self):
        text = dump_corpus(sample_docs())
        lines = text.splitlines()
        assert len(lines) == 3
        for line in lines:
            json.loads(line)

    def test_unicode_preserved_unescaped(self):
        text = dump_corpus([sample_docs()[2]])
        assert "São Paulo" in text

    def test_dump_is_deterministic(self):
        assert dump_corpus(sample_docs()) == dump_corpus(sample_docs())

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        body = dump_corpus(sample_docs())
        path.write_text(body.replace("\n", "\n\n", 1), encoding="utf-8")
        assert len(load_corpus(str(path))) == 3


class TestValidation:
    def test_span_out_of_bounds(self):
        raw = asdict(sample_docs()[1])
        raw["annotations"] = [{"start": 0, "end": 99, "surface": "x"}]
        with pytest.raises(CorpusFormatError, match="out of bounds"):
            document_from_dict(raw)

    def test_inverted_span(self):
        raw = asdict(sample_docs()[1])
        raw["annotations"] = [{"start": 5, "end": 5, "surface": ""}]
        with pytest.raises(CorpusFormatError):
            document_from_dict(raw)

    def test_surface_mismatch(self):
        raw = asdict(sample_docs()[1])
        raw["annotations"] = [{"start": 0, "end": 2, "surface": "XX"}]
        with pytest.raises(CorpusFormatError, match="does not match"):
            document_from_dict(raw)

    def test_overlapping_spans(self):
        raw = asdict(sample_docs()[1])
        raw["annotations"] = [
            {"start": 0, "end": 6, "surface": "No pla"},
            {"start": 3, "end": 9, "surface": "places"},
        ]
        with pytest.raises(CorpusFormatError, match="overlaps"):
            document_from_dict(raw)

    def test_trigger_out_of_bounds(self):
        raw = asdict(sample_docs()[1])
        raw["event_trigger"] = [0, 10_000]
        with pytest.raises(CorpusFormatError, match="trigger"):
            document_from_dict(raw)

    def test_missing_required_key(self):
        with pytest.raises(CorpusFormatError, match="malformed"):
            document_from_dict({"text": "no id"})

    def test_invalid_json_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(dump_corpus(sample_docs()[:1]) + "{broken\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":2"):
            load_corpus(str(path))

    def test_invalid_record_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        raw = asdict(sample_docs()[1])
        raw["annotations"] = [{"start": 0, "end": 99, "surface": "x"}]
        path.write_text(json.dumps(raw) + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match=":1"):
            load_corpus(str(path))

    def test_optional_fields_default(self):
        doc = document_from_dict({"doc_id": "d", "text": "plain text"})
        assert doc.annotations == []
        assert doc.event_trigger is None
        ann = document_from_dict(
            {"doc_id": "d", "text": "Paris", "annotations": [{"start": 0, "end": 5, "surface": "Paris"}]}
        ).annotations[0]
        assert ann.gold_geoname_id is None
        assert ann.gold_country == ""
        assert ann.exclude_gold is False

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(CorpusFormatError, match=f"{path}:1: invalid JSON"):
            load_corpus(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("exclude_gold", "false"),
            ("exclude_gold", 0),
            ("gold_lat", float("nan")),
            ("gold_lon", float("nan")),
            ("gold_lat", float("inf")),
            ("gold_geoname_id", 2.7),
            ("gold_geoname_id", 2.0),
            ("gold_geoname_id", True),
            ("start", "14"),
            ("surface", 7),
            ("gold_country", None),
        ],
    )
    def test_wrong_annotation_value_rejected(self, key, value):
        raw = asdict(sample_docs()[0])
        raw["annotations"][0][key] = value
        with pytest.raises(CorpusFormatError, match=key):
            document_from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gold_lat", 500.0),
            ("gold_lat", -90.5),
            ("gold_lon", -999.0),
            ("gold_lon", 181),
            ("gold_geoname_id", -3),
            ("gold_geoname_id", 0),
        ],
    )
    def test_out_of_range_annotation_value_rejected(self, key, value):
        raw = asdict(sample_docs()[0])
        raw["annotations"][0][key] = value
        with pytest.raises(CorpusFormatError, match=f"{key} must lie in"):
            document_from_dict(raw)

    @pytest.mark.parametrize(
        "key, value",
        [("gold_lat", 90), ("gold_lat", -90.0), ("gold_lon", 180.0), ("gold_lon", -180), ("gold_geoname_id", 1)],
    )
    def test_range_bounds_accepted(self, key, value):
        raw = asdict(sample_docs()[0])
        raw["annotations"][0][key] = value
        assert getattr(document_from_dict(raw).annotations[0], key) == value

    @pytest.mark.parametrize(
        "raw",
        [
            [],
            {"doc_id": 1, "text": "x"},
            {"doc_id": "d", "text": "x", "annotations": "none"},
            {"doc_id": "d", "text": "x", "annotations": [[0, 1]]},
            {"doc_id": "d", "text": "xyz", "event_trigger": [0, 1, 2]},
            {"doc_id": "d", "text": "xyz", "event_trigger": [0.0, 1]},
        ],
    )
    def test_malformed_document_rejected(self, raw):
        with pytest.raises(CorpusFormatError, match="malformed"):
            document_from_dict(raw)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flipped_or_truncated_corpus_loads_or_raises(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("flip") / "corpus.jsonl"
    path.write_bytes(damage_bytes(data, dump_corpus(sample_docs()).encode("utf-8")))
    try:
        docs = load_corpus(str(path))
    except CorpusFormatError:
        return
    assert all(isinstance(d, CorpusDocument) for d in docs)
