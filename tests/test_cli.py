"""End-to-end checks for the command-line interface.

Every test but one drives ``placelink.cli.main`` in-process with an argv list,
so exit codes and printed output are asserted without spawning subprocesses;
the one runs ``python -m placelink query`` as its own process.
"""

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from placelink import cli
from placelink.cli import build_parser, config_keys, main
from placelink.corpus import load_corpus, save_corpus, CorpusDocument
from placelink.gazetteer import build_admin_tables, write_gazetteer_tsv
from placelink.index import build_index, load_index, save_index
from placelink.ranker import RankerConfig, RankerModel, load_model
from placelink.toygaz import build_toy_gazetteer


@pytest.fixture(scope="module")
def ws(tmp_path_factory, mini_entries):
    """Shared workspace: gazetteer file, index, synthetic corpus, tiny model."""
    root = tmp_path_factory.mktemp("cliws")
    paths = {
        "gaz": str(root / "gaz.tsv"),
        "index": str(root / "places.idx"),
        "corpus": str(root / "corpus.jsonl"),
        "model": str(root / "ranker.bin"),
        "records": str(root / "records.jsonl"),
        "root": root,
    }
    write_gazetteer_tsv(mini_entries, paths["gaz"])
    assert main(["build-index", "--gazetteer", paths["gaz"], "--out", paths["index"]]) == 0
    assert (
        main(
            [
                "synth",
                "--gazetteer", paths["gaz"],
                "--out", paths["corpus"],
                "--n", "40",
                "--seed", "5",
                "--impossible-fraction", "0.1",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--index", paths["index"],
                "--corpus", paths["corpus"],
                "--out", paths["model"],
                "--epochs", "3",
                "--provider-dim", "32",
                "--embedding-dim", "8",
                "--hidden-dim", "16",
                "--seed", "0",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "parse",
                "--index", paths["index"],
                "--model", paths["model"],
                "--corpus", paths["corpus"],
                "--out", paths["records"],
            ]
        )
        == 0
    )
    return paths


class TestBuildIndex:
    def test_reports_counts(self, ws, tmp_path, capsys):
        out = str(tmp_path / "again.idx")
        rc = main(["build-index", "--gazetteer", ws["gaz"], "--out", out])
        captured = capsys.readouterr()
        assert rc == 0
        assert "indexed 11 entries" in captured.out
        assert out in captured.out

    def test_index_loads(self, ws):
        index = load_index(ws["index"])
        assert len(index) == 11
        assert index.name_count > 11

    def test_missing_gazetteer(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.tsv")
        rc = main(["build-index", "--gazetteer", missing, "--out", str(tmp_path / "x.idx")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err
        assert "nope.tsv" in captured.err

    def test_missing_out_flag(self, ws, capsys):
        rc = main(["build-index", "--gazetteer", ws["gaz"]])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--out" in captured.err

    def test_classes_filter(self, ws, tmp_path):
        out = str(tmp_path / "ponly.idx")
        assert main(["build-index", "--gazetteer", ws["gaz"], "--out", out, "--classes", "P"]) == 0
        index = load_index(out)
        classes = {e.feature_class for e in index.entries()}
        assert classes == {"P"}
        assert 0 < len(index) < 11

    def test_rebuild_is_byte_identical(self, ws, tmp_path):
        a = tmp_path / "a.idx"
        b = tmp_path / "b.idx"
        assert main(["build-index", "--gazetteer", ws["gaz"], "--out", str(a)]) == 0
        assert main(["build-index", "--gazetteer", ws["gaz"], "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestQuery:
    def test_jsonl_output(self, ws, capsys):
        rc = main(["query", "--index", ws["index"], "--name", "Paris", "--format", "jsonl"])
        captured = capsys.readouterr()
        assert rc == 0
        rows = [json.loads(line) for line in captured.out.splitlines() if line]
        assert [r["geoname_id"] for r in rows] == [2, 6, 11]
        assert rows[0]["retrieval_score"] >= 1_000_000.0
        assert rows[0]["country"] == "FR"
        scores = [r["retrieval_score"] for r in rows]
        assert scores == sorted(scores, reverse=True)
        expected_keys = {
            "geoname_id", "name", "country", "admin1",
            "lat", "lon", "population", "retrieval_score",
        }
        assert all(set(r) == expected_keys for r in rows)

    def test_table_output(self, ws, capsys):
        rc = main(["query", "--index", ws["index"], "--name", "Paris"])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("2\tParis\tFR")
        assert all(len(line.split("\t")) == 8 for line in lines)

    def test_no_match_is_quiet(self, ws, capsys):
        rc = main(["query", "--index", ws["index"], "--name", "Qqqqqq"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == ""

    def test_missing_index_file(self, tmp_path, capsys):
        rc = main(["query", "--index", str(tmp_path / "gone.idx"), "--name", "Paris"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err

    def test_k_defaults_to_the_index_max_candidates(self, ws, tmp_path, capsys):
        index = str(tmp_path / "k2.idx")
        assert main(["build-index", "--gazetteer", ws["gaz"], "--out", index, "--k", "2"]) == 0
        capsys.readouterr()
        assert main(["query", "--index", index, "--name", "Paris"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert main(["query", "--index", index, "--name", "Paris", "--k", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_module_entry_point_prints_jsonl(self, ws, capsys):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["query", "--index", ws["index"], "--name", "Paris", "--k", "50", "--format", "jsonl"]
        proc = subprocess.run(
            [sys.executable, "-m", "placelink", *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
        assert [json.loads(line)["geoname_id"] for line in proc.stdout.splitlines()] == [2, 6, 11]


class TestSynth:
    def test_reports_counts(self, ws, tmp_path, capsys):
        out = str(tmp_path / "tiny.jsonl")
        rc = main(["synth", "--gazetteer", ws["gaz"], "--out", out, "--n", "5", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        docs = load_corpus(out)
        assert len(docs) == 5
        total = sum(len(d.annotations) for d in docs)
        assert f"wrote 5 documents, {total} annotations" in captured.out

    def test_n_zero_writes_empty_corpus(self, ws, tmp_path):
        out = str(tmp_path / "empty.jsonl")
        assert main(["synth", "--gazetteer", ws["gaz"], "--out", out, "--n", "0"]) == 0
        assert load_corpus(out) == []

    def test_same_seed_same_bytes(self, ws, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        c = tmp_path / "c.jsonl"
        argv = ["synth", "--gazetteer", ws["gaz"], "--n", "20", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert main(["synth", "--gazetteer", ws["gaz"], "--n", "20", "--seed", "10", "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_impossible_fraction_exact(self, ws, tmp_path):
        out = str(tmp_path / "imp.jsonl")
        rc = main(
            [
                "synth",
                "--gazetteer", ws["gaz"],
                "--out", out,
                "--n", "40",
                "--seed", "2",
                "--impossible-fraction", "0.25",
            ]
        )
        assert rc == 0
        docs = load_corpus(out)
        anns = [a for d in docs for a in d.annotations]
        flagged = sum(1 for a in anns if a.exclude_gold)
        assert flagged == round(0.25 * len(anns))


class TestTrain:
    def test_model_file_loads(self, ws):
        model = load_model(ws["model"])
        assert model.config.epochs == 3
        assert model.provider_dim == 32
        assert model.metadata["provider"] == "hashed_bow"
        assert model.metadata["provider_seed"] == 0

    def test_prints_epoch_progress(self, ws, tmp_path, capsys):
        out = str(tmp_path / "quick.bin")
        rc = main(
            [
                "train",
                "--index", ws["index"],
                "--corpus", ws["corpus"],
                "--out", out,
                "--epochs", "2",
                "--provider-dim", "32",
                "--embedding-dim", "8",
                "--hidden-dim", "16",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "epoch 1: loss" in captured.out
        assert "epoch 2: loss" in captured.out
        assert "trained on" in captured.out

    def test_zero_learning_rate_keeps_initial_params(self, ws, tmp_path):
        out = str(tmp_path / "frozen.bin")
        rc = main(
            [
                "train",
                "--index", ws["index"],
                "--corpus", ws["corpus"],
                "--out", out,
                "--epochs", "1",
                "--learning-rate", "0",
                "--provider-dim", "32",
                "--embedding-dim", "8",
                "--hidden-dim", "16",
                "--seed", "3",
            ]
        )
        assert rc == 0
        trained = load_model(out)
        fresh = RankerModel.initialize(
            countries=trained.countries,
            feature_classes=trained.feature_classes,
            provider_dim=trained.provider_dim,
            config=trained.config,
        )
        assert set(trained.params) == set(fresh.params)
        for name in trained.params:
            assert np.array_equal(trained.params[name], fresh.params[name]), name

    def test_same_seed_same_model_bytes(self, ws, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        argv = [
            "train",
            "--index", ws["index"],
            "--corpus", ws["corpus"],
            "--epochs", "2",
            "--provider-dim", "32",
            "--embedding-dim", "8",
            "--hidden-dim", "16",
            "--seed", "7",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_corpus_flag(self, ws, capsys):
        rc = main(["train", "--index", ws["index"], "--out", "x.bin"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--corpus" in captured.err

    def test_help_lists_one_flag_per_ranker_field(self, capsys):
        assert main(["train", "--help"]) == 0
        words = capsys.readouterr().out.replace("[", " ").replace("]", " ").replace(",", " ").split()
        for f in fields(RankerConfig):
            flag = "--" + f.name.replace("_", "-")
            assert flag in words, flag


class TestConfigFile:
    def test_config_supplies_values(self, ws, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# synthetic corpus settings\n"
            "\n"
            "n = 7\n"
            "seed = 4\n",
            encoding="utf-8",
        )
        out = str(tmp_path / "cfg.jsonl")
        rc = main(["synth", "--config", str(cfg), "--gazetteer", ws["gaz"], "--out", out])
        assert rc == 0
        assert len(load_corpus(out)) == 7

    def test_flag_overrides_config(self, ws, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 7\n", encoding="utf-8")
        out = str(tmp_path / "cfg.jsonl")
        rc = main(
            ["synth", "--config", str(cfg), "--gazetteer", ws["gaz"], "--out", out, "--n", "4"]
        )
        assert rc == 0
        assert len(load_corpus(out)) == 4

    def test_unknown_key_rejected(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rte = 0.1\n", encoding="utf-8")
        rc = main(["synth", "--config", str(cfg), "--gazetteer", ws["gaz"], "--out", "x"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "unknown config key" in captured.err
        assert "learning_rte" in captured.err

    def test_malformed_line_rejected(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        rc = main(["synth", "--config", str(cfg), "--gazetteer", ws["gaz"], "--out", "x"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "expected 'key = value'" in captured.err

    def test_invalid_utf8_names_file_and_line(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# comment\nn = 5\xff\n")
        rc = main(["synth", "--config", str(cfg), "--gazetteer", ws["gaz"], "--out", "x"])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"error: {cfg}:2: invalid UTF-8" in captured.err

    def test_crlf_lines_accepted(self, ws, tmp_path):
        cfg = tmp_path / "crlf.cfg"
        cfg.write_bytes(b"# comment\r\nn = 3\r\n")
        out = str(tmp_path / "crlf.jsonl")
        assert main(["synth", "--config", str(cfg), "--gazetteer", ws["gaz"], "--out", out]) == 0
        assert len(load_corpus(out)) == 3

    def test_accepted_keys_are_pinned(self):
        assert config_keys(build_parser()) == {
            "gazetteer_path", "index_path", "model_path", "corpus_path", "records_path",
            "out_path", "name", "output_format", "classes", "k", "n", "seed", "provider_dim",
            "impossible_fraction", "epochs", "batch_size", "dropout", "learning_rate",
            "embedding_dim", "hidden_dim", "multitask_country_weight", "score_mode",
            "eval_k", "extract", "locate_events",
        }

    @pytest.mark.parametrize(
        "command, line, value",
        [
            ("query", "output_format = xml", "'xml'"),
            ("query", "k = many", "'many'"),
            ("synth", "impossible_fraction = lots", "'lots'"),
            ("train", "score_mode = linear", "'linear'"),
            ("parse", "locate_events = maybe", "'maybe'"),
            ("parse", "extract = sometimes", "'sometimes'"),
        ],
    )
    def test_value_checked_like_its_flag(self, tmp_path, capsys, command, line, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        rc = main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "error:" in err and value in err and f"{cfg}:1" in err

    def test_key_of_another_subcommand_ignored(self, ws, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nscore_mode = anything\nn = 6\n", encoding="utf-8")
        out = str(tmp_path / "cfg.jsonl")
        assert main(["synth", "--config", str(cfg), "--gazetteer", ws["gaz"], "--out", out]) == 0
        assert len(load_corpus(out)) == 6

    def test_boolean_coercion(self, ws, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("extract = yes\n", encoding="utf-8")
        corpus_path = str(tmp_path / "raw.jsonl")
        save_corpus([CorpusDocument(doc_id="raw1", text="Protests in Paris today.")], corpus_path)
        out = str(tmp_path / "raw_records.jsonl")
        rc = main(
            [
                "parse",
                "--config", str(cfg),
                "--index", ws["index"],
                "--model", ws["model"],
                "--corpus", corpus_path,
                "--out", out,
            ]
        )
        assert rc == 0
        with open(out, "r", encoding="utf-8") as fh:
            assert [json.loads(line)["query_text"] for line in fh] == ["Paris"]


@pytest.mark.parametrize("world", ["mini", "toy"])
def test_code_columns_equal_the_all_entries_path(world, mini_entries, tmp_path):
    entries = mini_entries if world == "mini" else build_toy_gazetteer()
    save_index(build_index(entries), str(tmp_path / "world.idx"))
    index = load_index(str(tmp_path / "world.idx"))  # nothing materialised yet
    assert cli.admin_tables(index) == build_admin_tables(entries)
    assert index.column_values("country_code") == {e.country_code for e in entries}
    assert index.column_values("feature_class") == {e.feature_class for e in entries}
    assert index.entries(index.rows_where("feature_code", "PPLC")) == [
        e for e in entries if e.feature_code == "PPLC"
    ]
    assert index.rows_where("feature_code", "none such") == []


class TestParse:
    def test_records_match_annotations(self, ws):
        docs = load_corpus(ws["corpus"])
        total = sum(len(d.annotations) for d in docs)
        with open(ws["records"], "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        assert len(rows) == total
        assert all("predicted_geoname_id" in r or r["abstained"] for r in rows)

    def test_reports_span_counts(self, ws, tmp_path, capsys):
        out = str(tmp_path / "again.jsonl")
        rc = main(
            [
                "parse",
                "--index", ws["index"],
                "--model", ws["model"],
                "--corpus", ws["corpus"],
                "--out", out,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "resolved" in captured.out and "spans" in captured.out

    def test_extract_fills_missing_annotations(self, ws, tmp_path):
        corpus_path = str(tmp_path / "raw.jsonl")
        save_corpus(
            [CorpusDocument(doc_id="raw1", text="Protests in Paris and Austin today.")],
            corpus_path,
        )
        out = str(tmp_path / "raw_records.jsonl")
        rc = main(
            [
                "parse",
                "--index", ws["index"],
                "--model", ws["model"],
                "--corpus", corpus_path,
                "--out", out,
                "--extract",
            ]
        )
        assert rc == 0
        with open(out, "r", encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh if line.strip()]
        assert [r["query_text"] for r in rows] == ["Paris", "Austin"]

    def test_locate_events_prints_status(self, ws, tmp_path, capsys):
        corpus_path = str(tmp_path / "ev.jsonl")
        save_corpus(
            [
                CorpusDocument(
                    doc_id="ev1",
                    text="Protests in Paris today.",
                    event_trigger=(0, 8),
                )
            ],
            corpus_path,
        )
        out = str(tmp_path / "ev_records.jsonl")
        rc = main(
            [
                "parse",
                "--index", ws["index"],
                "--model", ws["model"],
                "--corpus", corpus_path,
                "--out", out,
                "--extract",
                "--locate-events",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "event ev1:" in captured.out
        assert "located" in captured.out

    def test_missing_out_flag(self, ws, capsys):
        rc = main(
            ["parse", "--index", ws["index"], "--model", ws["model"], "--corpus", ws["corpus"]]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "--out" in captured.err


class TestEvaluate:
    def test_from_records_file(self, ws, capsys):
        rc = main(["evaluate", "--records", ws["records"]])
        captured = capsys.readouterr()
        assert rc == 0
        assert "n_eval:" in captured.out
        assert "Acc@161km" in captured.out

    def test_json_report_out(self, ws, tmp_path):
        out = str(tmp_path / "report.json")
        rc = main(["evaluate", "--records", ws["records"], "--out", out])
        assert rc == 0
        with open(out, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        expected = {
            "n_eval", "exact_match", "mean_error_km", "median_error_km",
            "correct_country", "correct_feature_class", "correct_adm1",
            "acc_at_161km", "abstention_recall", "abstention_false_rate",
            "recall_at_k",
        }
        assert set(payload) == expected
        assert 0.0 <= payload["exact_match"] <= 1.0

    def test_resolving_path_matches_records_path(self, ws, tmp_path):
        out_a = str(tmp_path / "a.json")
        out_b = str(tmp_path / "b.json")
        assert main(["evaluate", "--records", ws["records"], "--out", out_a]) == 0
        rc = main(
            [
                "evaluate",
                "--index", ws["index"],
                "--model", ws["model"],
                "--corpus", ws["corpus"],
                "--out", out_b,
            ]
        )
        assert rc == 0
        with open(out_a, "r", encoding="utf-8") as fh:
            a = json.load(fh)
        with open(out_b, "r", encoding="utf-8") as fh:
            b = json.load(fh)
        # resolve-on-the-fly adds retrieval recall; the rest must agree
        a.pop("recall_at_k")
        b.pop("recall_at_k")
        assert a == b

    def test_recall_column_present_with_corpus(self, ws, tmp_path):
        out = str(tmp_path / "rep.json")
        rc = main(
            [
                "evaluate",
                "--records", ws["records"],
                "--index", ws["index"],
                "--corpus", ws["corpus"],
                "--eval-k", "1,50",
                "--out", out,
            ]
        )
        assert rc == 0
        with open(out, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert set(payload["recall_at_k"]) == {"1", "50"}

    def test_resolving_path_loads_each_file_once(self, ws, monkeypatch):
        calls = {"index": 0, "corpus": 0}

        def counted(name, load):
            def wrapper(path):
                calls[name] += 1
                return load(path)

            return wrapper

        monkeypatch.setattr(cli, "load_index", counted("index", cli.load_index))
        monkeypatch.setattr(cli, "load_corpus", counted("corpus", cli.load_corpus))
        rc = main(["evaluate", "--index", ws["index"], "--model", ws["model"], "--corpus", ws["corpus"]])
        assert rc == 0
        assert calls == {"index": 1, "corpus": 1}

    def test_malformed_records_file_reports_line(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text('{"doc_id": "d"}\n', encoding="utf-8")
        rc = main(["evaluate", "--records", str(path)])
        assert rc == 1
        assert f"{path}:1: missing required key" in capsys.readouterr().err

    def test_requires_some_input(self, capsys):
        rc = main(["evaluate"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "need --records" in captured.err


class TestArgvHandling:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "placelink" in capsys.readouterr().out
