"""The three workloads.

Each workload has a set-up (everything before the timed phase), a timed unit
of work that the run repeats until --seconds have passed, a query loop whose
latencies give query_p50_ms and query_p99_ms, an index file for cold CLI
queries, and checks on its outputs.

toy-e2e     The default 2,200-entry world driven through the six CLI steps of
            scripts/run_synth_experiment.py. About 90% of it is ranker
            training; the index does almost no work. Target for ranker
            changes, control for index changes.
stress-query
            The 163,200-entry world (400 countries, 100 cities per ADM1)
            indexed at k=50, read back with load_index and queried in a
            closed loop. The ranker and features do no work. Target for index
            changes, control for ranker changes.
stress-e2e  The same world with typo noise on half of the spans: assemble
            examples, a short training run, resolve, evaluate, query_recall.
            Retrieval, features and ranker scoring all carry load.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import placelink.cli as cli
import placelink.evaluation as evaluation
import placelink.features as features
import placelink.index as index_mod
import placelink.pipeline as pipeline
from placelink.corpus import load_corpus
from placelink.evaluation import evaluate, query_recall
from placelink.features import hashed_bow_provider
from placelink.gazetteer import build_admin_tables, load_gazetteer, write_gazetteer_tsv
from placelink.index import IndexConfig, build_index, load_index, query, save_index
from placelink.pipeline import assemble_examples, resolve_corpus
from placelink.ranker import RankerConfig, RankerModel, save_model, train
from placelink.synthgen import augment_impossible, generate_corpus
from placelink.toygaz import build_toy_gazetteer

from checks import ScanOracle, candidate_histogram, check_records, check_scan, sha256_file, sha256_lines
from harness import K, QueryLoop, Run, observe_query
from inputs import add_typos, query_mix
from spans import TimedProvider

SCAN_SAMPLE = 20
IMPOSSIBLE_FRACTION = 0.1  # the CLI synth default
TYPO_SHARE = 0.5
PROVIDER_DIM = 256  # the CLI train default
STRESS_WORLD = {"n_countries": 400, "cities_per_adm1": 100}


# -- observers: counts taken from a traced call's arguments and result -------


def _observe_parse(tracer, result, args, kwargs):
    tracer.counts["gazetteer.lines"] += result.line_count
    tracer.counts["gazetteer.malformed_lines"] += result.malformed_count


def _observe_save_index(tracer, result, args, kwargs):
    tracer.counts["index.file_bytes"] = os.path.getsize(args[1])


def _observe_generate(tracer, docs, args, kwargs):
    tracer.counts["synthgen.annotations"] += sum(len(d.annotations) for d in docs)


def _observe_train(tracer, result, args, kwargs):
    model, dataset = args[0], args[1]
    config = args[2] if len(args) > 2 and args[2] is not None else model.config
    tracer.counts["ranker.train_examples"] += len(dataset)
    tracer.counts["ranker.train_candidates"] += sum(len(ex.features) for ex in dataset)
    tracer.counts["ranker.train_example_epochs"] += len(dataset) * config.epochs


def _observe_resolve(tracer, records, args, kwargs):
    tracer.counts["pipeline.resolved_spans"] += len(records)


def _wrap_resolution(tracer) -> None:
    """Wrappers inside assemble_examples, resolve_corpus and query_recall."""
    tracer.wrap(pipeline, "query", "index.query", observe=observe_query)
    tracer.wrap(evaluation, "query", "index.query", observe=observe_query)
    tracer.wrap(pipeline, "summarize_candidates", "features.summarize_candidates")
    tracer.wrap(pipeline, "candidate_features", "features.candidate_features")
    tracer.wrap(pipeline, "score_candidates", "ranker.score")
    tracer.count_calls(index_mod, "bounded_edit_distance", "index.verify_calls", hits="index.verify_hits")
    tracer.count_calls(features, "edit_distance", "features.edit_distance_calls")


def _stress_world(run: Run, state) -> None:
    """163,200 toy entries written as a Geonames dump and read back with the
    real loader, then indexed and saved."""
    entries = run.call("toygaz.build", build_toy_gazetteer, **STRESS_WORLD)
    gaz = run.work / "stress_gazetteer.tsv"
    write_gazetteer_tsv(entries, str(gaz))
    del entries
    parsed = run.call("gazetteer.parse", load_gazetteer, str(gaz), observe=_observe_parse)
    state.entries = parsed.entries
    state.malformed_lines = parsed.malformed_count
    state.gazetteer_lines = parsed.line_count
    state.index = run.call("index.build", build_index, parsed.entries, IndexConfig(max_candidates=K))
    state.index_path = run.work / "stress.idx"
    run.call("index.save", save_index, state.index, str(state.index_path), observe=_observe_save_index)
    state.tables = build_admin_tables(parsed.entries)


def _synth(run: Run, state, n: int, seed: int):
    return run.call("synthgen.generate", generate_corpus, state.entries, state.tables, n, seed, observe=_observe_generate)


@dataclass
class State:
    entries: list = field(default_factory=list)
    tables: object = None
    index: object = None
    index_path: Path | None = None
    malformed_lines: int = 0
    gazetteer_lines: int = 0
    queries: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one timed unit produced. digest identifies its outputs, so
    repeated units can be checked for determinism."""

    digest: str
    stage_s: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


class ToyE2E:
    name = "toy-e2e"

    def setup(self, run: Run) -> State:
        state = State()
        entries = run.call("toygaz.build", build_toy_gazetteer)
        gaz = run.work / "toy_gazetteer.tsv"
        write_gazetteer_tsv(entries, str(gaz))
        state.extra["gazetteer"] = gaz
        return state

    def release(self, state: State) -> None:
        state.index = None

    def install(self, tracer) -> None:
        tracer.wrap(cli, "load_gazetteer", "gazetteer.parse", observe=_observe_parse)
        tracer.wrap(cli, "build_index", "index.build")
        tracer.wrap(cli, "save_index", "index.save", observe=_observe_save_index)
        tracer.wrap(cli, "load_index", "index.load")
        tracer.wrap(cli, "generate_corpus", "synthgen.generate", observe=_observe_generate)
        tracer.wrap(pipeline, "assemble_examples", "pipeline.assemble")
        tracer.wrap(cli, "train", "ranker.train", observe=_observe_train)
        tracer.wrap(cli, "save_model", "ranker.save")
        tracer.wrap(cli, "load_model", "ranker.load")
        tracer.wrap(cli, "resolve_corpus", "pipeline.resolve", observe=_observe_resolve)
        tracer.wrap(cli, "evaluate", "evaluation.evaluate")
        tracer.wrap(cli, "query_recall", "evaluation.query_recall")
        tracer.wrap_provider_factory(cli, "hashed_bow_provider")
        _wrap_resolution(tracer)

    def _paths(self, run: Run) -> dict[str, str]:
        names = {
            "index": "places.idx",
            "train": "train.jsonl",
            "heldout": "heldout.jsonl",
            "model": "ranker.bin",
            "records": "records.jsonl",
            "report": "report.json",
        }
        return {key: str(run.work / name) for key, name in names.items()}

    def unit(self, run: Run, state: State) -> Outcome:
        p = self._paths(run)
        gaz = str(state.extra["gazetteer"])
        seed = run.seed
        # the flags and seeds of scripts/run_synth_experiment.py
        argvs = [
            ["build-index", "--gazetteer", gaz, "--out", p["index"]],
            ["synth", "--gazetteer", gaz, "--out", p["train"], "--n", "2000", "--seed", str(seed + 11)],
            ["synth", "--gazetteer", gaz, "--out", p["heldout"], "--n", "500", "--seed", str(seed + 99)],
            ["train", "--index", p["index"], "--corpus", p["train"], "--out", p["model"],
             "--epochs", "15", "--score-mode", "logit", "--embedding-dim", "64",
             "--multitask-country-weight", "0.3", "--seed", str(seed)],
            ["parse", "--index", p["index"], "--model", p["model"], "--corpus", p["heldout"], "--out", p["records"]],
            ["evaluate", "--records", p["records"], "--index", p["index"], "--corpus", p["heldout"],
             "--eval-k", "50,500", "--out", p["report"]],
        ]
        stage_s: dict[str, float] = {}
        stdout: dict[str, str] = {}
        for argv in argvs:
            run.request(argv[0])
            start = perf_counter()
            run.attempt(f"cli.{argv[0]}", _cli_step, argv, stdout)
            stage_s[argv[0]] = stage_s.get(argv[0], 0.0) + perf_counter() - start
        digest = sha256_file(p["records"]) if os.path.exists(p["records"]) else "missing"
        return Outcome(digest=digest, stage_s=stage_s, data={"stdout": stdout})

    def query_loop(self, run: Run, state: State) -> QueryLoop:
        """Reads the unit's index and held-out corpus back."""
        p = self._paths(run)
        state.index = load_index(p["index"])
        state.index_path = Path(p["index"])
        state.extra["heldout"] = load_corpus(p["heldout"])
        state.queries = query_mix(state.extra["heldout"], run.seed + 5)
        return QueryLoop(run, state.index, state.queries)

    def summary(self, run: Run, state: State, out: Outcome):
        p = self._paths(run)
        with open(p["records"], encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        with open(p["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        entries = load_gazetteer(str(state.extra["gazetteer"])).entries
        docs = state.extra["heldout"]
        checks, quality = _record_checks(state, records, docs)
        checks.append(_scan_check(run, state, entries))
        baseline = quality["population_baseline_exact_match"]
        em, ar = report["exact_match"], report["abstention_recall"]
        checks.append(("exact_match >= 0.90", em >= 0.90, f"{em:.4f}"))
        checks.append(("exact_match >= population baseline", em >= baseline, f"{em:.4f} vs {baseline:.4f}"))
        checks.append(("abstention_recall >= 0.80", ar >= 0.80, f"{ar:.4f}"))
        trained = out.data["stdout"].get("train", "")
        examples = int(trained.rsplit("trained on ", 1)[1].split()[0]) if "trained on " in trained else 0
        quality.update(
            exact_match=em,
            abstention_recall=ar,
            missing_at_50=report["recall_at_k"]["50"],
            train_examples=examples,
            train_examples_per_s=examples * 15 / out.stage_s["train"],
            resolve_spans_per_s=len(records) / out.stage_s["parse"],
            spans=len(records),
        )
        digests = {"index": sha256_file(p["index"]), "model": sha256_file(p["model"]), "records": out.digest}
        return checks, quality, digests


def _cli_step(argv: list[str], stdout: dict[str, str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    stdout[argv[0]] = stdout.get(argv[0], "") + out.getvalue()
    if rc != 0:
        raise RuntimeError(f"placelink {argv[0]} exited {rc}: {err.getvalue().strip()}")


def _scan_check(run: Run, state: State, entries):
    ok, detail = check_scan(
        lambda text: [e.geoname_id for e, _ in query(state.index, text, K).candidates],
        ScanOracle(entries), state.queries, K, run.seed + 6, SCAN_SAMPLE,
    )
    return "retrieval equals exhaustive scan", ok, detail


def _record_checks(state: State, records: list[dict], docs):
    index = state.index

    def candidates_of(ann):
        entries = [e for e, _ in query(index, ann.surface, K).candidates]
        if ann.exclude_gold:
            entries = [e for e in entries if e.geoname_id != ann.gold_geoname_id]
        return entries

    ok, detail, quality = check_records(records, docs, candidates_of)
    return [("one record per annotation, predictions among candidates", ok, detail)], quality


class StressQuery:
    name = "stress-query"

    def setup(self, run: Run) -> State:
        state = State()
        _stress_world(run, state)
        # the timed phase reads the index from its file
        state.index = None
        docs = _synth(run, state, 1000, run.seed + 7)
        state.queries = query_mix(docs, run.seed + 8)
        return state

    def release(self, state: State) -> None:
        state.index = None

    def install(self, tracer) -> None:
        tracer.count_calls(index_mod, "bounded_edit_distance", "index.verify_calls", hits="index.verify_hits")

    def unit(self, run: Run, state: State) -> Outcome:
        start = perf_counter()
        state.index = run.call("index.load", load_index, str(state.index_path))
        loaded = perf_counter()
        loop = QueryLoop(run, state.index, state.queries)
        loop.send(len(state.queries))
        results = loop.first_pass
        done = perf_counter()
        digest = sha256_lines(json.dumps(ids) for ids in results)
        return Outcome(digest=digest, stage_s={"load": loaded - start, "queries": done - loaded}, data={"results": results})

    def query_loop(self, run: Run, state: State) -> QueryLoop:
        return QueryLoop(run, state.index, state.queries)

    def summary(self, run: Run, state: State, out: Outcome):
        results = out.data["results"]
        counts = [len(ids) for ids in results if ids is not None]
        checks = [_scan_check(run, state, state.entries)]
        quality = {
            "queries_per_unit": len(state.queries),
            "candidate_histogram": candidate_histogram(counts),
            "candidates_per_query": sum(counts) / len(counts) if counts else 0.0,
            "capped_share": sum(n >= K for n in counts) / len(counts) if counts else 0.0,
            "gazetteer_lines": state.gazetteer_lines,
            "gazetteer_malformed_lines": state.malformed_lines,
        }
        digests = {"index": sha256_file(state.index_path), "results": out.digest}
        return checks, quality, digests


class StressE2E:
    name = "stress-e2e"
    epochs = 3

    def setup(self, run: Run) -> State:
        state = State()
        _stress_world(run, state)
        seed = run.seed
        train_docs = augment_impossible(_synth(run, state, 500, seed + 11), IMPOSSIBLE_FRACTION, seed + 12)
        heldout = augment_impossible(_synth(run, state, 500, seed + 99), IMPOSSIBLE_FRACTION, seed + 100)
        state.extra["train"] = add_typos(train_docs, TYPO_SHARE, seed + 13)
        state.extra["heldout"] = add_typos(heldout, TYPO_SHARE, seed + 101)
        state.extra["provider"] = hashed_bow_provider(PROVIDER_DIM, seed)
        state.extra["countries"] = sorted({e.country_code for e in state.entries if e.country_code})
        state.extra["classes"] = sorted({e.feature_class for e in state.entries})
        state.queries = query_mix(state.extra["heldout"], seed + 5)
        return state

    def release(self, state: State) -> None:
        pass

    def install(self, tracer) -> None:
        _wrap_resolution(tracer)

    def unit(self, run: Run, state: State) -> Outcome:
        provider = state.extra["provider"]
        if run.live:
            provider = TimedProvider(provider, run.tracer)
        index, tables = state.index, state.tables
        marks = [perf_counter()]
        examples = []
        for doc in state.extra["train"]:
            run.request(doc.doc_id)
            ok, got = run.attempt("pipeline.assemble", assemble_examples, [doc], index, provider, tables, K)
            if ok:
                examples.extend(got)
        marks.append(perf_counter())
        config = RankerConfig(
            epochs=self.epochs, score_mode="logit", embedding_dim=64,
            multitask_country_weight=0.3, seed=run.seed,
        )
        model = RankerModel.initialize(
            countries=state.extra["countries"],
            feature_classes=state.extra["classes"],
            provider_dim=PROVIDER_DIM,
            config=config,
            metadata={"provider": "hashed_bow", "provider_seed": run.seed},
        )
        run.request("train")
        run.attempt("ranker.train", train, model, examples, observe=_observe_train)
        marks.append(perf_counter())
        records = []
        for doc in state.extra["heldout"]:
            run.request(doc.doc_id)
            ok, got = run.attempt("pipeline.resolve", resolve_corpus, [doc], index, model, provider, tables, K,
                                  observe=_observe_resolve)
            if ok:
                records.extend(got)
        marks.append(perf_counter())
        run.request("evaluate")
        _, report = run.attempt("evaluation.evaluate", evaluate, records)
        _, missing = run.attempt("evaluation.query_recall", query_recall, index, state.extra["heldout"], [K])
        marks.append(perf_counter())
        lines = [json.dumps(dataclasses.asdict(r), ensure_ascii=False, sort_keys=True) for r in records]
        stage_s = dict(zip(("assemble", "train", "resolve", "evaluate"), np.diff(marks).tolist()))
        return Outcome(
            digest=sha256_lines(lines),
            stage_s=stage_s,
            data={"model": model, "records": lines, "report": report, "missing": missing, "examples": examples},
        )

    def query_loop(self, run: Run, state: State) -> QueryLoop:
        return QueryLoop(run, state.index, state.queries)

    def summary(self, run: Run, state: State, out: Outcome):
        records = [json.loads(line) for line in out.data["records"]]
        checks, quality = _record_checks(state, records, state.extra["heldout"])
        checks.append(_scan_check(run, state, state.entries))
        model_path = run.work / "stress_ranker.bin"
        save_model(out.data["model"], str(model_path))
        report, missing, examples = out.data["report"], out.data["missing"], out.data["examples"]
        quality.update(
            exact_match=report.exact_match if report else 0.0,
            abstention_recall=report.abstention_recall if report else 0.0,
            missing_at_50=missing[K] if missing else 1.0,
            train_examples=len(examples),
            candidates_per_example=sum(len(ex.features) for ex in examples) / max(1, len(examples)),
            train_examples_per_s=len(examples) * self.epochs / out.stage_s["train"],
            resolve_spans_per_s=len(records) / out.stage_s["resolve"],
            spans=len(records),
            gazetteer_lines=state.gazetteer_lines,
            gazetteer_malformed_lines=state.malformed_lines,
        )
        digests = {"index": sha256_file(state.index_path), "model": sha256_file(model_path), "records": out.digest}
        return checks, quality, digests


WORKLOADS = {w.name: w for w in (ToyE2E(), StressQuery(), StressE2E())}
