"""Command-line entry point.

Subcommands wire the library into reproducible workflows: build-index, query,
synth, train, parse, evaluate. Every option can come from a `key = value`
config file via --config, with explicit flags taking precedence, and all
randomness flows from the single --seed value.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields, replace

from placelink.corpus import load_corpus, save_corpus
from placelink.evaluation import evaluate, format_report, query_recall
from placelink.features import hashed_bow_provider
from placelink.gazetteer import build_admin_tables, load_gazetteer
from placelink.index import IndexConfig, build_index, load_index, query, save_index
from placelink.pipeline import dictionary_extract, load_records, locate_event, resolve_corpus
from placelink.ranker import (
    RankerConfig,
    RankerModel,
    load_model,
    save_model,
    train,
)
from placelink.synthgen import augment_impossible, generate_corpus


@dataclass
class RunConfig:
    gazetteer_path: str = ""
    index_path: str = ""
    model_path: str = ""
    corpus_path: str = ""
    records_path: str = ""
    out_path: str = ""
    name: str = ""
    output_format: str = "table"
    classes: str = ""
    k: int = 50
    n: int = 100
    seed: int = 0
    provider_dim: int = 256
    impossible_fraction: float = 0.1
    epochs: int = 15
    batch_size: int = 60
    dropout: float = 0.3
    learning_rate: float = 0.4
    embedding_dim: int = 32
    hidden_dim: int = 64
    gradient_accumulation_steps: int = 1
    multitask_country_weight: float = 0.0
    score_mode: str = "sigmoid"
    use_population_feature: bool = True
    eval_k: str = "50,500"
    extract: bool = False
    locate_events: bool = False


def _coerce(kind: type, raw: str):
    if kind is bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return kind(raw.strip())


def load_config_file(path: str) -> dict[str, str]:
    known = {f.name for f in fields(RunConfig)}
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for f in fields(RunConfig):
        if f.name in file_values:
            setattr(cfg, f.name, _coerce(type(f.default), file_values[f.name]))
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            setattr(cfg, f.name, flag_value)
    return cfg


def _require(cfg: RunConfig, field_name: str, flag: str) -> str:
    value = getattr(cfg, field_name)
    if not value:
        raise ValueError(f"missing required option {flag}")
    return value


def _ranker_config(cfg: RunConfig) -> RankerConfig:
    return RankerConfig(
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        dropout=cfg.dropout,
        learning_rate=cfg.learning_rate,
        embedding_dim=cfg.embedding_dim,
        hidden_dim=cfg.hidden_dim,
        gradient_accumulation_steps=cfg.gradient_accumulation_steps,
        multitask_country_weight=cfg.multitask_country_weight,
        seed=cfg.seed,
        score_mode=cfg.score_mode,
        use_population_feature=cfg.use_population_feature,
    )


def _provider_for_model(model: RankerModel, cfg: RunConfig):
    seed = int(model.metadata.get("provider_seed", cfg.seed))
    return hashed_bow_provider(model.provider_dim, seed)


def cmd_build_index(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    gazetteer_path = _require(cfg, "gazetteer_path", "--gazetteer")
    out_path = _require(cfg, "out_path", "--out")
    classes = frozenset(c.strip() for c in cfg.classes.split(",") if c.strip()) or None
    result = load_gazetteer(gazetteer_path, feature_classes=classes)
    index = build_index(result.entries, IndexConfig(max_candidates=cfg.k))
    save_index(index, out_path)
    print(
        f"indexed {len(index)} entries, {index.name_count} names "
        f"({result.malformed_count} malformed lines skipped) -> {out_path}"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    index_path = _require(cfg, "index_path", "--index")
    name = _require(cfg, "name", "--name")
    index = load_index(index_path)
    candidates = query(index, name, cfg.k)
    if cfg.output_format == "jsonl":
        for entry, score in candidates.candidates:
            print(
                json.dumps(
                    {
                        "geoname_id": entry.geoname_id,
                        "name": entry.name,
                        "country": entry.country_code,
                        "admin1": entry.admin1_code,
                        "lat": entry.latitude,
                        "lon": entry.longitude,
                        "population": entry.population,
                        "retrieval_score": score,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
            )
    else:
        for entry, score in candidates.candidates:
            print(
                f"{entry.geoname_id}\t{entry.name}\t{entry.country_code}\t"
                f"{entry.admin1_code}\t{entry.latitude}\t{entry.longitude}\t"
                f"{entry.population}\t{score:.3f}"
            )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    gazetteer_path = _require(cfg, "gazetteer_path", "--gazetteer")
    out_path = _require(cfg, "out_path", "--out")
    result = load_gazetteer(gazetteer_path)
    tables = build_admin_tables(result.entries)
    docs = generate_corpus(result.entries, tables, cfg.n, cfg.seed)
    # derived stream so generation and augmentation stay independent
    docs = augment_impossible(docs, cfg.impossible_fraction, cfg.seed + 1)
    save_corpus(docs, out_path)
    flagged = sum(1 for d in docs for a in d.annotations if a.exclude_gold)
    total = sum(len(d.annotations) for d in docs)
    print(f"wrote {len(docs)} documents, {total} annotations ({flagged} impossible) -> {out_path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from placelink.pipeline import assemble_examples

    cfg = _build_run_config(args)
    index_path = _require(cfg, "index_path", "--index")
    corpus_path = _require(cfg, "corpus_path", "--corpus")
    out_path = _require(cfg, "out_path", "--out")
    index = load_index(index_path)
    entries = index.entries()
    tables = build_admin_tables(entries)
    provider = hashed_bow_provider(cfg.provider_dim, cfg.seed)
    docs = load_corpus(corpus_path)
    examples = assemble_examples(docs, index, provider, tables, cfg.k)
    if not examples:
        raise ValueError("corpus produced no trainable examples")
    ranker_config = _ranker_config(cfg)
    model = RankerModel.initialize(
        countries=sorted({e.country_code for e in entries if e.country_code}),
        feature_classes=sorted({e.feature_class for e in entries}),
        provider_dim=cfg.provider_dim,
        config=ranker_config,
        metadata={"provider": "hashed_bow", "provider_seed": cfg.seed},
    )
    model, history = train(model, examples)
    for stats in history:
        print(
            f"epoch {stats.epoch}: loss {stats.train_loss:.4f} "
            f"accuracy {stats.train_accuracy:.4f}"
        )
    save_model(model, out_path)
    print(f"trained on {len(examples)} examples -> {out_path}")
    return 0


def cmd_parse(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    index_path = _require(cfg, "index_path", "--index")
    model_path = _require(cfg, "model_path", "--model")
    corpus_path = _require(cfg, "corpus_path", "--corpus")
    out_path = _require(cfg, "out_path", "--out")
    index = load_index(index_path)
    model = load_model(model_path)
    tables = build_admin_tables(index.entries())
    provider = _provider_for_model(model, cfg)
    docs = load_corpus(corpus_path)
    if cfg.extract:
        docs = [
            doc if doc.annotations else replace(doc, annotations=dictionary_extract(doc.text, index))
            for doc in docs
        ]
    records = resolve_corpus(docs, index, model, provider, tables, cfg.k)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record), ensure_ascii=False, sort_keys=True) + "\n")
    abstained = sum(1 for r in records if r.abstained)
    print(f"resolved {len(records)} spans ({abstained} abstentions) -> {out_path}")
    if cfg.locate_events:
        by_doc: dict[str, list] = {}
        for record in records:
            by_doc.setdefault(record.doc_id, []).append(record)
        for doc in docs:
            outcome = locate_event(doc, by_doc.get(doc.doc_id, []))
            if outcome.record is not None:
                where = f"{outcome.record.query_text} ({outcome.record.predicted_geoname_id})"
            else:
                where = "-"
            print(f"event {doc.doc_id}: {outcome.status} {where}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _build_run_config(args)
    index = docs = None
    if cfg.index_path and cfg.corpus_path:
        index = load_index(cfg.index_path)
        docs = load_corpus(cfg.corpus_path)
    if cfg.records_path:
        records = load_records(cfg.records_path)
    elif cfg.model_path and docs is not None:
        model = load_model(cfg.model_path)
        tables = build_admin_tables(index.entries())
        records = resolve_corpus(docs, index, model, _provider_for_model(model, cfg), tables, cfg.k)
    else:
        raise ValueError("need --records, or --model with --index and --corpus")
    report = evaluate(records)
    if docs is not None:
        k_values = [int(k) for k in cfg.eval_k.split(",") if k.strip()]
        report.recall_at_k = query_recall(index, docs, k_values)
    print(format_report(report))
    if cfg.out_path:
        payload = asdict(report)
        # string keys, so sort_keys orders them as text as it always has
        payload["recall_at_k"] = {str(k): v for k, v in report.recall_at_k.items()}
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file; flags override it")
    sub.add_argument("--seed", type=int, dest="seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="placelink", description="Gazetteer-backed toponym resolution."
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build-index", help="parse a gazetteer dump and write an index file")
    _add_common(p)
    p.add_argument("--gazetteer", dest="gazetteer_path")
    p.add_argument("--out", dest="out_path")
    p.add_argument("--classes", dest="classes", help="comma-separated feature classes to keep")
    p.add_argument("--k", type=int, dest="k", help="max candidates per query")
    p.set_defaults(func=cmd_build_index)

    p = subs.add_parser("query", help="look up candidates for one name")
    _add_common(p)
    p.add_argument("--index", dest="index_path")
    p.add_argument("--name", dest="name")
    p.add_argument("--k", type=int, dest="k")
    p.add_argument("--format", dest="output_format", choices=("table", "jsonl"))
    p.set_defaults(func=cmd_query)

    p = subs.add_parser("synth", help="generate a synthetic annotated corpus")
    _add_common(p)
    p.add_argument("--gazetteer", dest="gazetteer_path")
    p.add_argument("--out", dest="out_path")
    p.add_argument("--n", type=int, dest="n")
    p.add_argument("--impossible-fraction", type=float, dest="impossible_fraction")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="train a ranking model on an annotated corpus")
    _add_common(p)
    p.add_argument("--index", dest="index_path")
    p.add_argument("--corpus", dest="corpus_path")
    p.add_argument("--out", dest="out_path")
    p.add_argument("--k", type=int, dest="k")
    p.add_argument("--provider-dim", type=int, dest="provider_dim")
    p.add_argument("--epochs", type=int, dest="epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--dropout", type=float, dest="dropout")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--embedding-dim", type=int, dest="embedding_dim")
    p.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    p.add_argument(
        "--gradient-accumulation-steps", type=int, dest="gradient_accumulation_steps"
    )
    p.add_argument("--multitask-country-weight", type=float, dest="multitask_country_weight")
    p.add_argument("--score-mode", dest="score_mode", choices=("sigmoid", "logit"))
    p.add_argument(
        "--use-population-feature",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="use_population_feature",
    )
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("parse", help="resolve every toponym in a corpus")
    _add_common(p)
    p.add_argument("--index", dest="index_path")
    p.add_argument("--model", dest="model_path")
    p.add_argument("--corpus", dest="corpus_path")
    p.add_argument("--out", dest="out_path")
    p.add_argument("--k", type=int, dest="k")
    p.add_argument(
        "--extract",
        action="store_true",
        default=None,
        dest="extract",
        help="dictionary-extract spans for documents without annotations",
    )
    p.add_argument(
        "--locate-events",
        action="store_true",
        default=None,
        dest="locate_events",
        help="report an event location per document with a trigger span",
    )
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("evaluate", help="score resolution records against gold")
    _add_common(p)
    p.add_argument("--records", dest="records_path")
    p.add_argument("--corpus", dest="corpus_path")
    p.add_argument("--index", dest="index_path")
    p.add_argument("--model", dest="model_path")
    p.add_argument("--k", type=int, dest="k")
    p.add_argument("--eval-k", dest="eval_k", help="comma-separated retrieval depths")
    p.add_argument("--out", dest="out_path", help="also write the report as JSON")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
