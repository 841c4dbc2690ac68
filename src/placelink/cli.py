"""Command-line entry point.

Subcommands wire the library into reproducible workflows: build-index, query,
synth, train, parse, evaluate. Every option can come from a `key = value`
config file via --config, keyed by the flag's dest (`out_path` for --out),
with explicit flags taking precedence, and all randomness flows from the
single --seed value.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace

from placelink.corpus import load_corpus, save_corpus
from placelink.evaluation import evaluate, format_report, query_recall
from placelink.features import hashed_bow_provider
from placelink.gazetteer import AdminTables, build_admin_tables, load_gazetteer
from placelink.index import IndexConfig, build_index, load_index, query, save_index
from placelink.pipeline import dictionary_extract, load_records, locate_event, resolve_corpus
from placelink.ranker import RankerConfig, RankerModel, load_model, save_model, train
from placelink.synthgen import augment_impossible, generate_corpus


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    # argparse has no public accessor for a parser's subparsers or actions
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def config_keys(parser: argparse.ArgumentParser) -> set[str]:
    """The keys a config file may set: the dest of every flag of every
    subcommand (`out_path` for --out), except --config itself."""
    return {
        a.dest for sub in _subcommands(parser).values() for a in sub._actions
    } - {"help", "config"}


def _config_value(action: argparse.Action, raw: str):
    if action.nargs == 0:  # a store_true switch
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError("expected a boolean")
    value = action.type(raw) if action.type else raw
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"expected one of {', '.join(map(str, action.choices))}")
    return value


def load_config_file(path: str, parser: argparse.ArgumentParser, command: str) -> dict:
    """Read a `key = value` file into defaults for one subcommand. Each value
    is converted and checked like the flag it stands for; keys that belong
    only to other subcommands are accepted and ignored."""
    known = config_keys(parser)
    actions = {a.dest: a for a in _subcommands(parser)[command]._actions}
    values = {}
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    # each line is decoded on its own, so invalid UTF-8 is reported at its line
    for lineno, line in enumerate(lines, start=1):
        try:
            stripped = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid UTF-8: {exc}") from exc
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in actions:
            try:
                values[key] = _config_value(actions[key], raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {key} {raw!r}: {exc}") from exc
    return values


def _require(args: argparse.Namespace, dest: str, flag: str) -> str:
    value = getattr(args, dest)
    if not value:
        raise ValueError(f"missing required option {flag}")
    return value


def admin_tables(index) -> AdminTables:
    """The admin tables of an index, built from its ADM1 rows alone so that
    no other entry is materialised."""
    return build_admin_tables(index.entries(index.rows_where("feature_code", "ADM1")))


def _resolve(args: argparse.Namespace, index, docs):
    """Load the model, the admin tables and the model's provider, then
    resolve every annotation of the corpus."""
    model = load_model(args.model_path)
    tables = admin_tables(index)
    seed = int(model.metadata.get("provider_seed", args.seed))
    provider = hashed_bow_provider(model.provider_dim, seed)
    return resolve_corpus(docs, index, model, provider, tables, args.k)


def cmd_build_index(args: argparse.Namespace) -> int:
    gazetteer_path = _require(args, "gazetteer_path", "--gazetteer")
    out_path = _require(args, "out_path", "--out")
    classes = frozenset(c.strip() for c in args.classes.split(",") if c.strip()) or None
    result = load_gazetteer(gazetteer_path, feature_classes=classes)
    config = IndexConfig() if args.k is None else IndexConfig(max_candidates=args.k)
    index = build_index(result.entries, config)
    save_index(index, out_path)
    print(
        f"indexed {len(index)} entries, {index.name_count} names "
        f"({result.malformed_count} malformed lines skipped) -> {out_path}"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    index_path = _require(args, "index_path", "--index")
    name = _require(args, "name", "--name")
    index = load_index(index_path)
    candidates = query(index, name, args.k)
    if args.output_format == "jsonl":
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
    gazetteer_path = _require(args, "gazetteer_path", "--gazetteer")
    out_path = _require(args, "out_path", "--out")
    result = load_gazetteer(gazetteer_path)
    tables = build_admin_tables(result.entries)
    docs = generate_corpus(result.entries, tables, args.n, args.seed)
    # derived stream so generation and augmentation stay independent
    docs = augment_impossible(docs, args.impossible_fraction, args.seed + 1)
    save_corpus(docs, out_path)
    flagged = sum(1 for d in docs for a in d.annotations if a.exclude_gold)
    total = sum(len(d.annotations) for d in docs)
    print(f"wrote {len(docs)} documents, {total} annotations ({flagged} impossible) -> {out_path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from placelink.pipeline import assemble_examples

    index_path = _require(args, "index_path", "--index")
    corpus_path = _require(args, "corpus_path", "--corpus")
    out_path = _require(args, "out_path", "--out")
    index = load_index(index_path)
    tables = admin_tables(index)
    provider = hashed_bow_provider(args.provider_dim, args.seed)
    docs = load_corpus(corpus_path)
    examples = assemble_examples(docs, index, provider, tables, args.k)
    if not examples:
        raise ValueError("corpus produced no trainable examples")
    model = RankerModel.initialize(
        countries=sorted(index.column_values("country_code") - {""}),
        feature_classes=sorted(index.column_values("feature_class")),
        provider_dim=args.provider_dim,
        config=RankerConfig(**{f.name: getattr(args, f.name) for f in fields(RankerConfig)}),
        metadata={"provider": "hashed_bow", "provider_seed": args.seed},
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
    index_path = _require(args, "index_path", "--index")
    _require(args, "model_path", "--model")
    corpus_path = _require(args, "corpus_path", "--corpus")
    out_path = _require(args, "out_path", "--out")
    index = load_index(index_path)
    docs = load_corpus(corpus_path)
    if args.extract:
        docs = [
            doc if doc.annotations else replace(doc, annotations=dictionary_extract(doc.text, index))
            for doc in docs
        ]
    records = _resolve(args, index, docs)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record), ensure_ascii=False, sort_keys=True) + "\n")
    abstained = sum(1 for r in records if r.abstained)
    print(f"resolved {len(records)} spans ({abstained} abstentions) -> {out_path}")
    if args.locate_events:
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
    index = docs = None
    if args.index_path and args.corpus_path:
        index = load_index(args.index_path)
        docs = load_corpus(args.corpus_path)
    if args.records_path:
        records = load_records(args.records_path)
    elif args.model_path and docs is not None:
        records = _resolve(args, index, docs)
    else:
        raise ValueError("need --records, or --model with --index and --corpus")
    report = evaluate(records)
    if docs is not None:
        k_values = [int(k) for k in args.eval_k.split(",") if k.strip()]
        report.recall_at_k = query_recall(index, docs, k_values)
    print(format_report(report))
    if args.out_path:
        payload = asdict(report)
        # string keys, so sort_keys orders them as text as it always has
        payload["recall_at_k"] = {str(k): v for k, v in report.recall_at_k.items()}
        with open(args.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


_K_HELP = "max candidates per query (default: the index's own max_candidates)"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file; flags override it")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="placelink", description="Gazetteer-backed toponym resolution."
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build-index", help="parse a gazetteer dump and write an index file")
    _add_common(p)
    p.add_argument("--gazetteer", dest="gazetteer_path")
    p.add_argument("--out", dest="out_path")
    p.add_argument("--classes", default="", help="comma-separated feature classes to keep")
    p.add_argument("--k", type=int, help="max candidates per query, stored in the index")
    p.set_defaults(func=cmd_build_index)

    p = subs.add_parser("query", help="look up candidates for one name")
    _add_common(p)
    p.add_argument("--index", dest="index_path")
    p.add_argument("--name")
    p.add_argument("--k", type=int, help=_K_HELP)
    p.add_argument("--format", dest="output_format", default="table", choices=("table", "jsonl"))
    p.set_defaults(func=cmd_query)

    p = subs.add_parser("synth", help="generate a synthetic annotated corpus")
    _add_common(p)
    p.add_argument("--gazetteer", dest="gazetteer_path")
    p.add_argument("--out", dest="out_path")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--impossible-fraction", type=float, default=0.1)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train", help="train a ranking model on an annotated corpus")
    _add_common(p)
    p.add_argument("--index", dest="index_path")
    p.add_argument("--corpus", dest="corpus_path")
    p.add_argument("--out", dest="out_path")
    p.add_argument("--k", type=int, help=_K_HELP)
    p.add_argument("--provider-dim", type=int, default=256)
    # one flag per RankerConfig field, with its default; --seed is common
    for f in fields(RankerConfig):
        if f.name == "seed":
            continue
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=type(f.default), default=f.default, choices=f.metadata.get("choices"))
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("parse", help="resolve every toponym in a corpus")
    _add_common(p)
    p.add_argument("--index", dest="index_path")
    p.add_argument("--model", dest="model_path")
    p.add_argument("--corpus", dest="corpus_path")
    p.add_argument("--out", dest="out_path")
    p.add_argument("--k", type=int, help=_K_HELP)
    p.add_argument(
        "--extract",
        action="store_true",
        help="dictionary-extract spans for documents without annotations",
    )
    p.add_argument(
        "--locate-events",
        action="store_true",
        help="report an event location per document with a trigger span",
    )
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("evaluate", help="score resolution records against gold")
    _add_common(p)
    p.add_argument("--records", dest="records_path")
    p.add_argument("--corpus", dest="corpus_path")
    p.add_argument("--index", dest="index_path")
    p.add_argument("--model", dest="model_path")
    p.add_argument("--k", type=int, help=_K_HELP)
    p.add_argument("--eval-k", default="50,500", help="comma-separated retrieval depths")
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
        if args.config:
            # file values become the subcommand's defaults, so flags still win
            defaults = load_config_file(args.config, parser, args.command)
            _subcommands(parser)[args.command].set_defaults(**defaults)
            args = parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
