#!/usr/bin/env python3
"""Ranker ablations on one synthetic world.

Trains several configurations on the same corpus and prints a comparison
table: scoring mode and multitask country supervision.
"""

import argparse
import time

from placelink.evaluation import evaluate
from placelink.features import hashed_bow_provider
from placelink.gazetteer import build_admin_tables
from placelink.index import IndexConfig, build_index
from placelink.pipeline import assemble_examples, resolve_corpus
from placelink.ranker import RankerConfig, RankerModel, train
from placelink.synthgen import augment_impossible, generate_corpus
from placelink.toygaz import build_toy_gazetteer

VARIANTS = [
    ("sigmoid scores", {}),
    ("logit scores", {"score_mode": "logit"}),
    ("logit + multitask 0.3", {"score_mode": "logit", "multitask_country_weight": 0.3}),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-train", type=int, default=800)
    ap.add_argument("--n-heldout", type=int, default=400)
    ap.add_argument("--epochs", type=int, default=15)
    ap.add_argument("--provider-dim", type=int, default=256)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    entries = build_toy_gazetteer()
    tables = build_admin_tables(entries)
    index = build_index(entries, IndexConfig())
    provider = hashed_bow_provider(args.provider_dim, args.seed)
    train_docs = augment_impossible(
        generate_corpus(entries, tables, args.n_train, args.seed + 11), 0.1, args.seed + 12
    )
    held_docs = augment_impossible(
        generate_corpus(entries, tables, args.n_heldout, args.seed + 99), 0.1, args.seed + 100
    )
    examples = assemble_examples(train_docs, index, provider, tables, 50)
    print(f"{len(entries)} entries, {len(examples)} training examples\n")

    header = f"{'variant':34} {'exact':>7} {'abst rec':>9} {'abst false':>11} {'sec':>5}"
    print(header)
    print("-" * len(header))
    for label, overrides in VARIANTS:
        cfg = RankerConfig(epochs=args.epochs, seed=args.seed, **overrides)
        model = RankerModel.initialize(
            countries=sorted({e.country_code for e in entries if e.country_code}),
            feature_classes=sorted({e.feature_class for e in entries}),
            provider_dim=args.provider_dim,
            config=cfg,
            metadata={"provider": "hashed_bow", "provider_seed": args.seed},
        )
        t0 = time.monotonic()
        model, _ = train(model, examples)
        records = resolve_corpus(held_docs, index, model, provider, tables, 50)
        report = evaluate(records)
        print(
            f"{label:34} {report.exact_match * 100:6.2f}% "
            f"{report.abstention_recall * 100:8.2f}% "
            f"{report.abstention_false_rate * 100:10.2f}% "
            f"{time.monotonic() - t0:5.0f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
