#!/usr/bin/env python3
"""placelink benchmark.

    python3 perfbench/run.py --workload toy-e2e --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ./src. The
workload's inputs come from --seed. The run sets up the workload several
times (setup_s is the median), repeats the timed unit of work until
--seconds have passed (wall_s is the median), then measures query latency,
cold CLI queries and peak memory, and checks the outputs. With --trace 1 it
sets up once, runs one untraced unit and one traced unit, and reports the
per-layer metrics of BENCHMARK.json instead of the end-to-end ones.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The exit code is 1 when a check fails and 2 when the
program cannot be found or the tracing cannot attach.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# Set-up, the latency windows and the cold queries each repeat until both
# their minimum count and their minimum time are reached, so that cheap ones
# are sampled often and dear ones at least the minimum number of times.
SETUP_MIN, SETUP_MIN_S = 2, 1.0
WINDOWS_MIN, WINDOWS_MIN_S = 4, 2.0
COLD_MIN, COLD_MIN_S = 3, 3.0
# queries per latency window: 10 samples lie beyond a window's 99th percentile
LATENCY_WINDOW = 1000


def _import_program() -> None:
    package = SRC / "placelink"
    if not (package / "__init__.py").is_file():
        print(f"error: no placelink package under {SRC}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import placelink

    if Path(placelink.__file__).resolve().parent != package.resolve():
        print(f"error: placelink was imported from {placelink.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- environment --------------------------------------------------------------


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def _blas_threads():
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def _environment(seed: int) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# -- metrics ------------------------------------------------------------------


def _window_median_ms(windows: list[list[int]], q: float) -> float:
    """Median over the latency windows of each window's q-th percentile. The
    windows alternate with the cold queries, so a burst of load on the host
    moves the windows it overlaps and not the result."""
    return float(np.median([np.percentile(w, q) for w in windows])) / 1e6


def _layer_values(tracer, quality: dict, overhead_s: float) -> dict:
    totals = tracer.totals()
    c = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "toygaz.build_s": secs("toygaz.build"),
        "synthgen.generate_s": secs("synthgen.generate"),
        "synthgen.annotations": c["synthgen.annotations"],
        "gazetteer.parse_s": secs("gazetteer.parse"),
        "gazetteer.lines": c["gazetteer.lines"],
        "gazetteer.malformed_lines": c["gazetteer.malformed_lines"],
        "index.build_s": secs("index.build"),
        "index.save_s": secs("index.save"),
        "index.file_bytes": c["index.file_bytes"],
        "index.load_s": secs("index.load"),
        "index.query_calls": calls("index.query"),
        "index.query_s": secs("index.query"),
        "index.candidates_per_query": ratio(c["index.candidates"], calls("index.query")),
        "index.capped_share": ratio(c["index.capped"], calls("index.query")),
        "index.verify_calls": c["index.verify_calls"],
        "index.verify_hit_share": ratio(c["index.verify_hits"], c["index.verify_calls"]),
        "features.embed_calls": calls("features.embed"),
        "features.embed_s": secs("features.embed"),
        "features.candidate_features_calls": calls("features.candidate_features"),
        "features.candidate_features_s": secs("features.candidate_features"),
        "features.edit_distance_calls": c["features.edit_distance_calls"],
        "ranker.train_s": secs("ranker.train"),
        "ranker.train_examples": c["ranker.train_examples"],
        "ranker.candidates_per_example": ratio(c["ranker.train_candidates"], c["ranker.train_examples"]),
        "ranker.train_examples_per_s": ratio(c["ranker.train_example_epochs"], secs("ranker.train")),
        "ranker.score_calls": calls("ranker.score"),
        "ranker.score_s": secs("ranker.score"),
        "ranker.save_s": secs("ranker.save"),
        "ranker.load_s": secs("ranker.load"),
        "pipeline.assemble_s": secs("pipeline.assemble"),
        "pipeline.assemble_self_s": own("pipeline.assemble"),
        "pipeline.resolve_s": secs("pipeline.resolve"),
        "pipeline.resolve_self_s": own("pipeline.resolve"),
        "pipeline.resolve_spans_per_s": ratio(c["pipeline.resolved_spans"], secs("pipeline.resolve")),
        "pipeline.abstain_no_candidates": quality.get("abstain_no_candidates", 0),
        "pipeline.abstain_ranker": quality.get("abstain_ranker", 0),
        "evaluation.evaluate_s": secs("evaluation.evaluate"),
        "evaluation.query_recall_s": secs("evaluation.query_recall"),
        "evaluation.exact_match": quality.get("exact_match", 0.0),
        "evaluation.abstention_recall": quality.get("abstention_recall", 0.0),
        "trace.overhead_s": overhead_s,
    }
    for step in ("build-index", "synth", "train", "parse", "evaluate"):
        values[f"cli.{step}_s"] = secs(f"cli.{step}")
    return values


# -- the run ------------------------------------------------------------------


def _fresh_dir(run, name: str) -> None:
    """Point run.work at a new directory. Every set-up and unit writes into
    fresh files: overwriting a file costs more than writing a new one."""
    run.work = run.base / name
    run.work.mkdir(parents=True)


def _measure(workload, run, seconds: int, traced: bool) -> dict:
    from harness import K, cold_query, recall
    from placelink.index import query

    setup_s = []
    began = perf_counter()
    while not setup_s or not traced and (len(setup_s) < SETUP_MIN or perf_counter() - began < SETUP_MIN_S):
        state = None
        gc.collect()
        _fresh_dir(run, f"setup{len(setup_s)}")
        run.live = traced
        start = perf_counter()
        state = workload.setup(run)
        setup_s.append(perf_counter() - start)

    unit_s, digests = [], []
    overhead_s = None
    windows, cold_s, cold_agree = [], [], []
    if traced:
        run.live = False
        workload.release(state)
        _fresh_dir(run, "untraced")
        gc.collect()
        start = perf_counter()
        out = workload.unit(run, state)
        untraced_s = perf_counter() - start
        digests.append(out.digest)
        run.live = True
        workload.install(run.tracer)
        try:
            workload.release(state)
            _fresh_dir(run, "traced")
            gc.collect()
            start = perf_counter()
            out = workload.unit(run, state)
            unit_s.append(perf_counter() - start)
            digests.append(out.digest)
            # one pass, so that the traced counts repeat exactly
            loop = workload.query_loop(run, state)
            loop.send(len(loop.queries))
        finally:
            run.live = False
            run.tracer.uninstall()
        overhead_s = unit_s[0] - untraced_s
        peak_rss_mb = None
    else:
        began = perf_counter()
        while True:
            workload.release(state)
            _fresh_dir(run, f"unit{len(unit_s)}")
            gc.collect()
            start = perf_counter()
            out = workload.unit(run, state)
            unit_s.append(perf_counter() - start)
            digests.append(out.digest)
            if perf_counter() - began >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gc.collect()
        loop = workload.query_loop(run, state)

        # latency windows alternate with cold CLI queries
        names = [state.queries[int(i)].text for i in np.random.default_rng(run.seed + 9).permutation(len(state.queries))]
        query_s = cold_total = 0.0
        while True:
            want_window = len(windows) < WINDOWS_MIN or query_s < WINDOWS_MIN_S or loop.sent < len(loop.queries)
            want_cold = len(cold_agree) < COLD_MIN or cold_total < COLD_MIN_S
            if not (want_window or want_cold):
                break
            if want_window:
                start = perf_counter()
                windows.append(loop.send(LATENCY_WINDOW))
                query_s += perf_counter() - start
            if want_cold:
                name = names[len(cold_agree) % len(names)]
                start = perf_counter()
                elapsed, printed = cold_query(run, state.index_path, name)
                cold_total += perf_counter() - start
                if elapsed is not None:
                    cold_s.append(elapsed)
                top = query(state.index, name, K).candidates
                cold_agree.append(elapsed is not None and printed == (top[0][0].geoname_id if top else None))

    checks, quality, digests_out = workload.summary(run, state, out)
    checks.append(("repeated units give identical outputs", len(set(digests)) == 1, f"{len(digests)} units"))
    if cold_agree:
        checks.append(("cold CLI query prints the in-process first candidate", all(cold_agree), f"{sum(cold_agree)}/{len(cold_agree)}"))
    checks.append(("no operation failed", run.failed == 0, f"{run.failed} of {run.attempted} failed"))
    windows = [w for w in windows if w]
    return {
        "setup_s": setup_s,
        "unit_s": unit_s,
        "stage_s": out.stage_s,
        "overhead_s": overhead_s,
        "peak_rss_mb": peak_rss_mb,
        "cold_s": cold_s,
        "latency_samples": sum(len(w) for w in windows),
        "latency_windows": len(windows),
        "query_p50_ms": _window_median_ms(windows, 50) if windows else None,
        "query_p99_ms": _window_median_ms(windows, 99) if windows else None,
        "recall_at_50": recall(loop.queries, loop.first_pass),
        "queries": len(loop.queries),
        "checks": checks,
        "quality": quality,
        "digests": digests_out,
    }


def _end_to_end(m: dict) -> dict:
    return {
        "setup_s": statistics.median(m["setup_s"]),
        "wall_s": statistics.median(m["unit_s"]),
        "peak_rss_mb": m["peak_rss_mb"],
        "cold_query_s": statistics.median(m["cold_s"]) if m["cold_s"] else None,
        "query_p50_ms": m["query_p50_ms"],
        "query_p99_ms": m["query_p99_ms"],
        "recall_at_50": m["recall_at_50"],
    }


def _print_block(title: str, items: dict) -> None:
    print(f"== {title}")
    for key, value in items.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        print(f"  {key}: {value}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="placelink benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    _import_program()
    spec = _spec()
    from harness import Run
    from spans import TraceError, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"run-{tag}-{os.getpid()}"
    run = Run(root=ROOT, base=work, seed=args.seed, tracer=Tracer() if traced else None)

    env = _environment(args.seed)
    _print_block("environment", env)
    try:
        m = _measure(workload, run, args.seconds, traced)
    except TraceError as exc:
        print(f"error: tracing could not attach: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if traced:
        values = _layer_values(run.tracer, m["quality"], m["overhead_s"])
        wanted = spec["per_layer"]
    else:
        values = _end_to_end(m)
        wanted = spec["end_to_end"]
    missing = [w["name"] for w in wanted if values.get(w["name"]) is None]
    if missing:
        m["checks"].append(("every listed metric was measured", False, ", ".join(missing)))

    _print_block(
        f"workload {args.workload}",
        {
            "setups": " ".join(f"{s:.3f}" for s in m["setup_s"]),
            "units": " ".join(f"{s:.3f}" for s in m["unit_s"]),
            "unit stages (s)": ", ".join(f"{k} {v:.3f}" for k, v in m["stage_s"].items()),
            "queries per pass": m["queries"],
            "latency samples": f"{m['latency_samples']} in {m['latency_windows']} windows of {LATENCY_WINDOW}",
            "cold queries (s)": " ".join(f"{s:.3f}" for s in m["cold_s"]) or "-",
            "attempted": run.attempted,
            "failed": run.failed,
            "failed_share": run.failed / run.attempted if run.attempted else 0.0,
        },
    )
    if traced:
        untraced = m["unit_s"][0] - m["overhead_s"]
        print(f"== tracing overhead: traced unit {m['unit_s'][0]:.3f} s, untraced unit {untraced:.3f} s, "
              f"overhead {m['overhead_s']:.3f} s ({m['overhead_s'] / untraced:+.1%}); {len(run.tracer.spans)} spans")
    _print_block("quality", m["quality"])
    _print_block("sha256", m["digests"])
    print("== checks")
    for name, ok, detail in m["checks"]:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
    for error in run.errors:
        print(f"  error: {error}")

    metrics = {w["name"]: {"value": values.get(w["name"]), "unit": w["unit"]} for w in wanted}
    correct = all(ok for _, ok, _ in m["checks"])
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    detail = {"environment": env, "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "metrics": metrics, "all": {k: v for k, v in m.items() if k != "checks"},
              "checks": [list(c) for c in m["checks"]], "errors": run.errors}
    with open(WORK / "results" / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    if traced:
        (WORK / "traces").mkdir(exist_ok=True)
        run.tracer.write(str(WORK / "traces" / f"{tag}.jsonl"))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
