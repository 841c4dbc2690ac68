"""Run state shared by the workloads: operation accounting, optional spans,
the closed query loop and cold CLI queries."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from placelink.index import query
from spans import Tracer

K = 50


@dataclass
class Run:
    root: Path
    # run.work is a fresh directory under base for each set-up and unit
    base: Path
    seed: int
    work: Path | None = None
    tracer: Tracer | None = None
    # spans are recorded only while live; a traced run turns this off for
    # the untraced unit it compares against
    live: bool = False
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def call(self, name, fn, *args, observe=None, **kwargs):
        if self.live:
            return self.tracer.call(name, fn, *args, observe=observe, **kwargs)
        return fn(*args, **kwargs)

    def attempt(self, name, fn, *args, observe=None, **kwargs):
        """Count one operation; an exception marks it failed and returns
        (False, None) instead of ending the run."""
        self.attempted += 1
        try:
            return True, self.call(name, fn, *args, observe=observe, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return False, None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            print(f"error: {message}", file=sys.stderr)
            self.errors.append(message)

    def request(self, request_id: str) -> None:
        if self.live:
            self.tracer.request = request_id


def observe_query(tracer, cs, args, kwargs) -> None:
    k = args[2] if len(args) > 2 else kwargs.get("k")
    if k is None:
        k = args[0].config.max_candidates
    n = len(cs.candidates)
    tracer.counts["index.candidates"] += n
    tracer.counts["index.capped"] += n >= k


class QueryLoop:
    """Closed loop, one client: each query is sent when the previous one
    has returned. Sends continue through the list and start over at its
    end. first_pass holds the candidate ids of the first pass over the list
    (None where the query raised)."""

    def __init__(self, run: Run, index, queries):
        self.run = run
        self.index = index
        self.queries = queries
        self.sent = 0
        self.first_pass: list[list[int] | None] = []

    def send(self, count: int) -> list[int]:
        """Send the next count queries; returns their latencies in ns (none
        while tracing)."""
        run, index = self.run, self.index
        latencies = []
        for _ in range(count):
            i = self.sent % len(self.queries)
            self.sent += 1
            text = self.queries[i].text
            run.attempted += 1
            try:
                if run.live:
                    run.tracer.request = f"q{i}"
                    cs = run.tracer.call("index.query", query, index, text, K, observe=observe_query)
                else:
                    start = perf_counter_ns()
                    cs = query(index, text, K)
                    latencies.append(perf_counter_ns() - start)
            except Exception as exc:  # counted as a failed query
                run.fail(f"query {text!r}: {type(exc).__name__}: {exc}")
                cs = None
            if len(self.first_pass) < len(self.queries):
                self.first_pass.append(None if cs is None else [entry.geoname_id for entry, _ in cs.candidates])
        return latencies


def recall(queries, results) -> float:
    """Share of the counted queries whose gold id is among their top K."""
    hits = total = 0
    for q, ids in zip(queries, results):
        if q.counted:
            total += 1
            hits += ids is not None and q.gold_id in ids[:K]
    return hits / total if total else 0.0


def cold_query(run: Run, index_path: Path, name: str) -> tuple[float | None, int | None]:
    """Time one fresh `placelink query` process. Returns its wall time and
    the first candidate it printed, or (None, None) if it failed."""
    env = dict(os.environ)
    src = str(run.root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "placelink", "query", "--index", str(index_path),
            "--name", name, "--k", str(K), "--format", "jsonl"]
    run.attempted += 1
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=150, cwd=run.root)
    except subprocess.TimeoutExpired:
        run.fail(f"cold query {name!r}: timed out")
        return None, None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        run.fail(f"cold query {name!r}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return None, None
    lines = proc.stdout.splitlines()
    return elapsed, json.loads(lines[0])["geoname_id"] if lines else None
