"""Spans and counters recorded around the benchmark's calls into placelink.

A span has a name, start and end (perf_counter_ns), the id of the span that
was open when it started, and the request id the benchmark set (a document
id, a query index or a CLI step). Spans stay in memory and are written out
when the run ends. Self time is a span's duration minus the time covered by
its child spans; the program is single-threaded, so children never overlap.

Module-level names that callers look up at call time (``pipeline.query``,
``cli.train``, ...) are replaced by wrappers for the traced part of a run.
A name that is missing raises at install time, and a wrapper that was never
called raises at the end, so a renamed entry point fails the traced run
instead of reporting zero.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter_ns


class TraceError(RuntimeError):
    """A wrapped name is missing or was never called."""


class Tracer:
    def __init__(self) -> None:
        # (span_id, name, start_ns, end_ns, parent_id, request, child_ns)
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.request = ""
        self._stack: list[list[int]] = []  # [span_id, child_ns] per open span
        self._next_id = 0
        # (module, attr, original, call count getter) per installed wrapper
        self._patches: list[tuple] = []
        self._wrapper_calls: Counter[str] = Counter()

    # -- spans ---------------------------------------------------------------

    def call(self, name, fn, *args, observe=None, **kwargs):
        """Run fn inside a span. observe(tracer, result, args, kwargs) may
        add to self.counts."""
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [span_id, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent[1] += end - start
            self.spans.append(
                (span_id, name, start, end, None if parent is None else parent[0], self.request, frame[1])
            )
        if observe is not None:
            observe(self, result, args, kwargs)
        return result

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        calls: Counter[str] = Counter()
        total: defaultdict[str, int] = defaultdict(int)
        own: defaultdict[str, int] = defaultdict(int)
        for _, name, start, end, _, _, child in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child
        return {n: (calls[n], total[n] / 1e9, own[n] / 1e9) for n in calls}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, request, child in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                            "self_ns": end - start - child,
                        }
                    )
                    + "\n"
                )

    # -- wrappers ------------------------------------------------------------

    def wrap(self, module, attr: str, span_name: str, observe=None) -> None:
        """Replace module.attr with a wrapper that records a span per call."""
        original = self._original(module, attr)
        label = f"{module.__name__}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._wrapper_calls[label] += 1
            return tracer.call(span_name, original, *args, observe=observe, **kwargs)

        self._install(module, attr, original, wrapper, lambda: self._wrapper_calls[label])

    def count_calls(self, module, attr: str, counter: str, hits: str | None = None) -> None:
        """Replace module.attr with a wrapper that only counts calls, and
        optionally the calls whose result is not None."""
        original = self._original(module, attr)
        counts = self.counts

        if hits is None:

            def wrapper(*args, **kwargs):
                counts[counter] += 1
                return original(*args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                counts[counter] += 1
                result = original(*args, **kwargs)
                if result is not None:
                    counts[hits] += 1
                return result

        self._install(module, attr, original, wrapper, lambda: counts[counter])

    def wrap_provider_factory(self, module, attr: str) -> None:
        """Replace a provider factory so that every provider it returns is a
        :class:`TimedProvider`."""
        original = self._original(module, attr)
        label = f"{module.__name__}.{attr}"

        def wrapper(*args, **kwargs):
            self._wrapper_calls[label] += 1
            return TimedProvider(original(*args, **kwargs), self)

        self._install(module, attr, original, wrapper, lambda: self._wrapper_calls[label])

    def _original(self, module, attr: str):
        if not hasattr(module, attr):
            raise TraceError(f"{module.__name__}.{attr} does not exist; the benchmark wraps it")
        return getattr(module, attr)

    def _install(self, module, attr, original, wrapper, called) -> None:
        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original, called))

    def uninstall(self) -> None:
        """Restore every wrapped name, then raise if one was never called."""
        never = []
        for module, attr, original, called in reversed(self._patches):
            setattr(module, attr, original)
            if not called():
                never.append(f"{module.__name__}.{attr}")
        self._patches.clear()
        if never:
            raise TraceError("wrapped names never called: " + ", ".join(sorted(never)))


class TimedProvider:
    """EmbeddingProvider proxy that records a span per embedding call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.dimension = inner.dimension

    def embed_span(self, text, span):
        return self._tracer.call("features.embed", self._inner.embed_span, text, span)

    def embed_document(self, text):
        return self._tracer.call("features.embed", self._inner.embed_document, text)

    def __getattr__(self, name):
        return getattr(self._inner, name)
