"""In-memory spans around calls into each layer of ``repro``.

Tracing is done from the benchmark's side: :meth:`Tracer.installed`
swaps a timing wrapper in for the layer functions the pipeline reaches
through module globals or class attributes, and puts the originals back
on exit.  Nothing in ``src/`` knows about it.

A span has a name, start, end, parent and the counts its layer reported.
Spans stay in a list until the run ends; :meth:`Tracer.dump` writes them
out.  A span opened on a thread with no open span of its own takes the
tracer's *ambient* span as parent: the HTTP client sets it to the current
request, so reader spans on the server's handler thread join the request
that caused them.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import repro.correlation.incremental as incremental_module
import repro.correlation.scpm as scpm_module
import repro.correlation.structural as structural_module
from repro.correlation.null_models import AnalyticalNullModel
from repro.graph.streaming import StreamedGraphHandle
from repro.quasiclique.search import QuasiCliqueSearch
from repro.serve.reader import PatternStoreReader

#: Public reader lookups the HTTP handlers call.
READER_METHODS = (
    "runs",
    "latest_run_id",
    "get_pattern",
    "patterns_with_vertex",
    "patterns_with_attributes",
    "top_k",
    "load_result",
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "counts")

    def __init__(self, span_id: int, name: str, parent: Optional[int]) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: Dict[str, Any] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.ambient: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1].id if stack else self.ambient
        span = Span(next(self._ids), name, parent)
        stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, key: str, value) -> None:
        """Add ``value`` to ``key`` on this thread's innermost open span."""
        stack = self._stack()
        if stack:
            counts = stack[-1].counts
            counts[key] = counts.get(key, 0) + value

    def _wrap(self, name: Optional[str], fn: Callable, after=None) -> Callable:
        """``fn`` timed as span ``name`` (none when ``None``); ``after``
        sees ``(span, args, kwargs, result)`` once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = None
            if name is None:
                result = fn(*args, **kwargs)
            else:
                with self.span(name) as span:
                    result = fn(*args, **kwargs)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace the layer calls for the duration of the block."""

        def coverage_nodes(span, args, kwargs, result):
            search = result[1]  # None on a coverage-memo hit
            if search is not None:
                self.count("nodes", search.stats.nodes_expanded)

        def top_k_nodes(span, args, kwargs, result):
            self.count("nodes", args[0].stats.nodes_expanded)

        def top_k_working_set(span, args, kwargs, result):
            # SCPM passes the covered set K_S as the restriction, and
            # K_S lies inside V(S), so it *is* the working set.  The
            # engine natives are immutable: keep a reference, hash later.
            restriction = kwargs.get("candidate_vertices")
            native = getattr(restriction, "bits", None)
            if native is None:
                native = getattr(restriction, "chunks", None)
            span.counts["working_set"] = native

        patches = [
            (scpm_module, "bitset_vertical_database", "itemsets.vertical", None),
            (scpm_module, "frequent_items", "itemsets.vertical", None),
            (incremental_module, "bitset_vertical_database", "itemsets.vertical", None),
            (incremental_module, "frequent_items", "itemsets.vertical", None),
            (scpm_module, "structural_correlation_bitset", "quasiclique.coverage", None),
            (structural_module, "covered_native", None, coverage_nodes),
            (scpm_module, "top_k_patterns", "quasiclique.top_k", top_k_working_set),
            (QuasiCliqueSearch, "top_k", None, top_k_nodes),
            (AnalyticalNullModel, "__init__", "correlation.null_model", None),
            (AnalyticalNullModel, "expected_epsilon", "correlation.null_model", None),
            (StreamedGraphHandle, "apply_edge_batch", "graph.edit", None),
        ] + [
            (PatternStoreReader, method, "serve.reader", None)
            for method in READER_METHODS
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        try:
            for (owner, attr, name, after), (_, _, fn) in zip(patches, originals):
                setattr(owner, attr, self._wrap(name, fn, after))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def children(self) -> Dict[Optional[int], List[Span]]:
        out: Dict[Optional[int], List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.parent, []).append(span)
        return out

    def dump(self, path, header: Dict[str, Any]) -> None:
        """Write the header line, then one JSON line per span, by start
        time, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in sorted(self.spans, key=lambda s: s.start):
                counts = dict(span.counts)
                if "working_set" in counts:
                    counts["working_set"] = hash(counts["working_set"])
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "parent": span.parent,
                            "start": span.start,
                            "end": span.end,
                            "counts": counts,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
