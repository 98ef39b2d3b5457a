"""The measured path: files → ingest → mine → save → update + delta → HTTP.

One :class:`Pipeline` run does, in order:

1. **set-up**, repeated ``SETUP_REPEATS`` times (the median is
   ``setup_s``): ``stream_attributed_graph`` plus the first
   ``bitset_index``; on workloads that serve from set-up, also the
   initial ``IncrementalSCPM.mine``, ``PatternStore.save`` and the start
   of the HTTP server;
2. **mine**: ``mine_scpm`` with patterns, repeated for ``MINE_SHARE`` of
   the time budget;
3. **rounds** for the rest of the budget: one edit script through
   ``IncrementalSCPM.update`` + ``PatternStore.apply_delta``, then GETs on
   one keep-alive connection (closed loop) for as long as the update took.

After each mine and each round, ``PatternStore.save`` writes the mined
result into a few fresh stores, until ``SAVES`` stores are used.

Output checks run outside the timed regions and are counted as
operations: a failed check, a non-200 response or an exception in a
request counts as a failed operation.  ``mine_scpm`` runs with
``n_jobs=1`` on every workload.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import resource
import threading
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional
from urllib.parse import quote

from repro.correlation.incremental import IncrementalSCPM
from repro.correlation.scpm import SCPM, mine_scpm
from repro.graph.evolve import read_edge_edits
from repro.graph.streaming import stream_attributed_graph
from repro.serve import PatternStoreReader
from repro.serve.http import create_server
from repro.store import PatternStore

from inputs import WorkloadInputs
from spans import Tracer

#: Set-up repeats: at least the minimum, then more while the set-ups so
#: far took under ``SETUP_SECONDS`` (cheap set-ups need many samples for a
#: steady median).  Set-up that also mines, saves and starts a server
#: costs about one mine, so it gets a smaller minimum.
SETUP_REPEATS = 5
SERVING_SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
MAX_SETUP_REPEATS = 200
MINE_SHARE = 0.4
MIN_MINES = 3
#: Fresh stores per run; each mine and each round uses the next few.
SAVES = 16
SAVES_PER_MINE = 1
SAVES_PER_ROUND = 1
#: Even, so that every run ends on a whole number of toggle/inverse pairs.
MIN_ROUNDS = 4
#: Each round sends at least this many GETs, and keeps sending until the
#: read phase has lasted as long as the round's update did, so reads get
#: about half of the rounds' time whatever an update costs.  A read
#: phase's p99 then has at least ten samples beyond it;
#: ``serve.query_p99_ms`` is the median over read phases, so one phase hit
#: by a stall of the shared machine does not decide it.
MIN_QUERIES_PER_ROUND = 1000
TOP_K = 5

#: The serving knobs ``scpm serve`` starts with by default.
SERVE_OPTIONS = dict(
    max_readers=16, lease_timeout=5.0, max_inflight=64, request_deadline=30.0
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Serving:
    """An incremental miner, its store and an HTTP server over the store."""

    def __init__(self, handle, params, store_path: Path, tracer) -> None:
        self.miner = IncrementalSCPM(handle, params)
        self.base = self.miner.mine()
        self.store = PatternStore(store_path)
        try:
            with _span(tracer, "store.save"):
                self.run_id = self.store.save(self.base, params)
            self.server = create_server(store_path, port=0, **SERVE_OPTIONS)
        except BaseException:
            self.store.close()
            raise
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self.thread.start()

    def close(self) -> None:
        self.server.stop(timeout=5.0)
        self.thread.join(timeout=10.0)
        self.store.close()


class Client:
    """One keep-alive HTTP/1.1 connection; records every request."""

    def __init__(self, port: int, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.latencies: List[float] = []

    def get(self, path: str):
        """``(status, payload)``; ``(None, None)`` when the request raised."""
        span = _span(self.tracer, "serve.request")
        with span as request:
            if request is not None:
                self.tracer.ambient = request.id
            started = perf_counter()
            try:
                self.connection.request("GET", path)
                response = self.connection.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException):
                self.connection.close()
                status, body = None, None
            self.latencies.append(perf_counter() - started)
            if request is not None:
                self.tracer.ambient = None
        if status is None:
            return None, None
        try:
            return status, json.loads(body)
        except ValueError:
            return status, None

    def close(self) -> None:
        self.connection.close()


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class Pipeline:
    def __init__(
        self,
        inputs: WorkloadInputs,
        workdir: Path,
        seconds: float,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.inputs = inputs
        self.params = inputs.params
        self.workdir = workdir
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        self.layer: Dict[str, float] = {}

    # -- bookkeeping -----------------------------------------------------
    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def traced(self):
        return self.tracer.installed() if self.tracer is not None else nullcontext()

    # -- the run ---------------------------------------------------------
    def run(self) -> None:
        serving: Optional[Serving] = None
        try:
            handle, serving = self.setup()
            self.save_paths = [self.workdir / f"save-{n}.sqlite" for n in range(SAVES)]
            self.save_pool = [PatternStore(path) for path in self.save_paths]
            self.saved: List[PatternStore] = []
            result = self.mine_phase(handle)
            if serving is None:
                with self.traced():
                    serving = Serving(
                        handle, self.params, self.workdir / "serve.sqlite", self.tracer
                    )
            self.check(
                serving.base.fingerprint() == result.fingerprint(),
                "IncrementalSCPM.mine differs from mine_scpm",
            )
            self.rounds(serving, result)
            self.check_saves(result)
            final = serving.miner.result.fingerprint()
            self.check(
                final == SCPM(handle, self.params).mine().fingerprint(),
                "incremental result differs from a full re-mine",
            )
            with PatternStoreReader(serving.server.store_path) as reader:
                self.check(
                    reader.load_result().fingerprint() == final,
                    "stored run differs from the incremental result",
                )
        finally:
            if serving is not None:
                serving.close()

    def setup(self):
        inputs, params = self.inputs, self.params
        repeats = SERVING_SETUP_REPEATS if inputs.serve_in_setup else SETUP_REPEATS
        handle = serving = None
        spent = 0.0
        number = 0
        try:
            while number < repeats or (
                spent < SETUP_SECONDS and number < MAX_SETUP_REPEATS
            ):
                if serving is not None:
                    serving.close()
                    serving = None
                with self.traced():
                    started = perf_counter()
                    with _span(self.tracer, "graph.ingest"):
                        handle = stream_attributed_graph(inputs.edges, inputs.attributes)
                    with _span(self.tracer, "graph.index"):
                        handle.bitset_index(params.engine)
                    if inputs.serve_in_setup:
                        serving = Serving(
                            handle,
                            params,
                            self.workdir / f"serve-{number}.sqlite",
                            self.tracer,
                        )
                    elapsed = perf_counter() - started
                self.sample("setup_s", elapsed)
                spent += elapsed
                number += 1
                self.check(handle.num_vertices > 0, "empty graph after ingest")
        except BaseException:
            if serving is not None:
                serving.close()
            raise
        return handle, serving

    def mine_phase(self, handle):
        """Repeat the full mine; traced runs alternate traced and untraced
        mines, which gives the tracing overhead on the same input."""
        deadline = perf_counter() + MINE_SHARE * self.seconds
        reference = None
        number = 0
        tracing = self.tracer is not None
        while number < (2 * MIN_MINES if tracing else MIN_MINES) or perf_counter() < deadline:
            traced = tracing and number % 2 == 0
            context = self.traced() if traced else nullcontext()
            with context:
                started = perf_counter()
                with _span(self.tracer if traced else None, "correlation.mine") as span:
                    result = mine_scpm(handle, self.params)
                elapsed = perf_counter() - started
            if traced:
                counters = result.counters
                lookups = counters.coverage_memo_hits + counters.coverage_memo_misses
                span.counts["memo_hit_ratio"] = (
                    counters.coverage_memo_hits / lookups if lookups else 0.0
                )
                self.sample("mine_traced_s", elapsed)
            else:
                self.sample("mine_s", elapsed)
            fingerprint = result.fingerprint()
            if reference is None:
                reference = fingerprint
            self.check(fingerprint == reference, "mine repeats disagree")
            self.save(result, SAVES_PER_MINE)
            number += 1
        self.check(bool(result.patterns), "mine found no patterns")
        return result

    def save(self, result, count: int) -> None:
        """Save ``result`` into the next ``count`` fresh stores of the pool.

        The pool is created before the first mine, and the stores stay open
        until the timed phases are over: closing a store checkpoints it and
        deletes its write-ahead log, and on a disk mounted with ``discard``
        that file churn stalls the writes that follow.  Saves are spread over the
        mine and round phases because the disk also has slow spells of a
        few hundred milliseconds; a median over saves taken back to back
        lands inside or outside one of them as a whole.
        """
        with self.traced():
            for store in self.save_pool[:count]:
                started = perf_counter()
                with _span(self.tracer, "store.save"):
                    store.save(result, self.params)
                self.sample("save_s", perf_counter() - started)
        self.saved.extend(self.save_pool[:count])
        del self.save_pool[:count]
        os.sync()

    def check_saves(self, result) -> None:
        for store in self.saved + self.save_pool:
            store.close()
        saved = self.save_paths[: len(self.saved)]
        size = sum(p.stat().st_size for p in self.workdir.glob(saved[0].name + "*"))
        self.layer["store.bytes_per_pattern"] = size / len(result.patterns)
        fingerprint = result.fingerprint()
        for path in (saved[0], saved[-1]):  # every save wrote the same result
            with PatternStoreReader(path) as reader:
                self.check(
                    reader.load_result().fingerprint() == fingerprint,
                    "stored run differs from the saved result",
                )

    def rounds(self, serving: Serving, result) -> None:
        batches = [read_edge_edits(path) for path in self.inputs.edit_scripts]
        attributes = sorted(
            {str(a) for pattern in result.patterns for a in pattern.attributes}
        )
        client = Client(serving.server.server_address[1], self.tracer)
        deadline = perf_counter() + (1.0 - MINE_SHARE) * self.seconds
        query_seconds = 0.0
        number = 0
        try:
            while number < MIN_ROUNDS or number % 2 or perf_counter() < deadline:
                edits = batches[number % len(batches)]
                with self.traced():
                    started = perf_counter()
                    with _span(self.tracer, "correlation.update") as span:
                        patched = serving.miner.update(edge_edits=edits)
                    with _span(self.tracer, "store.apply_delta"):
                        serving.store.apply_delta(serving.run_id, patched, self.params)
                    update_seconds = perf_counter() - started
                    self.sample("update_p50_s", update_seconds)
                    # Untimed: the delta's write-back, left to the kernel,
                    # lands at a random point of the read phase and
                    # decides its tail.
                    os.sync()
                    if span is not None:
                        stats = serving.miner.last_update_stats
                        span.counts.update(
                            touched_chunks=stats.touched_chunks,
                            roots_rerun_ratio=stats.roots_reevaluated / stats.roots_total,
                            memo_evicted=stats.memo_evicted,
                        )
                    self.check(True, "update")
                    first = len(client.latencies)
                    query_seconds += self.queries(
                        client, serving.run_id, attributes, number, update_seconds
                    )
                    self.sample(
                        "query_p99_ms",
                        1000.0 * percentile(client.latencies[first:], 0.99),
                    )
                self.save(result, SAVES_PER_ROUND)
                number += 1
            if self.tracer is not None:
                stats = serving.server.pool.cache_stats()
                self.layer["serve.cache_hit_ratio"] = stats["hit_ratio"]
        finally:
            client.close()
        self.samples["query_ms"] = [1000.0 * s for s in client.latencies]
        self.layer["query_rps"] = len(client.latencies) / query_seconds

    def queries(
        self, client: Client, run_id: int, attributes, round_number, seconds
    ) -> float:
        """Send the request mix — /top, an attribute filter, one of the
        patterns that filter returned, /runs, in turn — for at least
        ``seconds``; return the time taken."""
        pattern_ids: List[int] = []
        started = perf_counter()
        number = 0
        while number < MIN_QUERIES_PER_ROUND or perf_counter() - started < seconds:
            step = number % 4
            if step == 0:
                status, body = client.get(f"/top?k={TOP_K}")
                expect = lambda b: b["run_id"] == run_id and 0 < len(b["entries"]) <= TOP_K
            elif step == 1:
                attribute = attributes[(round_number + number // 4) % len(attributes)]
                status, body = client.get(
                    f"/patterns?attributes={quote(attribute)}&mode=any"
                )
                expect = lambda b: b["count"] == len(b["patterns"])
            elif step == 2 and pattern_ids:
                wanted = pattern_ids[(number // 4) % len(pattern_ids)]
                status, body = client.get(f"/patterns/{wanted}")
                expect = lambda b: b["pattern_id"] == wanted
            else:
                status, body = client.get("/runs")
                expect = lambda b: [r["run_id"] for r in b["runs"]] == [run_id]
            try:
                ok = status == 200 and expect(body)
            except (KeyError, TypeError):  # a body of the wrong shape
                ok = False
            if ok and step == 1 and body["patterns"]:
                pattern_ids = [p["pattern_id"] for p in body["patterns"]]
            self.check(ok, f"GET step {step} answered {status}")
            number += 1
        return perf_counter() - started

    # -- results ---------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        samples = self.samples
        query_ms = samples["query_ms"]
        return {
            "setup_s": median(samples["setup_s"]),
            "mine_s": median(samples["mine_s"]),
            "save_s": median(samples["save_s"]),
            "update_p50_s": median(samples["update_p50_s"]),
            "query_p50_ms": percentile(query_ms, 0.50),
            "query_rps": self.layer["query_rps"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> Dict[str, float]:
        tracer = self.tracer
        children = tracer.children()
        roots = children.get(None, [])

        def kids(span, name=None):
            return [
                child
                for child in children.get(span.id, ())
                if name is None or child.name == name
            ]

        def total(spans):
            return sum(span.seconds for span in spans)

        out: Dict[str, float] = {}
        named = lambda name: [span for span in roots if span.name == name]
        out["graph.ingest_s"] = median([s.seconds for s in named("graph.ingest")])
        out["graph.index_s"] = median([s.seconds for s in named("graph.index")])

        mines = named("correlation.mine")
        per_mine: Dict[str, List[float]] = {}
        for mine in mines:
            row = {
                "itemsets.vertical_s": total(kids(mine, "itemsets.vertical")),
                "itemsets.vertical_calls": len(kids(mine, "itemsets.vertical")),
                "quasiclique.coverage_s": total(kids(mine, "quasiclique.coverage")),
                "quasiclique.coverage_calls": len(kids(mine, "quasiclique.coverage")),
                "quasiclique.coverage_nodes": sum(
                    s.counts.get("nodes", 0) for s in kids(mine, "quasiclique.coverage")
                ),
                "quasiclique.coverage_memo_hit_ratio": mine.counts["memo_hit_ratio"],
                "quasiclique.top_k_s": total(kids(mine, "quasiclique.top_k")),
                "quasiclique.top_k_calls": len(kids(mine, "quasiclique.top_k")),
                "quasiclique.top_k_nodes": sum(
                    s.counts.get("nodes", 0) for s in kids(mine, "quasiclique.top_k")
                ),
                "quasiclique.top_k_distinct_sets": len(
                    {s.counts["working_set"] for s in kids(mine, "quasiclique.top_k")}
                ),
                "correlation.null_model_s": total(kids(mine, "correlation.null_model")),
                "correlation.null_model_calls": len(kids(mine, "correlation.null_model")),
                "correlation.mine_self_s": mine.seconds - total(kids(mine)),
            }
            row["quasiclique.coverage_share"] = row["quasiclique.coverage_s"] / mine.seconds
            row["quasiclique.top_k_share"] = row["quasiclique.top_k_s"] / mine.seconds
            for key, value in row.items():
                per_mine.setdefault(key, []).append(value)
        out.update({key: median(values) for key, values in per_mine.items()})

        updates = named("correlation.update")
        out["correlation.update_s"] = median([s.seconds for s in updates])
        out["correlation.update_self_s"] = median(
            [s.seconds - total(kids(s)) for s in updates]
        )
        out["graph.edit_s"] = median([total(kids(s, "graph.edit")) for s in updates])
        for key in ("touched_chunks", "roots_rerun_ratio", "memo_evicted"):
            prefix = "graph." if key == "touched_chunks" else "correlation."
            out[prefix + key] = median([s.counts[key] for s in updates])

        out["store.save_s"] = median([s.seconds for s in named("store.save")])
        out["store.apply_delta_s"] = median([s.seconds for s in named("store.apply_delta")])
        out["store.bytes_per_pattern"] = self.layer["store.bytes_per_pattern"]

        requests = named("serve.request")
        reader_time = [total(kids(r, "serve.reader")) for r in requests]
        out["serve.reader_s"] = median(reader_time)
        out["serve.reader_calls"] = sum(len(kids(r, "serve.reader")) for r in requests) / len(
            requests
        )
        out["serve.cache_hit_ratio"] = self.layer["serve.cache_hit_ratio"]
        out["serve.query_p99_ms"] = median(self.samples["query_p99_ms"])
        out["serve.http_self_ms"] = median(
            [1000.0 * (r.seconds - t) for r, t in zip(requests, reader_time)]
        )
        out["trace.overhead_ratio"] = median(self.samples["mine_traced_s"]) / median(
            self.samples["mine_s"]
        )
        return out
