"""Pattern-memo differential suite: top-k results memoized by working set.

SCPM keeps a second :class:`~repro.quasiclique.memo.CoverageMemo`, the
*pattern memo*, in front of the top-k search
(:func:`repro.correlation.structural.top_k_patterns`).  Its key is
``(working set, γ, min_size, k)`` and the exact
:meth:`~repro.quasiclique.search.QuasiCliqueSearch.top_k` is a pure
function of it — the traversal order is not part of it — so the memo may
only change *how often* the search runs, never what it returns.  The
suite checks:

* memo-on vs memo-off byte identity across engine × order × n_jobs ×
  schedule, with the expanded-node counters and the final memo contents
  independent of how the run was split into tasks;
* one top-k search per distinct working set on a graph whose Theorem-3
  siblings collide, with hit/miss counters that add up;
* expanded-node counters equal to the nodes the searches really expanded,
  every threshold round of a top-k search included;
* eviction of exactly the touched entries by ``IncrementalSCPM.update``.

Seeds are fixed so failures replay; CI appends one more seed through
``REPRO_FUZZ_SEED``, like the other differential suites.
"""

import os

import pytest

import repro.correlation.scpm as scpm_module
from repro.correlation.incremental import IncrementalSCPM
from repro.correlation.parameters import SCPMParams
from repro.correlation.scpm import SCPM
from repro.correlation.structural import top_k_patterns
from repro.datasets.evolving import EvolvingScenario
from repro.datasets.synthetic import random_attributed_graph
from repro.graph.evolve import EdgeEdit
from repro.graph.sparseset import CHUNK_BITS
from repro.quasiclique.delta import native_touches
from repro.quasiclique.search import QuasiCliqueSearch

BASE_SEEDS = (11, 29)

PARAMS = SCPMParams(
    min_support=3, gamma=0.6, min_size=3, min_epsilon=0.1, top_k=4
)

#: (n_jobs, schedule) corners; schedule only matters with workers.
EXECUTIONS = [(1, "steal"), (1, "stripe"), (2, "steal"), (2, "stripe")]


def fuzz_seeds():
    seeds = list(BASE_SEEDS)
    extra = os.environ.get("REPRO_FUZZ_SEED")
    if extra is not None:
        seeds.append(int(extra))
    return seeds


def twin_graph(seed, num_vertices=22, edge_probability=0.4):
    """A random graph where ``twin`` is carried by exactly ``a``'s holders.

    ``{a}``, ``{twin}`` and ``{a, twin}`` then induce the same working
    set, and so do ``{a, c}`` and ``{twin, c}`` — Theorem-3 siblings that
    collide at every lattice level.
    """
    graph = random_attributed_graph(
        num_vertices=num_vertices,
        edge_probability=edge_probability,
        attributes=["a", "b", "c", "d"],
        attribute_probability=0.5,
        seed=seed * 613 + num_vertices,
    )
    for vertex in graph.vertices_with("a"):
        graph.add_attribute(vertex, "twin")
    return graph


def node_counts(result):
    c = result.counters
    return (c.coverage_nodes_expanded, c.pattern_nodes_expanded)


# ----------------------------------------------------------------------
# memo-on vs memo-off across the execution grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_jobs,schedule", EXECUTIONS)
@pytest.mark.parametrize("order", ["dfs", "bfs"])
@pytest.mark.parametrize("engine", ["dense", "sparse"])
@pytest.mark.parametrize("seed", fuzz_seeds())
def test_memo_on_off_byte_identical(seed, engine, order, n_jobs, schedule):
    graph = twin_graph(seed)
    base = PARAMS.with_changes(engine=engine, order=order)
    config = base.with_changes(n_jobs=n_jobs, schedule=schedule)
    off = SCPM(graph, config.with_changes(coverage_memo=False)).mine()
    on_miner = SCPM(graph, config)
    on = on_miner.mine()
    assert on.fingerprint() == off.fingerprint()
    assert any(r.patterns for r in on.evaluated)
    assert (off.counters.pattern_memo_hits, off.counters.pattern_memo_misses) == (0, 0)

    # Expanded nodes and the memos a run ends with do not depend on how
    # the run was split into tasks: the parent adopts every task's
    # entries and discounts the searches two tasks repeated.
    sequential_miner = SCPM(graph, base)
    sequential = sequential_miner.mine()
    assert node_counts(on) == node_counts(sequential)
    assert on_miner.pattern_memo.snapshot().keys() == (
        sequential_miner.pattern_memo.snapshot().keys()
    )
    assert on_miner.coverage_memo.snapshot().keys() == (
        sequential_miner.coverage_memo.snapshot().keys()
    )


# ----------------------------------------------------------------------
# the key
# ----------------------------------------------------------------------
def test_key_separates_k_and_parameters_but_not_order():
    graph = twin_graph(BASE_SEEDS[0])
    memo = SCPM(graph, PARAMS).pattern_memo
    qc = PARAMS.quasi_clique_params()
    calls = [
        (qc, 4, "dfs"),
        (qc, 4, "dfs"),  # a repeat
        (qc, 4, "bfs"),  # also a repeat: top-k does not depend on order
        (qc, 2, "dfs"),
        (PARAMS.with_changes(min_size=4).quasi_clique_params(), 4, "dfs"),
        (PARAMS.with_changes(gamma=0.7).quasi_clique_params(), 4, "dfs"),
    ]
    results = [
        top_k_patterns(graph, ["a"], params, k, order=order, memo=memo)
        for params, k, order in calls
    ]
    assert (memo.hits, memo.misses) == (2, len(calls) - 2)
    uncached = [
        top_k_patterns(graph, ["a"], params, k, order=order)
        for params, k, order in calls
    ]
    assert results == uncached


# ----------------------------------------------------------------------
# one search per distinct working set
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["dense", "sparse"])
@pytest.mark.parametrize("seed", fuzz_seeds())
def test_one_top_k_search_per_distinct_working_set(seed, engine, monkeypatch):
    graph = twin_graph(seed)
    params = PARAMS.with_changes(engine=engine)
    working_sets = []
    searches = []

    original_patterns = scpm_module.top_k_patterns
    original_top_k = QuasiCliqueSearch.top_k

    def recording_patterns(*args, **kwargs):
        # SCPM restricts the search to K_S ⊆ V(S): the covered set is
        # the working set the memo keys on.
        covered = kwargs["candidate_vertices"]
        if len(covered) >= params.min_size:  # calls that reach the search
            working_sets.append(covered.to_frozenset())
        return original_patterns(*args, **kwargs)

    def recording_top_k(self, k):
        searches.append(frozenset(self._vertex_of))
        return original_top_k(self, k)

    monkeypatch.setattr(scpm_module, "top_k_patterns", recording_patterns)
    monkeypatch.setattr(QuasiCliqueSearch, "top_k", recording_top_k)
    miner = SCPM(graph, params)
    counters = miner.mine().counters

    distinct = set(working_sets)
    assert len(working_sets) > len(distinct)  # siblings do collide
    assert len(searches) == len(distinct)
    assert counters.pattern_memo_misses == len(distinct)
    assert counters.pattern_memo_hits + counters.pattern_memo_misses == len(
        working_sets
    )
    assert counters.pattern_memo_hits == miner.pattern_memo.hits
    assert len(miner.pattern_memo) == counters.pattern_memo_misses
    # the coverage memo is a separate instance with its own counters
    assert miner.coverage_memo is not miner.pattern_memo
    assert counters.coverage_memo_hits == miner.coverage_memo.hits
    assert len(miner.coverage_memo) == counters.coverage_memo_misses


# ----------------------------------------------------------------------
# expanded-node counters are truthful
# ----------------------------------------------------------------------
@pytest.mark.parametrize("coverage_memo", [True, False])
@pytest.mark.parametrize("seed", fuzz_seeds())
def test_node_counters_match_the_searches_that_ran(seed, coverage_memo, monkeypatch):
    graph = twin_graph(seed)
    expanded = {"coverage": 0, "patterns": 0}

    original_covered_mask = QuasiCliqueSearch.covered_mask
    original_top_k = QuasiCliqueSearch.top_k

    def counting_covered_mask(self, *args, **kwargs):
        out = original_covered_mask(self, *args, **kwargs)
        expanded["coverage"] += self.stats.nodes_expanded
        return out

    def counting_top_k(self, k):
        out = original_top_k(self, k)
        expanded["patterns"] += self.stats.nodes_expanded
        return out

    monkeypatch.setattr(QuasiCliqueSearch, "covered_mask", counting_covered_mask)
    monkeypatch.setattr(QuasiCliqueSearch, "top_k", counting_top_k)
    result = SCPM(graph, PARAMS.with_changes(coverage_memo=coverage_memo)).mine()

    assert expanded["coverage"] > 0 and expanded["patterns"] > 0
    assert node_counts(result) == (expanded["coverage"], expanded["patterns"])


@pytest.mark.parametrize("coverage_memo", [True, False])
@pytest.mark.parametrize("seed", fuzz_seeds())
def test_pattern_nodes_count_every_top_k_round(seed, coverage_memo, monkeypatch):
    # Top-k runs one enumeration per size threshold; the counter must sum
    # the nodes of all of them, and every search that ran adds some.
    graph = twin_graph(seed)
    runs = [0]
    rounds = []
    nodes = []

    original_run = QuasiCliqueSearch._run
    original_top_k = QuasiCliqueSearch.top_k

    def counting_run(self, *args, **kwargs):
        runs[0] += 1
        return original_run(self, *args, **kwargs)

    def counting_top_k(self, k):
        before = runs[0]
        out = original_top_k(self, k)
        rounds.append(runs[0] - before)
        nodes.append(self.stats.nodes_expanded)
        return out

    monkeypatch.setattr(QuasiCliqueSearch, "_run", counting_run)
    monkeypatch.setattr(QuasiCliqueSearch, "top_k", counting_top_k)
    counters = (
        SCPM(graph, PARAMS.with_changes(coverage_memo=coverage_memo))
        .mine()
        .counters
    )

    assert nodes and all(count > 0 for count in nodes)
    assert max(rounds) > 1  # some search ran several rounds
    assert counters.pattern_nodes_expanded == sum(nodes)


# ----------------------------------------------------------------------
# IncrementalSCPM evicts exactly the touched entries
# ----------------------------------------------------------------------
def two_chunk_scenario():
    """Two 9-cliques in different chunks, each carried by twin attributes.

    The clique in chunk 0 (``a``/``x``) loses one edge in the single edit
    batch, which changes its top-k patterns; the clique in chunk 1
    (``b``/``y``) is untouched.
    """
    first = list(range(9))
    second = [CHUNK_BITS + v for v in range(9)]
    edges = [
        (u, v)
        for clique in (first, second)
        for i, u in enumerate(clique)
        for v in clique[i + 1 :]
    ]
    attributes = {v: ["a", "x"] for v in first}
    attributes.update({v: ["b", "y"] for v in second})
    return EvolvingScenario(
        vertices=list(range(2 * CHUNK_BITS)),
        initial_edges=edges,
        initial_attributes=attributes,
        edit_batches=[([EdgeEdit(0, 1, add=False)], [])],
    )


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("engine", ["dense", "sparse"])
def test_update_evicts_touched_pattern_entries(engine, n_jobs):
    scenario = two_chunk_scenario()
    params = SCPMParams(
        min_support=3,
        gamma=0.6,
        min_size=4,
        min_epsilon=0.1,
        top_k=3,
        engine=engine,
        n_jobs=n_jobs,
    )
    miner = IncrementalSCPM(scenario.build_handle(), params)
    before = miner.mine()
    # {a}, {x} and {a, x} share one search, {b}, {y} and {b, y} another —
    # with workers too, which find the roots' entries in the shipped
    # snapshot.
    assert before.counters.pattern_memo_misses == 2
    memo = miner._miner.pattern_memo
    entries = memo.snapshot()
    (edge_edits, _), = scenario.batches()
    touched = {edit.u // CHUNK_BITS for edit in edge_edits}
    stale = [key for key in entries if native_touches(key[0], touched)]
    kept = [key for key in entries if key not in stale]
    assert len(stale) == 1 and len(kept) == 1  # one entry per clique

    after = miner.update(edge_edits=edge_edits)
    stats = miner.last_update_stats
    assert stats.pattern_memo_evicted == len(stale)
    survivors = memo.snapshot()
    for key in kept:
        assert survivors[key] is entries[key]
    # the re-run searched the edited clique again and changed its answer
    assert survivors[stale[0]] != entries[stale[0]]
    assert after.find(["a"]).patterns != before.find(["a"]).patterns
    assert after.find(["b"]).patterns == before.find(["b"]).patterns

    full = SCPM(scenario.replay(1), params).mine()
    assert after.fingerprint() == full.fingerprint()
