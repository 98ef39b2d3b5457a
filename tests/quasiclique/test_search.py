"""Unit tests for the quasi-clique search engine (all three modes).

The seeded differential grid at the end checks every mode against the
brute-force reference on random graphs of 10–20 vertices — whole graphs,
vertex-restricted searches and targeted coverage — and, up to 30
vertices, checks that the vertex-set engine changes nothing (results and
expansion statistics) and that distance pruning is sound.  Top-k is
checked on every rank against the brute-force ranking of the maximal
sets.  Seeds are fixed so failures replay; CI appends one more seed
through the ``REPRO_FUZZ_SEED`` environment variable.
"""

import functools
import os
import random

import pytest

from repro.datasets.synthetic import random_attributed_graph
from repro.errors import ParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.quasiclique.definitions import (
    QuasiCliqueParams,
    gamma_of,
)
from repro.quasiclique.reference import (
    brute_force_covered_vertices,
    brute_force_maximal_quasi_cliques,
)
from repro.quasiclique.search import (
    BFS,
    DFS,
    QuasiCliqueSearch,
    SearchBudgetExceeded,
    find_quasi_cliques,
    top_k_quasi_cliques,
    vertices_in_quasi_cliques,
)

EXAMPLE_MAXIMAL = {
    frozenset({3, 4, 5, 6}),
    frozenset({3, 4, 6, 7}),
    frozenset({3, 5, 6, 7}),
    frozenset({3, 6, 7, 8}),
    frozenset({6, 7, 8, 9, 10, 11}),
}


class TestEnumeration:
    def test_example_maximal_quasi_cliques(self, example_graph):
        found = set(find_quasi_cliques(example_graph, gamma=0.6, min_size=4))
        assert found == EXAMPLE_MAXIMAL

    def test_bfs_and_dfs_agree(self, example_graph):
        dfs = set(find_quasi_cliques(example_graph, 0.6, 4, order=DFS))
        bfs = set(find_quasi_cliques(example_graph, 0.6, 4, order=BFS))
        assert dfs == bfs

    def test_cliques_at_gamma_one(self, example_graph):
        found = set(find_quasi_cliques(example_graph, gamma=1.0, min_size=3))
        assert frozenset({3, 4, 5, 6}) in found
        # every returned set is a clique
        for clique in found:
            for u in clique:
                assert clique - {u} <= set(example_graph.neighbor_set(u))

    def test_min_size_filters_small_cliques(self, example_graph):
        found = find_quasi_cliques(example_graph, gamma=1.0, min_size=5)
        assert found == []

    def test_vertex_restriction(self, example_graph):
        found = set(
            find_quasi_cliques(
                example_graph, 0.6, 4, vertices=[6, 7, 8, 9, 10, 11]
            )
        )
        assert found == {frozenset({6, 7, 8, 9, 10, 11})}

    def test_results_are_maximal(self, example_graph):
        found = find_quasi_cliques(example_graph, 0.6, 4)
        for first in found:
            for second in found:
                assert not first < second

    def test_triangle_with_pendant(self, triangle_graph):
        found = set(find_quasi_cliques(triangle_graph, gamma=1.0, min_size=3))
        assert found == {frozenset({1, 2, 3})}

    def test_empty_graph_like_restriction(self, example_graph):
        assert find_quasi_cliques(example_graph, 0.6, 4, vertices=[]) == []

    def test_invalid_order_rejected(self, example_graph):
        params = QuasiCliqueParams(gamma=0.5, min_size=3)
        with pytest.raises(ParameterError):
            QuasiCliqueSearch(example_graph, params, order="random")


class TestCoverage:
    def test_example_coverage(self, example_graph):
        covered = vertices_in_quasi_cliques(example_graph, 0.6, 4)
        assert covered == frozenset(range(3, 12))

    def test_coverage_orders_agree(self, example_graph):
        dfs = vertices_in_quasi_cliques(example_graph, 0.6, 4, order=DFS)
        bfs = vertices_in_quasi_cliques(example_graph, 0.6, 4, order=BFS)
        assert dfs == bfs

    def test_coverage_equals_union_of_maximal(self, example_graph, small_random_graph):
        for graph in (example_graph, small_random_graph):
            maximal = find_quasi_cliques(graph, 0.5, 3)
            union = frozenset().union(*maximal) if maximal else frozenset()
            assert vertices_in_quasi_cliques(graph, 0.5, 3) == union

    def test_targets_limit_the_answer(self, example_graph):
        covered = vertices_in_quasi_cliques(example_graph, 0.6, 4, targets=[1, 3, 9])
        assert covered == frozenset({3, 9})

    def test_targets_outside_working_set(self, example_graph):
        covered = vertices_in_quasi_cliques(example_graph, 0.6, 4, targets=[1, 2])
        assert covered == frozenset()

    def test_restriction_propagates(self, example_graph):
        covered = vertices_in_quasi_cliques(
            example_graph, 0.6, 4, vertices=[3, 4, 5, 6, 7]
        )
        assert covered == frozenset({3, 4, 5, 6, 7})


class TestTopK:
    def test_top_1_is_largest(self, example_graph):
        top = top_k_quasi_cliques(example_graph, 0.6, 4, k=1)
        assert len(top) == 1
        assert top[0][0] == frozenset({6, 7, 8, 9, 10, 11})
        assert top[0][1] == pytest.approx(0.6)

    def test_top_k_ordering(self, example_graph):
        top = top_k_quasi_cliques(example_graph, 0.6, 4, k=3)
        sizes = [len(vertex_set) for vertex_set, _ in top]
        assert sizes == sorted(sizes, reverse=True)
        # secondary criterion: among the size-4 patterns the clique comes first
        assert top[1][0] == frozenset({3, 4, 5, 6})

    def test_top_k_larger_than_available(self, example_graph):
        top = top_k_quasi_cliques(example_graph, 0.6, 4, k=50)
        assert {vertex_set for vertex_set, _ in top} == EXAMPLE_MAXIMAL

    def test_invalid_k(self, example_graph):
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        with pytest.raises(ParameterError):
            QuasiCliqueSearch(example_graph, params).top_k(0)


class TestEngineDetails:
    def test_stats_are_recorded(self, example_graph):
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        search = QuasiCliqueSearch(example_graph, params)
        search.enumerate_maximal()
        assert search.stats.nodes_expanded > 0
        assert search.stats.satisfying_sets_found >= len(EXAMPLE_MAXIMAL)

    def test_node_budget_enforced(self, example_graph):
        params = QuasiCliqueParams(gamma=0.5, min_size=3)
        search = QuasiCliqueSearch(example_graph, params, node_budget=2)
        with pytest.raises(SearchBudgetExceeded):
            search.enumerate_maximal()

    def test_top_k_budget_covers_every_round(self, example_graph):
        # k=50 exceeds the 5 maximal sets, so top-k runs down to min_size.
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        unbounded = QuasiCliqueSearch(example_graph, params)
        unbounded.top_k(50)
        total = unbounded.stats.nodes_expanded
        exact = QuasiCliqueSearch(example_graph, params, node_budget=total)
        assert {s for s, _ in exact.top_k(50)} == EXAMPLE_MAXIMAL
        short = QuasiCliqueSearch(example_graph, params, node_budget=total - 1)
        with pytest.raises(SearchBudgetExceeded):
            short.top_k(50)

    def test_disable_distance_pruning_same_result(self, example_graph):
        params = QuasiCliqueParams(gamma=0.6, min_size=4)
        with_pruning = QuasiCliqueSearch(example_graph, params).enumerate_maximal()
        without_pruning = QuasiCliqueSearch(
            example_graph, params, use_distance_pruning=False
        ).enumerate_maximal()
        assert set(with_pruning) == set(without_pruning)

    def test_working_vertices_after_global_pruning(self, triangle_graph):
        params = QuasiCliqueParams(gamma=1.0, min_size=3)
        search = QuasiCliqueSearch(triangle_graph, params)
        assert search.working_vertices == frozenset({1, 2, 3})


# ----------------------------------------------------------------------
# seeded differential grid
# ----------------------------------------------------------------------
BASE_SEEDS = (5, 23)

#: (num_vertices, edge_probability, γ, min_size) — shapes from near-empty
#: to dense.  γ < 0.5 rows run without the diameter bound.
CASE_GRID = (
    (10, 0.1, 0.4, 3),
    (14, 0.3, 0.4, 3),
    (16, 0.25, 0.45, 3),
    (16, 0.25, 0.6, 3),
    (20, 0.4, 0.6, 3),
    (18, 0.5, 0.8, 4),
    (30, 0.2, 0.6, 3),
    (20, 0.4, 1.0, 3),
)

#: The rows within the brute-force reference's 20-vertex limit.
BRUTE_FORCE_GRID = tuple(row for row in CASE_GRID if row[0] <= 20)

#: The rows where the diameter bound (γ ≥ 0.5) is in force.
DISTANCE_PRUNED_GRID = tuple(row for row in CASE_GRID if row[2] >= 0.5)


def fuzz_seeds():
    seeds = list(BASE_SEEDS)
    extra = os.environ.get("REPRO_FUZZ_SEED")
    if extra is not None:
        seeds.append(int(extra))
    return seeds


def fuzz_graph(seed, num_vertices, edge_probability):
    return random_attributed_graph(
        num_vertices=num_vertices,
        edge_probability=edge_probability,
        attributes=["a", "b"],
        attribute_probability=0.6,
        seed=seed * 977 + num_vertices,
    )


@functools.lru_cache(maxsize=None)
def brute_force_case(seed, num_vertices, edge_probability, gamma, min_size):
    """(graph, params, maximal sets, covered vertices) of one grid row."""
    graph = fuzz_graph(seed, num_vertices, edge_probability)
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    return (
        graph,
        params,
        brute_force_maximal_quasi_cliques(graph, params),
        brute_force_covered_vertices(graph, params),
    )


def vertex_sample(graph, seed, fraction):
    """A seeded sample of ``fraction`` of the graph's vertices."""
    vertices = sorted(graph.vertices(), key=repr)
    rng = random.Random(seed * 31 + len(vertices))
    return rng.sample(vertices, int(len(vertices) * fraction))


def adjacency_of(graph):
    return {v: set(graph.neighbor_set(v)) for v in graph.vertices()}


def brute_force_ranking(graph, maximal):
    """Every maximal set as ``(vertices, γ)``, in top-k order.

    Largest first, then densest, then by sorted vertex reprs (Section
    3.2.3); ``top_k(k)`` must equal the first ``k`` entries.
    """
    adjacency = adjacency_of(graph)
    ranked = sorted(
        maximal,
        key=lambda s: (-len(s), -gamma_of(adjacency, s), sorted(map(repr, s))),
    )
    return [(s, gamma_of(adjacency, s)) for s in ranked]


def assert_top_k_exact(top, ranking, k):
    expected = ranking[:k]
    assert [vertex_set for vertex_set, _ in top] == [s for s, _ in expected]
    assert [g for _, g in top] == pytest.approx([g for _, g in expected])


def stats_tuple(stats):
    """Every expansion/pruning statistic of one search."""
    return (
        stats.nodes_expanded,
        stats.lookahead_hits,
        stats.satisfying_sets_found,
        stats.pruned_hopeless,
        stats.pruned_covered,
    )


def assert_modes_match(graph, params, maximal, covered, vertices=None):
    ranking = brute_force_ranking(graph, maximal)
    for order in (DFS, BFS):
        def search():
            return QuasiCliqueSearch(graph, params, vertices=vertices, order=order)

        found = search().enumerate_maximal()
        assert len(found) == len(set(found))
        assert set(found) == set(maximal)
        assert search().covered_vertices() == covered
        assert_top_k_exact(search().top_k(4), ranking, 4)


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", BRUTE_FORCE_GRID
)
def test_search_matches_brute_force(
    seed, num_vertices, edge_probability, gamma, min_size
):
    graph, params, maximal, covered = brute_force_case(
        seed, num_vertices, edge_probability, gamma, min_size
    )
    assert_modes_match(graph, params, maximal, covered)


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", BRUTE_FORCE_GRID
)
def test_restricted_search_matches_brute_force(
    seed, num_vertices, edge_probability, gamma, min_size
):
    # A vertex restriction must behave exactly like a search of the
    # induced subgraph (SCPM restricts every search this way).
    graph = fuzz_graph(seed, num_vertices, edge_probability)
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    vertices = vertex_sample(graph, seed, 2 / 3)
    assert_modes_match(
        graph,
        params,
        brute_force_maximal_quasi_cliques(graph, params, vertices),
        brute_force_covered_vertices(graph, params, vertices),
        vertices=vertices,
    )


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", BRUTE_FORCE_GRID
)
def test_targeted_coverage_matches_brute_force(
    seed, num_vertices, edge_probability, gamma, min_size
):
    graph, params, _, covered = brute_force_case(
        seed, num_vertices, edge_probability, gamma, min_size
    )
    # Targets outside the graph are ignored, like those outside the
    # working set.
    targets = vertex_sample(graph, seed + 1, 1 / 2) + ["not-a-vertex"]
    for order in (DFS, BFS):
        search = QuasiCliqueSearch(graph, params, order=order)
        assert search.covered_vertices(targets) == covered & frozenset(targets)


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", CASE_GRID
)
def test_search_identical_across_engines(
    seed, num_vertices, edge_probability, gamma, min_size
):
    graph = fuzz_graph(seed, num_vertices, edge_probability)
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    for order in (DFS, BFS):
        by_engine = {}
        for engine in ("dense", "sparse"):
            def search():
                return QuasiCliqueSearch(graph, params, order=order, engine=engine)

            coverage, enumerate_search, topk = search(), search(), search()
            by_engine[engine] = (
                coverage.covered_vertices(),
                stats_tuple(coverage.stats),
                enumerate_search.enumerate_maximal(),  # order included
                stats_tuple(enumerate_search.stats),
                topk.top_k(4),
                stats_tuple(topk.stats),
            )
        assert by_engine["sparse"] == by_engine["dense"]


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", DISTANCE_PRUNED_GRID
)
def test_distance_pruning_is_sound(
    seed, num_vertices, edge_probability, gamma, min_size
):
    graph = fuzz_graph(seed, num_vertices, edge_probability)
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    for order in (DFS, BFS):
        results = []
        for use_distance_pruning in (True, False):
            def search():
                return QuasiCliqueSearch(
                    graph,
                    params,
                    order=order,
                    use_distance_pruning=use_distance_pruning,
                )

            results.append(
                (
                    set(search().enumerate_maximal()),
                    search().covered_vertices(),
                    search().top_k(4),
                )
            )
        assert results[0] == results[1]


@pytest.mark.parametrize("seed", fuzz_seeds())
@pytest.mark.parametrize(
    "num_vertices,edge_probability,gamma,min_size", BRUTE_FORCE_GRID
)
def test_top_k_guarantees(seed, num_vertices, edge_probability, gamma, min_size):
    # Every rank of top_k(k) equals the brute-force ranking.
    graph, params, maximal, _ = brute_force_case(
        seed, num_vertices, edge_probability, gamma, min_size
    )
    ranking = brute_force_ranking(graph, maximal)
    for order in (DFS, BFS):
        for use_distance_pruning in (True, False):
            for k in (1, 2, 4, 50):
                search = QuasiCliqueSearch(
                    graph,
                    params,
                    order=order,
                    use_distance_pruning=use_distance_pruning,
                )
                assert_top_k_exact(search.top_k(k), ranking, k)


def graph_from_edges(num_vertices, edges):
    graph = AttributedGraph()
    for v in range(num_vertices):
        graph.add_vertex(v)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


@pytest.mark.parametrize(
    "num_vertices,edges,gamma,min_size,k,order",
    [
        # A size threshold taken from unconfirmed candidates once dropped
        # the 7-vertex rank 2 here and returned only the 11-vertex set.
        (
            13,
            [(0, 1), (0, 4), (0, 5), (0, 6), (0, 7), (0, 10), (0, 12),
             (1, 4), (1, 5), (1, 6), (1, 8), (1, 10), (2, 3), (2, 4),
             (2, 5), (2, 6), (2, 7), (2, 10), (2, 12), (3, 9), (3, 11),
             (4, 5), (4, 6), (4, 7), (4, 8), (4, 11), (5, 6), (5, 8),
             (5, 12), (6, 7), (6, 9), (6, 10), (7, 8), (7, 9), (8, 9),
             (8, 10), (8, 11), (8, 12), (9, 10), (9, 12), (10, 12),
             (11, 12)],
            0.5, 4, 2, DFS,
        ),
        # ... and returned 3 of the 4 sets here.
        (
            11,
            [(0, 8), (0, 9), (1, 3), (1, 5), (1, 6), (1, 7), (1, 8),
             (1, 9), (2, 4), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5),
             (3, 6), (3, 9), (4, 5), (4, 6), (4, 8), (4, 9), (4, 10),
             (5, 8), (5, 10), (6, 7), (6, 8), (6, 9), (6, 10), (7, 9)],
            0.75, 4, 4, BFS,
        ),
    ],
)
def test_top_k_regressions(num_vertices, edges, gamma, min_size, k, order):
    graph = graph_from_edges(num_vertices, edges)
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    ranking = brute_force_ranking(
        graph, brute_force_maximal_quasi_cliques(graph, params)
    )
    assert len(ranking) >= k
    top = QuasiCliqueSearch(graph, params, order=order).top_k(k)
    assert_top_k_exact(top, ranking, k)


def test_deep_member_paths_match_brute_force():
    # A 14-clique in which vertex 0 misses four edges: the root lookahead
    # fails and the search recurses into member paths of ten and more
    # vertices.
    clique = list(range(14))
    missing = {(0, 1), (0, 2), (0, 3), (0, 4)}
    graph = graph_from_edges(
        len(clique),
        [(i, j) for i in clique for j in clique[i + 1:] if (i, j) not in missing],
    )
    params = QuasiCliqueParams(gamma=0.9, min_size=10)
    maximal = brute_force_maximal_quasi_cliques(graph, params)
    assert frozenset(clique[1:]) in maximal
    assert_modes_match(
        graph, params, maximal, brute_force_covered_vertices(graph, params)
    )
