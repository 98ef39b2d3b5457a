"""Property-based tests: the pruned engine must agree with brute force.

Random small attributed graphs are generated with hypothesis and every mode
of the search engine (enumeration, coverage, top-k) is compared against the
exhaustive reference implementation.  These tests are the safety net for the
soundness of every pruning rule.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.attributed_graph import AttributedGraph
from repro.quasiclique.definitions import (
    QuasiCliqueParams,
    gamma_of,
    satisfies_degree_condition,
)
from repro.quasiclique.reference import (
    brute_force_covered_vertices,
    brute_force_maximal_quasi_cliques,
)
from repro.quasiclique.search import BFS, DFS, QuasiCliqueSearch

MAX_VERTICES = 9


@st.composite
def random_graphs(draw):
    """Generate a small random graph together with quasi-clique parameters."""
    num_vertices = draw(st.integers(min_value=2, max_value=MAX_VERTICES))
    possible_edges = [
        (u, v) for u in range(num_vertices) for v in range(u + 1, num_vertices)
    ]
    edge_flags = draw(
        st.lists(st.booleans(), min_size=len(possible_edges), max_size=len(possible_edges))
    )
    gamma = draw(st.sampled_from([0.3, 0.5, 0.6, 0.7, 0.8, 1.0]))
    min_size = draw(st.integers(min_value=2, max_value=4))
    graph = AttributedGraph()
    for vertex in range(num_vertices):
        graph.add_vertex(vertex)
        graph.add_attribute(vertex, "x")
    for include, (u, v) in zip(edge_flags, possible_edges):
        if include:
            graph.add_edge(u, v)
    return graph, QuasiCliqueParams(gamma=gamma, min_size=min_size)


@given(random_graphs())
@settings(max_examples=120, deadline=None)
def test_enumeration_matches_brute_force(case):
    graph, params = case
    expected = set(brute_force_maximal_quasi_cliques(graph, params))
    found = set(QuasiCliqueSearch(graph, params, order=DFS).enumerate_maximal())
    assert found == expected


@given(random_graphs())
@settings(max_examples=120, deadline=None)
def test_coverage_matches_brute_force(case):
    graph, params = case
    expected = brute_force_covered_vertices(graph, params)
    for order in (DFS, BFS):
        covered = QuasiCliqueSearch(graph, params, order=order).covered_vertices()
        assert covered == expected


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_enumeration_without_distance_pruning_matches(case):
    graph, params = case
    expected = set(brute_force_maximal_quasi_cliques(graph, params))
    found = set(
        QuasiCliqueSearch(
            graph, params, use_distance_pruning=False
        ).enumerate_maximal()
    )
    assert found == expected


@given(random_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=80, deadline=None)
def test_top_k_guarantees(case, k):
    """Top-k is exact (Section 3.2.3).

    The result is the first ``k`` maximal quasi-cliques ranked by size,
    then γ, then sorted vertex reprs — every rank, not just the first.
    """
    graph, params = case
    adjacency = {v: set(graph.neighbor_set(v)) for v in graph.vertices()}
    expected = sorted(
        brute_force_maximal_quasi_cliques(graph, params),
        key=lambda s: (-len(s), -gamma_of(adjacency, s), sorted(map(repr, s))),
    )[:k]
    top = QuasiCliqueSearch(graph, params).top_k(k)
    assert [vertex_set for vertex_set, _ in top] == expected
    for vertex_set, gamma in top:
        assert gamma == gamma_of(adjacency, vertex_set)


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_every_returned_set_satisfies_the_definition(case):
    graph, params = case
    adjacency = {v: set(graph.neighbor_set(v)) for v in graph.vertices()}
    for vertex_set in QuasiCliqueSearch(graph, params).enumerate_maximal():
        assert satisfies_degree_condition(adjacency, vertex_set, params)
        assert len(vertex_set) >= params.min_size
