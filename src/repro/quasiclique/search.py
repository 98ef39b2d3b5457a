"""Set-enumeration search engine for quasi-cliques (Algorithm 1 of the paper).

One engine drives the three tasks the paper needs:

* :meth:`QuasiCliqueSearch.enumerate_maximal` — all maximal γ-quasi-cliques
  (used by the Naive baseline, mirroring the Quick algorithm);
* :meth:`QuasiCliqueSearch.covered_vertices` — the set ``K`` of vertices that
  belong to at least one quasi-clique, computed with *cover pruning* and
  early termination (this is how SCPM evaluates the structural correlation);
* :meth:`QuasiCliqueSearch.top_k` — the k largest/densest maximal patterns,
  found by enumerating at a descending size threshold (Section 3.2.3).

Candidates ``(X, candExts(X))`` are explored over a set-enumeration tree
(Figure 2 of the paper).  A deque gives the BFS strategy, a stack the DFS
strategy.  The pruning rules live in :mod:`repro.quasiclique.pruning`.

Internally the engine runs on the **bitset vertex-set engine**
(:mod:`repro.graph.vertexset`): the working vertices are relabelled to dense
local ids in ascending-degree order (the classical Eclat-style heuristic that
keeps candidate sets small near the root), adjacency becomes one int mask per
id, and every degree check of the inner loop is a single ``&`` plus a
popcount instead of a hashed set intersection.  Local id order *is* the
candidate-expansion rank, so iterating the set bits of a candidate mask in
ascending position replaces the seed implementation's per-node sort.  All
public entry points keep accepting and returning plain vertices and
``frozenset`` objects; a :class:`repro.graph.vertexset.VertexBitset` (or
:class:`repro.graph.sparseset.SparseVertexBitset`) bound to the graph's own
index is accepted as a zero-copy ``vertices=`` restriction.

The *global* vertex-set representation behind the search is pluggable
(``engine="dense"|"sparse"|"auto"``, see :mod:`repro.graph.engine`): the
index hands over the working adjacency already projected into the local id
space, so the enumeration core below is engine-agnostic and its results are
byte-identical across engines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ParameterError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.vertexset import VertexBitset, iter_bits
from repro.quasiclique.definitions import (
    QuasiCliqueParams,
    gamma_of_mask,
    satisfies_degree_condition_mask,
)
from repro.quasiclique.pruning import (
    MaskDistanceIndex,
    prune_low_degree_masks,
    restrict_candidates_masks,
    subtree_is_hopeless_masks,
)

Vertex = Hashable
VertexRestriction = Union[Iterable[Vertex], VertexBitset, None]

BFS = "bfs"
DFS = "dfs"
_ORDERS = (BFS, DFS)


class SearchBudgetExceeded(RuntimeError):
    """Raised when a node budget is set and the search would exceed it."""


@dataclass
class SearchStats:
    """Counters describing one quasi-clique search run.

    ``memo_hits``/``memo_misses`` describe the
    :class:`~repro.quasiclique.memo.CoverageMemo` consultation that
    surrounded this search, when a caller such as
    :func:`repro.correlation.structural.structural_correlation_bitset`
    consulted one — a search object only ever exists after a miss, so on a
    search's own stats ``memo_hits`` stays 0 and ``memo_misses`` is at most
    1; the mining-level totals live in
    :class:`~repro.correlation.patterns.MiningCounters`.
    """

    nodes_expanded: int = 0
    lookahead_hits: int = 0
    satisfying_sets_found: int = 0
    pruned_hopeless: int = 0
    pruned_covered: int = 0
    memo_hits: int = 0
    memo_misses: int = 0


@dataclass
class _Node:
    """A search-tree node: the growing set X and its candidate extensions.

    ``members`` keeps the extension path as a tuple of local ids (cheap
    prefix sharing between siblings); ``members_mask`` and ``candidates``
    are masks in the same local id space.
    """

    members: Tuple[int, ...]
    members_mask: int
    candidates: int


class QuasiCliqueSearch:
    """Quasi-clique search over a graph or a vertex-restricted subgraph.

    Enumeration and coverage run on one set-enumeration loop,
    :meth:`_run`, over the working set's local-id adjacency masks, and
    top-k runs that loop's enumeration at raised size thresholds; DFS and
    BFS differ only in which end of the frontier is popped.

    Parameters
    ----------
    graph:
        The graph to search.  Only its adjacency is used; a vertex
        restriction makes the search equivalent to running on the induced
        subgraph without materialising it.
    params:
        Quasi-clique parameters ``(γ, min_size)``.
    vertices:
        Optional restriction of the working vertex set (used by SCPM's
        Theorem-3 vertex pruning: only vertices covered for every parent
        attribute set need to be considered).  Accepts any iterable of
        vertices or a :class:`~repro.graph.vertexset.VertexBitset` bound to
        ``graph.bitset_index()`` (zero-copy fast path).
    order:
        ``"dfs"`` (default) or ``"bfs"`` — the traversal strategy.
    use_distance_pruning:
        Enable the diameter-based candidate restriction (only effective for
        γ ≥ 0.5, where the bound is valid).
    node_budget:
        Optional hard cap on expanded nodes; exceeding it raises
        :class:`SearchBudgetExceeded`.  ``None`` (default) means unlimited.
    engine:
        Vertex-set engine of the graph index (``"dense"``, ``"sparse"`` or
        ``"auto"``; see :mod:`repro.graph.engine`).  Either engine yields
        byte-identical results; only memory/speed trade-offs differ.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        params: QuasiCliqueParams,
        vertices: VertexRestriction = None,
        order: str = DFS,
        use_distance_pruning: bool = True,
        node_budget: Optional[int] = None,
        engine: str = "auto",
    ) -> None:
        if order not in _ORDERS:
            raise ParameterError(f"order must be one of {_ORDERS}, got {order!r}")
        self.params = params
        self.order = order
        self.node_budget = node_budget
        self.stats = SearchStats()

        index = graph.bitset_index(engine)
        working = index.working_mask(vertices)
        # Working adjacency in a provisional local id space (ascending global
        # id order).  The index materialises the dense local masks — the
        # sparse engine's only dense allocation, bounded by the working set —
        # and may pre-drop provably hopeless vertices (the dense prune below
        # reaches the same unique fixpoint either way).
        global_ids, provisional = index.local_adjacency(
            working, min_degree=params.base_degree_threshold
        )

        # Global vertex pruning (Section 3.2.1), then relabel the survivors
        # so that ascending local id == ascending (degree, repr) rank.
        alive, pruned = prune_low_degree_masks(provisional, params)
        vertex_of_global = index.indexer.vertex_of
        survivors = sorted(
            iter_bits(alive),
            key=lambda i: (pruned[i].bit_count(), repr(vertex_of_global(global_ids[i]))),
        )
        relabel = {old: new for new, old in enumerate(survivors)}
        self._adjacency: List[int] = []
        for old in survivors:
            mask = 0
            for neighbor in iter_bits(pruned[old]):
                mask |= 1 << relabel[neighbor]
            self._adjacency.append(mask)
        self._vertex_of: List[Vertex] = [
            vertex_of_global(global_ids[old]) for old in survivors
        ]
        self._id_of: Dict[Vertex, int] = {
            v: i for i, v in enumerate(self._vertex_of)
        }
        self._universe: int = (1 << len(survivors)) - 1
        self._distance_index = (
            MaskDistanceIndex(self._adjacency, params.distance_bound)
            if use_distance_pruning
            else None
        )

    # ------------------------------------------------------------------
    # public modes
    # ------------------------------------------------------------------
    @property
    def working_vertices(self) -> FrozenSet[Vertex]:
        """Vertices that survived the global minimum-degree pruning."""
        return frozenset(self._vertex_of)

    def enumerate_maximal(self) -> List[FrozenSet[Vertex]]:
        """Enumerate every maximal γ-quasi-clique of size ≥ ``min_size``.

        Maximality follows Definition 1: a satisfying vertex set with no
        satisfying proper superset.  The search emits every satisfying set
        that is not subsumed by a lookahead hit and a containment filter
        removes non-maximal emissions, which yields exactly the maximal
        sets (each satisfying set is contained in some emitted set).
        """
        return [self._to_frozenset(mask) for mask in self._maximal_masks()]

    def covered_vertices(
        self, targets: Optional[Iterable[Vertex]] = None
    ) -> FrozenSet[Vertex]:
        """Return the vertices covered by at least one quasi-clique.

        ``targets`` optionally limits the vertices whose coverage status is
        required; the search stops as soon as every target is covered and
        skips subtrees that cannot cover a new target.  The returned set
        contains exactly the covered vertices among the targets (all working
        vertices when ``targets`` is ``None``).
        """
        return self._to_frozenset(self.covered_mask(targets))

    def covered_mask(self, targets: Optional[Iterable[Vertex]] = None) -> int:
        """Like :meth:`covered_vertices` but returning a local-id mask.

        Exposed for callers that immediately re-index the result (the SCPM
        hot path); :meth:`covered_to_global` maps it back to graph space.
        """
        targets_mask = self._restriction_mask(targets)
        covered = [self._greedy_cover(targets_mask)]
        if targets_mask & ~covered[0]:
            self._run(mode="coverage", covered=covered, targets=targets_mask)
        return covered[0] & targets_mask

    def top_k(self, k: int) -> List[Tuple[FrozenSet[Vertex], float]]:
        """Return the top-``k`` maximal quasi-cliques by size, then density.

        The result is a list of ``(vertex_set, gamma)`` pairs: the first
        ``k`` maximal γ-quasi-cliques of size ≥ ``min_size`` under
        Section 3.2.3's ranking — size descending, then γ descending,
        then the sorted vertex reprs — or all of them when fewer than
        ``k`` exist.

        The search runs in threshold rounds.  ``t`` starts at an upper
        bound on the quasi-clique size (:meth:`_size_bound`) and falls by
        1, 2, 4, … down to ``min_size``; each round prunes the working
        set to the threshold-``t`` degree fixpoint and enumerates the
        maximal sets of size ≥ ``t``.  A satisfying superset of a set of
        size ≥ ``t`` has size ≥ ``t`` too, so these are exactly the
        maximal quasi-cliques of size ≥ ``t``, and every maximal set the
        round misses ranks below all of them.  The first round that finds
        ``k`` sets (or the one at ``min_size``, or one that finds the whole
        working set, the only maximal set then) therefore holds the exact
        answer.

        ``stats.nodes_expanded`` counts the nodes of every round, and
        ``node_budget`` caps that total.  The result is a pure function
        of ``(working set, γ, min_size, k)``: the search reads only the
        subgraph induced by its working set, and neither the traversal
        order nor the engine changes the set of maximal quasi-cliques.
        SCPM's pattern memo keys on exactly that tuple
        (:func:`repro.correlation.structural.top_k_patterns`).
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        gamma, min_size = self.params.gamma, self.params.min_size
        threshold = max(self._size_bound(), min_size)
        step = 1
        while True:
            raised = QuasiCliqueParams(gamma, threshold)
            alive, _ = prune_low_degree_masks(self._adjacency, raised)
            maximal = (
                self._maximal_masks(raised, alive)
                if alive.bit_count() >= threshold
                else []
            )
            # A working set that is itself a quasi-clique contains every
            # other one: it is the only maximal set, and lower rounds
            # cannot add to it.
            if (
                len(maximal) >= k
                or threshold == min_size
                or self._universe in maximal
            ):
                break
            threshold = max(threshold - step, min_size)
            step *= 2
        ranked = sorted(maximal, key=self._pattern_sort_key)[:k]
        return [
            (self._to_frozenset(mask), gamma_of_mask(self._adjacency, mask))
            for mask in ranked
        ]

    def _maximal_masks(
        self,
        params: Optional[QuasiCliqueParams] = None,
        universe: Optional[int] = None,
    ) -> List[int]:
        """Maximal satisfying sets of the enumerate mode, as masks."""
        emitted: List[int] = []
        self._run(mode="enumerate", emitted=emitted, params=params, universe=universe)
        return _maximal_only(emitted)

    def _size_bound(self) -> int:
        """Upper bound on the size of any quasi-clique of the working set.

        The largest ``s`` such that at least ``s`` working vertices have
        degree ≥ ``⌈γ(s−1)⌉``: every member of a size-``s`` quasi-clique
        has that many neighbours inside it.
        """
        degrees = sorted(
            (mask.bit_count() for mask in self._adjacency), reverse=True
        )
        for size in range(len(degrees), 0, -1):
            if degrees[size - 1] >= self.params.degree_threshold(size):
                return size
        return 0

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def _to_frozenset(self, mask: int) -> FrozenSet[Vertex]:
        table = self._vertex_of
        return frozenset(table[i] for i in iter_bits(mask))

    def covered_to_global(self, mask: int, index):
        """Map a local-id mask into ``index``'s native global representation."""
        id_of = index.indexer.id_of
        table = self._vertex_of
        return index.native_from_ids(id_of(table[i]) for i in iter_bits(mask))

    def _restriction_mask(self, targets: Optional[Iterable[Vertex]]) -> int:
        if targets is None:
            return self._universe
        id_of = self._id_of
        mask = 0
        for vertex in targets:
            index = id_of.get(vertex)
            if index is not None:
                mask |= 1 << index
        return mask

    # ------------------------------------------------------------------
    # greedy coverage seed
    # ------------------------------------------------------------------
    def _greedy_satisfying_sets(self, targets: int) -> List[int]:
        """Cheap sound pre-pass that finds obvious quasi-cliques around dense vertices.

        For each still-unvisited target (densest first) the closed
        neighbourhood is shrunk greedily — dropping the weakest vertex while
        the γ degree condition fails — and, whenever a satisfying set
        remains, it is recorded.  Only verified satisfying sets are returned,
        so the pre-pass never over-reports; the exact search that follows
        settles everything else.  In dense planted communities this removes
        almost all the enumeration work.
        """
        adjacency = self._adjacency
        params = self.params
        found: List[int] = []
        seen = 0
        order = sorted(iter_bits(targets), key=lambda i: -adjacency[i].bit_count())
        for vertex in order:
            if (seen >> vertex) & 1:
                continue
            candidate = adjacency[vertex] | (1 << vertex)
            while candidate.bit_count() >= params.min_size:
                if satisfies_degree_condition_mask(adjacency, candidate, params):
                    found.append(candidate)
                    seen |= candidate
                    break
                weakest = min(
                    iter_bits(candidate & ~(1 << vertex)),
                    key=lambda v: ((adjacency[v] & candidate).bit_count(), v),
                )
                candidate &= ~(1 << weakest)
        return found

    def _greedy_cover(self, targets: int) -> int:
        """Mask covered by the greedy pre-pass (see ``_greedy_satisfying_sets``)."""
        covered = 0
        for satisfying in self._greedy_satisfying_sets(targets):
            self.stats.satisfying_sets_found += 1
            covered |= satisfying
        return covered

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def _run(
        self,
        mode: str,
        emitted: Optional[List[int]] = None,
        covered: Optional[List[int]] = None,
        targets: int = 0,
        params: Optional[QuasiCliqueParams] = None,
        universe: Optional[int] = None,
    ) -> None:
        """Drive the set-enumeration search in the requested ``mode``.

        ``params`` and ``universe`` default to the search's own; top-k
        passes a raised ``min_size`` and the vertices that survive it.
        Every node recomputes its pruning state from the adjacency masks:
        candidate restriction, the cover rule, the hopeless-subtree test
        and the lookahead are each a few ``&`` plus popcounts over the
        working set's local ids.
        """
        params = self.params if params is None else params
        universe = self._universe if universe is None else universe
        if not universe:
            return
        adjacency = self._adjacency
        frontier: deque = deque()
        frontier.append(_Node(members=(), members_mask=0, candidates=universe))

        while frontier:
            node = frontier.popleft() if self.order == BFS else frontier.pop()
            self.stats.nodes_expanded += 1
            if self.node_budget is not None and self.stats.nodes_expanded > self.node_budget:
                raise SearchBudgetExceeded(
                    f"expanded more than {self.node_budget} candidate quasi-cliques"
                )

            members_mask = node.members_mask
            candidates = restrict_candidates_masks(
                adjacency,
                node.members,
                members_mask,
                node.candidates,
                params,
                self._distance_index,
            )

            if mode == "coverage":
                assert covered is not None
                covered_mask = covered[0]
                if not targets & ~covered_mask:
                    return
                union = members_mask | candidates
                if not union & ~covered_mask or not union & targets & ~covered_mask:
                    self.stats.pruned_covered += 1
                    continue

            if subtree_is_hopeless_masks(adjacency, members_mask, candidates, params):
                self.stats.pruned_hopeless += 1
                continue

            union = members_mask | candidates
            if candidates and satisfies_degree_condition_mask(adjacency, union, params):
                # Lookahead: X ∪ candExts(X) is itself a quasi-clique — it
                # subsumes every satisfying set of this subtree.
                self.stats.lookahead_hits += 1
                self._record(union, mode, emitted, covered)
                continue

            if members_mask.bit_count() >= params.min_size and (
                satisfies_degree_condition_mask(adjacency, members_mask, params)
            ):
                self._record(members_mask, mode, emitted, covered)

            if not candidates:
                continue
            # Ascending bit position == ascending rank: the relabelling in
            # __init__ makes the per-node candidate sort of the original
            # implementation free.
            children: List[_Node] = []
            rest = candidates
            for vertex in iter_bits(candidates):
                rest &= ~(1 << vertex)
                children.append(
                    _Node(
                        members=node.members + (vertex,),
                        members_mask=members_mask | (1 << vertex),
                        candidates=rest,
                    )
                )
            if self.order == DFS:
                # push in reverse so the smallest-ranked extension is explored first
                children.reverse()
            frontier.extend(children)

    def _record(
        self,
        vertex_mask: int,
        mode: str,
        emitted: Optional[List[int]],
        covered: Optional[List[int]],
    ) -> None:
        """Register a satisfying vertex set according to the search mode."""
        self.stats.satisfying_sets_found += 1
        if mode == "coverage":
            assert covered is not None
            covered[0] |= vertex_mask
            return
        assert emitted is not None
        emitted.append(vertex_mask)

    def _pattern_sort_key(self, vertex_mask: int) -> Tuple:
        """``(-size, -γ, repr-ranked vertices)`` ranking key of a pattern."""
        return (
            -vertex_mask.bit_count(),
            -gamma_of_mask(self._adjacency, vertex_mask),
            sorted(map(repr, self._to_frozenset(vertex_mask))),
        )


def _maximal_only(masks: Sequence[int]) -> List[int]:
    """Filter a collection of vertex-set masks down to the inclusion-maximal ones."""
    unique = list(dict.fromkeys(masks))
    unique.sort(key=int.bit_count, reverse=True)
    maximal: List[int] = []
    for candidate in unique:
        if not any(
            candidate != other and candidate & ~other == 0 for other in maximal
        ):
            maximal.append(candidate)
    return maximal


# ----------------------------------------------------------------------
# convenience functions
# ----------------------------------------------------------------------
def find_quasi_cliques(
    graph: AttributedGraph,
    gamma: float,
    min_size: int,
    order: str = DFS,
    vertices: VertexRestriction = None,
    engine: str = "auto",
) -> List[FrozenSet[Vertex]]:
    """Enumerate the maximal γ-quasi-cliques of ``graph``.

    Examples
    --------
    >>> from repro.datasets import paper_example_graph
    >>> cliques = find_quasi_cliques(paper_example_graph(), gamma=0.6, min_size=4)
    >>> sorted(map(len, cliques))
    [4, 4, 4, 4, 6]
    """
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    search = QuasiCliqueSearch(
        graph, params, vertices=vertices, order=order, engine=engine
    )
    return search.enumerate_maximal()


def vertices_in_quasi_cliques(
    graph: AttributedGraph,
    gamma: float,
    min_size: int,
    order: str = DFS,
    vertices: VertexRestriction = None,
    targets: Optional[Iterable[Vertex]] = None,
    engine: str = "auto",
) -> FrozenSet[Vertex]:
    """Return the set ``K`` of vertices belonging to at least one quasi-clique."""
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    search = QuasiCliqueSearch(
        graph, params, vertices=vertices, order=order, engine=engine
    )
    return search.covered_vertices(targets=targets)


def top_k_quasi_cliques(
    graph: AttributedGraph,
    gamma: float,
    min_size: int,
    k: int,
    order: str = DFS,
    vertices: VertexRestriction = None,
    engine: str = "auto",
) -> List[Tuple[FrozenSet[Vertex], float]]:
    """Return the top-``k`` quasi-cliques of ``graph`` by size then density."""
    params = QuasiCliqueParams(gamma=gamma, min_size=min_size)
    search = QuasiCliqueSearch(
        graph, params, vertices=vertices, order=order, engine=engine
    )
    return search.top_k(k)
