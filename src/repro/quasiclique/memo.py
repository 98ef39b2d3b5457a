"""Lattice-wide memoization of quasi-clique coverage results.

SCPM funnels every attribute set through the same operation: the
coverage-oriented quasi-clique search over the working vertex set
``V(S)`` (restricted by the Theorem-3 parent intersection).  Theorem 3
is also why identical working sets recur across the attribute lattice:
sibling extensions inherit their candidate vertices from the *parents'*
covered sets, so two different attribute sets frequently induce the very
same working set — and the search would silently repeat the identical
enumeration.  The :class:`~repro.correlation.null_models.SimulationNullModel`
repeats the pattern per sampled support (clamped supports near |V| draw
literally identical samples every run).

:class:`CoverageMemo` caches those searches.  A key is
``(working-set native, γ, min_size)`` — the engine-native working set
(an int mask on the dense engine, a hashable
:class:`~repro.graph.sparseset.SparseBitset` on the sparse one), which
is *exact*: no fingerprint collisions, no false hits.  The value is the
covered set as the same kind of indexer-free native, so an entry can
cross process boundaries inside the parallel transfer payload and be
re-wrapped against any worker's index.  The coverage result is a pure
function of the key (the covered set of a vertex-restricted search does
not depend on traversal order), so a hit returns byte-identical output
to running the search — the memo-on/off differential suite enforces it.

SCPM keeps a second instance of the class, its *pattern memo*, for the
top-k stage (:func:`repro.correlation.structural.top_k_patterns`).  Its
keys append ``k`` to the coverage key, and its values are the
``((vertices, γ), …)`` tuples
:meth:`~repro.quasiclique.search.QuasiCliqueSearch.top_k` returns —
vertex labels, so they too cross process boundaries unchanged.  Top-k is
exact (the first ``k`` maximal quasi-cliques in a fixed ranking), so,
like coverage, its result does not depend on the traversal order and the
key leaves the order out: DFS and BFS runs share entries.

Two layers keep parallel runs deterministic:

* ``shared`` — a read-only snapshot, typically taken with
  :meth:`snapshot` at fan-out time and shipped once per worker inside
  the :class:`~repro.correlation.scpm._BranchPayload`;
* a local layer that accumulates new results.  Workers reset it at
  every task boundary (:meth:`reset_local`), making each task's hits a
  pure function of ``(payload, task args)`` — the scheduler's
  keyed-merge protocol then folds the per-task hit/miss counts back
  deterministically, independent of stealing order.

The parent then adopts every task's local layer (:meth:`adopt`), so after a
parallel run its memo holds exactly the entries a sequential run's
would.  Each local entry remembers how many search-tree nodes its search
expanded; :meth:`adopt` returns the nodes of entries it already had —
searches two tasks repeated because neither could see the other's
layer — and the caller takes them off its expanded-node counters.  The
node counts of a run are then the same for every task partitioning.

``hits``/``misses`` count lookups on this instance; mining-level totals
are accumulated into
:class:`~repro.correlation.patterns.MiningCounters` by the callers.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Tuple

MemoKey = Tuple[Hashable, ...]


class CoverageMemo:
    """Two-layer cache of coverage-search results keyed by working set.

    Parameters
    ----------
    shared:
        Optional read-only base layer (a mapping produced by
        :meth:`snapshot` of another memo).  Never written to; lets a
        worker process consult the parent's results while keeping its
        own additions local.

    Examples
    --------
    >>> memo = CoverageMemo()
    >>> key = memo.key(0b1011, gamma=0.6, min_size=2)
    >>> memo.get(key) is None
    True
    >>> memo.put(key, 0b0011)
    >>> memo.get(key)
    3
    >>> (memo.hits, memo.misses)
    (1, 1)
    """

    __slots__ = ("_shared", "_local", "_local_nodes", "hits", "misses")

    def __init__(self, shared: Optional[Dict[MemoKey, Any]] = None) -> None:
        self._shared: Dict[MemoKey, Any] = shared if shared is not None else {}
        self._local: Dict[MemoKey, Any] = {}
        self._local_nodes: Dict[MemoKey, int] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        working_native: Hashable, gamma: float, min_size: int, *mode: Hashable
    ) -> MemoKey:
        """Build the cache key for one search.

        ``working_native`` is the engine-native working set — hashable
        and equality-exact for both engines, so the key never aliases
        two different searches.  γ and ``min_size`` pin the quasi-clique
        definition the cached result answers for; ``mode`` appends
        whatever else the result depends on (the pattern memo adds
        ``k``).  The working set always comes
        first — :func:`repro.quasiclique.delta.invalidate_memo` reads it
        from ``key[0]``.
        """
        return (working_native, gamma, min_size, *mode)

    def get(self, key: MemoKey) -> Any:
        """Return the cached result, or ``None`` (counted)."""
        value = self._local.get(key)
        if value is None:
            value = self._shared.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        return value

    def put(self, key: MemoKey, value: Any, nodes: int = 0) -> None:
        """Store a computed result in the local layer.

        ``nodes`` is the number of search-tree nodes the search that
        computed it expanded (see :meth:`adopt`).
        """
        self._local[key] = value
        self._local_nodes[key] = nodes

    def local_layer(self) -> Tuple[Dict[MemoKey, Any], Dict[MemoKey, int]]:
        """Copies of the local layer's entries and their node counts.

        What a parallel task hands back for its parent to :meth:`adopt`.
        """
        return dict(self._local), dict(self._local_nodes)

    def adopt(
        self, entries: Dict[MemoKey, Any], nodes: Dict[MemoKey, int]
    ) -> int:
        """Merge another memo's :meth:`local_layer` into the local layer.

        Returns the summed node counts of the entries this memo already
        held: the work of searches that were repeated.  Results are pure
        functions of their keys, so a known entry is kept as it is.
        """
        repeated = 0
        for key, value in entries.items():
            if key in self._local or key in self._shared:
                repeated += nodes[key]
            else:
                self._local[key] = value
                self._local_nodes[key] = nodes[key]
        return repeated

    def snapshot(self) -> Dict[MemoKey, Any]:
        """One read-only dict of everything known — shared layer included.

        This is what rides the parallel transfer payload: workers build
        their own :class:`CoverageMemo` around it and keep later results
        local.
        """
        merged = dict(self._shared)
        merged.update(self._local)
        return merged

    def evict_where(self, predicate) -> int:
        """Drop every entry whose key matches ``predicate``; return count.

        The invalidation hook of delta re-evaluation
        (:func:`repro.quasiclique.delta.invalidate_memo`): after a graph
        edit, entries whose working set intersects a touched chunk are
        stale — their covered sets answer for the pre-edit subgraph —
        while all other entries remain exact (their induced subgraphs are
        bit-for-bit unchanged).  Both layers are scanned; the shared
        layer is mutated in place, so only the memo's owner should call
        this (worker memos built around a snapshot share the dict).
        """
        removed = 0
        for layer in (self._shared, self._local):
            doomed = [key for key in layer if predicate(key)]
            for key in doomed:
                del layer[key]
                self._local_nodes.pop(key, None)
            removed += len(doomed)
        return removed

    def reset_local(self) -> None:
        """Drop the local layer (task-boundary determinism hook).

        Hit/miss counters are *not* reset — callers account for them as
        deltas around each lookup.
        """
        self._local.clear()
        self._local_nodes.clear()

    def __len__(self) -> int:
        return len(self._shared) + len(self._local)

    def __repr__(self) -> str:
        return (
            f"CoverageMemo(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )


__all__ = ["CoverageMemo", "MemoKey"]
