"""Determinism and correctness of the ``n_jobs`` attribute-branch fan-out.

The contract: for any worker count, either schedule (``stripe``/``steal``),
any fan-out depth and both vertex-set engines, the merged
:class:`MiningResult` — including the *order* of the evaluation records and
every work counter — is byte-identical to the sequential run.  Both
bundled null models qualify: the analytical model is closed-form and the
simulation model derives a per-support child seed.
"""

import pytest

from repro.correlation.naive import mine_naive
from repro.correlation.null_models import SimulationNullModel
from repro.correlation.parameters import SCPMParams
from repro.correlation.scpm import SCPM, mine_scpm
from repro.datasets.example import paper_example_graph
from repro.datasets.synthetic import CommunitySpec, SyntheticSpec, generate
from repro.errors import ParameterError

PARAMS = SCPMParams(
    min_support=3, gamma=0.6, min_size=3, min_epsilon=0.1, top_k=5
)


def canonical_bytes(result):
    """Deterministic byte serialization of a MiningResult.

    Neither ``pickle.dumps`` of the raw result (frozenset iteration order
    varies, and pickle memoizes by object *identity*, which differs between
    parent-built and worker-rebuilt records) nor record equality alone is a
    byte-level check, so records are flattened into sorted value tuples and
    rendered with ``repr``: equal mined output ⇔ equal bytes.
    """
    def canon_record(r):
        return (
            r.attributes,
            r.support,
            r.epsilon,
            r.expected_epsilon,
            r.delta,
            tuple(sorted(map(repr, r.covered_vertices))),
            tuple(
                (p.attributes, tuple(sorted(map(repr, p.vertices))), p.gamma)
                for p in r.patterns
            ),
            r.qualified,
        )

    c = result.counters
    payload = (
        result.algorithm,
        tuple(canon_record(r) for r in result.evaluated),
        (
            c.attribute_sets_evaluated,
            c.attribute_sets_qualified,
            c.attribute_sets_extended,
            c.attribute_sets_pruned,
            c.coverage_nodes_expanded,
            c.pattern_nodes_expanded,
        ),
    )
    return repr(payload).encode("utf-8")


def community_graph():
    return generate(
        SyntheticSpec(
            num_vertices=80,
            background_degree=3.0,
            vocabulary_size=10,
            attributes_per_vertex=2.0,
            communities=(
                CommunitySpec(attributes=("t0",), size=8, density=0.9),
                CommunitySpec(attributes=("t1",), size=7, density=0.9),
                CommunitySpec(
                    attributes=("t2", "t3"), size=6, density=0.95, noise_carriers=2
                ),
            ),
            seed=13,
        )
    )


def counters_tuple(result):
    c = result.counters
    return (
        c.attribute_sets_evaluated,
        c.attribute_sets_qualified,
        c.attribute_sets_extended,
        c.attribute_sets_pruned,
        c.coverage_nodes_expanded,
        c.pattern_nodes_expanded,
    )


class TestParallelDeterminism:
    def test_n_jobs_validation(self):
        with pytest.raises(ParameterError):
            SCPMParams(min_support=2, gamma=0.5, min_size=3, n_jobs=0)
        with pytest.raises(ParameterError):
            SCPMParams(min_support=2, gamma=0.5, min_size=3, n_jobs=-2)
        assert SCPMParams(min_support=2, gamma=0.5, min_size=3, n_jobs=-1).resolved_jobs() >= 1
        assert SCPMParams(min_support=2, gamma=0.5, min_size=3, n_jobs=4).resolved_jobs() == 4

    @pytest.mark.parametrize("n_jobs", [2, 3, -1])
    def test_paper_example_identical_for_any_worker_count(self, n_jobs):
        graph = paper_example_graph()
        params = SCPMParams(
            min_support=3, gamma=0.6, min_size=4, min_epsilon=0.5, top_k=10
        )
        sequential = SCPM(graph, params).mine()
        parallel = SCPM(graph, params.with_changes(n_jobs=n_jobs)).mine()
        assert parallel.evaluated == sequential.evaluated
        assert counters_tuple(parallel) == counters_tuple(sequential)
        assert parallel.algorithm == sequential.algorithm

    def test_synthetic_graph_identical_across_worker_counts(self):
        graph = community_graph()
        sequential = mine_scpm(graph, PARAMS)
        results = [
            mine_scpm(graph, PARAMS.with_changes(n_jobs=jobs)) for jobs in (2, 4)
        ]
        for parallel in results:
            # full record equality, order included
            assert parallel.evaluated == sequential.evaluated
            assert counters_tuple(parallel) == counters_tuple(sequential)

    def test_parallel_without_patterns(self):
        graph = community_graph()
        sequential = SCPM(graph, PARAMS, collect_patterns=False).mine()
        parallel = SCPM(
            graph, PARAMS.with_changes(n_jobs=2), collect_patterns=False
        ).mine()
        assert parallel.evaluated == sequential.evaluated

    def test_single_branch_falls_back_to_sequential(self):
        # a graph with one frequent attribute → nothing to fan out
        graph = paper_example_graph()
        params = SCPMParams(
            min_support=9, gamma=0.6, min_size=4, n_jobs=4
        )
        result = SCPM(graph, params).mine()
        sequential = SCPM(graph, params.with_changes(n_jobs=1)).mine()
        assert result.evaluated == sequential.evaluated


class TestSchedulerDeterminism:
    """Byte-identical output across the full scheduling parameter grid."""

    def test_schedule_validation(self):
        with pytest.raises(ParameterError):
            SCPMParams(min_support=2, gamma=0.5, min_size=3, schedule="lifo")
        with pytest.raises(ParameterError):
            SCPMParams(min_support=2, gamma=0.5, min_size=3, fanout_depth=3)
        with pytest.raises(ParameterError):
            SCPMParams(min_support=2, gamma=0.5, min_size=3, task_batch_size=0)
        with pytest.raises(ParameterError):
            SCPMParams(min_support=2, gamma=0.5, min_size=3, transfer="carrier-pigeon")

    @pytest.mark.parametrize("engine", ["dense", "sparse"])
    @pytest.mark.parametrize("schedule", ["stripe", "steal"])
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_byte_identical_across_jobs_schedule_engine(
        self, community_reference, n_jobs, schedule, engine
    ):
        graph, reference = community_reference
        params = PARAMS.with_changes(
            n_jobs=n_jobs, schedule=schedule, engine=engine
        )
        assert canonical_bytes(mine_scpm(graph, params)) == reference

    @pytest.mark.parametrize("fanout_depth", [1, 2])
    def test_fanout_depth_preserves_output(self, community_reference, fanout_depth):
        graph, reference = community_reference
        params = PARAMS.with_changes(
            n_jobs=3, schedule="steal", fanout_depth=fanout_depth
        )
        assert canonical_bytes(mine_scpm(graph, params)) == reference

    def test_tiny_task_batches_preserve_output(self, community_reference):
        graph, reference = community_reference
        params = PARAMS.with_changes(n_jobs=2, schedule="steal", task_batch_size=1)
        assert canonical_bytes(mine_scpm(graph, params)) == reference

    @pytest.mark.parametrize("transfer", ["fork", "shared_memory", "pickle"])
    def test_transfer_strategies_preserve_output(
        self, community_reference, transfer
    ):
        import multiprocessing

        if transfer == "fork" and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        graph, reference = community_reference
        params = PARAMS.with_changes(n_jobs=2, schedule="steal", transfer=transfer)
        assert canonical_bytes(mine_scpm(graph, params)) == reference

    @pytest.mark.parametrize("schedule", ["stripe", "steal"])
    def test_pool_unavailable_runs_tasks_in_process(
        self, community_reference, monkeypatch, schedule
    ):
        """Without usable multiprocessing the scheduler executes the same
        branch tasks in-process and the output is still byte-identical."""
        import concurrent.futures

        def _broken_pool(*args, **kwargs):
            raise OSError("no process support")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _broken_pool
        )
        graph, reference = community_reference
        params = PARAMS.with_changes(n_jobs=4, schedule=schedule)
        miner = SCPM(graph, params)
        assert canonical_bytes(miner.mine()) == reference
        assert miner.last_scheduler_stats.workers == 1

    def test_simulation_null_model_deterministic_under_steal(self):
        """The PR-1 caveat is gone: sim-exp draws per-support child seeds,
        so the Monte-Carlo model mines identically under any schedule."""
        graph = paper_example_graph()
        params = SCPMParams(
            min_support=3, gamma=0.6, min_size=4, min_epsilon=0.3, top_k=5
        )

        def model():
            return SimulationNullModel(
                graph, params.quasi_clique_params(), runs=6, seed=11
            )

        sequential = SCPM(graph, params, null_model=model()).mine()
        for schedule in ("stripe", "steal"):
            parallel = SCPM(
                graph,
                params.with_changes(n_jobs=3, schedule=schedule),
                null_model=model(),
            ).mine()
            assert canonical_bytes(parallel) == canonical_bytes(sequential)


class TestBothSidesOfHalfGamma:
    """γ < 0.5 runs every search without the diameter bound; the contract
    holds there exactly as at γ ≥ 0.5 — engines, orders, schedules and the
    naive baseline all mine byte-identical output."""

    @pytest.mark.parametrize("order", ["dfs", "bfs"])
    @pytest.mark.parametrize("gamma", [0.45, 0.6])
    def test_scpm_identical_across_engines(self, half_gamma_reference, gamma, order):
        graph, reference = half_gamma_reference
        outputs = {
            engine: canonical_bytes(
                mine_scpm(graph, half_gamma_params(gamma, engine=engine, order=order))
            )
            for engine in ("dense", "sparse", "auto")
        }
        assert outputs["sparse"] == outputs["dense"]
        assert outputs["auto"] == outputs["dense"]
        if order == "dfs":
            assert outputs["dense"] == reference(gamma)

    @pytest.mark.parametrize("schedule", ["stripe", "steal"])
    @pytest.mark.parametrize("gamma", [0.45, 0.6])
    def test_parallel_identical_to_sequential(
        self, half_gamma_reference, gamma, schedule
    ):
        graph, reference = half_gamma_reference
        params = half_gamma_params(gamma, n_jobs=2, schedule=schedule)
        assert canonical_bytes(mine_scpm(graph, params)) == reference(gamma)

    @pytest.mark.parametrize("gamma", [0.45, 0.6])
    def test_naive_identical_across_engines(self, half_gamma_reference, gamma):
        graph, _ = half_gamma_reference
        outputs = [
            canonical_bytes(mine_naive(graph, half_gamma_params(gamma, engine=engine)))
            for engine in ("dense", "sparse")
        ]
        assert outputs[0] == outputs[1]


class TestBranchPayload:
    """The transfer payload itself, driven in this process (workers
    normally rebuild it in children, unseen by the coverage gate)."""

    def _payload(self, graph):
        from repro.correlation.scpm import SCPM, _BranchPayload

        miner = SCPM(graph, PARAMS)
        return _BranchPayload(
            graph=graph,
            params=PARAMS,
            null_model=miner.null_model,
            collect_patterns=True,
            candidate_states=[],
        )

    def test_roundtrip_rebuilds_context_lazily(self):
        import pickle

        graph = paper_example_graph()
        payload = self._payload(graph)
        clone = pickle.loads(pickle.dumps(payload))
        assert clone._context is None
        context = clone.context()
        assert clone.context() is context  # built once per process
        miner, candidates, index = context
        assert candidates == []
        assert index.indexer is clone.graph.bitset_index(PARAMS.engine).indexer

    def test_unknown_task_kind_rejected(self):
        from repro.correlation.scpm import _branch_task
        from repro.errors import ParallelError

        payload = self._payload(paper_example_graph())
        with pytest.raises(ParallelError):
            _branch_task(payload, "teleport")


@pytest.fixture(scope="module")
def community_reference():
    """The synthetic community graph plus its sequential reference bytes."""
    graph = community_graph()
    reference = canonical_bytes(mine_scpm(graph, PARAMS))
    return graph, reference


def half_gamma_params(gamma, **changes):
    return SCPMParams(
        min_support=5, gamma=gamma, min_size=3, min_epsilon=0.1, top_k=5
    ).with_changes(**changes)


@pytest.fixture(scope="module")
def half_gamma_reference():
    """Three 12-vertex communities plus a lookup of sequential reference
    bytes by γ."""
    graph = generate(
        SyntheticSpec(
            num_vertices=60,
            background_degree=2.5,
            vocabulary_size=8,
            attributes_per_vertex=0.6,
            communities=tuple(
                CommunitySpec(attributes=(f"c{j}",), size=12, density=0.7)
                for j in range(3)
            ),
            seed=11,
        )
    )
    references = {}

    def reference(gamma):
        if gamma not in references:
            references[gamma] = canonical_bytes(
                mine_scpm(graph, half_gamma_params(gamma))
            )
        return references[gamma]

    return graph, reference
