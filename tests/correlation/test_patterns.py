"""Unit tests for the result containers and ranking helpers."""

import pytest

from repro.correlation.patterns import (
    AttributeSetResult,
    MiningCounters,
    MiningResult,
    StructuralCorrelationPattern,
)


def make_result(label, support, epsilon, delta, size=1, qualified=True, patterns=()):
    return AttributeSetResult(
        attributes=tuple(label.split()),
        support=support,
        epsilon=epsilon,
        expected_epsilon=epsilon / delta if delta else 0.0,
        delta=delta,
        covered_vertices=frozenset(range(int(support * epsilon))),
        patterns=patterns,
        qualified=qualified,
    )


@pytest.fixture
def mining_result():
    result = MiningResult(algorithm="test")
    result.evaluated.extend(
        [
            make_result("base", 100, 0.05, 0.5),
            make_result("grid applic", 40, 0.30, 50.0),
            make_result("search rank", 30, 0.25, 80.0),
            make_result("base system", 90, 0.02, 0.2, qualified=False),
        ]
    )
    return result


class TestPattern:
    def test_properties(self):
        pattern = StructuralCorrelationPattern(
            attributes=("a", "b"), vertices=frozenset({1, 2, 3}), gamma=0.8
        )
        assert pattern.size == 3
        assert pattern.sort_key() == (3, 0.8)
        assert "gamma=0.80" in str(pattern)


class TestAttributeSetResult:
    def test_properties(self):
        record = make_result("grid applic", 40, 0.5, 10.0)
        assert record.size == 2
        assert record.num_covered == 20
        assert record.label() == "grid applic"


class TestMiningResult:
    def test_qualified_filter(self, mining_result):
        assert len(mining_result.qualified) == 3

    def test_top_by_support(self, mining_result):
        rows = mining_result.top_by_support(2)
        assert [r.label() for r in rows] == ["base", "base system"]

    def test_top_by_epsilon(self, mining_result):
        rows = mining_result.top_by_epsilon(2)
        assert [r.label() for r in rows] == ["grid applic", "search rank"]

    def test_top_by_delta(self, mining_result):
        rows = mining_result.top_by_delta(2)
        assert [r.label() for r in rows] == ["search rank", "grid applic"]

    def test_min_set_size_filter(self, mining_result):
        rows = mining_result.top_by_support(10, min_set_size=2)
        assert all(r.size >= 2 for r in rows)
        assert [r.label() for r in rows][0] == "base system"

    def test_find(self, mining_result):
        assert mining_result.find(["applic", "grid"]).support == 40
        assert mining_result.find(["nope"]) is None

    def test_average_epsilon(self, mining_result):
        expected = (0.05 + 0.30 + 0.25 + 0.02) / 4
        assert mining_result.average_epsilon() == pytest.approx(expected)

    def test_average_epsilon_top_fraction(self, mining_result):
        # top 50% of 4 values -> two best epsilons
        assert mining_result.average_epsilon(0.5) == pytest.approx((0.30 + 0.25) / 2)

    def test_average_delta_ignores_infinities(self):
        result = MiningResult(algorithm="test")
        result.evaluated.append(make_result("a", 10, 0.5, float("inf")))
        result.evaluated.append(make_result("b", 10, 0.5, 2.0))
        assert result.average_delta() == pytest.approx(2.0)

    def test_average_with_invalid_fraction(self, mining_result):
        with pytest.raises(ValueError):
            mining_result.average_epsilon(0.0)

    def test_averages_on_empty_result(self):
        empty = MiningResult(algorithm="test")
        assert empty.average_epsilon() == 0.0
        assert empty.average_delta() == 0.0

    def test_patterns_and_top_patterns(self):
        result = MiningResult(algorithm="test")
        pattern_big = StructuralCorrelationPattern(("a",), frozenset({1, 2, 3, 4}), 0.9)
        pattern_small = StructuralCorrelationPattern(("b",), frozenset({1, 2, 3}), 1.0)
        result.evaluated.append(
            make_result("a", 10, 0.5, 2.0, patterns=(pattern_big,))
        )
        result.evaluated.append(
            make_result("b", 10, 0.5, 2.0, patterns=(pattern_small,))
        )
        assert len(result.patterns) == 2
        assert result.top_patterns(1) == [pattern_big]


class TestMiningCounters:
    @pytest.mark.parametrize(
        "retired",
        [
            {},
            # Stores written while the search had counter-lane kernels
            # carry these keys in runs.counters_json; they must still load.
            {"kernel_counter_updates": 39476, "kernel_backends": {"bigint": 2}},
        ],
    )
    def test_dict_round_trip(self, retired):
        counters = MiningCounters(
            attribute_sets_evaluated=11,
            coverage_nodes_expanded=7,
            pattern_memo_hits=3,
            elapsed_seconds=0.25,
        )
        data = counters.to_dict()
        assert data["coverage_nodes_expanded"] == 7
        assert MiningCounters.from_dict({**data, **retired}) == counters

    def test_accumulate_sums_work_counters_but_not_wall_time(self):
        from repro.correlation.scpm import _accumulate_counters

        target = MiningCounters(
            attribute_sets_evaluated=2,
            coverage_nodes_expanded=10,
            coverage_memo_hits=1,
            elapsed_seconds=1.5,
        )
        source = MiningCounters(
            attribute_sets_evaluated=3,
            attribute_sets_pruned=4,
            coverage_nodes_expanded=5,
            pattern_nodes_expanded=6,
            pattern_memo_misses=2,
            elapsed_seconds=9.0,
        )
        _accumulate_counters(target, source)
        assert target == MiningCounters(
            attribute_sets_evaluated=5,
            attribute_sets_pruned=4,
            coverage_nodes_expanded=15,
            pattern_nodes_expanded=6,
            coverage_memo_hits=1,
            pattern_memo_misses=2,
            elapsed_seconds=1.5,
        )
