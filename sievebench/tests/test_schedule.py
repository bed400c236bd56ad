"""The seed picks literals, order and write contents — never the mix.

Run with ``python3 -m pytest sievebench/tests -q`` from the repository
root.
"""

from __future__ import annotations

from collections import Counter

import pytest

from sievebench import schedule
from sievebench.bench import WORKLOADS, oracle_sample
from sievebench.prefix import PREFIX_COUNTERS, counters_delta

SEEDS = (1, 2)
SECONDS = 10.0


def _schedules(name: str) -> list[list[schedule.Op]]:
    return [WORKLOADS[name].schedule(seed, SECONDS) for seed in SEEDS]


def _mix(ops: list[schedule.Op]) -> dict:
    return {
        "classes": Counter((op.kind, op.querier, op.shape, op.fresh) for op in ops),
        "rotation": [op.querier for op in ops],
        "kinds": [op.kind for op in ops],
        "writes": Counter(op.shape for op in ops if op.kind == "write"),
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_seeds_share_the_mix(name):
    first, second = _schedules(name)
    assert _mix(first) == _mix(second)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_moves_order_or_literals(name):
    first, second = _schedules(name)
    assert [(op.shape, op.draw) for op in first] != [(op.shape, op.draw) for op in second]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_schedule(name):
    assert WORKLOADS[name].schedule(7, SECONDS) == WORKLOADS[name].schedule(7, SECONDS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_depends_only_on_seconds(name):
    spec = WORKLOADS[name]
    assert len(spec.schedule(1, SECONDS)) == len(spec.schedule(99, SECONDS))
    assert len(spec.schedule(1, 2 * SECONDS)) > len(spec.schedule(1, SECONDS))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_enough_reads_beyond_p95(name):
    reads = [op for op in WORKLOADS[name].schedule(1, SECONDS) if op.kind == "read"]
    assert len(reads) * 0.05 >= 10


def test_mall_serve_uses_one_plan_per_querier_and_shape():
    ops = WORKLOADS["mall-serve"].schedule(3, SECONDS)
    plans = {(op.querier, op.shape, op.draw) for op in ops}
    assert len(plans) == len(schedule.MALL_SHOPS) * len(schedule.MALL_SHAPES)


def test_tippers_classes_are_equal_per_querier():
    ops = WORKLOADS["tippers-adhoc"].schedule(5, SECONDS)
    per_class = Counter((op.querier, op.shape) for op in ops)
    assert len(set(per_class.values())) == 1
    assert {shape for _, shape in per_class} == set(schedule.TIPPERS_CLASSES)


def test_churn_writes_pair_on_one_querier_and_precede_a_fresh_read():
    ops = WORKLOADS["mall-churn"].schedule(4, SECONDS)
    outstanding = []
    for i, op in enumerate(ops):
        if op.kind != "write":
            continue
        if op.shape == "insert":
            outstanding.append(op.querier)
        else:
            assert outstanding.pop(0) == op.querier
        fresh = ops[i + 1]
        assert fresh.kind == "read" and fresh.fresh and fresh.querier == op.querier
    assert not outstanding


def test_prefix_is_seed_independent():
    for spec in WORKLOADS.values():
        assert all(op.draw == 0 for op in spec.prefix)


def test_oracle_sample_is_seeded():
    ops = WORKLOADS["mall-churn"].schedule(1, SECONDS)
    assert oracle_sample(ops, 1) == oracle_sample(ops, 1)
    assert any(ops[i].fresh for i in oracle_sample(ops, 1))


def test_counters_delta_covers_prefix_counters():
    before = {name: 1 for name in PREFIX_COUNTERS}
    after = {name: 3 for name in PREFIX_COUNTERS}
    assert counters_delta(before, after) == {name: 2 for name in PREFIX_COUNTERS}
