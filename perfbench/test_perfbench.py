"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q

They pin down the order statistics and span arithmetic the metrics rest
on, that the corrupted placements of ``verify-sweep`` really are wrong,
and that every op stream is a function of the seed alone.
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from replay import empty_base  # noqa: E402
from repro import io as repro_io  # noqa: E402
from repro.core.incremental import IncrementalDeployer  # noqa: E402
from repro.core.placement import RulePlacer  # noqa: E402
from repro.core.verify import verify_placement  # noqa: E402
from repro.traffic.cache import LocalChurnDriver  # noqa: E402

SMALL_SHAPE = {"num_ingresses": 4, "rules_per_policy": 20,
               "num_paths": 8, "capacity": 60}


# ---------------------------------------------------------------------------
# Tail percentile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("count, pct, value", [
    (20, 50.0, 10.0),     # only the median has ten samples above it
    (49, 75.0, 37.0),     # p80 ranks 40th: nine beyond
    (110, 90.0, 99.0),    # p95 ranks 105th: five beyond
    (1000, 99.0, 990.0),  # p99 ranks 990th: exactly ten beyond
])
def test_tail_takes_highest_percentile_with_ten_beyond(count, pct, value):
    samples = [float(i) for i in range(count, 0, -1)]
    assert stats.tail(samples) == (value, pct, count)
    assert stats.beyond(samples, pct) >= stats.TAIL_BEYOND


def test_tail_refuses_a_run_too_short_for_one():
    with pytest.raises(ValueError):
        stats.tail([float(i) for i in range(19)])


def test_nearest_rank_percentile():
    assert stats.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50.0) == 3.0
    assert stats.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 81.0) == 5.0
    assert stats.beyond(list(range(100)), 90.0) == 10


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = stats.Tracer(clock=clock)
    with tracer.span("op"):              # op: 0..10, not a layer
        clock.now = 1.0
        with tracer.span("a"):           # a: 1..6, child b covers 2..4
            clock.now = 2.0
            with tracer.span("b"):       # b: 2..4, child c covers 3..3.5
                clock.now = 3.0
                with tracer.span("c"):
                    clock.now = 3.5
                clock.now = 4.0
            clock.now = 6.0
        tracer.add("fork", 0.25)         # measured, not bracketed
        clock.now = 7.0
        with tracer.span("a"):           # a again: 7..9, no children
            clock.now = 9.0
        clock.now = 10.0
    with tracer.span("op"):              # second op: 10..12
        with tracer.span("b"):
            clock.now = 12.0
    per_op = stats.self_times(tracer.spans)
    assert per_op == [
        {"a": pytest.approx(5000.0), "b": pytest.approx(1500.0),
         "c": pytest.approx(500.0), "fork": pytest.approx(250.0)},
        {"b": pytest.approx(2000.0)},
    ]


def test_layer_medians_with_and_without_absent_layers():
    per_op = [{"a": 4.0, "b": 1.0}, {"a": 6.0}, {"a": 8.0, "b": 3.0}]
    assert stats.layer_p50s(per_op, zero_fill=False) == {"a": 6.0, "b": 2.0}
    assert stats.layer_p50s(per_op, zero_fill=True) == {"a": 6.0, "b": 1.0}


def test_disabled_tracer_records_nothing():
    tracer = stats.Tracer(enabled=False)
    with tracer.span("op"):
        tracer.add("fork", 1.0)
    assert tracer.spans == []


# ---------------------------------------------------------------------------
# Corrupted placements
# ---------------------------------------------------------------------------


def _entries(wire):
    return {(e["ingress"], e["priority"], switch)
            for e in wire["placed"] for switch in e["switches"]}


@pytest.fixture(scope="module")
def small():
    instance = inputs.make_instance(SMALL_SHAPE, 7)
    placement = RulePlacer().place(instance)
    assert placement.is_feasible
    return instance, repro_io.placement_to_dict(placement)


@pytest.mark.parametrize("kind", ["shield", "drop"])
@pytest.mark.parametrize("stream", range(3))
def test_corrupted_placement_fails_verification(small, kind, stream):
    instance, wire = small
    assert verify_placement(repro_io.placement_from_dict(wire, instance)).ok
    broken = inputs.corrupt(instance, wire, kind,
                            inputs.stream_rng(stream, f"test:{kind}"))
    assert _entries(broken) < _entries(wire)
    report = verify_placement(repro_io.placement_from_dict(broken, instance))
    assert not report.ok
    if kind == "shield":
        assert any("dependency violation" in e for e in report.errors)


def test_benchmark_check_accepts_the_solver_answer_and_catches_a_shield(small):
    instance, wire = small
    shields = {p.ingress: inputs.shield_map(p) for p in instance.policies}
    assert inputs.check_answer(instance, wire["placed"], shields) == []
    broken = inputs.corrupt(instance, wire, "shield", inputs.stream_rng(0, "x"))
    assert inputs.check_answer(instance, broken["placed"], shields)


def test_cube_difference_is_exact_and_disjoint():
    width = 6
    a = (0b000000, 0b000011)     # ????00
    b = (0b000100, 0b000111)     # ???100
    pieces = inputs._minus(a, b)
    covered = set()
    for value, mask in pieces:
        members = {h for h in range(1 << width) if (h & mask) == value}
        assert not covered & members
        covered |= members
    in_a = {h for h in range(1 << width) if (h & a[1]) == a[0]}
    in_b = {h for h in range(1 << width) if (h & b[1]) == b[0]}
    assert covered == in_a - in_b
    assert inputs._minus(b, a) == []
    assert inputs._minus(a, (0b000001, 0b000001)) == [a]


# ---------------------------------------------------------------------------
# Determinism of the op streams
# ---------------------------------------------------------------------------


def _delta_ops(seed: int, count: int):
    instance = inputs.make_instance(SMALL_SHAPE, 11)
    stream = inputs.DeltaStream(instance, seed)
    return [stream.next().request("d").to_dict() for _ in range(count)]


def test_delta_stream_is_a_function_of_the_seed():
    first = _delta_ops(3, 12)
    assert first == _delta_ops(3, 12)
    assert first != _delta_ops(4, 12)
    assert [op["op"] for op in first[:4]] == ["reroute"] * 3 + ["modify"]


def _churn_digests(seed: int, rounds: int):
    workload = workloads.CacheChurn(seed)
    driver = LocalChurnDriver(IncrementalDeployer(
        empty_base(workload.instance)))
    loop = workloads.ChurnLoop(workload.config, workload.instance, driver)
    digests = []
    for _ in range(rounds):
        loop.round(stats.Tracer(enabled=False), lambda: None)
        digests.append(driver.state_digest())
    return digests, loop.packets, loop.hits


def test_churn_rounds_are_a_function_of_the_seed():
    first = _churn_digests(1, 4)
    assert first == _churn_digests(1, 4)
    assert first != _churn_digests(2, 4)


def test_instance_streams_are_functions_of_the_seed():
    assert inputs.nth_seed(5, "solve", 3) == inputs.nth_seed(5, "solve", 3)
    assert inputs.nth_seed(5, "solve", 3) != inputs.nth_seed(6, "solve", 3)
    first = inputs.make_instance(SMALL_SHAPE, inputs.nth_seed(5, "solve", 0))
    again = inputs.make_instance(SMALL_SHAPE, inputs.nth_seed(5, "solve", 0))
    assert first.digest() == again.digest()


def test_corruption_is_a_function_of_its_stream(small):
    instance, wire = small
    one = inputs.corrupt(instance, wire, "drop", inputs.stream_rng(1, "c"))
    two = inputs.corrupt(instance, wire, "drop", inputs.stream_rng(1, "c"))
    assert one == two


def test_verify_sweep_order_is_a_function_of_the_seed():
    first = [inputs.sweep_op(3, index, 4) for index in range(24)]
    assert first == [inputs.sweep_op(3, index, 4) for index in range(24)]
    assert first != [inputs.sweep_op(4, index, 4) for index in range(24)]
    for start in range(0, 24, 8):   # each pass checks every slot twice
        one_pass = first[start:start + 8]
        assert sorted(slot for slot, _ in one_pass) == [0, 0, 1, 1, 2, 2, 3, 3]
        assert [kind == "intact" for _, kind in one_pass] == [True, False] * 4
    assert {kind for _, kind in first} == {"intact", "shield", "drop"}
