"""Broker serving policy: caching, coalescing, shedding, priorities,
deadlines, and worker-failure mapping -- exercised against a stub pool
whose blocking and failures are fully controlled by the test."""

from __future__ import annotations

import threading
import time

import pytest

from repro.experiments.generators import ExperimentConfig, build_instance
from repro.service.broker import Broker
from repro.service.cache import ResultCache
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    DeltaRequest,
    ResponseStatus,
    SolveRequest,
    VerifyRequest,
)
from repro.service.workers import WorkerCrash, WorkerError


class StubPool:
    """A WorkerPool stand-in: blockable gate, scriptable failures."""

    executor = "stub"

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self.calls = []
        self.fail_with = None
        self.started = threading.Semaphore(0)
        #: The solver status and feasibility every solve answers with.
        self.solve_status = "optimal"
        self.feasible = True

    def run(self, task, *args, timeout=None):
        self.calls.append(task.__name__)
        self.started.release()
        assert self.gate.wait(10.0), "test gate never opened"
        if self.fail_with is not None:
            raise self.fail_with
        if task.__name__ == "solve_task":
            return {"placement": {"status": self.solve_status, "placed": []},
                    "feasible": self.feasible, "objective": 1.0,
                    "installed_rules": 3, "summary": "stub"}
        if task.__name__ == "verify_task":
            return {"ok": True, "errors": [],
                    "paths_checked": 0, "switches_checked": 0}
        raise AssertionError(f"unexpected task {task.__name__}")


@pytest.fixture(scope="module")
def instance():
    return build_instance(ExperimentConfig(
        k=4, num_paths=4, rules_per_policy=4, num_ingresses=2, seed=1,
    ))


@pytest.fixture
def make_broker():
    created = []

    def factory(**kwargs):
        pool = StubPool()
        broker = Broker(pool, cache=ResultCache(),
                        metrics=MetricsRegistry(), **kwargs)
        created.append((broker, pool))
        return broker, pool

    yield factory
    for broker, pool in created:
        pool.gate.set()
        broker.close()


def _verify(instance, request_id=None, deadline=None):
    return VerifyRequest(instance, placement={"placed": []},
                         request_id=request_id, deadline=deadline)


class TestCaching:
    def test_second_identical_solve_served_from_cache(self, make_broker,
                                                      instance):
        broker, pool = make_broker()
        first = broker.submit(SolveRequest(instance)).result(10.0)
        assert first.ok and first.served == "solved"
        second = broker.submit(SolveRequest(instance)).result(10.0)
        assert second.ok and second.served == "cache"
        assert second.result == first.result
        assert pool.calls.count("solve_task") == 1
        assert broker.metrics.counter("solves_started_total").value == 1
        assert broker.cache.stats().hits == 1

    def test_epoch_bump_forces_resolve(self, make_broker, instance):
        """A cleared cache forces a re-solve."""
        broker, pool = make_broker()
        broker.submit(SolveRequest(instance)).result(10.0)
        assert broker.cache.clear() == 1
        again = broker.submit(SolveRequest(instance)).result(10.0)
        assert again.served == "solved"
        assert pool.calls.count("solve_task") == 2

    def test_backend_aliases_share_one_entry(self, make_broker, instance):
        """``highs``, ``scipy`` and ``scipy-highs`` name one backend."""
        broker, pool = make_broker()
        answers = [broker.submit(SolveRequest(instance, backend=name))
                   .result(10.0)
                   for name in ("highs", "scipy", "scipy-highs")]
        assert [a.served for a in answers] == ["solved", "cache", "cache"]
        assert broker.metrics.counter("solves_started_total").value == 1

    def test_infeasible_is_cached(self, make_broker, instance):
        broker, pool = make_broker()
        pool.solve_status, pool.feasible = "infeasible", False
        first = broker.submit(SolveRequest(instance)).result(10.0)
        assert first.status == ResponseStatus.INFEASIBLE
        second = broker.submit(SolveRequest(instance)).result(10.0)
        assert second.status == ResponseStatus.INFEASIBLE
        assert second.served == "cache"


class TestTimeLimit:
    """An answer a time limit cut short is not a pure function of the
    cache key, so it is served but never cached."""

    def test_no_incumbent_is_deadline_exceeded(self, make_broker, instance):
        broker, pool = make_broker()
        pool.solve_status, pool.feasible = "time_limit", False
        answer = broker.submit(SolveRequest(instance,
                                            deadline=0.02)).result(10.0)
        assert answer.status == ResponseStatus.DEADLINE_EXCEEDED
        assert "time_limit" in answer.error
        assert len(broker.cache) == 0
        pool.solve_status, pool.feasible = "optimal", True
        again = broker.submit(SolveRequest(instance)).result(10.0)
        assert again.ok and again.served == "solved"

    def test_incumbent_is_ok_and_not_cached(self, make_broker, instance):
        broker, pool = make_broker()
        pool.solve_status = "time_limit"
        answer = broker.submit(SolveRequest(instance,
                                            deadline=0.08)).result(10.0)
        assert answer.ok and answer.served == "solved"
        assert len(broker.cache) == 0
        again = broker.submit(SolveRequest(instance)).result(10.0)
        assert again.served == "solved"
        assert pool.calls.count("solve_task") == 2

    def test_no_incumbent_deploys_nothing(self, make_broker, instance):
        broker, pool = make_broker()
        pool.solve_status, pool.feasible = "time_limit", False
        answer = broker.submit(SolveRequest(
            instance, deadline=0.02, deploy_as="prod")).result(10.0)
        assert answer.status == ResponseStatus.DEADLINE_EXCEEDED
        assert broker.deployments() == []

    def test_other_status_is_error(self, make_broker, instance):
        broker, pool = make_broker()
        pool.solve_status, pool.feasible = "error", False
        answer = broker.submit(SolveRequest(instance)).result(10.0)
        assert answer.status == ResponseStatus.ERROR
        assert len(broker.cache) == 0


class TestCoalescing:
    def test_identical_inflight_requests_share_one_solve(self, make_broker,
                                                         instance):
        broker, pool = make_broker(dispatchers=1)
        pool.gate.clear()
        leader = broker.submit(SolveRequest(instance, request_id="lead"))
        assert pool.started.acquire(timeout=10.0)   # solving, not queued
        joiner = broker.submit(SolveRequest(instance, request_id="join"))
        assert not joiner.done
        assert broker.metrics.counter("coalesced_total").value == 1
        pool.gate.set()
        lead_response = leader.result(10.0)
        join_response = joiner.result(10.0)
        assert lead_response.served == "solved"
        assert join_response.served == "coalesced"
        assert join_response.result == lead_response.result
        assert pool.calls.count("solve_task") == 1

    def test_no_deadline_never_joins_a_deadline_leader(self, make_broker,
                                                       instance):
        """A solve with a deadline may be cut short, so a solve without
        one is solved on its own; a solve with one leads no flight."""
        broker, pool = make_broker(dispatchers=1)
        pool.gate.clear()
        leader = broker.submit(SolveRequest(instance, deadline=30.0,
                                            request_id="lead"))
        assert pool.started.acquire(timeout=10.0)
        patient = broker.submit(SolveRequest(instance, request_id="wait"))
        assert broker.metrics.counter("coalesced_total").value == 0
        pool.gate.set()
        assert leader.result(10.0).served == "solved"
        assert patient.result(10.0).served == "solved"
        assert pool.calls.count("solve_task") == 2

    def test_deadline_solve_joins_a_no_deadline_leader(self, make_broker,
                                                       instance):
        """A leader without a deadline answers in full, which also
        answers a joiner that has one."""
        broker, pool = make_broker(dispatchers=1)
        pool.gate.clear()
        leader = broker.submit(SolveRequest(instance, request_id="lead"))
        assert pool.started.acquire(timeout=10.0)
        hurried = broker.submit(SolveRequest(instance, deadline=30.0,
                                             request_id="hurry"))
        assert broker.metrics.counter("coalesced_total").value == 1
        pool.gate.set()
        assert leader.result(10.0).served == "solved"
        assert hurried.result(10.0).served == "coalesced"
        assert pool.calls.count("solve_task") == 1

    def test_different_digests_do_not_coalesce(self, make_broker, instance):
        broker, pool = make_broker()
        a = broker.submit(SolveRequest(instance)).result(10.0)
        b = broker.submit(SolveRequest(instance,
                                       objective="upstream")).result(10.0)
        assert a.served == "solved" and b.served == "solved"
        assert pool.calls.count("solve_task") == 2


class TestAdmission:
    def test_queue_bound_sheds_overloaded_without_blocking(self, make_broker,
                                                           instance):
        broker, pool = make_broker(dispatchers=1, max_queue=1)
        pool.gate.clear()
        executing = broker.submit(_verify(instance, "executing"))
        assert pool.started.acquire(timeout=10.0)   # occupies the dispatcher
        queued = broker.submit(_verify(instance, "queued"))
        started = time.monotonic()
        shed = broker.submit(_verify(instance, "shed"))
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, "submit must never block"
        assert shed.done
        response = shed.result(0.0)
        assert response.status == ResponseStatus.OVERLOADED
        assert broker.metrics.counter("shed_total").value == 1
        # The shed request did not wedge anything: the rest complete.
        pool.gate.set()
        assert executing.result(10.0).ok
        assert queued.result(10.0).ok

    def test_submit_after_close_is_answered_error(self, make_broker,
                                                  instance):
        broker, _pool = make_broker()
        broker.close()
        response = broker.submit(_verify(instance)).result(0.0)
        assert response.status == ResponseStatus.ERROR
        assert "shutting down" in response.error

    def test_close_resolves_queued_requests(self, make_broker, instance):
        broker, pool = make_broker(dispatchers=1)
        pool.gate.clear()
        executing = broker.submit(_verify(instance))
        assert pool.started.acquire(timeout=10.0)
        queued = broker.submit(_verify(instance))
        pool.gate.set()           # let the dispatcher drain for close()
        broker.close()
        assert queued.done
        assert queued.result(0.0).status in (ResponseStatus.OK,
                                             ResponseStatus.ERROR)
        assert executing.result(10.0).ok


class TestPriorities:
    def test_deltas_and_verifies_preempt_queued_solves(self, make_broker,
                                                       instance):
        broker, pool = make_broker(dispatchers=1)
        pool.gate.clear()
        blocker = broker.submit(SolveRequest(instance, request_id="blk"))
        assert pool.started.acquire(timeout=10.0)
        solve = broker.submit(SolveRequest(instance, objective="upstream",
                                           request_id="solve"))
        verify = broker.submit(_verify(instance, "verify"))
        pool.gate.set()
        for ticket in (blocker, solve, verify):
            ticket.result(10.0)
        # The verify (priority 0) jumped the queued solve (priority 1).
        assert pool.calls == ["solve_task", "verify_task", "solve_task"]


class TestDeadlines:
    def test_expired_in_queue_answered_without_executing(self, make_broker,
                                                         instance):
        broker, pool = make_broker(dispatchers=1)
        pool.gate.clear()
        blocker = broker.submit(_verify(instance, "blocker"))
        assert pool.started.acquire(timeout=10.0)
        doomed = broker.submit(_verify(instance, "doomed", deadline=0.05))
        time.sleep(0.15)
        pool.gate.set()
        response = doomed.result(10.0)
        assert response.status == ResponseStatus.DEADLINE_EXCEEDED
        assert broker.metrics.counter("deadline_expired_total").value == 1
        assert pool.calls.count("verify_task") == 1   # never executed
        assert blocker.result(10.0).ok


class TestFailureMapping:
    def test_worker_crash_fails_only_its_request(self, make_broker,
                                                 instance):
        broker, pool = make_broker()
        pool.fail_with = WorkerCrash("worker died with exit code 9")
        crashed = broker.submit(_verify(instance)).result(10.0)
        assert crashed.status == ResponseStatus.WORKER_CRASHED
        assert broker.metrics.counter("worker_crashes_total").value == 1
        pool.fail_with = None
        healthy = broker.submit(_verify(instance)).result(10.0)
        assert healthy.ok

    def test_worker_error_maps_to_error(self, make_broker, instance):
        broker, pool = make_broker()
        pool.fail_with = WorkerError("Traceback ...")
        response = broker.submit(_verify(instance)).result(10.0)
        assert response.status == ResponseStatus.ERROR

    def test_worker_timeout_maps_to_deadline_exceeded(self, make_broker,
                                                      instance):
        broker, pool = make_broker()
        pool.fail_with = TimeoutError("worker exceeded 1.0s; terminated")
        response = broker.submit(_verify(instance)).result(10.0)
        assert response.status == ResponseStatus.DEADLINE_EXCEEDED


class TestDeltas:
    def test_unknown_deployment_is_bad_request(self, make_broker, instance):
        broker, pool = make_broker()
        response = broker.submit(DeltaRequest(
            deployment="nope", op="remove", ingress="h0",
        )).result(10.0)
        assert response.status == ResponseStatus.BAD_REQUEST
        assert "nope" in response.error
        assert pool.calls == []   # rejected before any worker ran
