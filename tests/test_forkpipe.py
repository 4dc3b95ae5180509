"""Forked children under a daemon-style SIGTERM handler.

``repro serve`` installs a Python SIGTERM handler to drain, and fork
copies that handler into every child.  The handler tests install one
first, as the daemon does, then check that the children the package
forks never run it, never outlive their teardown, and never wedge a
solve.  Serving must also import nothing after start-up, so no child
needs a module another thread is still importing.  The last tests cover
the fork primitive's teardown.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.placement import RulePlacer
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.forkpipe import Child, reply, wait_any
from repro.service.protocol import SolveRequest
from repro.service.workers import SessionWorker, WorkerPool, solve_task
from repro.solve.portfolio import EngineSpec, PortfolioSolver

#: Far above the sub-second solves below; a hang runs into it.
_BOUND = 30.0
#: Repeats of a solve whose hang, when there is one, is a race.
_ROUNDS = 10


@pytest.fixture
def drain_handler(tmp_path):
    """A Python SIGTERM handler like the daemon's; it logs its pid."""
    ran = tmp_path / "handler-ran"

    def handler(signum, frame):
        with open(ran, "a") as out:
            out.write(f"{os.getpid()}\n")

    previous = signal.signal(signal.SIGTERM, handler)
    try:
        yield ran
    finally:
        signal.signal(signal.SIGTERM, previous)


def _pids_that_ran(ran) -> list:
    return ran.read_text().split() if ran.exists() else []


@pytest.fixture(scope="module")
def two_components():
    return build_instance(ExperimentConfig(
        k=4, num_paths=6, rules_per_policy=6, capacity=60, seed=1))


def _live(pids) -> set:
    """Which of ``pids`` are still live children, after up to 5 s."""
    deadline = time.monotonic() + 5.0
    while True:
        live = {p.pid for p in multiprocessing.active_children()} & pids
        if not live or time.monotonic() > deadline:
            return live
        time.sleep(0.05)


class _SlowDeployer:
    """What a session child calls on its deployer; ``stats`` hangs."""

    def attach_session(self, session) -> None:
        pass

    def total_installed(self) -> int:
        time.sleep(60.0)
        return 0


#: Serves each request kind once, through both executors, and prints the
#: modules that were first imported while serving.
_SERVE_EVERY_KIND = """
import json, sys
import repro.service
from repro import io as repro_io
from repro.core.instance import PlacementInstance
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.net.routing import Path, Routing
from repro.net.topology import Topology
from repro.policy.policy import Policy, PolicySet
from repro.policy.rule import Action, Rule
from repro.policy.ternary import TernaryMatch
from repro.service import PlacementService, ServiceConfig
from repro.service.protocol import (
    DeltaRequest, SessionRequest, SolveRequest, VerifyRequest)

instance = build_instance(ExperimentConfig(
    k=4, num_paths=6, rules_per_policy=6, capacity=60, seed=1))
ingress = instance.routing.ingresses[0]
reroute = DeltaRequest(
    deployment="prod", op="reroute", ingress=ingress,
    paths=repro_io.routing_to_dict(
        Routing(instance.routing.paths(ingress))))

# Two unit-capacity switches: greedy spends s1 on the 00-drop and has no
# room left for the 01-drop that only fits on s1, so the session's
# sub-ILP answers (00 on s2, 01 on s1).
topo = Topology()
for switch in ("s1", "s2"):
    topo.add_switch(switch, 1)
topo.add_link("s1", "s2")
for port, switch in (("in1", "s1"), ("out1", "s2"), ("out2", "s1")):
    topo.add_entry_port(port, switch)
empty = PlacementInstance(topo, Routing(), PolicySet())
flow = TernaryMatch.from_string
greedy_refuses = DeltaRequest(
    deployment="tight", op="install", ingress="in1",
    policy=repro_io.policy_to_dict(Policy("in1", [
        Rule(flow("00"), Action.DROP, 1), Rule(flow("01"), Action.DROP, 2)])),
    paths=repro_io.routing_to_dict(Routing([
        Path("in1", "out1", ("s1", "s2"), flow("00")),
        Path("in1", "out2", ("s1",), flow("01"))])))
before = set(sys.modules)
for executor in ("inline", "process"):
    with PlacementService(ServiceConfig(executor=executor)) as service:
        solved = service.handle(SolveRequest(instance, deploy_as="prod"),
                                timeout=120)
        assert solved.ok, solved.error
        assert service.handle(reroute, timeout=120).ok
        assert service.handle(SessionRequest(
            deployment="prod", op="attach"), timeout=120).ok
        assert service.handle(reroute, timeout=120).ok
        assert service.handle(VerifyRequest(
            instance, solved.result["placement"]), timeout=120).ok
        assert service.handle(SolveRequest(instance, backend="portfolio"),
                              timeout=120).ok
        assert service.handle(SolveRequest(empty, deploy_as="tight"),
                              timeout=120).ok
        assert service.handle(SessionRequest(
            deployment="tight", op="attach"), timeout=120).ok
        answer = service.handle(greedy_refuses, timeout=120)
        assert answer.ok, answer.error
        assert (answer.served, answer.result["method"]) == ("session", "ilp")
print(json.dumps(sorted(set(sys.modules) - before)))
"""


# ---------------------------------------------------------------------------
# Regression: the daemon's handler and its imports in forked children
# ---------------------------------------------------------------------------


class TestUnderDrainHandler:
    def test_two_component_solve_on_a_thread(self, drain_handler,
                                             two_components):
        """The inline daemon solves on a dispatcher thread; splitting
        the instance forks component children from there.  A hang is a
        race, so the solve repeats."""
        for round_ in range(_ROUNDS):
            answer = {}
            thread = threading.Thread(
                target=lambda: answer.update(
                    placement=RulePlacer().place(two_components)),
                daemon=True)
            thread.start()
            thread.join(_BOUND)
            assert "placement" in answer, (
                f"round {round_}: solve hung past {_BOUND:.0f}s")
            placement = answer["placement"]
            assert placement.is_feasible
            components = placement.solver_stats["components"]
            assert components["count"] == 2
            assert components["mode"] == (
                "parallel" if (os.cpu_count() or 1) > 1 else "serial")

    def test_two_component_solve_through_the_pool(self, drain_handler,
                                                  two_components):
        pool = WorkerPool("process")
        for _round in range(_ROUNDS):
            payload = pool.run(solve_task, SolveRequest(two_components),
                               None, timeout=_BOUND)
            assert payload["feasible"]
            assert payload["placement"]["solver_stats"]["components"][
                "count"] == 2

    def test_handler_never_runs_in_a_child(self, drain_handler,
                                           two_components):
        def pool_task():
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.2)
            return {"pid": os.getpid()}

        def engine(task):
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(0.2)
            return {"status": "infeasible", "objective": None,
                    "stats": {"pid": os.getpid()}}

        pool_pid = WorkerPool("process").run(pool_task,
                                             timeout=_BOUND)["pid"]
        outcome = PortfolioSolver(
            engines=[EngineSpec("self-signal", engine)],
            deadline=_BOUND, executor="process").solve(two_components)
        engine_pid = outcome.report_for("self-signal").stats["pid"]
        assert outcome.winner == "self-signal"
        ran = _pids_that_ran(drain_handler)
        assert str(pool_pid) not in ran and str(engine_pid) not in ran
        assert ran == []

    def test_session_workers_leave_no_live_child(self, drain_handler):
        hung = SessionWorker(_SlowDeployer())
        with pytest.raises(TimeoutError):
            hung.stats(timeout=0.5)
        closed = SessionWorker(_SlowDeployer())
        closed.close()
        try:
            assert not hung.alive and not closed.alive
            assert _live({hung.pid, closed.pid}) == set()
        finally:
            hung.close()


class TestImportsBeforeThreads:
    def test_serving_imports_nothing_after_startup(self):
        """``repro serve`` imports ``repro.service`` before its threads
        start.  A request must import nothing more: a child forked while
        another thread is part-way through a module's first import waits
        forever on that module's import lock."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        result = subprocess.run(
            [sys.executable, "-c", _SERVE_EVERY_KIND], capture_output=True,
            text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src))
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == []


# ---------------------------------------------------------------------------
# The primitive's teardown and multi-child wait
# ---------------------------------------------------------------------------


def _echo(value):
    return value


def _nap(seconds):
    time.sleep(seconds)
    return seconds


class TestChild:
    def test_answered_child_is_reaped_without_a_signal(self):
        child = Child(reply, _echo, 3)
        assert child.receive(_BOUND) == 3
        child.close()
        assert child._proc.exitcode == 0

    def test_straggler_gets_sigkill(self):
        child = Child(reply, _nap, 60.0)
        child.close()
        assert child._proc.exitcode == -signal.SIGKILL

    def test_wait_any_returns_the_ready_child(self):
        slow = Child(reply, _nap, 60.0)
        fast = Child(reply, _echo, "first")
        try:
            assert wait_any([slow, fast], _BOUND) == [fast]
            assert fast.receive(0) == "first"
            assert wait_any([slow], 0.1) == []
        finally:
            fast.close()
            slow.close()
