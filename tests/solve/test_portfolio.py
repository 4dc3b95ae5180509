"""Portfolio solver: winner selection, cancellation, deadlines, crash
survival, and determinism under a fake clock.

Fake engines are plain :class:`EngineSpec` objects whose ``run``
callables return payload dicts directly; a shared :class:`FakeClock`
advances only when an engine "runs", so every wall-clock observable is
deterministic.
"""

from __future__ import annotations

import time

import pytest

from repro.core.placement import PlacerConfig, RulePlacer
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.milp.model import SolveStatus
from repro.solve.portfolio import (
    EngineSpec,
    EngineTask,
    PortfolioSolver,
    SOLVE_BACKENDS,
    canonical_backend,
    resolve_backend,
)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def payload(status: SolveStatus, objective=None, placed=None):
    return {
        "status": status.value,
        "objective": objective,
        "placed": placed or {},
        "merged": {},
        "stats": {},
    }


def engine(name, status, objective=None, cost=1.0, clock=None, placed=None):
    """A fake engine that takes ``cost`` fake-seconds and returns a
    fixed payload."""

    def run(task: EngineTask):
        if clock is not None:
            clock.advance(cost)
        return payload(status, objective, placed)

    return EngineSpec(name, run)


def crashing_engine(name, clock=None, cost=0.5):
    def run(task: EngineTask):
        if clock is not None:
            clock.advance(cost)
        raise RuntimeError("injected crash")

    return EngineSpec(name, run)


@pytest.fixture
def instance():
    return build_instance(ExperimentConfig(
        k=4, num_paths=8, rules_per_policy=5, capacity=40,
        num_ingresses=3, seed=7,
    ))


# ---------------------------------------------------------------------------
# Winner selection
# ---------------------------------------------------------------------------


class TestWinnerSelection:
    def test_first_conclusive_engine_wins(self, instance):
        clock = FakeClock()
        solver = PortfolioSolver(
            engines=[
                engine("slowpoke", SolveStatus.FEASIBLE, 12.0, clock=clock),
                engine("prover", SolveStatus.OPTIMAL, 10.0, clock=clock,
                       placed={("p", 1): ("s1",)}),
                engine("never-ran", SolveStatus.OPTIMAL, 10.0, clock=clock),
            ],
            executor="inline", clock=clock,
        )
        outcome = solver.solve(instance)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.winner == "prover"
        assert outcome.objective == 10.0
        assert outcome.placed == {("p", 1): ("s1",)}
        # Engines after the winner are cancelled, not run.
        assert outcome.report_for("never-ran").outcome == "cancelled"
        assert outcome.report_for("slowpoke").outcome == "feasible"

    def test_proven_infeasibility_is_conclusive(self, instance):
        clock = FakeClock()
        solver = PortfolioSolver(
            engines=[engine("refuter", SolveStatus.INFEASIBLE, clock=clock)],
            executor="inline", clock=clock,
        )
        outcome = solver.solve(instance)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.winner == "refuter"
        assert not outcome.has_solution

    def test_best_incumbent_wins_without_proof(self, instance):
        clock = FakeClock()
        solver = PortfolioSolver(
            engines=[
                engine("worse", SolveStatus.FEASIBLE, 15.0, clock=clock),
                engine("better", SolveStatus.FEASIBLE, 11.0, clock=clock),
            ],
            executor="inline", clock=clock,
        )
        outcome = solver.solve(instance)
        assert outcome.winner == "better"
        assert outcome.objective == 11.0
        assert outcome.status is SolveStatus.FEASIBLE

    def test_incumbent_tie_breaks_by_engine_order(self, instance):
        clock = FakeClock()
        solver = PortfolioSolver(
            engines=[
                engine("second", SolveStatus.FEASIBLE, 11.0, clock=clock),
                engine("first", SolveStatus.FEASIBLE, 11.0, clock=clock),
            ],
            executor="inline", clock=clock,
        )
        assert solver.solve(instance).winner == "second"

    def test_unknown_engine_name_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            PortfolioSolver(engines=["cplex"])

    def test_duplicate_engine_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PortfolioSolver(engines=["highs", "highs"])

    def test_resolve_backend_names(self):
        assert resolve_backend("highs").name == "scipy-highs"
        assert resolve_backend("bnb").name == "bnb"
        with pytest.raises(ValueError):
            resolve_backend("gurobi")

    def test_canonical_backend_names(self):
        """Names that resolve to one backend class share its first
        name; any other name is its own."""
        canonical = {name: canonical_backend(name) for name in SOLVE_BACKENDS}
        assert canonical == {"highs": "highs", "scipy": "highs",
                             "scipy-highs": "highs", "bnb": "bnb",
                             "portfolio": "portfolio"}
        assert canonical_backend("gurobi") == "gurobi"


# ---------------------------------------------------------------------------
# Deadline semantics
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_deadline_expiry_returns_best_incumbent(self, instance):
        """All engines exhaust the budget; the portfolio must surface
        the best incumbent with an honest TIME_LIMIT status."""
        clock = FakeClock()
        solver = PortfolioSolver(
            engines=[
                engine("a", SolveStatus.TIME_LIMIT, 14.0, cost=5.0, clock=clock),
                engine("b", SolveStatus.TIME_LIMIT, 12.0, cost=5.0, clock=clock),
            ],
            deadline=10.0, executor="inline", clock=clock,
        )
        outcome = solver.solve(instance)
        assert outcome.status is SolveStatus.TIME_LIMIT
        assert outcome.deadline_hit
        assert outcome.winner == "b"
        assert outcome.objective == 12.0

    def test_deadline_expiry_without_incumbent(self, instance):
        clock = FakeClock()
        solver = PortfolioSolver(
            engines=[engine("a", SolveStatus.TIME_LIMIT, None, cost=20.0,
                            clock=clock)],
            deadline=10.0, executor="inline", clock=clock,
        )
        outcome = solver.solve(instance)
        assert outcome.status is SolveStatus.TIME_LIMIT
        assert outcome.winner is None
        assert outcome.objective is None

    def test_engines_after_deadline_never_start(self, instance):
        clock = FakeClock()
        solver = PortfolioSolver(
            engines=[
                engine("eats-budget", SolveStatus.TIME_LIMIT, 13.0,
                       cost=10.0, clock=clock),
                engine("starved", SolveStatus.OPTIMAL, 9.0, clock=clock),
            ],
            deadline=10.0, executor="inline", clock=clock,
        )
        outcome = solver.solve(instance)
        assert outcome.report_for("starved").outcome == "timeout"
        assert outcome.winner == "eats-budget"

    def test_remaining_budget_passed_to_engine(self, instance):
        clock = FakeClock()
        seen = {}

        def nosy(task: EngineTask):
            seen["limit"] = task.time_limit
            clock.advance(4.0)
            return payload(SolveStatus.TIME_LIMIT, 10.0)

        solver = PortfolioSolver(
            engines=[
                engine("first", SolveStatus.TIME_LIMIT, 11.0, cost=6.0,
                       clock=clock),
                EngineSpec("second", nosy),
            ],
            deadline=10.0, executor="inline", clock=clock,
        )
        solver.solve(instance)
        assert seen["limit"] == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Crash survival
# ---------------------------------------------------------------------------


class TestCrashSurvival:
    def test_crashing_engine_does_not_kill_the_race(self, instance):
        clock = FakeClock()
        solver = PortfolioSolver(
            engines=[
                crashing_engine("boom", clock=clock),
                engine("survivor", SolveStatus.OPTIMAL, 10.0, clock=clock),
            ],
            executor="inline", clock=clock,
        )
        outcome = solver.solve(instance)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.winner == "survivor"
        report = outcome.report_for("boom")
        assert report.outcome == "crashed"
        assert "injected crash" in report.error

    def test_all_crashed_reports_error(self, instance):
        clock = FakeClock()
        solver = PortfolioSolver(
            engines=[crashing_engine("b1", clock=clock),
                     crashing_engine("b2", clock=clock)],
            executor="inline", clock=clock,
        )
        outcome = solver.solve(instance)
        assert outcome.status is SolveStatus.ERROR
        assert outcome.winner is None

    def test_crashed_process_detected(self, instance):
        """A worker that dies without reporting (hard exit) must be
        reaped via its exit code, not hang the race."""
        import os

        def hard_exit(task: EngineTask):
            os._exit(17)

        solver = PortfolioSolver(
            engines=[
                EngineSpec("segfaulty", hard_exit),
                "highs",
            ],
            deadline=30.0, executor="process",
        )
        outcome = solver.solve(instance)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.winner == "highs"
        report = outcome.report_for("segfaulty")
        assert report.outcome == "crashed"
        assert "exit code 17" in report.error


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def build(self):
        clock = FakeClock()
        return clock, PortfolioSolver(
            engines=[
                engine("a", SolveStatus.FEASIBLE, 12.0, cost=1.0, clock=clock),
                crashing_engine("b", clock=clock),
                engine("c", SolveStatus.OPTIMAL, 10.0, cost=2.0, clock=clock),
            ],
            deadline=100.0, executor="inline", clock=clock,
        )

    def test_repeated_races_identical(self, instance):
        outcomes = []
        for _ in range(3):
            clock, solver = self.build()
            outcomes.append(solver.solve(instance))
        first = outcomes[0]
        for other in outcomes[1:]:
            assert other.winner == first.winner == "c"
            assert other.status is first.status
            assert other.wall_seconds == first.wall_seconds
            assert [(r.name, r.outcome, r.wall_seconds) for r in other.reports] \
                == [(r.name, r.outcome, r.wall_seconds) for r in first.reports]

    def test_telemetry_schema(self, instance):
        _clock, solver = self.build()
        telemetry = solver.solve(instance).telemetry()
        assert telemetry["winner"] == "c"
        assert telemetry["deadline"] == 100.0
        assert telemetry["deadline_hit"] is False
        assert set(telemetry["engines"]) == {"a", "b", "c"}
        assert telemetry["engines"]["b"]["outcome"] == "crashed"
        # Telemetry must be JSON-serializable (it ships in placements).
        import json

        json.dumps(telemetry)


# ---------------------------------------------------------------------------
# Process executor: real engines, real cancellation
# ---------------------------------------------------------------------------


def _sleepy_engine(task: EngineTask):
    time.sleep(60.0)
    return payload(SolveStatus.OPTIMAL, 0.0)


class TestProcessExecutor:
    def test_losers_are_cancelled_promptly(self, instance):
        """A winner must terminate a 60s sleeper well before it wakes."""
        solver = PortfolioSolver(
            engines=["highs", EngineSpec("sleeper", _sleepy_engine)],
            deadline=55.0, executor="process",
        )
        started = time.monotonic()
        outcome = solver.solve(instance)
        elapsed = time.monotonic() - started
        assert outcome.winner == "highs"
        assert outcome.status is SolveStatus.OPTIMAL
        assert elapsed < 20.0, f"losers not cancelled: took {elapsed:.1f}s"
        assert outcome.report_for("sleeper").outcome == "cancelled"

    def test_real_engines_agree_with_single_backend(self, instance):
        reference = RulePlacer().place(instance)
        solver = PortfolioSolver(deadline=60.0, executor="process")
        outcome = solver.solve(instance)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == pytest.approx(reference.objective_value)

    def test_deadline_kills_sleeper_without_result(self, instance):
        solver = PortfolioSolver(
            engines=[EngineSpec("sleeper", _sleepy_engine)],
            deadline=0.5, executor="process", grace_seconds=0.2,
        )
        started = time.monotonic()
        outcome = solver.solve(instance)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        assert outcome.status is SolveStatus.TIME_LIMIT
        assert outcome.deadline_hit
        assert outcome.report_for("sleeper").outcome == "timeout"

    def test_hostile_payload_still_reaps_children(self, instance):
        """An exception while handling a worker message must not leak
        the other forked engines: the teardown runs in a ``finally``."""
        import multiprocessing

        def hostile(task: EngineTask):
            return {"status": "not-a-real-status"}

        solver = PortfolioSolver(
            engines=[EngineSpec("hostile", hostile),
                     EngineSpec("sleeper", _sleepy_engine)],
            deadline=30.0, executor="process",
        )
        with pytest.raises(ValueError):
            solver.solve(instance)
        # The 60s sleeper must have been terminated on the error path.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if not multiprocessing.active_children():
                break
            time.sleep(0.05)
        assert not multiprocessing.active_children(), (
            "forked engine leaked past the race teardown"
        )


# ---------------------------------------------------------------------------
# RulePlacer integration
# ---------------------------------------------------------------------------


class TestPlacerIntegration:
    def test_backend_portfolio_string(self, instance):
        reference = RulePlacer().place(instance)
        placement = RulePlacer(PlacerConfig(
            backend="portfolio", deadline=60.0, executor="inline",
        )).place(instance)
        assert placement.status is SolveStatus.OPTIMAL
        assert placement.objective_value == pytest.approx(
            reference.objective_value)
        assert placement.winner in ("highs", "bnb", "satopt")
        telemetry = placement.solver_stats["portfolio"]
        assert telemetry["winner"] == placement.winner
        assert placement.total_installed() == reference.total_installed()

    def test_named_backend_strings(self, instance):
        for name in ("highs", "bnb"):
            placement = RulePlacer(PlacerConfig(backend=name)).place(instance)
            assert placement.status is SolveStatus.OPTIMAL

    def test_merging_through_portfolio(self, instance):
        plain = RulePlacer(PlacerConfig(enable_merging=True)).place(instance)
        placement = RulePlacer(PlacerConfig(
            backend="portfolio", enable_merging=True,
            deadline=60.0, executor="inline",
        )).place(instance)
        assert placement.objective_value == pytest.approx(plain.objective_value)

    def test_non_rule_objective_skips_satopt(self, instance):
        from repro.core.objectives import UpstreamDrops

        placement = RulePlacer(PlacerConfig(
            backend="portfolio", objective=UpstreamDrops(),
            deadline=60.0, executor="inline",
        )).place(instance)
        telemetry = placement.solver_stats["portfolio"]
        assert telemetry["engines"]["satopt"]["outcome"] == "skipped"
        assert placement.status is SolveStatus.OPTIMAL

    def test_crash_injected_engine_never_fails_the_solve(self, instance):
        placement = RulePlacer(PlacerConfig(
            backend="portfolio", deadline=60.0, executor="inline",
            engines=(crashing_engine("hostile"), "highs"),
        )).place(instance)
        assert placement.status is SolveStatus.OPTIMAL
        assert placement.winner == "highs"
