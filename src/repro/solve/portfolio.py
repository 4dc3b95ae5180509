"""Portfolio solving: race every exact engine under one deadline.

The repository ships three exact engines whose relative speed varies
wildly with instance shape: HiGHS branch-and-cut
(:class:`~repro.milp.scipy_backend.ScipyMilpBackend`), the from-scratch
branch-and-bound (:class:`~repro.milp.bnb.BranchAndBoundBackend`), and
the CDCL/pseudo-Boolean optimizer (:class:`~repro.core.satopt.SatOptimizer`).
:class:`PortfolioSolver` runs all of them on the same instance
concurrently (one forked process per engine -- they are CPU-bound),
returns the first *conclusive* answer (proven OPTIMAL or proven
INFEASIBLE), and kills the losers.

Degradation is graceful by construction:

* a shared wall-clock ``deadline`` bounds the whole race; on expiry the
  best incumbent any engine reported is returned with status
  ``TIME_LIMIT`` and an honest ``objective``;
* a crashing engine (exception or killed process) is recorded in the
  telemetry and the survivors keep racing;
* engines that cannot express the requested problem (e.g. the SAT
  optimizer under a non-rule-count objective) are skipped, not failed.

Because the engines are independent implementations of the same
optimization problem, the portfolio doubles as a differential oracle:
any disagreement between conclusive answers is a bug in one of them,
and ``tests/integration/test_cross_engine_fuzz.py`` exploits exactly
that.

Telemetry: :meth:`PortfolioOutcome.telemetry` returns the structured
per-engine record (winner, per-engine wall time, node/conflict/probe
counters, crash and timeout outcomes) that
:class:`~repro.core.placement.Placement` stores under
``solver_stats["portfolio"]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.ilp import IlpEncoding, build_encoding
from ..core.instance import PlacementInstance, RuleKey
from ..core.objectives import TotalRules, apply_objective
from ..forkpipe import (CAN_FORK, Child, WorkerCrash, WorkerError, reply,
                        wait_any)
from ..milp.bnb import BranchAndBoundBackend
from ..milp.model import SolveResult, SolveStatus
from ..milp.scipy_backend import ScipyMilpBackend

__all__ = [
    "DEFAULT_ENGINES",
    "EngineReport",
    "EngineSpec",
    "EngineTask",
    "PortfolioOutcome",
    "PortfolioSolver",
    "SOLVE_BACKENDS",
    "resolve_backend",
]

#: Statuses that settle the race: optimality or infeasibility proven.
_CONCLUSIVE = (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED)

DEFAULT_ENGINES: Tuple[str, ...] = ("highs", "bnb", "satopt")

PlacedMap = Dict[RuleKey, Tuple[str, ...]]
MergedMap = Dict[int, Tuple[str, ...]]


# ---------------------------------------------------------------------------
# Task and result containers
# ---------------------------------------------------------------------------


@dataclass
class EngineTask:
    """Everything an engine needs to attack one instance.

    ``encoding`` is the parent-built ILP encoding (shared with the
    forked children at zero copy cost); SAT-family engines work from
    ``instance`` directly.
    """

    instance: PlacementInstance
    encoding: Optional[IlpEncoding] = None
    enable_merging: bool = False
    time_limit: Optional[float] = None


@dataclass(frozen=True)
class EngineSpec:
    """A named engine: ``run`` maps an :class:`EngineTask` to a payload
    dict (see :func:`_milp_payload` for the schema)."""

    name: str
    run: Callable[[EngineTask], Dict[str, object]]


@dataclass
class EngineReport:
    """Per-engine telemetry for one race."""

    name: str
    #: ``optimal | feasible | timeout | infeasible | unbounded |
    #: crashed | cancelled | skipped | error``
    outcome: str
    wall_seconds: float = 0.0
    objective: Optional[float] = None
    stats: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    @classmethod
    def answered(cls, name: str, payload: Dict[str, object],
                 wall: float) -> "EngineReport":
        """The report of an engine that answered ``payload``."""
        return cls(name, _outcome_of(SolveStatus(payload["status"])), wall,
                   objective=payload.get("objective"),
                   stats=dict(payload.get("stats", {})))

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "outcome": self.outcome,
            "wall_seconds": self.wall_seconds,
        }
        if self.objective is not None:
            record["objective"] = self.objective
        if self.stats:
            record.update(self.stats)
        if self.error is not None:
            record["error"] = self.error
        return record


@dataclass
class PortfolioOutcome:
    """The race result: winning answer plus full per-engine telemetry."""

    status: SolveStatus
    winner: Optional[str]
    objective: Optional[float] = None
    placed: PlacedMap = field(default_factory=dict)
    merged: MergedMap = field(default_factory=dict)
    reports: List[EngineReport] = field(default_factory=list)
    wall_seconds: float = 0.0
    deadline: Optional[float] = None
    deadline_hit: bool = False

    @property
    def has_solution(self) -> bool:
        return self.objective is not None and self.status is not SolveStatus.INFEASIBLE

    def report_for(self, name: str) -> Optional[EngineReport]:
        for report in self.reports:
            if report.name == name:
                return report
        return None

    def telemetry(self) -> Dict[str, object]:
        """The ``solver_stats["portfolio"]`` record (JSON-serializable)."""
        return {
            "winner": self.winner,
            "deadline": self.deadline,
            "deadline_hit": self.deadline_hit,
            "wall_seconds": self.wall_seconds,
            "engines": {r.name: r.to_dict() for r in self.reports},
        }


# ---------------------------------------------------------------------------
# Built-in engines
# ---------------------------------------------------------------------------
#
# An engine payload is a small picklable dict -- the only data crossing
# the process boundary:
#   {"status": SolveStatus value string,
#    "objective": float | None,
#    "placed": {rule key: (switch, ...)},
#    "merged": {group id: (switch, ...)},
#    "stats": {counter: float}}


def _milp_payload(encoding: IlpEncoding, result: SolveResult) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "status": result.status.value,
        "objective": result.objective,
        "placed": {},
        "merged": {},
        "stats": dict(result.stats),
    }
    if result.has_solution:
        placed: Dict[RuleKey, set] = {}
        for (key, switch), var in encoding.var_of.items():
            if result.is_one(var):
                placed.setdefault(key, set()).add(switch)
        payload["placed"] = {k: tuple(sorted(v)) for k, v in placed.items()}
        merged: Dict[int, set] = {}
        for (gid, switch), var in encoding.merge_var_of.items():
            if result.is_one(var):
                merged.setdefault(gid, set()).add(switch)
        payload["merged"] = {g: tuple(sorted(v)) for g, v in merged.items()}
    return payload


def _run_highs(task: EngineTask) -> Dict[str, object]:
    backend = ScipyMilpBackend()
    result = task.encoding.model.solve(backend, time_limit=task.time_limit)
    return _milp_payload(task.encoding, result)


def _run_bnb(task: EngineTask) -> Dict[str, object]:
    backend = BranchAndBoundBackend()
    result = task.encoding.model.solve(backend, time_limit=task.time_limit)
    return _milp_payload(task.encoding, result)


def _run_satopt(task: EngineTask) -> Dict[str, object]:
    from ..core.satopt import SatOptimizer

    optimizer = SatOptimizer(enable_merging=task.enable_merging)
    result = optimizer.minimize(task.instance, time_limit=task.time_limit)
    placement = result.placement
    return {
        "status": placement.status.value,
        "objective": placement.objective_value,
        "placed": {k: tuple(sorted(v)) for k, v in placement.placed.items()},
        "merged": {g: tuple(sorted(v)) for g, v in placement.merged.items()},
        "stats": {
            k: v for k, v in placement.solver_stats.items()
            if isinstance(v, (int, float))
        },
    }


_REGISTRY: Dict[str, EngineSpec] = {
    "highs": EngineSpec("highs", _run_highs),
    "bnb": EngineSpec("bnb", _run_bnb),
    "satopt": EngineSpec("satopt", _run_satopt),
}


#: The MILP backend class each name :func:`resolve_backend` accepts.
_MILP_BACKENDS = {
    "highs": ScipyMilpBackend,
    "scipy": ScipyMilpBackend,
    "scipy-highs": ScipyMilpBackend,
    "bnb": BranchAndBoundBackend,
}

#: Every backend name a solve accepts: a MILP backend, or
#: ``"portfolio"`` to race every engine.
SOLVE_BACKENDS: Tuple[str, ...] = (*_MILP_BACKENDS, "portfolio")


def resolve_backend(name: str):
    """Map a CLI backend name to a MILP backend instance."""
    backend = _MILP_BACKENDS.get(name)
    if backend is None:
        raise ValueError(f"unknown backend {name!r}")
    return backend()


def _run_engine(spec: EngineSpec, task: EngineTask):
    """Child entry point: one engine's payload and its wall time."""
    started = time.perf_counter()
    payload = spec.run(task)
    return payload, time.perf_counter() - started


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------


class PortfolioSolver:
    """Race N engines on one instance under a shared deadline.

    ``engines`` is a sequence of registry names (``"highs"``, ``"bnb"``,
    ``"satopt"``) and/or :class:`EngineSpec` objects (tests inject fake
    or hostile engines this way).  ``executor`` selects how the race is
    run:

    * ``"process"`` (default): one forked process per engine, true
      concurrency, losers are killed.  Falls back to inline where
      ``fork`` is unavailable.
    * ``"inline"``: engines run sequentially in-process in listed order
      until a conclusive answer; fully deterministic under an injected
      ``clock``, which is what the test suite uses.

    ``deadline`` is the shared wall-clock budget in seconds; each engine
    additionally receives it as its own ``time_limit`` so it can report
    an incumbent instead of being killed mid-search.  ``grace_seconds``
    is how long past the deadline the parent waits for those incumbent
    reports before killing stragglers.
    """

    def __init__(
        self,
        engines: Sequence[Union[str, EngineSpec]] = DEFAULT_ENGINES,
        deadline: Optional[float] = None,
        executor: str = "process",
        clock: Callable[[], float] = time.monotonic,
        grace_seconds: float = 0.5,
    ) -> None:
        if executor not in ("process", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        if not engines:
            raise ValueError("portfolio needs at least one engine")
        self.specs: List[EngineSpec] = []
        for engine in engines:
            if isinstance(engine, EngineSpec):
                self.specs.append(engine)
            elif isinstance(engine, str):
                try:
                    self.specs.append(_REGISTRY[engine])
                except KeyError:
                    raise ValueError(
                        f"unknown engine {engine!r}; "
                        f"known: {sorted(_REGISTRY)}"
                    ) from None
            else:
                raise TypeError(f"engine must be a name or EngineSpec: {engine!r}")
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate engine names: {names}")
        self.deadline = deadline
        self.executor = executor
        self.clock = clock
        self.grace_seconds = grace_seconds

    # ------------------------------------------------------------------

    def solve(
        self,
        instance: PlacementInstance,
        encoding: Optional[IlpEncoding] = None,
        enable_merging: bool = False,
        objective=None,
    ) -> PortfolioOutcome:
        """Race the configured engines on ``instance``."""
        specs = list(self.specs)
        skipped: List[EngineReport] = []
        needs_encoding = any(s.name in ("highs", "bnb") for s in specs)
        if needs_encoding and encoding is None:
            encoding = build_encoding(instance, enable_merging=enable_merging)
            apply_objective(encoding, objective or TotalRules())

        # The SAT optimizer only minimizes total installed rules; under
        # any other objective it would race toward the wrong answer.
        if objective is not None and not isinstance(objective, TotalRules):
            kept = []
            for spec in specs:
                if spec.name == "satopt":
                    skipped.append(EngineReport(
                        spec.name, "skipped",
                        error="objective not supported by the SAT optimizer",
                    ))
                else:
                    kept.append(spec)
            specs = kept
        if not specs:
            raise ValueError("no engine can handle the requested objective")

        started = self.clock()
        if self.executor == "process":
            order, results, reports, deadline_hit = self._race_process(
                specs, instance, encoding, enable_merging
            )
        else:
            order, results, reports, deadline_hit = self._race_inline(
                specs, instance, encoding, enable_merging
            )
        outcome = self._select(specs, order, results, reports, deadline_hit)
        outcome.reports.extend(skipped)
        outcome.wall_seconds = self.clock() - started
        outcome.deadline = self.deadline
        return outcome

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------

    def _task_for(self, instance, encoding, enable_merging) -> EngineTask:
        return EngineTask(
            instance=instance,
            encoding=encoding,
            enable_merging=enable_merging,
            time_limit=self.deadline,
        )

    def _race_process(self, specs, instance, encoding, enable_merging):
        """True concurrency: one forked child per engine.

        Each child answers once through :mod:`repro.forkpipe`; one that
        raises or dies without answering (segfault, OOM kill) is a
        crashed engine.  Fork keeps the parent-built encoding shared
        copy-on-write, so only the small result payload ever crosses
        the process boundary.
        """
        if not CAN_FORK:  # pragma: no cover - non-POSIX fallback
            return self._race_inline(specs, instance, encoding, enable_merging)
        started = self.clock()
        hard_stop = (
            None if self.deadline is None
            else started + self.deadline + self.grace_seconds
        )
        order: List[str] = []
        results: Dict[str, Dict[str, object]] = {}
        reports: Dict[str, EngineReport] = {}
        pending: Dict[Child, str] = {}
        winner_found = False
        # Everything below may raise (a hostile engine can answer an
        # arbitrary payload); the finally block kills and reaps every
        # engine still racing no matter how we leave.
        try:
            for spec in specs:
                task = self._task_for(instance, encoding, enable_merging)
                pending[Child(reply, _run_engine, spec, task)] = spec.name
            while pending and not winner_found:
                # Past the hard stop, one last look collects incumbents
                # the engines posted at their own time limit.
                remaining = (None if hard_stop is None
                             else max(hard_stop - self.clock(), 0.0))
                ready = wait_any(list(pending), remaining)
                if not ready:
                    break
                for child in ready:
                    name = pending.pop(child)
                    order.append(name)
                    try:
                        payload, wall = child.receive(0)
                    except (WorkerError, WorkerCrash) as exc:
                        reports[name] = EngineReport(
                            name, "crashed", self.clock() - started,
                            error=str(exc),
                        )
                        continue
                    finally:
                        child.close()
                    reports[name] = EngineReport.answered(name, payload, wall)
                    results[name] = payload
                    if SolveStatus(payload["status"]) in _CONCLUSIVE:
                        winner_found = True
                        break

            deadline_hit = (
                self.deadline is not None
                and self.clock() - started >= self.deadline
                and not winner_found
            )
            for name in pending.values():
                reports[name] = EngineReport(
                    name, "cancelled" if winner_found else "timeout",
                    self.clock() - started,
                    error=None if winner_found else "killed at deadline",
                )
        finally:
            for child in pending:
                child.close()
        report_list = [reports[s.name] for s in specs if s.name in reports]
        return order, results, report_list, deadline_hit

    def _race_inline(self, specs, instance, encoding, enable_merging):
        """Sequential fallback: run engines in listed order until one is
        conclusive.  Deterministic under an injected clock."""
        started = self.clock()
        order: List[str] = []
        results: Dict[str, Dict[str, object]] = {}
        reports: List[EngineReport] = []
        winner_found = False
        for spec in specs:
            elapsed = self.clock() - started
            remaining = None if self.deadline is None else self.deadline - elapsed
            if winner_found:
                reports.append(EngineReport(spec.name, "cancelled"))
                continue
            if remaining is not None and remaining <= 0:
                reports.append(EngineReport(
                    spec.name, "timeout", error="deadline expired before start"
                ))
                continue
            task = self._task_for(instance, encoding, enable_merging)
            task.time_limit = remaining
            engine_start = self.clock()
            try:
                payload = spec.run(task)
            except BaseException as exc:
                reports.append(EngineReport(
                    spec.name, "crashed", self.clock() - engine_start,
                    error=f"{type(exc).__name__}: {exc}",
                ))
                continue
            wall = self.clock() - engine_start
            order.append(spec.name)
            reports.append(EngineReport.answered(spec.name, payload, wall))
            results[spec.name] = payload
            if SolveStatus(payload["status"]) in _CONCLUSIVE:
                winner_found = True
        deadline_hit = (
            self.deadline is not None
            and self.clock() - started >= self.deadline
            and not winner_found
        )
        return order, results, reports, deadline_hit

    # ------------------------------------------------------------------
    # Winner selection
    # ------------------------------------------------------------------

    def _select(self, specs, order, results, reports,
                deadline_hit) -> PortfolioOutcome:
        """Pick the race's answer from per-engine results.

        Priority: first *conclusive* arrival (proven optimal/infeasible)
        wins outright; otherwise the best incumbent (lowest objective,
        ties broken by configured engine order); otherwise an honest
        empty TIME_LIMIT / ERROR.
        """
        outcome = PortfolioOutcome(
            status=SolveStatus.TIME_LIMIT, winner=None,
            reports=list(reports), deadline_hit=deadline_hit,
        )
        for name in order:
            payload = results.get(name)
            if payload is None:
                continue
            if SolveStatus(payload["status"]) in _CONCLUSIVE:
                return self._fill(outcome, name, payload,
                                  SolveStatus(payload["status"]))

        incumbents = [
            (name, results[name]) for spec in specs
            for name in [spec.name]
            if name in results and results[name].get("objective") is not None
        ]
        if incumbents:
            name, payload = min(incumbents, key=lambda item: item[1]["objective"])
            status = (
                SolveStatus.TIME_LIMIT if deadline_hit else
                SolveStatus(payload["status"])
            )
            return self._fill(outcome, name, payload, status)

        if reports and all(r.outcome in ("crashed", "skipped") for r in reports):
            outcome.status = SolveStatus.ERROR
        return outcome

    @staticmethod
    def _fill(outcome: PortfolioOutcome, name: str,
              payload: Dict[str, object], status: SolveStatus) -> PortfolioOutcome:
        outcome.status = status
        outcome.winner = name
        outcome.objective = payload.get("objective")
        outcome.placed = dict(payload.get("placed", {}))
        outcome.merged = dict(payload.get("merged", {}))
        return outcome


def _outcome_of(status: SolveStatus) -> str:
    return {
        SolveStatus.OPTIMAL: "optimal",
        SolveStatus.FEASIBLE: "feasible",
        SolveStatus.INFEASIBLE: "infeasible",
        SolveStatus.UNBOUNDED: "unbounded",
        SolveStatus.TIME_LIMIT: "timeout",
        SolveStatus.ERROR: "error",
    }[status]
