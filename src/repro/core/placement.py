"""The placement engine: the paper's Fig. 4 pipeline end-to-end.

``RulePlacer`` wires the stages together: optional redundancy removal,
dependency-graph construction, merge detection, ILP build, solve, and
solution extraction.  The result is a :class:`Placement` -- the mapping
from every rule to the switches it is installed on, plus the active
merge groups and accounting helpers (total installed rules, per-switch
loads, and the duplication-overhead metric of Table II).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..milp.model import SolveResult, SolveStatus
from ..policy.policy import PolicySet
from ..policy.redundancy import remove_redundant_rules
from .depgraph import build_dependency_graph
from .ilp import IlpEncoding, build_encoding
from .instance import PlacementInstance, RuleKey
from .merging import MergePlan
from .objectives import Objective, TotalRules, apply_objective
from .slicing import build_slices

__all__ = ["PlacerConfig", "Placement", "RulePlacer"]

#: Sentinel returned by backend resolution when the portfolio path is
#: selected (the portfolio is not a Model-level backend).
_PORTFOLIO = object()


@dataclass
class Placement:
    """A solved rule placement.

    ``placed`` maps every rule to the switches holding a copy of it;
    ``merged`` maps each merge-group id to the switches where the group
    is *active* (all members present, one shared TCAM entry).
    """

    instance: PlacementInstance
    status: SolveStatus
    placed: Dict[RuleKey, FrozenSet[str]] = field(default_factory=dict)
    merged: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    merge_plan: Optional[MergePlan] = None
    objective_value: Optional[float] = None
    solve_seconds: float = 0.0
    build_seconds: float = 0.0
    num_variables: int = 0
    num_constraints: int = 0
    #: Flat backend counters, plus (for portfolio solves) the structured
    #: per-engine telemetry under the ``"portfolio"`` key -- see
    #: ``docs/architecture.md`` for the schema.
    solver_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def is_feasible(self) -> bool:
        """True when the placement carries a usable rule assignment --
        including the best incumbent of a solve that hit its deadline
        (status ``TIME_LIMIT`` with an honest ``objective_value``)."""
        return self.status.has_solution or (
            self.status is SolveStatus.TIME_LIMIT
            and self.objective_value is not None
        )

    @property
    def winner(self) -> Optional[str]:
        """The engine that produced this answer in a portfolio solve."""
        portfolio = self.solver_stats.get("portfolio")
        if isinstance(portfolio, dict):
            return portfolio.get("winner")
        return None

    def switches_of(self, key: RuleKey) -> FrozenSet[str]:
        return self.placed.get(key, frozenset())

    def rules_at(self, switch: str) -> List[RuleKey]:
        """Every rule with a copy on ``switch`` (merged or not)."""
        return [key for key, switches in self.placed.items() if switch in switches]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def switch_loads(self) -> Dict[str, int]:
        """TCAM slots used per switch, counting each active merge group
        as the single shared entry it installs."""
        loads: Dict[str, int] = {}
        for key, switches in self.placed.items():
            for switch in switches:
                loads[switch] = loads.get(switch, 0) + 1
        if self.merge_plan is not None:
            for gid, switches in self.merged.items():
                for switch in switches:
                    members = self.merge_plan.members_at.get((gid, switch), ())
                    if members:
                        loads[switch] = loads.get(switch, 0) - (len(members) - 1)
        return loads

    def total_installed(self) -> int:
        """``B``: total rules physically installed in the network."""
        return sum(self.switch_loads().values())

    def required_rules(self) -> int:
        """``A``: rules that must exist *somewhere* -- every DROP plus the
        PERMITs some DROP depends on.  If everything fit on the ingress
        switches this would be the network-wide total (paper, Exp. 3)."""
        from .depgraph import build_dependency_graph

        total = 0
        for policy in self.instance.policies:
            graph = build_dependency_graph(policy)
            total += len(
                set(graph.drop_priorities()) | set(graph.required_permits())
            )
        return total

    def duplication_overhead(self, relative_to: str = "required") -> float:
        """Table II's overhead metric ``(B - A) / A``.

        ``B`` is the installed count.  With ``relative_to="required"``
        (default), ``A`` counts the rules that must be placed at all, so
        an all-at-ingress solution scores exactly 0% and spreading over
        paths shows as positive duplication; cross-policy merging can
        push it negative, as in Table II.  ``relative_to="all"`` uses
        the raw policy rule count, the paper's literal ``A``.
        """
        if relative_to == "required":
            a = self.required_rules()
        elif relative_to == "all":
            a = self.instance.total_rules()
        else:
            raise ValueError(f"unknown overhead base {relative_to!r}")
        if a == 0:
            return 0.0
        return (self.total_installed() - a) / a

    def spare_capacities(self) -> Dict[str, int]:
        """Remaining slots per switch -- the capacity spec incremental
        deployment re-solves against (Section IV-E / Experiment 5)."""
        loads = self.switch_loads()
        return {
            name: capacity - loads.get(name, 0)
            for name, capacity in self.instance.capacities.items()
        }

    def capacity_violations(self) -> Dict[str, int]:
        """Switches whose load exceeds capacity (should be empty)."""
        loads = self.switch_loads()
        return {
            name: load - self.instance.capacity(name)
            for name, load in loads.items()
            if load > self.instance.capacity(name)
        }

    def summary(self) -> str:
        if not self.is_feasible:
            return f"{self.status.value} after {self.solve_seconds:.2f}s"
        return (
            f"{self.status.value}: {self.total_installed()} rules installed "
            f"({self.duplication_overhead():+.1%} overhead) in {self.solve_seconds:.2f}s"
        )


@dataclass
class PlacerConfig:
    """Knobs for the placement pipeline (Fig. 4 stages)."""

    objective: Objective = field(default_factory=TotalRules)
    enable_merging: bool = False
    #: Run the optional redundancy-removal pre-pass.
    remove_redundancy: bool = False
    #: MILP backend instance, a backend name (``"highs"``, ``"bnb"``),
    #: ``"portfolio"`` to race every engine, or ``None`` for SciPy/HiGHS.
    backend: Optional[object] = None
    time_limit: Optional[float] = None
    #: Shared wall-clock budget for portfolio solves; on expiry the best
    #: incumbent any engine found is returned with status TIME_LIMIT.
    deadline: Optional[float] = None
    #: Engines raced by ``backend="portfolio"`` (names or EngineSpecs).
    engines: Sequence[object] = ("highs", "bnb", "satopt")
    #: Per-engine constructor options, keyed by engine name.
    engine_options: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Portfolio execution strategy: ``"process"`` or ``"inline"``.
    executor: str = "process"
    #: Solve independent components concurrently: ``"auto"`` decomposes
    #: whenever it is exact (no merging, no pins, separable objective),
    #: ``"off"`` always solves monolithically.
    parallel_components: str = "auto"
    #: Worker processes for component solving; ``None`` uses one per
    #: component, capped at the CPU count.
    component_workers: Optional[int] = None


class RulePlacer:
    """End-to-end placement: encode, solve, extract."""

    def __init__(self, config: Optional[PlacerConfig] = None) -> None:
        self.config = config or PlacerConfig()

    # ------------------------------------------------------------------

    def preprocess(self, instance: PlacementInstance) -> PlacementInstance:
        """Optional redundancy removal over every policy (Fig. 4 stage 1)."""
        if not self.config.remove_redundancy:
            return instance
        reduced = PolicySet()
        for policy in instance.policies:
            new_policy, _report = remove_redundant_rules(policy)
            reduced.add(new_policy)
        return PlacementInstance(
            instance.topology, instance.routing, reduced, dict(instance.capacities)
        )

    def build(self, instance: PlacementInstance,
              fixed: Optional[Dict[Tuple[RuleKey, str], int]] = None,
              depgraphs=None, slices=None) -> IlpEncoding:
        """Encode the (preprocessed) instance and install the objective."""
        if slices is None and depgraphs is None:
            depgraphs = {
                policy.ingress: build_dependency_graph(policy)
                for policy in instance.policies
            }
        if slices is None:
            slices = build_slices(instance, depgraphs)
        encoding = build_encoding(
            instance, enable_merging=self.config.enable_merging,
            depgraphs=depgraphs, fixed=fixed, slices=slices,
        )
        apply_objective(encoding, self.config.objective)
        return encoding

    def place(self, instance: PlacementInstance,
              fixed: Optional[Dict[Tuple[RuleKey, str], int]] = None,
              depgraphs=None) -> Placement:
        """Run the full pipeline and return the extracted placement.

        ``depgraphs`` lets a caller that already holds the dependency
        graphs (a session's pinned memo, a component fan-out)
        skip the recompute; ``compile.depgraph_ms`` then honestly
        reports the near-zero reuse cost.
        """
        instance = self.preprocess(instance)
        if self.config.remove_redundancy:
            # Redundancy removal rewrites the policies, so any graphs
            # the caller computed beforehand describe the wrong rules.
            depgraphs = None
        compile_stats: Dict[str, object] = {}
        stage_start = time.perf_counter()
        if depgraphs is None:
            depgraphs = {
                policy.ingress: build_dependency_graph(policy)
                for policy in instance.policies
            }
        compile_stats["depgraph_ms"] = (time.perf_counter() - stage_start) * 1000.0
        slices = build_slices(instance, depgraphs)

        placement = self._try_components(
            instance, slices, fixed, compile_stats, depgraphs
        )
        if placement is None:
            build_start = time.perf_counter()
            encoding = self.build(
                instance, fixed=fixed, depgraphs=depgraphs, slices=slices
            )
            build_seconds = time.perf_counter() - build_start
            compile_stats["encode_ms"] = build_seconds * 1000.0
            compile_stats.setdefault("components", 1)
            compile_stats.setdefault("parallel_speedup", 1.0)
            backend = self._resolve_backend()
            if backend is _PORTFOLIO:
                placement = self._place_portfolio(instance, encoding)
            else:
                result = encoding.model.solve(
                    backend, time_limit=self.config.time_limit
                )
                placement = self.extract(encoding, result)
            placement.build_seconds = build_seconds
        placement.solver_stats["compile"] = compile_stats
        return placement

    def _try_components(self, instance: PlacementInstance, slices,
                        fixed, compile_stats: Dict[str, object],
                        depgraphs=None) -> Optional[Placement]:
        """Attempt exact component decomposition (None = stay monolithic).

        Decomposition is only taken when it provably matches the
        monolithic optimum: at least two components, no cross-component
        couplers (merging spans policies, pins name global variables),
        and an objective that sums over components.
        """
        if self.config.parallel_components == "off":
            return None
        if self.config.enable_merging or fixed:
            return None
        from ..solve.components import (
            objective_is_separable, place_components, split_components,
        )

        if not objective_is_separable(self.config.objective):
            return None
        components = split_components(instance, slices)
        if len(components) < 2:
            return None
        placement = place_components(
            instance, self.config, components,
            workers=self.config.component_workers,
            depgraphs=depgraphs,
        )
        if placement is None:
            return None
        telemetry = placement.solver_stats.get("components", {})
        compile_stats["components"] = len(components)
        wall = telemetry.get("wall_seconds") or 0.0
        sequential = telemetry.get("sequential_seconds") or 0.0
        compile_stats["parallel_speedup"] = (
            sequential / wall if wall > 0 else 1.0
        )
        compile_stats["encode_ms"] = placement.build_seconds * 1000.0
        return placement

    # ------------------------------------------------------------------
    # Backend resolution / portfolio orchestration
    # ------------------------------------------------------------------

    def _resolve_backend(self):
        """Map the configured backend (instance, name, or "portfolio")
        onto what the solve step needs."""
        from ..solve.portfolio import PortfolioSolver, resolve_backend

        backend = self.config.backend
        if isinstance(backend, PortfolioSolver) or backend == "portfolio":
            return _PORTFOLIO
        if isinstance(backend, str):
            return resolve_backend(backend)
        return backend

    def _portfolio_solver(self):
        from ..solve.portfolio import PortfolioSolver

        if isinstance(self.config.backend, PortfolioSolver):
            return self.config.backend
        deadline = self.config.deadline
        if deadline is None:
            deadline = self.config.time_limit
        return PortfolioSolver(
            engines=tuple(self.config.engines),
            deadline=deadline,
            engine_options=self.config.engine_options,
            executor=self.config.executor,
        )

    def _place_portfolio(self, instance: PlacementInstance,
                         encoding: IlpEncoding) -> Placement:
        """Race the configured engines and fold the outcome into a
        :class:`Placement` with per-engine telemetry."""
        solver = self._portfolio_solver()
        outcome = solver.solve(
            instance, encoding=encoding,
            enable_merging=self.config.enable_merging,
            objective=self.config.objective,
        )
        placement = Placement(
            instance=instance,
            status=outcome.status,
            merge_plan=encoding.merge_plan,
            objective_value=outcome.objective,
            solve_seconds=outcome.wall_seconds,
            num_variables=encoding.model.num_variables(),
            num_constraints=encoding.model.num_constraints(),
            solver_stats={"portfolio": outcome.telemetry()},
        )
        placement.placed = {
            key: frozenset(switches) for key, switches in outcome.placed.items()
        }
        placement.merged = {
            gid: frozenset(switches) for gid, switches in outcome.merged.items()
        }
        return placement

    @staticmethod
    def extract(encoding: IlpEncoding, result: SolveResult) -> Placement:
        """Read a solver result back into a :class:`Placement`."""
        placement = Placement(
            instance=encoding.instance,
            status=result.status,
            merge_plan=encoding.merge_plan,
            objective_value=result.objective,
            solve_seconds=result.solve_seconds,
            num_variables=encoding.model.num_variables(),
            num_constraints=encoding.model.num_constraints(),
            solver_stats=dict(result.stats),
        )
        if not result.has_solution:
            return placement
        by_rule: Dict[RuleKey, set] = {}
        for (key, switch), var in encoding.var_of.items():
            if result.is_one(var):
                by_rule.setdefault(key, set()).add(switch)
        placement.placed = {key: frozenset(v) for key, v in by_rule.items()}
        by_group: Dict[int, set] = {}
        for (gid, switch), var in encoding.merge_var_of.items():
            if result.is_one(var):
                by_group.setdefault(gid, set()).add(switch)
        placement.merged = {gid: frozenset(v) for gid, v in by_group.items()}
        return placement
