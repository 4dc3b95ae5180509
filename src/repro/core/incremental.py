"""Incremental deployment for dynamic networks (paper Section IV-E).

Full ILP solves are acceptable when a new ACL policy takes effect
(infrequent), but routing changes and security updates need answers in
fractions of a second.  The paper's recipe, reproduced here:

* **Small scale** -- a greedy heuristic that places new rules as close
  to the ingress as possible, using only the *spare* capacity left by
  the existing solution;
* **Medium scale** -- a restricted sub-problem: variables only for the
  policies/paths touched by the change, capacities set to the spare
  capacity, everything else frozen.  Restrictive (may report
  infeasible where a from-scratch solve would succeed) but fast;
* both fall back in order: greedy, then sub-ILP.

:class:`IncrementalDeployer` owns the evolving network state: the base
placement's capacity consumption plus every incremental change applied
since.  ``as_placement()`` exports the combined state for verification.

The greedy itself is :func:`greedy_place`.  Run over a whole instance
against its full capacities, :func:`certified_greedy` answers a
total-rules solve without an ILP whenever the greedy meets the counting
lower bound every feasible placement obeys.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..digest import framed
from ..milp.model import SolveStatus
from ..net.routing import Path, Routing
from ..net.topology import Topology
from ..policy.policy import Policy, PolicySet
from .depgraph import DependencyGraph, build_dependency_graph
from .instance import PlacementInstance, RuleKey
from .placement import Placement, PlacerConfig, RulePlacer
from .slicing import relevant_drops

__all__ = ["IncrementalResult", "IncrementalDeployer", "certified_greedy",
           "greedy_place"]


@dataclass
class IncrementalResult:
    """Outcome of one incremental operation."""

    status: SolveStatus
    #: "greedy" or "ilp" -- which stage produced the answer.
    method: str
    seconds: float
    placed: Dict[RuleKey, FrozenSet[str]] = field(default_factory=dict)
    installed_rules: int = 0
    #: Compile telemetry: ``solver_stats["compile"]`` carries
    #: ``depgraph_ms``, plus the placer's encode statistics when the
    #: sub-ILP ran.
    solver_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def is_feasible(self) -> bool:
        return self.status.has_solution


class IncrementalDeployer:
    """Evolves a deployed placement through policy/routing changes.

    ``engine`` selects the fallback solver behind the greedy heuristic:
    ``"ilp"`` gives optimal sub-solutions, ``"sat"`` gives
    feasibility-only answers through the CDCL engine -- the paper's
    recipe for latency-critical updates (Section IV-D/E).
    """

    def __init__(self, base: Placement, engine: str = "ilp") -> None:
        if not base.is_feasible:
            raise ValueError("incremental deployment needs a feasible base")
        if engine not in ("ilp", "sat"):
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine
        self._session = None
        self.topology: Topology = base.instance.topology
        self.base_capacities: Dict[str, int] = dict(base.instance.capacities)
        #: Current per-ingress state: (policy, paths, placed-map).
        self._state: Dict[str, Tuple[Policy, Tuple[Path, ...], Dict[RuleKey, FrozenSet[str]]]] = {}
        self._loads: Dict[str, int] = {}
        #: Per ingress, the :func:`~repro.digest.framed` bytes of its
        #: paths and placed map in :meth:`state_digest`.  Built on
        #: demand; every write to ``_state[ingress]`` drops the entry.
        self._framed: Dict[str, bytes] = {}
        for policy in base.instance.policies:
            paths = base.instance.routing.paths(policy.ingress)
            placed = {
                key: switches for key, switches in base.placed.items()
                if key[0] == policy.ingress
            }
            self._state[policy.ingress] = (policy, paths, placed)
        # Merge-aware loads from the base placement.
        for switch, load in base.switch_loads().items():
            self._loads[switch] = load

    # ------------------------------------------------------------------
    # Solver session
    # ------------------------------------------------------------------

    def attach_session(self, session) -> None:
        """Resolve previews' dependency graphs through a
        :class:`~repro.solve.session.SolverSession`'s pinned memo.

        The ladder itself is unchanged (greedy, then :meth:`_sub_ilp`);
        the deployer stays the single source of truth for the deployed
        state.  Sessions serve the ``"ilp"`` engine only.
        """
        if self.engine != "ilp":
            raise ValueError(
                f"sessions require the 'ilp' engine, not {self.engine!r}"
            )
        self._session = session

    def detach_session(self) -> None:
        self._session = None

    @property
    def session(self):
        return self._session

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------

    def spare_capacity(self, switch: str) -> int:
        return self.base_capacities[switch] - self._loads.get(switch, 0)

    def spare_capacities(self) -> Dict[str, int]:
        return {name: self.spare_capacity(name) for name in self.base_capacities}

    def total_installed(self) -> int:
        return sum(self._loads.values())

    def has_policy(self, ingress: str) -> bool:
        """Whether a policy is currently deployed for ``ingress``."""
        return ingress in self._state

    def deployed_policy(self, ingress: str) -> Policy:
        """The currently deployed policy of ``ingress``."""
        try:
            return self._state[ingress][0]
        except KeyError:
            raise ValueError(f"no deployed policy for {ingress!r}") from None

    def deployed_paths(self, ingress: str) -> Tuple[Path, ...]:
        """The paths the ingress's policy is currently deployed on."""
        try:
            return self._state[ingress][1]
        except KeyError:
            raise ValueError(f"no deployed policy for {ingress!r}") from None

    def placed_of(self, ingress: str) -> Dict[RuleKey, FrozenSet[str]]:
        """A copy of the ingress's placed-rule -> switch-set map."""
        try:
            return dict(self._state[ingress][2])
        except KeyError:
            raise ValueError(f"no deployed policy for {ingress!r}") from None

    def state_digest(self) -> str:
        """Canonical sha256 of the entire deployed state.

        Covers, per ingress in sorted order: the policy's rule content,
        the deployed paths, and the exact placed-rule -> switch-set map.
        Two deployers with equal digests are observably identical, so
        this is the recovery oracle: a journal replay is correct iff it
        reproduces the pre-crash digest.

        The value is :func:`~repro.digest.canonical_digest` of that flat
        part stream.  Only the ingresses written since the last call are
        re-framed: the rest hash their kept bytes.  The policy part is
        read here, from the memoized ``content_digest()``, so an
        in-place ``add_rule`` on a deployed policy still shows.
        """
        hasher = hashlib.sha256()
        for ingress in sorted(self._state):
            policy, paths, placed = self._state[ingress]
            for chunk in framed(
                    (f"policy:{ingress}:{policy.content_digest()}",)):
                hasher.update(chunk)
            body = self._framed.get(ingress)
            if body is None:
                body = self._framed[ingress] = b"".join(
                    framed(_placement_parts(paths, placed)))
            hasher.update(body)
        return hasher.hexdigest()

    def as_placement(self) -> Placement:
        """Export the combined current state for verification."""
        policies = PolicySet()
        routing = Routing()
        placed: Dict[RuleKey, FrozenSet[str]] = {}
        for policy, paths, rule_map in self._state.values():
            policies.add(policy)
            for path in paths:
                routing.add_path(path)
            placed.update(rule_map)
        instance = PlacementInstance(
            self.topology, routing, policies, dict(self.base_capacities)
        )
        return Placement(
            instance=instance, status=SolveStatus.FEASIBLE, placed=placed
        )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def preview_install(self, policy: Policy, paths: Sequence[Path],
                        try_greedy: bool = True,
                        time_limit: Optional[float] = None) -> IncrementalResult:
        """Compute a placement for a new policy *without committing*.

        The fallback ladder in order: greedy heuristic, then the
        restricted sub-ILP (or SAT) against spare capacities; an
        infeasible result reports the sub-solver's verdict.  Separating
        compute from commit lets the serving layer run the (possibly
        crashing) compute in an isolated worker process and apply the
        returned placement in the daemon via :meth:`commit_install`.
        """
        if policy.ingress in self._state:
            raise ValueError(f"policy for {policy.ingress!r} already deployed")
        # Greedy never intersects a PERMIT-only policy with its flows
        # and places nothing on a path without a DROP, so a flow of the
        # wrong width or an unknown switch would otherwise commit and
        # break every later as_placement (journal compaction included).
        self.topology.check_paths(paths)
        policy.check_flows(paths)
        started = time.perf_counter()
        # One dependency analysis serves the greedy stage and the
        # sub-solver; with an attached session it comes from the pinned
        # per-deployment memo, so an unchanged policy pays ~0ms here.
        graph_start = time.perf_counter()
        if self._session is not None:
            graph = self._session.depgraphs.get(policy)
        else:
            graph = build_dependency_graph(policy)
        depgraph_ms = (time.perf_counter() - graph_start) * 1000.0
        if try_greedy:
            placed = self._greedy_place(policy, paths, graph)
            if placed is not None:
                return IncrementalResult(
                    SolveStatus.FEASIBLE, "greedy",
                    time.perf_counter() - started, placed,
                    sum(len(s) for s in placed.values()),
                    solver_stats={"compile": {"depgraph_ms": depgraph_ms}},
                )
        result = self._sub_ilp(policy, paths, time_limit,
                               depgraphs={policy.ingress: graph})
        compile_stats = result.solver_stats.setdefault("compile", {})
        compile_stats["depgraph_ms"] = depgraph_ms
        result.seconds = time.perf_counter() - started
        return result

    def commit_install(self, policy: Policy, paths: Sequence[Path],
                       placed: Dict[RuleKey, FrozenSet[str]]) -> None:
        """Apply a previewed installation to the live state."""
        if policy.ingress in self._state:
            raise ValueError(f"policy for {policy.ingress!r} already deployed")
        self._commit(policy, paths, placed)

    def install_policy(self, policy: Policy, paths: Sequence[Path],
                       try_greedy: bool = True,
                       time_limit: Optional[float] = None) -> IncrementalResult:
        """Ingress Policy Installation: place a brand-new policy.

        Greedy-first, sub-ILP fallback; commits on success.
        """
        result = self.preview_install(policy, paths, try_greedy, time_limit)
        if result.is_feasible:
            self._commit(policy, paths, result.placed)
        return result

    def remove_policy(self, ingress: str) -> int:
        """Delete a policy, freeing its capacity; returns freed slots.

        Rule deletion is "relatively easy" (paper, Experiment 5): no
        solving, just bookkeeping.
        """
        _policy, _paths, placed = self._release(ingress)
        return sum(len(switches) for switches in placed.values())

    def preview_reroute(self, ingress: str, new_paths: Sequence[Path],
                        try_greedy: bool = True,
                        time_limit: Optional[float] = None) -> IncrementalResult:
        """Compute a re-placement on new paths *without committing*.

        The deployed state is untouched on return: the old placement's
        load is released only for the duration of the computation (so
        spare capacities are as-if the policy were removed) and always
        restored.
        """
        policy, old_paths, old_placed = self._release(ingress)
        try:
            return self.preview_install(policy, new_paths, try_greedy,
                                        time_limit)
        finally:
            self._restore(ingress, policy, old_paths, old_placed)

    def apply_reroute(self, ingress: str, new_paths: Sequence[Path],
                      placed: Dict[RuleKey, FrozenSet[str]]) -> None:
        """Apply a previewed reroute: swap the old placement out."""
        policy, _old_paths, _old_placed = self._release(ingress)
        self._commit(policy, new_paths, placed)

    def reroute_policy(self, ingress: str, new_paths: Sequence[Path],
                       try_greedy: bool = True,
                       time_limit: Optional[float] = None) -> IncrementalResult:
        """Routing Policy Change: re-place one policy on new paths.

        Implements the paper's medium-scale recipe: remove the rules of
        the old route, add variables for the new one, keep every other
        policy's placement fixed.  Rolls back on infeasibility.
        """
        result = self.preview_reroute(ingress, new_paths, try_greedy,
                                      time_limit)
        if result.is_feasible:
            self.apply_reroute(ingress, new_paths, result.placed)
        return result

    def preview_modify(self, policy: Policy,
                       try_greedy: bool = True,
                       time_limit: Optional[float] = None) -> IncrementalResult:
        """Compute a rule change (delete + reinstall on the deployed
        paths) *without committing*; state is untouched on return."""
        if policy.ingress not in self._state:
            raise ValueError(f"no deployed policy for {policy.ingress!r}")
        old_policy, paths, old_placed = self._release(policy.ingress)
        try:
            return self.preview_install(policy, paths, try_greedy, time_limit)
        finally:
            self._restore(policy.ingress, old_policy, paths, old_placed)

    def apply_modify(self, policy: Policy,
                     placed: Dict[RuleKey, FrozenSet[str]]) -> None:
        """Apply a previewed modification on the deployed paths."""
        _old_policy, paths, _old_placed = self._release(policy.ingress)
        self._commit(policy, paths, placed)

    def modify_policy(self, policy: Policy,
                      try_greedy: bool = True,
                      time_limit: Optional[float] = None) -> IncrementalResult:
        """Ingress Policy Change: rule add/remove/modify.

        Modelled, as in the paper, as deletion + installation of the
        updated policy on the same paths.
        """
        result = self.preview_modify(policy, try_greedy=try_greedy,
                                     time_limit=time_limit)
        if result.is_feasible:
            self.apply_modify(policy, result.placed)
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _commit(self, policy: Policy, paths: Sequence[Path],
                placed: Dict[RuleKey, FrozenSet[str]]) -> None:
        self._state[policy.ingress] = (policy, tuple(paths), dict(placed))
        self._framed.pop(policy.ingress, None)
        for switches in placed.values():
            for switch in switches:
                self._loads[switch] = self._loads.get(switch, 0) + 1

    def _release(self, ingress: str
                 ) -> Tuple[Policy, Tuple[Path, ...], Dict[RuleKey, FrozenSet[str]]]:
        """Detach one policy's state, returning its load to the pool."""
        try:
            policy, paths, placed = self._state.pop(ingress)
        except KeyError:
            raise ValueError(f"no deployed policy for {ingress!r}") from None
        self._framed.pop(ingress, None)
        for switches in placed.values():
            for switch in switches:
                self._loads[switch] -= 1
        return policy, paths, placed

    def _restore(self, ingress: str, policy: Policy,
                 paths: Tuple[Path, ...],
                 placed: Dict[RuleKey, FrozenSet[str]]) -> None:
        """Undo a :meth:`_release` exactly."""
        self._state[ingress] = (policy, paths, placed)
        self._framed.pop(ingress, None)
        for switches in placed.values():
            for switch in switches:
                self._loads[switch] = self._loads.get(switch, 0) + 1

    def _greedy_place(self, policy: Policy, paths: Sequence[Path],
                      graph=None) -> Optional[Dict[RuleKey, FrozenSet[str]]]:
        """:func:`greedy_place` against this deployment's spare
        capacities; ``None`` sends the delta to the sub-ILP."""
        if graph is None:
            graph = build_dependency_graph(policy)
        return greedy_place(policy, paths, graph, self.spare_capacities())

    def _sub_ilp(self, policy: Policy, paths: Sequence[Path],
                 time_limit: Optional[float],
                 depgraphs=None) -> IncrementalResult:
        """The restricted sub-problem: only this policy's variables,
        against spare capacities."""
        routing = Routing(paths)
        policies = PolicySet([policy])
        sub_instance = PlacementInstance(
            self.topology, routing, policies, self.spare_capacities()
        )
        if self.engine == "sat":
            from .satenc import SatPlacer

            sub_placement = SatPlacer().place(sub_instance)
        else:
            placer = RulePlacer(PlacerConfig(time_limit=time_limit))
            sub_placement = placer.place(sub_instance, depgraphs=depgraphs)
        result = IncrementalResult(
            status=sub_placement.status,
            method=self.engine,
            seconds=sub_placement.solve_seconds,
            placed=dict(sub_placement.placed),
            installed_rules=sub_placement.total_installed(),
        )
        compile_stats = sub_placement.solver_stats.get("compile")
        if isinstance(compile_stats, dict):
            result.solver_stats["compile"] = dict(compile_stats)
        return result


def greedy_place(policy: Policy, paths: Sequence[Path],
                 graph: DependencyGraph, spare: Dict[str, int]
                 ) -> Optional[Dict[RuleKey, FrozenSet[str]]]:
    """Place ``policy`` on ``paths`` as close to the ingress as
    ``spare`` allows (paper Section IV-E).

    Per path, each relevant DROP (:func:`~repro.core.slicing.relevant_drops`)
    not yet on the path has its co-location closure (the drop plus its
    dependency PERMITs) placed onto the first switch along the path that
    can absorb the closure's *new* rules.  ``spare`` maps each switch to
    its free slots and is consumed in place, so successive calls share
    one capacity budget.  Returns ``None`` when any closure fits nowhere.
    """
    ingress = policy.ingress
    placed: Dict[RuleKey, set] = {}
    # ``placed`` inverted: per switch, the keys this call put there.
    at: Dict[str, set] = {}
    drops = [rule for rule in policy.sorted_rules() if rule.is_drop]

    for path in paths:
        for rule in relevant_drops(drops, path):
            drop_key = (ingress, rule.priority)
            if any(
                switch in path.switches
                for switch in placed.get(drop_key, ())
            ):
                continue  # already covered on this path
            closure = [
                (ingress, priority) for priority in graph.closure(rule.priority)
            ]
            chosen = None
            for switch in path.switches:
                here = at.get(switch, ())
                new_rules = [key for key in closure if key not in here]
                if len(new_rules) <= spare[switch]:
                    chosen = switch
                    break
            if chosen is None:
                return None
            spare[chosen] -= len(new_rules)
            at.setdefault(chosen, set()).update(closure)
            for key in closure:
                placed.setdefault(key, set()).add(chosen)
    return {key: frozenset(switches) for key, switches in placed.items()}


def certified_greedy(instance: PlacementInstance,
                     depgraphs: Dict[str, DependencyGraph]
                     ) -> Optional[Placement]:
    """The greedy over every policy of ``instance`` against its full
    capacities, returned only when it provably minimizes total rules.

    **The bound.**  Under path slicing (Section IV-C) every feasible
    placement installs each rule key that has a placement domain at
    least once: a path-relevant DROP must sit somewhere on its path
    (Eq. 2), and every PERMIT such a DROP depends on must sit beside it
    (Eq. 1).  So ``A = len(build_slices(...).domains)`` rules is a lower
    bound on the total-rules objective.

    **The greedy meets it.**  :func:`greedy_place` places only these
    keys: every relevant DROP's closure, and nothing else.  It puts
    each closure whole on one switch of a path the DROP is relevant to,
    which lies in the closure's domains, and it never exceeds a
    switch's capacity.  Its placement therefore satisfies Eq. 1-3.
    The keys it placed number exactly ``A``; when it installed each of
    them once, it installed ``A`` rules, which no feasible placement
    undercuts, so the placement is optimal.  Checking that takes a
    recount, not a solve.

    The argument needs every installed rule to cost one slot and one
    unit of objective, so it holds for the total-rules objective
    without merging (a merged group shares one entry) and nothing else.
    Returns an ``OPTIMAL`` placement whose ``solver_stats`` carry
    ``method="greedy"`` and ``certificate={"bound": A, "closes": True}``,
    or ``None`` when the greedy refuses or installs more than ``A``.
    """
    started = time.perf_counter()
    spare = dict(instance.capacities)
    placed: Dict[RuleKey, FrozenSet[str]] = {}
    for policy in instance.policies:
        answer = greedy_place(policy, instance.routing.paths(policy.ingress),
                              depgraphs[policy.ingress], spare)
        if answer is None:
            return None
        placed.update(answer)
    bound = len(placed)
    if sum(len(switches) for switches in placed.values()) != bound:
        return None
    return Placement(
        instance=instance, status=SolveStatus.OPTIMAL, placed=placed,
        objective_value=float(bound),
        solve_seconds=time.perf_counter() - started,
        solver_stats={"method": "greedy",
                      "certificate": {"bound": bound, "closes": True}},
    )


def _placement_parts(paths: Sequence[Path],
                     placed: Dict[RuleKey, FrozenSet[str]]):
    """One ingress's path and placed parts of the state digest stream."""
    for path in paths:
        flow = "-" if path.flow is None else path.flow.to_string()
        yield (f"path:{path.ingress}:{path.egress}:"
               f"{','.join(path.switches)}:{flow}")
    for key in sorted(placed):
        yield f"placed:{key[0]}:{key[1]}:{','.join(sorted(placed[key]))}"
