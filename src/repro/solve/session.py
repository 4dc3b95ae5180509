"""Warm-start solver sessions: persistent per-deployment models.

Every delta against a live deployment re-solves the paper's restricted
sub-problem (Section IV-E): one policy's variables against the spare
capacity the rest of the network leaves.  Before this module, each
re-solve re-derived everything from scratch -- dependency graph, slices,
model encode -- even though across a deployment's lifetime the policies
barely change and the sub-model differs only in right-hand sides and
path rows.  SOL's reusable solver-side representation and
Lukovszki/Rost/Schmid's incremental placement maintenance (PAPERS.md)
both argue the artifacts should live as long as the deployment does.

:class:`SolverSession` keeps, per ingress policy:

* the **pinned dependency graph** (:class:`~repro.core.depgraph.PinnedDepgraphs`)
  -- content-addressed, recomputed only when the policy's rules change;
* the **live model**: the COO-block encoding built once, then
  *patched* across deltas -- capacity right-hand sides track spare
  capacity (:meth:`~repro.milp.model.Model.set_block_rhs`), path rows
  are swapped wholesale on a reroute
  (:meth:`~repro.milp.model.Model.replace_block`), variables for
  switches that leave the routing are retired to the free list and
  resurrected when a template brings them back
  (:meth:`~repro.milp.model.Model.retire_variable` /
  :meth:`~repro.milp.model.Model.restore_variable`), and new
  (rule, switch) columns are appended fresh with their capacity and
  dependency entries (:meth:`~repro.milp.model.Model.patch_linear_block`
  / :meth:`~repro.milp.model.Model.append_block_rows`);
* **route templates**: per paths-digest snapshots of the path block and
  active variable set, so a flapping route alternates between two
  cached templates with zero re-encoding;
* the **previous placement as incumbent**, seeded into branch-and-bound
  (and as a MIP start for HiGHS where the installed SciPy supports
  ``x0``) so the solver starts with a feasible bound.

Invalidation is epoch- and digest-based: an entry is only trusted when
its ``repro.digest`` fingerprints still match -- the policy's
``content_digest()`` for the model structure, the canonical routing
digest for the path template, and the session-wide ``epoch`` counter
that brokers bump to force cold rebuilds (e.g. after a worker crash).
Any mismatch, and any unexpected exception on the warm path, falls back
to a cold rebuild -- the warm path is an optimization, never a
correctness dependency.  ``tests/solve/test_session_differential.py``
replays seeded delta streams through a warm session and a cold oracle
side by side and holds every step to objective and feasibility
equivalence.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.depgraph import DependencyGraph, PinnedDepgraphs
from ..core.ilp import build_encoding
from ..core.instance import PlacementInstance, RuleKey
from ..core.objectives import TotalRules, apply_objective
from ..core.slicing import build_slices
from ..digest import canonical_digest, routing_parts
from ..milp.model import Model, Sense, Variable
from ..net.routing import Path, Routing
from ..policy.policy import Policy, PolicySet

__all__ = ["SolverSession", "SessionStats"]

Pair = Tuple[RuleKey, str]


def paths_digest(paths: Sequence[Path]) -> str:
    """Canonical fingerprint of a path set (order-insensitive)."""
    return canonical_digest(routing_parts(Routing(paths)))


@dataclass
class _PathTemplate:
    """One routing's view of an entry: which (rule, switch) pairs are
    live and the concrete path-block rows for them."""

    pairs: FrozenSet[Pair]
    #: Column indices of ``pairs`` -- the retarget hot path works on
    #: these directly instead of per-pair ``var_of`` lookups.
    indices: FrozenSet[int]
    #: Path block contents (block-local COO + rhs), with resolved
    #: column indices into the entry's model.
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    rhs: np.ndarray


@dataclass
class _WarmEntry:
    """The persistent solver-side state of one deployed policy."""

    policy_digest: str
    epoch: int
    graph: DependencyGraph
    model: Model
    var_of: Dict[Pair, Variable]
    family_blocks: Dict[str, int]
    cap_row_of: Dict[str, int]
    active: Set[Pair]
    #: Column indices of ``active`` (kept in lockstep).
    active_indices: Set[int]
    path_key: str
    templates: "OrderedDict[str, _PathTemplate]" = field(
        default_factory=OrderedDict
    )
    incumbents: Dict[str, Dict[int, float]] = field(default_factory=dict)
    tightened: Set[int] = field(default_factory=set)


@dataclass
class SessionStats:
    """Session-lifetime counters (exported into ``solver_stats``)."""

    warm_hits: int = 0
    cold_builds: int = 0
    template_hits: int = 0
    template_builds: int = 0
    digest_mismatches: int = 0
    epoch_invalidations: int = 0
    fallbacks: int = 0
    incumbent_seeds: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "warm_hits": self.warm_hits,
            "cold_builds": self.cold_builds,
            "template_hits": self.template_hits,
            "template_builds": self.template_builds,
            "digest_mismatches": self.digest_mismatches,
            "epoch_invalidations": self.epoch_invalidations,
            "fallbacks": self.fallbacks,
            "incumbent_seeds": self.incumbent_seeds,
        }


class SolverSession:
    """Per-deployment warm solver state; see the module docstring.

    A session is attached to one
    :class:`~repro.core.incremental.IncrementalDeployer`
    (:meth:`~repro.core.incremental.IncrementalDeployer.attach_session`);
    the deployer routes every ILP-bound delta preview through
    :meth:`sub_solve`.  ``backend`` selects the MILP engine (``"highs"``
    or ``"bnb"``); both receive the previous placement as a warm start.
    """

    def __init__(self, backend: str = "highs", max_entries: int = 8,
                 max_templates: int = 8) -> None:
        if backend not in ("highs", "bnb"):
            raise ValueError(f"unknown session backend {backend!r}")
        self.backend = backend
        self.max_entries = max_entries
        self.max_templates = max_templates
        self.depgraphs = PinnedDepgraphs()
        self.epoch = 0
        self.stats = SessionStats()
        self._entries: "OrderedDict[str, _WarmEntry]" = OrderedDict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bump_epoch(self) -> int:
        """Invalidate every entry (cold rebuild on next touch)."""
        self.epoch += 1
        return self.epoch

    def invalidate(self, ingress: str) -> bool:
        """Drop one entry; True if it existed."""
        return self._entries.pop(ingress, None) is not None

    def clear(self) -> None:
        self._entries.clear()

    def num_entries(self) -> int:
        return len(self._entries)

    def telemetry(self) -> Dict[str, object]:
        record: Dict[str, object] = self.stats.to_dict()
        record["entries"] = len(self._entries)
        record["epoch"] = self.epoch
        record["depgraph"] = self.depgraphs.stats()
        return record

    # ------------------------------------------------------------------
    # The warm solve
    # ------------------------------------------------------------------

    def sub_solve(self, deployer, policy: Policy, paths: Sequence[Path],
                  time_limit: Optional[float] = None,
                  graph: Optional[DependencyGraph] = None):
        """Solve the restricted sub-problem for one policy, warm.

        Drop-in equivalent of the deployer's cold ``_sub_ilp``: same
        feasible set, same objective (total new rules), statuses from
        the same backend family.  Returns an
        :class:`~repro.core.incremental.IncrementalResult`.
        """
        from ..core.incremental import IncrementalResult

        started = time.perf_counter()
        compile_stats: Dict[str, object] = {"warm": True}

        t0 = time.perf_counter()
        if graph is None:
            graph = self.depgraphs.get(policy)
        compile_stats["depgraph_ms"] = (time.perf_counter() - t0) * 1000.0

        ingress = policy.ingress
        digest = policy.content_digest()
        entry = self._entries.get(ingress)
        if entry is not None:
            if entry.epoch != self.epoch:
                self.stats.epoch_invalidations += 1
                entry = None
            elif entry.policy_digest != digest:
                self.stats.digest_mismatches += 1
                entry = None
        try:
            if entry is None:
                t0 = time.perf_counter()
                entry = self._build_entry(deployer, policy, paths, graph,
                                          digest)
                self._entries.pop(ingress, None)
                self._entries[ingress] = entry
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                self.stats.cold_builds += 1
                compile_stats["encode_ms"] = (
                    (time.perf_counter() - t0) * 1000.0
                )
                compile_stats["warm"] = False
            else:
                self._entries.move_to_end(ingress)
                t0 = time.perf_counter()
                self._retarget(entry, deployer, policy, paths)
                self.stats.warm_hits += 1
                compile_stats["patch_ms"] = (
                    (time.perf_counter() - t0) * 1000.0
                )
            result = self._solve_entry(entry, deployer, time_limit,
                                       compile_stats)
        except Exception as exc:
            # Defensive cold retry: whatever went wrong on the warm
            # path, a from-scratch entry answers the request.
            self.stats.fallbacks += 1
            self._entries.pop(ingress, None)
            t0 = time.perf_counter()
            entry = self._build_entry(deployer, policy, paths, graph, digest)
            self._entries[ingress] = entry
            self.stats.cold_builds += 1
            compile_stats["encode_ms"] = (time.perf_counter() - t0) * 1000.0
            compile_stats["warm"] = False
            compile_stats["fallback"] = repr(exc)
            result = self._solve_entry(entry, deployer, time_limit,
                                       compile_stats)
        result.seconds = time.perf_counter() - started
        result.solver_stats["compile"] = compile_stats
        result.solver_stats["session"] = self.telemetry()
        return result

    # ------------------------------------------------------------------
    # Entry construction / patching
    # ------------------------------------------------------------------

    def _sub_instance(self, deployer, policy: Policy,
                      paths: Sequence[Path]) -> PlacementInstance:
        return PlacementInstance(
            deployer.topology, Routing(paths), PolicySet([policy]),
            deployer.spare_capacities(),
        )

    def _build_entry(self, deployer, policy: Policy, paths: Sequence[Path],
                     graph: DependencyGraph, digest: str) -> _WarmEntry:
        """Cold build: full encoding, recorded as patchable state."""
        instance = self._sub_instance(deployer, policy, paths)
        depgraphs = {policy.ingress: graph}
        slices = build_slices(instance, depgraphs)
        encoding = build_encoding(
            instance, enable_merging=False, depgraphs=depgraphs,
            slices=slices,
        )
        apply_objective(encoding, TotalRules())
        key = paths_digest(paths)
        pairs = frozenset(encoding.var_of)
        indices = frozenset(v.index for v in encoding.var_of.values())
        path_block = encoding.model.blocks[encoding.family_blocks["path"]]
        entry = _WarmEntry(
            policy_digest=digest,
            epoch=self.epoch,
            graph=graph,
            model=encoding.model,
            var_of=dict(encoding.var_of),
            family_blocks=dict(encoding.family_blocks),
            cap_row_of=dict(encoding.cap_row_of),
            active=set(pairs),
            active_indices=set(indices),
            path_key=key,
        )
        entry.templates[key] = _PathTemplate(
            pairs=pairs,
            indices=indices,
            rows=path_block.rows.copy(),
            cols=path_block.cols.copy(),
            data=path_block.data.copy(),
            rhs=path_block.rhs.copy(),
        )
        return entry

    def _retarget(self, entry: _WarmEntry, deployer, policy: Policy,
                  paths: Sequence[Path]) -> None:
        """Point a warm entry at (possibly) new routing via templates."""
        key = paths_digest(paths)
        if key == entry.path_key:
            return
        template = entry.templates.get(key)
        if template is None:
            template = self._build_template(entry, deployer, policy, paths,
                                            key)
            self.stats.template_builds += 1
        else:
            entry.templates.move_to_end(key)
            self.stats.template_hits += 1
        self._apply_template(entry, template)
        entry.path_key = key

    def _build_template(self, entry: _WarmEntry, deployer, policy: Policy,
                        paths: Sequence[Path], key: str) -> _PathTemplate:
        """Extend the live model to cover a routing it has never seen.

        New (rule, switch) pairs get fresh columns with objective,
        capacity, and dependency entries appended in place; the path
        rows for the routing are captured as a reusable template.
        """
        model = entry.model
        instance = self._sub_instance(deployer, policy, paths)
        slices = build_slices(instance, {policy.ingress: entry.graph})
        pairs: List[Pair] = [
            (rule_key, switch)
            for rule_key, switches in slices.domains.items()
            for switch in switches
        ]
        new_pairs = [p for p in pairs if p not in entry.var_of]

        if new_pairs:
            # Fresh columns: templates hold retired columns by index, so
            # the free list must not recycle them underneath us.
            created = model.add_binaries(
                (f"w{model.num_variables()}_{i}"
                 for i in range(len(new_pairs))),
                fresh=True,
            )
            cap_idx = entry.family_blocks["cap"]
            patch_rows: List[int] = []
            patch_cols: List[int] = []
            new_cap: Dict[str, List[int]] = {}
            for pair, var in zip(new_pairs, created):
                entry.var_of[pair] = var
                model.objective.add_term(var, 1.0)
                switch = pair[1]
                row = entry.cap_row_of.get(switch)
                if row is None:
                    new_cap.setdefault(switch, []).append(var.index)
                else:
                    patch_rows.append(row)
                    patch_cols.append(var.index)
            if patch_rows:
                model.patch_linear_block(
                    cap_idx, patch_rows, patch_cols,
                    np.ones(len(patch_rows)),
                )
            if new_cap:
                base = model.blocks[cap_idx].num_rows
                rows: List[int] = []
                cols: List[int] = []
                for offset, (switch, indices) in enumerate(new_cap.items()):
                    entry.cap_row_of[switch] = base + offset
                    rows.extend([offset] * len(indices))
                    cols.extend(indices)
                model.append_block_rows(
                    cap_idx, rows, cols, np.ones(len(cols)), Sense.LE,
                    np.zeros(len(new_cap)),  # rhs patched every solve
                )
            # Dependency rows exist for every pair ever created; only
            # the new pairs need theirs appended.  Slicing guarantees a
            # drop's permits share its domain, so the permit columns
            # exist by the time we reference them.
            ingress = policy.ingress
            dep_cols: List[int] = []
            for (rule_key, switch) in new_pairs:
                for permit in entry.graph.dependencies_of(rule_key[1]):
                    dep_cols.append(
                        entry.var_of[((ingress, permit), switch)].index
                    )
                    dep_cols.append(entry.var_of[(rule_key, switch)].index)
            r = len(dep_cols) // 2
            if r:
                model.append_block_rows(
                    entry.family_blocks["dep"],
                    np.repeat(np.arange(r, dtype=np.int64), 2), dep_cols,
                    np.tile(np.array([1.0, -1.0]), r), Sense.GE,
                    np.zeros(r),
                )

        # Path rows for this routing, in the encoder's order.
        pair_set = frozenset(pairs)
        cols: List[int] = []
        counts: List[int] = []
        for path_index, path in enumerate(instance.routing.paths(
                policy.ingress)):
            for drop_priority in slices.drops_for_path(policy.ingress,
                                                       path_index):
                rule_key = (policy.ingress, drop_priority)
                before = len(cols)
                for switch in path.switches:
                    if (rule_key, switch) in pair_set:
                        cols.append(entry.var_of[(rule_key, switch)].index)
                counts.append(len(cols) - before)
        r = len(counts)
        template = _PathTemplate(
            pairs=pair_set,
            indices=frozenset(entry.var_of[p].index for p in pair_set),
            rows=np.repeat(np.arange(r, dtype=np.int64),
                           counts) if r else np.zeros(0, dtype=np.int64),
            cols=np.asarray(cols, dtype=np.int64),
            data=np.ones(len(cols)),
            rhs=np.ones(r),
        )
        entry.templates[key] = template
        while len(entry.templates) > self.max_templates:
            evicted_key, _t = entry.templates.popitem(last=False)
            entry.incumbents.pop(evicted_key, None)
        return template

    def _apply_template(self, entry: _WarmEntry,
                        template: _PathTemplate) -> None:
        model = entry.model
        model.retire_variables(entry.active_indices - template.indices)
        model.restore_variables(template.indices - entry.active_indices,
                                0.0, 1.0)
        entry.active = set(template.pairs)
        entry.active_indices = set(template.indices)
        model.replace_block(
            entry.family_blocks["path"], template.rows, template.cols,
            template.data, Sense.GE, template.rhs,
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def _solve_entry(self, entry: _WarmEntry, deployer,
                     time_limit: Optional[float],
                     compile_stats: Dict[str, object]):
        from ..core.incremental import IncrementalResult
        from .portfolio import resolve_backend

        model = entry.model
        spare = deployer.spare_capacities()

        # Capacity right-hand sides track the deployment's spare slots.
        model.set_block_rhs(
            entry.family_blocks["cap"],
            {row: float(spare.get(switch, 0))
             for switch, row in entry.cap_row_of.items()},
        )

        # Implied bound tightening: on a zero-spare switch the capacity
        # row already forces every variable to 0; making it a bound
        # shrinks the search without changing the feasible set.  Only
        # active columns are un-tightened -- a previously tightened
        # column that was since retired must stay fixed at 0.
        active_indices = {entry.var_of[p].index for p in entry.active}
        for index in entry.tightened:
            if index in active_indices:
                model.set_var_bounds(index, 0.0, 1.0)
        entry.tightened.clear()
        for (rule_key, switch) in entry.active:
            if spare.get(switch, 0) <= 0:
                index = entry.var_of[(rule_key, switch)].index
                model.set_var_bounds(index, 0.0, 0.0)
                entry.tightened.add(index)

        warm_start = None
        stored = entry.incumbents.get(entry.path_key)
        if stored is not None:
            warm_start = {i: stored.get(i, 0.0)
                          for i in range(model.num_variables())}
            self.stats.incumbent_seeds += 1

        backend = resolve_backend(self.backend)
        result = model.solve(backend, time_limit=time_limit,
                             warm_start=warm_start)
        compile_stats["warm_start"] = bool(
            result.stats.get("warm_start")
            or result.stats.get("warm_start_incumbent")
        )

        placed: Dict[RuleKey, FrozenSet[str]] = {}
        installed = 0
        if result.has_solution:
            by_rule: Dict[RuleKey, Set[str]] = {}
            for (rule_key, switch) in entry.active:
                if result.is_one(entry.var_of[(rule_key, switch)]):
                    by_rule.setdefault(rule_key, set()).add(switch)
            placed = {k: frozenset(v) for k, v in by_rule.items()}
            installed = sum(len(v) for v in placed.values())
            entry.incumbents[entry.path_key] = {
                var.index: (1.0 if result.is_one(var) else 0.0)
                for var in entry.var_of.values()
            }
        return IncrementalResult(
            status=result.status,
            method="ilp",
            seconds=result.solve_seconds,
            placed=placed,
            installed_rules=installed,
        )
