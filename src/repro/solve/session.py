"""Solver sessions: one deployment's pinned dependency-graph memo.

Every delta against a live deployment runs the paper's Section IV-E
ladder: greedy placement first, then the restricted sub-ILP over one
policy's variables against the spare capacity the rest of the network
leaves.  Both steps need the policy's dependency graph, and across a
deployment's lifetime the policies barely change.

A :class:`SolverSession` attached to an
:class:`~repro.core.incremental.IncrementalDeployer` keeps those graphs
in a :class:`~repro.core.depgraph.PinnedDepgraphs` memo keyed by policy
content, so a delta on an unchanged policy gets its graph back without
recomputing it.  The session changes where the graph comes from and
nothing else: a deployer with a session takes the same greedy ->
sub-ILP ladder as one without, which
``tests/solve/test_session_differential.py`` holds step by step over
seeded delta streams.
"""

from __future__ import annotations

from typing import Dict

from ..core.depgraph import PinnedDepgraphs

__all__ = ["SolverSession"]


class SolverSession:
    """Per-deployment solver state: the pinned depgraph memo.

    Attach with
    :meth:`~repro.core.incremental.IncrementalDeployer.attach_session`;
    the deployer then resolves every preview's dependency graph through
    :attr:`depgraphs`.
    """

    def __init__(self) -> None:
        self.depgraphs = PinnedDepgraphs()

    def telemetry(self) -> Dict[str, object]:
        return {"depgraph": self.depgraphs.stats()}
