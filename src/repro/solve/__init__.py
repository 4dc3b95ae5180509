"""Solver orchestration: racing several exact engines on one instance.

The paper solves each placement with a single CPLEX run.  This package
generalizes that to a *portfolio*: every configured engine attacks the
same instance concurrently under a shared wall-clock deadline, the
first conclusive answer wins, and the losers are cancelled.  See
:mod:`repro.solve.portfolio`.

:mod:`repro.solve.components` adds the orthogonal axis: when the
instance decomposes into independent components (policies coupled only
through shared switches), each component is solved as its own model --
concurrently -- and the sub-solutions are stitched back together.
"""

from .components import (
    Component,
    objective_is_separable,
    place_components,
    split_components,
)
from .portfolio import (
    DEFAULT_ENGINES,
    EngineReport,
    EngineSpec,
    EngineTask,
    PortfolioOutcome,
    PortfolioSolver,
    resolve_backend,
)
from .session import SolverSession

__all__ = [
    "SolverSession",
    "Component",
    "objective_is_separable",
    "place_components",
    "split_components",
    "DEFAULT_ENGINES",
    "EngineReport",
    "EngineSpec",
    "EngineTask",
    "PortfolioOutcome",
    "PortfolioSolver",
    "resolve_backend",
]
