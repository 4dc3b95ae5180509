"""REP-FORK: never fork while holding a lock (or after spawning threads).

``fork()`` clones exactly one thread.  If any *other* thread holds a
lock at that instant, the child inherits the locked mutex with no owner
to release it -- the first ``acquire`` in the child deadlocks forever.
The rule therefore bans starting a child process (``os.fork``,
``multiprocessing.Process(...).start()``, a process pool --
``multiprocessing.Pool(...)`` or ``ProcessPoolExecutor(...)``, whose
workers fork) in three situations:

1. directly inside a ``with <lock>`` block;
2. after the same function has created a ``threading.Thread`` (the
   fork can now race that thread's lock usage);
3. via a call chain: calling, under a lock, any function that
   transitively forks (resolved through the project index; chains are
   reported so the reader can follow the path).

Transitive resolution is unique-name-only: when several functions
share a bare name, the call is attributed only if exactly one of them
is fork-reaching.  Ambiguity never produces a finding.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..findings import Finding, RuleInfo
from ..index import ModuleInfo, ProjectIndex, dotted_name, terminal_name
from . import Checker

__all__ = ["ForkSafetyChecker", "RULE"]

RULE = RuleInfo(
    rule_id="REP-FORK",
    title="no fork under a held lock or after local thread creation",
    invariant=("Process creation (os.fork, multiprocessing Process, "
               "process pools) never happens inside a 'with "
               "<lock>' block or after the enclosing function has started "
               "a threading.Thread, directly or through any call chain "
               "the analyzer can resolve."),
    bad_example="""
with self._lock:
    worker = ctx.Process(target=main)   # child inherits _lock's state
    worker.start()
""",
    good_example="""
with self._lock:
    spec = self._next_spec()            # decide under the lock ...
worker = ctx.Process(target=main)       # ... fork outside it
worker.start()
""",
    incident=("The PR 5 worker-pool teardown leak: a fork taken while a "
              "broker thread held an internal lock left children wedged "
              "on an orphaned mutex, leaking a process per crash-restart "
              "cycle until the host ran out of PIDs."),
    notes=("Fork-reaching calls are resolved transitively but only "
           "through unambiguous names; a justified allow is appropriate "
           "when the forked child provably never touches the parent's "
           "locks (e.g. it execs or only reads a pipe)."),
)

#: Call targets that directly create a child process (a process pool
#: forks its workers).
_FORK_DOTTED = {"os.fork", "os.forkpty"}
_FORK_TERMINAL = {"fork", "forkpty", "Process", "Pool", "ProcessPoolExecutor"}
_MAX_CHAIN = 4


def _is_lockish(node: ast.AST, index: ProjectIndex) -> Optional[str]:
    """A human-readable lock label when ``node`` looks like a lock."""
    name = dotted_name(node) or terminal_name(node)
    if not name:
        return None
    last = name.rsplit(".", 1)[-1]
    lowered = last.lower()
    if any(tok in lowered for tok in ("lock", "cond", "mutex")):
        return name
    if last in index.lock_attrs:
        return name
    return None


class _FunctionScan(ast.NodeVisitor):
    """Walks one function body tracking held locks and created threads."""

    def __init__(self, checker: "ForkSafetyChecker", module: ModuleInfo,
                 index: ProjectIndex, symbol: str) -> None:
        self.checker = checker
        self.module = module
        self.index = index
        self.symbol = symbol
        self.lock_stack: List[Tuple[str, int]] = []   # (label, with-line)
        self.thread_line: Optional[int] = None
        self.findings: List[Finding] = []
        self.forks_directly = False

    # Nested defs get their own scan from the checker; don't descend.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            expr = item.context_expr
            target = expr.func if isinstance(expr, ast.Call) else expr
            label = _is_lockish(target, self.index)
            if label:
                self.lock_stack.append((label, node.lineno))
                pushed += 1
        self.generic_visit(node)
        for _ in range(pushed):
            self.lock_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        terminal = terminal_name(node.func)
        if terminal == "Thread":
            self.thread_line = node.lineno
        if dotted in _FORK_DOTTED or terminal in _FORK_TERMINAL:
            self.forks_directly = True
            self._flag_direct(node, dotted or terminal or "?")
        elif terminal:
            self._record_call(node, terminal)
        self.generic_visit(node)

    def _flag_direct(self, node: ast.Call, target: str) -> None:
        if self.lock_stack:
            label, with_line = self.lock_stack[-1]
            self.findings.append(Finding(
                rule_id=RULE.rule_id, path=self.module.rel,
                line=node.lineno, symbol=self.symbol,
                message=(f"{target}(...) forks while holding {label} "
                         f"(with-block at line {with_line}); a child "
                         f"forked under a held lock can deadlock on the "
                         f"orphaned mutex"),
            ))
        elif self.thread_line is not None and node.lineno > self.thread_line:
            self.findings.append(Finding(
                rule_id=RULE.rule_id, path=self.module.rel,
                line=node.lineno, symbol=self.symbol,
                message=(f"{target}(...) forks after this function "
                         f"created a threading.Thread (line "
                         f"{self.thread_line}); the fork races that "
                         f"thread's lock usage"),
            ))

    def _record_call(self, node: ast.Call, callee: str) -> None:
        if self.lock_stack:
            label, _ = self.lock_stack[-1]
            scratch = self.index.scratch(RULE.rule_id)
            scratch.setdefault("calls_under_lock", []).append(
                (self.module.rel, node.lineno, self.symbol, callee, label))
        # Every call edge, for transitive fork propagation.
        scratch = self.index.scratch(RULE.rule_id)
        scratch.setdefault("call_edges", []).append((self.symbol_key(),
                                                     callee))

    def symbol_key(self) -> str:
        return f"{self.module.rel}:{self.symbol}"


class ForkSafetyChecker(Checker):
    rule = RULE

    def check_module(self, module: ModuleInfo,
                     index: ProjectIndex) -> List[Finding]:
        findings: List[Finding] = []
        scratch = index.scratch(RULE.rule_id)
        fork_roots: Dict[str, str] = scratch.setdefault("fork_roots", {})
        for records in index.functions.values():
            for record in records:
                if record.module != module.rel:
                    continue
                scan = _FunctionScan(self, module, index,
                                     record.qualname)
                for stmt in record.node.body:
                    scan.visit(stmt)
                findings.extend(scan.findings)
                if scan.forks_directly:
                    key = scan.symbol_key()
                    fork_roots[key] = "forks directly"
                    # A class whose __init__ forks makes the *class
                    # name* a forking callable.
                    if record.name == "__init__" and record.owner_class:
                        cls_key = f"{module.rel}:{record.owner_class}"
                        fork_roots[cls_key] = "constructor forks"
                        scratch.setdefault("fork_classes", set()).add(
                            record.owner_class)
        return findings

    def check_project(self, index: ProjectIndex) -> List[Finding]:
        scratch = index.scratch(RULE.rule_id)
        fork_roots: Dict[str, str] = scratch.get("fork_roots", {})
        edges: List[Tuple[str, str]] = scratch.get("call_edges", [])
        fork_classes: Set[str] = scratch.get("fork_classes", set())

        def reaches_fork(name: str) -> bool:
            if name in fork_classes:
                return True
            record = index.resolve_call(
                name, lambda r: f"{r.module}:{r.qualname}" in fork_roots)
            return record is not None

        # Propagate: a function calling a unique fork-reaching callee
        # becomes fork-reaching itself, chain recorded.
        for _ in range(_MAX_CHAIN):
            grew = False
            for caller_key, callee in edges:
                if caller_key in fork_roots or not reaches_fork(callee):
                    continue
                fork_roots[caller_key] = f"calls {callee}(), which forks"
                symbol = caller_key.split(":", 1)[1]
                if symbol.endswith(".__init__"):
                    # A constructor forking through a call still makes
                    # its class name a forking callable.
                    fork_classes.add(symbol.rsplit(".", 2)[-2])
                grew = True
            if not grew:
                break

        findings: List[Finding] = []
        for rel, lineno, symbol, callee, label in scratch.get(
                "calls_under_lock", ()):
            chain: Optional[str] = None
            if callee in fork_classes:
                chain = f"{callee}.__init__ forks"
            else:
                record = index.resolve_call(
                    callee,
                    lambda r: f"{r.module}:{r.qualname}" in fork_roots)
                if record is not None:
                    chain = fork_roots[f"{record.module}:{record.qualname}"]
            if chain is None:
                continue
            findings.append(Finding(
                rule_id=RULE.rule_id, path=rel, line=lineno, symbol=symbol,
                message=(f"{callee}(...) is called while holding {label} "
                         f"and transitively forks ({chain}); fork under "
                         f"a held lock can deadlock the child"),
            ))
        return findings
