"""Supervision of the daemon's persistent workers.

Every deployment has its own session worker, and the broker already
handles *reactive* recovery: a delta that finds its worker dead forks
a fresh one before previewing.  That leaves two gaps a long-lived
daemon cannot ignore:

* a worker that dies while its deployment is idle stays dead until the
  next delta pays the fork latency (and a latency-critical delta is
  exactly the wrong place to pay it);
* a deployment whose workload *keeps* crashing workers would have the
  supervisor refork in a loop -- fork, crash, fork, crash -- burning
  CPU and log space forever.

:class:`Supervisor` closes both, with the classic supervision ladder
(think erlang/systemd, scaled down):

* **health sweep** -- a background thread polls
  :meth:`Broker.session_health` and schedules a restart for every
  deployment whose worker is not alive and that is not quarantined;
* **jittered exponential backoff** -- the Nth consecutive restart of
  the same deployment waits ``base * 2^(N-1)`` seconds (capped), with
  deterministic per-deployment jitter so a mass-crash (e.g. after a
  daemon restart) does not refork everything in one stampede;
* **quarantine** -- more than ``crash_threshold`` restarts inside
  ``crash_window`` seconds flips the deployment to quarantined: the
  supervisor stops restarting its worker in the background.  Its deltas
  still serve -- each forks a worker on demand, at most one per delta
  -- and only an explicit session ``attach`` clears the flag.  A clean
  health report for ``crash_window`` seconds resets the counter.

The supervisor holds no placement state of its own; everything it
decides is expressed through broker primitives (``ensure_worker``,
``quarantine``), so it can be stopped, restarted, or absent without
affecting correctness -- only recovery latency.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

from ..digest import canonical_digest

__all__ = ["Supervisor", "SupervisorConfig"]


class SupervisorConfig:
    """Supervision knobs (defaults sized for sub-second sessions)."""

    def __init__(
        self,
        poll_interval: float = 0.5,
        backoff_base: float = 0.2,
        backoff_cap: float = 10.0,
        jitter: float = 0.25,
        crash_threshold: int = 3,
        crash_window: float = 30.0,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise ValueError("need 0 < backoff_base <= backoff_cap")
        if not 0 <= jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")
        if crash_threshold < 1:
            raise ValueError("crash_threshold must be >= 1")
        if crash_window <= 0:
            raise ValueError("crash_window must be positive")
        self.poll_interval = poll_interval
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.crash_threshold = crash_threshold
        self.crash_window = crash_window


class _History:
    """Restart bookkeeping for one deployment."""

    __slots__ = ("restarts", "consecutive", "next_attempt")

    def __init__(self) -> None:
        #: Monotonic timestamps of recent restarts (crash-rate window).
        self.restarts: List[float] = []
        #: Restarts since the last healthy observation (backoff input).
        self.consecutive: int = 0
        #: Earliest time the next restart may run.
        self.next_attempt: float = 0.0


class Supervisor:
    """Health-checks session workers and restarts them with backoff.

    Drives everything through the broker's supervision API; see the
    module docstring for the policy.  ``clock`` is injectable so the
    backoff/quarantine ladder is unit-testable without sleeping.
    """

    def __init__(self, broker, config: Optional[SupervisorConfig] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.broker = broker
        self.config = config or SupervisorConfig()
        self.clock = clock
        self._history: Dict[str, _History] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        metrics = broker.metrics
        self._c_revivals = metrics.counter(
            "supervisor_revivals_total",
            "dead sessions restarted by the supervisor")
        self._c_quarantines = metrics.counter(
            "supervisor_quarantines_total",
            "deployments quarantined for crash-looping")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-supervisor", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.config.poll_interval):
            try:
                self.tick()
            except Exception:  # pragma: no cover - supervisor must live
                pass

    # ------------------------------------------------------------------
    # One supervision pass (directly callable from tests)
    # ------------------------------------------------------------------

    def tick(self) -> Dict[str, str]:
        """Inspect every session once; returns {deployment: action}.

        Actions: ``healthy``, ``revived``, ``backoff`` (dead, waiting
        out the delay), ``quarantined`` (this tick tripped the
        threshold), ``skipped`` (already quarantined).
        """
        now = self.clock()
        actions: Dict[str, str] = {}
        for name, health in sorted(self.broker.session_health().items()):
            actions[name] = self._supervise(name, health, now)
        # Forget deployments that disappeared (replaced/renamed).
        with self._lock:
            for name in list(self._history):
                if name not in actions:
                    del self._history[name]
        return actions

    def _supervise(self, name: str, health: Dict, now: float) -> str:
        if health["quarantined"]:
            return "skipped"
        with self._lock:
            history = self._history.setdefault(name, _History())
            if health["alive"]:
                # Healthy long enough -> forgive the history entirely.
                cutoff = now - self.config.crash_window
                history.restarts = [t for t in history.restarts
                                    if t > cutoff]
                if not history.restarts:
                    history.consecutive = 0
                return "healthy"
            # Dead.  Crash-looping?
            cutoff = now - self.config.crash_window
            history.restarts = [t for t in history.restarts if t > cutoff]
            if len(history.restarts) >= self.config.crash_threshold:
                quarantined = True
            else:
                quarantined = False
                if now < history.next_attempt:
                    return "backoff"
        if quarantined:
            self.broker.quarantine(name)
            self._c_quarantines.inc()
            return "quarantined"
        revived = self.broker.ensure_worker(name)
        with self._lock:
            history = self._history.setdefault(name, _History())
            history.restarts.append(now)
            history.consecutive += 1
            delay = min(
                self.config.backoff_base * (2 ** (history.consecutive - 1)),
                self.config.backoff_cap,
            )
            history.next_attempt = now + delay * self._jitter_factor(
                name, history.consecutive)
        if revived:
            self._c_revivals.inc()
            return "revived"
        return "backoff"

    def _jitter_factor(self, name: str, attempt: int) -> float:
        """Deterministic per-(deployment, attempt) jitter in
        ``[1-j, 1+j]`` -- reproducible under test, decorrelated in a
        fleet."""
        if self.config.jitter == 0:
            return 1.0
        digest = canonical_digest(("supervisor-jitter", name, str(attempt)))
        unit = int(digest[:8], 16) / 0xFFFFFFFF
        return 1.0 + self.config.jitter * (2.0 * unit - 1.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def history(self, name: str) -> Dict[str, float]:
        with self._lock:
            entry = self._history.get(name)
            if entry is None:
                return {"restarts": 0, "consecutive": 0,
                        "next_attempt": 0.0}
            return {"restarts": len(entry.restarts),
                    "consecutive": entry.consecutive,
                    "next_attempt": entry.next_attempt}
