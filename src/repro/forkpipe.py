"""Forked children: one way to start, talk to and tear down a child.

Every process the package creates is a :class:`Child`: the serving
pool's fork per request, the session worker, the portfolio's engine
race and the component solver.  A child runs ``main(conn, *args)`` on a
copy-on-write snapshot of the parent and answers over one duplex pipe
with ``("done", payload)`` or ``("error", traceback)`` (:func:`reply`).
The parent classifies every ending the same way: the payload;
:class:`WorkerError` (the task raised); :class:`WorkerCrash` (the child
ended without answering); :class:`TimeoutError` (the deadline passed and
the child was killed).

Waits are bounded and poll the child's pid besides its pipe: a sibling
forked by another thread can hold a copy of the pipe's write end, so
end-of-file alone does not prove a death.  :meth:`Child.close` reaps a
child that owes no answer without a signal and gives a straggler
SIGKILL; both joins are bounded.  Children ignore SIGTERM and SIGINT --
the daemon's drain handler, which fork copies into them, must never run
there -- and are not daemonic, so they may fork children of their own.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence

# The first fork imports this; import it now instead, before callers
# start threads: a child forked while another thread is part-way
# through a module's first import waits forever on its import lock.
from multiprocessing import popen_fork  # noqa: F401

__all__ = ["CAN_FORK", "Child", "WorkerCrash", "WorkerError", "reply",
           "run_child", "wait_any"]

try:
    _CTX = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - platforms without fork
    _CTX = None

#: Whether children can be forked here; callers fall back to inline.
CAN_FORK = _CTX is not None

#: Signals a child ignores (the parent's handlers are not the child's).
_QUIET = {signal.SIGTERM, signal.SIGINT}
#: Longest single wait before the child's pid is polled again.
_POLL = 0.05
#: Bound on each join of the teardown.
_JOIN = 1.0


class WorkerError(RuntimeError):
    """The task raised: carries the worker-side traceback text."""


class WorkerCrash(RuntimeError):
    """The worker died without answering (hard crash or kill)."""


class Child:
    """One forked child running ``main(conn, *args)``.

    ``conn`` is the child's end of the pipe; ``main`` answers each
    message it is sent (or, for a one-shot child, the single implicit
    one) with :func:`reply`.  Always :meth:`close` a child.
    """

    def __init__(self, main: Callable[..., None], *args: Any) -> None:
        self.conn, child_end = _CTX.Pipe(duplex=True)
        self._proc = _CTX.Process(target=_child_main,
                                  args=(child_end, main, args), daemon=False)
        # Blocked from the fork until the child ignores them, so the
        # parent's handlers cannot run in the child even once.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _QUIET)
        try:
            self._proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            child_end.close()
        self.pid: int = self._proc.pid
        #: True while the child owes an answer (a straggler if closed).
        self._busy = True

    @property
    def alive(self) -> bool:
        return self._proc.is_alive()

    def send(self, message: Any) -> None:
        """Ask the child for one more answer."""
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            raise WorkerCrash("worker pipe is closed") from None
        self._busy = True

    def ready(self) -> bool:
        """An answer is waiting, or the child has ended."""
        return self.conn.poll(0) or not self._proc.is_alive()

    def receive(self, timeout: Optional[float] = None) -> Any:
        """The child's next answer; raises per the module taxonomy."""
        if not wait_any([self], timeout):
            self._proc.kill()
            raise TimeoutError(f"worker exceeded {timeout:.3f}s; killed")
        if self.conn.poll(0):
            try:
                kind, payload = self.conn.recv()
            except (EOFError, OSError):
                pass  # the child closed its end: a death, classified below
            else:
                self._busy = False
                if kind == "done":
                    return payload
                raise WorkerError(str(payload))
        self._busy = False
        self._reap()
        code = self._proc.exitcode
        if code is None:
            raise WorkerCrash("worker closed its pipe without answering")
        raise WorkerCrash(f"worker died with exit code {code}")

    def close(self) -> None:
        """Reap the child; a straggler is killed first.  Idempotent."""
        if self._busy:
            self._proc.kill()
        if not self._reap():
            self._proc.kill()
            self._reap()
        self._busy = False
        self.conn.close()

    def _reap(self) -> bool:
        """Bounded join; polls the pid, so a leaked sentinel can't stall it."""
        end = time.monotonic() + _JOIN
        while self._proc.exitcode is None:
            remaining = end - time.monotonic()
            if remaining <= 0:
                return False
            self._proc.join(min(_POLL, remaining))
        return True


def wait_any(children: Sequence[Child],
             timeout: Optional[float] = None) -> List[Child]:
    """The children with an answer waiting or that ended; ``[]`` once
    ``timeout`` seconds pass with neither (``None``: wait for one)."""
    end = None if timeout is None else time.monotonic() + timeout
    while True:
        ready = [child for child in children if child.ready()]
        if ready:
            return ready
        slice_ = _POLL
        if end is not None:
            remaining = end - time.monotonic()
            if remaining <= 0:
                return []
            slice_ = min(slice_, remaining)
        wait([child.conn for child in children]
             + [child._proc.sentinel for child in children], slice_)


def reply(conn, fn: Callable[..., Any], *args: Any) -> None:
    """Child side: answer with ``fn(*args)`` or the traceback it raised."""
    try:
        conn.send(("done", fn(*args)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc(limit=6)))
        except Exception:  # pragma: no cover - the parent is gone
            pass


def run_child(fn: Callable[..., Dict[str, Any]], *args: Any,
              timeout: Optional[float] = None) -> Dict[str, Any]:
    """``fn(*args)`` in a fresh child: its payload, or the taxonomy."""
    child = Child(reply, fn, *args)
    try:
        return child.receive(timeout)
    finally:
        child.close()


def _child_main(conn, main: Callable[..., None], args) -> None:
    for signum in _QUIET:
        signal.signal(signum, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _QUIET)
    try:
        main(conn, *args)
    finally:
        conn.close()
