"""One ``repro serve`` daemon per set-up, and what /proc says about it.

The daemon runs with the shipped defaults -- async front-end, process
executor, write-ahead journal with ``--durability fsync`` -- in a fresh
journal directory, in its own process group so that teardown reaches
every worker it forked.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

from repro.service.client import ServiceClient, ServiceUnavailable

_TICK = os.sysconf("SC_CLK_TCK")


class DaemonError(RuntimeError):
    """The daemon could not be started or did not come up."""


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def port_in_use(port: int) -> bool:
    """Is ``port`` taken?  Binds without ``SO_REUSEADDR``, so a port
    another daemon listens on reads as taken."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.bind(("127.0.0.1", port))
    except OSError:
        return True
    finally:
        probe.close()
    return False


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields 3.. of ``/proc/<pid>/stat`` (after the command name)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            data = handle.read()
    except OSError:
        return None
    return data[data.rfind(")") + 2:].split()


def _group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of one process group."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        fields = _stat_fields(int(name))
        if fields and int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(name))
    return members


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


class Daemon:
    """Spawn, probe and stop one daemon on a free loopback port."""

    def __init__(self, root: str, workdir: str) -> None:
        self.root = root
        self.port = free_port()
        # The port was free a moment ago; refuse rather than race
        # whatever took it since.
        if port_in_use(self.port):
            raise DaemonError(
                f"port {self.port} is already taken; refusing to start")
        self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=workdir)
        self.log_path = self.journal_dir + ".log"
        self.proc: Optional[subprocess.Popen] = None
        self._log = None

    def start(self) -> None:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        env["TMPDIR"] = os.path.dirname(self.journal_dir)
        # Set and dict iteration order follows the string hash seed, and
        # with it the order the daemon builds models in; fixing it keeps
        # one seed's runs doing the same work.
        env["PYTHONHASHSEED"] = "0"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", "127.0.0.1", "--port", str(self.port),
             "--journal-dir", self.journal_dir, "--durability", "fsync"],
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Poll the readiness verb every 10 ms until the daemon says so."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise DaemonError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"ready: {self.log_tail()}")
            try:
                with ServiceClient(port=self.port, timeout=2.0,
                                   connect_timeout=0.5, retries=0) as probe:
                    response = probe.ready()
                if response.result and response.result.get("ready"):
                    return
            except (ServiceUnavailable, OSError):
                pass
            time.sleep(0.01)
        raise DaemonError(f"daemon not ready within {timeout:.0f}s: "
                          f"{self.log_tail()}")

    def log_tail(self, limit: int = 400) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-limit:].decode("utf-8", "replace")
        except OSError:
            return ""

    # ------------------------------------------------------------------
    # /proc
    # ------------------------------------------------------------------

    def cpu_seconds(self) -> float:
        """User+system CPU of every live process in the daemon's group,
        plus what the daemon's already-reaped children used."""
        pgid = self.proc.pid
        total = 0
        for pid in _group_members(pgid):
            fields = _stat_fields(pid)
            if fields is None:
                continue
            total += int(fields[11]) + int(fields[12])
            if pid == pgid:
                total += int(fields[13]) + int(fields[14])
        return total / _TICK

    def peak_rss_mb(self) -> float:
        """The daemon process's ``VmHWM`` (peak resident set)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("no VmHWM in /proc status")

    # ------------------------------------------------------------------

    def stop(self, timeout: float = 30.0) -> List[str]:
        """SIGTERM the group, then SIGKILL whatever is left.

        Returns the hygiene failures: a daemon that ignored SIGTERM,
        exited non-zero, or left processes behind in its group.
        """
        problems: List[str] = []
        if self.proc is None:
            return problems
        pgid = self.proc.pid
        try:
            _signal_group(pgid, signal.SIGTERM)
            try:
                code = self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                problems.append(f"daemon ignored SIGTERM for {timeout:.0f}s")
            else:
                if code != 0:
                    problems.append(f"daemon exited with code {code}: "
                                    f"{self.log_tail()}")
            deadline = time.monotonic() + 2.0
            while _group_members(pgid) and time.monotonic() < deadline:
                time.sleep(0.02)
            leaked = _group_members(pgid)
            if leaked:
                problems.append(f"daemon left {len(leaked)} process(es) "
                                f"running in its group")
        finally:
            _signal_group(pgid, signal.SIGKILL)
            if self.proc.poll() is None:
                self.proc.wait(timeout=10.0)
            deadline = time.monotonic() + 5.0
            while _group_members(pgid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if self._log is not None:
                self._log.close()
            self.proc = None
        return problems
