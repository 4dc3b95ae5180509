"""The environment block every result carries."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from typing import Dict


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: str) -> str:
    """``fstype on mountpoint`` of the mount holding ``path``."""
    real = os.path.realpath(path)
    best_mount, best_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount, fstype = fields[1], fields[2]
                inside = real == mount or real.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best_mount):
                    best_mount, best_type = mount, fstype
    except OSError:
        pass
    return f"{best_type} on {best_mount or '?'}"


def _source_digest(root: str) -> str:
    """sha256 over the program's Python sources: names the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _highs_version() -> str:
    import scipy

    try:
        from scipy.optimize._highspy import _core

        return (f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}."
                f"{_core.HIGHS_VERSION_PATCH} (bundled with SciPy)")
    except (ImportError, AttributeError):
        return f"bundled with SciPy {scipy.__version__}"


def environment(root: str, journal_parent: str) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": _highs_version(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "journal_fs": _filesystem(journal_parent),
        "durability": "fsync",
        "transport": "loopback TCP to 127.0.0.1: one ServiceClient "
                     "connection, closed loop, one request in flight",
    }
