"""Pinned environment, host record, and the leak check run after every run.

The program reads a few ``REPRO_*`` environment variables that CI legs
export (kernel threads and backend, index budget, listen address, kernel
memory cap).  The benchmark clears them before it imports the program, so
every run measures the shipped defaults, and records what they were.

The leak check looks for what a run must not leave behind: shared-memory
segments, service scratch directories, live shard processes, listening
sockets and service threads.  A leak fails the run; nothing found is
removed, so it can be inspected.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import socket
import sys
import threading
from typing import Dict, Iterable, List, Optional, Sequence

#: Variables the program reads that would change what is measured.
PINNED_ENV = (
    "REPRO_KERNEL_THREADS",
    "REPRO_KERNEL_BACKEND",
    "REPRO_INDEX_BUDGET_MB",
    "REPRO_SERVICE_LISTEN",
    "REPRO_KERNEL_MEMORY_CAP_MB",
)

#: Thread names the service, the server and the kernel executor start.
_SERVICE_THREAD_PREFIXES = ("eclipse-", "repro-")

_SHM_DIR = "/dev/shm"


def pin_environment() -> Dict[str, Optional[str]]:
    """Clear :data:`PINNED_ENV`; returns each variable's prior value."""
    prior = {name: os.environ.get(name) for name in PINNED_ENV}
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    return prior


def host_record(seed: int, prior_env: Dict[str, Optional[str]]) -> Dict[str, object]:
    """What a reader needs to compare two runs: host, versions, seed, env."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": sys.platform,
        "seed": seed,
        "env_cleared": {k: v for k, v in prior_env.items() if v is not None},
    }


def shm_segments() -> List[str]:
    """Names of the POSIX shared-memory segments currently present."""
    try:
        return sorted(os.listdir(_SHM_DIR))
    except OSError:
        return []


class LeakCheck:
    """Compare process state after a run with the state before it."""

    def __init__(self, scratch_dir: str) -> None:
        self.scratch_dir = scratch_dir
        self.shm_before = set(shm_segments())
        self.threads_before = {t.ident for t in threading.enumerate()}

    def find(self, ports: Iterable[int] = (), pids: Sequence[int] = ()) -> List[str]:
        """Every leak found, as human-readable lines (empty when clean)."""
        leaks = []
        new_shm = sorted(set(shm_segments()) - self.shm_before)
        if new_shm:
            leaks.append(f"shared-memory segments left: {new_shm}")
        if os.path.isdir(self.scratch_dir):
            left = sorted(
                entry for entry in os.listdir(self.scratch_dir)
                if entry.startswith(("repro-", "tmp"))
            )
            if left:
                leaks.append(f"service scratch directories left in {self.scratch_dir}: {left}")
        children = multiprocessing.active_children()
        if children:
            leaks.append(f"child processes still alive: {[c.pid for c in children]}")
        for pid in pids:
            if _alive(pid):
                leaks.append(f"shard worker {pid} still alive")
        for port in ports:
            if _listening(port):
                leaks.append(f"a socket still listens on 127.0.0.1:{port}")
        threads = [
            t.name for t in threading.enumerate()
            if t.ident not in self.threads_before
            and t.is_alive()
            and t.name.startswith(_SERVICE_THREAD_PREFIXES)
        ]
        if threads:
            leaks.append(f"service threads still running: {threads}")
        return leaks


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pid reused by another user's process
        return False
    return True


def _listening(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0):
            return True
    except OSError:
        return False
