"""Boot ``cerberus-py serve`` and drive it with one closed-loop client.

Set-up is timed from spawning the daemon to the answer of its first
``health`` request, sent as soon as the daemon prints its "listening"
line (no sleep-poll loop).  The daemon runs in its own process group,
so a failure anywhere still stops it and its pool workers.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional


class Daemon:
    """One daemon process on a private socket and store under
    ``workdir``."""

    def __init__(self, root: Path, workdir: Path, tag: str,
                 traced: bool = False):
        self.root = root
        self.dir = workdir / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        # Relative to the checkout root (the daemon's cwd): unix
        # socket paths are limited to ~107 bytes.
        self.socket = os.path.relpath(self.dir / "s.sock", root)
        self.store = self.dir / "store"
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self._affinity: Optional[set] = None

    def boot(self) -> float:
        """Start the daemon; returns its set-up time."""
        from repro.farm.client import FarmClient
        if self.traced:
            cmd = [sys.executable, "perfbench/serve_traced.py"]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        cmd += ["--socket", self.socket, "--store", str(self.store)]
        env = dict(os.environ, PYTHONPATH="src")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        while True:
            line = self.proc.stderr.readline()
            if not line:
                raise RuntimeError("daemon exited before listening")
            if "listening" in line:
                break
        self.client = FarmClient(self.socket)
        self.client.health()
        return time.monotonic() - t0

    def pin(self) -> None:
        """Put the daemon's main process (every thread) and this client
        process on the first CPU this process may use, and the pool
        workers on the others.  A cached request is then a hand-off
        between two processes on one CPU, which never waits for the
        host to schedule a second, idle virtual CPU: on a shared host
        that wait follows the host's steal time and was the largest
        part of the run-to-run spread of ``cached_p50_ms``.  Undone
        for this process by :meth:`stop`."""
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return
        self._affinity = set(cpus)
        _pin(self.proc.pid, {cpus[0]})
        for pid in _children(self.proc.pid):
            _pin(pid, set(cpus[1:]))
        os.sched_setaffinity(0, {cpus[0]})

    def health_rtt_ms(self, n: int = 50) -> float:
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            self.client.health()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1000.0

    def peak_rss_mb(self) -> float:
        """Peak resident set of the daemon and its pool workers."""
        total_kb = 0
        for pid in [self.proc.pid] + _children(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> None:
        """Graceful drain, then make sure the whole group is gone."""
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)
            self._affinity = None
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None and self.client is not None:
                try:
                    self.client.shutdown()
                except (OSError, ValueError):
                    pass
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        finally:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            self.proc.wait()
            _wait_group_gone(self.proc.pid)
            shutil.rmtree(self.dir, ignore_errors=True)
            self.proc = None


def _wait_group_gone(pgid: int) -> None:
    """Wait until no process of the daemon's group (a pool worker the
    drain left behind) is alive."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.02)


def _pin(pid: int, cpus: set) -> None:
    """Set the CPU affinity of every thread of ``pid``."""
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), cpus)
        except OSError:
            pass


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(p) for p in f.read().split()]
    except OSError:
        return []
