"""Child processes: a clean environment, a deadline, and peak memory.

Every child runs in its own session, so a timed-out child is killed together
with any pool workers it started, and nothing is left running afterwards.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

#: RSS sampling interval for process trees (seconds).
SAMPLE_INTERVAL = 0.01


def child_env(root: Path) -> Dict[str, str]:
    """The environment of every child: ``src/`` importable, and no ambient
    ``REPRO_*`` setting (trace store, fault plan, memo size, bench scale)
    that could change what a run does."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Finished:
    code: Optional[int]  # None when the child was killed at its deadline
    wall: float
    stdout: str
    stderr: str
    #: Sum over the process tree of each process's peak RSS (MiB), when
    #: sampled.
    peak_rss_mb: float = 0.0


def _children(pid: int) -> List[int]:
    found = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
    except OSError:
        pass
    return found


def _peak_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _sample_tree(proc: subprocess.Popen, peaks: Dict[int, int]) -> None:
    """Record each process's high-water mark until the root exits."""
    while proc.poll() is None:
        pending = [proc.pid]
        while pending:
            pid = pending.pop()
            peak = _peak_kib(pid)
            if peak > peaks.get(pid, 0):
                peaks[pid] = peak
            pending.extend(_children(pid))
        time.sleep(SAMPLE_INTERVAL)


def _reap_group(pgid: int) -> None:
    """Kill whatever is left in the child's session and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run(argv: List[str], env: Dict[str, str], cwd: Path, timeout: float,
        sample_rss: bool = False) -> Finished:
    """Run ``argv`` to completion (or its deadline) and time it."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    peaks: Dict[int, int] = {}
    sampler = None
    if sample_rss:
        sampler = threading.Thread(target=_sample_tree, args=(proc, peaks))
        sampler.start()
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, timeout))
        code: Optional[int] = proc.returncode
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        stdout, stderr = proc.communicate()
        code = None
    wall = time.perf_counter() - start
    if sampler is not None:
        sampler.join()
    _reap_group(proc.pid)
    return Finished(code, wall, stdout, stderr,
                    sum(peaks.values()) / 1024.0)
