"""What the machine can deliver, and how much memory the engine's processes use.

Every results file carries ``machine_record()`` so that a speedup is read
against the measured 2-process capacity, not against the core count.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import signal
import subprocess
import time
from pathlib import Path
from typing import Optional


def _burn(seconds: float, q) -> None:
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < seconds:
        for _ in range(10000):
            n += 1
    q.put(n)


def saturation(k: int, seconds: float = 0.4) -> float:
    """Aggregate throughput of k spinning processes relative to one.

    The same probe as ``tests/test_perf_smoke.py``: 2.0 means two processes
    really run side by side; 1.0 means the machine time-slices them.
    """
    ctx = multiprocessing.get_context("fork")

    def run(procs: int) -> int:
        q = ctx.SimpleQueue()
        ps = [ctx.Process(target=_burn, args=(seconds, q)) for _ in range(procs)]
        for p in ps:
            p.start()
        total = sum(q.get() for _ in ps)
        for p in ps:
            p.join()
        return total

    return run(k) / run(1)


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine_record(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "saturation_2proc": round(saturation(2), 3),
        "python": platform.python_version(),
        "commit": git_commit(root),
    }


def _children(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(tok) for tok in text.split()]


def _stat(pid: int) -> Optional[tuple[str, str]]:
    """(state, start time) of a process, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], fields[19]


def _peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def engine_processes() -> list[tuple[int, str]]:
    """(pid, start time) of this process's live children and their children.

    While an engine is up, the benchmark's only children are the engine's
    team masters, and their children are the teammates they forked.
    """
    pids = []
    for proc in multiprocessing.active_children():
        pids.append(proc.pid)
        pids.extend(_children(proc.pid))
    out = []
    for pid in pids:
        st = _stat(pid)
        if st is not None:
            out.append((pid, st[1]))
    return out


def stop_leftovers(procs: list[tuple[int, str]], timeout: float = 5.0) -> int:
    """Kill what is left of ``procs`` and wait until each has ended.

    Freeing an engine kills a master that does not exit, but not the
    teammates it forked; a teammate blocked on a full pipe would outlive the
    benchmark. The start time guards against a recycled pid. Returns how
    many were killed.
    """
    def alive(pid, started):
        st = _stat(pid)
        return st is not None and st[1] == started and st[0] != "Z"

    left = [p for p in procs if alive(*p)]
    for pid, _ in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while any(alive(*p) for p in left):
        if time.monotonic() >= deadline:
            raise RuntimeError(f"engine processes survived SIGKILL: {left}")
        time.sleep(0.01)
    return len(left)


def engine_peak_rss_mb() -> float:
    """Summed peak RSS of the live engine's processes.

    Pages a child shares with its parent count in both, as ``VmHWM``
    reports them.
    """
    return sum(_peak_rss_kb(pid) for pid, _ in engine_processes()) / 1024.0
