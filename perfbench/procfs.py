"""Per-process accounting read from ``/proc``, plus the run's hygiene checks.

CPU time and peak memory are read from outside the program, so the same
numbers cover the benchmark process and the server processes it starts.
"""

from __future__ import annotations

import os
import socket
import statistics
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")
_PROC = Path("/proc")
_SHM = Path("/dev/shm")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` (10 ms ticks)."""
    fields = (_PROC / str(pid) / "stat").read_text().rsplit(")", 1)[1].split()
    # After the ")" the fields start at "state" (field 3): utime and stime
    # are fields 14 and 15 of proc(5).
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB: the peak resident set size so far."""
    for line in (_PROC / str(pid) / "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (children, grandchildren, ...)."""
    parents: dict[int, int] = {}
    for entry in _PROC.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while scanning
        parents[int(entry.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    found: list[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        children = [child for child, parent in parents.items() if parent == current]
        found.extend(children)
        frontier.extend(children)
    return found


def alive(pid: int) -> bool:
    """Whether ``pid`` still runs (a zombie has ended and counts as gone)."""
    try:
        stat = (_PROC / str(pid) / "stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def shm_segments() -> set[str]:
    try:
        return {entry.name for entry in _SHM.iterdir()}
    except OSError:
        return set()


def port_listening(port: int) -> bool:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(1.0)
        return probe.connect_ex(("127.0.0.1", port)) == 0


def hygiene_problems(shm_before: set[str], ports: list[int], pids: list[int]) -> list[str]:
    """What outlived the run: child processes, shm segments, open ports.

    ``pids`` are the server processes the run saw.  Walking the live
    descendants alone would miss a worker orphaned when its server parent
    exited, since it is then no longer below this process.
    """
    problems = []
    children = descendants(os.getpid())
    if children:
        problems.append(f"child processes still alive: {children}")
    survivors = sorted(pid for pid in set(pids) if alive(pid))
    if survivors:
        problems.append(f"server processes still alive: {survivors}")
    leaked = sorted(shm_segments() - shm_before)
    if leaked:
        problems.append(f"/dev/shm segments left behind: {leaked}")
    for port in ports:
        if port_listening(port):
            problems.append(f"port {port} still accepts connections")
    return problems


def percentile(values: list[float], share: float) -> float:
    """The ``share`` quantile (0 < share < 1) by linear interpolation."""
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return statistics.median(values)
