"""CPU time and peak memory of a process, read from ``/proc``."""

from __future__ import annotations

import os
from pathlib import Path

_TICKS_PER_SECOND = os.sysconf("SC_CLK_TCK")


def parse_cpu_seconds(stat_text: str, ticks_per_second: int = _TICKS_PER_SECOND) -> float:
    """utime + stime from the text of ``/proc/<pid>/stat``.

    The command name (field 2) is parenthesised and may itself hold spaces
    and parentheses, so fields are counted from the last ``)``.
    """
    _, sep, rest = stat_text.rpartition(")")
    fields = rest.split()
    if not sep or len(fields) < 13:
        raise ValueError("not a /proc/<pid>/stat line")
    # rest starts at field 3 (state): utime is field 14, stime field 15.
    return (int(fields[11]) + int(fields[12])) / ticks_per_second


def parse_peak_rss_mib(status_text: str) -> float:
    """``VmHWM`` (peak resident set) in MiB from ``/proc/<pid>/status``."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            parts = line.split()
            if len(parts) == 3 and parts[2] == "kB":
                return int(parts[1]) / 1024.0
            raise ValueError(f"unexpected VmHWM line {line!r}")
    raise ValueError("no VmHWM line in /proc/<pid>/status")


def cpu_seconds(pid: int) -> float:
    return parse_cpu_seconds(Path(f"/proc/{pid}/stat").read_text())


def peak_rss_mib(pid: int) -> float:
    return parse_peak_rss_mib(Path(f"/proc/{pid}/status").read_text())
