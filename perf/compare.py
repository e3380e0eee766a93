"""``--compare A.json B.json``: apply BENCHMARK.json's bounds to two sets of runs.

One row per workload x end-to-end metric.  ``B`` is *worse* when its median
is worse than ``A``'s by more than the metric's bound, in the metric's own
direction; a row is *unresolved* when either side's run-to-run spread
(quartile distance over median) is wider than the bound, because then the
medians cannot tell a change from noise; otherwise it is *within bound*.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from perf.stats import relative_spread

#: failed_share is 0 on a healthy run, so it has no relative bound; it may
#: rise by this much, absolutely.
FAILED_SHARE_ABSOLUTE_BOUND = 0.005
WORSE, WITHIN, UNRESOLVED, MISSING = "worse", "within bound", "unresolved", "missing"


def load_runs(path: str | Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` of the untraced runs in a ``--out`` file."""
    values: dict[tuple[str, str], list[float]] = {}
    for report in json.loads(Path(path).read_text("utf-8"))["runs"]:
        if report["trace"]:
            continue
        workload = report["workload"]
        for name, entry in report["result"]["metrics"].items():
            values.setdefault((workload, name), []).append(entry["value"])
        values.setdefault((workload, "failed_share"), []).append(report["failed_share"])
    return values


def verdict(a: list[float], b: list[float], better: str, bound: float, gate_spread: bool) -> str:
    """Classify one workload x metric row."""
    if not a or not b:
        return MISSING
    if gate_spread and max(relative_spread(a), relative_spread(b)) > bound:
        return UNRESOLVED
    base, new = statistics.median(a), statistics.median(b)
    worsening = (new - base) if better == "lower" else (base - new)
    return WORSE if worsening > bound * abs(base) else WITHIN


def compare_files(path_a: str, path_b: str, benchmark: dict) -> int:
    """Print the table; exit status 1 when any row is worse, unresolved or missing."""
    a, b = load_runs(path_a), load_runs(path_b)
    print(f"{'workload':14s} {'metric':22s} {'A median':>11s} {'A spread':>9s} "
          f"{'B median':>11s} {'B spread':>9s} {'bound':>6s}  verdict")
    bad = 0
    for workload in (w["name"] for w in benchmark["workloads"]):
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            va, vb = a.get((workload, name), []), b.get((workload, name), [])
            # Like the acceptance check, set-up time is compared by medians
            # only: its spread never makes a row unresolved.
            outcome = verdict(va, vb, spec["better"], spec["bound"], name != "setup_s")
            bad += outcome != WITHIN
            _print_row(workload, name, va, vb, f"{spec['bound']:.2f}", outcome)
        va, vb = a.get((workload, "failed_share"), []), b.get((workload, "failed_share"), [])
        if not va or not vb:
            outcome = MISSING
        elif statistics.median(vb) > statistics.median(va) + FAILED_SHARE_ABSOLUTE_BOUND:
            outcome = WORSE
        else:
            outcome = WITHIN
        bad += outcome != WITHIN
        _print_row(workload, "failed_share", va, vb, f"+{FAILED_SHARE_ABSOLUTE_BOUND}", outcome)
    return 1 if bad else 0


def _print_row(workload: str, name: str, a: list[float], b: list[float],
               bound: str, outcome: str) -> None:
    def cells(values: list[float]) -> str:
        if not values:
            return f"{'-':>11s} {'-':>9s}"
        return f"{statistics.median(values):11.4g} {relative_spread(values):9.3f}"

    print(f"{workload:14s} {name:22s} {cells(a)} {cells(b)} {bound:>6s}  {outcome}")
