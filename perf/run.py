"""``python3 perf/run.py`` — the one command of the benchmark.

One run (what the driver of BENCHMARK.json calls)::

    python3 perf/run.py --workload portal_login --seed 1 --seconds 20 --trace 0

sets up, measures one window and prints, as its last line, one JSON object
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without ``--workload`` it runs all four; ``--repeat N
--out FILE`` collects runs on seeds ``seed .. seed+N-1`` into a file that
``--compare A.json B.json`` reads.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
# Run as a script, sys.path[0] is perf/ itself: make ``perf`` and the
# product (built from source, nothing installed) importable.
for _path in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)



def load_benchmark_json() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text("utf-8"))


def print_report(report: dict) -> None:
    """Every metric by name with its unit, then the contract's last line."""
    env = report["environment"]
    print(f"# workload {report['workload']} trace={report['trace']} " + " ".join(
        f"{key}={value}" for key, value in env.items() if key != "server_flags"
    ))
    print(f"# server flags: {' '.join(env['server_flags'])}")
    print(f"# samples={report['samples']} failed_share={report['failed_share']:.5f}")
    if not report.get("tail_supported", True):
        print("# fewer than ten samples lie beyond latency_p95_ms in this window")
    for name in report.get("layers_unresolved", {}):
        print(f"# unresolved {name}: {report['layers_unresolved'][name]}")
    for error in report["errors"]:
        print(f"# error: {error}")
    for name, entry in report["result"]["metrics"].items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:42s} {shown:>12s} {entry['unit']}")
    print(json.dumps(report["result"]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed .. seed+N-1")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append every run's report to this JSON file")
    parser.add_argument("--compare", nargs=2, default=None, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    # A terminated run must still stop its server and remove its temp dir:
    # turn SIGTERM into an exit that unwinds the finally blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare:
        from perf.compare import compare_files

        return compare_files(args.compare[0], args.compare[1], load_benchmark_json())

    try:
        from perf.layers import run_traced
        from perf.measure import FAILED_SHARE_LIMIT, run_end_to_end
        from perf.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perf: cannot import the product from {REPO_ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    benchmark = load_benchmark_json()
    seconds = args.seconds if args.seconds is not None else float(benchmark["run_seconds"])
    names = args.workload or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")

    status = 0
    for name in names:
        for seed in range(args.seed, args.seed + args.repeat):
            report = (run_traced if args.trace else run_end_to_end)(name, seed, seconds)
            print_report(report)
            sys.stdout.flush()
            if args.out:
                append_report(Path(args.out), report)
            if not report["result"]["correct"] or report["failed_share"] > FAILED_SHARE_LIMIT:
                status = 1
    return status


def append_report(path: Path, report: dict) -> None:
    runs = json.loads(path.read_text("utf-8"))["runs"] if path.exists() else []
    runs.append(report)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
