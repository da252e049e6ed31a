"""Median end-to-end metrics of the benchmark at the checked-out code.

    python3 tools/bench_snapshot.py --label issue14

For every workload in ``BENCHMARK.json`` and each of seeds 1-3, one after
another, this runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` with T the declared ``run_seconds`` and reads the ``result.json``
the run leaves under ``perfbench/.work/``.  It writes ``BENCH_<label>.json``
at the repository root: the git sha, whether tracked files differed from it,
the Python version and the host, and per workload the seeds, sweeps,
attempted and failed runs and the median of each end-to-end metric over the
seeds.  A run that exits nonzero stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)  # the fewest runs whose median has a run on each side


def run_workload(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process at the end-to-end setting; its parsed result.json."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return json.loads((ROOT / "perfbench" / ".work" / f"{workload}-s{seed}-t0" / "result.json").read_text())


def summarise(reports: list[dict], names: list[str]) -> dict:
    """Medians over the runs of one workload; a metric no run reports is None."""
    medians = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in reports]
        values = [v for v in values if v is not None]
        medians[name] = {"value": statistics.median(values) if values else None,
                         "unit": reports[0]["metrics"][name]["unit"]}
    return {
        "seeds": [r["seed"] for r in reports],
        "sweeps": [r["sweeps"] for r in reports],
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "median": medians,
    }


def git_state() -> tuple[str, bool]:
    """(HEAD sha, whether tracked files differ from it)."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        ap.error(f"label must be letters, digits, '_', '.' or '-', got {args.label!r}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [m["name"] for m in spec["end_to_end"]]
    workloads = {}
    for w in spec["workloads"]:
        reports = [run_workload(w["name"], seed, seconds) for seed in SEEDS]
        workloads[w["name"]] = summarise(reports, names)
    sha, dirty = git_state()
    snapshot = {
        "label": args.label,
        "git_sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "seconds": seconds,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
