"""One sha256 per workload and seed over every output the benchmark judges.

    python3 tools/summary_digest.py
    python3 tools/summary_digest.py --workload one-turn --seeds 1 --scale tiny
    python3 tools/summary_digest.py --workload kcert --seeds 1 --cases

For each workload and seed this builds the cases and their input texts with
``perfbench/workloads.py``, parses the texts in memory with the checkout's
``src/streamcert``, runs every case's cert, verify and apps phases once and
hashes each case's ``workloads.summary`` in case order.  It prints one line
per workload and seed: the seed, the case count and the digest.  Two
checkouts that print the same lines computed the same certificates, passes,
``peak_words``, app answers and congest traces.  With ``--cases`` it prints
one line per case instead, the case's name and the sha256 of its summary
alone, so a difference can be traced to the case that changed.  Nothing is
timed and nothing is written to disk.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import types
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

MODULES = ("streams", "digraph", "certify_one", "certify_k", "exact", "apps", "congest")
LIB = types.SimpleNamespace(**{m: importlib.import_module(f"streamcert.{m}") for m in MODULES})


def case_lines(workload: str, seed: int, scale: str = "full") -> Iterator[tuple[str, bytes]]:
    """Each case's name and the JSON line of its summary, in case order."""
    cases, files = workloads.build(workload, seed, scale)
    data = workloads.parse_inputs(LIB, files, workloads.network_inputs(cases))
    for case in cases:
        cert = workloads.phase_cert(case, LIB, data)
        verify = workloads.phase_verify(case, LIB, data, cert)
        apps = workloads.phase_apps(case, LIB, data, cert, verify)
        out = workloads.summary(case, cert, verify, apps)
        yield case.name, json.dumps([case.name, out], sort_keys=True).encode() + b"\n"


def digest(workload: str, seed: int, scale: str = "full") -> tuple[str, int]:
    """(sha256 hex digest, case count) of one workload run's summaries."""
    h = hashlib.sha256()
    count = 0
    for _, line in case_lines(workload, seed, scale):
        h.update(line)
        count += 1
    return h.hexdigest(), count


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("all",) + workloads.WORKLOADS, default="all")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--scale", choices=tuple(workloads.GRIDS), default="full")
    ap.add_argument("--cases", action="store_true", help="print one digest per case")
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        for seed in args.seeds:
            if args.cases:
                for case, line in case_lines(name, seed, args.scale):
                    sha = hashlib.sha256(line).hexdigest()
                    print(f"{name} seed={seed} case={case} sha256={sha}", flush=True)
            else:
                hexdigest, count = digest(name, seed, args.scale)
                print(f"{name} seed={seed} cases={count} sha256={hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
