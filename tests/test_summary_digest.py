"""``tools/summary_digest.py`` on the benchmark's ``tiny`` grids."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "summary_digest.py"
_spec = importlib.util.spec_from_file_location("summary_digest", TOOL)
summary_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(summary_digest)


def test_two_runs_of_the_tiny_grids_give_the_same_digests():
    for workload in summary_digest.workloads.WORKLOADS:
        hexdigest, count = summary_digest.digest(workload, 1, "tiny")
        assert count == len(summary_digest.workloads.build(workload, 1, "tiny")[0]) > 0
        assert len(hexdigest) == 64
        assert summary_digest.digest(workload, 1, "tiny") == (hexdigest, count), workload


def test_the_printout_has_one_line_per_workload_and_seed(capsys):
    assert summary_digest.main(["--workload", "kcert", "--seeds", "1", "2", "--scale", "tiny"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[:2] for ln in lines] == [["kcert", "seed=1"], ["kcert", "seed=2"]]
    assert all(ln.split()[2] == "cases=3" and ln.split()[3].startswith("sha256=") for ln in lines)


def test_the_cases_printout_has_one_line_per_case(capsys):
    args = ["--workload", "kcert", "--seeds", "1", "--scale", "tiny"]
    assert summary_digest.main(args + ["--cases"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [case.name for case in summary_digest.workloads.build("kcert", 1, "tiny")[0]]
    assert [ln.split()[:3] for ln in lines] == [["kcert", "seed=1", f"case={name}"] for name in names]
    assert len(names) == 3 and all(len(ln.split()[3]) == len("sha256=") + 64 for ln in lines)
