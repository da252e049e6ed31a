"""``tools/bench_snapshot.py`` on synthetic ``result.json`` reports; the
benchmark itself never runs here."""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_snapshot", ROOT / "tools" / "bench_snapshot.py")
bench_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_snapshot)

NAMES = ["verify_s", "cert_arcs", "rounds"]


def _report(seed: int, verify_s: float, cert_arcs: int, failed: int = 0) -> dict:
    return {
        "seed": seed, "sweeps": 10 + seed, "attempted": 6, "failed": failed,
        "metrics": {"verify_s": {"value": verify_s, "unit": "s"},
                    "cert_arcs": {"value": cert_arcs, "unit": "arcs"},
                    "rounds": {"value": None, "unit": "rounds"}},
    }


def test_summary_takes_the_median_of_each_metric():
    reports = [_report(1, 0.5, 100), _report(2, 0.2, 100), _report(3, 0.3, 102, failed=1)]
    got = bench_snapshot.summarise(reports, NAMES)
    assert got == {
        "seeds": [1, 2, 3], "sweeps": [11, 12, 13], "attempted": 18, "failed": 1,
        "median": {"verify_s": {"value": 0.3, "unit": "s"},
                   "cert_arcs": {"value": 100, "unit": "arcs"},
                   "rounds": {"value": None, "unit": "rounds"}},
    }
    even = bench_snapshot.summarise(reports + [_report(4, 0.4, 104)], NAMES)
    assert even["median"]["verify_s"]["value"] == pytest.approx(0.35)
    assert even["median"]["cert_arcs"]["value"] == 101


def test_snapshot_reads_each_result_file(tmp_path, monkeypatch):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    runs = []

    def fake_process(cmd, cwd, check, stdout):
        # what perfbench/run.py leaves behind, without running it
        args = dict(zip(cmd[2::2], cmd[3::2]))
        workload, seed = args["--workload"], int(args["--seed"])
        runs.append((workload, seed, float(args["--seconds"]), args["--trace"]))
        work = cwd / "perfbench" / ".work" / f"{workload}-s{seed}-t0"
        work.mkdir(parents=True)
        metrics = {n: {"value": float(seed), "unit": "u"} for n in names}
        report = {"seed": seed, "sweeps": 3, "attempted": 2, "failed": 0, "metrics": metrics}
        (work / "result.json").write_text(json.dumps(report))

    monkeypatch.setattr(bench_snapshot, "ROOT", tmp_path)
    monkeypatch.setattr(bench_snapshot.subprocess, "run", fake_process)
    monkeypatch.setattr(bench_snapshot, "git_state", lambda: ("abc123", False))
    assert bench_snapshot.main(["--label", "t1"]) == 0
    workloads = [w["name"] for w in spec["workloads"]]
    assert runs == [(w, s, spec["run_seconds"], "0") for w in workloads for s in (1, 2, 3)]
    snap = json.loads((tmp_path / "BENCH_t1.json").read_text())
    assert (snap["label"], snap["git_sha"], snap["dirty"]) == ("t1", "abc123", False)
    assert sorted(snap["workloads"]) == sorted(workloads)
    for w in workloads:
        assert snap["workloads"][w]["seeds"] == [1, 2, 3]
        assert snap["workloads"][w]["median"] == {n: {"value": 2.0, "unit": "u"} for n in names}


@pytest.mark.parametrize("label", ["../x", "a/b", ""])
def test_a_label_that_is_no_plain_name_is_refused(label, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_snapshot.parse_args(["--label", label])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
