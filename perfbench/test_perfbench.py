"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import layers
import run
import workloads
from spans import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_of_each_workload(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for m in SPEC[kind]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if kind == "end_to_end":
            assert got["value"] > 0


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    for workload in workloads.WORKLOADS:
        _, a = workloads.build(workload, 5, "tiny")
        _, b = workloads.build(workload, 5, "tiny")
        _, c = workloads.build(workload, 6, "tiny")
        assert a == b
        assert a != c


def test_churn_stream_lands_on_its_target():
    rng = random.Random(1)
    n = 30
    target = gen.random_digraph(rng, n, 120)
    updates = gen.churn_stream(random.Random(2), n, target, churn=0.3, decoys=0.5)
    assert gen.replay(updates) == target
    deletions = [u for u in updates if u[0] < 0]
    assert len(deletions) == int(0.3 * 120) + int(0.5 * 120)
    assert len(updates) == 120 + 2 * len(deletions)
    # decoys really are absent arcs, and every deleted real arc comes back
    assert any((u, v) not in target for _, u, v in deletions)
    assert any((u, v) in target for _, u, v in deletions)


def test_replay_rejects_illegal_sequences():
    with pytest.raises(AssertionError):
        gen.replay([(1, 0, 1), (1, 0, 1)])
    with pytest.raises(AssertionError):
        gen.replay([(-1, 0, 1)])


def test_tournament_matches_the_library_family():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        lib = run._import_library()
        from streamcert.hardgen import alpha_family
    finally:
        sys.path.pop(0)
    for n, alpha in ((12, 2), (16, 4), (9, 3)):
        assert alpha_family(n, alpha).arcs == frozenset(gen.alpha_tournament(n, alpha))
    assert lib.digraph.Digraph.from_text(gen.graph_text(3, {(0, 1), (2, 1)})).arcs == {(0, 1), (2, 1)}


def test_self_time_arithmetic_on_a_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.x", 1.5, 2.0, parent=1),
        Span("a.y", 2.0, 3.5, parent=1),
        Span("b", 5.0, 9.0, parent=0),
        Span("b.x", 8.0, 9.5, parent=4),  # runs past its parent: clipped at 9.0
        Span("other", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 0.5, 1.5, 3.0, 1.5, 1.0])


def test_tracer_nests_spans_the_way_calls_nest():
    tracer = Tracer()

    def inner(x):
        return x + 1

    ns = type("ns", (), {})()
    ns.inner = inner
    outer = tracer.wrap(lambda x: ns.inner(x) * 2, "outer")
    tracer.install(ns, "inner", "inner", info=lambda a, k, r: {"arg": a[0]})
    assert outer(3) == 8
    tracer.restore()
    assert ns.inner is inner
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert tracer.spans[1].attrs == {"arg": 3}


def test_no_wrapper_survives_a_traced_run():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        lib = run._import_library()
    finally:
        sys.path.pop(0)
    originals = {}
    for module, attr, _, _ in layers.BINDINGS:
        owner = getattr(lib, module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
            originals[(module, cls, attr)] = owner.__dict__[attr]
        else:
            originals[(module, "", attr)] = getattr(owner, attr)

    cases, files = workloads.build("kcert", 1, "tiny")
    data = workloads.parse_inputs(lib, files, workloads.network_inputs(cases))
    plain = [run.run_case(c, lib, data)[1] for c in cases]
    tracer = layers.install(lib)
    try:
        assert layers.wrappers_left(lib)
        traced = [run.run_case(c, lib, data, tracer)[1] for c in cases]
    finally:
        tracer.restore()
    assert traced == plain
    assert layers.wrappers_left(lib) == []
    for (module, cls, attr), obj in originals.items():
        owner = getattr(lib, module)
        now = getattr(owner, cls).__dict__[attr] if cls else getattr(owner, attr)
        assert now is obj
    assert {s.name for s in tracer.spans} >= {"certify_k.sampled", "streams.run_passes", "exact.kappa"}


def test_fails_without_the_library():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"))
        proc = _bench("--workload", "kcert", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
