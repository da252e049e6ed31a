"""Wall-time benchmark of streamcert: one workload per run, closed loop.

    python3 perfbench/run.py --workload one-ins --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

One process and one thread run the workload's cases back to back until
``--seconds`` have passed (at least one full sweep).  Inputs are generated
from ``--seed`` and handed to the library as text files under
``perfbench/.work/``.  Every output is judged; a failure is counted, never
fatal.  The last line of stdout is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics from an instrumented run with ``--trace 1``.
Run it from the repository root; it imports ``src/streamcert`` and
``tests/oracles.py`` from the checkout and exits 2 when they are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import clock
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
SETUPS = 5  # set-up repetitions per run; setup_s is their median
PHASES = ("cert", "verify", "apps")
MODULES = ("streams", "digraph", "certify_one", "certify_k", "exact", "apps", "congest")


class LoadError(RuntimeError):
    """The checkout does not hold the library or the oracles."""


# ---------------------------------------------------------------------------
# set-up: import the library, read and parse every input
# ---------------------------------------------------------------------------


def _import_library() -> types.SimpleNamespace:
    for name in [m for m in sys.modules if m == "streamcert" or m.startswith("streamcert.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("streamcert")
        mods = {m: importlib.import_module(f"streamcert.{m}") for m in MODULES}
    except ImportError as exc:
        raise LoadError(f"cannot import streamcert from {ROOT / 'src'}: {exc}") from exc
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "streamcert":
        raise LoadError(f"imported streamcert from {pkg.__file__}, not from this checkout")
    return types.SimpleNamespace(**mods)


def setup(input_dir: Path, names: list[str], networks: set[str]):
    """One full set-up; returns (reference seconds, library namespace, parsed inputs)."""
    before = clock.kernel_seconds()
    t0 = time.perf_counter()
    lib = _import_library()
    texts = {name: (input_dir / name).read_text() for name in names}
    data = workloads.parse_inputs(lib, texts, networks)
    wall = time.perf_counter() - t0
    return wall * clock.scale(before, clock.kernel_seconds()), lib, data


def load_oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import oracles
    except ImportError as exc:
        raise LoadError(f"cannot import tests/oracles.py from {ROOT}: {exc}") from exc
    finally:
        sys.path.pop(0)
    return oracles


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Record:
    """Per-case timings and outcomes over all sweeps of one loop.

    ``times`` holds reference-speed seconds (see ``clock``), ``raw`` the wall
    seconds they were rescaled from."""

    def __init__(self, cases):
        self.times = {c.name: {ph: [] for ph in PHASES} for c in cases}
        self.raw = {c.name: {ph: [] for ph in PHASES} for c in cases}
        self.outs: dict[str, list] = {c.name: [] for c in cases}  # summary or None per run
        self.sweeps = 0

    def median(self, case_name: str, phase: str, raw: bool = False) -> float:
        vals = (self.raw if raw else self.times)[case_name][phase]
        return statistics.median(vals) if vals else 0.0

    def total(self, phase: str, raw: bool = False) -> float:
        return sum(self.median(name, phase, raw) for name in self.times)

    def first(self, case_name: str) -> dict:
        """The case's first completed summary ({} when every run raised)."""
        return next((o for o in self.outs[case_name] if o), {})


def run_case(case, lib, data, tracer=None):
    """Run the three phases of one case; returns (wall seconds per phase,
    summary, indices of the phase spans)."""
    outs: dict[str, object] = {}
    secs = {}
    spans = []
    steps = (
        ("cert", lambda: workloads.phase_cert(case, lib, data)),
        ("verify", lambda: workloads.phase_verify(case, lib, data, outs["cert"])),
        ("apps", lambda: workloads.phase_apps(case, lib, data, outs["cert"], outs["verify"])),
    )
    for phase, step in steps:
        if tracer:
            spans.append(tracer.open(f"case.{phase}", case=case.name))
        t0 = time.perf_counter()
        try:
            outs[phase] = step()
        finally:
            secs[phase] = time.perf_counter() - t0
            if tracer:
                tracer.close(spans[-1])
    return secs, workloads.summary(case, outs["cert"], outs["verify"], outs["apps"]), spans


def loop(cases, lib, data, seconds: float, record: Record, tracer=None) -> None:
    """Sweep the cases until ``seconds`` have passed, the reference kernel
    running between consecutive cases."""
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        before = clock.kernel_seconds()
        for case in cases:
            secs, out, spans = None, None, []
            try:
                secs, out, spans = run_case(case, lib, data, tracer)
            except Exception:  # a failing case is counted and the loop goes on
                print(f"case {case.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            after = clock.kernel_seconds()
            factor = clock.scale(before, after)
            before = after
            record.outs[case.name].append(out)
            if secs is None:
                continue
            for idx in spans:
                tracer.spans[idx].attrs["scale"] = factor
            for phase in PHASES:
                if phase == "cert" or case.kind in workloads.CERT_KINDS:
                    record.raw[case.name][phase].append(secs[phase])
                    record.times[case.name][phase].append(secs[phase] * factor)
        record.sweeps += 1
        if time.perf_counter() >= deadline:
            return


def judge_runs(cases, record: Record, oracles, reference: Record | None = None) -> tuple[int, int, dict]:
    """(attempted, failed, problems per case).  A run fails when it raised,
    when its output differs from the case's first output (or from the
    reference loop's), or when that output fails the checks."""
    attempted = failed = 0
    problems = {}
    for case in cases:
        runs = record.outs[case.name]
        attempted += len(runs)
        base = (reference or record).first(case.name)
        bad = workloads.judge(case, base, oracles) if base else ["no run completed"]
        if bad:
            problems[case.name] = bad
            failed += len(runs)
            continue
        mismatched = sum(1 for o in runs if o != base)
        if mismatched:
            problems[case.name] = [f"{mismatched} run(s) differ from the first output"]
            failed += mismatched
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def case_rows(cases, record: Record, problems: dict) -> list[dict]:
    rows = []
    for case in cases:
        first = record.first(case.name)
        row = {"case": case.name, "runs": len(record.outs[case.name])}
        for phase in PHASES:
            row[f"{phase}_s"] = record.median(case.name, phase)
            row[f"{phase}_wall_s"] = record.median(case.name, phase, raw=True)
        for key in ("passes", "peak_words", "cert_arcs", "rounds", "messages"):
            if key in first:
                row[key] = first[key]
        row["ok"] = case.name not in problems
        rows.append(row)
    return rows


def end_to_end(cases, record: Record, setup_s: float, attempted: int, failed: int) -> dict:
    firsts = [record.first(c.name) for c in cases]

    def total(key):
        vals = [o[key] for o in firsts if key in o]
        return sum(vals) if vals else None

    return {
        "setup_s": (setup_s, "s"),
        "cert_s": (record.total("cert"), "s"),
        "verify_s": (record.total("verify"), "s"),
        "apps_s": (record.total("apps"), "s"),
        "peak_words": (total("peak_words"), "words"),
        "passes": (total("passes"), "passes"),
        "cert_arcs": (total("cert_arcs"), "arcs"),
        "rounds": (total("rounds"), "rounds"),
        "messages": (total("messages"), "msgs"),
        "fail_frac": (failed / attempted if attempted else 1.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def contract_metrics(names: list[str], values: dict) -> dict:
    out = {}
    for name in names:
        value, unit = values[name]
        out[name] = {"value": value, "unit": unit}
    return out


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or 'all' to run each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.GRIDS), default="full",
                    help="case sizes; 'tiny' is for the benchmark's own tests")
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = benchmark_spec()
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    input_dir = work / "inputs"
    shutil.rmtree(work, ignore_errors=True)
    input_dir.mkdir(parents=True)
    try:
        cases, files = workloads.build(args.workload, args.seed, args.scale)
        for name, text in files.items():
            (input_dir / name).write_text(text)
        sys.path.insert(0, str(ROOT / "src"))
        try:
            nets = workloads.network_inputs(cases)
            setup_times = []
            for _ in range(1 if args.trace else SETUPS):
                lib = data = None  # drop the previous set-up before the next
                gc.collect()
                secs, lib, data = setup(input_dir, sorted(files), nets)
                setup_times.append(secs)
        finally:
            sys.path.pop(0)
        oracles = load_oracles()
    except LoadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    setup_s = statistics.median(setup_times)

    plain = Record(cases)
    if not args.trace:
        loop(cases, lib, data, args.seconds, plain)
        attempted, failed, problems = judge_runs(cases, plain, oracles)
        values = end_to_end(cases, plain, setup_s, attempted, failed)
        metrics = contract_metrics([m["name"] for m in spec["end_to_end"]], values)
        report = {"mode": "end_to_end", "sweeps": plain.sweeps, "setups": len(setup_times),
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
                  "wall_s": {ph: plain.total(ph, raw=True) for ph in PHASES}}
    else:
        loop(cases, lib, data, args.seconds / 2, plain)
        traced = Record(cases)
        tracer = layers.install(lib)
        try:
            layers.traced_parse(tracer, lib, files, nets)
            loop(cases, lib, data, args.seconds / 2, traced, tracer)
        finally:
            tracer.restore()
        leftovers = layers.wrappers_left(lib)
        attempted, failed, problems = judge_runs(cases, plain, oracles)
        t_att, t_fail, t_problems = judge_runs(cases, traced, oracles, reference=plain)
        attempted, failed = attempted + t_att, failed + t_fail
        for name, bad in t_problems.items():
            problems.setdefault(name, []).extend(f"traced: {b}" for b in bad)
        if leftovers:
            failed += 1
            problems["trace"] = [f"wrappers survived: {leftovers}"]
        values = layers.per_layer(tracer.spans, cases, traced, plain.total("cert"))
        tracer.dump(work / "spans.jsonl")
        metrics = contract_metrics([m["name"] for m in spec["per_layer"]], values)
        report = {"mode": "per_layer", "sweeps": plain.sweeps, "traced_sweeps": traced.sweeps,
                  "metrics": metrics}

    rows = case_rows(cases, plain, problems)
    report.update(workload=args.workload, seed=args.seed, cases=rows, problems=problems,
                  attempted=attempted, failed=failed)
    (work / "result.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"sweeps={plain.sweeps} setups={len(setup_times)}")
    for row in rows:
        print("  " + "  ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
    for name, bad in problems.items():
        print(f"  FAIL {name}: {'; '.join(bad)}")
    shown = report["metrics"] if not args.trace else metrics
    for name, m in shown.items():
        value = "n/a" if m["value"] is None else _fmt(m["value"])
        print(f"{name} = {value} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
