"""Property-based fuzzing of every CLI subcommand.

Hypothesis feeds mutated graph, stream and clause texts and extreme argument
values.  Every run must end with exit 0, 1 or 2 and let no exception escape,
and whatever exits 0 must agree with the brute-force oracles.  A text that
parses declares at most 12 nodes (larger headers are above the ceiling or not
numbers at all), and ``gen`` and ``bench`` only see a small ``--n``: their
tournament families are Theta(n^2) arcs by design.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import turnstile_stream
from streamcert.cli import _cert_of, main
from streamcert.digraph import Digraph
from streamcert.exact import validate_certificate
from streamcert.streams import ArcStream

TOKENS = ("-1", "0", "1", "2", "5", "12", "65537", "1000000000", "9" * 30, "1.5", "1e3", "x",
          "+", "-", "٣", "1_0", "0x1", "ins", "turn", "#", "")
EXTREME = ("-9223372036854775808", "-1", "0", "1", "2", "3", "64", "65", "9223372036854775808")
RHOS = ("0", "-1", "nan", "inf", "1e-300", "0.25", "0.5", "1", "2")
BUDGETS = ("0", "n", "8*n**1.5", "1/0", "n*", "(" * 300 + "1" + ")" * 300, "2**10**10",
           "p**p", "-n", "1e308*10", "(-n)**0.5")


def cli(*argv) -> tuple[int, str, str]:
    """Run the CLI in-process; usage errors exit through SystemExit(2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code, out.getvalue(), err.getvalue()


def cli_on(texts: dict[str, str], *argv) -> tuple[int, str, str]:
    """``cli`` with each ``{name}`` argument replaced by a file holding ``texts[name]``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in texts.items():
            paths[name] = Path(tmp, name)
            paths[name].write_text(text, encoding="utf-8")
        return cli(*(paths.get(a, a) for a in argv))


@st.composite
def graphs(draw, max_n: int = 7) -> Digraph:
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, (a for a, k in zip(pairs, keep) if k))


def mutated(data, text: str) -> str:
    """``text`` after up to three line edits (none half the time): a token
    replaced, a line dropped, duplicated or inserted."""
    lines = text.splitlines()
    for _ in range(data.draw(st.sampled_from((0, 0, 0, 1, 2, 3)))):
        op = data.draw(st.sampled_from(("token", "drop", "dup", "add")))
        i = data.draw(st.integers(0, max(0, len(lines) - 1)))
        if op == "add" or not lines:
            lines.insert(i, " ".join(data.draw(st.lists(st.sampled_from(TOKENS), max_size=4))))
        elif op == "token":
            parts = lines[i].split() or [""]
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(parts)
        elif op == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + data.draw(st.sampled_from(("\n", "", "\n\n")))


def options(data, **choices) -> list[str]:
    """Each ``--name value`` pair, present or left at its default."""
    out = []
    for name, values in choices.items():
        if data.draw(st.booleans()):
            out += [f"--{name.replace('_', '-')}", data.draw(st.sampled_from(values))]
    return out


def table(out: str) -> dict[int, int]:
    return {int(v): int(x) for v, x in (line.split("\t") for line in out.splitlines())}


def components(n: int, arcs) -> dict[int, frozenset[int]]:
    return {v: comp for comp in oracles.scc_partition(n, arcs) for v in comp}


def closure_arcs(n: int, arcs) -> set[tuple[int, int]]:
    return {(u, v) for u, row in enumerate(oracles.closure_sets(n, arcs)) for v in row if v != u}


def node_condition_holds(n: int, g_arcs, h_arcs, k: int) -> bool:
    return all(
        oracles.separator_kappa(n, h_arcs, s, t) >= min(k, oracles.separator_kappa(n, g_arcs, s, t))
        for s in range(n) for t in range(n) if s != t
    )


@given(st.data())
def test_stream_commands_exit_cleanly_and_certify(data):
    g = data.draw(graphs())
    model = data.draw(st.sampled_from(("ins", "turn")))
    base = ArcStream.from_graph(g, model, seed=1) if model == "ins" else turnstile_stream(g, 1)
    text = mutated(data, base.to_text())
    command = data.draw(st.sampled_from(("one", "kcert")))
    # p = 5 and 10 split a turnstile level into q = 2 and 3 selection passes
    argv = [command, "--input", "s", "--passes", data.draw(st.sampled_from(EXTREME + ("5", "10")))]
    if command == "one":
        argv += options(data, strict_space=BUDGETS)
    else:
        mode = data.draw(st.sampled_from(("node", "arc", "peel")))
        k = data.draw(st.sampled_from(EXTREME))
        argv += ["--k", k, "--mode", mode] + options(data, rho=RHOS, r=EXTREME, seed=EXTREME)
    code, out, _ = cli_on({"s": text}, *argv)
    if code:
        return
    stream = ArcStream.from_text(text)
    final = oracles.final_arcs(stream.updates)
    cert = Digraph.from_text(out)
    assert cert.n == stream.n and cert.arcs <= final
    if command == "one":
        assert closure_arcs(cert.n, cert.arcs) == closure_arcs(stream.n, final)
    elif mode == "peel":
        assert oracles.arc_condition_holds(stream.n, final, cert.arcs, int(k))


@given(st.data())
def test_certificate_apps_exit_cleanly_and_match_the_oracles(data):
    g = data.draw(graphs())
    text = mutated(data, g.to_text())
    command = data.draw(st.sampled_from(("scc", "toposort", "mcc", "msss", "bridges", "domset", "tc")))
    argv = [command, "--input", "g"] + options(data, passes=EXTREME, seed=EXTREME)
    if command == "domset":
        argv += ["--d", data.draw(st.sampled_from(EXTREME))]
    code, out, _ = cli_on({"g": text}, *argv)
    if code == 2:
        return
    g = Digraph.from_text(text)
    n, comp = g.n, components(g.n, g.arcs)
    if command == "msss":
        assert (code == 1) == (not oracles.is_strong(n, g.arcs))
        if code == 0:
            sub = Digraph.from_text(out)
            assert sub.arcs <= g.arcs and oracles.is_strong(n, sub.arcs) and sub.m <= max(0, 2 * n - 2)
        return
    assert code == 0
    if command == "scc":
        ids = table(out)
        assert {frozenset(v for v in range(n) if ids[v] == c) for c in ids.values()} == set(comp.values())
    elif command == "toposort":
        rank = table(out)
        assert all((rank[u] == rank[v]) == (comp[u] == comp[v]) for u in range(n) for v in range(n))
        assert all(rank[u] < rank[v] for u, v in g.arcs if comp[u] != comp[v])
    elif command == "mcc":
        assert len(comp) == len(set(comp.values()))  # only an acyclic input gets a cover
        chains = [[int(v) for v in line.split()] for line in out.splitlines()]
        reach = oracles.closure_sets(n, g.arcs)
        assert sorted(v for chain in chains for v in chain) == list(range(n))
        assert all(b in reach[a] for chain in chains for a, b in zip(chain, chain[1:]))
        assert len(chains) == oracles.min_chain_cover_size(n, g.arcs)
    elif command == "bridges":
        got = {tuple(map(int, line.split())) for line in out.splitlines()}
        if got != oracles.strong_bridges(n, g.arcs):  # only a failed sample may explain it
            with tempfile.TemporaryDirectory() as tmp:
                args = argparse.Namespace(input=str(Path(tmp, "g")), seed=None, passes=1)
                for flag, value in zip(argv[3::2], argv[4::2]):
                    setattr(args, flag[2:], int(value))
                Path(args.input).write_text(text, encoding="utf-8")
                assert not validate_certificate(g, _cert_of(args, k=2)).ok
    elif command == "domset":
        chosen, d = [int(v) for v in out.split()], int(argv[-1])
        assert len(chosen) <= math.ceil(n / d)
        assert set().union(*(oracles.ball_out(n, g.arcs, s, d) for s in chosen)) == set(range(n))
    else:
        assert Digraph.from_text(out).arcs == closure_arcs(n, g.arcs)


@given(st.data())
def test_congest_exits_cleanly_and_matches_the_oracles(data):
    g = data.draw(graphs())
    text = mutated(data, g.to_text())
    proto = data.draw(st.sampled_from(("scc", "topo", "kcert")))
    argv = ["congest", "--proto", proto, "--input", "g"]
    argv += options(data, k=EXTREME, rho=RHOS, seed=EXTREME)
    code, out, _ = cli_on({"g": text}, *argv)
    if code:
        assert code == 2
        return
    g = Digraph.from_text(text)
    n, comp = g.n, components(g.n, g.arcs)
    if proto == "kcert":
        marks = [line.split("\t")[1].split() for line in out.splitlines()]
        assert len(marks) == n
        assert {tuple(map(int, a.split("->"))) for m in marks for a in m} <= g.arcs
        return
    got = table(out)
    if proto == "scc":
        assert all((got[u] == got[v]) == (comp[u] == comp[v]) for u in range(n) for v in range(n))
    else:  # equal within a component, increasing along cross arcs; incomparable nodes may tie
        assert all(got[u] == got[v] for u in range(n) for v in comp[u])
        assert all(got[u] < got[v] for u, v in g.arcs if comp[u] != comp[v])


@given(st.data())
def test_verify_exits_cleanly_and_accepts_only_certificates(data):
    g = data.draw(graphs(max_n=6))
    sub = Digraph(g.n, data.draw(st.sets(st.sampled_from(sorted(g.arcs)))) if g.arcs else ())
    k = data.draw(st.sampled_from(EXTREME))
    kind = data.draw(st.sampled_from(("node", "arc")))
    texts = {"g": mutated(data, g.to_text()), "c": mutated(data, sub.to_text())}
    code, out, _ = cli_on(texts, "verify", "--graph", "g", "--cert", "c", "--k", k, "--kind", kind)
    if code:
        return
    g, h, k = Digraph.from_text(texts["g"]), Digraph.from_text(texts["c"]), int(k)
    assert out.endswith("OK\n") and h.arcs <= g.arcs
    if k == 1:
        assert closure_arcs(h.n, h.arcs) == closure_arcs(g.n, g.arcs)
    elif kind == "node":
        assert node_condition_holds(g.n, g.arcs, h.arcs, k)
    else:
        assert oracles.arc_condition_holds(g.n, g.arcs, h.arcs, k)


@given(st.data())
def test_two_sat_exits_cleanly_and_answers_correctly(data):
    lits = st.integers(1, 5).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = data.draw(st.lists(st.tuples(lits, lits), max_size=8))
    text = mutated(data, "# clauses\n" + "".join(f"{a} {b}\n" for a, b in clauses))
    code, out, _ = cli_on({"c": text}, "2sat", "--input", "c")
    if code == 2:
        return
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    clauses = [(int(a), int(b)) for a, b in lines]
    nvars = max((abs(x) for c in clauses for x in c), default=0)
    answer = out.split()
    if code == 1:
        assert answer == ["UNSAT"] and not oracles.two_sat_satisfiable(clauses, nvars)
    else:
        assert answer[0] == "SAT" and len(answer) == nvars + 1
        assert oracles.two_sat_check(clauses, [a.endswith("=true") for a in answer[1:]])


@given(st.data())
def test_branchings_exit_cleanly_and_are_disjoint_spanning_trees(data):
    g = data.draw(graphs(max_n=6))
    text = mutated(data, g.to_text())
    root, t = data.draw(st.sampled_from(EXTREME)), data.draw(st.sampled_from(EXTREME))
    code, out, _ = cli_on({"g": text}, "branchings", "--input", "g", "--root", root, "--t", t)
    if code:
        assert code == 2
        return
    g, root = Digraph.from_text(text), int(root)
    trees = [[tuple(map(int, ln.split())) for ln in block.splitlines()[1:]]
             for block in out.split("branching ")[1:]]
    assert len(trees) == int(t)
    used = set()
    for arcs in trees:
        assert set(arcs) <= g.arcs and not used & set(arcs) and len(arcs) == g.n - 1
        assert oracles.ball_out(g.n, arcs, root, g.n) == set(range(g.n))
        used |= set(arcs)


@given(st.data())
def test_gen_exits_cleanly_and_writes_what_it_reports(data):
    family = data.draw(st.sampled_from(("plain", "triangle", "triangle-alpha", "hampath",
                                        "reach", "alpha", "transitive", "circulant")))
    n = data.draw(st.sampled_from(("-1", "0", "1", "2", "3", "6", "8", "12")))
    argv = ["gen", "--family", family, "--n", n]
    argv += options(data, d=EXTREME + ("4", "6"), k=EXTREME,
                    bits=("f0", "ff", "zz", "", "٣" * 8, "0" * 40), seed=EXTREME)
    stream = data.draw(st.booleans())
    if stream:
        argv += ["--stream"] + options(data, model=("ins", "turn"))
    code, out, _ = cli(*argv)
    if code:
        assert code == 2
        return
    g = ArcStream.from_text(out) if stream else Digraph.from_text(out)
    assert g.n == int(n) or family in ("reach", "hampath")


@given(st.data())
def test_bench_exits_cleanly_and_verifies_its_rows(data):
    alg = data.draw(st.sampled_from(("one", "kcert", "peel")))
    argv = ["bench", "--alg", alg, "--n", data.draw(st.sampled_from(("0", "1", "3", "6", "8")))]
    argv += options(data, family=("tournament", "circulant"), alphas=("1", "2", "0", "-1", "1,2", "x", ""),
                    p_list=("1", "0", "1,2", "65", "x"), models=("ins", "turn", "ins,turn", "foo", ""),
                    k=EXTREME, seeds=("0", "1,2", "x", "-1"), format=("csv", "json"))
    code, out, _ = cli(*argv)
    if code:
        assert code == 2
        return
    rows = json.loads(out) if "json" in argv else list(csv.DictReader(io.StringIO(out)))
    assert all(str(row["verified"]) in ("pass", "skipped", "FAIL") for row in rows)
    if alg != "kcert":  # the deterministic algorithms never miss
        assert all(row["verified"] != "FAIL" for row in rows)
