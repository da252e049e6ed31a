from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import re
import sys
from pathlib import Path

import pytest

import oracles
from streamcert import cli
from streamcert.cli import main
from streamcert.digraph import Digraph
from streamcert.hardgen import circulant, transitive_tournament
from streamcert.streams import ArcStream


def _has_triangle(text: str) -> bool:
    g = Digraph.from_text(text)
    return oracles.has_triangle_masks(g.n, g.arcs)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_graph(path, g: Digraph):
    path.write_text(g.to_text())
    return str(path)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_gen_transitive(capsys):
    code, out, _ = run(capsys, "gen", "--family", "transitive", "--n", "6")
    assert code == 0
    assert Digraph.from_text(out).arcs == transitive_tournament(6).arcs


def test_gen_stream_mode(capsys):
    code, out, _ = run(
        capsys, "gen", "--family", "circulant", "--n", "7", "--k", "2",
        "--stream", "--model", "turn", "--seed", "3",
    )
    assert code == 0
    stream = ArcStream.from_text(out)
    assert stream.model == "turn"
    assert stream.n == 7
    assert len(oracles.final_arcs(stream.updates)) == 14


def test_gen_triangle_bits_control_the_instance(capsys):
    code, plain, _ = run(
        capsys, "gen", "--family", "triangle", "--n", "6", "--d", "6", "--bits", "f0"
    )
    assert code == 0
    assert not _has_triangle(plain)
    code, spiked, _ = run(
        capsys, "gen", "--family", "triangle", "--n", "6", "--d", "6", "--bits", "ff"
    )
    assert code == 0
    assert _has_triangle(spiked)


def test_gen_bits_from_file(capsys, tmp_path):
    bits = tmp_path / "bits.hex"
    bits.write_text("ff\n")
    code, out, _ = run(
        capsys, "gen", "--family", "triangle", "--n", "6", "--d", "6", "--bits", str(bits)
    )
    assert code == 0 and _has_triangle(out)


def test_gen_bits_longer_than_a_file_name(capsys):
    argv = ("gen", "--family", "triangle", "--n", "60", "--d", "6", "--bits")
    code, long_out, _ = run(capsys, *argv, "f" * 600)
    assert code == 0
    assert (0, long_out) == run(capsys, *argv, "f" * 20)[:2]


def test_gen_reach_reports_terminals(capsys):
    code, out, err = run(capsys, "gen", "--family", "reach", "--n", "6", "--d", "3")
    assert code == 0
    terms = json.loads(err)
    g = Digraph.from_text(out)
    assert 0 <= terms["s"] < g.n and 0 <= terms["t"] < g.n


def test_gen_rejects_bad_shapes(capsys):
    code, _, err = run(capsys, "gen", "--family", "plain", "--n", "8", "--d", "4")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "gen", "--family", "triangle", "--n", "6", "--d", "6", "--bits", "f")
    assert code == 2 and "need 8 bits" in err
    for bits in ("\u0663\u0663", "3_3", "3\u00a03"):
        code, out, err = run(capsys, "gen", "--family", "triangle", "--n", "6", "--d", "6", "--bits", bits)
        bad = next(ch for ch in bits if ch != "3")
        assert (code, out, err) == (
            2, "", f"error: --bits must hold ASCII hex digits and whitespace, got {bad!r}\n"), bits
    code, _, err = run(capsys, "gen", "--family", "circulant", "--n", "2", "--k", "1")
    assert code == 2 and "error:" in err
    for family, n, d, message in (("plain", "6", "0", "need d >= 3 divisible by 3 and n divisible by d"),
                                  ("triangle", "0", "0", "need d >= 3 divisible by 3 and n divisible by d"),
                                  ("transitive", "-3", "3", "node count must be >= 0, got -3"),
                                  ("triangle-alpha", "-6", "3", "node count must be >= 0, got -6"),
                                  ("transitive", "65537", "3", "node count 65537 above the ceiling of 65536")):
        code, out, err = run(capsys, "gen", "--family", family, "--n", n, "--d", d)
        assert (code, out, err) == (2, "", f"error: {message}\n"), family


# ---------------------------------------------------------------------------
# certificate pipeline on files
# ---------------------------------------------------------------------------


@pytest.fixture
def circ_files(tmp_path, capsys):
    code, gtext, _ = run(capsys, "gen", "--family", "circulant", "--n", "9", "--k", "2")
    assert code == 0
    code, stext, _ = run(
        capsys, "gen", "--family", "circulant", "--n", "9", "--k", "2", "--stream"
    )
    assert code == 0
    gpath = tmp_path / "g.txt"
    gpath.write_text(gtext)
    spath = tmp_path / "s.txt"
    spath.write_text(stext)
    return str(gpath), str(spath)


def test_one_then_verify_roundtrip(circ_files, tmp_path, capsys):
    gpath, spath = circ_files
    code, out, err = run(capsys, "one", "--input", spath, "--passes", "2")
    assert code == 0
    stats = json.loads(err)
    assert stats["passes"] == 2 and stats["kind"] == "node" and stats["k"] == 1
    cpath = tmp_path / "cert.txt"
    cpath.write_text(out)
    code, out, _ = run(capsys, "verify", "--graph", gpath, "--cert", str(cpath))
    assert code == 0 and out.strip().endswith("OK")


def test_verify_k1_certificates_beyond_64_nodes(tmp_path, capsys):
    gen = ("gen", "--family", "alpha", "--n", "80", "--d", "4")
    _, gtext, _ = run(capsys, *gen)
    _, stext, _ = run(capsys, *gen, "--stream", "--seed", "5")
    gpath, spath = tmp_path / "g.txt", tmp_path / "s.txt"
    gpath.write_text(gtext)
    spath.write_text(stext)
    code, out, _ = run(capsys, "one", "--input", str(spath), "--passes", "2")
    assert code == 0
    cert = Digraph.from_text(out)
    cpath = write_graph(tmp_path / "cert.txt", cert)
    code, report, _ = run(capsys, "verify", "--graph", str(gpath), "--cert", cpath)
    assert code == 0 and report.endswith("OK\n")
    u, v = next((u, v) for u, v in sorted(cert.arcs)
                if v not in oracles.closure_sets(80, cert.arcs - {(u, v)})[u])
    cpath = write_graph(tmp_path / "cut.txt", Digraph(80, cert.arcs - {(u, v)}))
    code, report, _ = run(capsys, "verify", "--graph", str(gpath), "--cert", cpath)
    assert code == 1 and report.endswith("FAIL\n")
    assert f"pair ({u}, {v}): required 1, certificate has 0" in report


def test_verify_flags_a_bad_certificate(circ_files, tmp_path, capsys):
    gpath, _ = circ_files
    ring = Digraph(9, [(i, (i + 1) % 9) for i in range(9)])
    cpath = write_graph(tmp_path / "ring.txt", ring)
    code, out, _ = run(capsys, "verify", "--graph", gpath, "--cert", cpath, "--k", "2")
    assert code == 1 and out.strip().endswith("FAIL")


def test_one_strict_space(circ_files, capsys):
    _, spath = circ_files
    code, _, err = run(
        capsys, "one", "--input", spath, "--passes", "1", "--strict-space", "40*n"
    )
    assert code == 0
    code, _, err = run(
        capsys, "one", "--input", spath, "--passes", "1", "--strict-space", "3"
    )
    assert code == 2 and "error:" in err
    for expr in ("n(2)", "9**9**9"):
        code, _, err = run(
            capsys, "one", "--input", spath, "--passes", "1", "--strict-space", expr
        )
        assert code == 2 and "space budget expression" in err
    assert "'9**9**9'" in err


@pytest.mark.parametrize(
    "expr", ["1/0", "n*", "(" * 300 + "1" + ")" * 300, "1e308*10", "(-8)**(1/3)", ""],
    ids=["zero-division", "syntax", "nesting", "overflow", "complex", "empty"],
)
def test_malformed_budget_expression_exits_2(circ_files, capsys, expr):
    _, spath = circ_files
    code, out, err = run(capsys, "one", "--input", spath, "--passes", "1", "--strict-space", expr)
    assert code == 2 and out == ""
    assert err.startswith("error: bad space budget expression") and err.count("\n") == 1


def test_a_negative_space_budget_exits_2_before_any_pass(circ_files, capsys):
    _, spath = circ_files
    code, out, err = run(capsys, "one", "--input", spath, "--passes", "1", "--strict-space", "-1")
    assert (code, out, err) == (2, "", "error: space budget must be >= 0, got -1\n")
    code, out, err = run(capsys, "one", "--input", spath, "--passes", "1", "--strict-space", "n-n")
    assert (code, out, err) == (2, "", "error: space ledger holds 8 words, budget 0\n")  # 0 is a budget


@pytest.mark.parametrize("line", ["1 2 3", "1", "1 x"])
def test_a_clause_line_without_two_literals_is_named(tmp_path, capsys, line):
    path = tmp_path / "clauses.txt"
    path.write_text(f"1 -2\n{line}\n")
    code, out, err = run(capsys, "2sat", "--input", str(path))
    assert (code, out, err) == (2, "", f"error: bad clause line {line!r}\n")


def test_k_below_one_exits_2_before_the_rho_default(circ_files, capsys):
    gpath, spath = circ_files
    for argv in (("kcert", "--input", spath, "--passes", "1"), ("congest", "--proto", "kcert", "--input", gpath)):
        code, out, err = run(capsys, *argv, "--k", "0")
        assert code == 2 and out == ""
        assert err == "error: threshold k must be >= 1, got 0\n", argv


def test_runaway_sizes_exit_2_before_any_work(circ_files, tmp_path, capsys):
    gpath, spath = circ_files
    one = tmp_path / "one.txt"
    one.write_text("1 ins\n")
    huge = "9223372036854775808"
    cases = (
        (("kcert", "--input", spath, "--passes", "1", "--k", "64"), "above the ceiling of 4096"),
        (("kcert", "--input", spath, "--passes", "1", "--k", "2", "--r", huge), "above the ceiling of 4096"),
        (("congest", "--proto", "kcert", "--input", gpath, "--k", "64"), "above the ceiling of 4096"),
        (("kcert", "--input", str(one), "--passes", "1", "--mode", "peel", "--k", huge),
         f"got {huge}"),
        (("bench", "--n", "4", "--alphas", "1,0"), "alpha must be >= 1, got 0"),
        (("bench", "--n", "65537"), "node count 65537 above the ceiling of 65536"),
        # dense families are counted before any arc is built
        (("gen", "--family", "transitive", "--n", "2049"), "2098176 arcs above the generators' ceiling of 2097152"),
        (("gen", "--family", "alpha", "--n", "4096", "--d", "2"), "8384512 arcs above"),
        (("gen", "--family", "circulant", "--n", "65536", "--k", "33"), "2162688 arcs above"),
        (("bench", "--family", "tournament", "--n", "2049", "--alphas", "1"), "2098176 arcs above"),
    )
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and message in err, argv


def test_node_ids_must_be_ascii_decimal(tmp_path, capsys):
    cases = (
        (("scc", "--passes", "1"), "11 1\n1_0 2\n"),
        (("scc", "--passes", "1"), "4 1\n\u0663 2\n"),
        (("one", "--passes", "1"), "11 ins\n+ 1_0 2\n"),
        (("one", "--passes", "1"), "4 ins\n+ \u0663 2\n"),
        (("2sat",), "1 -1_0\n"),
        (("2sat",), "# comments may hold x_1 or \u00ac x_2\n\u0663 1\n"),
    )
    for argv, text in cases:
        path = tmp_path / "in.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 2 and out == "", text
        assert err == "error: node ids must be ASCII decimal: text holds '_' or a non-ASCII character\n"
    path.write_text("# comments may hold x_1 or \u00ac x_2\n1 -2\n", encoding="utf-8")
    code, out, _ = run(capsys, "2sat", "--input", str(path))
    assert code == 0 and out.startswith("SAT")


def test_pass_and_node_ceilings_exit_2_before_any_table(circ_files, tmp_path, capsys):
    _, spath = circ_files
    code, out, err = run(capsys, "one", "--input", spath, "--passes", "100000000")
    assert (code, out, err) == (2, "", "error: pass budget p must be in [1, 64], got 100000000\n")
    cases = (
        (("one", "--passes", "1"), "65537 ins\n", "node count 65537 above the ceiling of 65536"),
        (("scc", "--passes", "1"), "1000000000 0\n", "node count 1000000000 above the ceiling of 65536"),
        (("congest", "--proto", "scc"), "65537 0\n", "node count 65537 above the ceiling of 65536"),
        (("2sat",), "1 1000000000\n", "nvars must be in [0, 32768], got 1000000000"),
        (("2sat",), "-32769 2\n", "nvars must be in [0, 32768], got 32769"),
    )
    for argv, text, message in cases:
        path = tmp_path / "in.txt"
        path.write_text(text)
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_multiplicity_outside_zero_one_exits_2(tmp_path, capsys):
    spath = tmp_path / "bad.txt"
    spath.write_text("3 turn\n- 1 2\n+ 0 1\n+ 0 1\n- 0 1\n+ 1 2\n")
    for argv in (("one", "--passes", "1"), ("kcert", "--k", "2", "--passes", "1")):
        code, out, err = run(capsys, *argv, "--input", str(spath))
        assert code == 2 and out == ""
        assert "update 1: deletion of absent arc (1,2)" in err
    spath.write_text("3 turn\n+ 0 1\n+ 0 1\n")
    code, _, err = run(capsys, "one", "--input", str(spath), "--passes", "1")
    assert code == 2 and "update 2: insertion of present arc (0,1)" in err


def test_output_options_belong_to_bench_only(circ_files, capsys):
    _, spath = circ_files
    with pytest.raises(SystemExit) as exc:
        main(["one", "--input", spath, "--passes", "1", "--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_cli_option_is_read_by_its_handler():
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in subs.choices.items():
        handler = sub.get_default("func")
        source = inspect.getsource(handler)
        if "_cert_of(" in source:
            source += inspect.getsource(cli._cert_of)
        for action in sub._actions:
            if action.dest != "help":
                assert f"args.{action.dest}" in source, (name, action.option_strings)


def test_readme_synopses_list_every_cli_option():
    """Each command's synopsis line under the README's CLI heading names exactly
    the options its parser defines, so an option cannot be added or dropped
    without the synopsis following."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopses = dict(re.findall(r"^- `(\w+) ([^`]*)`", readme.split("\n## CLI\n")[1], re.M))
    (subs,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name in ("gen", "one", "kcert", "verify", "congest", "bench"):
        defined = {s for a in subs.choices[name]._actions for s in a.option_strings if s.startswith("--")}
        assert set(re.findall(r"--[a-z][a-z-]*", synopses[name])) == defined - {"--help"}, name


def test_seed_belongs_to_seeded_commands_only(circ_files):
    gpath, spath = circ_files
    for argv in (
        ["one", "--input", spath, "--passes", "1"],
        ["verify", "--graph", gpath, "--cert", gpath],
        ["bench"],
        ["2sat", "--input", gpath],
        ["branchings", "--input", gpath],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == 2, argv


def test_options_the_mode_never_reads_exit_2(circ_files, capsys):
    """An option whose default is None and that the chosen mode never reads is an
    error naming it; without it the same command succeeds."""
    gpath, spath = circ_files
    for argv, unread in (
        (("kcert", "--input", spath, "--k", "2", "--passes", "1", "--mode", "peel"),
         (("--rho", "0.3"), ("--r", "5"), ("--seed", "9"))),
        (("gen", "--family", "transitive", "--n", "4"), (("--bits", "zz"), ("--seed", "3"))),
        (("gen", "--family", "alpha", "--n", "4", "--d", "2"), (("--bits", "f"), ("--seed", "3"))),
        (("gen", "--family", "circulant", "--n", "5"), (("--bits", "f"), ("--seed", "3"))),
        # the seed draws the bits when --bits is absent, and shuffles a stream
        (("gen", "--family", "plain", "--n", "6", "--d", "3", "--bits", "ff"), (("--seed", "5"),)),
        (("gen", "--family", "reach", "--n", "6", "--d", "3", "--bits", "f"), (("--seed", "5"),)),
        (("gen", "--family", "plain", "--n", "6", "--d", "3", "--seed", "5"), ()),
        (("gen", "--family", "transitive", "--n", "4", "--stream", "--seed", "3"), ()),
        (("gen", "--family", "plain", "--n", "6", "--d", "3", "--bits", "ff", "--stream", "--seed", "5"), ()),
        (("congest", "--proto", "scc", "--input", gpath), (("--rho", "0.3"),)),
        (("congest", "--proto", "topo", "--input", gpath), (("--rho", "0.3"),)),
        (("bench", "--n", "6", "--alphas", "1", "--p-list", "1"), (("--k", "7"),)),
        (("bench", "--family", "tournament", "--alg", "one", "--n", "6", "--alphas", "1", "--p-list", "1"),
         (("--k", "2"),)),
    ):
        assert run(capsys, *argv)[0] == 0, argv
        for option in unread:
            code, out, err = run(capsys, *argv, *option)
            assert (code, out) == (2, "") and err.startswith("error: ") and option[0] in err, (argv, option)


def test_kcert_all_modes(circ_files, tmp_path, capsys):
    _, spath = circ_files
    empty = tmp_path / "empty.txt"
    empty.write_text("0 ins\n")  # no node: every mode gives the empty certificate
    for path, k, n in ((spath, "2", 9), (str(empty), "1", 0)):
        for mode in ("node", "arc", "peel"):
            code, out, err = run(
                capsys, "kcert", "--input", path, "--k", k, "--passes", "1", "--mode", mode,
            )
            assert code == 0, (mode, err)
            stats = json.loads(err)
            assert stats["mode"] == mode
            assert stats["passes"] == (int(k) if mode == "peel" else 1)  # k*p when peeling
            assert Digraph.from_text(out).n == n
    # peeling needs the promise to hold: a 1-arc-strong input must fail at k=2
    code, _, err = run(capsys, "kcert", "--input", spath, "--k", "4", "--passes", "1", "--mode", "peel")
    assert code == 2 and "peeling failed" in err


def test_stdin_input(circ_files, capsys, monkeypatch):
    _, spath = circ_files
    text = open(spath).read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, _, err = run(capsys, "one", "--input", "-", "--passes", "1")
    assert code == 0 and json.loads(err)["passes"] == 1


def test_verify_reads_either_file_from_stdin(circ_files, capsys, monkeypatch):
    gpath, _ = circ_files
    text = open(gpath).read()  # a graph certifies itself
    for argv in (("--graph", "-", "--cert", gpath), ("--graph", gpath, "--cert", "-")):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0 and out.endswith("OK\n"), argv
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "verify", "--graph", "-", "--cert", "-")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    monkeypatch.setattr(sys, "stdin", io.StringIO("9 x\n"))
    code, out, err = run(capsys, "verify", "--graph", gpath, "--cert", "-")
    assert code == 2 and out == "" and err.startswith("error: bad header")


# ---------------------------------------------------------------------------
# congest + bench
# ---------------------------------------------------------------------------


def test_congest_protocols(circ_files, capsys):
    gpath, _ = circ_files
    code, out, err = run(capsys, "congest", "--proto", "scc", "--input", gpath)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    ids = [int(line.split("\t")[1]) for line in lines]
    assert len(set(ids)) == 1  # circulant is strongly connected
    trace = json.loads(err)
    assert trace["rounds_used"] >= 1 and sum(trace["phases"].values()) == trace["rounds_used"]

    code, out, _ = run(capsys, "congest", "--proto", "topo", "--input", gpath)
    assert code == 0 and len(out.strip().splitlines()) == 9

    code, out, err = run(capsys, "congest", "--proto", "kcert", "--input", gpath, "--k", "2")
    assert code == 0
    assert json.loads(err)["meta"]["r"] >= 1

    # --rho defaults to 1/k, which stays within the protocol's (0, 1/k] range
    code, _, err = run(capsys, "congest", "--proto", "kcert", "--input", gpath, "--k", "3")
    assert code == 0
    assert json.loads(err)["meta"]["r"] >= 1


def test_bench_csv_and_json(capsys):
    base = ("bench", "--family", "circulant", "--n", "9", "--k", "2", "--p-list", "1,2")
    code, out, _ = run(capsys, *base)
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header.startswith("n,alpha,k,p")
    assert len(rows) == 2

    code, out, _ = run(capsys, *base, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [row["p"] for row in data] == [1, 2]
    assert all(row["verified"] == "pass" for row in data)


# Exact stdout, stderr and exit code of bench, verify and two app commands;
# output longer than a line or two is held as its sha256.
PINNED = (
    (("bench", "--n", "12", "--alphas", "1,2", "--models", "ins,turn", "--p-list", "1,2", "--seeds", "0,1"),
     0, "843406cc79558e003aa01c9207a9360aa54aabf180a3562da8ffaa6ef800ce1a", ""),
    (("bench", "--family", "circulant", "--n", "9", "--k", "2", "--alg", "kcert", "--models", "ins,turn",
      "--p-list", "1,2", "--seeds", "0,1"),
     0, "d97479fb5aaa3ffff27c88c35b929c9104d64327eca88358788fef6d03c06077", ""),
    (("bench", "--family", "circulant", "--n", "9", "--k", "2", "--alg", "peel", "--p-list", "1,2"),
     0, "n,alpha,k,p,model,peak_words,passes,cert_size,verified\r\n"
        "9,3,2,1,ins,92,2,18,pass\r\n9,3,2,2,ins,116,4,18,pass\r\n", ""),
    (("bench", "--family", "circulant", "--n", "9", "--k", "2", "--p-list", "1,2", "--format", "json"),
     0, "2fdb065c81132f25df43caea65a4a3c3a5ad98459226f0994c2acc8f85a592a9", ""),
    (("bench", "--n", "6", "--alphas", "1", "--alg", "peel", "--k", "2"),
     2, "", "error: benchmark row failed (family=tournament-a1 n=6 p=1 model=ins seed=0): "
            "peeling failed at iteration 1: node 1 behind a cut of size 0\n"),
    (("bench", "--n", "3", "--alphas", "1,4"),
     0, "d5b1a62f9147f56b97b57d7f7be1b733bbcacb3d067809b834d6029f8807dd9e", ""),
    (("bench", "--n", "4", "--alphas", "1,0"), 2, "", "error: alpha must be >= 1, got 0\n"),
    (("bench", "--n", "6", "--alphas", "1", "--alg", "kcert", "--k", "0"),
     2, "", "error: threshold k must be >= 1, got 0\n"),
    (("bench", "--n", "6", "--alphas", "1", "--alg", "peel", "--k", "0"),
     2, "", "error: threshold k must be >= 1, got 0\n"),
    (("verify", "--graph", "g.txt", "--cert", "g.txt", "--k", "3"),
     0, "kind=node k=3 n=9 graph_arcs=18 cert_arcs=18\ncontained=True violations=0\nOK\n", ""),
    (("verify", "--graph", "g.txt", "--cert", "ring.txt"),
     0, "kind=node k=1 n=9 graph_arcs=18 cert_arcs=9\ncontained=True violations=0\nOK\n", ""),
    (("verify", "--graph", "g.txt", "--cert", "ring.txt", "--k", "2"),
     1, "f1728471724f4d9b14bbb5958e93a3e109a6ba303dfc54ec4ae6fb2950e67a19", ""),
    (("verify", "--graph", "g.txt", "--cert", "ring.txt", "--k", "2", "--kind", "arc"),
     1, "0fd0368877d89e508ca5d818e4ee4dba12b054bf0837b40878e79e3adbf695f1", ""),
    (("verify", "--graph", "g.txt", "--cert", "outside.txt"),
     1, "kind=node k=1 n=9 graph_arcs=18 cert_arcs=10\ncontained=False violations=0\nFAIL\n", ""),
    (("verify", "--graph", "g.txt", "--cert", "bad.txt"),
     2, "", "error: declared 2 arcs but found 1 arc lines\n"),
    (("verify", "--graph", "g.txt", "--cert", "small.txt"),
     2, "", "error: node counts differ (graph 9, certificate 3)\n"),
    (("verify", "--graph", "g.txt", "--cert", "g.txt", "--k", "0"),
     2, "", "error: threshold k must be >= 1, got 0\n"),
    (("verify", "--graph", "g.txt", "--cert", "missing.txt"),
     2, "", "error: [Errno 2] No such file or directory: 'missing.txt'\n"),
    (("tc", "--input", "two.txt"),
     0, "5 14\n0 1\n0 2\n0 3\n0 4\n1 0\n1 2\n1 3\n1 4\n2 0\n2 1\n2 3\n2 4\n3 4\n4 3\n", ""),
    (("bridges", "--input", "two.txt"), 0, "0 1\n1 2\n2 0\n3 4\n4 3\n", ""),
)


def test_bench_and_verify_output_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ring = [(i, (i + 1) % 9) for i in range(9)]
    for name, g in (("g.txt", circulant(9, 2)), ("ring.txt", Digraph(9, ring)),
                    ("two.txt", Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]))):
        write_graph(tmp_path / name, g)
    # an arc outside the graph, a wrong arc count, a wrong node count
    (tmp_path / "outside.txt").write_text("9 10\n" + "".join(f"{u} {v}\n" for u, v in ring) + "0 5\n")
    (tmp_path / "bad.txt").write_text("9 2\n0 1\n")
    (tmp_path / "small.txt").write_text("3 1\n0 1\n")
    for argv, code, out, err in PINNED:
        got = run(capsys, *argv)
        assert got[0] == code, argv
        for want, text in ((out, got[1]), (err, got[2])):
            assert want in (text, hashlib.sha256(text.encode()).hexdigest()), argv


# ---------------------------------------------------------------------------
# application subcommands
# ---------------------------------------------------------------------------


def test_app_commands_on_small_graph(tmp_path, capsys):
    g = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)])
    gpath = write_graph(tmp_path / "g.txt", g)

    code, out, _ = run(capsys, "scc", "--input", gpath)
    ids = dict(tuple(map(int, line.split("\t"))) for line in out.strip().splitlines())
    assert code == 0
    assert ids[0] == ids[1] == ids[2] and ids[3] == ids[4] and ids[0] != ids[3]

    code, out, _ = run(capsys, "toposort", "--input", gpath)
    rank = dict(tuple(map(int, line.split("\t"))) for line in out.strip().splitlines())
    assert code == 0 and rank[0] < rank[3]

    code, out, _ = run(capsys, "tc", "--input", gpath)
    closure = Digraph.from_text(out)
    assert code == 0 and (0, 4) in closure.arcs

    code, out, _ = run(capsys, "bridges", "--input", gpath)
    # every cycle arc is critical; the (2,3) link is not, both sides stay intact
    assert code == 0 and set(out.splitlines()) == {"0 1", "1 2", "2 0", "3 4", "4 3"}

    code, out, _ = run(capsys, "domset", "--input", write_graph(
        tmp_path / "ring.txt", Digraph(9, [(i, (i + 1) % 9) for i in range(9)])
    ), "--d", "3")
    assert code == 0 and out.split() == ["0", "1", "5"]


def test_mcc_on_a_dag(tmp_path, capsys):
    dag = Digraph(4, [(0, 1), (1, 2), (0, 3)])
    code, out, _ = run(capsys, "mcc", "--input", write_graph(tmp_path / "dag.txt", dag))
    assert code == 0
    chains = [tuple(map(int, line.split())) for line in out.strip().splitlines()]
    assert sorted(v for chain in chains for v in chain) == [0, 1, 2, 3]
    assert len(chains) == 2


def test_msss_exit_codes(tmp_path, capsys):
    strong = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    code, out, _ = run(capsys, "msss", "--input", write_graph(tmp_path / "s.txt", strong))
    assert code == 0
    sub = Digraph.from_text(out)
    assert sub.m <= 2 * sub.n - 2

    dag = Digraph(3, [(0, 1), (1, 2)])
    code, _, err = run(capsys, "msss", "--input", write_graph(tmp_path / "d.txt", dag))
    assert code == 1 and "no spanning" in err


def test_branchings_command(tmp_path, capsys):
    k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    code, out, _ = run(
        capsys, "branchings", "--input", write_graph(tmp_path / "k4.txt", k4), "--t", "2"
    )
    assert code == 0
    assert out.count("branching") == 2
    arcs = [
        tuple(map(int, line.split()))
        for line in out.splitlines()
        if line.startswith("  ")
    ]
    assert len(arcs) == 6 and len(set(arcs)) == 6


def test_two_sat_command(tmp_path, capsys):
    sat = tmp_path / "sat.txt"
    sat.write_text("# demo\n1 2\n-1 2\n")
    code, out, _ = run(capsys, "2sat", "--input", str(sat))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "SAT" and "x2=true" in lines

    unsat = tmp_path / "unsat.txt"
    unsat.write_text("1 2\n1 -2\n-1 2\n-1 -2\n")
    code, out, _ = run(capsys, "2sat", "--input", str(unsat))
    assert code == 1 and out.strip() == "UNSAT"


def test_missing_file_is_an_error(tmp_path, capsys):
    code, _, err = run(capsys, "one", "--input", "/nonexistent/s.txt", "--passes", "1")
    assert code == 2 and "error:" in err
    gpath = write_graph(tmp_path / "g.txt", Digraph(3, [(0, 1)]))
    code, _, err = run(capsys, "verify", "--graph", gpath, "--cert", "/nonexistent/c.txt")
    assert code == 2 and "error:" in err
