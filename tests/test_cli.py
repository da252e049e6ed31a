from __future__ import annotations

import argparse
import inspect
import io
import json
import sys

import pytest

from streamcert import cli
from streamcert.cli import main
from streamcert.digraph import Digraph
from streamcert.hardgen import has_triangle, transitive_tournament
from streamcert.streams import ArcStream, final_multiplicity


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
    assert final_multiplicity(stream).m == 14


def test_gen_triangle_bits_control_the_instance(capsys):
    code, plain, _ = run(
        capsys, "gen", "--family", "triangle", "--n", "6", "--d", "6", "--bits", "f0"
    )
    assert code == 0
    assert not has_triangle(Digraph.from_text(plain))
    code, spiked, _ = run(
        capsys, "gen", "--family", "triangle", "--n", "6", "--d", "6", "--bits", "ff"
    )
    assert code == 0
    assert has_triangle(Digraph.from_text(spiked))


def test_gen_bits_from_file(capsys, tmp_path):
    bits = tmp_path / "bits.hex"
    bits.write_text("ff\n")
    code, out, _ = run(
        capsys, "gen", "--family", "triangle", "--n", "6", "--d", "6", "--bits", str(bits)
    )
    assert code == 0 and has_triangle(Digraph.from_text(out))


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
    code, _, err = run(capsys, "gen", "--family", "circulant", "--n", "2", "--k", "1")
    assert code == 2 and "error:" in err


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


def test_output_options_belong_to_bench_only(circ_files, capsys):
    _, spath = circ_files
    for flag, value in (("--format", "json"), ("--out-dir", "results")):
        with pytest.raises(SystemExit) as exc:
            main(["one", "--input", spath, "--passes", "1", flag, value])
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


def test_kcert_all_modes(circ_files, capsys):
    _, spath = circ_files
    for mode, extra in (("node", ()), ("arc", ()), ("peel", ())):
        code, out, err = run(
            capsys, "kcert", "--input", spath, "--k", "2", "--passes", "1",
            "--mode", mode, *extra,
        )
        assert code == 0, (mode, err)
        stats = json.loads(err)
        assert stats["mode"] == mode
        assert Digraph.from_text(out).n == 9
    # peeling needs the promise to hold: a 1-arc-strong input must fail at k=2
    code, _, err = run(capsys, "kcert", "--input", spath, "--k", "4", "--passes", "1", "--mode", "peel")
    assert code == 2 and "peeling failed" in err


def test_stdin_input(circ_files, capsys, monkeypatch):
    _, spath = circ_files
    text = open(spath).read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, _, err = run(capsys, "one", "--input", "-", "--passes", "1")
    assert code == 0 and json.loads(err)["passes"] == 1


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


def test_bench_csv_json_and_outdir(tmp_path, capsys):
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

    out_dir = tmp_path / "results"
    code, out, _ = run(capsys, *base, "--out-dir", str(out_dir))
    assert code == 0
    assert (out_dir / "results.csv").exists()
    assert json.loads((out_dir / "manifest.json").read_text())["rows"] == 2


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


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "one", "--input", "/nonexistent/s.txt", "--passes", "1")
    assert code == 2 and "error:" in err
