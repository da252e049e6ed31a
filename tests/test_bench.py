"""The ``bench`` table and the ``verify`` check, run through the CLI."""

from __future__ import annotations

import csv
import io
import json

import pytest

import oracles
from streamcert import cli
from streamcert.digraph import Digraph
from streamcert.hardgen import circulant
from streamcert.streams import INSERTION_ONLY, TURNSTILE


def bench(capsys, *argv) -> list[dict]:
    assert cli.main(["bench", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_rows_cover_the_grid(capsys):
    rows = bench(capsys, "--n", "8", "--alphas", "1", "--p-list", "1,2", "--models", "ins,turn")
    assert len(rows) == 4
    for row in rows:
        assert row["n"] == 8 and row["alpha"] == 1 and row["k"] == 1
        assert row["verified"] == "pass"
        assert row["peak_words"] > 0
    by = {(r["model"], r["p"]): r for r in rows}
    assert by[(INSERTION_ONLY, 1)]["passes"] == 1
    assert by[(INSERTION_ONLY, 2)]["passes"] == 2
    assert by[(TURNSTILE, 1)]["passes"] == 1
    assert by[(TURNSTILE, 2)]["passes"] == 2  # d*q + 1 for the (1, 1) split


def test_peel_and_kcert_rows_verify(capsys):
    circ = ("--family", "circulant", "--n", "9", "--k", "2", "--p-list", "1")
    (peel,) = bench(capsys, *circ, "--alg", "peel")
    assert peel["verified"] == "pass" and peel["passes"] == 2
    (sampled,) = bench(capsys, *circ, "--alg", "kcert")
    assert sampled["verified"] == "pass" and sampled["k"] == 2


def test_circulant_bench_reads_alpha_from_its_construction(capsys):
    assert cli.main(["bench", "--family", "circulant", "--n", "2000", "--k", "2", "--p-list", "1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(r["n"], r["alpha"], r["verified"]) for r in rows] == [("2000", "666", "pass")]


def test_tournament_rows_carry_the_independence_number(capsys):
    rows = bench(capsys, "--n", "3", "--alphas", "1,2,4", "--p-list", "1")  # 3 nodes hold no block of 4
    assert [(r["n"], r["alpha"], r["verified"]) for r in rows] == [
        (3, 1, "pass"), (2, 2, "pass"), (0, 0, "pass")]
    for row, alpha in zip(rows, (1, 2, 4)):
        assert cli.main(["gen", "--family", "alpha", "--n", str(row["n"]), "--d", str(alpha)]) == 0
        g = Digraph.from_text(capsys.readouterr().out)
        assert row["alpha"] == oracles.independence_number(g.n, g.arcs)


def test_bad_alg_name(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--alg", "magic"])
    assert exc.value.code == 2
    assert "invalid choice: 'magic'" in capsys.readouterr().err


def test_failed_row_carries_context(capsys):
    # the transitive tournament is not 2-arc-strong, so peeling at k = 2 fails
    assert cli.main(["bench", "--n", "4", "--alphas", "1", "--alg", "peel", "--k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: benchmark row failed (family=tournament-a1 n=4 p=1 model=ins seed=0): ")


def test_csv_round_trip(capsys):
    assert cli.main(["bench", "--n", "6", "--alphas", "1", "--p-list", "1"]) == 0
    back = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(back) == 1
    assert back[0]["n"] == "6" and back[0]["verified"] == "pass"


def test_verify_exit_codes(tmp_path, capsys):
    paths = {}
    for name, g in (("g", circulant(7, 2)), ("ring", Digraph(7, [(i, (i + 1) % 7) for i in range(7)])),
                    ("small", Digraph(3, [(0, 1)]))):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(g.to_text())

    def verify(cert):
        code = cli.main(["verify", "--graph", str(paths["g"]), "--cert", str(paths[cert]), "--k", "2"])
        return code, *capsys.readouterr()

    code, out, _ = verify("g")  # the graph certifies itself
    assert code == 0 and out.endswith("OK\n")

    code, out, _ = verify("ring")
    assert code == 1 and out.endswith("FAIL\n")
    assert "required" in out

    code, out, err = verify("small")
    assert (code, out, err) == (2, "", "error: node counts differ (graph 7, certificate 3)\n")


def test_tournament_families_sizes(capsys):
    rows = bench(capsys, "--n", "10", "--alphas", "1,2,4", "--p-list", "1")
    assert [(r["n"], r["alpha"]) for r in rows] == [(10, 1), (10, 2), (8, 4)]


def test_tournament_families_reject_alpha_below_one(capsys):
    for alpha in (0, -1):  # zero was a modulo by zero
        assert cli.main(["bench", "--n", "10", "--alphas", f"1,{alpha}"]) == 2
        assert capsys.readouterr() == ("", f"error: alpha must be >= 1, got {alpha}\n")
