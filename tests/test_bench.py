from __future__ import annotations

import csv
import io
import json

import pytest

import oracles
from streamcert import cli
from streamcert.bench import (
    bench_space_passes,
    rows_to_csv,
    save_results,
    tournament_families,
    verify_texts,
)
from streamcert.digraph import Digraph
from streamcert.hardgen import circulant, transitive_tournament
from streamcert.streams import INSERTION_ONLY, TURNSTILE


def test_rows_cover_the_grid():
    fams = [("tt8", transitive_tournament(8), 1)]
    rows = bench_space_passes(fams, p_values=(1, 2), models=(INSERTION_ONLY, TURNSTILE))
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


def test_peel_and_kcert_rows_verify():
    fams = [("circ", circulant(9, 2), 3)]
    peel = bench_space_passes(fams, alg="peel", p_values=(1,), k=2)
    assert peel[0]["verified"] == "pass" and peel[0]["passes"] == 2
    sampled = bench_space_passes(fams, alg="kcert", p_values=(1,), k=2)
    assert sampled[0]["verified"] == "pass" and sampled[0]["k"] == 2


def test_circulant_bench_reads_alpha_from_its_construction(capsys):
    assert cli.main(["bench", "--family", "circulant", "--n", "2000", "--k", "2", "--p-list", "1"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [(r["n"], r["alpha"], r["verified"]) for r in rows] == [("2000", "666", "pass")]


def test_tournament_rows_carry_the_independence_number():
    fams = tournament_families(alphas=(1, 4), n=3)  # 3 nodes hold no block of 4
    for _, g, alpha in fams:
        assert alpha == oracles.independence_number(g.n, g.arcs)
    rows = bench_space_passes(fams, p_values=(1,))
    assert [(r["n"], r["alpha"], r["verified"]) for r in rows] == [(3, 1, "pass"), (0, 0, "pass")]


def test_bad_alg_name():
    with pytest.raises(ValueError):
        bench_space_passes([("x", transitive_tournament(4), 1)], alg="magic")


def test_failed_row_carries_context():
    weak = Digraph(4, [(0, 1), (1, 2), (2, 3)])  # not 2-arc-strong
    with pytest.raises(RuntimeError, match="family=weak .*p=1"):
        bench_space_passes([("weak", weak, 2)], alg="peel", k=2)


def test_csv_round_trip():
    rows = bench_space_passes([("tt6", transitive_tournament(6), 1)], p_values=(1,))
    text = rows_to_csv(rows)
    back = list(csv.DictReader(io.StringIO(text)))
    assert len(back) == 1
    assert back[0]["n"] == "6" and back[0]["verified"] == "pass"


def test_save_results_manifest(tmp_path):
    rows = bench_space_passes([("tt6", transitive_tournament(6), 1)], p_values=(1,))
    config = {"families": "tt6", "p_values": [1]}
    csv_path, manifest_path = save_results(rows, tmp_path / "out", config)
    assert csv_path.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["rows"] == 1
    assert manifest["config"] == config
    assert len(manifest["config_hash"]) == 64
    # same config hashes identically, different config does not
    _, again = save_results(rows, tmp_path / "out2", config)
    assert json.loads(again.read_text())["config_hash"] == manifest["config_hash"]
    _, other = save_results(rows, tmp_path / "out3", {"families": "tt8"})
    assert json.loads(other.read_text())["config_hash"] != manifest["config_hash"]


def test_verify_texts_exit_codes():
    g = circulant(7, 2).to_text()
    code, text = verify_texts(g, g, k=2)  # the graph certifies itself
    assert code == 0 and text.endswith("OK")

    ring = Digraph(7, [(i, (i + 1) % 7) for i in range(7)]).to_text()
    code, text = verify_texts(g, ring, k=2)
    assert code == 1 and text.endswith("FAIL")
    assert "required" in text

    code, text = verify_texts(g, Digraph(3, [(0, 1)]).to_text())
    assert code == 2 and "node counts differ" in text


def test_tournament_families_sizes():
    fams = tournament_families(alphas=(1, 2, 4), n=10)
    assert [name for name, _, _ in fams] == ["tournament-a1", "tournament-a2", "tournament-a4"]
    assert [(g.n, alpha) for _, g, alpha in fams] == [(10, 1), (10, 2), (8, 4)]


def test_tournament_families_reject_alpha_below_one():
    for alpha in (0, -1):  # zero was a modulo by zero
        with pytest.raises(ValueError, match=f"alpha must be >= 1, got {alpha}"):
            tournament_families(alphas=(1, alpha), n=10)
