from __future__ import annotations

import random
from collections import Counter

import pytest

import oracles
from conftest import random_digraph, stream_of, turnstile_stream
from streamcert.certify_one import (
    Certificate,
    RecursionPlan,
    one_cert_stream,
    tc_preserving_prune,
    validate_one_cert,
)
from streamcert.digraph import Digraph, chain_cover_minimum, scc_ids, transitive_closure
from streamcert.hardgen import embed_tournament, gadget_triangle, transitive_tournament
from streamcert.streams import INSERTION_ONLY, TURNSTILE, ArcStream, SpaceLedger


def test_certificate_field_validation():
    with pytest.raises(ValueError):
        Certificate(3, frozenset(), kind="edge", k=1)
    with pytest.raises(ValueError):
        Certificate(3, frozenset(), kind="node", k=0)
    cert = Certificate(3, frozenset({(0, 1)}), kind="node", k=1)
    assert cert.graph().arcs == {(0, 1)}


def test_recursion_plan_validation_and_split():
    with pytest.raises(ValueError):
        RecursionPlan(p=0)
    with pytest.raises(ValueError):
        RecursionPlan(p=1, mp_passes=1)
    with pytest.raises(ValueError):
        RecursionPlan(p=3, mp_passes=3)
    assert RecursionPlan(p=1).turnstile_split() == (0, 1)
    for p in range(2, 9):
        for q in [None] + list(range(1, p)):
            d, qq = RecursionPlan(p=p, mp_passes=q).turnstile_split()
            assert d >= 1 and qq >= 1 and d * qq + 1 <= p


def test_prune_transitive_tournament_to_hamiltonian_path():
    g = transitive_tournament(5)
    h = tc_preserving_prune(g)
    assert h.m == 4
    assert h.arcs == {(0, 1), (1, 2), (2, 3), (3, 4)}
    assert transitive_closure(h) == transitive_closure(g)


def test_prune_keeps_cycles_and_empty_graphs():
    cyc = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert tc_preserving_prune(cyc).arcs == cyc.arcs
    empty = Digraph(4)
    assert tc_preserving_prune(empty).arcs == frozenset()


def test_prune_bound_and_witness_on_random_graphs():
    rng = random.Random(10)
    for _ in range(60):
        drawn = random_digraph(rng, 1, 12)
        n = drawn.n
        relabelled = Digraph(n, ((n - 1 - u, n - 1 - v) for u, v in drawn.arcs))
        for g in (drawn, relabelled):
            h = tc_preserving_prune(g)
            assert h.arcs <= g.arcs
            assert transitive_closure(h) == transitive_closure(g)
            alpha = oracles.independence_number(g.n, g.arcs)
            assert h.m <= (alpha + 2) * g.n
            report = validate_one_cert(g, Certificate(g.n, h.arcs, kind="node", k=1))
            assert report.ok, report


def test_prune_keeps_one_cross_arc_per_node_and_chain():
    rng = random.Random(14)
    for _ in range(100):
        g = random_digraph(rng, 2, 16)
        comp = scc_ids(g)
        chain_of = {v: ci for ci, chain in enumerate(chain_cover_minimum(g).chains) for v in chain}
        h = tc_preserving_prune(g)
        kept = Counter((u, chain_of[v]) for u, v in h.arcs if comp[u] != comp[v])
        assert max(kept.values(), default=0) <= 1, sorted(g.arcs)


def test_one_pass_run_equals_offline_prune():
    rng = random.Random(11)
    for seed in range(15):
        g = random_digraph(rng, 2, 14)
        st = ArcStream.from_graph(g, INSERTION_ONLY, seed=seed)
        cert, stats = one_cert_stream(st, RecursionPlan(p=1))
        assert stats.passes == 1
        assert cert.arcs == tc_preserving_prune(g).arcs


def test_insertion_pass_budget_is_exact():
    g = transitive_tournament(20)
    for p in (1, 2, 3, 4):
        st = ArcStream.from_graph(g, INSERTION_ONLY, seed=p)
        cert, stats = one_cert_stream(st, RecursionPlan(p=p))
        assert stats.passes == p
        assert transitive_closure(cert.graph()) == transitive_closure(g)


def test_turnstile_pass_budget_matches_split():
    g = transitive_tournament(12)
    for p in (1, 2, 3, 5):
        for q in {None, 1, max(1, p - 2)}:
            if q is not None and (p == 1 or q > p - 1):
                continue
            plan = RecursionPlan(p=p, mp_passes=q)
            st = turnstile_stream(g, seed=p * 7 + (q or 0))
            cert, stats = one_cert_stream(st, plan)
            d, qq = plan.turnstile_split()
            assert stats.passes == d * qq + 1
            assert transitive_closure(cert.graph()) == transitive_closure(g)


def test_streamed_certificates_match_closure_oracle():
    rng = random.Random(12)
    for trial in range(40):
        g = random_digraph(rng, 2, 14)
        ref = oracles.closure_sets(g.n, g.arcs)
        for model in (INSERTION_ONLY, TURNSTILE):
            for p in (1, 2, 3):
                cert, _ = one_cert_stream(stream_of(g, model, trial), RecursionPlan(p=p))
                assert cert.arcs <= g.arcs
                got = oracles.closure_sets(g.n, cert.arcs)
                assert got == ref, (trial, model, p)


def test_figure_tournament_two_pass_certificate():
    zero = [[0, 0], [0, 0]]
    left = gadget_triangle(zero, zero)
    right = gadget_triangle([[0, 0], [1, 0]], [[1, 0], [1, 1]])
    g = embed_tournament([left, right], 6)
    assert g.n == 12
    st = ArcStream.from_graph(g, INSERTION_ONLY, seed=0)
    cert, stats = one_cert_stream(st, RecursionPlan(p=2))
    assert stats.passes == 2
    assert cert.provenance["b"] == 4
    assert transitive_closure(cert.graph()) == transitive_closure(g)


def test_extra_phase_survives_adversarial_deletions():
    """Deleting the low-position chain arcs late must not poison the kept arc."""
    n = 6
    path = [(i, i + 1) for i in range(4)]
    updates = (
        [(1, 5, 1), (1, 5, 2), (1, 5, 3)]
        + [(1, u, v) for u, v in path]
        + [(-1, 5, 1), (-1, 5, 2)]
    )
    st = ArcStream(n, updates, TURNSTILE)
    final = Digraph(n, path + [(5, 3)])
    for p in (2, 3):
        cert, _ = one_cert_stream(st, RecursionPlan(p=p))
        assert (5, 3) in cert.arcs
        assert transitive_closure(cert.graph()) == transitive_closure(final)


def test_determinism_per_stream_and_plan():
    g = transitive_tournament(15)
    st = ArcStream.from_graph(g, INSERTION_ONLY, seed=3)
    a, stats_a = one_cert_stream(st, RecursionPlan(p=2))
    b, stats_b = one_cert_stream(st, RecursionPlan(p=2))
    assert a.arcs == b.arcs
    assert stats_a == stats_b


def test_space_scales_sublinearly_in_arcs_with_more_passes():
    g = transitive_tournament(64)
    peaks = {}
    for p in (1, 2, 3):
        st = ArcStream.from_graph(g, INSERTION_ONLY, seed=0)
        _, stats = one_cert_stream(st, RecursionPlan(p=p))
        peaks[p] = stats.peak_words
    assert peaks[1] > peaks[2] > peaks[3]
    # frozen constant over the alpha=1 tournament family: peak <= 2.5 * n^(1 + 1/p)
    for n in (27, 64):
        for p in (2, 3):
            st = ArcStream.from_graph(transitive_tournament(n), INSERTION_ONLY, seed=0)
            _, stats = one_cert_stream(st, RecursionPlan(p=p))
            assert stats.peak_words <= 2.5 * n ** (1 + 1 / p)


def test_strict_global_budget_stops_hungry_runs():
    from streamcert.streams import SpaceBudgetError

    g = transitive_tournament(30)
    st = ArcStream.from_graph(g, INSERTION_ONLY, seed=0)
    with pytest.raises(SpaceBudgetError):
        one_cert_stream(st, RecursionPlan(p=1), SpaceLedger(strict=True, budget=20))
    relaxed = SpaceLedger(budget=20)
    cert, _ = one_cert_stream(st, RecursionPlan(p=1), relaxed)
    assert relaxed.violations
    assert transitive_closure(cert.graph()) == transitive_closure(g)


def test_validator_flags_broken_and_foreign_certs():
    path = Digraph(3, [(0, 1), (1, 2)])
    good = validate_one_cert(path, Certificate(3, path.arcs, kind="node", k=1))
    assert good.ok and good.violations == ()
    broken = validate_one_cert(
        path, Certificate(3, frozenset({(0, 1)}), kind="node", k=1)
    )
    assert not broken.tc_equal
    assert (1, 2) in broken.violations and (0, 2) in broken.violations
    foreign = validate_one_cert(
        path, Certificate(3, frozenset({(2, 1)}), kind="node", k=1)
    )
    assert not foreign.contained
    with pytest.raises(ValueError):
        validate_one_cert(path, Certificate(4, frozenset(), kind="node", k=1))


def test_validator_rejects_dense_scc_interiors():
    k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    report = validate_one_cert(k4, Certificate(4, k4.arcs, kind="node", k=1))
    assert report.tc_equal and not report.structural_ok
