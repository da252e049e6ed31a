from __future__ import annotations

import random

import pytest

import oracles
from conftest import random_digraph, turnstile_stream
from streamcert.digraph import Digraph, transitive_closure
from streamcert.streams import (
    INSERTION_ONLY,
    TURNSTILE,
    ArcStream,
    MinSelect,
    SpaceBudgetError,
    SpaceLedger,
    StreamFormatError,
    StreamIntegrityError,
    block_bounds,
    block_of,
    final_multiplicity,
    int_root_ceil,
    mp_min_select,
    run_passes,
)


def test_insertion_only_rejects_deletions_and_duplicates():
    with pytest.raises(StreamIntegrityError):
        ArcStream(3, [(1, 0, 1), (-1, 0, 1)], INSERTION_ONLY)
    with pytest.raises(StreamIntegrityError):
        ArcStream(3, [(1, 0, 1), (1, 0, 1)], INSERTION_ONLY)
    with pytest.raises(StreamIntegrityError):
        ArcStream(3, [(1, 0, 0)], TURNSTILE)
    with pytest.raises(StreamIntegrityError):
        ArcStream(2, [(1, 0, 5)], TURNSTILE)
    with pytest.raises(ValueError):
        ArcStream(2, [(2, 0, 1)], TURNSTILE)
    with pytest.raises(ValueError):
        ArcStream(2, [], "bulk")


def test_final_multiplicity_basic_sequences():
    assert final_multiplicity(
        ArcStream(2, [(1, 0, 1), (-1, 0, 1)], TURNSTILE)
    ).arcs == frozenset()
    assert final_multiplicity(
        ArcStream(3, [(1, 0, 1), (1, 1, 2)], TURNSTILE)
    ).arcs == {(0, 1), (1, 2)}
    assert final_multiplicity(
        ArcStream(2, [(1, 0, 1), (-1, 0, 1), (1, 0, 1)], TURNSTILE)
    ).arcs == {(0, 1)}


def test_final_multiplicity_rejects_malformed_turnstile():
    with pytest.raises(StreamIntegrityError):
        final_multiplicity(ArcStream(2, [(-1, 0, 1)], TURNSTILE))
    with pytest.raises(StreamIntegrityError):
        final_multiplicity(ArcStream(2, [(1, 0, 1), (1, 0, 1)], TURNSTILE))


def test_turnstile_generator_lands_on_the_graph():
    rng = random.Random(0)
    for seed in range(25):
        g = random_digraph(rng, 2, 12)
        st = turnstile_stream(g, seed)
        assert final_multiplicity(st).arcs == g.arcs
        assert len(st) >= g.m


def test_stream_text_round_trip():
    g = Digraph(4, [(0, 1), (2, 3)])
    st = turnstile_stream(g, 3)
    again = ArcStream.from_text(st.to_text())
    assert again.updates == st.updates and again.model == st.model
    for bad in ("", "4\n", "4 ins\n+ 1\n", "4 ins\nx 0 1\n", "4 wat\n", "2 ins\n- 0 1\n",
                "2 turn\n+ 0 1\n+- 0 1\n"):
        with pytest.raises(StreamFormatError):
            ArcStream.from_text(bad)


def test_permuted_preserves_multiset():
    g = Digraph(6, [(i, (i + 1) % 6) for i in range(6)])
    st = ArcStream.from_graph(g, INSERTION_ONLY, seed=1)
    assert sorted(st.permuted(7).updates) == sorted(st.updates)
    with pytest.raises(ValueError):
        turnstile_stream(g, 0).permuted(1)


class _StoreAll:
    def __init__(self, ledger):
        self.account = ledger.open("store", constant=1)
        self.seen = []

    def begin_pass(self, i):
        pass

    def update(self, sign, u, v):
        self.seen.append((sign, u, v))
        self.account.charge(1)

    def end_pass(self, i):
        pass


def test_run_passes_delivers_in_order_each_pass():
    g = Digraph(5, [(0, 1), (1, 2), (3, 4)])
    st = ArcStream.from_graph(g, INSERTION_ONLY)
    ledger = SpaceLedger()
    consumer = _StoreAll(ledger)
    stats = run_passes(st, [consumer], 3)
    assert stats.passes == 3
    assert consumer.seen == list(st.updates) * 3
    # one word per stored update plus the account constant
    assert ledger.peak == 3 * len(st.updates) + 1


def test_space_ledger_peak_and_release():
    ledger = SpaceLedger()
    a = ledger.open("a", constant=2)
    b = ledger.open("b")
    a.charge(5)
    b.charge(3)
    assert ledger.current == 10 and ledger.peak == 10
    a.release(4)
    assert ledger.current == 6 and ledger.peak == 10
    b.set_extra(0)
    a.drop()
    assert ledger.current == 0 and ledger.peak == 10
    with pytest.raises(ValueError):
        b.release(1)


def test_space_budget_strict_vs_recording():
    soft = SpaceLedger()
    acct = soft.open("probe", budget=2)
    acct.charge(5)
    assert ("probe", 7, 2) in soft.violations or ("probe", 5, 2) in soft.violations
    for _ in range(50):
        acct.charge(1)
    assert soft.violations == [("probe", 5, 2)]
    assert soft.violation_count == 51

    shared = SpaceLedger(budget=3)
    a, b = shared.open("a"), shared.open("b")
    for _ in range(10):
        a.charge(1)
        b.charge(1)
    assert shared.violations == [("total", 4, 3)]
    assert shared.violation_count == 17  # every bump from 4 to 20 words

    hard = SpaceLedger(strict=True)
    acct2 = hard.open("probe", budget=2)
    with pytest.raises(SpaceBudgetError) as err:
        acct2.charge(5)
    assert err.value.args and "probe" in str(err.value)


def test_global_budget_applies_across_accounts():
    ledger = SpaceLedger(strict=True, budget=6)
    a = ledger.open("a")
    b = ledger.open("b")
    a.charge(4)
    with pytest.raises(SpaceBudgetError):
        b.charge(4)


def test_block_helpers_tile_every_span():
    lo = 5
    for span in range(201):
        for nblocks in range(1, span + 2):
            bounds = [block_bounds(lo, span, nblocks, i) for i in range(nblocks)]
            assert bounds[0][0] == lo and bounds[-1][1] == lo + span
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            sizes = [hi - start for start, hi in bounds]
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
            for i, (start, hi) in enumerate(bounds):
                assert all(block_of(x - lo, span, nblocks) == i for x in range(start, hi))


def test_int_root_ceil_is_the_smallest_root():
    for k in range(1, 7):
        ns = set(range(300)) | {b**k + d for b in range(2, 400) for d in (-1, 0, 1)}
        for n in ns:
            b = int_root_ceil(n, k)
            assert b >= 1 and b**k >= n and (b == 1 or (b - 1) ** k < n), (n, k, b)


def test_min_select_block_counter_walkthrough():
    """Sixteen candidates, the first eight deleted: two 4-block passes land on 9."""
    inst = MinSelect(16, 2)
    inst.begin_pass()
    assert inst.nblocks == 4
    for rank in range(16):
        inst.observe(rank, 1)
    for rank in range(8):
        inst.observe(rank, -1)
    inst.end_pass()
    assert not inst.done and (inst.lo, inst.hi) == (8, 12)
    inst.begin_pass()
    assert inst.nblocks == 4
    for rank in range(16):
        inst.observe(rank, 1)
    for rank in range(8):
        inst.observe(rank, -1)
    inst.end_pass()
    assert inst.done and inst.result == 8  # rank 8 = ninth candidate


def test_min_select_counter_space_is_charged():
    ledger = SpaceLedger()
    acct = ledger.open("select")
    inst = MinSelect(16, 2, account=acct)
    for _ in range(2):
        inst.begin_pass()
        for rank in range(16):
            inst.observe(rank, 1)
        for rank in range(8):
            inst.observe(rank, -1)
        inst.end_pass()
    assert inst.result == 8
    assert ledger.peak == 4  # one counter per block, four blocks a pass


def test_mp_min_select_spec_values():
    n = 17
    updates = [(1, 0, w) for w in range(1, 17)] + [(-1, 0, w) for w in range(1, 9)]
    st = ArcStream(n, updates, TURNSTILE)
    candidates = [(0, w) for w in range(1, 17)]
    assert mp_min_select(st, candidates, 2) == (0, 9)
    # everything deleted -> no survivor
    st2 = ArcStream(n, updates + [(-1, 0, w) for w in range(9, 17)], TURNSTILE)
    assert mp_min_select(st2, candidates, 2) is None
    # single pass degenerates to one counter per candidate
    st3 = ArcStream(6, [(1, 0, w) for w in (5, 2, 4)], TURNSTILE)
    assert mp_min_select(st3, [(0, w) for w in (2, 4, 5)], 1) == (0, 2)


def test_mp_min_select_matches_offline_minimum():
    rng = random.Random(9)
    for seed in range(40):
        g = random_digraph(rng, 2, 12)
        st = turnstile_stream(g, seed)
        candidates = [
            (u, v) for u in range(g.n) for v in range(g.n) if u != v
        ]
        survivors = final_multiplicity(st).arcs
        expect = min(survivors) if survivors else None
        for q in (1, 2, 3):
            assert mp_min_select(st, candidates, q) == expect, (seed, q)


def test_mp_min_select_rejects_ambiguous_ranks():
    st = ArcStream(3, [(1, 0, 1)], TURNSTILE)
    with pytest.raises(ValueError):
        mp_min_select(st, [(0, 1), (0, 2)], 1, rank=lambda arc: 0)
    with pytest.raises(ValueError):
        mp_min_select(st, [(0, 1), (0, 1)], 1)


def test_grid_family_two_pass_space_regression():
    arcs = []
    for i in range(10):
        for j in range(10):
            v = i * 10 + j
            if j < 9:
                arcs.append((v, v + 1))
            if i < 9:
                arcs.append((v, v + 10))
    g = Digraph(100, arcs)
    from streamcert.certify_one import RecursionPlan, one_cert_stream

    st = ArcStream.from_graph(g, INSERTION_ONLY, seed=0)
    cert, stats = one_cert_stream(st, RecursionPlan(p=2))
    assert transitive_closure(cert.graph()) == transitive_closure(g)
    assert stats.peak_words == 568
    # the 10x10 grid is bipartite with alpha = 50, so alpha * n^1.5 = 50000
    assert stats.peak_words <= 4 * 50_000
