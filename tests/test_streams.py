from __future__ import annotations

import itertools
import operator
import random

import pytest

import oracles
from conftest import random_digraph, turnstile_stream
from streamcert.digraph import Digraph, transitive_closure
from streamcert.streams import (
    INSERTION_ONLY,
    TURNSTILE,
    ArcStream,
    SpaceBudgetError,
    SpaceLedger,
    StreamFormatError,
    StreamIntegrityError,
    _pass_cut,
    blocks,
    int_root_ceil,
    run_passes,
    select_step,
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
    assert oracles.final_arcs([(1, 0, 1), (-1, 0, 1)]) == set()
    assert oracles.final_arcs([(1, 0, 1), (1, 1, 2)]) == {(0, 1), (1, 2)}
    assert oracles.final_arcs([(1, 0, 1), (-1, 0, 1), (1, 0, 1)]) == {(0, 1)}


def test_turnstile_stream_rejects_multiplicity_outside_zero_one():
    with pytest.raises(StreamIntegrityError):
        ArcStream(2, [(-1, 0, 1)], TURNSTILE)
    with pytest.raises(StreamIntegrityError):
        ArcStream(2, [(1, 0, 1), (1, 0, 1)], TURNSTILE)


def test_turnstile_generator_lands_on_the_graph():
    rng = random.Random(0)
    for seed in range(25):
        g = random_digraph(rng, 2, 12)
        st = turnstile_stream(g, seed)
        assert oracles.final_arcs(st.updates) == g.arcs
        assert len(st) >= g.m


def test_stream_text_round_trip():
    g = Digraph(4, [(0, 1), (2, 3)])
    st = turnstile_stream(g, 3)
    again = ArcStream.from_text(st.to_text())
    assert again.updates == st.updates and again.model == st.model


@pytest.mark.parametrize("text", ["11 ins\n+ 1_0 2\n", "1_1 ins\n", "4 turn\n+ \u0663 2\n", "4 ins\n+ 0 \uff11\n",
                                  "+3 ins\n", "3 turn\n+ +0 1\n", "3 ins\n+ 1 -0\n"])
def test_stream_text_node_ids_are_ascii_decimal(text):
    with pytest.raises(StreamFormatError, match="ASCII decimal"):
        ArcStream.from_text(text)


# every outcome of a broken stream text: the exact class and message
PARSE_FAULTS = [
    ("", "empty stream text"),
    ("\n \r\n\t\n", "empty stream text"),
    ("4\n", "bad header '4', expected 'n model'"),
    ("  4 ins turn \n", "bad header '4 ins turn', expected 'n model'"),
    ("-3 ins\n", "node count must be ASCII decimal, got '-3'"),
    ("65537 ins\n", "node count 65537 above the ceiling of 65536"),
    ("4 wat\n", "unknown model 'wat'"),
    ("4 ins\nx 0 1\n", "bad update line 'x 0 1'"),
    ("2 turn\n+ 0 1\n+- 0 1\n", "bad update line '+- 0 1'"),
    ("4 ins\n+ 1\n", "bad update line '+ 1'"),
    ("4 ins\n  + 0 1 2  \r\n", "bad update line '+ 0 1 2'"),
    ("4 ins\n+ x 1\n", "node ids must be ASCII decimal, got 'x'"),
    ("4 ins\n+ 0 1.5\n", "node ids must be ASCII decimal, got '1.5'"),
    ("4 ins\n+ 1e0 2x\n", "node ids must be ASCII decimal, got '1e0'"),
    ("4 turn\n+ 0 -1\n", "node ids must be ASCII decimal, got '-1'"),
    ("4 ins\n+ 0 4\n", "update (0,4) out of range for n=4"),
    ("4 ins\n+ 0 1\n+ 9 0\n", "update (9,0) out of range for n=4"),
    ("4 turn\n+ 2 2\n", "self-loop update (2,2)"),
    ("2 ins\n- 0 1\n", "deletion in insertion-only stream"),
    ("4 ins\n+ 0 1\n- 0 1\n", "deletion in insertion-only stream"),
    ("2 turn\n+ 0 1\n+ 0 1\n", "update 2: insertion of present arc (0,1)"),
    ("4 ins\n+ 0 1\n+ 1 2\n+ 0 1\n", "update 3: insertion of present arc (0,1)"),
    ("3 turn\n- 1 2\n", "update 1: deletion of absent arc (1,2)"),
    ("4 turn\n+ 0 1\n- 0 1\n- 0 1\n", "update 3: deletion of absent arc (0,1)"),
    ("3 turn\n- 0 1\n+ x 1\n", "update 1: deletion of absent arc (0,1)"),
    ("3 turn\n+ 0 1\n\n- 0 1\n+ 1 1\n+ x 0\n", "self-loop update (1,1)"),
]


@pytest.mark.parametrize("text, message", PARSE_FAULTS)
def test_stream_text_faults_raise_the_first_lines_exact_message(text, message):
    with pytest.raises(StreamFormatError) as caught:
        ArcStream.from_text(text)
    assert type(caught.value) is StreamFormatError
    assert str(caught.value) == message


def test_stream_text_accepts_blank_lines_whitespace_crlf_and_leading_zeros():
    for text in ("3 turn\n+ 0 2\n+ 1 0\n- 0 2\n",
                 "\n\n  3   turn \r\n\r\n\t+ 0\t2 \r\n +  001 0\r\n\n- 00 02",
                 "3 turn\r\n+ 0 2\r\n+ 01 0\r\n- 0 2\r\n"):
        st = ArcStream.from_text(text)
        assert (st.n, st.model, st.updates) == (3, TURNSTILE, ((1, 0, 2), (1, 1, 0), (-1, 0, 2)))
    st = ArcStream.from_text("8 ins\n+ 007 1\n")
    assert st.updates == ((1, 7, 1),) and all(type(x) is int for x in st.updates[0])
    assert len(ArcStream.from_text("65536 ins\n")) == 0


@pytest.mark.parametrize("model", [INSERTION_ONLY, TURNSTILE])
def test_stream_text_round_trip_shares_one_int_per_node_id(model):
    n = 300  # ids above CPython's cache of small ints, so int() would make a new object per token
    rng = random.Random(5)
    arcs = rng.sample([(u, v) for u in range(n) for v in range(n) if u != v], 4000)
    g = Digraph(n, arcs)
    st = ArcStream.from_graph(g, INSERTION_ONLY, seed=3) if model == INSERTION_ONLY else turnstile_stream(g, 3, 500)
    again = ArcStream.from_text(st.to_text())
    assert (again.n, again.model, again.updates) == (st.n, st.model, st.updates)
    objects: dict[int, set[int]] = {}
    for _, u, v in again.updates:
        objects.setdefault(u, set()).add(id(u))
        objects.setdefault(v, set()).add(id(v))
    assert len(objects) > 250 and all(len(ids) == 1 for ids in objects.values())


def test_stream_constructor_rejects_float_ids():
    for ups in ([(1, 1.9, 0)], [(1, 0, 2.0)], [(1, 0, 1), (-1, 0.0, 1)]):
        with pytest.raises(TypeError):
            ArcStream(3, ups, TURNSTILE)


class _StoreAll:
    def __init__(self, ledger):
        self.account = ledger.open("store")
        self.account.charge(1)  # a fixed word held from the start
        self.seen = []

    def begin_pass(self, i):
        return self.feed

    def feed(self, updates):
        for update in updates:
            self.seen.append(update)
            self.account.charge(1)

    def end_pass(self, i):
        pass


def test_run_passes_delivers_in_order_each_pass():
    g = Digraph(5, [(0, 1), (1, 2), (3, 4)])
    st = ArcStream.from_graph(g, INSERTION_ONLY)
    ledger = SpaceLedger()
    consumer = _StoreAll(ledger)
    run_passes(st, [consumer], 3)
    assert consumer.seen == list(st.updates) * 3
    # one word per stored update plus the fixed word
    assert ledger.peak == 3 * len(st.updates) + 1


class _HoldPresent:
    """Logs every update it is fed into a shared list and holds one word per
    present arc: charged on ``+``, released on ``-``."""

    def __init__(self, name, ledger, log):
        self.name, self.log = name, log
        self.account = ledger.open(name)

    def begin_pass(self, i):
        return self.feed

    def feed(self, updates):
        for sign, u, v in updates:
            self.log.append((self.name, sign, u, v))
            if sign > 0:
                self.account.charge(1)
            else:
                self.account.release(1)

    def end_pass(self, i):
        self.account.drop()


def test_shared_pass_interleaves_consumers_and_the_ledger_sees_it():
    hand = ArcStream(3, [(1, 0, 1), (1, 1, 2), (1, 2, 0), (-1, 0, 1), (-1, 1, 2), (1, 0, 1)], TURNSTILE)
    rng = random.Random(11)
    for st in [hand] + [turnstile_stream(random_digraph(rng, 3, 9), seed) for seed in range(5)]:
        ledger, log = SpaceLedger(), []
        run_passes(st, [_HoldPresent("a", ledger, log), _HoldPresent("b", ledger, log)], 2)
        assert log == [(name, *up) for up in st.updates for name in "ab"] * 2
        # both hold the present arcs at once; delivering the pass to one
        # consumer after the other would report a lower peak
        alone = max(itertools.accumulate(sign for sign, _, _ in st.updates))
        assert ledger.peak == 2 * alone


def test_a_lone_consumer_is_fed_the_streams_own_tuple_once_per_pass():
    st = turnstile_stream(Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 2)
    fed = []

    class _Keep:
        def begin_pass(self, i):
            return fed.append

        def end_pass(self, i):
            pass

    run_passes(st, [_Keep()], 3)
    assert len(fed) == 3 and all(batch is st.updates for batch in fed)


def test_space_ledger_peak_and_release():
    ledger = SpaceLedger()
    a = ledger.open("a")
    b = ledger.open("b")
    a.charge(2)
    a.charge(5)
    b.charge(3)
    assert ledger.current == 10 and ledger.peak == 10
    a.release(4)
    assert ledger.current == 6 and ledger.peak == 10
    b.drop()
    a.drop()
    assert ledger.current == 0 and ledger.peak == 10
    a.drop()  # a second drop has nothing left to release
    assert ledger.current == 0 and ledger.peak == 10
    with pytest.raises(ValueError):
        b.release(1)


def test_space_budget_raises_at_the_first_charge_past_it():
    """A total at the budget is within it; the charge that takes the total past
    it raises with that total, which the ledger's total and peak keep."""
    ledger = SpaceLedger(budget=2)
    acct = ledger.open("probe")
    acct.charge(2)
    with pytest.raises(SpaceBudgetError) as err:
        acct.charge(3)
    assert (err.value.words, err.value.budget) == (5, 2)
    assert ledger.current == ledger.peak == 5


def test_a_release_above_budget_is_not_another_overrun():
    """Only a charge raises: releasing words lowers the total even when it
    stays above budget, and the peak stays where the charge left it."""
    ledger = SpaceLedger(budget=3)
    acct = ledger.open("probe")
    with pytest.raises(SpaceBudgetError):
        acct.charge(5)
    acct.release(1)
    assert ledger.current == 4 and ledger.peak == 5
    acct.drop()
    assert ledger.current == 0 and ledger.peak == 5


def test_global_budget_applies_across_accounts():
    ledger = SpaceLedger(budget=6)
    a = ledger.open("a")
    b = ledger.open("b")
    a.charge(4)
    with pytest.raises(SpaceBudgetError):
        b.charge(4)


def test_block_helpers_tile_every_span():
    lo = 5
    for span in range(201):
        for nblocks in range(1, span + 2):
            find, starts = blocks(span, nblocks)
            assert isinstance(starts, tuple) and len(starts) == nblocks + 1
            bounds = [(lo + a, lo + z) for a, z in zip(starts, starts[1:])]
            assert bounds[0][0] == lo and bounds[-1][1] == lo + span
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            sizes = [hi - start for start, hi in bounds]
            assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
            for i, (start, hi) in enumerate(bounds):
                assert all(find(x - lo) == i for x in range(start, hi))
            assert (find is operator.index) == (nblocks >= span)  # blocks of one offset at most


def test_int_root_ceil_is_the_smallest_root():
    for k in range(1, 7):
        ns = set(range(300)) | {b**k + d for b in range(2, 400) for d in (-1, 0, 1)}
        for n in ns:
            b = int_root_ceil(n, k)
            assert b >= 1 and b**k >= n and (b == 1 or (b - 1) ** k < n), (n, k, b)


def _first_pass(span, q):
    """The open selection a turnstile level starts over ``span`` ranks with q passes."""
    nblocks, find, _ = _pass_cut(span, q)
    return 0, span, find, [0] * nblocks


def _observe(entry, rank, sign):
    """The counter step a level feed makes for an update at ``rank``."""
    lo, hi, find, counters = entry
    if lo <= rank < hi:
        counters[find(rank - lo)] += sign


def _run(span, q, observe):
    """Drive one selection over ``span`` ranks: ``observe(entry)`` once per
    pass, then ``select_step``.  Its answer and the counts of its passes."""
    entry, widths = _first_pass(span, q), []
    for passes in range(q, 0, -1):
        widths.append(len(entry[3]))
        observe(entry)
        entry = select_step(entry[0], entry[1], entry[3], passes)
        if type(entry) is not tuple:
            return entry, widths
    raise AssertionError(f"a selection over {span} ranks is still open after {q} passes")


def _select(stream, candidates, q):
    """Candidate arcs ranked in sorted order, one selection over them driven
    by a counter step per update and ``select_step`` per pass: the minimum
    arc of final multiplicity 1, or None."""
    order = sorted(candidates)
    rank_of = {arc: i for i, arc in enumerate(order)}

    def observe(entry):
        for sign, u, v in stream.updates:
            if (u, v) in rank_of:
                _observe(entry, rank_of[u, v], sign)

    rank, _ = _run(len(order), q, observe)
    return None if rank is None else order[rank]


def test_min_select_block_counter_walkthrough():
    """Sixteen candidates, the first eight deleted: two 4-block passes land on 9."""

    def observe(entry):
        for rank in range(16):
            _observe(entry, rank, 1)
        for rank in range(8):
            _observe(entry, rank, -1)

    entry = _first_pass(16, 2)
    assert len(entry[3]) == 4
    observe(entry)
    entry = select_step(0, 16, entry[3], 2)
    assert entry[:2] == (8, 12) and len(entry[3]) == 4
    observe(entry)
    assert select_step(8, 12, entry[3], 1) == 8  # rank 8 = ninth candidate
    # the same on a stream: arc (0, 9) is the ninth candidate
    updates = [(1, 0, w) for w in range(1, 17)] + [(-1, 0, w) for w in range(1, 9)]
    candidates = [(0, w) for w in range(1, 17)]
    assert _select(ArcStream(17, updates, TURNSTILE), candidates, 2) == (0, 9)
    # everything deleted -> no survivor
    everything = updates + [(-1, 0, w) for w in range(9, 17)]
    assert _select(ArcStream(17, everything, TURNSTILE), candidates, 2) is None
    # a single pass degenerates to one counter per candidate
    st = ArcStream(6, [(1, 0, w) for w in (5, 2, 4)], TURNSTILE)
    assert _select(st, [(0, w) for w in (2, 4, 5)], 1) == (0, 2)
    # an empty range answers None
    assert select_step(0, 0, [], 3) is None and _run(0, 3, lambda e: None)[0] is None


def test_min_select_passes_never_grow():
    """A span of at most b**P leaves a block of at most b**(P-1), so no pass
    has more blocks than the one before, and an owner that charges their
    number never raises its peak by moving on to the next pass.  Each search
    answers, a rank or None without counters, in at most q passes and lands
    on its target, and on random turnstile streams on the final graph's
    minimum arc."""
    for span in range(1, 301):
        for q in range(1, 6):
            for target in sorted({0, span // 2, span - 1}) + [None]:
                got, widths = _run(span, q, lambda e: target is None or _observe(e, target, 1))
                assert widths == sorted(widths, reverse=True), (span, q, target, widths)
                assert len(widths) <= q
                assert got == target
    # random turnstile streams: the selection is the final graph's minimum arc
    rng = random.Random(9)
    for seed in range(40):
        g = random_digraph(rng, 2, 12)
        st = turnstile_stream(g, seed)
        candidates = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
        survivors = oracles.final_arcs(st.updates)
        expect = min(survivors) if survivors else None
        for q in (1, 2, 3):
            assert _select(st, candidates, q) == expect, (seed, q)


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
    assert transitive_closure(cert) == transitive_closure(g)
    assert stats.peak_words == 568
    # the 10x10 grid is bipartite with alpha = 50, so alpha * n^1.5 = 50000
    assert stats.peak_words <= 4 * 50_000
