from __future__ import annotations

import dataclasses
import hashlib
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import random_digraph, random_multi_scc_digraph, stream_of, turnstile_stream
from streamcert.certify_k import (
    SampleScheme,
    k_arc_cert_peeling,
    k_arc_cert_sampled,
    k_node_cert,
)
from streamcert.certify_one import (
    Certificate,
    OneCertRun,
    RecursionPlan,
    _prune,
    one_cert_stream,
    tc_preserving_prune,
    validate_one_cert,
)
from streamcert.digraph import (
    Digraph,
    _scc_branching_arcs,
    chain_cover_minimum,
    scc_ids,
    scc_tarjan,
    transitive_closure,
)
from streamcert.hardgen import alpha_family, embed_tournament, gadget_triangle, transitive_tournament
from streamcert.streams import (
    INSERTION_ONLY,
    TURNSTILE,
    ArcStream,
    SpaceBudgetError,
    SpaceLedger,
    StreamStats,
    blocks,
)


def test_certificate_field_validation():
    with pytest.raises(ValueError):
        Certificate(3, frozenset(), kind="edge", k=1)
    with pytest.raises(ValueError):
        Certificate(3, frozenset(), kind="node", k=0)
    for arcs in ({(1, 1)}, {(0, 3)}):  # a self-loop, a head out of range: checked when built
        with pytest.raises(ValueError):
            Certificate(3, arcs, kind="arc", k=1)
    cert = Certificate(3, frozenset({(0, 1)}), kind="node", k=1)
    assert cert == Digraph(3, {(0, 1)}) and hash(cert) == hash(Digraph(3, {(0, 1)}))


def test_recursion_plan_validation_and_split():
    with pytest.raises(ValueError):
        RecursionPlan(p=0)
    with pytest.raises(ValueError, match=r"in \[1, 64\], got 65"):
        RecursionPlan(p=65)
    assert [f.name for f in dataclasses.fields(RecursionPlan)] == ["p"]
    splits = {p: RecursionPlan(p=p).turnstile_split() for p in range(1, 65)}
    assert [splits[p] for p in (1, 2, 4, 5, 7, 10, 64)] == [(0, 1), (1, 1), (3, 1), (2, 2), (3, 2), (3, 3), (9, 7)]
    for p, (d, q) in splits.items():
        # q passes of selection per level, about sqrt(p - 1), and no whole level left unspent
        assert q >= 1 and q * q <= max(1, p - 1) < (q + 1) ** 2
        assert d * q + 1 <= p < (d + 1) * q + 1


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


def test_prune_and_validate_a_wide_sparse_dag():
    """3n arcs, each from u to one of its next 63 ids: a DAG of width 122 at
    n = 2048, the shape on which one augmenting search per number, with no
    greedy start, takes cubic time."""
    n, rng = 2048, random.Random(1)
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < 3 * n:
        u = rng.randrange(n - 1)
        arcs.add((u, rng.randint(u + 1, min(n - 1, u + 63))))
    g = Digraph(n, arcs)
    assert len(chain_cover_minimum(g)) == 122
    h = tc_preserving_prune(g)
    assert h.arcs <= g.arcs and h.m <= (122 + 2) * n
    report = validate_one_cert(g, Certificate(n, h.arcs, kind="node", k=1))
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


def test_prune_runs_one_scc_decomposition(monkeypatch):
    from streamcert import certify_one, digraph

    calls = []
    tarjan = digraph._tarjan

    def counting(n, out, *wrap):
        calls.append(n)
        return tarjan(n, out, *wrap)

    # both bindings of the one Tarjan core, so a call through scc_tarjan counts too
    monkeypatch.setattr(digraph, "_tarjan", counting)
    monkeypatch.setattr(certify_one, "_tarjan", counting)
    rng = random.Random(15)
    graphs = [Digraph(0), Digraph(3)] + [random_digraph(rng, 2, 16) for _ in range(60)]
    for g in graphs:
        calls.clear()
        h = tc_preserving_prune(g)
        assert len(calls) == (1 if g.arcs else 0), sorted(g.arcs)
        assert transitive_closure(h) == transitive_closure(g)


def test_validator_decomposes_each_graph_once(monkeypatch):
    from streamcert import certify_one, digraph

    g = alpha_family(64, 4)
    cert = Certificate(g.n, tc_preserving_prune(g).arcs, kind="node", k=1)
    assert cert != g
    calls = Counter()
    tarjan = digraph.scc_tarjan

    def counting(x):
        calls["g" if x == g else "h"] += 1
        return tarjan(x)

    monkeypatch.setattr(digraph, "scc_tarjan", counting)
    monkeypatch.setattr(certify_one, "scc_tarjan", counting)
    assert validate_one_cert(g, cert).ok
    assert calls == {"h": 1}


def test_scc_branchings_equal_per_component_bfs():
    # reference: BFS branchings of each induced component, re-indexed by sorted id
    rng = random.Random(16)
    several = 0
    for _ in range(80):
        drawn = random_digraph(rng, 6, 24, density=rng.choice((0.08, 0.12, 0.2)))
        n = drawn.n
        for g in (drawn, Digraph(n, ((n - 1 - u, n - 1 - v) for u, v in drawn.arcs))):
            comps = scc_tarjan(g)
            ref = set()
            for comp in comps:
                if len(comp) < 2:
                    continue
                nodes = sorted(comp)
                index = {v: i for i, v in enumerate(nodes)}
                sub = Digraph(len(nodes), ((index[u], index[v]) for u, v in g.arcs
                                           if u in index and v in index))
                for kind in ("out", "in"):
                    ref.update((nodes[u], nodes[v]) for u, v in oracles.bfs_branching(sub.n, sub.arcs, 0, kind))
            got = _scc_branching_arcs(n, g.out_neighbors, g.in_neighbors, comps)
            assert got == ref, sorted(g.arcs)
            several += sum(len(c) > 1 for c in comps) >= 2
    assert several >= 20


def _reference_prune(g: Digraph) -> tuple[set[tuple[int, int]], tuple[tuple[int, ...], ...]]:
    """The prune as a Digraph formulation: one decomposition, the public chain
    cover, a (node, chain) -> earliest (position, target) dict over the cross
    arcs, and the branchings."""
    comps = scc_tarjan(g)
    comp_id = scc_ids(g, comps)
    cover = chain_cover_minimum(g, comps)
    chain_at = {v: (ci, pos) for ci, chain in enumerate(cover.chains) for pos, v in enumerate(chain)}
    first = {}
    for x, v in g.arcs:
        if comp_id[x] != comp_id[v]:
            ci, pos = chain_at[v]
            first[x, ci] = min(first.get((x, ci), (pos, v)), (pos, v))
    arcs = _scc_branching_arcs(g.n, g.out_neighbors, g.in_neighbors, comps)
    arcs.update((x, v) for (x, _), (_, v) in first.items())
    return arcs, cover.chains


def _assert_prune_equals_reference(g: Digraph, lo: int) -> None:
    ref_arcs, ref_chains = _reference_prune(g)
    assert _prune(g.n, g.arcs) == (ref_arcs, ref_chains), sorted(g.arcs)
    shifted = {(u + lo, v + lo) for u, v in g.arcs}
    assert _prune(g.n, shifted, lo) == (
        {(u + lo, v + lo) for u, v in ref_arcs},
        tuple(tuple(v + lo for v in chain) for chain in ref_chains),
    ), (lo, sorted(g.arcs))


@given(st.data())
def test_prune_kernel_equals_the_digraph_formulation(data):
    n = data.draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arcs = {arc for arc, k in zip(pairs, keep) if k}
    if n >= 3 and data.draw(st.booleans()):  # plant a cycle, so nontrivial components are common
        cyc = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
        arcs |= set(zip(cyc, cyc[1:] + cyc[:1]))
    perm = data.draw(st.permutations(range(n)))
    lo = data.draw(st.integers(0, 40))
    for g in (Digraph(n, arcs), Digraph(n, ((perm[u], perm[v]) for u, v in arcs))):
        _assert_prune_equals_reference(g, lo)


def test_prune_kernel_at_sampled_block_sizes():
    # kcert's sampled blocks: 16-40 nodes, m about 2.5n, mostly acyclic.  The hypothesis
    # test stops at n = 14; at these sizes the cover's matching has to augment.
    rng = random.Random(18)
    cyclic = 0
    for _ in range(40):
        n = rng.randint(16, 40)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        arcs = set(rng.sample(pairs, 5 * n // 2))
        if rng.random() < 0.3:  # a few back arcs close cycles
            arcs.update((v, u) for u, v in rng.sample(pairs, 3))
        perm = rng.sample(range(n), n)
        drawn = Digraph(n, arcs)
        for g in (drawn, Digraph(n, ((perm[u], perm[v]) for u, v in arcs))):
            _assert_prune_equals_reference(g, rng.randint(1, 500))
        cyclic += len(scc_tarjan(drawn)) < n
    assert 3 <= cyclic <= 20
    for _ in range(20):  # single-arc blocks: no Tarjan component beyond singletons
        n = rng.randint(2, 40)
        u, v = rng.sample(range(n), 2)
        _assert_prune_equals_reference(Digraph(n, [(u, v)]), rng.randint(1, 500))


def test_prune_kernel_on_edge_cases():
    graphs = [Digraph(0), Digraph(1), Digraph(5), Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])]
    for g in graphs:
        _assert_prune_equals_reference(g, 7)
    assert _prune(0, ()) == (set(), ())
    assert _prune(3, (), 5) == (set(), ((5,), (6,), (7,)))
    assert _prune(3, {(11, 12), (12, 13), (13, 11)}, 11) == ({(11, 12), (12, 13), (13, 11)}, ((11, 12, 13),))


def _pruned_covers(run, updates):
    """Drive ``run`` pass by pass over ``updates``.  Right after the pass that
    prunes the depth-d nodes, d >= 1, and before a shallower prune rewrites
    their ranges and before their parent's merge releases their pruned arcs,
    read each one's rows of the run-wide chain table and its pruned arcs:
    ``(node, cover, place, arcs)`` with ``place[v] = (head[v], pos[v])`` for
    each v of its range and ``cover[h] = chain_at[h]`` for each head h there."""
    covers = []
    for i, (kind, depth, j) in enumerate(run.schedule):
        run.begin_pass(i)(updates)
        run.end_pass(i)
        if depth > 0 and (kind == "leaf" or j == run.q - 1):
            for node in run.by_depth[depth]:
                place = {v: (run.head[v], run.pos[v]) for v in range(node.lo, node.hi)}
                cover = {h: run.chain_at[h] for h, _ in place.values()}
                covers.append((node, cover, place, node.h_arcs))
    return covers


def test_tree_nodes_keep_a_minimum_chain_cover_of_their_pruned_block(monkeypatch):
    from streamcert import certify_one, digraph

    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    rng = random.Random(17)
    checked = arcless = 0
    for seed in range(24):
        g = random_digraph(rng, 6, 30)
        model = (INSERTION_ONLY, TURNSTILE)[seed % 2]
        plan = RecursionPlan(p=2 + seed % 4)
        run = OneCertRun(g.n, model, plan, SpaceLedger())
        with monkeypatch.context() as mp:
            # every binding of the one Tarjan core and the one closure sweep, so a
            # second decomposition or closure anywhere counts
            tarjan = counting("scc", digraph._tarjan)
            for mod in (digraph, certify_one):
                mp.setattr(mod, "_tarjan", tarjan)
            mp.setattr(digraph, "_closure", counting("closure", digraph._closure))
            calls.clear()
            covers = _pruned_covers(run, stream_of(g, model, seed).updates)
        # a merge releases its children's pruned arcs: only the root keeps its own
        root = run.by_depth[0][0]
        assert all(node.h_arcs is None for nodes in run.by_depth[1:] for node in nodes)
        assert root.h_arcs is not None and run.cert_arcs == root.h_arcs
        # an arc-less block runs no decomposition; a pruned block has its input's
        # closure, so it holds an arc exactly when its input did
        with_arcs = bool(root.h_arcs) + sum(bool(arcs) for _, _, _, arcs in covers)
        assert calls == {"scc": with_arcs, "closure": with_arcs}
        arcless += sum(map(len, run.by_depth)) - with_arcs
        assert run.cert_arcs == one_cert_stream(stream_of(g, model, seed), plan)[0].arcs
        assert sorted((node.depth, node.lo) for node, _, _, _ in covers) == [
            (node.depth, node.lo) for nodes in run.by_depth[1:] for node in nodes]
        for node, cover, _, arcs in covers:
            lo, size = node.lo, node.hi - node.lo
            block = Digraph(size, ((u - lo, v - lo) for u, v in arcs))
            chains = [[v - lo for v in chain] for chain in cover.values()]
            assert sorted(v for chain in chains for v in chain) == list(range(size))
            reach = oracles.closure_sets(size, block.arcs)
            assert all(b in reach[a] for chain in chains for a, b in zip(chain, chain[1:]))
            assert len(chains) == len(chain_cover_minimum(block))
            checked += 1
    assert checked >= 100 and arcless >= 100


def _census(run):
    """Words the run's objects reference, counted from the objects, not from
    the charge sites: the run account's words, then per tree node its leaf
    arcs, its pruned arcs and its table words (1 per insertion-only entry; 3
    plus its open counters per turnstile entry, an answer keeping its 3)."""
    words = run.account.held
    for nodes in run.by_depth:
        for node in nodes:
            words += len(node.arcs or ()) + len(node.h_arcs or ())
            table = node.table or {}
            if run.model == INSERTION_ONLY:
                words += len(table)
            else:
                words += sum(3 + (len(entry) if type(entry) is list else
                                  len(entry[3]) if type(entry) is tuple else 0) for entry in table.values())
    return words


@pytest.mark.parametrize("model", [INSERTION_ONLY, TURNSTILE])
def test_a_run_never_references_more_words_than_the_ledger_holds(model):
    """``_census``, taken every 97 updates and at every pass end, never
    exceeds ``ledger.current``.

    Uncharged by design, so not counted: the owner tables (``owner[d][x]``),
    the turnstile slot and width tables, and the run-wide chain table
    (``head``, ``pos``, ``chain_at``), which indexes the chain cover each
    node's prune charges as ``hi - lo`` words.  kcert sample runs behind
    ``_MaskRouter`` and peeling are not covered here."""
    for n, p in ((256, 1), (256, 2), (256, 3), (192, 5), (256, 9)):
        stream = ArcStream.from_graph(alpha_family(n, 4), model, seed=0)
        ledger = SpaceLedger()
        run = OneCertRun(n, model, RecursionPlan(p=p), ledger)
        ups = stream.updates
        for i in range(run.total_passes):
            feed = run.begin_pass(i)
            for at in range(0, len(ups), 97):
                feed(ups[at:at + 97])
                assert _census(run) <= ledger.current, (n, p, i, at)
            run.end_pass(i)
            assert _census(run) <= ledger.current, (n, p, i)
        cert, stats = one_cert_stream(stream, RecursionPlan(p=p))
        assert (run.cert_arcs, ledger.peak) == (cert.arcs, stats.peak_words)


@given(st.data())
def test_certificates_do_not_depend_on_labelling(data):
    n = data.draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = data.draw(st.permutations(range(n)))
    g = Digraph(n, ((perm[u], perm[v]) for (u, v), k in zip(pairs, keep) if k))
    ref = transitive_closure(g)
    bound = (oracles.independence_number(n, g.arcs) + 2) * n
    certs = [tc_preserving_prune(g).arcs]
    for p in (1, 2):
        certs.append(one_cert_stream(ArcStream.from_graph(g), RecursionPlan(p=p))[0].arcs)
    for arcs in certs:
        assert arcs <= g.arcs and len(arcs) <= bound
        assert transitive_closure(Digraph(n, arcs)) == ref


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
        assert transitive_closure(cert) == transitive_closure(g)


def test_reversed_path_is_its_own_one_pass_certificate():
    path = Digraph(3000, ((i + 1, i) for i in range(2999)))
    cert, stats = one_cert_stream(ArcStream.from_graph(path), RecursionPlan(p=1))
    assert cert.arcs == path.arcs and stats.passes == 1


def test_recursion_tree_has_no_empty_blocks():
    path = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    run = OneCertRun(path.n, INSERTION_ONLY, RecursionPlan(p=18), SpaceLedger())
    assert sum(len(nodes) for nodes in run.by_depth) <= run.size * (run.levels + 1)
    cert, stats = one_cert_stream(ArcStream.from_graph(path), RecursionPlan(p=40))
    assert cert.arcs == path.arcs
    assert (stats.passes, stats.peak_words) == (40, 22)


def test_owner_tables_match_block_descent():
    for levels in range(5):
        for size in range(1, 301):
            run = OneCertRun(size, INSERTION_ONLY, RecursionPlan(p=levels + 1), SpaceLedger())
            assert sum(map(len, run.owner)) == run.size * (run.levels + 1)
            for x in range(size):
                node = run.by_depth[0][0]
                for d in range(levels + 1):
                    assert run.owner[d][x] is node, (size, levels, x, d)
                    if d < levels:
                        node = node.children[blocks(node.hi - node.lo, run.b)[0](x - node.lo)]


def test_chain_table_is_one_row_per_run():
    """The level passes find a node's chain in one run-wide table of n entries
    per column, which every tree node's prune rewrites over its own range:
    right after the pass that prunes a depth, each of its nodes' ranges holds
    one chain per head, and each node on it the head and its place."""
    tracemalloc.start()
    try:
        run = OneCertRun(4096, INSERTION_ONLY, RecursionPlan(p=13), SpaceLedger())
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert run.levels == 12 and held < 5_300_000
    assert len(run.head) == len(run.pos) == len(run.chain_at) == run.size
    for model, seed in ((INSERTION_ONLY, 3), (TURNSTILE, 4)):
        g = random_digraph(random.Random(seed), 40, 60, density=0.1)
        run = OneCertRun(g.n, model, RecursionPlan(p=4), SpaceLedger())
        covers = _pruned_covers(run, stream_of(g, model, seed).updates)
        assert len(run.head) == len(run.pos) == len(run.chain_at) == g.n
        assert {node.depth for node, _, _, _ in covers} == set(range(1, run.levels + 1))
        for node, cover, place, _ in covers:
            assert sorted(v for chain in cover.values() for v in chain) == list(range(node.lo, node.hi))
            for h, chain in cover.items():
                assert chain[0] == h
                assert [place[v] for v in chain] == [(h, i) for i in range(len(chain))]


_G = random_digraph(random.Random(31), 14, 20, density=0.3)
_RING = Digraph(12, {(i, (i + j) % 12) for i in range(12) for j in (1, 2, 5)})
# Runs through minimum selection across q passes, a node sample and arc filters, which
# criterion 7 does not reach: StreamStats, arc count and sorted-arc digest.
ROUTING_PINS = {
    "turnstile-mp2": (
        lambda: one_cert_stream(turnstile_stream(_G, 31), RecursionPlan(p=5)),
        StreamStats(passes=5, peak_words=232), 23, "6179c947ef91eb5b",
    ),
    "k-node-universe": (
        lambda: k_node_cert(ArcStream.from_graph(_G, INSERTION_ONLY, seed=31), 2,
                            SampleScheme(rho=0.5, seed=7, r=8), RecursionPlan(p=3)),
        StreamStats(passes=3, peak_words=326), 47, "5386b50797825490",
    ),
    "k-arc-sampled-filter": (
        lambda: k_arc_cert_sampled(turnstile_stream(_G, 32), 2,
                                   SampleScheme(rho=0.5, seed=7, r=6), RecursionPlan(p=3)),
        StreamStats(passes=3, peak_words=1018), 54, "ddc6c89ddb231503",
    ),
    "k-arc-peeling-filter": (
        lambda: k_arc_cert_peeling(turnstile_stream(_RING, 33), 2, RecursionPlan(p=3)),
        StreamStats(passes=6, peak_words=403), 32, "aecfb65b39403735",
    ),
    # q = 1: every observation falls on a cut of one rank per block
    "turnstile-unit-cut": (
        lambda: one_cert_stream(turnstile_stream(alpha_family(48, 2), 35), RecursionPlan(p=3)),
        StreamStats(passes=3, peak_words=2692), 92, "39813f34d80f19c9",
    ),
    # q = 3: the first two passes of each selection cut non-trivially
    "turnstile-mp3": (
        lambda: one_cert_stream(turnstile_stream(alpha_family(48, 4), 36), RecursionPlan(p=10)),
        StreamStats(passes=10, peak_words=2030), 176, "6e1f24d4cf12f7f6",
    ),
}


@pytest.mark.parametrize("name", sorted(ROUTING_PINS))
def test_routing_paths_are_pinned(name):
    run, stats, arcs, digest = ROUTING_PINS[name]
    cert, got = run()
    assert got == stats
    assert len(cert.arcs) == arcs
    assert hashlib.sha256(repr(sorted(cert.arcs)).encode()).hexdigest()[:16] == digest


def test_a_turnstile_level_holds_its_open_selection_counters():
    """After every level pass but the last, a tree node of that depth holds 3
    words per selection and the counters of its open selections, and a
    budget of the peak less one word stops the run.  After every level pass
    the live index holds exactly the open entries, and none once the level's
    last pass has answered them all.  The budgets split into q = 1, 2 and 3
    passes per level."""
    st = turnstile_stream(alpha_family(48, 4), 36)
    for p, q, nodes, peak in ((3, 1, 0, 3346), (5, 2, 5, 2819), (10, 3, 26, 2030)):
        plan = RecursionPlan(p=p)
        ledger = SpaceLedger()
        run = OneCertRun(st.n, TURNSTILE, plan, ledger)
        assert run.q == q
        checked = 0
        for i, (kind, depth, j) in enumerate(run.schedule):
            run.begin_pass(i)(st.updates)
            run.end_pass(i)
            if kind != "level":
                continue
            for node in run.by_depth[depth]:
                table = node.table or {}  # the merge drops the table after the last pass
                open_ = {key: e for key, e in table.items() if type(e) is tuple}
                assert node.live == open_ and all(node.live[key] is e for key, e in open_.items())
                if j < run.q - 1:
                    counters = sum(len(e[3]) for e in open_.values())
                    assert node.account.held == 3 * len(table) + counters, (plan, i, node.lo)
                    checked += 1
        assert checked == nodes and ledger.peak == peak
        with pytest.raises(SpaceBudgetError):
            one_cert_stream(st, plan, SpaceLedger(budget=ledger.peak - 1))
        cert, stats = one_cert_stream(st, plan, SpaceLedger(budget=ledger.peak))
        assert cert.arcs == run.cert_arcs and stats.peak_words == ledger.peak


def test_a_finished_selection_observes_nothing():
    """A selection ends with no positive block or with one surviving rank, as
    a plain answer in the level's table without counters, and the live index
    leaves it out: a later pass's feed, fed updates that reach only finished
    entries, changes no entry and steps no counter."""
    st = turnstile_stream(alpha_family(48, 4), 36)
    run = OneCertRun(st.n, TURNSTILE, RecursionPlan(p=10), SpaceLedger())
    level = run.schedule.index(("level", 0, 1))
    for i in range(level):
        run.begin_pass(i)(st.updates)
        run.end_pass(i)
    nodes = run.by_depth[0]
    done = [divmod(key, run.size) for node in nodes for key, e in node.table.items() if type(e) is not tuple]
    assert done and any(node.live for node in nodes)
    before = [dict(node.table) for node in nodes]
    counts = [[list(e[3]) for e in node.live.values()] for node in nodes]
    run.begin_pass(level)([(1, x, v) for x, h in done for v in run.chain_at[h]])
    assert [dict(node.table) for node in nodes] == before
    assert [[list(e[3]) for e in node.live.values()] for node in nodes] == counts


def test_turnstile_pass_budget_matches_split():
    g = transitive_tournament(12)
    for p in (1, 2, 3, 5, 7, 10):  # q = 1, 1, 1, 2, 2, 3
        plan = RecursionPlan(p=p)
        cert, stats = one_cert_stream(turnstile_stream(g, seed=p * 7), plan)
        d, q = plan.turnstile_split()
        assert stats.passes == d * q + 1
        assert (cert.provenance["levels"], cert.provenance["q"]) == (d, q)
        assert transitive_closure(cert) == transitive_closure(g)


def test_turnstile_levels_equal_insertion_only_levels_on_the_final_graph():
    """A turnstile run at p with split (d, q) builds the same tree as an
    insertion-only run at p = d + 1 over the stream's final graph, and both
    keep, per node and chain, the earliest chain node with a present arc: the
    minimum selection finds it among the arcs of final multiplicity 1."""
    rng = random.Random(40)
    for trial in range(60):
        g = random_digraph(rng, 2, 40) if trial % 2 else random_multi_scc_digraph(rng, 8, 40)
        st = turnstile_stream(g, trial)
        final = ArcStream.from_graph(g, INSERTION_ONLY, seed=trial)
        for p in (1, 2, 3, 4, 5, 7, 10):
            d, _ = RecursionPlan(p=p).turnstile_split()
            cert, _ = one_cert_stream(st, RecursionPlan(p=p))
            assert cert.arcs == one_cert_stream(final, RecursionPlan(p=d + 1))[0].arcs, (trial, p)


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
    assert transitive_closure(cert) == transitive_closure(g)


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
        assert transitive_closure(cert) == transitive_closure(final)


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
        one_cert_stream(st, RecursionPlan(p=1), SpaceLedger(budget=20))


def test_validator_flags_broken_and_foreign_certs():
    path = Digraph(3, [(0, 1), (1, 2)])
    good = validate_one_cert(path, Certificate(3, path.arcs, kind="node", k=1))
    assert good.ok and good.violations == ()
    broken = validate_one_cert(
        path, Certificate(3, frozenset({(0, 1)}), kind="node", k=1)
    )
    assert not broken.tc_equal
    assert broken.violations == ((1, 2),)
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
