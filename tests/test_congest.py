from __future__ import annotations

import hashlib
import random

import pytest

import oracles
from conftest import random_digraph, random_multi_scc_digraph, random_strong_digraph, relabelled
from streamcert import congest
from streamcert.certify_one import Certificate, tc_preserving_prune
from streamcert.congest import (
    CongestNetwork,
    ProtocolViolationError,
    _Decomposition,
    _flood_value,
    _Sim,
    _word_count,
    congest_k_cert,
    congest_scc,
    congest_toposort,
)
from streamcert.digraph import Digraph
from streamcert.exact import validate_certificate
from streamcert.prf import sample_members


def path(n: int) -> Digraph:
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def doubled_cycle(n: int) -> Digraph:
    return Digraph(n, [(i, (i + j) % n) for i in range(n) for j in (1, 2)])


# ---------------------------------------------------------------------------
# network + simulator plumbing
# ---------------------------------------------------------------------------


def test_network_word_budget():
    net = CongestNetwork(path(5))
    assert net.word_bits == 3
    assert net.max_message_bits == 24
    assert CongestNetwork(path(5), max_words=2).max_message_bits == 6
    with pytest.raises(ValueError):
        CongestNetwork(path(3), max_words=0)


def test_word_count():
    assert _word_count(0, 3) == 1
    assert _word_count(7, 3) == 1
    assert _word_count(8, 3) == 2
    with pytest.raises(ValueError):
        _word_count(-1, 3)


def test_exchange_validates_links_and_size():
    net = CongestNetwork(path(3), max_words=1)
    sim = _Sim(net)
    with pytest.raises(ValueError):
        sim.exchange({0: {2: (1,)}}, "x")  # 0 and 2 are not adjacent
    with pytest.raises(ProtocolViolationError) as exc:
        sim.exchange({0: {1: (1, 1)}}, "x")  # two words into a one-word budget
    assert exc.value.node == 0 and exc.value.bits == 4  # 2 words x 2-bit words
    with pytest.raises(ProtocolViolationError) as exc:
        sim.exchange({1: {2: (4,)}}, "x")  # one value needing two 2-bit words
    assert (exc.value.node, exc.value.round_no, exc.value.bits) == (1, 3, 4)
    with pytest.raises(ValueError):
        sim.exchange({1: {0: (-1,)}}, "x")
    wide = _Sim(CongestNetwork(path(3), max_words=2))
    assert wide.exchange({1: {0: (15,), 2: (3, 0)}}, "x") == {0: {1: (15,)}, 2: {1: (3, 0)}}
    with pytest.raises(ProtocolViolationError):
        wide.exchange({0: {1: (4, 0)}}, "x")


def test_exchange_checks_each_flooded_message_once_and_counts_every_pair():
    """A flood hands every neighbour one message object, checked once per
    sender; a different object to a later neighbour is checked again."""
    star = Digraph(5, [(0, w) for w in range(1, 5)])  # 3-bit words
    sim = _Sim(CongestNetwork(star, max_words=1))
    big, ok = (8,), (7,)
    with pytest.raises(ProtocolViolationError) as exc:
        sim.exchange({0: {w: big for w in range(1, 5)}}, "x")
    assert (exc.value.node, exc.value.round_no, exc.value.bits) == (0, 1, 6)
    with pytest.raises(ProtocolViolationError) as exc:
        sim.exchange({0: {1: ok, 2: ok, 3: big}}, "x")
    assert (exc.value.node, exc.value.round_no, exc.value.bits) == (0, 2, 6)
    with pytest.raises(ValueError, match="node 1 has no link to 2"):
        sim.exchange({1: {0: ok, 2: ok, 3: ok}}, "x")
    before = sim.messages
    inbox = sim.exchange({0: {w: ok for w in range(1, 5)}, 1: {0: ok}, 2: {0: (3,)}}, "x")
    assert sim.messages - before == 6
    assert inbox == {w: {0: ok} for w in range(1, 5)} | {0: {1: ok, 2: (3,)}}


def test_exchange_size_check_is_exact():
    """Only sends whose exact word count exceeds the budget raise, with the
    exact bits; the per-message bound never decides a send on its own."""
    for n in (2, 3, 9, 17, 300):
        for max_words in range(1, 9):
            net = CongestNetwork(path(n), max_words=max_words)
            sim = _Sim(net)
            for size in range(1, max_words + 2):
                for b in range(net.word_bits * (max_words + 1) + 2):
                    for x in (2**b - 1, 2**b):
                        for msg in ((x,) * size, (x,) + (0,) * (size - 1)):
                            words = sum(_word_count(y, net.word_bits) for y in msg)
                            if words > max_words:
                                with pytest.raises(ProtocolViolationError) as exc:
                                    sim.exchange({0: {1: msg}}, "x")
                                assert exc.value.bits == words * net.word_bits
                            else:
                                assert sim.exchange({0: {1: msg}}, "x") == {1: {0: msg}}
            with pytest.raises(ValueError):
                sim.exchange({0: {1: (0,) * (max_words - 1) + (-1,)}}, "x")
            assert sim.exchange({0: {1: ()}}, "x") == {1: {0: ()}}


def test_flood_value_path():
    net = CongestNetwork(path(5))
    sim = _Sim(net)
    links = {v: list(net.neighbors[v]) for v in range(5)}
    got = _flood_value(sim, links, {0: (7,)}, "f")
    assert got == {v: (7,) for v in range(5)}
    assert sim.round == 4


def test_flood_value_lockstep_components():
    g = Digraph(4, [(0, 1), (2, 3)])
    net = CongestNetwork(g)
    sim = _Sim(net)
    links = {v: list(net.neighbors[v]) for v in range(4)}
    got = _flood_value(sim, links, {0: (1,), 2: (2,)}, "f")
    assert got == {0: (1,), 1: (1,), 2: (2,), 3: (2,)}
    assert sim.round == 1  # both components served by the same round


def test_flood_value_keeps_the_least_value_that_reaches_each_node():
    """Two seeds in one component: every node ends with the least seed value
    that reaches it, and a node relays only values that lower the receiver."""
    g = Digraph(6, [(0, 3), (4, 1), (1, 2), (2, 3), (3, 5)])
    net = CongestNetwork(g)
    out = {v: sorted(g.out_neighbors(v)) for v in range(6)}
    sim = _Sim(net)
    got = _flood_value(sim, out, {0: (5,), 4: (3,)}, "f")
    assert got == {0: (5,), 1: (3,), 2: (3,), 3: (3,), 4: (3,), 5: (3,)}
    # 3 and then 5 hear 5 first and 3 two rounds later, so 3 relays twice
    assert (sim.round, sim.messages) == (4, 6)
    rng = random.Random(64)
    for trial in range(30):
        g = random_digraph(rng, 2, 14)
        out = {v: sorted(g.out_neighbors(v)) for v in range(g.n)}
        seeds = {v: (rng.randrange(1, 50),) for v in rng.sample(range(g.n), rng.randint(1, g.n))}
        got = _flood_value(_Sim(CongestNetwork(g)), out, seeds, "f")
        reach = oracles.closure_sets(g.n, g.arcs)
        want = {}
        for u, x in seeds.items():
            for v in range(g.n):
                if u == v or v in reach[u]:
                    want[v] = min(want.get(v, x), x)
        assert got == want


def test_leader_election_on_ring():
    g = Digraph(6, [(i, (i + 1) % 6) for i in range(6)])
    net = CongestNetwork(g)
    deco = _Decomposition(net, 0, with_counters=False)
    links = {v: list(net.neighbors[v]) for v in range(6)}
    leader, depth, parent = deco._elect(list(range(6)), links)
    assert set(leader.values()) == {0}
    assert depth == {0: 0, 1: 1, 2: 2, 3: 3, 4: 2, 5: 1}
    assert deco.sim.round == 3
    for v in range(1, 6):
        assert depth[parent[v]] == depth[v] - 1


def _bfs_trees(n: int, links) -> dict[int, tuple[int, int, int]]:
    """(leader, depth, parent) per linked node: the least id of its component,
    the BFS distance from it, and the least-id neighbour one level closer."""
    out = {}
    for root in range(n):
        if root in out or not links[root]:
            continue
        dist, layer = {root: 0}, [root]
        while layer:
            later = []
            for v in layer:
                for w in links[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        later.append(w)
            layer = later
        for v, d in dist.items():
            out[v] = (root, d, min((w for w in links[v] if dist[w] == d - 1), default=v))
    return out


def test_election_builds_least_id_bfs_trees_and_every_message_lowers(monkeypatch):
    """On sparse digraphs with several linked components, and their relabelled
    copies, the election gives every node its component's least id, its BFS
    depth and its least-id neighbour one level closer; a recording exchange
    sees every ``leader`` message lower its receiver's (leader, depth)."""
    state: dict[int, tuple[int, int]] = {}
    exchange = _Sim.exchange

    def recording(sim, sends, phase):
        inbox = exchange(sim, sends, phase)
        assert phase == "leader"
        for w, box in inbox.items():
            assert all((x, y + 1) < state[w] for x, y in box.values())
            state[w] = min((x, y + 1) for x, y in box.values())
        return inbox

    monkeypatch.setattr(_Sim, "exchange", recording)
    rng = random.Random(65)
    several = 0
    for trial in range(12):
        for g in relabelled(random_digraph(rng, 20, 60, density=rng.choice((0.02, 0.04))), rng):
            net = CongestNetwork(g)
            links = {v: set(net.neighbors[v]) for v in range(g.n)}
            active = [v for v in range(g.n) if links[v]]
            state.clear()
            state.update((v, (v, 0)) for v in active)
            leader, depth, parent = _Decomposition(net, 0, with_counters=False)._elect(active, links)
            want = _bfs_trees(g.n, links)
            assert {v: (leader[v], depth[v], parent[v]) for v in active} == want
            assert state == {v: (leader[v], depth[v]) for v in active}
            several += len(set(leader.values())) > 1
    assert several >= 24


# ---------------------------------------------------------------------------
# scc + toposort protocols
# ---------------------------------------------------------------------------


def _blocks(ids):
    out = {}
    for v, c in enumerate(ids):
        out.setdefault(c, set()).add(v)
    return {frozenset(b) for b in out.values()}


def test_scc_matches_sequential():
    rng = random.Random(60)
    for trial in range(12):
        g = random_digraph(rng, 2, 11)
        ids, trace = congest_scc(CongestNetwork(g), seed=trial)
        assert _blocks(ids) == oracles.scc_partition(g.n, g.arcs)
        assert sum(trace.phases.values()) == trace.rounds_used
        assert trace.meta["depth"] >= 1


def test_pivot_search_closes_at_one_rank():
    """A component's search stops once its interval holds one self-least
    rank, well before the bit_length(n^3) steps of a full bisection of
    [1, n^3]; a strongly connected input has one self-least node, so it
    takes no step and settles in one level."""
    rng = random.Random(63)
    stepped = 0
    for trial in range(16):
        if trial % 2:
            g = random_strong_digraph(rng, 8, 40, extra=0.05)
        else:
            g = random_digraph(rng, 8, 40, density=0.08)
        ids, trace = congest_scc(CongestNetwork(g), seed=trial)
        assert _blocks(ids) == oracles.scc_partition(g.n, g.arcs)
        iters = trace.meta.get("search_iters", 0)
        if trial % 2:
            assert iters == 0 and trace.meta["depth"] == 1
            assert not {"search", "tstar"} & set(trace.phases)
        assert iters < trace.meta["depth"] * (g.n**3).bit_length()
        stepped += iters
    assert stepped > 0


def test_search_pair_needs_three_words(monkeypatch):
    """Node 1 sends its parent a (weight, count) pair of three 2-bit words.
    The ``size`` convergecast sends it; a ``search`` step's pair is never
    larger, since it sums part of the same subtree."""
    g = Digraph(3, [(1, 0), (1, 2)])
    phases = []
    exchange = _Sim.exchange

    def recording(sim, sends, phase):
        phases.append(phase)
        return exchange(sim, sends, phase)

    monkeypatch.setattr(_Sim, "exchange", recording)
    with pytest.raises(ProtocolViolationError, match=r"node 1 sent a 6-bit message in round 5 \(budget 4\)"):
        congest_scc(CongestNetwork(g, max_words=2))
    assert phases == ["leader"] * 2 + ["reach"] + ["size"] * 2
    ids, _ = congest_scc(CongestNetwork(g, max_words=3))
    assert _blocks(ids) == oracles.scc_partition(g.n, g.arcs)


def test_scc_fits_three_words_and_topo_four():
    """The widths README states: ``scc`` never fails at 3 words nor ``topo``
    at 4, on all 64 arc sets on 3 nodes, 400 random 5-node digraphs, and
    doubled cycles and paths at n in {4, 8, 16}, each at seeds 0-2."""
    pairs = [(u, v) for u in range(3) for v in range(3) if u != v]
    graphs = [Digraph(3, [a for i, a in enumerate(pairs) if mask >> i & 1]) for mask in range(64)]
    rng = random.Random(5)
    graphs += [random_digraph(rng, 5, 5) for _ in range(400)]
    graphs += [make(n) for make in (doubled_cycle, path) for n in (4, 8, 16)]
    for g in graphs:
        for seed in range(3):
            ids, _ = congest_scc(CongestNetwork(g, max_words=3), seed=seed)
            assert _blocks(ids) == oracles.scc_partition(g.n, g.arcs)
            congest_toposort(CongestNetwork(g, max_words=4), seed=seed)


def test_scc_nodes_name_their_pivot():
    ids, _ = congest_scc(CongestNetwork(Digraph(1)))
    assert ids == [0]
    g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    ids, _ = congest_scc(CongestNetwork(g))
    assert ids[0] == ids[1] and ids[2] == ids[3] and ids[0] != ids[2]
    assert ids[0] in (0, 1) and ids[2] in (2, 3)


def test_toposort_orders_the_condensation():
    rng = random.Random(61)
    for trial in range(12):
        g = random_digraph(rng, 2, 11)
        ids, _ = congest_scc(CongestNetwork(g), seed=trial)
        rank, trace = congest_toposort(CongestNetwork(g), seed=trial)
        # one convergecast and one flood of the four set sizes per level
        assert trace.phases.get("count", 0) == 2 * trace.phases.get("size", 0)
        assert not {"ident", "pivot"} & set(trace.phases)
        for u, v in g.arcs:
            if ids[u] == ids[v]:
                assert rank[u] == rank[v]
            else:
                assert rank[u] < rank[v]


def test_toposort_known_small_cases():
    assert congest_toposort(CongestNetwork(path(2)))[0] == [1, 2]
    ranks, _ = congest_toposort(CongestNetwork(path(4)))
    assert ranks == sorted(ranks) and len(set(ranks)) == 4
    # at a power of two n itself needs a second word, so the count flood must
    # never carry a set size of n within a four-word budget
    for n in (4, 8, 16):
        ranks, _ = congest_toposort(CongestNetwork(doubled_cycle(n), max_words=4))
        assert ranks == [1] * n


def test_protocols_deterministic_per_seed():
    g = random_digraph(random.Random(62), 9, 9)
    a_ids, a_tr = congest_scc(CongestNetwork(g), seed=3)
    b_ids, b_tr = congest_scc(CongestNetwork(g), seed=3)
    assert a_ids == b_ids
    assert a_tr == b_tr
    c_ids, _ = congest_scc(CongestNetwork(g), seed=4)
    assert _blocks(c_ids) == _blocks(a_ids)


def test_scc_and_topo_outputs_are_pinned():
    """SCC ids and topological ranks on 42 seeded digraphs (sparse random,
    strong and multi-SCC, n <= 64, each with its relabelled copies), so a
    protocol rewrite cannot move a pivot or a rank."""
    rng = random.Random(29)
    outs = []
    for trial in range(14):
        kind = trial % 3
        if kind == 0:
            g = random_digraph(rng, 2, 64, density=rng.choice((0.02, 0.05, 0.1)))
        elif kind == 1:
            g = random_strong_digraph(rng, 3, 64, extra=0.03)
        else:
            g = random_multi_scc_digraph(rng, 8, 64)
        for h in relabelled(g, rng):
            net = CongestNetwork(h)
            outs.append((h.n, congest_scc(net, seed=trial)[0], congest_toposort(net, seed=trial)[0]))
    assert hashlib.sha256(repr(outs).encode()).hexdigest() == (
        "6f2d5b3efd4ea3c2c221bc66a2ed7ec56438fe52be9d5d80f0232c69fdb1b54b"
    )


def test_protocol_traces_are_pinned():
    """Exact outputs and traces, so a simulator rewrite cannot shift a message."""
    marks, tr = congest_k_cert(CongestNetwork(doubled_cycle(6)), 2, 0.5, seed=1)
    assert [sorted(m) for m in marks] == [
        [(0, 1), (0, 2), (4, 0), (5, 0)],
        [(0, 1), (1, 2), (1, 3), (5, 1)],
        [(0, 2), (1, 2), (2, 3), (2, 4)],
        [(1, 3), (2, 3), (3, 4), (3, 5)],
        [(2, 4), (3, 4), (4, 0), (4, 5)],
        [(3, 5), (4, 5), (5, 0), (5, 1)],
    ]
    assert (tr.rounds_used, tr.messages) == (52, 903)
    assert tr.phases == {"announce": 9, "gossip": 43}
    assert tr.meta == {"samples": 173, "r": 58}

    g = random_strong_digraph(random.Random(501), 12, 12, extra=0.3)
    marks, tr = congest_k_cert(CongestNetwork(g), 2, 0.5, seed=1)
    assert hashlib.sha256(repr([sorted(m) for m in marks]).encode()).hexdigest() == (
        "b56af67f006f865860c1b29cd70b08152f06c3a711ea8121ee38f27d0e8239ad"
    )
    assert (tr.rounds_used, tr.messages) == (315, 15385)
    assert tr.phases == {"announce": 12, "gossip": 303}
    assert tr.meta == {"samples": 477, "r": 80}

    g = random_digraph(random.Random(62), 40, 40)
    ids, tr = congest_scc(CongestNetwork(g), seed=3)
    assert ids == [v if v in (14, 24, 30, 31, 33, 35, 39) else 13 for v in range(40)]
    assert (tr.rounds_used, tr.messages) == (40, 691)
    assert tr.phases == {
        "announce": 1, "leader": 4, "size": 4, "search": 12, "tstar": 3, "reach": 16,
    }
    assert tr.meta == {"depth": 3, "search_iters": 2, "virtual_source_wakeups": 6}

    ranks, tr = congest_toposort(CongestNetwork(g), seed=3)
    ranks_of = {14: 37, 24: 37, 30: 38, 31: 2, 33: 1, 35: 37, 39: 1}
    assert ranks == [ranks_of.get(v, 4) for v in range(40)]
    assert (tr.rounds_used, tr.messages) == (48, 773)
    assert tr.phases == {
        "announce": 1, "leader": 4, "size": 4,
        "search": 12, "tstar": 3, "reach": 16, "count": 8,
    }
    assert tr.meta == {"depth": 3, "search_iters": 2, "virtual_source_wakeups": 6}
    # the count convergecast's 4-tuples fit the same budget as its flood
    assert congest_toposort(CongestNetwork(g, max_words=4), seed=3) == (ranks, tr)


def test_tight_word_budget_raises():
    g = doubled_cycle(6)
    with pytest.raises(ProtocolViolationError):
        congest_scc(CongestNetwork(g, max_words=1))


# ---------------------------------------------------------------------------
# distributed certificate
# ---------------------------------------------------------------------------


def test_k_cert_marks_form_a_certificate():
    g = doubled_cycle(6)
    marks, trace = congest_k_cert(CongestNetwork(g), 2, 0.5)
    assert len(marks) == g.n
    union = set().union(*marks)
    assert union <= set(g.arcs)
    cert = Certificate(g.n, frozenset(union), kind="node", k=2)
    assert validate_certificate(g, cert).ok
    assert trace.meta["r"] == 58  # ceil(8 * 4 * ln 6)
    # marked arcs are incident to the marking node
    for v, owned in enumerate(marks):
        assert all(v in arc for arc in owned)


def _learned_arc_sets(g: Digraph, seed: int, r: int, rho: float) -> list[list[frozenset]]:
    """Per node, the arcs of its component in each sampled subgraph it is in."""
    learned: list[list[frozenset]] = [[] for _ in range(g.n)]
    for members in sample_members(seed, r, g.n, rho):
        arcs = [(a, b) for a, b in g.arcs if a in members and b in members]
        comp = {v: {v} for v in members}
        for a, b in arcs:
            if comp[a] is not comp[b]:
                merged = comp[a] | comp[b]
                for v in merged:
                    comp[v] = merged
        for v in members:
            learned[v].append(frozenset(arc for arc in arcs if arc[0] in comp[v]))
    return learned


def _per_node_marks(g: Digraph, learned: list[list[frozenset]]) -> list[set]:
    """Every node prunes every arc set it learned on its own."""
    marks: list[set] = [set() for _ in range(g.n)]
    for v, arc_sets in enumerate(learned):
        for arcs in arc_sets:
            nodes = sorted({v} | {a for a, _ in arcs} | {b for _, b in arcs})
            index = {node: pos for pos, node in enumerate(nodes)}
            pruned = tc_preserving_prune(Digraph(len(nodes), [(index[a], index[b]) for a, b in arcs]))
            marks[v] |= {(nodes[a], nodes[b]) for a, b in pruned.arcs if v in (nodes[a], nodes[b])}
    return marks


def test_k_cert_prunes_each_distinct_learned_arc_set_once(monkeypatch):
    calls = []

    def counting_prune(local):
        calls.append(local)
        return tc_preserving_prune(local)

    monkeypatch.setattr(congest, "tc_preserving_prune", counting_prune)
    g = doubled_cycle(6)
    marks, tr = congest_k_cert(CongestNetwork(g), 2, 0.5, seed=1)
    learned = _learned_arc_sets(g, 1, tr.meta["r"], 0.5)
    assert len(calls) == len({arcs for arc_sets in learned for arcs in arc_sets if arcs})
    assert marks == _per_node_marks(g, learned)

    rng = random.Random(22)
    for trial in range(20):
        g = random_strong_digraph(rng, 3, 12, extra=0.3)
        k = 1 + trial % 2
        marks, tr = congest_k_cert(CongestNetwork(g), k, 0.5, seed=trial)
        assert marks == _per_node_marks(g, _learned_arc_sets(g, trial, tr.meta["r"], 0.5))


def test_gossip_skips_the_sender_and_the_arc_ends(monkeypatch):
    """A node never relays a fact to the neighbour whose message first taught
    it, nor to an endpoint of the fact's arc; the endpoints hold every fact of
    their arc from round 0 and are never sent it."""
    taught: list[dict] = []
    sent: list[tuple[int, int, int]] = []
    exchange = _Sim.exchange

    def recording(sim, sends, phase):
        inbox = exchange(sim, sends, phase)
        if phase == "gossip":
            for u, out in sends.items():
                for w, fact in out.items():
                    assert w not in fact[1:], (u, w, fact)
                    if u not in fact[1:]:  # an endpoint holds the fact from round 0
                        assert taught[u][fact] != w, (u, w, fact)
                    sent.append(fact)
            for w, box in inbox.items():
                for u, fact in box.items():
                    taught[w].setdefault(fact, u)
        return inbox

    monkeypatch.setattr(_Sim, "exchange", recording)
    rng = random.Random(66)
    for trial in range(8):
        g = doubled_cycle(6) if trial == 0 else random_strong_digraph(rng, 4, 12, extra=0.3)
        k = 1 + trial % 2
        taught[:] = [{} for _ in range(g.n)]
        marks, tr = congest_k_cert(CongestNetwork(g), k, 0.5, seed=trial)
        assert marks == _per_node_marks(g, _learned_arc_sets(g, trial, tr.meta["r"], 0.5))
    assert len(sent) > 1000


def test_k_cert_whole_graph_mode():
    g = doubled_cycle(5)
    marks, trace = congest_k_cert(CongestNetwork(g), 1, 1.0)
    assert trace.meta["r"] == 1
    union = set().union(*marks)
    cert = Certificate(g.n, frozenset(union), kind="node", k=1)
    assert validate_certificate(g, cert).ok


def test_k_cert_deterministic():
    g = doubled_cycle(6)
    a = congest_k_cert(CongestNetwork(g), 2, 0.5, seed=1)
    b = congest_k_cert(CongestNetwork(g), 2, 0.5, seed=1)
    assert a == b


def test_k_cert_argument_guards():
    net = CongestNetwork(doubled_cycle(5))
    with pytest.raises(ValueError):
        congest_k_cert(net, 0, 0.5)
    with pytest.raises(ValueError):
        congest_k_cert(net, 2, 0.0)
    with pytest.raises(ValueError):
        congest_k_cert(net, 2, 0.6)
