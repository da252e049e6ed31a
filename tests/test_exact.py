from __future__ import annotations

import itertools
import random

import pytest

import oracles
from conftest import random_digraph
from streamcert.certify_one import Certificate
from streamcert.digraph import Digraph
from streamcert.exact import (
    FlowNet,
    _network,
    kappa_st,
    lambda_st,
    validate_certificate,
)


def _capped(value: int, limit: int | None) -> int:
    return value if limit is None else min(value, limit)


def _shuffled_queries(rng: random.Random, n: int) -> list[tuple[int, int, int | None]]:
    # sources interleave, so each network's tree of its latest source is
    # rebuilt between queries as well as reused by the next target
    queries = [(s, t, limit) for s, t in itertools.permutations(range(n), 2) for limit in (None, 0, 1, 2)]
    rng.shuffle(queries)
    return queries


def test_lambda_equals_minimum_directed_cut():
    rng = random.Random(20)
    for _ in range(50):
        g = random_digraph(rng, 2, 9)
        want = {(s, t): oracles.min_cut_lambda(g.n, g.arcs, s, t)
                for s, t in itertools.permutations(range(g.n), 2)}
        for s, t, limit in _shuffled_queries(rng, g.n):
            assert lambda_st(g, s, t, limit) == _capped(want[s, t], limit), (g.arcs, s, t, limit)


def test_kappa_equals_smallest_separator():
    rng = random.Random(21)
    for _ in range(50):
        g = random_digraph(rng, 2, 9)
        want = {(s, t): oracles.separator_kappa(g.n, g.arcs, s, t)
                for s, t in itertools.permutations(range(g.n), 2)}
        for s, t, limit in _shuffled_queries(rng, g.n):
            assert kappa_st(g, s, t, limit) == _capped(want[s, t], limit), (g.arcs, s, t, limit)


def test_leaving_an_arc_out_matches_a_network_built_without_it():
    # plain and ``without`` queries interleave with in-place drops on one
    # network; every answer equals a fresh network of the arcs left
    rng = random.Random(25)
    for _ in range(30):
        g = random_digraph(rng, 2, 9)
        for split in (False, True):
            net, left = FlowNet(g.n, g.arcs, split), set(g.arcs)
            outs = [None, *rng.sample(sorted(g.arcs), min(3, g.m))]
            drops = rng.sample(sorted(g.arcs), min(3, g.m))
            ops = [(a, s, t, limit) for a in outs for s, t, limit in _shuffled_queries(rng, g.n)]
            ops += [(a, None, None, None) for a in drops]
            rng.shuffle(ops)
            fresh: dict = {}
            last = (None, 0, 1, None)
            for a, s, t, limit in ops:
                if s is None:  # a drop, then the last query again on the same memo key
                    net.drop(*a)
                    left.remove(a)
                    fresh.clear()
                    a, s, t, limit = last
                last = (a, s, t, limit)
                if a not in fresh:
                    fresh[a] = FlowNet(g.n, left - {a}, split)
                want = fresh[a].max_flow(s, t, limit)
                assert net.max_flow(s, t, limit, without=a) == want, (g.arcs, split, a, s, t, limit, left)
            for a in [*drops, (0, 0), (g.n, 0), (0, g.n), (-1, g.n - 1)]:
                with pytest.raises(ValueError, match="holds no arc"):
                    net.drop(*a)


def test_max_flow_rejects_a_bad_pair():
    for split in (False, True):
        net = FlowNet(3, [(0, 1), (1, 2), (2, 0)], split)
        for s, t, limit in [(0, 0, None), (2, 2, 1), (-1, 2, None), (0, 5, None), (3, 0, 2)]:
            with pytest.raises(ValueError, match="two distinct nodes"):
                net.max_flow(s, t, limit)
        assert net.max_flow(0, 2) == 1
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    for flow in (kappa_st, lambda_st):
        for s, t in [(1, 1), (-1, 2), (0, 3)]:
            with pytest.raises(ValueError, match="two distinct nodes"):
                flow(g, s, t)


def test_interleaved_queries_match_fresh_networks():
    # more graphs than the network cache holds, both kinds on each, and two
    # equal graphs built separately; a query must not see another's residue
    rng = random.Random(24)
    graphs = [random_digraph(rng, 6, 6) for _ in range(5)]
    graphs.append(Digraph(6, sorted(graphs[0].arcs, reverse=True)))
    queries = [
        (conn, gi, s, t, limit)
        for s, t in itertools.permutations(range(6), 2)
        for limit in (None, 1, 2)
        for gi in range(len(graphs))
        for conn in (kappa_st, lambda_st)
    ]
    fresh = {}
    for conn, gi, s, t, limit in queries:
        _network.cache_clear()
        fresh[conn, gi, s, t, limit] = conn(graphs[gi], s, t, limit)
    for conn, gi, s, t, limit in queries:
        want = fresh[conn, gi, s, t, limit]
        assert conn(graphs[gi], s, t, limit) == want
        assert conn(graphs[gi], s, t, limit) == want
    for conn, _, s, t, limit in queries:
        assert fresh[conn, 0, s, t, limit] == fresh[conn, len(graphs) - 1, s, t, limit]


def test_limit_caps_the_search():
    k6 = Digraph(6, [(u, v) for u in range(6) for v in range(6) if u != v])
    assert kappa_st(k6, 0, 5) == 5
    assert kappa_st(k6, 0, 5, limit=2) == 2
    assert lambda_st(k6, 0, 5, limit=3) == 3


def test_connectivity_report_and_known_values():
    cyc = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert kappa_st(cyc, 0, 2) == 1 and lambda_st(cyc, 0, 2) == 1
    assert kappa_st(cyc, 2, 0) == 1
    two = Digraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert kappa_st(two, 0, 3) == 2
    assert lambda_st(two, 0, 3) == 2
    with pytest.raises(ValueError):
        kappa_st(cyc, 1, 1)


def test_validate_certificate_node_kind():
    rng = random.Random(22)
    for _ in range(25):
        g = random_digraph(rng, 2, 8)
        whole = Certificate(g.n, g.arcs, kind="node", k=2)
        assert validate_certificate(g, whole).ok
    path = Digraph(3, [(0, 1), (1, 2)])
    bad = Certificate(3, frozenset({(0, 1)}), kind="node", k=1)
    rep = validate_certificate(path, bad)
    assert not rep.ok
    assert any(v[:2] == (1, 2) for v in rep.violations)


def test_validate_certificate_at_k1_compares_closures_at_any_n():
    rng = random.Random(23)
    for _ in range(60):
        g = random_digraph(rng, 1, 12)
        sub = frozenset(a for a in g.arcs if rng.random() < 0.6)
        reach_h = oracles.closure_sets(g.n, sub)
        want = [(u, v, 1, 0) for u, v in sorted(g.arcs - sub) if v not in reach_h[u]]
        for kind in ("node", "arc"):
            rep = validate_certificate(g, Certificate(g.n, sub, kind=kind, k=1))
            assert list(rep.violations) == want, (g.arcs, sub, kind)
    # no size cap at any k: the report names the one missing arc that lost its path
    path = Digraph(80, ((i, i + 1) for i in range(79)))
    cut = path.arcs - {(40, 41)}
    for k in (1, 2):
        for kind in ("node", "arc"):
            assert validate_certificate(path, Certificate(80, path.arcs, kind=kind, k=k)).ok
            rep = validate_certificate(path, Certificate(80, cut, kind=kind, k=k))
            assert rep.violations == ((40, 41, 1, 0),), (k, kind)


def test_k1_violations_on_a_dense_graph_are_the_sorted_lost_arcs():
    # complete digraph on 6 nodes; H keeps the cycle 0 -> 1 -> 2 -> 0 and the
    # path 2 -> 3 -> 4 -> 5, so the arcs back out of {3, 4, 5} lose their path
    g = Digraph(6, itertools.permutations(range(6), 2))
    h = frozenset({(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)})
    lost = ((3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2), (4, 3),
            (5, 0), (5, 1), (5, 2), (5, 3), (5, 4))
    for kind in ("node", "arc"):
        rep = validate_certificate(g, Certificate(6, h, kind=kind, k=1))
        assert rep.violations == tuple((u, v, 1, 0) for u, v in lost), kind
        assert not rep.ok and rep.contained


def test_local_arc_test_matches_all_pairs_oracles():
    rng = random.Random(26)
    oracle = {"arc": oracles.min_cut_lambda, "node": oracles.separator_kappa}
    verdicts = invalid = 0
    for _ in range(400):
        g = random_digraph(rng, 2, 6)
        sub = frozenset(a for a in g.arcs if rng.random() < rng.choice((0.4, 0.7, 1.0)))
        pairs = list(itertools.permutations(range(g.n), 2))
        for kind, conn in oracle.items():
            in_g = {p: conn(g.n, g.arcs, *p) for p in pairs}
            in_h = {p: conn(g.n, sub, *p) for p in pairs}
            for k in (1, 2, 3):
                want = all(in_h[p] >= min(k, in_g[p]) for p in pairs)
                rep = validate_certificate(g, Certificate(g.n, sub, kind=kind, k=k))
                assert rep.ok == want, (g.n, sorted(g.arcs), sorted(sub), kind, k)
                for u, v, need, got in rep.violations:
                    assert (u, v) in g.arcs - sub
                    assert (need, got) == (min(k, in_g[u, v]), min(k, in_h[u, v])) and got < need
                verdicts += 1
                invalid += not want
    assert verdicts == 2400 and invalid > verdicts // 2, invalid


def test_validate_certificate_arc_kind_and_containment():
    two_cycle = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    sub = Certificate(3, frozenset({(0, 1), (1, 0), (1, 2)}), kind="arc", k=1)
    rep = validate_certificate(two_cycle, sub)
    assert not rep.ok  # 2 -> 1 lost entirely
    foreign = Certificate(3, frozenset({(2, 0)}), kind="arc", k=1)
    assert not validate_certificate(two_cycle, foreign).contained
    with pytest.raises(ValueError):
        validate_certificate(two_cycle, Certificate(4, frozenset(), kind="arc", k=1))


def test_minimal_certificates_known_cases():
    # transitive triangle: the closing arc (0,2) is redundant at k=1
    tri = [(0, 1), (1, 2), (0, 2)]
    assert oracles.minimal_node_certs(3, tri, 1) == {frozenset({(0, 1), (1, 2)})}
    # at k=2 both routes 0->2 must stay
    assert oracles.minimal_node_certs(3, tri, 2) == {frozenset(tri)}
    cyc = [(0, 1), (1, 2), (2, 0)]
    assert oracles.minimal_node_certs(3, cyc, 1) == {frozenset(cyc)}
