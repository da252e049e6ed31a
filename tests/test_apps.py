from __future__ import annotations

import random

import pytest

import oracles
from conftest import random_digraph, random_multi_scc_digraph, random_strong_digraph, relabelled, stream_of
from streamcert.apps import (
    arc_disjoint_out_branchings,
    distance_d_dominating,
    min_chain_cover_dag,
    msss_2apx,
    scc_and_toposort,
    strong_bridges,
    two_sat,
)
from streamcert.certify_k import SampleScheme, k_arc_cert_peeling, k_arc_cert_sampled
from streamcert.certify_one import Certificate, RecursionPlan
from streamcert.digraph import Digraph, scc_tarjan, transitive_closure
from streamcert.exact import validate_certificate
from streamcert.hardgen import alpha_family, circulant
from streamcert.streams import INSERTION_ONLY


def as_cert(g: Digraph, k: int = 1) -> Certificate:
    return Certificate(g.n, g.arcs, kind="node", k=k)


def cycle(n: int) -> Digraph:
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# scc + toposort
# ---------------------------------------------------------------------------


def test_scc_matches_mutual_reachability():
    rng = random.Random(40)
    for _ in range(30):
        g = random_digraph(rng, 2, 10)
        comp, _ = scc_and_toposort(as_cert(g))
        blocks = {}
        for v, c in enumerate(comp):
            blocks.setdefault(c, set()).add(v)
        got = {frozenset(b) for b in blocks.values()}
        assert got == oracles.scc_partition(g.n, g.arcs)


def test_toposort_ranks_respect_arcs():
    rng = random.Random(41)
    for _ in range(30):
        g = random_digraph(rng, 2, 10)
        comp, rank = scc_and_toposort(as_cert(g))
        for u, v in g.arcs:
            if comp[u] == comp[v]:
                assert rank[u] == rank[v]
            else:
                assert rank[u] < rank[v]


def _arc_certificates():
    """(input, certificate, width or None): peeled k-arc certificates of circulants,
    which are s-arc-strong for s >= k, and sampled 2-arc certificates of
    ``alpha_family`` DAGs, of width alpha, and of seeded random digraphs."""
    for n, s, k in ((8, 5, 2), (10, 6, 2), (12, 7, 3), (13, 5, 2)):
        g = circulant(n, s)
        yield g, k_arc_cert_peeling(stream_of(g, INSERTION_ONLY, seed=n), k, RecursionPlan(1))[0], None
    rng = random.Random(49)
    drawn = [(alpha_family(n, a), a) for n, a in ((12, 3), (16, 2), (16, 4), (20, 5), (24, 3))]
    drawn += [(random_digraph(rng, 4, 12), None) for _ in range(24)]
    drawn += [(alpha_family(n, a), a) for n, a in ((28, 4), (30, 5))]
    for seed, (g, width) in enumerate(drawn):
        scheme = SampleScheme(rho=0.5, r=8 if width else 5, seed=seed)
        yield g, k_arc_cert_sampled(stream_of(g, INSERTION_ONLY, seed), 2, scheme, RecursionPlan(2))[0], width


def test_apps_answer_from_arc_certificates():
    """A certificate of either kind keeps its input's closure, and at k >= 2 its
    strong bridges, so every app answers for the input from an arc certificate."""
    checked = pruned = widths = 0
    for g, cert, width in _arc_certificates():
        assert cert.kind == "arc" and cert.k >= 2
        if not validate_certificate(g, cert).ok:
            continue
        checked, pruned = checked + 1, pruned + (cert.m < g.m)
        comps = oracles.scc_partition(g.n, g.arcs)
        comp, rank = scc_and_toposort(cert)
        assert {frozenset(v for v in range(g.n) if comp[v] == c) for c in comp} == comps
        assert all(rank[u] == rank[v] if comp[u] == comp[v] else rank[u] < rank[v] for u, v in g.arcs)
        ref = oracles.closure_sets(g.n, g.arcs)
        assert transitive_closure(cert).arcs == {(s, t) for s in range(g.n) for t in ref[s] if s != t}
        assert strong_bridges(cert) == oracles.strong_bridges(g.n, g.arcs)
        sub = msss_2apx(cert)
        if oracles.is_strong(g.n, g.arcs):
            assert sub.arcs <= g.arcs and oracles.is_strong(g.n, sub.arcs) and sub.m <= 2 * g.n - 2
        else:
            assert sub is None
        if width is not None:
            assert len(min_chain_cover_dag(cert)) == width
            widths += cert.m < g.m
    assert checked >= 25 and pruned >= 12 and widths >= 4, (checked, pruned, widths)


# ---------------------------------------------------------------------------
# 2-SAT
# ---------------------------------------------------------------------------


def _random_clauses(rng: random.Random, nvars: int, m: int):
    out = []
    for _ in range(m):
        a = rng.choice([-1, 1]) * rng.randint(1, nvars)
        b = rng.choice([-1, 1]) * rng.randint(1, nvars)
        out.append((a, b))
    return out


def test_two_sat_against_enumeration():
    rng = random.Random(42)
    for _ in range(120):
        nvars = rng.randint(1, 6)
        clauses = _random_clauses(rng, nvars, rng.randint(0, 12))
        got = two_sat(clauses, nvars)
        if got is None:
            assert not oracles.two_sat_satisfiable(clauses, nvars)
        else:
            assert oracles.two_sat_check(clauses, got)


def test_two_sat_tautology_is_harmless():
    # (x or not x) must not create a spurious implication x -> not x
    assert two_sat([(1, -1)], 1) is not None
    assert two_sat([(1, -1), (2, 2)], 2) == [True, True] or two_sat(
        [(1, -1), (2, 2)], 2
    )[1]


def test_two_sat_known_unsat():
    clauses = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    assert two_sat(clauses, 2) is None


def test_two_sat_bad_literals():
    with pytest.raises(ValueError):
        two_sat([(0, 1)], 2)
    with pytest.raises(ValueError):
        two_sat([(3, 1)], 2)
    with pytest.raises(ValueError):
        two_sat([(1, 1, 1)], 1)  # type: ignore[list-item]
    with pytest.raises(ValueError):
        two_sat([], -1)


# ---------------------------------------------------------------------------
# chain cover + closure
# ---------------------------------------------------------------------------


def test_chain_cover_on_dag_is_minimum():
    rng = random.Random(43)
    done = 0
    while done < 20:
        g = random_digraph(rng, 2, 7)
        if any(len(c) > 1 for c in oracles.scc_partition(g.n, g.arcs)):
            continue
        cover = min_chain_cover_dag(as_cert(g))
        assert sorted(v for chain in cover.chains for v in chain) == list(range(g.n))
        assert len(cover) == oracles.min_chain_cover_size(g.n, g.arcs)
        done += 1


def test_chain_cover_decomposes_its_graph_once(monkeypatch):
    from streamcert import apps, digraph

    calls = []
    tarjan = digraph.scc_tarjan

    def counting(g):
        calls.append(g)
        return tarjan(g)

    # both bindings, so a call through chain_cover_minimum counts too
    monkeypatch.setattr(digraph, "scc_tarjan", counting)
    monkeypatch.setattr(apps, "scc_tarjan", counting)
    rng = random.Random(45)
    for _ in range(20):
        g = Digraph(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.3])
        calls.clear()
        cover = min_chain_cover_dag(as_cert(g))
        assert len(calls) == 1 and len(cover) == oracles.min_chain_cover_size(g.n, g.arcs)


def test_chain_cover_rejects_cycles():
    with pytest.raises(ValueError):
        min_chain_cover_dag(as_cert(cycle(3)))


def test_closure_from_cert_matches_oracle():
    rng = random.Random(44)
    for _ in range(20):
        g = random_digraph(rng, 2, 9)
        closed = transitive_closure(as_cert(g))
        ref = oracles.closure_sets(g.n, g.arcs)
        # the closure graph cannot carry loops, so on-cycle self pairs drop out
        assert closed.arcs == frozenset(
            (s, t) for s in range(g.n) for t in ref[s] if s != t
        )


# ---------------------------------------------------------------------------
# spanning strongly connected subgraph
# ---------------------------------------------------------------------------


def test_msss_is_spanning_and_within_twice_optimum():
    rng = random.Random(45)
    done = 0
    while done < 15:
        g = random_strong_digraph(rng, 3, 7, extra=0.5)
        if g.m > 16:
            continue
        sub = msss_2apx(as_cert(g))
        assert sub is not None
        assert sub.arcs <= g.arcs
        assert oracles.is_strong(sub.n, sub.arcs)
        assert sub.m <= 2 * sub.n - 2
        best = oracles.msss_optimum(g.n, g.arcs)
        assert best is not None and sub.m <= 2 * best
        done += 1


def test_msss_is_the_two_branchings_from_node_zero():
    rng = random.Random(48)
    for _ in range(40):
        g = random_strong_digraph(rng, 2, 30, extra=rng.choice((0.05, 0.2, 0.5)))
        ref = oracles.bfs_branching(g.n, g.arcs, 0, "out") | oracles.bfs_branching(g.n, g.arcs, 0, "in")
        assert msss_2apx(as_cert(g)).arcs == ref


def test_msss_none_when_not_strong():
    assert msss_2apx(as_cert(Digraph(3, [(0, 1), (1, 2)]))) is None


# ---------------------------------------------------------------------------
# strong bridges
# ---------------------------------------------------------------------------


def test_strong_bridges_two_regular_circulant_has_none():
    g = Digraph(5, [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)])
    assert strong_bridges(as_cert(g, k=2)) == frozenset()


def test_strong_bridges_plain_cycle_is_all_arcs():
    g = cycle(5)
    assert strong_bridges(as_cert(g, k=2)) == g.arcs


def test_strong_bridges_against_recount():
    rng = random.Random(46)
    for _ in range(25):
        g = random_digraph(rng, 2, 8)
        assert strong_bridges(as_cert(g, k=2)) == oracles.strong_bridges(g.n, g.arcs)


def test_strong_bridges_across_components_and_labellings():
    rng = random.Random(47)
    several = found = 0
    for _ in range(30):
        drawn = random_multi_scc_digraph(rng, 8, 20)
        for g in relabelled(drawn, rng):
            got = strong_bridges(as_cert(g, k=2))
            assert got == oracles.strong_bridges(g.n, g.arcs), sorted(g.arcs)
        several += sum(len(c) > 1 for c in scc_tarjan(drawn)) >= 2
        found += bool(got)
    assert several >= 10 and found >= 10


def test_strong_bridges_need_second_level():
    with pytest.raises(ValueError):
        strong_bridges(as_cert(cycle(4), k=1))


# ---------------------------------------------------------------------------
# branchings from certificates
# ---------------------------------------------------------------------------


def test_arc_disjoint_branchings_from_cert():
    k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    fams = arc_disjoint_out_branchings(as_cert(k4, k=2), 1, 2)
    assert len(fams) == 2 and not (fams[0].arcs & fams[1].arcs)
    for fam in fams:
        assert fam.root == 1 and oracles.is_spanning_branching(k4.n, k4.arcs, fam.arcs, 1, fam.kind)
    with pytest.raises(ValueError):
        arc_disjoint_out_branchings(as_cert(k4, k=1), 0, 2)


# ---------------------------------------------------------------------------
# dominating sets
# ---------------------------------------------------------------------------


def test_dominating_set_nine_cycle():
    assert distance_d_dominating(as_cert(cycle(9)), 3) == {0, 1, 5}


def test_dominating_set_covers_within_budget():
    rng = random.Random(47)
    for _ in range(25):
        g = random_strong_digraph(rng, 3, 10, extra=0.4)
        d = rng.randint(1, 4)
        chosen = distance_d_dominating(as_cert(g), d)
        assert len(chosen) <= -(-g.n // d)
        covered = set()
        for s in chosen:
            covered |= oracles.ball_out(g.n, g.arcs, s, d)
        assert covered == set(range(g.n))


def test_dominating_set_on_a_long_cycle_covers_within_budget():
    """The BFS tree of a 20 000-node cycle is 19 999 levels deep.  On the
    cycle i -> i+1 the ball of s is s..s+d, mod n."""
    n = 20_000
    g = cycle(n)
    for d in (1, 2, 50):
        chosen = distance_d_dominating(as_cert(g), d)
        assert len(chosen) <= -(-n // d)
        covered = {(s + j) % n for s in chosen for j in range(d + 1)}
        assert covered == set(range(n)), d


def test_dominating_set_rejects_bad_input():
    with pytest.raises(ValueError):
        distance_d_dominating(as_cert(cycle(4)), 0)
    with pytest.raises(ValueError):
        distance_d_dominating(as_cert(Digraph(3, [(0, 1), (1, 2)])), 2)
