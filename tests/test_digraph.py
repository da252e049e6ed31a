from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import random_digraph, random_multi_scc_digraph, relabelled
from streamcert.digraph import (
    ChainCover,
    Digraph,
    GraphFormatError,
    chain_cover_minimum,
    reachability_masks,
    scc_ids,
    scc_tarjan,
    transitive_closure,
)


def test_construction_dedupes_and_sorts_neighbors():
    g = Digraph(4, [(0, 1), (0, 1), (2, 1), (0, 3)])
    assert g.m == 3
    assert g.out_neighbors(0) == (1, 3)
    assert g.in_neighbors(1) == (0, 2)


def test_construction_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        Digraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Digraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Digraph(3, [(-1, 0)])


def test_construction_rejects_float_ids():
    for arcs in ([(0.2, 1)], [(0, 1.0)], [(0, 1), (2.5, 0)]):
        with pytest.raises(TypeError):
            Digraph(3, arcs)


def test_text_round_trip_and_format_errors():
    g = Digraph(4, [(0, 1), (1, 2), (3, 0)])
    assert Digraph.from_text(g.to_text()).arcs == g.arcs
    for bad in ("", "3\n", "2 1\n0 0\n", "2 1\n0 1\n0 1\n", "2 one\n", "65537 0\n",
                "-1 0\n", "3 1\n0 7\n", "3 1\n-1 0\n"):
        with pytest.raises(GraphFormatError):
            Digraph.from_text(bad)


@pytest.mark.parametrize("text", ["11 1\n1_0 2\n", "1_1 0\n", "4 1\n\u0663 2\n", "4 1\n0 \uff11\n",
                                  "+3 0\n", "3 1\n+0 1\n", "3 1\n1 -0\n"])
def test_graph_text_node_ids_are_ascii_decimal(text):
    # int() alone would read 1_0 as 10, the Arabic-Indic or full-width digit as 3 or 1, and -0 as 0
    with pytest.raises(GraphFormatError, match="ASCII decimal"):
        Digraph.from_text(text)


def test_reachability_against_bfs_oracle():
    rng = random.Random(0)
    for _ in range(60):
        g = random_digraph(rng, 1, 12)
        ref = oracles.closure_sets(g.n, g.arcs)
        masks = reachability_masks(g)
        for v in range(g.n):
            assert {w for w in range(g.n) if (masks[v] >> w) & 1} == ref[v]


def test_closure_sweep_across_components_labellings_and_paths():
    rng = random.Random(12)
    several = 0
    for _ in range(40):
        drawn = random_multi_scc_digraph(rng)
        for g in relabelled(drawn, rng):
            masks = reachability_masks(g)
            ref = oracles.closure_sets(g.n, g.arcs)
            assert [{w for w in range(g.n) if masks[v] >> w & 1} for v in range(g.n)] == ref
        several += sum(len(c) > 1 for c in scc_tarjan(drawn)) >= 2
    assert several >= 20
    for n in (1, 2, 60, 500):
        for path in (Digraph(n, ((i, i + 1) for i in range(n - 1))),
                     Digraph(n, ((i + 1, i) for i in range(n - 1)))):
            masks = reachability_masks(path)
            ref = oracles.closure_sets(n, path.arcs)
            assert [{w for w in range(n) if masks[v] >> w & 1} for v in range(n)] == ref


def test_transitive_closure_matches_oracle():
    rng = random.Random(1)
    for _ in range(40):
        g = random_digraph(rng, 1, 10)
        ref = oracles.closure_sets(g.n, g.arcs)
        tc = transitive_closure(g)
        assert tc.arcs == frozenset(
            (u, v) for u in range(g.n) for v in ref[u] if u != v
        )


def test_scc_tarjan_matches_mutual_reachability():
    rng = random.Random(2)
    for _ in range(60):
        g = random_digraph(rng, 1, 12)
        assert set(map(frozenset, scc_tarjan(g))) == oracles.scc_partition(g.n, g.arcs)


def test_scc_tarjan_pins_its_emission_order():
    # three components, {0,1} and {3,4} incomparable above the sink {2,5}: the order
    # follows the depth-first visit from node 0, and every component id depends on it;
    # each component lists its nodes in the order they leave the stack
    g = Digraph(6, [(0, 1), (1, 0), (1, 2), (3, 4), (4, 3), (2, 5), (4, 5), (5, 2)])
    assert scc_tarjan(g) == [[5, 2], [1, 0], [4, 3]]


def test_scc_tarjan_runs_deeper_than_the_recursion_limit():
    n = 50_000
    path = scc_tarjan(Digraph(n, [(i, i + 1) for i in range(n - 1)]))
    assert len(path) == n and path[0] == [n - 1] and path[-1] == [0]
    assert scc_tarjan(Digraph(n, [(i, (i + 1) % n) for i in range(n)])) == [list(range(n - 1, -1, -1))]


def test_scc_ids_reverse_topological():
    """Tarjan emits sink components first, so ids strictly drop along cross arcs."""
    rng = random.Random(3)
    for _ in range(40):
        g = random_digraph(rng, 2, 12)
        ids = scc_ids(g)
        comps = scc_tarjan(g)
        for u, v in g.arcs:
            if ids[u] != ids[v]:
                assert ids[u] > ids[v]
        assert sorted(set(ids)) == list(range(len(comps)))


@given(st.integers(0, 2**30 - 1))
def test_independence_exact_on_arbitrary_six_node_graphs(bits):
    pairs = [(u, v) for u in range(6) for v in range(6) if u != v]
    arcs = [pairs[i] for i in range(30) if (bits >> i) & 1]
    g = Digraph(6, arcs)
    assert oracles.independence_number_bb(6, arcs) == oracles.independence_number(6, arcs)


def _assert_valid_chain_cover(g: Digraph, cover: ChainCover):
    seen: list[int] = []
    masks = reachability_masks(g)
    for chain in cover.chains:
        seen.extend(chain)
        for a, b in zip(chain, chain[1:]):
            assert (masks[a] >> b) & 1, (chain, a, b)
    assert sorted(seen) == list(range(g.n))


def test_chain_cover_is_valid_and_minimum():
    rng = random.Random(6)
    for _ in range(40):
        drawn = random_digraph(rng, 1, 8)
        perm = list(range(drawn.n))
        rng.shuffle(perm)
        permuted = Digraph(drawn.n, ((perm[u], perm[v]) for u, v in drawn.arcs))
        for g in (drawn, permuted):
            cover = chain_cover_minimum(g)
            _assert_valid_chain_cover(g, cover)
            assert len(cover) == oracles.min_chain_cover_size(g.n, g.arcs)
            assert oracles.min_chain_cover_size_matching(g.n, g.arcs) == len(cover)


def _wide_sparse_dag(rng: random.Random, n: int) -> Digraph:
    """Two or three arcs per node, each to one of its next 20 ids: a wide order."""
    k = rng.choice((2, 3))
    return Digraph(n, {(u, rng.randint(u + 1, min(n - 1, u + 20))) for u in range(n - 1) for _ in range(k)})


def test_chain_cover_at_scale_matches_a_plain_matching_oracle():
    """Graphs past the subset DP's reach, where the greedy sweep leaves numbers to
    augment: wide sparse DAGs and sparse digraphs with planted cycles, each as drawn
    and relabelled, judged by closure sets and Kuhn's method over Python sets."""
    rng = random.Random(41)
    drawn = [_wide_sparse_dag(rng, rng.randint(60, 120)) for _ in range(6)]
    drawn += [random_multi_scc_digraph(rng, 60, 120) for _ in range(6)]
    widths = set()
    for g in (copy for d in drawn for copy in relabelled(d, rng)):
        cover = chain_cover_minimum(g)
        reach = oracles.closure_sets(g.n, g.arcs)
        assert sorted(v for chain in cover.chains for v in chain) == list(range(g.n))
        assert all(b in reach[a] for chain in cover.chains for a, b in zip(chain, chain[1:]))
        assert len(cover) == oracles.min_chain_cover_size_matching(g.n, g.arcs)
        widths.add(len(cover))
    assert max(widths) >= 10


def test_chain_cover_of_a_reversed_path_is_one_chain():
    n = 3000
    g = Digraph(n, [(v + 1, v) for v in range(n - 1)])
    assert chain_cover_minimum(g).chains == (tuple(range(n - 1, -1, -1)),)


def test_chain_cover_at_most_independence_number():
    rng = random.Random(7)
    for _ in range(40):
        g = random_digraph(rng, 1, 12)
        assert len(chain_cover_minimum(g)) <= oracles.independence_number_bb(g.n, g.arcs)


def test_branching_validity_rejects_wrong_shapes():
    g = Digraph(3, [(0, 1), (1, 2), (0, 2), (2, 0)])
    assert oracles.is_spanning_branching(g.n, g.arcs, {(0, 1), (1, 2)}, 0, "out")
    # two parents for node 2
    assert not oracles.is_spanning_branching(g.n, g.arcs, {(0, 2), (1, 2)}, 0, "out")
    # arc not in the graph
    assert not oracles.is_spanning_branching(g.n, g.arcs, {(0, 1), (2, 1)}, 0, "out")
    # cycle instead of a tree
    assert not oracles.is_spanning_branching(g.n, g.arcs, {(0, 2), (2, 0)}, 1, "out")
    # a parent for the root
    assert not oracles.is_spanning_branching(g.n, g.arcs, {(2, 0), (0, 1)}, 0, "out")
    # the same tree read the other way round
    assert oracles.is_spanning_branching(g.n, g.arcs, {(1, 2), (0, 2)}, 2, "in")
    assert not oracles.is_spanning_branching(g.n, g.arcs, {(0, 1), (1, 2)}, 0, "in")


@pytest.mark.parametrize("kind", ["out", "in"])
def test_branching_root_outside_the_graph_is_invalid(kind):
    one, path = Digraph(1), Digraph(3, [(0, 1), (1, 2), (1, 0), (2, 1)])
    tree = oracles.bfs_branching(path.n, path.arcs, 1, kind)
    assert oracles.is_spanning_branching(path.n, path.arcs, tree, 1, kind)
    for g, arcs in ((one, frozenset()), (path, tree)):
        for root in (-1, g.n):
            assert not oracles.is_spanning_branching(g.n, g.arcs, arcs, root, kind)


def test_branching_validity_on_a_long_path():
    n = 20_000
    g = Digraph(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 2)])
    tree = oracles.bfs_branching(g.n, g.arcs, 0, "out")
    assert oracles.is_spanning_branching(g.n, g.arcs, tree, 0, "out")
    # reversing the last tree arc leaves node n-1 unreached, with n-1 arcs still in g
    flipped = (tree - {(n - 2, n - 1)}) | {(n - 1, n - 2)}
    assert not oracles.is_spanning_branching(g.n, g.arcs, flipped, 0, "out")
