from __future__ import annotations

import itertools
import random

import pytest

import oracles
from conftest import gadget_bits, random_digraph
from streamcert.digraph import Digraph
from streamcert.hardgen import (
    alpha_family,
    circulant,
    embed_tournament,
    gadget_plain,
    gadget_tournament,
    gadget_triangle,
    gadget_triangle_alpha,
    hampath_star,
    reach_backedge,
    transitive_tournament,
)

ZERO2 = [[0, 0], [0, 0]]
FIG_X = [[0, 0], [1, 0]]
FIG_Y = [[1, 0], [1, 1]]


# ---------------------------------------------------------------------------
# plain gadget
# ---------------------------------------------------------------------------


def test_plain_gadget_degenerate_shapes():
    assert gadget_plain(ZERO2, ZERO2).arcs == frozenset()
    assert gadget_plain([[1]], [[1]]).arcs == {(0, 1), (1, 2)}


def test_plain_gadget_reachability_exhaustive():
    # a_i reaches c_i exactly when some column j carries a 1 in both matrices
    for xa, xb, xc, xd, ya, yb, yc, yd in itertools.product((0, 1), repeat=8):
        x = [[xa, xb], [xc, xd]]
        y = [[ya, yb], [yc, yd]]
        g = gadget_plain(x, y)
        reach = oracles.closure_sets(g.n, g.arcs)
        for i in range(2):
            expect = any(x[i][j] and y[i][j] for j in range(2))
            assert ((4 + i) in reach[i]) == expect, (x, y, i)


def test_gadget_matrix_validation():
    with pytest.raises(ValueError):
        gadget_plain([[0, 0]], ZERO2)
    with pytest.raises(ValueError):
        gadget_plain(ZERO2, [[0, 2], [0, 0]])
    with pytest.raises(ValueError):
        gadget_triangle([[0], [0]], [[0], [0]])


# ---------------------------------------------------------------------------
# triangle gadget
# ---------------------------------------------------------------------------


def test_triangle_gadget_figure_arcs():
    g = gadget_triangle(FIG_X, FIG_Y)
    assert g.arcs == {
        (2, 0), (3, 0), (1, 2), (3, 1),  # a/b layer oriented by x
        (2, 4), (4, 3), (2, 5), (3, 5),  # b/c layer oriented by y
        (4, 0), (5, 1),  # the fixed returns c_i -> a_i
    }
    assert oracles.has_triangle_masks(g.n, g.arcs)  # 1 -> 2 -> 5 -> 1


def test_triangle_gadget_zero_is_triangle_free():
    g = gadget_triangle(ZERO2, ZERO2)
    assert not oracles.has_triangle_masks(g.n, g.arcs)


def test_triangle_gadget_matches_intersection_exhaustively():
    for bits in range(256):
        x = [[(bits >> (2 * r + c)) & 1 for c in range(2)] for r in range(2)]
        y = [[(bits >> (4 + 2 * r + c)) & 1 for c in range(2)] for r in range(2)]
        g = gadget_triangle(x, y)
        expect = any(x[r][c] and y[r][c] for r in range(2) for c in range(2))
        assert oracles.has_triangle_masks(g.n, g.arcs) == expect
        assert oracles.has_triangle(g.n, g.arcs) == expect


def test_triangle_gadget_independence_small():
    rng = random.Random(50)
    for m in (1, 2, 3):
        for _ in range(6):
            x = [[rng.randint(0, 1) for _ in range(m)] for _ in range(m)]
            y = [[rng.randint(0, 1) for _ in range(m)] for _ in range(m)]
            g = gadget_triangle(x, y)
            assert oracles.independence_number(g.n, g.arcs) <= m


# ---------------------------------------------------------------------------
# tournament embedding
# ---------------------------------------------------------------------------


def test_embed_edgeless_pair():
    g = embed_tournament([Digraph(2), Digraph(2)], 2)
    assert g.arcs == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_embed_figure_tournament_arc_for_arc():
    g = embed_tournament([gadget_triangle(ZERO2, ZERO2), gadget_triangle(FIG_X, FIG_Y)], 6)
    first = {(4, 0), (5, 1), (2, 0), (3, 0), (2, 1), (3, 1), (4, 2), (4, 3), (5, 2), (5, 3)}
    second = {
        (8, 6), (9, 6), (7, 8), (9, 7), (8, 10), (10, 9), (8, 11), (9, 11), (10, 6), (11, 7)
    }
    cross = {(u, v) for u in range(6) for v in range(6, 12)}
    assert g.n == 12 and g.arcs == first | second | cross
    assert oracles.has_triangle_masks(g.n, g.arcs)


def test_embed_size_mismatch():
    with pytest.raises(ValueError):
        embed_tournament([Digraph(2), Digraph(3)], 2)


def test_embed_independence_bound_exact():
    rng = random.Random(51)
    for _ in range(10):
        d = rng.randint(1, 3)
        gadgets = [random_digraph(rng, d, d) for _ in range(rng.randint(1, 4))]
        g = embed_tournament(gadgets, d)
        assert oracles.independence_number(g.n, g.arcs) <= d


def test_triangle_tournament_tracks_bit_intersection():
    # exhaustive at alpha=1 with up to 3 single-bit blocks
    for length in (1, 2, 3):
        for xv in itertools.product((0, 1), repeat=length):
            for yv in itertools.product((0, 1), repeat=length):
                g = gadget_tournament(gadget_triangle, gadget_bits(xv, yv, 1), 1)
                expect = any(a and b for a, b in zip(xv, yv))
                assert oracles.has_triangle_masks(g.n, g.arcs) == expect
    # seeded sampling at alpha=2 (blocks of 4 bits)
    rng = random.Random(52)
    for _ in range(40):
        length = rng.choice((4, 8))
        xv = [rng.randint(0, 1) for _ in range(length)]
        yv = [rng.randint(0, 1) for _ in range(length)]
        g = gadget_tournament(gadget_triangle, gadget_bits(xv, yv, 2), 2)
        assert oracles.has_triangle_masks(g.n, g.arcs) == any(a and b for a, b in zip(xv, yv))


def test_triangle_tournament_validation():
    with pytest.raises(ValueError):
        gadget_tournament(gadget_triangle, [1, 0, 1, 0, 1, 1], 2)
    with pytest.raises(ValueError):
        gadget_tournament(gadget_triangle, [1, 0, 1], 1)
    with pytest.raises(ValueError):
        gadget_tournament(gadget_triangle, [], 0)


# ---------------------------------------------------------------------------
# two-bit alpha gadget
# ---------------------------------------------------------------------------


def test_alpha_gadget_reachability_truth_table():
    for alpha in (1, 2, 3, 4):
        for x in (0, 1):
            for y in (0, 1):
                g = gadget_triangle_alpha(x, y, alpha)
                reach = oracles.closure_sets(g.n, g.arcs)
                assert (2 in reach[0]) == (not (x and y)), (alpha, x, y)
                assert oracles.independence_number(g.n, g.arcs) <= alpha


def test_alpha_gadget_figure_hamiltonian_path():
    g = gadget_triangle_alpha(0, 1, 3)
    assert g.n == 6
    # the drawn path s -> t -> p1 -> p2 -> p3 -> u
    for arc in [(0, 2), (2, 3), (3, 4), (4, 5), (5, 1)]:
        assert arc in g.arcs
    assert oracles.has_ham_path_dp(g.n, g.arcs)


def test_alpha_gadget_both_bits_set():
    g = gadget_triangle_alpha(1, 1, 3)
    reach = oracles.closure_sets(g.n, g.arcs)
    assert 2 not in reach[0]
    # the pad chain still threads every node even though s -> t is blocked
    assert oracles.has_ham_path_dp(g.n, g.arcs) == oracles.ham_path_exists(g.n, g.arcs)


def test_alpha_gadget_validation():
    with pytest.raises(ValueError):
        gadget_triangle_alpha(0, 0, 0)
    with pytest.raises(ValueError):
        gadget_triangle_alpha(2, 0, 1)


# ---------------------------------------------------------------------------
# hampath star
# ---------------------------------------------------------------------------


def _all_digraphs(n: int):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(pairs)):
        yield Digraph(n, [p for i, p in enumerate(pairs) if (bits >> i) & 1])


def test_hampath_star_conjunction_exhaustive_d2():
    catalogue = list(_all_digraphs(2))
    for count in (1, 2, 3):
        for combo in itertools.product(catalogue, repeat=count):
            star = hampath_star(combo)
            expect = all(oracles.ham_path_exists(g.n, g.arcs) for g in combo)
            assert oracles.has_ham_path_dp(star.n, star.arcs) == expect


def test_hampath_star_conjunction_random():
    rng = random.Random(53)
    for _ in range(40):
        d = rng.randint(3, 5)
        combo = [random_digraph(rng, d, d) for _ in range(rng.randint(1, 3))]
        star = hampath_star(combo)
        expect = all(oracles.ham_path_exists(g.n, g.arcs) for g in combo)
        assert oracles.has_ham_path_dp(star.n, star.arcs) == expect


def test_hampath_star_trivia():
    two_path = Digraph(2, [(0, 1)])
    for combo, expect in (([Digraph(1)] * 3, True), ([Digraph(2)], False), ([two_path, two_path], True)):
        star = hampath_star(combo)
        assert oracles.has_ham_path_dp(star.n, star.arcs) == expect
    with pytest.raises(ValueError):
        hampath_star([])


# ---------------------------------------------------------------------------
# reach backedge chain
# ---------------------------------------------------------------------------


def test_reach_chain_conjunction_random():
    rng = random.Random(54)
    for _ in range(60):
        d = rng.randint(2, 5)
        gadgets = []
        expect = True
        for _ in range(rng.randint(1, 4)):
            g = random_digraph(rng, d, d)
            s, t = rng.sample(range(d), 2)
            gadgets.append((g, s, t))
            reach = oracles.closure_sets(g.n, g.arcs)
            expect = expect and (t in reach[s])
        glued, src, dst = reach_backedge(gadgets)
        reach = oracles.closure_sets(glued.n, glued.arcs)
        assert (dst in reach[src]) == expect


def test_reach_chain_trivia():
    direct = (Digraph(2, [(0, 1)]), 0, 1)
    glued, src, dst = reach_backedge([direct, direct, direct])
    assert (src, dst) == (4, 1)
    assert dst in oracles.closure_sets(glued.n, glued.arcs)[src]

    broken = (Digraph(2), 0, 1)
    glued, src, dst = reach_backedge([direct, broken])
    assert dst not in oracles.closure_sets(glued.n, glued.arcs)[src]

    solo = Digraph(3, [(0, 2), (2, 1)])
    glued, src, dst = reach_backedge([(solo, 0, 1)])
    assert (src, dst) == (0, 2)
    assert dst in oracles.closure_sets(glued.n, glued.arcs)[src]


def test_reach_chain_validation():
    with pytest.raises(ValueError):
        reach_backedge([])
    with pytest.raises(ValueError):
        reach_backedge([(Digraph(3), 0, 3)])
    with pytest.raises(ValueError):
        reach_backedge([(Digraph(3), 1, 1)])
    with pytest.raises(ValueError):
        reach_backedge([(Digraph(3), 0, 1), (Digraph(2), 0, 1)])


# ---------------------------------------------------------------------------
# benchmark families + validators
# ---------------------------------------------------------------------------


def test_alpha_family_hits_its_independence_number():
    for n, alpha in [(6, 1), (6, 2), (6, 3), (8, 4), (12, 3)]:
        g = alpha_family(n, alpha)
        assert oracles.independence_number(g.n, g.arcs) == alpha
    with pytest.raises(ValueError):
        alpha_family(7, 2)
    with pytest.raises(ValueError):
        alpha_family(4, 0)
    with pytest.raises(ValueError, match="n >= 0"):
        alpha_family(-3, 1)


def test_circulant_hits_its_independence_number():
    # the undirected graph is the k-th power of an n-cycle: alpha = n // (k + 1)
    for n in range(3, 13):
        for k in range(1, n):
            g = circulant(n, k)
            assert oracles.independence_number(g.n, g.arcs) == n // (k + 1), (n, k)


def test_transitive_tournament_shape():
    g = transitive_tournament(5)
    assert g.arcs == {(u, v) for u in range(5) for v in range(5) if u < v}
    assert oracles.independence_number(g.n, g.arcs) == 1


def test_circulant_strength():
    g = circulant(7, 2)
    assert g.m == 14
    lam = min(
        oracles.min_cut_lambda(g.n, g.arcs, a, b)
        for a in range(g.n)
        for b in range(g.n)
        if a != b
    )
    assert lam == 2
    with pytest.raises(ValueError):
        circulant(2, 1)
    with pytest.raises(ValueError):
        circulant(5, 5)


def test_validators_match_bruteforce():
    rng = random.Random(55)
    for _ in range(40):
        g = random_digraph(rng, 2, 7)
        assert oracles.has_triangle_masks(g.n, g.arcs) == oracles.has_triangle(g.n, g.arcs)
        assert oracles.has_ham_path_dp(g.n, g.arcs) == oracles.ham_path_exists(g.n, g.arcs)


def test_hamiltonian_budget():
    g = transitive_tournament(19)
    with pytest.raises(ValueError, match="capped at n=18"):
        oracles.has_ham_path_dp(g.n, g.arcs)
