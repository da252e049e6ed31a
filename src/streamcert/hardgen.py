"""Deterministic generators for communication-hard digraph families.

The constructions encode bit inputs into gadget components and glue the
components into a tournament-like graph whose independence number stays
bounded by the component size.  They double as a stress corpus: the encoded
combinatorial property (triangle, reachability, Hamiltonian path) is exactly
recoverable from the generated graph.  The exact checks of those properties are
test oracles (``tests/oracles.py``), since no library routine needs them.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .digraph import Digraph

BitMatrix = Sequence[Sequence[int]]

# Most arcs a dense generator adds: every family's arcs are held in memory before
# any is written, and a tournament on MAX_NODES nodes would need about 2 * 10**9.
MAX_ARCS = 1 << 21


def _check_arcs(count: int) -> None:
    if count > MAX_ARCS:
        raise ValueError(f"{count} arcs above the generators' ceiling of {MAX_ARCS}")


def _check_square(name: str, mat: BitMatrix, m: int) -> None:
    if len(mat) != m or any(len(row) != m for row in mat):
        raise ValueError(f"{name} must be a {m}x{m} matrix")
    for row in mat:
        for bit in row:
            if bit not in (0, 1):
                raise ValueError(f"{name} entries must be 0/1, got {bit!r}")


def gadget_plain(x: BitMatrix, y: BitMatrix) -> Digraph:
    """3m-node layered gadget: a_i -> b_j iff x_ij, b_j -> c_i iff y_ij."""
    m = len(x)
    _check_square("x", x, m)
    _check_square("y", y, m)
    arcs = set()
    for i in range(m):
        for j in range(m):
            if x[i][j]:
                arcs.add((i, m + j))
            if y[i][j]:
                arcs.add((m + j, 2 * m + i))
    return Digraph(3 * m, arcs)


def gadget_triangle(x: BitMatrix, y: BitMatrix) -> Digraph:
    """Orientation gadget: each (a,b) and (b,c) pair carries one arc.

    a_i -> b_j when x_ij = 1, else b_j -> a_i; b_j -> c_i when y_ij = 1, else
    c_i -> b_j; plus c_i -> a_i always.  A directed triangle through index
    pair (i, j) exists iff x_ij = y_ij = 1.
    """
    m = len(x)
    _check_square("x", x, m)
    _check_square("y", y, m)
    arcs = set()
    for i in range(m):
        arcs.add((2 * m + i, i))
        for j in range(m):
            arcs.add((i, m + j) if x[i][j] else (m + j, i))
            arcs.add((m + j, 2 * m + i) if y[i][j] else (2 * m + i, m + j))
    return Digraph(3 * m, arcs)


def gadget_triangle_alpha(x: int, y: int, alpha: int) -> Digraph:
    """Two-bit gadget with independence number at most ``alpha``.

    Nodes: s=0, u=1, t=2, then a path p_1..p_{2*alpha-3} from t to u that pads
    the gadget without creating shortcuts.  t is reachable from s iff not
    (x and y).
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if x not in (0, 1) or y not in (0, 1):
        raise ValueError("x and y must be single bits")
    s, u, t = 0, 1, 2
    pads = max(0, 2 * alpha - 3)
    arcs = set()
    arcs.add((s, t) if x == 0 else (t, s))
    if y == 0:
        arcs.update([(s, u), (u, t)])
    else:
        arcs.update([(u, s), (t, u)])
    if pads == 0:
        arcs.add((t, u))
    else:
        chain = [t] + [2 + i for i in range(1, pads + 1)] + [u]
        arcs.update(zip(chain, chain[1:]))
    return Digraph(3 + pads, arcs)


def embed_tournament(gadgets: Sequence[Digraph], d: int) -> Digraph:
    """Stack equal-size gadgets and add every forward inter-component arc.

    Component i occupies ids [i*d, (i+1)*d); any two nodes of different
    components are joined by the arc pointing from the lower component, so an
    independent set can never leave one component and alpha(G) <= d.  More
    than ``MAX_ARCS`` forward arcs raise ``ValueError`` before any is built.
    """
    for idx, gadget in enumerate(gadgets):
        if gadget.n != d:
            raise ValueError(f"gadget {idx} has {gadget.n} nodes, expected {d}")
    c = len(gadgets)
    _check_arcs(c * (c - 1) // 2 * d * d)
    total = c * d
    arcs = set()
    for i, gadget in enumerate(gadgets):
        base = i * d
        arcs.update((base + u, base + v) for u, v in gadget.arcs)
    for i in range(len(gadgets)):
        for j in range(i + 1, len(gadgets)):
            for a in range(d):
                for b in range(d):
                    arcs.add((i * d + a, j * d + b))
    return Digraph(total, arcs)


def gadget_tournament(
    build: Callable[[BitMatrix, BitMatrix], Digraph], bits: Sequence[int], m: int
) -> Digraph:
    """Embed one 3m-node ``build(x, y)`` gadget per 2m^2 bits: x's m^2 bits
    row by row, then y's.  This is the layout ``gen --bits`` reads.

    With :func:`gadget_triangle` the result holds a directed triangle iff some
    gadget has x_ij = y_ij = 1, because cross-component arcs all point forward
    and cannot close a cycle.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if len(bits) % (2 * m * m):
        raise ValueError(f"need a multiple of 2m^2 = {2 * m * m} bits, got {len(bits)}")
    rows = [list(bits[at:at + m]) for at in range(0, len(bits), m)]
    gadgets = [build(rows[i:i + m], rows[i + m:i + 2 * m]) for i in range(0, len(rows), 2 * m)]
    return embed_tournament(gadgets, 3 * m)


def hampath_star(gadgets: Sequence[Digraph]) -> Digraph:
    """Embed the gadgets, then add a source s*=n-2 and sink t*=n-1.

    s* points at every embedded node and every embedded node points at t*;
    the result has a Hamiltonian path iff every gadget has one.
    """
    if not gadgets:
        raise ValueError("need at least one gadget")
    d = gadgets[0].n
    base = embed_tournament(gadgets, d)
    inner = base.n
    arcs = set(base.arcs)
    arcs.update((inner, v) for v in range(inner))
    arcs.update((v, inner + 1) for v in range(inner))
    return Digraph(inner + 2, arcs)


def reach_backedge(
    gadgets: Sequence[tuple[Digraph, int, int]],
) -> tuple[Digraph, int, int]:
    """Chain reachability instances so the conjunction becomes one query.

    Each gadget comes with terminals (s_i, t_i), relabelled to local ids 0 and
    d-1.  After embedding, the single forward arc s_i -> t_{i+1} is reversed
    for consecutive components, making component i enterable only through its
    own s_i.  The returned query (s*, t*) runs from the last component's
    source to the first component's sink and is reachable iff every gadget's
    (s_i, t_i) is.
    """
    if not gadgets:
        raise ValueError("need at least one gadget")
    d = gadgets[0][0].n
    relabelled = []
    for idx, (gadget, s, t) in enumerate(gadgets):
        if gadget.n != d:
            raise ValueError(f"gadget {idx} has {gadget.n} nodes, expected {d}")
        if not (0 <= s < d and 0 <= t < d):
            raise ValueError(f"gadget {idx}: terminals ({s}, {t}) out of range")
        if s == t and d > 1:
            raise ValueError(f"gadget {idx}: terminals must differ")
        rename = {s: 0, t: d - 1}
        nxt = 1
        for v in range(d):
            if v not in rename:
                rename[v] = nxt
                nxt += 1
        relabelled.append(Digraph(d, ((rename[u], rename[v]) for u, v in gadget.arcs)))
    glued = embed_tournament(relabelled, d)
    arcs = set(glued.arcs)
    m = len(gadgets)
    for i in range(m - 1):
        fwd = (i * d, (i + 1) * d + d - 1)
        arcs.discard(fwd)
        arcs.add((fwd[1], fwd[0]))
    return Digraph(glued.n, arcs), (m - 1) * d, d - 1


def alpha_family(n: int, alpha: int) -> Digraph:
    """Benchmark tournament with independence number exactly ``alpha``."""
    if n < 0 or alpha < 1 or n % alpha:
        raise ValueError(f"need n >= 0 and alpha >= 1 dividing n, got n={n} alpha={alpha}")
    return embed_tournament([Digraph(alpha)] * (n // alpha), alpha)


def circulant(n: int, k: int) -> Digraph:
    """Arcs (v, v+1), ..., (v, v+k) mod n: the classic k-arc-strong cycle stack.
    Its undirected graph is the k-th power of an n-cycle, of independence number
    n // (k + 1).  More than ``MAX_ARCS`` arcs raise ``ValueError``."""
    if n < 3 or not 1 <= k < n:
        raise ValueError(f"need n >= 3 and 1 <= k < n, got n={n} k={k}")
    _check_arcs(n * k)
    return Digraph(n, ((v, (v + s) % n) for v in range(n) for s in range(1, k + 1)))


def transitive_tournament(n: int) -> Digraph:
    """All arcs low -> high; the densest graph with independence number 1."""
    return alpha_family(n, 1)
