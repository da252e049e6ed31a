"""Problems solved downstream of a connectivity certificate.

Every routine reads the certificate as its graph: either kind keeps the input's
closure, and at k >= 2 its strong bridges.  The companion tests check each answer
against an offline reference computed from the original input, which is the
whole point of carrying a certificate around.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .certify_k import extract_disjoint_branchings
from .certify_one import Certificate
from .digraph import (
    Branching,
    MAX_NODES,
    ChainCover,
    Digraph,
    _scc_branching_arcs,
    chain_cover_minimum,
    scc_ids,
    scc_tarjan,
)
from .exact import kappa_st  # unused here; perfbench's traced mode rebinds apps.kappa_st


def scc_and_toposort(cert: Certificate) -> tuple[list[int], list[int]]:
    """Component ids plus topological ranks of the condensation.

    Ranks are equal exactly within a component and strictly increase along
    every cross-component arc.
    """
    comp_of = scc_ids(cert)  # ids follow reverse topological order
    total = max(comp_of, default=-1) + 1
    return comp_of, [total - 1 - c for c in comp_of]


def two_sat(clauses: Sequence[tuple[int, int]], nvars: int) -> list[bool] | None:
    """Solve a conjunction of 2-literal clauses; literals are +/-(1..nvars).

    Returns a satisfying assignment (index v−1 holds variable v) or None.
    """
    if not 0 <= 2 * nvars <= MAX_NODES:  # one node per literal
        raise ValueError(f"nvars must be in [0, {MAX_NODES // 2}], got {nvars}")

    def node(lit: int) -> int:
        if lit == 0 or abs(lit) > nvars:
            raise ValueError(f"literal {lit} out of range for {nvars} variables")
        v = abs(lit) - 1
        return 2 * v if lit > 0 else 2 * v + 1

    arcs = set()
    for clause in clauses:
        if len(clause) != 2:
            raise ValueError(f"clause {clause!r} does not have two literals")
        a, b = clause
        if node(a) == node(-b):
            continue  # tautology (x or not-x) constrains nothing
        arcs.add((node(-a), node(b)))
        arcs.add((node(-b), node(a)))
    imp = Digraph(2 * nvars, arcs)
    comp = scc_ids(imp)
    # earlier emission = closer to the sinks; pick the sink-side literal
    out = []
    for v in range(nvars):
        if comp[2 * v] == comp[2 * v + 1]:
            return None
        out.append(comp[2 * v] < comp[2 * v + 1])
    return out


def min_chain_cover_dag(cert: Certificate) -> ChainCover:
    """Minimum chain cover of an acyclic certificate's reachability order."""
    comps = scc_tarjan(cert)
    if any(len(c) > 1 for c in comps):
        raise ValueError("input graph is not acyclic")
    return chain_cover_minimum(cert, comps)


def msss_2apx(cert: Certificate) -> Digraph | None:
    """2-approximate minimum spanning strongly connected subgraph.

    Union of one out- and one in-branching rooted at node 0, hence at most
    2n−2 arcs.  Returns None when the certificate is not strongly connected
    (then no spanning strongly connected subgraph exists at all).
    """
    comps = scc_tarjan(cert)
    if len(comps) > 1:
        return None
    return Digraph(cert.n, _scc_branching_arcs(cert.n, cert.out_neighbors, cert.in_neighbors, comps))


def strong_bridges(cert2: Certificate) -> frozenset[tuple[int, int]]:
    """Arcs whose removal increases the SCC count, read off a 2-certificate.

    A 1-certificate is not enough — it can turn every one of its own arcs
    into a bridge while the original graph has none — so k >= 2 is enforced.
    An arc (u, v) is a bridge iff u no longer reaches v without it, and every bridge
    lies on each spanning out- or in-branching of its component (Italiano, Laura and
    Santaroni, TCS 2012), so one of each per component holds every candidate.
    """
    if cert2.k < 2:
        raise ValueError(f"strong bridges need a certificate with k >= 2, got k={cert2.k}")
    comps = scc_tarjan(cert2)
    branchings = _scc_branching_arcs(cert2.n, cert2.out_neighbors, cert2.in_neighbors, comps)
    return frozenset((u, v) for u, v in branchings if not _detour(cert2, u, v))


def _detour(g: Digraph, u: int, v: int) -> bool:
    """True iff u reaches v in ``g`` without the arc (u, v).  Such a simple path
    leaves u by another arc and never returns to u, so the search starts at u's
    other out-neighbours with u already seen."""
    stack = [w for w in g.out_neighbors(u) if w != v]
    seen = {u, *stack}
    while stack:
        for w in g.out_neighbors(stack.pop()):
            if w == v:
                return True
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def arc_disjoint_out_branchings(cert: Certificate, root: int, k: int) -> list[Branching]:
    """k pairwise arc-disjoint spanning out-branchings from the certificate."""
    if cert.k < k:
        raise ValueError(f"certificate has k={cert.k}, cannot support k={k} branchings")
    return extract_disjoint_branchings(cert, root, k, "out")


def distance_d_dominating(cert: Certificate, d: int) -> set[int]:
    """Nodes S, |S| <= ceil(n/d), with every node <= d arcs from some s in S."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if len(scc_tarjan(cert)) > 1:
        raise ValueError("graph is not strongly connected")
    if cert.n == 0:
        return set()
    # the lowest-id-first BFS out-tree from node 0, with depths
    parent, depth = {}, {0: 0}
    order = [0]
    for u in order:  # the list grows while it is walked: FIFO order
        for v in cert.out_neighbors(u):
            if v not in depth:
                parent[v], depth[v] = u, depth[u] + 1
                order.append(v)

    covered: set[int] = set()
    chosen: set[int] = set()
    for v in sorted(order, key=lambda w: (-depth[w], w)):  # deepest first, then lowest id
        if v in covered:
            continue
        up = v
        for _ in range(min(d, depth[v])):
            up = parent[up]
        chosen.add(up)
        covered |= _ball_out(cert, up, d)
    return chosen


def _ball_out(g: Digraph, source: int, d: int) -> set[int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if dist[u] == d:
            continue
        for w in g.out_neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return set(dist)
