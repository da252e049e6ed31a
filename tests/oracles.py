"""Brute-force reference implementations the test suite checks the library against.

Everything here is deliberately naive: closures via repeated BFS, cuts and
separators by subset enumeration, Hamiltonian paths by permutation.  None of
it calls into the library's own algorithms, so agreement is meaningful.  The
three exceptions to naive are exact on inputs too large to enumerate:
``has_triangle_masks`` and ``has_ham_path_dp`` check the larger hard-instance
gadgets and are themselves checked against the naive ``has_triangle`` and
``ham_path_exists``; ``independence_number_bb``, a branch and bound, gives alpha
up to 64 nodes and is checked against the naive ``independence_number`` on every
six-node graph drawn by hypothesis and on the suites' graphs of up to 16 nodes.
"""

from __future__ import annotations

import itertools

import numpy as np


def closure_sets(n: int, arcs) -> list[set[int]]:
    """reach[v] = nodes reachable from v by a nonempty path (v itself only on a cycle)."""
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in arcs:
        adj[u].append(v)
    out = []
    for s in range(n):
        seen: set[int] = set()
        stack = list(adj[s])
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj[x])
        out.append(seen)
    return out


def scc_partition(n: int, arcs) -> set[frozenset[int]]:
    reach = closure_sets(n, arcs)
    comps = set()
    for v in range(n):
        comps.add(
            frozenset(
                w
                for w in range(n)
                if w == v or (w in reach[v] and v in reach[w])
            )
        )
    return comps


def canon_ids(ids) -> list[int]:
    """Renumber component ids by first occurrence so labelings compare stably."""
    seen: dict[int, int] = {}
    out = []
    for c in ids:
        if c not in seen:
            seen[c] = len(seen)
        out.append(seen[c])
    return out


def is_strong(n: int, arcs) -> bool:
    return len(scc_partition(n, arcs)) == 1 if n else True


def min_cut_lambda(n: int, arcs, s: int, t: int) -> int:
    """Exact lambda(s,t) as the minimum directed arc cut, by subset enumeration."""
    if s == t:
        raise ValueError("s == t")
    others = [v for v in range(n) if v not in (s, t)]
    arcs = list(arcs)
    best = len(arcs) + 1
    for mask in range(1 << len(others)):
        side = {s} | {others[i] for i in range(len(others)) if (mask >> i) & 1}
        cut = sum(1 for u, v in arcs if u in side and v not in side)
        best = min(best, cut)
    return best


def separator_kappa(n: int, arcs, s: int, t: int) -> int:
    """Exact kappa(s,t): direct arcs peel off one path each, then the smallest
    internal-node separator is found by increasing-size enumeration."""
    if s == t:
        raise ValueError("s == t")
    arcs = set(arcs)
    bonus = 0
    if (s, t) in arcs:
        bonus = 1
        arcs = arcs - {(s, t)}
    if t not in closure_sets(n, arcs)[s]:
        return bonus
    others = [v for v in range(n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            cut = set(combo)
            rest = [(u, v) for u, v in arcs if u not in cut and v not in cut]
            if t not in closure_sets(n, rest)[s]:
                return size + bonus
    raise AssertionError("removing every internal node must separate")


def independence_number(n: int, arcs) -> int:
    adj = [0] * n
    for u, v in arcs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        nodes = [v for v in range(n) if (mask >> v) & 1]
        if all(not (adj[u] >> v) & 1 for u, v in itertools.combinations(nodes, 2)):
            best = mask.bit_count()
    return best


def independence_number_bb(n: int, arcs) -> int:
    """:func:`independence_number` by branch and bound over bitmask rows, fast
    enough to n = 64: branch on the lowest candidate, taken or skipped, and
    prune by a greedy clique cover of the candidates, since each clique holds
    at most one node of an independent set."""
    adj = [0] * n
    for u, v in arcs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best = 0

    def cover(cand: int) -> int:
        cliques = 0
        while cand:
            cliques += 1
            low = cand & -cand
            clique, grow = low, cand & adj[low.bit_length() - 1]
            while grow:
                glow = grow & -grow
                clique |= glow
                grow &= adj[glow.bit_length() - 1]
            cand &= ~clique
        return cliques

    def expand(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if cand == 0:
            best = size
            return
        if size + cover(cand) <= best:
            return
        low = cand & -cand
        expand(cand & ~(adj[low.bit_length() - 1] | low), size + 1)
        expand(cand ^ low, size)

    expand((1 << n) - 1, 0)
    return best


def degeneracy(n: int, arcs) -> int:
    """Degeneracy of the underlying undirected graph: the largest, over node
    subsets, of the least degree inside the subset, by subset enumeration."""
    und = {frozenset(a) for a in arcs}
    best = 0
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            least = min(sum(1 for w in sub if w != v and frozenset((v, w)) in und) for v in sub)
            best = max(best, least)
    return best


def final_arcs(updates) -> set[tuple[int, int]]:
    """Arcs of a stream's final graph: those whose signed (sign, u, v) updates
    sum to 1.  Every other sum must be 0."""
    mult: dict[tuple[int, int], int] = {}
    for sign, u, v in updates:
        mult[(u, v)] = mult.get((u, v), 0) + sign
    assert set(mult.values()) <= {0, 1}, mult
    return {arc for arc, count in mult.items() if count}


def two_sat_satisfiable(clauses, nvars: int) -> bool:
    for bits in range(1 << nvars):
        val = [(bits >> i) & 1 == 1 for i in range(nvars)]

        def holds(lit: int) -> bool:
            return val[abs(lit) - 1] if lit > 0 else not val[abs(lit) - 1]

        if all(holds(a) or holds(b) for a, b in clauses):
            return True
    return False


def two_sat_check(clauses, assignment) -> bool:
    def holds(lit: int) -> bool:
        return assignment[abs(lit) - 1] if lit > 0 else not assignment[abs(lit) - 1]

    return all(holds(a) or holds(b) for a, b in clauses)


def ham_path_exists(n: int, arcs) -> bool:
    """Permutation search; usable to n ~ 8."""
    if n <= 1:
        return True
    arcset = set(arcs)
    return any(
        all((p[i], p[i + 1]) in arcset for i in range(n - 1))
        for p in itertools.permutations(range(n))
    )


def has_triangle(n: int, arcs) -> bool:
    arcset = set(arcs)
    return any(
        (a, b) in arcset and (b, c) in arcset and (c, a) in arcset
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


HAM_BUDGET = 18  # has_ham_path_dp keeps one end mask per node subset


def has_triangle_masks(n: int, arcs) -> bool:
    """:func:`has_triangle` by bitmask rows, fast enough for the gadget tournaments:
    an arc (u, v) closes a 3-cycle iff some out-neighbour of v is an in-neighbour of u."""
    out, inn = [0] * n, [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return any(out[v] & inn[u] for u, v in arcs)


def has_ham_path_dp(n: int, arcs) -> bool:
    """:func:`ham_path_exists` by subset dynamic programming, usable to n = HAM_BUDGET:
    ``ends[mask]`` holds the nodes at which a path through exactly ``mask`` can end."""
    if n > HAM_BUDGET:
        raise ValueError(f"Hamiltonian search capped at n={HAM_BUDGET}")
    if n <= 1:
        return True
    out, inn = [0] * n, [0] * n
    for u, v in arcs:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    sources = [v for v in range(n) if not inn[v]]
    sinks = [v for v in range(n) if not out[v]]
    if len(sources) > 1 or len(sinks) > 1:
        return False  # a second forced endpoint can never be visited
    full = (1 << n) - 1
    ends = [0] * (full + 1)
    for v in sources or range(n):
        ends[1 << v] = 1 << v
    for mask in range(1, full + 1):
        live = ends[mask]
        while live:
            vbit = live & -live
            live ^= vbit
            nxt = out[vbit.bit_length() - 1] & ~mask
            while nxt:
                wbit = nxt & -nxt
                nxt ^= wbit
                ends[mask | wbit] |= wbit
    return ends[full] != 0


def min_chain_cover_size(n: int, arcs) -> int:
    """Minimum number of chains (sequences ordered by reachability) covering a DAG.

    Subset DP over chains realized as paths in the transitive closure.
    """
    if n == 0:
        return 0
    reach = closure_sets(n, arcs)
    closure = [(u, v) for u in range(n) for v in reach[u] if u != v]
    succ = [0] * n
    for u, v in closure:
        succ[u] |= 1 << v
    full = (1 << n) - 1
    # chain_masks[v] = all subsets that form one chain ending at v
    endings: dict[int, set[int]] = {v: {1 << v} for v in range(n)}
    frontier = [(1 << v, v) for v in range(n)]
    chains = {1 << v for v in range(n)}
    while frontier:
        mask, last = frontier.pop()
        rest = succ[last] & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            m2 = mask | low
            if m2 not in endings[w]:
                endings[w].add(m2)
                chains.add(m2)
                frontier.append((m2, w))
    best = {0: 0}
    for mask in range(1, full + 1):
        low = mask & -mask
        opts = [
            best[mask ^ cm] + 1
            for cm in chains
            if cm & low and cm & mask == cm and (mask ^ cm) in best
        ]
        if opts:
            best[mask] = min(opts)
    return best[full]


def min_chain_cover_size_matching(n: int, arcs) -> int:
    """Minimum number of chains covering any digraph, for sizes the subset DP cannot
    reach: n minus a maximum matching of the strict order "u before v" (Dilworth, by
    Fulkerson's reduction).  u is before v when u reaches v and, if v reaches u too,
    u < v: two nodes are comparable in it exactly when one reaches the other, so its
    chains are the chains of the reachability order.  Kuhn's augmenting search over
    Python sets, one try per node, no bitmasks and no topological numbering."""
    reach = closure_sets(n, arcs)
    before = [{v for v in reach[u] if v != u and (u not in reach[v] or u < v)} for u in range(n)]
    matched: dict[int, int] = {}  # right node -> the left node it is matched to

    def augment(u: int, seen: set[int]) -> bool:
        for v in before[u]:
            if v not in seen:
                seen.add(v)
                if v not in matched or augment(matched[v], seen):
                    matched[v] = u
                    return True
        return False

    return n - sum(augment(u, set()) for u in range(n))


def msss_optimum(n: int, arcs) -> int | None:
    """Minimum arc count of a spanning strongly connected subgraph, or None."""
    arcs = sorted(arcs)
    if not is_strong(n, arcs):
        return None
    for size in range(n, len(arcs) + 1):
        for combo in itertools.combinations(arcs, size):
            if is_strong(n, combo):
                return size
    raise AssertionError("the full arc set is strong")


def strong_bridges(n: int, arcs) -> set[tuple[int, int]]:
    base = len(scc_partition(n, arcs))
    out = set()
    for arc in set(arcs):
        if len(scc_partition(n, set(arcs) - {arc})) > base:
            out.add(arc)
    return out


def bfs_branching(n: int, arcs, root: int, kind: str) -> frozenset[tuple[int, int]]:
    """Arcs of the lowest-id-first BFS tree from ``root``: along arcs for ``kind='out'``,
    against them for ``'in'``; it spans only what the root reaches."""
    step: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in arcs:
        if kind == "out":
            step[u].append(v)
        else:
            step[v].append(u)
    seen, queue, tree = {root}, [root], set()
    for u in queue:
        for v in sorted(step[u]):
            if v not in seen:
                seen.add(v)
                queue.append(v)
                tree.add((u, v) if kind == "out" else (v, u))
    return frozenset(tree)


def is_spanning_branching(n: int, arcs, tree, root: int, kind: str) -> bool:
    """True iff ``tree`` is n - 1 arcs of the graph with one parent per non-root node and
    none for ``root`` (a tail for ``kind='out'``, a head for ``'in'``) and reaches every node
    from the root along its arcs (``out``) or against them (``in``)."""
    tree = set(tree)
    if kind not in ("out", "in") or not 0 <= root < n:
        return False
    if len(tree) != n - 1 or not tree <= set(arcs):
        return False
    children: dict[int, list[int]] = {v: [] for v in range(n)}
    has_parent = set()
    for u, v in tree:
        parent, child = (u, v) if kind == "out" else (v, u)
        if child == root or child in has_parent:
            return False
        has_parent.add(child)
        children[parent].append(child)
    seen, stack = {root}, [root]
    while stack:
        for child in children[stack.pop()]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return len(seen) == n


def ball_out(n: int, arcs, src: int, radius: int) -> set[int]:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in arcs:
        adj[u].append(v)
    dist = {src: 0}
    queue = [src]
    while queue:
        x = queue.pop(0)
        if dist[x] == radius:
            continue
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return set(dist)


# ---------------------------------------------------------------------------
# inclusion-minimal k-node certificates by full subset scan
# ---------------------------------------------------------------------------


def _simple_paths(n: int, arcs, a: int, b: int):
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in sorted(arcs):
        adj[u].append(v)
    found = []

    def walk(v, internals, path_arcs):
        for w in adj[v]:
            if w == b:
                found.append((frozenset(internals), path_arcs | {(v, b)}))
            elif w != a and w not in internals:
                walk(w, internals | {w}, path_arcs | {(v, w)})

    walk(a, frozenset(), frozenset())
    return found


def _witness_masks(n: int, arcs, a: int, b: int, t: int, index: dict) -> list[int]:
    """Arc bitmasks of every union of t internally disjoint a->b paths."""
    paths = _simple_paths(n, arcs, a, b)
    masks = []

    def pick(start: int, used: frozenset, mask: int, got: int) -> None:
        if got == t:
            masks.append(mask)
            return
        for j in range(start, len(paths)):
            internals, parcs = paths[j]
            if internals & used:
                continue
            m2 = mask
            for arc in parcs:
                m2 |= 1 << index[arc]
            pick(j + 1, used | internals, m2, got + 1)

    pick(0, frozenset(), 0, 0)
    return masks


def minimal_node_certs(n: int, arcs, k: int) -> set[frozenset]:
    """All inclusion-minimal arc subsets preserving min(k, kappa) for every pair.

    Satisfaction is evaluated for every one of the 2^m subsets via Menger
    witnesses (disjoint path packings), so nothing is inherited from the
    library's flow code.  Budgeted at 14 arcs.
    """
    arcs = sorted(set(arcs))
    m = len(arcs)
    if m > 14:
        raise ValueError(f"subset scan limited to 14 arcs, got {m}")
    index = {arc: i for i, arc in enumerate(arcs)}
    subsets = np.arange(1 << m, dtype=np.int64)
    sat = np.ones(1 << m, dtype=bool)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            need = min(k, separator_kappa(n, arcs, a, b))
            if need == 0:
                continue
            pair_ok = np.zeros(1 << m, dtype=bool)
            for w in _witness_masks(n, arcs, a, b, need, index):
                pair_ok |= (subsets & w) == w
            sat &= pair_ok
    minimal = sat.copy()
    for i in range(m):
        present = (subsets >> i) & 1 == 1
        minimal &= ~(present & sat[subsets ^ (1 << i)])
    return {
        frozenset(arcs[i] for i in range(m) if (int(mask) >> i) & 1)
        for mask in np.nonzero(minimal)[0]
    }


def arc_condition_holds(n: int, g_arcs, h_arcs, k: int) -> bool:
    """min(k, lambda_G(a,b)) <= lambda_H(a,b) for every ordered pair."""
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            need = min(k, min_cut_lambda(n, g_arcs, a, b))
            if need and min_cut_lambda(n, h_arcs, a, b) < need:
                return False
    return True
