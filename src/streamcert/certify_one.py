"""Deterministic 1-node strong connectivity certificates.

Two layers:

* :func:`tc_preserving_prune` — offline reachability-preserving sparsifier.
  For every node x and every chain of a minimum chain cover it keeps the arc
  from x to the earliest chain node among x's cross-component out-neighbours:
  in the one numbering of the cover core :func:`~streamcert.digraph._chain_cover`,
  run on the Tarjan core :func:`~streamcert.digraph._tarjan`, that is the lowest
  bit of x's row under the chain's mask.  Out-degrees stay <= alpha; one in- and
  one out-branching per nontrivial component give at most (alpha + 2) * n arcs.
  The pruned graph has the same closure, so the recursion hands that cover on
  as the pruned block's own: at most one decomposition and one cover per tree
  node, and none for a block without arcs.
* :func:`one_cert_stream` — multi-pass streaming computation of the same kind
  of certificate.  Node ranges are split into contiguous blocks, sub-certificates
  are computed recursively with all instances of a level multiplexed onto
  shared passes, and one extra pass per level finds, for every node x outside
  a block and every chain of the block's cover, the first chain node u with
  arc (x, u) surviving in the stream.  Under deletions that search runs as a
  multi-pass block-counter minimum selection: a plain list of counters per
  (x, chain) entry of the level's table, one counter step per routed update,
  and :func:`~streamcert.streams.select_step` at the end of each pass.  A
  pass's feed routes each update by lookups in per-depth owner tables (node
  id -> tree node), not by a descent from the root; the tables hold what
  :func:`~streamcert.streams.blocks` recomputes in O(levels) arithmetic, so
  they are not charged as space.  One run-wide chain table (node id -> head
  of its chain, position on it) indexes the covers the prunes already charge,
  so it is charged nothing more.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .digraph import (
    Digraph,
    _chain_cover,
    _scc_branching_arcs,
    _tarjan,
    chain_cover_minimum,
    reachability_masks,
    scc_ids,
    scc_tarjan,
)
from .streams import (
    TURNSTILE,
    ArcStream,
    SpaceLedger,
    StreamStats,
    _pass_cut,
    blocks,
    int_root_ceil,
    run_passes,
    select_step,
)


class Certificate(Digraph):
    """A subgraph H of the input: the Digraph of its arcs, with a kind ("node" | "arc") and k."""

    __slots__ = ("kind", "k", "provenance")

    def __init__(self, n: int, arcs, kind: str, k: int, provenance: Mapping | None = None):
        if kind not in ("node", "arc"):
            raise ValueError(f"kind must be 'node' or 'arc', got {kind!r}")
        if k < 1:
            raise ValueError(f"threshold k must be >= 1, got {k}")
        super().__init__(n, arcs)
        self.kind, self.k, self.provenance = kind, k, {} if provenance is None else provenance


@dataclass(frozen=True)
class RecursionPlan:
    """Pass budget for the streaming recursion.

    p alone fixes the schedule: an insertion-only run has d = p - 1 levels of one
    pass, a turnstile run q = max(1, floor(sqrt(p-1))) selection passes per level
    and d = floor((p-1)/q) levels.  A run with d >= 1 levels cuts every range
    into b = max(2, smallest integer with b**(d+1) >= n) blocks.  p <= 64: a run
    builds a tree level, an owner table and a schedule entry per pass, and with
    b >= 2 a level past log2 n <= 16 (``digraph.MAX_NODES``) only copies
    single-node blocks.
    """

    p: int

    def __post_init__(self):
        if not 1 <= self.p <= 64:
            raise ValueError(f"pass budget p must be in [1, 64], got {self.p}")

    def turnstile_split(self) -> tuple[int, int]:
        """(levels d, per-level passes q) with d*q + 1 <= p."""
        q = max(1, math.isqrt(self.p - 1))
        return (self.p - 1) // q, q


# ---------------------------------------------------------------------------
# offline pruning
# ---------------------------------------------------------------------------


def _prune(n: int, arcs, lo: int = 0) -> tuple[set[tuple[int, int]], tuple[tuple[int, ...], ...]]:
    """The arcs :func:`tc_preserving_prune` keeps of the block of nodes ``lo..lo+n-1``
    with arcs ``arcs``, and the sorted chains of the cover it chose them by.

    A block pays only for what it uses.  An arc-less block keeps nothing and is
    covered by single-node chains, with no decomposition.  Otherwise the out-lists
    are built here, and in-lists and component ids only when some component has two
    or more nodes: an acyclic block has no branchings to keep."""
    if not arcs:
        return set(), tuple((v,) for v in range(lo, lo + n))
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        out[u - lo].append(v - lo)
    for row in out:
        row.sort()  # ascending rows: the Tarjan and BFS orders the outputs are pinned to
    comps = _tarjan(n, out.__getitem__)
    order, spans, out_rows, chains = _chain_cover(n, out.__getitem__, comps)
    chain_mask = [0] * n
    for chain in chains:
        mask = 0
        for i in chain:
            mask |= 1 << i
        for i in chain:
            chain_mask[i] = mask

    # The earliest chain node reaches the later ones; induction over the
    # condensation in reverse topological order shows nothing else is lost.
    # Numbers rise along a chain, so x's earliest target on it has the lowest number.
    kept: set[tuple[int, int]] = set()
    for span in spans:
        stop = span.stop
        for i in span:
            cross = out_rows[i] >> stop << stop
            while cross:
                j = (cross & -cross).bit_length() - 1
                kept.add((order[i] + lo, order[j] + lo))
                cross &= ~chain_mask[j]
    if len(spans) < n:  # some component has two or more nodes: keep its branchings
        inn: list[list[int]] = [[] for _ in range(n)]
        for u, row in enumerate(out):
            for v in row:
                inn[v].append(u)
        branchings = _scc_branching_arcs(n, out.__getitem__, inn.__getitem__, comps)
        kept.update((u + lo, v + lo) for u, v in branchings)
    return kept, tuple(sorted(tuple(order[i] + lo for i in chain) for chain in chains))


def tc_preserving_prune(g: Digraph) -> Digraph:
    """Subgraph with the same transitive closure and at most (alpha+2)*n arcs.

    It keeps, for every node x and every chain of a minimum chain cover, the arc
    from x to its earliest cross-component out-neighbour on that chain, and one in-
    and one out-branching per nontrivial component.  The kernel :func:`_prune` does
    it over neighbour lists: one :func:`~streamcert.digraph._tarjan`, one numbering
    and matching by :func:`~streamcert.digraph._chain_cover`, then per node the
    lowest number bit of its cross row, clearing that chain's mask, one step per
    kept arc.  The streaming recursion calls :func:`_prune` on each block's arcs,
    arc-less blocks included.
    """
    return Digraph(g.n, _prune(g.n, g.arcs)[0]) if g.arcs else g


# ---------------------------------------------------------------------------
# the streaming recursion
# ---------------------------------------------------------------------------


class _TreeNode:
    __slots__ = ("lo", "hi", "depth", "children", "arcs", "h_arcs", "table", "live", "account")

    def __init__(self, lo: int, hi: int, depth: int):
        self.lo = lo
        self.hi = hi
        self.depth = depth
        self.children: list[_TreeNode] = []
        self.arcs: set[tuple[int, int]] | None = None
        self.h_arcs: set[tuple[int, int]] | None = None  # set by the node's prune
        # level-pass table keyed by x * n + the head of a child's chain (one word): the best
        # chain position so far (insertion-only), or a selection's first-pass counters, then
        # its open (lo, hi, find, counters) or its answer, a position or None (turnstile)
        self.table: dict | None = None
        self.live: dict | None = None  # the turnstile table's open entries, by key
        self.account = None


class OneCertRun:
    """Pass-consumer computing one 1-certificate over nodes ``0..n-1``,
    multiplexable with peers.

    ``arc_filter`` drops arcs on the fly without storing anything.  A run over
    an induced node subset is given that subset's ids ``0..|S|-1``; the caller
    translates updates and certificate arcs (see ``certify_k._MaskRouter``).

    ``owner[d][x]`` is the depth-d tree node holding node x.  Like the tree
    skeleton it depends only on n and the branching factor b, and a streaming
    algorithm finds the same node with ``blocks`` in O(levels) arithmetic and
    O(1) words, so the tables are a lookup cache, not algorithm state, and the
    ledger does not charge them.  ``head[x]`` is the first node of x's chain
    in its block's cover one level down, ``pos[x]`` x's place on it and
    ``chain_at[h]`` the chain headed by h: one run-wide table, as a level pass
    reads only the level below and a node's prune rewrites its own range after
    its merge has read the children.  It indexes the cover ``_prune_into``
    charges as ``hi - lo`` words, so it is charged nothing more.  ``begin_pass``
    picks the leaf, insertion-only or turnstile level feed once per pass.

    A turnstile level's first pass opens every selection of a chain on one cut,
    ``_pass_cut(len(chain), q)``: ``slot[v]``, the counter holding ``pos[v]``,
    and ``width[v]``, the number of counters, are O(1) arithmetic on the
    charged ``head`` and ``pos``, so like the owner tables they are not
    charged.  An entry starts as ``width[v]`` counters, charged with 3 words of
    range and bookkeeping, and a routed update steps one counter.  ``end_pass``
    ends each open selection by ``select_step``, so it keeps its answer or
    opens ``(lo, hi, find, counters)``, and each tree node releases its spent
    counters once.  ``node.live`` indexes the open entries only, so no later
    pass touches a finished selection.
    """

    def __init__(
        self,
        n: int,
        model: str,
        plan: RecursionPlan,
        ledger: SpaceLedger,
        name: str = "one",
        arc_filter=None,
    ):
        self.model = model
        self.name = name
        self.arc_filter = arc_filter
        self.size = n

        self.levels, self.q = plan.turnstile_split() if model == TURNSTILE else (plan.p - 1, 1)
        self.total_passes = 1 + self.levels * self.q

        self.b = int_root_ceil(self.size, self.levels + 1)
        if self.levels >= 1:
            self.b = max(2, self.b)

        self.account = ledger.open(f"{name}/run")
        self.account.charge(8)

        # contiguous-range recursion tree, one node list per depth; empty blocks get no node
        root = _TreeNode(0, self.size, 0)
        self.by_depth: list[list[_TreeNode]] = [[root]]
        for depth in range(self.levels):
            nxt = []
            for node in self.by_depth[depth]:
                starts = blocks(node.hi - node.lo, self.b)[1]
                node.children = [
                    _TreeNode(node.lo + a, node.lo + z, depth + 1)
                    for a, z in zip(starts, starts[1:]) if a < z
                ]
                nxt.extend(node.children)
            self.by_depth.append(nxt)
        # uncharged routing tables (see the class docstring)
        self.owner: list[list[_TreeNode]] = []
        for nodes in self.by_depth:
            row = [root] * self.size
            for node in nodes:
                node.account = ledger.open(f"{name}/[{node.lo},{node.hi})")
                row[node.lo:node.hi] = [node] * (node.hi - node.lo)
            self.owner.append(row)
        self.head, self.pos, self.chain_at = [0] * self.size, [0] * self.size, [None] * self.size

        # pass schedule (kind, depth, j): leaf collection, then q passes per level
        self.schedule: list[tuple] = [("leaf", self.levels, 0)]
        for depth in range(self.levels - 1, -1, -1):
            for j in range(self.q):
                self.schedule.append(("level", depth, j))
        self.cert_arcs: frozenset | None = None

    # -- pass protocol ------------------------------------------------------

    def begin_pass(self, pass_index: int):
        if pass_index >= len(self.schedule):
            raise RuntimeError(f"{self.name}: no phase scheduled for pass {pass_index}")
        kind, depth, j = self.schedule[pass_index]
        # A leaf pass wants the leaf holding both ends; a level pass at depth d
        # wants the depth-d node whose children split u from v.
        own, keep = self.owner[depth], self.arc_filter
        if kind == "leaf":
            for leaf in self.by_depth[depth]:
                leaf.arcs = set()

            def leaf_feed(updates) -> None:
                for sign, u, v in updates:
                    node = own[u]
                    if own[v] is not node or keep is not None and not keep(u, v):
                        continue
                    if sign > 0:  # the stream keeps every multiplicity in {0, 1}
                        node.arcs.add((u, v))
                        node.account.charge(1)
                    else:
                        node.arcs.remove((u, v))
                        node.account.release(1)

            return leaf_feed
        if j == 0:
            for node in self.by_depth[depth]:
                node.table = {}
        below, size, head, pos = self.owner[depth + 1], self.size, self.head, self.pos
        if self.model != TURNSTILE:
            def insertion_feed(updates) -> None:
                for _, u, v in updates:
                    node = own[u]
                    if own[v] is not node or below[u] is below[v] or keep is not None and not keep(u, v):
                        continue
                    key, at = u * size + head[v], pos[v]
                    cur = node.table.get(key)
                    if cur is None:
                        node.table[key] = at
                        node.account.charge(1)
                    elif at < cur:
                        node.table[key] = at

            return insertion_feed
        if j == 0:
            cuts = [_pass_cut(len(self.chain_at[head[v]]), self.q) for v in range(size)]
            slot = [find(pos[v]) for v, (_, find, _) in enumerate(cuts)]
            width = [nblocks for nblocks, _, _ in cuts]

            def turnstile_feed(updates) -> None:
                for sign, u, v in updates:
                    node = own[u]
                    if own[v] is not node or below[u] is below[v] or keep is not None and not keep(u, v):
                        continue
                    key = u * size + head[v]
                    counters = node.table.get(key)
                    if counters is None:
                        counters = node.table[key] = [0] * width[v]
                        node.account.charge(3 + width[v])  # active range, bookkeeping and counters
                    counters[slot[v]] += sign

            return turnstile_feed

        def select_feed(updates) -> None:
            # A live key needs no routing test: v shares a chain, so a child, with the arc that opened it.
            for sign, u, v in updates:
                entry = own[u].live.get(u * size + head[v])
                if entry is None or keep is not None and not keep(u, v):
                    continue
                lo, hi, find, counters = entry
                at = pos[v]
                if lo <= at < hi:
                    counters[find(at - lo)] += sign

        return select_feed

    def end_pass(self, pass_index: int) -> None:
        kind, depth, j = self.schedule[pass_index]
        nodes = self.by_depth[depth]
        if kind == "leaf":
            for leaf in nodes:
                leaf.account.charge(leaf.hi - leaf.lo)  # the prune's scratch
                self._prune_into(leaf, leaf.arcs, leaf.hi - leaf.lo)
                leaf.arcs = None
        else:
            if self.model == TURNSTILE:  # a pass never holds more counters than the one before
                chain_at, size = self.chain_at, self.size
                for node in nodes:
                    table, live, spent = node.table, {}, 0
                    if j == 0:  # each selection opened on its whole chain
                        opened = ((key, 0, len(chain_at[key % size]), c) for key, c in table.items())
                    else:
                        opened = ((key, lo, hi, c) for key, (lo, hi, _, c) in node.live.items())
                    for key, lo, hi, counters in opened:
                        spent += len(counters)
                        entry = table[key] = select_step(lo, hi, counters, self.q - j)
                        if type(entry) is tuple:
                            live[key] = entry
                            spent -= len(entry[3])
                    node.live = live
                    node.account.release(spent)
            if j < self.q - 1:
                return
            for node in nodes:
                self._merge(node)
        if depth == 0:
            self.cert_arcs = frozenset(nodes[0].h_arcs)

    # -- offline phases ------------------------------------------------------

    def _prune_into(self, node: _TreeNode, arcs: set[tuple[int, int]], spent: int) -> None:
        """Keep the pruned block and, below the root, the prune's chain cover."""
        node.h_arcs, chains = _prune(node.hi - node.lo, arcs, node.lo)
        keep = len(node.h_arcs)
        if node.depth > 0:  # the root's chain cover is never consumed
            for chain in chains:  # this node's range of the chain table
                self.chain_at[chain[0]] = chain
                for i, v in enumerate(chain):
                    self.head[v], self.pos[v] = chain[0], i
            keep += node.hi - node.lo
        node.account.set_held(keep + spent)
        node.account.release(spent)

    def _merge(self, node: _TreeNode) -> None:
        merged: set[tuple[int, int]] = set()
        for key, pos in node.table.items():
            if pos is not None:  # a selection without survivor answers None
                x, h = divmod(key, self.size)
                merged.add((x, self.chain_at[h][pos]))
        table_words = (3 if self.model == TURNSTILE else 1) * len(node.table)
        for child in node.children:
            merged |= child.h_arcs
        scratch = node.hi - node.lo
        node.account.charge(len(merged) + scratch)
        for child in node.children:
            child.account.drop()
            child.h_arcs = None
        node.table = None
        node.account.release(table_words)
        self._prune_into(node, merged, len(merged) + scratch)

    def close(self) -> None:
        for nodes in self.by_depth:
            for node in nodes:
                node.account.drop()
        self.account.drop()


def one_cert_stream(
    stream: ArcStream, plan: RecursionPlan, ledger: SpaceLedger | None = None
) -> tuple[Certificate, StreamStats]:
    """1-node strong connectivity certificate of the stream's final graph."""
    if ledger is None:
        ledger = SpaceLedger()
    run = OneCertRun(stream.n, stream.model, plan, ledger)
    run_passes(stream, [run], run.total_passes)
    prov = {
        "algorithm": "one_cert_stream",
        "p": plan.p,
        "b": run.b,
        "model": stream.model,
        "levels": run.levels,
        "q": run.q if stream.model == TURNSTILE else None,
    }
    cert = Certificate(stream.n, run.cert_arcs, kind="node", k=1, provenance=prov)
    return cert, StreamStats(passes=run.total_passes, peak_words=ledger.peak)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneCertReport:
    contained: bool
    tc_equal: bool
    structural_ok: bool
    # arcs of G \ H whose head H does not reach
    violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return self.contained and self.tc_equal and self.structural_ok


def validate_one_cert(g: Digraph, cert: Certificate) -> OneCertReport:
    """Check reachability equality plus the structural sparsity witness.

    For H within G, tc(G) = tc(H) iff every arc of G is in tc(H), so G is never
    decomposed: its arcs are read against H's closure.  An arc of H outside G
    already fails ``contained``.
    """
    if cert.n != g.n:
        raise ValueError(f"certificate is over {cert.n} nodes, graph has {g.n}")
    comps = scc_tarjan(cert)
    reach_h = reachability_masks(cert, comps)
    violations = sorted((u, v) for u, v in g.arcs if not (reach_h[u] >> v) & 1)

    comp_id = scc_ids(cert, comps)
    nchains = len(chain_cover_minimum(cert, comps))
    cross_deg = [0] * g.n
    intra: Counter[int] = Counter()
    for u, v in cert.arcs:
        if comp_id[u] == comp_id[v]:
            intra[comp_id[u]] += 1
        else:
            cross_deg[u] += 1
    # self-loops are excluded, so a singleton component holds no intra arc
    structural = all(d <= nchains for d in cross_deg) and all(
        intra[c] <= 2 * (size - 1) for c, size in Counter(comp_id).items()
    )
    return OneCertReport(
        contained=cert.arcs <= g.arcs,
        tc_equal=not violations,
        structural_ok=structural,
        violations=tuple(violations),
    )
