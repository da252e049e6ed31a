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
  and :func:`~streamcert.streams.select_step` at the end of each pass.  A run
  builds a depth's tree nodes and its owner row (node id -> tree node) as the
  depth's first pass begins and deletes them once the parent level has merged
  them, so it holds at most two depths.  A feed routes each update by lookups
  in the held owner rows, not by a descent from the root; the rows hold what
  :func:`~streamcert.streams.blocks` recomputes in O(levels) arithmetic, so
  they are not charged as space.  One run-wide chain table (node id -> head
  of its chain, position on it) indexes the covers the prunes already charge,
  so it is charged nothing more.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
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
    keeps a schedule entry per pass and builds a depth's nodes and owner row as
    its first pass begins, and with b >= 2 a level past log2 n <= 16
    (``digraph.MAX_NODES``) only copies single-node blocks.
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
    __slots__ = ("lo", "hi", "depth", "children", "arcs", "h_arcs")

    def __init__(self, lo: int, hi: int, depth: int):
        self.lo = lo
        self.hi = hi
        self.depth = depth
        self.children: list[_TreeNode] = []
        self.arcs: set[tuple[int, int]] | None = None
        self.h_arcs: set[tuple[int, int]] | None = None  # set by the node's prune


class OneCertRun:
    """Pass-consumer computing one 1-certificate over nodes ``0..n-1``,
    multiplexable with peers.

    A run reads every update it is fed: runs sharing passes sit behind one
    :class:`~streamcert.streams.Router`, which feeds each run its own updates
    in its own ids (``0..|S|-1`` over an induced node subset S).

    A run holds only the depths it works on: ``depths[d] = (nodes, owner)``,
    with ``owner[x]`` the depth-d node holding x, is built as depth d's first
    pass begins and deleted once depth d - 1's merge has read it.  Like the
    tree skeleton an owner row depends only on n and the branching factor b,
    so it is a lookup cache, not algorithm state (see the module docstring).
    ``accounts[d]``, one per depth, holds depth d's words: leaf arcs, or
    pruned arcs plus, below the root, the ``hi - lo`` words of the prune's
    chain cover, and the level table while depth d is open.  ``head[x]`` is
    the first node of x's chain in its block's cover one level down,
    ``pos[x]`` x's place on it and ``chain_at[h]`` the chain headed by h: one
    run-wide table, as a level pass reads only the level below and a node's
    prune rewrites its own range after its merge has read the children.  It
    indexes the cover ``_prune_into`` charges as ``hi - lo`` words, so it is
    charged nothing more.  ``begin_pass`` picks the leaf, insertion-only or
    turnstile level feed once per pass.

    One level is open at a time, so its passes share one ``table`` keyed by
    ``x * n`` plus the head of a chain one level down: the best chain position
    so far (insertion-only), or a selection's first-pass counters, then its
    open ``(lo, hi, find, counters)`` or its answer, a position or None
    (turnstile).  A turnstile level's first pass opens every selection of a
    chain on one cut, ``_pass_cut(len(chain), q)``: ``slot[v]``, the counter
    holding ``pos[v]``, and ``width[v]``, the number of counters, are O(1)
    arithmetic on the charged ``head`` and ``pos``, so like the owner rows
    they are not charged.  An entry starts as ``width[v]`` counters, charged
    with 3 words of range and bookkeeping, and a routed update steps one
    counter.  ``end_pass`` ends each open selection by ``select_step`` and
    releases the spent counters in one call; ``live`` indexes the open
    entries only, so no later pass touches a finished selection.
    """

    def __init__(
        self,
        n: int,
        model: str,
        plan: RecursionPlan,
        ledger: SpaceLedger,
        name: str = "one",
    ):
        self.model = model
        self.name = name
        self.size = n

        self.levels, self.q = plan.turnstile_split() if model == TURNSTILE else (plan.p - 1, 1)
        self.total_passes = 1 + self.levels * self.q

        self.b = int_root_ceil(self.size, self.levels + 1)
        if self.levels >= 1:
            self.b = max(2, self.b)

        self.account = ledger.open(f"{name}/run")
        self.account.charge(8)

        self.depths: dict[int, tuple[list[_TreeNode], list[_TreeNode]]] = {}
        self.accounts = [ledger.open(f"{name}/depth{d}") for d in range(self.levels + 1)]
        self.table = self.live = None  # the open level's table and its open entries
        self.head, self.pos, self.chain_at = [0] * self.size, [0] * self.size, [None] * self.size

        # pass schedule (kind, depth, j): leaf collection, then q passes per level
        self.schedule: list[tuple] = [("leaf", self.levels, 0)]
        for depth in range(self.levels - 1, -1, -1):
            for j in range(self.q):
                self.schedule.append(("level", depth, j))
        self.cert_arcs: frozenset | None = None

    def _open_depth(self, depth: int) -> None:
        """Build the depth's nodes (empty blocks get none) and its owner row."""
        spans = [(0, self.size)]
        for _ in range(depth):
            spans = [(lo + a, lo + z) for lo, hi in spans
                     for a, z in pairwise(blocks(hi - lo, self.b)[1]) if a < z]
        nodes = [_TreeNode(lo, hi, depth) for lo, hi in spans]
        own: list = [None] * self.size
        for node in nodes:
            own[node.lo:node.hi] = [node] * (node.hi - node.lo)
        for child in self.depths.get(depth + 1, ((), ()))[0]:  # the depth below, if built
            own[child.lo].children.append(child)
        self.depths[depth] = nodes, own

    # -- pass protocol ------------------------------------------------------

    def begin_pass(self, pass_index: int):
        if pass_index >= len(self.schedule):
            raise RuntimeError(f"{self.name}: no phase scheduled for pass {pass_index}")
        kind, depth, j = self.schedule[pass_index]
        if j == 0:
            self._open_depth(depth)
        # A leaf pass wants the leaf holding both ends; a level pass at depth d
        # wants the depth-d node whose children split u from v.
        (nodes, own), account = self.depths[depth], self.accounts[depth]
        if kind == "leaf":
            for leaf in nodes:
                leaf.arcs = set()

            def leaf_feed(updates) -> None:
                for sign, u, v in updates:
                    node = own[u]
                    if own[v] is not node:
                        continue
                    if sign > 0:  # the stream keeps every multiplicity in {0, 1}
                        node.arcs.add((u, v))
                        account.charge(1)
                    else:
                        node.arcs.remove((u, v))
                        account.release(1)

            return leaf_feed
        if j == 0:
            self.table = {}
        below, size, head, pos, table = self.depths[depth + 1][1], self.size, self.head, self.pos, self.table
        if self.model != TURNSTILE:
            def insertion_feed(updates) -> None:
                for _, u, v in updates:
                    if own[u] is not own[v] or below[u] is below[v]:
                        continue
                    key, at = u * size + head[v], pos[v]
                    cur = table.get(key)
                    if cur is None:
                        table[key] = at
                        account.charge(1)
                    elif at < cur:
                        table[key] = at

            return insertion_feed
        if j == 0:
            cuts = [_pass_cut(len(self.chain_at[head[v]]), self.q) for v in range(size)]
            slot = [find(pos[v]) for v, (_, find, _) in enumerate(cuts)]
            width = [nblocks for nblocks, _, _ in cuts]

            def turnstile_feed(updates) -> None:
                for sign, u, v in updates:
                    if own[u] is not own[v] or below[u] is below[v]:
                        continue
                    key = u * size + head[v]
                    counters = table.get(key)
                    if counters is None:
                        counters = table[key] = [0] * width[v]
                        account.charge(3 + width[v])  # active range, bookkeeping and counters
                    counters[slot[v]] += sign

            return turnstile_feed
        live = self.live

        def select_feed(updates) -> None:
            # A live key needs no routing test: v shares a chain, so a child, with the arc that opened it.
            for sign, u, v in updates:
                entry = live.get(u * size + head[v])
                if entry is None:
                    continue
                lo, hi, find, counters = entry
                at = pos[v]
                if lo <= at < hi:
                    counters[find(at - lo)] += sign

        return select_feed

    def end_pass(self, pass_index: int) -> None:
        kind, depth, j = self.schedule[pass_index]
        nodes = self.depths[depth][0]
        if kind == "leaf":
            for leaf in nodes:
                self.accounts[depth].charge(leaf.hi - leaf.lo)  # the prune's scratch
                self._prune_into(leaf, leaf.arcs, leaf.hi - leaf.lo, len(leaf.arcs))
                leaf.arcs = None
        else:
            if self.model == TURNSTILE:  # a pass never holds more counters than the one before
                chain_at, size, table, live, spent = self.chain_at, self.size, self.table, {}, 0
                if j == 0:  # each selection opened on its whole chain
                    opened = ((key, 0, len(chain_at[key % size]), c) for key, c in table.items())
                else:
                    opened = ((key, lo, hi, c) for key, (lo, hi, _, c) in self.live.items())
                for key, lo, hi, counters in opened:
                    spent += len(counters)
                    entry = table[key] = select_step(lo, hi, counters, self.q - j)
                    if type(entry) is tuple:
                        live[key] = entry
                        spent -= len(entry[3])
                self.live = live
                self.accounts[depth].release(spent)
            if j < self.q - 1:
                return
            self._merge(depth)
        if depth == 0:
            self.cert_arcs = frozenset(nodes[0].h_arcs)

    # -- offline phases ------------------------------------------------------

    def _prune_into(self, node: _TreeNode, arcs: set[tuple[int, int]], spent: int, replaced: int) -> None:
        """Keep the pruned block, in place of ``replaced`` of the node's words, and, below
        the root, the prune's chain cover; then release the ``spent`` words."""
        node.h_arcs, chains = _prune(node.hi - node.lo, arcs, node.lo)
        keep = len(node.h_arcs)
        if node.depth > 0:  # the root's chain cover is never consumed
            for chain in chains:  # this node's range of the chain table
                self.chain_at[chain[0]] = chain
                for i, v in enumerate(chain):
                    self.head[v], self.pos[v] = chain[0], i
            keep += node.hi - node.lo
        account = self.accounts[node.depth]
        if keep >= replaced:
            account.charge(keep - replaced)
        else:
            account.release(replaced - keep)
        account.release(spent)

    def _merge(self, depth: int) -> None:
        """Merge and prune each depth-``depth`` node in order, then delete the depth below."""
        nodes, own = self.depths[depth]
        account, below = self.accounts[depth], self.accounts[depth + 1]
        unit, size, chain_at = 3 if self.model == TURNSTILE else 1, self.size, self.chain_at
        merged = {node: set() for node in nodes}
        for key, pos in self.table.items():  # the level table, by owner node
            if pos is not None:  # a selection without survivor answers None
                x, h = divmod(key, size)
                merged[own[x]].add((x, chain_at[h][pos]))
        unanswered = Counter(own[key // size] for key, pos in self.table.items() if pos is None)
        self.table = self.live = None
        for node in nodes:
            arcs = merged[node]  # one arc per answered entry: each answer lies on its own chain
            table_words = unit * (len(arcs) + unanswered[node])
            for child in node.children:
                arcs |= child.h_arcs
            scratch = node.hi - node.lo
            account.charge(len(arcs) + scratch)
            below.release(sum(len(child.h_arcs) + child.hi - child.lo for child in node.children))
            node.children = []
            account.release(table_words)
            self._prune_into(node, arcs, len(arcs) + scratch, 0)
        del self.depths[depth + 1]

    def close(self) -> None:
        for account in (*self.accounts, self.account):
            account.drop()


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
