"""Deterministic 1-node strong connectivity certificates.

Two layers:

* :func:`tc_preserving_prune` — offline reachability-preserving sparsifier.
  In one pass over the cross-component arcs it keeps, for every node x and
  every chain of a minimum chain cover, the arc from x to the earliest chain
  node among its out-neighbours.  That acyclic part D has out-degrees at most
  the chain-cover size <= alpha; adding one in- and one out-branching per
  nontrivial strongly connected component gives at most (alpha + 2) * n arcs.
* :func:`one_cert_stream` — multi-pass streaming computation of the same kind
  of certificate.  Node ranges are split into contiguous blocks, sub-certificates
  are computed recursively with all instances of a level multiplexed onto
  shared passes, and one extra pass per level finds, for every node x outside
  a block and every chain of the block's cover, the first chain node u with
  arc (x, u) surviving in the stream.  Under deletions that search runs as a
  multi-pass block-counter minimum selection.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .digraph import (
    Digraph,
    chain_cover_minimum,
    grow_branching,
    reachability_masks,
    scc_ids,
    scc_tarjan,
)
from .streams import (
    TURNSTILE,
    ArcStream,
    MinSelect,
    SpaceLedger,
    StreamStats,
    block_bounds,
    block_of,
    int_root_ceil,
    run_passes,
)


@dataclass(frozen=True)
class Certificate:
    """Subgraph arc set tagged with certificate kind and threshold."""

    base_n: int
    arcs: frozenset
    kind: str  # "node" | "arc"
    k: int
    provenance: Mapping = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.kind not in ("node", "arc"):
            raise ValueError(f"kind must be 'node' or 'arc', got {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"threshold k must be >= 1, got {self.k}")

    def graph(self) -> Digraph:
        return Digraph(self.base_n, self.arcs)


@dataclass(frozen=True)
class RecursionPlan:
    """Pass budget for the streaming recursion.

    The branching factor is not a setting: a run with d >= 1 levels cuts every
    range into b = max(2, smallest integer with b**(d+1) >= n) blocks.
    ``mp_passes`` fixes the per-level pass count q of the turnstile minimum
    selection; the default is floor(sqrt(p-1)) adjusted so d*q+1 <= p.
    """

    p: int
    mp_passes: int | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"pass budget p must be >= 1, got {self.p}")
        if self.mp_passes is not None:
            if self.p == 1:
                raise ValueError("mp_passes is meaningless for a 1-pass plan")
            if not 1 <= self.mp_passes <= self.p - 1:
                raise ValueError(f"mp_passes must be in [1, p-1], got {self.mp_passes}")

    def turnstile_split(self) -> tuple[int, int]:
        """(levels d, per-level passes q) with d*q + 1 <= p."""
        if self.p == 1:
            return 0, 1
        q = self.mp_passes or max(1, math.isqrt(self.p - 1))
        return (self.p - 1) // q, q


# ---------------------------------------------------------------------------
# offline pruning
# ---------------------------------------------------------------------------


def _scc_branching_arcs(g: Digraph) -> set[tuple[int, int]]:
    """One in- plus one out-branching inside every nontrivial SCC (min-id root)."""
    arcs: set[tuple[int, int]] = set()
    for comp in scc_tarjan(g):
        if len(comp) < 2:
            continue
        nodes = sorted(comp)
        sub = g.induced(nodes)
        for kind in ("out", "in"):
            br = grow_branching(sub, 0, kind)
            arcs.update((nodes[u], nodes[v]) for u, v in br.arcs)
    return arcs


def tc_preserving_prune(g: Digraph) -> Digraph:
    """Subgraph with the same transitive closure and at most (alpha+2)*n arcs.

    One pass over the cross-component arcs keeps, for every node x and every
    chain of a minimum chain cover, only the arc from x to its earliest
    out-neighbour on that chain, so each node keeps at most chain-cover-size
    <= alpha cross arcs.  One in- and one out-branching per nontrivial
    strongly connected component add fewer than 2n arcs.
    """
    n = g.n
    if n == 0 or not g.arcs:
        return g
    comp_id = scc_ids(g)
    chain_at = [(-1, -1)] * n  # node -> (chain index, position)
    for ci, chain in enumerate(chain_cover_minimum(g).chains):
        for pos, v in enumerate(chain):
            chain_at[v] = (ci, pos)

    # The earliest chain node reaches the later ones; induction over the
    # condensation in reverse topological order shows nothing else is lost.
    first: dict[tuple[int, int], tuple[int, int]] = {}  # (x, chain) -> (pos, v)
    for x, v in g.arcs:
        if comp_id[x] != comp_id[v]:
            ci, pos = chain_at[v]
            first[x, ci] = min(first.get((x, ci), (pos, v)), (pos, v))

    arcs = _scc_branching_arcs(g)
    arcs.update((x, v) for (x, _), (_, v) in first.items())
    return Digraph(n, arcs)


# ---------------------------------------------------------------------------
# the streaming recursion
# ---------------------------------------------------------------------------


class _TreeNode:
    __slots__ = ("lo", "hi", "depth", "children", "arcs", "h_arcs", "chains",
                 "chainpos", "best", "select", "account")

    def __init__(self, lo: int, hi: int, depth: int):
        self.lo = lo
        self.hi = hi
        self.depth = depth
        self.children: list[_TreeNode] = []
        self.arcs: set[tuple[int, int]] | None = None
        self.h_arcs: set[tuple[int, int]] = set()
        self.chains: tuple[tuple[int, ...], ...] | None = None
        self.chainpos: dict[int, tuple[int, int]] | None = None
        self.best: dict | None = None
        self.select: dict | None = None
        self.account = None


class OneCertRun:
    """Pass-consumer computing one 1-certificate, multiplexable with peers.

    ``universe`` restricts the run to an induced node subset (given as a
    sorted global-id list); ``arc_filter`` drops arcs on the fly without
    storing anything.  Both default to the full stream.
    """

    def __init__(
        self,
        n: int,
        model: str,
        plan: RecursionPlan,
        ledger: SpaceLedger,
        name: str = "one",
        universe: Sequence[int] | None = None,
        arc_filter=None,
    ):
        self.model = model
        self.plan = plan
        self.name = name
        self.arc_filter = arc_filter
        self.ledger = ledger
        if universe is None:
            self._to_local = None
            self._to_global = None
            self.size = n
        else:
            uni = sorted(universe)
            self._to_local = {v: i for i, v in enumerate(uni)}
            self._to_global = uni
            self.size = len(uni)

        if model == TURNSTILE:
            self.levels, self.q = plan.turnstile_split()
        else:
            if plan.mp_passes is not None:
                raise ValueError("mp_passes applies to turnstile streams only")
            self.levels, self.q = plan.p - 1, 1
        self.total_passes = 1 + self.levels * self.q

        self.b = int_root_ceil(self.size, self.levels + 1)
        if self.levels >= 1:
            self.b = max(2, self.b)

        self.account = ledger.open(f"{name}/run", constant=8)
        if self._to_global is not None:
            self.account.charge(len(self._to_global))

        # contiguous-range recursion tree, one node list per depth
        root = _TreeNode(0, self.size, 0)
        self.by_depth: list[list[_TreeNode]] = [[root]]
        for depth in range(self.levels):
            nxt = []
            for node in self.by_depth[depth]:
                span = node.hi - node.lo
                node.children = [
                    _TreeNode(*block_bounds(node.lo, span, self.b, i), depth + 1)
                    for i in range(self.b)
                ]
                nxt.extend(node.children)
            self.by_depth.append(nxt)
        for nodes in self.by_depth:
            for node in nodes:
                node.account = ledger.open(f"{name}/[{node.lo},{node.hi})")

        # pass schedule: leaf collection, then one level per (set of) pass(es)
        self.schedule: list[tuple] = [("leaf",)]
        for depth in range(self.levels - 1, -1, -1):
            for j in range(self.q):
                self.schedule.append(("level", depth, j))
        self._phase: tuple | None = None
        self.cert_arcs: frozenset | None = None

    # -- routing -----------------------------------------------------------

    def _localize(self, u: int, v: int) -> tuple[int, int] | None:
        if self.arc_filter is not None and not self.arc_filter(u, v):
            return None
        if self._to_local is None:
            return u, v
        lu = self._to_local.get(u)
        if lu is None:
            return None
        lv = self._to_local.get(v)
        if lv is None:
            return None
        return lu, lv

    # -- pass protocol ------------------------------------------------------

    def begin_pass(self, pass_index: int) -> None:
        if pass_index >= len(self.schedule):
            raise RuntimeError(f"{self.name}: no phase scheduled for pass {pass_index}")
        self._phase = self.schedule[pass_index]
        if self._phase[0] == "leaf":
            for leaf in self.by_depth[self.levels]:
                leaf.arcs = set()
        elif self._phase[2] == 0:
            for node in self.by_depth[self._phase[1]]:
                if self.model == TURNSTILE:
                    node.select = {}
                else:
                    node.best = {}

    def update(self, sign: int, u: int, v: int) -> None:
        loc = self._localize(u, v)
        if loc is None:
            return
        lu, lv = loc
        phase = self._phase
        # A leaf pass wants the leaf holding both ends; a level pass at depth d
        # wants the depth-d node whose children split u from v.
        leaf = phase[0] == "leaf"
        depth = self.levels if leaf else phase[1]
        node = self.by_depth[0][0]
        for _ in range(depth if leaf else depth + 1):
            span = node.hi - node.lo
            iu = block_of(lu - node.lo, span, self.b)
            iv = block_of(lv - node.lo, span, self.b)
            if iu != iv:
                break
            node = node.children[iu]
        if node.depth != depth:
            return
        if leaf:
            if sign > 0:
                if (lu, lv) not in node.arcs:
                    node.arcs.add((lu, lv))
                    node.account.charge(1)
            elif (lu, lv) in node.arcs:
                node.arcs.remove((lu, lv))
                node.account.release(1)
            return

        j = phase[2]
        child = node.children[iv]
        cid, pos = child.chainpos[lv]
        key = (lu, iv, cid)
        if self.model == TURNSTILE:
            inst = node.select.get(key)
            if inst is None:
                inst = MinSelect(len(child.chains[cid]), self.q - j, account=node.account)
                node.account.charge(3)  # active range + bookkeeping of the instance
                inst.begin_pass()
                node.select[key] = inst
            inst.observe(pos, sign)
        else:
            cur = node.best.get(key)
            if cur is None:
                node.best[key] = pos
                node.account.charge(1)
            elif pos < cur:
                node.best[key] = pos

    def end_pass(self, pass_index: int) -> None:
        phase = self._phase
        self._phase = None
        if phase[0] == "leaf":
            for leaf in self.by_depth[self.levels]:
                self._finish_leaf(leaf)
            if self.levels == 0:
                self._finalize()
            return
        _, depth, j = phase
        if self.model == TURNSTILE:
            for node in self.by_depth[depth]:
                for inst in node.select.values():
                    inst.end_pass()
            if j < self.q - 1:
                for node in self.by_depth[depth]:
                    for inst in node.select.values():
                        inst.begin_pass()
                return
        for node in self.by_depth[depth]:
            self._merge(node)
        if depth == 0:
            self._finalize()

    # -- offline phases ------------------------------------------------------

    def _local_prune(self, node: _TreeNode, arcs: set[tuple[int, int]]) -> Digraph:
        lo = node.lo
        shifted = Digraph(node.hi - lo, ((u - lo, v - lo) for u, v in arcs))
        return tc_preserving_prune(shifted)

    def _store_result(self, node: _TreeNode, pruned: Digraph, spent: int) -> None:
        lo = node.lo
        node.h_arcs = {(u + lo, v + lo) for u, v in pruned.arcs}
        keep = len(node.h_arcs)
        if node.depth > 0:  # the root's chain cover is never consumed
            cover = chain_cover_minimum(pruned)
            node.chains = tuple(tuple(v + lo for v in chain) for chain in cover.chains)
            node.chainpos = {}
            for ci, chain in enumerate(node.chains):
                for pos, v in enumerate(chain):
                    node.chainpos[v] = (ci, pos)
            keep += node.hi - node.lo
        node.account.set_extra(keep + spent)
        node.account.release(spent)

    def _finish_leaf(self, leaf: _TreeNode) -> None:
        scratch = leaf.hi - leaf.lo
        leaf.account.charge(scratch)
        pruned = self._local_prune(leaf, leaf.arcs)
        leaf.arcs = None
        self._store_result(leaf, pruned, scratch)

    def _merge(self, node: _TreeNode) -> None:
        merged: set[tuple[int, int]] = set()
        if self.model == TURNSTILE:
            for (x, ci, cid), inst in node.select.items():
                if inst.result is not None:
                    merged.add((x, node.children[ci].chains[cid][inst.result]))
            table_words = 3 * len(node.select)
        else:
            for (x, ci, cid), pos in node.best.items():
                merged.add((x, node.children[ci].chains[cid][pos]))
            table_words = len(node.best)
        for child in node.children:
            merged |= child.h_arcs
        scratch = node.hi - node.lo
        node.account.charge(len(merged) + scratch)
        pruned = self._local_prune(node, merged)
        for child in node.children:
            child.account.drop()
        node.select = None
        node.best = None
        node.account.release(table_words)
        self._store_result(node, pruned, len(merged) + scratch)

    def _finalize(self) -> None:
        root = self.by_depth[0][0]
        if self._to_global is None:
            self.cert_arcs = frozenset(root.h_arcs)
        else:
            g = self._to_global
            self.cert_arcs = frozenset((g[u], g[v]) for u, v in root.h_arcs)

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
    run_passes(stream, [run], run.total_passes, ledger)
    prov = {
        "algorithm": "one_cert_stream",
        "p": plan.p,
        "b": run.b,
        "model": stream.model,
        "levels": run.levels,
        "mp_passes": run.q if stream.model == TURNSTILE else None,
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
    arc_count: int
    chain_bound: int
    violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return self.contained and self.tc_equal and self.structural_ok


def validate_one_cert(g: Digraph, cert: Certificate) -> OneCertReport:
    """Check reachability equality plus the structural sparsity witness."""
    if cert.base_n != g.n:
        raise ValueError(f"certificate is over {cert.base_n} nodes, graph has {g.n}")
    h = cert.graph()
    contained = cert.arcs <= g.arcs

    reach_g = reachability_masks(g)
    reach_h = reachability_masks(h)
    violations = []
    for s in range(g.n):
        diff = reach_g[s] ^ reach_h[s]
        while diff:
            low = diff & -diff
            violations.append((s, low.bit_length() - 1))
            diff ^= low

    comp_id = scc_ids(h)
    nchains = len(chain_cover_minimum(h))
    cross_deg = [0] * g.n
    intra: Counter[int] = Counter()
    for u, v in h.arcs:
        if comp_id[u] == comp_id[v]:
            intra[comp_id[u]] += 1
        else:
            cross_deg[u] += 1
    # self-loops are excluded, so a singleton component holds no intra arc
    structural = all(d <= nchains for d in cross_deg) and all(
        intra[c] <= 2 * (size - 1) for c, size in Counter(comp_id).items()
    )
    return OneCertReport(
        contained=contained,
        tc_equal=not violations,
        structural_ok=structural,
        arc_count=h.m,
        chain_bound=nchains,
        violations=tuple(sorted(violations)),
    )
