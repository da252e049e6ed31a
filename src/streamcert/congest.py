"""Synchronous message-passing simulator and distributed connectivity protocols.

The network is the underlying undirected graph of a digraph: every arc gives a
bidirectional link, each link carries at most one message per direction per
round, and a message is a tuple of machine words (a word covers one node id).
Messages sent in round r are readable in round r+1.

Protocols here are driven by a central scheduler for phase sequencing and
termination detection, as is usual for simulators, but every bit of
inter-node information travels through counted, size-checked messages.
The SCC protocols split on least-rank labels: per level, one flood tells
each node the least random rank that reaches it (``_Decomposition``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add
from typing import Mapping, Sequence

from .certify_k import SampleScheme
from .certify_one import tc_preserving_prune
from .digraph import Digraph
from .prf import prf_u64, sample_members

Message = tuple[int, ...]


class ProtocolViolationError(RuntimeError):
    def __init__(self, node: int, round_no: int, bits: int, budget: int):
        self.node = node
        self.round_no = round_no
        self.bits = bits
        super().__init__(
            f"node {node} sent a {bits}-bit message in round {round_no}"
            f" (budget {budget})"
        )


class CongestNetwork:
    """Bidirectional-link view of a digraph with a per-message bit budget."""

    __slots__ = ("topology", "word_bits", "max_words", "max_message_bits", "neighbors")

    def __init__(self, topology: Digraph, max_words: int = 8):
        if max_words < 1:
            raise ValueError(f"max_words must be >= 1, got {max_words}")
        self.topology = topology
        self.word_bits = max(1, (topology.n - 1).bit_length()) if topology.n else 1
        self.max_words = max_words
        self.max_message_bits = max_words * self.word_bits
        und = [set() for _ in range(topology.n)]
        for u, v in topology.arcs:
            und[u].add(v)
            und[v].add(u)
        self.neighbors = tuple(tuple(sorted(s)) for s in und)


@dataclass(frozen=True)
class RoundTrace:
    rounds_used: int
    messages: int
    phases: Mapping[str, int] = field(default_factory=dict)
    meta: Mapping[str, int] = field(default_factory=dict)


def _word_count(value: int, word_bits: int) -> int:
    if value < 0:
        raise ValueError(f"messages carry non-negative ints, got {value}")
    return max(1, -(-value.bit_length() // word_bits))


class _Sim:
    """Round executor: validates links and sizes, counts rounds and messages."""

    def __init__(self, net: CongestNetwork):
        self.net = net
        self.links = [set(nb) for nb in net.neighbors]
        # L <= max_words values below 2**fits[L] take max_words // L words each
        self.fits = [0] + [net.word_bits * (net.max_words // L) for L in range(1, net.max_words + 1)]
        self.round = 0
        self.messages = 0
        self.phases: dict[str, int] = {}
        self.meta: dict[str, int] = {}

    def exchange(
        self, sends: Mapping[int, Mapping[int, Message]], phase: str
    ) -> dict[int, dict[int, Message]]:
        self.round += 1
        self.phases[phase] = self.phases.get(phase, 0) + 1
        net, fits = self.net, self.fits
        inbox: dict[int, dict[int, Message]] = {}
        for u, out in sends.items():  # every reader of the inbox is order-independent
            links = self.links[u]
            if not links.issuperset(out):
                raise ValueError(f"node {u} has no link to {next(w for w in out if w not in links)}")
            checked = None  # a flood hands every neighbour one message object
            for w, msg in out.items():
                # only a message that may not fit pays for the exact word count
                if msg is not checked and msg and (
                    len(msg) > net.max_words or max(msg) >> fits[len(msg)] or min(msg) < 0
                ):
                    bits = sum(_word_count(x, net.word_bits) for x in msg) * net.word_bits
                    if bits > net.max_message_bits:
                        raise ProtocolViolationError(u, self.round, bits, net.max_message_bits)
                checked = msg
                box = inbox.get(w)
                if box is None:
                    inbox[w] = {u: msg}
                else:
                    box[u] = msg
            self.messages += len(out)
        return inbox

    def bump(self, key: str, amount: int = 1) -> None:
        self.meta[key] = self.meta.get(key, 0) + amount

    def trace(self) -> RoundTrace:
        return RoundTrace(self.round, self.messages, dict(self.phases), dict(self.meta))


# ---------------------------------------------------------------------------
# shared flood / convergecast primitives (lockstep across components)
# ---------------------------------------------------------------------------


def _flood_value(
    sim: _Sim,
    links: Mapping[int, Sequence[int]],
    payload: Mapping[int, Message],
    phase: str,
) -> dict[int, Message]:
    """Give every node the least seed value that reaches it along ``links``.

    A node keeps the least value it has heard and relays an improvement only
    to the neighbours it lowers, so a relayed value is below the receiver's
    own seed, if it has one.  With one seed value per component this is a
    first-arrival flood: each node relays once, to the nodes not yet reached.
    """
    value = dict(payload)
    frontier = list(value)
    while frontier:
        sends = {}
        for v in frontier:
            x = value[v]
            out = {w: x for w in links[v] if w not in value or x < value[w]}
            if out:
                sends[v] = out
        if not sends:
            break
        inbox = sim.exchange(sends, phase)
        for w, box in inbox.items():
            value[w] = min(box.values())
        frontier = list(inbox)
    return value


def _convergecast(
    sim: _Sim,
    comps: Mapping[int, Sequence[int]],
    parent: Mapping[int, int],
    depth: Mapping[int, int],
    contrib: Mapping[int, tuple[int, ...]],
    phase: str,
) -> dict[int, tuple[int, ...]]:
    """Layered sums toward each component's root, the node that keys it:
    a node at depth d sends at step (deepest depth in its component) - d."""
    acc = {v: tuple(contrib[v]) for key in comps for v in comps[key]}
    by_step: dict[int, list[int]] = {}
    for members in comps.values():
        bottom = max(depth[v] for v in members)
        for v in members:
            if depth[v]:
                by_step.setdefault(bottom - depth[v], []).append(v)
    for step in sorted(by_step):
        inbox = sim.exchange({v: {parent[v]: acc[v]} for v in by_step[step]}, phase)
        for w in inbox:
            for msg in inbox[w].values():
                acc[w] = tuple(map(add, acc[w], msg))
    return {key: acc[key] for key in comps}


# ---------------------------------------------------------------------------
# Schudy-style SCC decomposition with optional topological counters
# ---------------------------------------------------------------------------


class _Decomposition:
    """Schudy-style SCC split: per level, every node floods its rank forward
    inside its component of same-part nodes and learns least(v), the least
    rank that reaches it.  Each component finds its pivot (``_pivot_search``,
    steps counted as ``search_iters``), and the pivot's floods split it into
    its SCC and four parts.  Set A, the forward reach of the ranks below t*,
    is the nodes whose least rank lies below the final search interval."""

    def __init__(self, net: CongestNetwork, seed: int, with_counters: bool):
        self.net = net
        self.seed = seed
        self.with_counters = with_counters
        self.sim = _Sim(net)
        n = net.topology.n
        self.n = n
        self.scc = [None] * n
        self.counter = [1] * n

    def run(self) -> None:
        n = self.n
        if n == 0:
            return
        g = self.net.topology
        cube = n**3
        max_levels = 6 * max(1, n.bit_length()) + 24
        # all nodes start in one part; a link stays while both ends stay
        # unsettled and in the same part
        links = {v: set(self.net.neighbors[v]) for v in range(n)}
        part: dict[int, int] = {}
        for level in range(max_levels):
            active = [v for v in range(n) if self.scc[v] is None]
            if not active:
                break
            self.sim.bump("depth")
            rank = self._draw_ranks(level, active, cube)

            if level:
                # every active node tells its unsettled linked neighbours its part
                sends = {}
                for v in active:
                    msg = (part[v],)
                    out = {w: msg for w in links[v] if self.scc[w] is None}
                    if out:
                        sends[v] = out
                inbox = self.sim.exchange(sends, "announce") if sends else {}
                links = {
                    v: {w for w, (p,) in inbox.get(v, {}).items() if p == part[v]}
                    for v in active
                }

            # nodes with no same-part neighbour are their own SCC
            lone = [v for v in active if not links[v]]
            for v in lone:
                self.scc[v] = v
            active = [v for v in active if links[v]]
            if not active:
                continue

            # the leader flood spans exactly the links, so every linked
            # neighbour is in v's component; comps are keyed by their leader
            leader, depth, parent = self._elect(active, links)
            comps: dict[int, list[int]] = {}
            children: dict[int, list[int]] = {v: [] for v in active}
            for v in active:
                comps.setdefault(leader[v], []).append(v)
                if depth[v]:
                    children[parent[v]].append(v)
            out_in = {v: [w for w in g.out_neighbors(v) if w in links[v]] for v in active}
            in_in = {v: [w for w in g.in_neighbors(v) if w in links[v]] for v in active}

            # every least rank is the rank of a self-least node: one whose own
            # rank is its least, since no lower rank reaches it
            least = _flood_value(self.sim, out_in, {v: (rank[v],) for v in active}, "reach")
            weight = {v: 1 + len(out_in[v]) for v in active}
            self_least = {v: least[v][0] == rank[v] for v in active}
            totals = _convergecast(
                self.sim, comps, parent, depth,
                {v: (weight[v], int(self_least[v])) for v in active}, "size",
            )

            # each interval holds exactly one self-least rank, t*: its node is the pivot
            bounds = self._pivot_search(comps, parent, depth, children, rank, least, weight, totals)
            pivots = [v for v in active if self_least[v] and bounds[v][0] <= rank[v] <= bounds[v][1]]

            # the forward flood carries the pivot's id, so its SCC learns it; a
            # virtual super-source wakes the pivots for each flood and relays nothing
            self.sim.bump("virtual_source_wakeups", 2 * len(pivots))
            set_b = _flood_value(self.sim, out_in, {v: (v,) for v in pivots}, "reach")
            back = _flood_value(self.sim, in_in, dict.fromkeys(pivots, (1,)), "reach")

            branch = {}
            for v in active:
                code = 2 * (v in set_b) + (least[v][0] < bounds[v][0])  # in B, in A
                if code >= 2 and v in back:
                    branch[v] = 3  # the pivot's own SCC
                    self.scc[v] = set_b[v][0]
                else:
                    part[v] = code  # one word
                    branch[v] = (1, 2, 4, 5)[code]  # in neither, A only, B only, both
            if self.with_counters:
                self._update_counters(comps, parent, depth, children, branch)
        else:  # pragma: no cover - recursion provably shrinks
            raise RuntimeError("decomposition did not converge")

    def _draw_ranks(self, level: int, active: list[int], cube: int) -> dict[int, int]:
        attempt = 0
        while True:
            rank = {v: 1 + prf_u64(self.seed, level, attempt, v) % cube for v in active}
            if len(set(rank.values())) == len(active):
                return rank
            attempt += 1
            self.sim.bump("rank_resamples")

    def _elect(self, active, links):
        """Min-ID flood building per-component BFS trees (leader, depth, parent):
        as in ``_flood_value``, a node relays its (leader, depth) only over links
        whose state it lowers, and a receiver keeps the least (leader, depth + 1, sender)."""
        best, parent = {v: (v, 0) for v in active}, {v: v for v in active}
        frontier = active
        while frontier:
            sends = {}
            for v in frontier:
                msg = best[v]
                cand = (msg[0], msg[1] + 1)
                out = {w: msg for w in links[v] if cand < best[w]}
                if out:
                    sends[v] = out
            if not sends:
                break
            inbox = self.sim.exchange(sends, "leader")
            for w, box in inbox.items():
                lead, d, parent[w] = min((x, y + 1, u) for u, (x, y) in box.items())
                best[w] = (lead, d)
            frontier = inbox
        return {v: b[0] for v, b in best.items()}, {v: b[1] for v, b in best.items()}, parent

    def _pivot_search(self, comps, parent, depth, children, rank, least, weight, totals):
        """Per-component bisection of [1, n^3] for t*, the least threshold t
        whose reach from the ranks <= t weighs half the component (a node
        weighs 1 + |out_in|).  That reach is the nodes whose least rank is
        <= t, so each node tests itself, and it changes only at self-least
        ranks.  So t* is a self-least rank in [lo, hi], and a root closes its
        search once [lo, hi] holds one: each step's convergecast returns
        (weight reached, self-least ranks in [lo, mid]), and the count in
        the interval starts at the ``size`` convergecast's.  A strongly
        connected component has one self-least node and takes no step.  The
        ``search`` floods and the final ``tstar`` one go down the BFS tree (a
        parent learned its children in ``size``) and carry the root's last
        direction in one word; every node halves its own [lo, hi] by it and
        computes the next mid.  Components that took no step skip ``tstar``.
        Returns each node's final [lo, hi].

        A pair covers at most n - 1 nodes of weight <= n, so it fits three
        words: the weight two, the count one.
        """
        bounds = {v: (1, self.n**3) for key in comps for v in comps[key]}
        inside = {key: totals[key][1] for key in comps}
        open_keys = sorted(key for key in comps if inside[key] > 1)
        stepped = list(open_keys)
        went_low = dict.fromkeys(open_keys, False)  # first flood: no node has a mid yet
        pending: dict[int, int] = {}  # a node's mid, until it learns the direction

        def tell(keys, phase):
            told = _flood_value(
                self.sim, children, {key: (int(went_low[key]),) for key in keys}, phase
            )
            for v, (low,) in told.items():
                if v in pending:
                    mid = pending.pop(v)
                    bounds[v] = (bounds[v][0], mid) if low else (mid + 1, bounds[v][1])
            return told

        while open_keys:
            self.sim.bump("search_iters")
            told = tell(open_keys, "search")
            for v in told:
                pending[v] = sum(bounds[v]) // 2
            counts = _convergecast(
                self.sim, {key: comps[key] for key in open_keys}, parent, depth,
                {
                    v: (
                        weight[v] if least[v][0] <= pending[v] else 0,
                        int(least[v][0] == rank[v] and bounds[v][0] <= rank[v] <= pending[v]),
                    )
                    for v in told
                },
                "search",
            )
            for key in open_keys:
                reached, in_lower = counts[key]
                went_low[key] = 2 * reached >= totals[key][0]
                inside[key] = in_lower if went_low[key] else inside[key] - in_lower
            open_keys = [key for key in open_keys if inside[key] > 1]
        tell(stepped, "tstar")
        return bounds

    def _update_counters(self, comps, parent, depth, children, branch) -> None:
        """Verbatim five-set offsets: later sets shift by earlier set sizes.

        One convergecast sums the four indicator counts of sets 1-4 as a
        tuple; a message covers a subtree without the root, so every count is
        below n.  One flood down the BFS tree hands their prefix sums back,
        capped at n-1: a node in set b reads the sizes of sets 1..b-1, which
        leave out the node itself, so the cap never changes a value read.
        """
        sizes = _convergecast(
            self.sim, comps, parent, depth,
            {v: tuple(int(b == want) for want in (1, 2, 3, 4)) for v, b in branch.items()},
            "count",
        )
        prefix = {
            key: tuple(min(p, self.n - 1) for p in accumulate(s)) for key, s in sizes.items()
        }
        seen = _flood_value(self.sim, children, prefix, "count")
        for v, b in branch.items():
            self.counter[v] += ((0,) + seen[v])[b - 1]


def congest_scc(net: CongestNetwork, seed: int = 0) -> tuple[list[int], RoundTrace]:
    """Distributed SCC ids: every node ends up naming its component's pivot."""
    deco = _Decomposition(net, seed, with_counters=False)
    deco.run()
    return [v if s is None else s for v, s in enumerate(deco.scc)], deco.sim.trace()


def congest_toposort(net: CongestNetwork, seed: int = 0) -> tuple[list[int], RoundTrace]:
    """Distributed topological ranks: equal within an SCC, increasing along arcs."""
    deco = _Decomposition(net, seed, with_counters=True)
    deco.run()
    return list(deco.counter), deco.sim.trace()


# ---------------------------------------------------------------------------
# distributed k-node certificate
# ---------------------------------------------------------------------------


def congest_k_cert(
    net: CongestNetwork, k: int, rho: float, seed: int = 0
) -> tuple[list[set[tuple[int, int]]], RoundTrace]:
    """Each node marks the arcs kept by sampled-subgraph pruning around it.

    Nodes sample memberships locally, announce them, gossip each sampled
    subgraph's arcs inside that subgraph (never back to a fact's sender nor
    to its arc's ends, who hold it), then prune the component they learned
    and mark their own incident survivors.  The union of all marks is a
    k-node certificate of the input.  The members of one component learn
    the same arc set and prune it alike, so the simulator prunes each
    distinct set once: this shares computation, not information, and a
    node's marks stay a function of the facts its counted messages brought.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < rho <= 1.0 / k:
        raise ValueError(f"rho must lie in (0, 1/k], got {rho}")
    g = net.topology
    n = g.n
    sim = _Sim(net)
    r = SampleScheme(rho=rho).sample_count(k, n, "node")
    member: dict[int, list[int]] = {v: [] for v in range(n)}
    for i, members in enumerate(sample_members(seed, r, n, rho)):
        for v in members:
            member[v].append(i)
    sim.meta["samples"] = sum(len(m) for m in member.values())
    sim.meta["r"] = r

    # announce memberships, batched to the word budget
    per_index = _word_count(max(1, r - 1), net.word_bits)
    batch = max(1, net.max_words // per_index)
    nbr_member: dict[int, dict[int, set[int]]] = {
        v: {w: set() for w in net.neighbors[v]} for v in range(n)
    }
    cursor = 0
    while True:
        sends = {}
        for v in range(n):
            chunk = tuple(member[v][cursor : cursor + batch])
            if chunk and net.neighbors[v]:
                sends[v] = {w: chunk for w in net.neighbors[v]}
        if not sends:
            break
        inbox = sim.exchange(sends, "announce")
        for v in inbox:
            for w, msg in inbox[v].items():
                nbr_member[v][w].update(msg)
        cursor += batch

    # gossip subgraph arcs: one (i, u, v) fact per link per round, smallest
    # first; a link queues a fact once, when its sender first learns it
    known: list[set[tuple[int, int, int]]] = [set() for _ in range(n)]
    queue = [{w: [] for w in net.neighbors[v]} for v in range(n)]

    def learn(v: int, fact: tuple[int, int, int], sender: int) -> None:
        if fact not in known[v]:
            known[v].add(fact)
            i, a, b = fact
            for w, heap in queue[v].items():
                if i in nbr_member[v][w] and w != sender and w != a and w != b:
                    heapq.heappush(heap, fact)

    for u, v in g.arcs:  # each endpoint holds the arc from round 0
        for i in set(member[u]).intersection(member[v]):
            learn(u, (i, u, v), v)
            learn(v, (i, u, v), u)
    while True:
        sends = {}
        for v in range(n):
            out = {w: heapq.heappop(heap) for w, heap in queue[v].items() if heap}
            if out:
                sends[v] = out
        if not sends:
            break
        inbox = sim.exchange(sends, "gossip")
        for v, box in inbox.items():
            for w, msg in box.items():
                learn(v, msg, w)

    # local pruning of every learned component, marking incident survivors;
    # a node knows facts of index i only if it is an endpoint of one of them
    marks: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    kept: dict[frozenset[tuple[int, int]], list[tuple[int, int]]] = {}
    for v in range(n):
        by_index: dict[int, list[tuple[int, int]]] = {}
        for i, a, b in known[v]:
            by_index.setdefault(i, []).append((a, b))
        for arcs_i in map(frozenset, by_index.values()):
            if arcs_i not in kept:
                nodes = sorted({a for a, _ in arcs_i} | {b for _, b in arcs_i})
                index = {node: pos for pos, node in enumerate(nodes)}
                local = Digraph(len(nodes), ((index[a], index[b]) for a, b in arcs_i))
                kept[arcs_i] = [(nodes[a], nodes[b]) for a, b in tc_preserving_prune(local).arcs]
            marks[v].update(arc for arc in kept[arcs_i] if v in arc)
    return marks, sim.trace()
