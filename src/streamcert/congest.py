"""Synchronous message-passing simulator and distributed connectivity protocols.

The network is the underlying undirected graph of a digraph: every arc gives a
bidirectional link, each link carries at most one message per direction per
round, and a message is a tuple of machine words (a word covers one node id).
Messages sent in round r are readable in round r+1.

Protocols here are driven by a central scheduler for phase sequencing and
termination detection, as is usual for simulators, but every bit of
inter-node information travels through counted, size-checked messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .certify_k import SampleScheme
from .certify_one import tc_preserving_prune
from .digraph import Digraph
from .prf import prf_u64, prf_uniform

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
        self.round = 0
        self.messages = 0
        self.phases: dict[str, int] = {}
        self.meta: dict[str, int] = {}

    def exchange(
        self, sends: Mapping[int, Mapping[int, Message]], phase: str
    ) -> dict[int, dict[int, Message]]:
        self.round += 1
        self.phases[phase] = self.phases.get(phase, 0) + 1
        net = self.net
        inbox: dict[int, dict[int, Message]] = {}
        for u in sorted(sends):
            for w in sorted(sends[u]):
                msg = sends[u][w]
                if w not in net.neighbors[u]:
                    raise ValueError(f"node {u} has no link to {w}")
                bits = sum(_word_count(x, net.word_bits) for x in msg) * net.word_bits
                if bits > net.max_message_bits:
                    raise ProtocolViolationError(u, self.round, bits, net.max_message_bits)
                inbox.setdefault(w, {})[u] = msg
                self.messages += 1
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
    """Spread one message per component from its seeds to every member."""
    value = dict(payload)
    frontier = sorted(value)
    while frontier:
        sends = {}
        for v in frontier:
            out = {w: value[v] for w in links[v] if w not in value}
            if out:
                sends[v] = out
        if not sends:
            break
        inbox = sim.exchange(sends, phase)
        frontier = []
        for w in sorted(inbox):
            if w in value:
                continue
            src = min(inbox[w])
            value[w] = inbox[w][src]
            frontier.append(w)
    return value


def _flood_reach(
    sim: _Sim,
    sources: Sequence[int],
    arcs_from: Mapping[int, Sequence[int]],
    phase: str,
) -> set[int]:
    """Directed reachability flood; sources start informed and relay once.

    The virtual super-source that feeds the sources never relays anything:
    its only action is the round-zero wakeup, recorded on the trace.
    """
    sim.bump("virtual_source_wakeups", len(sources))
    reached = set(sources)
    frontier = sorted(reached)
    while True:
        sends = {}
        for v in frontier:
            out = {w: (1,) for w in arcs_from[v] if w not in reached}
            if out:
                sends[v] = out
        if not sends:
            return reached
        inbox = sim.exchange(sends, phase)
        frontier = sorted(w for w in inbox if w not in reached)
        reached.update(frontier)


def _convergecast(
    sim: _Sim,
    comps: Mapping[object, Sequence[int]],
    parent: Mapping[int, int],
    depth: Mapping[int, int],
    contrib: Mapping[int, tuple[int, ...]],
    phase: str,
) -> dict[object, tuple[int, ...]]:
    """Layered sums toward each component's root along its BFS tree."""
    acc = {v: tuple(contrib[v]) for key in comps for v in comps[key]}
    maxd = {key: max(depth[v] for v in comps[key]) for key in comps}
    steps = max(maxd.values(), default=0)
    for step in range(steps):
        sends = {}
        for key in comps:
            layer = maxd[key] - step
            if layer < 1:
                continue
            for v in comps[key]:
                if depth[v] == layer:
                    sends.setdefault(v, {})[parent[v]] = acc[v]
        if not sends:
            continue
        inbox = sim.exchange(sends, phase)
        for w in inbox:
            for msg in inbox[w].values():
                acc[w] = tuple(a + b for a, b in zip(acc[w], msg))
    return {key: acc[min(comps[key], key=depth.get)] for key in comps}


# ---------------------------------------------------------------------------
# Schudy-style SCC decomposition with optional topological counters
# ---------------------------------------------------------------------------


class _Decomposition:
    def __init__(self, net: CongestNetwork, seed: int, with_counters: bool):
        self.net = net
        self.seed = seed
        self.with_counters = with_counters
        self.sim = _Sim(net)
        n = net.topology.n
        self.n = n
        self.label = [1] * n
        self.scc = [None] * n
        self.counter = [1] * n

    def run(self) -> None:
        n = self.n
        if n == 0:
            return
        g = self.net.topology
        cube = n**3
        search_iters = max(1, cube.bit_length())
        max_levels = 6 * max(1, n.bit_length()) + 24
        for level in range(max_levels):
            active = [v for v in range(n) if self.scc[v] is None]
            if not active:
                break
            self.sim.bump("depth")
            rank = self._draw_ranks(level, active, cube)

            # every active node tells its neighbours which subproblem it is in
            sends = {}
            for v in active:
                out = {w: (self.label[v],) for w in self.net.neighbors[v]}
                if out:
                    sends[v] = out
            inbox = self.sim.exchange(sends, "announce") if sends else {}
            nbr_label = {
                v: {w: inbox.get(v, {}).get(w, (None,))[0] for w in self.net.neighbors[v]}
                for v in active
            }
            links = {
                v: [w for w in self.net.neighbors[v] if nbr_label[v][w] == self.label[v]]
                for v in active
            }

            # nodes with no same-label neighbour are their own SCC
            lone = [v for v in active if not links[v]]
            for v in lone:
                self.scc[v] = v
            active = [v for v in active if links[v]]
            if not active:
                continue

            leader, depth, parent = self._elect(active, links)
            comp_of = {v: (self.label[v], leader[v]) for v in active}
            comps: dict[object, list[int]] = {}
            for v in active:
                comps.setdefault(comp_of[v], []).append(v)

            # one round so everyone learns which neighbours share its component
            sends = {v: {w: (leader[v],) for w in links[v]} for v in active}
            inbox = self.sim.exchange(sends, "ident")
            same = {
                v: set(
                    w
                    for w in links[v]
                    if inbox.get(v, {}).get(w, (None,))[0] == leader[v]
                )
                for v in active
            }
            out_in = {v: sorted(w for w in g.out_neighbors(v) if w in same[v]) for v in active}
            in_in = {v: sorted(w for w in g.in_neighbors(v) if w in same[v]) for v in active}

            totals = _convergecast(
                self.sim, comps, parent, depth,
                {v: (1, len(out_in[v])) for v in active}, "size",
            )

            pivot_rank = self._pivot_search(
                comps, parent, depth, links, out_in, rank, totals, search_iters
            )

            tstar = _flood_value(
                self.sim, links,
                {min(comps[key], key=depth.get): (pivot_rank[key],) for key in comps},
                "tstar",
            )
            pivots = {v for v in active if rank[v] == tstar[v][0]}
            pid = _flood_value(self.sim, links, {v: (v,) for v in pivots}, "pivot")

            set_a = _flood_reach(
                self.sim, sorted(v for v in active if rank[v] < tstar[v][0]),
                out_in, "reach",
            )
            set_b = _flood_reach(self.sim, sorted(pivots), out_in, "reach")
            back = _flood_reach(self.sim, sorted(pivots), in_in, "reach")

            branch = {}
            for v in active:
                in_a, in_b = v in set_a, v in set_b
                if in_b and v in back:
                    branch[v] = 3  # the pivot's own SCC
                elif not in_a and not in_b:
                    branch[v] = 1
                elif in_a and not in_b:
                    branch[v] = 2
                elif in_b and not in_a:
                    branch[v] = 4
                else:
                    branch[v] = 5

            if self.with_counters:
                self._update_counters(comps, parent, depth, branch)

            for v in active:
                if branch[v] == 3:
                    self.scc[v] = pid[v][0]
                else:
                    step = branch[v] if branch[v] < 3 else branch[v] - 1
                    self.label[v] = 5 * self.label[v] + step
        else:  # pragma: no cover - recursion provably shrinks
            raise RuntimeError("decomposition did not converge")

    def _draw_ranks(self, level: int, active: list[int], cube: int) -> dict[int, int]:
        attempt = 0
        while True:
            rank = {
                v: 1 + prf_u64(self.seed, level, attempt, v) % cube for v in active
            }
            if len(set(rank.values())) == len(active):
                return rank
            attempt += 1
            self.sim.bump("rank_resamples")

    def _elect(self, active, links):
        """Min-ID flood building per-component BFS trees (leader, depth, parent)."""
        state = {v: (v, 0, v) for v in active}
        pending = list(active)
        while pending:
            sends = {}
            for v in pending:
                if links[v]:
                    sends[v] = {w: (state[v][0], state[v][1]) for w in links[v]}
            if not sends:
                break
            inbox = self.sim.exchange(sends, "leader")
            pending = []
            for v in sorted(inbox):
                best = (state[v][0], state[v][1])
                src = state[v][2]
                for w in sorted(inbox[v]):
                    cand = (inbox[v][w][0], inbox[v][w][1] + 1)
                    if cand < best:
                        best, src = cand, w
                if best < (state[v][0], state[v][1]):
                    state[v] = (best[0], best[1], src)
                    pending.append(v)
        leader = {v: state[v][0] for v in active}
        depth = {v: state[v][1] for v in active}
        parent = {v: state[v][2] for v in active}
        return leader, depth, parent

    def _pivot_search(
        self, comps, parent, depth, links, out_in, rank, totals, search_iters
    ) -> dict[object, int]:
        """Per-component binary search for the median-weight threshold rank."""
        bounds = {key: (1, self.n**3) for key in comps}
        for _ in range(search_iters):
            open_keys = {key for key in comps if bounds[key][0] < bounds[key][1]}
            if not open_keys:
                break
            mids = {key: sum(bounds[key]) // 2 for key in open_keys}
            sub = {key: comps[key] for key in open_keys}
            mid_at = _flood_value(
                self.sim, links,
                {min(sub[key], key=depth.get): (mids[key],) for key in open_keys},
                "search",
            )
            sources = sorted(
                v for v in mid_at if rank[v] <= mid_at[v][0]
            )
            reached = _flood_reach(self.sim, sources, out_in, "search")
            counts = _convergecast(
                self.sim, sub, parent, depth,
                {
                    v: (int(v in reached), len(out_in[v]) if v in reached else 0)
                    for key in open_keys
                    for v in sub[key]
                },
                "search",
            )
            for key in open_keys:
                lo, hi = bounds[key]
                mid = mids[key]
                cv, ce = counts[key]
                tv, te = totals[key]
                if 2 * (cv + ce) >= tv + te:
                    bounds[key] = (lo, mid)
                else:
                    bounds[key] = (mid + 1, hi)
        return {key: bounds[key][0] for key in comps}

    def _update_counters(self, comps, parent, depth, branch) -> None:
        """Verbatim five-set offsets: later sets shift by earlier set sizes."""
        order = (1, 2, 3, 4, 5)
        sizes = {}
        for idx, want in enumerate(order[:4]):
            got = _convergecast(
                self.sim, comps, parent, depth,
                {v: (int(branch[v] == want),) for key in comps for v in comps[key]},
                "count",
            )
            for key in comps:
                sizes.setdefault(key, [0, 0, 0, 0])[idx] = got[key][0]
        comp_of = {v: key for key in comps for v in comps[key]}
        roots = {key: min(comps[key], key=depth.get) for key in comps}
        payload = {roots[key]: tuple(sizes[key]) for key in comps}
        flood_links = {
            v: [w for w in self.net.neighbors[v] if comp_of.get(w) == comp_of[v]]
            for v in comp_of
        }
        seen = _flood_value(self.sim, flood_links, payload, "count")
        for v in comp_of:
            s1, s2, s3, s4 = seen[v]
            offset = (0, 0, s1, s1 + s2, s1 + s2 + s3, s1 + s2 + s3 + s4)[branch[v]]
            self.counter[v] += offset


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
    subgraph's arcs inside that subgraph, then prune the component they
    learned and mark their own incident survivors.  The union of all marks is
    a k-node certificate of the input.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < rho <= 1.0 / k:
        raise ValueError(f"rho must lie in (0, 1/k], got {rho}")
    g = net.topology
    n = g.n
    sim = _Sim(net)
    r = SampleScheme(rho=rho).sample_count(k, n)
    member = {
        v: [i for i in range(r) if prf_uniform(seed, i, v) < rho] for v in range(n)
    }
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

    # gossip subgraph arcs: one (i, u, v) fact per link per round
    known: list[set[tuple[int, int, int]]] = [set() for _ in range(n)]
    for u, v in sorted(g.arcs):
        shared = set(member[u]) & set(member[v])
        for i in sorted(shared):
            known[u].add((i, u, v))
            known[v].add((i, u, v))
    sent: dict[tuple[int, int], set] = {
        (v, w): set() for v in range(n) for w in net.neighbors[v]
    }
    while True:
        sends = {}
        for v in range(n):
            for w in net.neighbors[v]:
                ready = sorted(
                    fact
                    for fact in known[v]
                    if fact[0] in nbr_member[v][w]
                    and fact[0] in member[v]
                    and fact not in sent[(v, w)]
                )
                if ready:
                    sends.setdefault(v, {})[w] = ready[0]
                    sent[(v, w)].add(ready[0])
        if not sends:
            break
        inbox = sim.exchange(sends, "gossip")
        for v in inbox:
            for msg in inbox[v].values():
                known[v].add(tuple(msg))

    # local pruning of every learned component, marking incident survivors
    marks: list[set[tuple[int, int]]] = [set() for _ in range(n)]
    for v in range(n):
        for i in member[v]:
            arcs_i = sorted((a, b) for (j, a, b) in known[v] if j == i)
            nodes = sorted({v} | {a for a, _ in arcs_i} | {b for _, b in arcs_i})
            index = {node: pos for pos, node in enumerate(nodes)}
            local = Digraph(len(nodes), ((index[a], index[b]) for a, b in arcs_i))
            pruned = tc_preserving_prune(local)
            for a, b in pruned.arcs:
                ga, gb = nodes[a], nodes[b]
                if v in (ga, gb):
                    marks[v].add((ga, gb))
    return marks, sim.trace()
