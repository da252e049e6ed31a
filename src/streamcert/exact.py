"""The library's exact validators: local connectivities and certificate checks.

Everything here favours exactness over scale.  Connectivities come from
unit-capacity max-flow with depth-first augmentation.  Each digraph's network
is built once and kept in a small cache.  One search tree per source and
left-out arc gives each target t its first augmenting path (none if t is
outside it), so a query answers 0, or 1 at limit 1, without copying the
capacities; it copies them only to augment past that path.  The node version
splits node v into an in/out pair joined by a unit arc and runs from s's
out-node to t's in-node, so a direct (s,t) arc is one more path.  Each
augmentation carries one unit, because every augmenting path leaves the source
through an arc of the graph, which holds at most one.  A certificate is checked
by one capped query per arc it leaves out, on the certificate, at any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .certify_one import Certificate
from .digraph import Digraph, reachability_masks


class FlowNet:
    """Unit-capacity network of ``arcs`` on nodes ``0..n-1``: arc i is entry 2i
    of ``to`` and ``cap``, its residual twin entry 2i+1.  Split mode stores node
    v's arc 2v -> 2v+1 first, as arc v, and maps arc (u, v) to 2u+1 -> 2v.
    :meth:`drop` changes the network in place: it is for a network the caller
    owns, never for a ``_network`` cache entry."""

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]], split: bool):
        self.n, self.split = n, split
        ends = [(2 * v, 2 * v + 1) for v in range(n)] if split else []
        ends += [(2 * u + 1, 2 * v) if split else (u, v) for u, v in arcs]
        self.incident: list[list[int]] = [[] for _ in range(2 * n if split else n)]
        self.to: list[int] = []
        for u, v in ends:
            self.incident[u].append(len(self.to))
            self.to.append(v)
            self.incident[v].append(len(self.to))
            self.to.append(u)
        self.cap = [1, 0] * len(ends)
        # the memo: one search tree, keyed on (source, left-out arc), over base
        self.key, self.base, self.tree = None, self.cap, []

    def _entries(self, u: int, v: int) -> list[int]:
        """Entries of arc (u, v) of the digraph that still hold capacity."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return []
        tail, head = (2 * u + 1, 2 * v) if self.split else (u, v)
        cap, to = self.cap, self.to
        return [ei for ei in self.incident[tail] if not ei & 1 and to[ei] == head and cap[ei]]

    def drop(self, u: int, v: int) -> None:
        """Remove arc (u, v) of the digraph from this network for good."""
        entries = self._entries(u, v)
        if not entries:
            raise ValueError(f"the network holds no arc ({u}, {v})")
        self.cap[entries[0]], self.key = 0, None

    def _search(self, cap: list[int], src: int, dst: int) -> list[int]:
        """Entry into each node reached from ``src`` over positive ``cap``, depth first
        (-1 unreached, -2 at ``src``); it stops on reaching ``dst``."""
        incident, to = self.incident, self.to
        parent = [-1] * len(incident)
        parent[src] = -2
        stack = [src]
        while stack:
            for ei in incident[stack.pop()]:
                if cap[ei]:
                    w = to[ei]
                    if parent[w] == -1:
                        parent[w] = ei
                        if w == dst:
                            return parent
                        stack.append(w)
        return parent

    def max_flow(self, s: int, t: int, limit: int | None = None,
                 without: tuple[int, int] | None = None) -> int:
        """Number of unit augmentations from s to t, stopping at ``limit``;
        ``without`` leaves one arc (u, v) of the digraph out of this query."""
        if s == t or not (0 <= s < self.n and 0 <= t < self.n):
            raise ValueError(f"max_flow needs two distinct nodes of 0..{self.n - 1}, got ({s}, {t})")
        src, dst = (2 * s + 1, 2 * t) if self.split else (s, t)
        if self.key != (src, without):
            base = self.cap
            if without is not None:
                base = base.copy()
                for ei in self._entries(*without):
                    base[ei] = 0
            self.key, self.base, self.tree = (src, without), base, self._search(base, src, -1)
        cap, path, to, flow = self.base, self.tree, self.to, 0
        while (limit is None or flow < limit) and path[dst] != -1:
            flow += 1
            if flow == limit:
                break
            if cap is self.base:
                cap = cap.copy()
            v = dst
            while v != src:
                ei = path[v]
                cap[ei] -= 1
                cap[ei ^ 1] += 1
                v = to[ei ^ 1]
            path = self._search(cap, src, dst)
        return flow


@lru_cache(maxsize=4)
def _network(g: Digraph, split: bool) -> FlowNet:
    """The flow network of ``g``; four entries hold two graphs of both kinds."""
    return FlowNet(g.n, g.arcs, split)


def lambda_st(g: Digraph, s: int, t: int, limit: int | None = None) -> int:
    """Maximum number of pairwise arc-disjoint s->t paths."""
    return _network(g, False).max_flow(s, t, limit)


def kappa_st(g: Digraph, s: int, t: int, limit: int | None = None) -> int:
    """Maximum number of internally node-disjoint s->t paths.

    Node splitting: node v becomes (2v -> 2v+1) with unit capacity for
    v not in {s, t}; arc (u, v) becomes (2u+1 -> 2v) with unit capacity.
    The direct arc (s, t), if present, is simply one more unit path.
    """
    return _network(g, True).max_flow(s, t, limit)


# ---------------------------------------------------------------------------
# certificate validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertValidationReport:
    contained: bool
    # arcs (u, v) of G \ H with min{k, conn_G(u, v)} > conn_H(u, v): (u, v, required, got)
    violations: tuple[tuple[int, int, int, int], ...]

    @property
    def ok(self) -> bool:
        return self.contained and not self.violations


def validate_certificate(g: Digraph, cert: Certificate) -> CertValidationReport:
    r"""Check min{k, conn_G(s, t)} <= conn_H(s, t) for every pair, H the certificate,
    by the local arc test: H within G is a k-certificate iff every arc (u, v)
    of G \ H has conn_H(u, v) >= k, for both kinds and at any n.

    Necessity: H lies in G - (u, v), and the arc (u, v) is one more path in
    G, so conn_G(u, v) > conn_H(u, v) and the pair (u, v) needs k.
    Sufficiency, arc kind: a minimum s-t cut S of H with |d_H(S)| < min{k,
    lambda_G(s, t)} <= |d_G(S)| is crossed by an arc (u, v) of G \ H, so
    lambda_H(u, v) <= |d_H(S)| < k.  Node kind, with kappa_H(s, t) < min{k,
    kappa_G(s, t)}: (s, t) is not in G \ H, so a minimum s-t separator X of
    H - (s, t) is smaller than any of G - (s, t), and G - X - (s, t) keeps an
    s-t path P.  Let R be the set s reaches in H - X - (s, t); the first arc
    (u, v) of P that leaves R lies in G \ H.  Paths from u in H - X leave R
    only by the arc (s, t), so X separates u from v if (s, t) is not in H,
    X + {s} does if it is and u != s, and X + {t} does if u = s (then v != t).
    Each has kappa_H(s, t) < k nodes, and none holds u or v.

    At k = 1 conn_H is H's closure bit, and only the arcs it loses get sorted.
    Sorted order lets consecutive flow queries share a first-path tree.
    """
    if cert.n != g.n:
        raise ValueError(f"certificate is over {cert.n} nodes, graph has {g.n}")
    k, conn = cert.k, kappa_st if cert.kind == "node" else lambda_st
    missing = g.arcs - cert.arcs
    if k == 1:
        reach_h = reachability_masks(cert)
        missing = [(u, v) for u, v in missing if not (reach_h[u] >> v) & 1]
    violations = []
    for u, v in sorted(missing):
        got = 0 if k == 1 else conn(cert, u, v, limit=k)
        if got < k and (have := 1 if k == 1 else conn(g, u, v, limit=k)) > got:
            violations.append((u, v, have, got))
    return CertValidationReport(cert.arcs <= g.arcs, tuple(violations))

