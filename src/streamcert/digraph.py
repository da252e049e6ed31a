"""Core digraph type and the offline graph utilities shared by every other module.

Nodes are dense integers ``0..n-1``.  Graphs are simple: no self-loops, no
duplicate arcs; the antiparallel pair ``(u, v)`` and ``(v, u)`` may coexist.
All operations here are pure functions over immutable values (a graph builds
its neighbour tuples once, on first use) and are safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Callable, Iterable, Iterator, Sequence


class GraphFormatError(ValueError):
    """Raised when graph text input is malformed (bad counts, self-loop, duplicate)."""


# Most nodes a graph, stream or 2-SAT text may declare: closures hold n**2 bits and
# runs build per-node tables before reading an arc, so a header alone could ask for gigabytes.
MAX_NODES = 1 << 16


def require_ascii_decimal(text: str) -> None:
    """Node ids are ASCII decimal, but ``int`` also reads ``1_0`` as 10 and
    non-ASCII digits: reject both in one check of the whole text."""
    if not text.isascii() or "_" in text:
        raise ValueError("node ids must be ASCII decimal: text holds '_' or a non-ASCII character")


class _IdTokens(dict):
    """Node-id token -> its int, converted on first read, so all reads of a node share one int."""

    def __missing__(self, token: str) -> int:
        if not token.isdigit():  # int() also reads signs
            raise ValueError(f"node ids must be ASCII decimal, got {token!r}")
        self[token] = value = int(token)
        return value


def read_header(text: str, kind: str, form: str,
                second: Callable[[str], bool] | None = None) -> tuple[int, str, Iterator[str], _IdTokens]:
    """The header rules graph and stream text share: the first non-blank line holds two
    tokens, as ``form`` names them (``second``, if given, must accept the second), the
    first an ASCII decimal node count n <= ``MAX_NODES``.  Returns n, the second token,
    the lines after the header and an empty id memo; a fault raises ``ValueError``."""
    require_ascii_decimal(text)
    lines = iter(text.splitlines())
    header = next(filter(None, map(str.strip, lines)), None)  # leaves ``lines`` past it
    if header is None:
        raise ValueError(f"empty {kind} text")
    head = header.split()
    if len(head) != 2 or second and not second(head[1]):
        raise ValueError(f"bad header {header!r}, expected {form!r}")
    if not head[0].isdigit():  # int() also reads signed counts
        raise ValueError(f"node count must be ASCII decimal, got {head[0]!r}")
    if (n := int(head[0])) > MAX_NODES:
        raise ValueError(f"node count {n} above the ceiling of {MAX_NODES}")
    return n, head[1], lines, _IdTokens()


def _neighbor_lists(n: int, arcs: Iterable[tuple[int, int]]) -> tuple[list, list]:
    """Ascending out- and in-neighbour lists of nodes ``0..n-1`` with arcs ``arcs``.
    Rows are sorted one by one: far cheaper than sorting the arcs."""
    out: list[list[int]] = [[] for _ in range(n)]
    inn: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        out[u].append(v)
    for u, row in enumerate(out):
        row.sort()
        for v in row:
            inn[v].append(u)
    return out, inn


class Digraph:
    """Immutable simple digraph on nodes ``0..n-1`` with an explicit arc set."""

    __slots__ = ("n", "arcs", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"node count must be nonnegative, got {n}")
        # fresh tuples even from int ones: laid out in order, later walks over them run faster
        arc_set = frozenset((index(u), index(v)) for u, v in arcs)
        for u, v in arc_set:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for n={n}")
        self.n = n
        self.arcs = arc_set
        self._out = self._in = None  # neighbour tuples, built on first use

    # -- basic views ---------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.arcs)

    def _build_neighbors(self) -> None:
        out, inn = _neighbor_lists(self.n, self.arcs)
        self._out, self._in = tuple(map(tuple, out)), tuple(map(tuple, inn))

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        if self._out is None:
            self._build_neighbors()
        return self._out[u]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        if self._in is None:
            self._build_neighbors()
        return self._in[v]

    def out_masks(self) -> list[int]:
        """Adjacency rows as bitmasks (bit v set in row u iff arc (u,v))."""
        rows = [0] * self.n
        for u, v in self.arcs:
            rows[u] |= 1 << v
        return rows

    def reversed(self) -> "Digraph":
        return Digraph(self.n, ((v, u) for u, v in self.arcs))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"

    # -- text format ---------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, **fields) -> "Digraph":
        """Parse the ``"n m"`` header (see :func:`read_header`) and m ``"u v"`` lines into
        ``cls(n, arcs, **fields)``.  A wrong arc count is reported before any line fault;
        duplicates, self-loops and ids out of range are errors, the last two the constructor's."""
        try:
            n, m, rest, ids = read_header(text, "graph", "n m", str.isdigit)
            # A list, not a lazy walk: walking the lines lazily raised one-ins verify_s from about
            # 0.0233 to 0.0257-0.0265 s (4 of 4 alternating runs; 7 of 7 with int() per token, so
            # not from shared ids): later walks over the arcs follow their memory layout.
            lines = [ln for ln in map(str.strip, rest) if ln]
            if len(lines) != int(m):
                raise ValueError(f"declared {int(m)} arcs but found {len(lines)} arc lines")
            seen: set[tuple[int, int]] = set()
            for ln in lines:
                try:
                    u, v = ln.split()
                except ValueError:
                    raise ValueError(f"bad arc line {ln!r}") from None
                arc = ids[u], ids[v]
                if arc in seen:
                    raise ValueError(f"duplicate arc line {ln!r}")
                seen.add(arc)
            return cls(n, seen, **fields)
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from exc

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.arcs))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ChainCover:
    """A partition of the node set into chains.

    Each chain is a node sequence whose consecutive elements are connected by
    reachability in the reference graph.
    """

    chains: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.chains)


@dataclass(frozen=True)
class Branching:
    """A spanning branching: ``out`` grows away from the root, ``in`` grows toward it."""

    root: int
    arcs: frozenset[tuple[int, int]]
    kind: str  # "out" | "in"


# ---------------------------------------------------------------------------
# reachability and closure
# ---------------------------------------------------------------------------


def _closure(out_rows: list[int], comps: Sequence[Sequence[int]]) -> list[int]:
    """Transitive closure of bitmask adjacency rows by one sweep over their SCCs ``comps``,
    sinks first (Purdom, BIT 1970): a component reaches its out-arcs' targets, what they
    reach, and itself if nontrivial; a target already reached adds nothing."""
    reach = [0] * len(out_rows)
    for comp in comps:
        acc = sum(1 << v for v in comp) if len(comp) > 1 else 0
        for v in comp:
            rest = out_rows[v] & ~acc
            while rest:
                low = rest & -rest
                acc |= reach[low.bit_length() - 1] | low
                rest &= ~acc
        for v in comp:
            reach[v] = acc
    return reach


def reachability_masks(g: Digraph, comps: Sequence[Sequence[int]] | None = None) -> list[int]:
    """Bitmask rows of the transitive closure of ``g`` (self bit not set unless on a cycle).
    ``comps`` passes in ``scc_tarjan(g)`` when the caller already holds it."""
    return _closure(g.out_masks(), scc_tarjan(g) if comps is None else comps)


def transitive_closure(g: Digraph) -> Digraph:
    reach = reachability_masks(g)
    arcs = []
    for u in range(g.n):
        row = reach[u] & ~(1 << u)
        while row:
            low = row & -row
            arcs.append((u, low.bit_length() - 1))
            row ^= low
    return Digraph(g.n, arcs)


# ---------------------------------------------------------------------------
# strongly connected components
# ---------------------------------------------------------------------------


def scc_tarjan(g: Digraph) -> Sequence[Sequence[int]]:
    """Strongly connected components, emitted in reverse topological order
    of the condensation (a component is emitted only after everything it can
    reach).  A wrapper over :func:`_tarjan`, the one implementation."""
    return _tarjan(g.n, g.out_neighbors)


def _tarjan(n: int, out: Callable[[int], Sequence[int]]) -> list[list[int]]:
    """:func:`scc_tarjan` of the graph on ``0..n-1`` with ascending out-neighbours ``out(v)``,
    each component as the list of nodes popped off the stack for it."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    # Iterative Tarjan so large certify/bench instances cannot hit the
    # interpreter recursion limit: each frame holds its node and an iterator
    # over the out-neighbours it has not yet tried.
    for root in range(n):
        if index_of[root] != -1:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(out(root)))]
        while work:
            v, nbrs = work[-1]
            for w in nbrs:
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(out(w))))
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
            else:
                work.pop()
                if low[v] == index_of[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return comps


def scc_ids(g: Digraph, comps: Sequence[Sequence[int]] | None = None) -> list[int]:
    """Component id per node; ids follow the reverse topological emission order.

    ``comps`` passes in ``scc_tarjan(g)`` when the caller already holds it.
    """
    ids = [-1] * g.n
    for i, comp in enumerate(scc_tarjan(g) if comps is None else comps):
        for v in comp:
            ids[v] = i
    return ids


# ---------------------------------------------------------------------------
# minimum chain cover
# ---------------------------------------------------------------------------


def chain_cover_minimum(g: Digraph, comps: Sequence[Sequence[int]] | None = None) -> ChainCover:
    """A minimum chain cover, chains sorted: a wrapper over :func:`_chain_cover`, the
    one implementation, whose numbering the prune kernel ``certify_one._prune`` also
    selects its arcs in.  ``comps`` passes in ``scc_tarjan(g)`` when the caller
    already holds it."""
    order, _, _, chains = _chain_cover(g.n, g.out_neighbors, scc_tarjan(g) if comps is None else comps)
    return ChainCover(tuple(sorted(tuple(order[i] for i in chain) for chain in chains)))


def _chain_cover(n: int, out: Callable[[int], Sequence[int]], comps: Sequence[Sequence[int]]) -> tuple:
    """Minimum chain cover (Dilworth route: path cover by bipartite matching) of the
    graph with out-neighbours ``out(v)`` and Tarjan components ``comps``, as
    ``(order, spans, out_rows, chains)`` in one numbering: components in topological
    order, a component's nodes by ascending id.  Node ``order[i]`` has number i, the
    numbers ``spans[c]`` hold ``comps[c]``, and ``out_rows[i]`` holds the numbers of
    its out-neighbours.  A chain-order successor gets a later number, so the cover is
    a minimum path cover of the closure restricted to later numbers (Fulkerson's
    reduction) and each chain is a rising list of numbers.  One loop over ``comps``
    builds the numbering and the spans, then one :func:`_closure` sweep.  The matching
    starts greedy: in number order, s's closure row is cut to its later numbers and s
    takes the lowest still free one, ``row & free``.  Each number left unmatched with a
    nonempty row then gets one depth-first augmenting search (Kuhn's method) that
    tries a free candidate first and skips ``dead``, the numbers earlier failed
    searches visited: each is matched to a number whose whole row is dead, so no
    augmenting path enters them.  By Berge's theorem a free number with no augmenting
    path never gets one later, so one search per free number turns any starting
    matching into a maximum one, and the cover is minimum."""
    order: list[int] = []
    spans = []
    for comp in reversed(comps):  # comps come sinks first: number from the sources
        start = len(order)
        order += sorted(comp)
        spans.append(range(start, len(order)))
    spans.reverse()
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    out_rows = []
    for v in order:
        row = 0
        for w in out(v):
            row |= 1 << pos[w]
        out_rows.append(row)
    rows = _closure(out_rows, spans)

    succ = [-1] * n  # number -> the later number it is matched to
    pred = [-1] * n
    free = (1 << n) - 1  # numbers no earlier number is matched to
    for s in range(n):
        row = rows[s] = rows[s] >> (s + 1) << (s + 1)  # cut to s's later numbers
        take = row & free
        if take:
            low = take & -take
            free ^= low
            v = low.bit_length() - 1
            pred[v], succ[s] = s, v
    dead = 0  # numbers a failed search visited: no augmenting path passes them
    for s in range(n):
        if succ[s] != -1 or not rows[s]:
            continue
        seen = dead
        stack = [(s, rows[s])]  # (left number, later numbers not yet tried)
        while stack:
            u, cand = stack.pop()
            cand &= ~seen
            if not cand:
                continue
            hit = cand & free
            low = hit & -hit if hit else cand & -cand
            seen |= low
            stack.append((u, cand ^ low))
            v = low.bit_length() - 1
            if pred[v] == -1:
                free ^= low
                # flip the path: each left on the stack takes the right it was trying
                for u, _ in reversed(stack):
                    pred[v] = u
                    succ[u], v = v, succ[u]
                break
            stack.append((pred[v], rows[pred[v]]))
        else:
            dead = seen

    chains = []
    for head in range(n):
        if pred[head] == -1:
            chain = [head]
            while succ[chain[-1]] != -1:
                chain.append(succ[chain[-1]])
            chains.append(chain)
    return order, spans, out_rows, chains


# ---------------------------------------------------------------------------
# branchings
# ---------------------------------------------------------------------------


def _scc_branching_arcs(
    n: int, out: Callable, inn: Callable, comps: Sequence[Sequence[int]]
) -> set[tuple[int, int]]:
    """One in- plus one out-branching per nontrivial SCC, rooted at its least id.  Only nodes of
    nontrivial components get an id, -1 elsewhere.  One BFS per direction over the ascending
    ``out(u)`` or ``inn(u)`` starts at every root at once and follows only arcs inside a
    component: each tree is the lowest-id-first BFS tree of its component."""
    comp_id = [-1] * n
    roots: list[int] = []
    for comp in comps:
        if len(comp) > 1:
            for v in comp:
                comp_id[v] = len(roots)
            roots.append(min(comp))
    arcs: set[tuple[int, int]] = set()
    for step, forward in ((out, True), (inn, False)):
        seen = set(roots)
        queue = list(roots)
        for u in queue:  # the list grows while it is walked: FIFO order
            for v in step(u):
                if v not in seen and comp_id[v] == comp_id[u]:
                    seen.add(v)
                    queue.append(v)
                    arcs.add((u, v) if forward else (v, u))
    return arcs
