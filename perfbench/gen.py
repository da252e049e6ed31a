"""Seeded input generators for the benchmark.

Everything here is the benchmark's own code and imports nothing from
``streamcert``: inputs reach the program only as text in the README formats
(graphs: ``n m`` then ``u v`` lines; streams: ``n model`` then ``+ u v`` /
``- u v`` lines).  The same seed always yields the same inputs.
"""

from __future__ import annotations

import random

Arc = tuple[int, int]


def rng_for(seed: int, tag: str) -> random.Random:
    """Independent generator per (workload seed, case tag)."""
    return random.Random(f"{seed}:{tag}")


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def alpha_tournament(n: int, alpha: int) -> set[Arc]:
    """Arcs of ``alpha_family(n, alpha)``: ``n/alpha`` independent blocks of
    ``alpha`` nodes, every arc pointing from a lower block to a higher one."""
    if alpha < 1 or n % alpha:
        raise ValueError(f"alpha={alpha} must be >= 1 and divide n={n}")
    return {(u, v) for u in range(n) for v in range((u // alpha + 1) * alpha, n)}


def relabel_reverse(n: int, arcs: set[Arc]) -> set[Arc]:
    """The same graph under v -> n-1-v."""
    return {(n - 1 - u, n - 1 - v) for u, v in arcs}


def random_digraph(rng: random.Random, n: int, m: int) -> set[Arc]:
    """Exactly ``m`` distinct arcs drawn uniformly, no self-loops."""
    if not 0 <= m <= n * (n - 1):
        raise ValueError(f"cannot place {m} arcs on {n} nodes")
    arcs: set[Arc] = set()
    while len(arcs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return arcs


def strong_digraph(rng: random.Random, n: int, chords: int) -> set[Arc]:
    """A random Hamiltonian cycle plus exactly ``chords`` random extra arcs."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    if len(arcs) + chords > n * (n - 1):
        raise ValueError(f"cannot place {chords} chords on {n} nodes")
    target = len(arcs) + chords
    while len(arcs) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return arcs


def circulant(n: int, k: int) -> set[Arc]:
    """Arcs (v, v+1), ..., (v, v+k) mod n: k-arc-strong."""
    return {(v, (v + s) % n) for v in range(n) for s in range(1, k + 1)}


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

Update = tuple[int, int, int]


def insertion_stream(rng: random.Random, arcs: set[Arc]) -> list[Update]:
    """Every arc inserted once, in a seeded order."""
    order = sorted(arcs)
    rng.shuffle(order)
    return [(1, u, v) for u, v in order]


def churn_stream(
    rng: random.Random, n: int, arcs: set[Arc], churn: float = 0.3, decoys: float = 0.5
) -> list[Update]:
    """Turnstile stream whose final graph is exactly ``arcs``.

    A ``churn`` share of the real arcs is inserted, deleted and inserted again;
    ``decoys * len(arcs)`` absent arcs are inserted and later deleted.  Each
    arc's events keep their order while all arcs interleave uniformly: one
    slot per event is shuffled and the j-th slot of an arc takes its j-th
    event.  Linear in the number of updates.
    """
    real = sorted(arcs)
    events: dict[Arc, tuple[int, ...]] = {a: (1,) for a in real}
    for a in rng.sample(real, int(churn * len(real))):
        events[a] = (1, -1, 1)
    want = min(int(decoys * len(real)), n * (n - 1) - len(real))
    added = 0
    while added < want:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in events:
            events[(u, v)] = (1, -1)
            added += 1
    slots = [a for a, ev in events.items() for _ in ev]
    rng.shuffle(slots)
    seen: dict[Arc, int] = {}
    out = []
    for a in slots:
        j = seen.get(a, 0)
        seen[a] = j + 1
        out.append((events[a][j], a[0], a[1]))
    end = replay(out)
    if end != arcs:
        raise AssertionError("churn stream does not end on its target graph")
    return out


def replay(updates: list[Update]) -> set[Arc]:
    """End state of a turnstile sequence; raises on a double insert or a
    deletion of an absent arc."""
    present: set[Arc] = set()
    for sign, u, v in updates:
        if sign > 0:
            if (u, v) in present:
                raise AssertionError(f"arc ({u},{v}) inserted twice")
            present.add((u, v))
        else:
            if (u, v) not in present:
                raise AssertionError(f"deletion of absent arc ({u},{v})")
            present.remove((u, v))
    return present


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def graph_text(n: int, arcs: set[Arc]) -> str:
    lines = [f"{n} {len(arcs)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(arcs))
    return "\n".join(lines) + "\n"


def stream_text(n: int, model: str, updates: list[Update]) -> str:
    lines = [f"{n} {model}"]
    lines.extend(f"{'+' if s > 0 else '-'} {u} {v}" for s, u, v in updates)
    return "\n".join(lines) + "\n"
