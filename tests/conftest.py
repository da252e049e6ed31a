from __future__ import annotations

import random

from hypothesis import HealthCheck, settings

from streamcert import INSERTION_ONLY, TURNSTILE, ArcStream, Digraph

settings.register_profile(
    "suite", deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

DENSITIES = (0.08, 0.2, 0.4, 0.8)


def random_digraph(rng: random.Random, n_lo: int = 2, n_hi: int = 14, density: float | None = None) -> Digraph:
    n = rng.randint(n_lo, n_hi)
    d = density if density is not None else rng.choice(DENSITIES)
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < d]
    return Digraph(n, arcs)


def random_multi_scc_digraph(rng: random.Random, n_lo: int = 8, n_hi: int = 30) -> Digraph:
    """Sparse random arcs plus three planted cycles on disjoint node sets: several
    nontrivial components joined by cross arcs."""
    n = rng.randint(n_lo, n_hi)
    arcs = set(random_digraph(rng, n, n, density=0.04).arcs)
    order = rng.sample(range(n), n)
    for i in range(3):
        ring = order[i * (n // 3):][: rng.randint(2, n // 3)]
        arcs.update(zip(ring, ring[1:] + ring[:1]))
    return Digraph(n, arcs)


def relabelled(g: Digraph, rng: random.Random) -> list[Digraph]:
    """``g``, its copy under v -> n-1-v, and its copy under a random permutation."""
    n = g.n
    perm = rng.sample(range(n), n)
    return [g, Digraph(n, ((n - 1 - u, n - 1 - v) for u, v in g.arcs)),
            Digraph(n, ((perm[u], perm[v]) for u, v in g.arcs))]


def random_strong_digraph(rng: random.Random, n_lo: int = 3, n_hi: int = 10, extra: float = 0.25) -> Digraph:
    """A Hamiltonian cycle plus random chords: strongly connected by construction."""
    n = rng.randint(n_lo, n_hi)
    order = list(range(n))
    rng.shuffle(order)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < extra:
                arcs.add((u, v))
    return Digraph(n, arcs)


def turnstile_stream(g: Digraph, seed: int, churn: int | None = None) -> ArcStream:
    """Turnstile stream ending at exactly ``g``.

    Mixes in decoy arcs that get inserted and later deleted, and re-inserts a
    few real arcs after deleting them, so the final state differs from the
    update multiset.
    """
    rng = random.Random(seed)
    histories: list[list[tuple[int, int, int]]] = []
    for u, v in sorted(g.arcs):
        if rng.random() < 0.3:
            histories.append([(1, u, v), (-1, u, v), (1, u, v)])
        else:
            histories.append([(1, u, v)])
    absent = [
        (u, v)
        for u in range(g.n)
        for v in range(g.n)
        if u != v and (u, v) not in g.arcs
    ]
    rng.shuffle(absent)
    for u, v in absent[: churn if churn is not None else max(2, g.m // 2)]:
        histories.append([(1, u, v), (-1, u, v)])
    updates: list[tuple[int, int, int]] = []
    cursors = [0] * len(histories)
    live = [i for i, h in enumerate(histories) if h]
    while live:
        i = rng.choice(live)
        updates.append(histories[i][cursors[i]])
        cursors[i] += 1
        if cursors[i] == len(histories[i]):
            live.remove(i)
    return ArcStream(g.n, updates, TURNSTILE)


def gadget_bits(xv, yv, m: int) -> list[int]:
    """Two strings of m^2 bits per gadget as ``hardgen.gadget_tournament`` and
    ``gen --bits`` read them: per gadget, x's m^2 bits and then y's."""
    b = m * m
    return [bit for at in range(0, len(xv), b) for bit in (*xv[at:at + b], *yv[at:at + b])]


def stream_of(g: Digraph, model: str, seed: int) -> ArcStream:
    if model == INSERTION_ONLY:
        return ArcStream.from_graph(g, INSERTION_ONLY, seed=seed)
    if model == TURNSTILE:
        return turnstile_stream(g, seed)
    raise ValueError(f"unknown stream model {model!r}")
