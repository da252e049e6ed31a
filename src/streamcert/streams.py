"""Simulated multi-pass arc streams with exact pass and working-space accounting.

The engine is deliberately strict about bookkeeping: algorithms register
charge accounts with a :class:`SpaceLedger` and every word they hold (one word
= one arc, one node id, or one counter of O(log n) bits) is charged while it
is resident.  `peak_words` of a run is the high-water mark of the summed
accounts.  Output written to a sink is not working space and is never charged.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Protocol, Sequence

from .digraph import MAX_NODES, Digraph, require_ascii_decimal

INSERTION_ONLY = "ins"
TURNSTILE = "turn"


class StreamFormatError(ValueError):
    """Malformed stream text (bad header, bad update line)."""


class StreamIntegrityError(ValueError):
    """Update sequence violates the stream-model invariants."""


class SpaceBudgetError(RuntimeError):
    """The ledger exceeded its declared space budget."""

    def __init__(self, words: int, budget: int):
        self.words = words
        self.budget = budget
        super().__init__(f"space ledger holds {words} words, budget {budget}")


@dataclass(frozen=True)
class StreamStats:
    """Passes consumed and peak resident words for one algorithm run."""

    passes: int
    peak_words: int


# ---------------------------------------------------------------------------
# space accounting
# ---------------------------------------------------------------------------


class SpaceAccount:
    """Words one part of an algorithm holds, as one count ``held``.

    :meth:`charge` is the one path that raises the ledger's peak or checks its
    budget; releasing and dropping only lower the ledger's current total.
    """

    __slots__ = ("_ledger", "name", "held")

    def __init__(self, ledger: "SpaceLedger", name: str):
        self._ledger = ledger
        self.name = name
        self.held = 0

    def charge(self, words: int = 1) -> None:
        if words < 0:
            raise ValueError("charge must be nonnegative")
        self.held += words
        ledger = self._ledger
        ledger.current += words
        if ledger.current > ledger.peak:
            ledger.peak = ledger.current
        if ledger.budget is not None and ledger.current > ledger.budget:
            raise SpaceBudgetError(ledger.current, ledger.budget)

    def release(self, words: int = 1) -> None:
        if not 0 <= words <= self.held:
            raise ValueError(f"account {self.name!r} cannot release {words} of {self.held} held")
        self.held -= words
        self._ledger.current -= words

    def set_held(self, words: int) -> None:
        """Adjust held words to an absolute value (convenience for rebuilds)."""
        delta = words - self.held
        if delta >= 0:
            self.charge(delta)
        else:
            self.release(-delta)

    def drop(self) -> None:
        """Release everything; a second drop releases nothing."""
        self.release(self.held)


class SpaceLedger:
    """Tracks current and peak total words over all open accounts.  With a
    ``budget``, the charge that takes the total past it raises
    :class:`SpaceBudgetError`."""

    def __init__(self, budget: int | None = None):
        if budget is not None and budget < 0:
            raise ValueError(f"space budget must be >= 0, got {budget}")
        self.current = 0
        self.peak = 0
        self.budget = budget

    def open(self, name: str) -> SpaceAccount:
        return SpaceAccount(self, name)


# ---------------------------------------------------------------------------
# the stream itself
# ---------------------------------------------------------------------------


class _IdTokens(dict):
    """Node-id token -> its int, converted the first time the token is read."""

    def __missing__(self, token: str) -> int:
        if not token.isdigit():  # int() also reads signs
            raise StreamFormatError(f"node ids must be ASCII decimal, got {token!r}")
        self[token] = value = int(token)
        return value


class ArcStream:
    """Signed arc updates over nodes 0..n-1, in order; every arc stays at multiplicity 0 or 1."""

    __slots__ = ("n", "updates", "model")

    def __init__(self, n: int, updates: Iterable[tuple[int, int, int]], model: str):
        if model not in (INSERTION_ONLY, TURNSTILE):
            raise ValueError(f"model must be 'ins' or 'turn', got {model!r}")
        if n < 0:
            raise StreamIntegrityError(f"node count must be nonnegative, got {n}")
        ups = []
        present: set[tuple[int, int, int]] = set()  # arcs at multiplicity 1, as (1, u, v)
        for up in updates:
            sign, u, v = up
            if type(u) is not int or type(v) is not int:  # so a float id raises, not truncates
                up = sign, u, v = sign, operator.index(u), operator.index(v)
            if sign not in (1, -1):
                raise ValueError(f"sign must be +-1, got {sign!r}")
            if u == v:
                raise StreamIntegrityError(f"self-loop update ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise StreamIntegrityError(f"update ({u},{v}) out of range for n={n}")
            if sign < 0 and model == INSERTION_ONLY:
                raise StreamIntegrityError("deletion in insertion-only stream")
            key = up if sign > 0 else (1, u, v)  # an insert keys by the tuple ``ups`` keeps
            if sign > 0 and key not in present:
                present.add(key)
            elif sign < 0 and key in present:
                present.remove(key)
            else:
                what = "insertion of present" if sign > 0 else "deletion of absent"
                raise StreamIntegrityError(f"update {len(ups) + 1}: {what} arc ({u},{v})")
            ups.append(up)
        self.n = n
        self.updates = tuple(ups)
        self.model = model

    def __len__(self) -> int:
        return len(self.updates)

    def __repr__(self) -> str:
        return f"ArcStream(n={self.n}, updates={len(self.updates)}, model={self.model!r})"

    @classmethod
    def from_graph(cls, g: Digraph, model: str = INSERTION_ONLY, seed: int | None = None) -> "ArcStream":
        """Insert all arcs of ``g``, sorted, or shuffled when a seed is given."""
        arcs = sorted(g.arcs)
        if seed is not None:
            random.Random(seed).shuffle(arcs)
        return cls(g.n, [(1, u, v) for u, v in arcs], model)

    @classmethod
    def from_text(cls, text: str) -> "ArcStream":
        """Parse ``"n model"``, then one ``"+ u v"`` or ``"- u v"`` line per update, lazily: blank
        lines are skipped, the first fault raises, and each id token is converted once, to one int."""
        require_ascii_decimal(text, StreamFormatError)
        lines = iter(text.splitlines())
        header = next(filter(None, map(str.strip, lines)), None)  # leaves ``lines`` past it
        if header is None:
            raise StreamFormatError("empty stream text")
        head = header.split()
        if len(head) != 2:
            raise StreamFormatError(f"bad header {header!r}, expected 'n model'")
        if not head[0].isdigit():  # int() also reads signed counts
            raise StreamFormatError(f"node count must be ASCII decimal, got {head[0]!r}")
        n = int(head[0])
        if n > MAX_NODES:
            raise StreamFormatError(f"node count {n} above the ceiling of {MAX_NODES}")
        model = head[1]
        if model not in (INSERTION_ONLY, TURNSTILE):
            raise StreamFormatError(f"unknown model {model!r}")

        ids, signs = _IdTokens(), {"+": 1, "-": -1}

        def updates():  # lazily, so no line's tokens outlive its update
            for ln in lines:
                parts = ln.split()
                try:  # three tokens, the first a sign
                    sign, u, v = parts
                    sign = signs[sign]
                except (ValueError, KeyError):
                    if not parts:
                        continue
                    raise StreamFormatError(f"bad update line {ln.strip()!r}") from None
                yield sign, ids[u], ids[v]

        try:
            return cls(n, updates(), model)
        except ValueError as exc:  # a broken stream
            raise StreamFormatError(str(exc)) from exc

    def to_text(self) -> str:
        ups = (f"{'+' if sign > 0 else '-'} {u} {v}\n" for sign, u, v in self.updates)
        return f"{self.n} {self.model}\n" + "".join(ups)


# ---------------------------------------------------------------------------
# pass scheduler
# ---------------------------------------------------------------------------


class PassConsumer(Protocol):
    """Receives each pass through the feed that ``begin_pass`` returns for it;
    ``feed(updates)`` loops over the updates it is handed, in order."""

    def begin_pass(self, pass_index: int) -> Callable[[Sequence[tuple[int, int, int]]], None]: ...

    def end_pass(self, pass_index: int) -> None: ...


def run_passes(stream: ArcStream, consumers: Sequence[PassConsumer], passes: int) -> None:
    """Deliver the stream ``passes`` times to every consumer, in registration order.

    Within a pass every update reaches each consumer's feed exactly once and
    in stream order.  A lone consumer's feed is handed ``stream.updates``
    itself, in one call.  Consumers registered together share the physical
    pass and see it interleaved, one update at a time in registration order,
    so their accounts charge in the order the shared pass holds the words.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    for pass_index in range(passes):
        feeds = [c.begin_pass(pass_index) for c in consumers]
        if len(feeds) == 1:
            feeds[0](stream.updates)
        else:
            for one in zip(stream.updates):  # 1-tuples
                for feed in feeds:
                    feed(one)
        for c in consumers:
            c.end_pass(pass_index)


# ---------------------------------------------------------------------------
# balanced contiguous blocks and Munro–Paterson multi-pass minimum selection
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def int_root_ceil(n: int, k: int) -> int:
    """Smallest b >= 1 with b**k >= n: the block count whose k-fold
    refinement resolves a span of n."""
    if n <= 1:
        return 1
    b = max(1, round(n ** (1.0 / k)))
    while b**k < n:
        b += 1
    while b > 1 and (b - 1) ** k >= n:
        b -= 1
    return b


@lru_cache(maxsize=1024)
def blocks(span: int, nblocks: int) -> tuple[Callable[[int], int], tuple[int, ...]]:
    """Cut of ``[0, span)`` into ``nblocks`` contiguous blocks, the first
    ``span % nblocks`` one larger: ``(find, starts)``, where block i is
    ``[starts[i], starts[i + 1])`` and ``find(offset)`` is the index of the
    block holding ``offset``.

    The division is done once, here; the cache lets every tree node and
    selection pass of one span share a cut (a turnstile level's first pass
    reads one cut per chain, through its slot tables), and ``starts`` is a
    tuple so a shared cut cannot be changed by one of them.  Blocks of one
    offset (every last pass of a selection) find by the C-level identity.
    """
    base, rem = divmod(span, nblocks)
    threshold = rem * (base + 1)
    starts = tuple(i * base + min(i, rem) for i in range(nblocks + 1))
    if nblocks >= span:
        return operator.index, starts

    def find(offset: int) -> int:
        if offset < threshold:
            return offset // (base + 1)
        return rem + (offset - threshold) // base

    return find, starts


@lru_cache(maxsize=1024)
def _pass_cut(span: int, passes: int) -> tuple[int, Callable[[int], int], tuple[int, ...]]:
    """``(nblocks, find, starts)`` of a selection pass over ``span`` ranks, ``passes`` passes left."""
    return (nblocks := int_root_ceil(span, passes), *blocks(span, nblocks))


def select_step(lo: int, hi: int, counters: list[int], passes: int):
    """End of one pass of an exact minimum selection over ranks ``[lo, hi)``,
    cut by ``_pass_cut(hi - lo, passes)`` with one counter per block, net over
    the whole update sequence, so one number per block is enough under
    deletions.  The lowest positive block survives.  Returns the selected rank,
    ``None`` when no block is positive, or the next pass's open selection
    ``(lo, hi, find, counters)`` with zeroed counters.  A span of at most b**P
    leaves a block of at most b**(P-1), so no pass holds more counters than
    the one before, and a last pass cuts single ranks, so it always answers.
    """
    for i, c in enumerate(counters):
        if c > 0:
            break
    else:
        return None
    starts = _pass_cut(hi - lo, passes)[2]
    lo, hi = lo + starts[i], lo + starts[i + 1]
    if hi - lo == 1:
        return lo
    nblocks, find, _ = _pass_cut(hi - lo, passes - 1)
    return lo, hi, find, [0] * nblocks
