"""Simulated multi-pass arc streams with exact pass and working-space accounting.

The engine is deliberately strict about bookkeeping: algorithms register
charge accounts with a :class:`SpaceLedger` and every word they hold (one word
= one arc, one node id, or one counter of O(log n) bits) is charged while it
is resident.  `peak_words` of a run is the high-water mark of the summed
accounts.  Output written to a sink is not working space and is never charged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

from .digraph import Digraph

INSERTION_ONLY = "ins"
TURNSTILE = "turn"


class StreamFormatError(ValueError):
    """Malformed stream text (bad header, bad update line)."""


class StreamIntegrityError(ValueError):
    """Update sequence violates the stream-model invariants."""


class SpaceBudgetError(RuntimeError):
    """A consumer exceeded its declared space budget (strict mode only)."""

    def __init__(self, name: str, words: int, budget: int):
        self.name = name
        self.words = words
        self.budget = budget
        super().__init__(f"consumer {name!r} holds {words} words, budget {budget}")


@dataclass(frozen=True)
class StreamStats:
    """Passes consumed and peak resident words for one algorithm run."""

    passes: int
    peak_words: int


# ---------------------------------------------------------------------------
# space accounting
# ---------------------------------------------------------------------------


class SpaceAccount:
    __slots__ = ("_ledger", "name", "constant", "extra", "budget", "closed")

    def __init__(self, ledger: "SpaceLedger", name: str, constant: int, budget: int | None):
        self._ledger = ledger
        self.name = name
        self.constant = constant
        self.extra = 0
        self.budget = budget
        self.closed = False
        ledger._bump(constant)
        self._check()

    @property
    def words(self) -> int:
        return self.constant + self.extra

    def charge(self, words: int = 1) -> None:
        if words < 0:
            raise ValueError("charge must be nonnegative")
        self.extra += words
        self._ledger._bump(words)
        self._check()

    def release(self, words: int = 1) -> None:
        if words > self.extra:
            raise ValueError(f"account {self.name!r} releasing {words} > held {self.extra}")
        self.extra -= words
        self._ledger._bump(-words)

    def set_extra(self, words: int) -> None:
        """Adjust held words to an absolute value (convenience for rebuilds)."""
        delta = words - self.extra
        if delta >= 0:
            self.charge(delta)
        else:
            self.release(-delta)

    def drop(self) -> None:
        """Release everything, including the constant overhead."""
        if self.closed:
            return
        self._ledger._bump(-(self.constant + self.extra))
        self.constant = 0
        self.extra = 0
        self.closed = True

    def _check(self) -> None:
        if self.budget is not None and self.words > self.budget:
            self._ledger._over_budget(self.name, self.words, self.budget)


class SpaceLedger:
    """Tracks current and peak total words over all open accounts.

    Outside strict mode a budget overrun is recorded, not raised:
    ``violations`` keeps the first overrun of each account name (``"total"``
    for the ledger-wide budget) and ``violation_count`` counts every one.
    """

    def __init__(self, strict: bool = False, budget: int | None = None):
        self.current = 0
        self.peak = 0
        self.strict = strict
        self.budget = budget
        self.violations: list[tuple[str, int, int]] = []
        self.violation_count = 0
        self._violated: set[str] = set()

    def open(self, name: str, constant: int = 0, budget: int | None = None) -> SpaceAccount:
        return SpaceAccount(self, name, constant, budget)

    def _bump(self, delta: int) -> None:
        self.current += delta
        if self.current > self.peak:
            self.peak = self.current
        if self.budget is not None and self.current > self.budget:
            self._over_budget("total", self.current, self.budget)

    def _over_budget(self, name: str, words: int, budget: int) -> None:
        if self.strict:
            raise SpaceBudgetError(name, words, budget)
        self.violation_count += 1
        if name not in self._violated:
            self._violated.add(name)
            self.violations.append((name, words, budget))


# ---------------------------------------------------------------------------
# the stream itself
# ---------------------------------------------------------------------------


class ArcStream:
    """Ordered sequence of signed arc updates over nodes 0..n-1."""

    __slots__ = ("n", "updates", "model")

    def __init__(self, n: int, updates: Iterable[tuple[int, int, int]], model: str):
        if model not in (INSERTION_ONLY, TURNSTILE):
            raise ValueError(f"model must be 'ins' or 'turn', got {model!r}")
        ups = []
        seen_ins: set[tuple[int, int]] = set()
        for sign, u, v in updates:
            u, v = int(u), int(v)
            if sign not in (1, -1):
                raise ValueError(f"sign must be +-1, got {sign!r}")
            if u == v:
                raise StreamIntegrityError(f"self-loop update ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise StreamIntegrityError(f"update ({u},{v}) out of range for n={n}")
            if model == INSERTION_ONLY:
                if sign < 0:
                    raise StreamIntegrityError("deletion in insertion-only stream")
                if (u, v) in seen_ins:
                    raise StreamIntegrityError(f"arc ({u},{v}) inserted twice")
                seen_ins.add((u, v))
            ups.append((sign, u, v))
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

    def permuted(self, seed: int) -> "ArcStream":
        """Reordered copy (insertion-only streams only; order must stay legal)."""
        if self.model != INSERTION_ONLY:
            raise ValueError("only insertion-only streams can be freely permuted")
        ups = list(self.updates)
        random.Random(seed).shuffle(ups)
        return ArcStream(self.n, ups, self.model)

    @classmethod
    def from_text(cls, text: str) -> "ArcStream":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise StreamFormatError("empty stream text")
        head = lines[0].split()
        if len(head) != 2:
            raise StreamFormatError(f"bad header {lines[0]!r}, expected 'n model'")
        try:
            n = int(head[0])
        except ValueError as exc:
            raise StreamFormatError(f"bad node count {head[0]!r}") from exc
        model = head[1]
        if model not in (INSERTION_ONLY, TURNSTILE):
            raise StreamFormatError(f"unknown model {model!r}")
        ups = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 3 or parts[0] not in ("+", "-"):
                raise StreamFormatError(f"bad update line {ln!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise StreamFormatError(f"bad update line {ln!r}") from exc
            ups.append((1 if parts[0] == "+" else -1, u, v))
        try:
            return cls(n, ups, model)
        except StreamIntegrityError as exc:
            raise StreamFormatError(str(exc)) from exc

    def to_text(self) -> str:
        lines = [f"{self.n} {self.model}"]
        for sign, u, v in self.updates:
            lines.append(f"{'+' if sign > 0 else '-'} {u} {v}")
        return "\n".join(lines) + "\n"


def final_multiplicity(stream: ArcStream) -> Digraph:
    """Materialize the stream's end state; raises on malformed turnstile sequences."""
    present: set[tuple[int, int]] = set()
    for sign, u, v in stream.updates:
        if sign > 0:
            if (u, v) in present:
                raise StreamIntegrityError(f"arc ({u},{v}) inserted at multiplicity 1")
            present.add((u, v))
        else:
            if (u, v) not in present:
                raise StreamIntegrityError(f"deletion of absent arc ({u},{v})")
            present.remove((u, v))
    return Digraph(stream.n, present)


# ---------------------------------------------------------------------------
# pass scheduler
# ---------------------------------------------------------------------------


class PassConsumer(Protocol):
    def begin_pass(self, pass_index: int) -> None: ...

    def update(self, sign: int, u: int, v: int) -> None: ...

    def end_pass(self, pass_index: int) -> None: ...


def run_passes(
    stream: ArcStream,
    consumers: Sequence[PassConsumer],
    passes: int,
    ledger: SpaceLedger | None = None,
) -> StreamStats:
    """Deliver the stream ``passes`` times to every consumer, in registration order.

    Within a pass every update is handed to each consumer exactly once and in
    stream order; consumers registered together share the physical pass.
    """
    if passes < 1:
        raise ValueError("passes must be >= 1")
    for pass_index in range(passes):
        for c in consumers:
            c.begin_pass(pass_index)
        for sign, u, v in stream.updates:
            for c in consumers:
                c.update(sign, u, v)
        for c in consumers:
            c.end_pass(pass_index)
    return StreamStats(passes=passes, peak_words=ledger.peak if ledger else 0)


# ---------------------------------------------------------------------------
# balanced contiguous blocks (minimum selection and the 1-certificate recursion)
# ---------------------------------------------------------------------------


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


def block_of(offset: int, span: int, nblocks: int) -> int:
    """Index of the block holding ``offset`` when ``span`` is cut into
    ``nblocks`` contiguous blocks, the first ``span % nblocks`` one larger."""
    base, rem = divmod(span, nblocks)
    threshold = rem * (base + 1)
    if offset < threshold:
        return offset // (base + 1)
    return rem + (offset - threshold) // base


def block_bounds(lo: int, span: int, nblocks: int, idx: int) -> tuple[int, int]:
    """Half-open range of block ``idx`` of ``[lo, lo + span)`` (see :func:`block_of`)."""
    base, rem = divmod(span, nblocks)
    start = lo + idx * base + min(idx, rem)
    return start, start + base + (1 if idx < rem else 0)


# ---------------------------------------------------------------------------
# Munro–Paterson multi-pass minimum selection
# ---------------------------------------------------------------------------


class MinSelect:
    """One exact minimum-selection instance over ranks ``0..length-1``.

    Each pass partitions the active rank range into near-equal contiguous
    blocks with one net counter per block; the lowest-indexed block with a
    positive end-of-pass counter survives to the next pass.  Counters are
    net over the full update sequence, so a single number per block is enough
    even under deletions.
    """

    __slots__ = ("lo", "hi", "passes_left", "counters", "nblocks", "done", "result", "account")

    def __init__(self, length: int, q: int, account: SpaceAccount | None = None):
        if q < 1:
            raise ValueError("q must be >= 1")
        self.lo = 0
        self.hi = length
        self.passes_left = q
        self.counters: list[int] | None = None
        self.nblocks = 0
        self.done = length == 0
        self.result: int | None = None
        self.account = account
        if self.done:
            self.passes_left = 0

    def begin_pass(self) -> None:
        if self.done:
            return
        span = self.hi - self.lo
        self.nblocks = int_root_ceil(span, self.passes_left)
        self.counters = [0] * self.nblocks
        if self.account is not None:
            self.account.charge(self.nblocks)

    def observe(self, rank: int, sign: int) -> None:
        if self.done or self.counters is None:
            return
        if self.lo <= rank < self.hi:
            span = self.hi - self.lo
            self.counters[block_of(rank - self.lo, span, self.nblocks)] += sign

    def end_pass(self) -> None:
        if self.done or self.counters is None:
            return
        span = self.hi - self.lo
        chosen = -1
        for i, c in enumerate(self.counters):
            if c > 0:
                chosen = i
                break
        if self.account is not None:
            self.account.release(self.nblocks)
        self.counters = None
        self.passes_left -= 1
        if chosen < 0:
            self.done = True
            self.result = None
            return
        self.lo, self.hi = block_bounds(self.lo, span, self.nblocks, chosen)
        if self.hi - self.lo == 1:
            # the surviving block is a single rank with positive net count
            self.done = True
            self.result = self.lo


class _MinSelectAdapter:
    """Feeds one standalone MinSelect from a raw arc stream."""

    def __init__(self, instance: MinSelect, rank_of_arc):
        self.instance = instance
        self.rank_of_arc = rank_of_arc

    def begin_pass(self, pass_index: int) -> None:
        self.instance.begin_pass()

    def update(self, sign: int, u: int, v: int) -> None:
        rank = self.rank_of_arc.get((u, v))
        if rank is not None:
            self.instance.observe(rank, sign)

    def end_pass(self, pass_index: int) -> None:
        self.instance.end_pass()


def mp_min_select(
    stream: ArcStream,
    candidates: Sequence[tuple[int, int]],
    q: int,
    rank: Callable[[tuple[int, int]], int] | None = None,
) -> tuple[int, int] | None:
    """Minimum-rank candidate arc with final multiplicity 1, or None.

    Uses exactly ``q`` passes over the stream with O(len(candidates)^(1/q))
    counters resident at a time.
    """
    order = sorted(candidates, key=rank) if rank is not None else sorted(candidates)
    if rank is not None:
        ranks = [rank(c) for c in order]
        if len(set(ranks)) != len(ranks):
            raise ValueError("rank must assign distinct values to candidates")
    elif len(set(order)) != len(order):
        raise ValueError("duplicate candidates")
    instance = MinSelect(len(order), q)
    adapter = _MinSelectAdapter(instance, {arc: i for i, arc in enumerate(order)})
    run_passes(stream, [adapter], q)
    return order[instance.result] if instance.result is not None else None
