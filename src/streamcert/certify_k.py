"""k-strong connectivity certificates from streams.

Three routes:

* :func:`k_node_cert` — union of 1-certificates of r node-sampled induced
  subgraphs, all multiplexed onto one shared set of passes.
* :func:`k_arc_cert_sampled` — the arc-sampled analogue (node set untouched,
  arcs kept with probability rho, recomputed on the fly and never stored).
* :func:`k_arc_cert_peeling` — deterministic; requires the final graph to be
  k-arc-strong.  Iteration t computes 1-certificates of the residuals, grows
  the accumulators U_t / U'_t, and extracts t pairwise arc-disjoint spanning
  out-branchings (in-branchings) rooted at node 0; the residual for the next
  iteration removes exactly the arcs of the current families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .certify_one import Certificate, OneCertRun, RecursionPlan
from .digraph import Branching, Digraph, degeneracy, independence_number_exact
from .exact import lambda_st
from .prf import prf_uniform
from .streams import ArcStream, SpaceLedger, StreamStats, run_passes


class InfeasibleBranchingError(RuntimeError):
    """The root cannot support the requested number of arc-disjoint branchings."""

    def __init__(self, node: int, cut: int, needed: int):
        self.node = node
        self.cut = cut
        self.needed = needed
        super().__init__(f"node {node} is behind a cut of size {cut} < {needed}")


class PromiseViolationError(RuntimeError):
    """The stream's final graph was promised k-arc-strong but is not."""

    def __init__(self, t: int, node: int, cut: int):
        self.t = t
        self.node = node
        self.cut = cut
        super().__init__(
            f"peeling failed at iteration {t}: node {node} behind a cut of size {cut}"
        )


@dataclass(frozen=True)
class SampleScheme:
    """Sampling parameters for the randomized certificates.

    ``r=None`` selects the desk-scale default ceil(8 * k^2 * ln n) samples for
    node mode and ceil(8 * k * ln n) for arc mode; the published constant
    (192 / rho^2 * log2 n, at lambda = 1) is available from :meth:`reference_r`
    but is far too conservative to run.
    """

    rho: float
    r: int | None = None
    seed: int = 0
    mode: str = "node"

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if self.mode not in ("node", "arc"):
            raise ValueError(f"mode must be 'node' or 'arc', got {self.mode!r}")
        if self.r is not None and self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")

    def sample_count(self, k: int, n: int) -> int:
        if self.rho == 1.0:
            return 1  # all samples coincide with the whole input
        if self.r is not None:
            return self.r
        base = max(2, n)
        if self.mode == "node":
            return max(1, math.ceil(8 * k * k * math.log(base)))
        return max(1, math.ceil(8 * k * math.log(base)))

    def reference_r(self, n: int) -> int:
        scale = self.rho**2 if self.mode == "node" else self.rho
        return math.ceil(192.0 / scale * math.log2(max(2, n)))


def _sampled_cert(
    stream: ArcStream, k: int, scheme: SampleScheme, plan: RecursionPlan
) -> tuple[Certificate, StreamStats]:
    n = stream.n
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if scheme.rho > 1.0 / k:
        raise ValueError(f"rho={scheme.rho} exceeds 1/k for k={k}")
    r = scheme.sample_count(k, n)
    ledger = SpaceLedger()
    runs = []
    for i in range(r):
        if scheme.mode == "node":
            members = [v for v in range(n) if prf_uniform(scheme.seed, i, v) < scheme.rho]
            runs.append(
                OneCertRun(n, stream.model, plan, ledger, name=f"sample{i}", universe=members)
            )
        else:
            def keep(u: int, v: int, _i: int = i) -> bool:
                return prf_uniform(scheme.seed, _i, u * n + v) < scheme.rho

            runs.append(
                OneCertRun(n, stream.model, plan, ledger, name=f"sample{i}", arc_filter=keep)
            )
    passes = runs[0].total_passes
    run_passes(stream, runs, passes, ledger)
    union = set()
    for run in runs:
        union |= run.cert_arcs
    prov = {
        "algorithm": f"k_{scheme.mode}_cert_sampled",
        "k": k,
        "rho": scheme.rho,
        "r": r,
        "seed": scheme.seed,
        "p": plan.p,
        "model": stream.model,
    }
    cert = Certificate(n, frozenset(union), kind=scheme.mode, k=k, provenance=prov)
    return cert, StreamStats(passes=passes, peak_words=ledger.peak)


def k_node_cert(
    stream: ArcStream, k: int, scheme: SampleScheme, plan: RecursionPlan
) -> tuple[Certificate, StreamStats]:
    """Randomized k-node certificate: union of r node-sampled 1-certificates."""
    if scheme.mode != "node":
        raise ValueError("k_node_cert needs a node-mode sampling scheme")
    return _sampled_cert(stream, k, scheme, plan)


def k_arc_cert_sampled(
    stream: ArcStream, k: int, scheme: SampleScheme, plan: RecursionPlan
) -> tuple[Certificate, StreamStats]:
    """Randomized k-arc certificate: union of r arc-sampled 1-certificates."""
    if scheme.mode != "arc":
        raise ValueError("k_arc_cert_sampled needs an arc-mode sampling scheme")
    return _sampled_cert(stream, k, scheme, plan)


# ---------------------------------------------------------------------------
# deterministic peeling under the k-arc-strong promise
# ---------------------------------------------------------------------------


def k_arc_cert_peeling(
    stream: ArcStream, k: int, plan: RecursionPlan
) -> tuple[Certificate, StreamStats]:
    """Deterministic k-arc certificate of a k-arc-strong input, k*p passes."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = stream.n
    ledger = SpaceLedger()
    state = ledger.open("peel/state", constant=4)
    acc_out: set[tuple[int, int]] = set()
    acc_in: set[tuple[int, int]] = set()
    removed_out: frozenset = frozenset()
    removed_in: frozenset = frozenset()
    fams_out: list[Branching] = []
    fams_in: list[Branching] = []
    total_passes = 0
    for t in range(1, k + 1):
        run_out = OneCertRun(
            n, stream.model, plan, ledger, name=f"peel{t}/out",
            arc_filter=lambda u, v, _rm=removed_out: (u, v) not in _rm,
        )
        run_in = OneCertRun(
            n, stream.model, plan, ledger, name=f"peel{t}/in",
            arc_filter=lambda u, v, _rm=removed_in: (u, v) not in _rm,
        )
        run_passes(stream, [run_out, run_in], run_out.total_passes, ledger)
        total_passes += run_out.total_passes
        before = len(acc_out) + len(acc_in)
        acc_out |= run_out.cert_arcs
        acc_in |= run_in.cert_arcs
        state.charge(len(acc_out) + len(acc_in) - before)
        run_out.close()
        run_in.close()
        try:
            fams_out = extract_disjoint_branchings(Digraph(n, acc_out), 0, t, "out")
            fams_in = extract_disjoint_branchings(Digraph(n, acc_in), 0, t, "in")
        except InfeasibleBranchingError as exc:
            raise PromiseViolationError(t, exc.node, exc.cut) from exc
        old = len(removed_out) + len(removed_in)
        removed_out = frozenset(a for b in fams_out for a in b.arcs)
        removed_in = frozenset(a for b in fams_in for a in b.arcs)
        state.charge(len(removed_out) + len(removed_in) - old)
    arcs = frozenset(removed_out | removed_in)
    prov = {
        "algorithm": "k_arc_cert_peeling",
        "k": k,
        "p": plan.p,
        "model": stream.model,
        "branchings": tuple(fams_out + fams_in),
    }
    cert = Certificate(n, arcs, kind="arc", k=k, provenance=prov)
    return cert, StreamStats(passes=total_passes, peak_words=ledger.peak)


def extract_disjoint_branchings(
    g: Digraph, root: int, t: int, kind: str
) -> list[Branching]:
    """t pairwise arc-disjoint spanning branchings rooted at ``root``.

    Greedy arc-at-a-time construction: an arc joining the current tree is
    committed once the residual graph still offers ``remaining`` arc-disjoint
    routes from the root to every node outside the grown tree.
    """
    if kind not in ("out", "in"):
        raise ValueError(f"kind must be 'out' or 'in', got {kind!r}")
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if kind == "in":
        flipped = extract_disjoint_branchings(g.reversed(), root, t, "out")
        return [
            Branching(root, frozenset((v, u) for u, v in b.arcs), "in") for b in flipped
        ]

    for v in range(g.n):
        if v == root:
            continue
        have = lambda_st(g, root, v, limit=t)
        if have < t:
            raise InfeasibleBranchingError(v, have, t)

    current = set(g.arcs)
    out: list[Branching] = []
    for i in range(t):
        remaining = t - 1 - i
        tree = {root}
        tree_arcs: set[tuple[int, int]] = set()
        while len(tree) < g.n:
            committed = False
            for u, v in sorted(current - tree_arcs):
                if u not in tree or v in tree:
                    continue
                if remaining == 0 or _keeps_routes(
                    current - tree_arcs - {(u, v)}, g.n, root, tree, remaining
                ):
                    tree.add(v)
                    tree_arcs.add((u, v))
                    committed = True
                    break
            if not committed:  # pragma: no cover - exchange argument forbids this
                raise AssertionError("no admissible arc while growing a branching")
        out.append(Branching(root, frozenset(tree_arcs), "out"))
        current -= tree_arcs
    return out


def _keeps_routes(
    arcs: set[tuple[int, int]], n: int, root: int, settled: set[int], need: int
) -> bool:
    rest = Digraph(n, arcs)
    for w in range(n):
        if w in settled:
            continue
        if lambda_st(rest, root, w, limit=need) < need:
            return False
    return True


def residual_independence_check(g: Digraph, h: Digraph) -> bool:
    """True iff alpha(g minus h) <= (degeneracy(h) + 1) * alpha(g)."""
    if h.n != g.n or not h.arcs <= g.arcs:
        raise ValueError("h must be an arc-subgraph of g on the same nodes")
    residual = Digraph(g.n, g.arcs - h.arcs)
    return independence_number_exact(residual) <= (degeneracy(h) + 1) * independence_number_exact(g)
