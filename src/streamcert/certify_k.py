"""k-strong connectivity certificates from streams.

Three routes:

* :func:`k_node_cert` — union of 1-certificates of r node-sampled induced
  subgraphs, all multiplexed onto one shared set of passes.  Updates are
  routed by membership mask: arc (u, v) reaches only the samples holding
  both u and v.
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
from .digraph import Branching, Digraph
from .exact import FlowNet, lambda_st
from .prf import sample_mask, sample_members
from .streams import ArcStream, Router, SpaceLedger, StreamStats, run_passes

# Most samples one sampled certificate may draw: each is a run with its own
# tables, and the default count grows as k^2, so a large k alone could ask for
# millions of runs.
MAX_SAMPLES = 1 << 12


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
    node mode and ceil(8 * k * ln n) for arc mode.  The published constants,
    192 / rho^2 * log2 n node samples and 192 / rho * log2 n arc samples (at
    lambda = 1), are far too conservative to run.
    """

    rho: float
    r: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if self.r is not None and self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")

    def sample_count(self, k: int, n: int, mode: str) -> int:
        """Samples to draw for ``mode`` "node" or "arc"; above ``MAX_SAMPLES`` a
        ``ValueError``."""
        if self.rho == 1.0:
            return 1  # all samples coincide with the whole input
        if self.r is not None:
            r = self.r
        else:
            weight = k * k if mode == "node" else k
            r = max(1, math.ceil(8 * weight * math.log(max(2, n))))
        if r > MAX_SAMPLES:
            raise ValueError(f"{r} samples above the ceiling of {MAX_SAMPLES}")
        return r


def _sampled_cert(
    stream: ArcStream, k: int, scheme: SampleScheme, plan: RecursionPlan, mode: str
) -> tuple[Certificate, StreamStats]:
    """Union of the 1-certificates of r samples sharing passes through one
    :class:`~streamcert.streams.Router`.  Node mode draws all memberships in one sweep, holds
    the sample lists (one word per member) and routes (u, v) to ``mask[u] & mask[v]`` in each
    sample's local ids; arc mode routes by PRF value, recomputed per update and never stored."""
    n = stream.n
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if scheme.rho > 1.0 / k:
        raise ValueError(f"rho={scheme.rho} exceeds 1/k for k={k}")
    r = scheme.sample_count(k, n, mode)
    ledger = SpaceLedger()
    if mode == "node":
        samples = sample_members(scheme.seed, r, n, scheme.rho)
        ledger.open("samples").charge(sum(map(len, samples)))
        mask = [0] * n
        for i, members in enumerate(samples):
            for v in members:
                mask[v] |= 1 << i
        ids = [{v: j for j, v in enumerate(members)} for members in samples]
        route = lambda u, v: mask[u] & mask[v]
    else:
        samples = ids = [range(n)] * r  # every arc sample keeps the node ids
        in_samples = sample_mask(scheme.seed, r, scheme.rho)
        route = lambda u, v: in_samples(u * n + v)
    runs = [
        OneCertRun(len(members), stream.model, plan, ledger, name=f"sample{i}")
        for i, members in enumerate(samples)
    ]
    passes = runs[0].total_passes
    run_passes(stream, [Router(runs, route, ids)], passes)
    union = {(members[u], members[v]) for members, run in zip(samples, runs) for u, v in run.cert_arcs}
    prov = {
        "algorithm": f"k_{mode}_cert_sampled",
        "k": k,
        "rho": scheme.rho,
        "r": r,
        "seed": scheme.seed,
        "p": plan.p,
        "model": stream.model,
    }
    cert = Certificate(n, frozenset(union), kind=mode, k=k, provenance=prov)
    return cert, StreamStats(passes=passes, peak_words=ledger.peak)


def k_node_cert(
    stream: ArcStream, k: int, scheme: SampleScheme, plan: RecursionPlan
) -> tuple[Certificate, StreamStats]:
    """Randomized k-node certificate: union of r node-sampled 1-certificates."""
    return _sampled_cert(stream, k, scheme, plan, "node")


def k_arc_cert_sampled(
    stream: ArcStream, k: int, scheme: SampleScheme, plan: RecursionPlan
) -> tuple[Certificate, StreamStats]:
    """Randomized k-arc certificate: union of r arc-sampled 1-certificates."""
    return _sampled_cert(stream, k, scheme, plan, "arc")


# ---------------------------------------------------------------------------
# deterministic peeling under the k-arc-strong promise
# ---------------------------------------------------------------------------


def k_arc_cert_peeling(
    stream: ArcStream, k: int, plan: RecursionPlan
) -> tuple[Certificate, StreamStats]:
    """Deterministic k-arc certificate of a k-arc-strong input, k*p passes.
    No n-node digraph is n-arc-strong, so k <= max(1, n - 1); a one-node input
    would otherwise loop k times."""
    n = stream.n
    if not 1 <= k <= max(1, n - 1):
        raise ValueError(f"k must be in [1, max(1, n-1)] = [1, {max(1, n - 1)}], got {k}")
    ledger = SpaceLedger()
    state = ledger.open("peel/state")
    state.charge(4)
    acc_out: set[tuple[int, int]] = set()
    acc_in: set[tuple[int, int]] = set()
    removed_out: frozenset = frozenset()
    removed_in: frozenset = frozenset()
    fams_out: list[Branching] = []
    fams_in: list[Branching] = []
    for t in range(1, k + 1):
        run_out, run_in = (
            OneCertRun(n, stream.model, plan, ledger, name=f"peel{t}/{kind}") for kind in ("out", "in"))
        route = lambda u, v: ((u, v) not in removed_out) | ((u, v) not in removed_in) << 1
        run_passes(stream, [Router([run_out, run_in], route, [range(n)] * 2)], run_out.total_passes)
        before = len(acc_out) + len(acc_in)
        acc_out |= run_out.cert_arcs
        acc_in |= run_in.cert_arcs
        state.charge(len(acc_out) + len(acc_in) - before)
        run_out.close()
        run_in.close()
        if not n:
            continue  # no root to grow from: the empty certificate holds
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
    return cert, StreamStats(passes=k * run_out.total_passes, peak_words=ledger.peak)


def extract_disjoint_branchings(
    g: Digraph, root: int, t: int, kind: str
) -> list[Branching]:
    """t pairwise arc-disjoint spanning branchings rooted at ``root``.

    Greedy arc-at-a-time construction: an arc joining the current tree is
    committed once the residual graph still offers ``remaining`` arc-disjoint
    routes from the root to every node outside the grown tree.  Candidates are
    tried in sorted order on one network of the residual arcs per branching,
    which drops each committed arc; every query leaves the candidate out, so
    one search tree per candidate serves all its targets.
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
        arcs = sorted(current)  # a committed arc's head is in the tree, so it is skipped
        net = FlowNet(g.n, current, split=False) if remaining else None
        while len(tree) < g.n:
            for u, v in arcs:
                if u not in tree or v in tree:
                    continue
                if net is None or all(
                    net.max_flow(root, w, remaining, without=(u, v)) == remaining
                    for w in range(g.n) if w not in tree
                ):
                    tree.add(v)
                    tree_arcs.add((u, v))
                    if net is not None:
                        net.drop(u, v)
                    break
            else:  # pragma: no cover - exchange argument forbids this
                raise AssertionError("no admissible arc while growing a branching")
        out.append(Branching(root, frozenset(tree_arcs), "out"))
        current -= tree_arcs
    return out

