from __future__ import annotations

import hashlib
import math
import random

import pytest

import oracles
from conftest import random_digraph, random_strong_digraph, stream_of
from streamcert.certify_k import (
    MAX_SAMPLES,
    InfeasibleBranchingError,
    PromiseViolationError,
    SampleScheme,
    extract_disjoint_branchings,
    k_arc_cert_peeling,
    k_arc_cert_sampled,
    k_node_cert,
)
from streamcert.certify_one import RecursionPlan
from streamcert.digraph import Digraph
from streamcert.exact import validate_certificate
from streamcert.hardgen import alpha_family
from streamcert.prf import prf_uniform
from streamcert.streams import INSERTION_ONLY, TURNSTILE, ArcStream


def complete(n: int) -> Digraph:
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def doubled_cycle(n: int, jumps=(1, 2)) -> Digraph:
    return Digraph(n, [(i, (i + j) % n) for i in range(n) for j in jumps])


# ---------------------------------------------------------------------------
# sampling scheme
# ---------------------------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(ValueError):
        SampleScheme(rho=0.0)
    with pytest.raises(ValueError):
        SampleScheme(rho=1.5)
    with pytest.raises(ValueError):
        SampleScheme(rho=0.5, r=0)


def test_scheme_sample_counts():
    assert SampleScheme(rho=0.5).sample_count(2, 30, "node") == 109
    assert SampleScheme(rho=1 / 3).sample_count(3, 30, "node") == 245
    assert SampleScheme(rho=0.5).sample_count(2, 30, "arc") == 55
    assert SampleScheme(rho=0.5, r=7).sample_count(2, 30, "node") == 7
    # rho=1 keeps everything, so one run suffices regardless of r
    assert SampleScheme(rho=1.0).sample_count(2, 30, "node") == 1


def test_sample_count_has_a_ceiling():
    # the default grows as k^2: k = 64 on 7 nodes would draw 63 764 runs
    assert SampleScheme(rho=0.5, r=MAX_SAMPLES).sample_count(2, 7, "node") == MAX_SAMPLES
    for scheme, k in ((SampleScheme(rho=1 / 64), 64), (SampleScheme(rho=0.5, r=MAX_SAMPLES + 1), 2),
                      (SampleScheme(rho=0.5, r=2**63), 2)):
        with pytest.raises(ValueError, match=f"above the ceiling of {MAX_SAMPLES}"):
            scheme.sample_count(k, 7, "node")
    stream = stream_of(doubled_cycle(7), INSERTION_ONLY, seed=0)
    with pytest.raises(ValueError, match="ceiling"):
        k_node_cert(stream, 64, SampleScheme(rho=1 / 64), RecursionPlan(1))


def test_rho_must_respect_k():
    g = doubled_cycle(8)
    stream = stream_of(g, INSERTION_ONLY, seed=0)
    with pytest.raises(ValueError):
        k_node_cert(stream, 3, SampleScheme(rho=0.5, r=4), RecursionPlan(1))
    with pytest.raises(ValueError):
        k_node_cert(stream, 0, SampleScheme(rho=1.0), RecursionPlan(1))


# ---------------------------------------------------------------------------
# sampled certificates
# ---------------------------------------------------------------------------


def test_node_sampled_cert_validates():
    rng = random.Random(31)
    for trial in range(8):
        g = random_strong_digraph(rng, 5, 9, extra=0.6)
        stream = stream_of(g, INSERTION_ONLY, seed=trial)
        scheme = SampleScheme(rho=0.5, seed=trial)
        cert, stats = k_node_cert(stream, 2, scheme, RecursionPlan(1))
        assert cert.kind == "node" and cert.k == 2
        assert cert.arcs <= g.arcs
        assert validate_certificate(g, cert).ok
        assert stats.passes == 1


def test_arc_sampled_cert_validates():
    rng = random.Random(32)
    for trial in range(8):
        g = random_strong_digraph(rng, 5, 9, extra=0.6)
        stream = stream_of(g, TURNSTILE, seed=trial)
        scheme = SampleScheme(rho=0.5, seed=trial)
        cert, stats = k_arc_cert_sampled(stream, 2, scheme, RecursionPlan(2))
        assert cert.kind == "arc"
        assert cert.arcs <= g.arcs
        assert validate_certificate(g, cert).ok
        d, q = RecursionPlan(2).turnstile_split()
        assert stats.passes == d * q + 1


def test_arc_samples_keep_small_independence():
    # arc-sampling an alpha=2 tournament must not blow up the independence
    # number: frozen envelope 0.5 * alpha * (1/rho) * log2(n), measured
    # maximum 9 (ratio 0.41) over these exact coins
    g = alpha_family(48, 2)
    rho = 0.5
    bound = 0.5 * 2 * (1 / rho) * math.log2(g.n)
    for i in range(100):
        arcs = [(u, v) for (u, v) in g.arcs if prf_uniform(0, i, u * g.n + v) < rho]
        assert oracles.independence_number_bb(g.n, arcs) <= bound


def test_pass_budget_ignores_k_and_r():
    g = doubled_cycle(10)
    seen = set()
    for k, r in [(1, 3), (2, 9), (3, 2)]:
        stream = stream_of(g, INSERTION_ONLY, seed=0)
        _, stats = k_node_cert(stream, k, SampleScheme(rho=1 / k, r=r), RecursionPlan(2))
        seen.add(stats.passes)
    assert seen == {2}


def test_sampled_cert_deterministic_in_seed():
    g = doubled_cycle(9)
    scheme = SampleScheme(rho=0.5, r=6, seed=5)
    a, _ = k_node_cert(stream_of(g, INSERTION_ONLY, seed=1), 2, scheme, RecursionPlan(1))
    b, _ = k_node_cert(stream_of(g, INSERTION_ONLY, seed=1), 2, scheme, RecursionPlan(1))
    assert a.arcs == b.arcs
    c, _ = k_node_cert(
        stream_of(g, INSERTION_ONLY, seed=1), 2, SampleScheme(rho=0.5, r=6, seed=6),
        RecursionPlan(1),
    )
    # different sample coins almost surely pick a different union
    assert a.provenance["seed"] != c.provenance["seed"]


@pytest.mark.parametrize(
    "case", ["insertion", "turnstile", "arc-insertion", "arc-turnstile", "peel-insertion", "peel-turnstile"])
def test_each_sample_receives_only_updates_inside_its_universe(monkeypatch, case):
    """Every run gets exactly its own updates, in stream order, once per pass:
    a node sample those with both ends in it, in its local ids; an arc sample
    i those with ``prf_uniform(seed, i, u*n + v) < rho``; a peeling run of
    iteration t those outside the arcs of iteration t - 1's out- or
    in-branchings.  No other update reaches its handler."""
    from streamcert.certify_one import OneCertRun

    mode, _, model = case.rpartition("-")
    if mode == "peel":  # three iterations need a 3-arc-strong input
        g = doubled_cycle(10, (1, 2, 3))
    else:
        g = random_strong_digraph(random.Random(31), 10, 10, extra=0.4)
    stream = stream_of(g, INSERTION_ONLY if model == "insertion" else TURNSTILE, seed=3)
    n, scheme, plan = g.n, SampleScheme(rho=0.5, r=9, seed=4), RecursionPlan(3)
    want: dict[str, list] = {}
    if mode == "":
        for i in range(9):
            local = {v: j for j, v in enumerate(v for v in range(n) if prf_uniform(4, i, v) < 0.5)}
            want[f"sample{i}"] = [(s, local[u], local[v]) for s, u, v in stream.updates
                                  if u in local and v in local]
        run, args = k_node_cert, (stream, 2, scheme, plan)
    elif mode == "arc":
        for i in range(9):
            want[f"sample{i}"] = [up for up in stream.updates if prf_uniform(4, i, up[1] * n + up[2]) < 0.5]
        run, args = k_arc_cert_sampled, (stream, 2, scheme, plan)
    else:
        for t in (1, 2, 3):
            fams = k_arc_cert_peeling(stream, t - 1, plan)[0].provenance["branchings"] if t > 1 else ()
            for kind in ("out", "in"):
                removed = {a for b in fams if b.kind == kind for a in b.arcs}
                want[f"peel{t}/{kind}"] = [up for up in stream.updates if up[1:] not in removed]
        run, args = k_arc_cert_peeling, (stream, 3, plan)

    got: dict[str, list] = {}
    begin_pass = OneCertRun.begin_pass

    def counting(self, pass_index):
        inner = begin_pass(self, pass_index)
        seen = got.setdefault(self.name, [])

        def feed(updates):
            seen.extend(updates)
            inner(updates)

        return feed

    monkeypatch.setattr(OneCertRun, "begin_pass", counting)
    _, stats = run(*args)
    passes = stats.passes // 3 if mode == "peel" else stats.passes
    assert passes == 3 and got.keys() == want.keys()
    for name, ups in want.items():
        assert got[name] == ups * passes, name
    assert any(len(ups) < len(stream.updates) for ups in want.values())


# ---------------------------------------------------------------------------
# deterministic peeling
# ---------------------------------------------------------------------------


def _assert_k_arc_cert(g: Digraph, cert, k: int):
    sub = list(cert.arcs)
    for a in range(g.n):
        for b in range(g.n):
            if a == b:
                continue
            need = min(k, oracles.min_cut_lambda(g.n, g.arcs, a, b))
            assert oracles.min_cut_lambda(g.n, sub, a, b) >= need, (a, b)


def test_peeling_doubled_cycle():
    g = doubled_cycle(9)
    for p in (1, 2):
        stream = stream_of(g, INSERTION_ONLY, seed=0)
        cert, stats = k_arc_cert_peeling(stream, 2, RecursionPlan(p))
        assert stats.passes == 2 * p
        assert len(cert.arcs) <= 2 * 2 * (g.n - 1)
        _assert_k_arc_cert(g, cert, 2)


def test_peeling_complete_digraph():
    g = complete(7)
    stream = stream_of(g, TURNSTILE, seed=3)
    cert, stats = k_arc_cert_peeling(stream, 3, RecursionPlan(2))
    d, q = RecursionPlan(2).turnstile_split()
    assert stats.passes == 3 * (d * q + 1)
    assert len(cert.arcs) <= 2 * 3 * (g.n - 1)
    _assert_k_arc_cert(g, cert, 3)


def test_peeling_provenance_branchings():
    g = doubled_cycle(8)
    cert, _ = k_arc_cert_peeling(stream_of(g, INSERTION_ONLY, seed=0), 2, RecursionPlan(1))
    fams = cert.provenance["branchings"]
    assert len(fams) == 4
    out = [b for b in fams if b.kind == "out"]
    inn = [b for b in fams if b.kind == "in"]
    assert len(out) == len(inn) == 2
    host = Digraph(g.n, cert.arcs)
    for fam in fams:
        assert fam.root == 0
        assert oracles.is_spanning_branching(host.n, host.arcs, fam.arcs, fam.root, fam.kind)
    assert not (out[0].arcs & out[1].arcs)
    assert not (inn[0].arcs & inn[1].arcs)


def test_peeling_k_is_bounded_by_the_node_count():
    # k = n - 1 is the most any n-node digraph supports; one node stops at k = 1
    cert, stats = k_arc_cert_peeling(stream_of(complete(4), INSERTION_ONLY, seed=0), 3, RecursionPlan(1))
    assert stats.passes == 3
    _assert_k_arc_cert(complete(4), cert, 3)
    for n, k in ((4, 4), (2, 2), (1, 2), (1, 2**63), (0, 2)):
        with pytest.raises(ValueError, match=rf"max\(1, n-1\)\] = \[1, {max(1, n - 1)}\], got {k}"):
            k_arc_cert_peeling(ArcStream(n, [], INSERTION_ONLY), k, RecursionPlan(1))


def test_peeling_rejects_weak_input():
    # plain cycle is only 1-arc-strong
    g = Digraph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(PromiseViolationError) as exc:
        k_arc_cert_peeling(stream_of(g, INSERTION_ONLY, seed=0), 2, RecursionPlan(1))
    assert exc.value.t == 2
    assert "cut of size" in str(exc.value)


# ---------------------------------------------------------------------------
# branching extraction
# ---------------------------------------------------------------------------


def test_branchings_complete_four():
    g = complete(4)
    for t in (1, 2, 3):
        fams = extract_disjoint_branchings(g, 0, t, "out")
        assert len(fams) == t
        used = set()
        for fam in fams:
            assert oracles.is_spanning_branching(g.n, g.arcs, fam.arcs, fam.root, fam.kind)
            assert not (fam.arcs & used)
            used |= fam.arcs


def test_branchings_in_kind():
    g = complete(4)
    fams = extract_disjoint_branchings(g, 0, 2, "in")
    used = set()
    for fam in fams:
        assert fam.kind == "in"
        assert oracles.is_spanning_branching(g.n, g.arcs, fam.arcs, fam.root, fam.kind)
        assert not (fam.arcs & used)
        used |= fam.arcs


def test_branchings_random_feasible():
    rng = random.Random(33)
    done = 0
    while done < 20:
        g = random_strong_digraph(rng, 4, 8, extra=0.7)
        kind = rng.choice(("out", "in"))
        if kind == "out":
            t = min(oracles.min_cut_lambda(g.n, g.arcs, 0, v) for v in range(1, g.n))
        else:
            t = min(oracles.min_cut_lambda(g.n, g.arcs, v, 0) for v in range(1, g.n))
        fams = extract_disjoint_branchings(g, 0, t, kind)
        assert len(fams) == t
        used = set()
        for fam in fams:
            assert oracles.is_spanning_branching(g.n, g.arcs, fam.arcs, fam.root, fam.kind)
            assert not (fam.arcs & used)
            used |= fam.arcs
        done += 1


# sha256 (first 16 hex digits) of each family's sorted arc lists, recorded
# when every commit rebuilt the residual network; on each graph candidates
# are rejected at remaining 1 and, at t = 3, at remaining 2
BRANCHING_PINS = {
    (5, "out", 2): "920e2c11d1df0a54", (5, "out", 3): "5caa6ec4717c91be",
    (5, "in", 2): "86a49bd1f6b6c7c0", (5, "in", 3): "586839d0f8e0ed22",
    (7, "out", 2): "3f4e3acf5b60c94b", (7, "out", 3): "e21e87658f77f77b",
    (7, "in", 2): "126357dc4e8fc9e7", (7, "in", 3): "3acef9eae881e515",
    (9, "out", 2): "96ecdd0e65dd55d1", (9, "out", 3): "f9f63e2671dc2358",
    (9, "in", 2): "51b238dab7bdd159", (9, "in", 3): "e875ea83cdc25fd9",
}


def test_branchings_pinned_on_seeded_digraphs():
    got = {}
    for seed in (5, 7, 9):
        g = random_digraph(random.Random(seed), 20, 40, density=0.25)
        for kind in ("out", "in"):
            for t in (2, 3):
                fams = extract_disjoint_branchings(g, 0, t, kind)
                arcs = repr([sorted(b.arcs) for b in fams]).encode()
                got[seed, kind, t] = hashlib.sha256(arcs).hexdigest()[:16]
    assert got == BRANCHING_PINS


def test_branchings_infeasible_reports_cut():
    path = Digraph(3, [(0, 1), (1, 2)])
    with pytest.raises(InfeasibleBranchingError) as exc:
        extract_disjoint_branchings(path, 0, 2, "out")
    assert exc.value.needed == 2 and exc.value.cut == 1
    lonely = Digraph(3, [(0, 1)])
    with pytest.raises(InfeasibleBranchingError) as exc:
        extract_disjoint_branchings(lonely, 0, 1, "out")
    assert exc.value.node == 2 and exc.value.cut == 0


def test_branchings_bad_args():
    g = complete(3)
    with pytest.raises(ValueError):
        extract_disjoint_branchings(g, 0, 0, "out")
    with pytest.raises(ValueError):
        extract_disjoint_branchings(g, 3, 1, "out")
    with pytest.raises(ValueError):
        extract_disjoint_branchings(g, 0, 1, "sideways")


# ---------------------------------------------------------------------------
# residual independence
# ---------------------------------------------------------------------------


def test_residual_independence_holds_on_randoms():
    # alpha(G - H) <= (degeneracy(H) + 1) * alpha(G) for an arc-subgraph H of G
    assert [oracles.degeneracy(n, arcs) for n, arcs in (
        (4, [(0, 1), (1, 2), (2, 3)]), (4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        (4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))] == [1, 2, 3]
    rng = random.Random(34)
    for _ in range(30):
        g = random_strong_digraph(rng, 4, 9, extra=0.5)
        keep = frozenset(a for a in g.arcs if rng.random() < 0.6)
        residual = oracles.independence_number(g.n, g.arcs - keep)
        bound = (oracles.degeneracy(g.n, keep) + 1) * oracles.independence_number(g.n, g.arcs)
        assert residual <= bound, sorted(g.arcs)
