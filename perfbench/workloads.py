"""The four workloads: seeded cases, how each case runs, and how it is judged.

A case mirrors one CLI invocation: its inputs are text files, its ``cert``
phase computes a certificate or protocol output, ``verify`` checks it with the
library's exact validator (as ``streamcert verify`` does) and ``apps``
answers application queries from the certificate.  Judging uses the
generator's own knowledge of each graph plus the brute-force oracles of
``tests/oracles.py``; it never trusts the library's answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import gen

# ---------------------------------------------------------------------------
# case definitions
# ---------------------------------------------------------------------------


@dataclass
class Case:
    name: str
    kind: str  # one | knode | peel | ckcert | cscc | ctopo
    inputs: dict[str, str]  # role ("stream", "graph") -> input file name
    params: dict[str, Any]
    n: int
    arcs: set  # the final graph, as generated
    label: str = ""  # "as_generated" | "relabelled" for the tournament cases
    meta: dict[str, Any] = field(default_factory=dict)


# Case grids per workload and scale.  "full" is what the benchmark measures;
# "tiny" runs the same code paths in well under a second per case.
GRIDS = {
    "full": {
        "one-ins": {"grid": [(64, (2, 4), (1,)), (160, (2, 4), (2, 3))]},
        "one-turn": {"grid": [(256, (2, 4), (3, 5))], "churn": 0.3, "decoys": 0.5},
        "kcert": {
            "knode": [(2, 1, 48, 240), (2, 2, 56, 300), (3, 1, 52, 260), (3, 2, 48, 280)],
            "peel": [(32, 2, 1), (24, 3, 2)],
        },
        "congest": {"ckcert": [(8, 8)] * 6, "decomp": [(200, 600), (250, 750), (300, 900), (350, 1050)]},
    },
    "tiny": {
        "one-ins": {"grid": [(16, (2,), (1,)), (24, (4,), (2,))]},
        "one-turn": {"grid": [(24, (2,), (3, 5))], "churn": 0.3, "decoys": 0.5},
        "kcert": {"knode": [(2, 1, 12, 30), (3, 2, 12, 40)], "peel": [(10, 2, 1)]},
        "congest": {"ckcert": [(6, 4)], "decomp": [(20, 30)]},
    },
}

WORKLOADS = ("one-ins", "one-turn", "kcert", "congest")
SHORT = {"as_generated": "gen", "relabelled": "rel"}
CORPUS_SEED = 0  # seed of the inputs that do not vary with the run's seed
CONGEST_KINDS = {"ckcert", "cscc", "ctopo"}
# kinds whose cases have verify and apps phases (the rest only compute)
CERT_KINDS = {"one", "knode", "peel", "ckcert"}


def build(workload: str, seed: int, scale: str = "full") -> tuple[list[Case], dict[str, str]]:
    """Cases and input texts (file name -> text) of one workload run."""
    spec = GRIDS[scale][workload]
    return _BUILDERS[workload](seed, spec)


def _tournament_cases(seed: int, spec: dict, model: str):
    cases, files = [], {}
    for n, alphas, ps in spec["grid"]:
        for alpha in alphas:
            base = gen.alpha_tournament(n, alpha)
            labelled = [("as_generated", base)]
            if model == "ins":  # churn streams are measured as generated only
                labelled.append(("relabelled", gen.relabel_reverse(n, base)))
            for label, arcs in labelled:
                tag = f"n{n}-a{alpha}-{SHORT[label]}"
                rng = gen.rng_for(seed, f"{model}-{tag}")
                if model == "ins":
                    updates = gen.insertion_stream(rng, arcs)
                else:
                    updates = gen.churn_stream(rng, n, arcs, spec["churn"], spec["decoys"])
                sfile, gfile = f"{model}-{tag}.stream", f"{tag}.graph"
                files[sfile] = gen.stream_text(n, model, updates)
                files[gfile] = gen.graph_text(n, arcs)
                for p in ps:
                    cases.append(Case(
                        f"{model}-{tag}-p{p}", "one", {"stream": sfile, "graph": gfile},
                        {"p": p}, n, arcs, label, {"alpha": alpha},
                    ))
    return cases, files


def _case_seed(seed: int, tag: str) -> int:
    """Seed of the library's own randomness (sampling, protocol ranks) in one
    case: independent across the cases of a run, so their costs average out."""
    return gen.rng_for(seed, f"lib-{tag}").randrange(2**31)


def _build_one_ins(seed, spec):
    return _tournament_cases(seed, spec, "ins")


def _build_one_turn(seed, spec):
    return _tournament_cases(seed, spec, "turn")


def _build_kcert(seed, spec):
    cases, files = [], {}
    for k, p, n, m in spec["knode"]:
        tag = f"knode-k{k}-p{p}-n{n}"
        rng = gen.rng_for(seed, tag)
        arcs = gen.random_digraph(rng, n, m)
        files[f"{tag}.stream"] = gen.stream_text(n, "ins", gen.insertion_stream(rng, arcs))
        files[f"{tag}.graph"] = gen.graph_text(n, arcs)
        cases.append(Case(tag, "knode", {"stream": f"{tag}.stream", "graph": f"{tag}.graph"},
                          {"k": k, "p": p, "seed": _case_seed(seed, tag)}, n, arcs))
    for n, k, p in spec["peel"]:
        tag = f"peel-k{k}-p{p}-n{n}"
        rng = gen.rng_for(seed, tag)
        arcs = gen.circulant(n, k)
        files[f"{tag}.stream"] = gen.stream_text(n, "ins", gen.insertion_stream(rng, arcs))
        files[f"{tag}.graph"] = gen.graph_text(n, arcs)
        cases.append(Case(tag, "peel", {"stream": f"{tag}.stream", "graph": f"{tag}.graph"},
                          {"k": k, "p": p}, n, arcs))
    return cases, files


def _build_congest(seed, spec):
    cases, files = [], {}
    # The k-certificate protocol's cost is heavy-tailed in the sampled
    # memberships (one case can cost three times another of the same size),
    # so its graphs and protocol seeds form a fixed corpus; the run's seed
    # drives the decomposition graphs.
    for i, (n, chords) in enumerate(spec["ckcert"]):
        tag = f"ckcert{i}-n{n}"
        arcs = gen.strong_digraph(gen.rng_for(CORPUS_SEED, tag), n, chords)
        files[f"{tag}.graph"] = gen.graph_text(n, arcs)
        cases.append(Case(tag, "ckcert", {"graph": f"{tag}.graph"},
                          {"k": 2, "rho": 0.5, "seed": _case_seed(CORPUS_SEED, tag)}, n, arcs))
    for n, m in spec["decomp"]:
        tag = f"sparse-n{n}"
        arcs = gen.random_digraph(gen.rng_for(seed, tag), n, m)
        files[f"{tag}.graph"] = gen.graph_text(n, arcs)
        for kind in ("cscc", "ctopo"):
            cases.append(Case(f"{kind}-n{n}", kind, {"graph": f"{tag}.graph"},
                              {"seed": _case_seed(seed, f"{kind}-{tag}")}, n, arcs))
    return cases, files


_BUILDERS: dict[str, Callable] = {
    "one-ins": _build_one_ins,
    "one-turn": _build_one_turn,
    "kcert": _build_kcert,
    "congest": _build_congest,
}


# ---------------------------------------------------------------------------
# loading (what every CLI command does before it computes)
# ---------------------------------------------------------------------------


def network_inputs(cases: list[Case]) -> set[str]:
    """Graph files that the congest cases run on."""
    return {c.inputs["graph"] for c in cases if c.kind in CONGEST_KINDS}


def parse_inputs(lib, files: dict[str, str], networks: set[str]) -> dict[str, Any]:
    """Parse each input text with the library and build the named networks."""
    data: dict[str, Any] = {}
    for name, text in files.items():
        if name.endswith(".stream"):
            data[name] = lib.streams.ArcStream.from_text(text)
        else:
            data[name] = lib.digraph.Digraph.from_text(text)
            if name in networks:
                data[name + ".net"] = lib.congest.CongestNetwork(data[name])
    return data


# ---------------------------------------------------------------------------
# the three phases of a case
# ---------------------------------------------------------------------------


def phase_cert(case: Case, lib, data):
    p = case.params
    if case.kind == "one":
        plan = lib.certify_one.RecursionPlan(p=p["p"])
        return lib.certify_one.one_cert_stream(data[case.inputs["stream"]], plan)
    if case.kind == "knode":
        scheme = lib.certify_k.SampleScheme(rho=1.0 / p["k"], seed=p["seed"])
        plan = lib.certify_one.RecursionPlan(p=p["p"])
        return lib.certify_k.k_node_cert(data[case.inputs["stream"]], p["k"], scheme, plan)
    if case.kind == "peel":
        plan = lib.certify_one.RecursionPlan(p=p["p"])
        return lib.certify_k.k_arc_cert_peeling(data[case.inputs["stream"]], p["k"], plan)
    net = data[case.inputs["graph"] + ".net"]
    if case.kind == "ckcert":
        return lib.congest.congest_k_cert(net, p["k"], p["rho"], p["seed"])
    if case.kind == "cscc":
        return lib.congest.congest_scc(net, p["seed"])
    return lib.congest.congest_toposort(net, p["seed"])


def phase_verify(case: Case, lib, data, cert_out):
    g = data[case.inputs["graph"]]
    if case.kind == "one":
        return lib.certify_one.validate_one_cert(g, cert_out[0])
    if case.kind in ("knode", "peel"):
        return lib.exact.validate_certificate(g, cert_out[0])
    if case.kind == "ckcert":
        union = frozenset(a for marks in cert_out[0] for a in marks)
        cert = lib.certify_one.Certificate(g.n, union, kind="node", k=case.params["k"])
        return lib.exact.validate_certificate(g, cert), cert
    return None


def phase_apps(case: Case, lib, data, cert_out, verify_out):
    if case.kind == "one":
        cert = cert_out[0]
        return lib.apps.scc_and_toposort(cert), lib.apps.min_chain_cover_dag(cert)
    if case.kind == "knode":
        cert = cert_out[0]
        return (lib.apps.strong_bridges(cert), lib.apps.msss_2apx(cert),
                lib.apps.scc_and_toposort(cert))
    if case.kind == "peel":
        return lib.apps.arc_disjoint_out_branchings(cert_out[0], 0, case.params["k"])
    if case.kind == "ckcert":
        return lib.apps.strong_bridges(verify_out[1])
    return None



# ---------------------------------------------------------------------------
# plain-data summaries: equality across sweeps, model counts per case
# ---------------------------------------------------------------------------


def summary(case: Case, cert_out, verify_out, apps_out) -> dict[str, Any]:
    """Model counts plus a canonical form of every output, as plain data."""
    if case.kind in ("one", "knode", "peel"):
        cert, stats = cert_out
        out = {
            "passes": stats.passes,
            "peak_words": stats.peak_words,
            "cert_arcs": len(cert.arcs),
            "cert": sorted(cert.arcs),
            "verified": bool(verify_out.ok),
        }
        if case.kind == "one":
            (comp, rank), cover = apps_out
            out["apps"] = [list(comp), list(rank), [list(c) for c in cover.chains]]
        elif case.kind == "knode":
            bridges, msss, (comp, rank) = apps_out
            out["apps"] = [sorted(bridges), None if msss is None else sorted(msss.arcs),
                           list(comp), list(rank)]
            out["samples"] = cert.provenance["r"]
        else:
            out["apps"] = [sorted(b.arcs) for b in apps_out]
        return out
    result, trace = cert_out
    out = {"rounds": trace.rounds_used, "messages": trace.messages, "phases": dict(trace.phases)}
    if case.kind == "ckcert":
        report, cert = verify_out
        out.update(cert_arcs=len(cert.arcs), cert=sorted(cert.arcs), marks=[sorted(m) for m in result],
                   verified=bool(report.ok), apps=sorted(apps_out))
    else:
        out["result"] = list(result)
    return out


# ---------------------------------------------------------------------------
# judging
# ---------------------------------------------------------------------------


def _closure(n: int, arcs) -> list[set[int]]:
    adj = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
    out = []
    for s in range(n):
        seen: set[int] = set()
        todo = deque(adj[s])
        while todo:
            x = todo.popleft()
            if x not in seen:
                seen.add(x)
                todo.extend(adj[x])
        out.append(seen)
    return out


def reachable_pairs(case: Case) -> int:
    """Ordered pairs s != t with t reachable from s in the case's graph."""
    if "pairs" not in case.meta:
        case.meta["pairs"] = sum(len(r - {s}) for s, r in enumerate(_closure(case.n, case.arcs)))
    return case.meta["pairs"]


def _partition(ids) -> set[frozenset[int]]:
    groups: dict[Any, set[int]] = {}
    for v, c in enumerate(ids):
        groups.setdefault(c, set()).add(v)
    return {frozenset(s) for s in groups.values()}


def _ranks_ok(n: int, arcs, comps: set[frozenset[int]], rank) -> bool:
    comp_of = {v: c for c in comps for v in c}
    if len(rank) != n:
        return False
    for u, v in arcs:
        same = comp_of[u] is comp_of[v]
        if (same and rank[u] != rank[v]) or (not same and not rank[u] < rank[v]):
            return False
    return all(len({rank[v] for v in c}) == 1 for c in comps)


def _out_branching_ok(n: int, arcs, root: int, tree) -> bool:
    tree = set(tree)
    if not tree <= arcs or len(tree) != n - 1:
        return False
    parent = {}
    for u, v in tree:
        if v == root or v in parent:
            return False
        parent[v] = u
    reach = _closure(n, tree)[root]
    return reach | {root} == set(range(n))


def judge(case: Case, out: dict[str, Any], oracles) -> list[str]:
    """Problems with one case's outputs; empty when every check passes."""
    n, arcs = case.n, case.arcs
    bad = []
    if case.kind in CERT_KINDS:
        if not out["verified"]:
            bad.append("validator rejected the certificate")
        if not set(map(tuple, out["cert"])) <= arcs:
            bad.append("certificate is not a subgraph of the input")
    if case.kind == "one":
        cert = set(map(tuple, out["cert"]))
        if n <= 64 and oracles.closure_sets(n, cert) != oracles.closure_sets(n, arcs):
            bad.append("oracle: certificate closure differs from the input's")
        comp, rank, chains = out["apps"]
        # the tournaments are acyclic and transitively closed, of width alpha
        if len(set(comp)) != n or not _ranks_ok(n, arcs, {frozenset([v]) for v in range(n)}, rank):
            bad.append("scc/toposort answer wrong")
        flat = [v for c in chains for v in c]
        if (len(chains) != case.meta["alpha"] or sorted(flat) != list(range(n))
                or any((c[i], c[i + 1]) not in arcs for c in chains for i in range(len(c) - 1))):
            bad.append("chain cover answer wrong")
    elif case.kind == "knode":
        bridges, msss, comp, rank = out["apps"]
        if set(map(tuple, bridges)) != oracles.strong_bridges(n, arcs):
            bad.append("oracle: strong bridges differ")
        comps = oracles.scc_partition(n, arcs)
        if _partition(comp) != comps or not _ranks_ok(n, arcs, comps, rank):
            bad.append("oracle: scc/toposort answer wrong")
        if oracles.is_strong(n, arcs):
            sub = None if msss is None else set(map(tuple, msss))
            if sub is None or not sub <= arcs or len(sub) > 2 * n - 2 or not oracles.is_strong(n, sub):
                bad.append("oracle: msss answer wrong")
        elif msss is not None:
            bad.append("msss answered on a graph that is not strong")
    elif case.kind == "peel":
        trees = [set(map(tuple, t)) for t in out["apps"]]
        if len(trees) != case.params["k"] or len(set().union(*trees)) != sum(map(len, trees)):
            bad.append("branchings missing or not arc-disjoint")
        if not all(_out_branching_ok(n, arcs, 0, t) for t in trees):
            bad.append("a branching is not a spanning out-branching of the input")
    elif case.kind == "ckcert":
        for v, marks in enumerate(out["marks"]):
            if any(v not in a for a in marks):
                bad.append(f"node {v} marked an arc not incident to it")
                break
        if set(map(tuple, out["apps"])) != oracles.strong_bridges(n, arcs):
            bad.append("oracle: strong bridges of the union differ")
    else:
        comps = oracles.scc_partition(n, arcs)
        if case.kind == "cscc" and _partition(out["result"]) != comps:
            bad.append("oracle: congest scc ids differ")
        if case.kind == "ctopo" and not _ranks_ok(n, arcs, comps, out["result"]):
            bad.append("oracle: congest ranks do not rise along every arc")
    return bad
