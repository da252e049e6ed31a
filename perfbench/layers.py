"""Which library bindings the traced run wraps, and the per-layer metrics
derived from the spans they record.

A function is wrapped at every module binding through which it is called
(``from .digraph import chain_cover_minimum`` makes ``certify_one`` and
``apps`` hold their own binding), so a span opens whichever module calls it.
"""

from __future__ import annotations

from collections import defaultdict

import clock
import workloads
from spans import WRAPPED_MARK, Tracer, self_times

PHASES = ("announce", "ident", "leader", "size", "search", "tstar", "pivot", "reach", "count", "gossip")


def _delivered(args, kwargs, result):
    stream, consumers, passes = (list(args) + [None] * 3)[:3]
    stream = kwargs.get("stream", stream)
    consumers = kwargs.get("consumers", consumers)
    passes = kwargs.get("passes", passes)
    return {"delivered": len(stream) * passes * len(consumers)}


def _prune_info(args, kwargs, result):
    return {"arcs_in": args[0].m, "arcs_out": result.m}


# (module, attribute, span name, counts); "Class.method" names a classmethod.
BINDINGS = [
    ("streams", "ArcStream.from_text", "streams.parse", lambda a, k, r: {"updates": len(r)}),
    ("digraph", "Digraph.from_text", "digraph.parse", None),
    ("streams", "run_passes", "streams.run_passes", _delivered),
    ("certify_one", "run_passes", "streams.run_passes", _delivered),
    ("certify_k", "run_passes", "streams.run_passes", _delivered),
    ("certify_one", "tc_preserving_prune", "certify_one.prune", _prune_info),
    ("congest", "tc_preserving_prune", "congest.local_prune", _prune_info),
    ("certify_one", "chain_cover_minimum", "digraph.chain_cover", lambda a, k, r: {"nodes": a[0].n}),
    ("apps", "chain_cover_minimum", "digraph.chain_cover", lambda a, k, r: {"nodes": a[0].n}),
    ("digraph", "reachability_masks", "digraph.closure", None),
    ("certify_one", "reachability_masks", "digraph.closure", None),
    ("exact", "reachability_masks", "digraph.closure", None),
    ("digraph", "scc_tarjan", "digraph.scc", None),
    ("certify_one", "scc_tarjan", "digraph.scc", None),
    ("apps", "scc_tarjan", "digraph.scc", None),
    ("certify_one", "one_cert_stream", "certify_one.one_cert_stream", None),
    ("certify_one", "validate_one_cert", "certify_one.validate", None),
    ("certify_k", "k_node_cert", "certify_k.sampled", lambda a, k, r: {"samples": r[0].provenance["r"]}),
    ("certify_k", "k_arc_cert_peeling", "certify_k.peel", None),
    ("certify_k", "extract_disjoint_branchings", "certify_k.branchings", None),
    ("apps", "extract_disjoint_branchings", "certify_k.branchings", None),
    ("exact", "kappa_st", "exact.kappa", None),
    ("apps", "kappa_st", "exact.kappa", None),
    ("exact", "lambda_st", "exact.lambda", None),
    ("certify_k", "lambda_st", "exact.lambda", None),
    ("exact", "validate_certificate", "exact.validate", None),
    ("apps", "strong_bridges", "apps.bridges", None),
    ("apps", "msss_2apx", "apps.msss", None),
    ("apps", "scc_and_toposort", "apps.toposort", None),
    ("apps", "min_chain_cover_dag", "apps.mcc", None),
    ("apps", "arc_disjoint_out_branchings", "apps.branchings", None),
    ("congest", "congest_k_cert", "congest.kcert", None),
    ("congest", "congest_scc", "congest.scc", None),
    ("congest", "congest_toposort", "congest.topo", None),
]


def install(lib) -> Tracer:
    tracer = Tracer()
    for module, attr, name, info in BINDINGS:
        owner = getattr(lib, module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        tracer.install(owner, attr, name, info)
    return tracer


def wrappers_left(lib) -> list[str]:
    """Names of library attributes (module level or one class deep) that are
    still wrappers."""
    left = []
    for module in vars(lib).values():
        for attr, value in vars(module).items():
            targets = [(attr, value)]
            if isinstance(value, type):
                targets += [(f"{attr}.{a}", getattr(value, a, None)) for a in vars(value)]
            for name, obj in targets:
                if hasattr(obj, WRAPPED_MARK):
                    left.append(f"{module.__name__}.{name}")
    return left


def traced_parse(tracer: Tracer, lib, files: dict[str, str], networks: set[str]) -> None:
    before = clock.kernel_seconds()
    idx = tracer.open("setup.parse")
    try:
        workloads.parse_inputs(lib, files, networks)
    finally:
        tracer.close(idx)
    tracer.spans[idx].attrs["scale"] = clock.scale(before, clock.kernel_seconds())


def per_layer(spans, cases, traced, untraced_cert_s: float) -> dict:
    """Per-layer values from the spans of one traced parse plus ``traced.sweeps``
    traced sweeps; times and counts are per sweep.  Every span's time is
    rescaled to reference seconds by the factor of the case it ran in."""
    by_case = {c.name: c for c in cases}
    selfs = self_times(spans)
    # root case span and enclosing k_node_cert of every span
    root = [0] * len(spans)
    in_sampled = [False] * len(spans)
    for i, s in enumerate(spans):
        root[i] = i if s.parent < 0 else root[s.parent]
        in_sampled[i] = s.name == "certify_k.sampled" or (s.parent >= 0 and in_sampled[s.parent])

    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(int)
    cover_by_label = defaultdict(float)
    prune_p1 = cert_p1 = 0.0
    sampled_passes_self = 0.0
    for i, s in enumerate(spans):
        factor = spans[root[i]].attrs.get("scale", 1.0)
        d, own = s.duration * factor, selfs[i] * factor
        dur[s.name] += d
        self_s[s.name] += own
        calls[s.name] += 1
        for key, val in s.attrs.items():
            if isinstance(val, int):
                attr[(s.name, key)] += val
        case = by_case.get(spans[root[i]].attrs.get("case"))
        if case is None:
            continue
        if s.name == "digraph.chain_cover" and case.label:
            cover_by_label[case.label] += d
        if case.kind == "one" and case.params["p"] == 1:
            if s.name == "certify_one.prune":
                prune_p1 += d
            elif s.name == "case.cert":
                cert_p1 += d
        if s.name == "streams.run_passes" and in_sampled[i]:
            sampled_passes_self += own

    sweeps = max(1, traced.sweeps)

    def per(x):
        return x / sweeps

    def ratio(a, b):
        return a / b if b else 0.0

    congest_self = self_s["congest.kcert"] + dur["congest.scc"] + dur["congest.topo"]
    phases = defaultdict(int)
    messages = rounds = passes = peak = 0
    for case in cases:
        first = traced.first(case.name)
        for ph, r in first.get("phases", {}).items():
            phases[ph] += r
        messages += first.get("messages", 0)
        rounds += first.get("rounds", 0)
        passes += first.get("passes", 0)
        peak += first.get("peak_words", 0)
    # the cases whose verify phase is validate_certificate
    pairs = sum(workloads.reachable_pairs(c) for c in cases if c.kind in ("knode", "peel", "ckcert"))
    run_passes_self = per(self_s["streams.run_passes"])
    delivered = per(attr[("streams.run_passes", "delivered")])
    out = {
        "streams.parse_s": (dur["streams.parse"], "s"),
        "streams.parse_updates": (attr[("streams.parse", "updates")], "count"),
        "digraph.parse_s": (dur["digraph.parse"], "s"),
        "streams.run_passes_self_s": (run_passes_self, "s"),
        "streams.updates_delivered": (delivered, "count"),
        "streams.ns_per_update": (ratio(run_passes_self, delivered) * 1e9, "ns"),
        "model.passes": (passes, "passes"),
        "model.peak_words": (peak, "words"),
        "certify_one.prune_self_s": (per(self_s["certify_one.prune"]), "s"),
        "certify_one.prune_calls": (per(calls["certify_one.prune"]), "count"),
        "certify_one.prune_arcs_in": (per(attr[("certify_one.prune", "arcs_in")]), "arcs"),
        "certify_one.prune_arcs_out": (per(attr[("certify_one.prune", "arcs_out")]), "arcs"),
        "certify_one.prune_share_p1": (ratio(prune_p1, cert_p1), "ratio"),
        "certify_one.validate_self_s": (per(self_s["certify_one.validate"]), "s"),
        "digraph.chain_cover_s": (per(dur["digraph.chain_cover"]), "s"),
        "digraph.chain_cover_s.as_generated": (per(cover_by_label["as_generated"]), "s"),
        "digraph.chain_cover_s.relabelled": (per(cover_by_label["relabelled"]), "s"),
        "digraph.chain_cover_calls": (per(calls["digraph.chain_cover"]), "count"),
        "digraph.chain_cover_nodes": (per(attr[("digraph.chain_cover", "nodes")]), "count"),
        "digraph.chain_cover_label_ratio": (
            ratio(cover_by_label["relabelled"], cover_by_label["as_generated"]), "ratio"),
        "digraph.closure_s": (per(dur["digraph.closure"]), "s"),
        "digraph.scc_s": (per(dur["digraph.scc"]), "s"),
        "digraph.scc_calls": (per(calls["digraph.scc"]), "count"),
        "exact.flow_s": (per(dur["exact.kappa"] + dur["exact.lambda"]), "s"),
        "exact.kappa_calls": (per(calls["exact.kappa"]), "count"),
        "exact.lambda_calls": (per(calls["exact.lambda"]), "count"),
        "exact.validate_self_s": (per(self_s["exact.validate"]), "s"),
        "exact.pairs_checked": (pairs, "count"),
        "certify_k.sampled_s": (per(dur["certify_k.sampled"]), "s"),
        "certify_k.samples": (per(attr[("certify_k.sampled", "samples")]), "count"),
        "certify_k.run_passes_self_share": (
            ratio(sampled_passes_self, dur["certify_k.sampled"]), "ratio"),
        "certify_k.peel_s": (per(dur["certify_k.peel"]), "s"),
        "certify_k.branchings_self_s": (per(self_s["certify_k.branchings"]), "s"),
        "certify_k.branchings_calls": (per(calls["certify_k.branchings"]), "count"),
        "apps.bridges_s": (per(dur["apps.bridges"]), "s"),
        "apps.msss_s": (per(dur["apps.msss"]), "s"),
        "apps.toposort_s": (per(dur["apps.toposort"]), "s"),
        "apps.mcc_s": (per(dur["apps.mcc"]), "s"),
        "apps.branchings_s": (per(dur["apps.branchings"]), "s"),
        "congest.kcert_self_s": (per(self_s["congest.kcert"]), "s"),
        "congest.local_prune_s": (per(dur["congest.local_prune"]), "s"),
        "congest.scc_s": (per(dur["congest.scc"]), "s"),
        "congest.topo_s": (per(dur["congest.topo"]), "s"),
        "congest.rounds": (rounds, "rounds"),
        "congest.messages": (messages, "msgs"),
        "congest.us_per_message": (ratio(per(congest_self), messages) * 1e6, "us"),
    }
    for ph in PHASES:
        out[f"congest.rounds.{ph}"] = (phases[ph], "rounds")
    out["trace.overhead"] = (ratio(traced.total("cert"), untraced_cert_s), "ratio")
    return out
