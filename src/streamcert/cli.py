"""Command-line front end: generators, certificate runs, verification, the
space/pass bench table and the apps; each command calls the library itself."""

from __future__ import annotations

import argparse
import ast
import csv
import itertools
import json
import math
import operator
import string
import sys
from pathlib import Path

from . import apps
from .certify_k import SampleScheme, k_arc_cert_peeling, k_arc_cert_sampled, k_node_cert
from .certify_one import Certificate, RecursionPlan, one_cert_stream, validate_one_cert
from .congest import CongestNetwork, congest_k_cert, congest_scc, congest_toposort
from .digraph import MAX_NODES, Digraph, require_ascii_decimal, transitive_closure
from .exact import validate_certificate
from .hardgen import (
    alpha_family,
    circulant,
    embed_tournament,
    gadget_plain,
    gadget_tournament,
    gadget_triangle,
    gadget_triangle_alpha,
    hampath_star,
    reach_backedge,
    transitive_tournament,
)
from .prf import prf_bits
from .streams import INSERTION_ONLY, TURNSTILE, ArcStream, SpaceLedger


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _graph(path: str) -> Digraph:
    return Digraph.from_text(_read(path))


def _stream(path: str) -> ArcStream:
    return ArcStream.from_text(_read(path))


def _eval_budget(expr: str, names: dict[str, int]) -> int:
    """Evaluate a tiny arithmetic expression over n and p, nothing else.

    Every power is bounded before it is computed: an exponent above 64 or a
    result above 2**64 is rejected, so no expression can run unboundedly.
    """

    def power(a, b):
        if b > 64 or (a != 0 and b * math.log2(abs(a)) > 64):
            raise ValueError(f"power {a}**{b} too large in space budget expression {expr!r}")
        return a**b

    binary = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv, ast.Pow: power,
              ast.Mod: operator.mod}
    unary = {ast.USub: operator.neg, ast.UAdd: operator.pos}

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in binary:
            return binary[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in unary:
            return unary[type(node.op)](walk(node.operand))
        raise ValueError(f"unsupported token in space budget expression: {ast.dump(node)}")

    try:
        return int(walk(ast.parse(expr, mode="eval")))
    except (SyntaxError, ArithmeticError, TypeError) as exc:  # 'n*', 1/0, int(1e308*10), a complex power
        raise ValueError(f"bad space budget expression {expr!r}: {exc}") from exc


def _rho(k: int, rho: float | None) -> float:
    """``--rho``, by default 1/k; k is checked first so k = 0 is an error, not a division."""
    if k < 1:
        raise ValueError(f"threshold k must be >= 1, got {k}")
    return rho if rho is not None else 1.0 / k


def _unread(args, mode: str, *names: str) -> None:
    """An option that ``mode`` never reads is an error, not a silent no-op."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} is not read by {mode}")


def _emit_cert(cert, stats, extra=None) -> None:
    print(cert.to_text(), end="")
    info = {
        "n": cert.n,
        "kind": cert.kind,
        "k": cert.k,
        "cert_arcs": len(cert.arcs),
        "passes": stats.passes,
        "peak_words": stats.peak_words,
    }
    if extra:
        info.update(extra)
    print(json.dumps(info, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _bits_from_arg(arg: str | None, need: int, seed: int) -> list[int]:
    if arg is None:
        return prf_bits(seed, need)
    text = arg
    candidate = Path(arg)
    try:
        is_file = candidate.is_file()
    except OSError:  # digits too long for a file name (ENAMETOOLONG) are not a file
        is_file = False
    if is_file:
        text = candidate.read_text()
    bits = []
    for ch in text:
        if ch in string.whitespace:
            continue
        if ch not in string.hexdigits:
            raise ValueError(f"--bits must hold ASCII hex digits and whitespace, got {ch!r}")
        val = int(ch, 16)
        bits.extend((val >> 3 & 1, val >> 2 & 1, val >> 1 & 1, val & 1))
    if len(bits) < need:
        raise ValueError(f"need {need} bits, got {len(bits)}")
    return bits[:need]


def _node_count(n: int) -> None:
    """``--n`` of gen and bench, checked before anything is built: no reading
    command accepts a graph of more than ``MAX_NODES`` nodes."""
    if n < 0:
        raise ValueError(f"node count must be >= 0, got {n}")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} above the ceiling of {MAX_NODES}")


def _alpha_from_d(d: int) -> int:
    if d == 3:
        return 1
    if d >= 4 and d % 2 == 0:
        return d // 2
    raise ValueError(f"gadget size {d} does not match any alpha (3 or even >= 4)")


def cmd_gen(args) -> int:
    seed = args.seed or 0
    fam = args.family
    _node_count(args.n)
    if fam in ("transitive", "alpha", "circulant"):
        _unread(args, f"--family {fam}", "bits")
    if not args.stream and (args.bits is not None or fam in ("transitive", "alpha", "circulant")):
        _unread(args, f"--family {fam}{' with --bits' * (args.bits is not None)} and no --stream", "seed")
    if fam == "transitive":
        g = transitive_tournament(args.n)
    elif fam == "alpha":
        g = alpha_family(args.n, args.d)
    elif fam in ("plain", "triangle"):
        if args.d < 3 or args.d % 3 or args.n % args.d:
            raise ValueError("need d >= 3 divisible by 3 and n divisible by d")
        m = args.d // 3
        bits = _bits_from_arg(args.bits, 2 * m * m * (args.n // args.d), seed)
        g = gadget_tournament(gadget_plain if fam == "plain" else gadget_triangle, bits, m)
    elif fam in ("triangle-alpha", "hampath", "reach"):
        alpha = _alpha_from_d(args.d)
        inner = args.n - 2 if fam == "hampath" else args.n
        if inner % args.d:
            raise ValueError(f"gadget size {args.d} does not divide {inner}")
        count = inner // args.d
        bits = _bits_from_arg(args.bits, 2 * count, seed)
        gadgets = [
            gadget_triangle_alpha(bits[2 * i], bits[2 * i + 1], alpha)
            for i in range(count)
        ]
        if fam == "triangle-alpha":
            g = embed_tournament(gadgets, args.d)
        elif fam == "hampath":
            g = hampath_star(gadgets)
        else:
            g, s_star, t_star = reach_backedge([(gd, 0, 2) for gd in gadgets])
            print(json.dumps({"s": s_star, "t": t_star}), file=sys.stderr)
    elif fam == "circulant":
        g = circulant(args.n, args.k)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {fam}")
    if args.stream:
        print(ArcStream.from_graph(g, args.model, seed=args.seed).to_text(), end="")
    else:
        print(g.to_text(), end="")
    return 0


# ---------------------------------------------------------------------------
# certificate runs
# ---------------------------------------------------------------------------


def cmd_one(args) -> int:
    stream = _stream(args.input)
    plan = RecursionPlan(p=args.passes)
    ledger = None
    if args.strict_space is not None:
        budget = _eval_budget(args.strict_space, {"n": stream.n, "p": args.passes})
        ledger = SpaceLedger(budget=budget)
    cert, stats = one_cert_stream(stream, plan, ledger=ledger)
    _emit_cert(cert, stats, {"model": stream.model})
    return 0


def cmd_kcert(args) -> int:
    if args.mode == "peel":
        _unread(args, "--mode peel", "rho", "r", "seed")
    stream = _stream(args.input)
    plan = RecursionPlan(p=args.passes)
    if args.mode == "peel":
        cert, stats = k_arc_cert_peeling(stream, args.k, plan)
    else:
        scheme = SampleScheme(rho=_rho(args.k, args.rho), r=args.r, seed=args.seed or 0)
        runner = k_node_cert if args.mode == "node" else k_arc_cert_sampled
        cert, stats = runner(stream, args.k, scheme, plan)
    _emit_cert(cert, stats, {"model": stream.model, "mode": args.mode})
    return 0


def cmd_verify(args) -> int:
    """Exit 0 iff the certificate file certifies the graph file at level k, 1 if
    not; every check runs at any n the parser accepts."""
    if args.graph == args.cert == "-":
        raise ValueError("--graph and --cert cannot both be read from stdin")
    graph_text, cert_text = _read(args.graph), _read(args.cert)
    g = Digraph.from_text(graph_text)
    cert = Certificate.from_text(cert_text, kind=args.kind, k=args.k)
    if cert.n != g.n:
        raise ValueError(f"node counts differ (graph {g.n}, certificate {cert.n})")
    report = validate_certificate(g, cert)
    print(f"kind={cert.kind} k={cert.k} n={g.n} graph_arcs={g.m} cert_arcs={cert.m}")
    print(f"contained={report.contained} violations={len(report.violations)}")
    for s, t, need, got in report.violations[:10]:
        print(f"  pair ({s}, {t}): required {need}, certificate has {got}")
    print("OK" if report.ok else "FAIL")
    return 0 if report.ok else 1


def cmd_congest(args) -> int:
    if args.proto != "kcert":
        _unread(args, f"--proto {args.proto}", "rho")
    g = _graph(args.input)
    net = CongestNetwork(g)
    seed = args.seed or 0
    if args.proto == "scc":
        out, trace = congest_scc(net, seed)
        for v, cid in enumerate(out):
            print(f"{v}\t{cid}")
    elif args.proto == "topo":
        out, trace = congest_toposort(net, seed)
        for v, rank in enumerate(out):
            print(f"{v}\t{rank}")
    else:
        marks, trace = congest_k_cert(net, args.k, _rho(args.k, args.rho), seed)
        for v, arcs in enumerate(marks):
            flat = " ".join(f"{u}->{w}" for u, w in sorted(arcs))
            print(f"{v}\t{flat}")
    print(
        json.dumps(
            {
                "rounds_used": trace.rounds_used,
                "messages": trace.messages,
                "phases": dict(trace.phases),
                "meta": dict(trace.meta),
            },
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return 0


def _certify(alg: str, stream: ArcStream, k: int, p: int, seed: int):
    """(certificate, stats) of ``alg`` (one | kcert | peel) on the stream; kcert
    samples at rho = 1/k."""
    plan = RecursionPlan(p=p)
    if alg == "one":
        return one_cert_stream(stream, plan)
    if alg == "peel":
        return k_arc_cert_peeling(stream, k, plan)
    return k_node_cert(stream, k, SampleScheme(rho=_rho(k, None), seed=seed), plan)


def cmd_bench(args) -> int:
    """One row per (family graph, model, p, seed): space, passes, size, verdict.
    The alpha column follows from how each family is built."""
    _node_count(args.n)
    k = 2 if args.k is None else args.k
    if args.family == "tournament" and args.alg == "one":
        _unread(args, "--family tournament --alg one", "k")
    else:
        _rho(k, None)  # k >= 1, checked before any family is built
    if args.family == "tournament":
        families = []
        for alpha in map(int, args.alphas.split(",")):
            if alpha < 1:
                raise ValueError(f"alpha must be >= 1, got {alpha}")
            size = args.n - args.n % alpha  # embeds blocks of alpha edgeless nodes
            families.append((f"tournament-a{alpha}", alpha_family(size, alpha), alpha if size else 0))
    else:
        # the undirected graph is the k-th power of an n-cycle
        families = [(f"circulant-k{k}", circulant(args.n, k), args.n // (k + 1))]
    p_values = [int(p) for p in args.p_list.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    rows = []
    grid = itertools.product(families, args.models.split(","), p_values, seeds)
    for (name, g, alpha), model, p, seed in grid:
        try:
            stream = ArcStream.from_graph(g, model, seed=seed)
            cert, stats = _certify(args.alg, stream, k, p, seed)
        except Exception as exc:
            ctx = f"family={name} n={g.n} p={p} model={model} seed={seed}"
            raise RuntimeError(f"benchmark row failed ({ctx}): {exc}") from exc
        validate = validate_one_cert if cert.k == 1 and cert.kind == "node" else validate_certificate
        rows.append({"n": g.n, "alpha": alpha, "k": cert.k, "p": p, "model": model,
                     "peak_words": stats.peak_words, "passes": stats.passes, "cert_size": cert.m,
                     "verified": "pass" if validate(g, cert).ok else "FAIL"})
    if args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=("n", "alpha", "k", "p", "model", "peak_words",
                                                        "passes", "cert_size", "verified"))
        writer.writeheader()
        writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# application commands (certificate computed from the input stream first)
# ---------------------------------------------------------------------------


def _cert_of(args, k: int = 1) -> Certificate:
    stream = ArcStream.from_graph(_graph(args.input), INSERTION_ONLY, seed=args.seed)
    return _certify("one" if k == 1 else "kcert", stream, k, args.passes, args.seed or 0)[0]


def cmd_scc(args) -> int:
    comp, _ = apps.scc_and_toposort(_cert_of(args))
    for v, cid in enumerate(comp):
        print(f"{v}\t{cid}")
    return 0


def cmd_toposort(args) -> int:
    _, rank = apps.scc_and_toposort(_cert_of(args))
    for v, r in enumerate(rank):
        print(f"{v}\t{r}")
    return 0


def cmd_2sat(args) -> int:
    lines = [ln for ln in map(str.strip, _read(args.input).splitlines())
             if ln and not ln.startswith("#")]
    require_ascii_decimal("\n".join(lines), ValueError)  # comments may hold anything
    clauses = []
    for ln in lines:
        try:
            a, b = map(int, ln.split())
        except ValueError as exc:
            raise ValueError(f"bad clause line {ln!r}") from exc
        clauses.append((a, b))
    nvars = max((abs(x) for clause in clauses for x in clause), default=0)
    result = apps.two_sat(clauses, nvars)
    if result is None:
        print("UNSAT")
        return 1
    print("SAT")
    for i, val in enumerate(result, start=1):
        print(f"x{i}={'true' if val else 'false'}")
    return 0


def cmd_mcc(args) -> int:
    cover = apps.min_chain_cover_dag(_cert_of(args))
    for chain in cover.chains:
        print(" ".join(str(v) for v in chain))
    return 0


def cmd_msss(args) -> int:
    sub = apps.msss_2apx(_cert_of(args))
    if sub is None:
        print("no spanning strongly connected subgraph", file=sys.stderr)
        return 1
    print(sub.to_text(), end="")
    return 0


def cmd_bridges(args) -> int:
    for u, v in sorted(apps.strong_bridges(_cert_of(args, k=2))):
        print(f"{u} {v}")
    return 0


def cmd_branchings(args) -> int:
    g = _graph(args.input)
    cert = Certificate(g.n, g.arcs, kind="arc", k=args.t)
    for i, b in enumerate(apps.arc_disjoint_out_branchings(cert, args.root, args.t)):
        print(f"branching {i} root={b.root}")
        for u, v in sorted(b.arcs):
            print(f"  {u} {v}")
    return 0


def cmd_domset(args) -> int:
    chosen = apps.distance_d_dominating(_cert_of(args), args.d)
    print(" ".join(str(v) for v in sorted(chosen)))
    return 0


def cmd_tc(args) -> int:
    print(transitive_closure(_cert_of(args)).to_text(), end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, *, passes: bool = False) -> None:
    sub.add_argument("--seed", type=int, default=None)
    if passes:
        sub.add_argument("--input", required=True, help="graph file or - for stdin")
        sub.add_argument("--passes", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamcert")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="generate a hard-instance graph or stream")
    p.add_argument("--family", required=True,
                   choices=("plain", "triangle", "triangle-alpha", "hampath",
                            "reach", "alpha", "transitive", "circulant"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--bits", default=None, help="hex string or file of bits")
    p.add_argument("--stream", action="store_true")
    p.add_argument("--model", choices=(INSERTION_ONLY, TURNSTILE), default=INSERTION_ONLY)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("one", help="1-certificate from a stream")
    p.add_argument("--input", required=True, help="stream file or - for stdin")
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--strict-space", default=None, metavar="EXPR",
                   help="word budget over n and p, e.g. '8*n**1.5'")
    p.set_defaults(func=cmd_one)

    p = subs.add_parser("kcert", help="k-certificate from a stream")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--passes", type=int, required=True)
    p.add_argument("--mode", choices=("node", "arc", "peel"), default="node")
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_kcert)

    p = subs.add_parser("verify", help="validate a certificate file against a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--kind", choices=("node", "arc"), default="node")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("congest", help="run a distributed protocol")
    p.add_argument("--proto", choices=("kcert", "scc", "topo"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--rho", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_congest)

    # no prefix matching, or a stray --seed would be read as --seeds
    p = subs.add_parser("bench", help="space/pass benchmark table", allow_abbrev=False)
    p.add_argument("--family", choices=("tournament", "circulant"), default="tournament")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--alphas", default="1,2,4")
    p.add_argument("--alg", choices=("one", "kcert", "peel"), default="one")
    p.add_argument("--p-list", default="1,2,3")
    p.add_argument("--models", default=INSERTION_ONLY)
    p.add_argument("--k", type=int, default=None)  # 2 where read
    p.add_argument("--seeds", default="0")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_bench)

    for name, func, extras in (
        ("scc", cmd_scc, ()),
        ("toposort", cmd_toposort, ()),
        ("mcc", cmd_mcc, ()),
        ("msss", cmd_msss, ()),
        ("bridges", cmd_bridges, ()),
        ("domset", cmd_domset, ("d",)),
        ("tc", cmd_tc, ()),
    ):
        p = subs.add_parser(name, help=f"{name} from a certificate of the input graph")
        _add_common(p, passes=True)
        if "d" in extras:
            p.add_argument("--d", type=int, required=True)
        p.set_defaults(func=func)

    p = subs.add_parser("2sat", help="satisfy 2-literal clauses ('a b' per line, negative = negated)")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_2sat)

    p = subs.add_parser("branchings", help="arc-disjoint out-branchings of the input graph")
    p.add_argument("--input", required=True)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--t", type=int, default=2)
    p.set_defaults(func=cmd_branchings)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
