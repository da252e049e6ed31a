"""Command-line front end: generators, certificate runs, verification, apps."""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
from pathlib import Path

from . import apps, bench
from .certify_k import SampleScheme, k_arc_cert_peeling, k_arc_cert_sampled, k_node_cert
from .certify_one import Certificate, RecursionPlan, one_cert_stream
from .congest import CongestNetwork, congest_k_cert, congest_scc, congest_toposort
from .digraph import Digraph
from .hardgen import (
    alpha_family,
    circulant,
    gadget_plain,
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

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Pow, ast.Mod)
        ):
            left, right = walk(node.left), walk(node.right)
            ops = {
                ast.Add: lambda a, b: a + b,
                ast.Sub: lambda a, b: a - b,
                ast.Mult: lambda a, b: a * b,
                ast.Div: lambda a, b: a / b,
                ast.FloorDiv: lambda a, b: a // b,
                ast.Pow: power,
                ast.Mod: lambda a, b: a % b,
            }
            return ops[type(node.op)](left, right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            val = walk(node.operand)
            return -val if isinstance(node.op, ast.USub) else val
        raise ValueError(f"unsupported token in space budget expression: {ast.dump(node)}")

    return int(walk(ast.parse(expr, mode="eval")))


def _emit_cert(cert, stats, extra=None) -> None:
    print(Digraph(cert.base_n, cert.arcs).to_text(), end="")
    info = {
        "n": cert.base_n,
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
    if candidate.is_file():
        text = candidate.read_text().strip()
    bits = []
    for ch in text.strip():
        if ch in " \n\t_":
            continue
        val = int(ch, 16)
        bits.extend((val >> 3 & 1, val >> 2 & 1, val >> 1 & 1, val & 1))
    if len(bits) < need:
        raise ValueError(f"need {need} bits, got {len(bits)}")
    return bits[:need]


def _alpha_from_d(d: int) -> int:
    if d == 3:
        return 1
    if d >= 4 and d % 2 == 0:
        return d // 2
    raise ValueError(f"gadget size {d} does not match any alpha (3 or even >= 4)")


def _matrices(bits: list[int], at: int, m: int) -> tuple[list[list[int]], list[list[int]], int]:
    x = [[bits[at + r * m + c] for c in range(m)] for r in range(m)]
    at += m * m
    y = [[bits[at + r * m + c] for c in range(m)] for r in range(m)]
    return x, y, at + m * m


def cmd_gen(args) -> int:
    seed = args.seed or 0
    fam = args.family
    if fam == "transitive":
        g = transitive_tournament(args.n)
    elif fam == "alpha":
        g = alpha_family(args.n, args.d)
    elif fam in ("plain", "triangle"):
        if args.d % 3 or args.n % args.d:
            raise ValueError("need d divisible by 3 and n divisible by d")
        m = args.d // 3
        count = args.n // args.d
        bits = _bits_from_arg(args.bits, 2 * m * m * count, seed)
        build = gadget_plain if fam == "plain" else gadget_triangle
        gadgets, at = [], 0
        for _ in range(count):
            x, y, at = _matrices(bits, at, m)
            gadgets.append(build(x, y))
        from .hardgen import embed_tournament

        g = embed_tournament(gadgets, args.d)
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
            from .hardgen import embed_tournament

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
    plan = RecursionPlan(p=args.passes, mp_passes=args.mp_passes)
    ledger = None
    if args.strict_space:
        budget = _eval_budget(args.strict_space, {"n": stream.n, "p": args.passes})
        ledger = SpaceLedger(strict=True, budget=budget)
    cert, stats = one_cert_stream(stream, plan, ledger=ledger)
    _emit_cert(cert, stats, {"model": stream.model})
    return 0


def cmd_kcert(args) -> int:
    stream = _stream(args.input)
    plan = RecursionPlan(p=args.passes)
    seed = args.seed or 0
    if args.mode == "peel":
        cert, stats = k_arc_cert_peeling(stream, args.k, plan)
    else:
        rho = args.rho if args.rho is not None else 1.0 / args.k
        scheme = SampleScheme(rho=rho, r=args.r, seed=seed, mode=args.mode)
        runner = k_node_cert if args.mode == "node" else k_arc_cert_sampled
        cert, stats = runner(stream, args.k, scheme, plan)
    _emit_cert(cert, stats, {"model": stream.model, "mode": args.mode})
    return 0


def cmd_verify(args) -> int:
    code, report = bench.verify_all(args.graph, args.cert, args.k, args.kind)
    print(report)
    return code


def cmd_congest(args) -> int:
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
        marks, trace = congest_k_cert(net, args.k, args.rho, seed)
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


def cmd_bench(args) -> int:
    if args.family == "tournament":
        alphas = [int(a) for a in args.alphas.split(",")]
        families = bench.tournament_families(alphas, args.n)
    else:
        families = [(f"circulant-k{args.k}", circulant(args.n, args.k))]
    rows = bench.bench_space_passes(
        families,
        alg=args.alg,
        p_values=[int(p) for p in args.p_list.split(",")],
        seeds=[int(s) for s in args.seeds.split(",")],
        models=args.models.split(","),
        k=args.k,
    )
    if args.out_dir:
        config = {k: v for k, v in vars(args).items() if k != "func"}
        csv_path, manifest_path = bench.save_results(rows, args.out_dir, config)
        print(f"wrote {csv_path} and {manifest_path}")
    elif args.format == "json":
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(bench.rows_to_csv(rows), end="")
    return 0


# ---------------------------------------------------------------------------
# application commands (certificate computed from the input stream first)
# ---------------------------------------------------------------------------


def _cert_of(args, k: int = 1) -> Certificate:
    g = _graph(args.input)
    stream = ArcStream.from_graph(g, INSERTION_ONLY, seed=args.seed)
    plan = RecursionPlan(p=args.passes)
    if k == 1:
        cert, _ = one_cert_stream(stream, plan)
        return cert
    scheme = SampleScheme(rho=1.0 / k, seed=args.seed or 0)
    cert, _ = k_node_cert(stream, k, scheme, plan)
    return cert


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
    clauses = []
    nvars = 0
    for ln in _read(args.input).splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        a, b = (int(tok) for tok in ln.split())
        clauses.append((a, b))
        nvars = max(nvars, abs(a), abs(b))
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
    print(apps.transitive_closure_from_cert(_cert_of(args)).to_text(), end="")
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
    p.add_argument("--mp-passes", type=int, default=None)
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
    p.add_argument("--rho", type=float, default=0.5)
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
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seeds", default="0")
    p.add_argument("--out-dir", default=None)
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
