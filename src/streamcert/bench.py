"""Benchmark harness: space-vs-pass tables and file-level verification."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path
from typing import Sequence

from . import __version__
from .certify_k import SampleScheme, k_arc_cert_peeling, k_node_cert
from .certify_one import Certificate, RecursionPlan, one_cert_stream, validate_one_cert
from .digraph import Digraph
from .exact import validate_certificate
from .streams import INSERTION_ONLY, ArcStream

CSV_FIELDS = ("n", "alpha", "k", "p", "model", "peak_words", "passes", "cert_size", "verified")


def bench_space_passes(
    families: Sequence[tuple[str, Digraph, int]],
    alg: str = "one",
    p_values: Sequence[int] = (1, 2, 3),
    seeds: Sequence[int] = (0,),
    models: Sequence[str] = (INSERTION_ONLY,),
    k: int = 1,
) -> list[dict]:
    """One row per (family graph, p, model, seed): space, passes, size, verdict.
    Each family is ``(name, graph, alpha)``: its generator fixes the independence
    number, which the ``alpha`` column reports."""
    if alg not in ("one", "kcert", "peel"):
        raise ValueError(f"alg must be one|kcert|peel, got {alg!r}")
    rows = []
    for name, g, alpha in families:
        for model in models:
            for p in p_values:
                for seed in seeds:
                    ctx = f"family={name} n={g.n} p={p} model={model} seed={seed}"
                    try:
                        stream = ArcStream.from_graph(g, model, seed=seed)
                        cert, stats = _run_alg(alg, stream, k, p, seed)
                    except Exception as exc:
                        raise RuntimeError(f"benchmark row failed ({ctx}): {exc}") from exc
                    rows.append(
                        {
                            "n": g.n,
                            "alpha": alpha,
                            "k": cert.k,
                            "p": p,
                            "model": model,
                            "peak_words": stats.peak_words,
                            "passes": stats.passes,
                            "cert_size": len(cert.arcs),
                            "verified": _verdict(g, cert),
                        }
                    )
    return rows


def _run_alg(alg: str, stream: ArcStream, k: int, p: int, seed: int):
    plan = RecursionPlan(p=p)
    if alg == "one":
        return one_cert_stream(stream, plan)
    if alg == "peel":
        return k_arc_cert_peeling(stream, k, plan)
    scheme = SampleScheme(rho=1.0 / k, seed=seed)
    return k_node_cert(stream, k, scheme, plan)


def _verdict(g: Digraph, cert: Certificate) -> str:
    validate = validate_one_cert if cert.k == 1 and cert.kind == "node" else validate_certificate
    return "pass" if validate(g, cert).ok else "FAIL"


def rows_to_csv(rows: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def save_results(rows: Sequence[dict], out_dir: str | Path, config: dict) -> tuple[Path, Path]:
    """Persist rows as CSV plus a JSON manifest capturing the configuration."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    csv_path.write_text(rows_to_csv(rows))
    blob = json.dumps(config, sort_keys=True, default=str)
    manifest = {
        "version": __version__,
        "config": config,
        "config_hash": hashlib.sha256(blob.encode()).hexdigest(),
        "rows": len(rows),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))
    return csv_path, manifest_path


def verify_texts(graph_text: str, cert_text: str, k: int = 1, kind: str = "node") -> tuple[int, str]:
    """Exit code 0 iff the certificate text certifies the graph text at level k,
    and the report; every check runs at any n the parser accepts."""
    try:
        g = Digraph.from_text(graph_text)
        h = Digraph.from_text(cert_text)
    except ValueError as exc:
        return 2, f"error: {exc}"
    if h.n != g.n:
        return 2, f"error: node counts differ (graph {g.n}, certificate {h.n})"
    try:
        cert = Certificate(h.n, h.arcs, kind=kind, k=k)
        report = validate_certificate(g, cert)
    except ValueError as exc:
        return 2, f"error: {exc}"
    lines = [
        f"kind={kind} k={k} n={g.n} graph_arcs={g.m} cert_arcs={h.m}",
        f"contained={report.contained} violations={len(report.violations)}",
    ]
    for s, t, need, got in report.violations[:10]:
        lines.append(f"  pair ({s}, {t}): required {need}, certificate has {got}")
    lines.append("OK" if report.ok else "FAIL")
    return (0 if report.ok else 1), "\n".join(lines)


def tournament_families(
    alphas: Sequence[int] = (1, 2, 4), n: int = 64
) -> list[tuple[str, Digraph, int]]:
    """Embedded-tournament benchmark family at fixed n across alpha values, as
    ``(name, graph, alpha)``: ``alpha_family`` has independence number exactly
    alpha, or 0 when n < alpha leaves it empty."""
    from .hardgen import alpha_family

    out = []
    for alpha in alphas:
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        size = n - (n % alpha)
        out.append((f"tournament-a{alpha}", alpha_family(size, alpha), alpha if size else 0))
    return out


