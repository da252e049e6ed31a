"""Streaming strong-connectivity certificates and their applications."""

__version__ = "0.1.0"

from .certify_k import (
    InfeasibleBranchingError,
    PromiseViolationError,
    SampleScheme,
    extract_disjoint_branchings,
    k_arc_cert_peeling,
    k_arc_cert_sampled,
    k_node_cert,
)
from .certify_one import (
    Certificate,
    OneCertReport,
    OneCertRun,
    RecursionPlan,
    one_cert_stream,
    tc_preserving_prune,
    validate_one_cert,
)
from .digraph import (
    Branching,
    ChainCover,
    Digraph,
    GraphFormatError,
    chain_cover_minimum,
    scc_ids,
    scc_tarjan,
    transitive_closure,
)
from .exact import (
    CertValidationReport,
    kappa_st,
    lambda_st,
    validate_certificate,
)
from .streams import (
    INSERTION_ONLY,
    TURNSTILE,
    ArcStream,
    SpaceBudgetError,
    SpaceLedger,
    StreamFormatError,
    StreamIntegrityError,
    StreamStats,
    run_passes,
)

__all__ = [
    "ArcStream",
    "Branching",
    "CertValidationReport",
    "Certificate",
    "ChainCover",
    "Digraph",
    "GraphFormatError",
    "INSERTION_ONLY",
    "InfeasibleBranchingError",
    "OneCertReport",
    "OneCertRun",
    "PromiseViolationError",
    "RecursionPlan",
    "SampleScheme",
    "SpaceBudgetError",
    "SpaceLedger",
    "StreamFormatError",
    "StreamIntegrityError",
    "StreamStats",
    "TURNSTILE",
    "chain_cover_minimum",
    "extract_disjoint_branchings",
    "k_arc_cert_peeling",
    "k_arc_cert_sampled",
    "k_node_cert",
    "kappa_st",
    "lambda_st",
    "one_cert_stream",
    "run_passes",
    "scc_ids",
    "scc_tarjan",
    "tc_preserving_prune",
    "transitive_closure",
    "validate_certificate",
    "validate_one_cert",
]
