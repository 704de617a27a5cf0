"""Closed-form reduction formulas for generalized hypergeometric functions,
a direct series evaluator used as the ground-truth oracle, and a randomized
verifier that checks the two against each other."""

from .catalog import (
    CatalogEntry,
    ReductionRequest,
    catalog_ids,
    get_entry,
    lhs_spec,
    reduce,
    sample_request,
)
from .errors import (
    DegenerateParametersError,
    DivergentSeriesError,
    DomainError,
    HyperreduceError,
    LowerPoleError,
    NonConvergentAtUnityError,
    PoleError,
    UnsatisfiableDomainError,
)
from .reductions import (
    bateman_next,
    expand_main,
    h_derivative,
    pfp_polynomial_coeffs,
    psi_sum_alternating,
    psi_sum_closed,
    ratio_derivative,
    reduce_corollary,
)
from .series import (
    DEFAULT_MAX_TERMS,
    DEFAULT_TOL,
    EvalResult,
    PFQSpec,
    Status,
    eval_pfq,
    terminating_order,
    unity_margin,
)
from .verifier import (
    CaseResult,
    Report,
    VerificationCase,
    run_case,
    run_suite,
    sample_cases,
)

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "ReductionRequest",
    "catalog_ids",
    "get_entry",
    "lhs_spec",
    "reduce",
    "sample_request",
    "DegenerateParametersError",
    "DivergentSeriesError",
    "DomainError",
    "HyperreduceError",
    "LowerPoleError",
    "NonConvergentAtUnityError",
    "PoleError",
    "UnsatisfiableDomainError",
    "bateman_next",
    "expand_main",
    "h_derivative",
    "pfp_polynomial_coeffs",
    "psi_sum_alternating",
    "psi_sum_closed",
    "ratio_derivative",
    "reduce_corollary",
    "DEFAULT_MAX_TERMS",
    "DEFAULT_TOL",
    "EvalResult",
    "PFQSpec",
    "Status",
    "eval_pfq",
    "terminating_order",
    "unity_margin",
    "CaseResult",
    "Report",
    "VerificationCase",
    "run_case",
    "run_suite",
    "sample_cases",
    "__version__",
]
