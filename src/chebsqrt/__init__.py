"""chebsqrt: exact rational approximants of sqrt(1 - z) and their verification.

The package constructs the linear-fraction, Newton and Halley iterate
sequences for sqrt(1 - z) in exact rational arithmetic, realizes their
Chebyshev-angle partial-fraction decomposition and closed-form series
coefficients at arbitrary binary precision, and ships an executable check
suite for the identities, sign patterns and disk error bounds these objects
satisfy.
"""

from .chebyshev import ChebKind, u_zero_nodes
from .closedform import (
    PartialFractionForm,
    coeff_closed_range,
    decompose,
    radius_of_convergence,
    tail_sum_identity,
)
from .errors import (
    BadIndex,
    BadRootOrder,
    CapExceeded,
    ChebsqrtError,
    DegenerateStep,
    NearPole,
    NotAnalyticAtZero,
    OnBranchCut,
    PoleAtPoint,
    ZeroDenominator,
)
from .exact import (
    Polynomial,
    RationalFunction,
    central_binomial_ratio,
    eval_ratfun_complex,
    poly_gcd,
    poly_to_json,
    root_series_coeffs,
    sqrt_series_coeff,
    taylor_coefficients,
)
from .iterates import (
    Scheme,
    halley_step,
    iterate,
    newton_step,
    v_iterate,
    v_step,
)
from .verify import (
    CheckResult,
    DiskGrid,
    GuoReport,
    check_coeff_formula,
    check_composition,
    check_disk_bound,
    check_guo_p2,
    check_head,
    check_head_lengths,
    check_monotone_improvement,
    check_mu_bound,
    check_radius_pole,
    check_ratio_identity,
    check_resummation,
    check_sqrt_consistency,
    check_tail_signs,
    check_tail_sum,
    check_uniform_compact,
    check_value_at_one,
    default_suite,
    guo_explore,
    sqrt_principal,
)

__version__ = "0.1.0"
