"""Exact construction and decomposition of 4-dimensional orthogonal Lie
algebras as current Lie algebras, over Q, F_p, F_p(t) and quadratic
extensions, with machine-checkable certificates."""

from .scalars import (
    FieldDescriptor,
    FieldElement,
    function_field,
    inv,
    is_square,
    parse_field,
    parse_scalar,
    poly_gcd,
    prime_field,
    pth_root,
    quadratic_extension,
    rationals,
    render_field,
    render_scalar,
)
from .exact_linalg import (
    Matrix,
    Subspace,
    canonicalize_subspace,
    kernel,
)
from .forms import (
    BilinearForm,
    diagonal_form,
    make_form,
    orthogonalize,
    restrict,
)
from .liealg import (
    LieAlgebraSC,
    quotient_product,
    skew_adjoint_algebra,
    tensor_current,
)
from .coeff_algebra import QuadraticAnalysis, analyze_quadratic
from .structure import (
    certify_simple_via_descent,
    classify,
    inseparable_counterexample,
    recheck_certificate_json,
    verify_current_form,
)
from .oracle import adjoint_tables, enumerate_ideals, gaussian_binomial

__version__ = "0.1.0"
