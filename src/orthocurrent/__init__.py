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
    poly_squarefree,
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
    rref,
    subspace_meet_join,
)
from .forms import (
    BilinearForm,
    diagonal_form,
    discriminant,
    make_form,
    orthogonalize,
    restrict,
)
from .liealg import (
    CoefficientAlgebra,
    LieAlgebraSC,
    algebra_from_matrices,
    current_algebra,
    current_basis,
    quotient_algebra,
    skew_adjoint_algebra,
    tables_equal,
    tensor_current,
)
from .coeff_algebra import QuadraticAnalysis, analyze_quadratic, quadratic_quotient
from .structure import (
    CounterexampleReport,
    CurrentFormReport,
    DecompositionCertificate,
    SimplicityCertificate,
    certificate_to_json,
    certify_simple_via_descent,
    classify,
    inseparable_counterexample,
    recheck_certificate_json,
    verify_current_form,
)
from .oracle import enumerate_ideals, gaussian_binomial

__version__ = "0.1.0"
