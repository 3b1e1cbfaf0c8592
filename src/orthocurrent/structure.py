"""End-to-end verification, classification and certificates.

This module ties the layers together.  `verify_current_form` proves by
exact computation that the derived algebra M of a 4-dimensional
orthogonal Lie algebra has, in its distinguished basis, the same
multiplication table as (3-dimensional core) tensor F[X]/(X^2 - D), and
repeats the comparison for a random 3-dimensional subspace with
nondegenerate restriction.  `classify` turns the analysis of the
quadratic quotient into one of three machine-checkable decomposition
certificates, each carrying every witness needed for independent
re-verification.  `inseparable_counterexample` exhibits the loss of
semisimplicity after an inseparable base change over F_p(t).

Certificates serialize to a stable JSON schema and can be re-checked from
the JSON alone; the checker rebuilds everything from the field and form
literals and never trusts recorded flags.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .coeff_algebra import (
    FIELD,
    LOCAL,
    SPLIT,
    analyze_quadratic,
    power_quotient,
    quadratic_quotient,
)
from .exact_linalg import (
    Matrix,
    Subspace,
    canonicalize_subspace,
    commutators,
    subspace_meet_join,
)
from .forms import (
    BilinearForm,
    Degenerate,
    diagonal_form,
    discriminant,
    orthogonal_complement,
    orthogonalize,
    restrict,
)
from .liealg import (
    LieAlgebraSC,
    NotClosed,
    Tensor,
    Vector,
    WrongDimension,
    bracket_span,
    current_algebra,
    derived_series_of_subspace,
    derived_subspace,
    is_ideal,
    paper_table,
    quotient_algebra,
    skew_adjoint_algebra,
    table_rows,
    tables_equal,
    tensor_current,
)
from .scalars import (
    DescriptorMismatch,
    FieldDescriptor,
    FieldElement,
    KIND_FUNFIELD,
    KIND_PRIME,
    KIND_QUADEXT,
    check_literal_digits,
    function_field,
    is_square,
    lift_to_extension,
    parse_field,
    parse_scalar,
    pth_root,
    quadratic_extension,
    render_field,
    render_scalar,
    substitute,
)


class UnsupportedPrime(ValueError):
    """The counterexample construction is limited to p in {2, 3}."""


class NondegenerateWRequired(RuntimeError):
    """No random 3-dimensional subspace with nondegenerate restriction found."""


CASE_TWO_IDEALS = "two_simple_ideals"
CASE_SEMIDIRECT = "semidirect_N_R"
CASE_SIMPLE = "simple_by_descent"


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool


def _all_ok(checks: Sequence[Check]) -> bool:
    return all(c.ok for c in checks)


# ---------------------------------------------------------------------------
# Shared pipeline: form -> L -> M -> distinguished basis -> table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    """Everything derived from one diagonal form diag(a, b, c, d), with the
    table identity tying M to its current-algebra form proved once."""

    field: FieldDescriptor
    entries: tuple[FieldElement, ...]
    form: BilinearForm
    skew_dim: int  # dim L, for L the skew-adjoint algebra
    derived_span: Subspace  # [L, L], flattened
    algebra: LieAlgebraSC  # M on the distinguished basis f1..f3, h1..h3
    core: LieAlgebraSC  # core(a, b, c) on its f-basis
    disc: FieldElement
    identity: tuple[Check, Check]  # distinguished_basis_spans_derived, tables_match


def _derived_span(form: BilinearForm) -> tuple[int, Subspace]:
    """dim L, for L the skew-adjoint algebra of the form, and [L, L] as the
    span of the flattened commutators of L's basis.

    Raises NotClosed when a basis row of [L, L] is not in L's span.  That
    span is read off L's basis, whose flattenings are a reduced echelon
    basis as `skew_adjoint_algebra` returns them: no elimination runs.
    """
    mats = skew_adjoint_algebra(form)
    field, size = form.field, form.dim * form.dim
    flats = [m.flatten() for m in mats]
    pivots = tuple(next(k for k, x in enumerate(row) if not x.is_zero()) for row in flats)
    skew = Subspace(field, size, Matrix(field, flats), pivots)
    derived = canonicalize_subspace(field, commutators(mats).values(), size)
    if not all(skew.contains(row) for row in derived.basis.rows):
        raise NotClosed("a commutator of the skew-adjoint basis escapes its span")
    return len(mats), derived


def _spans(alg: LieAlgebraSC, space: Subspace) -> bool:
    """Whether the algebra's matrices span the space: exactly when their
    rank, the algebra's dimension since building it proved them independent,
    is the space's dimension and each matrix lies in it."""
    return alg.dim == space.dim and all(space.contains(m.flatten()) for m in alg.realization)


def current_table(core: LieAlgebraSC, disc: FieldElement) -> LieAlgebraSC:
    """core tensor F[X]/(X^2 - D) on the positional basis."""
    return tensor_current(core, quadratic_quotient(disc))


def build_pipeline(field: FieldDescriptor, entries: Sequence[FieldElement]) -> Pipeline:
    entries = tuple(entries)
    if len(entries) != 4:
        raise WrongDimension("expected four diagonal entries")
    form = diagonal_form(field, entries)
    skew_dim, derived_span = _derived_span(form)
    algebra = current_algebra(entries)
    core = current_algebra(entries[:3])
    disc = discriminant(form)
    identity = (
        Check("distinguished_basis_spans_derived", _spans(algebra, derived_span)),
        # M's table equals that of core tensor F[X]/(X^2 - D), entry by
        # entry under the positional correspondence.
        Check("tables_match",
              tables_equal(algebra.constants, current_table(core, disc).constants)),
    )
    return Pipeline(
        field, entries, form, skew_dim, derived_span, algebra, core, disc, identity,
    )


# ---------------------------------------------------------------------------
# Verification of the current-algebra form.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomWReport:
    attempts: int
    subspace: Subspace
    diagonal: tuple[FieldElement, ...]
    disc: FieldElement
    equal: bool
    spans_match: bool


@dataclass(frozen=True)
class CurrentFormReport:
    field: FieldDescriptor
    entries: tuple[FieldElement, ...]
    disc: FieldElement
    dims: dict
    table: Tensor
    equal: bool
    seed: int
    random_w: RandomWReport
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return _all_ok(self.checks)


def _small_element(field: FieldDescriptor, rng: random.Random) -> FieldElement:
    """Low-height random scalar; keeps degree growth in check."""
    kind = field.kind
    if kind == KIND_FUNFIELD:
        lits = ("0", "1", field.var, f"{field.var}+1")
        return parse_scalar(rng.choice(lits), field)
    if kind == KIND_QUADEXT:
        u = _small_element(field.base, rng)
        v = _small_element(field.base, rng)
        return FieldElement(field, (u, v))
    if kind == KIND_PRIME:
        return field.from_int(rng.randrange(field.p))
    return field.from_int(rng.randint(-2, 2))


def _orthogonal_rows(pipe: Pipeline, rng: random.Random, max_tries: int,
                     ) -> tuple[int, Subspace, tuple[Vector, ...], tuple[FieldElement, ...]]:
    """A random 3-dimensional subspace W with nondegenerate restriction, an
    orthogonal basis w1, w2, w3 of W and w4 spanning its orthogonal
    complement, as (attempt, W, (w1, w2, w3, w4), (a', b', c', d')) with
    the squares that the orthogonalization claims and d' = f(w4, w4)."""
    field = pipe.field
    form = pipe.form
    for attempt in range(1, max_tries + 1):
        rows = [[_small_element(field, rng) for _ in range(4)] for _ in range(3)]
        w = canonicalize_subspace(field, rows, 4)
        if w.dim != 3:
            continue
        restricted = restrict(form, w)
        if not restricted.nondegenerate:
            continue
        ortho = orthogonalize(restricted)
        w_rows = (ortho.basis * w.basis).rows
        complement = orthogonal_complement(form, w)
        w4 = complement.basis.rows[0]
        d4 = form.evaluate(w4, w4)
        if d4.is_zero():
            raise Degenerate("orthogonal complement is degenerate")
        return attempt, w, w_rows + (w4,), tuple(ortho.diagonal) + (d4,)
    raise NondegenerateWRequired(
        f"no nondegenerate restriction found in {max_tries} attempts"
    )


def _random_w_leg(pipe: Pipeline, rng: random.Random, max_tries: int) -> RandomWReport:
    """Re-verify the table identity for a random 3-dimensional subspace.

    The restriction is orthogonalized and extended by the 1-dimensional
    orthogonal complement to an orthogonal basis w1..w4 of the whole
    space, with squares G' = diag(a', b', c', d').  The leg checks three
    facts:

    - isometry: f(w_r, w_s) is g'_r for r = s and 0 otherwise, for the 10
      pairs r <= s, that is B G B^T = G' for B the matrix of the rows;
    - table: M for G', built by `current_algebra`, has the paper's table
      at (a', b', c', d');
    - span: its basis spans [L', L'], the derived span of G'.

    G' is nonsingular, so the isometry makes B invertible, and
    x -> B^T x B^-T is then a Lie isomorphism from L(G') onto L(G).  It
    carries [L', L'] onto [L, L] and the distinguished basis for G' onto
    the conjugated basis B^T m B^-T of M, so the two facts at G' are facts
    about that basis.  `random_w_tables_match` is isometry and table,
    `random_w_spans_match` is isometry and span.
    """
    attempt, w, rows, primed = _orthogonal_rows(pipe, rng, max_tries)
    form, zero = pipe.form, pipe.field.zero()
    isometry = all(
        form.evaluate(rows[r], rows[s]) == (primed[r] if r == s else zero)
        for r in range(4) for s in range(r, 4)
    )
    at_primed = current_algebra(primed)
    table = tables_equal(at_primed.constants, paper_table(table_rows(*primed)))
    derived = _derived_span(diagonal_form(pipe.field, primed))[1]
    span = _spans(at_primed, derived)
    d_primed = primed[0] * primed[1] * primed[2] * primed[3]
    return RandomWReport(attempt, w, primed, d_primed, isometry and table, isometry and span)


def verify_current_form(field: FieldDescriptor, entries: Sequence[FieldElement],
                        seed: int = 0, max_tries: int = 32) -> CurrentFormReport:
    """Exact verification that M matches its current-algebra form.

    Builds the derived algebra of the skew-adjoint algebra of
    diag(a, b, c, d), expresses it in the distinguished basis, and
    compares the table entrywise against core(diag(a, b, c)) tensor
    F[X]/(X^2 - D) under the positional correspondence.  A second pass
    repeats the comparison through a random nondegenerate 3-dimensional
    subspace drawn from the given seed.
    """
    pipe = build_pipeline(field, entries)
    char2 = field.characteristic() == 2
    core_skew_dim, core_span = _derived_span(diagonal_form(field, pipe.entries[:3]))
    rng = random.Random(seed)
    random_w = _random_w_leg(pipe, rng, max_tries)
    dims = {
        "skew_adjoint": pipe.skew_dim,
        "derived": pipe.derived_span.dim,
        "core_skew_adjoint": core_skew_dim,
        "core_derived": core_span.dim,
    }
    dimension_laws = (
        dims["skew_adjoint"] == (10 if char2 else 6)
        and dims["derived"] == 6
        and dims["core_skew_adjoint"] == (6 if char2 else 3)
        and dims["core_derived"] == 3
    )
    spans_derived, tables_match = pipe.identity
    checks = (
        spans_derived,
        Check("core_basis_spans_derived", _spans(pipe.core, core_span)),
        tables_match,
        Check("dimension_laws", dimension_laws),
        Check("random_w_spans_match", random_w.spans_match),
        Check("random_w_tables_match", random_w.equal),
        Check(
            "random_w_square_class_invariant",
            (is_square(pipe.disc) is None) == (is_square(random_w.disc) is None),
        ),
    )
    return CurrentFormReport(
        field, pipe.entries, pipe.disc, dims, pipe.algebra.constants,
        tables_match.ok, seed, random_w, checks,
    )


# ---------------------------------------------------------------------------
# Simplicity by descent.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplicityCertificate:
    """Inference record: perfect over the extension => simple over the
    extension (3-dimensional) => simple over the base field.

    The last step holds because the extension-span of a nonzero ideal
    over the base is a nonzero ideal over the extension, which by
    simplicity is everything, and perfection pulls it back down.
    """

    extension: FieldDescriptor
    base: FieldDescriptor
    extension_kind: str
    constants: Tensor
    derived_dim: int
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return _all_ok(self.checks)


def certify_simple_via_descent(alg: LieAlgebraSC, base: FieldDescriptor) -> SimplicityCertificate:
    """Descent certificate for a 3-dimensional algebra over an extension
    field; its checks fail when the algebra is not perfect."""
    if alg.dim != 3:
        raise WrongDimension("descent certificates cover 3-dimensional algebras")
    ext = alg.field
    if ext.kind == KIND_QUADEXT and ext.base == base:
        extension_kind = "quadratic"
    elif (
        ext.kind == KIND_FUNFIELD
        and base.kind == KIND_FUNFIELD
        and ext.p == base.p
        and ext.var != base.var
    ):
        # F_p(u) over F_p(t) through t -> u^p
        extension_kind = "inseparable_degree_p"
    else:
        raise DescriptorMismatch("field pair is not a supported extension")
    dd = derived_subspace(alg).dim
    perfect = dd == 3
    # The inference steps of the class docstring: a perfect 3-dimensional
    # algebra is simple, and simplicity over ext with perfection descends.
    simple_ext = perfect
    checks = (
        Check("perfect_over_extension", perfect),
        Check("simple_over_extension_dim3", simple_ext),
        Check("simple_over_base_by_span", perfect and simple_ext),
    )
    return SimplicityCertificate(
        ext, base, extension_kind, alg.constants, dd, checks
    )


# ---------------------------------------------------------------------------
# Decomposition certificates.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionCertificate:
    case: str
    field: FieldDescriptor
    entries: tuple[FieldElement, ...]
    disc: FieldElement
    table: Tensor
    witnesses: dict
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return _all_ok(self.checks)


def _perfect_subspace_checks(alg: LieAlgebraSC, space: Subspace, label: str) -> list[Check]:
    """A closed space is a subalgebra whose inclusion into alg is injective,
    so its derived algebra has the dimension of the span of its brackets,
    and it is perfect when that dimension is its own."""
    brackets = bracket_span(alg, space)
    closed = all(space.contains(row) for row in brackets.basis.rows)
    return [
        Check(f"{label}_dim_3", space.dim == 3),
        Check(f"{label}_bracket_closed", closed),
        Check(f"{label}_perfect", closed and brackets.dim == space.dim),
    ]


def _core_tensor(*coeffs: Vector) -> Subspace:
    """Span of f_i (x) c over i = 1, 2, 3 and the given coefficient vectors
    c, in the coefficient-major basis of tensor_current."""
    field = coeffs[0][0].field
    dim = 3 * len(coeffs[0])
    rows = []
    for c in coeffs:
        for i in range(3):
            row = [field.zero()] * dim
            for j, x in enumerate(c):
                row[3 * j + i] = x
            rows.append(row)
    return canonicalize_subspace(field, rows, dim)


def _base_change(alg: LieAlgebraSC, field: FieldDescriptor, image) -> LieAlgebraSC:
    """alg over `field`, each structure constant mapped by `image`."""
    constants = tuple(
        tuple(tuple(image(x) for x in entry) for entry in row) for row in alg.constants
    )
    return LieAlgebraSC(field, alg.dim, constants)


# The witness checks below are shared by classify and the checker; each
# caller adds the checks that only it can make around them.


def _sum_checks(a: Subspace, b: Subspace) -> list[Check]:
    meet, join = subspace_meet_join(a, b)
    return [
        Check("sum_direct", meet.dim == 0),
        Check("sum_is_everything", join.dim == join.ambient_dim),
    ]


def _ideal_pair_checks(alg: LieAlgebraSC, i1: Subspace, i2: Subspace) -> list[Check]:
    return [
        Check("I1_ideal", is_ideal(alg, i1)),
        Check("I2_ideal", is_ideal(alg, i2)),
        *_sum_checks(i1, i2),
    ]


def _semidirect_checks(alg: LieAlgebraSC, n_space: Subspace,
                       r_space: Subspace) -> tuple[list[Check], list[Check]]:
    """The checks on N and R that open the case, and N's perfection checks
    that close it.  N is a subalgebra exactly when its brackets lie in it,
    so N_subalgebra is N_bracket_closed, computed once."""
    n_checks = _perfect_subspace_checks(alg, n_space, "N")
    _, n_closed, _ = n_checks
    return [
        Check("N_subalgebra", n_closed.ok),
        Check("R_ideal", is_ideal(alg, r_space)),
        Check("R_dim_3", r_space.dim == 3),
        Check("R_abelian", bracket_span(alg, r_space).dim == 0),
    ], n_checks


def _split_certificate(pipe: Pipeline, analysis) -> tuple[dict, list[Check]]:
    alg = pipe.algebra
    i1 = _core_tensor(analysis.e_plus)
    i2 = _core_tensor(analysis.e_minus)
    checks = _ideal_pair_checks(alg, i1, i2)
    checks += _perfect_subspace_checks(alg, i1, "I1")
    checks += _perfect_subspace_checks(alg, i2, "I2")
    witnesses = {
        "I1": i1,
        "I2": i2,
        "e_plus": analysis.e_plus,
        "e_minus": analysis.e_minus,
        "sqrt_D": analysis.sqrt_d,
    }
    return witnesses, checks


def _semidirect_certificate(pipe: Pipeline, analysis) -> tuple[dict, list[Check]]:
    alg = pipe.algebra
    n_space = _core_tensor(analysis.algebra.unit())
    r_space = _core_tensor(analysis.nilpotent)
    checks, n_checks = _semidirect_checks(alg, n_space, r_space)
    checks.append(Check("R_solvable", checks[-1].ok))  # abelian, hence solvable
    checks += _sum_checks(n_space, r_space)
    checks += n_checks
    witnesses = {
        "N": n_space,
        "R": r_space,
        "nilpotent": analysis.nilpotent,
        "sqrt_D": analysis.sqrt_d,
    }
    return witnesses, checks


def _descent_certificate(pipe: Pipeline, ext: FieldDescriptor) -> tuple[dict, list[Check]]:
    """The core lifted to ext = F[sqrt D] and certified simple by descent;
    the first two checks are discriminant_non_square and
    perfect_over_extension."""
    core_ext = _base_change(pipe.core, ext, lambda x: lift_to_extension(x, ext))
    descent = certify_simple_via_descent(core_ext, pipe.field)
    checks = [
        Check("discriminant_non_square", is_square(pipe.disc) is None),
        *descent.checks,
    ]
    return {"extension": ext, "descent": descent}, checks


def classify(field: FieldDescriptor, entries: Sequence[FieldElement]) -> DecompositionCertificate:
    """Decomposition certificate of M for diag(a, b, c, d).

    The variant is a function of the characteristic and of the square
    class of the discriminant: two simple ideals (split), semidirect
    N and R (characteristic 2, square discriminant), or simple by
    descent (non-square).  Every certificate embeds the table identity
    check tying M to its current-algebra form.
    """
    pipe = build_pipeline(field, entries)
    analysis = analyze_quadratic(pipe.disc)
    if analysis.variant == SPLIT:
        case = CASE_TWO_IDEALS
        witnesses, checks = _split_certificate(pipe, analysis)
    elif analysis.variant == LOCAL:
        case = CASE_SEMIDIRECT
        witnesses, checks = _semidirect_certificate(pipe, analysis)
    else:
        case = CASE_SIMPLE
        witnesses, checks = _descent_certificate(pipe, analysis.extension)
    return DecompositionCertificate(
        case, field, pipe.entries, pipe.disc, pipe.algebra.constants,
        witnesses, pipe.identity + tuple(checks),
    )


# ---------------------------------------------------------------------------
# The inseparable-base-change counterexample.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    p: int
    base_field: FieldDescriptor
    extension_field: FieldDescriptor
    s: FieldElement
    current_dim: int
    radical: Subspace
    abelian_ideal: Subspace
    quotient_perfect: bool
    quotient_dim: int
    descent: SimplicityCertificate
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return _all_ok(self.checks)


def inseparable_counterexample(p: int = 2) -> CounterexampleReport:
    """Simplicity lost after inseparable base change, exhibited exactly.

    Over F = F_p(t) the variable s = t has no p-th root, so
    K = F[X]/(X^p - s) is a field, realized concretely as F_p(u) with
    t mapped to u^p.  The core algebra P stays simple over K (descent),
    but P tensor K[X]/(X^p - s) = P tensor K[X]/(X - u)^p acquires the
    nonzero solvable ideal P tensor (x - u), so it is not semisimple.
    The report carries the radical, a 3-dimensional abelian ideal inside
    it, and the perfect 3-dimensional quotient.
    """
    if p not in (2, 3):
        raise UnsupportedPrime("counterexample is built for p in {2, 3}")
    base = function_field(p, "t")
    ext = function_field(p, "u")
    s_base = parse_scalar("t", base)
    s_has_root = pth_root(s_base) is not None
    u = parse_scalar("u", ext)
    s_ext = u ** p

    # Core over F, then base-changed to K through t -> u^p.
    core_k = _base_change(current_algebra([base.one()] * 3), ext, lambda x: substitute(x, s_ext))
    descent = certify_simple_via_descent(core_k, base)

    coeff = power_quotient(s_ext, p)
    current = tensor_current(core_k, coeff)
    dim = current.dim

    # The maximal ideal of K[X]/(X - u)^p is generated by n = x - u;
    # the radical of the current algebra is core tensor that ideal.
    n_coords = list(coeff.generator)
    n_coords[0] = n_coords[0] - u
    n_powers = [tuple(n_coords)]
    for _ in range(p - 2):
        n_powers.append(coeff.multiply(n_powers[-1], n_coords))
    radical = _core_tensor(*n_powers)
    abelian = _core_tensor(n_powers[-1])

    chain = derived_series_of_subspace(current, radical)
    quotient = quotient_algebra(current, radical)
    quotient_perfect = derived_subspace(quotient).dim == quotient.dim

    abelian_brackets = bracket_span(current, abelian)
    checks = (
        Check("s_has_no_pth_root", not s_has_root),
        Check("radical_nonzero", radical.dim > 0),
        Check("radical_dim", radical.dim == 3 * (p - 1)),
        Check("radical_ideal", is_ideal(current, radical)),
        Check("radical_solvable", chain[-1].dim == 0),
        Check("abelian_ideal_dim_3", abelian.dim == 3),
        Check("abelian_ideal_ideal", is_ideal(current, abelian)),
        Check("abelian_ideal_abelian", abelian_brackets.dim == 0),
        Check("quotient_perfect_dim_3", quotient_perfect and quotient.dim == 3),
        Check("core_simple_over_base", descent.ok),
    )
    return CounterexampleReport(
        p, base, ext, s_base, dim, radical, abelian, quotient_perfect,
        quotient.dim, descent, checks,
    )


# ---------------------------------------------------------------------------
# JSON serialization and the independent checker.
# ---------------------------------------------------------------------------


def subspace_to_json(space: Subspace) -> list[list[str]]:
    return [[render_scalar(x) for x in row] for row in space.basis.rows]


def tensor_to_json(tensor: Tensor) -> list:
    return [[[render_scalar(x) for x in entry] for entry in row] for row in tensor]


def checks_to_json(checks: Sequence[Check]) -> list[dict]:
    return [{"name": c.name, "ok": c.ok} for c in checks]


def _subspace_from_json(rows: list[list[str]], field: FieldDescriptor,
                        ambient: int) -> Subspace:
    parsed = [[parse_scalar(x, field) for x in row] for row in rows]
    return canonicalize_subspace(field, parsed, ambient)


def descent_to_json(cert: SimplicityCertificate) -> dict:
    return {
        "extension": render_field(cert.extension),
        "base": render_field(cert.base),
        "extension_kind": cert.extension_kind,
        "constants": tensor_to_json(cert.constants),
        "derived_dim": cert.derived_dim,
        "checks": checks_to_json(cert.checks),
    }


def certificate_to_json(cert: DecompositionCertificate) -> dict:
    witnesses = {}
    if cert.case == CASE_TWO_IDEALS:
        witnesses["I1"] = subspace_to_json(cert.witnesses["I1"])
        witnesses["I2"] = subspace_to_json(cert.witnesses["I2"])
        witnesses["e_plus"] = [render_scalar(x) for x in cert.witnesses["e_plus"]]
        witnesses["e_minus"] = [render_scalar(x) for x in cert.witnesses["e_minus"]]
        witnesses["sqrt_D"] = render_scalar(cert.witnesses["sqrt_D"])
    elif cert.case == CASE_SEMIDIRECT:
        witnesses["N"] = subspace_to_json(cert.witnesses["N"])
        witnesses["R"] = subspace_to_json(cert.witnesses["R"])
        witnesses["nilpotent"] = [render_scalar(x) for x in cert.witnesses["nilpotent"]]
        witnesses["sqrt_D"] = render_scalar(cert.witnesses["sqrt_D"])
    else:
        witnesses["extension"] = render_field(cert.witnesses["extension"])
        witnesses["descent"] = descent_to_json(cert.witnesses["descent"])
    return {
        "case": cert.case,
        "field": render_field(cert.field),
        "form": [render_scalar(x) for x in cert.entries],
        "D": render_scalar(cert.disc),
        "table": tensor_to_json(cert.table),
        "witnesses": witnesses,
        "checks": checks_to_json(cert.checks),
        "command": "classify",
    }


def recheck_certificate_json(data: dict) -> list[Check]:
    """Independent checker: rebuild M from the literals and re-run every
    invariant of the claimed case against the recorded witnesses."""
    check_literal_digits(data["field"], *data["form"])
    field = parse_field(data["field"])
    entries = [parse_scalar(x, field) for x in data["form"]]
    pipe = build_pipeline(field, entries)
    alg = pipe.algebra
    checks = [
        Check("recorded_discriminant_matches", render_scalar(pipe.disc) == data["D"]),
        Check("recorded_table_matches", tensor_to_json(alg.constants) == data["table"]),
        *pipe.identity,
    ]
    case = data["case"]
    analysis = analyze_quadratic(pipe.disc)
    expected_case = {
        SPLIT: CASE_TWO_IDEALS,
        LOCAL: CASE_SEMIDIRECT,
        FIELD: CASE_SIMPLE,
    }[analysis.variant]
    checks.append(Check("case_matches_square_class", case == expected_case))
    quotient = analysis.algebra
    if case == CASE_TWO_IDEALS:
        i1 = _subspace_from_json(data["witnesses"]["I1"], field, 6)
        i2 = _subspace_from_json(data["witnesses"]["I2"], field, 6)
        e_plus = tuple(parse_scalar(x, field) for x in data["witnesses"]["e_plus"])
        e_minus = tuple(parse_scalar(x, field) for x in data["witnesses"]["e_minus"])
        zero2 = (field.zero(), field.zero())
        checks += _ideal_pair_checks(alg, i1, i2)
        checks += [
            Check("e_plus_idempotent", quotient.multiply(e_plus, e_plus) == e_plus),
            Check("e_minus_idempotent", quotient.multiply(e_minus, e_minus) == e_minus),
            Check("idempotents_orthogonal", quotient.multiply(e_plus, e_minus) == zero2),
            Check(
                "idempotents_sum_to_unit",
                tuple(a + b for a, b in zip(e_plus, e_minus)) == quotient.unit(),
            ),
        ]
        checks += _perfect_subspace_checks(alg, i1, "I1")
        checks += _perfect_subspace_checks(alg, i2, "I2")
    elif case == CASE_SEMIDIRECT:
        n_space = _subspace_from_json(data["witnesses"]["N"], field, 6)
        r_space = _subspace_from_json(data["witnesses"]["R"], field, 6)
        nilpotent = tuple(parse_scalar(x, field) for x in data["witnesses"]["nilpotent"])
        zero2 = (field.zero(), field.zero())
        semidirect, n_checks = _semidirect_checks(alg, n_space, r_space)
        checks += semidirect
        checks += _sum_checks(n_space, r_space)
        checks += [
            Check("nilpotent_nonzero", nilpotent != zero2),
            Check("nilpotent_squares_to_zero", quotient.multiply(nilpotent, nilpotent) == zero2),
        ]
        checks += n_checks
    elif case == CASE_SIMPLE:
        ext = parse_field(data["witnesses"]["extension"])
        _, descent_checks = _descent_certificate(pipe, ext)
        checks += descent_checks[:2]  # discriminant_non_square, perfect_over_extension
        checks.append(
            Check("recorded_extension_matches", ext == quadratic_extension(field, pipe.disc))
        )
    else:
        checks.append(Check("known_case", False))
    return checks
