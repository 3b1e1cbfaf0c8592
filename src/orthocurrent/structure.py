"""End-to-end verification, classification and certificates.

This module ties the layers together.  `verify_current_form` certifies
that the derived algebra M of a 4-dimensional orthogonal Lie algebra has,
in its distinguished basis, the table of (3-dimensional core) tensor
F[X]/(X^2 - D), at the form and through a random 3-dimensional subspace
with nondegenerate restriction: M is evaluated from the table that
`liealg.prove_identity` proves, and every identity check reads a fact of
that proof, so no document builds a kernel or a commutator.  `classify` turns the analysis of the
quadratic quotient into one of three machine-checkable decomposition
certificates, each carrying every witness needed for independent
re-verification.  `inseparable_counterexample` exhibits the loss of
semisimplicity after an inseparable base change over F_p(t).

Each of these returns the JSON document of its command, built where the
result is computed; every check in it is a {"name", "ok"} dict.  The
checker rebuilds everything from a document's field and form literals and
never trusts recorded flags.  It and `classify` state each decomposition
case once: `_case_facts` computes the case's facts from its witnesses, and
each reads its checks off them in the order that CASE_CHECKS records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .coeff_algebra import (
    FIELD,
    LOCAL,
    SPLIT,
    analyze_quadratic,
    local_powers,
    nilpotent_witness_checks,
    split_witness_checks,
)
from .exact_linalg import Subspace, canonicalize_subspace
from .forms import (
    BilinearForm,
    diagonal_form,
    orthogonal_complement,
    orthogonalize,
)
from .liealg import (
    LieAlgebraSC,
    Vector,
    WrongDimension,
    bracket_span,
    derived_series_of_subspace,
    derived_subspace,
    evaluated_algebra,
    is_ideal,
    prove_identity,
    proven_dims,
    tensor_current,
)
from .scalars import (
    DescriptorMismatch,
    FieldDescriptor,
    FieldElement,
    KIND_FUNFIELD,
    KIND_PRIME,
    KIND_QUADEXT,
    ParseError,
    check_literal_digits,
    function_field,
    is_square,
    lift_to_extension,
    parse_field,
    parse_scalar,
    pth_root,
    render_field,
    render_scalar,
)


class UnsupportedPrime(ValueError):
    """The counterexample construction is limited to COUNTEREXAMPLE_PRIMES."""


class NondegenerateWRequired(RuntimeError):
    """No random 3-dimensional subspace with nondegenerate restriction found."""


CASE_TWO_IDEALS = "two_simple_ideals"
CASE_SEMIDIRECT = "semidirect_N_R"
CASE_SIMPLE = "simple_by_descent"
COUNTEREXAMPLE_PRIMES = (2, 3)  # the primes p of the counterexample, here and in the CLI
# Draws of W before the random-W leg gives up.  Verify documents do not
# record it, so verify and the checker must share it.
RANDOM_W_ATTEMPTS = 32


def _check(name: str, ok: bool) -> dict:
    return {"name": name, "ok": ok}


def subspace_to_json(space: Subspace) -> list[list[str]]:
    """The echelon rows, written out: zero wherever a row has no entry."""
    zero = render_scalar(space.field.zero())
    return [[render_scalar(row[j]) if j in row else zero for j in range(space.ambient_dim)]
            for row in space.rows]


def table_to_json(alg: LieAlgebraSC) -> list:
    """The algebra's full table, rendered: entry [i][j][k] is the
    coordinate k of [e_i, e_j], so -c at (j, i) for each bracket c at
    (i, j), and zero wherever no bracket puts a coordinate."""
    n, zero = alg.dim, render_scalar(alg.field.zero())
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in alg.brackets.items():
        for k, x in row.items():
            table[i][j][k], table[j][i][k] = render_scalar(x), render_scalar(-x)
    return table


# ---------------------------------------------------------------------------
# Shared pipeline: form -> L -> M -> distinguished basis -> table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    """Everything derived from one diagonal form diag(a, b, c, d): M
    evaluated from the proven identity, and the proof it rests on."""

    field: FieldDescriptor
    entries: tuple[FieldElement, ...]
    form: BilinearForm
    algebra: LieAlgebraSC  # M on the distinguished basis f1..f3, h1..h3
    disc: FieldElement
    proof: dict[str, bool]  # the facts of liealg.prove_identity
    identity: tuple[dict, dict]  # distinguished_basis_spans_derived, tables_match


def build_pipeline(field: FieldDescriptor, entries: Sequence[FieldElement]) -> Pipeline:
    entries = tuple(entries)
    if len(entries) != 4:
        raise WrongDimension("expected four diagonal entries")
    # evaluated_algebra names a zero diagonal entry before the form is found degenerate.
    algebra = evaluated_algebra(entries)
    form = diagonal_form(field, entries)
    disc = entries[0] * entries[1] * entries[2] * entries[3]
    proof = prove_identity()
    identity = (
        _check("distinguished_basis_spans_derived", proof["span"]),
        # M's table is TABLE_ROWS, which is core tensor F[X]/(X^2 - D).
        _check("tables_match", proof["table"] and proof["tensor"]),
    )
    return Pipeline(field, entries, form, algebra, disc, proof, identity)


# ---------------------------------------------------------------------------
# Verification of the current-algebra form.
# ---------------------------------------------------------------------------


def _small_elements(field: FieldDescriptor) -> Callable[[random.Random], FieldElement]:
    """A draw of a low-height random scalar, which keeps degree growth in
    check; over F_p(t) its four candidates are built once, here."""
    kind = field.kind
    if kind == KIND_FUNFIELD:
        small = tuple(parse_scalar(x, field) for x in ("0", "1", field.var, f"{field.var}+1"))
        return lambda rng: rng.choice(small)
    if kind == KIND_QUADEXT:
        base = _small_elements(field.base)
        return lambda rng: FieldElement(field, (base(rng), base(rng)))
    if kind == KIND_PRIME:
        return lambda rng: field.from_int(rng.randrange(field.p))
    return lambda rng: field.from_int(rng.randint(-2, 2))


def _orthogonal_rows(pipe: Pipeline, rng: random.Random
                     ) -> tuple[int, Subspace, tuple[Vector, ...], tuple[FieldElement, ...]]:
    """A random 3-dimensional subspace W with nondegenerate restriction, an
    orthogonal basis w1, w2, w3 of W and w4 spanning its orthogonal
    complement, as (attempt, W, (w1, w2, w3, w4), (a', b', c', d')) with
    the squares that the orthogonalization claims and d' = f(w4, w4).

    G is nondegenerate, so W^perp is the line through w4, and f|_W is
    degenerate exactly when W meets W^perp, that is when w4 lies in W.
    That holds exactly when d' = 0: w4 in W pairs to zero with itself, and
    if f(w4, w4) = 0, w4 pairs to zero with W + <w4>, which is therefore
    not the whole space, so w4 lies in W.  d' thus decides each attempt
    before any orthogonalization, which then runs on W's canonical basis
    rows themselves."""
    field = pipe.field
    form = pipe.form
    small = _small_elements(field)
    for attempt in range(1, RANDOM_W_ATTEMPTS + 1):
        rows = [[small(rng) for _ in range(4)] for _ in range(3)]
        w = canonicalize_subspace(field, rows, 4)
        if w.dim != 3:
            continue
        w4 = orthogonal_complement(form, w).basis.rows[0]
        d4 = form.evaluate(w4, w4)
        if d4.is_zero():
            continue
        ortho = orthogonalize(form, w.basis.rows)
        return attempt, w, ortho.basis.rows + (w4,), ortho.diagonal + (d4,)
    raise NondegenerateWRequired(
        f"no nondegenerate restriction found in {RANDOM_W_ATTEMPTS} attempts"
    )


def _random_w_leg(pipe: Pipeline, rng: random.Random) -> tuple[dict, list[dict]]:
    """Re-verify the table identity for a random 3-dimensional subspace.

    W's basis is orthogonalized under f and extended by the 1-dimensional
    orthogonal complement to an orthogonal basis w1..w4 of the whole
    space, with squares G' = diag(a', b', c', d').  The leg checks:

    - isometry: a'b'c'd' != 0, and f(w_r, w_s) is g'_r for r = s and 0
      otherwise, for the 10 pairs r <= s, each read off G w_s, that is
      B G B^T = G' for B the matrix of the rows, with G' nonsingular;
    - table and span: `liealg.prove_identity` proves over Z[a, b, c, d]
      that M's distinguished basis has the paper's table and spans [L, L]
      at every diagonal with abcd != 0, so at G'.

    G' is nonsingular, so the isometry makes B invertible, and
    x -> B^T x B^-T is then a Lie isomorphism from L(G') onto L(G).  It
    carries [L', L'] onto [L, L] and the distinguished basis for G' onto
    the conjugated basis B^T m B^-T of M, so the two facts at G' are facts
    about that basis.  `random_w_tables_match` is isometry and table,
    `random_w_spans_match` is isometry and span.

    Returns the `random_w` part of the verify document and the leg's
    checks: the two above and `random_w_square_class_invariant`.
    """
    attempt, w, rows, primed = _orthogonal_rows(pipe, rng)
    form, zero = pipe.form, pipe.field.zero()
    d_primed = primed[0] * primed[1] * primed[2] * primed[3]
    images = [form.image(row) for row in rows]
    isometry = not d_primed.is_zero() and all(
        form.pair(rows[r], images[s]) == (primed[r] if r == s else zero)
        for r in range(4) for s in range(r, 4)
    )
    proof = prove_identity()
    part = {
        "attempts": attempt,
        "subspace": subspace_to_json(w),
        "diagonal": [render_scalar(x) for x in primed],
        "D": render_scalar(d_primed),
        "equal": isometry and proof["table"],
    }
    return part, [
        _check("random_w_spans_match", isometry and proof["span"]),
        _check("random_w_tables_match", isometry and proof["table"]),
        _check("random_w_square_class_invariant",
               (is_square(pipe.disc) is None) == (is_square(d_primed) is None)),
    ]


def verify_current_form(field: FieldDescriptor, entries: Sequence[FieldElement],
                        seed: int = 0) -> dict:
    """The verify document: exact verification that M matches its
    current-algebra form.

    Evaluates M's table at diag(a, b, c, d) and reads each check off a
    fact of `liealg.prove_identity`: spans, table, core (x) F[X]/(X^2 - D)
    under the positional correspondence, and the dimension laws that
    `dims` records.  A second pass carries table and span through a
    random nondegenerate 3-dimensional subspace drawn from the seed.
    """
    pipe = build_pipeline(field, entries)
    char2 = field.characteristic() == 2
    proof = pipe.proof
    random_w, random_w_checks = _random_w_leg(pipe, random.Random(seed))
    (skew, derived), (core_skew, core_derived) = proven_dims(4, char2), proven_dims(3, char2)
    dims = {"skew_adjoint": skew, "derived": derived,
            "core_skew_adjoint": core_skew, "core_derived": core_derived}
    spans_derived, tables_match = pipe.identity
    return {
        "command": "verify",
        "field": render_field(field),
        "form": [render_scalar(x) for x in pipe.entries],
        "D": render_scalar(pipe.disc),
        "seed": seed,
        "dims": dims,
        "equal": tables_match["ok"],
        "table": table_to_json(pipe.algebra),
        "random_w": random_w,
        "checks": [
            spans_derived,
            _check("core_basis_spans_derived", proof["core_span"]),
            tables_match,
            _check("dimension_laws", proof["laws"] and proof["span"] and proof["core_span"]),
            *random_w_checks,
        ],
    }


# ---------------------------------------------------------------------------
# Simplicity by descent.
# ---------------------------------------------------------------------------


def certify_simple_via_descent(alg: LieAlgebraSC, base: FieldDescriptor) -> dict:
    """Descent document for a 3-dimensional algebra over an extension
    field; its checks fail when the algebra is not perfect.

    The checks record an inference: perfect over the extension => simple
    over the extension (3-dimensional) => simple over the base field.  The
    last step holds because the extension-span of a nonzero ideal over the
    base is a nonzero ideal over the extension, which by simplicity is
    everything, and perfection pulls it back down.
    """
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
    # The inference steps of the docstring: a perfect 3-dimensional
    # algebra is simple, and simplicity over ext with perfection descends.
    simple_ext = perfect
    return {
        "extension": render_field(ext),
        "base": render_field(base),
        "extension_kind": extension_kind,
        "constants": table_to_json(alg),
        "derived_dim": dd,
        "checks": [
            _check("perfect_over_extension", perfect),
            _check("simple_over_extension_dim3", simple_ext),
            _check("simple_over_base_by_span", perfect and simple_ext),
        ],
    }


# ---------------------------------------------------------------------------
# Decomposition certificates.
# ---------------------------------------------------------------------------


def _perfect_subspace_checks(alg: LieAlgebraSC, space: Subspace, label: str) -> list[dict]:
    """A closed space is a subalgebra whose inclusion into alg is injective,
    so its derived algebra has the dimension of the span of its brackets,
    and it is perfect when that dimension is its own."""
    brackets = bracket_span(alg, space)
    closed = all(space.contains(row) for row in brackets.rows)
    return [
        _check(f"{label}_dim_3", space.dim == 3),
        _check(f"{label}_bracket_closed", closed),
        _check(f"{label}_perfect", closed and brackets.dim == space.dim),
    ]


def _core_tensor(*coeffs: Vector) -> Subspace:
    """Span of f_i (x) c over i = 1, 2, 3 and the given coefficient vectors
    c, in the coefficient-major basis of tensor_current: f_i (x) x^j at 3j + i."""
    field, dim = coeffs[0][0].field, 3 * len(coeffs[0])
    rows = [{3 * j + i: x for j, x in enumerate(c)} for c in coeffs for i in range(3)]
    return canonicalize_subspace(field, rows, dim)


def _sum_checks(a: Subspace, b: Subspace) -> list[dict]:
    """A + B is direct exactly when dim(A + B) = dim A + dim B, since
    dim(A meet B) = dim A + dim B - dim(A + B)."""
    join = canonicalize_subspace(a.field, a.rows + b.rows, a.ambient_dim)
    return [
        _check("sum_direct", join.dim == a.dim + b.dim),
        _check("sum_is_everything", join.dim == join.ambient_dim),
    ]


def _facts(checks: list[dict]) -> dict[str, bool]:
    return {c["name"]: c["ok"] for c in checks}


def _local_facts(alg: LieAlgebraSC, n_space: Subspace, r_space: Subspace,
                 a_space: Subspace, p: int) -> dict[str, bool]:
    """The facts of the local case core (x) F[X]/(X - r)^p, keyed by every
    check name that reports them and computed once, for N = core (x) 1,
    R = core (x) (x - r)^k, k = 1..p-1, and A = core (x) (x - r)^(p-1), R at
    p = 2: N a perfect subalgebra with N (+) R everything, R an ideal of
    dimension 3(p - 1) whose derived series reaches 0 in exactly
    ceil(log2 p) steps, and A an abelian ideal."""
    steps = (p - 1).bit_length()
    series = derived_series_of_subspace(alg, r_space, steps)
    facts = _facts(_perfect_subspace_checks(alg, n_space, "N") + _sum_checks(n_space, r_space))
    facts["N_subalgebra"] = facts["N_bracket_closed"]  # a closed subspace is a subalgebra
    facts["R_ideal"] = facts["radical_ideal"] = is_ideal(alg, r_space)
    facts["R_dim_3"] = facts["radical_dim"] = r_space.dim == 3 * (p - 1)
    zero_at = len(series) - 1 if series[-1].dim == 0 else None  # brackets to reach 0
    facts["R_abelian"] = zero_at in (0, 1)
    facts["R_solvable"] = facts["radical_solvable"] = zero_at == steps
    same = a_space.rows == r_space.rows
    facts["abelian_ideal_ideal"] = facts["R_ideal"] if same else is_ideal(alg, a_space)
    facts["abelian_ideal_abelian"] = (
        facts["R_abelian"] if same else bracket_span(alg, a_space).dim == 0)
    return facts


def _read(facts: dict[str, bool], *names: str) -> list[dict]:
    return [_check(name, facts[name]) for name in names]


# The variant of F[X]/(X^2 - D) -> the case of M that it decides.
CASE_OF_VARIANT = {SPLIT: CASE_TWO_IDEALS, LOCAL: CASE_SEMIDIRECT, FIELD: CASE_SIMPLE}

# case -> (classify's check names, the checker's), each in its recorded
# order.  Only the checker reports the identities of the recorded
# coefficient witnesses and recorded_extension_matches; only classify
# reports R_solvable and the descent's inference steps.
CASE_CHECKS = {
    CASE_TWO_IDEALS: (
        ("I1_ideal", "I2_ideal", "sum_direct", "sum_is_everything", "I1_dim_3",
         "I1_bracket_closed", "I1_perfect", "I2_dim_3", "I2_bracket_closed", "I2_perfect"),
        ("I1_ideal", "I2_ideal", "sum_direct", "sum_is_everything", "e_plus_idempotent",
         "e_minus_idempotent", "idempotents_orthogonal", "idempotents_sum_to_unit", "I1_dim_3",
         "I1_bracket_closed", "I1_perfect", "I2_dim_3", "I2_bracket_closed", "I2_perfect"),
    ),
    CASE_SEMIDIRECT: (
        ("N_subalgebra", "R_ideal", "R_dim_3", "R_abelian", "R_solvable",
         "sum_direct", "sum_is_everything", "N_dim_3", "N_bracket_closed", "N_perfect"),
        ("N_subalgebra", "R_ideal", "R_dim_3", "R_abelian", "sum_direct", "sum_is_everything",
         "nilpotent_nonzero", "nilpotent_squares_to_zero",
         "N_dim_3", "N_bracket_closed", "N_perfect"),
    ),
    CASE_SIMPLE: (
        ("discriminant_non_square", "perfect_over_extension", "simple_over_extension_dim3",
         "simple_over_base_by_span"),
        ("discriminant_non_square", "perfect_over_extension", "recorded_extension_matches"),
    ),
}

# The two cases with subspace witnesses -> their document keys: the two
# subspaces of M, then the vectors of F[X]/(X^2 - D) that classify builds
# them from, named as in QuadraticAnalysis.
WITNESS_KEYS = {
    CASE_TWO_IDEALS: (("I1", "I2"), ("e_plus", "e_minus")),
    CASE_SEMIDIRECT: (("N", "R"), ("nilpotent",)),
}


def _descent(pipe: Pipeline, ext: FieldDescriptor) -> dict:
    """The descent document of the core evaluated over ext = F[sqrt D] at
    the lifted diagonal; lifting is a ring map, so it is the core."""
    core_ext = evaluated_algebra([lift_to_extension(x, ext) for x in pipe.entries[:3]])
    return certify_simple_via_descent(core_ext, pipe.field)


def _case_facts(pipe: Pipeline, case: str, *witnesses) -> dict[str, bool]:
    """Every fact of a decomposition case, keyed by each check name that
    reports it and computed once, from the case's witnesses: the ideals I1
    and I2, the subalgebra N and the ideal R, or the descent document over
    F[sqrt D].  classify and the checker read their checks off it."""
    alg = pipe.algebra
    if case == CASE_SEMIDIRECT:
        n_space, r_space = witnesses
        return _local_facts(alg, n_space, r_space, r_space, 2)
    if case == CASE_SIMPLE:
        [descent] = witnesses
        return {"discriminant_non_square": is_square(pipe.disc) is None,
                **_facts(descent["checks"])}
    i1, i2 = witnesses
    return {"I1_ideal": is_ideal(alg, i1), "I2_ideal": is_ideal(alg, i2),
            **_facts(_sum_checks(i1, i2) + _perfect_subspace_checks(alg, i1, "I1")
                     + _perfect_subspace_checks(alg, i2, "I2"))}


def classify(field: FieldDescriptor, entries: Sequence[FieldElement]) -> dict:
    """The classify document: the decomposition certificate of M for
    diag(a, b, c, d).

    The variant is a function of the characteristic and of the square
    class of the discriminant: two simple ideals (split), semidirect
    N and R (characteristic 2, square discriminant), or simple by
    descent (non-square).  Every certificate embeds the table identity
    check tying M to its current-algebra form.
    """
    pipe = build_pipeline(field, entries)
    analysis = analyze_quadratic(pipe.disc)
    case = CASE_OF_VARIANT[analysis.variant]
    if case == CASE_SIMPLE:
        descent = _descent(pipe, analysis.extension)
        facts = _case_facts(pipe, case, descent)
        witnesses = {"extension": render_field(analysis.extension), "descent": descent}
    else:
        space_keys, vector_keys = WITNESS_KEYS[case]
        vectors = [getattr(analysis, key) for key in vector_keys]
        # I1, I2 = core (x) e_plus, core (x) e_minus; N, R = core (x) 1, core (x) nilpotent
        coeffs = vectors if case == CASE_TWO_IDEALS else [(field.one(), field.zero()), *vectors]
        spaces = [_core_tensor(c) for c in coeffs]
        facts = _case_facts(pipe, case, *spaces)
        witnesses = {
            **{key: subspace_to_json(s) for key, s in zip(space_keys, spaces)},
            **{key: [render_scalar(x) for x in v] for key, v in zip(vector_keys, vectors)},
            "sqrt_D": render_scalar(analysis.sqrt_d),
        }
    return {
        "case": case,
        "field": render_field(field),
        "form": [render_scalar(x) for x in pipe.entries],
        "D": render_scalar(pipe.disc),
        "table": table_to_json(pipe.algebra),
        "witnesses": witnesses,
        "checks": [*pipe.identity, *_read(facts, *CASE_CHECKS[case][0])],
        "command": "classify",
    }


# ---------------------------------------------------------------------------
# The inseparable-base-change counterexample.
# ---------------------------------------------------------------------------


def inseparable_counterexample(p: int = 2) -> dict:
    """The counterexample document: simplicity lost after inseparable base
    change, exhibited exactly.

    Over F = F_p(t) the variable s = t has no p-th root, so
    K = F[X]/(X^p - s) is a field, realized concretely as F_p(u) with
    t mapped to u^p.  The core algebra P stays simple over K (descent),
    but C = P tensor K[X]/(X^p - s) = P tensor K[X]/(X - u)^p, the local
    case of `classify` at r = u, is not semisimple: its ideal
    R = P tensor (x - u) has derived series P tensor (x - u)^(2^k), which
    reaches 0 in exactly ceil(log2 p) steps.  The document carries R, an
    abelian ideal P tensor (x - u)^(p-1), and the perfect 3-dimensional
    quotient, never built: C = N (+) R with N = P tensor 1 a subalgebra
    and R an ideal, so C/R is N.
    """
    if p not in COUNTEREXAMPLE_PRIMES:
        raise UnsupportedPrime(f"counterexample is built for p in {COUNTEREXAMPLE_PRIMES}")
    base = function_field(p, "t")
    ext = function_field(p, "u")
    s_base = parse_scalar("t", base)
    u = parse_scalar("u", ext)

    # The core at diag(1, 1, 1) over K: t -> u^p fixes F_p, where its
    # brackets live.
    core_k = evaluated_algebra([ext.one()] * 3)
    descent_checks = certify_simple_via_descent(core_k, base)["checks"]
    s_ext = u ** p
    current = tensor_current(core_k, s_ext, p)
    powers = local_powers(u, s_ext, p)
    n_space = _core_tensor((ext.one(),) + (ext.zero(),) * (p - 1))
    radical = _core_tensor(*powers)
    abelian = _core_tensor(powers[-1])
    facts = _local_facts(current, n_space, radical, abelian, p)
    quotient_dim = current.dim - radical.dim
    quotient_perfect = all(facts[name] for name in
                           ("R_ideal", "sum_direct", "sum_is_everything", "N_perfect"))
    return {
        "command": "counterexample",
        "p": p,
        "base_field": render_field(base),
        "extension_field": render_field(ext),
        "s": render_scalar(s_base),
        "current_dim": current.dim,
        "radical_dim": radical.dim,
        "radical": subspace_to_json(radical),
        "abelian_ideal": subspace_to_json(abelian),
        "quotient_perfect": quotient_perfect,
        "quotient_dim": quotient_dim,
        "descent_checks": descent_checks,
        "checks": [
            _check("s_has_no_pth_root", pth_root(s_base) is None),
            _check("radical_nonzero", radical.dim > 0),
            *_read(facts, "radical_dim", "radical_ideal", "radical_solvable"),
            _check("abelian_ideal_dim_3", abelian.dim == 3),
            *_read(facts, "abelian_ideal_ideal", "abelian_ideal_abelian"),
            _check("quotient_perfect_dim_3", quotient_perfect and quotient_dim == 3),
            _check("core_simple_over_base", all(c["ok"] for c in descent_checks)),
        ],
    }


# ---------------------------------------------------------------------------
# The independent checker.
# ---------------------------------------------------------------------------


def _subspace_from_json(rows: list[list[str]], field: FieldDescriptor,
                        ambient: int) -> Subspace:
    parsed = [[parse_scalar(x, field) for x in row] for row in rows]
    return canonicalize_subspace(field, parsed, ambient)


def document_literals(data: dict) -> tuple[FieldDescriptor, tuple[FieldElement, ...]]:
    """The field and the four diagonal entries a document was made from;
    raises ParseError unless its form lists four literals."""
    form = data.get("form")
    if not (isinstance(form, list) and len(form) == 4):
        raise ParseError("document form must list four literals")
    check_literal_digits(data.get("field"), *form)
    field = parse_field(data.get("field"))
    return field, tuple(parse_scalar(x, field) for x in form)


def recheck_certificate_json(data: dict) -> list[dict]:
    """Independent checker: rebuild M from the literals and re-run every
    invariant of the claimed case against the recorded witnesses.  A
    claimed case other than the square class's ends the checks at
    `case_matches_square_class`, before any witness is read."""
    field, entries = document_literals(data)
    pipe = build_pipeline(field, entries)
    checks = [
        _check("recorded_discriminant_matches", render_scalar(pipe.disc) == data["D"]),
        _check("recorded_table_matches", table_to_json(pipe.algebra) == data["table"]),
        *pipe.identity,
    ]
    analysis = analyze_quadratic(pipe.disc)
    case = CASE_OF_VARIANT[analysis.variant]
    checks.append(_check("case_matches_square_class", data["case"] == case))
    if data["case"] != case:
        return checks
    recorded = data["witnesses"]
    if case == CASE_SIMPLE:
        ext = parse_field(recorded["extension"])
        facts = _case_facts(pipe, case, _descent(pipe, ext))
        facts["recorded_extension_matches"] = ext == analysis.extension
    else:
        space_keys, vector_keys = WITNESS_KEYS[case]
        spaces = [_subspace_from_json(recorded[key], field, 6) for key in space_keys]
        vectors = [tuple(parse_scalar(x, field) for x in recorded[key]) for key in vector_keys]
        identities = (split_witness_checks(*vectors, pipe.disc) if case == CASE_TWO_IDEALS
                      else nilpotent_witness_checks(vectors, pipe.disc))
        facts = {**_case_facts(pipe, case, *spaces), **_facts(identities)}
    return checks + _read(facts, *CASE_CHECKS[case][1])
