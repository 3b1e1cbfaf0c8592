import dataclasses
import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocurrent import scalars, structure
from orthocurrent.cli import execute, parse_args
from orthocurrent.exact_linalg import Matrix, Subspace, canonicalize_subspace, commutators
from orthocurrent.forms import diagonal_form, make_form
from orthocurrent.liealg import (
    LieAlgebraSC,
    NotClosed,
    algebra_from_matrices,
    bracket_span,
    current_algebra,
    current_basis,
    paper_table,
    realization_mismatch,
    table_rows,
)
from orthocurrent.scalars import (
    function_field,
    lift_to_extension,
    parse_field,
    parse_scalar,
    prime_field,
    quadratic_extension,
    rationals,
    render_scalar,
)
from orthocurrent.structure import (
    CASE_SEMIDIRECT,
    CASE_SIMPLE,
    CASE_TWO_IDEALS,
    DescriptorMismatch,
    UnsupportedPrime,
    build_pipeline,
    certificate_to_json,
    certify_simple_via_descent,
    classify,
    inseparable_counterexample,
    recheck_certificate_json,
    verify_current_form,
)

from reference import (
    closed_and_perfect,
    common_denominator,
    conjugated_current_basis,
    derived_span_by_coordinates,
    ideal_closure,
    random_element,
    wedge_basis,
)
from test_golden import FORMS as GOLDEN_FORMS

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F2T = function_field(2, "t")


def ints(field, values):
    return [field.from_int(v) for v in values]


def test_verify_q_1234():
    report = verify_current_form(Q, ints(Q, [1, 2, 3, 4]))
    assert report.equal and report.ok
    assert report.disc == Q.from_int(24)
    assert report.dims == {
        "skew_adjoint": 6,
        "derived": 6,
        "core_skew_adjoint": 3,
        "core_derived": 3,
    }
    assert report.random_w.equal


def test_verify_f2_char2_dims():
    report = verify_current_form(F2, ints(F2, [1, 1, 1, 1]))
    assert report.equal and report.ok
    assert report.dims["skew_adjoint"] == 10
    assert report.dims["derived"] == 6
    assert report.dims["core_skew_adjoint"] == 6
    assert report.dims["core_derived"] == 3


def test_verify_f3():
    report = verify_current_form(F3, ints(F3, [1, 1, 1, 1]))
    assert report.equal and report.ok and report.disc == F3.one()


def test_verify_seed_determinism():
    r1 = verify_current_form(Q, ints(Q, [1, 2, 3, 4]), seed=5)
    r2 = verify_current_form(Q, ints(Q, [1, 2, 3, 4]), seed=5)
    assert r1.random_w.subspace == r2.random_w.subspace
    assert r1.random_w.diagonal == r2.random_w.diagonal


def test_classify_split_over_q():
    cert = classify(Q, ints(Q, [1, 1, 1, 1]))
    assert cert.case == CASE_TWO_IDEALS and cert.ok
    i1, i2 = cert.witnesses["I1"], cert.witnesses["I2"]
    assert i1.dim == 3 and i2.dim == 3 and i1 != i2


def test_classify_semidirect_over_f2():
    cert = classify(F2, ints(F2, [1, 1, 1, 1]))
    assert cert.case == CASE_SEMIDIRECT and cert.ok
    assert cert.witnesses["R"].dim == 3


def test_classify_simple_over_f3():
    cert = classify(F3, ints(F3, [1, 1, 1, 2]))
    assert cert.case == CASE_SIMPLE and cert.ok
    descent = cert.witnesses["descent"]
    assert descent.derived_dim == 3 and descent.ok


def test_classify_simple_over_function_field():
    entries = [parse_scalar(x, F2T) for x in ("1", "1", "1", "t")]
    cert = classify(F2T, entries)
    assert cert.case == CASE_SIMPLE and cert.ok


def test_classify_variant_function_of_char_and_square_class():
    rng = random.Random(23)
    from orthocurrent.scalars import is_square

    for field in [Q, F2, F3, F5, F2T]:
        char2 = field.characteristic() == 2
        for _ in range(4):
            entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
            cert = classify(field, entries)
            d = cert.disc
            if is_square(d) is None:
                assert cert.case == CASE_SIMPLE
            elif char2:
                assert cert.case == CASE_SEMIDIRECT
            else:
                assert cert.case == CASE_TWO_IDEALS
            assert cert.ok


def test_certificates_recheck_independently():
    for field, values in [(Q, [1, 1, 1, 1]), (F2, [1, 1, 1, 1]), (F3, [1, 1, 1, 2])]:
        cert = classify(field, ints(field, values))
        rechecked = recheck_certificate_json(certificate_to_json(cert))
        assert all(c.ok for c in rechecked)


def test_certificate_json_round_trip():
    cert = classify(F3, ints(F3, [1, 1, 1, 2]))
    blob = json.dumps(certificate_to_json(cert))
    data = json.loads(blob)
    assert data["case"] == CASE_SIMPLE
    checks = recheck_certificate_json(data)
    assert all(c.ok for c in checks)
    # determinism: classifying twice serializes identically
    again = classify(F3, ints(F3, [1, 1, 1, 2]))
    assert certificate_to_json(again) == certificate_to_json(cert)


def test_recheck_catches_tampering():
    cert = classify(Q, ints(Q, [1, 1, 1, 1]))
    data = certificate_to_json(cert)
    data["witnesses"]["I1"][0][0] = "7"
    checks = recheck_certificate_json(data)
    assert not all(c.ok for c in checks)


def test_descent_certificate_rejects_non_perfect():
    ext = quadratic_extension(F3, F3.from_int(2))
    zero = ext.zero()
    constants = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    abelian = LieAlgebraSC(ext, 3, constants)
    cert = certify_simple_via_descent(abelian, F3)
    assert not cert.ok and cert.derived_dim == 0
    assert [c.name for c in cert.checks if not c.ok][0] == "perfect_over_extension"
    # the two inferences rest on perfection, so they fail with it
    assert not any(c.ok for c in cert.checks)


def _failed(checks):
    return {c.name for c in checks if not c.ok}


def test_table_identity_failure_reaches_every_report(monkeypatch):
    """verify, classify and the checker read one tables_match result."""
    real = structure.current_table
    monkeypatch.setattr(structure, "current_table", lambda core, disc: real(core, disc + disc))
    entries = ints(Q, [1, 2, 3, 4])
    report = verify_current_form(Q, entries)
    assert not report.equal
    assert _failed(report.checks) == {"tables_match"}
    cert = classify(Q, entries)
    assert _failed(cert.checks) == {"tables_match"}
    assert _failed(recheck_certificate_json(certificate_to_json(cert))) == {"tables_match"}


def _patch_primed_algebra(monkeypatch, entries, edit):
    """Edit the distinguished basis of M for the random-W leg's diagonal, and
    only there: the pipeline builds M for the form's own entries, and the
    core for its first three, through the same structure.current_algebra."""
    real = structure.current_algebra

    def patched(diagonal):
        if len(diagonal) == 3 or tuple(diagonal) == tuple(entries):
            return real(diagonal)
        return algebra_from_matrices(diagonal[0].field, edit(current_basis(*diagonal)))

    monkeypatch.setattr(structure, "current_algebra", patched)


def test_random_w_table_is_read_at_the_primed_diagonal(monkeypatch):
    """f1 scaled at G' only keeps the basis independent and its span, so
    only random_w_tables_match may fail: the leg compares M's table at G'
    with the paper's rows at (a', b', c', d'), not with M's table at G."""
    for field_literal, form, factor in [
        ("Q", "1,2,1,2", "2"),
        ("F3", "1,2,1,2", "2"),
        ("F3(t)", "1,1,t+1,t", "2"),
        ("F2(t)[sqrt t+1]", "t+1,t,t,t^5+t^4+t^3+t^2", "t"),
    ]:
        field = parse_field(field_literal)
        scalar = parse_scalar(factor, field)
        entries = [parse_scalar(x, field) for x in form.split(",")]
        with monkeypatch.context() as mp:
            _patch_primed_algebra(mp, entries, lambda cb: (cb[0].scale(scalar),) + cb[1:])
            report = verify_current_form(field, entries)
        assert report.random_w.spans_match and not report.random_w.equal
        assert _failed(report.checks) == {"random_w_tables_match"}


def _verify_f3t_counting(monkeypatch, owner, name, form="1,1,t+1,t"):
    """Calls of owner.name during one F3(t) verify of the form, which passes."""
    field = parse_field("F3(t)")
    entries = [parse_scalar(x, field) for x in form.split(",")]
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or real(*args))
    assert verify_current_form(field, entries).ok
    return len(calls)


def test_verify_products_stay_gcd_free(monkeypatch):
    """794 polynomial gcds here.  The random-W leg checks its rows by 10
    values of the form and builds M and [L', L'] at the primed diagonal
    from two-entry matrices; checking its conjugates' 15 dense commutators
    instead read 768 on entries cleared of denominators, and about 2900
    on fractions."""
    assert 0 < _verify_f3t_counting(monkeypatch, scalars, "poly_gcd") <= 845


def test_verify_multiplications_stay_few(monkeypatch):
    """780 field multiplications here; checking the random-W leg's
    conjugates by their 15 dense commutators read 1698."""
    assert 0 < _verify_f3t_counting(monkeypatch, scalars.FieldElement, "__mul__") <= 900


def test_large_literal_verify_multiplications_stay_few(monkeypatch):
    """793 field multiplications for entries of degree 48 to 50, about as
    many as at degree 1; checking the random-W leg's conjugates by their
    15 dense commutators read 1711."""
    count = _verify_f3t_counting(
        monkeypatch, scalars.FieldElement, "__mul__", "t^50+1,t^49+2,t^48,t^50+t")
    assert 0 < count <= 1000


def test_a_foreign_derived_span_at_the_primed_diagonal_fails_the_leg_span(monkeypatch):
    """[L', L'] replaced by the derived span of diag(1, 1, 1, 1) for the
    leg's form only: M's basis at G' still has the paper's table and the
    rows are still orthogonal, so only random_w_spans_match fails, and
    nothing raises."""
    real = structure._derived_span
    for field_literal, form in [
        ("Q", "1,2,3,4"),
        ("F3(t)", "1,1,t+1,t"),
        ("F2(t)", "1,t,t+1,t^2+1"),
    ]:
        field = parse_field(field_literal)
        entries = [parse_scalar(x, field) for x in form.split(",")]
        own = diagonal_form(field, entries).gram

        def foreign(form, own=own):
            if form.dim == 4 and form.gram != own:
                return real(diagonal_form(form.field, [form.field.one()] * 4))
            return real(form)

        with monkeypatch.context() as mp:
            mp.setattr(structure, "_derived_span", foreign)
            report = verify_current_form(field, entries)
        assert report.random_w.equal and not report.random_w.spans_match
        assert _failed(report.checks) == {"random_w_spans_match"}


@pytest.mark.parametrize("literal", ["Q", "F3", "F3(t)", "F2(t)", "F3[sqrt 2]"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_paper_table_is_core_tensor_quadratic_quotient(literal, seed):
    """The paper's table rows, specialized to nonzero (a, b, c, d), are the
    constants of core(a, b, c) (x) F[X]/(X^2 - abcd)."""
    field = parse_field(literal)
    rng = random.Random(seed)
    a, b, c, d = (random_element(field, rng, nonzero=True) for _ in range(4))
    expected = structure.current_table(current_algebra((a, b, c)), a * b * c * d)
    assert paper_table(table_rows(a, b, c, d)) == expected.constants


LEG_FIELDS = ["Q", "F3", "F3(t)", "F2(t)", "F3[sqrt 2]", "F2(t)[sqrt t+1]"]


@pytest.mark.parametrize("literal", LEG_FIELDS)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_wedges_are_the_conjugated_distinguished_basis(literal, seed):
    """The dense path that the leg's isometry check replaces, as a
    reference.  On the leg's own rows w1..w4, the conjugates B^T m B^-T of
    current_basis at the leg's diagonal (multiples of the wedges
    w_r ^ w_s), computed with an inverse, realize the paper's table at that
    diagonal, lie in [L, L] and have rank 6.  They are the wedges, and
    cleared of their denominators they keep their span."""
    field = parse_field(literal)
    rng = random.Random(seed)
    entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
    pipe = build_pipeline(field, entries)
    _, _, rows, primed = structure._orthogonal_rows(pipe, random.Random(seed), 32)
    conjugates = conjugated_current_basis(rows, primed)
    assert wedge_basis(pipe.form.gram, rows, primed) == conjugates
    assert realization_mismatch(paper_table(table_rows(*primed)), conjugates) is None
    flats = [m.flatten() for m in conjugates]
    assert all(pipe.derived_span.contains(v) for v in flats)
    span = canonicalize_subspace(field, flats, 16)
    assert span.dim == 6
    cleared = [m.scale(common_denominator(field, m.flatten())).flatten() for m in conjugates]
    assert canonicalize_subspace(field, cleared, 16) == span


@pytest.mark.parametrize("literal", LEG_FIELDS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_wedges_of_the_standard_basis_are_the_distinguished_basis(literal, seed):
    """M's basis is the reference wedges at the standard basis, and the
    core's basis for diag(a, b, c) is the top-left 3 x 3 blocks of f1..f3."""
    field = parse_field(literal)
    rng = random.Random(seed)
    entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
    gram = diagonal_form(field, entries).gram
    basis = wedge_basis(gram, Matrix.identity(field, 4).rows, entries)
    assert basis == current_basis(*entries)
    blocks = tuple(Matrix(field, [row[:3] for row in m.rows[:3]]) for m in basis[:3])
    assert blocks == current_basis(*entries[:3])


def test_a_non_orthogonal_basis_fails_the_leg_table_without_raising(monkeypatch):
    """w1 replaced by w1 + w2, with the diagonal kept: w1 + w2 is not
    orthogonal to w2, so the isometry fails, and with it both of the leg's
    checks; nothing raises.  (2 w1 would not do: over F3 and F3(t) it has
    the square of w1 and stays orthogonal.)"""
    real = structure.orthogonalize

    def skewed(form):
        ortho = real(form)
        w1, w2, w3 = ortho.basis.rows
        shifted = tuple(x + y for x, y in zip(w1, w2))
        return dataclasses.replace(ortho, basis=Matrix(form.field, [shifted, w2, w3]))

    for field_literal, form in [
        ("Q", "1,2,3,4"),
        ("F3", "1,2,1,2"),
        ("F3(t)", "1,1,t+1,t"),
        ("F2(t)", "1,t,t+1,t^2+1"),
    ]:
        field = parse_field(field_literal)
        with monkeypatch.context() as mp:
            mp.setattr(structure, "orthogonalize", skewed)
            report = verify_current_form(field, [parse_scalar(x, field) for x in form.split(",")])
        assert _failed(report.checks) == {"random_w_spans_match", "random_w_tables_match"}


def test_a_wrong_claimed_square_fails_the_leg_isometry(monkeypatch):
    """a' claimed as s^2 a', with s^2 != 1: M at the claimed diagonal has
    the paper's table there and spans its derived span, but w1 has square
    a', so the isometry fails, and with it both of the leg's checks.  D'
    keeps its square class, so the invariant holds; nothing raises."""
    real = structure.orthogonalize
    for field_literal, form, square in [
        ("Q", "1,2,3,4", "4"),
        ("F5", "1,2,3,4", "4"),
        ("F3(t)", "1,1,t+1,t", "t^2"),
        ("F2(t)", "1,t,t+1,t^2+1", "t^2"),
    ]:
        field = parse_field(field_literal)
        factor = parse_scalar(square, field)

        def misclaimed(form, factor=factor):
            ortho = real(form)
            first, *rest = ortho.diagonal
            return dataclasses.replace(ortho, diagonal=(first * factor, *rest))

        with monkeypatch.context() as mp:
            mp.setattr(structure, "orthogonalize", misclaimed)
            report = verify_current_form(field, [parse_scalar(x, field) for x in form.split(",")])
        assert _failed(report.checks) == {"random_w_spans_match", "random_w_tables_match"}


def test_a_complement_row_that_is_not_orthogonal_fails_the_leg_isometry(monkeypatch):
    """w4 replaced by w4 + u, for u the first basis row of W: the leg takes
    d' as the square of the row it has, so only the off-diagonal pairs of
    the isometry see that the row is not orthogonal to W.  Both of the
    leg's checks fail; D' keeps its square class here, and nothing
    raises."""
    real = structure.orthogonal_complement

    def tilted(form, w):
        row = real(form, w).basis.rows[0]
        return canonicalize_subspace(form.field, [[x + y for x, y in zip(row, w.basis.rows[0])]], 4)

    for field_literal, form in [
        ("Q", "1,2,3,4"),
        ("F3(t)", "1,1,t+1,t"),
        ("F2(t)", "1,t,t+1,t^2+1"),
    ]:
        field = parse_field(field_literal)
        with monkeypatch.context() as mp:
            mp.setattr(structure, "orthogonal_complement", tilted)
            report = verify_current_form(field, [parse_scalar(x, field) for x in form.split(",")])
        assert _failed(report.checks) == {"random_w_spans_match", "random_w_tables_match"}


def test_span_identity_failure_reaches_every_report(monkeypatch):
    """A derived span that the distinguished basis does not span fails the
    span checks of verify, classify and the checker."""
    real = structure._derived_span
    monkeypatch.setattr(
        structure, "_derived_span",
        lambda form: real(diagonal_form(form.field, [form.field.one()] * form.dim)),
    )
    entries = ints(Q, [1, 2, 3, 4])
    assert _failed(verify_current_form(Q, entries).checks) == {
        "distinguished_basis_spans_derived", "core_basis_spans_derived", "random_w_spans_match",
    }
    cert = classify(Q, entries)
    assert _failed(cert.checks) == {"distinguished_basis_spans_derived"}
    rechecked = recheck_certificate_json(certificate_to_json(cert))
    assert _failed(rechecked) == {"distinguished_basis_spans_derived"}


def test_recheck_catches_ideals_that_do_not_sum_to_m():
    data = certificate_to_json(classify(Q, ints(Q, [1, 1, 1, 1])))
    data["witnesses"]["I2"] = data["witnesses"]["I1"]
    assert _failed(recheck_certificate_json(data)) == {"sum_direct", "sum_is_everything"}


def test_descent_certificate_over_quadratic_extension():
    pipe = build_pipeline(F3, ints(F3, [1, 1, 1, 2]))
    ext = quadratic_extension(F3, pipe.disc)
    core = algebra_from_matrices(F3, current_basis(*pipe.entries[:3]))
    lifted = tuple(
        tuple(tuple(lift_to_extension(x, ext) for x in entry) for entry in row)
        for row in core.constants
    )
    cert = certify_simple_via_descent(LieAlgebraSC(ext, 3, lifted), F3)
    assert cert.ok and cert.extension_kind == "quadratic"


def test_descent_rejects_unrelated_fields():
    zero, one = Q.zero(), Q.one()
    c = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = one, -one
    c[1][2][0], c[2][1][0] = one, -one
    c[2][0][1], c[0][2][1] = one, -one
    alg = LieAlgebraSC(Q, 3, c)
    with pytest.raises(DescriptorMismatch):
        certify_simple_via_descent(alg, F3)


def test_counterexample_p2():
    report = inseparable_counterexample(2)
    assert report.ok
    assert report.current_dim == 6
    assert report.radical.dim == 3
    assert report.abelian_ideal == report.radical
    assert report.quotient_perfect and report.quotient_dim == 3
    assert report.descent.extension_kind == "inseparable_degree_p"
    assert render_scalar(report.s) == "t"


def test_counterexample_p3():
    report = inseparable_counterexample(3)
    assert report.ok
    assert report.current_dim == 9
    assert report.radical.dim == 6
    assert report.abelian_ideal.dim == 3
    assert report.quotient_perfect and report.quotient_dim == 3


def test_counterexample_rejects_other_primes():
    with pytest.raises(UnsupportedPrime):
        inseparable_counterexample(5)


def test_split_ideal_closure_regenerates_each_ideal():
    rng = random.Random(77)
    cert = classify(Q, ints(Q, [1, 1, 1, 1]))
    alg = LieAlgebraSC(Q, 6, cert.table)
    for name in ("I1", "I2"):
        space = cert.witnesses[name]
        for _ in range(5):
            coeffs = [random_element(Q, rng) for _ in range(3)]
            v = tuple(
                sum((c * x for c, x in zip(coeffs, col)), Q.zero())
                for col in zip(*space.basis.rows)
            )
            if all(x.is_zero() for x in v):
                continue
            assert ideal_closure(alg, [v]) == space


def test_semidirect_bracket_relations():
    from orthocurrent.liealg import bracket_span, derived_series_of_subspace

    cert = classify(F2, ints(F2, [1, 1, 1, 1]))
    alg = LieAlgebraSC(F2, 6, cert.table)
    n_space, r_space = cert.witnesses["N"], cert.witnesses["R"]
    # [N, R] lands in R and [R, R] = 0
    for n_row in n_space.basis.rows:
        for r_row in r_space.basis.rows:
            assert r_space.contains(alg.bracket(n_row, r_row))
    assert bracket_span(alg, r_space).dim == 0
    chain = derived_series_of_subspace(alg, r_space)
    assert [s.dim for s in chain] == [3, 0]


def test_ideal_closure_zero_seed():
    cert = classify(Q, ints(Q, [1, 1, 1, 1]))
    alg = LieAlgebraSC(Q, 6, cert.table)
    zero_vec = tuple(Q.zero() for _ in range(6))
    assert ideal_closure(alg, [zero_vec]).dim == 0


def test_random_w_retry_and_exhaustion():
    from orthocurrent.structure import NondegenerateWRequired

    ones = [F2.one()] * 4
    report = verify_current_form(F2, ones, seed=0)
    assert report.random_w.attempts == 4 and report.ok
    with pytest.raises(NondegenerateWRequired):
        verify_current_form(F2, ones, seed=0, max_tries=1)


def test_verify_randomized_smoke():
    rng = random.Random(99)
    for field in [Q, F3, F2T]:
        entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
        report = verify_current_form(field, entries, seed=1)
        assert report.ok, [c for c in report.checks if not c.ok]


# Non-alternating, nondegenerate F2 Gram matrices that are not diagonal:
# L is 10-dimensional.
F2_GRAMS = (
    ((1, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)),
    ((0, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1)),
)


@pytest.mark.parametrize("field_literal, entries", [
    ("Q", ["1", "2", "3", "5"]),
    ("F2", ["1", "1", "1", "1"]),
    ("F3", ["1", "1", "1", "2"]),
    ("F3[sqrt 2]", ["1", "r", "1+r", "2"]),
    ("F2(t)", ["1", "t", "t+1", "t"]),
    ("F3(t)", ["t", "1", "2*t+1", "t^2"]),
    *[(field, form.split(",")) for _, field, form in GOLDEN_FORMS],
    *[("F2", gram) for gram in F2_GRAMS],
])
def test_spans_from_coordinates_match_derived_subalgebra(field_literal, entries):
    """[L, L] as the span of L's commutators equals [L, L] taken in L's
    structure constants and mapped back through the realization, for M's
    form and, when the form is diagonal, for the core's.  `entries` holds
    the four diagonal literals or the rows of a Gram matrix."""
    field = parse_field(field_literal)
    if isinstance(entries[0], str):
        values = [parse_scalar(x, field) for x in entries]
        forms = [diagonal_form(field, values), diagonal_form(field, values[:3])]
    else:
        forms = [make_form(Matrix(field, [[field.from_int(x) for x in row] for row in entries]))]
    skew_dim, derived = structure._derived_span(forms[0])
    assert derived.dim == 6 and skew_dim == (10 if field.characteristic() == 2 else 6)
    for form in forms:
        assert structure._derived_span(form) == derived_span_by_coordinates(form)


def test_a_skew_basis_that_is_not_closed_is_refused(monkeypatch):
    """L's basis without its last matrix spans a space that some commutator
    leaves: verify raises NotClosed, and the CLI exits 1 with an error."""
    real = structure.skew_adjoint_algebra
    short = lambda form: real(form)[:-1]
    mats = short(diagonal_form(F3, ints(F3, [1, 2, 1, 2])))
    span = canonicalize_subspace(F3, [m.flatten() for m in mats], 16)
    assert not all(span.contains(c) for c in commutators(mats).values())
    monkeypatch.setattr(structure, "skew_adjoint_algebra", short)
    with pytest.raises(NotClosed):
        verify_current_form(F3, ints(F3, [1, 2, 1, 2]))
    code, out = execute(parse_args(["verify", "--field", "F3", "--form", "1,2,1,2", "--json"]))
    assert code == 1 and out.startswith("error:") and "Traceback" not in out


def test_no_structure_constants_for_l_or_for_a_witness(monkeypatch):
    """Over F3 1,2,1,2, classify builds M, the core and core (x) F[X]/(X^2 - D);
    verify builds the same three and, for the random-W leg, its core and
    tensor.  L and the witness ideals get no structure constants."""
    built = []
    real = LieAlgebraSC.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(LieAlgebraSC, "__init__", counting)
    entries = ints(F3, [1, 2, 1, 2])
    assert classify(F3, entries).ok
    assert 0 < len(built) <= 3
    built.clear()
    assert verify_current_form(F3, entries).ok
    assert 0 < len(built) <= 5


# M over three field kinds and the coefficient literals its subspaces use:
# split over Q and F3, semidirect over F2(t).
PERFECT_CASES = (
    ("Q", "2,3,5,30", ("0", "0", "1", "2")),
    ("F3", "1,2,1,2", ("0", "0", "1", "2")),
    ("F2(t)", "1,t,t+1,t^2+t", ("0", "0", "1", "t")),
)


@functools.lru_cache(maxsize=None)
def _perfect_case(index):
    """M for PERFECT_CASES[index], and its subalgebras that drawn spaces
    start from: 0, core (x) 1 and the classification's witnesses."""
    field_literal, form, literals = PERFECT_CASES[index]
    field = parse_field(field_literal)
    entries = [parse_scalar(x, field) for x in form.split(",")]
    cert = classify(field, entries)
    one = field.one()
    core = canonicalize_subspace(
        field, [[one if k == i else field.zero() for k in range(6)] for i in range(3)], 6)
    starts = [canonicalize_subspace(field, [], 6), core]
    starts += [w for w in cert.witnesses.values() if isinstance(w, Subspace)]
    return current_algebra(entries), starts, literals


@st.composite
def subspaces_of_m(draw):
    """A subspace of M of dimension 0 to 6: a start subalgebra plus up to
    three drawn vectors, or the subalgebra they generate, which is closed."""
    alg, starts, literals = _perfect_case(draw(st.integers(0, len(PERFECT_CASES) - 1)))
    field = alg.field
    start = draw(st.sampled_from(starts))
    vectors = draw(st.lists(
        st.lists(st.sampled_from(literals), min_size=6, max_size=6), max_size=3))
    rows = list(start.basis.rows) + [[parse_scalar(x, field) for x in v] for v in vectors]
    space = canonicalize_subspace(field, rows, 6)
    if draw(st.booleans()):
        while True:
            rows = list(space.basis.rows) + list(bracket_span(alg, space).basis.rows)
            grown = canonicalize_subspace(field, rows, 6)
            if grown == space:
                break
            space = grown
    return alg, space


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=subspaces_of_m())
def test_perfect_checks_match_the_subalgebra_built_from_constants(case):
    """`<X>_bracket_closed` and `<X>_perfect` read from M's brackets agree
    with the subalgebra built from its own structure constants."""
    alg, space = case
    checks = structure._perfect_subspace_checks(alg, space, "X")
    assert [c.name for c in checks] == ["X_dim_3", "X_bracket_closed", "X_perfect"]
    assert checks[0].ok == (space.dim == 3)
    assert (checks[1].ok, checks[2].ok) == closed_and_perfect(alg, space)
