import functools
import json
import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocurrent import coeff_algebra, exact_linalg, forms, liealg, scalars, structure
from orthocurrent.cli import execute, parse_args
from orthocurrent.exact_linalg import Matrix, canonicalize_subspace
from orthocurrent.forms import diagonal_form, make_form
from orthocurrent.liealg import (
    ONE,
    LieAlgebraSC,
    algebra_from_matrices,
    bracket_span,
    coordinates,
    derived_subspace,
    evaluated_algebra,
    proven_dims,
    table_brackets,
    tensor_current,
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
    certify_simple_via_descent,
    classify,
    inseparable_counterexample,
    recheck_certificate_json,
    subspace_to_json,
    verify_current_form,
)

from reference import (
    NotClosed,
    basis_matrix,
    brackets_of,
    closed_and_perfect,
    common_denominator,
    conjugated_current_basis,
    current_algebra,
    current_basis,
    dense_basis,
    dense_commutator,
    dense_rows,
    derived_span,
    derived_span_by_coordinates,
    document_subspace,
    flat,
    gram_matrix,
    ideal_closure,
    identity,
    orthogonal_rows_by_restriction,
    quotient_algebra,
    random_element,
    realization_mismatch,
    scaled,
    skew_matrices,
    spans,
    subspace_meet_join,
    wedge_basis,
)
import reference
from test_golden import FORMS as GOLDEN_FORMS

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F2T = function_field(2, "t")


def ints(field, values):
    return [field.from_int(v) for v in values]


def _ok(doc):
    return all(c["ok"] for c in doc["checks"])


def _failed(checks):
    return {c["name"] for c in checks if not c["ok"]}


def test_verify_q_1234():
    doc = verify_current_form(Q, ints(Q, [1, 2, 3, 4]))
    assert doc["equal"] and _ok(doc)
    assert doc["D"] == "24"
    assert doc["dims"] == {
        "skew_adjoint": 6,
        "derived": 6,
        "core_skew_adjoint": 3,
        "core_derived": 3,
    }
    assert doc["random_w"]["equal"]


def test_verify_f2_char2_dims():
    doc = verify_current_form(F2, ints(F2, [1, 1, 1, 1]))
    assert doc["equal"] and _ok(doc)
    assert doc["dims"]["skew_adjoint"] == 10
    assert doc["dims"]["derived"] == 6
    assert doc["dims"]["core_skew_adjoint"] == 6
    assert doc["dims"]["core_derived"] == 3


def test_verify_f3():
    doc = verify_current_form(F3, ints(F3, [1, 1, 1, 1]))
    assert doc["equal"] and _ok(doc) and doc["D"] == "1"


def test_verify_seed_determinism():
    r1 = verify_current_form(Q, ints(Q, [1, 2, 3, 4]), seed=5)
    r2 = verify_current_form(Q, ints(Q, [1, 2, 3, 4]), seed=5)
    assert r1["random_w"]["subspace"] == r2["random_w"]["subspace"]
    assert r1["random_w"]["diagonal"] == r2["random_w"]["diagonal"]


def test_classify_split_over_q():
    cert = classify(Q, ints(Q, [1, 1, 1, 1]))
    assert cert["case"] == CASE_TWO_IDEALS and _ok(cert)
    i1, i2 = (document_subspace(cert["witnesses"][name], Q) for name in ("I1", "I2"))
    assert i1.dim == 3 and i2.dim == 3 and i1 != i2


def test_classify_semidirect_over_f2():
    cert = classify(F2, ints(F2, [1, 1, 1, 1]))
    assert cert["case"] == CASE_SEMIDIRECT and _ok(cert)
    assert document_subspace(cert["witnesses"]["R"], F2).dim == 3


def test_classify_simple_over_f3():
    cert = classify(F3, ints(F3, [1, 1, 1, 2]))
    assert cert["case"] == CASE_SIMPLE and _ok(cert)
    descent = cert["witnesses"]["descent"]
    assert descent["derived_dim"] == 3 and _ok(descent)


def test_classify_simple_over_function_field():
    entries = [parse_scalar(x, F2T) for x in ("1", "1", "1", "t")]
    cert = classify(F2T, entries)
    assert cert["case"] == CASE_SIMPLE and _ok(cert)


def test_classify_variant_function_of_char_and_square_class():
    rng = random.Random(23)
    from orthocurrent.scalars import is_square

    for field in [Q, F2, F3, F5, F2T]:
        char2 = field.characteristic() == 2
        for _ in range(4):
            entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
            cert = classify(field, entries)
            d = parse_scalar(cert["D"], field)
            if is_square(d) is None:
                assert cert["case"] == CASE_SIMPLE
            elif char2:
                assert cert["case"] == CASE_SEMIDIRECT
            else:
                assert cert["case"] == CASE_TWO_IDEALS
            assert _ok(cert)


def test_certificates_recheck_independently():
    for field, values in [(Q, [1, 1, 1, 1]), (F2, [1, 1, 1, 1]), (F3, [1, 1, 1, 2])]:
        rechecked = recheck_certificate_json(classify(field, ints(field, values)))
        assert all(c["ok"] for c in rechecked)


def test_certificate_json_round_trip():
    cert = classify(F3, ints(F3, [1, 1, 1, 2]))
    data = json.loads(json.dumps(cert))
    assert data == cert
    assert data["case"] == CASE_SIMPLE
    checks = recheck_certificate_json(data)
    assert all(c["ok"] for c in checks)
    # determinism: classifying twice gives the same document
    assert classify(F3, ints(F3, [1, 1, 1, 2])) == cert


def test_recheck_catches_tampering():
    data = classify(Q, ints(Q, [1, 1, 1, 1]))
    data["witnesses"]["I1"][0][0] = "7"
    checks = recheck_certificate_json(data)
    assert not all(c["ok"] for c in checks)


def test_descent_certificate_rejects_non_perfect():
    ext = quadratic_extension(F3, F3.from_int(2))
    abelian = LieAlgebraSC(ext, 3, {})
    cert = certify_simple_via_descent(abelian, F3)
    assert not _ok(cert) and cert["derived_dim"] == 0
    assert [c["name"] for c in cert["checks"] if not c["ok"]][0] == "perfect_over_extension"
    # the two inferences rest on perfection, so they fail with it
    assert not any(c["ok"] for c in cert["checks"])


def test_table_identity_failure_reaches_every_report(monkeypatch):
    """verify, classify and the checker read one tables_match result: the
    proof's tensor fact, here run with the coefficient ring's s doubled."""
    real = liealg._current_brackets
    monkeypatch.setattr(liealg, "_current_brackets",
                        lambda brackets, nl, s, n, one: real(brackets, nl, s + s, n, one))
    monkeypatch.setattr(liealg, "_PROOFS", {})
    entries = ints(Q, [1, 2, 3, 4])
    doc = verify_current_form(Q, entries)
    assert not doc["equal"]
    assert _failed(doc["checks"]) == {"tables_match"}
    cert = classify(Q, entries)
    assert _failed(cert["checks"]) == {"tables_match"}
    assert _failed(recheck_certificate_json(cert)) == {"tables_match"}


LEG_PROOF_FORMS = [
    ("Q", "1,2,1,2"),
    ("F3", "1,1,1,1"),
    ("F3(t)", "1,1,t+1,t"),
    ("F2(t)[sqrt t+1]", "t+1,t,t,t^5+t^4+t^3+t^2"),
]


def _verify_leg_only(monkeypatch, field_literal, form, **rows):
    """verify with liealg's rows or rules replaced for the random-W leg's
    proof only: the pipeline at the form's own diagonal is built first,
    with the real proof, and handed to verify; the leg proves again, into
    a cache of its own."""
    field = parse_field(field_literal)
    entries = [parse_scalar(x, field) for x in form.split(",")]
    pipe = build_pipeline(field, entries)
    with monkeypatch.context() as mp:
        mp.setattr(structure, "build_pipeline", lambda field, entries: pipe)
        mp.setattr(liealg, "_PROOFS", {})
        for name, value in rows.items():
            mp.setattr(liealg, name, value)
        return verify_current_form(field, entries)


def _wedge_row(name, r, s, kappa):
    return tuple((name, r, s, kappa) if row[0] == name else row for row in liealg.WEDGE_ROWS)


@pytest.mark.parametrize("field_literal, form", LEG_PROOF_FORMS)
def test_a_changed_wedge_row_fails_the_leg_proof(monkeypatch, field_literal, form):
    """The leg's table and span rest on the proof over Z[a, b, c, d], which
    reads WEDGE_ROWS on every call.  h1 scaled by c keeps the span, and
    each element is still a unit monomial times a bracket, so only
    random_w_tables_match fails; h1 scaled by 1/b leaves [f3, h1] =
    (a/b) h2, which no monomial division reads, and h3 on h2's pair {1, 4}
    leaves five supports: both of the leg's checks fail.  Nothing
    raises."""
    for wedges, failed in [
        (_wedge_row("h1", 3, 4, "a b c"), {"random_w_tables_match"}),
        (_wedge_row("h1", 3, 4, "a"), {"random_w_spans_match", "random_w_tables_match"}),
        (_wedge_row("h3", 4, 1, "a c"), {"random_w_spans_match", "random_w_tables_match"}),
    ]:
        doc = _verify_leg_only(monkeypatch, field_literal, form, WEDGE_ROWS=wedges)
        assert not doc["random_w"]["equal"]
        assert _failed(doc["checks"]) == failed


@pytest.mark.parametrize("field_literal, form", LEG_PROOF_FORMS)
def test_a_misstated_table_row_fails_the_leg_table(monkeypatch, field_literal, form):
    """[f1, f2] = c f3, -b f3 or b f1 in place of b f3: the proof's table
    is TABLE_ROWS over Z[a, b, c, d], so random_w_tables_match fails at
    every diagonal, b = c included (F3 1,1,1,1), and so does verify's
    tables_match, which reads the same proof; the rows are proved again
    for their new value.  Nothing raises."""
    field = parse_field(field_literal)
    entries = [parse_scalar(x, field) for x in form.split(",")]
    for row in [("f1", "f2", "c", "f3"), ("f1", "f2", "-b", "f3"), ("f1", "f2", "b", "f1")]:
        with monkeypatch.context() as mp:
            mp.setattr(liealg, "TABLE_ROWS", (row,) + liealg.TABLE_ROWS[1:])
            doc = verify_current_form(field, entries)
        assert not doc["random_w"]["equal"]
        assert _failed(doc["checks"]) == {"random_w_tables_match", "tables_match"}


def _verify_f3t_counting(monkeypatch, owner, name, form="1,1,t+1,t"):
    """Calls of owner.name during one F3(t) verify of the form, which passes."""
    field = parse_field("F3(t)")
    entries = [parse_scalar(x, field) for x in form.split(",")]
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or real(*args))
    assert _ok(verify_current_form(field, entries))
    return len(calls)


def test_verify_products_stay_gcd_free(monkeypatch):
    """52 polynomial gcds here.  Normalizing each term of an inner product,
    and each product that has a constant factor, read 162, and 236 while
    the pipeline built L's kernel, [L, L] and M from commutators at the
    input.  The random-W leg
    checks its rows by 10 values of the form and rests its table and span
    on the proof over Z[a, b, c, d]; building M and [L', L'] at the primed
    diagonal read 794, checking its conjugates' 15 dense commutators 768
    on entries cleared of denominators, and about 2900 on fractions.
    Restricting f to W to test its rank, and evaluating each square three
    times, read 428."""
    assert 0 < _verify_f3t_counting(monkeypatch, scalars, "poly_gcd") <= 60


def test_verify_multiplications_stay_few(monkeypatch):
    """117 field multiplications here, and 303 while the pipeline built
    L's kernel, [L, L] and M from commutators at the input; building M and
    [L', L'] at the random-W leg's diagonal read 780, checking the leg's
    conjugates by their 15 dense commutators 1698, and restricting f to W
    to test its rank 458."""
    assert 0 < _verify_f3t_counting(monkeypatch, scalars.FieldElement, "__mul__") <= 135


def test_large_literal_verify_multiplications_stay_few(monkeypatch):
    """119 field multiplications for entries of degree 48 to 50, about as
    many as at degree 1, and 313 while the pipeline built L's kernel,
    [L, L] and M from commutators; building M and [L', L'] at the random-W
    leg's diagonal read 793, checking the leg's conjugates by their 15
    dense commutators 1711, and restricting f to W to test its rank 468."""
    count = _verify_f3t_counting(
        monkeypatch, scalars.FieldElement, "__mul__", "t^50+1,t^49+2,t^48,t^50+t")
    assert 0 < count <= 140


@pytest.mark.parametrize("literal, form", [("Q", "1,2,3,4"), ("F2(t)", "1,t,t+1,t^2+1")])
def test_the_pipeline_adds_few_field_elements(monkeypatch, literal, form):
    """No field addition, subtraction included, builds the pipeline here:
    it evaluates the proven table, which multiplies only.  Building L's
    kernel, [L, L] and M from commutators made 32 and 44; writing the
    skew-adjoint system out as a dense 16 x 16 grid made 168 and 180,
    mostly 0 + 0.  The last addition shows that the count sees one."""
    field = parse_field(literal)
    entries = [parse_scalar(x, field) for x in form.split(",")]
    calls = []
    real = scalars.FieldElement.__add__
    monkeypatch.setattr(scalars.FieldElement, "__add__", lambda *args: calls.append(1) or real(*args))
    build_pipeline(field, entries)
    assert calls == []
    entries[0] + entries[1]
    assert len(calls) == 1


@pytest.mark.parametrize("field_literal, form", LEG_PROOF_FORMS)
def test_a_span_part_forced_false_fails_only_the_leg_span(monkeypatch, field_literal, form):
    """G m_k read as not alternating in the proof: the six matrices are not
    shown to span G^-1 Alt, which holds [L, L], while the table is still
    proved and the rows are still orthogonal.  Only random_w_spans_match
    fails, and nothing raises.  `_alternating` is the engine's rule too, so
    it is patched only after the pipeline is built."""
    doc = _verify_leg_only(monkeypatch, field_literal, form,
                           _alternating=lambda m, diagonal: False)
    assert doc["random_w"]["equal"]
    assert _failed(doc["checks"]) == {"random_w_spans_match"}


def _doubled(real):
    return lambda x, y: {pos: z + z for pos, z in real(x, y).items()}


def _escaping(real):
    return lambda x, y: {**real(x, y), (0, 0): liealg.SYMBOLS[0]}


@pytest.mark.parametrize("patch", [_doubled, _escaping], ids=["doubled", "escaping"])
def test_a_patched_commutator_fails_both_leg_checks(monkeypatch, patch):
    """Every commutator doubled: the doubled coordinates still realize it
    and each G m_k is still alternating, but each m_k is now 2 times a
    monomial times a bracket, and 2 vanishes in characteristic 2, so
    [L, L] is not shown to hold the m_k.  Every commutator given an entry
    at (1, 1), where no m_k is nonzero: the coordinates read at the own
    entries are unchanged, but sum_k c_k m_k misses that entry, so
    `coordinates` refuses them.  Either way the span fails with the table,
    and both of the leg's checks fail, with nothing raised.  The proof
    reads commutators through the engine's `coordinates`, so in verify the
    patch comes after the pipeline is built."""
    patched = patch(liealg.commutator)
    with monkeypatch.context() as mp:
        mp.setattr(liealg, "commutator", patched)
        proof = liealg._prove_identity()
        assert not proof["table"] and not proof["span"]
    doc = _verify_leg_only(monkeypatch, "F2(t)", "1,t,t+1,t^2+1", commutator=patched)
    assert _failed(doc["checks"]) == {"random_w_spans_match", "random_w_tables_match"}


def test_a_singular_primed_diagonal_fails_the_leg(monkeypatch):
    """w4 = 0 claimed with square 0: every value of the form on the rows is
    the claimed one, but G' is singular, so B is not invertible and the
    proof's facts at G' say nothing about M.  Both of the leg's checks
    fail; D = 1 and D' = 0 are both squares, and nothing raises."""
    real = structure._orthogonal_rows

    def zeroed(pipe, rng):
        attempt, w, rows, primed = real(pipe, rng)
        return attempt, w, rows[:3] + ({},), primed[:3] + (pipe.field.zero(),)

    monkeypatch.setattr(structure, "_orthogonal_rows", zeroed)
    for field in (Q, F3, F2T):
        doc = verify_current_form(field, ints(field, [1, 1, 1, 1]))
        assert doc["random_w"]["D"] == "0" and not doc["random_w"]["equal"]
        assert _failed(doc["checks"]) == {"random_w_spans_match", "random_w_tables_match"}


def test_the_proof_makes_no_field_arithmetic(monkeypatch):
    """The proof computes over Z[a, b, c, d] only: no field multiplication
    and no polynomial gcd, whatever the input's field."""
    calls = []
    for owner, name in [(scalars.FieldElement, "__mul__"), (scalars, "poly_gcd")]:
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real: calls.append(1) or real(*args))
    assert all(liealg._prove_identity().values())
    assert calls == []


def _changed(rows, index, column, change):
    """The rows with one field of one row changed."""
    row = rows[index]
    return rows[:index] + (row[:column] + (change(row[column]),) + row[column + 1:],) + rows[index + 1:]


def _negated(symbol):
    return symbol[1:] if symbol.startswith("-") else "-" + symbol


def _times_a(kappa):
    return f"{kappa} a".strip()


@pytest.mark.parametrize("patches, failed", [
    ({"TABLE_ROWS": _changed(liealg.TABLE_ROWS, 0, 2, lambda _: "c")}, {"table", "tensor"}),
    ({"WEDGE_ROWS": _changed(liealg.WEDGE_ROWS, 3, 3, lambda _: "a b c")}, {"table"}),
    ({"WEDGE_ROWS": _changed(liealg.WEDGE_ROWS, 0, 3, lambda _: "c")}, {"table", "tensor"}),
    # f3 on f1's pair {1, 2}: five supports for M, two for the core.
    ({"WEDGE_ROWS": _changed(liealg.WEDGE_ROWS, 2, 2, lambda _: 2)},
     {"table", "span", "tensor", "core_span"}),
    # Every equation of x^T G + G x = 0 also reads x[0][0].
    ({"_skew_equations": lambda gram, real=liealg._skew_equations:
      [{**eq, 0: ONE} for eq in real(gram)]}, {"laws"}),
], ids=["table-row", "h1-kappa", "f1-kappa", "f3-pair", "skew-equations"])
def test_each_fact_of_the_proof_can_fail(monkeypatch, patches, failed):
    """A misstated row or rule fails exactly the facts that rest on it:
    [f1, f2] = c f3 fails the table and the tensor form; h1 scaled by c
    only M's table; f1 scaled by c the core's brackets too; f3 on f1's
    pair every reading; and an equation that reads an entry outside its
    pair the dimension laws."""
    monkeypatch.setattr(liealg, "_PROOFS", {})
    for name, value in patches.items():
        monkeypatch.setattr(liealg, name, value)
    proof = liealg.prove_identity()
    assert {fact for fact, ok in proof.items() if not ok} == failed


def test_the_proof_runs_once_per_value_of_the_rows(monkeypatch):
    """prove_identity reads no input, so it proves WEDGE_ROWS and
    TABLE_ROWS once per value of the two: a second call proves nothing,
    a changed TABLE_ROWS is proved again and fails, and the rows put back
    find their proof."""
    runs = []
    real = liealg._prove_identity
    monkeypatch.setattr(liealg, "_prove_identity", lambda: runs.append(1) or real())
    monkeypatch.setattr(liealg, "_PROOFS", {})
    assert all(liealg.prove_identity().values()) and all(liealg.prove_identity().values())
    assert runs == [1]
    with monkeypatch.context() as mp:
        mp.setattr(liealg, "TABLE_ROWS", _changed(liealg.TABLE_ROWS, 0, 2, lambda _: "c"))
        proof = liealg.prove_identity()
    assert runs == [1, 1] and not proof["table"] and not proof["tensor"]
    assert all(liealg.prove_identity().values()) and runs == [1, 1]


@pytest.mark.parametrize("name, index", [("TABLE_ROWS", i) for i in range(12)]
                         + [("WEDGE_ROWS", i) for i in range(6)])
def test_a_changed_coefficient_fails_at_the_pipeline_level(monkeypatch, name, index):
    """Each TABLE_ROWS coefficient negated, and each WEDGE_ROWS kappa
    multiplied by a, one at a time: at a generic Q diagonal, verify,
    classify and the checker report tables_match or
    distinguished_basis_spans_derived failed, not only the random-W leg's
    checks.  The changed rows are proved again for their new value."""
    rows = getattr(liealg, name)
    changed = (_changed(rows, index, 2, _negated) if name == "TABLE_ROWS"
               else _changed(rows, index, 3, _times_a))
    monkeypatch.setattr(liealg, name, changed)
    entries = ints(Q, [2, 3, 5, 7])
    cert = classify(Q, entries)
    pipeline_checks = {"tables_match", "distinguished_basis_spans_derived"}
    for checks in (verify_current_form(Q, entries)["checks"], cert["checks"],
                   recheck_certificate_json(cert)):
        assert _failed(checks) & pipeline_checks


@pytest.mark.parametrize("literal, form", [
    ("Q", "1,2,3,4"), ("F3", "1,1,1,2"), ("F2(t)", "1,t,t+1,t^2+1"), ("F3[sqrt 2]", "1,1,1,1+r"),
])
def test_documents_build_no_kernel_and_no_commutator(monkeypatch, literal, form):
    """Once the proof has run in the process, build_pipeline and verify
    outside its random-W leg call no kernel, no commutator and no
    coordinate reading, and run no elimination: diagonal_form reads
    nondegeneracy off the diagonal entries, where a rank check of the Gram
    matrix ran one.  classify and the checker call no kernel and no
    commutator either, and `table` calls none of the four."""
    field = parse_field(literal)
    entries = [parse_scalar(x, field) for x in form.split(",")]
    liealg.prove_identity()
    calls, in_leg = Counter(), []

    def counted(owner, name):
        real = getattr(owner, name)

        def counting(*args):
            if not in_leg:
                calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in [(exact_linalg, "_eliminate"), (exact_linalg, "kernel"), (forms, "kernel"),
                        (liealg, "kernel"), (exact_linalg, "commutator"), (liealg, "commutator"),
                        (liealg, "coordinates")]:
        counted(owner, name)
    real_leg = structure._random_w_leg

    def uncounted_leg(pipe, rng):
        in_leg.append(1)
        try:
            return real_leg(pipe, rng)
        finally:
            in_leg.pop()

    monkeypatch.setattr(structure, "_random_w_leg", uncounted_leg)
    build_pipeline(field, entries)
    assert calls == {}
    calls.clear()
    assert _ok(verify_current_form(field, entries))
    assert calls == {}
    calls.clear()
    assert all(c["ok"] for c in recheck_certificate_json(classify(field, entries)))
    assert calls["kernel"] == calls["commutator"] == 0
    calls.clear()
    assert execute(parse_args(["table", "--field", literal, "--form", form]))[0] == 0
    assert calls == {}


NUMERIC_FIELDS = ["Q", "F2", "F3", "F5", "F2(t)", "F3(t)", "F3[sqrt 2]", "F2(t)[sqrt t+1]"]


@pytest.mark.parametrize("literal", NUMERIC_FIELDS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_the_numeric_route_matches_the_evaluated_pipeline(literal, seed):
    """The documents evaluate the proven facts; the reference derives them
    at the input: dim L and dim [L, L] from L's kernel and commutators, for
    M's form and the core's, the spans of both distinguished bases, M read
    from its basis matrices' commutators, and M as core (x) F[X]/(X^2 - D)
    built as algebras.  The evaluated core is the core built from its
    matrices."""
    field = parse_field(literal)
    entries = [random_element(field, random.Random(seed), nonzero=True) for _ in range(4)]
    pipe = build_pipeline(field, entries)
    assert all(pipe.proof.values()) and all(c["ok"] for c in pipe.identity)
    for n in (4, 3):
        skew_dim, derived = derived_span(diagonal_form(field, entries[:n]))
        assert (skew_dim, derived.dim) == proven_dims(n, field.characteristic() == 2)
        assert spans(current_basis(*entries[:n]), derived)
    core = algebra_from_matrices(field, current_basis(*entries[:3]))
    assert algebra_from_matrices(field, current_basis(*entries)) == pipe.algebra
    assert pipe.algebra == tensor_current(core, pipe.disc, 2)
    assert evaluated_algebra(entries[:3]) == core


@pytest.mark.parametrize("literal", ["Q", "F3", "F3(t)", "F2(t)", "F3[sqrt 2]"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_paper_table_is_core_tensor_quadratic_quotient(literal, seed):
    """The paper's table rows, specialized to nonzero (a, b, c, d), are the
    brackets of core(a, b, c) (x) F[X]/(X^2 - abcd)."""
    field = parse_field(literal)
    rng = random.Random(seed)
    a, b, c, d = (random_element(field, rng, nonzero=True) for _ in range(4))
    expected = tensor_current(current_algebra((a, b, c)), a * b * c * d, 2)
    assert table_brackets(a, b, c, d) == expected.brackets


LEG_FIELDS = ["Q", "F3", "F3(t)", "F2(t)", "F3[sqrt 2]", "F2(t)[sqrt t+1]"]


@pytest.mark.parametrize("literal", LEG_FIELDS)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_wedges_are_the_conjugated_distinguished_basis(literal, seed):
    """The dense path that the leg's isometry check replaces, and the
    numeric instance of the proof the leg rests on, as references.  On the
    leg's own rows w1..w4, the conjugates B^T m B^-T of current_basis at
    the leg's diagonal (multiples of the wedges w_r ^ w_s), computed with
    an inverse, realize the paper's table at that diagonal, lie in [L, L]
    and have rank 6.  They are the wedges, and cleared of their
    denominators they keep their span.  At the leg's diagonal itself, M
    built by the engine has the paper's table and spans [L', L']."""
    field = parse_field(literal)
    rng = random.Random(seed)
    entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
    pipe = build_pipeline(field, entries)
    _, _, rows, primed = structure._orthogonal_rows(pipe, random.Random(seed))
    rows = dense_rows(field, rows, 4)
    conjugates = conjugated_current_basis(rows, primed)
    assert wedge_basis(gram_matrix(pipe.form), rows, primed) == conjugates
    assert realization_mismatch(table_brackets(*primed), conjugates) is None
    flats = [flat(m) for m in conjugates]
    assert all(derived_span(pipe.form)[1].contains(v) for v in flats)
    span = canonicalize_subspace(field, flats, 16)
    assert span.dim == 6
    cleared = [flat(scaled(common_denominator(field, flat(m)), m)) for m in conjugates]
    assert canonicalize_subspace(field, cleared, 16) == span
    at_primed = current_algebra(primed)
    assert at_primed.brackets == table_brackets(*primed)
    assert spans(current_basis(*primed), derived_span(diagonal_form(field, primed))[1])


@pytest.mark.parametrize("literal", LEG_FIELDS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_wedges_of_the_standard_basis_are_the_distinguished_basis(literal, seed):
    """M's basis is the reference wedges at the standard basis, and the
    core's basis for diag(a, b, c) is the top-left 3 x 3 blocks of f1..f3."""
    field = parse_field(literal)
    rng = random.Random(seed)
    entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
    gram = gram_matrix(diagonal_form(field, entries))
    basis = wedge_basis(gram, identity(field, 4).rows, entries)
    assert basis == dense_basis(*entries)
    blocks = tuple(Matrix(field, [row[:3] for row in m.rows[:3]]) for m in basis[:3])
    assert blocks == dense_basis(*entries[:3])


def _leg_literals(found):
    """(attempt, W, rows, squares), or None, as the literals a document holds."""
    if found is None:
        return None
    attempt, w, rows, squares = found
    return (attempt, subspace_to_json(w), [[render_scalar(x) for x in row] for row in rows],
            [render_scalar(x) for x in squares])


def _leg_rows_or_none(pipe, seed, max_tries):
    """The leg's (attempt, W, rows, squares) with the rows written out, or
    None."""
    with patch.object(structure, "RANDOM_W_ATTEMPTS", max_tries):
        try:
            attempt, w, rows, squares = structure._orthogonal_rows(pipe, random.Random(seed))
        except structure.NondegenerateWRequired:
            return None
    return attempt, w, dense_rows(pipe.field, rows, 4), squares


def _assert_leg_rows_are_the_reference(pipe, seed, max_tries):
    found = _leg_rows_or_none(pipe, seed, max_tries)
    expected = orthogonal_rows_by_restriction(pipe.form, random.Random(seed), max_tries)
    assert _leg_literals(found) == _leg_literals(expected)
    return found


@pytest.mark.parametrize("literal", LEG_FIELDS)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), max_tries=st.integers(1, 4))
def test_the_leg_rows_are_those_of_the_restriction(literal, seed, max_tries):
    """The leg decides each attempt by f(w4, w4) and orthogonalizes W's own
    rows; it returns the same attempt, W, rows and squares, to the byte, as
    the reference that restricts f to W, tests the rank, orthogonalizes in
    W's coordinates and carries the basis back by W's.  With few tries both
    give up together."""
    field = parse_field(literal)
    rng = random.Random(seed)
    pipe = build_pipeline(field, [random_element(field, rng, nonzero=True) for _ in range(4)])
    _assert_leg_rows_are_the_reference(pipe, seed, max_tries)


@pytest.mark.parametrize("literal, form", [
    ("F3", "1,1,1,1"),
    ("F5", "1,4,1,4"),
    ("Q", "1,-1,1,-1"),
])
def test_the_leg_retries_where_the_restriction_degenerates(literal, form):
    """Forms with isotropic vectors, where some W has a degenerate
    restriction: the leg retries on the attempts where the reference
    does, and some seed retries."""
    field = parse_field(literal)
    pipe = build_pipeline(field, [parse_scalar(x, field) for x in form.split(",")])
    bound = structure.RANDOM_W_ATTEMPTS
    attempts = [_assert_leg_rows_are_the_reference(pipe, seed, bound)[0] for seed in range(30)]
    assert max(attempts) > 1


def test_the_leg_computes_each_value_once(monkeypatch):
    """54 field multiplications and 45 polynomial gcds in the leg here,
    the same on every run.  Normalizing each term of an inner product, and
    each product that has a constant factor, read 109 and 165.
    Restricting f to W to test its rank,
    orthogonalizing in W's coordinates, carrying the basis back by W's and
    evaluating each square three times read 240 and 360."""
    field = parse_field("F3(t)")
    pipe = build_pipeline(field, [parse_scalar(x, field) for x in "1,t,t+1,2".split(",")])
    calls = {"__mul__": 0, "poly_gcd": 0}
    for owner, name in [(scalars.FieldElement, "__mul__"), (scalars, "poly_gcd")]:
        real = getattr(owner, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    part, checks = structure._random_w_leg(pipe, random.Random(0))
    assert part["attempts"] == 1 and all(c["ok"] for c in checks)
    assert calls["__mul__"] <= 54 and calls["poly_gcd"] <= 45


def test_a_non_orthogonal_basis_fails_the_leg_table_without_raising(monkeypatch):
    """w1 replaced by w1 + w2, with the diagonal kept: w1 + w2 is not
    orthogonal to w2, so the isometry fails, and with it both of the leg's
    checks; nothing raises.  (2 w1 would not do: over F3 and F3(t) it has
    the square of w1 and stays orthogonal.)"""
    real = structure.orthogonalize

    def skewed(form, rows=None):
        (w1, w2, w3), squares = real(form, rows)
        zero = form.field.zero()
        shifted = {j: x for j in range(4) if (x := w1.get(j, zero) + w2.get(j, zero))}
        return [shifted, w2, w3], squares

    for field_literal, form in [
        ("Q", "1,2,3,4"),
        ("F3", "1,2,1,2"),
        ("F3(t)", "1,1,t+1,t"),
        ("F2(t)", "1,t,t+1,t^2+1"),
    ]:
        field = parse_field(field_literal)
        with monkeypatch.context() as mp:
            mp.setattr(structure, "orthogonalize", skewed)
            doc = verify_current_form(field, [parse_scalar(x, field) for x in form.split(",")])
        assert _failed(doc["checks"]) == {"random_w_spans_match", "random_w_tables_match"}


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

        def misclaimed(form, rows=None, factor=factor):
            basis, (first, *rest) = real(form, rows)
            return basis, (first * factor, *rest)

        with monkeypatch.context() as mp:
            mp.setattr(structure, "orthogonalize", misclaimed)
            doc = verify_current_form(field, [parse_scalar(x, field) for x in form.split(",")])
        assert _failed(doc["checks"]) == {"random_w_spans_match", "random_w_tables_match"}


def test_a_complement_row_that_is_not_orthogonal_fails_the_leg_isometry(monkeypatch):
    """w4 replaced by w4 + u, for u the first basis row of W: the leg takes
    d' as the square of the row it has, so only the off-diagonal pairs of
    the isometry see that the row is not orthogonal to W.  Both of the
    leg's checks fail; D' keeps its square class here, and nothing
    raises."""
    real = structure.orthogonal_complement

    def tilted(form, w):
        row, u, zero = real(form, w).rows[0], w.rows[0], form.field.zero()
        return canonicalize_subspace(form.field, [[row.get(j, zero) + u.get(j, zero)
                                                   for j in range(4)]], 4)

    for field_literal, form in [
        ("Q", "1,2,3,4"),
        ("F3(t)", "1,1,t+1,t"),
        ("F2(t)", "1,t,t+1,t^2+1"),
    ]:
        field = parse_field(field_literal)
        with monkeypatch.context() as mp:
            mp.setattr(structure, "orthogonal_complement", tilted)
            doc = verify_current_form(field, [parse_scalar(x, field) for x in form.split(",")])
        assert _failed(doc["checks"]) == {"random_w_spans_match", "random_w_tables_match"}


def test_span_identity_failure_reaches_every_report(monkeypatch):
    """Spans that the proof does not show, for M's basis and the core's,
    fail the span checks of verify, classify and the checker.  verify's
    dimension laws read both spans, and the random-W leg reads M's."""
    real = structure.prove_identity
    monkeypatch.setattr(structure, "prove_identity",
                        lambda: {**real(), "span": False, "core_span": False})
    entries = ints(Q, [1, 2, 3, 4])
    assert _failed(verify_current_form(Q, entries)["checks"]) == {
        "distinguished_basis_spans_derived", "core_basis_spans_derived", "dimension_laws",
        "random_w_spans_match",
    }
    cert = classify(Q, entries)
    assert _failed(cert["checks"]) == {"distinguished_basis_spans_derived"}
    rechecked = recheck_certificate_json(cert)
    assert _failed(rechecked) == {"distinguished_basis_spans_derived"}


def test_recheck_catches_ideals_that_do_not_sum_to_m():
    data = classify(Q, ints(Q, [1, 1, 1, 1]))
    data["witnesses"]["I2"] = data["witnesses"]["I1"]
    assert _failed(recheck_certificate_json(data)) == {"sum_direct", "sum_is_everything"}


@pytest.mark.parametrize("literal", ["Q", "F3", "F2(t)"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), dims=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       share=st.booleans())
def test_sum_checks_match_the_zassenhaus_meet(literal, seed, dims, share):
    """sum_direct reads dim(A + B) = dim A + dim B, and the reference meet
    from the Zassenhaus block elimination is zero exactly then.  With
    `share`, B also spans A's first row."""
    field = parse_field(literal)
    rng = random.Random(seed)
    rows_a, rows_b = ([[random_element(field, rng) for _ in range(4)] for _ in range(k)]
                      for k in dims)
    if share:
        rows_b += rows_a[:1]
    a, b = (canonicalize_subspace(field, rows, 4) for rows in (rows_a, rows_b))
    meet, join = subspace_meet_join(a, b)
    checks = structure._sum_checks(a, b)
    assert [c["name"] for c in checks] == ["sum_direct", "sum_is_everything"]
    assert checks[0]["ok"] == (meet.dim == 0)
    assert checks[1]["ok"] == (join.dim == 4)


def test_descent_certificate_over_quadratic_extension():
    pipe = build_pipeline(F3, ints(F3, [1, 1, 1, 2]))
    ext = quadratic_extension(F3, pipe.disc)
    lifted = {
        pair: {k: lift_to_extension(x, ext) for k, x in c.items()}
        for pair, c in coordinates(current_basis(*pipe.entries[:3])).items()
    }
    lifted = LieAlgebraSC(ext, 3, lifted)
    cert = certify_simple_via_descent(lifted, F3)
    assert _ok(cert) and cert["extension_kind"] == "quadratic"
    # Lifting is a ring map: the core built over ext has the lifted table.
    built = current_algebra([lift_to_extension(x, ext) for x in pipe.entries[:3]])
    assert built == lifted


def test_descent_rejects_unrelated_fields():
    alg = LieAlgebraSC(Q, 3, brackets_of({(0, 1): ints(Q, [0, 0, 1]), (1, 2): ints(Q, [1, 0, 0]),
                                          (0, 2): ints(Q, [0, -1, 0])}))
    with pytest.raises(DescriptorMismatch):
        certify_simple_via_descent(alg, F3)


def _counterexample_and_descents(monkeypatch, p):
    """The counterexample document at p, and the descent documents it
    built on the way."""
    descents = []
    real = structure.certify_simple_via_descent

    def recorded(alg, base):
        descents.append(real(alg, base))
        return descents[-1]

    monkeypatch.setattr(structure, "certify_simple_via_descent", recorded)
    return inseparable_counterexample(p), descents


def test_counterexample_p2(monkeypatch):
    doc, descents = _counterexample_and_descents(monkeypatch, 2)
    assert _ok(doc)
    assert doc["current_dim"] == 6
    assert doc["radical_dim"] == len(doc["radical"]) == 3
    assert doc["abelian_ideal"] == doc["radical"]
    assert doc["quotient_perfect"] and doc["quotient_dim"] == 3
    assert [d["extension_kind"] for d in descents] == ["inseparable_degree_p"]
    assert doc["descent_checks"] == descents[0]["checks"]
    assert doc["s"] == "t"


def test_counterexample_p3():
    doc = inseparable_counterexample(3)
    assert _ok(doc)
    assert doc["current_dim"] == 9
    assert doc["radical_dim"] == len(doc["radical"]) == 6
    assert len(doc["abelian_ideal"]) == 3
    assert doc["quotient_perfect"] and doc["quotient_dim"] == 3


@pytest.mark.parametrize("p", [2, 3])
def test_counterexample_quotient_rule_matches_the_built_quotient(p):
    """The document's quotient_perfect, read off C = N (+) R with N a
    subalgebra and R an ideal (so C/R is N), agrees with the perfection of
    the quotient C/R that the reference builds from the recorded radical."""
    doc = inseparable_counterexample(p)
    ext = parse_field(doc["extension_field"])
    current = tensor_current(current_algebra([ext.one()] * 3), parse_scalar("u", ext) ** p, p)
    radical = canonicalize_subspace(
        ext, [[parse_scalar(x, ext) for x in row] for row in doc["radical"]], current.dim)
    quotient = quotient_algebra(current, radical)
    assert doc["quotient_dim"] == quotient.dim == 3
    assert doc["quotient_perfect"] == (derived_subspace(quotient).dim == quotient.dim)
    assert doc["quotient_perfect"]


def test_a_radical_that_skips_a_derived_step_is_not_solvable_in_time(monkeypatch):
    """R^(k) = core (x) (x - u)^(2^k), so the derived series of the radical
    reaches 0 in exactly ceil(log2 p) steps.  At p = 3 the radical built
    from the powers of x - u but the first, core (x) (x - u)^2, is
    abelian: its series reaches 0 in one step, not two, so
    radical_solvable fails, with radical_dim and the quotient check."""
    real = structure._core_tensor
    monkeypatch.setattr(structure, "_core_tensor", lambda *coeffs: real(*(coeffs[1:] or coeffs)))
    doc = inseparable_counterexample(3)
    assert doc["radical"] == doc["abelian_ideal"]
    assert _failed(doc["checks"]) == {"radical_dim", "radical_solvable", "quotient_perfect_dim_3"}


@pytest.mark.parametrize("field, form, witness, value, failed", [
    (Q, [1, 1, 1, 1], "e_minus", ["1/2", "1/2"],
     {"idempotents_orthogonal", "idempotents_sum_to_unit"}),
    (Q, [1, 1, 1, 1], "e_plus", ["1", "1"], {"e_plus_idempotent", "idempotents_sum_to_unit"}),
    (F2, [1, 1, 1, 1], "nilpotent", ["0", "0"], {"nilpotent_nonzero"}),
    (F2, [1, 1, 1, 1], "nilpotent", ["1", "0"], {"nilpotent_squares_to_zero"}),
])
def test_checker_refuses_a_changed_coefficient_witness(field, form, witness, value, failed):
    """The checker reports coeff_algebra's witness checks, the ones
    analyze_quadratic raises on, in their order, and a changed idempotent
    or nilpotent fails the identities it breaks."""
    cert = classify(field, ints(field, form))
    checks = recheck_certificate_json(cert)
    disc = parse_scalar(cert["D"], field)
    values = {k: tuple(parse_scalar(x, field) for x in v) for k, v in cert["witnesses"].items()
              if k in ("e_plus", "e_minus", "nilpotent")}
    shared = (coeff_algebra.nilpotent_witness_checks([values["nilpotent"]], disc)
              if witness == "nilpotent"
              else coeff_algebra.split_witness_checks(values["e_plus"], values["e_minus"], disc))
    start = checks.index(shared[0])
    assert checks[start:start + len(shared)] == shared
    cert["witnesses"][witness] = value
    assert _failed(recheck_certificate_json(cert)) == failed


def test_counterexample_rejects_other_primes():
    with pytest.raises(UnsupportedPrime):
        inseparable_counterexample(5)


@pytest.mark.parametrize("p", [5, 7])
def test_the_local_construction_holds_past_p_3(monkeypatch, p):
    """With the supported primes widened, the one construction of
    core (x) F[X]/(X - u)^p passes every check at p = 5 and 7, and the
    radical's derived series takes (p - 1).bit_length() brackets to 0."""
    monkeypatch.setattr(structure, "COUNTEREXAMPLE_PRIMES", (2, 3, p))
    series = []
    real = structure.derived_series_of_subspace

    def recorded(alg, space, steps):
        series.append(real(alg, space, steps))
        return series[-1]

    monkeypatch.setattr(structure, "derived_series_of_subspace", recorded)
    doc = inseparable_counterexample(p)
    assert _ok(doc)
    assert (doc["current_dim"], doc["radical_dim"], doc["quotient_dim"]) == (3 * p, 3 * (p - 1), 3)
    assert doc["quotient_perfect"] and len(doc["abelian_ideal"]) == 3
    [chain] = series
    assert chain[0].dim == 3 * (p - 1) and chain[-1].dim == 0
    assert len(chain) - 1 == (p - 1).bit_length()


def test_split_ideal_closure_regenerates_each_ideal():
    rng = random.Random(77)
    cert = classify(Q, ints(Q, [1, 1, 1, 1]))
    alg = current_algebra(ints(Q, [1, 1, 1, 1]))
    for name in ("I1", "I2"):
        space = document_subspace(cert["witnesses"][name], Q)
        for _ in range(5):
            coeffs = [random_element(Q, rng) for _ in range(3)]
            v = tuple(
                sum((c * x for c, x in zip(coeffs, col)), Q.zero())
                for col in zip(*basis_matrix(space).rows)
            )
            if all(x.is_zero() for x in v):
                continue
            assert ideal_closure(alg, [v]) == space


def test_semidirect_bracket_relations():
    from orthocurrent.liealg import bracket_span, derived_series_of_subspace

    cert = classify(F2, ints(F2, [1, 1, 1, 1]))
    alg = current_algebra(ints(F2, [1, 1, 1, 1]))
    n_space, r_space = (document_subspace(cert["witnesses"][name], F2) for name in ("N", "R"))
    # [N, R] lands in R and [R, R] = 0
    for n_row in n_space.rows:
        for r_row in r_space.rows:
            assert r_space.contains(alg.bracket(n_row, r_row))
    assert bracket_span(alg, r_space).dim == 0
    chain = derived_series_of_subspace(alg, r_space, alg.dim)
    assert [s.dim for s in chain] == [3, 0]


def test_ideal_closure_zero_seed():
    alg = current_algebra(ints(Q, [1, 1, 1, 1]))
    zero_vec = tuple(Q.zero() for _ in range(6))
    assert ideal_closure(alg, [zero_vec]).dim == 0


def test_random_w_retry_and_exhaustion(monkeypatch):
    from orthocurrent.structure import NondegenerateWRequired

    ones = [F2.one()] * 4
    doc = verify_current_form(F2, ones, seed=0)
    assert doc["random_w"]["attempts"] == 4 and _ok(doc)
    monkeypatch.setattr(structure, "RANDOM_W_ATTEMPTS", 1)
    with pytest.raises(NondegenerateWRequired):
        verify_current_form(F2, ones, seed=0)


def test_verify_randomized_smoke():
    rng = random.Random(99)
    for field in [Q, F3, F2T]:
        entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
        doc = verify_current_form(field, entries, seed=1)
        assert _ok(doc), _failed(doc["checks"])


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
    skew_dim, derived = derived_span(forms[0])
    assert derived.dim == 6 and skew_dim == (10 if field.characteristic() == 2 else 6)
    for form in forms:
        assert derived_span(form) == derived_span_by_coordinates(form)


def test_spans_needs_as_many_matrices_as_the_space_has_dimensions():
    """spans reads the rank of matrices that building their algebra proved
    independent off their number: M's basis spans [L, L], and without its
    last matrix it lies in [L, L] but does not span it."""
    for field, literals in (("Q", "1,2,3,4"), ("F3", "1,1,1,2"), ("F2", "1,1,1,1")):
        field = parse_field(field)
        entries = [parse_scalar(x, field) for x in literals.split(",")]
        basis = current_basis(*entries)
        derived = derived_span(diagonal_form(field, entries))[1]
        assert spans(basis, derived)
        assert not spans(basis[:-1], derived)


def test_a_skew_basis_that_is_not_closed_is_refused(monkeypatch):
    """L's basis without its last matrix spans a space that some commutator
    leaves: the numeric route raises NotClosed."""
    real = reference.skew_adjoint_algebra

    def short(form):
        skew = real(form)
        return canonicalize_subspace(skew.field, skew.rows[:-1], skew.ambient_dim)

    form = diagonal_form(F3, ints(F3, [1, 2, 1, 2]))
    mats, span = skew_matrices(form)[:-1], short(form)
    assert span.dim == len(mats) == 5
    assert not all(span.contains(flat(dense_commutator(x, y))) for x in mats for y in mats)
    monkeypatch.setattr(reference, "skew_adjoint_algebra", short)
    with pytest.raises(NotClosed):
        derived_span(form)


def test_no_structure_constants_for_l_or_for_a_witness(monkeypatch):
    """Over F3 1,2,1,2, classify and verify each build M alone, evaluated
    from the proven table, and nothing for the random-W leg, whose table
    and span rest on the proof over Z[a, b, c, d].  L, the core and the
    witness ideals get no structure constants; building M, the core and
    core (x) F[X]/(X^2 - D) from matrices made three."""
    built = []
    real = LieAlgebraSC.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(LieAlgebraSC, "__init__", counting)
    entries = ints(F3, [1, 2, 1, 2])
    assert _ok(classify(F3, entries))
    assert len(built) == 1
    built.clear()
    assert _ok(verify_current_form(F3, entries))
    assert len(built) == 1


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
    starts += [document_subspace(rows, field) for name, rows in cert["witnesses"].items()
               if name in ("I1", "I2", "N", "R")]
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
    rows = list(start.rows) + [[parse_scalar(x, field) for x in v] for v in vectors]
    space = canonicalize_subspace(field, rows, 6)
    if draw(st.booleans()):
        while True:
            rows = list(space.rows) + list(bracket_span(alg, space).rows)
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
    assert [c["name"] for c in checks] == ["X_dim_3", "X_bracket_closed", "X_perfect"]
    assert checks[0]["ok"] == (space.dim == 3)
    assert (checks[1]["ok"], checks[2]["ok"]) == closed_and_perfect(alg, space)
