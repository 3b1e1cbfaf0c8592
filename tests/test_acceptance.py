"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every comparison is exact; the only tolerances are
the wall-clock budgets stated alongside each criterion.
"""

import math
import random
import time

import pytest

from orthocurrent.exact_linalg import Matrix, canonicalize_subspace, kernel
from orthocurrent.forms import diagonal_form, make_form
from orthocurrent.liealg import algebra_from_matrices, bracket_span
from orthocurrent.oracle import gaussian_binomial
from orthocurrent.scalars import (
    function_field,
    is_square,
    parse_scalar,
    prime_field,
    quadratic_extension,
    rationals,
    render_field,
)
from orthocurrent.structure import (
    CASE_SEMIDIRECT,
    CASE_SIMPLE,
    CASE_TWO_IDEALS,
    build_pipeline,
    classify,
    inseparable_counterexample,
    recheck_certificate_json,
    verify_current_form,
)

from reference import (
    brackets_of,
    current_algebra,
    det,
    document_subspace,
    enumerate_subspaces,
    ideal_subspaces,
    jacobi_failure,
    random_element,
    skew_matrices,
    sparse,
)

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)
F2T = function_field(2, "t")

F2T_POOL = (
    "1", "t", "t+1", "t^2+1", "t^2+t+1",
    "(1)/(t)", "(1)/(t+1)", "(t)/(t+1)", "(t+1)/(t)", "(t^2)/(t+1)",
)


def _random_entries(field, rng):
    if field is F2T:
        return tuple(parse_scalar(rng.choice(F2T_POOL), field) for _ in range(4))
    return tuple(random_element(field, rng, nonzero=True) for _ in range(4))


def _ok(doc):
    return all(c["ok"] for c in doc["checks"])


def _passline(number, description, elapsed=None):
    suffix = f" in {elapsed:.2f}s" if elapsed is not None else ""
    print(f"\ncriterion {number} ({description}): PASS{suffix}")


@pytest.fixture(scope="module")
def randomized_runs():
    """Shared randomized inputs and verification reports (criteria 2-4)."""
    plan = [(Q, 40), (F2, 40), (F3, 40), (F5, 40), (F7, 30), (F2T, 14)]
    runs = []
    start = time.perf_counter()
    for field, count in plan:
        for i in range(count):
            rng = random.Random(f"{render_field(field)}-{i}")
            entries = _random_entries(field, rng)
            runs.append((field, entries, verify_current_form(field, entries, seed=i)))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    field = Q
    entries = [field.from_int(x) for x in (1, 2, 3, 4)]
    pipe = build_pipeline(field, entries)

    def unit(k, coeff):
        return tuple(field.from_int(coeff) if m == k else field.zero() for m in range(6))

    zero6 = tuple(field.zero() for _ in range(6))
    # (f1, f2, f3, h1, h2, h3) at positions 0..5; D = 24
    expected_pairs = {
        (0, 1): unit(2, 2),     # [f1,f2] = b f3 = 2 f3
        (1, 2): unit(0, 3),     # [f2,f3] = c f1 = 3 f1
        (2, 0): unit(1, 1),     # [f3,f1] = a f2 = 1 f2
        (0, 4): unit(5, 2),     # [f1,h2] = b h3 = 2 h3
        (1, 5): unit(3, 3),     # [f2,h3] = c h1 = 3 h1
        (2, 3): unit(4, 1),     # [f3,h1] = a h2 = 1 h2
        (1, 3): unit(5, -2),    # [f2,h1] = -b h3 = -2 h3
        (2, 4): unit(3, -3),    # [f3,h2] = -c h1 = -3 h1
        (0, 5): unit(4, -1),    # [f1,h3] = -a h2 = -1 h2
        (3, 4): unit(2, 48),    # [h1,h2] = D b f3 = 48 f3
        (4, 5): unit(0, 72),    # [h2,h3] = D c f1 = 72 f1
        (5, 3): unit(1, 24),    # [h3,h1] = D a f2 = 24 f2
        (0, 3): zero6,          # [f1,h1] = 0
        (1, 4): zero6,          # [f2,h2] = 0
        (2, 5): zero6,          # [f3,h3] = 0
    }
    expected = {(i, j) if i < j else (j, i): coords if i < j else tuple(-x for x in coords)
                for (i, j), coords in expected_pairs.items()}
    assert pipe.algebra.brackets == brackets_of(expected)
    assert pipe.disc == field.from_int(24)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passline(1, "table reproduction over Q with (1,2,3,4)", elapsed)


def test_criterion_2_randomized_verification(randomized_runs):
    runs, elapsed = randomized_runs
    assert len(runs) >= 200
    fields_used = {render_field(f) for f, _, _ in runs}
    assert fields_used == {"Q", "F2", "F3", "F5", "F7", "F2(t)"}
    for field, entries, doc in runs:
        assert doc["equal"], (render_field(field), entries)
        assert doc["random_w"]["equal"], (render_field(field), entries)
        assert _ok(doc)
    assert elapsed < 60.0
    _passline(2, f"{len(runs)} randomized table verifications", elapsed)


def test_criterion_3_dimension_laws(randomized_runs):
    runs, _ = randomized_runs
    start = time.perf_counter()
    for field, entries, doc in runs:
        char2 = field.characteristic() == 2
        assert doc["dims"]["skew_adjoint"] == (10 if char2 else 6)
        assert doc["dims"]["derived"] == 6
        assert doc["dims"]["core_skew_adjoint"] == (6 if char2 else 3)
        assert doc["dims"]["core_derived"] == 3
    _passline(3, "dimension laws on all randomized forms", time.perf_counter() - start)


def test_criterion_4_classification_trichotomy(randomized_runs):
    runs, _ = randomized_runs
    start = time.perf_counter()
    for field, entries, _ in runs:
        cert = classify(field, entries)
        square = is_square(parse_scalar(cert["D"], field)) is not None
        char2 = field.characteristic() == 2
        if not square:
            assert cert["case"] == CASE_SIMPLE
        elif char2:
            assert cert["case"] == CASE_SEMIDIRECT
        else:
            assert cert["case"] == CASE_TWO_IDEALS
        assert _ok(cert)
        rechecked = recheck_certificate_json(cert)
        assert all(c["ok"] for c in rechecked), [c for c in rechecked if not c["ok"]]
    _passline(4, "classification trichotomy with independent recheck",
              time.perf_counter() - start)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    # split case over F_3: exactly the four ideals 0, I1, I2, M
    cert = classify(F3, [F3.one()] * 4)
    assert cert["case"] == CASE_TWO_IDEALS
    alg = current_algebra([F3.one()] * 4)
    ideals = ideal_subspaces(alg)
    assert len(ideals) == 4
    three_dim = {s for s in ideals if s.dim == 3}
    assert three_dim == {document_subspace(cert["witnesses"][name], F3) for name in ("I1", "I2")}
    assert {s.dim for s in ideals} == {0, 3, 6}

    # simple case over F_3: only 0 and M
    simple = [F3.one(), F3.one(), F3.one(), F3.from_int(2)]
    assert classify(F3, simple)["case"] == CASE_SIMPLE
    ideals2 = ideal_subspaces(current_algebra(simple))
    assert sorted(s.dim for s in ideals2) == [0, 6]

    # characteristic 2: the enumeration contains the certified abelian radical
    cert3 = classify(F2, [F2.one()] * 4)
    assert cert3["case"] == CASE_SEMIDIRECT
    alg3 = current_algebra([F2.one()] * 4)
    ideals3 = ideal_subspaces(alg3)
    r = document_subspace(cert3["witnesses"]["R"], F2)
    assert r in ideals3 and r.dim == 3
    assert bracket_span(alg3, r).dim == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passline(5, "exhaustive ideal enumeration matches certificates", elapsed)


def test_criterion_6_subspace_counting():
    start = time.perf_counter()
    checked = 0
    for q in (2, 3):
        for n in range(7):
            for k in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(q, n, k))
                assert count == gaussian_binomial(n, k, q), (q, n, k)
                checked += 1
    assert gaussian_binomial(6, 3, 3) == 33880
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passline(6, f"subspace counts match Gaussian binomials ({checked} cases)", elapsed)


def test_criterion_7_counterexample():
    start = time.perf_counter()
    doc = inseparable_counterexample(2)
    assert doc["radical_dim"] == len(doc["radical"]) == 3
    assert doc["abelian_ideal"] == doc["radical"]
    names = {c["name"]: c["ok"] for c in doc["checks"]}
    assert names["radical_ideal"] and names["abelian_ideal_abelian"]
    assert names["quotient_perfect_dim_3"]
    assert names["s_has_no_pth_root"]
    assert all(c["ok"] for c in doc["descent_checks"])
    assert _ok(doc)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passline(7, "inseparable base change counterexample at p=2", elapsed)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    cases = 0
    rng = random.Random(424242)

    # field axioms on random triples, all descriptor kinds
    axiom_fields = [
        Q, F2, F3, F5, F7, F2T,
        quadratic_extension(Q, Q.from_int(2)),
        quadratic_extension(F3, F3.from_int(2)),
        quadratic_extension(F2T, parse_scalar("t", F2T)),
    ]
    from orthocurrent.scalars import inv

    for field in axiom_fields:
        for _ in range(40):
            x, y, z = (random_element(field, rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == field.zero()
            assert x * y == y * x
            if not x.is_zero():
                assert x * inv(x) == field.one()
            cases += 1

    # rank-nullity on random matrices
    for field in [Q, F2, F3, F5, F7, F2T]:
        for _ in range(40):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            m = Matrix(field, [[random_element(field, rng) for _ in range(ncols)]
                               for _ in range(nrows)])
            rank = canonicalize_subspace(field, m.rows, ncols).dim
            assert rank + kernel(field, m.rows, ncols).dim == ncols
            cases += 1

    # discriminant square class is invariant under congruence
    for field in [Q, F2, F3, F5, F7, F2T]:
        for _ in range(30):
            entries = [random_element(field, rng, nonzero=True) for _ in range(3)]
            form = diagonal_form(field, entries)
            while True:
                p = Matrix(field, [[random_element(field, rng) for _ in range(3)]
                                   for _ in range(3)])
                if not det(p).is_zero():
                    break
            moved = make_form(p * form.gram * p.transpose())
            assert moved.nondegenerate
            d1, d2 = det(form.gram), det(moved.gram)
            assert d2 == det(p) ** 2 * d1
            assert (is_square(d1) is None) == (is_square(d2) is None)
            cases += 1

    # antisymmetry and the Jacobi identity on random skew-adjoint algebras;
    # each basis triple the reference checks is a case
    for field in [Q, F2, F3, F5, F7, F2T]:
        for trial in range(10):
            entries = _random_entries(field, rng)[:3]
            mats = skew_matrices(diagonal_form(field, entries))
            alg = algebra_from_matrices(field, [sparse(m) for m in mats])
            one = field.one()
            for i in range(alg.dim):
                assert alg.bracket({i: one}, {i: one}) == {}
                for j in range(i + 1, alg.dim):
                    lhs = alg.bracket({i: one}, {j: one})
                    rhs = alg.bracket({j: one}, {i: one})
                    assert lhs == {k: -y for k, y in rhs.items()}
            assert jacobi_failure(alg) is None
            cases += math.comb(alg.dim, 3)

    assert cases >= 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passline(8, f"algebra-law property suites ({cases} randomized cases)", elapsed)
