import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocurrent import exact_linalg, liealg
from orthocurrent.exact_linalg import (
    Matrix,
    ShapeMismatch,
    canonicalize_subspace,
    commutator,
    kernel,
)
from orthocurrent.forms import diagonal_form, make_form
from orthocurrent.liealg import (
    SYMBOLS,
    IntPoly,
    InvalidStructure,
    LieAlgebraSC,
    NotIndependent,
    WrongDimension,
    ZeroEntry,
    _alternating,
    _wedges,
    algebra_from_matrices,
    bracket_span,
    coordinates,
    derived_series_of_subspace,
    derived_subspace,
    is_ideal,
    quotient_product,
    skew_adjoint_algebra,
    tensor_current,
)
from orthocurrent.scalars import (
    DescriptorMismatch,
    function_field,
    parse_field,
    parse_scalar,
    prime_field,
    quadratic_extension,
    rationals,
    render_scalar,
)
from orthocurrent.structure import table_to_json

from reference import (
    NotClosed,
    SpanSolver,
    brackets_of,
    current_algebra,
    current_basis,
    dense_basis,
    dense_bracket,
    dense_bracket_span,
    dense_commutator,
    dense_is_ideal,
    derived_span,
    det,
    flat,
    full_subspace,
    ideal_closure,
    is_zero_matrix,
    jacobi_failure,
    matrix_for,
    matrix_sum,
    random_element,
    realization_mismatch,
    scaled,
    skew_matrices,
    sparse,
    sparse_vector,
    structure_constants,
    unit,
)

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F2T = function_field(2, "t")


def diag_form(field, entries):
    return diagonal_form(field, [field.from_int(x) for x in entries])


def fe(field, values):
    return tuple(field.from_int(v) for v in values)


def skew_algebra(form):
    """The skew-adjoint algebra of the form with its structure constants."""
    return algebra_from_matrices(form.field, [sparse(m) for m in skew_matrices(form)])


def abelian_algebra(field, dim):
    return LieAlgebraSC(field, dim, {})


def test_skew_adjoint_dimensions():
    assert skew_adjoint_algebra(diag_form(Q, [1, 1, 1, 1])).dim == 6
    assert skew_adjoint_algebra(diag_form(F2, [1, 1, 1, 1])).dim == 10
    assert skew_adjoint_algebra(diag_form(Q, [1, 2, 3])).dim == 3
    assert skew_adjoint_algebra(diag_form(F2, [1, 1, 1])).dim == 6


def test_skew_adjoint_identity_form_is_antisymmetric_matrices():
    for m in skew_matrices(diag_form(Q, [1, 1, 1, 1])):
        assert is_zero_matrix(matrix_sum(m.transpose(), m))


def test_skew_adjoint_contains_core_basis():
    a, b, c = (Q.from_int(x) for x in (1, 2, 3))
    span = skew_adjoint_algebra(diag_form(Q, [1, 2, 3]))
    for m in dense_basis(a, b, c):
        assert span.contains(flat(m))


def test_skew_adjoint_non_diagonal_gram():
    rng = random.Random(5)
    from orthocurrent.forms import make_form

    for field in [Q, F3, F2, F2T]:
        char2 = field.characteristic() == 2
        done = 0
        while done < 3:
            grid = [[field.zero()] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    x = random_element(field, rng)
                    grid[i][j] = x
                    grid[j][i] = x
            gram = Matrix(field, grid)
            if det(gram).is_zero():
                continue
            form = make_form(gram)
            if char2 and form.alternating:
                continue
            mats = skew_matrices(form)
            assert len(mats) == (10 if char2 else 6)
            assert derived_span(form)[1].dim == 6
            for m in mats:
                assert is_zero_matrix(matrix_sum(m.transpose() * gram, gram * m))
            done += 1


def test_construction_rejects_bad_constants():
    # Brackets are given for pairs i < j below the dimension, with
    # coordinates indexed below it; nothing else can be written down.
    for key in ((1, 0), (1, 1), (0, 3), (-1, 1)):
        with pytest.raises(InvalidStructure, match="bracket key"):
            LieAlgebraSC(Q, 3, brackets_of({key: fe(Q, [1, 0, 0])}))
    for k in (-1, 3):
        with pytest.raises(InvalidStructure, match="coordinate index"):
            LieAlgebraSC(Q, 3, {(0, 1): {k: Q.one()}})
    # The constructor does not check Jacobi: [e0,e1]=e2, [e0,e2]=e0 is
    # accepted, and the reference finds the failure.
    alg = LieAlgebraSC(Q, 3, brackets_of({(0, 1): fe(Q, [0, 0, 1]), (0, 2): fe(Q, [1, 0, 0])}))
    assert jacobi_failure(alg) == (0, 1, 2)


def test_brackets_are_kept_canonical():
    """Zero coordinates, empty brackets and the order of keys are not part
    of an algebra: brackets that differ only in them build equal algebras,
    with the same kept brackets.  A bad index is still refused."""
    one, two, zero = Q.from_int(1), Q.from_int(2), Q.zero()
    plain = LieAlgebraSC(Q, 3, {(0, 1): {2: one}, (1, 2): {0: two}})
    for brackets in (
        {(0, 1): {2: one, 0: zero}, (1, 2): {0: two}},
        {(0, 1): {2: one}, (0, 2): {}, (1, 2): {0: two}},
        {(1, 2): {0: two}, (0, 1): {2: one}},
        {(0, 1): {1: zero, 2: one}, (0, 2): {0: zero}, (1, 2): {0: two, 2: zero}},
    ):
        alg = LieAlgebraSC(Q, 3, brackets)
        assert alg == plain and alg.brackets == {(0, 1): {2: one}, (1, 2): {0: two}}
    wide = LieAlgebraSC(Q, 4, {(0, 1): {2: one}, (1, 2): {0: two}})
    over_f3 = LieAlgebraSC(F3, 3, {(0, 1): {2: F3.one()}, (1, 2): {0: F3.from_int(2)}})
    assert plain != wide and plain != over_f3
    with pytest.raises(InvalidStructure, match="coordinate index"):
        LieAlgebraSC(Q, 3, {(0, 1): {2: one, 3: zero}})


def test_table_is_antisymmetric_by_construction():
    """[e_j, e_i] = -[e_i, e_j] and [e_i, e_i] = 0 in the full table that
    the documents render from the brackets, and [x, x] = 0 also in
    characteristic 2."""
    for field in (Q, F2, F3):
        alg = LieAlgebraSC(field, 3, brackets_of({
            (0, 1): fe(field, [0, 0, 1]), (1, 2): fe(field, [1, 0, 0]),
            (0, 2): fe(field, [0, -1, 0])}))
        table = table_to_json(alg)
        for i in range(3):
            assert table[i][i] == ["0", "0", "0"]
            for j in range(3):
                assert table[j][i] == [render_scalar(-parse_scalar(x, field)) for x in table[i][j]]
        rng = random.Random(4)
        for _ in range(5):
            u = sparse_vector(random_element(field, rng) for _ in range(3))
            assert alg.bracket(u, u) == {}


def test_bracket_examples():
    field = Q
    a, b, c, d = (field.from_int(x) for x in (1, 2, 3, 4))
    alg = algebra_from_matrices(field, current_basis(a, b, c, d))
    one = field.one()
    # [f1, f2] = b f3
    assert alg.bracket({0: one}, {1: one}) == {2: field.from_int(2)}
    # [h1, h2] = D b f3 = 48 f3
    assert alg.bracket({3: one}, {4: one}) == {2: field.from_int(48)}
    assert alg.ad(3, {4: one}) == {2: field.from_int(48)}
    rng = random.Random(0)
    u = sparse_vector(random_element(field, rng) for _ in range(6))
    assert alg.bracket(u, u) == {}
    # the sparse bracket is the dense one with zero coordinates left out
    for _ in range(5):
        x, y = (tuple(random_element(field, rng) for _ in range(6)) for _ in range(2))
        assert alg.bracket(sparse_vector(x), sparse_vector(y)) == sparse_vector(
            dense_bracket(alg, x, y))


def test_bracket_matches_matrix_commutators():
    rng = random.Random(1)
    mats = skew_matrices(diag_form(F3, [1, 1, 1, 2]))
    alg = algebra_from_matrices(F3, [sparse(m) for m in mats])
    for i in range(alg.dim):
        for j in range(alg.dim):
            mi, mj = mats[i], mats[j]
            comm = matrix_sum(mi * mj, scaled(-alg.field.one(), mj * mi))
            coords = alg.bracket({i: alg.field.one()}, {j: alg.field.one()})
            combo = matrix_for(mats, [coords.get(k, alg.field.zero()) for k in range(alg.dim)])
            assert comm == combo


def derived_series(alg):
    return derived_series_of_subspace(alg, full_subspace(alg.field, alg.dim), alg.dim)


def test_derived_series_perfect_over_q():
    alg = skew_algebra(diag_form(Q, [1, 2, 3, 4]))
    series = derived_series(alg)
    assert len(series) == 1 and series[0].dim == 6
    assert derived_subspace(alg).dim == alg.dim  # perfect


def test_derived_series_char2():
    alg = skew_algebra(diag_form(F2, [1, 1, 1, 1]))
    series = derived_series(alg)
    assert series[0].dim == 10 and series[1].dim == 6
    assert len(series) == 2  # the 6-dimensional derived algebra is perfect
    assert derived_subspace(alg).dim == 6


def test_derived_series_abelian():
    alg = abelian_algebra(Q, 2)
    series = derived_series(alg)
    assert [s.dim for s in series] == [2, 0]
    assert derived_subspace(alg).dim == 0


def test_derived_subalgebra_dims():
    assert derived_subspace(skew_algebra(diag_form(Q, [1, 2, 3, 4]))).dim == 6
    assert derived_subspace(skew_algebra(diag_form(F2, [1, 1, 1, 1]))).dim == 6
    assert derived_subspace(abelian_algebra(Q, 2)).dim == 0
    assert derived_subspace(skew_algebra(diag_form(F2, [1, 1, 1]))).dim == 3


def test_center_examples():
    """M has trivial center, over Q and in characteristic 2: the center is
    the kernel of the stacked adjoint operators."""
    for field in (Q, F2):
        m = current_algebra([field.one()] * 4)
        basis = [unit(m, i) for i in range(m.dim)]
        columns = [[dense_bracket(m, x, y) for y in basis] for x in basis]  # ad(x) e_j
        adjoints = [[col[k] for col in cols] for cols in columns for k in range(m.dim)]
        assert kernel(field, adjoints, m.dim).dim == 0


def test_current_basis_values():
    a, b, c, d = (Q.from_int(x) for x in (1, 1, 1, 1))
    cb = dense_basis(a, b, c, d)
    e = lambda i, j: [[1 if (r, c2) == (i - 1, j - 1) else 0 for c2 in range(4)] for r in range(4)]
    as_m = lambda g: Matrix(Q, [[Q.from_int(x) for x in row] for row in g])
    sub = lambda g1, g2: as_m([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(g1, g2)])
    assert cb[0] == sub(e(1, 2), e(2, 1))
    assert cb[3] == sub(e(3, 4), e(4, 3))
    # h2 with (1,2,3,4): bc(d e14 - a e41) = 6(4 e14 - e41)
    a, b, c, d = (Q.from_int(x) for x in (1, 2, 3, 4))
    cb = dense_basis(a, b, c, d)
    expected = as_m([[24 * x - 6 * y for x, y in zip(r1, r2)] for r1, r2 in zip(e(1, 4), e(4, 1))])
    assert cb[4] == expected
    # The basis is the wedge rule's sparse matrices as they stand.
    assert current_basis(a, b, c, d) == _wedges((a, b, c, d))
    assert current_basis(a, b, c) == _wedges((a, b, c))
    with pytest.raises(ZeroEntry):
        current_basis(Q.one(), Q.zero(), Q.one(), Q.one())
    with pytest.raises(WrongDimension):
        current_basis(Q.one(), Q.one())


def test_current_basis_independent_over_f2():
    ones = [F2.one()] * 4
    cb = dense_basis(*ones)
    span = canonicalize_subspace(F2, [flat(m) for m in cb], 16)
    assert span.dim == 6


def test_current_basis_spans_derived_algebra():
    rng = random.Random(5)
    for field in [Q, F3, F2, F2T]:
        for _ in range(4):
            entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
            m_span = derived_span(diagonal_form(field, entries))[1]
            cb = dense_basis(*entries)
            cb_span = canonicalize_subspace(field, [flat(mm) for mm in cb], 16)
            assert m_span == cb_span


def test_structure_constants_distinguished_basis_table():
    field = Q
    entries = [field.from_int(x) for x in (1, 2, 3, 4)]
    mats = skew_matrices(diagonal_form(field, entries))
    alg = algebra_from_matrices(field, [sparse(m) for m in mats])
    solver = SpanSolver(field, [flat(m) for m in mats], 16)
    coords = [solver.coordinates(flat(m)) for m in dense_basis(*entries)]
    table = structure_constants(alg, coords)
    # [f2, f3] = c f1 with c = 3
    assert table[1][2] == fe(field, [3, 0, 0, 0, 0, 0])
    # [f3, h1] = a h2
    assert table[2][3] == fe(field, [0, 0, 0, 0, 1, 0])
    # [f2, h1] = -b h3
    assert table[1][3] == fe(field, [0, 0, 0, 0, 0, -2])


def test_structure_constants_errors():
    alg = abelian_algebra(Q, 3)
    table = structure_constants(alg, [unit(alg, 0), unit(alg, 1)])
    assert table == ((fe(Q, [0, 0]),) * 2,) * 2
    with pytest.raises(NotIndependent):
        structure_constants(alg, [unit(alg, 0), unit(alg, 0)])
    cb = current_basis(*[Q.from_int(x) for x in (1, 2, 3, 4)])
    m = algebra_from_matrices(Q, cb)
    with pytest.raises(NotClosed):
        structure_constants(m, [unit(m, 0), unit(m, 1)])


def test_dependent_basis_is_refused_when_the_algebra_is_built():
    """current_basis leaves independence to algebra_from_matrices."""
    f1, f2, f3, h1, h2, _ = dense_basis(*[Q.from_int(x) for x in (1, 2, 3, 4)])
    with pytest.raises(NotIndependent):
        algebra_from_matrices(Q, [sparse(m) for m in (f1, f2, f3, h1, h2, matrix_sum(h1, h2))])


def _solved_constants(field, mats):
    """Constants of the span of the dense matrices, each commutator's
    coordinates solved by elimination and an inverse change of basis."""
    n = len(mats)
    solver = SpanSolver(field, [flat(m) for m in mats], mats[0].nrows * mats[0].ncols)
    return {(i, j): solver.coordinates(flat(dense_commutator(mats[i], mats[j])))
            for i in range(n) for j in range(i + 1, n)}


@pytest.mark.parametrize(
    "literal", ["Q", "F2", "F3", "F3(t)", "F2(t)", "F3[sqrt 2]", "F2(t)[sqrt t+1]"])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_own_entry_coordinates_match_the_span_solver(literal, seed):
    """Coordinates read at each matrix's own entry are the solved ones, for
    the distinguished bases and for L's echelon basis."""
    field = parse_field(literal)
    rng = random.Random(seed)
    entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
    for mats in (dense_basis(*entries), dense_basis(*entries[:3]),
                 skew_matrices(diagonal_form(field, entries))):
        built = algebra_from_matrices(field, [sparse(m) for m in mats])
        assert built.brackets == brackets_of(_solved_constants(field, mats))


def test_an_escaping_commutator_is_refused():
    """[f1, f2] = b f3 leaves the span of f1 and f2.  Its reads at their own
    entries are 0, and the realization check refuses that bracket."""
    for field, literals in ((Q, "1,2,3,4"), (F3, "1,1,1,2"), (F2T, "1,t,t+1,1")):
        f1, f2, *_ = current_basis(*[parse_scalar(x, field) for x in literals.split(",")])
        with pytest.raises(InvalidStructure, match="realization matrices 0,1 disagrees"):
            algebra_from_matrices(field, [f1, f2])


def test_current_algebra_runs_no_elimination(monkeypatch):
    """M's coordinates are read at entries, never solved for."""
    calls = []
    real = exact_linalg._eliminate
    monkeypatch.setattr(exact_linalg, "_eliminate", lambda rows: calls.append(1) or real(rows))
    for field, literals in ((Q, "1,2,3,4"), (F2T, "1,t,t+1,t^2+1")):
        current_algebra([parse_scalar(x, field) for x in literals.split(",")])
    assert calls == []
    canonicalize_subspace(Q, [fe(Q, [1, 2])], 2)
    assert calls == [1]


@pytest.mark.parametrize("literal", ["Q", "F3", "F2(t)"])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), nvectors=st.integers(0, 3),
       kind=st.sampled_from(["span", "ideal", "core"]))
def test_sparse_ideal_tests_match_the_dense_reference(literal, seed, nvectors, kind):
    """is_ideal and bracket_span, which read M's brackets at the nonzero
    coordinates of sparse echelon rows, agree with the dense reference:
    unit-vector brackets [e_i, b] reduced against the space, and dense
    brackets of pairs of basis rows.  The subspaces are spans of random
    vectors (seldom closed), the ideals those vectors generate, and the
    core f1, f2, f3, a subalgebra that is no ideal."""
    field = parse_field(literal)
    rng = random.Random(seed)
    alg = current_algebra([random_element(field, rng, nonzero=True) for _ in range(4)])
    if kind == "core":
        space = canonicalize_subspace(field, [unit(alg, i) for i in range(3)], 6)
    else:
        vectors = [[random_element(field, rng) for _ in range(6)] for _ in range(nvectors)]
        space = (ideal_closure(alg, vectors) if kind == "ideal"
                 else canonicalize_subspace(field, vectors, 6))
    for row, dense_row in zip(space.rows, space.basis.rows):
        assert all(alg.ad(i, row) == sparse_vector(dense_bracket(alg, unit(alg, i), dense_row))
                   for i in range(alg.dim))
    ideal = is_ideal(alg, space)
    assert ideal == dense_is_ideal(alg, space)
    if kind != "span":
        assert ideal == (kind == "ideal")
    assert bracket_span(alg, space) == dense_bracket_span(alg, space)


def test_ideal_closure_examples():
    m = algebra_from_matrices(Q, current_basis(*[Q.from_int(x) for x in (1, 1, 1, 1)]))
    zero_seed = ideal_closure(m, [])
    assert zero_seed.dim == 0
    # f1 (x) e_plus spans a 3-dimensional ideal in the split case (D = 1)
    half = Q.from_fraction(1, 2)
    seed = (half, Q.zero(), Q.zero(), half, Q.zero(), Q.zero())
    ideal = ideal_closure(m, [seed])
    assert ideal.dim == 3 and is_ideal(m, ideal)
    # over F_3 with non-square discriminant any nonzero seed spins to all of M
    m3 = algebra_from_matrices(F3, current_basis(*[F3.from_int(x) for x in (1, 1, 1, 2)]))
    closure = ideal_closure(m3, [unit(m3, 0)])
    assert closure.dim == 6


def test_ideal_closure_contains_seed_and_is_ideal():
    rng = random.Random(2)
    m = algebra_from_matrices(F3, current_basis(*[F3.from_int(x) for x in (1, 1, 1, 1)]))
    for _ in range(5):
        seed = tuple(random_element(F3, rng) for _ in range(6))
        closure = ideal_closure(m, [seed])
        assert closure.contains(seed)
        assert is_ideal(m, closure)


@pytest.mark.parametrize("literal", ["Q", "F3", "F3(t)", "F2(t)", "F3[sqrt 2]"])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_quotient_product_is_a_unital_commutative_ring(literal, n, seed):
    """F[X]/(X^n - s) from its one product rule: (1, 0, ...) is the unit,
    the product commutes and associates, and x^n = s; tensoring with
    F[X]/(X - s) gives the algebra back.  So tensor_current yields a Lie
    algebra, which the reference confirms at a random core diagonal."""
    field = parse_field(literal)
    rng = random.Random(seed)
    s = random_element(field, rng)
    diagonal = [random_element(field, rng, nonzero=True) for _ in range(3)]
    assert jacobi_failure(tensor_current(current_algebra(diagonal), s, n)) is None
    u, v, w = (tuple(random_element(field, rng) for _ in range(n)) for _ in range(3))
    zero, one = field.zero(), field.one()
    unit = (one,) + (zero,) * (n - 1)
    mul = lambda a, b: quotient_product(a, b, s)
    assert mul(unit, u) == u
    assert mul(u, v) == mul(v, u)
    assert mul(mul(u, v), w) == mul(u, mul(v, w))
    x = (s,) if n == 1 else tuple(one if k == 1 else zero for k in range(n))
    power = unit
    for _ in range(n):
        power = mul(power, x)
    assert power == (s,) + (zero,) * (n - 1)
    core = current_algebra([one] * 3)
    assert tensor_current(core, s, 1) == core


def test_quotient_product_refuses_factors_of_different_lengths():
    one, zero = Q.one(), Q.zero()
    with pytest.raises(ShapeMismatch):
        quotient_product((zero, one), (one,), Q.from_int(24))


def test_tensor_current_bracket_pattern():
    field = Q
    entries = [field.from_int(x) for x in (1, 2, 3, 4)]
    core = algebra_from_matrices(field, current_basis(*entries[:3]))
    d = field.from_int(24)
    t = tensor_current(core, d, 2)
    assert t.dim == 6
    # [l1 (x) x, l2 (x) x] = D [l1, l2] (x) 1 = D b f3
    one = field.one()
    assert t.bracket({3: one}, {4: one}) == {2: field.from_int(48)}
    # [l1 (x) 1, l2 (x) x] = [l1, l2] (x) x = b f3 (x) x
    assert t.bracket({0: one}, {4: one}) == {5: field.from_int(2)}
    # tensoring an abelian algebra stays abelian
    ab = tensor_current(abelian_algebra(field, 2), d, 2)
    assert derived_subspace(ab).dim == 0
    with pytest.raises(DescriptorMismatch):
        tensor_current(core, F3.one(), 2)


def test_tables_equal():
    """Tables are tuples of canonical field elements, so == is exact
    entrywise equality."""
    t1 = ((fe(Q, [0, 1]), fe(Q, [0, 0])), (fe(Q, [0, 0]), fe(Q, [0, 0])))
    assert t1 == ((fe(Q, [0, 1]), fe(Q, [0, 0])), (fe(Q, [0, 0]), fe(Q, [0, 0])))
    t2 = ((fe(Q, [0, 2]), fe(Q, [0, 0])), (fe(Q, [0, 0]), fe(Q, [0, 0])))
    assert t1 != t2
    half = (Q.from_fraction(1, 2),)
    assert ((half,),) == (((Q.from_fraction(2, 4),),),)


def test_algebra_from_matrices_refuses_a_patched_commutator(monkeypatch):
    """`coordinates` reads each commutator at the own entries and then
    compares it with their combination on every entry.  [h1, h3] = -Da f2
    changed at (0, 0), where no matrix is nonzero, keeps its reads; changed
    at f2's second entry, it keeps them too, since the first own entry
    serves.  Either way algebra_from_matrices refuses, naming the pair."""
    for field, literals in ((Q, "1,2,3,4"), (F3, "1,1,1,2"), (F2T, "1,t,t+1,1")):
        basis = current_basis(*[parse_scalar(x, field) for x in literals.split(",")])
        h1, h3 = basis[3], basis[5]
        real = liealg.commutator
        for change in ({(0, 0): field.one()},
                       {(2, 1): field.from_int(2) * real(h1, h3)[2, 1]}):
            def patched(x, y, change=change):
                comm = real(x, y)
                return {**comm, **change} if (x, y) == (h1, h3) else comm

            with monkeypatch.context() as mp:
                mp.setattr(liealg, "commutator", patched)
                with pytest.raises(InvalidStructure, match="realization matrices 3,5 disagrees"):
                    algebra_from_matrices(field, basis)
        assert algebra_from_matrices(field, basis) == current_algebra(
            [parse_scalar(x, field) for x in literals.split(",")])


def test_realization_mismatch_names_the_first_disagreeing_pair():
    """The dense reference that the random-W test leans on: None for M's
    own brackets, and the pair of a changed bracket otherwise."""
    f3s2 = quadratic_extension(F3, F3.from_int(2))
    cases = [
        (Q, ["1", "2", "3", "4"]),
        (F3, ["1", "1", "1", "2"]),
        (f3s2, ["1", "1", "1", "2"]),
        (F2T, ["1", "t", "t+1", "1"]),
    ]
    for field, literals in cases:
        values = [parse_scalar(x, field) for x in literals]
        m, mats = current_algebra(values), dense_basis(*values)
        assert realization_mismatch(m.brackets, mats) is None
        # One bracket changed: [h1, h3] gains an f2 component.
        brackets = {pair: dict(c) for pair, c in m.brackets.items()}
        brackets[3, 5][1] = brackets[3, 5].get(1, field.zero()) + field.one()
        assert realization_mismatch(brackets, mats) == (3, 5)


def test_sparse_skew_check_matches_the_dense_products():
    """_alternating, the skew check of current_basis, accepts a matrix x for
    a diagonal G exactly when the dense x^T G + G x is zero and x has a zero
    diagonal: the same condition wherever 2 != 0.  In characteristic 2 a
    diagonal x is skew-adjoint but G x is not alternating, and is refused;
    the wedges have no diagonal, so there both checks agree on them."""
    rng = random.Random(3)
    for field in (Q, F3, F2, F2T):
        entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
        gram = Matrix.diagonal(field, entries)
        skew = skew_matrices(diagonal_form(field, entries))
        diagonal = Matrix.diagonal(field, fe(field, [1, 0, 0, 0]))
        candidates = [*skew, *dense_basis(*entries), diagonal]
        for m in skew:
            noise = Matrix(field, [[random_element(field, rng) if rng.random() < 0.2
                                    else field.zero() for _ in range(4)] for _ in range(4)])
            candidates.append(matrix_sum(m, noise))
        for x in candidates:
            dense_ok = is_zero_matrix(matrix_sum(x.transpose() * gram, gram * x))
            no_diagonal = all(x.rows[i][i].is_zero() for i in range(4))
            assert _alternating(sparse(x), entries) == (dense_ok and no_diagonal)
        assert is_zero_matrix(matrix_sum(diagonal * gram, gram * diagonal)) == (
            field.characteristic() == 2)
        assert not _alternating(sparse(diagonal), entries)


def test_coordinates_refuses_a_dependent_set_and_an_escaping_commutator():
    """Over a field and over Z[a, b, c, d] alike: h1 + h2 in place of h3
    leaves h1 and h2 no entry of their own, and f1, f2 alone leave
    [f1, f2] = b f3 outside their span."""
    def summed(x, y):
        out = dict(x)
        for pos, z in y.items():
            out[pos] = out[pos] + z if pos in out else z
        return out

    cases = [current_basis(*[parse_scalar(x, field) for x in lits])
             for field, lits in ((Q, "1234"), (F3, "1112"), (F2T, "1t11"))]
    for mats in cases + [_wedges(SYMBOLS)]:
        with pytest.raises(NotIndependent, match="matrix 3 has no nonzero entry of its own"):
            coordinates(mats[:5] + [summed(mats[3], mats[4])])
        with pytest.raises(InvalidStructure, match="realization matrices 0,1 disagrees"):
            coordinates(mats[:2])
        assert len(coordinates(mats)) == 15


def test_commutator_over_int_polys_matches_dense_products():
    """commutator is generic in the scalar: over Z[a, b, c, d] it is the
    dense xy - yx with its zero entries left out."""
    rng = random.Random(7)
    a, b, c, d = SYMBOLS
    pool = [a, b, -c, a * d, b + c, a - a, a * b - d]
    for _ in range(20):
        dense = [[[rng.choice(pool) if rng.random() < 0.4 else IntPoly() for _ in range(3)]
                  for _ in range(3)] for _ in range(2)]
        x, y = ({(p, q): v for p, row in enumerate(m) for q, v in enumerate(row) if v}
                for m in dense)
        expected = {}
        for p in range(3):
            for q in range(3):
                z = functools.reduce(operator.add, (dense[0][p][k] * dense[1][k][q]
                                                    - dense[1][p][k] * dense[0][k][q]
                                                    for k in range(3)))
                if z:
                    expected[p, q] = z
        assert commutator(x, y) == expected


def _int_poly(terms):
    out = IntPoly()
    for exponents, coeff in terms:
        out = out + IntPoly({exponents: coeff}) if coeff else out
    return out


def _evaluate(x, point):
    return sum(c * functools.reduce(operator.mul, (v ** e for v, e in zip(point, f)), 1)
               for f, c in x.items())


int_polys = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 4), st.integers(-3, 3)), max_size=5,
).map(_int_poly)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=int_polys, y=int_polys, point=st.tuples(*[st.integers(-4, 4)] * 4))
def test_int_poly_arithmetic_matches_evaluation(x, y, point):
    """IntPoly sums, differences, negatives and products evaluate as the
    integers they stand for, and store no zero coefficient."""
    for value, expected in [
        (x + y, _evaluate(x, point) + _evaluate(y, point)),
        (x - y, _evaluate(x, point) - _evaluate(y, point)),
        (-x, -_evaluate(x, point)),
        (x * y, _evaluate(x, point) * _evaluate(y, point)),
    ]:
        assert _evaluate(value, point) == expected
        assert 0 not in value.values()
    assert not x - x


def test_brackets_of_skew_adjoint_matrices_lie_in_g_inverse_alt():
    """The lemma behind the proof's span, in generic entries over Z.  For
    x, y in L(G), S = G x and T = G y satisfy S^T = -S and T^T = -T, and
    [x, y] = G^-1 U with U = S H T - T H S, H = G^-1 symmetric.  Over Z the
    diagonal entries sigma_i of S and tau_i of T are free, and S^T = -S
    says 2 sigma_i = 0.  Every entry of U + U^T and of U's diagonal lies in
    the ideal (2 sigma_i, 2 tau_i): each of its terms has an even
    coefficient and a factor sigma_i or tau_i.  So U is alternating, and
    [L, L] lies in G^-1 Alt, in every characteristic.  With H not
    symmetric the diagonal of U leaves the ideal."""
    count = 46
    symbols = iter(range(count))
    diagonal = set()

    def var(on_diagonal=False):
        k = next(symbols)
        if on_diagonal:
            diagonal.add(k)
        return IntPoly({tuple(int(i == k) for i in range(count)): 1})

    def generic(skew=False, symmetric=False):
        m = [[None] * 4 for _ in range(4)]
        for i in range(4):
            m[i][i] = var(on_diagonal=skew)
            for j in range(i + 1, 4):
                m[i][j] = var()
                m[j][i] = -m[i][j] if skew else m[i][j] if symmetric else var()
        return m

    def times(x, y):
        return [[functools.reduce(operator.add, (x[i][k] * y[k][j] for k in range(4)))
                 for j in range(4)] for i in range(4)]

    def in_ideal(x):
        return all(c % 2 == 0 and any(f[k] for k in diagonal) for f, c in x.items())

    s, t, h = generic(skew=True), generic(skew=True), generic(symmetric=True)
    u = [[p - q for p, q in zip(*rows)] for rows in zip(times(times(s, h), t),
                                                      times(times(t, h), s))]
    assert all(in_ideal(u[p][q] + u[q][p]) for p in range(4) for q in range(p + 1, 4))
    assert all(in_ideal(u[p][p]) for p in range(4))
    assert any(u[p][p] for p in range(4))
    g = generic()
    v = [[p - q for p, q in zip(*rows)] for rows in zip(times(times(s, g), t),
                                                      times(times(t, g), s))]
    assert not all(in_ideal(v[p][p]) for p in range(4))


def test_proof_steps_on_hand_inputs():
    """The proof's alternation and division steps on two-entry matrices
    and unit monomials in a, b, c, d."""
    a, b, c, _ = SYMBOLS
    assert _alternating({(0, 1): b, (1, 0): -a}, SYMBOLS)  # f1 = e1 ^ e2
    assert not _alternating({(0, 1): b, (1, 0): a}, SYMBOLS)  # G m symmetric
    assert not _alternating({(0, 0): a}, SYMBOLS)  # on the diagonal
    # Alternating over Z, though 2 ab vanishes in characteristic 2: the
    # division at an own entry refuses 2 b, not the alternation.
    assert _alternating({(0, 1): b + b, (1, 0): -(a + a)}, SYMBOLS)
    assert (a * b - b * c) / -b == c - a
    with pytest.raises(ArithmeticError):
        b / a  # a negative exponent
    with pytest.raises(ArithmeticError):
        a / (a + a)  # not a unit monomial
    with pytest.raises(ArithmeticError):
        coordinates([{(0, 1): b + b, (1, 0): -(a + a)}, {(0, 2): c, (2, 0): -a},
                     {(1, 2): c, (2, 1): -b}])
