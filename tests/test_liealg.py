import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocurrent import exact_linalg
from orthocurrent.exact_linalg import (
    Matrix,
    canonicalize_subspace,
    commutators,
    full_subspace,
    kernel,
)
from orthocurrent.forms import diagonal_form, make_form
from orthocurrent.liealg import (
    CoefficientAlgebra,
    InvalidStructure,
    LieAlgebraSC,
    NotClosed,
    NotIndependent,
    WrongDimension,
    ZeroEntry,
    _check_skew,
    algebra_from_matrices,
    current_algebra,
    current_basis,
    derived_series_of_subspace,
    derived_subspace,
    is_ideal,
    realization_mismatch,
    skew_adjoint_algebra,
    tables_equal,
    tensor_current,
)
from orthocurrent.scalars import (
    function_field,
    parse_field,
    parse_scalar,
    prime_field,
    quadratic_extension,
    rationals,
)
from orthocurrent.structure import _derived_span

from reference import (
    SpanSolver,
    ideal_closure,
    matrix_for,
    random_element,
    structure_constants,
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
    return algebra_from_matrices(form.field, skew_adjoint_algebra(form))


def abelian_algebra(field, dim):
    zero = field.zero()
    constants = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    return LieAlgebraSC(field, dim, constants)


def test_skew_adjoint_dimensions():
    assert len(skew_adjoint_algebra(diag_form(Q, [1, 1, 1, 1]))) == 6
    assert len(skew_adjoint_algebra(diag_form(F2, [1, 1, 1, 1]))) == 10
    assert len(skew_adjoint_algebra(diag_form(Q, [1, 2, 3]))) == 3
    assert len(skew_adjoint_algebra(diag_form(F2, [1, 1, 1]))) == 6


def test_skew_adjoint_identity_form_is_antisymmetric_matrices():
    for m in skew_adjoint_algebra(diag_form(Q, [1, 1, 1, 1])):
        assert (m.transpose() + m).is_zero()


def test_skew_adjoint_contains_core_basis():
    a, b, c = (Q.from_int(x) for x in (1, 2, 3))
    mats = skew_adjoint_algebra(diag_form(Q, [1, 2, 3]))
    span = canonicalize_subspace(Q, [m.flatten() for m in mats], 9)
    for m in current_basis(a, b, c):
        assert span.contains(m.flatten())


def test_skew_adjoint_non_diagonal_gram():
    rng = random.Random(5)
    from orthocurrent.exact_linalg import det
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
            mats = skew_adjoint_algebra(form)
            assert len(mats) == (10 if char2 else 6)
            assert _derived_span(form)[1].dim == 6
            for m in mats:
                assert (m.transpose() * gram + gram * m).is_zero()
            done += 1


def test_construction_rejects_bad_constants():
    one, zero = Q.one(), Q.zero()
    c = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][0] = one
    c[1][0][0] = one  # not antisymmetric
    with pytest.raises(InvalidStructure):
        LieAlgebraSC(Q, 2, c)
    # Jacobi failure: [e0,e1]=e2, [e0,e2]=e0 breaks the identity
    c = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = one
    c[1][0][2] = -one
    c[0][2][0] = one
    c[2][0][0] = -one
    with pytest.raises(InvalidStructure):
        LieAlgebraSC(Q, 3, c)


def test_bracket_examples():
    field = Q
    a, b, c, d = (field.from_int(x) for x in (1, 2, 3, 4))
    alg = algebra_from_matrices(field, current_basis(a, b, c, d))
    f1, f2 = alg.basis_vector(0), alg.basis_vector(1)
    # [f1, f2] = b f3
    assert alg.bracket(f1, f2) == fe(field, [0, 0, 2, 0, 0, 0])
    # [h1, h2] = D b f3 = 48 f3
    h1, h2 = alg.basis_vector(3), alg.basis_vector(4)
    assert alg.bracket(h1, h2) == fe(field, [0, 0, 48, 0, 0, 0])
    rng = random.Random(0)
    u = tuple(random_element(field, rng) for _ in range(6))
    assert alg.bracket(u, u) == fe(field, [0] * 6)


def test_bracket_matches_matrix_commutators():
    rng = random.Random(1)
    alg = skew_algebra(diag_form(F3, [1, 1, 1, 2]))
    for i in range(alg.dim):
        for j in range(alg.dim):
            mi, mj = alg.realization[i], alg.realization[j]
            comm = mi * mj - mj * mi
            combo = matrix_for(alg, alg.bracket(alg.basis_vector(i), alg.basis_vector(j)))
            assert comm == combo


def derived_series(alg):
    return derived_series_of_subspace(alg, full_subspace(alg.field, alg.dim))


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
        adjoints = [[m.constants[i][j][k] for j in range(m.dim)]
                    for i in range(m.dim) for k in range(m.dim)]
        assert kernel(Matrix(field, adjoints)).dim == 0


def test_current_basis_values():
    a, b, c, d = (Q.from_int(x) for x in (1, 1, 1, 1))
    cb = current_basis(a, b, c, d)
    e = lambda i, j: [[1 if (r, c2) == (i - 1, j - 1) else 0 for c2 in range(4)] for r in range(4)]
    as_m = lambda g: Matrix(Q, [[Q.from_int(x) for x in row] for row in g])
    sub = lambda g1, g2: as_m(g1) - as_m(g2)
    assert cb[0] == sub(e(1, 2), e(2, 1))
    assert cb[3] == sub(e(3, 4), e(4, 3))
    # h2 with (1,2,3,4): bc(d e14 - a e41) = 6(4 e14 - e41)
    a, b, c, d = (Q.from_int(x) for x in (1, 2, 3, 4))
    cb = current_basis(a, b, c, d)
    expected = as_m(e(1, 4)).scale(Q.from_int(24)) - as_m(e(4, 1)).scale(Q.from_int(6))
    assert cb[4] == expected
    with pytest.raises(ZeroEntry):
        current_basis(Q.one(), Q.zero(), Q.one(), Q.one())
    with pytest.raises(WrongDimension):
        current_basis(Q.one(), Q.one())


def test_current_basis_independent_over_f2():
    ones = [F2.one()] * 4
    cb = current_basis(*ones)
    span = canonicalize_subspace(F2, [m.flatten() for m in cb], 16)
    assert span.dim == 6


def test_current_basis_spans_derived_algebra():
    rng = random.Random(5)
    for field in [Q, F3, F2, F2T]:
        for _ in range(4):
            entries = [random_element(field, rng, nonzero=True) for _ in range(4)]
            m_span = _derived_span(diagonal_form(field, entries))[1]
            cb = current_basis(*entries)
            cb_span = canonicalize_subspace(field, [mm.flatten() for mm in cb], 16)
            assert m_span == cb_span


def test_structure_constants_distinguished_basis_table():
    field = Q
    entries = [field.from_int(x) for x in (1, 2, 3, 4)]
    alg = skew_algebra(diagonal_form(field, entries))
    solver = SpanSolver(field, [m.flatten() for m in alg.realization], 16)
    coords = [solver.coordinates(m.flatten()) for m in current_basis(*entries)]
    table = structure_constants(alg, coords)
    # [f2, f3] = c f1 with c = 3
    assert table[1][2] == fe(field, [3, 0, 0, 0, 0, 0])
    # [f3, h1] = a h2
    assert table[2][3] == fe(field, [0, 0, 0, 0, 1, 0])
    # [f2, h1] = -b h3
    assert table[1][3] == fe(field, [0, 0, 0, 0, 0, -2])


def test_structure_constants_errors():
    alg = abelian_algebra(Q, 3)
    table = structure_constants(alg, [alg.basis_vector(0), alg.basis_vector(1)])
    assert tables_equal(table, ((fe(Q, [0, 0]),) * 2,) * 2)
    with pytest.raises(NotIndependent):
        structure_constants(alg, [alg.basis_vector(0), alg.basis_vector(0)])
    cb = current_basis(*[Q.from_int(x) for x in (1, 2, 3, 4)])
    m = algebra_from_matrices(Q, cb)
    with pytest.raises(NotClosed):
        structure_constants(m, [m.basis_vector(0), m.basis_vector(1)])


def test_dependent_basis_is_refused_when_the_algebra_is_built():
    """current_basis leaves independence to algebra_from_matrices."""
    f1, f2, f3, h1, h2, _ = current_basis(*[Q.from_int(x) for x in (1, 2, 3, 4)])
    with pytest.raises(NotIndependent):
        algebra_from_matrices(Q, [f1, f2, f3, h1, h2, h1 + h2])


def _solved_constants(field, mats):
    """Constants of the span of the matrices, each commutator's coordinates
    solved by elimination and an inverse change of basis."""
    n = len(mats)
    solver = SpanSolver(field, [m.flatten() for m in mats], mats[0].nrows * mats[0].ncols)
    comms = commutators(mats)
    zero_vec = tuple(field.zero() for _ in range(n))
    constants = [[zero_vec] * n for _ in range(n)]
    for (i, j), comm in comms.items():
        constants[i][j] = solver.coordinates(comm)
        constants[j][i] = tuple(-x for x in constants[i][j])
    return tuple(tuple(row) for row in constants)


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
    for mats in (current_basis(*entries), current_basis(*entries[:3]),
                 skew_adjoint_algebra(diagonal_form(field, entries))):
        assert algebra_from_matrices(field, mats).constants == _solved_constants(field, mats)


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
    closure = ideal_closure(m3, [m3.basis_vector(0)])
    assert closure.dim == 6


def test_ideal_closure_contains_seed_and_is_ideal():
    rng = random.Random(2)
    m = algebra_from_matrices(F3, current_basis(*[F3.from_int(x) for x in (1, 1, 1, 1)]))
    for _ in range(5):
        seed = tuple(random_element(F3, rng) for _ in range(6))
        closure = ideal_closure(m, [seed])
        assert closure.contains(seed)
        assert is_ideal(m, closure)


def test_coefficient_algebra_checks():
    one, zero = Q.one(), Q.zero()
    # basis {1, x} with x^2 = 24
    table = [
        [(one, zero), (zero, one)],
        [(zero, one), (Q.from_int(24), zero)],
    ]
    alg = CoefficientAlgebra(Q, table, generator=(zero, one))
    sq = alg.multiply(alg.generator, alg.generator)
    assert sq == (Q.from_int(24), zero)
    bad = [
        [(one, zero), (zero, one)],
        [(zero, one), (zero, zero)],
    ]
    CoefficientAlgebra(Q, bad)  # x^2 = 0 is still commutative/associative/unital
    with pytest.raises(InvalidStructure):
        CoefficientAlgebra(Q, [[(zero, zero), (zero, one)], [(zero, one), (one, zero)]])


def test_tensor_current_bracket_pattern():
    field = Q
    entries = [field.from_int(x) for x in (1, 2, 3, 4)]
    core = algebra_from_matrices(field, current_basis(*entries[:3]))
    one, zero = field.one(), field.zero()
    d = field.from_int(24)
    quo = CoefficientAlgebra(
        field,
        [[(one, zero), (zero, one)], [(zero, one), (d, zero)]],
        generator=(zero, one),
    )
    t = tensor_current(core, quo)
    assert t.dim == 6
    # [l1 (x) x, l2 (x) x] = D [l1, l2] (x) 1 = D b f3
    out = t.bracket(t.basis_vector(3), t.basis_vector(4))
    assert out == fe(field, [0, 0, 48, 0, 0, 0])
    # dim-1 coefficients give the algebra back
    again = tensor_current(core, CoefficientAlgebra(field, [[(one,)]]))
    assert tables_equal(again.constants, core.constants)
    # tensoring an abelian algebra stays abelian
    ab = tensor_current(abelian_algebra(field, 2), quo)
    assert derived_subspace(ab).dim == 0


def test_tables_equal():
    t1 = ((fe(Q, [0, 1]), fe(Q, [0, 0])), (fe(Q, [0, 0]), fe(Q, [0, 0])))
    assert tables_equal(t1, t1)
    t2 = ((fe(Q, [0, 2]), fe(Q, [0, 0])), (fe(Q, [0, 0]), fe(Q, [0, 0])))
    assert not tables_equal(t1, t2)


def test_realization_check_catches_a_flipped_constant():
    core = algebra_from_matrices(Q, current_basis(*fe(Q, [1, 2, 3])))
    constants = [list(row) for row in core.constants]
    two = Q.from_int(2)
    constants[0][1] = tuple(two * x for x in constants[0][1])
    constants[1][0] = tuple(-x for x in constants[0][1])
    # Still antisymmetric and Jacobi (every 3-dimensional table
    # [e_i, e_j] = l_k e_k is), so only the realization can object.
    LieAlgebraSC(Q, 3, constants)
    with pytest.raises(InvalidStructure, match="realization"):
        LieAlgebraSC(Q, 3, constants, realization=core.realization)
    # Precomputed commutators are compared, never trusted.
    comms = commutators(core.realization)
    with pytest.raises(InvalidStructure, match="realization"):
        LieAlgebraSC(Q, 3, constants, realization=core.realization, commutators=comms)
    bad = dict(comms)
    bad[(0, 1)] = tuple(two * x for x in bad[(0, 1)])
    with pytest.raises(InvalidStructure, match="realization"):
        LieAlgebraSC(Q, 3, core.constants, realization=core.realization, commutators=bad)


def test_realization_mismatch_names_the_first_disagreeing_pair():
    f3s2 = quadratic_extension(F3, F3.from_int(2))
    cases = [
        (Q, ["1", "2", "3", "4"]),
        (F3, ["1", "1", "1", "2"]),
        (f3s2, ["1", "1", "1", "2"]),
        (F2T, ["1", "t", "t+1", "1"]),
    ]
    for field, literals in cases:
        m = current_algebra([parse_scalar(x, field) for x in literals])
        assert realization_mismatch(m.constants, m.realization) is None
        # One constant changed: [h1, h3] gains an f2 component.
        constants = [list(row) for row in m.constants]
        entry = list(constants[3][5])
        entry[1] = entry[1] + field.one()
        constants[3][5] = tuple(entry)
        assert realization_mismatch(constants, m.realization) == (3, 5)
    core = algebra_from_matrices(Q, current_basis(*fe(Q, [1, 2, 3])))
    constants = [list(row) for row in core.constants]
    two = Q.from_int(2)
    constants[1][2] = tuple(two * x for x in constants[1][2])
    constants[2][1] = tuple(-x for x in constants[1][2])
    with pytest.raises(InvalidStructure, match="realization matrices 1,2 disagrees"):
        LieAlgebraSC(Q, 3, constants, realization=core.realization)


def test_sparse_skew_check_matches_the_dense_products():
    """_check_skew sums x^T G + G x over nonzero entries; it must accept
    exactly the matrices the dense products call skew-adjoint, also for a
    Gram matrix that is not diagonal."""
    rng = random.Random(3)
    for field in (Q, F3, F2, F2T):
        grid = [[1, 1, 0, 0], [1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1]]
        gram = Matrix(field, [[field.from_int(x) for x in row] for row in grid])
        skew = skew_adjoint_algebra(make_form(gram))
        _check_skew(skew, gram)
        for m in skew:
            noise = Matrix(field, [[random_element(field, rng) for _ in range(4)]
                                   for _ in range(4)])
            x = m + noise
            dense_ok = (x.transpose() * gram + gram * x).is_zero()
            try:
                _check_skew([x], gram)
                sparse_ok = True
            except InvalidStructure:
                sparse_ok = False
            assert sparse_ok == dense_ok
