import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocurrent.exact_linalg import Matrix, canonicalize_subspace
from orthocurrent.forms import (
    AlternatingChar2,
    Degenerate,
    NotSymmetric,
    diagonal_form,
    make_form,
    orthogonal_complement,
    orthogonalize,
    restrict,
)
from orthocurrent.scalars import (
    DomainError,
    function_field,
    is_square,
    parse_field,
    prime_field,
    rationals,
)

from reference import (
    basis_matrix,
    dense_orthogonal_complement,
    dense_orthogonalize,
    dense_rows,
    det,
    diagonal_matrix,
    full_subspace,
    gram_matrix,
    identity,
    random_element,
    transpose,
)

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F2T = function_field(2, "t")


def mat(field, grid):
    return Matrix(field, [[field.from_int(x) for x in row] for row in grid])


def diag(field, entries):
    return diagonal_form(field, [field.from_int(x) for x in entries])


def written_out(form, rows):
    """Sparse rows of the form's space as a dense matrix."""
    return Matrix(form.field, dense_rows(form.field, rows, form.dim))


def test_make_form_examples():
    f = diag(Q, [1, 2, 3, 4])
    assert f.nondegenerate and not f.alternating
    g = make_form(mat(F2, [[0, 1], [1, 0]]))
    assert g.nondegenerate and g.alternating
    with pytest.raises(Degenerate):
        diag(Q, [1, 0, 1, 1])
    with pytest.raises(NotSymmetric):
        make_form(mat(Q, [[1, 2], [3, 4]]))


def test_discriminant_examples():
    for form, d in ((diag(Q, [1, 1, 1, 1]), 1), (diag(Q, [1, 2, 3, 4]), 24),
                    (make_form(mat(Q, [[0, 1], [1, 0]])), -1)):
        assert form.nondegenerate and det(gram_matrix(form)) == Q.from_int(d)


def _random_gram(field, rng):
    """Random symmetric Gram of size 1 to 4.  From size 2 on, a third of
    them repeat the first row and column in the last, so are singular, and
    another third have e1 isotropic, so that some restrictions degenerate."""
    n = rng.randint(1, 4)
    grid = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = random_element(field, rng)
    kind = rng.randrange(3) if n > 1 else 0
    if kind == 1:
        for i in range(n - 1):
            grid[i][n - 1] = grid[n - 1][i] = grid[i][0]
        grid[n - 1][n - 1] = grid[0][0]
    elif kind == 2:
        grid[0][0] = field.zero()
    return Matrix(field, grid)


def _hyperbolic_gram(field, rng):
    """Symmetric Gram of size 2 to 4: nonzero diagonal entries, then a
    hyperbolic plane [[0, x], [x, 0]].  Orthogonalized from the standard
    basis, the plane is an isotropic residual block: in characteristic 2
    the last anisotropic vector is borrowed (at size 2 the form is
    alternating), elsewhere one vector of the plane is added onto the
    other."""
    n = rng.randint(2, 4)
    grid = [[field.zero()] * n for _ in range(n)]
    for i in range(n - 2):
        grid[i][i] = random_element(field, rng, nonzero=True)
    grid[n - 2][n - 1] = grid[n - 1][n - 2] = random_element(field, rng, nonzero=True)
    return Matrix(field, grid)


def _outcome(run):
    """What run() returns, or the type of the exception it raises."""
    try:
        return run()
    except (Degenerate, AlternatingChar2, DomainError) as exc:
        return type(exc)


@pytest.mark.parametrize("literal", ["Q", "F2", "F3", "F2(t)", "F3[sqrt 2]", "F2(t)[sqrt t+1]"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), hyperbolic=st.booleans())
def test_sparse_forms_match_the_dense_reference(literal, seed, hyperbolic):
    """orthogonalize on sparse rows gives the squares and, written out, the
    rows of the dense reference, or raises the same exception, for the
    whole space and for the span W of random rows or of e1, which is
    isotropic in a third of the random Grams; orthogonal_complement is the
    kernel of the product B G for W's basis matrix B."""
    field = parse_field(literal)
    rng = random.Random(seed)
    gram = (_hyperbolic_gram if hyperbolic else _random_gram)(field, rng)
    n = gram.nrows

    def sparse_run(rows=None):
        basis, squares = orthogonalize(make_form(gram), rows)
        return dense_rows(field, basis, n), squares

    def dense_run(rows=None):
        basis, squares = dense_orthogonalize(gram, rows)
        return basis.rows, squares

    assert _outcome(sparse_run) == _outcome(dense_run)
    if det(gram).is_zero():
        return
    if rng.randrange(3):
        rows = [[random_element(field, rng) for _ in range(n)] for _ in range(rng.randint(1, n))]
    else:
        rows = [identity(field, n).rows[0]]
    w = canonicalize_subspace(field, rows, n)
    assert (_outcome(lambda: sparse_run(w.rows))
            == _outcome(lambda: dense_run(basis_matrix(w).rows)))
    assert orthogonal_complement(make_form(gram), w) == dense_orthogonal_complement(gram, w)


def test_nondegenerate_matches_reference_determinant():
    """make_form refuses exactly the Grams whose cofactor determinant is 0,
    and a restriction is nondegenerate exactly when the determinant of its
    Gram is not zero."""
    rng = random.Random(23)
    for field in [Q, F2, F3, F2T]:
        units = identity(field, 4).rows
        seen = set()
        for _ in range(60):
            gram = _random_gram(field, rng)
            if det(gram).is_zero():
                with pytest.raises(Degenerate, match="Gram matrix has determinant zero"):
                    make_form(gram)
                seen.add("refused")
                continue
            form = make_form(gram)
            assert form.nondegenerate
            n = form.dim
            # a random span of unit and random vectors, and the span of e1
            rows = [units[rng.randrange(n)][:n] if rng.randrange(2)
                    else [random_element(field, rng) for _ in range(n)]
                    for _ in range(rng.randint(1, n))]
            for w in (rows, [units[0][:n]]):
                w = canonicalize_subspace(field, w, n)
                if w.dim == 0:
                    continue
                restricted = restrict(form, w)
                assert restricted.nondegenerate == (not det(gram_matrix(restricted)).is_zero())
                seen.add(restricted.nondegenerate)
        assert seen == {"refused", True, False}, field


def test_orthogonalize_diagonal_is_identity():
    f = diag(Q, [1, 2, 3, 4])
    basis, squares = orthogonalize(f)
    assert basis == [{i: Q.one()} for i in range(4)]
    assert list(squares) == [Q.from_int(x) for x in (1, 2, 3, 4)]


def test_orthogonalize_hyperbolic_plane_over_q():
    f = make_form(mat(Q, [[0, 1], [1, 0]]))
    basis, squares = orthogonalize(f)
    assert squares == (Q.from_int(2), Q.from_fraction(-1, 2))
    assert basis[0] == {0: Q.one(), 1: Q.one()}
    b = written_out(f, basis)
    assert b * gram_matrix(f) * transpose(b) == diagonal_matrix(Q, squares)


def test_orthogonalize_f2_example():
    f = make_form(mat(F2, [[1, 1], [1, 0]]))
    basis, squares = orthogonalize(f)
    assert squares == (F2.one(), F2.one())
    assert basis == [{0: F2.one()}, {0: F2.one(), 1: F2.one()}]


def test_orthogonalize_rejects_alternating_char2():
    f = make_form(mat(F2, [[0, 1], [1, 0]]))
    with pytest.raises(AlternatingChar2):
        orthogonalize(f)


def test_orthogonalize_char2_borrow_path():
    # anisotropic first vector, then an alternating residual plane
    g = mat(F2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    f = make_form(g)
    basis, squares = orthogonalize(f)
    b = written_out(f, basis)
    assert b * g * transpose(b) == diagonal_matrix(F2, squares)
    assert all(not d.is_zero() for d in squares)


def test_orthogonalize_char2_borrow_path_dim4():
    # two anisotropic vectors, then an alternating residual plane
    g = mat(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    f = make_form(g)
    basis, squares = orthogonalize(f)
    b = written_out(f, basis)
    assert b * g * transpose(b) == diagonal_matrix(F2, squares)
    assert all(not d.is_zero() for d in squares)


def test_orthogonalize_randomized_all_descriptors():
    rng = random.Random(13)
    for field in [Q, F2, F3, F2T]:
        char2 = field.characteristic() == 2
        produced = 0
        while produced < 8:
            n = rng.randint(1, 4)
            grid = [[field.zero()] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    x = random_element(field, rng)
                    grid[i][j] = x
                    grid[j][i] = x
            gram = Matrix(field, grid)
            if det(gram).is_zero():
                continue
            form = make_form(gram)
            if char2 and form.alternating:
                continue
            produced += 1
            basis, squares = orthogonalize(form)
            b = written_out(form, basis)
            assert b * gram * transpose(b) == diagonal_matrix(field, squares)
            assert all(not d.is_zero() for d in squares)
            # discriminant changes by the square of the change of basis
            moved = make_form(b * gram * transpose(b))
            assert moved.nondegenerate and det(b) ** 2 * det(gram) == det(gram_matrix(moved))


def test_orthogonalizing_rows_is_orthogonalizing_their_restriction():
    """orthogonalize(form, rows) runs on the rows in the form's own space:
    its basis is that of the restriction to their span, orthogonalized in
    the span's coordinates and carried back by the rows, with the same
    squares, and it refuses exactly the spans whose restriction is
    alternating in characteristic 2.  Over F2 the rows e1, e3, e4 of
    diag(1, 1) + a hyperbolic plane need the borrow."""
    rng = random.Random(29)
    borrow = make_form(mat(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
    cases = [(borrow, canonicalize_subspace(F2, [borrow.gram[i] for i in (0, 2, 3)], 4))]
    for field in [Q, F2, F3, F2T]:
        while sum(form.field == field for form, _ in cases) < 10:
            gram = _random_gram(field, rng)
            if det(gram).is_zero():
                continue
            form, n = make_form(gram), gram.nrows
            rows = [[random_element(field, rng) for _ in range(n)] for _ in range(rng.randint(1, n))]
            w = canonicalize_subspace(field, rows, n)
            if w.dim and restrict(form, w).nondegenerate:
                cases.append((form, w))
    for form, w in cases:
        restricted = restrict(form, w)
        if form.field.characteristic() == 2 and restricted.alternating:
            for args in ((restricted,), (form, w.rows)):
                with pytest.raises(AlternatingChar2):
                    orthogonalize(*args)
            continue
        expected, expected_squares = orthogonalize(restricted)
        found, squares = orthogonalize(form, w.rows)
        assert written_out(form, found) == written_out(restricted, expected) * basis_matrix(w)
        assert squares == expected_squares


def test_square_class_invariance_under_congruence():
    rng = random.Random(17)
    for field in [Q, F3, F2T]:
        for _ in range(10):
            entries = [random_element(field, rng, nonzero=True) for _ in range(3)]
            form = diagonal_form(field, entries)
            while True:
                p = Matrix(field, [[random_element(field, rng) for _ in range(3)] for _ in range(3)])
                if not det(p).is_zero():
                    break
            moved = make_form(p * gram_matrix(form) * transpose(p))
            assert moved.nondegenerate
            d1, d2 = det(gram_matrix(form)), det(gram_matrix(moved))
            assert d2 == det(p) ** 2 * d1
            assert (is_square(d1) is None) == (is_square(d2) is None)


def test_restrict_examples():
    f = diag(Q, [1, 2, 3, 4])
    w = canonicalize_subspace(
        Q,
        [
            [Q.one(), Q.zero(), Q.zero(), Q.zero()],
            [Q.zero(), Q.one(), Q.zero(), Q.zero()],
            [Q.zero(), Q.zero(), Q.one(), Q.zero()],
        ],
        4,
    )
    r = restrict(f, w)
    assert gram_matrix(r) == diagonal_matrix(Q, [Q.from_int(x) for x in (1, 2, 3)])
    full = restrict(f, full_subspace(Q, 4))
    assert full.gram == f.gram
    g = diag(Q, [1, -1, 1, 1])
    line = canonicalize_subspace(Q, [[Q.one(), Q.one(), Q.zero(), Q.zero()]], 4)
    degenerate = restrict(g, line)
    assert not degenerate.nondegenerate
    assert degenerate.gram == ({},)


@pytest.mark.parametrize("field", [Q, F2, F2T], ids=["Q", "F2", "F2(t)"])
def test_restrict_to_the_zero_subspace_is_the_empty_form(field):
    """The zero subspace has an empty basis, so the restriction is the
    0-dimensional form: an empty Gram matrix, nondegenerate (its
    determinant is the empty product 1)."""
    zero = canonicalize_subspace(field, [[field.zero()] * 4], 4)
    empty = restrict(diag(field, [1, 1, 1, 1]), zero)
    assert empty.dim == 0 and empty.gram == ()
    assert empty.nondegenerate
