import random

import pytest

from orthocurrent.exact_linalg import Matrix, canonicalize_subspace
from orthocurrent.forms import (
    AlternatingChar2,
    Degenerate,
    NotSymmetric,
    diagonal_form,
    make_form,
    orthogonalize,
    restrict,
)
from orthocurrent.scalars import (
    function_field,
    is_square,
    prime_field,
    rationals,
)

from reference import det, full_subspace, random_element

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F2T = function_field(2, "t")


def mat(field, grid):
    return Matrix(field, [[field.from_int(x) for x in row] for row in grid])


def diag(field, entries):
    return diagonal_form(field, [field.from_int(x) for x in entries])


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
        assert form.nondegenerate and det(form.gram) == Q.from_int(d)


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


def test_nondegenerate_matches_reference_determinant():
    """make_form refuses exactly the Grams whose cofactor determinant is 0,
    and a restriction is nondegenerate exactly when the determinant of its
    Gram is not zero."""
    rng = random.Random(23)
    for field in [Q, F2, F3, F2T]:
        units = Matrix.identity(field, 4).rows
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
                assert restricted.nondegenerate == (not det(restricted.gram).is_zero())
                seen.add(restricted.nondegenerate)
        assert seen == {"refused", True, False}, field


def test_orthogonalize_diagonal_is_identity():
    f = diag(Q, [1, 2, 3, 4])
    result = orthogonalize(f)
    assert result.basis == Matrix.identity(Q, 4)
    assert list(result.diagonal) == [Q.from_int(x) for x in (1, 2, 3, 4)]


def test_orthogonalize_hyperbolic_plane_over_q():
    f = make_form(mat(Q, [[0, 1], [1, 0]]))
    result = orthogonalize(f)
    assert result.diagonal == (Q.from_int(2), Q.from_fraction(-1, 2))
    assert result.basis.rows[0] == (Q.one(), Q.one())
    b = result.basis
    assert b * f.gram * b.transpose() == Matrix.diagonal(Q, list(result.diagonal))


def test_orthogonalize_f2_example():
    f = make_form(mat(F2, [[1, 1], [1, 0]]))
    result = orthogonalize(f)
    assert result.diagonal == (F2.one(), F2.one())
    assert result.basis.rows == ((F2.one(), F2.zero()), (F2.one(), F2.one()))


def test_orthogonalize_rejects_alternating_char2():
    f = make_form(mat(F2, [[0, 1], [1, 0]]))
    with pytest.raises(AlternatingChar2):
        orthogonalize(f)


def test_orthogonalize_char2_borrow_path():
    # anisotropic first vector, then an alternating residual plane
    g = mat(F2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    f = make_form(g)
    result = orthogonalize(f)
    b = result.basis
    assert b * g * b.transpose() == Matrix.diagonal(F2, list(result.diagonal))
    assert all(not d.is_zero() for d in result.diagonal)


def test_orthogonalize_char2_borrow_path_dim4():
    # two anisotropic vectors, then an alternating residual plane
    g = mat(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    f = make_form(g)
    result = orthogonalize(f)
    b = result.basis
    assert b * g * b.transpose() == Matrix.diagonal(F2, list(result.diagonal))
    assert all(not d.is_zero() for d in result.diagonal)


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
            result = orthogonalize(form)
            b = result.basis
            assert b * gram * b.transpose() == Matrix.diagonal(field, list(result.diagonal))
            assert all(not d.is_zero() for d in result.diagonal)
            # discriminant changes by the square of the change of basis
            moved = make_form(b * gram * b.transpose())
            assert moved.nondegenerate and det(b) ** 2 * det(gram) == det(moved.gram)


def test_orthogonalizing_rows_is_orthogonalizing_their_restriction():
    """orthogonalize(form, rows) runs on the rows in the form's own space:
    its basis is that of the restriction to their span, orthogonalized in
    the span's coordinates and carried back by the rows, with the same
    squares, and it refuses exactly the spans whose restriction is
    alternating in characteristic 2.  Over F2 the rows e1, e3, e4 of
    diag(1, 1) + a hyperbolic plane need the borrow."""
    rng = random.Random(29)
    borrow = make_form(mat(F2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
    cases = [(borrow, canonicalize_subspace(F2, [borrow.gram.rows[i] for i in (0, 2, 3)], 4))]
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
            for args in ((restricted,), (form, w.basis.rows)):
                with pytest.raises(AlternatingChar2):
                    orthogonalize(*args)
            continue
        expected = orthogonalize(restricted)
        found = orthogonalize(form, w.basis.rows)
        assert found.basis == expected.basis * w.basis
        assert found.diagonal == expected.diagonal


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
            moved = make_form(p * form.gram * p.transpose())
            assert moved.nondegenerate
            d1, d2 = det(form.gram), det(moved.gram)
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
    assert r.gram == Matrix.diagonal(Q, [Q.from_int(x) for x in (1, 2, 3)])
    full = restrict(f, full_subspace(Q, 4))
    assert full.gram == f.gram
    g = diag(Q, [1, -1, 1, 1])
    line = canonicalize_subspace(Q, [[Q.one(), Q.one(), Q.zero(), Q.zero()]], 4)
    degenerate = restrict(g, line)
    assert not degenerate.nondegenerate
    assert degenerate.gram.rows[0][0].is_zero()


@pytest.mark.parametrize("field", [Q, F2, F2T], ids=["Q", "F2", "F2(t)"])
def test_restrict_to_the_zero_subspace_is_the_empty_form(field):
    """The zero subspace has an empty basis, so the restriction is the
    0-dimensional form: an empty Gram matrix, nondegenerate (its
    determinant is the empty product 1)."""
    zero = canonicalize_subspace(field, [[field.zero()] * 4], 4)
    empty = restrict(diag(field, [1, 1, 1, 1]), zero)
    assert empty.dim == 0 and empty.gram == Matrix(field, [])
    assert empty.nondegenerate
