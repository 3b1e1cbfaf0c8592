import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocurrent.exact_linalg import (
    Matrix,
    ShapeMismatch,
    canonicalize_subspace,
    commutator,
    kernel,
)
from orthocurrent.scalars import (
    function_field,
    parse_field,
    prime_field,
    rationals,
)

from reference import (
    basis_matrix,
    dense_commutator,
    dense_rref,
    det,
    full_subspace,
    identity,
    random_element,
    scaled,
    sparse,
    sparse_vector,
    subspace_meet_join,
    transpose,
)

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)


def mat(field, grid):
    return Matrix(field, [[field.from_int(x) for x in row] for row in grid])


def vec(field, entries):
    return tuple(field.from_int(x) for x in entries)


def null(m):
    """The right kernel of a dense matrix."""
    return kernel(m.field, m.rows, m.ncols)


def test_rref_identity_and_zero():
    """The reduced echelon basis of the identity is itself, with every
    column a pivot; a zero matrix spans nothing and kills everything."""
    ident = identity(Q, 3)
    s = canonicalize_subspace(Q, ident.rows, 3)
    assert basis_matrix(s) == ident and s.pivots == (0, 1, 2) and null(ident).dim == 0
    z = mat(Q, [[0] * 4] * 2)
    assert canonicalize_subspace(Q, z.rows, 4).dim == 0
    assert null(z) == full_subspace(Q, 4)


def test_rref_f2():
    m = mat(F2, [[1, 1], [1, 0]])
    assert basis_matrix(canonicalize_subspace(F2, m.rows, 2)) == identity(F2, 2)
    assert null(m).dim == 0


def test_rref_idempotent_and_congruence_invariant():
    """The canonical basis is a fixed point, and the row space and kernel
    are unchanged by left multiplication with an invertible matrix."""
    rng = random.Random(1)
    fields = [Q, F2, F3, function_field(2, "t")]
    for field in fields:
        for _ in range(10):
            m = Matrix(field, [[random_element(field, rng) for _ in range(4)] for _ in range(3)])
            s1 = canonicalize_subspace(field, m.rows, 4)
            s2 = canonicalize_subspace(field, basis_matrix(s1).rows, 4)
            assert basis_matrix(s1) == basis_matrix(s2) and s1.pivots == s2.pivots
            while True:
                p = Matrix(field, [[random_element(field, rng) for _ in range(3)] for _ in range(3)])
                if not det(p).is_zero():
                    break
            assert canonicalize_subspace(field, (p * m).rows, 4) == s1
            assert null(p * m) == null(m)


def test_kernel_examples():
    assert null(identity(Q, 3)).dim == 0
    assert null(mat(Q, [[0] * 3] * 2)) == full_subspace(Q, 3)
    k = null(mat(F2, [[1, 1]]))
    assert k.dim == 1 and k.contains(vec(F2, [1, 1]))


def test_rank_nullity_randomized():
    rng = random.Random(2)
    for field in [Q, F2, F3]:
        for _ in range(15):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
            m = Matrix(field, [[random_element(field, rng) for _ in range(ncols)] for _ in range(nrows)])
            rank = canonicalize_subspace(field, m.rows, ncols).dim
            assert rank + null(m).dim == ncols


def test_canonicalize_examples():
    s = canonicalize_subspace(Q, [vec(Q, [2, 0]), vec(Q, [0, 2])], 2)
    assert s == full_subspace(Q, 2)
    empty = canonicalize_subspace(Q, [], 2)
    assert empty.dim == 0 and empty.ambient_dim == 2
    s = canonicalize_subspace(
        F2, [vec(F2, [1, 1, 0]), vec(F2, [0, 1, 1]), vec(F2, [1, 0, 1])], 3
    )
    assert s.dim == 2


def test_canonicalize_idempotent():
    rng = random.Random(9)
    for field in [Q, F3]:
        for _ in range(10):
            vectors = [tuple(random_element(field, rng) for _ in range(4)) for _ in range(3)]
            s = canonicalize_subspace(field, vectors, 4)
            again = canonicalize_subspace(field, basis_matrix(s).rows, 4)
            assert s == again


def test_meet_join_examples():
    a = canonicalize_subspace(Q, [vec(Q, [1, 0, 0, 0]), vec(Q, [0, 1, 0, 0])], 4)
    b = canonicalize_subspace(Q, [vec(Q, [0, 0, 1, 0]), vec(Q, [0, 0, 0, 1])], 4)
    meet, join = subspace_meet_join(a, b)
    assert meet.dim == 0 and join == full_subspace(Q, 4)
    meet, join = subspace_meet_join(a, a)
    assert meet == a and join == a
    l1 = canonicalize_subspace(F3, [vec(F3, [1, 0])], 2)
    l2 = canonicalize_subspace(F3, [vec(F3, [1, 1])], 2)
    meet, join = subspace_meet_join(l1, l2)
    assert meet.dim == 0 and join == full_subspace(F3, 2)


def test_meet_join_dimension_formula():
    rng = random.Random(6)
    for field in [Q, F2, F3]:
        for _ in range(15):
            a = canonicalize_subspace(
                field, [[random_element(field, rng) for _ in range(5)] for _ in range(rng.randint(0, 4))], 5
            )
            b = canonicalize_subspace(
                field, [[random_element(field, rng) for _ in range(5)] for _ in range(rng.randint(0, 4))], 5
            )
            meet, join = subspace_meet_join(a, b)
            assert a.dim + b.dim == meet.dim + join.dim
            for big, small in ((join, a), (join, b), (a, meet), (b, meet)):
                assert all(big.contains(row) for row in basis_matrix(small).rows)


def test_matrix_rejects_entry_from_another_field():
    with pytest.raises(ShapeMismatch):
        Matrix(F3, [[F3.one(), Q.one()]])


def test_sparse_vectors_are_checked_like_dense_rows():
    """A dict vector given to canonicalize_subspace or contains is refused
    for an index outside range(ambient_dim) or an entry from another field,
    as a dense row is for its length or its entries."""
    one = F3.one()
    space = canonicalize_subspace(F3, [{0: one}], 3)
    bad = [{3: one}, {-1: one}, {0: one, 1: Q.one()}, {1: Q.zero()},
           (one, one), (one, Q.one(), one)]
    for v in bad:
        with pytest.raises(ShapeMismatch):
            canonicalize_subspace(F3, [{0: one}, v], 3)
        with pytest.raises(ShapeMismatch):
            space.contains(v)
        with pytest.raises(ShapeMismatch):
            kernel(F3, [v], 3)
    assert space.contains({0: F3.from_int(2), 1: F3.zero()})
    assert not space.contains({2: one})


def test_arithmetic_across_fields_raises():
    a, b = identity(Q, 2), identity(F3, 2)
    for op in (lambda: a * b, lambda: b * a,
               # zero skipping multiplies nothing, so only the field check sees it
               lambda: mat(Q, [[0] * 2] * 2) * b,
               lambda: commutator(sparse(a), sparse(b))):
        with pytest.raises(ValueError):
            op()


def test_arithmetic_results_match_checked_construction():
    rng = random.Random(5)
    a = Matrix(Q, [[random_element(Q, rng) for _ in range(3)] for _ in range(3)])
    b = Matrix(Q, [[random_element(Q, rng) for _ in range(3)] for _ in range(3)])
    for result in (a * b, transpose(a)):
        assert result == Matrix(Q, result.rows)
        assert (result.nrows, result.ncols) == (3, 3)


def test_commutators_match_matrix_products():
    """commutator on the nonzero entries is dense xy - yx with its zero
    entries left out, also for matrices with zero rows and columns and
    for a commutator that vanishes."""
    rng = random.Random(9)
    for field in (Q, F3, function_field(2, "t")):
        mats = [Matrix(field, [[random_element(field, rng) for _ in range(3)]
                               for _ in range(3)]) for _ in range(4)]
        mats.append(Matrix(field, [[field.zero()] * 3, mats[0].rows[1], [field.zero()] * 3]))
        mats.append(scaled(field.from_int(2), mats[0]))
        for x in mats:
            for y in mats:
                assert commutator(sparse(x), sparse(y)) == sparse(dense_commutator(x, y))
        assert commutator(sparse(mats[0]), sparse(mats[-1])) == {}


ELIMINATION_FIELDS = ["Q", "F2", "F3", "F5", "F2(t)", "F3(t)", "F3[sqrt 2]", "F2(t)[sqrt t+1]"]


@st.composite
def eliminable_matrices(draw):
    """Rows over any field kind: `rank` drawn rows, then combinations of
    them (zero rows when the coefficients are), shuffled, with some columns
    zeroed; square when `square` is drawn."""
    field = parse_field(draw(st.sampled_from(ELIMINATION_FIELDS)))
    nrows = draw(st.integers(1, 5))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(0, 6))
    rank = draw(st.integers(0, nrows))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [[random_element(field, rng) for _ in range(ncols)] for _ in range(rank)]
    for _ in range(nrows - rank):
        coeffs = [random_element(field, rng) for _ in range(rank)]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, rows[:rank])), field.zero())
                     for j in range(ncols)])
    rng.shuffle(rows)
    zeroed = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2))
    rows = [[field.zero() if j in zeroed else x for j, x in enumerate(row)] for row in rows]
    return field, rows


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=eliminable_matrices())
def test_elimination_matches_dense_reference(case):
    """canonicalize_subspace and kernel agree with dense Gauss-Jordan
    elimination, whether the rows come dense or as sparse dicts: the basis
    rows and pivots are the nonzero rows and pivots of the unique reduced
    echelon form, and the kernel is cut out by it."""
    field, rows = case
    ncols = len(rows[0])
    reduced, pivots = dense_rref(rows)
    zero = field.zero()
    for given in (rows, [sparse_vector(row) for row in rows]):
        space = canonicalize_subspace(field, given, ncols)
        assert basis_matrix(space) == Matrix(field, reduced[:len(pivots)])
        assert space.pivots == tuple(pivots)
        assert space.rows == tuple(sparse_vector(row) for row in reduced[:len(pivots)])
        nullspace = kernel(field, given, ncols)
        assert nullspace.dim == ncols - len(pivots)
        assert all(sum((x * y for x, y in zip(row, v)), zero).is_zero()
                   for row in reduced for v in basis_matrix(nullspace).rows)
        assert all(space.contains(row) and space.contains(sparse_vector(row)) for row in rows)
