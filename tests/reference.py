"""Reference computations the tests compare the library against.

Each one is the plain textbook construction, kept out of the library
because no command runs it.
"""

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from orthocurrent.exact_linalg import Matrix, ShapeMismatch, Subspace, canonicalize_subspace
from orthocurrent.forms import BilinearForm
from orthocurrent.liealg import (
    LieAlgebraSC,
    NotClosed,
    NotIndependent,
    algebra_from_matrices,
    current_basis,
    derived_subspace,
    skew_adjoint_algebra,
)
from orthocurrent.oracle import UnsupportedField, _apply, _insert, _key, _to_subspace, _validate
from orthocurrent.scalars import (
    KIND_FUNFIELD,
    KIND_PRIME,
    KIND_QUADEXT,
    KIND_RATIONALS,
    FieldDescriptor,
    FieldElement,
    Poly,
    _make_ratio,
    poly_gcd,
    prime_field,
)


def random_element(field: FieldDescriptor, rng, nonzero: bool = False) -> FieldElement:
    """Small random element; entries stay low-degree to keep runs fast."""
    while True:
        kind = field.kind
        if kind == KIND_RATIONALS:
            x = FieldElement(field, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        elif kind == KIND_PRIME:
            x = field.from_int(rng.randrange(field.p))
        elif kind == KIND_FUNFIELD:
            p = field.p
            num = Poly(p, [rng.randrange(p) for _ in range(rng.randint(1, 3))])
            den = Poly(p, [rng.randrange(p) for _ in range(rng.randint(1, 2))])
            if den.is_zero():
                den = Poly.const(p, 1)
            x = _make_ratio(field, num, den)
        else:
            u = random_element(field.base, rng)
            v = random_element(field.base, rng)
            x = FieldElement(field, (u, v))
        if not nonzero or not x.is_zero():
            return x


def dense_rref(rows) -> tuple[list[list[FieldElement]], list[int]]:
    """Reduced row echelon form of the rows and its pivot columns, by
    textbook Gauss-Jordan elimination: every entry of the pivot row is
    divided by the pivot and subtracted from every other row."""
    rows = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        found = [i for i in range(r, len(rows)) if not rows[i][c].is_zero()]
        if not found:
            continue
        rows[r], rows[found[0]] = rows[found[0]], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def inverse(m: Matrix) -> Matrix:
    """Matrix inverse by dense Gauss-Jordan elimination on [m | I]; raises
    ShapeMismatch for a singular matrix."""
    n = m.nrows
    if m.ncols != n:
        raise ShapeMismatch("inverse of a non-square matrix")
    unit = Matrix.identity(m.field, n).rows
    augmented, pivots = dense_rref([list(row) + list(e) for row, e in zip(m.rows, unit)])
    if pivots[:n] != list(range(n)):
        raise ShapeMismatch("matrix is singular")
    return Matrix(m.field, [row[n:] for row in augmented])


class SpanSolver:
    """Coordinates of vectors in the span of a fixed independent basis.

    Writing the basis rows as C times their reduced echelon form, pivot
    extraction gives echelon coordinates and one multiplication by the
    inverse of C converts them to coordinates in the original order.
    """

    def __init__(self, field: FieldDescriptor, rows, ambient: int):
        self.dim = len(rows)
        self.space = canonicalize_subspace(field, rows, ambient)
        if self.space.dim != self.dim:
            raise NotIndependent("basis vectors are linearly dependent")
        change = Matrix(field, [[row[p] for p in self.space.pivots] for row in rows])
        self.c_inv = inverse(change)

    def coordinates(self, w) -> Optional[tuple[FieldElement, ...]]:
        """Coordinates of w in the basis, or None when w is not in its span."""
        if not self.space.contains(w):
            return None
        echelon = [w[p] for p in self.space.pivots]
        return tuple(
            sum((wj * self.c_inv.rows[j][k] for j, wj in enumerate(echelon)),
                self.space.field.zero())
            for k in range(self.dim)
        )


def ideal_closure(alg: LieAlgebraSC, seed) -> Subspace:
    """Smallest ideal containing the seed vectors (worklist closure)."""
    space = canonicalize_subspace(alg.field, [tuple(v) for v in seed], alg.dim)
    while True:
        new_vectors = []
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            for row in space.basis.rows:
                w = alg.bracket(e, row)
                if not space.contains(w):
                    new_vectors.append(w)
        if not new_vectors:
            return space
        space = canonicalize_subspace(
            alg.field, list(space.basis.rows) + new_vectors, alg.dim
        )


def spin_principal_ideal(v, ads, q: int, n: int):
    """The ideal generated by v, as an oracle key, by spinning: images
    ad x of the basis vectors found are taken breadth first, stopping as
    soon as the span is the whole space."""
    echelon: dict[int, list[int]] = {}
    _insert(echelon, v, q)
    queue = [v]
    for x in queue:
        for ad in ads:
            row = _insert(echelon, _apply(ad, x, n), q)
            if row is not None:
                if len(echelon) == n:
                    return _key(echelon)
                queue.append(row)
    return _key(echelon)


def matrix_for(alg: LieAlgebraSC, coords) -> Matrix:
    """sum_k coords[k] m_k over the realization m_1, ..., m_n of alg, by
    matrix arithmetic."""
    mats = alg.realization
    zero = alg.field.zero()
    out = Matrix(alg.field, [[zero] * mats[0].ncols for _ in range(mats[0].nrows)])
    for c, m in zip(coords, mats):
        out = out + m.scale(c)
    return out


def realized_span(alg: LieAlgebraSC, space: Subspace) -> Subspace:
    """Span of the flattened matrices that the rows of `space`, as
    coordinates, stand for in the realization of alg."""
    size = alg.realization[0].nrows * alg.realization[0].ncols
    return canonicalize_subspace(
        alg.field, [matrix_for(alg, row).flatten() for row in space.basis.rows], size
    )


def derived_span_by_coordinates(form: BilinearForm) -> tuple[int, Subspace]:
    """(dim L, [L, L] flattened) by way of L's structure constants: [L, L]
    in L's coordinates, mapped back through the realization."""
    skew = algebra_from_matrices(form.field, skew_adjoint_algebra(form))
    return skew.dim, realized_span(skew, derived_subspace(skew))


def structure_constants(alg: LieAlgebraSC, basis) -> tuple:
    """Constants of the subalgebra spanned by `basis`, in that order.

    Raises NotIndependent for dependent input and NotClosed when some
    bracket leaves the span.
    """
    rows = [tuple(v) for v in basis]
    m = len(rows)
    if m == 0:
        return ()
    solver = SpanSolver(alg.field, rows, alg.dim)
    zero_vec = tuple(alg.field.zero() for _ in range(m))
    constants = [[zero_vec] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            coords = solver.coordinates(alg.bracket(rows[a], rows[b]))
            if coords is None:
                raise NotClosed(f"bracket of basis vectors {a},{b} escapes the span")
            constants[a][b] = coords
            constants[b][a] = tuple(-x for x in coords)
    return tuple(tuple(row) for row in constants)


def closed_and_perfect(alg: LieAlgebraSC, space: Subspace) -> tuple[bool, bool]:
    """Whether `space` is a subalgebra, and whether that subalgebra, built
    from its own structure constants, is perfect."""
    try:
        constants = structure_constants(alg, space.basis.rows)
    except NotClosed:
        return False, False
    sub = LieAlgebraSC(alg.field, space.dim, constants)
    return True, derived_subspace(sub).dim == space.dim


def conjugated_current_basis(rows, squares) -> tuple[Matrix, ...]:
    """B^T m B^-T for the matrices m of current_basis(*squares), with B the
    matrix of the given rows: an explicit inverse and two products each."""
    b_t = Matrix(squares[0].field, rows).transpose()
    b_t_inv = inverse(b_t)
    return tuple(b_t * m * b_t_inv for m in current_basis(*squares))


def wedge_basis(gram: Matrix, rows, squares) -> tuple[Matrix, ...]:
    """The distinguished basis f1..f3, h1..h3 for the rows w1..w4, in
    standard coordinates, from the wedges w_r ^ w_s = (w_r^T w_s - w_s^T w_r) G.

    For rows orthogonal under the Gram matrix G with squares (a', b', c',
    d') and B the matrix of the rows, B G B^T = G' = diag(a', b', c', d')
    gives B^-T = G'^-1 B G, so B^T E_rs B^-T = w_r^T w_s G / g'_s: the
    conjugate B^T m B^-T of each matrix m of current_basis(a', b', c', d')
    is a multiple of a wedge, with no inverse taken.
    """
    field = gram.field
    a, b, c, _ = squares
    w1, w2, w3, w4 = rows

    def wedge(u, v) -> Matrix:
        out = [[field.zero()] * 4 for _ in range(4)]
        for p in range(4):
            for q in range(p + 1, 4):
                x = u[p] * v[q] - v[p] * u[q]
                out[p][q], out[q][p] = x, -x
        return Matrix(field, out) * gram

    def scaled(s: FieldElement, u) -> tuple[FieldElement, ...]:
        return tuple(s * x for x in u)

    return (
        wedge(w1, w2),
        wedge(w2, w3),
        wedge(w1, w3),
        wedge(scaled(a * b, w3), w4),
        wedge(scaled(b * c, w1), w4),
        wedge(scaled(a * c, w4), w2),
    )


def common_denominator(field: FieldDescriptor, xs: Sequence[FieldElement]) -> FieldElement:
    """Nonzero d with d*x of denominator 1 for every x in xs: 1 over F_p,
    the lcm of the denominators over Q, their monic lcm over F_p(t), and
    the base field's answer for both coordinates over F[sqrt D]."""
    kind = field.kind
    if kind == KIND_RATIONALS:
        return field.from_int(math.lcm(*(x.payload.denominator for x in xs)))
    if kind == KIND_FUNFIELD:
        lcm = Poly.const(field.p, 1)
        for den in {x.payload[1] for x in xs}:
            if not den.is_one():
                lcm = lcm * (den // poly_gcd(lcm, den))
        return FieldElement(field, (lcm, Poly.const(field.p, 1)))
    if kind == KIND_QUADEXT:
        base = field.base
        d = common_denominator(base, [c for x in xs for c in x.payload])
        return FieldElement(field, (d, base.zero()))
    return field.one()


def iter_echelon(q: int, n: int, k: int):
    """All canonical echelon bases of k-dimensional subspaces of F_q^n as
    (pivots, integer rows): choose pivot columns, then run an odometer
    over the free positions."""
    if k == 0:
        yield (), []
        return
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        base = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        for counter in range(q ** len(free)):
            rows = [row[:] for row in base]
            rem = counter
            for i, j in free:
                rows[i][j] = rem % q
                rem //= q
            yield pivots, [tuple(row) for row in rows]


def enumerate_subspaces(q: int, n: int, k: int):
    """Stream every k-dimensional subspace of F_q^n exactly once."""
    _validate(q, n)
    if k < 0 or k > n:
        raise UnsupportedField("dimension out of range")
    field = prime_field(q)
    for pivots, rows in iter_echelon(q, n, k):
        yield _to_subspace(field, pivots, rows, n)
