"""Reference computations the tests compare the library against.

Each one is the plain textbook construction, kept out of the library
because no command runs it.
"""

import math
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Optional, Sequence

from orthocurrent.exact_linalg import (
    Matrix,
    ShapeMismatch,
    Subspace,
    canonicalize_subspace,
    commutator,
)
from orthocurrent.forms import BilinearForm, orthogonal_complement, orthogonalize, restrict
from orthocurrent.liealg import (
    InvalidStructure,
    LieAlgebraSC,
    NotIndependent,
    _alternating,
    _check_diagonal,
    _wedges,
    algebra_from_matrices,
    derived_subspace,
    is_ideal,
    skew_adjoint_algebra,
)
from orthocurrent.oracle import (
    UnsupportedField,
    _insert,
    _key,
    _validate,
    adjoint_tables,
    enumerate_ideals,
)
from orthocurrent.scalars import (
    KIND_FUNFIELD,
    KIND_PRIME,
    KIND_QUADEXT,
    KIND_RATIONALS,
    FieldDescriptor,
    FieldElement,
    Poly,
    _make_ratio,
    parse_scalar,
    poly_gcd,
    prime_field,
)


class NotClosed(ValueError):
    """A bracket escapes the span of the proposed basis."""


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


def matrix_sum(*mats: Matrix) -> Matrix:
    """Entrywise sum of matrices of one shape over one field."""
    field = mats[0].field
    return Matrix(field, [[sum(xs, field.zero()) for xs in zip(*rows)]
                          for rows in zip(*(m.rows for m in mats))])


def scaled(s: FieldElement, m: Matrix) -> Matrix:
    return Matrix(m.field, [[s * x for x in row] for row in m.rows])


def dense_commutator(x: Matrix, y: Matrix) -> Matrix:
    """xy - yx by dense matrix products."""
    return matrix_sum(x * y, scaled(-x.field.one(), y * x))


def dense(field: FieldDescriptor, n: int, m: dict) -> Matrix:
    """The sparse n x n matrix {(row, col): entry} as a dense Matrix."""
    zero = field.zero()
    return Matrix(field, [[m.get((r, c), zero) for c in range(n)] for r in range(n)])


def sparse(m: Matrix) -> dict:
    """The nonzero entries of a dense matrix as {(row, col): entry}."""
    return {(r, c): x for r, row in enumerate(m.rows) for c, x in enumerate(row) if x}


def sparse_vector(v) -> dict:
    """The nonzero coordinates of a dense vector as {index: entry}."""
    return {i: x for i, x in enumerate(v) if x}


def flat(m: Matrix) -> tuple[FieldElement, ...]:
    """The entries of a dense matrix, row by row."""
    return tuple(x for row in m.rows for x in row)


def current_basis(*entries: FieldElement) -> list[dict]:
    """The distinguished basis read from WEDGE_ROWS, as the sparse matrices
    of `liealg._wedges`: f1, f2, f3, h1, h2, h3 of M for diag(a, b, c, d),
    or f1, f2, f3 of the core for diag(a, b, c), after the entries' checks
    of `evaluated_algebra` and a check that each is skew-adjoint.
    Independence is left to `algebra_from_matrices`, which reads each
    matrix at an entry of its own and refuses, with NotIndependent,
    matrices that lack one."""
    _check_diagonal(entries)
    wedges = _wedges(entries)
    if not all(_alternating(m, entries) for m in wedges):
        raise InvalidStructure("basis matrix is not skew-adjoint")
    return wedges


def current_algebra(entries: Sequence[FieldElement]) -> LieAlgebraSC:
    """M, or the core for three entries, built from the commutators of
    `current_basis`: the matrix route that the documents' evaluation of the
    proven table is compared with."""
    return algebra_from_matrices(entries[0].field, current_basis(*entries))


def dense_basis(*entries: FieldElement) -> tuple[Matrix, ...]:
    """current_basis(*entries) as dense matrices."""
    return tuple(dense(entries[0].field, len(entries), m) for m in current_basis(*entries))


def skew_matrices(form: BilinearForm) -> list[Matrix]:
    """L's basis, the rows of skew_adjoint_algebra(form), reshaped to dense
    n x n matrices."""
    n = form.dim
    return [Matrix(form.field, [row[r * n:(r + 1) * n] for r in range(n)])
            for row in skew_adjoint_algebra(form).basis.rows]


def realization_mismatch(brackets: Mapping, mats: Sequence[Matrix]) -> Optional[tuple[int, int]]:
    """First pair i < j whose dense commutator [m_i, m_j] differs from
    sum_k c_k m_k for the bracket {k: c_k} at (i, j), or None when the
    matrices realize the brackets."""
    zero = mats[0].field.zero()
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            coords = brackets.get((i, j), {})
            combination = matrix_sum(*(scaled(coords.get(k, zero), m) for k, m in enumerate(mats)))
            if dense_commutator(mats[i], mats[j]) != combination:
                return (i, j)
    return None


def is_zero_matrix(m: Matrix) -> bool:
    return all(x.is_zero() for x in flat(m))


def full_subspace(field: FieldDescriptor, ambient_dim: int) -> Subspace:
    return canonicalize_subspace(field, Matrix.identity(field, ambient_dim).rows, ambient_dim)


def subspace_meet_join(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """(intersection, sum) of two subspaces of the same ambient space.

    The sum is the span of both bases; the intersection comes from the
    Zassenhaus block trick: rows of [A|A] and [B|0] whose left half
    eliminates to zero, by `dense_rref`, have right halves spanning the
    intersection.
    """
    if a.field != b.field or a.ambient_dim != b.ambient_dim:
        raise ShapeMismatch("subspaces live in different ambient spaces")
    n = a.ambient_dim
    joined = canonicalize_subspace(a.field, list(a.basis.rows) + list(b.basis.rows), n)
    zero = a.field.zero()
    block = [list(row) + list(row) for row in a.basis.rows]
    block += [list(row) + [zero] * n for row in b.basis.rows]
    block, _ = dense_rref(block)
    meet_vectors = [
        row[n:] for row in block
        if all(x.is_zero() for x in row[:n]) and not all(x.is_zero() for x in row[n:])
    ]
    return canonicalize_subspace(a.field, meet_vectors, n), joined


def document_subspace(rows, field: FieldDescriptor) -> Subspace:
    """The subspace of M (dimension 6) that a document's rows of literals
    span, such as a classify witness."""
    return canonicalize_subspace(field, [[parse_scalar(x, field) for x in row] for row in rows], 6)


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


def det(m: Matrix) -> FieldElement:
    """Determinant by cofactor expansion along the first row; no
    elimination, so it is independent of the library's.  Meant for the
    small matrices of the tests (n <= 5)."""
    n = m.nrows
    if m.ncols != n:
        raise ShapeMismatch("determinant of a non-square matrix")
    if n > 5:
        raise ValueError("cofactor expansion is meant for n <= 5")

    def expand(rows) -> FieldElement:
        if not rows:
            return m.field.one()
        total = m.field.zero()
        for j, x in enumerate(rows[0]):
            if not x.is_zero():
                minor = [row[:j] + row[j + 1:] for row in rows[1:]]
                term = x * expand(minor)
                total = total - term if j % 2 else total + term
        return total

    return expand([tuple(row) for row in m.rows])


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


def unit(alg: LieAlgebraSC, i: int) -> tuple[FieldElement, ...]:
    """The basis vector e_i of the algebra, dense."""
    zero, one = alg.field.zero(), alg.field.one()
    return tuple(one if k == i else zero for k in range(alg.dim))


def dense_bracket(alg: LieAlgebraSC, u, v) -> tuple[FieldElement, ...]:
    """[u, v] for dense coordinate vectors, by the bilinear extension of
    the brackets: sum_{i<j} (u_i v_j - u_j v_i) [e_i, e_j], every bracket
    of the table visited."""
    n = alg.dim
    if len(u) != n or len(v) != n:
        raise ShapeMismatch("coordinate length does not match dimension")
    acc = [alg.field.zero()] * n
    for (i, j), row in alg.brackets.items():
        scale = u[i] * v[j] - u[j] * v[i]
        for k, coeff in row.items():
            acc[k] = acc[k] + scale * coeff
    return tuple(acc)


def dense_remainder(space: Subspace, v) -> tuple[FieldElement, ...]:
    """Remainder of the dense vector v after elimination against the
    space's dense echelon basis: v minus v[p] times the row of pivot p."""
    w = list(v)
    for row, c in zip(space.basis.rows, space.pivots):
        factor = w[c]
        w = [x - factor * y for x, y in zip(w, row)]
    return tuple(w)


def dense_is_ideal(alg: LieAlgebraSC, space: Subspace) -> bool:
    """is_ideal by dense unit-vector brackets [e_i, b] for the basis rows
    b, each reduced against the space to zero."""
    return all(not any(dense_remainder(space, dense_bracket(alg, unit(alg, i), row)))
               for i in range(alg.dim) for row in space.basis.rows)


def dense_bracket_span(alg: LieAlgebraSC, space: Subspace) -> Subspace:
    """bracket_span by dense brackets of the pairs of basis rows."""
    rows = space.basis.rows
    return canonicalize_subspace(alg.field, [dense_bracket(alg, x, y) for a, x in enumerate(rows)
                                             for y in rows[a + 1:]], alg.dim)


def ideal_closure(alg: LieAlgebraSC, seed) -> Subspace:
    """Smallest ideal containing the seed vectors (worklist closure)."""
    space = canonicalize_subspace(alg.field, [tuple(v) for v in seed], alg.dim)
    while True:
        new_vectors = []
        for i in range(alg.dim):
            e = unit(alg, i)
            for row in space.basis.rows:
                w = dense_bracket(alg, e, row)
                if not space.contains(w):
                    new_vectors.append(w)
        if not new_vectors:
            return space
        space = canonicalize_subspace(
            alg.field, list(space.basis.rows) + new_vectors, alg.dim
        )


def _apply(ad, x: Sequence[int], n: int) -> list[int]:
    """ad(e_i) x by one mat-vec over the sparse triples (k, j, c) of
    ad(e_i), entries not yet reduced mod q."""
    w = [0] * n
    for k, j, c in ad:
        w[k] += c * x[j]
    return w


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


def matrix_for(mats: Sequence[Matrix], coords) -> Matrix:
    """sum_k coords[k] m_k over the dense matrices m_1, ..., m_n of an
    algebra's basis, by matrix arithmetic."""
    return matrix_sum(*(scaled(c, m) for c, m in zip(coords, mats)))


def derived_span(form: BilinearForm) -> tuple[int, Subspace]:
    """dim L, for L the skew-adjoint algebra of the form, and [L, L] as the
    span of the commutators of L's basis: the numeric route that the
    documents' proven facts replace.

    L's basis matrices are the rows of the kernel that
    `skew_adjoint_algebra` returns, read sparse: entry k of a row is at
    (k // n, k % n), and each commutator (`exact_linalg.commutator`) is
    handed back with entry (r, c) at r n + c.  Raises NotClosed when a
    basis row of [L, L] is not in that kernel.
    """
    n = form.dim
    skew = skew_adjoint_algebra(form)
    mats = [{divmod(k, n): x for k, x in row.items()} for row in skew.rows]
    comms = [{r * n + c: z for (r, c), z in commutator(x, y).items()}
             for i, x in enumerate(mats) for y in mats[i + 1:]]
    derived = canonicalize_subspace(form.field, comms, skew.ambient_dim)
    if not all(skew.contains(row) for row in derived.rows):
        raise NotClosed("a commutator of the skew-adjoint basis escapes its span")
    return skew.dim, derived


def spans(mats: Sequence[dict], space: Subspace) -> bool:
    """Whether the sparse n x n matrices span the space of flattened
    matrices, m[r, c] at r n + c: exactly when their rank, their number
    once building their algebra proved them independent, is the space's
    dimension and each matrix lies in it."""
    n = math.isqrt(space.ambient_dim)
    return len(mats) == space.dim and all(
        space.contains({r * n + c: x for (r, c), x in m.items()}) for m in mats)


def derived_span_by_coordinates(form: BilinearForm) -> tuple[int, Subspace]:
    """(dim L, [L, L] flattened) by way of L's structure constants: [L, L]
    in L's coordinates, mapped back through L's matrices."""
    mats = skew_matrices(form)
    skew = algebra_from_matrices(form.field, [sparse(m) for m in mats])
    flats = [flat(matrix_for(mats, row)) for row in derived_subspace(skew).basis.rows]
    return skew.dim, canonicalize_subspace(form.field, flats, form.dim ** 2)


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
            coords = solver.coordinates(dense_bracket(alg, rows[a], rows[b]))
            if coords is None:
                raise NotClosed(f"bracket of basis vectors {a},{b} escapes the span")
            constants[a][b] = coords
            constants[b][a] = tuple(-x for x in coords)
    return tuple(tuple(row) for row in constants)


def brackets_of(vectors: Mapping) -> dict:
    """Brackets given as dense coordinate vectors {(i, j): [e_i, e_j]},
    i < j, in the form `LieAlgebraSC` keeps: {(i, j): {k: c_k}} with zero
    c_k and zero brackets left out."""
    out = {pair: {k: x for k, x in enumerate(vec) if x} for pair, vec in vectors.items()}
    return {pair: c for pair, c in out.items() if c}


def jacobi_failure(alg: LieAlgebraSC) -> Optional[tuple[int, int, int]]:
    """The first basis triple (i, j, k), i < j < k, on which
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] is nonzero, or
    None when the Jacobi identity holds.  The table is antisymmetric, so
    triples with repeats hold and the sum is permutation-stable: i < j < k
    suffices.  Reads `brackets`, not `bracket`."""
    table = {}
    for (i, j), row in alg.brackets.items():
        table[i, j] = row
        table[j, i] = {k: -x for k, x in row.items()}
    for i, j, k in combinations(range(alg.dim), 3):
        acc = [alg.field.zero()] * alg.dim
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in table.get((a, b), {}).items():
                for n, y in table.get((m, d), {}).items():
                    acc[n] = acc[n] + x * y
        if any(acc):
            return (i, j, k)
    return None


def closed_and_perfect(alg: LieAlgebraSC, space: Subspace) -> tuple[bool, bool]:
    """Whether `space` is a subalgebra, and whether that subalgebra, built
    from its own structure constants, is perfect."""
    try:
        constants = structure_constants(alg, space.basis.rows)
    except NotClosed:
        return False, False
    vectors = {(a, b): constants[a][b] for a, b in combinations(range(space.dim), 2)}
    sub = LieAlgebraSC(alg.field, space.dim, brackets_of(vectors))
    return True, derived_subspace(sub).dim == space.dim


def quotient_algebra(alg: LieAlgebraSC, ideal: Subspace) -> LieAlgebraSC:
    """Quotient by an ideal, on the coordinates complementary to its pivots.

    Representatives are the standard basis vectors at non-pivot positions;
    brackets are reduced against the ideal's echelon basis, which is the
    linear projection onto the complement.
    """
    if not is_ideal(alg, ideal):
        raise InvalidStructure("quotient requires an ideal")
    complement = [j for j in range(alg.dim) if j not in ideal.pivots]
    brackets = {}
    for a, i in enumerate(complement):
        for b in range(a + 1, len(complement)):
            w = dense_remainder(ideal, dense_bracket(alg, unit(alg, i), unit(alg, complement[b])))
            brackets[(a, b)] = tuple(w[j] for j in complement)
    return LieAlgebraSC(alg.field, len(complement), brackets_of(brackets))


def conjugated_current_basis(rows, squares) -> tuple[Matrix, ...]:
    """B^T m B^-T for the matrices m of current_basis(*squares), with B the
    matrix of the given rows: an explicit inverse and two products each."""
    b_t = Matrix(squares[0].field, rows).transpose()
    b_t_inv = inverse(b_t)
    return tuple(b_t * m * b_t_inv for m in dense_basis(*squares))


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


def small_element(field: FieldDescriptor, rng) -> FieldElement:
    """The random-W leg's low-height scalar, its literal parsed on each draw
    over F_p(t); the draws are the leg's own."""
    kind = field.kind
    if kind == KIND_FUNFIELD:
        return parse_scalar(rng.choice(("0", "1", field.var, f"{field.var}+1")), field)
    if kind == KIND_QUADEXT:
        u = small_element(field.base, rng)
        v = small_element(field.base, rng)
        return FieldElement(field, (u, v))
    if kind == KIND_PRIME:
        return field.from_int(rng.randrange(field.p))
    return field.from_int(rng.randint(-2, 2))


def orthogonal_rows_by_restriction(form: BilinearForm, rng, max_tries: int):
    """The random-W leg's (attempt, W, rows, squares) by restriction, or None
    after max_tries attempts: the Gram matrix of f|_W in W's canonical
    basis, rejected when its rank is short, orthogonalized in W's
    coordinates, carried back by W's basis and extended by the orthogonal
    complement."""
    field = form.field
    for attempt in range(1, max_tries + 1):
        rows = [[small_element(field, rng) for _ in range(4)] for _ in range(3)]
        w = canonicalize_subspace(field, rows, 4)
        if w.dim != 3:
            continue
        restricted = restrict(form, w)
        if not restricted.nondegenerate:
            continue
        ortho = orthogonalize(restricted)
        w4 = orthogonal_complement(form, w).basis.rows[0]
        d4 = form.evaluate(w4, w4)
        assert not d4.is_zero(), "a nondegenerate f|_W has an anisotropic complement"
        return attempt, w, (ortho.basis * w.basis).rows + (w4,), ortho.diagonal + (d4,)
    return None


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


def trimmed(coeffs) -> list:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def schoolbook_mul(a, b, p: int) -> list:
    """Product of two coefficient sequences over F_p, one coefficient
    product at a time, reduced at every step."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return trimmed(out)


def schoolbook_divmod(a, b, p: int) -> tuple[list, list]:
    """Quotient and remainder of coefficient sequences over F_p by long
    division, one coefficient at a time; b has a nonzero top coefficient."""
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] * inv_lead % p
        quot[k] = c
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - c * y) % p
    return trimmed(quot), trimmed(rem)


def poly_power(f: Poly, n: int) -> Poly:
    out = Poly.const(f.p, 1)
    for _ in range(n):
        out = out * f
    return out


def _poly_derivative(f: Poly) -> Poly:
    p = f.p
    return Poly(p, [i * c for i, c in enumerate(f.coeffs)][1:])


def _poly_pth_root(f: Poly) -> Poly:
    """The p-th root of a polynomial whose derivative vanishes: every
    exponent is a multiple of p, and Frobenius fixes F_p."""
    p = f.p
    assert all(not c for i, c in enumerate(f.coeffs) if i % p)
    return Poly(p, f.coeffs[::p])


def poly_squarefree(f: Poly) -> list[tuple[Poly, int]]:
    """Squarefree decomposition f = c * prod g_i^i over F_p (Yun's
    algorithm, with the p-th-root step of characteristic p).

    Factors are monic, squarefree and pairwise coprime; the unit c is the
    leading coefficient of f.  Where f' = 0, and for the factor left over
    once Yun's loop ends, the p-th root is taken and the multiplicities of
    its decomposition are scaled by p.
    """
    assert not f.is_zero()
    f = f.monic()
    if f.degree < 1:
        return []
    out: dict[int, Poly] = {}

    def merge(g: Poly, m: int) -> None:
        if g.degree >= 1:
            out[m] = out[m] * g if m in out else g

    d = _poly_derivative(f)
    if d.is_zero():
        rest = f
    else:
        c = poly_gcd(f, d)
        w = f // c
        i = 1
        while not w.is_one():
            y = poly_gcd(w, c)
            merge(w // y, i)
            w, c, i = y, c // y, i + 1
        rest = c
    if not rest.is_one():
        for g, m in poly_squarefree(_poly_pth_root(rest)):
            merge(g, m * f.p)
    return [(g, m) for m, g in sorted(out.items())]


def funfield_sqrt(x: FieldElement) -> Optional[FieldElement]:
    """The square root of x in F_p(t) by the squarefree decompositions of
    numerator and denominator, or None: x is a square exactly when its
    leading coefficient is a residue (Euler's criterion) and every
    multiplicity is even.  Of the two roots, the one whose numerator leads
    with the least residue."""
    field = x.field
    p = field.p
    num, den = x.payload
    if num.is_zero():
        return x
    lead = num.leading
    if p != 2 and pow(lead, (p - 1) // 2, p) != 1:
        return None
    parts = []
    for f in (num, den):
        root = Poly.const(p, 1)
        for g, m in poly_squarefree(f):
            if m % 2:
                return None
            root = root * poly_power(g, m // 2)
        parts.append(root)
    # Both roots of the leading coefficient are tried; one is the least.
    r = next(r for r in _residue_roots(lead, p) if 2 * r <= p)
    return FieldElement(field, (parts[0].scale(r), parts[1]))


def _residue_roots(a: int, p: int):
    """The square roots of the residue a mod p, found by search for small
    p and by an exponent for p = 3 mod 4."""
    if p < 1000:
        return [r for r in range(p) if r * r % p == a]
    assert p % 4 == 3
    r = pow(a, (p + 1) // 4, p)
    return [r, p - r]


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


def _to_subspace(field, pivots: Sequence[int], rows: Sequence[Sequence[int]], n: int) -> Subspace:
    """The oracle key (pivots, rows) over F_q as a library subspace."""
    echelon = tuple({j: field.from_int(x) for j, x in enumerate(row) if x} for row in rows)
    return Subspace(field, n, echelon, tuple(pivots))


def integer_brackets(alg: LieAlgebraSC) -> tuple[int, int, dict]:
    """(q, n, brackets) of an algebra over F_q, its brackets' coordinates
    read as plain integers mod q: the arguments of oracle.adjoint_tables."""
    if alg.field.kind != KIND_PRIME:
        raise UnsupportedField("ideal enumeration runs over prime fields")
    return alg.field.p, alg.dim, {pair: {k: c.payload for k, c in row.items()}
                                  for pair, row in alg.brackets.items()}


def ideal_subspaces(alg: LieAlgebraSC) -> list[Subspace]:
    """The oracle's lattice of alg, in its order, as library subspaces,
    for comparing with the library's own ideal routines."""
    return [_to_subspace(alg.field, pivots, rows, alg.dim)
            for pivots, rows in enumerate_ideals(adjoint_tables(*integer_brackets(alg)))]


def enumerate_subspaces(q: int, n: int, k: int):
    """Stream every k-dimensional subspace of F_q^n exactly once."""
    _validate(q, n)
    if k < 0 or k > n:
        raise UnsupportedField("dimension out of range")
    field = prime_field(q)
    for pivots, rows in iter_echelon(q, n, k):
        yield _to_subspace(field, pivots, rows, n)
