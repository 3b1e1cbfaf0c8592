"""Structure-constant Lie algebras built from bilinear forms.

The central object is `LieAlgebraSC`: a finite-dimensional Lie algebra
given by its structure constants c[i][j][k], optionally carrying a
faithful matrix realization.  Construction always checks antisymmetry
(including [x,x] = 0, which is the correct reading in characteristic 2),
the Jacobi identity on all basis triples, and agreement of the bracket
with matrix commutators whenever a realization is present.

Bases of skew-adjoint endomorphisms are produced by solving the linear
system x^T G + G x = 0.  For a 4-dimensional nondegenerate form the
distinguished basis f1, f2, f3, h1, h2, h3 of the derived algebra aligns
it positionally with (3-dimensional core) tensor (quadratic quotient),
which is what the verification and classification layers exploit.
"""

from __future__ import annotations

from functools import reduce
from operator import mul
from typing import Optional, Sequence

from .exact_linalg import (
    Matrix,
    ShapeMismatch,
    Subspace,
    canonicalize_subspace,
    commutators,
    full_subspace,
    kernel,
)
from .forms import AlternatingChar2, BilinearForm, Degenerate
from .scalars import DescriptorMismatch, FieldDescriptor, FieldElement, inv


class NotClosed(ValueError):
    """A bracket escapes the span of the proposed basis."""


class NotIndependent(ValueError):
    """The proposed basis vectors are not shown independent: one of them has
    no nonzero entry of its own, as in every dependent set."""


class ZeroEntry(ValueError):
    """A diagonal entry that must be nonzero is zero."""


class WrongDimension(ValueError):
    """The operation is only defined in a specific dimension."""


class InvalidStructure(ValueError):
    """Structure constants violate antisymmetry or the Jacobi identity."""


Vector = tuple[FieldElement, ...]
Tensor = tuple[tuple[Vector, ...], ...]


def _sparse(vec: Vector) -> tuple[tuple[int, FieldElement], ...]:
    return tuple((k, x) for k, x in enumerate(vec) if not x.is_zero())


class LieAlgebraSC:
    """Lie algebra over an exact field given by structure constants.

    `constants[i][j]` is the coordinate vector of the bracket of basis
    elements i and j.  `realization`, when given, is one matrix per basis
    element whose commutators must reproduce the constants exactly.
    `commutators`, when given, holds those commutators flattened (as
    `exact_linalg.commutators` returns them) so a caller that already
    computed them does not pay twice; the check itself always runs.
    """

    __slots__ = ("field", "dim", "constants", "realization", "_sparse_rows")

    def __init__(self, field: FieldDescriptor, dim: int, constants: Sequence[Sequence[Sequence[FieldElement]]],
                 realization: Optional[Sequence[Matrix]] = None,
                 commutators: Optional[dict[tuple[int, int], Vector]] = None):
        self.field = field
        self.dim = dim
        self.constants: Tensor = tuple(
            tuple(tuple(entry) for entry in row) for row in constants
        )
        self.realization = tuple(realization) if realization is not None else None
        self._sparse_rows = tuple(
            tuple(_sparse(self.constants[i][j]) for j in range(dim))
            for i in range(dim)
        )
        self._check_shape()
        self._check_antisymmetry()
        self._check_jacobi()
        if self.realization is not None:
            self._check_realization(commutators)

    # -- construction-time invariants ----------------------------------

    def _check_shape(self) -> None:
        n = self.dim
        if len(self.constants) != n or any(
            len(row) != n or any(len(entry) != n for entry in row)
            for row in self.constants
        ):
            raise InvalidStructure("constants tensor has the wrong shape")

    def _check_antisymmetry(self) -> None:
        n = self.dim
        zero = self.field.zero()
        for i in range(n):
            if any(x != zero for x in self.constants[i][i]):
                raise InvalidStructure(f"[e{i}, e{i}] != 0")
            for j in range(i + 1, n):
                if any(
                    x != -y
                    for x, y in zip(self.constants[i][j], self.constants[j][i])
                ):
                    raise InvalidStructure(f"[e{i}, e{j}] != -[e{j}, e{i}]")

    def _check_jacobi(self) -> None:
        # With antisymmetry verified, triples with repeats are automatic
        # and the Jacobi sum is permutation-stable, so i < j < k suffices.
        n = self.dim
        zero = self.field.zero()
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = [zero] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, coeff in self._sparse_rows[a][b]:
                            for r, coeff2 in self._sparse_rows[m][c]:
                                acc[r] = acc[r] + coeff * coeff2
                    if any(not x.is_zero() for x in acc):
                        raise InvalidStructure(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})"
                        )

    def _check_realization(self, comms: Optional[dict[tuple[int, int], Vector]]) -> None:
        if len(self.realization) != self.dim:
            raise InvalidStructure("realization size does not match dimension")
        pair = realization_mismatch(self.constants, self.realization, comms)
        if pair is not None:
            raise InvalidStructure(
                f"commutator of realization matrices {pair[0]},{pair[1]} disagrees"
            )

    # -- basic operations ----------------------------------------------

    def bracket(self, u: Sequence[FieldElement], v: Sequence[FieldElement]) -> Vector:
        """Bilinear extension of the structure constants to coordinates."""
        n = self.dim
        if len(u) != n or len(v) != n:
            raise ShapeMismatch("coordinate length does not match dimension")
        zero = self.field.zero()
        acc = [zero] * n
        for i, ui in enumerate(u):
            if ui.is_zero():
                continue
            row = self._sparse_rows[i]
            for j, vj in enumerate(v):
                if vj.is_zero():
                    continue
                scale = ui * vj
                for k, coeff in row[j]:
                    acc[k] = acc[k] + scale * coeff
        return tuple(acc)

    def basis_vector(self, i: int) -> Vector:
        zero, one = self.field.zero(), self.field.one()
        return tuple(one if k == i else zero for k in range(self.dim))

    def __repr__(self) -> str:
        return f"LieAlgebraSC(dim={self.dim} over {self.field!r})"


def realization_mismatch(constants: Sequence[Sequence[Sequence[FieldElement]]],
                         mats: Sequence[Matrix],
                         comms: Optional[dict[tuple[int, int], Vector]] = None,
                         ) -> Optional[tuple[int, int]]:
    """First pair i < j whose commutator [m_i, m_j] differs from
    sum_k constants[i][j][k] m_k, compared on flattened matrices, or None
    when the matrices realize the constants.

    `comms` may hold the flattened commutators as `exact_linalg.commutators`
    returns them; otherwise they are computed here.
    """
    if not mats:
        return None
    if comms is None:
        comms = commutators(mats)
    field = mats[0].field
    flats = [_sparse(m.flatten()) for m in mats]
    size = mats[0].nrows * mats[0].ncols
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if comms[(i, j)] != _flat_combination(field, constants[i][j], flats, size):
                return (i, j)
    return None


def _flat_combination(field: FieldDescriptor, coords: Sequence[FieldElement],
                      flats: Sequence[Sequence[tuple[int, FieldElement]]], size: int) -> Vector:
    """sum_k coords[k] m_k, flattened; `flats` holds each m_k's nonzero
    flattened entries, and `size` is the number of entries of a matrix."""
    acc = [field.zero()] * size
    for coeff, flat in zip(coords, flats):
        if not coeff.is_zero():
            for idx, x in flat:
                acc[idx] = acc[idx] + coeff * x
    return tuple(acc)


# ---------------------------------------------------------------------------
# Skew-adjoint algebras.
# ---------------------------------------------------------------------------


def skew_adjoint_algebra(form: BilinearForm) -> list[Matrix]:
    """Basis of all endomorphisms x with x^T G + G x = 0.

    The basis is the canonical echelon basis of the solution space of the
    n^2 x n^2 linear system, each row reshaped to an n x n matrix, so the
    flattened matrices are a reduced echelon basis as they stand.  For a
    4-dimensional form there are 6 in characteristic != 2 and 10 in
    characteristic 2.
    """
    if not form.nondegenerate:
        raise Degenerate("skew-adjoint algebra requires a nondegenerate form")
    field = form.field
    if field.characteristic() == 2 and form.alternating and form.dim > 0:
        raise AlternatingChar2("alternating form in characteristic 2")
    n = form.dim
    g = form.gram
    zero = field.zero()
    equations = []
    for i in range(n):
        for j in range(n):
            row = [zero] * (n * n)
            for k in range(n):
                # coefficient of x[k][i] from (x^T G) and x[k][j] from (G x)
                row[k * n + i] = row[k * n + i] + g.rows[k][j]
                row[k * n + j] = row[k * n + j] + g.rows[i][k]
            equations.append(row)
    sol = kernel(Matrix(field, equations))
    return [
        Matrix(field, [row[r * n:(r + 1) * n] for r in range(n)])
        for row in sol.basis.rows
    ]


def algebra_from_matrices(field: FieldDescriptor, mats: Sequence[Matrix]) -> LieAlgebraSC:
    """Lie algebra spanned by commutator-closed matrices, each of which has
    a flattened entry of its own: a position where it alone is nonzero.

    At the own entry p_k of m_k, a combination sum_j c_j m_j reads
    c_k m_k[p_k], so the matrices are independent and the coordinates of a
    commutator in their span are read as comm[p_k] / m_k[p_k], the first
    own entry of each matrix serving.  The realization check of
    `LieAlgebraSC` compares every commutator with sum_k c_k m_k on all
    entries, which proves those coordinates and refuses a commutator that
    escapes the span.  Raises NotIndependent when a matrix has no entry of
    its own, as happens in every dependent set; the distinguished bases
    have disjoint supports, and an echelon basis has its pivots.
    """
    dim = len(mats)
    if dim == 0:
        return LieAlgebraSC(field, 0, [])
    flats = [m.flatten() for m in mats]
    nonzero = [[not x.is_zero() for x in flat] for flat in flats]
    owners = [sum(column) for column in zip(*nonzero)]
    reads = []
    for k, flat in enumerate(flats):
        p = next((p for p, nz in enumerate(nonzero[k]) if nz and owners[p] == 1), None)
        if p is None:
            raise NotIndependent(f"matrix {k} has no nonzero entry of its own")
        reads.append((p, None if flat[p].is_one() else inv(flat[p])))
    comms = commutators(mats)
    zero_vec = tuple(field.zero() for _ in range(dim))
    constants = [[zero_vec] * dim for _ in range(dim)]
    for (i, j), comm in comms.items():
        coords = tuple(
            comm[p] if scale is None or comm[p].is_zero() else comm[p] * scale
            for p, scale in reads
        )
        constants[i][j] = coords
        constants[j][i] = tuple(-x for x in coords)
    return LieAlgebraSC(field, dim, constants, realization=mats, commutators=comms)


# ---------------------------------------------------------------------------
# Derived series and ideals.
# ---------------------------------------------------------------------------


def bracket_span(alg: LieAlgebraSC, space: Subspace) -> Subspace:
    """Span of all brackets of pairs from the subspace's basis."""
    rows = space.basis.rows
    vectors = [
        alg.bracket(rows[a], rows[b])
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    ]
    return canonicalize_subspace(alg.field, vectors, alg.dim)


def derived_series_of_subspace(alg: LieAlgebraSC, space: Subspace) -> list[Subspace]:
    """Chain S > [S,S] > ... inside the ambient algebra until stable."""
    series = [space]
    while True:
        nxt = bracket_span(alg, series[-1])
        if nxt.dim >= series[-1].dim:
            return series
        series.append(nxt)
        if nxt.dim == 0:
            return series


def derived_subspace(alg: LieAlgebraSC) -> Subspace:
    """[L, L] as a subspace of L's coordinates."""
    return bracket_span(alg, full_subspace(alg.field, alg.dim))


def is_ideal(alg: LieAlgebraSC, space: Subspace) -> bool:
    return all(
        space.contains(alg.bracket(alg.basis_vector(i), row))
        for i in range(alg.dim)
        for row in space.basis.rows
    )


def quotient_algebra(alg: LieAlgebraSC, ideal: Subspace) -> LieAlgebraSC:
    """Quotient by an ideal, on the coordinates complementary to its pivots.

    Representatives are the standard basis vectors at non-pivot positions;
    brackets are reduced against the ideal's echelon basis, which is the
    linear projection onto the complement.
    """
    if not is_ideal(alg, ideal):
        raise InvalidStructure("quotient requires an ideal")
    complement = [j for j in range(alg.dim) if j not in ideal.pivots]
    dim = len(complement)
    constants = []
    for a in complement:
        row = []
        for b in complement:
            w = ideal.reduce(alg.bracket(alg.basis_vector(a), alg.basis_vector(b)))
            row.append(tuple(w[j] for j in complement))
        constants.append(row)
    return LieAlgebraSC(alg.field, dim, constants)


# ---------------------------------------------------------------------------
# The distinguished basis of M and of the core, and the paper's table.
# ---------------------------------------------------------------------------


def _diagonal_field(names: str, entries: Sequence[FieldElement]) -> FieldDescriptor:
    """The common field of nonzero diagonal entries."""
    field = entries[0].field
    for name, x in zip(names, entries):
        if x.field != field:
            raise DescriptorMismatch("diagonal entries live in different fields")
        if x.is_zero():
            raise ZeroEntry(f"diagonal entry {name} must be nonzero")
    return field


def _check_skew(mats: Sequence[Matrix], gram: Matrix) -> None:
    """x^T G + G x = 0 for each matrix x, summed over nonzero entries only:
    (x^T G)[i][j] collects x[k][i] G[k][j] and (G x)[i][j] collects
    G[i][k] x[k][j]."""
    n = gram.nrows
    g_rows = [[(j, g) for j, g in enumerate(row) if not g.is_zero()] for row in gram.rows]
    zero = gram.field.zero()
    for m in mats:
        x_rows = [[(j, x) for j, x in enumerate(row) if not x.is_zero()] for row in m.rows]
        acc = [zero] * (n * n)
        for k, row in enumerate(x_rows):
            for i, x in row:
                for j, g in g_rows[k]:
                    acc[i * n + j] = acc[i * n + j] + x * g
        for i, row in enumerate(g_rows):
            for k, g in row:
                for j, x in x_rows[k]:
                    acc[i * n + j] = acc[i * n + j] + g * x
        if any(not v.is_zero() for v in acc):
            raise InvalidStructure("basis matrix is not skew-adjoint")


# The paper's table in the distinguished basis, one row per nonzero bracket
# of basis elements: coefficients refer to the diagonal entries a, b, c, d
# and to D = abcd.
TABLE_ROWS = (
    ("f1", "f2", "b", "f3"),
    ("f2", "f3", "c", "f1"),
    ("f3", "f1", "a", "f2"),
    ("f1", "h2", "b", "h3"),
    ("f2", "h3", "c", "h1"),
    ("f3", "h1", "a", "h2"),
    ("f2", "h1", "-b", "h3"),
    ("f3", "h2", "-c", "h1"),
    ("f1", "h3", "-a", "h2"),
    ("h1", "h2", "D b", "f3"),
    ("h2", "h3", "D c", "f1"),
    ("h3", "h1", "D a", "f2"),
)
BASIS_NAMES = ("f1", "f2", "f3", "h1", "h2", "h3")

# The distinguished basis, one row (name, r, s, kappa) per element in
# BASIS_NAMES order: the element is kappa e_r ^ e_s, with
# u ^ v = (u^T v - v^T u) G and kappa a product of diagonal entries ("" for
# 1).  At the standard basis that is the matrix with kappa g_s at (r, s) and
# -kappa g_r at (s, r).  The rows with r, s <= 3 are the core's basis for
# diag(a, b, c).
WEDGE_ROWS = (
    ("f1", 1, 2, ""),
    ("f2", 2, 3, ""),
    ("f3", 1, 3, ""),
    ("h1", 3, 4, "a b"),
    ("h2", 1, 4, "b c"),
    ("h3", 4, 2, "a c"),
)


def _coefficient(symbol: str, values: dict[str, FieldElement]) -> FieldElement:
    """The product of the entries a symbol names, negated for a leading '-'."""
    coeff = reduce(mul, (values[name] for name in symbol.lstrip("-").split()))
    return -coeff if symbol.startswith("-") else coeff


def current_basis(*entries: FieldElement) -> tuple[Matrix, ...]:
    """The distinguished basis read from WEDGE_ROWS: f1, f2, f3, h1, h2, h3
    of M for diag(a, b, c, d), or f1, f2, f3 of the core for diag(a, b, c).

    Each matrix is verified skew-adjoint for the diagonal Gram matrix.  The
    supports {(r, s), (s, r)} of the rows are disjoint, and every entry is
    a nonzero monomial in the diagonal entries, so each matrix is nonzero
    at entries of its own.  Independence is not checked here:
    `current_algebra` hands the matrices to `algebra_from_matrices`, which
    reads their coordinates at those entries and refuses, with
    NotIndependent, matrices that lack them.
    """
    n = len(entries)
    if n not in (3, 4):
        raise WrongDimension("expected three or four diagonal entries")
    field = _diagonal_field("abcd"[:n], entries)
    values = dict(zip("abcd", entries))
    basis = []
    for _, r, s, kappa in WEDGE_ROWS:
        if r > n or s > n:
            continue
        g_r, g_s = entries[r - 1], entries[s - 1]
        if kappa:
            k = _coefficient(kappa, values)
            g_r, g_s = k * g_r, k * g_s
        rows = [[field.zero()] * n for _ in range(n)]
        rows[r - 1][s - 1], rows[s - 1][r - 1] = g_s, -g_r
        basis.append(Matrix(field, rows))
    _check_skew(basis, Matrix.diagonal(field, list(entries)))
    return tuple(basis)


def current_algebra(entries: Sequence[FieldElement]) -> LieAlgebraSC:
    """M for diag(a, b, c, d) on f1..f3, h1..h3, or the core for
    diag(a, b, c) on f1..f3: `current_basis` as a Lie algebra."""
    basis = current_basis(*entries)
    return algebra_from_matrices(basis[0].field, basis)


def table_rows(a: FieldElement, b: FieldElement, c: FieldElement,
               d: FieldElement) -> tuple[tuple[int, int, int, FieldElement], ...]:
    """TABLE_ROWS for diag(a, b, c, d), each row as (i, j, k, coefficient)
    with [e_i, e_j] = coefficient e_k, indices in BASIS_NAMES order."""
    values = {"a": a, "b": b, "c": c, "d": d, "D": a * b * c * d}
    return tuple(
        tuple(BASIS_NAMES.index(name) for name in (left, right, target))
        + (_coefficient(symbol, values),)
        for left, right, symbol, target in TABLE_ROWS
    )


def paper_table(rows: Sequence[tuple[int, int, int, FieldElement]]) -> Tensor:
    """The constants of `table_rows`: each row gives [e_i, e_j] and, by
    antisymmetry, [e_j, e_i]; every other entry is zero."""
    zero = rows[0][3].field.zero()
    table = [[[zero] * 6 for _ in range(6)] for _ in range(6)]
    for i, j, k, coeff in rows:
        table[i][j][k], table[j][i][k] = coeff, -coeff
    return tuple(tuple(tuple(entry) for entry in row) for row in table)


# ---------------------------------------------------------------------------
# Coefficient algebras and current algebras.
# ---------------------------------------------------------------------------


class CoefficientAlgebra:
    """Commutative associative unital algebra used as tensor coefficients.

    Basis products are given by `table[i][j]`; the unit must be basis
    element 0.  `generator` marks the distinguished element (the residue
    of X in a quotient construction) when one exists.
    """

    __slots__ = ("field", "dim", "table", "generator")

    def __init__(self, field: FieldDescriptor, table: Sequence[Sequence[Sequence[FieldElement]]],
                 generator: Optional[Vector] = None):
        self.field = field
        self.dim = len(table)
        self.table = tuple(tuple(tuple(entry) for entry in row) for row in table)
        self.generator = tuple(generator) if generator is not None else None
        self._check()

    def _check(self) -> None:
        n = self.dim
        if n == 0:
            raise InvalidStructure("coefficient algebra must contain a unit")
        unit = self.unit()
        for i in range(n):
            if self.multiply(unit, self.basis_vector(i)) != self.basis_vector(i):
                raise InvalidStructure("basis element 0 is not a unit")
        for i in range(n):
            for j in range(i + 1, n):
                if self.table[i][j] != self.table[j][i]:
                    raise InvalidStructure("multiplication is not commutative")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self.multiply(self.table[i][j], self.basis_vector(k))
                    right = self.multiply(self.basis_vector(i), self.table[j][k])
                    if left != right:
                        raise InvalidStructure("multiplication is not associative")

    def basis_vector(self, i: int) -> Vector:
        zero, one = self.field.zero(), self.field.one()
        return tuple(one if k == i else zero for k in range(self.dim))

    def unit(self) -> Vector:
        return self.basis_vector(0)

    def multiply(self, u: Sequence[FieldElement], v: Sequence[FieldElement]) -> Vector:
        zero = self.field.zero()
        acc = [zero] * self.dim
        for i, ui in enumerate(u):
            if ui.is_zero():
                continue
            for j, vj in enumerate(v):
                if vj.is_zero():
                    continue
                scale = ui * vj
                for k, coeff in enumerate(self.table[i][j]):
                    if not coeff.is_zero():
                        acc[k] = acc[k] + scale * coeff
        return tuple(acc)

    def __repr__(self) -> str:
        return f"CoefficientAlgebra(dim={self.dim} over {self.field!r})"


def tensor_current(alg: LieAlgebraSC, coeff: CoefficientAlgebra) -> LieAlgebraSC:
    """Current algebra L (x) A with [l (x) a, l' (x) a'] = [l,l'] (x) aa'.

    Basis order is coefficient-major: l_1 (x) a_0, ..., l_n (x) a_0,
    l_1 (x) a_1, ... so that position j * dim(L) + i holds l_i (x) a_j.
    """
    if alg.field != coeff.field:
        raise DescriptorMismatch("algebra and coefficients over different fields")
    nl, na = alg.dim, coeff.dim
    dim = nl * na
    zero = alg.field.zero()
    constants = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(nl):
        for k in range(nl):
            bracket = alg.constants[i][k]
            for j in range(na):
                for m in range(na):
                    prod = coeff.table[j][m]
                    row, col = j * nl + i, m * nl + k
                    entry = constants[row][col]
                    for r, br in enumerate(bracket):
                        if br.is_zero():
                            continue
                        for s, pr in enumerate(prod):
                            if not pr.is_zero():
                                entry[s * nl + r] = entry[s * nl + r] + br * pr
    return LieAlgebraSC(alg.field, dim, constants)


def tables_equal(t1: Tensor, t2: Tensor) -> bool:
    """Exact entrywise equality of two structure constant tensors."""
    if len(t1) != len(t2):
        raise ShapeMismatch("tensors have different dimensions")
    for r1, r2 in zip(t1, t2):
        if len(r1) != len(r2):
            raise ShapeMismatch("tensors have different dimensions")
        for e1, e2 in zip(r1, r2):
            if len(e1) != len(e2):
                raise ShapeMismatch("tensors have different dimensions")
            if e1 != e2:
                return False
    return True
