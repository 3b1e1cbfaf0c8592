"""Structure-constant Lie algebras built from bilinear forms.

The central object is `LieAlgebraSC`: a finite-dimensional Lie algebra
given by its brackets [e_i, e_j], i < j, optionally carrying a faithful
matrix realization.  Its table c[i][j][k] is antisymmetric by
construction, so [x,x] = 0 holds in every characteristic without a check;
construction checks the Jacobi identity on all basis triples and the
agreement of the bracket with matrix commutators whenever a realization
is present.  Exactly two builders make algebras: `algebra_from_matrices`
(M and the core, through `current_algebra`) and `tensor_current` (current
algebras over F[X]/(X^n - s)).

`prove_identity` proves, over Z[a, b, c, d] and so for every field and
every diagonal at once, that the distinguished basis of WEDGE_ROWS has
the table of TABLE_ROWS and spans [L, L].

Bases of skew-adjoint endomorphisms are produced by solving the linear
system x^T G + G x = 0.  For a 4-dimensional nondegenerate form the
distinguished basis f1, f2, f3, h1, h2, h3 of the derived algebra aligns
it positionally with (3-dimensional core) tensor (quadratic quotient),
which is what the verification and classification layers exploit.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul, sub
from typing import Mapping, Optional, Sequence

from .exact_linalg import (
    Matrix,
    ShapeMismatch,
    Subspace,
    canonicalize_subspace,
    commutators,
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
    """Brackets that are malformed, break the Jacobi identity or disagree
    with their realization."""


Vector = tuple[FieldElement, ...]
Tensor = tuple[tuple[Vector, ...], ...]


def _sparse(vec: Vector) -> tuple[tuple[int, FieldElement], ...]:
    return tuple((k, x) for k, x in enumerate(vec) if not x.is_zero())


class LieAlgebraSC:
    """Lie algebra over an exact field given by its brackets.

    `brackets` maps each pair (i, j), i < j, to the coordinate vector of
    [e_i, e_j], keyed as `exact_linalg.commutators` keys its output; a pair
    left out brackets to zero.  `constants[i][j]` is the full table: zero
    on the diagonal and -[e_i, e_j] at (j, i), so it is antisymmetric by
    construction, and [x, x] = sum x_i^2 [e_i, e_i] + sum_{i<j} x_i x_j
    ([e_i, e_j] + [e_j, e_i]) vanishes in every characteristic.
    `realization`, when given, is one matrix per basis element whose
    commutators must reproduce the brackets exactly.  `commutators`, when
    given, holds those commutators flattened (as `exact_linalg.commutators`
    returns them) so a caller that already computed them does not pay
    twice; the check itself always runs.
    """

    __slots__ = ("field", "dim", "constants", "realization", "_sparse_rows")

    def __init__(self, field: FieldDescriptor, dim: int,
                 brackets: Mapping[tuple[int, int], Sequence[FieldElement]],
                 realization: Optional[Sequence[Matrix]] = None,
                 commutators: Optional[dict[tuple[int, int], Vector]] = None):
        self.field = field
        self.dim = dim
        zero_vec = (field.zero(),) * dim
        table = [[zero_vec] * dim for _ in range(dim)]
        for (i, j), vec in brackets.items():
            if not 0 <= i < j < dim:
                raise InvalidStructure(f"bracket key ({i}, {j}) is not a pair i < j below {dim}")
            vec = tuple(vec)
            if len(vec) != dim:
                raise InvalidStructure(f"[e{i}, e{j}] has {len(vec)} coordinates, not {dim}")
            table[i][j] = vec
            table[j][i] = tuple(-x for x in vec)
        self.constants: Tensor = tuple(tuple(row) for row in table)
        self.realization = tuple(realization) if realization is not None else None
        self._sparse_rows = tuple(tuple(_sparse(entry) for entry in row) for row in self.constants)
        self._check_jacobi()
        if self.realization is not None:
            self._check_realization(commutators)

    # -- construction-time invariants ----------------------------------

    def _check_jacobi(self) -> None:
        # The table is antisymmetric, so triples with repeats are automatic
        # and the Jacobi sum is permutation-stable: i < j < k suffices.
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
    brackets = {
        pair: tuple(
            comm[p] if scale is None or comm[p].is_zero() else comm[p] * scale
            for p, scale in reads
        )
        for pair, comm in comms.items()
    }
    return LieAlgebraSC(field, len(mats), brackets, realization=mats, commutators=comms)


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
    """[L, L] as a subspace of L's coordinates: the span of the brackets
    [e_i, e_j], i < j, which are the rows c[i][j] of the constants."""
    n = alg.dim
    return canonicalize_subspace(
        alg.field, (alg.constants[i][j] for i in range(n) for j in range(i + 1, n)), n)


def quotient_is_perfect(alg: LieAlgebraSC, ideal: Subspace) -> bool:
    """Whether L/I is perfect, for I an ideal of L, without building L/I:
    [L/I, L/I] = ([L, L] + I)/I, so L/I is perfect exactly when
    [L, L] + I = L."""
    join = canonicalize_subspace(
        alg.field, derived_subspace(alg).basis.rows + ideal.basis.rows, alg.dim)
    return join.dim == alg.dim


def is_ideal(alg: LieAlgebraSC, space: Subspace) -> bool:
    return all(
        space.contains(alg.bracket(alg.basis_vector(i), row))
        for i in range(alg.dim)
        for row in space.basis.rows
    )


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


def _wedge_entries(entries: Sequence) -> list[tuple[int, int, object, object]]:
    """The two entries of each WEDGE_ROWS element that fits diag(entries),
    as (r, s, kappa g_s, -kappa g_r) with 0-based r and s: kappa g_s at
    (r, s) and -kappa g_r at (s, r).  The entries may be field elements or
    the symbols a, b, c, d over Z; only * and unary - are used."""
    n = len(entries)
    values = dict(zip("abcd", entries))
    out = []
    for _, r, s, kappa in WEDGE_ROWS:
        if r > n or s > n:
            continue
        g_r, g_s = entries[r - 1], entries[s - 1]
        if kappa:
            k = _coefficient(kappa, values)
            g_r, g_s = k * g_r, k * g_s
        out.append((r - 1, s - 1, g_s, -g_r))
    return out


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
    basis = []
    for r, s, x, y in _wedge_entries(entries):
        rows = [[field.zero()] * n for _ in range(n)]
        rows[r][s], rows[s][r] = x, y
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
    with [e_i, e_j] = coefficient e_k, indices in BASIS_NAMES order.  The
    entries may also be the symbols of `prove_identity`."""
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
# The table and the span of M, proved over Z[a, b, c, d].
# ---------------------------------------------------------------------------


class IntPoly(dict):
    """A polynomial over Z in a, b, c, d: a dict from exponent tuples to
    nonzero ints.  An identity between these holds in every commutative
    ring, so over every field and at every diagonal."""

    def __add__(self, other: IntPoly) -> IntPoly:
        out = IntPoly(self)
        for e, x in other.items():
            x += out.get(e, 0)
            if x:
                out[e] = x
            else:
                del out[e]
        return out

    def __neg__(self) -> IntPoly:
        return IntPoly((e, -x) for e, x in self.items())

    def __sub__(self, other: IntPoly) -> IntPoly:
        return self + -other

    def __mul__(self, other: IntPoly) -> IntPoly:
        out = IntPoly()
        for e, x in self.items():
            for f, y in other.items():
                g = tuple(map(add, e, f))
                z = out.get(g, 0) + x * y
                if z:
                    out[g] = z
                else:
                    del out[g]
        return out


SYMBOLS = tuple(IntPoly({tuple(int(i == k) for i in range(4)): 1}) for k in range(4))


def _unit_monomial(x: IntPoly) -> bool:
    """Whether x is +-1 times a monomial, nonzero wherever abcd is."""
    return len(x) == 1 and abs(next(iter(x.values()))) == 1


def _quotient(x: IntPoly, m: IntPoly) -> Optional[IntPoly]:
    """x / m for a unit monomial m, or None unless m is one and divides
    every term of x with no negative exponent left."""
    if not _unit_monomial(m):
        return None
    ((e, unit),) = m.items()
    out = IntPoly()
    for f, x_f in x.items():
        g = tuple(map(sub, f, e))
        if min(g) < 0:
            return None
        out[g] = x_f * unit
    return out


def _commutator(x: dict, y: dict) -> dict:
    """xy - yx for matrices stored as {(row, column): IntPoly}, with zero
    entries left out."""
    out: dict = {}
    for left, right, sign in ((x, y, IntPoly.__add__), (y, x, IntPoly.__sub__)):
        for (p, k), u in left.items():
            for (l, q), v in right.items():
                if k == l:
                    out[p, q] = sign(out.get((p, q), IntPoly()), u * v)
    return {pos: z for pos, z in out.items() if z}


def _alternating(m: dict) -> bool:
    """Whether G m, for G = diag(a, b, c, d), is alternating with unit
    monomial entries: none on the diagonal, and -(G m)[p, q] at (q, p)."""
    gm = {(p, q): SYMBOLS[p] * x for (p, q), x in m.items()}
    return all(p != q and _unit_monomial(x) and gm.get((q, p)) == -x
               for (p, q), x in gm.items())


def prove_identity() -> tuple[bool, bool]:
    """(table, span): the paper's identity for M, proved over Z[a, b, c, d]
    from WEDGE_ROWS and TABLE_ROWS as they stand, for every field and every
    diagonal with abcd != 0.

    The six matrices m_k of `current_basis`'s rule, at the symbols, must
    have supports that are six distinct pairs {r, s}, so each is alone at
    its entry (r, s).  Each of the 15 commutators [m_i, m_j] is read at
    those entries, c_k = [m_i, m_j][r_k, s_k] / m_k[r_k, s_k] by exact
    monomial division, and must equal sum_k c_k m_k on all 16 entries.
    - table: the c_k are TABLE_ROWS at (a, b, c, d), with D = abcd.
    - span: each G m_k is alternating, so the m_k span G^-1 Alt, which
      holds [L, L] in every characteristic (docs/DESIGN.md); and each m_k
      is a unit monomial times some [m_i, m_j], so [L, L] holds them.
    """
    mats = [{(r, s): x, (s, r): y} for r, s, x, y in _wedge_entries(SYMBOLS)]
    if not (len(mats) == 6 and all(len(m) == 2 for m in mats)
            and len({frozenset(m) for m in mats}) == 6):
        return False, False
    owns = [next(iter(m)) for m in mats]
    coords = {}
    for i in range(6):
        for j in range(i + 1, 6):
            comm = _commutator(mats[i], mats[j])
            c = {k: _quotient(comm[own], mats[k][own])
                 for k, own in enumerate(owns) if own in comm}
            if None in c.values():
                return False, False
            if {pos: ck * x for k, ck in c.items() for pos, x in mats[k].items()} != comm:
                return False, False
            if c:
                coords[i, j] = c
    expected: dict = {}
    for i, j, k, coeff in table_rows(*SYMBOLS):
        if i > j:
            i, j, coeff = j, i, -coeff
        expected.setdefault((i, j), {})[k] = coeff
    targets = {k for c in coords.values() if len(c) == 1
               for k, ck in c.items() if _unit_monomial(ck)}
    return coords == expected, all(map(_alternating, mats)) and targets == set(range(6))


# ---------------------------------------------------------------------------
# Current algebras over F[X]/(X^n - s).
# ---------------------------------------------------------------------------


def quotient_product(u: Sequence[FieldElement], v: Sequence[FieldElement],
                     s: FieldElement) -> Vector:
    """The product in F[X]/(X^n - s), n = len(u), on the basis 1, x, ...,
    x^(n-1): x^i x^j is x^(i+j), or s x^(i+j-n) past the top."""
    n = len(u)
    if len(v) != n:
        raise ShapeMismatch("factors have different lengths")
    acc = [s.field.zero()] * n
    for i, ui in enumerate(u):
        if ui.is_zero():
            continue
        for j, vj in enumerate(v):
            if vj.is_zero():
                continue
            term = ui * vj
            k = i + j
            if k >= n:
                k -= n
                term = term * s
            acc[k] = acc[k] + term
    return tuple(acc)


def tensor_current(alg: LieAlgebraSC, s: FieldElement, n: int) -> LieAlgebraSC:
    """Current algebra L (x) F[X]/(X^n - s) with [l (x) a, l' (x) a'] =
    [l,l'] (x) aa'.

    Basis order is coefficient-major: l_1 (x) 1, ..., l_m (x) 1,
    l_1 (x) x, ... so that position j * dim(L) + i holds l_i (x) x^j.
    """
    if alg.field != s.field:
        raise DescriptorMismatch("algebra and coefficients over different fields")
    nl = alg.dim
    dim = nl * n
    zero, one = alg.field.zero(), alg.field.one()
    basis = [tuple(one if k == j else zero for k in range(n)) for j in range(n)]
    products = [[quotient_product(u, v, s) for v in basis] for u in basis]
    brackets = {}
    for a in range(dim):
        j, i = divmod(a, nl)
        for b in range(a + 1, dim):
            m, k = divmod(b, nl)
            entry = [zero] * dim
            for r, br in alg._sparse_rows[i][k]:
                for t, pt in enumerate(products[j][m]):
                    if not pt.is_zero():
                        entry[t * nl + r] = entry[t * nl + r] + br * pt
            brackets[(a, b)] = entry
    return LieAlgebraSC(alg.field, dim, brackets)
