"""Structure-constant Lie algebras built from bilinear forms.

The central object is `LieAlgebraSC`: a finite-dimensional Lie algebra
given only by its brackets [e_i, e_j], i < j, its one table.  [e_j, e_i]
is their negation and [e_i, e_i] is zero by construction, so [x,x] = 0
holds in every characteristic without a check.  The constructor does not
check the Jacobi identity.
Exactly two builders make algebras, and each yields a Lie algebra by a
fact proved or tested elsewhere: `algebra_from_matrices` (M and the core,
from `current_basis`) reads brackets that `coordinates` proves equal to
the commutators of independent matrices on every entry, and
`tensor_current` tensors a Lie algebra with F[X]/(X^n - s), whose ring
laws a property test holds.  A `LieAlgebraSC` built directly accepts a
table that breaks Jacobi.

A matrix is a sparse dict {(row, col): entry}, as `current_basis` returns
and `algebra_from_matrices` takes it.  Three rules on such matrices are
stated once, generic in the scalar: `exact_linalg.commutator`,
`coordinates` (the coordinates of each commutator, read at the matrices'
own entries and proved on every entry) and `_alternating` (G m
alternating for a diagonal G).  The engine runs them over field elements,
in `algebra_from_matrices` and `current_basis`.  `prove_identity` runs
the same rules over Z[a, b, c, d], and so proves for every field and
every diagonal at once that the distinguished basis of WEDGE_ROWS has the
table of TABLE_ROWS and spans [L, L].  `table_brackets` reads TABLE_ROWS
as brackets, for that proof and for the `table` command alike.

`skew_adjoint_algebra` returns the solution space of x^T G + G x = 0,
each x flattened row by row.  For a 4-dimensional nondegenerate form the
distinguished basis f1, f2, f3, h1, h2, h3 of the derived algebra aligns
it positionally with (3-dimensional core) tensor (quadratic quotient),
which is what the verification and classification layers exploit.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import add, mul, sub
from typing import Mapping, Sequence

from .exact_linalg import (
    ShapeMismatch,
    Subspace,
    canonicalize_subspace,
    commutator,
    kernel,
)
from .forms import AlternatingChar2, BilinearForm, Degenerate
from .scalars import DescriptorMismatch, FieldDescriptor, FieldElement


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
    """Brackets that are malformed, or that disagree with the commutators
    of the matrices they are read from.  The Jacobi identity is not
    checked: the two builders yield Lie algebras by construction."""


Vector = tuple[FieldElement, ...]


class LieAlgebraSC:
    """Lie algebra over an exact field given by its brackets.

    `brackets` maps each pair (i, j), i < j, to the coordinates of [e_i,
    e_j] as `coordinates` returns them, {k: c_k}; a pair left out brackets
    to zero.  Only this shape is checked, not the Jacobi identity, so a
    table given here directly may break it; the two builders yield Lie
    algebras by construction.  The algebra keeps them canonical, with zero
    brackets and zero coordinates left out and each k increasing, so two
    algebras are equal exactly when their fields, dimensions and brackets
    are.  [e_j, e_i] is -[e_i, e_j] and [e_i, e_i] is zero by construction,
    so [x, x] = sum x_i^2 [e_i, e_i] + sum_{i<j} x_i x_j ([e_i, e_j] +
    [e_j, e_i]) vanishes in every characteristic.
    """

    __slots__ = ("field", "dim", "brackets")

    def __init__(self, field: FieldDescriptor, dim: int,
                 brackets: Mapping[tuple[int, int], Mapping[int, FieldElement]]):
        self.field = field
        self.dim = dim
        self.brackets: dict[tuple[int, int], dict[int, FieldElement]] = {}
        for (i, j), coords in brackets.items():
            if not 0 <= i < j < dim:
                raise InvalidStructure(f"bracket key ({i}, {j}) is not a pair i < j below {dim}")
            if not all(k in range(dim) for k in coords):
                raise InvalidStructure(f"[e{i}, e{j}] has a coordinate index outside range({dim})")
            row = {k: coords[k] for k in sorted(coords) if coords[k]}
            if row:
                self.brackets[i, j] = row

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LieAlgebraSC) and self.field == other.field
                and self.dim == other.dim and self.brackets == other.brackets)

    # -- basic operations ----------------------------------------------

    def ad(self, i: int, v: Mapping[int, FieldElement]) -> dict[int, FieldElement]:
        """[e_i, v] for a sparse coordinate vector v, {j: v_j} with zero
        coordinates left out, in the same form: sum_j v_j [e_i, e_j], with
        the brackets read at v's nonzero coordinates only."""
        acc: dict[int, FieldElement] = {}
        for j, x in v.items():
            row = self.brackets.get((i, j) if i < j else (j, i))
            if row is None:
                continue
            if j < i:  # [e_i, e_j] = -[e_j, e_i]
                x = -x
            for k, c in row.items():
                t = x * c
                acc[k] = acc[k] + t if k in acc else t
        return {k: z for k, z in acc.items() if z}

    def bracket(self, u: Mapping[int, FieldElement],
                v: Mapping[int, FieldElement]) -> dict[int, FieldElement]:
        """[u, v] = sum_i u_i [e_i, v] for sparse coordinate vectors, in
        the same form, over u's nonzero coordinates."""
        acc: dict[int, FieldElement] = {}
        for i, x in u.items():
            for k, y in self.ad(i, v).items():
                t = x * y
                acc[k] = acc[k] + t if k in acc else t
        return {k: z for k, z in acc.items() if z}

    def __repr__(self) -> str:
        return f"LieAlgebraSC(dim={self.dim} over {self.field!r})"


# ---------------------------------------------------------------------------
# Skew-adjoint algebras.
# ---------------------------------------------------------------------------


def skew_adjoint_algebra(form: BilinearForm) -> Subspace:
    """All endomorphisms x with x^T G + G x = 0, as the solution space of
    the n^2 x n^2 linear system: each vector is an x flattened row by row,
    x[r][c] at r n + c, and the basis is the canonical echelon one.  For a
    4-dimensional form the dimension is 6 in characteristic != 2 and 10 in
    characteristic 2.

    Equation (i, j) reads x[k][i] with coefficient g[k][j] (from x^T G)
    and x[k][j] with g[i][k] (from G x), so it is written from G's nonzero
    entries only: two for a diagonal G.
    """
    if not form.nondegenerate:
        raise Degenerate("skew-adjoint algebra requires a nondegenerate form")
    field = form.field
    if field.characteristic() == 2 and form.alternating and form.dim > 0:
        raise AlternatingChar2("alternating form in characteristic 2")
    n = form.dim
    rows = [[(k, x) for k, x in enumerate(row) if x] for row in form.gram.rows]
    cols = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*form.gram.rows)]
    equations = []
    for i in range(n):
        for j in range(n):
            terms = [(k * n + i, x) for k, x in cols[j]] + [(k * n + j, x) for k, x in rows[i]]
            equation: dict = {}
            for pos, x in terms:
                equation[pos] = equation[pos] + x if pos in equation else x
            equations.append(equation)
    return kernel(field, equations, n * n)


def coordinates(mats: Sequence[dict]) -> dict[tuple[int, int], dict]:
    """The coordinates of each commutator [m_i, m_j], i < j, in the span of
    the sparse matrices m_k, as {(i, j): {k: c_k}} with zero c_k left out.

    Generic in the scalar, like `exact_linalg.commutator`, with division by
    an own entry besides.  Each m_k must have an entry of its own: a
    position p_k where it alone is nonzero, the first in its order serving.
    A combination sum_k c_k m_k reads c_k m_k[p_k] there, so the m_k are
    independent, and the coordinates of a commutator in their span are
    c_k = [m_i, m_j][p_k] / m_k[p_k].  sum_k c_k m_k is then compared with
    [m_i, m_j] on every entry, which proves those coordinates and refuses a
    commutator that escapes the span.  Raises NotIndependent when a matrix
    has no entry of its own, as happens in every dependent set, and
    InvalidStructure when a commutator is not the combination read.
    """
    owners = Counter(pos for m in mats for pos in m)
    own = []
    for k, m in enumerate(mats):
        p = next((pos for pos in m if owners[pos] == 1), None)
        if p is None:
            raise NotIndependent(f"matrix {k} has no nonzero entry of its own")
        own.append(p)
    out = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = commutator(mats[i], mats[j])
            c = {k: comm[p] / mats[k][p] for k, p in enumerate(own) if p in comm}
            combination: dict = {}
            for k, ck in c.items():
                for pos, x in mats[k].items():
                    term = ck * x
                    combination[pos] = combination[pos] + term if pos in combination else term
            if {pos: z for pos, z in combination.items() if z} != comm:
                raise InvalidStructure(f"commutator of realization matrices {i},{j} disagrees")
            out[i, j] = c
    return out


def algebra_from_matrices(field: FieldDescriptor, mats: Sequence[dict]) -> LieAlgebraSC:
    """Lie algebra spanned by commutator-closed sparse matrices over the
    field, each of which has an entry of its own, with its brackets read
    and proved by `coordinates`; the distinguished bases have disjoint
    supports, and an echelon basis has its pivots."""
    return LieAlgebraSC(field, len(mats), coordinates(mats))


# ---------------------------------------------------------------------------
# Derived series and ideals.
# ---------------------------------------------------------------------------


def bracket_span(alg: LieAlgebraSC, space: Subspace) -> Subspace:
    """Span of all brackets of pairs from the subspace's echelon rows."""
    rows = space.rows
    vectors = [alg.bracket(u, v) for a, u in enumerate(rows) for v in rows[a + 1:]]
    return canonicalize_subspace(alg.field, vectors, alg.dim)


def derived_series_of_subspace(alg: LieAlgebraSC, space: Subspace,
                               steps: int) -> list[Subspace]:
    """Chain S > [S,S] > ... inside the ambient algebra, for at most
    `steps` brackets, until a bracket does not shrink."""
    series = [space]
    for _ in range(steps):
        nxt = bracket_span(alg, series[-1])
        if nxt.dim >= series[-1].dim:
            break
        series.append(nxt)
    return series


def derived_subspace(alg: LieAlgebraSC) -> Subspace:
    """[L, L] as a subspace of L's coordinates: the span of the nonzero
    brackets [e_i, e_j], i < j."""
    return canonicalize_subspace(alg.field, alg.brackets.values(), alg.dim)


def is_ideal(alg: LieAlgebraSC, space: Subspace) -> bool:
    """Whether [e_i, v] lies in the space for every basis vector e_i and
    every echelon row v of it."""
    return all(space.contains(alg.ad(i, row)) for i in range(alg.dim) for row in space.rows)


# ---------------------------------------------------------------------------
# The distinguished basis of M and of the core, and the paper's table.
# ---------------------------------------------------------------------------


def _check_diagonal(names: str, entries: Sequence[FieldElement]) -> None:
    """Raises unless the diagonal entries are nonzero and in one field."""
    field = entries[0].field
    for name, x in zip(names, entries):
        if x.field != field:
            raise DescriptorMismatch("diagonal entries live in different fields")
        if x.is_zero():
            raise ZeroEntry(f"diagonal entry {name} must be nonzero")


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


def _wedges(entries: Sequence) -> list[dict]:
    """The WEDGE_ROWS elements that fit diag(entries), as sparse matrices
    {(r, s): kappa g_s, (s, r): -kappa g_r} with 0-based r and s.  The
    entries may be field elements or the symbols a, b, c, d over Z; only *
    and unary - are used."""
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
        out.append({(r - 1, s - 1): g_s, (s - 1, r - 1): -g_r})
    return out


def _alternating(m: dict, diagonal: Sequence) -> bool:
    """Whether G m, for G = diag(diagonal) with nonzero entries and m a
    sparse matrix, is alternating: nothing on the diagonal, and
    -(G m)[p, q] at (q, p).  Generic in the scalar, like `coordinates`.
    In characteristic 2 this is stricter than x^T G + G x = 0, which
    allows a diagonal; the wedges have none."""
    gm = {(p, q): diagonal[p] * x for (p, q), x in m.items()}
    return all(p != q and gm.get((q, p)) == -x for (p, q), x in gm.items())


def current_basis(*entries: FieldElement) -> list[dict]:
    """The distinguished basis read from WEDGE_ROWS, as the sparse matrices
    of `_wedges`: f1, f2, f3, h1, h2, h3 of M for diag(a, b, c, d), or f1,
    f2, f3 of the core for diag(a, b, c).

    Each matrix is verified skew-adjoint for the diagonal Gram matrix, by
    `_alternating`.  The supports {(r, s), (s, r)} of the rows are
    disjoint, and every entry is a nonzero monomial in the diagonal
    entries, so each matrix is nonzero at entries of its own.
    Independence is not checked here: `algebra_from_matrices` reads the
    matrices at those entries and refuses, with NotIndependent, matrices
    that lack them.
    """
    n = len(entries)
    if n not in (3, 4):
        raise WrongDimension("expected three or four diagonal entries")
    _check_diagonal("abcd"[:n], entries)
    wedges = _wedges(entries)
    if not all(_alternating(m, entries) for m in wedges):
        raise InvalidStructure("basis matrix is not skew-adjoint")
    return wedges


def current_algebra(entries: Sequence[FieldElement]) -> LieAlgebraSC:
    """M for diag(a, b, c, d) on f1..f3, h1..h3, or the core for
    diag(a, b, c) on f1..f3: `current_basis` as a Lie algebra."""
    basis = current_basis(*entries)
    return algebra_from_matrices(entries[0].field, basis)


def table_brackets(a, b, c, d) -> dict:
    """TABLE_ROWS for diag(a, b, c, d) as brackets {(i, j): {k: c_k}},
    i < j, indices in BASIS_NAMES order: a row [e_j, e_i] = c e_k is read
    as [e_i, e_j] = -c e_k.  The entries may be field elements or the
    symbols of `prove_identity`."""
    values = {"a": a, "b": b, "c": c, "d": d, "D": a * b * c * d}
    out: dict = {}
    for left, right, symbol, target in TABLE_ROWS:
        i, j, k = (BASIS_NAMES.index(name) for name in (left, right, target))
        coeff = _coefficient(symbol, values)
        if i > j:
            i, j, coeff = j, i, -coeff
        out.setdefault((i, j), {})[k] = coeff
    return out


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

    def __truediv__(self, other: IntPoly) -> IntPoly:
        """Exact division by a unit monomial that leaves no negative
        exponent; any other division raises ArithmeticError."""
        if not _unit_monomial(other):
            raise ArithmeticError("divisor is not +-1 times a monomial")
        ((e, unit),) = other.items()
        out = IntPoly()
        for f, x in self.items():
            g = tuple(map(sub, f, e))
            if min(g) < 0:
                raise ArithmeticError("quotient has a negative exponent")
            out[g] = x * unit
        return out

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


def prove_identity() -> tuple[bool, bool]:
    """(table, span): the paper's identity for M, proved over Z[a, b, c, d]
    from WEDGE_ROWS and TABLE_ROWS as they stand, for every field and every
    diagonal with abcd != 0.

    The six matrices m_k of `current_basis`'s rule, at the symbols, must
    have supports that are six distinct pairs {r, s}, so each is alone at
    its entries.  `coordinates`, the engine's own reading, then reads each
    of the 15 commutators [m_i, m_j] at those entries by exact monomial
    division (`IntPoly.__truediv__`) and proves sum_k c_k m_k = [m_i, m_j]
    on all 16 entries; a division or a comparison that fails fails both.
    - table: the c_k are TABLE_ROWS at (a, b, c, d), with D = abcd.
    - span: each G m_k is alternating (`_alternating`), so the m_k span
      G^-1 Alt, which holds [L, L] in every characteristic
      (docs/DESIGN.md); and each m_k is a unit monomial times some
      [m_i, m_j], so [L, L] holds them.  Its own entry was then a divisor,
      so a unit monomial, and alternation makes its other entry one too:
      the m_k are nonzero wherever abcd is.
    """
    mats = _wedges(SYMBOLS)
    if not (len(mats) == 6 and all(len(m) == 2 for m in mats)
            and len({frozenset(m) for m in mats}) == 6):
        return False, False
    try:
        coords = {pair: c for pair, c in coordinates(mats).items() if c}
    except (ArithmeticError, NotIndependent, InvalidStructure):
        return False, False
    targets = {k for c in coords.values() if len(c) == 1
               for k, ck in c.items() if _unit_monomial(ck)}
    span = all(_alternating(m, SYMBOLS) for m in mats) and targets == set(range(6))
    return coords == table_brackets(*SYMBOLS), span


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
    products = [[[(t, pt) for t, pt in enumerate(quotient_product(u, v, s)) if pt]
                 for v in basis] for u in basis]
    # [l_i, l_k] for every ordered pair, read from the brackets i < k.
    table = {}
    for (i, k), row in alg.brackets.items():
        table[i, k] = row
        table[k, i] = {r: -x for r, x in row.items()}
    brackets = {}
    for a in range(dim):
        j, i = divmod(a, nl)
        for b in range(a + 1, dim):
            m, k = divmod(b, nl)
            # [l_i (x) x^j, l_k (x) x^m] = [l_i, l_k] (x) x^j x^m: each
            # (r, t) is a distinct coordinate t * nl + r.
            brackets[a, b] = {t * nl + r: br * pt
                              for r, br in table.get((i, k), {}).items()
                              for t, pt in products[j][m]}
    return LieAlgebraSC(alg.field, dim, brackets)
