"""Structure-constant Lie algebras built from bilinear forms.

The central object is `LieAlgebraSC`: a finite-dimensional Lie algebra
given only by its brackets [e_i, e_j], i < j, its one table.  [e_j, e_i]
is their negation and [e_i, e_i] is zero by construction, so [x,x] = 0
holds in every characteristic without a check.  The constructor does not
check the Jacobi identity, so a table given to it directly may break it.
Three builders make algebras, each with its own argument: M or the core
evaluated from the table that `prove_identity` proves to be the wedges'
(`evaluated_algebra`, which every command but the oracle takes), a
current algebra (`tensor_current`, over F[X]/(X^n - s), whose ring laws
a property test holds), and sparse matrices (`algebra_from_matrices`,
whose `coordinates` proves the brackets on every entry; no command).

The engine's rules are stated once, generic in the scalar:
`exact_linalg.commutator`, `coordinates`, `_alternating` (G m
alternating for a diagonal G), `_skew_equations` (x^T G + G x = 0) and
`_current_brackets` (tensor_current's rule).  `prove_identity` runs them
over Z[a, b, c, d], once per process, and so proves for every field and
every diagonal the facts that the documents evaluate: WEDGE_ROWS's basis
has the table of TABLE_ROWS and spans [L, L], TABLE_ROWS is core (x)
F[X]/(X^2 - D), the core's basis spans its [L, L], and dim L.
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


class NotIndependent(ValueError):
    """The proposed basis vectors are not shown independent: one of them has
    no nonzero entry of its own, as in every dependent set."""


class ZeroEntry(ValueError):
    """A diagonal entry that must be nonzero is zero."""


class WrongDimension(ValueError):
    """The operation is only defined in a specific dimension."""


class InvalidStructure(ValueError):
    """Brackets that are malformed, or that disagree with the commutators
    of the matrices they are read from."""


Vector = tuple[FieldElement, ...]


class LieAlgebraSC:
    """Lie algebra over an exact field given by its brackets.

    `brackets` maps each pair (i, j), i < j, to the coordinates of [e_i,
    e_j] as `coordinates` returns them, {k: c_k}; a pair left out brackets
    to zero.  Only this shape is checked, not the Jacobi identity, so a
    table given here directly may break it; the builders yield Lie
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
    """All endomorphisms x with x^T G + G x = 0, the kernel of
    `_skew_equations`: each vector is an x flattened row by row, x[r][c] at
    r n + c, and the basis is the canonical echelon one."""
    if not form.nondegenerate:
        raise Degenerate("skew-adjoint algebra requires a nondegenerate form")
    field = form.field
    if field.characteristic() == 2 and form.alternating and form.dim > 0:
        raise AlternatingChar2("alternating form in characteristic 2")
    n = form.dim
    return kernel(field, _skew_equations(form.gram), n * n)


def _skew_equations(gram: Sequence[Mapping]) -> list[dict]:
    """The n^2 equations of x^T G + G x = 0, as {r n + c: coefficient of
    x[r][c]}, for a symmetric G given by its sparse rows {k: g_ik}, zero
    entries left out, generic in the scalar.  Equation (i, j) reads x[k][i]
    with coefficient g[k][j] = g[j][k] (from x^T G) and x[k][j] with
    g[i][k] (from G x), so it is written from G's nonzero entries only:
    two for a diagonal G."""
    n = len(gram)
    equations = []
    for i in range(n):
        for j in range(n):
            terms = ([(k * n + i, x) for k, x in gram[j].items()]
                     + [(k * n + j, x) for k, x in gram[i].items()])
            equation: dict = {}
            for pos, x in terms:
                equation[pos] = equation[pos] + x if pos in equation else x
            equations.append(equation)
    return equations


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
    supports, and an echelon basis has its pivots.  No command calls it."""
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


def _check_diagonal(entries: Sequence[FieldElement]) -> int:
    """The number n of diagonal entries; raises unless n is 3 or 4 and the
    entries are nonzero and in one field."""
    n = len(entries)
    if n not in (3, 4):
        raise WrongDimension("expected three or four diagonal entries")
    field = entries[0].field
    for name, x in zip("abcd", entries):
        if x.field != field:
            raise DescriptorMismatch("diagonal entries live in different fields")
        if x.is_zero():
            raise ZeroEntry(f"diagonal entry {name} must be nonzero")
    return n


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


def evaluated_algebra(entries: Sequence[FieldElement]) -> LieAlgebraSC:
    """M for diag(a, b, c, d), or the core for diag(a, b, c), evaluated from
    `table_brackets` (the core on the pairs within f1..f3, at d = 1).
    Evaluation is a ring map from Z[a, b, c, d], so by `prove_identity`
    this is the wedges' table, and the core's, free of d, within f1..f3."""
    n = _check_diagonal(entries)
    field, dim = entries[0].field, n * (n - 1) // 2
    brackets = table_brackets(*entries, *[field.one()] * (4 - n))
    return LieAlgebraSC(field, dim, {pair: c for pair, c in brackets.items() if pair[1] < dim})


def discriminant(a, b, c, d):
    """D = abcd for diag(a, b, c, d), generic in the scalar: field elements
    or the symbols of `prove_identity`."""
    return a * b * c * d


def table_brackets(a, b, c, d) -> dict:
    """TABLE_ROWS for diag(a, b, c, d) as brackets {(i, j): {k: c_k}},
    i < j, indices in BASIS_NAMES order: a row [e_j, e_i] = c e_k is read
    as [e_i, e_j] = -c e_k.  The entries may be field elements or the
    symbols of `prove_identity`."""
    values = {"a": a, "b": b, "c": c, "d": d, "D": discriminant(a, b, c, d)}
    out: dict = {}
    for left, right, symbol, target in TABLE_ROWS:
        i, j, k = (BASIS_NAMES.index(name) for name in (left, right, target))
        coeff = _coefficient(symbol, values)
        if i > j:
            i, j, coeff = j, i, -coeff
        out.setdefault((i, j), {})[k] = coeff
    return out


# ---------------------------------------------------------------------------
# Current algebras over F[X]/(X^n - s).
# ---------------------------------------------------------------------------


def quotient_product(u: Sequence, v: Sequence, s) -> tuple:
    """The product in R[X]/(X^n - s), n = len(u), on the basis 1, x, ...,
    x^(n-1): x^i x^j is x^(i+j), or s x^(i+j-n) past the top.  Generic in
    the scalar, like `coordinates`: over a field, or over Z[a, b, c, d]."""
    n = len(u)
    if len(v) != n:
        raise ShapeMismatch("factors have different lengths")
    acc = [s - s] * n
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            term = ui * vj
            k = i + j
            if k >= n:
                k -= n
                term = term * s
            acc[k] = acc[k] + term
    return tuple(acc)


def _current_brackets(brackets: Mapping, nl: int, s, n: int, one) -> dict:
    """The nonzero brackets of L (x) R[X]/(X^n - s) in `tensor_current`'s
    basis order, for L of dimension nl with the given brackets and `one`
    the unit of R.  Generic in the scalar, like `quotient_product`."""
    zero = one - one
    basis = [tuple(one if k == j else zero for k in range(n)) for j in range(n)]
    products = [[[(t, pt) for t, pt in enumerate(quotient_product(u, v, s)) if pt]
                 for v in basis] for u in basis]
    # [l_i, l_k] for every ordered pair, read from the brackets i < k.
    table = {}
    for (i, k), row in brackets.items():
        table[i, k] = row
        table[k, i] = {r: -x for r, x in row.items()}
    out = {}
    for a in range(nl * n):
        j, i = divmod(a, nl)
        for b in range(a + 1, nl * n):
            m, k = divmod(b, nl)
            # [l_i (x) x^j, l_k (x) x^m] = [l_i, l_k] (x) x^j x^m: each
            # (r, t) is a distinct coordinate t * nl + r.
            row = {t * nl + r: br * pt for r, br in table.get((i, k), {}).items()
                   for t, pt in products[j][m]}
            if row:
                out[a, b] = row
    return out


def tensor_current(alg: LieAlgebraSC, s: FieldElement, n: int) -> LieAlgebraSC:
    """Current algebra L (x) F[X]/(X^n - s) with [l (x) a, l' (x) a'] =
    [l,l'] (x) aa', in coefficient-major order: position j * dim(L) + i
    holds l_i (x) x^j."""
    if alg.field != s.field:
        raise DescriptorMismatch("algebra and coefficients over different fields")
    return LieAlgebraSC(alg.field, alg.dim * n,
                        _current_brackets(alg.brackets, alg.dim, s, n, alg.field.one()))


# ---------------------------------------------------------------------------
# The identity, proved over Z[a, b, c, d].
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


ONE = IntPoly({(0, 0, 0, 0): 1})
_PROOFS: dict = {}  # (WEDGE_ROWS, TABLE_ROWS) -> their facts


def prove_identity() -> dict[str, bool]:
    """`_prove_identity` for WEDGE_ROWS and TABLE_ROWS as they stand.  It
    reads no input, so it runs once per value of the two rows."""
    key = (WEDGE_ROWS, TABLE_ROWS)
    if key not in _PROOFS:
        _PROOFS[key] = _prove_identity()
    return _PROOFS[key]


def proven_dims(n: int, char2: bool) -> tuple[int, int]:
    """(dim L, dim [L, L]) for a diagonal form of size n = 3 or 4, as the
    proof's laws and spans state them."""
    pairs = n * (n - 1) // 2
    return pairs + (n if char2 else 0), pairs


def _wedge_facts(diagonal: Sequence[IntPoly]) -> tuple[dict | None, bool]:
    """(brackets, spans) for the wedges of `_wedges` that fit
    G = diag(diagonal) at the symbols; brackets is None unless their
    supports are the n(n - 1)/2 distinct pairs {r, s}, so each is alone at
    its entries, and `coordinates` reads every bracket there by exact
    monomial division and proves it on every entry.  spans: each G m_k is
    alternating, so the independent m_k span G^-1 Alt, which holds [L, L]
    in every characteristic; and each m_k is a unit monomial times some
    [m_i, m_j], so [L, L] holds them (docs/DESIGN.md)."""
    pairs = len(diagonal) * (len(diagonal) - 1) // 2
    try:
        mats = _wedges(diagonal)
        if not (len(mats) == pairs and all(len(m) == 2 for m in mats)
                and len({frozenset(m) for m in mats}) == pairs):
            return None, False
        coords = {pair: c for pair, c in coordinates(mats).items() if c}
    except (KeyError, ArithmeticError, NotIndependent, InvalidStructure):
        return None, False
    targets = {k for c in coords.values() if len(c) == 1
               for k, ck in c.items() if _unit_monomial(ck)}
    return coords, all(_alternating(m, diagonal) for m in mats) and targets == set(range(pairs))


def _dimension_law(n: int) -> bool:
    """Whether `_skew_equations` for diag of the first n symbols gives
    dim L = n(n - 1)/2, plus n where 2 = 0: for i != j, equations (i, j)
    and (j, i) are both g_i x_ij + g_j x_ji = 0 with unit monomial
    coefficients, one free entry per pair, and equation (i, i) is
    2 g_i x_ii = 0; no equation reads an entry outside its pair."""
    g = SYMBOLS[:n]
    eqs = _skew_equations([{i: g[i]} for i in range(n)])
    return all(
        (eqs[i * n + j] == {i * n + i: g[i] + g[i]}) if i == j else
        (eqs[i * n + j] == eqs[j * n + i] and set(eqs[i * n + j]) == {i * n + j, j * n + i}
         and all(map(_unit_monomial, eqs[i * n + j].values())))
        for i in range(n) for j in range(n))


def _prove_identity() -> dict[str, bool]:
    """The paper's identity over Z[a, b, c, d] by the engine's own rules,
    as facts for every diagonal with abcd != 0, each under its name:
    table, M's six wedges have the brackets of TABLE_ROWS (D = abcd);
    span, they span [L, L]; tensor, TABLE_ROWS is the core's wedges for
    diag(a, b, c) tensored with Z[a, b, c, d][X]/(X^2 - abcd) by
    `tensor_current`'s rule; core_span, those span the core's [L, L];
    laws, `_dimension_law` for n = 3 and 4."""
    table = table_brackets(*SYMBOLS)
    (m, span), (core, core_span) = _wedge_facts(SYMBOLS), _wedge_facts(SYMBOLS[:3])
    tensor = core is not None and _current_brackets(core, 3, discriminant(*SYMBOLS), 2, ONE) == table
    return {"table": m == table, "span": span, "tensor": tensor, "core_span": core_span,
            "laws": _dimension_law(3) and _dimension_law(4)}
