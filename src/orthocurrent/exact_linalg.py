"""Dense exact linear algebra over any supported field.

Matrices are immutable row-major grids of field elements; the matrices
of Lie algebras are sparse dicts {(row, col): entry}, which `commutator`
multiplies.  Subspaces are stored through their unique reduced row
echelon basis, which makes subspace equality decidable by structural
comparison.  Everything here is small (at most 16 columns), so one plain
Gauss-Jordan elimination with zero skipping, `_eliminate`, serves both
`canonicalize_subspace` and `kernel`; rank decides nondegeneracy, so no
determinant is computed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .scalars import FieldDescriptor, FieldElement, inv


class ShapeMismatch(ValueError):
    """Operand dimensions are incompatible."""


Vector = tuple[FieldElement, ...]


class Matrix:
    """Immutable dense matrix with entries in a single field."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldDescriptor, rows: Iterable[Sequence[FieldElement]]):
        rows = tuple(tuple(row) for row in rows)
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ShapeMismatch("ragged rows")
            for x in row:
                if x.field != field:
                    raise ShapeMismatch("entry from a different field")
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _trusted(cls, field: FieldDescriptor, rows: tuple[tuple[FieldElement, ...], ...]) -> Matrix:
        """Arithmetic result on validated operands: skips the per-entry field
        check, since FieldElement arithmetic already rejects mixed fields."""
        m = object.__new__(cls)
        m.field = field
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        m.rows = rows
        return m

    @classmethod
    def identity(cls, field: FieldDescriptor, n: int) -> Matrix:
        zero, one = field.zero(), field.one()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, field: FieldDescriptor, entries: Sequence[FieldElement]) -> Matrix:
        zero = field.zero()
        n = len(entries)
        return cls(field, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    def transpose(self) -> Matrix:
        return Matrix._trusted(self.field, tuple(zip(*self.rows)))

    def __mul__(self, other: Matrix) -> Matrix:
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        self._check_same_field(other)
        zero = self.field.zero()
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = zero
                for a, b in zip(row, col):
                    if not a.is_zero() and not b.is_zero():
                        acc = acc + a * b
                out_row.append(acc)
            out.append(tuple(out_row))
        return Matrix._trusted(self.field, tuple(out))

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"

    def _check_same_field(self, other: Matrix) -> None:
        # Zero skipping in __mul__ can leave mixed fields unmultiplied.
        if self.field is not other.field and self.field != other.field:
            raise ShapeMismatch("matrices over different fields")


def _product(x: dict, y: dict) -> dict:
    """xy for sparse matrices, over pairs of nonzero entries only."""
    rows: dict = {}
    for (k, q), v in y.items():
        rows.setdefault(k, []).append((q, v))
    out: dict = {}
    for (p, k), u in x.items():
        for q, v in rows.get(k, ()):
            t = u * v
            out[p, q] = out[p, q] + t if (p, q) in out else t
    return out


def commutator(x: dict, y: dict) -> dict:
    """xy - yx for sparse matrices {(row, col): entry} with zero entries
    left out, returned in the same form.

    Generic in the scalar: only +, -, * and the truth value of an entry are
    used, so field elements and the polynomials of `liealg.IntPoly` both
    serve.  The products run over nonzero entries only, which suits the
    sparse basis matrices of skew-adjoint algebras.
    """
    out = _product(x, y)
    for pos, z in _product(y, x).items():
        out[pos] = out[pos] - z if pos in out else -z
    return {pos: z for pos, z in out.items() if z}


def _eliminate(rows: list[list[FieldElement]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns.

    Each row is a distinct list, updated in place.  The pivot row is zero
    left of the pivot, and the pivot column is set to 1 and 0 directly, so
    only the pivot row's nonzero entries right of the pivot are scaled and
    subtracted.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row = rows[r]
        nonzero = [(j, row[j]) for j in range(c + 1, ncols) if not row[j].is_zero()]
        pv = row[c]
        if not pv.is_one():
            pv_inv = inv(pv)
            nonzero = [(j, pv_inv * x) for j, x in nonzero]
            row[c] = pv.field.one()
            for j, x in nonzero:
                row[j] = x
        for i in range(nrows):
            if i == r:
                continue
            other = rows[i]
            factor = other[c]
            if factor.is_zero():
                continue
            other[c] = factor.field.zero()
            for j, y in nonzero:
                other[j] = other[j] - factor * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


class Subspace:
    """Subspace of F^n stored by its canonical reduced echelon basis."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field: FieldDescriptor, ambient_dim: int, basis: Matrix,
                 pivots: tuple[int, ...]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def reduce(self, v: Sequence[FieldElement]) -> Vector:
        """Remainder of v after elimination against the canonical basis."""
        if len(v) != self.ambient_dim:
            raise ShapeMismatch("vector length does not match ambient dimension")
        w = list(v)
        for row, c in zip(self.basis.rows, self.pivots):
            factor = w[c]
            if factor.is_zero():
                continue
            for j in range(c, self.ambient_dim):
                if not row[j].is_zero():
                    w[j] = w[j] - factor * row[j]
        return tuple(w)

    def contains(self, v: Sequence[FieldElement]) -> bool:
        return all(x.is_zero() for x in self.reduce(v))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of F^{self.ambient_dim})"


def canonicalize_subspace(field: FieldDescriptor, vectors: Iterable[Sequence[FieldElement]],
                          ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors; idempotent."""
    vectors = [tuple(v) for v in vectors]
    for v in vectors:
        if len(v) != ambient_dim:
            raise ShapeMismatch("vector length does not match ambient dimension")
    if not vectors:
        return Subspace(field, ambient_dim, Matrix(field, []), ())
    rows = [list(v) for v in vectors]
    pivots = _eliminate(rows)
    basis = Matrix(field, rows[: len(pivots)])
    return Subspace(field, ambient_dim, basis, tuple(pivots))


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the right kernel {v : m v = 0}."""
    rows = [list(row) for row in m.rows]
    pivots = _eliminate(rows)
    n = m.ncols
    free_cols = [c for c in range(n) if c not in pivots]
    zero, one = m.field.zero(), m.field.one()
    vectors = []
    for fc in free_cols:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        vectors.append(v)
    return canonicalize_subspace(m.field, vectors, n)
