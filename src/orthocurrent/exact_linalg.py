"""Exact linear algebra over any supported field, on sparse rows.

Vectors are sparse dicts {index: entry} with zero entries left out, and
the matrices of Lie algebras are sparse dicts {(row, col): entry}, which
`commutator` multiplies.  Dense sequences are accepted wherever vectors
are and read once into that form; `Matrix`, an immutable row-major grid,
is only the checked grid of a `--gram` input.  Subspaces are stored
through their unique reduced row echelon rows, which makes subspace
equality decidable by structural comparison.  Everything here is small
(at most 16 columns), so one Gauss-Jordan elimination on sparse rows,
`_eliminate`, serves both `canonicalize_subspace` and `kernel`, and one
in-place row update, `add_scaled`, serves it and `forms.orthogonalize`;
rank decides nondegeneracy, so no determinant is computed.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .scalars import FieldDescriptor, FieldElement, dot, inv


class ShapeMismatch(ValueError):
    """Operand dimensions are incompatible."""


class Matrix:
    """Immutable dense matrix over one field: the checked grid of a `--gram`
    input.  No command multiplies one; perfbench times `*`."""

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
            out.append(out_row)
        return Matrix(self.field, out)

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


def add_scaled(w: dict, factor: FieldElement, row: dict, skip: Optional[int] = None) -> None:
    """w + factor row in place, for sparse w and row, leaving out row's
    entry at column `skip`: every sum that cancels leaves w.  This is the
    one row update of the package, for the elimination here and for
    `forms.orthogonalize`.  Where the field fuses sums
    (`FieldDescriptor.fuses_sums`), x + factor y runs as one two-term dot,
    normalized once."""
    field = factor.field
    fused, one = field.fuses_sums, field.one()
    for j, y in row.items():
        if j == skip:
            continue
        x = w.get(j)
        if x is None:
            w[j] = factor * y
            continue
        t = dot(field, (one, factor), (x, y)) if fused else x + factor * y
        if t:
            w[j] = t
        else:
            del w[j]


def _eliminate(rows: list[dict]) -> list[int]:
    """In-place reduced row echelon form of sparse rows {column: entry},
    zero entries left out; returns the pivot columns.

    Each row is a distinct dict, updated in place; rows[:len(pivots)] are
    then the echelon rows and the rest are empty.  Row operations only
    write into the columns of a pivot row, so the columns are those of the
    given rows, swept in increasing order.  The pivot row is scaled once
    and cleared from every other row that has an entry in its column.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in sorted(set().union(*rows)):
        pivot_row = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        row = rows[r]
        pv = row.pop(c)
        if not pv.is_one():
            pv_inv = inv(pv)
            for j, x in row.items():
                row[j] = pv_inv * x
        row[c] = pv.field.one()
        for i in range(nrows):
            if i != r and c in rows[i]:  # clear column c, where row is 1
                add_scaled(rows[i], -rows[i].pop(c), row, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _sparse(v, field: FieldDescriptor, n: int) -> dict:
    """The vector v of F^n, a sequence of length n or a dict {index:
    entry}, as a sparse row with zero entries left out.  Raises
    ShapeMismatch for a wrong length, an index outside range(n) or an
    entry from another field."""
    if isinstance(v, dict):
        if not all(k in range(n) for k in v):
            raise ShapeMismatch(f"vector index outside range({n})")
        items = v.items()
    else:
        if len(v) != n:
            raise ShapeMismatch("vector length does not match ambient dimension")
        items = enumerate(v)
    out = {}
    for k, x in items:
        if x.field is not field and x.field != field:
            raise ShapeMismatch("entry from a different field")
        if x:
            out[k] = x
    return out


class Subspace:
    """Subspace of F^n stored by its canonical reduced echelon rows.

    `rows` are sparse, {column: entry} with zero entries left out, and
    row i has its leading 1 at column pivots[i].
    """

    __slots__ = ("field", "ambient_dim", "rows", "pivots")

    def __init__(self, field: FieldDescriptor, ambient_dim: int, rows: tuple[dict, ...],
                 pivots: tuple[int, ...]):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        """Whether v, a sequence or a dict as `canonicalize_subspace` takes
        it, lies in the subspace: its remainder after elimination against
        the echelon rows is zero."""
        w = _sparse(v, self.field, self.ambient_dim)
        for row, c in zip(self.rows, self.pivots):
            if c in w:
                add_scaled(w, -w.pop(c), row, c)
        return not w

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.field, self.ambient_dim, self.pivots))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim} of F^{self.ambient_dim})"


def canonicalize_subspace(field: FieldDescriptor, vectors: Iterable, ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors; idempotent.  Each
    vector is a sequence of ambient_dim entries or a sparse dict {index:
    entry}; ShapeMismatch refuses a wrong length, an index outside
    range(ambient_dim) and an entry from another field."""
    rows = [_sparse(v, field, ambient_dim) for v in vectors]
    pivots = _eliminate(rows)
    return Subspace(field, ambient_dim, tuple(rows[: len(pivots)]), tuple(pivots))


def kernel(field: FieldDescriptor, equations: Iterable, ncols: int) -> Subspace:
    """Canonical basis of {v : e . v = 0 for every equation e}, the right
    kernel of the matrix whose rows are the equations, given as
    `canonicalize_subspace` takes vectors."""
    rows = [_sparse(e, field, ncols) for e in equations]
    pivots = _eliminate(rows)
    one = field.one()
    vectors = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        v = {fc: one}
        for row, pc in zip(rows, pivots):
            if fc in row:
                v[pc] = -row[fc]
        vectors.append(v)
    return canonicalize_subspace(field, vectors, ncols)
