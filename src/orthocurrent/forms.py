"""Symmetric bilinear forms: validation, restriction, and orthogonalization
of the whole space or of the span of given rows.

A form is stored through its Gram matrix together with whether it is
nondegenerate (its Gram matrix has full rank) and whether it is
alternating.  Orthogonalization is constructive and works in every
characteristic; in characteristic 2 a non-alternating hypothesis is
required (an alternating form admits no orthogonal basis there), and the
algorithm repairs alternating residual blocks by borrowing the most
recently completed anisotropic vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exact_linalg import Matrix, ShapeMismatch, Subspace, canonicalize_subspace, kernel
from .scalars import DomainError, FieldDescriptor, FieldElement, dot, inv


class NotSymmetric(ValueError):
    """The Gram matrix is not symmetric."""


class Degenerate(ValueError):
    """The form (or a restriction that must not be) is degenerate."""


class AlternatingChar2(ValueError):
    """Alternating form in characteristic 2: no orthogonal basis exists."""


class BilinearForm:
    """Symmetric bilinear form with its nondegeneracy and alternation."""

    __slots__ = ("field", "dim", "gram", "nondegenerate", "alternating")

    def __init__(self, field: FieldDescriptor, gram: Matrix, nondegenerate: bool,
                 alternating: bool):
        self.field = field
        self.dim = gram.nrows
        self.gram = gram
        self.nondegenerate = nondegenerate
        self.alternating = alternating

    def image(self, v: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
        """G v, the vector whose pairing with u is f(u, v)."""
        zero = self.field.zero()
        out = []
        for row in self.gram.rows:
            acc = zero
            for g, x in zip(row, v):
                if not g.is_zero() and not x.is_zero():
                    acc = acc + g * x
            out.append(acc)
        return tuple(out)

    def pair(self, u: Sequence[FieldElement], gv: Sequence[FieldElement]) -> FieldElement:
        """f(u, v), given gv = G v."""
        return dot(self.field, u, gv)

    def evaluate(self, u: Sequence[FieldElement], v: Sequence[FieldElement]) -> FieldElement:
        return self.pair(u, self.image(v))

    def __repr__(self) -> str:
        return f"BilinearForm(dim={self.dim} over {self.field!r})"


def _build_form(gram: Matrix) -> BilinearForm:
    n = gram.nrows
    nondegenerate = canonicalize_subspace(gram.field, gram.rows, n).dim == n
    alternating = all(gram.rows[i][i].is_zero() for i in range(n))
    return BilinearForm(gram.field, gram, nondegenerate, alternating)


def make_form(gram: Matrix) -> BilinearForm:
    """Validated nondegenerate symmetric form.

    Degeneracy is rejected eagerly here; degenerate forms can still arise
    from `restrict`, whose consumers perform their own checks.
    """
    if gram.nrows != gram.ncols:
        raise NotSymmetric("Gram matrix must be square")
    if not gram.is_symmetric():
        raise NotSymmetric("Gram matrix must be symmetric")
    form = _build_form(gram)
    if not form.nondegenerate:
        raise Degenerate("Gram matrix has determinant zero")
    return form


def diagonal_form(field: FieldDescriptor, entries: Sequence[FieldElement]) -> BilinearForm:
    return make_form(Matrix.diagonal(field, list(entries)))


def restrict(form: BilinearForm, subspace: Subspace) -> BilinearForm:
    """Restriction to a subspace, in the subspace's canonical basis.

    The result may be degenerate; downstream operations that need
    nondegeneracy check it themselves and report a clearer error.
    """
    if subspace.ambient_dim != form.dim or subspace.field != form.field:
        raise ShapeMismatch("subspace does not live in the form's space")
    if subspace.dim == 0:  # its empty basis has no columns to multiply
        return _build_form(Matrix(form.field, []))
    b = subspace.basis
    return _build_form(b * form.gram * b.transpose())


@dataclass(frozen=True)
class OrthogonalBasisResult:
    """Basis change B (rows are the new basis) with B G B^T diagonal."""

    basis: Matrix
    diagonal: tuple[FieldElement, ...]


def orthogonalize(form: BilinearForm,
                  rows: Optional[Sequence[Sequence[FieldElement]]] = None,
                  ) -> OrthogonalBasisResult:
    """Constructive orthogonal basis for a nondegenerate symmetric form.

    Without `rows` the form's own space is orthogonalized, starting from
    the standard basis.  With `rows`, their span U is, starting from the
    rows themselves: the basis is returned in the form's coordinates, and
    the caller vouches that f|_U is nondegenerate.  `diagonal` holds the
    squares f(b_k, b_k) of the basis rows b_k.

    Strategy: repeatedly move an anisotropic vector to the front of the
    unprocessed block and clear its pairings.  If the residual block has
    only isotropic vectors, repair it: in characteristic != 2 add a vector
    with nonzero pairing onto another (picking the first such pair), and
    in characteristic 2 add the first residual vector onto the previous
    anisotropic one and back up one position.  A nondegenerate alternating
    block has even dimension, so the widened odd block cannot stay
    alternating and the backup makes progress.

    Each value is computed once: G b_k and f(b_k, b_k) are kept until b_k
    changes, so the square that the search finds at a pivot is the one
    inverted there and the one returned, and the pivot's G b_k serves
    every pairing f(b_j, b_k) it clears.
    """
    if not form.nondegenerate:
        raise Degenerate("cannot orthogonalize a degenerate form")
    field = form.field
    char2 = field.characteristic() == 2
    if char2 and form.alternating and form.dim > 0:
        raise AlternatingChar2("alternating form in characteristic 2")
    if rows is None:
        rows = Matrix.identity(field, form.dim).rows
    one, fused = field.one(), field.fuses_sums
    basis = [list(row) for row in rows]
    n = len(basis)
    images: list = [None] * n  # G b_k, None once b_k has changed
    squares: list = [None] * n  # f(b_k, b_k), likewise

    def image(i: int) -> tuple[FieldElement, ...]:
        if images[i] is None:
            images[i] = form.image(basis[i])
        return images[i]

    def square(i: int) -> FieldElement:
        if squares[i] is None:
            squares[i] = form.pair(basis[i], image(i))
        return squares[i]

    def replace(i: int, row: list[FieldElement]) -> None:
        basis[i], images[i], squares[i] = row, None, None

    k = 0
    steps = 0
    while k < n:
        steps += 1
        if steps > 8 * (n + 1):
            raise DomainError("orthogonalization failed to converge")
        anisotropic = next((i for i in range(k, n) if not square(i).is_zero()), None)
        if anisotropic is None:
            if not char2:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                             if not form.pair(basis[i], image(j)).is_zero()), None)
                if pair is None:
                    raise Degenerate("residual block pairs to zero")
                i, j = pair
                replace(i, [x + y for x, y in zip(basis[i], basis[j])])
                continue
            # characteristic 2: borrow the previous anisotropic vector
            if k == 0:
                raise AlternatingChar2("alternating form in characteristic 2")
            replace(k - 1, [x + y for x, y in zip(basis[k - 1], basis[k])])
            k -= 1
            continue
        if anisotropic != k:
            for cache in (basis, images, squares):
                cache[k], cache[anisotropic] = cache[anisotropic], cache[k]
        c_inv = inv(square(k))
        pivot, pivot_image = basis[k], image(k)
        for j in range(k + 1, n):
            t = form.pair(basis[j], pivot_image)
            if not t.is_zero():
                f = -(t * c_inv)
                replace(j, [x if y.is_zero()
                            else dot(field, (one, f), (x, y)) if fused else x + f * y
                            for x, y in zip(basis[j], pivot)])
        k += 1
    return OrthogonalBasisResult(Matrix(field, basis), tuple(squares))


def orthogonal_complement(form: BilinearForm, subspace: Subspace) -> Subspace:
    """All vectors pairing to zero with the given subspace."""
    return kernel(form.field, (subspace.basis * form.gram).rows, form.dim)
