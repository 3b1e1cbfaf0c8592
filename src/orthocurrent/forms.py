"""Symmetric bilinear forms: validation, discriminant, orthogonalization.

A form is stored through its Gram matrix together with its cached
determinant and alternation flag.  Orthogonalization is constructive and
works in every characteristic; in characteristic 2 a non-alternating
hypothesis is required (an alternating form admits no orthogonal basis
there), and the algorithm repairs alternating residual blocks by
borrowing the most recently completed anisotropic vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exact_linalg import Matrix, ShapeMismatch, Subspace, det, kernel
from .scalars import FieldDescriptor, FieldElement, inv


class NotSymmetric(ValueError):
    """The Gram matrix is not symmetric."""


class Degenerate(ValueError):
    """The form (or a restriction that must not be) is degenerate."""


class AlternatingChar2(ValueError):
    """Alternating form in characteristic 2: no orthogonal basis exists."""


class BilinearForm:
    """Symmetric bilinear form with cached determinant and alternation."""

    __slots__ = ("field", "dim", "gram", "determinant", "alternating")

    def __init__(self, field: FieldDescriptor, gram: Matrix, determinant: FieldElement,
                 alternating: bool):
        self.field = field
        self.dim = gram.nrows
        self.gram = gram
        self.determinant = determinant
        self.alternating = alternating

    @property
    def nondegenerate(self) -> bool:
        return not self.determinant.is_zero()

    def evaluate(self, u: Sequence[FieldElement], v: Sequence[FieldElement]) -> FieldElement:
        acc = self.field.zero()
        for i, ui in enumerate(u):
            if ui.is_zero():
                continue
            row = self.gram.rows[i]
            for j, vj in enumerate(v):
                if not vj.is_zero() and not row[j].is_zero():
                    acc = acc + ui * row[j] * vj
        return acc

    def __repr__(self) -> str:
        return f"BilinearForm(dim={self.dim} over {self.field!r})"


def _build_form(gram: Matrix) -> BilinearForm:
    alternating = all(gram.rows[i][i].is_zero() for i in range(gram.nrows))
    return BilinearForm(gram.field, gram, det(gram), alternating)


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


def discriminant(form: BilinearForm) -> FieldElement:
    """Determinant of the Gram matrix relative to the stored basis, as
    computed when the form was built."""
    return form.determinant


def restrict(form: BilinearForm, subspace: Subspace) -> BilinearForm:
    """Restriction to a subspace, in the subspace's canonical basis.

    The result may be degenerate; downstream operations that need
    nondegeneracy check it themselves and report a clearer error.
    """
    if subspace.ambient_dim != form.dim or subspace.field != form.field:
        raise ShapeMismatch("subspace does not live in the form's space")
    b = subspace.basis
    gram = b * form.gram * b.transpose()
    return _build_form(gram)


@dataclass(frozen=True)
class OrthogonalBasisResult:
    """Basis change B (rows are the new basis) with B G B^T diagonal."""

    basis: Matrix
    diagonal: tuple[FieldElement, ...]


def orthogonalize(form: BilinearForm) -> OrthogonalBasisResult:
    """Constructive orthogonal basis for a nondegenerate symmetric form.

    Strategy: repeatedly move an anisotropic vector to the front of the
    unprocessed block and clear its pairings.  If the residual block has
    only isotropic vectors, repair it: in characteristic != 2 add a vector
    with nonzero pairing onto another (picking the first such pair), and
    in characteristic 2 add the first residual vector onto the previous
    anisotropic one and back up one position.  A nondegenerate alternating
    block has even dimension, so the widened odd block cannot stay
    alternating and the backup makes progress.
    """
    if not form.nondegenerate:
        raise Degenerate("cannot orthogonalize a degenerate form")
    field = form.field
    char2 = field.characteristic() == 2
    if char2 and form.alternating and form.dim > 0:
        raise AlternatingChar2("alternating form in characteristic 2")
    n = form.dim
    basis = [list(row) for row in Matrix.identity(field, n).rows]
    fv = form.evaluate
    k = 0
    steps = 0
    while k < n:
        steps += 1
        if steps > 8 * (n + 1):
            raise AssertionError("orthogonalization failed to converge")
        anisotropic = None
        for i in range(k, n):
            if not fv(basis[i], basis[i]).is_zero():
                anisotropic = i
                break
        if anisotropic is None:
            if not char2:
                repaired = False
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if not fv(basis[i], basis[j]).is_zero():
                            basis[i] = [x + y for x, y in zip(basis[i], basis[j])]
                            repaired = True
                            break
                    if repaired:
                        break
                if not repaired:
                    raise Degenerate("residual block pairs to zero")
                continue
            # characteristic 2: borrow the previous anisotropic vector
            if k == 0:
                raise AlternatingChar2("alternating form in characteristic 2")
            basis[k - 1] = [x + y for x, y in zip(basis[k - 1], basis[k])]
            k -= 1
            continue
        if anisotropic != k:
            basis[k], basis[anisotropic] = basis[anisotropic], basis[k]
        c_inv = inv(fv(basis[k], basis[k]))
        for j in range(k + 1, n):
            t = fv(basis[j], basis[k])
            if not t.is_zero():
                factor = t * c_inv
                basis[j] = [x - factor * y for x, y in zip(basis[j], basis[k])]
        k += 1
    change = Matrix(field, basis)
    diagonal = tuple(fv(row, row) for row in basis)
    return OrthogonalBasisResult(change, diagonal)


def orthogonal_complement(form: BilinearForm, subspace: Subspace) -> Subspace:
    """All vectors pairing to zero with the given subspace."""
    return kernel(subspace.basis * form.gram)
