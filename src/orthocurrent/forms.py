"""Symmetric bilinear forms on sparse rows: validation, restriction, and
orthogonalization of the whole space or of the span of given rows.

A form keeps the rows {j: g_ij} of its Gram matrix, zero entries left
out, with whether it is nondegenerate and whether it is alternating;
vectors are sparse rows as in `exact_linalg`, and G v and the pairing read
nonzero entries only.  A diagonal form is nondegenerate exactly when no
entry is zero; only a full Gram matrix or a restriction is rank-checked.
Orthogonalization is constructive and works in every characteristic; in
characteristic 2 a non-alternating hypothesis is required (an alternating
form admits no orthogonal basis there), and the algorithm repairs
alternating residual blocks by borrowing the most recently completed
anisotropic vector.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exact_linalg import ShapeMismatch, Subspace, add_scaled, canonicalize_subspace, kernel
from .scalars import DomainError, FieldDescriptor, FieldElement, dot, inv


class NotSymmetric(ValueError):
    """The Gram matrix is not symmetric."""


class Degenerate(ValueError):
    """The form (or a restriction that must not be) is degenerate."""


class AlternatingChar2(ValueError):
    """Alternating form in characteristic 2: no orthogonal basis exists."""


class BilinearForm:
    """Symmetric bilinear form: its Gram rows, nondegeneracy and alternation."""

    __slots__ = ("field", "dim", "gram", "nondegenerate", "alternating")

    def __init__(self, field: FieldDescriptor, gram: tuple[dict, ...], nondegenerate: bool,
                 alternating: bool):
        self.field = field
        self.dim = len(gram)
        self.gram = gram
        self.nondegenerate = nondegenerate
        self.alternating = alternating

    def image(self, v: dict) -> dict:
        """G v, whose pairing with u is f(u, v), summed term by term."""
        out = {}
        for i, row in enumerate(self.gram):
            acc = None
            for j, g in row.items():
                x = v.get(j)
                if x is not None:
                    acc = g * x if acc is None else acc + g * x
            if acc:
                out[i] = acc
        return out

    def pair(self, u: dict, gv: dict) -> FieldElement:
        """f(u, v), given gv = G v: one dot over their common entries, in
        index order, since the cost of `dot` over F_p(t) depends on the
        order in which it meets the denominators."""
        common = sorted(u.keys() & gv.keys())
        return dot(self.field, [u[j] for j in common], [gv[j] for j in common])

    def evaluate(self, u: dict, v: dict) -> FieldElement:
        return self.pair(u, self.image(v))

    def __repr__(self) -> str:
        return f"BilinearForm(dim={self.dim} over {self.field!r})"


def _build_form(field: FieldDescriptor, gram: tuple[dict, ...]) -> BilinearForm:
    n = len(gram)
    nondegenerate = canonicalize_subspace(field, gram, n).dim == n
    alternating = all(i not in row for i, row in enumerate(gram))
    return BilinearForm(field, gram, nondegenerate, alternating)


def make_form(gram) -> BilinearForm:
    """Validated nondegenerate symmetric form of a full Gram matrix, the
    checked grid of a `--gram` input.

    Degeneracy is rejected eagerly here; degenerate forms can still arise
    from `restrict`, whose consumers perform their own checks.
    """
    if gram.nrows != gram.ncols:
        raise NotSymmetric("Gram matrix must be square")
    if not gram.is_symmetric():
        raise NotSymmetric("Gram matrix must be symmetric")
    form = _build_form(gram.field, tuple({j: x for j, x in enumerate(row) if x}
                                         for row in gram.rows))
    if not form.nondegenerate:
        raise Degenerate("Gram matrix has determinant zero")
    return form


def diagonal_form(field: FieldDescriptor, entries: Sequence[FieldElement]) -> BilinearForm:
    """The form diag(entries), nondegenerate exactly when no entry is zero:
    no elimination.  Raises ShapeMismatch for an entry from another field,
    then Degenerate for a zero entry."""
    if any(x.field is not field and x.field != field for x in entries):
        raise ShapeMismatch("entry from a different field")
    if not all(entries):
        raise Degenerate("Gram matrix has determinant zero")
    gram = tuple({i: x} for i, x in enumerate(entries))
    return BilinearForm(field, gram, nondegenerate=True, alternating=not entries)


def _rows_in(form: BilinearForm, subspace: Subspace) -> tuple[dict, ...]:
    """The subspace's echelon rows, checked to live in the form's space."""
    if subspace.ambient_dim != form.dim or subspace.field != form.field:
        raise ShapeMismatch("subspace does not live in the form's space")
    return subspace.rows


def restrict(form: BilinearForm, subspace: Subspace) -> BilinearForm:
    """Restriction to a subspace, in the subspace's canonical basis: the
    Gram matrix f(b_i, b_j) of its echelon rows b_i.

    The result may be degenerate; downstream operations that need
    nondegeneracy check it themselves and report a clearer error.
    """
    rows = _rows_in(form, subspace)
    images = [form.image(b) for b in rows]
    gram = tuple({j: x for j, x in enumerate(form.pair(b, gb) for gb in images) if x}
                 for b in rows)
    return _build_form(form.field, gram)


def orthogonalize(form: BilinearForm, rows: Optional[Sequence[dict]] = None,
                  ) -> tuple[list[dict], tuple[FieldElement, ...]]:
    """Constructive orthogonal basis for a nondegenerate symmetric form, as
    (basis rows b_k, squares f(b_k, b_k)), the rows sparse.

    Without `rows` the form's own space is orthogonalized, starting from
    the standard basis.  With `rows`, sparse rows as `Subspace.rows` holds
    them, their span U is, starting from the rows themselves: the basis is
    returned in the form's coordinates, and the caller vouches that f|_U
    is nondegenerate.

    Strategy: repeatedly move an anisotropic vector to the front of the
    unprocessed block and clear its pairings.  If the residual block has
    only isotropic vectors, repair it: in characteristic != 2 add a vector
    with nonzero pairing onto another (picking the first such pair), and
    in characteristic 2 add the first residual vector onto the previous
    anisotropic one and back up one position.  A nondegenerate alternating
    block has even dimension, so the widened odd block cannot stay
    alternating and the backup makes progress.  Every change of a row is
    the in-place update b_j + f b_k of `exact_linalg.add_scaled`.

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
    one = field.one()
    if rows is None:
        rows = [{i: one} for i in range(form.dim)]
    basis = [dict(row) for row in rows]
    n = len(basis)
    images: list = [None] * n  # G b_k, None once b_k has changed
    squares: list = [None] * n  # f(b_k, b_k), likewise

    def image(i: int) -> dict:
        if images[i] is None:
            images[i] = form.image(basis[i])
        return images[i]

    def square(i: int) -> FieldElement:
        if squares[i] is None:
            squares[i] = form.pair(basis[i], image(i))
        return squares[i]

    def add_to(i: int, factor: FieldElement, j: int) -> None:
        add_scaled(basis[i], factor, basis[j])
        images[i] = squares[i] = None

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
                add_to(i, one, j)
                continue
            # characteristic 2: borrow the previous anisotropic vector
            if k == 0:
                raise AlternatingChar2("alternating form in characteristic 2")
            add_to(k - 1, one, k)
            k -= 1
            continue
        if anisotropic != k:
            for cache in (basis, images, squares):
                cache[k], cache[anisotropic] = cache[anisotropic], cache[k]
        c_inv = inv(square(k))
        pivot_image = image(k)
        for j in range(k + 1, n):
            t = form.pair(basis[j], pivot_image)
            if not t.is_zero():
                add_to(j, -(t * c_inv), k)
        k += 1
    return basis, tuple(squares)


def orthogonal_complement(form: BilinearForm, subspace: Subspace) -> Subspace:
    """All vectors pairing to zero with the given subspace: the kernel of
    the images G b of its echelon rows b."""
    return kernel(form.field, [form.image(b) for b in _rows_in(form, subspace)], form.dim)
