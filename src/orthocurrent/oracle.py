"""Brute-force ground truth over small prime fields.

Every ideal is a sum of principal ideals, so `enumerate_ideals` spins the
ideal generated by each projective point of F_q^n, the cyclic-submodule
idea behind MeatAxe spinning, and then closes {0} and the distinct
principal ideals under sums.  Spans are kept as canonical reduced echelon
forms `(pivots, rows)`, which makes equal ideals equal keys.  All of this
runs on plain integers mod q with its own elimination and spinning, so
the oracle stays independent of the library it checks; field elements are
only materialized for returned subspaces.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from .exact_linalg import Matrix, Subspace
from .liealg import LieAlgebraSC
from .scalars import KIND_PRIME


class UnsupportedField(ValueError):
    """The oracle is limited to F_2, F_3, F_5, F_7 and ambient dimension 6."""


SUPPORTED_Q = (2, 3, 5, 7)
MAX_AMBIENT = 6

# (pivots, rows): a canonical reduced echelon basis over plain ints mod q.
Key = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _validate(q: int, n: int) -> None:
    if q not in SUPPORTED_Q:
        raise UnsupportedField(f"q must be one of {SUPPORTED_Q}")
    if n > MAX_AMBIENT or n < 0:
        raise UnsupportedField(f"ambient dimension must be at most {MAX_AMBIENT}")


def _to_subspace(field, pivots: Sequence[int], rows: Sequence[Sequence[int]], n: int) -> Subspace:
    basis = Matrix(field, [[field.from_int(x) for x in row] for row in rows])
    return Subspace(field, n, basis, tuple(pivots))


def _adjoint_matrices(alg: LieAlgebraSC) -> list[tuple[tuple[int, int, int], ...]]:
    """Sparse integer matrices of ad(e_i): triples (k, j, c[i][j][k]) with
    c[i][j][k] nonzero.  Brackets of basis vectors of M are multiples of
    single basis vectors, so each has at most n entries instead of n^2."""
    n = alg.dim
    return [
        tuple(
            (k, j, alg.constants[i][j][k].payload)
            for k in range(n)
            for j in range(n)
            if alg.constants[i][j][k].payload
        )
        for i in range(n)
    ]


def _apply(ad, x: Sequence[int], n: int) -> list[int]:
    """ad(e_i) x, entries not yet reduced mod q."""
    w = [0] * n
    for k, j, c in ad:
        w[k] += c * x[j]
    return w


def _is_invariant(rows: Sequence[Sequence[int]], pivots: Sequence[int],
                  ads, q: int, n: int) -> bool:
    for v in rows:
        for ad in ads:
            w = [x % q for x in _apply(ad, v, n)]
            for idx, p in enumerate(pivots):
                t = w[p]
                if t:
                    rv = rows[idx]
                    for c in range(p, n):
                        if rv[c]:
                            w[c] = (w[c] - t * rv[c]) % q
            if any(w):
                return False
    return True


def _insert(echelon: dict[int, list[int]], w: Sequence[int], q: int) -> Optional[list[int]]:
    """Add w to a reduced echelon basis {pivot: row} and return the new row,
    or None if w is already spanned.

    Every row is zero in every other row's pivot column, so the remainder
    of w is w minus w[p] times the row of each pivot p, in any order, and
    one reduction mod q at the end suffices.
    """
    r = w
    for p, row in echelon.items():
        t = w[p]
        if t:
            r = [a - t * b for a, b in zip(r, row)]
    r = [a % q for a in r]
    for lead, x in enumerate(r):
        if x:
            break
    else:
        return None
    if x != 1:
        inv = pow(x, -1, q)
        r = [a * inv % q for a in r]
    for p, row in echelon.items():
        t = row[lead]
        if t:
            echelon[p] = [(a - t * b) % q for a, b in zip(row, r)]
    echelon[lead] = r
    return r


def _key(echelon: dict[int, list[int]]) -> Key:
    pivots = tuple(sorted(echelon))
    return pivots, tuple(tuple(echelon[p]) for p in pivots)


def _span(rows: Iterable[Sequence[int]], q: int) -> Key:
    echelon: dict[int, list[int]] = {}
    for row in rows:
        _insert(echelon, row, q)
    return _key(echelon)


def _principal_ideal(v: Sequence[int], ads, q: int, n: int) -> Key:
    """The ideal generated by v: images ad(e_i) x taken breadth first,
    stopping as soon as the span is the whole space."""
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


def _projective_points(q: int, n: int) -> Iterator[tuple[int, ...]]:
    """One vector per line of F_q^n: the first nonzero coordinate is 1."""
    for lead in range(n):
        head = (0,) * lead + (1,)
        for tail in product(range(q), repeat=n - lead - 1):
            yield head + tail


def enumerate_ideals(alg: LieAlgebraSC) -> list[Subspace]:
    """Every ideal of a small algebra over F_q, in canonical order.

    The distinct principal ideals come from spinning each of the
    (q^n - 1)/(q - 1) projective points, at most n mat-vecs per basis
    vector found; the frontier loop then forms (#ideals x #distinct
    principal ideals) sums.  For the 6-dimensional derived orthogonal
    algebra M that is at most 4 x 3.  The result is sorted by
    (dimension, pivots, rows).
    """
    field = alg.field
    if field.kind != KIND_PRIME:
        raise UnsupportedField("ideal enumeration runs over prime fields")
    _validate(field.p, alg.dim)
    q, n = field.p, alg.dim
    ads = _adjoint_matrices(alg)
    principal = sorted({_principal_ideal(v, ads, q, n) for v in _projective_points(q, n)})
    found = {((), ())} | set(principal)
    frontier = principal
    while frontier:
        grown = []
        for _, rows in frontier:
            for _, generator in principal:
                total = _span(rows + generator, q)
                if total not in found:
                    found.add(total)
                    grown.append(total)
        frontier = grown
    ordered = sorted(found, key=lambda key: (len(key[0]), *key))
    return [_to_subspace(field, pivots, rows, n) for pivots, rows in ordered]


def enumeration_complete(alg: LieAlgebraSC, ideals: Sequence[Subspace]) -> bool:
    """The oracle's own check on a listed lattice: it holds 0 and the whole
    space, is closed under pairwise sums, and every member is ad-invariant.

    This catches a listed non-ideal or a missing sum, 0 or M; it cannot see
    an ideal left out of a list that is otherwise consistent.
    """
    q, n = alg.field.p, alg.dim
    keys = {
        (space.pivots, tuple(tuple(x.payload for x in row) for row in space.basis.rows))
        for space in ideals
    }
    whole = _span([[int(i == j) for j in range(n)] for i in range(n)], q)
    if ((), ()) not in keys or whole not in keys:
        return False
    ads = _adjoint_matrices(alg)
    if not all(_is_invariant(rows, pivots, ads, q, n) for pivots, rows in keys):
        return False
    return all(_span(a[1] + b[1], q) in keys for a in keys for b in keys)


def ideal_dimension_histogram(ideals: Sequence[Subspace]) -> dict[int, int]:
    hist: dict[int, int] = {}
    for space in ideals:
        hist[space.dim] = hist.get(space.dim, 0) + 1
    return hist
