"""Reference computations the tests compare the library against.

Each one is the plain textbook construction, kept out of the library
because no command runs it.
"""

from fractions import Fraction

from orthocurrent.exact_linalg import Matrix, Subspace, canonicalize_subspace
from orthocurrent.liealg import LieAlgebraSC
from orthocurrent.scalars import (
    KIND_FUNFIELD,
    KIND_PRIME,
    KIND_RATIONALS,
    FieldDescriptor,
    FieldElement,
    Poly,
    _make_ratio,
)


def random_element(field: FieldDescriptor, rng, nonzero: bool = False) -> FieldElement:
    """Small random element; entries stay low-degree to keep runs fast."""
    while True:
        kind = field.kind
        if kind == KIND_RATIONALS:
            x = FieldElement(field, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        elif kind == KIND_PRIME:
            x = field.from_int(rng.randrange(field.p))
        elif kind == KIND_FUNFIELD:
            p = field.p
            num = Poly(p, [rng.randrange(p) for _ in range(rng.randint(1, 3))])
            den = Poly(p, [rng.randrange(p) for _ in range(rng.randint(1, 2))])
            if den.is_zero():
                den = Poly.const(p, 1)
            x = _make_ratio(field, num, den)
        else:
            u = random_element(field.base, rng)
            v = random_element(field.base, rng)
            x = FieldElement(field, (u, v))
        if not nonzero or not x.is_zero():
            return x


def ideal_closure(alg: LieAlgebraSC, seed) -> Subspace:
    """Smallest ideal containing the seed vectors (worklist closure)."""
    space = canonicalize_subspace(alg.field, [tuple(v) for v in seed], alg.dim)
    while True:
        new_vectors = []
        for i in range(alg.dim):
            e = alg.basis_vector(i)
            for row in space.basis.rows:
                w = alg.bracket(e, row)
                if not space.contains(w):
                    new_vectors.append(w)
        if not new_vectors:
            return space
        space = canonicalize_subspace(
            alg.field, list(space.basis.rows) + new_vectors, alg.dim
        )


def matrix_for(alg: LieAlgebraSC, coords) -> Matrix:
    """sum_k coords[k] m_k over the realization m_1, ..., m_n of alg, by
    matrix arithmetic."""
    mats = alg.realization
    zero = alg.field.zero()
    out = Matrix(alg.field, [[zero] * mats[0].ncols for _ in range(mats[0].nrows)])
    for c, m in zip(coords, mats):
        out = out + m.scale(c)
    return out
