"""Analysis of the quadratic quotient F[X]/(X^2 - D).

For a nonzero D the quotient is one of three things, and the distinction
drives the whole decomposition story: it splits as F x F when D is a
square and the characteristic is not 2 (witnessed by a pair of
complementary idempotents), it is local with a square-zero nilpotent when
D is a square in characteristic 2, and it is a quadratic field extension
when D is not a square.  Every returned witness re-verifies its defining
identities exactly before being handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .liealg import CoefficientAlgebra, InvalidStructure, Vector
from .scalars import (
    FieldDescriptor,
    FieldElement,
    inv,
    is_square,
    quadratic_extension,
)


class ZeroDiscriminant(ValueError):
    """The quotient construction needs a nonzero discriminant."""


SPLIT = "split"
LOCAL = "local"
FIELD = "field"


@dataclass(frozen=True)
class QuadraticAnalysis:
    """Outcome of analyzing F[X]/(X^2 - D).

    variant is "split" (idempotents e_plus, e_minus), "local" (nilpotent
    witness and the square root of D) or "field" (descriptor of the
    quadratic extension F[sqrt D]).
    """

    variant: str
    algebra: CoefficientAlgebra
    e_plus: Optional[Vector] = None
    e_minus: Optional[Vector] = None
    nilpotent: Optional[Vector] = None
    sqrt_d: Optional[FieldElement] = None
    extension: Optional[FieldDescriptor] = None


def quadratic_quotient(d: FieldElement) -> CoefficientAlgebra:
    """The 2-dimensional algebra on basis {1, x} with x^2 = D."""
    if d.is_zero():
        raise ZeroDiscriminant("discriminant must be nonzero")
    field = d.field
    one, zero = field.one(), field.zero()
    table = [
        [(one, zero), (zero, one)],
        [(zero, one), (d, zero)],
    ]
    return CoefficientAlgebra(field, table, generator=(zero, one))


def analyze_quadratic(d: FieldElement) -> QuadraticAnalysis:
    """Classify F[X]/(X^2 - D) and return re-verified witnesses."""
    if d.is_zero():
        raise ZeroDiscriminant("discriminant must be nonzero")
    field = d.field
    algebra = quadratic_quotient(d)
    root = is_square(d)
    if root is None:
        return QuadraticAnalysis(
            FIELD, algebra, extension=quadratic_extension(field, d)
        )
    if field.characteristic() == 2:
        # (x + e)^2 = x^2 + e^2 = D + D = 0
        nilpotent = (root, field.one())
        if algebra.multiply(nilpotent, nilpotent) != (field.zero(),) * 2:
            raise InvalidStructure("nilpotent witness does not square to zero")
        if all(x.is_zero() for x in nilpotent):
            raise InvalidStructure("nilpotent witness is zero")
        return QuadraticAnalysis(LOCAL, algebra, nilpotent=nilpotent, sqrt_d=root)
    half = inv(field.from_int(2))
    root_inv = inv(root)
    e_plus = (half, half * root_inv)
    e_minus = (half, -(half * root_inv))
    zero = field.zero()
    for e in (e_plus, e_minus):
        if algebra.multiply(e, e) != e:
            raise InvalidStructure("split witness is not idempotent")
    if algebra.multiply(e_plus, e_minus) != (zero, zero):
        raise InvalidStructure("split idempotents are not orthogonal")
    if tuple(a + b for a, b in zip(e_plus, e_minus)) != algebra.unit():
        raise InvalidStructure("split idempotents do not sum to the unit")
    return QuadraticAnalysis(
        SPLIT, algebra, e_plus=e_plus, e_minus=e_minus, sqrt_d=root
    )


def split_projections(analysis: QuadraticAnalysis):
    """The two evaluation maps x -> e and x -> -e realizing A = F x F."""
    if analysis.variant != SPLIT:
        raise ValueError("projections exist only in the split case")
    e = analysis.sqrt_d

    def proj(sign: int):
        def apply(coords: Vector) -> FieldElement:
            u, v = coords
            return u + v * e if sign > 0 else u - v * e

        return apply

    return proj(+1), proj(-1)
