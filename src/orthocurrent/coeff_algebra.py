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

from .liealg import InvalidStructure, Vector, quotient_product
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
    e_plus: Optional[Vector] = None
    e_minus: Optional[Vector] = None
    nilpotent: Optional[Vector] = None
    sqrt_d: Optional[FieldElement] = None
    extension: Optional[FieldDescriptor] = None


def analyze_quadratic(d: FieldElement) -> QuadraticAnalysis:
    """Classify F[X]/(X^2 - D) and return re-verified witnesses."""
    if d.is_zero():
        raise ZeroDiscriminant("discriminant must be nonzero")
    field = d.field
    root = is_square(d)
    if root is None:
        return QuadraticAnalysis(FIELD, extension=quadratic_extension(field, d))
    if field.characteristic() == 2:
        # (x + e)^2 = x^2 + e^2 = D + D = 0
        nilpotent = (root, field.one())
        if quotient_product(nilpotent, nilpotent, d) != (field.zero(),) * 2:
            raise InvalidStructure("nilpotent witness does not square to zero")
        if all(x.is_zero() for x in nilpotent):
            raise InvalidStructure("nilpotent witness is zero")
        return QuadraticAnalysis(LOCAL, nilpotent=nilpotent, sqrt_d=root)
    half = inv(field.from_int(2))
    root_inv = inv(root)
    e_plus = (half, half * root_inv)
    e_minus = (half, -(half * root_inv))
    zero = field.zero()
    for e in (e_plus, e_minus):
        if quotient_product(e, e, d) != e:
            raise InvalidStructure("split witness is not idempotent")
    if quotient_product(e_plus, e_minus, d) != (zero, zero):
        raise InvalidStructure("split idempotents are not orthogonal")
    if tuple(a + b for a, b in zip(e_plus, e_minus)) != (field.one(), zero):
        raise InvalidStructure("split idempotents do not sum to the unit")
    return QuadraticAnalysis(SPLIT, e_plus=e_plus, e_minus=e_minus, sqrt_d=root)
