"""Analysis of the quadratic quotient F[X]/(X^2 - D).

For a nonzero D the quotient is one of three things, and the distinction
drives the whole decomposition story: it splits as F x F when D is a
square and the characteristic is not 2 (witnessed by a pair of
complementary idempotents), it is local with a square-zero nilpotent when
D is a square in characteristic 2, and it is a quadratic field extension
when D is not a square.  Every returned witness passes its defining
identities, `split_witness_checks` or `nilpotent_witness_checks`, before
being handed out; the checker reports the same checks.
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


def split_witness_checks(e_plus: Vector, e_minus: Vector, d: FieldElement) -> list[dict]:
    """The identities that make e_plus and e_minus the split witnesses of
    F[X]/(X^2 - d), as checks: each idempotent, orthogonal, and summing to
    the unit."""
    zero, one = d.field.zero(), d.field.one()
    return [
        {"name": "e_plus_idempotent", "ok": quotient_product(e_plus, e_plus, d) == e_plus},
        {"name": "e_minus_idempotent", "ok": quotient_product(e_minus, e_minus, d) == e_minus},
        {"name": "idempotents_orthogonal",
         "ok": quotient_product(e_plus, e_minus, d) == (zero, zero)},
        {"name": "idempotents_sum_to_unit",
         "ok": tuple(a + b for a, b in zip(e_plus, e_minus)) == (one, zero)},
    ]


def nilpotent_witness_checks(n: Vector, d: FieldElement) -> list[dict]:
    """The identities that make n the nilpotent witness of F[X]/(X^2 - d),
    as checks: nonzero, and squaring to zero."""
    zero2 = (d.field.zero(),) * 2
    return [
        {"name": "nilpotent_nonzero", "ok": n != zero2},
        {"name": "nilpotent_squares_to_zero", "ok": quotient_product(n, n, d) == zero2},
    ]


def _require(checks: list[dict]) -> None:
    """Raises InvalidStructure naming the first failing check."""
    for check in checks:
        if not check["ok"]:
            raise InvalidStructure(f"witness check {check['name']} fails")


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
        _require(nilpotent_witness_checks(nilpotent, d))
        return QuadraticAnalysis(LOCAL, nilpotent=nilpotent, sqrt_d=root)
    half = inv(field.from_int(2))
    root_inv = inv(root)
    e_plus = (half, half * root_inv)
    e_minus = (half, -(half * root_inv))
    _require(split_witness_checks(e_plus, e_minus, d))
    return QuadraticAnalysis(SPLIT, e_plus=e_plus, e_minus=e_minus, sqrt_d=root)
