"""Analysis of F[X]/(X^2 - D), and the local case F[X]/(X - r)^p.

For a nonzero D the quotient is one of three things, and the distinction
drives the whole decomposition story: it splits as F x F when D is a
square and the characteristic is not 2 (witnessed by a pair of
complementary idempotents), it is local when D is a square in
characteristic 2, and a quadratic field extension when D is not a square.
`local_powers` builds the local case for every p, for `classify` at p = 2
and r = sqrt D and for the counterexample at r = u.  Every witness passes
its identities, `split_witness_checks` or `nilpotent_witness_checks`,
before it is handed out; the checker reports the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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


def nilpotent_witness_checks(powers: Sequence[Vector], s: FieldElement) -> list[dict]:
    """The identities that make powers = n, n^2, ..., n^(p-1) those of a
    nilpotent n of index p in F[X]/(X^p - s), as checks: n^(p-1) nonzero,
    and n^p = n^(p-1) n zero."""
    zero = (s.field.zero(),) * (len(powers) + 1)
    return [
        {"name": "nilpotent_nonzero", "ok": powers[-1] != zero},
        {"name": "nilpotent_squares_to_zero",
         "ok": quotient_product(powers[-1], powers[0], s) == zero},
    ]


def _require(checks: list[dict]) -> None:
    """Raises InvalidStructure naming the first failing check."""
    for check in checks:
        if not check["ok"]:
            raise InvalidStructure(f"witness check {check['name']} fails")


def local_powers(r: FieldElement, s: FieldElement, p: int) -> list[Vector]:
    """(x - r)^k, k = 1..p-1, in F[X]/(X^p - s), once they pass
    `nilpotent_witness_checks`: in characteristic p exactly when r^p = s,
    and then they span the maximal ideal of F[X]/(X - r)^p."""
    powers = [(-r, r.field.one()) + (r.field.zero(),) * (p - 2)]
    while len(powers) < p - 1:
        powers.append(quotient_product(powers[-1], powers[0], s))
    _require(nilpotent_witness_checks(powers, s))
    return powers


def analyze_quadratic(d: FieldElement) -> QuadraticAnalysis:
    """Classify F[X]/(X^2 - D) and return re-verified witnesses."""
    if d.is_zero():
        raise ZeroDiscriminant("discriminant must be nonzero")
    field = d.field
    root = is_square(d)
    if root is None:
        return QuadraticAnalysis(FIELD, extension=quadratic_extension(field, d))
    if field.characteristic() == 2:
        [nilpotent] = local_powers(root, d, 2)
        return QuadraticAnalysis(LOCAL, nilpotent=nilpotent, sqrt_d=root)
    half = inv(field.from_int(2))
    root_inv = inv(root)
    e_plus = (half, half * root_inv)
    e_minus = (half, -(half * root_inv))
    _require(split_witness_checks(e_plus, e_minus, d))
    return QuadraticAnalysis(SPLIT, e_plus=e_plus, e_minus=e_minus, sqrt_d=root)
