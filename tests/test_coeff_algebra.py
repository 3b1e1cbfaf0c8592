import random

import pytest

from orthocurrent import coeff_algebra
from orthocurrent.coeff_algebra import (
    FIELD,
    LOCAL,
    SPLIT,
    ZeroDiscriminant,
    analyze_quadratic,
)
from orthocurrent.liealg import InvalidStructure, quotient_product
from orthocurrent.scalars import (
    function_field,
    is_square,
    parse_scalar,
    prime_field,
    rationals,
)

from reference import random_element

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F2T = function_field(2, "t")


def test_quadratic_quotient_examples():
    for field, lit in [(Q, "1"), (Q, "24"), (F2T, "t")]:
        d = parse_scalar(lit, field)
        x = (field.zero(), field.one())
        assert quotient_product(x, x, d) == (d, field.zero())
    with pytest.raises(ZeroDiscriminant):
        analyze_quadratic(Q.zero())


def test_power_quotient():
    s = parse_scalar("t", F2T)
    one, zero = F2T.one(), F2T.zero()
    x = (zero, one, zero)
    assert quotient_product(x, x, s) == (zero, zero, one)
    assert quotient_product(quotient_product(x, x, s), x, s) == (s, zero, zero)


def test_analyze_split():
    analysis = analyze_quadratic(Q.from_int(4))
    assert analysis.variant == SPLIT
    assert analysis.e_plus == (Q.from_fraction(1, 2), Q.from_fraction(1, 4))
    d = Q.from_int(4)
    mul = lambda u, v: quotient_product(u, v, d)
    assert mul(analysis.e_plus, analysis.e_plus) == analysis.e_plus
    e = analysis.sqrt_d
    # The two evaluations x -> e and x -> -e realize the splitting A = F x F.
    p_plus = lambda w: w[0] + w[1] * e
    p_minus = lambda w: w[0] - w[1] * e
    rng = random.Random(0)
    for _ in range(20):
        u = (random_element(Q, rng), random_element(Q, rng))
        v = (random_element(Q, rng), random_element(Q, rng))
        prod = mul(u, v)
        assert p_plus(prod) == p_plus(u) * p_plus(v)
        assert p_minus(prod) == p_minus(u) * p_minus(v)


def test_analyze_local_char2():
    analysis = analyze_quadratic(F2.one())
    assert analysis.variant == LOCAL
    n = analysis.nilpotent
    assert n == (F2.one(), F2.one())
    assert quotient_product(n, n, F2.one()) == (F2.zero(), F2.zero())


def test_analyze_field():
    analysis = analyze_quadratic(F3.from_int(2))
    assert analysis.variant == FIELD
    assert is_square(F3.from_int(2)) is None
    ext = analysis.extension
    r = parse_scalar("1*r", ext)
    assert r * r == ext.from_int(2)


def test_analyze_field_imperfect():
    t = parse_scalar("t", F2T)
    analysis = analyze_quadratic(t)
    assert analysis.variant == FIELD


def test_variant_is_function_of_char_and_square_class():
    rng = random.Random(3)
    for field in [Q, F2, F3, F2T]:
        char2 = field.characteristic() == 2
        for _ in range(15):
            d = random_element(field, rng, nonzero=True)
            analysis = analyze_quadratic(d)
            square = is_square(d) is not None
            if not square:
                assert analysis.variant == FIELD
            elif char2:
                assert analysis.variant == LOCAL
            else:
                assert analysis.variant == SPLIT


@pytest.mark.parametrize("field, d, wrong_root", [(F3, 2, 1), (prime_field(5), 4, 1), (F2, 1, 0)])
def test_witness_invariants_raise_without_assert(monkeypatch, field, d, wrong_root):
    """A bad square root breaks the witness identities; the check raises
    InvalidStructure, which `python -O` does not strip, naming the first
    failing witness check."""
    monkeypatch.setattr(coeff_algebra, "is_square", lambda x: field.from_int(wrong_root))
    first = "nilpotent_squares_to_zero" if field.characteristic() == 2 else "e_plus_idempotent"
    with pytest.raises(InvalidStructure, match=f"witness check {first} fails"):
        analyze_quadratic(field.from_int(d))

