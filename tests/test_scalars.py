import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthocurrent.scalars import (
    KIND_FUNFIELD,
    KIND_QUADEXT,
    KIND_RATIONALS,
    MAX_TOWER_HEIGHT,
    DivisionByZero,
    DomainError,
    FieldElement,
    DescriptorMismatch,
    ParseError,
    Poly,
    _WIDE_DIVISION_FROM,
    _WIDE_PRODUCT_FROM,
    dot,
    function_field,
    inv,
    is_square,
    parse_field,
    parse_scalar,
    poly_gcd,
    prime_field,
    pth_root,
    quadratic_extension,
    rationals,
    render_field,
    render_scalar,
)

from reference import (
    common_denominator,
    funfield_sqrt,
    poly_power,
    poly_squarefree,
    random_element,
    schoolbook_divmod,
    schoolbook_mul,
    trimmed,
)

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F2T = function_field(2, "t")
F3T = function_field(3, "t")


def el(lit, field):
    return parse_scalar(lit, field)


def test_parse_reduces_fractions():
    assert el("3/6", Q) == el("1/2", Q)
    assert render_scalar(el("3/6", Q)) == "1/2"


def test_parse_prime_residue():
    assert el("5", F3) == F3.from_int(2)
    assert el("-1", F3) == F3.from_int(2)


def test_parse_funfield_division():
    # (t^2+t)/t = t+1 over F_2
    assert el("(t^2+t)/(t)", F2T) == el("t+1", F2T)


def test_parse_fraction_with_zero_denominator_rejected():
    with pytest.raises(DomainError):
        el("1/2", F2)


def test_parse_malformed():
    for bad in ["", "t++1", "(t", "x+1", "1/2/3"]:
        with pytest.raises((ParseError, DomainError)):
            el(bad, F2T)


def test_parse_render_round_trip():
    rng = random.Random(7)
    qext = quadratic_extension(Q, Q.from_int(2))
    f3ext = quadratic_extension(F3, F3.from_int(2))
    f2text = quadratic_extension(F2T, el("t", F2T))
    for field in [Q, F2, F3, F5, F2T, F3T, qext, f3ext, f2text]:
        for _ in range(50):
            x = random_element(field, rng)
            assert parse_scalar(render_scalar(x), field) == x


def test_field_literal_round_trip():
    for lit in ["Q", "F3", "F2(t)", "F5(u)", "Q[sqrt 2]", "F2(t)[sqrt t]"]:
        assert render_field(parse_field(lit)) == lit


def test_field_towers_are_bounded():
    """At most MAX_TOWER_HEIGHT square roots in a row: a taller literal is
    refused before any level is parsed, and an extension of a field at the
    bound is refused before its radicand is tested for a square."""
    radicands = ["2", "3", "5", "7"]
    literal = "Q" + "".join(f"[sqrt {r}]" for r in radicands[:MAX_TOWER_HEIGHT])
    top = parse_field(literal)
    assert top.base.base.base == Q
    for tall in (literal + "[sqrt 7]", "Q" + "[sqrt 2]" * 3000):
        with pytest.raises(ParseError, match="at most 3 square roots"):
            parse_field(tall)
    with pytest.raises(DomainError, match="at most 3 square roots"):
        quadratic_extension(top, top.from_int(7))


def test_prime_field_requires_prime():
    with pytest.raises(DomainError):
        prime_field(6)
    with pytest.raises(ParseError):
        parse_field("F4")


def test_inv_examples():
    assert inv(F5.from_int(2)) == F5.from_int(3)
    t = el("t", F2T)
    assert inv(t) == el("1/t", F2T) == el("(1)/(t)", F2T)
    qext = quadratic_extension(Q, Q.from_int(2))
    x = el("1+1*r", qext)
    assert inv(x) == el("-1+1*r", qext)
    assert x * inv(x) == qext.one()
    with pytest.raises(DivisionByZero):
        inv(Q.zero())


def test_cross_field_arithmetic_rejected():
    with pytest.raises(DescriptorMismatch):
        Q.one() + F3.one()


def test_is_square_rationals():
    assert is_square(el("4/9", Q)) == el("2/3", Q)
    assert is_square(el("-1", Q)) is None
    assert is_square(el("2", Q)) is None
    assert is_square(Q.zero()) == Q.zero()


def test_is_square_prime_agrees_with_enumeration():
    for p in (2, 3, 5, 7, 11):
        field = prime_field(p)
        squares = {(r * r) % p: None for r in range(p)}
        for x in range(p):
            root = is_square(field.from_int(x))
            if x in squares:
                assert root is not None and root * root == field.from_int(x)
            else:
                assert root is None
    # squares mod 3 are {0, 1}
    assert is_square(F3.from_int(2)) is None


def test_is_square_funfield():
    assert is_square(el("t^2", F2T)) == el("t", F2T)
    assert is_square(el("t", F2T)) is None
    assert is_square(el("t^2+1", F2T)) == el("t+1", F2T)
    assert is_square(el("(t^2)/(t^2+1)", F2T)) == el("(t)/(t+1)", F2T)
    # over F_3: unit part must be a square residue as well
    assert is_square(el("t^2", F3T)) == el("t", F3T)
    assert is_square(el("2*t^2", F3T)) is None


def test_is_square_quadratic_extension():
    qext = quadratic_extension(Q, Q.from_int(2))
    # (1+r)^2 = 3+2r
    x = el("3+2*r", qext)
    root = is_square(x)
    assert root is not None and root * root == x
    assert is_square(el("2", qext)) is not None  # adjoined root of 2
    f2text = quadratic_extension(F2T, el("t", F2T))
    # in characteristic 2 anything along r is a non-square
    assert is_square(el("(t)*r", f2text)) is None
    # and every base element becomes a square: t+1 = (1+r)^2 with r^2 = t
    y = el("t+1", f2text)
    root = is_square(y)
    assert root is not None and root * root == y


def test_every_f2_element_is_a_square():
    for x in (F2.zero(), F2.one()):
        root = is_square(x)
        assert root is not None and root * root == x


def test_pth_root():
    assert pth_root(el("t^2", F2T)) == el("t", F2T)
    assert pth_root(el("t", F2T)) is None
    assert pth_root(el("t^3", F3T)) == el("t", F3T)
    assert pth_root(el("t", F3T)) is None
    assert pth_root(F5.from_int(3)) == F5.from_int(3)


def test_poly_gcd_examples():
    t2t = Poly(2, (0, 1, 1))  # t^2+t
    t = Poly(2, (0, 1))
    assert poly_gcd(t2t, t) == t
    # t^2+1 = (t+1)^2 in characteristic 2
    assert poly_gcd(Poly(2, (1, 0, 1)), Poly(2, (1, 1))) == Poly(2, (1, 1))
    f = Poly(5, (2, 4))
    assert poly_gcd(f, Poly(5, ())) == f.monic()
    with pytest.raises(DomainError):
        poly_gcd(Poly(5, ()), Poly(5, ()))


def test_poly_squarefree_examples():
    # The reference decomposition that the root tests compare against.
    t = Poly(2, (0, 1))
    assert poly_squarefree(Poly(2, (0, 0, 1))) == [(t, 2)]
    # derivative vanishes: t^2+1 = (t+1)^2
    assert poly_squarefree(Poly(2, (1, 0, 1))) == [(Poly(2, (1, 1)), 2)]
    assert poly_squarefree(Poly(2, (0, 1, 1))) == [(Poly(2, (0, 1, 1)), 1)]
    # mixed multiplicities over F_3: t^2 (t+1)^3
    f = Poly(3, (0, 0, 1)) * poly_power(Poly(3, (1, 1)), 3)
    decomp = poly_squarefree(f)
    rebuilt = Poly.const(3, 1)
    for g, m in decomp:
        rebuilt = rebuilt * poly_power(g, m)
    assert rebuilt == f.monic()
    assert sorted(m for _, m in decomp) == [2, 3]
    # Yun's loop leaves t^3 over F_3 in t^3 (t + 1): the p-th-root step
    t3 = Poly(3, (0, 1))
    assert poly_squarefree(Poly(3, (0, 0, 0, 1, 1))) == [(Poly(3, (1, 1)), 1), (t3, 3)]


def _random_ratio(field, rng, num_degree, den_degree):
    p = field.p
    one = Poly.const(p, 1)
    num = Poly(p, [rng.randrange(p) for _ in range(num_degree)] + [rng.randrange(1, p)])
    den = Poly(p, [rng.randrange(p) for _ in range(den_degree)] + [1])
    return FieldElement(field, (num, one)) / FieldElement(field, (den, one))


# Numerator and denominator degrees of the drawn y: both ends of 0..40 on
# each side, and a few between.
ROOT_DEGREES = ((0, 0), (0, 40), (40, 0), (1, 1), (2, 7), (13, 4), (20, 20), (40, 40))


@pytest.mark.parametrize("p", [2, 3, 5, 1000003])
def test_funfield_roots_match_the_squarefree_reference(p):
    """is_square over F_p(t) decides as the squarefree decomposition does
    and returns its root, on x, y^2, t y^2 and n y^2 for a non-residue n;
    pth_root inverts Frobenius and finds no root of t y^p."""
    field = function_field(p, "t")
    t = el("t", field)
    rng = random.Random(p)
    nonresidue = next((n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1), None)
    for num_degree, den_degree in ROOT_DEGREES:
        x = _random_ratio(field, rng, num_degree, den_degree)
        y = _random_ratio(field, rng, num_degree, den_degree)
        draws = [x, y * y, t * y * y]
        if nonresidue is not None:
            draws.append(field.from_int(nonresidue) * y * y)
        for z in draws:
            root = is_square(z)
            assert root == funfield_sqrt(z), (p, render_scalar(z))
            assert root is None or root * root == z
        assert is_square(y * y) is not None
        if p < 10:
            assert pth_root(y ** p) == y
            assert pth_root(t * y ** p) is None


def test_funfield_roots_at_the_largest_prime():
    # Nothing is built per residue, so the largest accepted prime is cheap.
    field = function_field(3825123056546412979, "t")
    assert is_square(el("4*t^2+8*t+4", field)) == el("2*t+2", field)
    assert pth_root(el("t+1", field)) is None


def test_canonical_idempotence_and_hash():
    rng = random.Random(3)
    for field in [Q, F3, F2T]:
        for _ in range(30):
            x = random_element(field, rng)
            y = parse_scalar(render_scalar(x), field)
            assert x == y and hash(x) == hash(y)


def test_field_axioms_randomized():
    rng = random.Random(11)
    qext = quadratic_extension(Q, Q.from_int(2))
    f2text = quadratic_extension(F2T, el("t", F2T))
    for field in [Q, F2, F3, F5, F2T, F3T, qext, f2text]:
        one = field.one()
        for _ in range(25):
            x = random_element(field, rng)
            y = random_element(field, rng)
            z = random_element(field, rng)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x + y == y + x
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == field.zero()
            if not x.is_zero():
                assert x * inv(x) == one


def test_is_square_root_squares_back():
    rng = random.Random(5)
    for field in [Q, F3, F5, F2T, F3T]:
        for _ in range(40):
            x = random_element(field, rng)
            root = is_square(x)
            if root is not None:
                assert root * root == x
            sq = x * x
            root2 = is_square(sq)
            assert root2 is not None and root2 * root2 == sq


def test_quadratic_extension_requires_non_square():
    with pytest.raises(DomainError):
        quadratic_extension(Q, Q.from_int(4))
    with pytest.raises(DomainError):
        quadratic_extension(Q, Q.zero())


# ---------------------------------------------------------------------------
# Kernels: primality, square roots in F_p, polynomial arithmetic.
# ---------------------------------------------------------------------------

SMALL_PRIMES = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


def test_miller_rabin_accepts_large_prime_quickly():
    start = time.perf_counter()
    field = prime_field(2**61 - 1)
    assert time.perf_counter() - start < 1.0
    assert render_field(field) == "F2305843009213693951"


def test_miller_rabin_rejects_composites():
    # Carmichael numbers, and a strong pseudoprime to bases 2, 3, 5 and 7
    for n in (561, 1105, 3215031751):
        with pytest.raises(DomainError):
            prime_field(n)

    def accepted(n):
        try:
            prime_field(n)
        except DomainError:
            return False
        return True

    assert [n for n in range(200) if accepted(n)] == SMALL_PRIMES


def test_primality_refused_above_bound():
    with pytest.raises(DomainError):
        prime_field(3825123056546413053)
    with pytest.raises(ParseError):
        parse_field("F3825123056546413053(t)")


def test_large_prime_field_is_cheap():
    # no per-residue state: a field of size 10^9 sets up and computes at once
    start = time.perf_counter()
    field = prime_field(1000000007)
    minus_one = field.from_int(-1)
    assert minus_one.payload == 1000000006 and minus_one * minus_one == field.one()
    assert is_square(field.from_int(4)) == field.from_int(2)
    assert time.perf_counter() - start < 1.0


def test_tonelli_shanks_least_root_small_primes():
    # covers p = 1 mod 8 (17, 97, 193), where the 2-power loop runs longest
    for p in SMALL_PRIMES:
        field = prime_field(p)
        least = {}
        for r in range(p - 1, -1, -1):
            least[r * r % p] = r
        for x in range(p):
            root = is_square(field.from_int(x))
            if x in least:
                assert root == field.from_int(least[x]), (p, x)
            else:
                assert root is None, (p, x)


def test_tonelli_shanks_large_primes():
    rng = random.Random(17)
    for p in (1000003, 2**61 - 1):
        field = prime_field(p)
        for _ in range(50):
            x = rng.randrange(p)
            sq = field.from_int(x * x)
            root = is_square(sq)
            r = root.payload
            assert r * r % p == sq.payload and r <= p - r
        nonresidues = [x for x in range(2, 60) if pow(x, (p - 1) // 2, p) == p - 1]
        assert nonresidues and all(is_square(field.from_int(x)) is None for x in nonresidues)


def _poly_strategy(p):
    return st.lists(st.integers(0, p - 1), max_size=12).map(lambda c: Poly(p, c))


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_poly_kernels_match_schoolbook(p, data):
    a = data.draw(_poly_strategy(p))
    b = data.draw(_poly_strategy(p))
    prod = a * b
    assert list(prod.coeffs) == schoolbook_mul(a.coeffs, b.coeffs, p)
    assert list((a + b).coeffs) == trimmed(
        [(x + y) % p for x, y in zip(a.coeffs + (0,) * 12, b.coeffs + (0,) * 12)]
    )
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert (list(q.coeffs), list(r.coeffs)) == schoolbook_divmod(a.coeffs, b.coeffs, p)
    assert q * b + r == a and r.degree < b.degree
    g = poly_gcd(a, b)
    assert g.leading == 1
    assert divmod(a, g)[1].is_zero() and divmod(b, g)[1].is_zero()
    # any common divisor divides the gcd: here, the gcd of a*c and b*c
    c = data.draw(_poly_strategy(p).filter(lambda f: not f.is_zero()))
    assert divmod(poly_gcd(a * c, b * c), c.monic())[1].is_zero()


KERNEL_PRIMES = [3, 5, 7, 11, 13, 1000003, 3825123056546412979]


def _critical_terms(p, top, cap):
    """Numbers of terms t <= cap on both sides of every lane-width step:
    a lane holding top + t (p - 1)^2 needs more bytes at t than at t - 1,
    so t - 1 is the exact bound of the narrower lane.  The steps where
    packed lanes take over from the coefficient loop are included too."""
    def width(t):
        return (top + t * (p - 1) ** 2).bit_length() + 7 >> 3

    steps = [t for t in range(2, cap + 1) if width(t) != width(t - 1)]
    steps += [2, _WIDE_PRODUCT_FROM, _WIDE_DIVISION_FROM]
    return sorted({s for t in steps for s in (t - 1, t) if s >= 1})


def _extremal_remainder_case(p, terms, steps):
    """num, div, quotient and remainder in which lane terms - 1 of the
    remainder starts at p - 1 and gains (p - 1)^2 at each of `terms`
    steps: div = t^terms + (p - 1)(1 + ... + t^(terms-1)), the quotient is
    `steps` >= terms coefficients 1, and remainder coefficient m is m mod p."""
    div = [p - 1] * terms + [1]
    quot = [1] * steps
    rem = [m % p for m in range(terms)]
    prod = schoolbook_mul(quot, div, p)
    num = [(x + (rem[i] if i < terms else 0)) % p for i, x in enumerate(prod)]
    return num, div, quot, rem


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_packed_kernels_at_every_lane_bound(p):
    """All coefficients p - 1 put the product's middle lane exactly at
    terms (p - 1)^2, and the extremal remainder puts a lane exactly at
    p - 1 + terms (p - 1)^2: both at the last term count of each lane
    width and the first of the next.  The remainder runs both with as many
    steps as terms and with enough steps to take the packed lanes."""
    for terms in _critical_terms(p, 0, 300):
        a = Poly(p, [p - 1] * terms)
        assert list((a * a).coeffs) == schoolbook_mul(a.coeffs, a.coeffs, p)
    for terms in _critical_terms(p, p - 1, 300):
        for steps in {terms, max(terms, _WIDE_DIVISION_FROM)}:
            num, div, quot, rem = _extremal_remainder_case(p, terms, steps)
            assert schoolbook_divmod(num, div, p) == (quot, schoolbook_mul(rem, [1], p))
            q, r = divmod(Poly(p, num), Poly(p, div))
            assert (list(q.coeffs), list(r.coeffs)) == schoolbook_divmod(num, div, p)


def _near_extremal(p, n):
    coeff = st.one_of(st.just(p - 1), st.integers(0, p - 1))
    return st.lists(coeff, min_size=n, max_size=n).map(lambda c: c[:-1] + [c[-1] or 1])


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_packed_kernels_match_schoolbook_around_the_lane_bounds(p, data):
    """Products with min(len a, len b) and remainders with min(deg div,
    number of steps) on both sides of each lane bound up to 70 terms."""
    terms = data.draw(st.sampled_from(_critical_terms(p, 0, 70)))
    a = data.draw(_near_extremal(p, terms))
    b = data.draw(_near_extremal(p, terms + data.draw(st.integers(0, 3))))
    assert list((Poly(p, a) * Poly(p, b)).coeffs) == schoolbook_mul(a, b, p)
    terms = data.draw(st.sampled_from(_critical_terms(p, p - 1, 70)))
    div = data.draw(_near_extremal(p, terms + 1))
    num = data.draw(_near_extremal(p, 2 * terms + data.draw(st.integers(0, 3))))
    q, r = divmod(Poly(p, num), Poly(p, div))
    assert (list(q.coeffs), list(r.coeffs)) == schoolbook_divmod(num, div, p)
    g = poly_gcd(Poly(p, num), Poly(p, div))
    assert g.leading == 1 and divmod(Poly(p, div), g)[1].is_zero()


DOT_FIELDS = ["Q", "F5", "F3(t)", "F2(t)", "F3[sqrt 2]", "F2(t)[sqrt t+1]"]


@pytest.mark.parametrize("literal", DOT_FIELDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), size=st.integers(0, 6), zeros=st.integers(0, 3))
def test_dot_is_the_sum_of_products(literal, seed, size, zeros):
    """Up to `zeros` random entries of each vector are zero; sizes 0 and
    1 and all-zero vectors occur among the examples."""
    field = parse_field(literal)
    rng = random.Random(seed)
    xs = [random_element(field, rng) for _ in range(size)]
    ys = [random_element(field, rng) for _ in range(size)]
    for vec in (xs, ys):
        for _ in range(min(zeros, size)):
            vec[rng.randrange(size)] = field.zero()
    expected = field.zero()
    for x, y in zip(xs, ys):
        expected = expected + x * y
    assert dot(field, xs, ys) == expected
    assert dot(field, xs, [field.zero()] * size) == field.zero()


def test_dot_refuses_mixed_fields():
    x3, x5 = F3.one(), F5.one()
    for xs, ys in [([x3, x5], [x3, x3]), ([x3], [x5]), ([x3], [1])]:
        with pytest.raises(DescriptorMismatch):
            dot(F3, xs, ys)
    with pytest.raises(DescriptorMismatch):
        dot(F5, [x3], [x3])


COMMON_DENOMINATOR_FIELDS = [
    "Q", "F2", "F3", "F5", "F2(t)", "F3(t)", "F3[sqrt 2]", "F2(t)[sqrt t+1]",
]


def _integral(x):
    kind = x.field.kind
    if kind == KIND_RATIONALS:
        return x.payload.denominator == 1
    if kind == KIND_FUNFIELD:
        return x.payload[1].is_one()
    if kind == KIND_QUADEXT:
        return all(_integral(c) for c in x.payload)
    return True


def _lcm_of_denominators(field, xs):
    """Pairwise a*b/gcd(a, b), without the reference's deduplication."""
    if field.kind == KIND_RATIONALS:
        out = 1
        for x in xs:
            den = x.payload.denominator
            out = out * den // math.gcd(out, den)
        return field.from_int(out)
    out = Poly.const(field.p, 1)
    for x in xs:
        den = x.payload[1]
        out = (out * den // poly_gcd(out, den)).monic()
    return FieldElement(field, (out, Poly.const(field.p, 1)))


@pytest.mark.parametrize("literal", COMMON_DENOMINATOR_FIELDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), size=st.integers(0, 8))
def test_common_denominator_clears_every_entry(literal, seed, size):
    field = parse_field(literal)
    rng = random.Random(seed)
    xs = [random_element(field, rng) for _ in range(size)]
    d = common_denominator(field, xs)
    assert not d.is_zero()
    assert all(_integral(d * x) for x in xs)
    if not xs:
        assert d == field.one()
    if field.kind in (KIND_RATIONALS, KIND_FUNFIELD):
        assert d == _lcm_of_denominators(field, xs)
