"""Exact scalar arithmetic for every coefficient domain the library uses.

Four kinds of field are available: the rationals Q, prime fields F_p,
rational function fields F_p(t), and quadratic extensions F[sqrt(D)] for a
non-square D of the base field F.  Elements are immutable and always kept
in canonical form (reduced fractions, least residues, coprime numerator
and monic denominator, coordinate pairs over the base), so structural
equality coincides with mathematical equality and elements are hashable.

Square roots are decided constructively: integer square roots for Q,
Tonelli-Shanks for F_p, roots read off the coefficients of numerator and
denominator for F_p(t) (top-down for odd p, the Frobenius inverse for
p = 2), and a norm argument (characteristic not 2) or Frobenius-part
decomposition (characteristic 2) for quadratic extensions.

Polynomials over F_2 multiply and divide as bit-vector ints; over odd p,
as packed ints with one lane per coefficient, wide enough that no carry
crosses a lane, except below measured crossovers, where a coefficient
loop is faster.  `dot` sums products and normalizes once, at the end.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional


class DomainError(ValueError):
    """The requested value does not exist in the given field."""


class ParseError(ValueError):
    """A scalar or field literal is malformed."""


class DivisionByZero(ZeroDivisionError):
    """Division or inversion of zero."""


class DescriptorMismatch(ValueError):
    """Operands belong to different fields."""


# Deterministic Miller-Rabin: the first nine prime bases decide primality for
# every n below this bound (Jaeschke, Math. Comp. 61, 1993).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
_MR_BOUND = 3825123056546413051


def _is_prime(p: int) -> bool:
    # Miller-Rabin with a base set proven deterministic below _MR_BOUND;
    # larger moduli are refused rather than decided probabilistically.
    if p < 2:
        return False
    if p >= _MR_BOUND:
        raise DomainError(f"primality of {p} is not decided above {_MR_BOUND - 1}")
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Polynomials over F_p (dense coefficient tuples, ascending degree).
# ---------------------------------------------------------------------------


def _trim(coeffs: list) -> tuple:
    """Tuple of already reduced coefficients without trailing zeros."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class Poly:
    """Polynomial over F_p with coefficients in [0, p); no trailing zeros.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Over F_2 the arithmetic kernels also use the polynomial as a bit-vector
    int (bit i is the coefficient of t^i), cached in `_bits`.
    """

    __slots__ = ("p", "coeffs", "_bits")

    def __init__(self, p: int, coeffs, normalize: bool = True):
        if normalize:
            coeffs = _trim([c % p for c in coeffs])
        self.p = p
        self.coeffs = coeffs
        self._bits = None

    @classmethod
    def const(cls, p: int, c: int) -> Poly:
        c %= p
        return cls(p, (c,) if c else (), normalize=False)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __add__(self, other: Poly) -> Poly:
        p = self.p
        if p == 2:
            return _poly2(_bits(self) ^ _bits(other))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Poly(p, _trim(out), normalize=False)

    def __neg__(self) -> Poly:
        p = self.p
        if p == 2:
            return self
        return Poly(p, tuple((-c) % p for c in self.coeffs), normalize=False)

    def __mul__(self, other: Poly) -> Poly:
        p = self.p
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(p, (), normalize=False)
        if p == 2:
            return _poly2(_clmul(_bits(self), _bits(other)))
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        # Lane k of the product sums at most min(len(a), len(b)) products
        # of two residues.
        terms = min(len(a), len(b))
        w = _lane_bytes(terms * (p - 1) ** 2, terms, _WIDE_PRODUCT_FROM)
        if w:
            return Poly(p, _unpack(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1, w, p),
                        normalize=False)
        # Accumulate unreduced and reduce once, one pass per coefficient of
        # the shorter factor; the top coefficient is a product of two
        # units, so no trailing zero can appear.
        if len(a) > len(b):
            a, b = b, a
        nb = len(b)
        out = [0] * (len(a) + nb - 1)
        for i, ca in enumerate(a):
            if ca:
                out[i:i + nb] = [x + ca * y for x, y in zip(out[i:i + nb], b)]
        return Poly(p, tuple(c % p for c in out), normalize=False)

    def scale(self, s: int) -> Poly:
        p = self.p
        s %= p
        if s == 0:
            return Poly(p, (), normalize=False)
        if s == 1:
            return self
        return Poly(p, tuple(s * c % p for c in self.coeffs), normalize=False)

    def __divmod__(self, other: Poly):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        p = self.p
        if p == 2:
            q, r = _divmod2(_bits(self), _bits(other))
            return _poly2(q), _poly2(r)
        oc = other.coeffs
        if len(oc) == 1:
            return self.scale(pow(oc[0], -1, p)), Poly(p, (), normalize=False)
        if len(self.coeffs) < len(oc):
            return Poly(p, (), normalize=False), self
        quot, rem = _divmod_coeffs(self.coeffs, oc, p)
        return Poly(p, quot, normalize=False), Poly(p, rem, normalize=False)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def monic(self) -> Poly:
        if self.is_zero() or self.leading == 1:
            return self
        return self.scale(pow(self.leading, -1, self.p))

    def __repr__(self) -> str:
        return f"Poly(p={self.p}, coeffs={self.coeffs})"


# Odd-p F_p[t] products and remainders on packed ints, coefficient i in
# lane i of w bytes (Kronecker substitution; Harvey, J. Symbolic Comput.
# 44, 2009).  Each kernel bounds the value its lanes can reach and takes
# the narrowest lane above the bound, so no carry crosses into the next
# lane, and it reduces the lanes mod p once, when it unpacks them.

# Byte lanes are packed by bytes() and reduced by one bytes.translate, so
# they pay from 2 steps (products per lane, or division steps).  Wider
# lanes are converted one at a time and pay only from these many, at
# every width from 2 to 16 bytes (docs/DESIGN.md, "Scalar kernels").
_WIDE_PRODUCT_FROM, _WIDE_DIVISION_FROM = 5, 6
_MOD_TABLES: dict[int, bytes] = {}


def _lane_bytes(bound: int, steps: int, wide_from: int) -> int:
    """Bytes per lane for lane values up to `bound`, or 0 where the
    coefficient loop is faster: below 2 steps at byte lanes and below
    `wide_from` at wider ones."""
    w = (bound.bit_length() + 7) // 8
    return w if steps >= (2 if w == 1 else wide_from) else 0


def _pack(coeffs, w: int) -> int:
    """The int holding coefficient i in lane i; each must fit in w bytes."""
    if w == 1:
        return int.from_bytes(bytes(coeffs), "little")
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in coeffs]), "little")


def _unpack(n: int, count: int, w: int, p: int) -> tuple:
    """The `count` lanes of n reduced mod p, without trailing zeros."""
    buf = n.to_bytes(count * w, "little")
    if w > 1:
        return _trim([int.from_bytes(buf[i:i + w], "little") % p for i in range(0, len(buf), w)])
    table = _MOD_TABLES.get(p)  # one-byte lanes, so p < 256
    if table is None:
        table = _MOD_TABLES[p] = bytes(i % p for i in range(256))
    return tuple(buf.translate(table).rstrip(b"\0"))


def _divmod_coeffs(num, div, p: int) -> tuple[tuple, tuple]:
    """Quotient and remainder of the coefficient tuple num by div, for odd
    p and len(num) >= len(div) >= 2.

    Step k takes c from lane k + nb and subtracts c * low << k, low the
    divisor below its leading coefficient.  Packed, it adds (p - c) * low
    instead, so a lane gains at most (p - 1)^2 per step, from at most
    min(nb, number of steps) steps; the lanes above the remainder are
    left as they are.
    """
    nb = len(div) - 1
    nq = len(num) - nb
    w = _lane_bytes(p - 1 + min(nb, nq) * (p - 1) ** 2, nq, _WIDE_DIVISION_FROM)
    inv_lead = pow(div[nb], -1, p)
    low = div[:nb]
    quot = [0] * nq
    if w:
        bits = 8 * w
        mask = (1 << bits) - 1
        rem, low = _pack(num, w), _pack(low, w)
        for k in range(nq - 1, -1, -1):
            c = (rem >> (bits * (k + nb)) & mask) * inv_lead % p
            if c:
                quot[k] = c
                rem += (p - c) * low << (bits * k)
        return tuple(quot), _unpack(rem & ((1 << (bits * nb)) - 1), nb, w, p)
    rem = list(num)
    for k in range(nq - 1, -1, -1):
        c = rem[k + nb] * inv_lead % p
        if c:
            quot[k] = c
            rem[k:k + nb] = [(x - c * y) % p for x, y in zip(rem[k:k + nb], low)]
    return tuple(quot), _trim(rem[:nb])


# F_2[t] kernels on bit-vector ints (Brent, Gaudry, Thome and Zimmermann,
# "Faster multiplication in GF(2)[x]", ANTS 2008): add is XOR, multiply is
# shift-and-XOR, and division steps by bit_length.


_DIGITS_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BITS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bits(f: Poly) -> int:
    b = f._bits
    if b is None:
        c = f.coeffs
        b = f._bits = int(bytes(reversed(c)).translate(_BITS_TO_DIGITS), 2) if c else 0
    return b


def _poly2(bits: int) -> Poly:
    coeffs = tuple(bin(bits)[:1:-1].encode().translate(_DIGITS_TO_BITS)) if bits else ()
    f = Poly(2, coeffs, normalize=False)
    f._bits = bits
    return f


def _clmul(a: int, b: int) -> int:
    if a.bit_length() < b.bit_length():
        a, b = b, a
    out = 0
    while b:
        low = b & -b
        out ^= a * low
        b ^= low
    return out


def _divmod2(a: int, b: int) -> tuple[int, int]:
    nb = b.bit_length()
    q = 0
    shift = a.bit_length() - nb
    while shift >= 0:
        q |= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - nb
    return q, a


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    if f.is_zero() and g.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    p = f.p
    if p == 2:
        a, b = _bits(f), _bits(g)
        while b:
            a, b = b, _divmod2(a, b)[1]
        return _poly2(a)
    if g.is_zero():
        return f.monic()
    # Euclid on coefficient tuples, keeping the divisor monic.
    a, b = f.coeffs, g.monic().coeffs
    while b:
        if len(a) >= len(b):
            a = _divmod_coeffs(a, b, p)[1] if len(b) > 1 else ()
        if a and a[-1] != 1:
            s = pow(a[-1], -1, p)
            a = tuple(c * s % p for c in a)
        a, b = b, a
    return Poly(p, a, normalize=False)


def _poly_pth_root(f: Poly) -> Optional[Poly]:
    """Exact p-th root of f in F_p[t], or None.

    In characteristic p a polynomial is a p-th power exactly when every
    exponent is a multiple of p; coefficients are fixed by Frobenius.
    """
    p = f.p
    coeffs = f.coeffs
    if any(c for i, c in enumerate(coeffs) if i % p):
        return None
    return Poly(p, coeffs[::p], normalize=False)


def _poly_sqrt(f: Poly) -> Optional[Poly]:
    """Square root of f in F_p[t] whose leading coefficient is the least
    residue, or None.

    For p = 2 squaring is Frobenius.  For odd p the root g of degree m is
    solved from the top: g_m is the root of f's leading coefficient, and
    the coefficient of t^(m+k) in g^2 gives
    g_k = (f_(m+k) - sum_(k<i<m) g_i g_(m+k-i)) / (2 g_m).  The candidate
    is then squared back.
    """
    p = f.p
    if p == 2:
        return _poly_pth_root(f)
    coeffs = f.coeffs
    n = len(coeffs) - 1
    if n < 0:
        return f
    if n % 2:
        return None
    lead = _prime_sqrt(coeffs[n], p)
    if lead is None:
        return None
    inv_2lead = pow(2 * lead, -1, p)
    # top[j] is g_(m-j), so the coefficient of t^(n-j) in g^2 is
    # sum_(i+l=j) top[i] top[l].
    top = [lead]
    for j in range(1, n // 2 + 1):
        rest = sum(top[i] * top[j - i] for i in range(1, j))
        top.append((coeffs[n - j] - rest) * inv_2lead % p)
    g = Poly(p, tuple(reversed(top)), normalize=False)
    return g if g * g == f else None


# ---------------------------------------------------------------------------
# Field descriptors.
# ---------------------------------------------------------------------------

KIND_RATIONALS = "rationals"
KIND_PRIME = "prime"
KIND_FUNFIELD = "function"
KIND_QUADEXT = "quadratic"

_RATIONALS_CACHE: Optional[FieldDescriptor] = None
_PRIME_CACHE: dict[int, "FieldDescriptor"] = {}
_FUNFIELD_CACHE: dict[tuple[int, str], "FieldDescriptor"] = {}


class FieldDescriptor:
    """Tag describing one of the supported exact fields.

    Instances of the three base kinds are interned, so identity comparison
    is the common fast path; quadratic extensions compare structurally.
    """

    __slots__ = ("kind", "p", "var", "base", "radicand", "fuses_sums", "_zero", "_one")

    def __init__(self, kind, p=None, var=None, base=None, radicand=None):
        self.kind = kind
        self.p = p
        self.var = var
        self.base = base
        self.radicand = radicand
        # Whether x + f y pays to run as the two-term `dot`: over F_p(t) and
        # its towers each separate result costs a polynomial gcd; over F_p,
        # Q and towers over F_p the direct x + f * y is faster.
        self.fuses_sums = kind == KIND_FUNFIELD or (kind == KIND_QUADEXT and base.fuses_sums)
        self._zero = None
        self._one = None

    def characteristic(self) -> int:
        if self.kind == KIND_RATIONALS:
            return 0
        if self.kind == KIND_QUADEXT:
            return self.base.characteristic()
        return self.p

    def zero(self) -> FieldElement:
        if self._zero is None:
            self._zero = self.from_int(0)
        return self._zero

    def one(self) -> FieldElement:
        if self._one is None:
            self._one = self.from_int(1)
        return self._one

    def from_int(self, n: int) -> FieldElement:
        if self.kind == KIND_RATIONALS:
            return FieldElement(self, Fraction(n))
        if self.kind == KIND_PRIME:
            return FieldElement(self, n % self.p)
        if self.kind == KIND_FUNFIELD:
            return FieldElement(
                self, (Poly.const(self.p, n), Poly.const(self.p, 1))
            )
        return FieldElement(self, (self.base.from_int(n), self.base.zero()))

    def from_fraction(self, num: int, den: int) -> FieldElement:
        if den == 0:
            raise DomainError("zero denominator")
        if self.kind == KIND_RATIONALS:
            return FieldElement(self, Fraction(num, den))
        d = self.from_int(den)
        if d.is_zero():
            raise DomainError(f"denominator {den} vanishes in {render_field(self)}")
        return self.from_int(num) / d

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldDescriptor):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == KIND_QUADEXT:
            return self.base == other.base and self.radicand == other.radicand
        return self.p == other.p and self.var == other.var

    def __hash__(self) -> int:
        if self.kind == KIND_QUADEXT:
            return hash((self.kind, self.base, self.radicand))
        return hash((self.kind, self.p, self.var))

    def __repr__(self) -> str:
        return f"FieldDescriptor({render_field(self)!r})"


def rationals() -> FieldDescriptor:
    global _RATIONALS_CACHE
    if _RATIONALS_CACHE is None:
        _RATIONALS_CACHE = FieldDescriptor(KIND_RATIONALS)
    return _RATIONALS_CACHE


def prime_field(p: int) -> FieldDescriptor:
    if p not in _PRIME_CACHE:
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        _PRIME_CACHE[p] = FieldDescriptor(KIND_PRIME, p=p)
    return _PRIME_CACHE[p]


def function_field(p: int, var: str = "t") -> FieldDescriptor:
    key = (p, var)
    if key not in _FUNFIELD_CACHE:
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        if not var.isidentifier():
            raise DomainError(f"bad variable name {var!r}")
        _FUNFIELD_CACHE[key] = FieldDescriptor(KIND_FUNFIELD, p=p, var=var)
    return _FUNFIELD_CACHE[key]


# Most square roots a field may adjoin in a row.  Each level multiplies
# the cost of arithmetic and square tests about five times, and the levels
# nest as recursion, so taller towers are refused, not run.
MAX_TOWER_HEIGHT = 3


def quadratic_extension(base: FieldDescriptor, radicand: FieldElement) -> FieldDescriptor:
    """Field obtained by adjoining a square root of a non-square radicand."""
    if radicand.field != base:
        raise DescriptorMismatch("radicand must live in the base field")
    height, below = 1, base
    while below.kind == KIND_QUADEXT:
        height, below = height + 1, below.base
    if height > MAX_TOWER_HEIGHT:
        raise DomainError(f"a field tower may adjoin at most {MAX_TOWER_HEIGHT} square roots")
    if radicand.is_zero():
        raise DomainError("radicand must be nonzero")
    if is_square(radicand) is not None:
        raise DomainError("radicand is already a square in the base field")
    if base.characteristic() == 2 and base.kind != KIND_FUNFIELD:
        # Characteristic-2 extensions are only reachable over F_2(t): every
        # element of F_2 is a square, and towers are out of scope.
        raise DomainError("characteristic-2 extension supported over F_p(t) only")
    if base.kind == KIND_FUNFIELD and base.var == "r":
        raise DomainError("variable name 'r' collides with the root symbol")
    return FieldDescriptor(KIND_QUADEXT, base=base, radicand=radicand)


# ---------------------------------------------------------------------------
# Field elements.
# ---------------------------------------------------------------------------


class FieldElement:
    """Immutable scalar in one of the supported fields.

    The payload is a Fraction (Q), an int in [0, p) (F_p), a coprime
    (numerator, monic denominator) Poly pair (F_p(t)), or a coordinate
    pair (u, v) over the base meaning u + v*sqrt(D).
    """

    __slots__ = ("field", "payload")

    def __init__(self, field: FieldDescriptor, payload):
        self.field = field
        self.payload = payload

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        kind = self.field.kind
        if kind == KIND_FUNFIELD:
            return not self.payload[0].coeffs
        if kind == KIND_QUADEXT:
            return self.payload[0].is_zero() and self.payload[1].is_zero()
        return self.payload == 0

    def is_one(self) -> bool:
        return self == self.field.one()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _same(self, other: FieldElement) -> None:
        if not isinstance(other, FieldElement):
            raise DescriptorMismatch(f"expected a field element, got {other!r}")
        if self.field is not other.field and self.field != other.field:
            raise DescriptorMismatch("cannot combine elements of different fields")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: FieldElement) -> FieldElement:
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            self._same(other)
        kind = field.kind
        if kind == KIND_RATIONALS:
            return FieldElement(field, self.payload + other.payload)
        if kind == KIND_PRIME:
            return FieldElement(field, (self.payload + other.payload) % field.p)
        if kind == KIND_FUNFIELD:
            n1, d1 = self.payload
            n2, d2 = other.payload
            if not n2.coeffs:
                return self
            if not n1.coeffs:
                return other
            if d1 == d2:
                return _make_ratio(field, n1 + n2, d1)
            return _make_ratio(field, n1 * d2 + n2 * d1, d1 * d2)
        u1, v1 = self.payload
        u2, v2 = other.payload
        return FieldElement(field, (u1 + u2, v1 + v2))

    def __neg__(self) -> FieldElement:
        field = self.field
        kind = field.kind
        if kind == KIND_RATIONALS:
            return FieldElement(field, -self.payload)
        if kind == KIND_PRIME:
            return FieldElement(field, (-self.payload) % field.p)
        if kind == KIND_FUNFIELD:
            n, d = self.payload
            return FieldElement(field, (-n, d))
        u, v = self.payload
        return FieldElement(field, (-u, -v))

    def __sub__(self, other: FieldElement) -> FieldElement:
        return self + (-other)

    def __mul__(self, other: FieldElement) -> FieldElement:
        field = self.field
        if other.__class__ is not FieldElement or other.field is not field:
            self._same(other)
        kind = field.kind
        if kind == KIND_RATIONALS:
            return FieldElement(field, self.payload * other.payload)
        if kind == KIND_PRIME:
            return FieldElement(field, self.payload * other.payload % field.p)
        if kind == KIND_FUNFIELD:
            n1, d1 = self.payload
            n2, d2 = other.payload
            if n1.is_zero() or n2.is_zero():
                return field.zero()
            # Cross-reduce before multiplying to keep degrees small; a
            # constant shares no factor with anything.
            if len(d2.coeffs) > 1 and len(n1.coeffs) > 1:
                g = poly_gcd(n1, d2)
                if not g.is_one():
                    n1, d2 = n1 // g, d2 // g
            if len(d1.coeffs) > 1 and len(n2.coeffs) > 1:
                g = poly_gcd(n2, d1)
                if not g.is_one():
                    n2, d1 = n2 // g, d1 // g
            den = d2 if d1.is_one() else d1 if d2.is_one() else d1 * d2
            return _make_ratio(field, n1 * n2, den, reduced=True)
        u1, v1 = self.payload
        u2, v2 = other.payload
        d = field.radicand
        return FieldElement(field, (u1 * u2 + d * (v1 * v2), u1 * v2 + v1 * u2))

    def __truediv__(self, other: FieldElement) -> FieldElement:
        return self * inv(other)

    def __pow__(self, n: int) -> FieldElement:
        if n < 0:
            return inv(self) ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self) -> int:
        return hash((self.field, self.payload))

    def __repr__(self) -> str:
        return f"<{render_scalar(self)} in {render_field(self.field)}>"

    def __str__(self) -> str:
        return render_scalar(self)


def _make_ratio(field: FieldDescriptor, num: Poly, den: Poly, reduced: bool = False) -> FieldElement:
    """Canonical F_p(t) element: coprime parts, monic denominator."""
    if den.is_zero():
        raise DivisionByZero("zero denominator in function field")
    if num.is_zero():
        return FieldElement(field, (num, Poly.const(field.p, 1)))
    if not reduced and len(den.coeffs) > 1 and len(num.coeffs) > 1:
        g = poly_gcd(num, den)
        if not g.is_one():
            num, den = num // g, den // g
    lead = den.leading
    if lead != 1:
        s = pow(lead, -1, field.p)
        num, den = num.scale(s), den.scale(s)
    return FieldElement(field, (num, den))


def dot(field: FieldDescriptor, xs, ys) -> FieldElement:
    """The sum of x_i * y_i over `field`, normalized once.

    Over F_p(t) and Q the terms' numerators and denominators are summed
    unreduced and the sum is reduced once; over F_p it is one `% p`; over
    a quadratic extension it is three dots over the base.  A single
    nonzero term is the product itself.  An entry from another field
    raises DescriptorMismatch, as `*` does.
    """
    pairs = list(zip(xs, ys))
    for x, y in pairs:
        if (x.__class__ is not FieldElement or x.field is not field
                or y.__class__ is not FieldElement or y.field is not field):
            field.zero()._same(x)
            field.zero()._same(y)
    return _dot(field, pairs)


def _dot(field: FieldDescriptor, pairs: list) -> FieldElement:
    kind = field.kind
    if kind == KIND_PRIME:
        return FieldElement(field, sum(x.payload * y.payload for x, y in pairs) % field.p)
    terms = [(x, y) for x, y in pairs if not x.is_zero() and not y.is_zero()]
    if len(terms) == 1:
        return terms[0][0] * terms[0][1]
    if kind == KIND_RATIONALS:
        num, den = 0, 1
        for x, y in terms:
            a, b = x.payload, y.payload
            n, d = a.numerator * b.numerator, a.denominator * b.denominator
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        return FieldElement(field, Fraction(num, den))
    if kind == KIND_FUNFIELD:
        num, den = Poly(field.p, (), normalize=False), Poly.const(field.p, 1)
        for x, y in terms:
            (n1, d1), (n2, d2) = x.payload, y.payload
            n = n1 * n2
            d = d2 if d1.is_one() else d1 if d2.is_one() else d1 * d2
            if d == den:
                num = num + n
            elif den.is_one():
                num, den = num * d + n, d
            elif d.is_one():
                num = num + n * den
            else:
                num, den = num * d + n * den, den * d
        return _make_ratio(field, num, den)
    # (u1 + v1 r)(u2 + v2 r) = u1 u2 + D v1 v2 + (u1 v2 + v1 u2) r
    base = field.base
    parts = [(x.payload, y.payload) for x, y in terms]
    u = _dot(base, [(u1, u2) for (u1, _), (u2, _) in parts])
    vv = _dot(base, [(v1, v2) for (_, v1), (_, v2) in parts])
    v = _dot(base, [(u1, v2) for (u1, _), (_, v2) in parts]
             + [(v1, u2) for (_, v1), (u2, _) in parts])
    return FieldElement(field, (u + field.radicand * vv, v))


def inv(x: FieldElement) -> FieldElement:
    """Multiplicative inverse; raises DivisionByZero on zero input."""
    if x.is_zero():
        raise DivisionByZero("inverse of zero")
    field = x.field
    kind = field.kind
    if kind == KIND_RATIONALS:
        return FieldElement(field, 1 / x.payload)
    if kind == KIND_PRIME:
        return FieldElement(field, pow(x.payload, -1, field.p))
    if kind == KIND_FUNFIELD:
        n, d = x.payload
        return _make_ratio(field, d, n, reduced=True)
    # Inversion by the norm u^2 - D v^2, nonzero because D is a non-square.
    u, v = x.payload
    d = field.radicand
    norm = u * u - d * (v * v)
    n_inv = inv(norm)
    return FieldElement(field, (u * n_inv, -(v * n_inv)))


# ---------------------------------------------------------------------------
# Square roots.
# ---------------------------------------------------------------------------


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _prime_sqrt(x: int, p: int) -> Optional[int]:
    # Tonelli-Shanks (Shanks 1973), O(log^2 p) multiplications; of the two
    # roots r and p - r the least residue is returned.
    if x == 0 or p == 2:
        return x
    if pow(x, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    r = pow(x, (q + 1) // 2, p)
    t = pow(x, q, p)
    m = s
    while t != 1:
        # least i with t^(2^i) = 1; then fold in c^(2^(m-i-1))
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def _funfield_sqrt(x: FieldElement) -> Optional[FieldElement]:
    # Coprime parts are squares exactly when their quotient is, and their
    # roots stay coprime; a monic denominator has a monic root.
    num, den = x.payload
    root_num = _poly_sqrt(num)
    if root_num is None:
        return None
    root_den = den if den.is_one() else _poly_sqrt(den)
    if root_den is None:
        return None
    return FieldElement(x.field, (root_num, root_den))


def _frobenius_split(x: FieldElement) -> tuple[FieldElement, FieldElement]:
    """Write x in F_2(t) as x0^2 + t*x1^2 and return (x0, x1)."""
    field = x.field
    num, den = x.payload
    prod = (num * den).coeffs
    x0 = _make_ratio(field, Poly(2, prod[::2]), den)
    x1 = _make_ratio(field, Poly(2, prod[1::2]), den)
    return x0, x1


def _quadext_sqrt(x: FieldElement) -> Optional[FieldElement]:
    field = x.field
    base = field.base
    d = field.radicand
    u, v = x.payload
    two = base.from_int(2)
    if field.characteristic() != 2:
        if v.is_zero():
            su = is_square(u)
            if su is not None:
                return FieldElement(field, (su, base.zero()))
            sw = is_square(u / d)
            if sw is not None:
                return FieldElement(field, (base.zero(), sw))
            return None
        m = is_square(u * u - d * (v * v))
        if m is None:
            return None
        for cand in ((u + m) / two, (u - m) / two):
            s = is_square(cand)
            if s is not None and not s.is_zero():
                w = v / (two * s)
                return FieldElement(field, (s, w))
        return None
    # Characteristic 2: squares are exactly {s^2 + D w^2 : s, w in base},
    # so any component along sqrt(D) rules a square root out.
    if not v.is_zero():
        return None
    su = is_square(u)
    if su is not None:
        return FieldElement(field, (su, base.zero()))
    # base is F_2(t) here (construction guarantees it): split u and D over
    # the subfield of squares and solve coordinatewise.
    u0, u1 = _frobenius_split(u)
    d0, d1 = _frobenius_split(d)
    if d1.is_zero():
        return None
    w = u1 / d1
    s = u0 + d0 * w
    return FieldElement(field, (s, w))


def is_square(x: FieldElement) -> Optional[FieldElement]:
    """A deterministic square root of x in its own field, or None.

    Root choice: nonnegative over Q, least residue in F_p, and over
    F_p(t) the root whose numerator has the least-residue square root of
    the unit part as leading coefficient.
    """
    kind = x.field.kind
    if kind == KIND_RATIONALS:
        r = _rational_sqrt(x.payload)
        return None if r is None else FieldElement(x.field, r)
    if kind == KIND_PRIME:
        r = _prime_sqrt(x.payload, x.field.p)
        return None if r is None else x.field.from_int(r)
    if kind == KIND_FUNFIELD:
        return _funfield_sqrt(x)
    return _quadext_sqrt(x)


def pth_root(x: FieldElement) -> Optional[FieldElement]:
    """Exact p-th root in characteristic p, or None when there is none.

    Frobenius is bijective on F_p and injective on F_p(t); the function
    detects imperfection, e.g. the variable t has no p-th root.
    """
    field = x.field
    kind = field.kind
    if kind == KIND_PRIME:
        return x
    if kind == KIND_FUNFIELD:
        num, den = x.payload
        # The roots of coprime parts are coprime, and that of a monic
        # denominator is monic.
        rn = _poly_pth_root(num)
        rd = _poly_pth_root(den)
        if rn is None or rd is None:
            return None
        return FieldElement(field, (rn, rd))
    raise DomainError("p-th roots are defined for prime and function fields")


def lift_to_extension(x: FieldElement, ext: FieldDescriptor) -> FieldElement:
    """Image of x under the inclusion of its field into a quadratic extension."""
    if ext.kind != KIND_QUADEXT or ext.base != x.field:
        raise DescriptorMismatch("target is not a quadratic extension of the source")
    return FieldElement(ext, (x, x.field.zero()))


# ---------------------------------------------------------------------------
# Parsing and rendering.
# ---------------------------------------------------------------------------

# Highest exponent a polynomial literal may name; larger ones are refused
# before any coefficient list is allocated.
MAX_LITERAL_DEGREE = 1000

# Longest run of decimal digits a user literal may hold, checked where
# literals come in (the command line and a document's field and form)
# before any int() conversion: below Python's default limit of 4300 digits
# on str -> int, so that limit, however it is set, never decides.  At this
# bound four fraction entries over Q still render every output within the
# default limit.  Computed values read back from a document (witnesses)
# may be longer and are not checked.
MAX_LITERAL_DIGITS = 500

_DIGITS_RE = re.compile(r"\d+")
_INT_RE = re.compile(r"^[+-]?\d+$")
_FRACTION_RE = re.compile(r"^([+-]?\d+)/(\d+)$")


def check_literal_digits(*texts: str) -> None:
    """Refuse texts holding a number of more than MAX_LITERAL_DIGITS digits."""
    runs = (run for text in texts for run in _DIGITS_RE.findall(text))
    if any(len(run) > MAX_LITERAL_DIGITS for run in runs):
        raise ParseError(f"a number exceeds the literal bound of {MAX_LITERAL_DIGITS} digits")


def _split_top_level(text: str, seps: str) -> list[str]:
    """Split on separators at parenthesis depth zero, keeping signs."""
    parts = []
    depth = 0
    current = ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {text!r}")
        if depth == 0 and ch in seps and i > 0 and text[i - 1] not in "+-*/^(":
            parts.append(current)
            current = ch
        else:
            current += ch
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {text!r}")
    parts.append(current)
    return parts


def _strip_outer_parens(text: str) -> str:
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    return text
        text = text[1:-1]
    return text


def _parse_poly(text: str, p: int, var: str) -> Poly:
    text = text.replace(" ", "")
    if not text:
        raise ParseError("empty polynomial")
    term_re = re.compile(
        r"^([+-]?)(\d+)?(?:\*?" + re.escape(var) + r"(?:\^(\d+))?)?$"
    )
    coeffs: dict[int, int] = {}
    for part in _split_top_level(text, "+-"):
        if part in ("+", "-") or not part:
            raise ParseError(f"malformed polynomial term in {text!r}")
        m = term_re.match(part)
        if not m or (m.group(2) is None and var not in part):
            raise ParseError(f"cannot parse polynomial term {part!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) is not None else 1
        if var in part:
            exp = int(m.group(3)) if m.group(3) is not None else 1
            if exp > MAX_LITERAL_DEGREE:
                raise ParseError(
                    f"degree {exp} in {part!r} exceeds the literal bound {MAX_LITERAL_DEGREE}"
                )
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c % p
    return Poly(p, out)


def _parse_funfield(text: str, field: FieldDescriptor) -> FieldElement:
    text = text.replace(" ", "")
    parts = _split_top_level(text, "/")
    if len(parts) == 1:
        num = _parse_poly(_strip_outer_parens(parts[0]), field.p, field.var)
        return _make_ratio(field, num, Poly.const(field.p, 1))
    if len(parts) == 2:
        num_text, den_text = parts[0], parts[1].lstrip("/")
        num = _parse_poly(_strip_outer_parens(num_text), field.p, field.var)
        den = _parse_poly(_strip_outer_parens(den_text), field.p, field.var)
        if den.is_zero():
            raise DomainError(f"zero denominator in {text!r}")
        return _make_ratio(field, num, den)
    raise ParseError(f"too many '/' in {text!r}")


def _parse_quadext(text: str, field: FieldDescriptor) -> FieldElement:
    base = field.base
    u = base.zero()
    v = base.zero()
    for part in _split_top_level(text.replace(" ", ""), "+-"):
        if not part:
            continue
        sign = 1
        if part[0] == "+":
            part = part[1:]
        elif part[0] == "-":
            sign = -1
            part = part[1:]
        if part == "r":
            term_v = base.one()
            is_v = True
        elif part.endswith("*r"):
            term_v = parse_scalar(_strip_outer_parens(part[:-2]), base)
            is_v = True
        else:
            term_v = parse_scalar(_strip_outer_parens(part), base)
            is_v = False
        if sign < 0:
            term_v = -term_v
        if is_v:
            v = v + term_v
        else:
            u = u + term_v
    return FieldElement(field, (u, v))


def parse_scalar(literal: str, field: FieldDescriptor) -> FieldElement:
    """Parse a scalar literal into a canonical element of the field.

    Grammar: integers or fractions for Q and F_p, polynomial ratios in the
    field variable for F_p(t) (e.g. "(t^2+1)/(t+3)"), and "u+v*r" with r
    standing for the adjoined square root over quadratic extensions.
    """
    if not isinstance(literal, str):
        raise ParseError(f"expected a scalar literal, got {literal!r}")
    literal = literal.strip()
    if not literal:
        raise ParseError("empty scalar literal")
    kind = field.kind
    if kind in (KIND_RATIONALS, KIND_PRIME):
        if _INT_RE.match(literal):
            return field.from_int(int(literal))
        m = _FRACTION_RE.match(literal)
        if m:
            return field.from_fraction(int(m.group(1)), int(m.group(2)))
        raise ParseError(f"cannot parse {literal!r} over {render_field(field)}")
    if kind == KIND_FUNFIELD:
        try:
            return _parse_funfield(literal, field)
        except (ParseError, DomainError):
            raise
        except Exception as exc:  # malformed input of any shape
            raise ParseError(f"cannot parse {literal!r}: {exc}") from exc
    return _parse_quadext(literal, field)


def _poly_str(poly: Poly, var: str) -> str:
    if poly.is_zero():
        return "0"
    terms = []
    for e in range(poly.degree, -1, -1):
        c = poly.coeffs[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append(f"{c}*{var}" if c != 1 else var)
        else:
            terms.append(f"{c}*{var}^{e}" if c != 1 else f"{var}^{e}")
    return "+".join(terms)


def render_scalar(x: FieldElement) -> str:
    """Canonical literal for x; parse_scalar(render_scalar(x)) == x."""
    field = x.field
    kind = field.kind
    if kind in (KIND_RATIONALS, KIND_PRIME):
        try:
            return str(x.payload)
        except ValueError:
            # Python's limit on int -> str conversion; a prime-field
            # residue stays far below it, a rational may not.
            raise DomainError("a result is too long to print in decimal") from None
    if kind == KIND_FUNFIELD:
        num, den = x.payload
        if den.is_one():
            return _poly_str(num, field.var)
        return f"({_poly_str(num, field.var)})/({_poly_str(den, field.var)})"
    u, v = x.payload
    nested = field.base.kind == KIND_QUADEXT

    def wrap(text: str) -> str:
        if nested or any(ch in text[1:] for ch in "+-"):
            return f"({text})"
        return text

    if v.is_zero():
        return wrap(render_scalar(u)) if nested else render_scalar(u)
    v_text = render_scalar(v)
    if v_text.startswith("-") and not nested:
        v_term = f"-{wrap(v_text[1:])}*r"
    else:
        v_term = f"+{wrap(v_text)}*r"
    if u.is_zero():
        return v_term[1:] if v_term.startswith("+") else v_term
    return wrap(render_scalar(u)) + v_term


_FIELD_PRIME_RE = re.compile(r"^F(\d+)$")
_FIELD_FUN_RE = re.compile(r"^F(\d+)\((\w+)\)$")


def parse_field(literal: str) -> FieldDescriptor:
    """Parse a field literal: "Q", "F3", "F2(t)" or "<base>[sqrt <D>]"."""
    if not isinstance(literal, str):
        raise ParseError(f"expected a field literal, got {literal!r}")
    literal = literal.strip()
    if literal.count("[sqrt ") > MAX_TOWER_HEIGHT:
        raise ParseError(f"a field tower may adjoin at most {MAX_TOWER_HEIGHT} square roots")
    if literal.endswith("]"):
        start = literal.rfind("[sqrt ")
        if start < 0:
            raise ParseError(f"cannot parse field literal {literal!r}")
        base = parse_field(literal[:start])
        rad = parse_scalar(literal[start + len("[sqrt "):-1], base)
        return quadratic_extension(base, rad)
    if literal == "Q":
        return rationals()
    m = _FIELD_PRIME_RE.match(literal)
    if m:
        try:
            return prime_field(int(m.group(1)))
        except DomainError as exc:
            raise ParseError(str(exc)) from exc
    m = _FIELD_FUN_RE.match(literal)
    if m:
        try:
            return function_field(int(m.group(1)), m.group(2))
        except DomainError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"cannot parse field literal {literal!r}")


def render_field(field: FieldDescriptor) -> str:
    kind = field.kind
    if kind == KIND_RATIONALS:
        return "Q"
    if kind == KIND_PRIME:
        return f"F{field.p}"
    if kind == KIND_FUNFIELD:
        return f"F{field.p}({field.var})"
    return f"{render_field(field.base)}[sqrt {render_scalar(field.radicand)}]"
