"""Seeded inputs for the orthocurrent benchmark.

Everything here is plain Python: the generator never imports the library,
so the library sees nothing but the field and form literals it produces.

Each workload is a fixed list of slots.  A slot names a field, the square
class of the discriminant D = abcd it wants, and so the decomposition case
that classify must report.  The case is built in by choosing d: for a
square D, d = abc * s^2; for a non-square D, d = abc * n with n a known
non-square.  (abc)^2 is a square, so D has the square class of s^2 or n,
whatever the library's own quadratic analysis concludes.

A round is one instance per slot.  Round r of seed S draws its entries
from random.Random(f"{workload}:{S}:{r}"), so the same seed gives the same
inputs and every round has the same mix of fields and cases.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# The recorded baseline uses BASELINE_SEED; later claims are checked on
# HELD_OUT_SEED, which no tuning may look at.  The golden round that every
# run checks byte for byte is round 0 of BASELINE_SEED.
BASELINE_SEED = 1
HELD_OUT_SEED = 2

SPLIT = "two_simple_ideals"
SEMIDIRECT = "semidirect_N_R"
SIMPLE = "simple_by_descent"


# ---------------------------------------------------------------------------
# Literal arithmetic, one small class per field kind.
# ---------------------------------------------------------------------------


class Literals:
    """Element arithmetic and rendering for one field kind."""

    def square_root_factor(self, rng):
        """The s of d = abc * s^2."""
        return self.nonzero(rng)


class PrimeLiterals(Literals):
    """F_p with elements as ints in [0, p)."""

    def __init__(self, p: int):
        self.p = p
        self.characteristic = p

    def nonzero(self, rng):
        return rng.randrange(1, self.p)

    def mul(self, x, y):
        return x * y % self.p

    def is_square(self, x) -> bool:
        return self.p == 2 or pow(x, (self.p - 1) // 2, self.p) == 1

    def nonsquare(self, rng):
        while True:
            n = self.nonzero(rng)
            if not self.is_square(n):
                return n

    def render(self, x) -> str:
        return str(x)


class RationalLiterals(Literals):
    """Q with Fraction elements; `digits` sets numerator and denominator size."""

    characteristic = 0
    NONSQUARES = (-3, -2, -1, 2, 3, 5, 6, 7)

    def __init__(self, digits: int = 0):
        self.digits = digits

    def _height(self, rng, digits):
        return rng.randrange(10 ** (digits - 1), 10 ** digits)

    def nonzero(self, rng, digits=None):
        digits = self.digits if digits is None else digits
        sign = rng.choice((-1, 1))
        if not digits:
            return Fraction(sign * rng.randint(1, 5))
        return Fraction(sign * self._height(rng, digits), self._height(rng, digits))

    def square_root_factor(self, rng):
        if not self.digits:
            return Fraction(rng.randint(1, 4))
        return self.nonzero(rng, self.digits // 2)

    def mul(self, x, y):
        return x * y

    def nonsquare(self, rng):
        return Fraction(rng.choice(self.NONSQUARES))

    def render(self, x) -> str:
        return str(x)


class PolyLiterals(Literals):
    """F_p[t] inside F_p(t): coefficient tuples, lowest degree first.

    Entries are degree-1 polynomials, so every instance of a slot has the
    same degree profile and costs about the same.  A monic degree-1
    polynomial is squarefree of odd degree, hence a non-square in F_p(t)
    for every p, 2 included.
    """

    def __init__(self, p: int, var: str = "t"):
        self.p = p
        self.var = var
        self.characteristic = p

    def nonzero(self, rng):
        return (rng.randrange(self.p), rng.randrange(1, self.p))

    def mul(self, x, y):
        out = [0] * (len(x) + len(y) - 1)
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                out[i + j] = (out[i + j] + a * b) % self.p
        return tuple(out)

    def nonsquare(self, rng):
        return (rng.randrange(self.p), 1)

    def render(self, x) -> str:
        terms = []
        for e in range(len(x) - 1, -1, -1):
            c = x[e]
            if not c:
                continue
            mono = "" if e == 0 else self.var if e == 1 else f"{self.var}^{e}"
            if not mono:
                terms.append(str(c))
            else:
                terms.append(mono if c == 1 else f"{c}*{mono}")
        return "+".join(terms)


class QuadraticLiterals(Literals):
    """F_p[sqrt R] for an odd prime p and a non-residue R: pairs (u, v)
    meaning u + v*r with r^2 = R."""

    def __init__(self, p: int, radicand: int):
        self.p = p
        self.radicand = radicand
        self.characteristic = p

    def nonzero(self, rng):
        while True:
            x = (rng.randrange(self.p), rng.randrange(self.p))
            if x != (0, 0):
                return x

    def mul(self, x, y):
        (u1, v1), (u2, v2) = x, y
        p = self.p
        return ((u1 * u2 + self.radicand * v1 * v2) % p, (u1 * v2 + u2 * v1) % p)

    def is_square(self, x) -> bool:
        # Euler's criterion in the field of p^2 elements.
        result, base, n = (1, 0), x, (self.p * self.p - 1) // 2
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result == (1, 0)

    def nonsquare(self, rng):
        while True:
            n = self.nonzero(rng)
            if not self.is_square(n):
                return n

    def render(self, x) -> str:
        u, v = x
        terms = [str(u)] if u else []
        if v:
            terms.append("r" if v == 1 else f"{v}*r")
        return "+".join(terms)


# ---------------------------------------------------------------------------
# Slots and workloads.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    field: str
    literals: Literals
    square: bool  # whether D is built to be a square

    @property
    def expected_case(self) -> str:
        if not self.square:
            return SIMPLE
        return SEMIDIRECT if self.literals.characteristic == 2 else SPLIT


@dataclass(frozen=True)
class Instance:
    slot: Slot
    form: str  # "a,b,c,d" literals

    @property
    def field(self) -> str:
        return self.slot.field

    @property
    def expected_case(self) -> str:
        return self.slot.expected_case


def _pair(field, literals):
    """A square-D slot and a non-square-D slot over one field."""
    return [Slot(field, literals, True), Slot(field, literals, False)]


CERTIFY_SMALL = (
    _pair("Q", RationalLiterals())
    + [Slot("F2", PrimeLiterals(2), True)]
    + _pair("F3", PrimeLiterals(3))
    + _pair("F5", PrimeLiterals(5))
    + _pair("F7", PrimeLiterals(7))
    + _pair("F3[sqrt 2]", QuadraticLiterals(3, 2))
)

# F2(t)[sqrt t+1] takes square-D forms only: a non-square D would need a
# second extension over a characteristic-2 extension field, which the
# library rejects.  Its entries lie in the base F2(t); one such verify
# already takes seconds, and entries with an r part double that.
CERTIFY_HEAVY = (
    _pair("F2(t)", PolyLiterals(2))
    + _pair("F3(t)", PolyLiterals(3))
    + [Slot("F2(t)[sqrt t+1]", PolyLiterals(2), True)]
    + _pair("F1000003", PrimeLiterals(1000003))
    + _pair("Q", RationalLiterals(digits=12))
)
COUNTEREXAMPLE_PRIMES = (2, 3)

# F2 has the single form 1,1,1,1 (semidirect, 3 ideals).  Four F2 calls to
# one split and one simple F3 call keep the median off the gap between the
# fast F2 and the slow F3 calls, and give 100 calls within a run.
ORACLE_SCAN = (
    [Slot("F2", PrimeLiterals(2), True)] * 4
    + _pair("F3", PrimeLiterals(3))
)

# Ideal count and dimension histogram of M for each case over F_2 and F_3.
ORACLE_EXPECTED = {
    SPLIT: (4, {"0": 1, "3": 2, "6": 1}),
    SEMIDIRECT: (3, {"0": 1, "3": 1, "6": 1}),
    SIMPLE: (2, {"0": 1, "6": 1}),
}

WORKLOADS = {
    "certify-small": CERTIFY_SMALL,
    "certify-heavy": CERTIFY_HEAVY,
    "oracle-scan": ORACLE_SCAN,
}


def fields(workload: str) -> list[str]:
    """Distinct field literals of a workload, in slot order."""
    out = []
    for slot in WORKLOADS[workload]:
        if slot.field not in out:
            out.append(slot.field)
    if workload == "certify-heavy":
        # The counterexample works over F_p(t) and F_p(u).
        for p in COUNTEREXAMPLE_PRIMES:
            for var in ("t", "u"):
                literal = f"F{p}({var})"
                if literal not in out:
                    out.append(literal)
    return out


def _instance(slot: Slot, rng: random.Random) -> Instance:
    lits = slot.literals
    a, b, c = (lits.nonzero(rng) for _ in range(3))
    abc = lits.mul(lits.mul(a, b), c)
    if slot.square:
        s = lits.square_root_factor(rng)
        d = lits.mul(abc, lits.mul(s, s))
    else:
        d = lits.mul(abc, lits.nonsquare(rng))
    return Instance(slot, ",".join(lits.render(x) for x in (a, b, c, d)))


def round_instances(workload: str, seed: int, index: int) -> list[Instance]:
    """The instances of round `index` of a workload under a seed."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    return [_instance(slot, rng) for slot in WORKLOADS[workload]]
