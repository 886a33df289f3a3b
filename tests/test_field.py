"""Field arithmetic over Q and GF(p^k): exactness, roots of unity,
geometric sums, polynomials and the text encodings."""

import ast
import random
from fractions import Fraction
import time
from itertools import zip_longest
from math import gcd, isqrt
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import nilclose
from nilclose.errors import (
    DivisionByZero,
    FieldMismatch,
    NotCoprime,
)
from nilclose.field import (
    FIELD_ORDER_LIMIT,
    MODULUS_SEARCH_LIMIT,
    FieldSpec,
    PRIMALITY_LIMIT,
    Poly,
    _gfp_irreducible,
    default_modulus,
    extension_for_roots,
    galois,
    geometric_sum,
    is_prime,
    parse_field,
    rationals,
    roots_of_unity,
    surrogate_prime,
)
from nilclose.jordan import squarefree_part

Q = rationals()
GF7 = galois(7)
GF4 = galois(2, 2)
GF9 = galois(3, 2)


def test_basic_arithmetic_examples():
    half = Q.scalar(Fraction(1, 2))
    third = Q.scalar(Fraction(1, 3))
    assert half + third == Q.scalar(Fraction(5, 6))
    assert half - third == Q.scalar(Fraction(1, 6))
    assert GF7.from_int(3) * GF7.from_int(5) == GF7.one()
    x = GF4.element_from_index(2)          # the generator x
    assert x * x == x + GF4.one()          # x * x = x + 1 mod x^2 + x + 1


def test_division_and_errors():
    a = Q.from_int(3)
    assert a / Q.from_int(2) == Q.scalar(Fraction(3, 2))
    with pytest.raises(DivisionByZero):
        a / Q.zero()
    with pytest.raises(ZeroDivisionError):
        # DivisionByZero doubles as the builtin for interoperability
        a / Q.zero()
    with pytest.raises(DivisionByZero):
        GF4.zero().inverse()
    with pytest.raises(FieldMismatch):
        a + GF7.one()


def test_field_axioms_sampled():
    rng = random.Random(11)
    for spec in (Q, GF7, GF4, GF9):
        for _ in range(60):
            if spec.is_finite:
                a, b, c = (spec.element_from_index(rng.randrange(spec.order))
                           for _ in range(3))
            else:
                a, b, c = (spec.scalar(Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 9)))
                           for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if not a.is_zero:
                assert a * a.inverse() == spec.one()


# Q and GF(p^k) for p in {2, 3, 5, 7} and k <= 4
AXIOM_FIELDS = [Q] + [galois(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3, 4)]
AXIOM_FIELDS += [galois(2, 12), galois(5, 6), parse_field("GF(2^3;x^3+x^2+1)")]


@st.composite
def _field_and_elements(draw, count=3):
    """A field and `count` of its elements."""
    spec = draw(st.sampled_from(AXIOM_FIELDS))
    if spec.is_finite:
        element = st.integers(0, spec.order - 1).map(spec.element_from_index)
    else:
        element = st.fractions(max_denominator=50).filter(
            lambda f: abs(f.numerator) < 10 ** 6).map(spec.scalar)
    return spec, [draw(element) for _ in range(count)]


_AXIOMS = settings(max_examples=300, deadline=None, derandomize=True,
                   database=None)


@_AXIOMS
@given(_field_and_elements())
def test_field_axioms_through_ops(case):
    """The field axioms hold for the raw ops object of each field, and the
    Scalar operators agree with it.  ``ops.pow`` is repeated ``ops.mul``,
    and over a finite field of order q a nonzero x has x^(q-1) = 1, which
    the Fermat inverse x^(q-2) relies on."""
    spec, (a, b, c) = case
    ops, x, y, z = spec.ops, a.val, b.val, c.val
    assert ops.add(ops.add(x, y), z) == ops.add(x, ops.add(y, z))
    assert ops.mul(ops.mul(x, y), z) == ops.mul(x, ops.mul(y, z))
    assert ops.mul(x, ops.add(y, z)) == ops.add(ops.mul(x, y), ops.mul(x, z))
    assert ops.mul(x, y) == ops.mul(y, x)
    assert ops.add(x, ops.neg(x)) == ops.zero
    assert ops.submul(x, y, z) == ops.sub(x, ops.mul(y, z))
    assert ops.is_zero(x) == (x == ops.zero)
    assert (a * b).val == ops.mul(x, y) and (a - b).val == ops.sub(x, y)
    power = ops.one
    for e in range(6):
        assert ops.pow(x, e) == power and (a ** e).val == power
        power = ops.mul(power, x)
    if not ops.is_zero(x):
        assert ops.mul(x, ops.inv(x)) == ops.one
        assert a * a.inverse() == spec.one()
        if spec.is_finite:
            assert ops.pow(x, spec.order - 1) == ops.one


@_AXIOMS
@given(_field_and_elements(count=1))
def test_text_round_trip(case):
    spec, (a,) = case
    assert spec.parse_scalar(str(a)) == a
    assert parse_field(str(spec)) == spec


class _TupleOps:
    """The coefficient-tuple arithmetic of GF(p^k), kept as the reference
    for the packed ints: an element is the tuple of its k coefficients,
    lowest degree first, and a product is a convolution folded along the
    modulus's nonzero lower terms."""

    def __init__(self, p, modulus):
        self.p, self.k = p, len(modulus) - 1
        self.one = (1,) + (0,) * (self.k - 1)
        self.tail = [(j, c) for j, c in enumerate(modulus[:-1]) if c]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    @staticmethod
    def _convolve(acc, a, b, sign):
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    acc[i + j] += sign * x * y
        return acc

    def fold(self, prod):
        p, k = self.p, self.k
        for i in range(len(prod) - 1, k - 1, -1):
            t = prod[i] % p
            if t:
                for j, c in self.tail:
                    prod[i - k + j] -= t * c
        return tuple(c % p for c in prod[:k])

    def mul(self, a, b):
        return self.fold(self._convolve([0] * (2 * self.k - 1), a, b, 1))

    def submul(self, a, f, b):
        return self.fold(self._convolve(list(a) + [0] * (self.k - 1),
                                        f, b, -1))

    def pow(self, a, e):
        result = self.one
        for bit in bin(e)[2:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result

    def inv(self, a):
        return self.pow(a, self.p ** self.k - 2)


# small and wide slots: a product coefficient of GF(13^2) reaches
# 2*12^2 = 288, just past one byte; GF(1000003^2) has 8-byte slots, and
# GF(4294967311^2), p the least prime above 2^32, 16-byte ones read one by
# one
PACKED_FIELDS = [galois(2, 2), galois(2, 12), galois(3, 5), galois(5, 6),
                 galois(7, 3), galois(13, 2), galois(1000003, 2),
                 galois(4294967311, 2),
                 parse_field("GF(2^64;1+x+x^3+x^4+x^64)")]


@st.composite
def _packed_case(draw):
    """A field of PACKED_FIELDS, three coefficient tuples and an exponent."""
    spec = draw(st.sampled_from(PACKED_FIELDS))
    p, k = spec.char, spec.degree
    coeffs = st.tuples(*[st.integers(0, p - 1)] * k)
    return (spec, draw(coeffs), draw(coeffs), draw(coeffs),
            draw(st.integers(0, 2 ** 20)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_packed_case())
def test_packed_elements_match_tuple_arithmetic(case):
    """Every ops routine of GF(p^k) on packed ints gives, read back through
    ``coeffs``, what the coefficient-tuple arithmetic gives; zero is the
    int 0 and ``is_zero`` is ``not``."""
    spec, a, b, c, e = case
    ops, ref = spec.ops, _TupleOps(spec.char, spec.modulus)
    x, y, z = map(ops.from_coeffs, (a, b, c))
    assert all(type(v) is int for v in (x, y, z))
    assert tuple(map(ops.coeffs, (x, y, z))) == (a, b, c)
    assert ops.is_zero(x) == (not any(a)) == (x == ops.zero == 0)
    assert ops.coeffs(ops.add(x, y)) == ref.add(a, b)
    assert ops.coeffs(ops.sub(x, y)) == ref.sub(a, b)
    assert ops.coeffs(ops.neg(x)) == ref.neg(a)
    assert ops.coeffs(ops.mul(x, y)) == ref.mul(a, b)
    assert ops.coeffs(ops.submul(x, y, z)) == ref.submul(a, b, c)
    assert ops.coeffs(ops.pow(x, e)) == ref.pow(a, e)
    if any(a):
        assert ops.coeffs(ops.inv(x)) == ref.inv(a)


def test_packed_extremes_match_tuple_arithmetic():
    """The largest coefficients, where a slot of a product or a sum is
    fullest, and the modulus's own lower terms."""
    for spec in PACKED_FIELDS:
        p, k = spec.char, spec.degree
        ops, ref = spec.ops, _TupleOps(p, spec.modulus)
        top, low = (p - 1,) * k, tuple(spec.modulus[:-1])
        for a in (top, low, (0,) * (k - 1) + (p - 1,)):
            for b in (top, low, ref.one):
                x, y = ops.from_coeffs(a), ops.from_coeffs(b)
                assert ops.coeffs(ops.mul(x, y)) == ref.mul(a, b)
                assert ops.coeffs(ops.add(x, y)) == ref.add(a, b)
                assert ops.coeffs(ops.sub(x, y)) == ref.sub(a, b)
                assert ops.coeffs(ops.submul(x, x, y)) == ref.submul(a, a, b)


@pytest.mark.parametrize("spec", [galois(p, k) for p, k in (
    (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (2, 12))],
    ids=str)
def test_whole_field_enumeration_and_text_round_trip(spec):
    """Over a whole small field: ``element_from_index`` gives the base-p
    digits of the index as coefficients, ``index_of`` inverts it, distinct
    indices give distinct raw ints, and the text of every element parses
    back to it."""
    p, k = spec.char, spec.degree
    seen = set()
    for i, x in enumerate(spec.elements()):
        assert spec.ops.coeffs(x.val) == tuple(i // p ** j % p
                                               for j in range(k))
        assert spec.index_of(x) == i
        assert spec.parse_scalar(str(x)) == x
        seen.add(x.val)
    assert len(seen) == spec.order


def test_frobenius_additive():
    rng = random.Random(5)
    for spec in (GF7, GF4, GF9):
        p = spec.char
        for _ in range(1000):
            a = spec.element_from_index(rng.randrange(spec.order))
            b = spec.element_from_index(rng.randrange(spec.order))
            assert (a + b) ** p == a ** p + b ** p


def test_roots_of_unity():
    vals = {GF7.index_of(r) for r in roots_of_unity(GF7, 3)}
    assert vals == {1, 2, 4}
    assert roots_of_unity(Q, 3) == [Q.one()]
    assert set(roots_of_unity(Q, 4)) == {Q.one(), -Q.one()}
    assert roots_of_unity(GF4, 2) == [GF4.one()]


def test_roots_group_structure():
    for spec, m in ((GF7, 3), (GF9, 4), (GF4, 3)):
        roots = roots_of_unity(spec, m)
        rs = set(roots)
        for a in roots:
            assert a.inverse() in rs
            for b in roots:
                assert a * b in rs
        assert m % len(roots) == 0


def _prime_power_fields(limit):
    for p in range(2, limit + 1):
        if is_prime(p):
            k = 1
            while p ** k <= limit:
                yield galois(p, k)
                k += 1


def test_roots_of_unity_match_full_scan():
    """The subgroup construction lists exactly the elements whose m-th
    power is one, in enumeration order; so its first non-one entry, the
    root `witness_neighbor` takes, is the first such element of the field."""
    for spec in _prime_power_fields(256):
        one = spec.one()
        for m in range(1, 14):
            scan = [x for x in spec.elements()
                    if not x.is_zero and x ** m == one]
            assert roots_of_unity(spec, m) == scan, (str(spec), m)
    # Up to q = 4096 a scan is too slow; gcd(m, q - 1) distinct m-th roots
    # in increasing index are the whole scan, since no more exist.
    for spec in _prime_power_fields(4096):
        one = spec.one()
        for m in range(2, 14):
            roots = roots_of_unity(spec, m)
            indices = [spec.index_of(r) for r in roots]
            assert len(roots) == gcd(m, spec.order - 1), (str(spec), m)
            assert indices == sorted(set(indices)), (str(spec), m)
            assert all(r ** m == one for r in roots), (str(spec), m)


def test_extension_for_roots():
    assert extension_for_roots(7, 3) == 1
    assert extension_for_roots(2, 3) == 2
    with pytest.raises(NotCoprime):
        extension_for_roots(3, 3)
    # the promised full group of order m
    j = extension_for_roots(2, 5)
    assert len(roots_of_unity(galois(2, j), 5)) == 5


def test_geometric_sum_examples():
    assert geometric_sum(3, Q.from_int(2), Q.from_int(3)) == Q.from_int(19)
    assert geometric_sum(2, Q.one(), -Q.one()).is_zero
    assert geometric_sum(3, GF7.one(), GF7.one()) == GF7.from_int(3)


def test_geometric_sum_identity():
    rng = random.Random(23)
    for spec in (Q, GF7, GF4):
        for _ in range(120):
            k = rng.randint(1, 20)
            if spec.is_finite:
                a = spec.element_from_index(rng.randrange(spec.order))
                b = spec.element_from_index(rng.randrange(spec.order))
            else:
                a = spec.from_int(rng.randint(-6, 6))
                b = spec.from_int(rng.randint(-6, 6))
            if a == b:
                continue
            assert geometric_sum(k, a, b) * (a - b) == a ** k - b ** k


def test_surrogate_prime():
    assert surrogate_prime(6, 3) == 7
    p = surrogate_prime(4, 3)
    assert p > 4 and (p - 1) % 3 == 0


def test_is_prime_matches_trial_division():
    for n in range(-3, 10 ** 5):
        assert is_prime(n) == (
            n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))), n


def test_is_prime_decides_large_numbers_at_once():
    start = time.perf_counter()
    assert is_prime(2 ** 61 - 1)
    assert time.perf_counter() - start < 1
    assert is_prime(sympy.prevprime(PRIMALITY_LIMIT))
    assert not is_prime(PRIMALITY_LIMIT - 1)


@pytest.mark.parametrize("n", [
    3215031751,                     # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,            # ... to the first 9 prime bases
    318665857834031151167461,       # ... to the first 12 prime bases
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not is_prime(n)


@pytest.mark.parametrize("n", [PRIMALITY_LIMIT, 2 ** 89 - 1])
def test_is_prime_refuses_numbers_past_the_limit(n):
    """psi_13 itself passes all 13 bases; 2^89 - 1 is prime but past it."""
    with pytest.raises(ValueError, match=str(PRIMALITY_LIMIT)):
        is_prime(n)
    with pytest.raises(ValueError, match=str(PRIMALITY_LIMIT)):
        galois(n)


def test_default_modulus_is_irreducible_and_least():
    assert default_modulus(2, 2) == (1, 1, 1)      # x^2 + x + 1
    assert default_modulus(3, 2) == (1, 0, 1)      # x^2 + 1
    assert default_modulus(2, 3) == (1, 1, 0, 1)   # x^3 + x + 1


def _default_modulus_by_full_search(p, k):
    """Reference: the least monic irreducible of degree k over GF(p), every
    candidate tried in order, the binomials x^k + c included."""
    for v in range(p ** k):
        cand = tuple(v // p ** i % p for i in range(k)) + (1,)
        if _gfp_irreducible(cand, p):
            return cand


def test_default_modulus_skips_only_reducible_binomials():
    """Skipping the binomials x^k + c where Lidl and Niederreiter's Thm
    3.75 rules them out gives the same modulus in all 34 cases with p <= 13,
    k <= 6 and p^k <= 10^6."""
    cases = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(1, 7)
             if p ** k <= 10 ** 6]
    assert len(cases) == 34
    for p, k in cases:
        assert default_modulus(p, k) == _default_modulus_by_full_search(p, k)


def _trial_division_irreducible(f, p):
    """Reference: no monic polynomial of degree 1..deg(f)/2 divides f."""
    def remainder(a, b):                # b monic of degree d
        a, d = list(a), len(b) - 1
        for i in range(len(a) - 1, d - 1, -1):
            coef = a[i]
            for j, bj in enumerate(b):
                a[i - d + j] = (a[i - d + j] - coef * bj) % p
        return any(a[:d])
    k = len(f) - 1
    return k >= 1 and all(
        remainder(f, [v // p ** i % p for i in range(d)] + [1])
        for d in range(1, k // 2 + 1) for v in range(p ** d))


def test_rabin_irreducibility_matches_trial_division():
    """Every monic f over GF(p), p in {2, 3, 5, 7}, with p^deg(f) <= 4096."""
    for p in (2, 3, 5, 7):
        k = 1
        while p ** k <= 4096:
            for v in range(p ** k):
                f = tuple(v // p ** i % p for i in range(k)) + (1,)
                assert _gfp_irreducible(f, p) == \
                    _trial_division_irreducible(f, p), (p, f)
            k += 1


def test_default_modulus_of_large_extensions():
    """The least monic irreducible of degree 16 over GF(5) and GF(7) and of
    degree 40 over GF(2), checked against sympy: it is irreducible and
    every smaller candidate is not."""
    t = sympy.symbols("t")

    def irreducible(coeffs, p):
        return sympy.Poly(coeffs[::-1], t, modulus=p).is_irreducible
    for p, k in ((5, 16), (2, 40), (7, 16)):
        f = default_modulus(p, k)
        assert len(f) == k + 1 and f[-1] == 1 and irreducible(f, p)
        index = sum(c * p ** i for i, c in enumerate(f[:-1]))
        assert not any(irreducible([u // p ** i % p for i in range(k)] + [1], p)
                       for u in range(index))


def test_scalar_text_encoding():
    assert str(Q.scalar(Fraction(-3, 2))) == "-3/2"
    assert str(Q.from_int(4)) == "4"
    assert str(GF4.element_from_index(3)) == "1+x"
    assert str(GF9.zero()) == "0"
    for spec in (Q, GF7, GF4, GF9):
        for i in range(min(spec.order, 9) if spec.is_finite else 9):
            val = spec.element_from_index(i) if spec.is_finite \
                else spec.from_int(i - 4)
            assert spec.parse_scalar(str(val)) == val


def test_fieldspec_text_encoding():
    assert str(Q) == "Q"
    assert str(GF7) == "GF(7)"
    assert parse_field("Q") == Q
    assert parse_field("GF(7)") == GF7
    assert parse_field(str(GF4)) == GF4
    assert parse_field("GF(2^2)") == GF4


def test_default_modulus_search_limit():
    """A field text without a modulus is accepted up to order 2^32 and
    refused above it, before any search; every field under tests/data
    gives its modulus and is far below the limit anyway."""
    assert MODULUS_SEARCH_LIMIT == 2 ** 32
    assert parse_field("GF(65521^2)").order <= MODULUS_SEARCH_LIMIT
    assert parse_field("GF(2^12;1+x^3+x^12)").degree == 12
    for text in ("GF(65537^2)", "GF(2^33)", "GF(1000003^16)"):
        with pytest.raises(ValueError, match=r"above 2\^32.*give one"):
            parse_field(text)


def test_field_order_limit():
    """Order 2^512 is the largest a field text may have: up to it a given
    modulus is read and tested, above it the text is refused unread."""
    assert FIELD_ORDER_LIMIT == 2 ** 512
    assert parse_field("GF(2^511;1+x^10+x^511)").degree == 511
    with pytest.raises(ValueError, match="modulus is reducible"):
        parse_field("GF(2^512;1+x+x^512)")
    with pytest.raises(ValueError, match="modulus is reducible"):
        parse_field("GF(3^323;1+x+x^323)")      # 3^323 < 2^512 < 3^324
    for text in ("GF(2^513;1+x+x^513)", "GF(3^324;1+x+x^324)",
                 f"GF({2 ** 521 - 1})", "GF(5^99999999999999;1+x)"):
        with pytest.raises(ValueError, match=r"above 2\^512, the limit"):
            parse_field(text)


def test_poly_basics():
    f = Poly.from_ints(Q, [0, 0, 1, 1])    # t^2 + t^3
    assert f.degree == 3
    assert f.valuation() == 2
    g = Poly.from_ints(Q, [1, 1])
    assert g.valuation() == 0
    prod = f * g
    assert prod.degree == 4
    quo, rem = divmod(prod, g)
    assert quo == f and rem.is_zero


def test_poly_gcd_and_xgcd():
    f = Poly.from_ints(GF7, [1, 0, 1]) * Poly.from_ints(GF7, [2, 1])
    g = Poly.from_ints(GF7, [2, 1]) * Poly.from_ints(GF7, [3, 1])
    d = f.gcd(g)
    assert d == Poly.from_ints(GF7, [2, 1]).monic()
    gg, v = f.xgcd(g)
    assert gg == d
    assert ((v * g - gg) % f).is_zero


class _BoxedPoly:
    """Reference: the polynomial type as it was on boxed Scalars, with an
    unnormalised Euclid; only what the comparisons below call is kept."""

    def __init__(self, spec, coeffs):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n > 0 and coeffs[n - 1].is_zero:
            n -= 1
        self.spec, self.coeffs = spec, coeffs[:n]

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        return _BoxedPoly(self.spec, [x + y for x, y in zip_longest(
            self.coeffs, other.coeffs, fillvalue=self.spec.zero())])

    def __sub__(self, other):
        return _BoxedPoly(self.spec, [x - y for x, y in zip_longest(
            self.coeffs, other.coeffs, fillvalue=self.spec.zero())])

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return _BoxedPoly(self.spec, ())
        zero = self.spec.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _BoxedPoly(self.spec, out)

    def scale(self, c):
        return _BoxedPoly(self.spec, [c * x for x in self.coeffs])

    def __divmod__(self, other):
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = other.coeffs[-1].inverse()
        quo = [self.spec.zero()] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            coef = rem[i] * inv_lead
            if coef.is_zero:
                continue
            quo[i - db] = coef
            for j, bj in enumerate(other.coeffs):
                rem[i - db + j] = rem[i - db + j] - coef * bj
        return (_BoxedPoly(self.spec, quo),
                _BoxedPoly(self.spec, rem[:db] if db > 0 else ()))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.coeffs[-1].inverse())

    def derivative(self):
        return _BoxedPoly(self.spec, [self.spec.from_int(i) * c
                                      for i, c in enumerate(self.coeffs) if i])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other):
        one = _BoxedPoly(self.spec, [self.spec.one()])
        zero = _BoxedPoly(self.spec, ())
        r0, r1, s0, s1, t0, t1 = self, other, one, zero, zero, one
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero:
            return r0, s0, t0
        lead_inv = r0.coeffs[-1].inverse()
        return r0.scale(lead_inv), s0.scale(lead_inv), t0.scale(lead_inv)

    def squarefree_part(self):
        """The squarefree part by the same recursion as
        ``jordan.squarefree_part``, with coefficient-wise p-th roots when
        the derivative vanishes."""
        f = self.monic()
        if f.degree <= 0:
            return _BoxedPoly(f.spec, [f.spec.one()])
        d = f.derivative()
        spec = f.spec
        if d.is_zero:
            root_exp = spec.char ** (spec.degree - 1)
            return _BoxedPoly(spec, [c ** root_exp for c in
                                     f.coeffs[::spec.char]]).squarefree_part()
        g = f.gcd(d)
        if g.degree == 0:
            return f
        w = f // g
        r = g.squarefree_part()
        return ((w * r) // w.gcd(r)).monic()


POLY_FIELDS = [Q, GF7, GF4, galois(2, 3)]


@st.composite
def _poly_pair(draw):
    """(spec, f, g): f = a * b^2 and g = b * c for random a, b, c of degree
    at most 3, so f has repeated factors and shares some with g, and either
    may be zero or constant."""
    spec = draw(st.sampled_from(POLY_FIELDS))
    if spec.is_finite:
        element = st.integers(0, spec.order - 1).map(spec.element_from_index)
    else:
        element = st.fractions(max_denominator=30).filter(
            lambda v: abs(v) <= 30).map(spec.scalar)
    a, b, c = (Poly(spec, draw(st.lists(element, max_size=4)))
               for _ in range(3))
    return spec, a * b * b, b * c


def _boxed(f):
    return _BoxedPoly(f.spec, f.coeffs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_poly_pair())
def test_poly_arithmetic_matches_boxed_reference(case):
    """divmod, gcd, xgcd and squarefree_part on raw values with monic
    remainders give the same polynomials as the boxed, unnormalised
    Euclid; v*g = gcd(f, g) modulo f."""
    spec, f, g = case
    bf, bg = _boxed(f), _boxed(g)
    if not g.is_zero:
        assert tuple(x.coeffs for x in divmod(f, g)) == \
            tuple(x.coeffs for x in divmod(bf, bg))
    assert f.gcd(g).coeffs == bf.gcd(bg).coeffs
    d, v = f.xgcd(g)
    bd, _, bv = bf.xgcd(bg)
    assert [d.coeffs, v.coeffs] == [bd.coeffs, bv.coeffs]
    assert d == f.gcd(g)
    if f.is_zero:
        assert v * g == d
    else:
        assert ((v * g - d) % f).is_zero
        assert squarefree_part(f).coeffs == bf.squarefree_part().coeffs


def _to_sympy(f, t):
    if f.spec.char == 0:
        return sympy.Poly([sympy.Rational(c.val.numerator, c.val.denominator)
                           for c in reversed(f.coeffs)] or [0], t, domain="QQ")
    return sympy.Poly([c.val for c in reversed(f.coeffs)] or [0], t,
                      modulus=f.spec.char)


def _from_sympy(spec, h):
    coeffs = reversed(h.all_coeffs())
    if spec.char == 0:
        return Poly(spec, [spec.scalar(Fraction(int(c.p), int(c.q)))
                           for c in coeffs])
    return Poly.from_ints(spec, [int(c) for c in coeffs])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_poly_pair().filter(lambda case: case[0] in (Q, GF7)))
def test_poly_arithmetic_matches_sympy(case):
    """Over Q and GF(7): division, the monic gcd and the squarefree part
    agree with sympy's div, gcd and sqf_part."""
    spec, f, g = case
    t = sympy.symbols("t")
    sf, sg = _to_sympy(f, t), _to_sympy(g, t)
    if not g.is_zero:
        assert divmod(f, g) == tuple(_from_sympy(spec, h) for h in sf.div(sg))
    assert f.gcd(g) == _from_sympy(spec, sf.gcd(sg))
    if not f.is_zero:
        assert squarefree_part(f) == _from_sympy(spec, sf.sqf_part())


def test_gcd_of_large_rationals_stays_fast():
    """Monic remainders keep Q coefficients from growing: for a degree-16
    polynomial with coefficients a/b, |a| and b up to 10^30, the gcd with
    its derivative and the squarefree part each took 4.2-4.8 s with an
    unnormalised Euclid and 0.4-0.5 s with monic remainders (Python 3.11,
    2 vCPU)."""
    rng = random.Random(5)
    f = Poly(Q, [Q.scalar(Fraction(rng.randint(-10 ** 30, 10 ** 30),
                                   rng.randint(1, 10 ** 30)))
                 for _ in range(17)])
    start = time.perf_counter()
    assert f.gcd(f.derivative()) == Poly.one(Q)
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    assert squarefree_part(f) == f.monic()
    assert time.perf_counter() - start < 2


def test_no_module_outside_field_reads_poly_coefficients_as_scalars():
    """Polynomials hold raw values, and only ``field`` boxes them: no other
    module of the package reads ``.coeffs`` except an ops object's
    ``coeffs(raw)``, which lists the coefficients of a GF(p^k) element."""
    for path in sorted(Path(nilclose.__file__).parent.glob("*.py")):
        if path.name == "field.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "coeffs":
                owner = node.value
                owner = getattr(owner, "attr", getattr(owner, "id", None))
                assert owner == "ops", f"{path.name}:{node.lineno} reads .coeffs"
