"""Exact field arithmetic over Q and GF(p^k).

Every field has one ops object that holds all of its arithmetic, on raw
values: reduced ``Fraction``s over Q, residues ``0 <= a < p`` over GF(p),
and over GF(p^k) packed ints, whose byte-aligned slots hold the
coefficients reduced modulo p and the irreducible modulus (Kronecker
substitution, as for matrix products): a product is one int multiply whose
slots are read once, a sum one int addition reduced slot-wise.  In every
field the raw zero is the only false raw value.  ``Scalar`` is a thin
immutable facade that pairs a raw value with its field and delegates every
operation to the ops object; matrices and polynomials store raw values and
call the ops object directly, and the polynomial Euclid makes each
remainder monic, so Q coefficients do not grow.  Each ops object has one
``pow``; GF(p^k) inverses are Fermat's a^(p^k - 2), cached per field, as
GF(p) ones are a^(p - 2).  The default extension modulus is the least
irreducible by Rabin's test, and primality is a Miller-Rabin test that is
exact below PRIMALITY_LIMIT.  ``parse_field`` searches the default modulus
only for orders up to MODULUS_SEARCH_LIMIT, and takes no field of order
above FIELD_ORDER_LIMIT.  The module also provides the roots-of-unity
search, the extension-degree computation needed to realize those roots, and
the geometric sums that control the block constructions in the witness module.
"""

from __future__ import annotations

import operator
import re
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, count, repeat, starmap, zip_longest
from math import gcd

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NotCoprime,
    ZeroPolynomial,
)


# The least strong pseudoprime to all of the first 13 prime bases, 2..41
# (J. Sorenson and J. Webster, Math. Comp. 86 (2017)): below it the
# Miller-Rabin test over those bases is exact.
PRIMALITY_LIMIT = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The largest order p^k of a field text without a modulus.  The search for
# the least irreducible tries candidates in order, and its cost grows with
# both p and k: below this order it took at most 0.3 s for every degree
# (GF(1613^3)), while GF(2^100) took 2.6 s, GF(2^300) over 10 s and
# GF(1000003^16) over a minute, testing a million reducible binomials.
MODULUS_SEARCH_LIMIT = 2 ** 32

# The largest order p^k of any field text.  A given modulus is checked by
# Rabin's test, k Frobenius powers of about log2 p products each, and a
# product folds each of its k - 1 high coefficients along the modulus's
# nonzero terms, so a dense modulus costs about k^3 log2 p steps.  At order
# 2^512 the slowest case measured, a dense modulus of degree 512 over GF(2),
# took 4.4 s and a trinomial of that degree 0.05 s; trinomials of degree
# 1000 and 3000 took 0.5 s and 5.2 s, and the degree has no other bound.
FIELD_ORDER_LIMIT = 2 ** 512


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the prime bases 2..41; raises
    ValueError for n >= PRIMALITY_LIMIT, where those bases no longer
    suffice."""
    if n >= PRIMALITY_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only "
                         f"below {PRIMALITY_LIMIT}")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1     # n - 1 = 2^s * d, d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials over GF(p) as int tuples, lowest degree first
# ---------------------------------------------------------------------------

def _digits(v: int, p: int, k: int) -> list[int]:
    """The k base-p digits of v, lowest first."""
    return [v // p ** i % p for i in range(k)]


def _gfp_irreducible(f, p) -> bool:
    """Rabin's test for a monic f of degree k over GF(p): f is irreducible
    iff t^(p^k) = t mod f and gcd(t^(p^(k/r)) - t, f) = 1 for every prime
    r dividing k.  Powers of t are taken in GF(p)[t]/(f) through
    ``_ExtensionOps``, whose reduction and powering need f monic only."""
    k = len(f) - 1
    if k < 1:
        return False
    ops = _ExtensionOps(p, f)
    t = ops.fold([0, 1] + [0] * (k - 1))
    frobenius = [t]                     # t^(p^j) mod f for j = 0..k
    for _ in range(k):
        frobenius.append(ops.pow(frobenius[-1], p))
    gfp = FieldSpec(p)
    return frobenius[k] == t and all(
        Poly._of(gfp, f).gcd(Poly._of(
            gfp, ops.coeffs(ops.sub(frobenius[k // r], t)))).degree == 0
        for r in range(2, k + 1) if k % r == 0 and is_prime(r))


@lru_cache(maxsize=None)
def default_modulus(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over GF(p).
    Its first p candidates, x^k + c, are skipped unless every prime factor
    of k divides p - 1 (so k | (p - 1)^k), and 4 | p - 1 if 4 | k: Lidl and
    Niederreiter, Finite Fields, Thm 3.75."""
    binomials = pow(p - 1, k, k) == 0 and (k % 4 or p % 4 == 1)
    for v in range(0 if binomials else p, p ** k):
        cand = tuple(_digits(v, p, k)) + (1,)
        if _gfp_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# raw arithmetic, one ops object per field
# ---------------------------------------------------------------------------

class _RationalOps:
    """Arithmetic of Q on reduced Fractions."""

    zero, one = Fraction(0), Fraction(1)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)
    inv = staticmethod(lambda a: 1 / a)
    pow = staticmethod(operator.pow)
    submul = staticmethod(lambda a, f, b: a - f * b)   # the elimination step


class _PrimeOps:
    """Arithmetic of GF(p) on residues 0 <= a < p."""

    zero, one = 0, 1
    is_zero = staticmethod(operator.not_)

    def __init__(self, p: int):
        self.p = p
        self.add = lambda a, b: (a + b) % p
        self.sub = lambda a, b: (a - b) % p
        self.neg = lambda a: -a % p
        self.mul = lambda a, b: a * b % p
        self.inv = lambda a: pow(a, p - 2, p)
        self.pow = lambda a, e: pow(a, e, p)
        self.submul = lambda a, f, b: (a - f * b) % p

    def from_coeffs(self, coeffs):
        return coeffs[0] % self.p if coeffs else 0

    @staticmethod
    def coeffs(a):
        return (a,)


def _slot_codec(count: int, bits: int):
    """(read, write) for ints of count slots, slot 0 lowest, each slot the
    least power-of-two number of bytes that holds bits bits: read(v) lists
    the slots of such an int v >= 0, and write(coeffs) packs count
    coefficients that fit their slots.  Each is one ``to_bytes`` or
    ``from_bytes``, so linear in count; slots of 2 to 8 bytes go through
    one ``struct`` format."""
    size = 1 << max(0, (bits - 1).bit_length() - 3)
    width = count * size
    if size == 1:
        def read(v):
            return list(v.to_bytes(width, "little"))

        def write(coeffs):
            return int.from_bytes(bytes(coeffs), "little")
    elif size <= 8:
        code = {2: "H", 4: "I", 8: "Q"}[size]
        fmt = struct.Struct(f"<{count}{code}")

        def read(v):
            return list(fmt.unpack(v.to_bytes(width, "little")))

        def write(coeffs):
            return int.from_bytes(fmt.pack(*coeffs), "little")
    else:
        def read(v):
            data = v.to_bytes(width, "little")
            return [int.from_bytes(data[i:i + size], "little")
                    for i in range(0, width, size)]

        def write(coeffs):
            return int.from_bytes(b"".join(c.to_bytes(size, "little")
                                           for c in coeffs), "little")
    return read, write


class _ExtensionOps:
    """Arithmetic of GF(p^k) on packed ints: coefficient i of the element,
    lowest degree first and reduced modulo p and the monic irreducible
    modulus, sits in slot i of a whole number of bytes, wide enough for a
    coefficient of the product of two elements, at most k(p-1)^2, so a
    product is one int multiply whose slots carry nothing into the next;
    ``fold`` reads them and reduces them once.  A sum is one int addition
    whose slots, below 2p, are brought under p at once by a guard bit."""

    zero, one = 0, 1
    is_zero = staticmethod(operator.not_)

    def __init__(self, p: int, modulus):
        k = len(modulus) - 1
        self.p, self.k = p, k
        g = p.bit_length()                  # the guard bit: 2^g > p
        bits = max((k * (p - 1) ** 2).bit_length(), g + 1)
        self._read, write = _slot_codec(k, bits)
        read_product = _slot_codec(2 * k - 1, bits)[0]
        ones = write([1] * k)
        ps = p * ones                       # p in every slot
        bias = ((1 << g) - p) * ones        # t + bias reaches 2^g iff t >= p
        guard = ones << g
        # x^k = -(lower terms of the modulus); only its nonzero terms fold
        tail = [(j, c) for j, c in enumerate(modulus[:-1]) if c]

        def reduce(s):
            """Slot-wise s mod p, for slots 0 <= t < 2p."""
            return s - (((s + bias) & guard) >> g) * p

        def fold(prod):
            """The field element of an unreduced product, a list of integer
            coefficients lowest degree first, reduced once modulo p and the
            modulus."""
            for i in range(len(prod) - 1, k - 1, -1):
                t = prod[i] % p
                if t:
                    for j, c in tail:
                        prod[i - k + j] -= t * c
            return write([c % p for c in prod[:k]])

        def mul(a, b):
            return fold(read_product(a * b))

        self._write, self.fold, self.mul = write, fold, mul
        self.add = lambda a, b: reduce(a + b)
        self.sub = lambda a, b: reduce(a + ps - b)
        self.neg = lambda a: reduce(ps - a)
        self.submul = lambda a, f, b: reduce(a + ps - mul(f, b))
        self._inverses = {}

    def pow(self, a, e):
        """a^e for e >= 0, by square-and-multiply from the high bit."""
        if not e:
            return self.one
        power = a
        for bit in bin(e)[3:]:
            power = self.mul(power, power)
            if bit == "1":
                power = self.mul(power, a)
        return power

    def inv(self, a):
        """The Fermat inverse a^(p^k - 2), cached, as a field's pivots and
        divisors repeat; the cache holds at most p^k - 1 entries."""
        inverse = self._inverses.get(a)
        if inverse is None:
            inverse = self._inverses[a] = self.pow(a, self.p ** self.k - 2)
        return inverse

    def from_coeffs(self, coeffs):
        p = self.p
        return self._write([c % p for c in coeffs]
                           + [0] * (self.k - len(coeffs)))

    def coeffs(self, a):
        """The k coefficients of a, lowest degree first."""
        return tuple(self._read(a))


# ---------------------------------------------------------------------------
# field specifications
# ---------------------------------------------------------------------------

class FieldSpec:
    """Description of the ground field: Q, GF(p) or GF(p^k).

    ``char`` is 0 for the rationals, else a prime p.  ``modulus`` is the
    monic irreducible defining the extension, as an int tuple (lowest
    degree first); it is None when the degree is 1.  ``ops`` holds the
    field's arithmetic on raw values.
    """

    __slots__ = ("char", "degree", "modulus", "ops", "_zero", "_one")

    def __init__(self, char: int, degree: int = 1, modulus=None):
        if char == 0:
            if degree != 1 or modulus is not None:
                raise ValueError("the rationals have no extension structure")
        else:
            if not is_prime(char):
                raise ValueError(f"characteristic {char} is not 0 or prime")
            if degree < 1:
                raise ValueError("extension degree must be positive")
            if degree == 1:
                if modulus is not None:
                    raise ValueError("prime fields take no modulus")
            else:
                if modulus is None:
                    modulus = default_modulus(char, degree)
                else:
                    modulus = tuple(c % char for c in modulus)
                    while modulus and not modulus[-1]:
                        modulus = modulus[:-1]
                    if len(modulus) != degree + 1 or modulus[-1] != 1:
                        raise ValueError("modulus must be monic of the stated degree")
                    if not _gfp_irreducible(modulus, char):
                        raise ValueError("modulus is reducible")
        ops = (_RationalOps() if char == 0 else _PrimeOps(char) if degree == 1
               else _ExtensionOps(char, modulus))
        for name, value in (("char", char), ("degree", degree),
                            ("modulus", modulus), ("ops", ops),
                            ("_zero", Scalar(self, ops.zero)),
                            ("_one", Scalar(self, ops.one))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, FieldSpec)
                and self.char == other.char
                and self.degree == other.degree
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.char, self.degree, self.modulus))

    def __repr__(self):
        return f"FieldSpec({self})"

    def __str__(self):
        if self.char == 0:
            return "Q"
        if self.degree == 1:
            return f"GF({self.char})"
        mod = _format_int_poly(self.modulus)
        return f"GF({self.char}^{self.degree};{mod})"

    # -- elements ----------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return self.char != 0

    @property
    def order(self) -> int:
        if self.char == 0:
            raise ValueError("the rationals are infinite")
        return self.char ** self.degree

    def zero(self) -> "Scalar":
        return self._zero

    def one(self) -> "Scalar":
        return self._one

    def format(self, raw) -> str:
        """The text of a raw value, as ``Scalar.__str__`` writes it."""
        if self.char == 0:
            return str(raw)
        return _format_int_poly(self.ops.coeffs(raw))

    def box(self, raw) -> "Scalar":
        """The Scalar of a raw value; zero is the field's single zero."""
        return self._zero if self.ops.is_zero(raw) else Scalar(self, raw)

    def from_int(self, value: int) -> "Scalar":
        return self.scalar((value,) if self.char else Fraction(value))

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction or coefficient sequence into the field."""
        if isinstance(value, Scalar):
            if value.spec != self:
                raise FieldMismatch(f"scalar from {value.spec} used in {self}")
            return value
        if self.char == 0:
            return Scalar(self, Fraction(value))
        coeffs = (value,) if isinstance(value, int) else tuple(value)
        if len(coeffs) > self.degree:
            raise ValueError("coefficient vector longer than extension degree")
        return Scalar(self, self.ops.from_coeffs(coeffs))

    def element_from_index(self, index: int) -> "Scalar":
        """The index-th field element in the fixed enumeration order."""
        if self.char == 0:
            # 0, 1, -1, 2, -2, ...
            if index == 0:
                return self.zero()
            half, sign = divmod(index + 1, 2)
            return self.from_int(half if sign == 0 else -half)
        return Scalar(self, self.ops.from_coeffs(
            _digits(index % self.order, self.char, self.degree)))

    def index_of(self, x: "Scalar") -> int:
        if self.char == 0:
            raise ValueError("no finite enumeration of the rationals")
        idx = 0
        for c in reversed(self.ops.coeffs(x.val)):
            idx = idx * self.char + c
        return idx

    def elements(self):
        """Iterate field elements in the fixed enumeration order.

        Finite fields yield all elements; the rationals yield the infinite
        sequence 0, 1, -1, 2, -2, ...
        """
        return map(self.element_from_index,
                   count() if self.char == 0 else range(self.order))

    def parse_scalar(self, text: str) -> "Scalar":
        text = text.strip()
        if self.char == 0:
            try:
                if "e" in text.lower():     # exponents: Fraction would expand
                    raise ValueError("exponent notation")
                return Scalar(self, Fraction(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"unparsable rational {text!r}") from exc
        try:
            if text.lstrip("-").isdigit():
                return self.from_int(int(text))
            return self.scalar(_parse_int_poly(text, self.degree - 1))
        except ValueError as exc:
            raise ValueError(f"unparsable {self} element {text!r}") from exc


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """Immutable field element: a raw value of its field (see the module
    docstring) with every operation delegated to ``spec.ops``."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: FieldSpec, val):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "val", val)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _check(self, other: "Scalar"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise FieldMismatch(f"operands from {self.spec} and {other.spec}")

    @property
    def is_zero(self) -> bool:
        return self.spec.ops.is_zero(self.val)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        return (isinstance(other, Scalar)
                and (self.spec is other.spec or self.spec == other.spec)
                and self.val == other.val)

    def __hash__(self):
        return hash((self.spec, self.val))

    def __add__(self, other):
        self._check(other)
        return Scalar(self.spec, self.spec.ops.add(self.val, other.val))

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.spec, self.spec.ops.sub(self.val, other.val))

    def __neg__(self):
        return Scalar(self.spec, self.spec.ops.neg(self.val))

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.spec, self.spec.ops.mul(self.val, other.val))

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise DivisionByZero(f"inverse of zero in {self.spec}")
        return Scalar(self.spec, self.spec.ops.inv(self.val))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return Scalar(self.spec, self.spec.ops.pow(self.val, exponent))

    def __str__(self):
        return self.spec.format(self.val)

    def __repr__(self):
        return f"Scalar({self.spec}, {self})"


_RATIONALS = FieldSpec(0)


def rationals() -> FieldSpec:
    return _RATIONALS


@lru_cache(maxsize=None)
def _galois_cached(p: int, k: int) -> FieldSpec:
    return FieldSpec(p, k)


def galois(p: int, k: int = 1, modulus=None) -> FieldSpec:
    if modulus is None:
        return _galois_cached(p, k)
    return FieldSpec(p, k, modulus)


# ---------------------------------------------------------------------------
# text encoding
# ---------------------------------------------------------------------------

def _format_int_poly(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            power = "x" if i == 1 else f"x^{i}"
            terms.append(head + power)
    return "+".join(terms) if terms else "0"


_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(?:x(?:\^(\d+))?)?$")


def _parse_int_poly(text: str, max_power: int):
    """Integer coefficients of a polynomial text, lowest degree first;
    a power above max_power is refused before any list is sized by it."""
    coeffs = {}
    for term in text.replace(" ", "").split("+"):
        m = _TERM_RE.match(term)
        if not m or term == "":
            raise ValueError(f"unparsable term {term!r}")
        coef_s, pow_s = m.groups()
        if coef_s is None and "x" not in term:
            raise ValueError(f"unparsable term {term!r}")
        power = (int(pow_s) if pow_s else 1) if "x" in term else 0
        if power > max_power:
            raise ValueError(f"term x^{power} above degree {max_power}")
        coeffs[power] = coeffs.get(power, 0) + (int(coef_s) if coef_s else 1)
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for power, coef in coeffs.items():
        out[power] = coef
    return tuple(out)


_FIELD_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?(?:;(.+))?\)$")


def _order_above(p: int, k: int, limit: int) -> bool:
    """Whether p^k > limit, a power of two, without forming p^k when the
    bit length of p alone settles it."""
    return (k * (p.bit_length() - 1) >= limit.bit_length()
            or p ** k > limit)


def parse_field(text: str) -> FieldSpec:
    """Parse "Q", "GF(p)", "GF(p^k;modulus)" or "GF(p^k)"; a field of order
    above FIELD_ORDER_LIMIT is refused, and so is the last form, which takes
    the default modulus, above MODULUS_SEARCH_LIMIT, both before any
    modulus is read, searched or tested."""
    text = text.strip()
    if text == "Q":
        return rationals()
    m = _FIELD_RE.match(text)
    if not m:
        raise ValueError(f"unparsable field {text!r}")
    p = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else 1
    name = f"GF({p}^{k})" if k > 1 else f"GF({p})"
    if _order_above(p, k, FIELD_ORDER_LIMIT):
        raise ValueError(f"{name} has order above 2^512, the limit for "
                         f"any field")
    if m.group(3) is None and k > 1 and _order_above(p, k,
                                                     MODULUS_SEARCH_LIMIT):
        raise ValueError(
            f"{name} has order above 2^32, the limit for a field "
            f"without a modulus; give one, as in GF({p}^{k};modulus)")
    modulus = _parse_int_poly(m.group(3), k) if m.group(3) else None
    return galois(p, k, modulus)


# ---------------------------------------------------------------------------
# polynomials over a field
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial over a FieldSpec, lowest degree first, trimmed."""

    __slots__ = ("spec", "vals")

    def __new__(cls, spec: FieldSpec, coeffs):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if c.spec != spec:
                raise FieldMismatch("coefficient from a different field")
        return cls._of(spec, [c.val for c in coeffs])

    @classmethod
    def _of(cls, spec: FieldSpec, vals) -> "Poly":
        """Unchecked: raw values of spec, lowest degree first."""
        n = len(vals)
        while n > 0 and not vals[n - 1]:    # only the raw zero is false
            n -= 1
        self = object.__new__(cls)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "vals", tuple(vals[:n]))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_ints(cls, spec: FieldSpec, ints) -> "Poly":
        return cls(spec, [spec.from_int(v) for v in ints])

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls._of(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls._of(spec, (spec.ops.one,))

    @property
    def coeffs(self) -> tuple:
        return tuple(map(self.spec.box, self.vals))

    @property
    def is_zero(self) -> bool:
        return not self.vals

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.vals) - 1

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient."""
        if self.is_zero:
            raise ZeroPolynomial("valuation of the zero polynomial")
        return next(i for i, c in enumerate(self.vals) if c)

    def _check(self, other: "Poly"):
        if self.spec != other.spec:
            raise FieldMismatch("polynomials over different fields")

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.spec == other.spec
                and self.vals == other.vals)

    def __hash__(self):
        return hash((self.spec, self.vals))

    def __add__(self, other):
        self._check(other)
        return Poly._of(self.spec, list(starmap(self.spec.ops.add, zip_longest(
            self.vals, other.vals, fillvalue=self.spec.ops.zero))))

    def __sub__(self, other):
        self._check(other)
        return Poly._of(self.spec, list(starmap(self.spec.ops.sub, zip_longest(
            self.vals, other.vals, fillvalue=self.spec.ops.zero))))

    def __mul__(self, other):
        self._check(other)
        add, mul = self.spec.ops.add, self.spec.ops.mul
        out = [self.spec.ops.zero] * (len(self.vals) + len(other.vals) - 1)
        for i, a in enumerate(self.vals):
            if not a:
                continue
            for j, b in enumerate(other.vals):
                out[i + j] = add(out[i + j], mul(a, b))
        return Poly._of(self.spec, out)

    def _scale(self, c) -> "Poly":         # c a raw value
        mul = self.spec.ops.mul
        return Poly._of(self.spec, [mul(c, x) for x in self.vals])

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        ops = self.spec.ops
        mul, submul = ops.mul, ops.submul
        rem = list(self.vals)
        db = other.degree
        inv_lead = ops.inv(other.vals[-1])
        quo = [ops.zero] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            coef = mul(rem[i], inv_lead)
            if not coef:
                continue
            quo[i - db] = coef
            for j, bj in enumerate(other.vals):
                rem[i - db + j] = submul(rem[i - db + j], coef, bj)
        return Poly._of(self.spec, quo), Poly._of(self.spec, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.vals[-1] == self.spec.ops.one:
            return self
        return self._scale(self.spec.ops.inv(self.vals[-1]))

    def derivative(self) -> "Poly":
        ops = self.spec.ops                 # the raw i is the sum of i ones
        ints = accumulate(repeat(ops.one, self.degree), ops.add)
        return Poly._of(self.spec, list(map(ops.mul, ints, self.vals[1:])))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor; every remainder is made monic."""
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, (a % b).monic()
        return a.monic()

    def xgcd(self, other: "Poly"):
        """(g, v) with v*other = g modulo self, g the monic gcd; each
        remainder is made monic, and the cofactor v is scaled with it.  The
        cofactor of self is not carried."""
        self._check(other)
        ops = self.spec.ops

        def normalised(r, t):
            c = ops.inv(r.vals[-1]) if r.vals else ops.one
            return r._scale(c), t._scale(c)
        r0, t0 = self, Poly.zero(self.spec)
        r1, t1 = other, Poly.one(self.spec)
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            (r0, t0), (r1, t1) = (r1, t1), normalised(r, t0 - q * t1)
        return normalised(r0, t0)

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.vals):
            if not c:
                continue
            cs = self.spec.format(c)
            if i == 0:
                terms.append(cs)
            else:
                power = "t" if i == 1 else f"t^{i}"
                terms.append(power if cs == "1" else f"({cs})*{power}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly({self.spec}, {self})"


# ---------------------------------------------------------------------------
# module operations
# ---------------------------------------------------------------------------

def roots_of_unity(spec: FieldSpec, m: int) -> list[Scalar]:
    """All field elements whose m-th power is one, in enumeration order.

    Over a finite field they are the cyclic subgroup of order
    d = gcd(m, q - 1) of the multiplicative group, generated by the first
    x^((q-1)/d) of exact order d; so no scan of the whole field is needed.
    Over GF(p^j) the elements outside GF(p), indices p and up, are tried
    first: with a large p and d not dividing p - 1, no element of GF(p)
    can work.  The order of the search does not change the subgroup.
    """
    if m < 1:
        raise ValueError("m must be positive")
    one = spec.one()
    if spec.char == 0:
        return [one, -one] if m % 2 == 0 else [one]
    q = spec.order
    d = gcd(m, q - 1)
    prime_divisors = [r for r in range(2, d + 1) if d % r == 0 and is_prime(r)]
    p = spec.char
    for i in chain(range(p, q), range(1, p)):
        h = spec.element_from_index(i) ** ((q - 1) // d)
        if all(h ** (d // r) != one for r in prime_divisors):
            break
    roots = [one]
    for _ in range(d - 1):
        roots.append(roots[-1] * h)
    return sorted(roots, key=spec.index_of)


def extension_for_roots(p: int, m: int) -> int:
    """Least j with m | p^j - 1, i.e. GF(p^j) holds a full group of m-th roots."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("m must be positive")
    if gcd(m, p) != 1:
        raise NotCoprime(f"{p} divides {m}")
    j, power = 1, p % m
    while power != 1 % m:
        j += 1
        power = (power * p) % m
    return j


def geometric_sum(k: int, a: Scalar, b: Scalar) -> Scalar:
    """Sum of a^i * b^j over i + j = k - 1; times (a-b) it equals a^k - b^k."""
    if k < 1:
        raise ValueError("k must be positive")
    if a.spec != b.spec:
        raise FieldMismatch("operands from different fields")
    total, b_pow = a.spec.zero(), a.spec.one()
    for _ in range(k):                  # Horner in a, b^j entering at step j
        total = total * a + b_pow
        b_pow = b_pow * b
    return total


def surrogate_prime(n: int, m: int) -> int:
    """Least prime P > n with m | P - 1.

    Over GF(P) the acceptance criterion for dimension n coincides with the
    characteristic-0 one (every power of P exceeds n/2 + 1), while a full
    group of m-th roots of unity is available.
    """
    candidate = n + 1
    while True:
        if (candidate - 1) % m == 0 and is_prime(candidate):
            return candidate
        candidate += 1
