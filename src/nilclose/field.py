"""Exact field arithmetic over Q and GF(p^k).

Scalars are immutable: rationals are reduced fractions, finite-field
elements are coefficient vectors reduced modulo p and modulo the
irreducible modulus of the extension.  The module also provides the
roots-of-unity search, the extension-degree computation needed to realize
those roots, and the geometric sums that control the block constructions
in the witness module.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NotCoprime,
    ZeroPolynomial,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# polynomials over GF(p) as int tuples, lowest degree first
# ---------------------------------------------------------------------------

def _gfp_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _gfp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _gfp_trim(out)


def _gfp_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    db, dlead = len(b) - 1, b[-1]
    inv_lead = pow(dlead, p - 2, p)
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        coef = (a[i] * inv_lead) % p
        if coef:
            quo[i - db] = coef
            for j, bj in enumerate(b):
                a[i - db + j] = (a[i - db + j] - coef * bj) % p
    return _gfp_trim(quo), _gfp_trim(a)


def _gfp_irreducible(f, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for v in range(p ** d):
            digits, x = [], v
            for _ in range(d):
                digits.append(x % p)
                x //= p
            cand = tuple(digits) + (1,)
            _, rem = _gfp_divmod(f, cand, p)
            if not rem:
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, k: int):
    """Lexicographically least monic irreducible of degree k over GF(p)."""
    for v in range(p ** k):
        digits, x = [], v
        for _ in range(k):
            digits.append(x % p)
            x //= p
        cand = tuple(digits) + (1,)
        if _gfp_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# field specifications
# ---------------------------------------------------------------------------

class FieldSpec:
    """Description of the ground field: Q, GF(p) or GF(p^k).

    ``char`` is 0 for the rationals, else a prime p.  ``modulus`` is the
    monic irreducible defining the extension, as an int tuple (lowest
    degree first); it is None when the degree is 1.
    """

    __slots__ = ("char", "degree", "modulus")

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
                    modulus = _gfp_trim(tuple(c % char for c in modulus))
                    if len(modulus) != degree + 1 or modulus[-1] != 1:
                        raise ValueError("modulus must be monic of the stated degree")
                    if not _gfp_irreducible(modulus, char):
                        raise ValueError("modulus is reducible")
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "modulus", modulus)

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
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, value: int) -> "Scalar":
        if self.char == 0:
            return Scalar(self, Fraction(value))
        vec = [0] * self.degree
        vec[0] = value % self.char
        return Scalar(self, tuple(vec))

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction or coefficient sequence into the field."""
        if isinstance(value, Scalar):
            if value.spec != self:
                raise FieldMismatch(f"scalar from {value.spec} used in {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if self.char == 0:
            return Scalar(self, Fraction(value))
        vec = [v % self.char for v in value]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than extension degree")
        vec += [0] * (self.degree - len(vec))
        return Scalar(self, tuple(vec))

    def element_from_index(self, index: int) -> "Scalar":
        """The index-th field element in the fixed enumeration order."""
        if self.char == 0:
            # 0, 1, -1, 2, -2, ...
            if index == 0:
                return self.zero()
            half, sign = divmod(index + 1, 2)
            return self.from_int(half if sign == 0 else -half)
        p = self.char
        vec, x = [], index % self.order
        for _ in range(self.degree):
            vec.append(x % p)
            x //= p
        return Scalar(self, tuple(vec))

    def index_of(self, x: "Scalar") -> int:
        if self.char == 0:
            raise ValueError("no finite enumeration of the rationals")
        idx = 0
        for c in reversed(x.val):
            idx = idx * self.char + c
        return idx

    def elements(self):
        """Iterate field elements in the fixed enumeration order.

        Finite fields yield all elements; the rationals yield the infinite
        sequence 0, 1, -1, 2, -2, ...
        """
        if self.char == 0:
            i = 0
            while True:
                yield self.element_from_index(i)
                i += 1
        else:
            for i in range(self.order):
                yield self.element_from_index(i)

    def parse_scalar(self, text: str) -> "Scalar":
        return _parse_scalar(self, text)


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
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """Immutable field element: a Fraction over Q, a coefficient tuple over GF."""

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
        if self.spec.char == 0:
            return self.val == 0
        return not any(self.val)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        return (isinstance(other, Scalar) and self.spec == other.spec
                and self.val == other.val)

    def __hash__(self):
        return hash((self.spec, self.val))

    def __add__(self, other):
        self._check(other)
        if self.spec.char == 0:
            return Scalar(self.spec, self.val + other.val)
        p = self.spec.char
        return Scalar(self.spec,
                      tuple((a + b) % p for a, b in zip(self.val, other.val)))

    def __sub__(self, other):
        self._check(other)
        if self.spec.char == 0:
            return Scalar(self.spec, self.val - other.val)
        p = self.spec.char
        return Scalar(self.spec,
                      tuple((a - b) % p for a, b in zip(self.val, other.val)))

    def __neg__(self):
        if self.spec.char == 0:
            return Scalar(self.spec, -self.val)
        p = self.spec.char
        return Scalar(self.spec, tuple((-a) % p for a in self.val))

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        if spec.char == 0:
            return Scalar(spec, self.val * other.val)
        p, k = spec.char, spec.degree
        if k == 1:
            return Scalar(spec, ((self.val[0] * other.val[0]) % p,))
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.val):
            if a:
                for j, b in enumerate(other.val):
                    prod[i + j] = (prod[i + j] + a * b) % p
        mod = spec.modulus
        for i in range(len(prod) - 1, k - 1, -1):
            t = prod[i]
            if t:
                for j in range(k):
                    prod[i - k + j] = (prod[i - k + j] - t * mod[j]) % p
        return Scalar(spec, tuple(prod[:k]))

    def inverse(self) -> "Scalar":
        spec = self.spec
        if self.is_zero:
            raise DivisionByZero(f"inverse of zero in {spec}")
        if spec.char == 0:
            return Scalar(spec, 1 / self.val)
        p, k = spec.char, spec.degree
        if k == 1:
            return Scalar(spec, (pow(self.val[0], p - 2, p),))
        # extended Euclid over GF(p)[x] against the modulus
        r0, r1 = spec.modulus, _gfp_trim(self.val)
        s0, s1 = (), (1,)
        while r1:
            q, r = _gfp_divmod(r0, r1, p)
            r0, r1 = r1, r
            s0, s1 = s1, _gfp_sub(s0, _gfp_mul(q, s1, p), p)
        # r0 is a nonzero constant gcd
        c_inv = pow(r0[0], p - 2, p)
        inv = tuple((c * c_inv) % p for c in s0)
        return spec.scalar(inv)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = self.spec.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self):
        if self.spec.char == 0:
            return str(self.val)
        return _format_int_poly(self.val)

    def __repr__(self):
        return f"Scalar({self.spec}, {self})"


def _gfp_sub(a, b, p):
    n = max(len(a), len(b))
    a = tuple(a) + (0,) * (n - len(a))
    b = tuple(b) + (0,) * (n - len(b))
    return _gfp_trim(tuple((x - y) % p for x, y in zip(a, b)))


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


def _parse_int_poly(text: str):
    coeffs = {}
    for term in text.replace(" ", "").split("+"):
        m = _TERM_RE.match(term)
        if not m or term == "":
            raise ValueError(f"unparsable term {term!r}")
        coef_s, pow_s = m.groups()
        if coef_s is None and "x" not in term:
            raise ValueError(f"unparsable term {term!r}")
        coef = int(coef_s) if coef_s is not None else 1
        if "x" in term:
            power = int(pow_s) if pow_s is not None else 1
        else:
            power = 0
        coeffs[power] = coeffs.get(power, 0) + coef
    out = [0] * (max(coeffs) + 1 if coeffs else 0)
    for power, coef in coeffs.items():
        out[power] = coef
    return tuple(out)


def _parse_scalar(spec: FieldSpec, text: str) -> Scalar:
    text = text.strip()
    if spec.char == 0:
        try:
            return Scalar(spec, Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"unparsable rational {text!r}") from exc
    try:
        if text.lstrip("-").isdigit():
            return spec.from_int(int(text))
        return spec.scalar(_parse_int_poly(text))
    except ValueError as exc:
        raise ValueError(f"unparsable {spec} element {text!r}") from exc


_FIELD_RE = re.compile(r"^GF\((\d+)(?:\^(\d+))?(?:;(.+))?\)$")


def parse_field(text: str) -> FieldSpec:
    """Parse "Q", "GF(p)" or "GF(p^k;modulus)"."""
    text = text.strip()
    if text == "Q":
        return rationals()
    m = _FIELD_RE.match(text)
    if not m:
        raise ValueError(f"unparsable field {text!r}")
    p = int(m.group(1))
    k = int(m.group(2)) if m.group(2) else 1
    modulus = _parse_int_poly(m.group(3)) if m.group(3) else None
    return galois(p, k, modulus)


# ---------------------------------------------------------------------------
# polynomials over a field
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial over a FieldSpec, lowest degree first, trimmed."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if c.spec != spec:
                raise FieldMismatch("coefficient from a different field")
        n = len(coeffs)
        while n > 0 and coeffs[n - 1].is_zero:
            n -= 1
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "coeffs", coeffs[:n])

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_ints(cls, spec: FieldSpec, ints) -> "Poly":
        return cls(spec, [spec.from_int(v) for v in ints])

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls(spec, (spec.one(),))

    @classmethod
    def identity_t(cls, spec: FieldSpec) -> "Poly":
        """The polynomial t."""
        return cls(spec, (spec.zero(), spec.one()))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient."""
        if self.is_zero:
            raise ZeroPolynomial("valuation of the zero polynomial")
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                return i
        raise AssertionError("trimmed polynomial with no nonzero coefficient")

    def _check(self, other: "Poly"):
        if self.spec != other.spec:
            raise FieldMismatch("polynomials over different fields")

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.spec == other.spec
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def __add__(self, other):
        self._check(other)
        zero = self.spec.zero()
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (zero,) * (n - len(self.coeffs))
        b = other.coeffs + (zero,) * (n - len(other.coeffs))
        return Poly(self.spec, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        self._check(other)
        zero = self.spec.zero()
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (zero,) * (n - len(self.coeffs))
        b = other.coeffs + (zero,) * (n - len(other.coeffs))
        return Poly(self.spec, [x - y for x, y in zip(a, b)])

    def __neg__(self):
        return Poly(self.spec, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.spec)
        zero = self.spec.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.spec, out)

    def scale(self, c: Scalar) -> "Poly":
        return Poly(self.spec, [c * x for x in self.coeffs])

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = other.coeffs[-1].inverse()
        zero = self.spec.zero()
        quo = [zero] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            coef = rem[i] * inv_lead
            if coef.is_zero:
                continue
            quo[i - db] = coef
            for j, bj in enumerate(other.coeffs):
                rem[i - db + j] = rem[i - db + j] - coef * bj
        return Poly(self.spec, quo), Poly(self.spec, rem[:db] if db > 0 else ())

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        if lead == self.spec.one():
            return self
        return self.scale(lead.inverse())

    def derivative(self) -> "Poly":
        if self.degree < 1:
            return Poly.zero(self.spec)
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.spec.from_int(i) * self.coeffs[i])
        return Poly(self.spec, out)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def xgcd(self, other: "Poly"):
        """(g, u, v) with u*self + v*other = g, g monic."""
        self._check(other)
        spec = self.spec
        r0, r1 = self, other
        s0, s1 = Poly.one(spec), Poly.zero(spec)
        t0, t1 = Poly.zero(spec), Poly.one(spec)
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero:
            return r0, s0, t0
        lead_inv = r0.coeffs[-1].inverse()
        return r0.scale(lead_inv), s0.scale(lead_inv), t0.scale(lead_inv)

    def eval_scalar(self, x: Scalar) -> Scalar:
        if x.spec != self.spec:
            raise FieldMismatch("evaluation point from a different field")
        acc = self.spec.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = str(c)
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
    """
    if m < 1:
        raise ValueError("m must be positive")
    one = spec.one()
    if spec.char == 0:
        roots = [one]
        if m % 2 == 0:
            roots.append(-one)
        return roots
    q = spec.order
    d = gcd(m, q - 1)
    prime_divisors = [r for r in range(2, d + 1) if d % r == 0 and is_prime(r)]
    for i in range(1, q):
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
    total = a.spec.zero()
    b_pow = a.spec.one()
    a_pows = [a.spec.one()]
    for _ in range(k - 1):
        a_pows.append(a_pows[-1] * a)
    for j in range(k):
        total = total + a_pows[k - 1 - j] * b_pow
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
