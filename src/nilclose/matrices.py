"""Dense exact matrices over a FieldSpec.

Covers the algebra operations, exact rank, polynomial evaluation,
centralizer bases and minimal polynomials.  Everything is immutable and
pure.  Entries are stored as the field's raw values
(``spec.ops``), which every kernel reads and writes; Scalars appear only
at the public boundary, ``ExactMatrix(spec, rows)`` and ``rows``.

Products run one zero-skipping loop on Python ints, ``_product``: over Q
each left row is scaled to its common denominator and the right factor to
one denominator D; over GF(p) an entry is its residue; over GF(p^k) its
packed int is repacked into slots wide enough for a sum of n products
(Kronecker substitution).  Each nonzero sum is reduced once.  Row
reduction takes one row at a time against the pivots found so far, and
``_arithmetic`` is the one place that picks how: on integer rows,
fraction-free (Bareiss), over Q, and on raw rows with unscaled pivots,
``_eliminate``, over finite fields.  Rank, the row-space chain behind
Jordan types (``_power_ranks``), minimal polynomials, Horner's
polynomial evaluation and centralizer bases are each written once on top
of it, so over Q Fractions are formed only for results.  Skipping zeros
is exact, so no result depends on it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from .errors import DimensionMismatch, FieldMismatch, MalformedMatrix
from .field import FieldSpec, Poly, Scalar, _slot_codec, parse_field


class ExactMatrix:
    """Immutable square matrix over a FieldSpec; ``rows`` boxes the raw
    entries as Scalars on first access and caches them."""

    __slots__ = ("spec", "n", "_vals", "_rows")

    def __init__(self, spec: FieldSpec, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("matrix must be square")
            for x in r:
                if x.spec is not spec and x.spec != spec:
                    raise FieldMismatch("entry from a different field")
        for name, value in (("spec", spec), ("n", n), ("_rows", rows),
                            ("_vals", tuple(tuple(x.val for x in r)
                                            for r in rows))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _of(cls, spec: FieldSpec, vals) -> "ExactMatrix":
        """A kernel result: square rows of raw values of spec, taken
        without the checks."""
        self = object.__new__(cls)
        for name, value in (("spec", spec), ("n", len(vals)), ("_rows", None),
                            ("_vals", tuple(map(tuple, vals)))):
            object.__setattr__(self, name, value)
        return self

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of tuples of Scalars."""
        if self._rows is None:
            box = self.spec.box
            object.__setattr__(self, "_rows", tuple(tuple(map(box, r))
                                                    for r in self._vals))
        return self._rows

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_ints(cls, spec: FieldSpec, rows) -> "ExactMatrix":
        return cls(spec, [[spec.from_int(v) for v in r] for r in rows])

    @classmethod
    def zeros(cls, spec: FieldSpec, n: int) -> "ExactMatrix":
        return cls._of(spec, [[spec.ops.zero] * n] * n)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "ExactMatrix":
        z, o = spec.ops.zero, spec.ops.one
        return cls._of(spec, [[o if i == j else z for j in range(n)]
                              for i in range(n)])

    @classmethod
    def jordan_cell(cls, spec: FieldSpec, eigenvalue: Scalar, m: int) -> "ExactMatrix":
        """Single Jordan cell of size m with ones on the superdiagonal."""
        z, o = spec.zero(), spec.one()
        return cls(spec, [[eigenvalue if j == i else o if j == i + 1 else z
                           for j in range(m)] for i in range(m)])

    @classmethod
    def block_diag(cls, spec: FieldSpec, blocks, n: int | None = None) -> "ExactMatrix":
        """Direct sum of square blocks, zero-padded to dimension n."""
        total = sum(b.n for b in blocks)
        if n is None:
            n = total
        if total > n:
            raise DimensionMismatch(f"blocks of total size {total} exceed n={n}")
        rows = [[spec.ops.zero] * n for _ in range(n)]
        off = 0
        for b in blocks:
            if b.spec != spec:
                raise FieldMismatch("block over a different field")
            for i, row in enumerate(b._vals):
                rows[off + i][off:off + b.n] = row
            off += b.n
        return cls._of(spec, rows)

    # -- basics ---------------------------------------------------------------
    def _check(self, other: "ExactMatrix"):
        if self.spec != other.spec:
            raise FieldMismatch("matrices over different fields")
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n}")

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.spec == other.spec
                and self._vals == other._vals)

    def __hash__(self):
        return hash((self.spec, self._vals))

    @property
    def is_zero(self) -> bool:
        is_zero = self.spec.ops.is_zero
        return all(all(map(is_zero, r)) for r in self._vals)

    def _zip(self, other, op, from_zero):
        """Entrywise op(a, b), skipping zeros: where b is zero the entry is
        a, and where only a is zero it is from_zero(b)."""
        self._check(other)
        is_zero = self.spec.ops.is_zero
        return ExactMatrix._of(self.spec, [
            [a if is_zero(b) else from_zero(b) if is_zero(a) else op(a, b)
             for a, b in zip(ra, rb)]
            for ra, rb in zip(self._vals, other._vals)])

    def __add__(self, other):
        return self._zip(other, self.spec.ops.add, lambda b: b)

    def __sub__(self, other):
        return self._zip(other, self.spec.ops.sub, self.spec.ops.neg)

    def __neg__(self):
        return self.scale(-self.spec.one())

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        right, lift = _integer_factors(other)
        return ExactMatrix._of(self.spec, _product(*lift(self._vals), right,
                                                   self.spec.ops.zero))

    def scale(self, c: Scalar) -> "ExactMatrix":
        if c.spec != self.spec:
            raise FieldMismatch("scalar from a different field")
        mul, is_zero, cv = self.spec.ops.mul, self.spec.ops.is_zero, c.val
        return ExactMatrix._of(self.spec, [[a if is_zero(a) else mul(cv, a)
                                            for a in r] for r in self._vals])

    def power(self, e: int) -> "ExactMatrix":
        if e < 0:
            raise ValueError("negative matrix power")
        result = ExactMatrix.identity(self.spec, self.n)
        base = self
        while e:
            if e & 1:
                result = result * base
            if e > 1:
                base = base * base
            e >>= 1
        return result

    def commutator(self, other: "ExactMatrix") -> "ExactMatrix":
        return self * other - other * self

    def trace(self) -> Scalar:
        diagonal = (r[i] for i, r in enumerate(self._vals))
        return self.spec.box(reduce(self.spec.ops.add, diagonal,
                                    self.spec.ops.zero))

    def __str__(self):
        cells = _cells(self)
        width = max((len(c) for r in cells for c in r), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in r) for r in cells)

    def __repr__(self):
        return f"ExactMatrix({self.spec}, n={self.n})"


def _cells(x: ExactMatrix) -> list[list[str]]:
    """The text of each entry of x; each distinct raw value is formatted
    once."""
    text = lru_cache(maxsize=None)(x.spec.format)
    return [list(map(text, r)) for r in x._vals]


def _denominator(row) -> int:
    """Least common denominator of a row of Fractions."""
    return lcm(*(a.denominator for a in row))


def _numerators(row, d: int) -> list[int]:
    """A row of Fractions times its common denominator d."""
    return [a.numerator * (d // a.denominator) for a in row]


def _integer_image(x: ExactMatrix):
    """(D, the rows of D*x as (column, entry) lists over their nonzeros)
    for the least common denominator D of the entries of x over Q."""
    big = lcm(*map(_denominator, x._vals))
    return big, _sparse([_numerators(r, big) for r in x._vals])


def _sparse(rows) -> list[list[tuple]]:
    """Each row as the (column, entry) list of its nonzeros."""
    return [[(j, b) for j, b in enumerate(row) if b] for row in rows]


def _integer_factors(y: ExactMatrix):
    """The rows of an integer image of y as (column, entry) lists over
    their nonzeros, and lift(left) -> (rows, value) for raw rows left of
    width y.n: their integer images, and the raw value value(i, v) of a
    nonzero integer sum v in row i of left * y."""
    n, p, k = y.n, y.spec.char, y.spec.degree
    if p == 0:
        # row i of left over its common denominator d_i, all of y over D
        big, sparse = _integer_image(y)

        def lift(left):
            dens = [_denominator(r) for r in left]
            return ([_numerators(r, d) for r, d in zip(left, dens)],
                    lambda i, v: Fraction(v, dens[i] * big))
        return sparse, lift
    if k == 1:
        right, lift = y._vals, lambda left: (left, lambda i, v: v % p)
    else:
        # GF(p^k): an entry's coefficients move from the field's slots to
        # wider ones.  A slot of a sum of n products of entries is at most
        # n*k*(p-1)^2, so no slot carries into the next.  Entries and sums
        # repeat in small fields, so each distinct one is repacked or
        # reduced once.
        ops = y.spec.ops
        bits = (n * k * (p - 1) ** 2).bit_length()
        write, read = _slot_codec(k, bits)[1], _slot_codec(2 * k - 1, bits)[0]

        @lru_cache(maxsize=None)
        def pack(val):
            return write(ops.coeffs(val))

        @lru_cache(maxsize=None)
        def unpack(v):
            return ops.fold(read(v))
        right = [list(map(pack, r)) for r in y._vals]

        def lift(left):
            return [list(map(pack, r)) for r in left], lambda i, v: unpack(v)
    return _sparse(right), lift


def _product(left, value, right, zero) -> list[list]:
    """Rows of left times right over the integers: left is any number of
    rows of width n and right the n sparse rows of _integer_factors.  Row
    i sums a_ik times row k of right, over the nonzero a_ik and row k's
    nonzeros; a nonzero sum v becomes value(i, v), a zero sum ``zero``.
    With value None the integer sums are returned as they are."""
    out = []
    for i, row_i in enumerate(left):
        acc = [0] * len(right)
        for a, sparse_k in zip(row_i, right):
            if a and sparse_k:
                for j, b in sparse_k:
                    acc[j] += a * b
        out.append(acc if value is None
                   else [value(i, v) if v else zero for v in acc])
    return out


# ---------------------------------------------------------------------------
# row reduction: one choice of arithmetic per field
# ---------------------------------------------------------------------------

def _arithmetic(x: ExactMatrix):
    """(D, times, value, reduce): the one choice of arithmetic for the image
    rows of x's field.  Over Q an image row is a row of integers, times(rows)
    is rows times the integer image D*x, value(v, e) is v/e as a Fraction,
    and reduce divides a row by the gcd of its entries, which changes no
    row space, and runs ``_bareiss_reduce``.  Over a finite field an image
    row is a row of raw values, D = 1, times(rows) is rows times x, value(v,
    e) is v, as e is then 1, and reduce is ``_eliminate``.  Identity rows
    are 0s and 1s in every field.  reduce(row, pivots) reduces the row
    against pivots, the (column, row) pairs found so far, each row zero in
    the earlier pivot columns; a nonzero result enters pivots under its
    first nonzero column, which is returned, and a zero row returns None."""
    if x.spec.char == 0:
        big, right = _integer_image(x)

        def reduce(row, pivots):
            g = gcd(*row)
            return _bareiss_reduce([a // g for a in row] if g > 1 else row,
                                   pivots)
        return (big, lambda rows: _product(rows, None, right, 0), Fraction,
                reduce)
    right, lift = _integer_factors(x)
    ops = x.spec.ops
    return (1, lambda rows: _product(*lift(rows), right, ops.zero),
            lambda v, e: v, lambda row, pivots: _eliminate(row, pivots, ops))


def _bareiss_reduce(row: list[int], pivots: list[tuple[int, list[int]]]):
    """Reduce an integer row fraction-free (Bareiss) against pivots: step j
    sets row to (p_j * row - row[c_j] * r_j) / p_(j-1), p_j = r_j[c_j] and
    p_0 = 1, an exact division that keeps each entry a minor of the input.
    Pivots and the result as for ``_arithmetic``."""
    prev = 1
    for col, pivot_row in pivots:
        f, pv = row[col], pivot_row[col]
        if f:
            row = [(pv * a - f * b) // prev for a, b in zip(row, pivot_row)]
        elif pv != prev:
            row = [pv * a // prev for a in row]
        prev = pv
    return _enter(row, pivots)


def _eliminate(row: list, pivots: list[tuple[int, list]], ops):
    """Reduce a row of raw values against pivots: subtract f / r_j[c_j]
    times each pivot row r_j whose column c_j holds f != 0 in the row.
    Pivot rows stay unscaled, so a pivot is inverted only when a row needs
    it.  Pivots and the result as for ``_arithmetic``; a raw value is false
    exactly when it is zero, in every field."""
    mul, inv, submul = ops.mul, ops.inv, ops.submul
    for col, pivot_row in pivots:
        f = row[col]
        if f:
            f = mul(f, inv(pivot_row[col]))
            row = [submul(a, f, b) if b else a
                   for a, b in zip(row, pivot_row)]
    return _enter(row, pivots)


def _enter(row, pivots):
    """Append a nonzero reduced row to pivots under its first nonzero
    column and return that column; None for a zero row.  The entries
    before the first nonzero one are zero, so ``index`` finds it."""
    lead = next(filter(None, row), None)
    if lead is None:
        return None
    pivots.append((row.index(lead), row))
    return pivots[-1][0]


def _power_ranks(x: ExactMatrix):
    """rank(x), rank(x^2), ... from the row spaces R_k of x^k without
    forming any power: R_0 is the whole space and R_k = R_(k-1) x, so each
    step multiplies the pivot rows of R_(k-1), a basis, by x and reduces
    the products; their pivot rows are a basis of R_k.  Stops after rank
    0, and never when x is not nilpotent."""
    _, times, _, reduce = _arithmetic(x)
    rows = [[int(i == j) for j in range(x.n)] for i in range(x.n)]
    while rows:
        pivots = []
        for row in times(rows):
            reduce(row, pivots)
        rows = [row for _, row in pivots]
        yield len(rows)


def rank(x: ExactMatrix) -> int:
    """Exact rank, the first step of the row-space chain."""
    return next(_power_ranks(x), 0)


# ---------------------------------------------------------------------------
# polynomial evaluation, centralizers, minimal polynomials
# ---------------------------------------------------------------------------

def poly_eval(f: Poly, x: ExactMatrix) -> ExactMatrix:
    """Horner evaluation of f at a matrix argument, from the leading
    coefficient down, on image rows; adding a coefficient changes only the
    diagonal.  With X = D*x the image of x and C_i = E*c_i the coefficients
    of f = sum c_i t^i (degree d) over their common denominator E,
    E*D^d*f(x) = sum C_i*D^(d-i)*X^i; each entry is divided by E*D^d once
    at the end.  Over a finite field D = E = 1, as a raw value is an int."""
    if f.spec != x.spec:
        raise FieldMismatch("polynomial over a different field")
    n, spec = x.n, x.spec
    if f.is_zero:
        return ExactMatrix.zeros(spec, n)
    big, times, value, _ = _arithmetic(x)
    add, zero = spec.ops.add, spec.ops.zero
    den = _denominator(f.vals)
    *lower, lead = _numerators(f.vals, den)
    acc = [[lead if i == j else 0 for j in range(n)] for i in range(n)]
    scale = 1                                       # D^(d-i) at step i
    for c in reversed(lower):
        acc = times(acc)
        scale *= big
        if c:
            for i, row in enumerate(acc):
                row[i] = add(row[i], c * scale)
    den *= scale
    return ExactMatrix._of(spec, [[value(v, den) if v else zero for v in row]
                                  for row in acc])


def centralizer_basis(x: ExactMatrix) -> list[ExactMatrix]:
    """Basis of {Y : XY = YX}, one matrix per unknown y_rc that the
    commutation equations leave free, in row-major order of (r, c).

    The unit matrices E_rc enter in row-major order, each as the row
    [vec(X E_rc - E_rc X) | e_rc] for the image X of x, and are reduced
    against the pivot rows of the earlier ones that stayed independent.
    A row whose head reduces to zero leads in its tail (column >= n^2) and
    records sum a_uv E_uv in the centralizer; it is popped from the
    pivots, so no later row is reduced against it.  Every pivot row's tail
    lies on the independent unknowns before it, so the popped tail is 0 at
    every other free unknown, and divided by its entry a_rc (which stays 1
    over a finite field) it is the kernel vector that the reduced row
    echelon form gives for the free column rc."""
    n, spec = x.n, x.spec
    nn, zero, sub = n * n, spec.ops.zero, spec.ops.sub
    _, times, value, reduce = _arithmetic(x)
    image = times([[int(i == j) for j in range(n)] for i in range(n)])
    pivots, basis = [], []
    for r in range(n):
        for c in range(n):
            # column c of X E_rc is column r of X; row r of E_rc X is row c
            row = [0] * (2 * nn)
            for i in range(n):
                row[i * n + c] = image[i][r]
            for j in range(n):
                row[r * n + j] = sub(row[r * n + j], image[c][j])
            row[nn + r * n + c] = 1
            if reduce(row, pivots) >= nn:
                tail = pivots.pop()[1][nn:]
                e = tail[r * n + c]
                basis.append(ExactMatrix._of(spec, [
                    [value(v, e) if v else zero for v in tail[i:i + n]]
                    for i in range(0, nn, n)]))
    return basis


def minimal_polynomial(x: ExactMatrix) -> Poly:
    """Monic least-degree annihilator, the first linear dependency among
    the vectorized powers I, x, ..., x^n (the empty matrix has 1).

    The powers of the image X = D*x enter one at a time, each as the row
    [vec(X^d) | e_d] whose tail records its combination of I, X, ..., X^d,
    and are reduced against the pivot rows of the earlier ones.  The first
    power whose reduced row leads in the tail (column >= n^2) gives
    sum a_i X^i = 0, so the minimal polynomial is
    sum a_i D^i t^i / (a_d D^d); by Cayley-Hamilton it comes by d = n."""
    n, spec = x.n, x.spec
    nn = n * n
    big, times, value, reduce = _arithmetic(x)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    pivots, d = [], 0
    while True:
        row = [a for r in power for a in r] + [0] * (n + 1)
        row[nn + d] = 1
        if reduce(row, pivots) >= nn:
            break
        power, d = times(power), d + 1
    comb = pivots[-1][1][nn:]
    return Poly._of(spec, [value(comb[i], comb[d] * big ** (d - i))
                           for i in range(d + 1)])


# ---------------------------------------------------------------------------
# matrix file format
# ---------------------------------------------------------------------------

def matrix_to_json(x: ExactMatrix) -> dict:
    return {
        "field": str(x.spec),
        "n": x.n,
        "rows": _cells(x),
    }


def matrix_from_json(obj: dict) -> ExactMatrix:
    """Inverse of matrix_to_json; raises MalformedMatrix on any defect."""
    try:
        spec = parse_field(obj["field"])
        n = obj["n"]
        rows = obj["rows"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedMatrix(f"malformed matrix object: {exc}") from exc
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 0):
        raise MalformedMatrix(f"n must be a non-negative integer, found {n!r}")
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise MalformedMatrix("rows must be a list of lists")
    if len(rows) != n:
        raise MalformedMatrix(f"expected {n} rows, found {len(rows)}")
    parsed = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedMatrix(
                f"row {i + 1}: expected {n} entries, found {len(row)}")
        out_row = []
        for j, cell in enumerate(row):
            try:
                if not isinstance(cell, str):
                    raise ValueError(f"expected a string, found {cell!r}")
                out_row.append(spec.parse_scalar(cell))
            except ValueError as exc:
                raise MalformedMatrix(
                    f"row {i + 1}, column {j + 1}: {exc}") from exc
        parsed.append(out_row)
    return ExactMatrix(spec, parsed)


def load_matrix(path: str) -> ExactMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:       # JSONDecodeError, UnicodeDecodeError
            raise MalformedMatrix(f"{path}: not a JSON file: {exc}") from exc
    return matrix_from_json(obj)
