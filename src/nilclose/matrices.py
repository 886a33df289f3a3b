"""Exact matrices over a FieldSpec.

Covers the algebra operations, exact rank, polynomial evaluation,
centralizer bases and minimal polynomials.  Everything is immutable and
pure.  A matrix is its n rows of nonzeros: dicts {column: value} of the
field's raw values (``spec.ops``) that hold no zero.  Scalars appear only
at the public boundary, ``ExactMatrix(spec, rows)`` and ``rows``, and a
dense layout only where the output is dense, the text of the entries.

The kernels read the stored rows and return new ones.  ``_product``
visits only the nonzeros of each left row and of the right rows they
select, on Python ints: over Q rows are scaled to common denominators;
over GF(p^k) a packed entry is repacked into slots wide enough for a sum
of n products (Kronecker substitution).  Each nonzero sum is reduced
once.  ``_reduce`` takes one row at a time
against the pivots found so far, kept by lead (a pivot row's least
column), and ``_arithmetic`` is the one place that picks the arithmetic:
fraction-free on integer rows divided by their content over Q, raw
values with unscaled pivots over finite fields.  Rank, the row-space
chain behind Jordan types (``_power_ranks``), Horner's polynomial
evaluation, centralizer bases and the Krylov minimal polynomial are each
written once on top of it, so over Q Fractions are formed only for
results.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm

from .errors import DimensionMismatch, FieldMismatch, MalformedMatrix
from .field import FieldSpec, Poly, Scalar, _slot_codec, parse_field


class ExactMatrix:
    """Immutable square matrix over a FieldSpec, stored as its n rows of
    nonzeros: dicts {column: raw value} that hold no zero and that nothing
    mutates.  ``rows`` boxes the entries as Scalars on first access and
    caches them."""

    __slots__ = ("spec", "n", "_nz", "_rows")

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
                            ("_nz", tuple({j: x.val for j, x in enumerate(r)
                                           if x.val} for r in rows))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _from_nz(cls, spec: FieldSpec, rows) -> "ExactMatrix":
        """A kernel result: n rows of nonzeros of spec, taken as they are,
        without the checks."""
        self = object.__new__(cls)
        for name, value in (("spec", spec), ("n", len(rows)), ("_rows", None),
                            ("_nz", tuple(rows))):
            object.__setattr__(self, name, value)
        return self

    @property
    def rows(self) -> tuple:
        """The entries as a tuple of tuples of Scalars."""
        if self._rows is None:
            box, zero = self.spec.box, self.spec.ops.zero
            object.__setattr__(self, "_rows", tuple(
                tuple(box(r.get(j, zero)) for j in range(self.n))
                for r in self._nz))
        return self._rows

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_ints(cls, spec: FieldSpec, rows) -> "ExactMatrix":
        return cls(spec, [[spec.from_int(v) for v in r] for r in rows])

    @classmethod
    def zeros(cls, spec: FieldSpec, n: int) -> "ExactMatrix":
        return cls._from_nz(spec, ({},) * n)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "ExactMatrix":
        return cls._from_nz(spec, [{i: spec.ops.one} for i in range(n)])

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
        rows, off = [], 0
        for b in blocks:
            if b.spec != spec:
                raise FieldMismatch("block over a different field")
            rows += ({off + j: a for j, a in r.items()} for r in b._nz)
            off += b.n
        return cls._from_nz(spec, rows + [{}] * (n - total))

    # -- basics ---------------------------------------------------------------
    def _check(self, other: "ExactMatrix"):
        if self.spec != other.spec:
            raise FieldMismatch("matrices over different fields")
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n}")

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.spec == other.spec
                and self._nz == other._nz)

    def __hash__(self):
        return hash((self.spec, tuple(frozenset(r.items()) for r in self._nz)))

    @property
    def is_zero(self) -> bool:
        return not any(self._nz)

    def _merge(self, other, op, from_zero):
        """Entrywise op(a, b) on the nonzeros: where b is zero the entry is
        a, where only a is zero it is from_zero(b), and an entry that
        cancels to zero is dropped."""
        self._check(other)
        out = []
        for ra, rb in zip(self._nz, other._nz):
            if rb:
                ra = dict(ra)
                for j, b in rb.items():
                    a = ra.get(j)
                    if a is None:
                        ra[j] = from_zero(b)
                    elif v := op(a, b):
                        ra[j] = v
                    else:
                        del ra[j]
            out.append(ra)
        return ExactMatrix._from_nz(self.spec, out)

    def __add__(self, other):
        return self._merge(other, self.spec.ops.add, lambda b: b)

    def __sub__(self, other):
        return self._merge(other, self.spec.ops.sub, self.spec.ops.neg)

    def __neg__(self):
        return self.scale(-self.spec.one())

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check(other)
        right, lift = _integer_factors(other)
        return ExactMatrix._from_nz(self.spec,
                                    _product(*lift(self._nz), right))

    def scale(self, c: Scalar) -> "ExactMatrix":
        """c times the matrix; a product with the raw one, which is 1 in
        every field, is skipped."""
        if c.spec != self.spec:
            raise FieldMismatch("scalar from a different field")
        cv = c.val
        if not cv:
            return ExactMatrix.zeros(self.spec, self.n)
        mul = self.spec.ops.mul
        return ExactMatrix._from_nz(self.spec, [
            {j: cv if a == 1 else mul(cv, a) for j, a in r.items()}
            for r in self._nz])

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
        diagonal = (r[i] for i, r in enumerate(self._nz) if i in r)
        return self.spec.box(reduce(self.spec.ops.add, diagonal,
                                    self.spec.ops.zero))

    def __str__(self):
        cells = _cells(self)
        width = max((len(c) for r in cells for c in r), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in r) for r in cells)

    def __repr__(self):
        return f"ExactMatrix({self.spec}, n={self.n})"


def _cells(x: ExactMatrix) -> list[list[str]]:
    """The text of each entry of x: each row starts from one formatted
    zero, and each distinct nonzero is formatted once."""
    text = lru_cache(maxsize=None)(x.spec.format)
    zero = text(x.spec.ops.zero)
    cells = []
    for r in x._nz:
        row = [zero] * x.n
        for j, a in r.items():
            row[j] = text(a)
        cells.append(row)
    return cells


def _denominator(row) -> int:
    """Least common denominator of Fractions."""
    return lcm(*(a.denominator for a in row))


def _scaled(row: dict, d: int) -> dict:
    """A row of Fractions times d, a common multiple of their denominators."""
    return {j: a.numerator * (d // a.denominator) for j, a in row.items()}


def _integer_image(x: ExactMatrix):
    """(D, the rows of D*x) for the least common denominator D of the
    entries of x over Q."""
    big = lcm(*(_denominator(r.values()) for r in x._nz))
    return big, [_scaled(r, big) for r in x._nz]


def _integer_factors(y: ExactMatrix):
    """The rows of an integer image of y, and lift(left) -> (rows, value)
    for rows left of raw values of y's field: their integer images, and the
    raw value value(i, v) of an integer sum v in row i of left * y."""
    n, p, k = y.n, y.spec.char, y.spec.degree
    if p == 0:
        # row i of left over its common denominator d_i, all of y over D
        big, right = _integer_image(y)

        def lift(left):
            dens = [_denominator(r.values()) for r in left]
            return ([_scaled(r, d) for r, d in zip(left, dens)],
                    lambda i, v: Fraction(v, dens[i] * big))
        return right, lift
    if k == 1:
        return y._nz, lambda left: (left, lambda i, v: v % p)
    # GF(p^k): an entry's coefficients move from the field's slots to wider
    # ones.  A slot of a sum of n products of entries is at most
    # n*k*(p-1)^2, so no slot carries into the next.  Entries and sums
    # repeat in small fields, so each distinct one is repacked or reduced
    # once.
    ops = y.spec.ops
    bits = (n * k * (p - 1) ** 2).bit_length()
    write, read = _slot_codec(k, bits)[1], _slot_codec(2 * k - 1, bits)[0]

    @lru_cache(maxsize=None)
    def pack(val):
        return write(ops.coeffs(val))

    @lru_cache(maxsize=None)
    def unpack(v):
        return ops.fold(read(v))

    def lift(left):
        return ([{j: pack(a) for j, a in r.items()} for r in left],
                lambda i, v: unpack(v))
    return lift(y._nz)[0], lift


def _product(left, value, right) -> list[dict]:
    """Rows of left times right over the integers: row i sums a_ik times
    row k of right over the nonzeros a_ik, and a nonzero sum v becomes
    value(i, v), dropped when it is zero."""
    out = []
    for i, row in enumerate(left):
        acc = {}
        get = acc.get
        for k, a in row.items():
            for j, b in right[k].items():
                acc[j] = get(j, 0) + a * b
        out.append({j: w for j, v in acc.items() if v and (w := value(i, v))})
    return out


# ---------------------------------------------------------------------------
# row reduction: one choice of arithmetic per field
# ---------------------------------------------------------------------------

def _arithmetic(x: ExactMatrix):
    """(D, times, value, reduce): the one choice of arithmetic for the image
    rows (dicts of nonzeros) of x's field.  Over Q an image row holds integers, times(rows) is
    rows times the integer image D*x, value(v, e) is v/e as a Fraction, and
    reduce subtracts fraction-free and divides by the content.  Over a
    finite field an image row holds raw values, D = 1, times(rows) is rows
    times x, value(v, e) is v, as e is then 1, and reduce subtracts
    unscaled pivots.  Identity rows are 0s and 1s in every field.
    reduce(row, pivots) is ``_reduce``."""
    if x.spec.char == 0:
        big, right = _integer_image(x)
        return (big, lambda rows: _product(rows, lambda i, v: v, right),
                Fraction, lambda row, pivots: _reduce(_primitive(row), pivots,
                                                      _subtract_integers))
    right, lift = _integer_factors(x)
    subtract = _subtract_raw(x.spec.ops)
    return (1, lambda rows: _product(*lift(rows), right), lambda v, e: v,
            lambda row, pivots: _reduce(row, pivots, subtract))


def _reduce(row: dict, pivots: dict, subtract):
    """Reduce a row in place against pivots {lead: pivot row}, a pivot
    row's lead being its least column: while the row's least column leads
    a pivot, subtract(row, pivot, lead) clears it.  A nonzero combination
    of pivots leads at the least lead it uses, so the row left is zero
    (None is returned) or independent of the pivots: it enters them under
    its least column, which is returned."""
    while row:
        lead = min(row)
        pivot = pivots.get(lead)
        if pivot is None:
            pivots[lead] = row
            return lead
        subtract(row, pivot, lead)
    return None


def _primitive(row: dict) -> dict:
    """Divide an integer row in place by its content."""
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g
    return row


def _subtract_integers(row: dict, pivot: dict, lead: int):
    """row := (p/g)*row - (f/g)*pivot for the entries f and p at lead and
    g = gcd(f, p) of p's sign, divided by its content, without which a
    dense row grows with every pivot it meets."""
    f, pv = row[lead], pivot[lead]
    g = gcd(f, pv) if pv > 0 else -gcd(f, pv)
    f, pv = f // g, pv // g
    if pv != 1:
        for j in row:
            row[j] *= pv
    get = row.get
    for j, b in pivot.items():
        v = get(j, 0) - f * b
        if v:
            row[j] = v
        else:
            del row[j]
    _primitive(row)


def _subtract_raw(ops):
    """subtract(row, pivot, lead): the row minus f/p times the pivot, for
    the entries f and p at lead, on raw values; the raw one is 1 in every
    field, and a product with it is skipped."""
    mul, inv, sub, submul = ops.mul, ops.inv, ops.sub, ops.submul

    def subtract(row, pivot, lead):
        f, pv = row[lead], pivot[lead]
        if pv != 1:
            f = mul(f, inv(pv))
        get = row.get
        for j, b in pivot.items():
            v = sub(get(j, 0), f) if b == 1 else submul(get(j, 0), f, b)
            if v:
                row[j] = v
            else:
                del row[j]
    return subtract


def _power_ranks(x: ExactMatrix):
    """rank(x), rank(x^2), ... from the row spaces R_k of x^k without
    forming any power: R_0 is the whole space and R_k = R_(k-1) x, so each
    step multiplies the pivot rows of R_(k-1), a basis, by x and reduces
    the products; their pivot rows are a basis of R_k.  Stops after rank
    0, and never when x is not nilpotent."""
    _, times, _, reduce = _arithmetic(x)
    rows = [{i: 1} for i in range(x.n)]
    while rows:
        pivots = {}
        for row in times(rows):
            reduce(row, pivots)
        rows = list(pivots.values())
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
    add = spec.ops.add
    den = _denominator(f.vals)
    *lower, lead = _scaled(dict(enumerate(f.vals)), den).values()
    acc = [{i: lead} for i in range(n)]
    scale = 1                                       # D^(d-i) at step i
    for c in reversed(lower):
        acc = times(acc)
        scale *= big
        if c:
            for i, row in enumerate(acc):
                v = add(row.get(i, 0), c * scale)
                if v:
                    row[i] = v
                else:
                    del row[i]
    den *= scale
    return ExactMatrix._from_nz(spec, [
        {j: value(v, den) for j, v in row.items()} for row in acc])


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
    nn, sub = n * n, spec.ops.sub
    _, times, value, reduce = _arithmetic(x)
    image = times([{i: 1} for i in range(n)])
    columns = [{} for _ in range(n)]
    for i, row in enumerate(image):
        for j, a in row.items():
            columns[j][i] = a
    pivots, basis = {}, []
    for r in range(n):
        for c in range(n):
            # column c of X E_rc is column r of X; row r of E_rc X is row c
            row = {i * n + c: a for i, a in columns[r].items()}
            for j, b in image[c].items():
                v = sub(row.get(r * n + j, 0), b)
                if v:
                    row[r * n + j] = v
                else:
                    del row[r * n + j]
            row[nn + r * n + c] = 1
            lead = reduce(row, pivots)
            if lead >= nn:
                tail = pivots.pop(lead)
                e = tail[nn + r * n + c]
                rows = [{} for _ in range(n)]
                for u, v in tail.items():
                    rows[(u - nn) // n][(u - nn) % n] = value(v, e)
                basis.append(ExactMatrix._from_nz(spec, rows))
    return basis


def minimal_polynomial(x: ExactMatrix) -> Poly:
    """Monic least-degree annihilator, the lcm of the local minimal
    polynomials of the unit vectors (the empty matrix has 1).

    For i = 1, ..., n, e_i is skipped when it lies in the span of the
    Krylov vectors found so far, for the image X = D*x; otherwise it
    enters the span.  Then the rows [e_i X^d | e_d], whose tail records
    the combination of the e_i X^j, enter one at a time against pivots of
    their own; the first that leads in its tail (column >= n) gives
    sum a_j e_i X^j = 0 with d least, so e_i's local minimal polynomial is
    sum a_j D^j t^j / (a_d D^d).  The heads of the pivot rows of e_i X^j
    for 0 < j < d, which with e_i span the e_i X^j for j < d, join the
    span.  When the span is the whole space the lcm annihilates every
    vector, and each local polynomial divides the minimal one."""
    n, spec = x.n, x.spec
    big, times, value, reduce = _arithmetic(x)
    span, result = {}, Poly.one(spec)
    for i in range(n):
        if len(span) == n:
            break
        if reduce({i: 1}, span) is None:
            continue
        pivots, vec, d = {}, {i: 1}, 0
        while (lead := reduce({**vec, n + d: 1}, pivots)) < n:
            vec, d = times([vec])[0], d + 1
        for row in list(pivots.values())[1:d]:
            reduce({j: a for j, a in row.items() if j < n}, span)
        comb = pivots[lead]
        local = Poly._of(spec, [
            value(comb.get(n + j, 0), comb[n + d] * big ** (d - j))
            for j in range(d + 1)])
        result = result * (local // result.gcd(local))
    return result


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
