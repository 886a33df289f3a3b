"""Dense exact matrices over a FieldSpec.

Covers the algebra operations, exact rank and kernel defect, polynomial
evaluation, centralizer bases and minimal polynomials.  Everything is
immutable and pure; rank over the rationals uses fraction-free (Bareiss)
elimination on cleared denominators, finite fields use plain Gaussian
elimination with deterministic first-nonzero pivoting.

Storage is dense, but products and elimination skip zero entries: a
product multiplies each nonzero of the left factor only by the nonzeros
of one row of the right factor, and elimination updates only the nonzero
columns of the pivot row.  Arithmetic is exact, so every skipped term is
a literal ``+ 0`` and results do not depend on the skipping.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch, FieldMismatch, MalformedMatrix
from .field import FieldSpec, Poly, Scalar, parse_field


class ExactMatrix:
    """Immutable square matrix with Scalar entries."""

    __slots__ = ("spec", "n", "rows")

    def __init__(self, spec: FieldSpec, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("matrix must be square")
            for x in r:
                if x.spec is not spec and x.spec != spec:
                    raise FieldMismatch("entry from a different field")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_ints(cls, spec: FieldSpec, rows) -> "ExactMatrix":
        return cls(spec, [[spec.from_int(v) for v in r] for r in rows])

    @classmethod
    def zeros(cls, spec: FieldSpec, n: int) -> "ExactMatrix":
        z = spec.zero()
        return cls(spec, [[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "ExactMatrix":
        z, o = spec.zero(), spec.one()
        return cls(spec, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def jordan_cell(cls, spec: FieldSpec, eigenvalue: Scalar, m: int) -> "ExactMatrix":
        """Single Jordan cell of size m with ones on the superdiagonal."""
        z = spec.zero()
        o = spec.one()
        rows = [[z] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = eigenvalue
            if i + 1 < m:
                rows[i][i + 1] = o
        return cls(spec, rows)

    @classmethod
    def block_diag(cls, spec: FieldSpec, blocks, n: int | None = None) -> "ExactMatrix":
        """Direct sum of square blocks, zero-padded to dimension n."""
        total = sum(b.n for b in blocks)
        if n is None:
            n = total
        if total > n:
            raise DimensionMismatch(f"blocks of total size {total} exceed n={n}")
        z = spec.zero()
        rows = [[z] * n for _ in range(n)]
        off = 0
        for b in blocks:
            if b.spec != spec:
                raise FieldMismatch("block over a different field")
            for i in range(b.n):
                for j in range(b.n):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.n
        return cls(spec, rows)

    # -- basics ---------------------------------------------------------------
    def _check(self, other: "ExactMatrix"):
        if self.spec != other.spec:
            raise FieldMismatch("matrices over different fields")
        if self.n != other.n:
            raise DimensionMismatch(f"dimensions {self.n} and {other.n}")

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.spec == other.spec
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.spec, self.rows))

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for r in self.rows for x in r)

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def __add__(self, other):
        self._check(other)
        return ExactMatrix(self.spec,
                           [[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._check(other)
        return ExactMatrix(self.spec,
                           [[a - b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return ExactMatrix(self.spec, [[-a for a in r] for r in self.rows])

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Row times matrix: row i of the product is the sum of a_ik times
        row k of other, over the nonzero a_ik and row k's nonzeros."""
        self._check(other)
        zero = self.spec.zero()
        sparse_rows = [[(j, b) for j, b in enumerate(row) if not b.is_zero]
                       for row in other.rows]
        out = []
        for row_i in self.rows:
            acc = [zero] * self.n
            for a, sparse_k in zip(row_i, sparse_rows):
                if sparse_k and not a.is_zero:
                    for j, b in sparse_k:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return ExactMatrix(self.spec, out)

    def scale(self, c: Scalar) -> "ExactMatrix":
        if c.spec != self.spec:
            raise FieldMismatch("scalar from a different field")
        return ExactMatrix(self.spec, [[c * a for a in r] for r in self.rows])

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
        acc = self.spec.zero()
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def __str__(self):
        cells = [[str(x) for x in r] for r in self.rows]
        width = max((len(c) for r in cells for c in r), default=1)
        return "\n".join(" ".join(c.rjust(width) for c in r) for r in cells)

    def __repr__(self):
        return f"ExactMatrix({self.spec}, n={self.n})"


# ---------------------------------------------------------------------------
# rank / kernel
# ---------------------------------------------------------------------------

def _rank_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free elimination over the integers."""
    m = [r[:] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        pval = m[rank][col]
        for r in range(rank + 1, nrows):
            rv = m[r][col]
            for cc in range(col, ncols):
                m[r][cc] = (pval * m[r][cc] - rv * m[rank][cc]) // prev
        prev = pval
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_prime_field(rows: list[list[int]], p: int) -> int:
    m = [r[:] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        prow = m[rank]
        for cc in range(col, ncols):
            prow[cc] = (prow[cc] * inv) % p
        for r in range(rank + 1, nrows):
            f = m[r][col]
            if f:
                row = m[r]
                for cc in range(col, ncols):
                    row[cc] = (row[cc] - f * prow[cc]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_generic(rows: list[list[Scalar]], spec: FieldSpec) -> int:
    m = [r[:] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, nrows):
            if not m[r][col].is_zero:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col].inverse()
        prow = m[rank]
        support = [cc for cc in range(col, ncols) if not prow[cc].is_zero]
        for cc in support:
            prow[cc] = prow[cc] * inv
        for r in range(rank + 1, nrows):
            f = m[r][col]
            if not f.is_zero:
                row = m[r]
                for cc in support:
                    row[cc] = row[cc] - f * prow[cc]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank(x: ExactMatrix) -> int:
    """Exact rank; Bareiss over Q, Gaussian elimination over finite fields."""
    spec = x.spec
    if x.n == 0:
        return 0
    if spec.char == 0:
        int_rows = []
        for r in x.rows:
            den = lcm(*(a.val.denominator for a in r)) if r else 1
            int_rows.append([int(a.val * den) for a in r])
        return _rank_bareiss(int_rows)
    if spec.degree == 1:
        return _rank_prime_field([[a.val[0] for a in r] for r in x.rows], spec.char)
    return _rank_generic([list(r) for r in x.rows], spec)


def defect(x: ExactMatrix) -> int:
    """Dimension of the kernel."""
    return x.n - rank(x)


def rref(rows: list[list[Scalar]], spec: FieldSpec):
    """Reduced row echelon form with first-nonzero pivoting.

    Returns (reduced rows, pivot column list); deterministic for a given
    input, which keeps every derived basis byte-stable.
    """
    m = [r[:] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    rank_ = 0
    for col in range(ncols):
        piv = None
        for r in range(rank_, nrows):
            if not m[r][col].is_zero:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank_:
            m[rank_], m[piv] = m[piv], m[rank_]
        inv = m[rank_][col].inverse()
        prow = m[rank_]
        support = [cc for cc in range(col, ncols) if not prow[cc].is_zero]
        for cc in support:
            prow[cc] = prow[cc] * inv
        for r in range(nrows):
            f = m[r][col]
            if r != rank_ and not f.is_zero:
                row = m[r]
                for cc in support:
                    row[cc] = row[cc] - f * prow[cc]
        pivots.append(col)
        rank_ += 1
        if rank_ == nrows:
            break
    return m, pivots


def nullspace(rows: list[list[Scalar]], spec: FieldSpec, ncols: int):
    """Kernel basis of a homogeneous system, one vector per free column,
    free columns in ascending order."""
    reduced, pivots = rref(rows, spec)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero, one = spec.zero(), spec.one()
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# polynomial evaluation, centralizers, minimal polynomials
# ---------------------------------------------------------------------------

def poly_eval(f: Poly, x: ExactMatrix) -> ExactMatrix:
    """Horner evaluation of f at a matrix argument."""
    if f.spec != x.spec:
        raise FieldMismatch("polynomial over a different field")
    acc = ExactMatrix.zeros(x.spec, x.n)
    ident = ExactMatrix.identity(x.spec, x.n)
    for c in reversed(f.coeffs):
        acc = acc * x
        if not c.is_zero:
            acc = acc + ident.scale(c)
    return acc


def centralizer_basis(x: ExactMatrix) -> list[ExactMatrix]:
    """Basis of {Y : XY = YX} from the homogeneous n^2-variable system.

    Kernel vectors are emitted in the column order of the row-reduced
    system, so the basis is deterministic.
    """
    n = x.n
    spec = x.spec
    zero = spec.zero()
    nn = n * n
    # unknown y_{rc} at index r*n + c; equation per (i, j):
    # sum_k x_{ik} y_{kj} - y_{ik} x_{kj} = 0
    eqs = []
    for i in range(n):
        for j in range(n):
            row = [zero] * nn
            for k in range(n):
                row[k * n + j] = row[k * n + j] + x.rows[i][k]
                row[i * n + k] = row[i * n + k] - x.rows[k][j]
            eqs.append(row)
    basis_vecs = nullspace(eqs, spec, nn)
    out = []
    for vec in basis_vecs:
        rows = [vec[i * n:(i + 1) * n] for i in range(n)]
        out.append(ExactMatrix(spec, rows))
    return out


def minimal_polynomial(x: ExactMatrix) -> Poly:
    """Monic least-degree annihilator, via the first linear dependency
    among the powers I, x, x^2, ..."""
    n = x.n
    spec = x.spec
    vecs = [[e for row in ExactMatrix.identity(spec, n).rows for e in row]]
    power = ExactMatrix.identity(spec, n)
    for d in range(1, n + 1):
        power = power * x
        vecs.append([e for row in power.rows for e in row])
        # columns are the vectorized powers; a kernel vector is a dependency
        cols = [[vecs[j][i] for j in range(d + 1)] for i in range(n * n)]
        kernel = nullspace(cols, spec, d + 1)
        if kernel:
            coeffs = kernel[0]
            lead_inv = coeffs[d].inverse()
            return Poly(spec, [c * lead_inv for c in coeffs])
    raise AssertionError("no annihilating polynomial of degree <= n")


# ---------------------------------------------------------------------------
# matrix file format
# ---------------------------------------------------------------------------

def matrix_to_json(x: ExactMatrix) -> dict:
    return {
        "field": str(x.spec),
        "n": x.n,
        "rows": [[str(e) for e in row] for row in x.rows],
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


def dump_matrix(x: ExactMatrix, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(x), fh, indent=2)
        fh.write("\n")
