"""Exact matrix algebra: rank, kernels, polynomial evaluation,
centralizers, minimal polynomials and the JSON file format."""

import hashlib
import json
import math
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nilclose import matrices, oracle
from nilclose.errors import (DimensionMismatch, FieldMismatch, MalformedMatrix,
                             NotNilpotent)
from nilclose.field import Poly, galois, rationals
from nilclose.jordan import (Partition, jordan_chevalley, jordan_matrix,
                             jordan_partition, partition_from_defects)
from nilclose.matrices import (
    ExactMatrix,
    centralizer_basis,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    minimal_polynomial,
    poly_eval,
    rank,
)

Q = rationals()
GF3 = galois(3)
GF7 = galois(7)
GF4 = galois(2, 2)


def jcell(spec, m):
    return ExactMatrix.jordan_cell(spec, spec.zero(), m)


def kron(a, b):
    """Kronecker product, used only to build test inputs."""
    spec = a.spec
    n = a.n * b.n
    rows = [[spec.zero()] * n for _ in range(n)]
    for i in range(a.n):
        for j in range(a.n):
            for k in range(b.n):
                for l in range(b.n):
                    rows[i * b.n + k][j * b.n + l] = \
                        a.rows[i][j] * b.rows[k][l]
    return ExactMatrix(spec, rows)


def test_algebra_examples():
    j2 = jcell(Q, 2)
    assert j2.commutator(ExactMatrix.identity(Q, 2)).is_zero
    assert jcell(Q, 3).power(3).is_zero
    n = jcell(GF3, 2)
    i = ExactMatrix.identity(GF3, 2)
    assert kron(n, i).commutator(kron(i, n)).is_zero


def test_matrix_operator_examples():
    x = jcell(Q, 3)
    two_x = ExactMatrix.from_ints(Q, [[0, 2, 0], [0, 0, 2], [0, 0, 0]])
    assert x + x == two_x
    assert x * x == ExactMatrix.from_ints(Q, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert x.commutator(x).is_zero
    assert x.scale(Q.from_int(2)) == two_x
    assert x.power(0) == ExactMatrix.identity(Q, 3)


def test_dimension_and_field_mismatch():
    with pytest.raises(DimensionMismatch):
        jcell(Q, 2) + jcell(Q, 3)
    with pytest.raises(FieldMismatch):
        jcell(Q, 2) + jcell(GF7, 2)


def test_rank_examples():
    assert rank(jcell(Q, 4)) == 3
    assert rank(ExactMatrix.zeros(Q, 5)) == 0
    assert rank(jcell(Q, 5).power(3)) == 2
    assert jcell(Q, 4).n - rank(jcell(Q, 4)) == 1


def test_rank_rational_entries():
    rows = [[Q.scalar(Fraction(1, 2)), Q.scalar(Fraction(1, 3))],
            [Q.scalar(Fraction(1, 4)), Q.scalar(Fraction(1, 6))]]
    assert rank(ExactMatrix(Q, rows)) == 1


def test_rank_agrees_across_backends():
    """The int fast paths must agree with generic Scalar elimination,
    checked through the extension field (generic) vs prime subfield."""
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        ints = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
        r3 = rank(ExactMatrix.from_ints(GF3, ints))
        r9 = rank(ExactMatrix.from_ints(galois(3, 2), ints))
        rq = rank(ExactMatrix.from_ints(Q, ints))
        assert r3 == r9
        assert r3 <= rq  # rank can only drop modulo p


def test_rank_product_inequality():
    """Sylvester's bound, and rank-nullity: ``rank`` (on integer rows over
    Q, on raw rows over GF(7)) against the kernel of a dense Gauss-Jordan
    elimination on Scalars."""
    rng = random.Random(17)
    for spec, lo, hi in ((GF7, 0, 6), (Q, -3, 3)):
        for _ in range(50):
            n = rng.randint(1, 5)
            x = ExactMatrix.from_ints(
                spec, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
            y = ExactMatrix.from_ints(
                spec, [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])
            assert rank(x * y) <= min(rank(x), rank(y))
            assert rank(x) + len(_dense_nullspace(x.rows, spec, n)) == n


def _integer_input(rng):
    """Integer rows with entries up to 10^6 in absolute value: rectangular,
    dense or sparse, or rank-deficient (combinations of fewer basis rows)
    with zero and duplicate rows."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    if rng.random() < 0.4:
        density = rng.choice([0.3, 1])
        return [[rng.randint(-10 ** 6, 10 ** 6) if rng.random() < density
                 else 0 for _ in range(ncols)] for _ in range(nrows)]
    basis = [[rng.randint(-10 ** 5, 10 ** 5) for _ in range(ncols)]
             for _ in range(rng.randint(1, 3))]
    rows = [[sum(c * b[j] for c, b in zip(coeffs, basis))
             for j in range(ncols)]
            for coeffs in ([rng.randint(-3, 3) for _ in basis]
                           for _ in range(nrows))]
    rows[rng.randrange(nrows)] = [0] * ncols
    rows.insert(rng.randrange(nrows + 1), list(rng.choice(rows)))
    return rows


def _row_nonzeros(row):
    """A dense row as the dict {column: entry} of its nonzeros, the row
    that the kernels reduce."""
    return {j: a for j, a in enumerate(row) if a}


def test_integer_reduce_spans_the_row_space():
    """The reduction over Q, behind ``rank``, the row-space chain,
    centralizer bases and minimal polynomials, fed the integer rows one by
    one as dicts of nonzeros: a row enters exactly when the earlier rows do
    not span it; each pivot is kept under its lead, its least column, holds
    only nonzero Python ints and has content 1; and the pivots span the
    input's row space, by a dense Gauss-Jordan elimination over Q."""
    reduce_row = matrices._arithmetic(ExactMatrix(Q, []))[3]

    def rank_over_q(int_rows):
        return len(_dense_rref([[Q.from_int(a) for a in r]
                                for r in int_rows])[1])
    rng = random.Random(41)
    for _ in range(120):
        rows = _integer_input(rng)
        ranks = [rank_over_q(rows[:i]) for i in range(len(rows) + 1)]
        pivots = {}
        for i, row in enumerate(rows):
            entered = reduce_row(_row_nonzeros(row), pivots) is not None
            assert entered == (ranks[i + 1] > ranks[i])
        for col, prow in pivots.items():
            assert min(prow) == col and all(prow.values())
            assert all(type(a) is int for a in prow.values())
            assert math.gcd(*prow.values()) == 1
        dense = [[prow.get(j, 0) for j in range(len(rows[0]))]
                 for prow in pivots.values()]
        assert rank_over_q(rows) == rank_over_q(rows + dense) == len(pivots)


def _dense_product(x, y):
    """Schoolbook triple loop that multiplies every pair of entries."""
    spec, n = x.spec, x.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = spec.zero()
            for k in range(n):
                acc = acc + x.rows[i][k] * y.rows[k][j]
            row.append(acc)
        out.append(row)
    return ExactMatrix(spec, out)


def _dense_rref(rows):
    """Gauss-Jordan elimination that updates every entry of every row."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if not m[i][col].is_zero),
                   None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][col].inverse()
        m[r] = [a * inv for a in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def _dense_nullspace(rows, spec, ncols):
    reduced, pivots = _dense_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [spec.zero()] * ncols
        vec[fc] = spec.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


def _sparse_rows(spec, nrows, ncols, density, rng):
    """Random rows with the given share of nonzero entries, plus (half
    the time) one all-zero row and one all-zero column."""
    def entry():
        if rng.random() >= density:
            return spec.zero()
        if spec.is_finite:
            return spec.element_from_index(rng.randrange(1, spec.order))
        return spec.scalar(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                    rng.randint(1, 5)))
    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.5:
        rows[rng.randrange(nrows)] = [spec.zero()] * ncols
        zero_col = rng.randrange(ncols)
        for row in rows:
            row[zero_col] = spec.zero()
    return rows


@pytest.mark.parametrize("spec", [Q, galois(2), GF7, GF4, galois(2, 3),
                                  galois(3, 2), galois(3, 3), galois(2, 12)],
                         ids=str)
def test_zero_skipping_kernels_match_dense_reference(spec):
    """Products and ranks visit only nonzero entries; a dense triple loop
    and a dense Gauss-Jordan elimination must give the same results.  On
    the sparse edge cases of ``_edge_matrices`` the products, the rank,
    the Jordan type (or NotNilpotent) and the centralizer basis must also
    equal those of the dense references."""
    rng = random.Random(2024)
    for tenths in range(1, 11):
        density = tenths / 10
        for _ in range(6):
            n = rng.randint(1, 8)
            x = ExactMatrix(spec, _sparse_rows(spec, n, n, density, rng))
            y = ExactMatrix(spec, _sparse_rows(spec, n, n, density, rng))
            assert x * y == _dense_product(x, y)
            assert rank(x) == len(_dense_rref(x.rows)[1])
    for x in _edge_matrices(spec, rng):
        y = ExactMatrix(spec, _sparse_rows(spec, x.n, x.n, 0.5, rng)
                        if x.n else [])
        for a, b in ((x, x), (x, y), (y, x)):
            assert a * b == _dense_product(a, b)
        assert rank(x) == len(_dense_rref(x.rows)[1])
        expected = _dense_partition(x)
        if expected is None:
            with pytest.raises(NotNilpotent):
                jordan_partition(x)
        else:
            assert jordan_partition(x) == expected
        assert [list(map(list, b.rows))
                for b in centralizer_basis(x)] == _dense_centralizer(x)


def _edge_matrices(spec, rng):
    """Sparse edge cases: the 0 x 0 and 1 x 1 matrices, zero rows and
    zero columns, a single nonzero entry on and off the diagonal, a Jordan
    matrix with its rows permuted, with its columns permuted and with both
    (a nilpotent conjugate), and a dense block padded with zeros."""
    zero = spec.zero()

    def nonzero():
        return _sparse_rows(spec, 1, 1, 1, rng)[0][0] or spec.one()

    def matrix(rows):
        return ExactMatrix(spec, rows)
    cases = [matrix([]), matrix([[zero]]), matrix([[nonzero()]])]
    n = 5
    rows = _sparse_rows(spec, n, n, 1, rng)
    for i in (1, 3):
        rows[i] = [zero] * n
    for row in rows:
        row[2] = zero
    cases.append(matrix(rows))
    for i, j in ((2, 2), (0, 4), (4, 1)):
        rows = [[zero] * n for _ in range(n)]
        rows[i][j] = nonzero()
        cases.append(matrix(rows))
    jordan = jordan_matrix(Partition([3, 2, 1]), 6, spec).rows
    perm = rng.sample(range(6), 6)
    cases += [matrix([jordan[p] for p in perm]),
              matrix([[row[p] for p in perm] for row in jordan]),
              matrix([[jordan[p][q] for q in perm] for p in perm])]
    block = _sparse_rows(spec, 3, 3, 1, rng)
    cases.append(matrix([[block[i - 1][j - 2] if 1 <= i < 4 and 2 <= j < 5
                          else zero for j in range(6)] for i in range(6)]))
    return cases


def _dense_partition(x):
    """The Jordan type of x from the defects of its powers, each formed by
    ``_dense_product`` and ranked by ``_dense_rref``; None when x^n is not
    zero."""
    n, defects, power = x.n, [], x
    for _ in range(n):
        defects.append(n - len(_dense_rref(power.rows)[1]))
        if defects[-1] == n:
            return partition_from_defects(defects)
        power = _dense_product(power, x)
    return Partition([]) if n == 0 else None


@pytest.mark.parametrize("spec", [Q, GF7, GF4, galois(2, 3)], ids=str)
def test_zero_skipping_elementwise_ops_match_dense_reference(spec):
    """+, -, scale and negation skip zero entries; an entry-by-entry loop
    over Scalars must give matrices equal as values and as text, at every
    density, when scaling by zero and for x - x."""
    rng = random.Random(808)

    def dense(x, y, op):
        return ExactMatrix(spec, [[op(a, b) for a, b in zip(ra, rb)]
                                  for ra, rb in zip(x.rows, y.rows)])
    for tenths in range(11):
        density = tenths / 10
        for _ in range(5):
            n = rng.randint(1, 7)
            x = ExactMatrix(spec, _sparse_rows(spec, n, n, density, rng))
            y = ExactMatrix(spec, _sparse_rows(spec, n, n, density, rng))
            c = (spec.element_from_index(rng.randrange(spec.order))
                 if spec.is_finite else
                 spec.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
            zero = spec.zero()
            cases = [
                (x + y, dense(x, y, lambda a, b: a + b)),
                (x - y, dense(x, y, lambda a, b: a - b)),
                (x - x, dense(x, x, lambda a, b: a - b)),
                (x.scale(c), dense(x, x, lambda a, _: c * a)),
                (x.scale(zero), dense(x, x, lambda a, _: zero * a)),
                (-x, dense(x, x, lambda a, _: -a)),
            ]
            for got, want in cases:
                assert got == want
                assert str(got) == str(want)
            assert (x - x).is_zero and x.scale(zero).is_zero


@pytest.mark.parametrize("spec", [galois(2, 12), galois(5, 6), galois(3, 2),
                                  galois(7)], ids=str)
def test_product_with_every_coefficient_maximal(spec):
    """Every coefficient of every entry is p - 1 at n = 26: each packed
    slot of the integer product reaches its largest possible sum, so a slot
    too narrow to hold it would carry into its neighbour and show here."""
    n = 26
    top = spec.scalar([spec.char - 1] * spec.degree)
    x = ExactMatrix(spec, [[top] * n for _ in range(n)])
    assert x * x == _dense_product(x, x)
    half = ExactMatrix(spec, [[top if (i + j) % 2 else spec.one()
                               for j in range(n)] for i in range(n)])
    assert x * half == _dense_product(x, half)


def test_poly_eval():
    j3 = jcell(Q, 3)
    sq = poly_eval(Poly.from_ints(Q, [0, 0, 1]), j3)
    expected = ExactMatrix.from_ints(Q, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
    assert sq == expected
    assert poly_eval(Poly.from_ints(Q, [1]), j3) == ExactMatrix.identity(Q, 3)
    j4 = jcell(Q, 4)
    assert poly_eval(Poly.from_ints(Q, [0, 1, 0, 1]), j4) == j4 + j4.power(3)


def test_poly_eval_commutes():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        x = ExactMatrix.from_ints(
            GF7, [[rng.randrange(7) for _ in range(n)] for _ in range(n)])
        f = Poly.from_ints(GF7, [rng.randrange(7) for _ in range(4)])
        assert poly_eval(f, x).commutator(x).is_zero


def test_centralizer_basis():
    j3 = jcell(Q, 3)
    basis = centralizer_basis(j3)
    assert len(basis) == 3
    span = {tuple(str(e) for row in b.rows for e in row) for b in basis}
    powers = {tuple(str(e) for row in m.rows for e in row)
              for m in (ExactMatrix.identity(Q, 3), j3, j3.power(2))}
    assert span == powers
    assert len(centralizer_basis(ExactMatrix.zeros(Q, 2))) == 4
    block = ExactMatrix.block_diag(Q, [jcell(Q, 2)], 3)
    assert len(centralizer_basis(block)) == 5


def test_centralizer_elements_commute():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 4)
        x = ExactMatrix.from_ints(
            GF3, [[rng.randrange(3) for _ in range(n)] for _ in range(n)])
        basis = centralizer_basis(x)
        for b in basis:
            assert b.commutator(x).is_zero
        # independence: the dimension matches a second computation
        assert len(basis) == len(centralizer_basis(x))


def _commutation_system(x):
    """The n^2 equations (xy - yx)_ij = 0, row-major in (i, j), in the
    unknowns y_rc, row-major in (r, c), as boxed Scalars: y_rc enters
    equation (i, j) with x_ir when j = c and with -x_cj when i = r."""
    n, xr, zero = x.n, x.rows, x.spec.zero()
    return [[(xr[i][r] if j == c else zero) - (xr[c][j] if i == r else zero)
             for r in range(n) for c in range(n)]
            for i in range(n) for j in range(n)]


@pytest.mark.parametrize("spec", [Q, GF7, GF4, galois(2, 3), galois(3, 2)],
                         ids=str)
def test_centralizer_basis_is_the_dense_nullspace(spec):
    """``centralizer_basis`` gives, in order and value, the null space of
    the commutation system by a dense Gauss-Jordan elimination on
    Scalars: one vector per free unknown, ascending, with 1 there and 0 at
    every other free unknown.  Dense and sparse matrices, and Jordan
    matrices shifted by a scalar, n = 0..6; over Q with fractional
    entries."""
    rng = random.Random(spec.order if spec.is_finite else 0)
    for n in range(7):
        cases = [ExactMatrix(spec, _sparse_rows(spec, n, n, density, rng))
                 for density in (1, 0.3) if n]
        parts, left = [], n
        while left:
            parts.append(rng.randint(1, left))
            left -= parts[-1]
        shift = _sparse_rows(spec, 1, 1, 1, rng)[0][0]
        cases.append(jordan_matrix(Partition(parts), n, spec)
                     + ExactMatrix.identity(spec, n).scale(shift))
        for x in cases:
            assert [list(map(list, y.rows))
                    for y in centralizer_basis(x)] == _dense_centralizer(x)


def _dense_centralizer(x):
    """The null space of the commutation system by a dense Gauss-Jordan
    elimination on Scalars, as n x n lists of lists."""
    n = x.n
    return [[vec[i:i + n] for i in range(0, n * n, n)]
            for vec in _dense_nullspace(_commutation_system(x), x.spec, n * n)]


def test_minimal_polynomial():
    assert minimal_polynomial(jcell(Q, 3)) == Poly.from_ints(Q, [0, 0, 0, 1])
    d = ExactMatrix.from_ints(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert minimal_polynomial(d) == Poly.from_ints(Q, [2, -3, 1])
    lam = ExactMatrix.from_ints(Q, [[5, 1], [0, 5]])
    assert minimal_polynomial(lam) == Poly.from_ints(Q, [25, -10, 1])


def test_empty_matrix():
    """The 0 x 0 matrix: its minimal polynomial is 1, it has rank 0, and
    its decomposition is (x, x)."""
    for spec in (Q, GF7, GF4):
        x = ExactMatrix(spec, [])
        assert minimal_polynomial(x) == Poly.one(spec)
        assert rank(x) == 0
        assert x * x == x and poly_eval(Poly.from_ints(spec, [1, 2]), x) == x
        assert centralizer_basis(x) == []
        assert jordan_chevalley(x) == (x, x)


def _counting_reduce(monkeypatch):
    """Patch matrices._arithmetic so that its reduce records each row it
    is given; return the record."""
    reduced = []
    arithmetic = matrices._arithmetic

    def counting_arithmetic(x):
        big, times, value, reduce = arithmetic(x)

        def counting_reduce(row, pivots):
            reduced.append(dict(row))
            return reduce(row, pivots)
        return big, times, value, counting_reduce
    monkeypatch.setattr(matrices, "_arithmetic", counting_arithmetic)
    return reduced


def test_minimal_polynomial_runs_one_kernel(monkeypatch):
    """Over a finite field each local minimal polynomial is the one kernel
    vector that the Krylov sequence of its unit vector meets first.  The
    rows reduced: for each e_i, one row that tests it against the span
    (and enters it), and unless the span held it, the sequence rows
    [e_i x^j | e_j] for j = 0..d and the span rows e_i x^j for 0 < j < d,
    for the degree d of the local polynomial.  A cyclic matrix whose e_1
    is cyclic takes 2d + 1 rows: one sequence of d + 1 rows and d span
    rows.  The identity takes 3 rows per unit vector; for the 3 x 3 matrix
    with e_1 x = e_2, e_3 x = e_2 and e_2 x = 0, e_2 lies in the span of
    e_1 and e_1 x and takes one row."""
    reduced = _counting_reduce(monkeypatch)
    cases = [
        (ExactMatrix(GF7, []), Poly.one(GF7), 0),
        (ExactMatrix.identity(GF7, 4), Poly.from_ints(GF7, [-1, 1]), 12),
        (jcell(GF4, 3), Poly.from_ints(GF4, [0, 0, 0, 1]), 7),
        (ExactMatrix.from_ints(GF7, [[0, 1, 0], [0, 0, 0], [0, 1, 0]]),
         Poly.from_ints(GF7, [0, 0, 1]), 11),
    ]
    for x, expected, rows in cases:
        reduced.clear()
        assert minimal_polynomial(x) == expected
        assert len(reduced) == rows


def test_minimal_polynomial_over_q_runs_no_kernel(monkeypatch):
    """Over Q the Krylov rows are reduced as they come, counted as in
    ``test_minimal_polynomial_runs_one_kernel`` (a diagonal matrix takes 3
    rows per unit vector), and every row reduced is a row of integers: no
    Fraction system is eliminated, also for fractional entries."""
    reduced = _counting_reduce(monkeypatch)
    cases = [
        (ExactMatrix(Q, []), Poly.one(Q), 0),
        (ExactMatrix.from_ints(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
         Poly.from_ints(Q, [2, -3, 1]), 9),
        (ExactMatrix(Q, [[Q.scalar(Fraction(1, 2)), Q.from_int(0)],
                         [Q.from_int(0), Q.scalar(Fraction(1, 3))]]),
         Poly.from_ints(Q, [1, -5, 6]).monic(), 6),
    ]
    for x, expected, rows in cases:
        reduced.clear()
        assert minimal_polynomial(x) == expected
        assert len(reduced) == rows
        assert all(type(a) is int for row in reduced for a in row.values())


def test_minimal_polynomial_annihilates():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 4)
        x = ExactMatrix.from_ints(
            Q, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        f = minimal_polynomial(x)
        assert poly_eval(f, x).is_zero
        assert str(f.coeffs[-1]) == "1"


def test_json_round_trip():
    for spec in (Q, GF7, GF4):
        x = jcell(spec, 3) + ExactMatrix.identity(spec, 3).scale(
            spec.from_int(2))
        data = matrix_to_json(x)
        assert data["field"] == str(spec)
        assert matrix_from_json(data) == x
        text = json.dumps(data)
        assert matrix_from_json(json.loads(text)) == x


# Q and GF(p^k) for p in {2, 3, 5, 7} and k <= 3
PROPERTY_FIELDS = [Q] + [galois(p, k) for p in (2, 3, 5, 7) for k in (1, 2, 3)]


@st.composite
def _matrix_pair(draw):
    """Two n x n matrices over one field, with many zero entries."""
    spec = draw(st.sampled_from(PROPERTY_FIELDS))
    n = draw(st.integers(0, 5))
    if spec.is_finite:
        entry = st.integers(0, spec.order - 1).map(spec.element_from_index)
    else:
        entry = st.fractions(min_value=-20, max_value=20,
                             max_denominator=12).map(spec.scalar)
    entry = st.one_of(st.just(spec.zero()), entry)
    return tuple(ExactMatrix(spec, [[draw(entry) for _ in range(n)]
                                    for _ in range(n)]) for _ in range(2))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_matrix_pair())
def test_json_round_trip_and_rank_bounds(pair):
    """A matrix survives its JSON form with equal value, hash and text;
    rank(xy) <= min(rank x, rank y) and rank(x+y) <= rank x + rank y."""
    x, y = pair
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(x))))
    assert back == x and hash(back) == hash(x) and str(back) == str(x)
    assert ExactMatrix(x.spec, x.rows) == x and x.rows is x.rows
    rx, ry = rank(x), rank(y)
    assert rank(x * y) <= min(rx, ry)
    assert rank(x + y) <= rx + ry


def _reference_minimal_polynomial(x):
    """The first vector of the dense null space of the system of all
    powers I, x, ..., x^n, formed with ``*``."""
    n, spec = x.n, x.spec
    powers = [ExactMatrix.identity(spec, n)]
    for _ in range(n):
        powers.append(powers[-1] * x)
    vecs = [[e for row in power.rows for e in row] for power in powers]
    return Poly(spec, _dense_nullspace([list(col) for col in zip(*vecs)],
                                       spec, n + 1)[0])


def _reference_poly_eval(f, x):
    """Horner with ``*``, adding each coefficient times the identity."""
    one = ExactMatrix.identity(x.spec, x.n)
    acc = ExactMatrix.zeros(x.spec, x.n)
    for c in reversed(f.coeffs):
        acc = acc * x + one.scale(c)
    return acc


_FRACTION = st.fractions(min_value=-20, max_value=20, max_denominator=12)
FINITE_REFERENCE_FIELDS = [GF7, GF4, galois(2, 3)]


def _element(spec):
    """Any element of a finite field; over Q a fraction of absolute value
    <= 20 with denominator <= 12."""
    if spec.is_finite:
        return st.integers(0, spec.order - 1).map(spec.element_from_index)
    return _FRACTION.map(spec.scalar)


@st.composite
def _square_matrix(draw, spec):
    """An n x n matrix over spec, n <= 6: sparse, or the direct sum of a
    matrix with itself plus a scalar, whose minimal polynomial has degree
    below n."""
    entry = st.one_of(st.just(spec.zero()), _element(spec))
    if draw(st.booleans()):
        n = draw(st.integers(0, 6))
        return ExactMatrix(spec, [[draw(entry) for _ in range(n)]
                                  for _ in range(n)])
    m = draw(st.integers(1, 3))
    a = ExactMatrix(spec, [[draw(entry) for _ in range(m)] for _ in range(m)])
    return (ExactMatrix.block_diag(spec, [a, a])
            + ExactMatrix.identity(spec, 2 * m).scale(draw(_element(spec))))


@st.composite
def _polynomial(draw, spec):
    """A polynomial over spec of degree <= 6, often with zero low-order
    terms."""
    low = draw(st.integers(0, 3))
    coeffs = draw(st.lists(_element(spec), max_size=7 - low))
    return Poly(spec, [spec.zero()] * low + coeffs)


def _finite_field_case(*parts):
    """Strategies drawn over one field of FINITE_REFERENCE_FIELDS."""
    return st.sampled_from(FINITE_REFERENCE_FIELDS).flatmap(
        lambda spec: st.tuples(*(part(spec) for part in parts)))


def _assert_minimal_polynomial(x, raw_type):
    f = minimal_polynomial(x)
    expected = _reference_minimal_polynomial(x)
    assert f == expected and str(f) == str(expected)
    assert all(type(c.val) is raw_type for c in f.coeffs)
    assert poly_eval(f, x).is_zero


def _assert_identical_matrices(a, b, raw_type):
    assert a == b and a._nz == b._nz
    assert all(type(v) is raw_type for row in a._nz for v in row.values())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_square_matrix(Q))
def test_minimal_polynomial_over_q_matches_reference(x):
    _assert_minimal_polynomial(x, Fraction)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_finite_field_case(_square_matrix))
def test_minimal_polynomial_over_finite_fields_matches_reference(case):
    _assert_minimal_polynomial(*case, int)


def _companion(f):
    """The companion matrix of a monic f of degree m: ones above the
    diagonal and -f_0, ..., -f_(m-1) in the last row; its minimal
    polynomial is f."""
    spec, m = f.spec, f.degree
    rows = [[spec.one() if j == i + 1 else spec.zero() for j in range(m)]
            for i in range(m - 1)]
    return ExactMatrix(spec, rows + [[-c for c in f.coeffs[:m]]])


def _unit_triangular_conjugate(x, rng):
    """P x P^-1 for a seeded unit upper triangular P, a product of
    elementary matrices I + c e_ij with i < j; over Q c is a fraction."""
    spec, n = x.spec, x.n
    for _ in range(2 * n if n > 1 else 0):
        i, j = sorted(rng.sample(range(n), 2))
        c = (spec.element_from_index(rng.randrange(spec.order))
             if spec.is_finite else
             spec.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
        e = [[spec.one() if a == b else spec.zero() for b in range(n)]
             for a in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        x = ExactMatrix(spec, e) * x * ExactMatrix(spec, e_inv)
    return x


def _direct_sum_cases(spec):
    """(x, the minimal polynomials of its blocks) for matrices whose
    minimal polynomial no single unit vector gives: direct sums of two
    different blocks whose minimal polynomials are equal, share a factor
    or are coprime; the identity, a scalar matrix, and nilpotent Jordan
    matrices of mixed types."""
    one, zero = spec.one(), spec.zero()
    a = spec.scalar(Fraction(-3, 2)) if spec.char == 0 else one
    c = (spec.scalar(Fraction(2, 7)) if spec.char == 0
         else spec.element_from_index(spec.order - 1))

    def linear(r):
        return Poly(spec, [-r, one])
    t, s = linear(zero), linear(a)
    f, g = s * s * t, s * t * t
    companion_f = _companion(f)
    transposed_f = ExactMatrix(spec, list(zip(*companion_f.rows)))

    def block_sum(*blocks):
        return ExactMatrix.block_diag(spec, blocks)
    return [
        (block_sum(companion_f, transposed_f), [f, f]),
        (block_sum(companion_f, _companion(g)), [f, g]),
        (block_sum(_companion(s * s), _companion(t * t * t)), [s * s, t * t * t]),
        (ExactMatrix.identity(spec, 4), [linear(one)]),
        (ExactMatrix.identity(spec, 3).scale(c), [linear(c)]),
        (jordan_matrix(Partition([3, 1, 1]), 5, spec), [t * t * t]),
        (jordan_matrix(Partition([2, 2, 1]), 5, spec), [t * t]),
    ]


def _to_sympy(f, t):
    return sympy.Poly([sympy.Rational(c.val.numerator, c.val.denominator)
                       for c in reversed(f.coeffs)], t)


@pytest.mark.parametrize("spec", [Q, galois(2), GF7, GF4, galois(3, 2)],
                         ids=str)
def test_minimal_polynomial_of_direct_sums(spec):
    """The Krylov minimal polynomial takes the lcm of the local minimal
    polynomials of several unit vectors.  On direct sums, scalar and
    nilpotent matrices, each also conjugated by a seeded unit-triangular
    P so that its blocks do not line up with the unit vectors, it equals
    the dense reference and, over Q, sympy's lcm of the blocks' minimal
    polynomials."""
    rng = random.Random(spec.order if spec.is_finite else 0)
    t = sympy.Symbol("t")
    for x, blocks in _direct_sum_cases(spec):
        for y in (x, _unit_triangular_conjugate(x, rng)):
            mu = minimal_polynomial(y)
            assert mu == _reference_minimal_polynomial(y)
            if spec.char == 0:
                expected = reduce(sympy.lcm, [_to_sympy(b, t) for b in blocks])
                assert (_to_sympy(mu, t).all_coeffs()
                        == expected.monic().all_coeffs())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_polynomial(Q), _square_matrix(Q))
def test_poly_eval_over_q_matches_reference(f, x):
    _assert_identical_matrices(poly_eval(f, x), _reference_poly_eval(f, x),
                               Fraction)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_finite_field_case(_polynomial, _square_matrix))
def test_poly_eval_over_finite_fields_matches_reference(case):
    f, x = case
    _assert_identical_matrices(poly_eval(f, x), _reference_poly_eval(f, x),
                               int)


STORAGE_FIELDS = [Q, galois(2), GF7, GF4, galois(2, 3)]


@st.composite
def _storage_case(draw):
    """Two n x n matrices, n <= 5, over one field of STORAGE_FIELDS, the
    int rows of a third, a scalar (often zero) and a polynomial."""
    spec = draw(st.sampled_from(STORAGE_FIELDS))
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(spec.zero()), _element(spec))
    x, y = (ExactMatrix(spec, [[draw(entry) for _ in range(n)]
                               for _ in range(n)]) for _ in range(2))
    ints = [[draw(st.integers(-8, 8)) for _ in range(n)] for _ in range(n)]
    return (x, y, ints, draw(st.one_of(st.just(spec.zero()), _element(spec))),
            draw(_polynomial(spec)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_storage_case())
def test_storage_holds_only_nonzeros(case):
    """Every constructor and operation stores n rows of nonzeros, also
    where entries cancel (x + (-x), x - x, a product and a polynomial value
    that come out zero); two matrices are equal exactly when their entries
    are, and equal matrices hash equal whatever order their rows were
    built in."""
    x, y, ints, c, f = case
    spec, n = x.spec, x.n
    zero = spec.zero()
    upper = ExactMatrix(spec, [[x.rows[i][j] if j > i else zero
                                for j in range(n)] for i in range(n)])
    cell = ExactMatrix.jordan_cell(spec, zero, n)
    cancelled = [x + (-x), x - x, upper.power(n), cell.power(n - 1) * cell
                 if n else cell, x.scale(zero),
                 poly_eval(minimal_polynomial(x), x)]
    assert all(m.is_zero and m == ExactMatrix.zeros(spec, n)
               for m in cancelled)
    mats = [x, y, upper, cell, *cancelled, ExactMatrix.from_ints(spec, ints),
            ExactMatrix.identity(spec, n), ExactMatrix.zeros(spec, n),
            ExactMatrix.jordan_cell(spec, c, n),
            ExactMatrix.block_diag(spec, [x, y]),
            ExactMatrix.block_diag(spec, [y], n + 2), x + y, y + x, x - y,
            -x, x.scale(c), x * y, y * x, x.power(3), poly_eval(f, x),
            *centralizer_basis(x),
            matrix_from_json(json.loads(json.dumps(matrix_to_json(x))))]
    for m in mats:
        assert len(m._nz) == m.n
        for row in m._nz:
            assert type(row) is dict and all(0 <= j < m.n for j in row)
            assert not any(map(spec.ops.is_zero, row.values()))
    for a in mats:
        for b in mats:
            assert (a == b) == (a.rows == b.rows)
            assert a != b or hash(a) == hash(b)


def test_json_file_round_trip(tmp_path):
    path = tmp_path / "mat.json"
    x = jcell(GF7, 4)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(x), fh)
    assert load_matrix(str(path)) == x


def test_json_rejects_ragged_rows():
    data = {"field": "Q", "n": 2, "rows": [["0", "1"], ["0"]]}
    with pytest.raises(ValueError) as exc:
        matrix_from_json(data)
    assert "row" in str(exc.value)


@pytest.mark.parametrize("data, message", [
    ([["0"]], "malformed matrix object"),
    ({"field": 7, "n": 1, "rows": [["0"]]}, "malformed matrix object"),
    ({"field": "Q", "n": 2, "rows": "0 1 0 0"}, "list of lists"),
    ({"field": "Q", "n": 2, "rows": [0, 1]}, "list of lists"),
    ({"field": "Q", "n": 1, "rows": [[1]]}, "expected a string, found 1"),
    ({"field": "Q", "n": 2.9, "rows": [["0", "0"], ["0", "0"]]},
     "n must be a non-negative integer"),
    ({"field": "Q", "n": True, "rows": [["0"]]},
     "n must be a non-negative integer"),
    ({"field": "Q", "n": "1", "rows": [["0"]]},
     "n must be a non-negative integer"),
    ({"field": "Q", "n": -1, "rows": []}, "n must be a non-negative integer"),
], ids=["not-an-object", "field-not-text", "rows-text", "rows-of-ints",
        "cell-not-text", "n-float", "n-bool", "n-text", "n-negative"])
def test_json_rejects_malformed_structure(data, message):
    with pytest.raises(MalformedMatrix) as exc:
        matrix_from_json(data)
    assert message in str(exc.value)


def test_json_rejects_bad_scalar():
    data = {"field": "GF(7)", "n": 1, "rows": [["frog"]]}
    with pytest.raises(ValueError) as exc:
        matrix_from_json(data)
    assert "row 1" in str(exc.value) and "column 1" in str(exc.value)


# ---------------------------------------------------------------------------
# structure golden
# ---------------------------------------------------------------------------

STRUCTURE_FIELDS = {"Q": Q, "GF(7)": GF7, "GF(4)": GF4,
                    "GF(8)": galois(2, 3), "GF(9)": galois(3, 2)}
STRUCTURE_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "structure_golden.json").read_text())


def _structure_input(spec, n, rng):
    """A conjugated Jordan matrix with a few distinct eigenvalues, so that
    both parts of the decomposition are nonzero, and a polynomial."""
    def element(limit):
        if spec.is_finite:
            return spec.element_from_index(
                rng.randrange(min(limit, spec.order)))
        return spec.from_int(rng.randint(-(limit // 2), limit // 2))
    sizes, left = [], n
    while left:
        sizes.append(rng.randint(1, left))
        left -= sizes[-1]
    x = ExactMatrix.block_diag(
        spec, [ExactMatrix.jordan_cell(spec, element(3), m) for m in sizes])
    for _ in range(2 * n):                  # x -> E x E^-1, E = I + c e_ij
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = element(5)
        e = [[spec.one() if a == b else spec.zero() for b in range(n)]
             for a in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        x = ExactMatrix(spec, e) * x * ExactMatrix(spec, e_inv)
    f = Poly(spec, [element(5) for _ in range(rng.randint(1, 5))])
    return x, f


def _sha(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", STRUCTURE_GOLDEN,
                         ids=lambda c: f"{c['field']}-n{c['n']}")
def test_structure_golden(case):
    """Structure results are byte-identical to those of the Scalar kernels.

    Each digest is the SHA-256 of ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"))`` for the input x, the pair
    ``[matrix_to_json(s), matrix_to_json(u)]`` of ``jordan_chevalley(x)``,
    ``str(minimal_polynomial(x))``, the list of ``matrix_to_json`` of
    ``centralizer_basis(x)``, ``[str(f), matrix_to_json(poly_eval(f, x))]``
    and ``rank(x)``, where ``x, f = _structure_input(spec, n,
    random.Random(f"{field}-{n}"))``.  The digests were captured by
    running exactly this computation on the commit before the kernels
    moved to raw values (products and elimination on boxed Scalars, Horner
    steps adding a scaled identity), with no source file changed.
    """
    spec = STRUCTURE_FIELDS[case["field"]]
    x, f = _structure_input(spec, case["n"],
                            random.Random(f"{case['field']}-{case['n']}"))
    s, u = jordan_chevalley(x)
    got = {
        "x": _sha(matrix_to_json(x)),
        "jordan_chevalley": _sha([matrix_to_json(s), matrix_to_json(u)]),
        "minimal_polynomial": _sha(str(minimal_polynomial(x))),
        "centralizer_basis": _sha([matrix_to_json(b)
                                   for b in centralizer_basis(x)]),
        "poly_eval": _sha([str(f), matrix_to_json(poly_eval(f, x))]),
        "rank": _sha(rank(x)),
    }
    assert got == {key: case[key] for key in got}


# ---------------------------------------------------------------------------
# rank-only elimination
# ---------------------------------------------------------------------------

ECHELON_FIELDS = [galois(2), GF7, galois(1000003), GF4, galois(2, 3),
                  galois(3, 2), galois(5, 6), galois(2, 12)]


def _echelon_input(spec, rng):
    """Raw rows over spec: rectangular and dense or sparse, or
    rank-deficient (combinations of fewer rows) with zero rows."""
    ops = spec.ops

    def element():
        return spec.element_from_index(rng.randrange(spec.order)).val
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
    if rng.random() < 0.4:
        density = rng.choice([0.3, 1])
        return [[element() if rng.random() < density else ops.zero
                 for _ in range(ncols)] for _ in range(nrows)]
    basis = [[element() for _ in range(ncols)]
             for _ in range(rng.randint(1, 3))]
    rows = []
    for _ in range(nrows):
        row = [ops.zero] * ncols
        for b in basis:
            c = element()
            row = [ops.add(a, ops.mul(c, x)) for a, x in zip(row, b)]
        rows.append(row)
    for _ in range(rng.randint(1, 2)):
        rows.insert(rng.randrange(len(rows) + 1), [ops.zero] * ncols)
    return rows


@pytest.mark.parametrize("spec", ECHELON_FIELDS, ids=str)
def test_forward_echelon_counts_the_full_pivots(spec):
    """The reduction over a finite field, fed the raw rows one at a time
    as dicts of nonzeros with its pivot rows kept unscaled, enters exactly
    the rows that the earlier ones do not span, and the leads of its
    pivots are the pivot columns of the reduced row echelon form of a
    dense Gauss-Jordan elimination.  Each pivot is kept under its lead,
    its least column, and holds only nonzeros; the dense Gauss-Jordan
    elimination of the pivot rows gives that reduced form, so they span
    the row space."""
    reduce_row = matrices._arithmetic(ExactMatrix(spec, []))[3]
    rng = random.Random(spec.order)
    ops = spec.ops
    for _ in range(60):
        rows = _echelon_input(spec, rng)
        boxed = [[spec.box(a) for a in r] for r in rows]
        rref, full = _dense_rref(boxed)
        ranks = [len(_dense_rref(boxed[:i])[1]) for i in range(len(rows) + 1)]
        pivots = {}
        for i, row in enumerate(rows):
            entered = reduce_row(_row_nonzeros(row), pivots) is not None
            assert entered == (ranks[i + 1] > ranks[i])
        assert sorted(pivots) == full
        for col, prow in pivots.items():
            assert min(prow) == col and all(prow.values())
        reduced, cols = _dense_rref([
            [spec.box(prow.get(j, ops.zero)) for j in range(len(rows[0]))]
            for prow in pivots.values()])
        assert cols == full
        assert reduced == rref[:len(full)]


def _inverse(x):
    """The inverse of an invertible matrix, by dense Gauss-Jordan
    elimination of [x | I]; None for a singular one."""
    n, spec = x.n, x.spec
    aug = [list(r) + [spec.one() if j == i else spec.zero()
                      for j in range(n)] for i, r in enumerate(x.rows)]
    reduced, pivots = _dense_rref(aug)
    if pivots != list(range(n)):
        return None
    return ExactMatrix(spec, [r[n:] for r in reduced])


@pytest.mark.parametrize("spec", [GF4, galois(2, 3), galois(3, 2)], ids=str)
def test_jordan_partition_of_conjugates_matches_the_oracle(spec):
    """``jordan_partition`` of P J P^-1, J a nilpotent Jordan matrix and P
    a random invertible matrix over GF(4), GF(8) or GF(9), is the type of J
    and agrees with the oracle's numpy kernel on the regular
    representation over the prime field."""
    rng = random.Random(spec.order)
    p, k = spec.char, spec.degree
    blocks = oracle._regular_blocks(spec)
    for _ in range(12):
        n = rng.randint(2, 7)
        parts, left = [], n
        while left:
            parts.append(rng.randint(1, left))
            left -= parts[-1]
        part = Partition(parts)
        while True:
            pm = ExactMatrix(spec, [[spec.element_from_index(
                rng.randrange(spec.order)) for _ in range(n)]
                for _ in range(n)])
            pinv = _inverse(pm)
            if pinv is not None:
                break
        assert pm * pinv == ExactMatrix.identity(spec, n)
        x = pm * jordan_matrix(part, n, spec) * pinv
        assert jordan_partition(x) == part
        regular = oracle._regular(x, blocks, oracle._dtype(p, n * k))
        ids, found = oracle._batch_partitions(regular[None], n, k, p)
        assert found[ids[0]] == part.parts
