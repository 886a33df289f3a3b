"""Nilpotent structure theory: partitions from defect sequences, the
closed form for polynomials of a single cell, semisimplicity and the
semisimple-plus-nilpotent decomposition."""

import ast
import json
import logging
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from nilclose import jordan, matrices
from nilclose.criterion import QSet
from nilclose.errors import (InternalInconsistency, NotNilpotent, OutOfRange,
                             PartitionTooLarge)
from nilclose.field import Poly, galois, rationals
from nilclose.jordan import (
    Partition,
    is_semisimple,
    jordan_chevalley,
    jordan_matrix,
    jordan_partition,
    partition_from_defects,
    predicted_poly_partition,
    squarefree_part,
)
from nilclose.matrices import ExactMatrix, minimal_polynomial, poly_eval, rank
from nilclose.witness import falsify

Q = rationals()
GF2 = galois(2)
GF3 = galois(3)
GF7 = galois(7)
GF4 = galois(2, 2)


def jcell(spec, m):
    return ExactMatrix.jordan_cell(spec, spec.zero(), m)


def nilpotency_index(x):
    """Least k >= 1 with x^k = 0, found by raw powering."""
    for k in range(1, max(x.n, 1) + 1):
        if x.power(k).is_zero:
            return k
    raise NotNilpotent(f"matrix of size {x.n} with nonzero {x.n}-th power")


def test_partition_normal_form():
    p = Partition([2, 3, 2])
    assert p.parts == (3, 2, 2)
    assert p.total == 7
    assert str(p) == "[3,2,2]"
    assert p.nonunit_sizes == frozenset({3, 2})


def test_nilpotency_index():
    x = ExactMatrix.block_diag(Q, [jcell(Q, 3), jcell(Q, 2)], 5)
    assert nilpotency_index(x) == 3
    assert nilpotency_index(ExactMatrix.zeros(Q, 4)) == 1
    with pytest.raises(NotNilpotent):
        nilpotency_index(ExactMatrix.identity(Q, 2))


def test_jordan_partition_examples():
    x = ExactMatrix.block_diag(Q, [jcell(Q, 3), jcell(Q, 2)], 5)
    assert jordan_partition(x) == Partition([3, 2])
    assert jordan_partition(jcell(Q, 7).power(3)) == Partition([3, 2, 2])
    # N(x)I + I(x)N over GF(3): rank 2, square nonzero, cube zero
    n4 = ExactMatrix.from_ints(galois(3), [[0, 1, 1, 0], [0, 0, 0, 1],
                                           [0, 0, 0, 1], [0, 0, 0, 0]])
    assert jordan_partition(n4) == Partition([3, 1])


def test_jordan_matrix():
    x = jordan_matrix(Partition([2, 2]), 4, Q)
    assert jordan_partition(x) == Partition([2, 2])
    y = jordan_matrix(Partition([3]), 5, Q)
    assert jordan_partition(y) == Partition([3, 1, 1])
    assert jordan_matrix(Partition([4]), 4, Q) == jcell(Q, 4)
    with pytest.raises(PartitionTooLarge):
        jordan_matrix(Partition([3, 2]), 4, Q)


def test_g_set():
    x = jordan_matrix(Partition([3, 2]), 7, Q)
    assert jordan_partition(x).nonunit_sizes == frozenset({3, 2})
    assert len(jordan_partition(ExactMatrix.zeros(Q, 3)).nonunit_sizes) == 0
    assert jordan_partition(jcell(Q, 4).power(3)).nonunit_sizes == \
        frozenset({2})


def test_partition_invariants():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 6)
        parts = []
        left = n
        while left > 0:
            p = rng.randint(1, left)
            parts.append(p)
            left -= p
        x = jordan_matrix(Partition(parts), n, GF7)
        got = jordan_partition(x)
        assert got.total == n
        assert len(got) == n - rank(x)
        assert max(got.parts) == nilpotency_index(x)


def test_predicted_poly_partition():
    assert predicted_poly_partition(7, 3) == Partition([3, 2, 2])
    assert predicted_poly_partition(5, 5) == Partition([1, 1, 1, 1, 1])
    assert predicted_poly_partition(5, 1) == Partition([5])
    with pytest.raises(OutOfRange):
        predicted_poly_partition(3, 4)
    # distinct sizes are exactly the two halves of the division
    for m in range(1, 11):
        for k in range(1, m + 1):
            sizes = set(predicted_poly_partition(m, k).parts)
            assert sizes <= {m // k, -(-m // k)}


def test_poly_of_cell_matches_prediction():
    rng = random.Random(13)
    for m in range(2, 8):
        for k in range(1, m + 1):
            coeffs = [0] * k + [rng.randint(1, 5)]
            coeffs += [rng.randint(-3, 3) for _ in range(3)]
            f = Poly.from_ints(Q, coeffs)
            y = poly_eval(f, jcell(Q, m))
            assert jordan_partition(y) == predicted_poly_partition(m, k)


def test_squarefree_part():
    f = Poly.from_ints(Q, [0, 0, 1]) * Poly.from_ints(Q, [1, 1])  # t^2 (t+1)
    assert squarefree_part(f) == Poly.from_ints(Q, [0, 1, 1])
    # characteristic-p path with vanishing derivative: t^2 over GF(2)
    g = Poly.from_ints(GF2, [0, 0, 1])
    assert squarefree_part(g) == Poly.from_ints(GF2, [0, 1])
    # GF(4): (t - c)^2 with c a generator exercises the p-th root of c
    GF4_ = GF4
    c = GF4_.element_from_index(2)
    lin = Poly(GF4_, [-c, GF4_.one()])
    assert squarefree_part(lin * lin) == lin


def test_is_semisimple():
    assert is_semisimple(ExactMatrix.from_ints(Q, [[1, 0, 0], [0, 2, 0],
                                                   [0, 0, 2]]))
    assert not is_semisimple(jcell(Q, 2))
    rot = ExactMatrix.from_ints(Q, [[0, 1], [-1, 0]])
    assert is_semisimple(rot)  # t^2 + 1 is squarefree


def test_jordan_chevalley_examples():
    lam = ExactMatrix.from_ints(Q, [[3, 1, 0], [0, 3, 1], [0, 0, 3]])
    s, u = jordan_chevalley(lam)
    assert s == ExactMatrix.identity(Q, 3).scale(Q.from_int(3))
    assert u == jcell(Q, 3)
    d = ExactMatrix.from_ints(Q, [[1, 0], [0, 2]])
    s, u = jordan_chevalley(d)
    assert s == d and u.is_zero
    ones = ExactMatrix.from_ints(Q, [[1, 1], [0, 1]])
    s, u = jordan_chevalley(ones)
    assert s == ExactMatrix.identity(Q, 2)
    assert u == ExactMatrix.from_ints(Q, [[0, 1], [0, 0]])


def test_jordan_chevalley_properties():
    rng = random.Random(19)
    for spec in (Q, GF7, GF4):
        for _ in range(40):
            n = rng.randint(1, 4)
            if spec.is_finite:
                x = ExactMatrix.from_ints(
                    spec, [[rng.randrange(spec.char) for _ in range(n)]
                           for _ in range(n)])
            else:
                x = ExactMatrix.from_ints(
                    spec, [[rng.randint(-2, 2) for _ in range(n)]
                           for _ in range(n)])
            s, u = jordan_chevalley(x)
            assert s + u == x
            assert s.commutator(u).is_zero
            assert u.power(n).is_zero
            assert is_semisimple(s)
            # both parts are polynomials in x, hence commute with x
            assert s.commutator(x).is_zero


# ---------------------------------------------------------------------------
# differential checks against sympy
# ---------------------------------------------------------------------------

def _unimodular(n, rng):
    """Random integer matrix of determinant 1: a product of elementary
    row operations, as a sympy Matrix."""
    p = sympy.eye(n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        p[i, :] = p[i, :] + rng.choice([-1, 1]) * p[j, :]
    return p


def _sympy_cells(jordan_form):
    """Sizes of the Jordan blocks of a sympy Jordan normal form."""
    sizes, size = [], 1
    for i in range(1, jordan_form.rows):
        if jordan_form[i - 1, i] == 0:
            sizes.append(size)
            size = 0
        size += 1
    return sorted(sizes + [size], reverse=True)


def _from_sympy(m):
    return ExactMatrix(Q, [[Q.scalar(Fraction(int(m[i, j].p), int(m[i, j].q)))
                            for j in range(m.cols)] for i in range(m.rows)])


def _random_partition(n, rng):
    parts, left = [], n
    while left:
        parts.append(rng.randint(1, left))
        left -= parts[-1]
    return parts


def test_jordan_partition_matches_sympy():
    """Nilpotent P*J*P^-1 with P unimodular: the cell sizes agree with
    the block sizes of sympy's Jordan form."""
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 6)
        p = _unimodular(n, rng)
        j = _from_sympy_blocks(_random_partition(n, rng), [0] * n)
        x = p * j * p.inv()
        _, form = x.jordan_form()
        assert list(jordan_partition(_from_sympy(x)).parts) == \
            _sympy_cells(form)


def test_jordan_chevalley_matches_sympy():
    """For x = P*J*P^-1 with integer eigenvalues, P unimodular and J in
    Jordan form, the semisimple part is P*diag(J)*P^-1, computed in
    sympy's exact arithmetic."""
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(1, 6)
        parts = _random_partition(n, rng)
        j = _from_sympy_blocks(parts, [rng.randint(-2, 2) for _ in parts])
        p = _unimodular(n, rng)
        x = p * j * p.inv()
        s, u = jordan_chevalley(_from_sympy(x))
        assert s == _from_sympy(p * sympy.diag(*j.diagonal()) * p.inv())
        assert u == _from_sympy(x) - s


def _from_sympy_blocks(parts, eigenvalues):
    """Block-diagonal sympy matrix of Jordan cells of the given sizes."""
    return sympy.diag(*[sympy.Matrix(m, m, lambda i, j: lam if i == j
                                     else 1 if j == i + 1 else 0)
                        for m, lam in zip(parts, eigenvalues)])


def test_minimal_polynomial_and_poly_eval_match_sympy():
    """For x = P*J*P^-1 with integer eigenvalues the minimal polynomial is
    the product of (t - lambda)^(largest cell of lambda), and f(x) is
    sympy's sum of c_i x^i, for f with fractional coefficients."""
    rng = random.Random(37)
    t = sympy.Symbol("t")
    for _ in range(15):
        n = rng.randint(1, 6)
        parts = _random_partition(n, rng)
        eigenvalues = [rng.randint(-2, 2) for _ in parts]
        p = _unimodular(n, rng)
        x = p * _from_sympy_blocks(parts, eigenvalues) * p.inv()
        largest = {}
        for m, lam in zip(parts, eigenvalues):
            largest[lam] = max(m, largest.get(lam, 0))
        mu = sympy.Poly(sympy.prod((t - lam) ** m
                                   for lam, m in largest.items()), t)
        assert minimal_polynomial(_from_sympy(x)) == Poly.from_ints(
            Q, [int(c) for c in reversed(mu.all_coeffs())])
        coeffs = [sympy.Rational(rng.randint(-4, 4), rng.randint(1, 6))
                  for _ in range(rng.randint(1, 6))]
        f = Poly(Q, [Q.scalar(Fraction(int(c.p), int(c.q))) for c in coeffs])
        expected = sum((c * x ** i for i, c in enumerate(coeffs)),
                       sympy.zeros(n, n))
        assert poly_eval(f, _from_sympy(x)) == _from_sympy(expected)


# ---------------------------------------------------------------------------
# the row-space chain against the defects of the powers
# ---------------------------------------------------------------------------

def _reference_partition(x):
    """Cell sizes from the defect n - rank(x^k) of each power x^k, formed
    in full; NotNilpotent when x^n is nonzero."""
    n, defects = x.n, []
    for k in range(1, n + 1):
        defects.append(n - rank(x.power(k)))
        if defects[-1] == n:
            return partition_from_defects(defects)
    raise NotNilpotent(f"matrix of size {n} with nonzero {n}-th power")


def _outcome(partition_of, x):
    """The partition, or the text of the NotNilpotent raised instead."""
    try:
        return partition_of(x)
    except NotNilpotent as exc:
        return f"NotNilpotent: {exc}"


def _random_scalar(spec, rng, fractional):
    if spec.is_finite:
        return spec.element_from_index(rng.randrange(spec.order))
    return spec.scalar(Fraction(rng.randint(-6, 6),
                                rng.randint(1, 4) if fractional else 1))


def _conjugate(x, rng, fractional):
    """x conjugated by 3n random elementary matrices I + c*e_ij, i != j,
    whose inverses are I - c*e_ij; the entries become dense."""
    spec, n = x.spec, x.n
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = _random_scalar(spec, rng, fractional)
        e, e_inv = ([[spec.one() if r == s else spec.zero() for s in range(n)]
                     for r in range(n)] for _ in range(2))
        e[i][j], e_inv[i][j] = c, -c
        x = ExactMatrix(spec, e) * x * ExactMatrix(spec, e_inv)
    return x


@pytest.mark.parametrize("spec", [Q, GF2, GF7, GF4, galois(2, 3),
                                  galois(2, 12)], ids=str)
def test_partition_chain_matches_power_defects(spec):
    """The row-space chain gives the partition of the defects of the
    powers formed in full, and the same NotNilpotent text otherwise:
    on dense conjugates of Jordan matrices (fractional over Q), on those
    plus the identity, and on random matrices."""
    rng = random.Random(4242)
    for trial in range(24):
        n = rng.randint(1, 10)
        parts = _random_partition(n, rng)
        fractional = trial % 2 == 1
        x = _conjugate(jordan_matrix(Partition(parts), n, spec), rng,
                       fractional)
        assert jordan_partition(x) == _reference_partition(x) == \
            Partition(parts)
        shifted = x + ExactMatrix.identity(spec, n)
        assert _outcome(jordan_partition, shifted) == \
            _outcome(_reference_partition, shifted) == \
            f"NotNilpotent: matrix of size {n} with nonzero {n}-th power"
        y = ExactMatrix(spec, [[_random_scalar(spec, rng, fractional)
                                for _ in range(n)] for _ in range(n)])
        assert _outcome(jordan_partition, y) == \
            _outcome(_reference_partition, y)


NEIGHBOR_N26 = [case for case in json.loads(
    (Path(__file__).parent / "data" / "witness_n26_golden.json").read_text())
    if case["construction"] == "neighbor"]


@pytest.mark.parametrize("case", NEIGHBOR_N26, ids=lambda c: c["field"])
def test_partition_chain_on_n26_neighbor_combinations(case):
    """The combinations of the n = 26 neighbor witnesses, over GF(2^12),
    GF(5^6), GF(3^5) and GF(67): the chain, the defects of the powers and
    the recorded partition agree."""
    w = falsify(26, case["char"], QSet(case["q"], 26))
    combo = w.combination()
    assert jordan_partition(combo) == _reference_partition(combo) == \
        w.combo_partition


def test_jordan_partition_forms_no_power(monkeypatch):
    """The chain multiplies echelon basis rows by x in the shared product
    loop and reduces them: jordan_partition calls neither
    ExactMatrix.__mul__ nor rank."""
    calls = []
    mul = ExactMatrix.__mul__

    def counting_mul(x, y):
        calls.append("mul")
        return mul(x, y)

    def counting_rank(x):
        calls.append("rank")
        return rank(x)
    monkeypatch.setattr(ExactMatrix, "__mul__", counting_mul)
    for module in (matrices, jordan):
        if hasattr(module, "rank"):
            monkeypatch.setattr(module, "rank", counting_rank)
    cases = [
        (jordan_matrix(Partition([3, 2]), 6, Q), Partition([3, 2, 1])),
        (jcell(GF7, 7).power(2), Partition([4, 3])),
        (ExactMatrix.block_diag(GF4, [jcell(GF4, 4)], 5),
         Partition([4, 1])),
        (ExactMatrix.zeros(GF2, 3), Partition([1, 1, 1])),
        (ExactMatrix(Q, []), Partition([])),
    ]
    for x, expected in cases:
        calls.clear()
        assert jordan_partition(x) == expected
        assert calls == []
    with pytest.raises(NotNilpotent):
        jordan_partition(ExactMatrix.identity(GF7, 3))
    assert calls == []


def test_jordan_imports_only_the_power_ranks_from_matrices():
    """Jordan types come from the ranks of the row-space chain, so the only
    private name that ``jordan`` takes from ``matrices`` is ``_power_ranks``;
    products, integer images and elimination stay behind it."""
    tree = ast.parse(Path(jordan.__file__).read_text(encoding="utf-8"))
    private = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name != "nilclose.matrices" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("nilclose")
            if module.removeprefix(".") == "matrices":
                private |= {a.name for a in node.names
                            if a.name.startswith("_")}
            elif not module:            # from . import matrices
                assert all(a.name != "matrices" for a in node.names)
    assert private == {"_power_ranks"}


# ---------------------------------------------------------------------------
# Jordan-Chevalley: the early exit against the fixed-step Newton loop
# ---------------------------------------------------------------------------

def _fixed_step_jordan_chevalley(x):
    """Reference: ceil(log2 n) + 1 Newton steps S <- S - f1(S) * g(S)
    whatever the input, each one evaluating f1 and g, also once f1(S) = 0
    and also when x is semisimple."""
    n = x.n
    f1 = squarefree_part(minimal_polynomial(x))
    _, g = f1.xgcd(f1.derivative())
    steps = max(1, math.ceil(math.log2(n)) + 1) if n > 1 else 1
    s = x
    for _ in range(steps):
        s = s - poly_eval(f1, s) * poly_eval(g % f1, s)
    return s, x - s


def _companion(f):
    """Companion matrix of a monic polynomial: ones below the diagonal and
    minus the low coefficients in the last column."""
    spec, d = f.spec, f.degree
    return ExactMatrix(spec, [[spec.one() if i == j + 1 else
                               -f.coeffs[i] if j == d - 1 else spec.zero()
                               for j in range(d)] for i in range(d)])


def _repeated_eigenvalue_conjugate(spec, rng, fractional):
    """P*J*P^-1 for J a block diagonal of Jordan cells, the first of size
    at least 2, whose eigenvalues come from a set of two."""
    n, first = rng.randint(2, 6), rng.randint(2, 4)
    eigenvalues = [_random_scalar(spec, rng, False) for _ in range(2)]
    cells = [ExactMatrix.jordan_cell(spec, rng.choice(eigenvalues), m)
             for m in [first] + _random_partition(max(n - first, 0), rng)]
    return _conjugate(ExactMatrix.block_diag(spec, cells), rng, fractional)


def _several_step_inputs():
    """Non-semisimple inputs whose Newton iteration takes one or more
    corrections, with a nonlinear squarefree part for the companions."""
    rng = random.Random(97)
    t2_1 = Poly.from_ints(Q, [1, 0, 1])
    t2_t_1 = Poly.from_ints(GF2, [1, 1, 1])
    c = GF4.element_from_index(2)
    gf4_cells = [ExactMatrix.jordan_cell(GF4, c, 2),
                 ExactMatrix.jordan_cell(GF4, c + GF4.one(), 3)]
    cases = [_companion(t2_1 * t2_1), _companion(t2_1 * t2_1 * t2_1),
             _companion(t2_t_1 * t2_t_1),
             _conjugate(ExactMatrix.block_diag(GF4, gf4_cells), rng, False)]
    for spec, fractional in ((Q, True), (Q, False), (GF7, False),
                             (GF4, False)):
        cases += [_repeated_eigenvalue_conjugate(spec, rng, fractional)
                  for _ in range(4)]
    return cases


def test_jordan_chevalley_matches_fixed_step_loop():
    """Stopping at the first S with f1(S) = 0, or at once for a
    semisimple x, gives the (s, u) of the fixed number of steps: on
    random matrices and on inputs that need Newton corrections."""
    rng = random.Random(61)
    cases = []
    for spec in (Q, GF2, GF3, GF7, GF4):
        for _ in range(15):
            n = rng.randint(0, 6)
            cases.append(ExactMatrix(spec, [
                [_random_scalar(spec, rng, False) for _ in range(n)]
                for _ in range(n)]))
    cases += _several_step_inputs()
    semisimple = sum(is_semisimple(x) for x in cases)
    assert 0 < semisimple < len(cases)
    for x in cases:
        assert jordan_chevalley(x) == _fixed_step_jordan_chevalley(x)


def test_jordan_chevalley_several_steps(monkeypatch):
    """Each input needs at least one Newton correction, the companion of
    (t^2+1)^3 and the GF(4) cells of sizes 2 and 3 two, and the GF(2)
    and GF(4) cases reach the p-th root of a minimal polynomial with
    vanishing derivative."""
    evals, roots = [], []
    pth_root = jordan._pth_root_poly

    def counting_eval(f, s):
        evals.append(f)
        return poly_eval(f, s)

    def counting_root(f):
        roots.append(f)
        return pth_root(f)
    monkeypatch.setattr(jordan, "poly_eval", counting_eval)
    monkeypatch.setattr(jordan, "_pth_root_poly", counting_root)
    corrections, took_root = [], []
    for x in _several_step_inputs():
        evals.clear()
        roots.clear()
        s, u = jordan_chevalley(x)
        assert not u.is_zero and s + u == x
        assert is_semisimple(s) and s.commutator(u).is_zero
        corrections.append((len(evals) - 1) // 2)
        took_root.append(bool(roots))
    assert corrections[:4] == [1, 2, 1, 2]
    assert took_root[:4] == [False, False, True, True]
    assert min(corrections) >= 1


def test_jordan_chevalley_evaluates_only_what_it_needs(monkeypatch):
    """Counted calls of poly_eval: none for a semisimple x, and three for
    lambda*I + J_n, namely f1(x), g(x), then f1(S_1) = 0."""
    calls = []

    def counting_eval(f, s):
        calls.append(f)
        return poly_eval(f, s)
    monkeypatch.setattr(jordan, "poly_eval", counting_eval)
    diagonal = ExactMatrix.from_ints(Q, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    rotation = ExactMatrix.from_ints(Q, [[0, 1], [-1, 0]])
    for x in (diagonal, rotation):
        assert jordan_chevalley(x) == (x, ExactMatrix.zeros(Q, x.n))
        assert calls == []
    f1 = Poly.from_ints(Q, [-3, 1])
    for n in range(2, 8):
        calls.clear()
        x = ExactMatrix.jordan_cell(Q, Q.from_int(3), n)
        assert jordan_chevalley(x) == (
            ExactMatrix.identity(Q, n).scale(Q.from_int(3)), jcell(Q, n))
        assert calls == [f1, Poly.one(Q), f1]


def test_jordan_chevalley_guard(monkeypatch):
    """If f1(S) never vanishes, the loop stops after ceil(log2 n) + 1
    corrections with InternalInconsistency instead of returning S."""
    f1_evals = []

    def never_vanishing(f, s):
        if f.degree >= 1:
            f1_evals.append(f)
            return ExactMatrix.identity(s.spec, s.n)
        return poly_eval(f, s)
    monkeypatch.setattr(jordan, "poly_eval", never_vanishing)
    for n, steps in ((2, 2), (4, 3), (5, 4)):
        f1_evals.clear()
        with pytest.raises(InternalInconsistency,
                           match=f"after {steps} Newton corrections"):
            jordan_chevalley(ExactMatrix.jordan_cell(Q, Q.from_int(3), n))
        assert len(f1_evals) == steps + 1


def test_jordan_chevalley_logs_one_debug_line(caplog, capsys):
    """One debug line per decomposition on the nilclose.jordan logger,
    naming n, the field and either "semisimple" or the number of Newton
    corrections; a default run writes nothing to stderr."""
    semisimple = ExactMatrix.identity(GF7, 3)
    cell = ExactMatrix.jordan_cell(Q, Q.from_int(3), 4)
    jordan_chevalley(cell)
    assert capsys.readouterr().err == ""
    assert not [r for r in caplog.records if r.name == "nilclose.jordan"]
    with caplog.at_level(logging.DEBUG, logger="nilclose"):
        jordan_chevalley(semisimple)
        jordan_chevalley(cell)
    records = [r for r in caplog.records if r.name == "nilclose.jordan"]
    assert [r.levelno for r in records] == [logging.DEBUG] * 2
    assert [r.getMessage() for r in records] == [
        "jordan-chevalley n=3 over GF(7): semisimple",
        "jordan-chevalley n=4 over Q: Newton corrections 1"]
