"""Acceptance suite: ten exact criteria tying the criterion, the witness
constructions and the brute-force oracle together at desk scale.

Each test prints a single pass/fail line so the suite doubles as a
checklist when run with `pytest -s` or `-v`.
"""

import contextlib
import random
import time

from nilclose.criterion import QSet, all_qsets, check_criterion, member_mq
from nilclose.errors import NotNilpotent
from nilclose.field import Poly, galois, geometric_sum, rationals
from nilclose.jordan import (
    Partition,
    is_semisimple,
    jordan_chevalley,
    jordan_matrix,
    jordan_partition,
    predicted_poly_partition,
)
from nilclose.matrices import (
    ExactMatrix,
    centralizer_basis,
    poly_eval,
    rank,
)
from nilclose.oracle import exhaustive_check
from nilclose.witness import build_coupled_cells, falsify, verify_witness

Q = rationals()
GF2 = galois(2)
GF4 = galois(2, 2)
GF5 = galois(5)
GF7 = galois(7)
GF9 = galois(3, 2)


@contextlib.contextmanager
def criterion_line(number, label):
    try:
        yield
    except BaseException:
        print(f"acceptance criterion {number:2d} ({label}): FAIL")
        raise
    print(f"acceptance criterion {number:2d} ({label}): PASS")


def random_element(spec, rng):
    if spec.is_finite:
        return spec.element_from_index(rng.randrange(spec.order))
    return spec.from_int(rng.randint(-4, 4))


def nilpotency_index(x):
    """Least k >= 1 with x^k = 0, found by raw powering."""
    for k in range(1, max(x.n, 1) + 1):
        if x.power(k).is_zero:
            return k
    raise NotNilpotent(f"matrix of size {x.n} with nonzero {x.n}-th power")


def random_valuation_poly(spec, rng, valuation, extra_degree=3):
    """Random polynomial whose lowest nonzero term has the given degree."""
    while True:
        coeffs = [spec.zero()] * valuation
        coeffs.append(spec.from_int(rng.randint(1, 4)))
        for _ in range(extra_degree):
            coeffs.append(spec.from_int(rng.randint(-3, 3)))
        f = Poly(spec, coeffs)
        if not f.is_zero and f.valuation() == valuation:
            return f


def test_criterion_01_char2_agreement():
    with criterion_line(1, "criterion vs oracle, char 2, n=4"):
        start = time.monotonic()
        expected = {(), (2,), (2, 3), (2, 4), (2, 3, 4)}
        for q in all_qsets(4):
            accepted = check_criterion(4, 2, q).accepted
            assert accepted == (q.elements in expected)
            for spec in (GF2, GF4):
                assert exhaustive_check(4, spec, q).passed == accepted
            w = falsify(4, 2, q)
            assert (w is None) == accepted
            if w is not None:
                verify_witness(w, q)
        assert time.monotonic() - start < 60


def test_criterion_02_char0_surrogate_agreement():
    with criterion_line(2, "criterion vs oracle, GF(5) for char 0, n=4"):
        start = time.monotonic()
        expected = {(), (2, 3), (2, 3, 4)}
        for q in all_qsets(4):
            accepted = check_criterion(4, 0, q).accepted
            assert accepted == (q.elements in expected)
            assert exhaustive_check(4, GF5, q,
                                    budget=20_000_000).passed == accepted
            w = falsify(4, 0, q)
            assert (w is None) == accepted
            if w is not None:
                verify_witness(w, q)
        w = falsify(4, 0, QSet([2], 4))
        assert 3 in w.combo_partition.nonunit_sizes
        assert time.monotonic() - start < 120


def test_criterion_03_characteristic_dependence():
    with criterion_line(3, "characteristic-dependent verdict, n=6"):
        q = QSet([2, 3, 5], 6)
        r3 = check_criterion(6, 3, q)
        assert r3.accepted and r3.m0 == 3
        r0 = check_criterion(6, 0, q)
        assert not r0.accepted
        w = falsify(6, 0, q)
        assert str(w.field) == "GF(7)"
        spec = w.field
        cell = ExactMatrix.jordan_cell(spec, spec.zero(), 3)
        z = ExactMatrix.block_diag(spec, [cell, cell], 6)
        z12 = ExactMatrix.block_diag(
            spec,
            [build_coupled_cells(3, spec.one(), spec.from_int(2), spec)], 6)
        assert w.x == z and w.y == z12
        assert w.a == spec.one() and w.b == spec.one()
        assert w.combo_partition == Partition([4, 2])
        # re-verify the partition straight from the defect sequence
        combo = w.combination()
        defects = []
        power = combo
        while len(defects) == 0 or defects[-1] != 6:
            defects.append(6 - rank(power))
            power = power * combo
        assert defects == [2, 4, 5, 6]
        verify_witness(w, q)


def test_criterion_04_poly_of_cell_closed_form():
    with criterion_line(4, "polynomials of a single cell, m <= 10"):
        start = time.monotonic()
        rng = random.Random(2024)
        for m in range(1, 11):
            cell = ExactMatrix.jordan_cell(Q, Q.zero(), m)
            for k in range(1, m + 1):
                for _ in range(20):
                    f = random_valuation_poly(Q, rng, k)
                    y = poly_eval(f, cell)
                    assert y.n - rank(y) == min(m, k)
                    part = jordan_partition(y)
                    assert part == predicted_poly_partition(m, k)
                    if k == 1:
                        assert part == Partition([m])
        assert time.monotonic() - start < 30


def test_criterion_05_geometric_sum_identity():
    with criterion_line(5, "geometric-sum identity"):
        rng = random.Random(55)
        for spec in (Q, GF7, GF4):
            done = 0
            while done < 500:
                k = rng.randint(1, 20)
                a = random_element(spec, rng)
                b = random_element(spec, rng)
                if a == b:
                    continue
                assert geometric_sum(k, a, b) * (a - b) == a ** k - b ** k
                done += 1


def test_criterion_06_coupled_cell_stratification():
    with criterion_line(6, "coupled-cell partition stratification"):
        for spec in (GF7, GF9):
            for m in (2, 3):
                for ai in range(1, spec.order):
                    for bi in range(1, spec.order):
                        a = spec.element_from_index(ai)
                        b = spec.element_from_index(bi)
                        z = build_coupled_cells(m, a, b, spec)
                        assert z.n - rank(z) == 2
                        if geometric_sum(m, a, b).is_zero:
                            assert jordan_partition(z) == Partition([m, m])
                        else:
                            assert jordan_partition(z) == \
                                Partition([m + 1, m - 1])


def _commuting_pair_with_power_zero(spec, rng, n, m):
    """A commuting pair X, Y with X^m = Y^m = 0, or None if the draw
    fails the power condition."""
    parts = []
    left = n
    while left > 0:
        p = rng.randint(1, min(left, n))
        parts.append(p)
        left -= p
    base = jordan_matrix(Partition(parts), n, spec)
    x = poly_eval(random_valuation_poly(spec, rng, rng.randint(1, 3)), base)
    y = poly_eval(random_valuation_poly(spec, rng, rng.randint(1, 3)), base)
    if x.power(m).is_zero and y.power(m).is_zero:
        return x, y
    return None


def test_criterion_07_combination_power_bound():
    with criterion_line(7, "power-closure of commuting combinations"):
        rng = random.Random(77)
        # (a) m > n/2: any combination inherits the power bound
        found = 0
        while found < 200:
            n = rng.randint(2, 6)
            m = rng.randint(n // 2 + 1, n)
            spec = rng.choice((Q, GF7))
            pair = _commuting_pair_with_power_zero(spec, rng, n, m)
            if pair is None:
                continue
            x, y = pair
            for _ in range(4):
                a = random_element(spec, rng)
                b = random_element(spec, rng)
                assert (x.scale(a) + y.scale(b)).power(m).is_zero
            found += 1
        # (b) characteristic 2 with m a power of 2: no size hypothesis
        found = 0
        while found < 80:
            spec = rng.choice((GF2, GF4))
            n = rng.randint(2, 6)
            m = rng.choice((2, 4))
            pair = _commuting_pair_with_power_zero(spec, rng, n, m)
            if pair is None:
                continue
            x, y = pair
            for ai in range(spec.order):
                for bi in range(spec.order):
                    combo = x.scale(spec.element_from_index(ai)) \
                        + y.scale(spec.element_from_index(bi))
                    assert combo.power(m).is_zero
            found += 1


def test_criterion_08_index_quantization():
    with criterion_line(8, "nilpotency indices of large-index neighbors"):
        rng = random.Random(88)
        found = 0
        while found < 100:
            n = rng.randint(2, 6)
            m = rng.randint(n // 2 + 1, n)
            parts = [m]
            left = n - m
            while left > 0:
                p = rng.randint(1, left)
                parts.append(p)
                left -= p
            spec = rng.choice((Q, GF7))
            x = jordan_matrix(Partition(parts), n, spec)
            assert nilpotency_index(x) == m
            if rng.random() < 0.5:
                y = poly_eval(
                    random_valuation_poly(spec, rng, rng.randint(1, m)), x)
            else:
                basis = centralizer_basis(x)
                y = ExactMatrix.zeros(spec, n)
                for b in basis:
                    c = random_element(spec, rng)
                    if not c.is_zero:
                        y = y + b.scale(c)
            try:
                l = nilpotency_index(y)
            except NotNilpotent:
                continue
            if l <= n - m + 2:
                continue
            quantized = {-(-m // p) for p in range(1, m + 1)}
            assert l in quantized, (n, m, l)
            found += 1


def test_criterion_09_jordan_chevalley_contract():
    with criterion_line(9, "semisimple-plus-nilpotent decomposition"):
        rng = random.Random(99)
        for spec in (Q, GF7, GF4):
            for _ in range(200):
                n = rng.randint(1, 6)
                if spec.is_finite:
                    x = ExactMatrix.from_ints(
                        spec, [[rng.randrange(spec.char) for _ in range(n)]
                               for _ in range(n)])
                else:
                    x = ExactMatrix.from_ints(
                        spec, [[rng.randint(-1, 1) for _ in range(n)]
                               for _ in range(n)])
                s, u = jordan_chevalley(x)
                assert s + u == x
                assert s.commutator(u).is_zero
                assert u.power(n).is_zero
                assert is_semisimple(s)
            # additivity on commuting pairs
            for _ in range(40):
                n = rng.randint(1, 5)
                base = ExactMatrix.from_ints(
                    spec, [[rng.randint(0, 2) for _ in range(n)]
                           for _ in range(n)])
                x = poly_eval(random_valuation_poly(spec, rng, 0), base)
                y = poly_eval(random_valuation_poly(spec, rng, 0), base)
                a = random_element(spec, rng)
                b = random_element(spec, rng)
                xs, xn = jordan_chevalley(x)
                ys, yn = jordan_chevalley(y)
                cs, cn = jordan_chevalley(x.scale(a) + y.scale(b))
                assert cs == xs.scale(a) + ys.scale(b)
                assert cn == xn.scale(a) + yn.scale(b)


def test_criterion_10_witness_completeness_sweep():
    with criterion_line(10, "witness completeness sweep, n <= 8"):
        start = time.monotonic()
        for n in range(2, 9):
            for char in (0, 2, 3):
                for q in all_qsets(n):
                    accepted = check_criterion(n, char, q).accepted
                    w = falsify(n, char, q)
                    assert (w is None) == accepted
                    if w is not None:
                        verify_witness(w, q)
                        assert member_mq(w.x, q) and member_mq(w.y, q)
        assert time.monotonic() - start < 300
