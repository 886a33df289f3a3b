"""The acceptance criterion for cell-size sets and the membership
predicates for the associated matrix classes."""

import time

import pytest

from nilclose.criterion import (
    QSet,
    all_qsets,
    anchor_candidates,
    check_criterion,
    enumerate_valid_q,
    is_char_power,
    member_full,
    member_mq,
    member_ms,
)
from nilclose.errors import BoundExceeded, InvalidQ, NonPrimeChar, OutOfRange
from nilclose.field import galois, rationals
from nilclose.jordan import Partition, jordan_matrix
from nilclose.matrices import ExactMatrix

Q = rationals()


def qs(elements, n):
    return QSet(elements, n)


def test_qset_validation_and_text():
    q = qs([3, 2], 5)
    assert q.elements == (2, 3)
    assert str(q) == "2,3"
    assert str(qs([], 4)) == "-"
    assert QSet.parse("2,3", 5) == q
    assert QSet.parse("-", 4) == qs([], 4)
    with pytest.raises(InvalidQ):
        qs([1], 4)
    with pytest.raises(InvalidQ):
        qs([5], 4)
    with pytest.raises(InvalidQ):
        QSet.parse("2,frog", 4)


def test_is_char_power():
    assert is_char_power(2, 2)
    assert is_char_power(8, 2)
    assert is_char_power(9, 3)
    assert not is_char_power(6, 2)
    assert not is_char_power(1, 2)
    assert not is_char_power(4, 0)


def test_anchor_candidates():
    assert anchor_candidates(4, 0) == [(3, "half_n")]
    assert anchor_candidates(4, 2) == [(2, "char_power"), (3, "half_n")]
    assert anchor_candidates(9, 3) == [(3, "char_power"), (5, "half_n")]


def _scanned_anchor_candidates(n, char):
    """The anchors found by testing every size from 2 to floor(n/2) + 1."""
    half = n // 2 + 1
    out = []
    for m in range(2, half + 1):
        if m == half:
            out.append((m, "half_n"))
        elif char > 0 and is_char_power(m, char):
            out.append((m, "char_power"))
    return out


def test_anchor_candidates_match_a_scan_of_every_size():
    for char in (0, 2, 3, 5, 7, 11, 1000003):
        for n in range(300):
            assert anchor_candidates(n, char) == \
                _scanned_anchor_candidates(n, char), (n, char)


def test_anchor_candidates_take_logarithmic_time():
    """The anchors are listed, not searched for among all sizes up to n/2,
    so a dimension of 10^18 is answered at once."""
    n = 10 ** 18
    start = time.perf_counter()
    anchors = anchor_candidates(n, 3)
    result = check_criterion(n, 3, QSet.parse("2,3", n))
    assert time.perf_counter() - start < 1
    assert anchors == [(3 ** k, "char_power") for k in range(1, 38)] + [
        (n // 2 + 1, "half_n")]
    assert result.accepted and result.m0 == 3


def test_check_criterion_examples():
    r = check_criterion(4, 0, qs([2, 3], 4))
    assert r.accepted and r.m0 == 3 and r.branch == "half_n"
    assert not check_criterion(4, 0, qs([2, 4], 4)).accepted
    r = check_criterion(6, 3, qs([2, 3, 5], 6))
    assert r.accepted and r.m0 == 3 and r.branch == "char_power"
    r = check_criterion(6, 0, qs([2, 3, 5], 6))
    assert not r.accepted
    assert [reason.m0 for reason in r.reject_reasons] == [4]
    assert r.reject_reasons[0].condition == "missing_prefix"
    r = check_criterion(9, 0, qs([], 9))
    assert r.accepted and r.m0 is None and r.branch == "empty"


def test_check_criterion_errors():
    with pytest.raises(NonPrimeChar):
        check_criterion(4, 6, qs([2], 4))
    with pytest.raises(InvalidQ):
        check_criterion(4, 0, qs([2], 5))


def test_check_criterion_refuses_negative_dimension():
    for char in (0, 2):
        with pytest.raises(OutOfRange):
            check_criterion(-3, char, qs([], -3))
    assert check_criterion(0, 2, qs([], 0)).accepted


def test_existential_anchor():
    # the anchor need not be the longest prefix run: m0 = 2 works here even
    # though 3 is also in q
    r = check_criterion(4, 2, qs([2, 4], 4))
    assert r.accepted and r.m0 == 2


def test_enumerate_examples():
    def texts(n, char):
        return [str(q) for q in enumerate_valid_q(n, char)]
    assert texts(4, 0) == ["-", "2,3", "2,3,4"]
    assert texts(4, 2) == ["-", "2", "2,3", "2,3,4", "2,4"]
    assert texts(5, 0) == ["-", "2,3", "2,3,4", "2,3,4,5", "2,3,5"]
    with pytest.raises(BoundExceeded):
        enumerate_valid_q(25, 0)


def test_all_qsets_lexicographic():
    subsets = [q.elements for q in all_qsets(3)]
    assert subsets == [(), (2,), (2, 3), (3,)]


def test_superset_of_prefix_always_accepted():
    # any q containing {2, ..., floor(n/2)+1} is accepted; in char 0 with
    # nonempty q, acceptance requires that prefix
    for n in range(2, 13):
        half = n // 2 + 1
        prefix = set(range(2, half + 1))
        for char in (0, 2, 3):
            for q in all_qsets(n) if n <= 8 else [qs(sorted(prefix), n),
                                                  qs(range(2, n + 1), n)]:
                accepted = check_criterion(n, char, q).accepted
                if prefix <= set(q.elements):
                    assert accepted
                if char == 0 and accepted and len(q):
                    assert prefix <= set(q.elements)
                if accepted and len(q):
                    assert 2 in q


def test_halving_closure_of_accepted_sets():
    for n in range(2, 9):
        for char in (0, 2, 3):
            for q in enumerate_valid_q(n, char):
                admitted = set(q.elements) | {1}
                for m in q:
                    for k in range(1, m + 1):
                        assert m // k in admitted
                        assert -(-m // k) in admitted


def test_member_mq():
    x = jordan_matrix(Partition([3, 2]), 6, Q)
    assert member_mq(x, qs([2, 3], 6))
    assert not member_mq(x, qs([2], 6))
    assert member_mq(ExactMatrix.zeros(Q, 3), qs([], 3))
    assert not member_mq(ExactMatrix.identity(Q, 3), qs([2, 3], 3))


def test_member_mq_reduces_to_single_cells():
    # membership of a matrix equals membership of one single-cell matrix
    # per non-unit size
    x = jordan_matrix(Partition([4, 3, 2]), 9, galois(5))
    for q in (qs([2, 3, 4], 9), qs([2, 3], 9), qs([3, 4], 9)):
        singles = all(
            member_mq(jordan_matrix(Partition([s]), 9, galois(5)), q)
            for s in (4, 3, 2))
        assert member_mq(x, q) == singles


def test_member_ms():
    i2 = ExactMatrix.identity(Q, 2)
    assert member_ms(i2, "scalars")
    assert member_ms(ExactMatrix.from_ints(Q, [[1, 0], [0, -1]]),
                     "semisimple_traceless")
    j2 = ExactMatrix.jordan_cell(Q, Q.zero(), 2)
    assert not member_ms(j2, "semisimple")
    assert member_ms(ExactMatrix.zeros(Q, 2), "zero")
    assert not member_ms(i2, "zero")
    with pytest.raises(ValueError):
        member_ms(i2, "frog")


def test_member_full():
    x = ExactMatrix.from_ints(Q, [[1, 1], [0, 1]])
    assert member_full(x, "scalars", qs([2], 2))
    d = ExactMatrix.from_ints(Q, [[1, 0], [0, 2]])
    assert not member_full(d, "scalars", qs([2], 2))
    assert member_full(d, "semisimple", qs([], 2))
