"""Counterexample constructions and the falsification decision tree."""

import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from nilclose import witness
from nilclose.criterion import QSet, all_qsets, check_criterion, is_char_power
from nilclose.errors import (
    DimensionTooSmall,
    InternalInconsistency,
    IsCharPower,
    OutOfRange,
)
from nilclose.field import (FIELD_ORDER_LIMIT, galois, geometric_sum,
                            parse_field, rationals)
from nilclose.jordan import Partition, jordan_partition
from nilclose.matrices import rank
from nilclose.witness import (
    Witness,
    build_coupled_cells,
    construction_pairs,
    falsify,
    verify_witness,
    witness_gap,
    witness_neighbor,
    witness_power,
)

Q = rationals()
GF2 = galois(2)
GF3 = galois(3)
GF4 = galois(2, 2)
GF5 = galois(5)
GF7 = galois(7)
GF9 = galois(3, 2)


def qs(elements, n):
    return QSet(elements, n)


def test_build_coupled_cells_examples():
    z = build_coupled_cells(3, GF7.one(), GF7.from_int(2), GF7)
    assert jordan_partition(z) == Partition([3, 3])    # S_3(1,2) = 0 in GF(7)
    z = build_coupled_cells(3, GF7.from_int(2), GF7.from_int(3), GF7)
    assert jordan_partition(z) == Partition([4, 2])    # S_3(2,3) = 5
    z = build_coupled_cells(2, Q.one(), -Q.one(), Q)
    assert jordan_partition(z) == Partition([2, 2])


def test_coupled_cells_stratification():
    """Partition is (m,m) exactly on the zero locus of the geometric sum,
    else (m+1, m-1); the defect is 2 throughout."""
    for spec in (GF7, GF9):
        for m in (2, 3):
            for ai in range(1, spec.order):
                for bi in range(1, spec.order):
                    a = spec.element_from_index(ai)
                    b = spec.element_from_index(bi)
                    z = build_coupled_cells(m, a, b, spec)
                    assert z.n - rank(z) == 2
                    expected = Partition([m, m]) \
                        if geometric_sum(m, a, b).is_zero \
                        else Partition([m + 1, m - 1])
                    assert jordan_partition(z) == expected


def test_witness_power():
    w = witness_power(4, 3, 4, Q, qs([4], 4))
    assert w.combo_partition == Partition([2, 1, 1])
    assert w.violating_size == 2
    verify_witness(w, qs([4], 4))
    w = witness_power(9, 2, 16, GF2, qs([2, 9], 16))
    assert w.combo_partition.nonunit_sizes == {5, 4}
    assert w.violating_size == 5
    verify_witness(w, qs([2, 9], 16))
    w = witness_power(3, 2, 3, Q, qs([3], 3))
    assert w.violating_size == 2
    verify_witness(w, qs([3], 3))
    with pytest.raises(OutOfRange):
        witness_power(3, 3, 3, Q)
    with pytest.raises(OutOfRange):
        witness_power(5, 2, 4, Q)


def test_witness_neighbor_surrogate():
    w = witness_neighbor(3, 6, 0)
    assert str(w.field) == "GF(7)"
    assert str(w.a) == "1" and str(w.b) == "1"
    assert w.combo_partition == Partition([4, 2])
    assert w.note is not None and "GF(7)" in w.note
    verify_witness(w, qs([2, 3], 6))


def test_witness_neighbor_rational():
    # even m stays in the rationals with the -1 root of unity
    w = witness_neighbor(2, 4, 0)
    assert str(w.field) == "Q"
    assert w.note is None
    assert w.combo_partition == Partition([3, 1])
    assert w.violating_size == 3
    verify_witness(w, qs([2], 4))
    verify_witness(witness_neighbor(2, 4, 0, qs([2, 4], 4)), qs([2, 4], 4))


def test_witness_neighbor_char_p():
    w = witness_neighbor(3, 6, 7)
    assert w.field == GF7
    verify_witness(w, qs([2, 3], 6))
    # GF(3) has no usable t for m = 2; the field must grow to GF(9)
    w = witness_neighbor(2, 4, 3)
    assert w.field.order == 9
    verify_witness(w, qs([2], 4))


def test_witness_neighbor_errors():
    with pytest.raises(IsCharPower):
        witness_neighbor(4, 8, 2)
    with pytest.raises(DimensionTooSmall):
        witness_neighbor(3, 5, 0)
    with pytest.raises(OutOfRange):
        witness_neighbor(1, 4, 0)


@pytest.mark.parametrize("m, char", [(2, 0), (3, 0), (3, 2)],
                         ids=["Q", "GF(7)", "GF(4)->GF(16)"])
def test_witness_neighbor_t_search_is_bounded(monkeypatch, m, char):
    """With every geometric sum zero, the search gives up after m + 2
    elements of a large enough field: over Q, over the surrogate GF(7),
    and over GF(16) after GF(4) proves too small."""
    monkeypatch.setattr(witness, "geometric_sum",
                        lambda k, a, b: a.spec.zero())
    with pytest.raises(InternalInconsistency):
        witness_neighbor(m, 2 * m, char)


def test_witness_gap():
    w = witness_gap(1, 5, 7, GF2, qs([2, 5], 7))
    assert jordan_partition(w.x) == Partition([5, 1, 1])
    assert jordan_partition(w.y) == Partition([5, 1, 1])
    assert w.combo_partition == Partition([3, 1, 1, 1, 1])
    assert w.violating_size == 3
    verify_witness(w, qs([2, 5], 7))
    w = witness_gap(2, 6, 8, GF3, qs([2, 3, 6], 8))
    assert w.violating_size == 4
    verify_witness(w, qs([2, 3, 6], 8))
    with pytest.raises(OutOfRange):
        witness_gap(1, 3, 7, GF2)
    with pytest.raises(OutOfRange):
        witness_gap(2, 6, 7, GF3)


def test_falsify_examples():
    w = falsify(4, 0, qs([2, 4], 4))
    assert w.construction == "neighbor" and w.violating_size == 3
    w = falsify(7, 2, qs([2, 5], 7))
    assert w.construction == "gap" and w.violating_size == 3
    w = falsify(4, 0, qs([4], 4))
    assert w.construction == "power" and w.violating_size == 2
    assert falsify(4, 0, qs([2, 3], 4)) is None


def test_falsify_completeness_small():
    for n in range(2, 8):
        for char in (0, 2, 3, 5):
            for q in all_qsets(n):
                w = falsify(n, char, q)
                accepted = check_criterion(n, char, q).accepted
                assert (w is None) == accepted
                if w is not None:
                    verify_witness(w, q)


def test_construction_pairs_hold_the_witness_pairs():
    """The catalog of the sampled oracle and the witnesses share their
    builders: every neighbor and gap witness at n <= 7 is one of the
    catalog's pairs over its own field."""
    seen = set()
    for n in range(2, 8):
        for char in (0, 2, 3, 5):
            for q in all_qsets(n):
                w = falsify(n, char, q)
                if w is not None and w.construction != "power":
                    seen.add(w.construction)
                    assert (w.x, w.y) in construction_pairs(n, w.field, q)
    assert seen == {"neighbor", "gap"}
    pairs = construction_pairs(6, GF7, qs([2, 3, 5], 6))
    # neighbor: root -1 for m = 2, two cube roots for m = 3; gap: (1, 5)
    assert len(pairs) == 1 + 2 + 1
    for x, y in pairs:
        assert x.commutator(y).is_zero


def test_verify_witness_rejects_tampering():
    good = falsify(4, 0, qs([2, 4], 4))
    bad = Witness(good.construction, good.field, good.x, good.y,
                  good.a, good.b, good.combo_partition,
                  violating_size=2)
    with pytest.raises(InternalInconsistency):
        verify_witness(bad, qs([2, 4], 4))
    swapped = Witness(good.construction, good.field, good.x, good.x,
                      good.a, good.b, good.combo_partition,
                      good.violating_size)
    with pytest.raises(InternalInconsistency):
        verify_witness(swapped, qs([2, 4], 4))


def _all_constructions(max_n):
    """Every power and gap witness over Q, GF(2), GF(3), GF(5) and GF(4),
    and every neighbor witness in chars 0, 2, 3, 5 and 7, with n <= max_n."""
    for n in range(2, max_n + 1):
        for spec in (Q, GF2, GF3, GF5, GF4):
            for m in range(3, n + 1):
                for k in range(2, m):
                    yield witness_power(m, k, n, spec)
            for m in range(1, n):
                for m1 in range(m + 3, n - m + 1):
                    yield witness_gap(m, m1, n, spec)
        for char in (0, 2, 3, 5, 7):
            for m in range(2, n // 2 + 1):
                if char == 0 or not is_char_power(m, char):
                    yield witness_neighbor(m, n, char)


def test_recorded_partitions_match_direct_computation():
    """The Jordan types the constructions record from the paper's closed
    forms equal a direct computation for every parameter with n <= 10."""
    seen = set()
    for w in _all_constructions(10):
        seen.add(w.construction)
        assert w.combo_partition == jordan_partition(w.combination()), w
    assert seen == {"power", "neighbor", "gap"}


@pytest.mark.parametrize("n, char, q", [
    (4, 0, [4]), (4, 0, [2, 4]), (7, 2, [2, 5])],
    ids=["power", "neighbor", "gap"])
def test_verify_witness_checks_the_recorded_partition(n, char, q):
    """Changing one part of a recorded type is caught by the direct
    computation in verify_witness."""
    good = falsify(n, char, qs(q, n))
    parts = list(good.combo_partition.parts)
    parts[0] += 1
    bad = dataclasses.replace(good, combo_partition=Partition(parts))
    with pytest.raises(InternalInconsistency, match="combination partition"):
        verify_witness(bad, qs(q, n))


def _count_jordan_partition(monkeypatch):
    """Route every nilclose binding of jordan_partition through a counter;
    return the list that collects one entry per call."""
    calls = []
    original = jordan_partition

    def counted(x):
        calls.append(x.n)
        return original(x)

    for name, module in list(sys.modules.items()):
        if (name.startswith("nilclose.")
                and getattr(module, "jordan_partition", None) is original):
            monkeypatch.setattr(module, "jordan_partition", counted)
    return calls


def test_jordan_partition_calls(monkeypatch):
    """The constructions compute no Jordan type; falsify computes three
    (x, y and the combination) the first time it meets a construction, and
    none when it meets the same construction again."""
    calls = _count_jordan_partition(monkeypatch)
    assert sum(1 for _ in _all_constructions(8)) > 0
    assert calls == []
    witness._core.cache_clear()
    seen = set()
    rejected = 0
    for n in range(2, 9):
        for char in (0, 2, 3):
            for q in all_qsets(n):
                before = len(calls)
                w = falsify(n, char, q)
                expected = 0
                if w is not None:
                    rejected += 1
                    key = (witness._plan(n, char, q), n, char)
                    expected = 0 if key in seen else 3
                    seen.add(key)
                assert len(calls) - before == expected, (n, char, str(q))
    assert 0 < len(seen) < rejected


def test_cached_witnesses_equal_cold_ones():
    """Every rejected q at n <= 8 in chars 0, 2, 3 and 5 gets the same
    witness from an empty cache as from a warm one, and that witness
    passes the full re-verification."""
    items = [(n, char, q) for n in range(2, 9) for char in (0, 2, 3, 5)
             for q in all_qsets(n)]
    cold = []
    for item in items:
        witness._core.cache_clear()
        cold.append(falsify(*item))
    for item in items:
        falsify(*item)
    hits = witness._core.cache_info().hits
    warm = [falsify(*item) for item in items]
    rejected = sum(w is not None for w in warm)
    assert witness._core.cache_info().hits - hits == rejected > 0
    for (n, char, q), c, w in zip(items, cold, warm):
        assert (c is None) == (w is None)
        if w is not None:
            assert c.to_json() == w.to_json(), (n, char, str(q))
            verify_witness(w, q)


def test_cache_hit_still_checks_q(monkeypatch):
    """A cached construction is re-checked against each new q: sizes of x
    and y outside q, and a violating size that q admits, still raise."""
    witness._core.cache_clear()
    first = falsify(4, 0, qs([4], 4))           # power witness, m=4, k=3
    plan = (witness.witness_power, (4, 3, 4, rationals()))
    assert witness._plan(4, 0, qs([4], 4)) == plan
    assert falsify(4, 0, qs([4], 4)).x is first.x
    monkeypatch.setattr(witness, "_plan", lambda n, char, q: plan)
    hits = witness._core.cache_info().hits
    with pytest.raises(InternalInconsistency, match="witness x is not in"):
        falsify(4, 0, qs([2], 4))
    with pytest.raises(InternalInconsistency,
                       match="violating size 2 is admitted"):
        falsify(4, 0, qs([2, 4], 4))
    assert witness._core.cache_info().hits == hits + 2


def test_witness_serialization():
    w = falsify(6, 0, qs([2, 3, 5], 6))
    data = w.to_json()
    assert data["construction"] == "neighbor"
    assert data["field"] == "GF(7)"
    assert data["combo_partition"] == [4, 2]
    assert data["violating_size"] == 4
    assert "note" in data
    assert data["x"]["n"] == 6 and data["y"]["n"] == 6


GOLDEN_N26 = json.loads(
    (Path(__file__).parent / "data" / "witness_n26_golden.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN_N26,
    ids=lambda c: f"char{c['char']}-{c['construction']}-{c['field']}")
def test_witness_golden_n26(case):
    """Witness JSON at n = 26 is byte-identical to the dense kernels'.

    Each digest is the SHA-256 of the UTF-8 text
    ``json.dumps(falsify(26, char, QSet(q, 26)).to_json(), indent=2,
    sort_keys=True)``, which is what ``nilclose witness --json`` prints
    before its final newline.  The digests were captured by evaluating
    that expression on the commit before products and elimination began
    to skip zero entries, with no source file changed, so they pin the
    output of the dense triple-loop product and full-row elimination.
    """
    w = falsify(26, case["char"], qs(case["q"], 26))
    assert w.construction == case["construction"]
    assert str(w.field) == case["field"]
    text = json.dumps(w.to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == case["sha256"]


def test_witness_determinism():
    a = falsify(6, 0, qs([2, 3, 5], 6))
    b = falsify(6, 0, qs([2, 3, 5], 6))
    assert a.to_json() == b.to_json()


def test_witness_fields_parse_back_below_the_order_limit():
    """The field of every witness for q = {2..m}, m <= 20, at n = 40 in
    characteristics 2 to 13 and 101 prints as a text that parses back to
    the same field, of order below FIELD_ORDER_LIMIT."""
    fields = set()
    for char in (2, 3, 5, 7, 11, 13, 101):
        for m in range(3, 21):
            w = falsify(40, char, QSet.parse(
                ",".join(map(str, range(2, m + 1))), 40))
            if w is not None:
                fields.add(w.field)
    assert any(f.degree > 10 for f in fields)
    for spec in fields:
        assert parse_field(str(spec)) == spec
        assert spec.order <= FIELD_ORDER_LIMIT


def test_witness_over_a_large_prime_finds_its_roots_outside_gf_p():
    """q = {2..13} at n = 26 in characteristic 1000003 is falsified over
    GF(1000003^6).  The order of an element of GF(p) divides p - 1, so
    the root search tries the other elements first and the verified
    witness comes in well under 5 s, not after a scan of GF(p)."""
    q = QSet.parse(",".join(map(str, range(2, 14))), 26)
    start = time.perf_counter()
    w = falsify(26, 1000003, q)
    assert time.perf_counter() - start < 5
    assert str(w.field) == "GF(1000003^6;4+x^6)"
    verify_witness(w, q)
