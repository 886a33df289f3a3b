"""The brute-force closure oracle, its reduction to conjugacy-class
representatives, and the cross validation against criterion and witnesses."""

import ast
import hashlib
import itertools
import json
import logging
import random
import time
from pathlib import Path

import numpy as np
import pytest

from nilclose import oracle
from nilclose.criterion import QSet, all_qsets, check_criterion, member_mq
from nilclose.errors import (
    BudgetExceeded,
    Inconsistency,
    InfiniteField,
    NotNilpotent,
    OutOfRange,
)
from nilclose.field import galois, rationals
from nilclose.jordan import Partition, jordan_matrix, jordan_partition
from nilclose.matrices import ExactMatrix, centralizer_basis, rank
from nilclose.oracle import (
    admissible_partitions,
    centralizer_dimension,
    cross_validate,
    exhaustive_check,
    sampled_check,
)
from nilclose.witness import falsify, verify_witness

GF2 = galois(2)
GF3 = galois(3)
GF4 = galois(2, 2)
GF5 = galois(5)
GF7 = galois(7)
GF8 = galois(2, 3)
GF9 = galois(3, 2)

GOLDEN_N4 = json.loads(
    (Path(__file__).parent / "data" / "oracle_n4_golden.json").read_text())
GOLDEN_SAMPLED = json.loads(
    (Path(__file__).parent / "data" / "sampled_golden.json").read_text())


def qs(elements, n):
    return QSet(elements, n)


def test_admissible_partitions_order():
    got = [p.parts for p in admissible_partitions(4, qs([2, 3, 4], 4))]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1)]
    assert admissible_partitions(4, qs([], 4)) == []
    got = [p.parts for p in admissible_partitions(5, qs([2], 5))]
    assert got == [(2, 2, 1), (2, 1, 1, 1)]


def _admissible_reference(n, q):
    """The generator before 1 became an ordinary part: parts in q, then
    the remainder as trailing 1-cells at each node with a part >= 2."""
    allowed = sorted(q.elements, reverse=True)
    out = []

    def recurse(remaining, max_part, acc):
        if remaining == 0:
            if any(p > 1 for p in acc):
                out.append(Partition(acc))
            return
        for part in allowed:
            if part <= max_part and part <= remaining:
                recurse(remaining - part, part, acc + [part])
        if acc and any(p > 1 for p in acc):
            out.append(Partition(acc + [1] * remaining))

    recurse(n, n, [])
    return out


def test_admissible_partitions_match_reference():
    """Same partitions in the same order as the trailing-1-cell generator,
    for every q at n <= 12."""
    for n in range(13):
        for q in all_qsets(n):
            assert admissible_partitions(n, q) == \
                _admissible_reference(n, q), (n, str(q))


def test_centralizer_dimension_closed_form():
    assert centralizer_dimension(Partition([3])) == 3
    assert centralizer_dimension(Partition([2, 1])) == 5
    assert centralizer_dimension(Partition([2, 1, 1])) == 10


def test_exhaustive_examples():
    assert exhaustive_check(4, GF2, qs([2], 4)).passed
    report = exhaustive_check(4, GF3, qs([2], 4))
    assert not report.passed
    w = report.violation
    assert w.combo_partition == Partition([3, 1])
    assert w.violating_size == 3
    verify_witness(w, qs([2], 4))
    report = exhaustive_check(4, GF3, qs([], 4))
    assert report.passed and report.matrices_enumerated == 0


def test_exhaustive_errors():
    with pytest.raises(InfiniteField):
        exhaustive_check(4, rationals(), qs([2], 4))
    with pytest.raises(BudgetExceeded) as exc:
        exhaustive_check(4, GF3, qs([2], 4), budget=10)
    assert exc.value.partition == Partition([2, 2])
    assert exc.value.required == 3 ** 8


def test_budget_refused_before_listing_every_partition():
    """The budget is checked as the partitions are generated: q = {2..80}
    has millions of admissible partitions at n = 80, and the first, [80],
    is refused at once with the message a full listing would give."""
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        exhaustive_check(80, GF2, qs(range(2, 81), 80))
    assert time.perf_counter() - start < 1
    assert exc.value.partition == Partition([80])
    assert str(exc.value) == (f"partition {Partition([80])} needs {2 ** 80} "
                              f"span elements (budget 5000000)")


def test_exhaustive_determinism():
    a = exhaustive_check(4, GF3, qs([2], 4)).to_json()
    b = exhaustive_check(4, GF3, qs([2], 4)).to_json()
    assert a == b


def test_closure_cache_reports_hits():
    """A repeated scan reuses every closure table it built."""
    exhaustive_check(4, GF3, qs([2], 4))
    hits = oracle._closure_table.cache_info().hits
    exhaustive_check(4, GF3, qs([2], 4))
    assert oracle._closure_table.cache_info().hits > hits


@pytest.mark.parametrize("spec", [GF3, GF4], ids=str)
def test_exhaustive_golden_n4(spec):
    """Reports, with their counts and witnesses, as the lookup-table
    engine printed them for every q at n = 4."""
    golden = GOLDEN_N4[str(spec)]
    for q in all_qsets(4):
        assert exhaustive_check(4, spec, q).to_json() == golden[str(q)], str(q)


def _random_element(spec, rng):
    return spec.element_from_index(rng.randrange(spec.order))


def _random_matrix(spec, n, rng):
    """Random matrix of random rank: the product of a factor supported on
    the first r columns and one supported on the first r rows."""
    r = rng.randrange(n + 1)
    zero = spec.zero()
    u = ExactMatrix(spec, [[_random_element(spec, rng) if j < r else zero
                            for j in range(n)] for _ in range(n)])
    v = ExactMatrix(spec, [[_random_element(spec, rng) if i < r else zero
                            for _ in range(n)] for i in range(n)])
    return u * v


def _random_nilpotent(spec, n, rng):
    """Strictly upper triangular with sparse random entries, conjugated by
    a few elementary matrices I + c*E_ij."""
    zero = spec.zero()
    x = ExactMatrix(spec, [[_random_element(spec, rng)
                            if j > i and rng.random() < 0.5 else zero
                            for j in range(n)] for i in range(n)])
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = _random_element(spec, rng)
        e = [[spec.one() if a == b else zero for b in range(n)]
             for a in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c
        x = ExactMatrix(spec, e) * x * ExactMatrix(spec, e_inv)
    return x


def _partitions(n, largest=None):
    """Every partition of n with parts at most `largest`, as descending
    lists."""
    if n == 0:
        return [[]]
    largest = n if largest is None else largest
    return [[first] + rest for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, first)]


def _raw_nilpotent_indices(spec, n, basis):
    """Odometer indices of the nilpotent elements of the span of `basis`,
    by scanning every coordinate vector and powering its matrix."""
    p, k, q = spec.char, spec.degree, spec.order
    size = n * k
    blocks = oracle._regular_blocks(spec)
    # the regular matrix of c * B_i for every basis element and scalar c;
    # int16 holds every sum and product below for p <= 5, size <= 12
    terms = np.stack([
        np.stack([oracle._regular(b.scale(spec.element_from_index(c)),
                                  blocks, np.int16).reshape(-1)
                  for c in range(q)])
        for b in basis])
    found = []
    for start in range(0, q ** len(basis), 1 << 15):
        index = np.arange(start, min(start + (1 << 15), q ** len(basis)))
        y = np.zeros((len(index), size * size), dtype=np.int16)
        rest = index.copy()
        for i in reversed(range(len(basis))):
            y += terms[i, rest % q]
            rest //= q
        power, exponent = y.reshape(-1, size, size) % p, 1
        while exponent < n:
            power, exponent = power @ power % p, 2 * exponent
        found.append(index[~power.any(axis=(1, 2))])
    return np.concatenate(found)


def _raw_scan_cases():
    cases = [(spec, n, part) for spec in (GF2, GF3, GF4, GF5, GF8)
             for n in (2, 3, 4) for part in _partitions(n)
             if part[0] >= 2 and spec.order ** centralizer_dimension(
                 Partition(part)) <= 2 ** 20]
    cases += [(GF2, 5, part) for part in _partitions(5) if part[0] >= 2]
    return cases


@pytest.mark.parametrize(
    "spec, n, part", _raw_scan_cases(),
    ids=lambda v: str(v) if not isinstance(v, list) else
    "[" + ",".join(map(str, v)) + "]")
def test_closure_table_matches_raw_scan(spec, n, part):
    """The nilpotent centralizer elements listed from the radical split
    are exactly those a scan of the whole span finds by powering, and
    there are q^(d - l) of them, l the number of cells."""
    table = oracle._closure_table(spec, n, Partition(part))
    d = len(table.basis)
    raw = _raw_nilpotent_indices(spec, n, table.basis)
    assert table.span_size == spec.order ** d
    assert np.array_equal(table.y_index, raw)
    assert len(raw) == spec.order ** (d - len(part))


@pytest.mark.parametrize("spec", [GF3, GF4], ids=str)
def test_induced_maps_refuse_a_basis_off_the_coordinates(spec):
    """The induced maps are read off the entries of the centralizer basis
    at the cell starts of the Jordan matrix.  The same span with an entry
    on two coordinates, and an element with a nonzero entry in a
    cell-start column at a row that is no cell start (it leaves ker X),
    are refused."""
    x = jordan_matrix(Partition([2, 2]), 4, spec)
    basis = centralizer_basis(x)
    sizes, coords = oracle._induced_maps(x, basis)
    assert sizes == [2] and len(set(coords)) == 4 and 0 not in coords
    mixed = [basis[0] + basis[coords[0]], *basis[1:]]
    with pytest.raises(Inconsistency, match="not a distinct span coordinate"):
        oracle._induced_maps(x, mixed)
    stray = ExactMatrix.from_ints(spec, [[0, 0, 0, 0], [0, 0, 1, 0],
                                         [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(Inconsistency, match="leaves ker X"):
        oracle._induced_maps(x, [*basis[:-1], stray])


@pytest.mark.parametrize("spec", [GF4, GF5, GF8, GF9], ids=str)
def test_scale_mapping_matches_exact_partitions(spec):
    """For seeded records of every table at n <= 4 that fits the default
    budget, the partitions a table stores for Y and X + c*Y, every c,
    through its representative and c*lam, are the exact ones.  A record
    the table does not own has no combination partitions, and its Y has
    a type above that of X, whose own table checks the pair."""
    rng = random.Random(spec.order)
    for n in (2, 3, 4):
        for part in _partitions(n):
            p = Partition(part)
            if part[0] < 2 or \
                    spec.order ** centralizer_dimension(p) > 5_000_000:
                continue
            table = oracle._closure_table(spec, n, p)
            records = rng.sample(range(len(table.y_index)),
                                 min(200, len(table.y_index)))
            for record in records:
                y = oracle._rebuild_span_element(
                    table, int(table.y_index[record]), spec)
                stored = table.y_partition[table.rep[record]]
                assert jordan_partition(y).parts == table.partitions[stored]
                if not table.owned[table.rep[record]]:
                    assert (table.combo_ids(record) == -1).all()
                    assert table.partitions[stored] > p.parts
                    continue
                combo_ids = table.combo_ids(record)
                for c in range(1, spec.order):
                    combo = table.x + y.scale(spec.element_from_index(c))
                    assert jordan_partition(combo).parts == \
                        table.partitions[combo_ids[c - 1]], (part, record, c)


@pytest.mark.parametrize("spec", [GF2, GF4, GF7, GF9, galois(251)], ids=str)
def test_batch_kernels_match_exact_rank_and_partition(spec):
    """The regular-representation kernels against the exact routines; the
    extension fields check the representation, GF(251) the dtype and
    GF(7) at n = 3 an int8 bound (115) close to the type's limit."""
    rng = random.Random(spec.order)
    p, k = spec.char, spec.degree
    blocks = oracle._regular_blocks(spec)
    for n in (3, 5):
        dtype = oracle._dtype(p, n * k)
        general = [_random_matrix(spec, n, rng) for _ in range(40)]
        nilpotent = [_random_nilpotent(spec, n, rng) for _ in range(40)]
        stack = np.stack([oracle._regular(x, blocks, dtype)
                          for x in general + nilpotent])
        ranks = oracle._batch_rank(stack, p)
        assert (ranks % k == 0).all()
        assert [int(r) // k for r in ranks] == \
            [rank(x) for x in general + nilpotent]
        ids, parts = oracle._batch_partitions(stack[len(general):], n, k, p)
        assert [parts[i] for i in ids] == \
            [jordan_partition(x).parts for x in nilpotent]
    # a non-nilpotent matrix is refused: the identity, and two whose rank
    # drops are those of a nilpotent matrix until they stop, J_(n-1)(0) +
    # (1), which drops by 1 at once, and J_3(0) + J_1(0) + (1), whose
    # ranks are 3, 2, 1, 1, 1
    refused = [ExactMatrix.identity(spec, 2)] + [
        _cells_plus_one(spec, sizes) for sizes in ([2], [4], [3, 1])]
    for x in refused:
        with pytest.raises(NotNilpotent):
            oracle._batch_partitions(
                oracle._regular(x, blocks, oracle._dtype(p, x.n * k))[None],
                x.n, k, p)


def _cells_plus_one(spec, sizes):
    """The nilpotent cells J_s(0), s in sizes, followed by the cell (1)."""
    n = sum(sizes) + 1
    ints = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size - 1):
            ints[i][i + 1] = 1
        start += size
    ints[-1][-1] = 1
    return ExactMatrix.from_ints(spec, ints)


def _reference_defect_codes(mats, n, k, p):
    """The defect codes by ranking every nonzero power, the loop
    ``oracle._defect_codes`` ran before it bounded the rank drops."""
    codes = np.full(len(mats), 1 << n, dtype=np.int64)
    live = np.arange(len(mats))         # rows whose power is still nonzero
    power = mats
    for exponent in range(1, n + 1):
        nonzero = power.any(axis=(1, 2))
        live, power = live[nonzero], power[nonzero]
        if live.size == 0:
            break
        if exponent == n:
            raise NotNilpotent("batch contains a non-nilpotent matrix")
        codes[live] |= np.left_shift(1, n - oracle._batch_rank(power, p) // k)
        power = np.matmul(power, mats[live]) % p
    return codes


def _nilpotent_regular_batch(spec, n, count, rng):
    """Regular matrices of `count` random nilpotent n x n matrices over
    spec: strictly upper triangular, each with its own density of nonzero
    entries from 0 to 1, conjugated by 2n elementary matrices I + c*E_ij."""
    p, k, q = spec.char, spec.degree, spec.order
    blocks = oracle._regular_blocks(spec)
    density = rng.random((count, 1, 1))
    idx = rng.integers(1, q, (count, n, n)) \
        * (rng.random((count, n, n)) < density)
    x = oracle._lift(np.triu(idx, 1), blocks)
    eye = np.eye(n * k, dtype=np.int64)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.choice(n, 2, replace=False)
        # (I + N)^-1 = I - N, since N = c*E_ij squares to zero
        e_ij = np.zeros((count, n * k, n * k), dtype=np.int64)
        e_ij[:, i * k:(i + 1) * k, j * k:(j + 1) * k] = \
            blocks[rng.integers(0, q, count)]
        x = (eye + e_ij) @ x % p @ (eye - e_ij) % p
    return x.astype(oracle._dtype(p, n * k))


@pytest.mark.parametrize("spec, sizes", [
    (GF2, range(1, 9)), (GF3, range(1, 9)), (GF5, range(1, 9)),
    (GF7, range(1, 9)), (GF4, range(1, 5)), (GF8, range(1, 5))],
    ids=lambda v: str(v) if not isinstance(v, range) else
    f"n<={v[-1]}")
def test_defect_codes_match_full_rank_chain(spec, sizes):
    """Codes from the bounded rank drops equal those from ranking every
    power, code for code, on seeded batches in which every Jordan type
    appears, at every size the oracle's grids reach (GF(2) n <= 6, GF(3)
    n <= 5, GF(4) n <= 4, GF(5) n = 4, GF(7) n = 3, GF(8) n = 4) and
    beyond over the prime fields."""
    rng = np.random.default_rng(spec.order)
    p, k = spec.char, spec.degree
    for n in sizes:
        mats = _nilpotent_regular_batch(spec, n, 1500, rng)
        codes = oracle._defect_codes(mats, n, k, p)
        assert np.array_equal(codes, _reference_defect_codes(mats, n, k, p)), n
        assert len(np.unique(codes)) == len(_partitions(n)), n


def test_defect_codes_match_full_rank_chain_on_oracle_sweep(monkeypatch):
    """The same on every batch that the tables of the exhaustive check at
    n = 4 over GF(5) partition."""
    batches = []

    def checked(mats, n, k, p):
        codes = bounded(mats, n, k, p)
        assert np.array_equal(codes, _reference_defect_codes(mats, n, k, p))
        batches.append(len(mats))
        return codes

    bounded = oracle._defect_codes
    monkeypatch.setattr(oracle, "_defect_codes", checked)
    for part in admissible_partitions(4, qs([2, 3, 4], 4)):
        oracle._closure_table.__wrapped__(GF5, 4, part)
    # per table, the representatives, then X + c*R for c = 1..4 and the
    # representatives R the table owns
    assert batches == [32, 128, 157, 628, 3907, 1228, 19532, 848]


def _all_nilpotent_3x3_gf2():
    out = []
    for bits in range(2 ** 9):
        ints = [[(bits >> (3 * i + j)) & 1 for j in range(3)]
                for i in range(3)]
        x = ExactMatrix.from_ints(GF2, ints)
        if x.power(3).is_zero:
            out.append(x)
    return out


def test_reduction_matches_unreduced_enumeration():
    """One Jordan representative per class must give the same verdict as
    scanning every nilpotent matrix, for every q at n = 3 over GF(2)."""
    nilpotents = _all_nilpotent_3x3_gf2()
    elements = [GF2.element_from_index(i) for i in range(2)]
    for q in all_qsets(3):
        members = [x for x in nilpotents if member_mq(x, q)]
        unreduced_pass = True
        for x, y in itertools.product(members, members):
            if not x.commutator(y).is_zero:
                continue
            for a in elements:
                for b in elements:
                    combo = x.scale(a) + y.scale(b)
                    try:
                        ok = all(s in q for s in
                                 jordan_partition(combo).nonunit_sizes)
                    except NotNilpotent:
                        ok = False
                    if not ok:
                        unreduced_pass = False
        reduced = exhaustive_check(3, GF2, q)
        assert reduced.passed == unreduced_pass, str(q)


# every q at these (field, n), with the budget of the check
_OWNERSHIP_CASES = [
    *[(GF2, n, 5_000_000) for n in range(1, 6)],
    *[(GF3, n, 5_000_000) for n in range(1, 6)],
    *[(spec, n, 5_000_000) for spec in (GF4, GF5, GF8, GF9)
      for n in range(1, 5)],
    (GF2, 6, 1 << 20),      # has [4,1,1] above [3,3]
]


def _reports(spec, n, budget):
    out = []
    for q in all_qsets(n):
        try:
            out.append(exhaustive_check(n, spec, q, budget=budget).to_json())
        except BudgetExceeded as exc:
            out.append(str(exc))
    return out


@pytest.fixture
def full_tables(monkeypatch):
    """Closure tables that partition X + c*Y for every Y, the tables from
    before each pair of types was checked in one of them."""
    oracle._closure_table.cache_clear()
    monkeypatch.setattr(oracle, "_owns", lambda p, t: True)
    yield
    oracle._closure_table.cache_clear()


def test_owned_pairs_give_the_reports_of_full_tables(request):
    """The reports, counts and witnesses of tables that check each pair
    of types once equal those of full tables, for every q."""
    oracle._closure_table.cache_clear()
    reduced = [_reports(*case) for case in _OWNERSHIP_CASES]
    request.getfixturevalue("full_tables")
    for case, expected in zip(_OWNERSHIP_CASES, reduced):
        assert _reports(*case) == expected, case


def test_full_tables_are_symmetric_in_the_pair_of_types(full_tables):
    """A commuting pair (X, Y) is conjugate to one with Y a Jordan matrix,
    so for admitted types p and t some kept Y of type t has a hit in the
    table of p exactly when some kept Y of type p has one in the table of
    t.  This is what lets a single table check each pair of types."""
    for spec, n, budget in _OWNERSHIP_CASES:
        types = [p for p in admissible_partitions(n, qs(range(2, n + 1), n))
                 if spec.order ** centralizer_dimension(p) <= budget]
        tables = {p.parts: oracle._closure_table(spec, n, p) for p in types}
        for q in all_qsets(n):
            admitted = [t for t in tables
                        if all(s in q.elements for s in t if s > 1)]
            hits = {}
            for p in admitted:
                table = tables[p]
                ok = np.array([all(s in q.elements for s in part if s > 1)
                               for part in table.partitions])
                hit = ~ok[table.combo_partitions].all(axis=1)
                y_types = [table.partitions[i] for i in table.y_partition]
                hits[p] = {y_types[r] for r in np.flatnonzero(hit)}
            for p, t in itertools.product(admitted, repeat=2):
                assert (t in hits[p]) == (p in hits[t]), \
                    (str(spec), str(q), p, t)


def test_admissible_partitions_descend_strictly():
    """The exhaustive check relies on this order to check each pair of
    types once."""
    for n in range(11):
        for q in all_qsets(n):
            parts = [p.parts for p in admissible_partitions(n, q)]
            assert all(a > b for a, b in zip(parts, parts[1:])), (n, str(q))


def test_sampled_examples():
    report = sampled_check(8, galois(5), qs([2, 3, 4, 5], 8), 40, seed=0)
    assert report.passed
    report = sampled_check(6, GF7, qs([2, 3, 5], 6), 10, seed=0)
    assert not report.passed
    assert report.violation.violating_size == 4
    verify_witness(report.violation, qs([2, 3, 5], 6))
    assert sampled_check(2, GF3, qs([2], 2), 60, seed=3).passed


def test_sampled_refuses_non_nilpotent_combination(monkeypatch):
    """E12 and E21 are nilpotent but do not commute: E12 + E21 squares to
    the identity, which must surface as an inconsistency, not a pass."""
    e12 = ExactMatrix.from_ints(GF3, [[0, 1], [0, 0]])
    e21 = ExactMatrix.from_ints(GF3, [[0, 0], [1, 0]])
    monkeypatch.setattr(oracle, "construction_pairs",
                        lambda n, spec, q: [(e12, e21)])
    with pytest.raises(Inconsistency):
        sampled_check(2, GF3, qs([2], 2), 0, seed=0)


@pytest.mark.parametrize("spec", [GF2, GF3, GF4, GF5, GF7, rationals()],
                         ids=str)
def test_sampled_golden(spec):
    """Sampled reports, catalog pairs and random draws alike, pinned byte
    for byte for every q at n = 2..5.

    Each digest is the SHA-256 of the UTF-8 text ``json.dumps(
    sampled_check(n, spec, q, 10, seed=n).to_json(), sort_keys=True)``,
    keyed by ``str(spec)``, ``str(n)`` and ``str(q)``.  The digests were
    captured by evaluating that expression on the commit before the
    catalog of neighbor and gap pairs moved from the oracle into the
    witness module, with no source file changed.  96 of the 180 reports
    are violations.
    """
    golden = GOLDEN_SAMPLED[str(spec)]
    for n in range(2, 6):
        for q in all_qsets(n):
            text = json.dumps(sampled_check(n, spec, q, 10, seed=n).to_json(),
                              sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == \
                golden[str(n)][str(q)], (n, str(q))


def test_oracle_imports_only_public_witness_names():
    """The oracle checks the structure theory, so it may use the witness
    module only through the report type, the verifier, the falsifier and
    the public construction catalog, and no private name of the modules
    it checks or of ``matrices``: it reads the induced maps off the Jordan
    matrix's coordinates, with no row reduction of its own."""
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("nilclose."), alias.name
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("nilclose")):
            module = (node.module or "").removeprefix("nilclose")
            module = module.removeprefix(".")
            for alias in node.names:
                if module:
                    imported.setdefault(module, set()).add(alias.name)
                else:                   # from . import witness
                    imported.setdefault(alias.name, set()).add("*")
    assert imported["witness"] <= {
        "Witness", "verify_witness", "falsify", "construction_pairs"}
    for module in ("witness", "criterion", "jordan", "matrices"):
        private = {name for name in imported.get(module, ())
                   if name.startswith("_")}
        assert not private, (module, private)


def test_cross_validate_refuses_char_zero(monkeypatch):
    """The oracle needs GF(char^d); char 0 is refused before any criterion
    or witness work, whatever the degrees."""
    def fail(*args):
        raise AssertionError("work started before the field was checked")
    monkeypatch.setattr(oracle, "check_criterion", fail)
    monkeypatch.setattr(oracle, "falsify", fail)
    for degrees in ([1], [2]):
        with pytest.raises(InfiniteField) as exc:
            cross_validate(3, 0, degrees)
        assert "GF(char^d)" in str(exc.value)


def test_cross_validate_refuses_a_degree_past_the_modulus_limit(
        monkeypatch):
    """A degree d with char^d above 2^32, where ``parse_field`` searches no
    default modulus, is refused before any field is built or any q-set is
    checked; 2^32 itself is allowed."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the degrees were checked")
    for name in ("galois", "check_criterion", "falsify"):
        monkeypatch.setattr(oracle, name, fail)
    for degrees, field in (([1, 33], "GF(2^33)"),
                           ([10 ** 9], "GF(2^1000000000)")):
        with pytest.raises(OutOfRange) as exc:
            cross_validate(2, 2, degrees)
        assert str(exc.value).startswith(field) and "2^32" in str(exc.value)
    assert cross_validate(2, 2, [32], q_range=[]).degrees == (32,)


def test_random_poly_retries_without_recursion():
    """Leading draws that vanish mod 2 are retried in a loop, however many
    there are."""
    class EvenFirst:
        left = 5000

        def randrange(self, start, stop):
            if start == 1 and self.left:
                self.left -= 1
                return 2
            return start if start > 0 else 0

    poly = oracle._random_poly(GF2, EvenFirst(), 3, 1)
    assert poly.valuation() == 1 and poly.degree == 1


def test_sampled_determinism():
    a = sampled_check(5, GF3, qs([2, 3], 5), 30, seed=7).to_json()
    b = sampled_check(5, GF3, qs([2, 3], 5), 30, seed=7).to_json()
    assert a == b


def test_cross_validate_char2():
    report = cross_validate(4, 2, [1, 2])
    assert set(report.accepted) == {"-", "2", "2,3", "2,4", "2,3,4"}
    assert len(report.rejected) == 3
    assert report.witnesses == 3
    assert report.oracle_passes == 10
    assert not report.skipped


def test_cross_validate_char5():
    report = cross_validate(4, 5, [1], budget=20_000_000)
    assert set(report.accepted) == {"-", "2,3", "2,3,4"}
    assert report.witnesses == 5


def test_cross_validate_char3_n5():
    report = cross_validate(5, 3, [1])
    assert set(report.accepted) == {
        "-", "2,3", "2,3,4", "2,3,4,5", "2,3,5"}
    assert report.witnesses == 2 ** 4 - 5


def test_cross_check_n5_gf3_without_skips():
    """Every Q at n = 5 in characteristic 3.  An accepted Q passes the
    oracle over GF(3) with a budget that skips nothing; a rejected Q fails
    it over the field of its witness whenever that field fits the default
    budget."""
    oracle_violations = 0
    for q in all_qsets(5):
        if check_criterion(5, 3, q).accepted:
            assert exhaustive_check(5, GF3, q, budget=3 ** 17).passed, str(q)
            continue
        w = falsify(5, 3, q)
        try:
            report = exhaustive_check(5, w.field, q)
        except BudgetExceeded:
            continue
        assert not report.passed, str(q)
        oracle_violations += 1
    assert oracle_violations == 7


def test_closure_tables_log_one_debug_line_each(caplog):
    oracle._closure_table.cache_clear()
    with caplog.at_level(logging.DEBUG, logger="nilclose"):
        exhaustive_check(4, GF3, qs([2, 3], 4))
        exhaustive_check(4, GF3, qs([2, 3], 4))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "nilclose.oracle"]
    assert len(lines) == oracle._closure_table.cache_info().misses == 3
    assert lines[0].startswith("closure table [3,1] over GF(3): span 729, "
                               "records 81, representatives 41, "
                               "combos 82 of 82, listing ")
    assert "representatives 1094, combos 124 of 2188, " in lines[2]
    assert any(isinstance(h, logging.NullHandler)
               for h in logging.getLogger("nilclose").handlers)


def test_report_serialization():
    report = exhaustive_check(4, GF3, qs([2], 4))
    data = report.to_json()
    assert data["mode"] == "exhaustive"
    assert data["outcome"] == "violation"
    assert data["counts"]["pairs_tested"] == report.pairs_tested
    assert "violation" in data
