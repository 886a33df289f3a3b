"""Brute-force verification of closure under spans of commuting pairs.

The exhaustive oracle enumerates, for each admissible Jordan type X (one
representative per conjugacy class), every element Y of the span of the
centralizer of X, keeps the nilpotent ones whose cell sizes are admitted,
and checks every combination a*X + b*Y.  Nilpotency of the candidates is
recomputed by raw matrix powering so the oracle does not depend on the
structure theory it is meant to check.

The inner loop runs on numpy integer arrays with native arithmetic mod p;
a matrix over GF(p^k) enters as its regular representation over GF(p).
Results are cached per (field, dimension, Jordan type) so scans over many
q-sets reuse the enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .criterion import QSet, all_qsets, check_criterion, member_mq
from .errors import (
    BudgetExceeded,
    Inconsistency,
    InfiniteField,
    InvalidQ,
    NotNilpotent,
    OutOfRange,
)
from .field import FieldSpec, Poly, galois, roots_of_unity
from .jordan import (
    Partition,
    jordan_matrix,
    jordan_partition,
    partition_from_defects,
)
from .matrices import ExactMatrix, centralizer_basis, poly_eval
from .witness import (
    Witness,
    build_coupled_cells,
    _gap_quotient_ops,
    falsify,
    verify_witness,
)


# ---------------------------------------------------------------------------
# admissible Jordan types and the budget estimate
# ---------------------------------------------------------------------------

def admissible_partitions(n: int, q: QSet) -> list[Partition]:
    """Partitions of n with parts in q plus 1-cells and at least one part
    >= 2, in descending lexicographic order."""
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
        # trailing 1-cells
        if acc and any(p > 1 for p in acc):
            out.append(Partition(acc + [1] * remaining))

    recurse(n, n, [])
    return out


def centralizer_dimension(p: Partition) -> int:
    """Closed form sum(min(a, b)) over all ordered pairs of parts."""
    return sum(min(a, b) for a in p.parts for b in p.parts)


# ---------------------------------------------------------------------------
# native mod-p engine
# ---------------------------------------------------------------------------
#
# A matrix over GF(p^k) is handled as the nk x nk matrix over GF(p) of its
# regular representation: each entry e becomes the k x k matrix of
# multiplication by e on the basis 1, t, ..., t^(k-1).  The map is an
# injective ring homomorphism, so sums, products and nilpotency carry over,
# and a rank over GF(p^k) is the GF(p) rank divided by k.  For k = 1 it is
# the identity.

# Trace cells compared per step of the span scan.  The candidates of one
# step set the oracle's peak memory; smaller steps lower it no further.
_CHUNK_CELLS = 1 << 20


def _dtype(p: int, size: int):
    """Smallest signed int type holding a length-`size` dot product of
    residues mod p plus one more residue, so every kernel reduces once per
    operation and never wraps."""
    bound = size * (p - 1) ** 2 + p
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise OutOfRange(f"characteristic {p} is too large for the oracle")


def _regular_blocks(spec: FieldSpec) -> np.ndarray:
    """(q, k, k) array: the GF(p) matrix of multiplication by each field
    element, by enumeration index, on the basis 1, t, ..., t^(k-1)."""
    k = spec.degree
    powers_of_t = [spec.element_from_index(spec.char ** j) for j in range(k)]
    out = np.zeros((spec.order, k, k), dtype=np.int64)
    for c, e in enumerate(spec.elements()):
        for j, t_j in enumerate(powers_of_t):
            out[c, :, j] = (e * t_j).val
    return out


def _regular(x: ExactMatrix, blocks: np.ndarray, dtype) -> np.ndarray:
    """The nk x nk GF(p) regular representation of a GF(p^k) matrix."""
    spec, n = x.spec, x.n
    k = blocks.shape[1]
    idx = np.array([[spec.index_of(e) for e in row] for row in x.rows],
                   dtype=np.int64).reshape(n, n)
    return blocks[idx].transpose(0, 2, 1, 3).reshape(n * k, n * k) \
        .astype(dtype)


def _batch_nilpotent(mats: np.ndarray, n: int, p: int) -> np.ndarray:
    """Mask of matrices whose n-th power vanishes, by repeated squaring."""
    power = mats
    exponent = 1
    while exponent < n:
        power = np.matmul(power, power) % p
        exponent *= 2
    return ~power.any(axis=(1, 2))


def _batch_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """GF(p) ranks of a batch of square matrices of residues by vectorized
    elimination.

    Each step clears the first column with a pivot row, including the
    pivot row itself, and drops that column: the rank grows by one per
    nonzero column and the rows that remain span the Schur complement.
    Only the column and the pivot row are reduced mod p, so after s steps
    an entry lies in [-s*(p-1)^2, p-1], which the dtype from `_dtype`
    holds.
    """
    batch, size, _ = mats.shape
    inverses = np.zeros(p, dtype=mats.dtype)
    inverses[1:] = [pow(v, -1, p) for v in range(1, p)]
    rows = np.arange(batch)
    rank = np.zeros(batch, dtype=np.int64)
    a = mats
    for _ in range(size):
        column = a[:, :, 0] % p
        piv = (column != 0).argmax(axis=1)
        pivval = column[rows, piv]
        # zero where the column is zero, since inverses[0] == 0
        pivrow = a[rows, piv, 1:] % p * inverses[pivval][:, None] % p
        a = a[:, :, 1:] - column[:, :, None] * pivrow[:, None, :]
        rank += pivval != 0
    return rank


def _batch_partitions(mats: np.ndarray, n: int, k: int, p: int):
    """Jordan partitions of a batch of nilpotent regular-representation
    matrices, as (ids, partitions): partitions[ids[i]] is the descending
    part tuple of mats[i], and each distinct partition appears once."""
    # Defects of successive powers rise strictly until they reach n, so
    # the set of values, kept as a bit mask, encodes the whole sequence.
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
        codes[live] |= np.left_shift(1, n - _batch_rank(power, p) // k)
        power = np.matmul(power, mats[live]) % p
    distinct, ids = np.unique(codes, return_inverse=True)
    partitions = [
        partition_from_defects([d for d in range(n + 1) if code >> d & 1]).parts
        for code in distinct.tolist()]
    return ids.reshape(-1), partitions


# ---------------------------------------------------------------------------
# cached closure tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ClosureTable:
    """Every nilpotent Y in the centralizer span of X, in enumeration
    order: its odometer index, the id of its partition and the ids of the
    partitions of X + c*Y for c = 1..q-1 (by enumeration index), all
    indexing into `partitions`."""
    span_size: int
    x: ExactMatrix
    basis: tuple[ExactMatrix, ...]
    y_index: np.ndarray                 # (records,)
    y_partition: np.ndarray             # (records,)
    combo_partitions: np.ndarray        # (records, q - 1)
    partitions: tuple[tuple[int, ...], ...]


def _span_rows(gens: np.ndarray, p: int) -> np.ndarray:
    """Every GF(p) combination of the flattened generators, in odometer
    order (last coefficient moves fastest)."""
    out = np.zeros((1, gens.shape[1]), dtype=gens.dtype)
    digits = np.arange(p, dtype=gens.dtype)[:, None]
    for g in gens:
        out = ((out[:, None, :] + (digits * g)[None]) % p) \
            .reshape(-1, gens.shape[1])
    return out


def _trace_codes(rows: np.ndarray, n: int, k: int, p: int) -> np.ndarray:
    """Enumeration index of the GF(p^k) trace of each flattened regular
    matrix: column 0 of the summed diagonal blocks."""
    diag = np.arange(n)
    blocks = rows.reshape(-1, n, k, n, k)[:, diag, :, diag, 0]   # (n, B, k)
    trace = blocks.astype(np.int64).sum(axis=0) % p
    return trace @ (p ** np.arange(k, dtype=np.int64))


def _nilpotent_span_elements(gens: np.ndarray, n: int, k: int, p: int):
    """Odometer indices and regular matrices of the nilpotent elements of
    the GF(p) span of `gens`, in enumeration order, and the span size."""
    size = n * k
    d_hi = len(gens) // 2
    hi_rows = _span_rows(gens[:d_hi], p)
    lo_rows = _span_rows(gens[d_hi:], p)
    # nilpotent => trace zero, i.e. trace(lo) == -trace(hi)
    hi_codes = _trace_codes((-hi_rows) % p, n, k, p)
    lo_codes = _trace_codes(lo_rows, n, k, p)
    indices_out, mats_out = [], []
    chunk = max(1, _CHUNK_CELLS // len(lo_rows))
    for start in range(0, len(hi_rows), chunk):
        hi_sel, lo_sel = np.nonzero(
            hi_codes[start:start + chunk, None] == lo_codes[None, :])
        mats = ((hi_rows[start + hi_sel] + lo_rows[lo_sel]) % p) \
            .reshape(-1, size, size)
        keep = np.flatnonzero(_batch_nilpotent(mats, n, p))
        indices_out.append((start + hi_sel[keep]) * len(lo_rows)
                           + lo_sel[keep])
        mats_out.append(mats[keep])
    return (np.concatenate(indices_out), np.concatenate(mats_out),
            len(hi_rows) * len(lo_rows))


@lru_cache(maxsize=None)
def _closure_table(spec: FieldSpec, n: int, p: Partition) -> _ClosureTable:
    char, k, q = spec.char, spec.degree, spec.order
    size = n * k
    dtype = _dtype(char, size)
    blocks = _regular_blocks(spec)
    x = jordan_matrix(p, n, spec)
    basis = tuple(centralizer_basis(x))
    # generator t^j * B_i sits at position k*i + (k-1-j), so the GF(p)
    # odometer index of a span element equals its GF(q) odometer index
    gens = np.stack([
        _regular(b.scale(spec.element_from_index(char ** j)), blocks, dtype)
        .reshape(-1)
        for b in basis for j in reversed(range(k))])
    indices, y_mats, total = _nilpotent_span_elements(gens, n, k, char)
    # slot 0 holds Y, slot c holds X + c*Y
    records = len(indices)
    x_reg = _regular(x, blocks, dtype)
    batch = np.empty((q, records, size, size), dtype=dtype)
    batch[0] = y_mats
    eye = np.eye(n, dtype=np.int64)
    for c in range(1, q):
        scale = np.kron(eye, blocks[c]).astype(dtype)
        batch[c] = (x_reg + np.matmul(scale, y_mats)) % char
    ids, partitions = _batch_partitions(batch.reshape(-1, size, size),
                                        n, k, char)
    ids = ids.reshape(q, records)
    return _ClosureTable(total, x, basis, indices, ids[0], ids[1:].T,
                         tuple(partitions))


def _rebuild_span_element(table: _ClosureTable, y_index: int,
                          spec: FieldSpec) -> ExactMatrix:
    """Decode a span element from its odometer index (exact arithmetic)."""
    q = spec.order
    d = len(table.basis)
    n = table.x.n
    acc = ExactMatrix.zeros(spec, n)
    rem = y_index
    for i in range(d - 1, -1, -1):
        digit = rem % q
        rem //= q
        if digit:
            acc = acc + table.basis[i].scale(spec.element_from_index(digit))
    return acc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    mode: str                   # "exhaustive" | "sampled"
    field: FieldSpec
    n: int
    q: QSet
    outcome: str                # "pass" | "violation"
    violation: Witness | None
    matrices_enumerated: int
    pairs_tested: int
    combinations_tested: int
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def to_json(self) -> dict:
        out = {
            "mode": self.mode,
            "field": str(self.field),
            "n": self.n,
            "q": str(self.q),
            "outcome": self.outcome,
            "counts": {
                "matrices_enumerated": self.matrices_enumerated,
                "pairs_tested": self.pairs_tested,
                "combinations_tested": self.combinations_tested,
            },
        }
        if self.violation is not None:
            out["violation"] = self.violation.to_json()
        if self.seed is not None:
            out["seed"] = self.seed
        return out


# ---------------------------------------------------------------------------
# exhaustive check
# ---------------------------------------------------------------------------

def exhaustive_check(n: int, spec: FieldSpec, q: QSet,
                     budget: int = 5_000_000) -> OracleReport:
    """Closure check with one Jordan representative X per admissible
    conjugacy class and every nilpotent admitted Y in its centralizer span.
    The first failing triple in enumeration order is reported."""
    if not spec.is_finite:
        raise InfiniteField("exhaustive enumeration needs a finite field")
    if q.n != n:
        raise InvalidQ(f"q has ambient dimension {q.n}, expected {n}")
    parts_list = admissible_partitions(n, q)
    for p in parts_list:
        required = spec.order ** centralizer_dimension(p)
        if required > budget:
            raise BudgetExceeded(
                f"partition {p} needs {required} span elements "
                f"(budget {budget})", partition=p, required=required)
    qset = set(q.elements)
    order = spec.order
    matrices = pairs = combos = 0
    for p in parts_list:
        table = _closure_table(spec, n, p)
        matrices += table.span_size
        admitted = np.array([all(s in qset for s in part if s > 1)
                             for part in table.partitions], dtype=bool)
        kept = np.flatnonzero(admitted[table.y_partition])
        bad = ~admitted[table.combo_partitions[kept]]
        hits = np.flatnonzero(bad.any(axis=1))
        if hits.size == 0:
            pairs += kept.size
            combos += order * order * kept.size
            continue
        # The verdict for (a, b) depends only on c = b/a, and a = 1 runs
        # b through every c, so in (a, b) order the first violation of a
        # record is a = 1, b = the least bad c, after the q pairs with a = 0.
        first = int(hits[0])
        c = int(np.argmax(bad[first])) + 1
        pairs += first + 1
        combos += order * order * first + order + 1 + c
        record = kept[first]
        combo_part = table.partitions[table.combo_partitions[record, c - 1]]
        y = _rebuild_span_element(table, int(table.y_index[record]), spec)
        w = Witness("enumerated", spec, table.x, y,
                    spec.element_from_index(1), spec.element_from_index(c),
                    Partition(combo_part),
                    max(s for s in combo_part if s > 1 and s not in qset))
        verify_witness(w, q)
        return OracleReport("exhaustive", spec, n, q, "violation", w,
                            matrices, pairs, combos)
    return OracleReport("exhaustive", spec, n, q, "pass", None,
                        matrices, pairs, combos)


# ---------------------------------------------------------------------------
# sampled check
# ---------------------------------------------------------------------------

def _random_poly(spec: FieldSpec, rng: random.Random, degree: int,
                 min_valuation: int = 1) -> Poly:
    """Random polynomial with valuation exactly min_valuation."""
    while True:
        coeffs = [0] * min_valuation
        coeffs.append(rng.randrange(1, 5))
        for _ in range(degree - min_valuation):
            coeffs.append(rng.randrange(-3, 4))
        poly = Poly.from_ints(spec, coeffs)
        # retry when the leading draw vanishes modulo the characteristic
        if not poly.is_zero and poly.valuation() == min_valuation:
            return poly


def _coefficient_pairs(spec: FieldSpec, rng: random.Random):
    small = [spec.from_int(v) for v in (0, 1, -1, 2, -2)]
    pairs = [(a, b) for a in small for b in small]
    if spec.is_finite:
        for _ in range(3):
            pairs.append((spec.element_from_index(rng.randrange(spec.order)),
                          spec.element_from_index(rng.randrange(spec.order))))
    else:
        for _ in range(3):
            pairs.append((spec.from_int(rng.randrange(-9, 10)),
                          spec.from_int(rng.randrange(-9, 10))))
    return pairs


def _witness_family_pairs(n: int, spec: FieldSpec, q: QSet):
    """All neighbor- and gap-shaped commuting pairs that fit (n, q)."""
    out = []
    one = spec.one()
    for m in q:
        if 2 * m > n:
            continue
        cell = ExactMatrix.jordan_cell(spec, spec.zero(), m)
        zdiag = ExactMatrix.block_diag(spec, [cell, cell], n)
        for eps in roots_of_unity(spec, m):
            if eps == one:
                continue
            out.append((zdiag, ExactMatrix.block_diag(
                spec, [build_coupled_cells(m, one, eps, spec)], n)))
    for m in sorted({1} | set(q.elements)):
        for m1 in q:
            if m1 > m + 2 and m + m1 <= n:
                z1, z2 = _gap_quotient_ops(m, m1, spec)
                out.append((ExactMatrix.block_diag(spec, [z1 + z2], n),
                            ExactMatrix.block_diag(spec, [z1], n)))
    return out


def sampled_check(n: int, spec: FieldSpec, q: QSet, samples: int,
                  seed: int) -> OracleReport:
    """Randomized closure check over a structured catalog of commuting
    pairs; deterministic for a given seed."""
    if q.n != n:
        raise InvalidQ(f"q has ambient dimension {q.n}, expected {n}")
    rng = random.Random(seed)
    parts_list = admissible_partitions(n, q)
    qset = set(q.elements)
    matrices = pairs = combos = 0

    def check_pair(x, y):
        nonlocal pairs, combos
        if not member_mq(x, q) or not member_mq(y, q):
            return None
        pairs += 1
        for a, b in _coefficient_pairs(spec, rng):
            combos += 1
            combo = x.scale(a) + y.scale(b)
            try:
                part = jordan_partition(combo)
            except NotNilpotent as exc:
                # combinations of commuting nilpotents are nilpotent, so
                # the pair does not commute: the catalog is at fault
                raise Inconsistency(
                    f"sampled pair has a non-nilpotent combination "
                    f"{a}*x + {b}*y over {spec}") from exc
            outside = [s for s in part if s > 1 and s not in qset]
            if outside:
                w = Witness("enumerated", spec, x, y, a, b, part,
                            max(outside))
                verify_witness(w, q)
                return w
        return None

    for x, y in _witness_family_pairs(n, spec, q):
        matrices += 2
        w = check_pair(x, y)
        if w is not None:
            return OracleReport("sampled", spec, n, q, "violation", w,
                                matrices, pairs, combos, seed=seed)
    for _ in range(samples):
        if not parts_list:
            break
        p = parts_list[rng.randrange(len(parts_list))]
        base = jordan_matrix(p, n, spec)
        matrices += 2
        if rng.random() < 0.5:
            x = poly_eval(_random_poly(spec, rng, n, 1), base)
            y = poly_eval(_random_poly(spec, rng, n, 1), base)
        else:
            basis = centralizer_basis(base)
            coeffs = [spec.from_int(rng.randrange(-2, 3)) for _ in basis]
            y = ExactMatrix.zeros(spec, n)
            for c, bmat in zip(coeffs, basis):
                if not c.is_zero:
                    y = y + bmat.scale(c)
            x = base
        w = check_pair(x, y)
        if w is not None:
            return OracleReport("sampled", spec, n, q, "violation", w,
                                matrices, pairs, combos, seed=seed)
    return OracleReport("sampled", spec, n, q, "pass", None,
                        matrices, pairs, combos, seed=seed)


# ---------------------------------------------------------------------------
# cross validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossValidationReport:
    n: int
    char: int
    degrees: tuple[int, ...]
    accepted: tuple[str, ...]
    rejected: tuple[str, ...]
    oracle_passes: int
    witnesses: int
    skipped: tuple[str, ...] = dataclass_field(default=())

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "char": self.char,
            "degrees": list(self.degrees),
            "accepted": list(self.accepted),
            "rejected": list(self.rejected),
            "oracle_passes": self.oracle_passes,
            "witnesses": self.witnesses,
            "skipped": list(self.skipped),
        }


def cross_validate(n: int, char: int, degrees, q_range="all",
                   budget: int = 5_000_000) -> CrossValidationReport:
    """Tie the criterion to the brute-force oracle and the witness module.

    Accepted q-sets must pass the exhaustive oracle over GF(char^d) for
    every feasible degree d (a violation is a fatal inconsistency).
    Rejected q-sets must be falsified by a self-verifying witness.  A pass
    over one small field never contradicts a rejection: counterexamples may
    need extension fields, so that direction is not checked.
    """
    if q_range == "all":
        qs = all_qsets(n)
    else:
        qs = list(q_range)
    degrees = tuple(degrees)
    accepted, rejected, skipped = [], [], []
    oracle_passes = witnesses = 0
    for q in qs:
        res = check_criterion(n, char, q)
        if res.accepted:
            accepted.append(str(q))
            for d in degrees:
                spec = galois(char, d)
                try:
                    report = exhaustive_check(n, spec, q, budget=budget)
                except BudgetExceeded:
                    skipped.append(f"{q}@GF({char}^{d})")
                    continue
                if not report.passed:
                    raise Inconsistency(
                        f"criterion accepts q={q} but the oracle found a "
                        f"violation over {spec}")
                oracle_passes += 1
        else:
            rejected.append(str(q))
            w = falsify(n, char, q)
            if w is None:
                raise Inconsistency(
                    f"criterion rejects q={q} but no witness was found")
            witnesses += 1
    return CrossValidationReport(n, char, degrees, tuple(accepted),
                                 tuple(rejected), oracle_passes, witnesses,
                                 tuple(skipped))
