"""Brute-force verification of closure under spans of commuting pairs.

The exhaustive oracle takes, for each admissible Jordan type X (one
representative per conjugacy class), every nilpotent Y in the span of the
centralizer C(X), keeps those whose cell sizes are admitted, and checks
every combination a*X + b*Y.

The nilpotent Y are listed directly, not found by a scan of the span.  Let
W_s = (ker X & im X^(s-1)) / (ker X & im X^s), of dimension r_s, the number
of cells of size s.  Every Y in C(X) induces a map on each W_s, the map
Y -> (induced maps) is linear and onto the product of the M_{r_s}(F), and
its kernel is the radical of C(X) (R. Basili, J. Algebra 268 (2003)).  X is
the Jordan matrix of its type, whose centralizer is made of upper-triangular
Toeplitz blocks (F. R. Gantmacher, Theory of Matrices I, ch. VIII sec. 1), so
each entry of an induced map is one coordinate of the centralizer basis, and
that is checked.  A nilpotent Y induces nilpotent maps, so placing every
nilpotent tuple on those coordinates, with every value on the others, misses
none; that every listed Y is nilpotent is the cited theorem, so it is
recomputed by raw matrix powering and a miss raises Inconsistency.  The
oracle thus does not depend on the structure theory it is meant to check.

Partitions are computed once per scalar class: lam*Y has the partition of
Y, and X + c*(lam*Y) that of X + (c*lam)*Y, so only the Y whose first
nonzero coordinate is one are partitioned.

Each pair of Jordan types is checked in one table.  A commuting pair (X, Y)
with Y of type t is conjugate to a pair (J_t, X') with X' of the type p of
X, and X + c*Y = c*(Y + (1/c)*X) has the type of J_t + (1/c)*X', so the
table of t lists the same verdicts.  The table of p therefore partitions
X + c*Y only where t is at or below p in descending lexicographic order,
zero included.  The exhaustive check walks the admissible types in that
order and stops at the first table with a hit, so a kept Y of an admitted
type t above p was already checked, with no hit, in the table of t: the
first hit, its witness and the counts are those of the full tables.

Jordan types are read off the ranks r_j of the powers.  The drops
r_(j-1) - r_j count the cells of size >= j, so they never grow (the Weyr
characteristic; H. Shapiro, Amer. Math. Monthly 106 (1999) 919-929), and a
power is ranked only where the last rank and drop leave its rank open.

The inner loops run on numpy integer arrays with native arithmetic mod p;
a matrix over GF(p^k) enters as its regular representation over GF(p).
Results are cached per (field, dimension, Jordan type) so scans over many
q-sets reuse the enumeration.
"""

from __future__ import annotations

import logging
import random
import time
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
from .field import (MODULUS_SEARCH_LIMIT, FieldSpec, Poly, _order_above,
                    galois)
from .jordan import (
    Partition,
    jordan_matrix,
    jordan_partition,
    partition_from_defects,
)
from .matrices import ExactMatrix, centralizer_basis, poly_eval
from .witness import Witness, construction_pairs, falsify, verify_witness

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# admissible Jordan types and the budget estimate
# ---------------------------------------------------------------------------

def admissible_partitions(n: int, q: QSet) -> list[Partition]:
    """Partitions of n with parts in q plus 1-cells and largest part
    >= 2, in descending lexicographic order."""
    return list(_admissible(n, q))


def _admissible(n: int, q: QSet):
    """``admissible_partitions`` generated one at a time."""
    allowed = [*sorted(q.elements, reverse=True), 1]

    def recurse(remaining, max_part, acc):
        if remaining == 0:
            if acc and acc[0] > 1:
                yield Partition(acc)
            return
        for part in allowed:
            if part <= max_part and part <= remaining:
                yield from recurse(remaining - part, part, acc + [part])

    return recurse(n, n, [])


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

# Matrices per step of the partition kernel.  The temporaries of one step
# set the kernel's peak memory; the step size hardly changes its speed.
_PARTITION_CHUNK = 1 << 16


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
            out[c, :, j] = spec.ops.coeffs((e * t_j).val)
    return out


def _lift(idx: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """GF(p) matrices of GF(p^k) matrices given by enumeration indices:
    shape (..., a, b) becomes (..., a*k, b*k), entry (i, j) becoming the
    block of rows i*k.. and columns j*k.."""
    *lead, a, b = idx.shape
    k = blocks.shape[1]
    return blocks[idx].swapaxes(-3, -2).reshape(*lead, a * k, b * k)


def _regular(x: ExactMatrix, blocks: np.ndarray, dtype) -> np.ndarray:
    """The nk x nk GF(p) regular representation of a GF(p^k) matrix, from
    the enumeration indices of its nonzeros (zero has index 0)."""
    spec = x.spec
    idx = np.zeros((x.n, x.n), dtype=np.int64)
    for i, row in enumerate(x._nz):
        for j, v in row.items():
            idx[i, j] = spec.index_of(spec.box(v))
    return _lift(idx, blocks).astype(dtype)


def _grid(base: int, length: int) -> np.ndarray:
    """Every vector of `length` digits below `base`, one per row, in
    odometer order (last digit fastest)."""
    return np.indices((base,) * length).reshape(length, base ** length).T


def _batch_nilpotent(mats: np.ndarray, n: int, p: int) -> np.ndarray:
    """Mask of matrices whose n-th power vanishes, by repeated squaring."""
    power = mats
    exponent = 1
    while exponent < n:
        power = np.matmul(power, power)
        power %= p
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


def _defect_codes(mats: np.ndarray, n: int, k: int, p: int) -> np.ndarray:
    """The defects of the successive powers of each nilpotent matrix, as
    a bit mask.  They rise strictly until they reach n, so the set of
    values encodes the whole sequence.

    The drop r_(j-1) - r_j of the ranks r_j of the powers counts the
    cells of size >= j, so the drops never grow (the Weyr characteristic;
    H. Shapiro, Amer. Math. Monthly 106 (1999) 919-929): a nonzero j-th
    power has rank in [max(1, r - d), r - 1], r and d the last rank and
    drop.  Only the rows where that holds two or more values are ranked,
    and once the drop is 1 the chain r - 1, ..., 1, 0 is forced.  Ranks
    alone do not show nilpotency (J_3(0) + (1) has ranks 3, 2, 1, 1), so
    every matrix is also checked by repeated squaring, whose M^2 is the
    second power of the chain."""
    codes = np.full(len(mats), 1 << n, dtype=np.int64)
    live = np.arange(len(mats))         # rows whose chain is still open
    rank = np.full(len(mats), n, dtype=np.int8)     # of the last power
    power = mats
    # every chain closes by exponent n - 1, or 1 when n = 1
    for exponent in range(1, n + 1):
        # an open row has rank r >= 2 and last drop d >= 2, so the rank of
        # a nonzero power is open unless r = 2, when it is 1; a zero power
        # ranks as 0
        need = rank > 2
        if need.all():
            new = _batch_rank(power, p) // k
        else:
            new = np.zeros(len(live), dtype=np.int64)
            new[~need] = power[~need].any(axis=(1, 2))
            if need.any():
                new[need] = _batch_rank(power[need], p) // k
        if exponent == 1:
            # checked after the first rank, so that M^2 is not held through
            # the rank's temporaries, which set the peak memory
            square = np.matmul(mats, mats)
            square %= p
            if not _batch_nilpotent(square, (n + 1) // 2, p).all():
                raise NotNilpotent("batch contains a non-nilpotent matrix")
        codes[live] |= np.left_shift(1, n - new)
        done = (rank - new == 1) | (new <= 1)
        rank = new.astype(np.int8)
        if done.any():
            # defects n - r + 1, ..., n - 1 of the forced ranks r - 1, ..., 1
            codes[live[done]] |= (1 << n) - np.left_shift(
                1, n + 1 - np.maximum(new[done], 1))
            open_ = ~done
            live, rank = live[open_], rank[open_]
            if live.size == 0:
                break
            if exponent > 1:
                power = power[open_]
        power = square[live] if exponent == 1 else \
            np.matmul(power, mats[live]) % p
    return codes


def _batch_codes(mats: np.ndarray, n: int, k: int, p: int) -> np.ndarray:
    """`_defect_codes` of a batch of any length, a chunk at a time."""
    codes = np.empty(len(mats), dtype=np.int64)
    for start in range(0, len(mats), _PARTITION_CHUNK):
        stop = start + _PARTITION_CHUNK
        codes[start:stop] = _defect_codes(mats[start:stop], n, k, p)
    return codes


def _code_partitions(codes: np.ndarray, n: int):
    """Jordan partitions of defect codes, as (ids, partitions):
    partitions[ids[i]] is the descending part tuple of codes[i], and each
    distinct partition appears once, in the order of its code."""
    distinct, ids = np.unique(codes, return_inverse=True)
    partitions = [
        partition_from_defects([d for d in range(n + 1) if code >> d & 1]).parts
        for code in distinct.tolist()]
    return ids.reshape(-1), partitions


def _batch_partitions(mats: np.ndarray, n: int, k: int, p: int):
    """Jordan partitions of a batch of nilpotent regular-representation
    matrices, as `_code_partitions` gives them."""
    return _code_partitions(_batch_codes(mats, n, k, p), n)


# ---------------------------------------------------------------------------
# cached closure tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ClosureTable:
    """Every nilpotent Y in the centralizer span of X, in odometer order
    of its coordinates on `basis`, with the partitions of Y and, where
    this table owns the pair, of X + c*Y.

    Each record is lam * R for a representative R, a record whose first
    nonzero coordinate is one (or zero itself).  Y has the partition of R
    and X + c*Y that of X + (c*lam)*R, so partitions are stored per
    representative: `y_partition` and, for c = 1..q-1 by enumeration
    index, `combo_partitions`, both indexing into `partitions`.  `owned`
    marks the representatives whose type is at or below that of X in
    descending lexicographic order; the row of `combo_partitions` of any
    other holds -1, since the table of its type checks the pair."""
    span_size: int
    x: ExactMatrix
    basis: tuple[ExactMatrix, ...]
    y_index: np.ndarray                 # (records,)
    rep: np.ndarray                     # (records,) representative
    lam: np.ndarray                     # (records,) enumeration index
    y_partition: np.ndarray             # (reps,)
    owned: np.ndarray                   # (reps,) bool
    combo_partitions: np.ndarray        # (reps, q - 1), -1 where not owned
    partitions: tuple[tuple[int, ...], ...]
    mul: np.ndarray                     # (q, q) product of enumeration indices

    def combo_ids(self, record: int) -> np.ndarray:
        """Partition ids of X + c*Y for c = 1..q-1, Y the given record."""
        lam = self.lam[record]
        return self.combo_partitions[self.rep[record], self.mul[1:, lam] - 1]


def _induced_maps(x: ExactMatrix, basis):
    """The maps that the elements of `basis` induce on the quotients
    W_s = (ker X & im X^(s-1)) / (ker X & im X^s) of nonzero dimension r_s,
    for X a Jordan matrix with ones on the superdiagonal.

    ker X & im X^(s-1) is spanned by the first basis vectors of the cells
    of size >= s, so those of the size-s cells are a basis of W_s, and Y
    induces on W_s the block of its entries at them.  Every equation of
    XY = YX reads y_u = y_v or y_u = 0, so each row-reduced kernel vector
    is the 0/1 indicator of one diagonal of one block, and each entry of
    an induced map is exactly one span coordinate.

    Returns the r_s, deepest level first, and the span coordinate of each
    entry of the stacked r_s x r_s maps (row-major within each map).
    Inconsistency if an element leaves ker X, or an entry is not a single
    coordinate with value one distinct from those of the other entries."""
    n, zero, one = x.n, x.spec.ops.zero, x.spec.ops.one
    starts = [i for i in range(n)
              if i == 0 or x._nz[i - 1].get(i, zero) == zero]
    size = {a: b - a for a, b in zip(starts, [*starts[1:], n])}
    inner = [i for i in range(n) if i not in size]
    if any(b._nz[i].get(a, zero) != zero
           for b in basis for a in starts for i in inner):
        raise Inconsistency("a centralizer element leaves ker X")
    sizes, coords = [], []
    for s in sorted(set(size.values()), reverse=True):
        cells = [a for a in starts if size[a] == s]
        for row in cells:
            for col in cells:
                hit = [i for i, b in enumerate(basis)
                       if b._nz[row].get(col, zero) != zero]
                if len(hit) != 1 or hit[0] in coords or \
                        basis[hit[0]]._nz[row][col] != one:
                    raise Inconsistency("an induced map entry is not a "
                                        "distinct span coordinate")
                coords.append(hit[0])
        sizes.append(len(cells))
    return sizes, coords


def _odometer_index(coords: np.ndarray, p: int, k: int) -> np.ndarray:
    """Odometer index over GF(p^k) of span elements given by their GF(p)
    coordinates, coefficient l of coordinate i at column k*i + l."""
    index = np.zeros(len(coords), dtype=np.int64)
    for i in range(coords.shape[1] // k):
        for col in range(k * i + k - 1, k * i - 1, -1):
            index = index * p + coords[:, col]
    return index


def _nilpotent_records(spec: FieldSpec, x: ExactMatrix, basis, blocks,
                       dtype):
    """The nilpotent elements of the span of `basis`, the centralizer of
    the nilpotent x, from the radical split.

    Returns their odometer indices in ascending order, the representative
    and the enumeration index lam of each (record = lam * representative),
    and the regular matrices of the representatives, ordered by index."""
    char, k, q = spec.char, spec.degree, spec.order
    n, d = x.n, len(basis)
    sizes, mapped = _induced_maps(x, basis)
    # Y is nilpotent iff every induced map is, so the nilpotent Y carry a
    # nilpotent tuple on the mapped coordinates and any values on the
    # others, the radical.
    tuples = np.zeros((1, 0), dtype=np.int64)
    for r in sizes:
        mats = _grid(q, r * r)
        nil = mats[_batch_nilpotent(
            _lift(mats.reshape(-1, r, r), blocks).astype(_dtype(char, r * k)),
            r, char)]
        tuples = np.concatenate([np.repeat(tuples, len(nil), axis=0),
                                 np.tile(nil, (len(tuples), 1))], axis=1)
    free = [i for i in range(d) if i not in mapped]
    # GF(p) coordinates: coefficient l of coordinate i at column k*i + l
    pre = np.zeros((len(tuples), d, k), dtype=np.int64)
    pre[:, mapped] = blocks[tuples][..., 0]
    rad = np.zeros((char ** (k * len(free)), d, k), dtype=np.int64)
    rad[:, free] = _grid(char, k * len(free)).reshape(-1, len(free), k)
    pre, rad = pre.reshape(len(pre), k * d), rad.reshape(len(rad), k * d)
    # the two parts sit on disjoint columns, so their sum is reduced
    coords = (pre.astype(dtype)[:, None] + rad.astype(dtype)[None]) \
        .reshape(-1, k * d)
    # products below are length-k*d dot products of residues
    wide = _dtype(char, k * d)
    gens = np.stack([
        _regular(b.scale(spec.element_from_index(char ** j)), blocks,
                 wide).reshape(-1)
        for b in basis for j in range(k)])
    size = n * k
    y_mats = ((pre.astype(wide) @ gens % char).astype(dtype)[:, None]
              + (rad.astype(wide) @ gens % char).astype(dtype)[None]) \
        .reshape(-1, size, size)
    y_mats %= char
    if not _batch_nilpotent(y_mats, n, char).all():
        raise Inconsistency(f"a generated centralizer element over {spec} "
                            f"is not nilpotent")
    # representatives: first nonzero coordinate one, or zero itself
    by_coord = coords.reshape(-1, d, k)
    nonzero = by_coord.any(axis=2)
    lead = by_coord[np.arange(len(coords)), nonzero.argmax(axis=1)]
    is_rep = ~nonzero.any(axis=1) | ((lead[:, 0] == 1)
                                      & ~lead[:, 1:].any(axis=1))
    rep_index = _odometer_index(coords[is_rep], char, k)
    order = np.argsort(rep_index)
    rep_coords = coords[is_rep][order].reshape(-1, d, k)
    rep_mats = y_mats[is_rep][order]
    del y_mats, nonzero
    reps = len(rep_coords)
    # the records lam * R: R = 0, representative 0, once; the others for
    # every lam
    keys, rep_ids = [rep_index[order]], [np.arange(reps)]
    lams = [np.ones(reps, dtype=np.int64)]
    for lam in range(2, q):
        scaled = np.matmul(rep_coords[1:], blocks[lam].T.astype(dtype)) % char
        keys.append(_odometer_index(scaled.reshape(-1, k * d), char, k))
        rep_ids.append(np.arange(1, reps))
        lams.append(np.full(reps - 1, lam))
    keys = np.concatenate(keys)
    order_all = np.argsort(keys)
    y_index = keys[order_all]
    if not np.array_equal(y_index, np.sort(_odometer_index(coords, char, k))):
        raise Inconsistency(f"the generated centralizer elements over {spec} "
                            f"are not closed under scaling")
    return (y_index, np.concatenate(rep_ids)[order_all],
            np.concatenate(lams)[order_all], rep_mats)


def _owns(p: tuple[int, ...], t: tuple[int, ...]) -> bool:
    """Whether the table of type p checks the pairs whose Y has type t:
    those with t at or below p in descending lexicographic order.  The
    table of t checks the others (see the module notes)."""
    return t <= p


@lru_cache(maxsize=None)
def _closure_table(spec: FieldSpec, n: int, p: Partition) -> _ClosureTable:
    """The closure table of the Jordan type p.  Every representative is
    partitioned, and X + c*R only for those this table owns."""
    start = time.perf_counter()
    char, k, q = spec.char, spec.degree, spec.order
    size = n * k
    dtype = _dtype(char, size)
    blocks = _regular_blocks(spec)
    x = jordan_matrix(p, n, spec)
    basis = tuple(centralizer_basis(x))
    y_index, rep, lam, rep_mats = _nilpotent_records(spec, x, basis, blocks,
                                                     dtype)
    listed = time.perf_counter()
    reps = len(rep_mats)
    y_codes = _batch_codes(rep_mats, n, k, char)
    y_ids, y_types = _code_partitions(y_codes, n)
    owned = np.array([_owns(p.parts, t) for t in y_types])[y_ids]
    owned_mats = rep_mats[owned]
    # slot c - 1 holds X + c*R for the owned representatives R
    combos = np.empty((q - 1, len(owned_mats), size, size), dtype=dtype)
    x_reg = _regular(x, blocks, dtype)
    eye = np.eye(n, dtype=np.int64)
    for c in range(1, q):
        scale = np.kron(eye, blocks[c]).astype(dtype)
        combos[c - 1] = (x_reg + np.matmul(scale, owned_mats)) % char
    combo_codes = _batch_codes(combos.reshape(-1, size, size), n, k, char)
    ids, partitions = _code_partitions(
        np.concatenate([y_codes, combo_codes]), n)
    combo_partitions = np.full((reps, q - 1), -1, dtype=ids.dtype)
    combo_partitions[owned] = ids[reps:].reshape(q - 1, -1).T
    coeffs = np.einsum("alm,bm->abl", blocks, blocks[:, :, 0]) % char
    mul = coeffs @ char ** np.arange(k)
    span_size = q ** len(basis)
    _log.debug("closure table %s over %s: span %d, records %d, "
               "representatives %d, combos %d of %d, listing %.3f s, "
               "partitions %.3f s", p, spec, span_size, len(y_index), reps,
               len(combo_codes), reps * (q - 1), listed - start,
               time.perf_counter() - listed)
    return _ClosureTable(span_size, x, basis, y_index, rep, lam,
                         ids[:reps], owned, combo_partitions,
                         tuple(partitions), mul)


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
    parts_list = []
    for p in _admissible(n, q):     # refused before the rest is listed
        required = spec.order ** centralizer_dimension(p)
        if required > budget:
            raise BudgetExceeded(
                f"partition {p} needs {required} span elements "
                f"(budget {budget})", partition=p, required=required)
        parts_list.append(p)
    qset = set(q.elements)
    order = spec.order
    matrices = pairs = combos = 0
    for p in parts_list:
        table = _closure_table(spec, n, p)
        matrices += table.span_size
        admitted = np.array([all(s in qset for s in part if s > 1)
                             for part in table.partitions], dtype=bool)
        rep_kept = admitted[table.y_partition]
        # rows that are not owned hold -1, which the mask discards
        rep_hit = rep_kept & table.owned \
            & ~admitted[table.combo_partitions].all(axis=1)
        kept = rep_kept[table.rep]
        hits = np.flatnonzero(rep_hit[table.rep])
        if hits.size == 0:
            kept_count = int(np.count_nonzero(kept))
            pairs += kept_count
            combos += order * order * kept_count
            continue
        # The verdict for (a, b) depends only on c = b/a, and a = 1 runs
        # b through every c, so in (a, b) order the first violation of a
        # record is a = 1, b = the least bad c, after the q pairs with a = 0.
        record = int(hits[0])
        before = int(np.count_nonzero(kept[:record]))
        combo_ids = table.combo_ids(record)
        c = int(np.argmax(~admitted[combo_ids])) + 1
        pairs += before + 1
        combos += order * order * before + order + 1 + c
        combo_part = table.partitions[combo_ids[c - 1]]
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

    for x, y in construction_pairs(n, spec, q):
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
    need extension fields, so that direction is not checked.  A degree d
    with char^d above MODULUS_SEARCH_LIMIT is refused (OutOfRange) before
    any work, as ``parse_field`` refuses GF(char^d) without a modulus.
    """
    if char == 0:
        raise InfiniteField("cross validation runs the oracle over "
                            "GF(char^d), which needs a prime char, not 0")
    degrees = tuple(degrees)
    for d in degrees:
        if _order_above(char, d, MODULUS_SEARCH_LIMIT):
            raise OutOfRange(f"GF({char}^{d}) has order above 2^32, the limit "
                             f"for a field with the default modulus")
    if q_range == "all":
        qs = all_qsets(n)
    else:
        qs = list(q_range)
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
