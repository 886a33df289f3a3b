"""Constructive counterexamples to closure.

For every rejected cell-size set the falsifier produces two commuting
nilpotent matrices inside the set together with coefficients whose
combination leaves it.  Three constructions cover all rejections:

* power    -- x and the similar x + x^k; their difference is x^k, whose
              cells have sizes floor(m/k) and ceil(m/k);
* neighbor -- two commuting copies of a 2m-dimensional block pair whose
              combination has cells of sizes m+1 and m-1; needs a
              nontrivial group of m-th roots of unity;
* gap      -- quotient operators on a (m1 + m + 2 - 2)-dimensional space
              whose difference has a single cell of size m+2.

Each construction records the proven Jordan type of its combination, and
every witness that ``falsify`` returns has passed the checks of
``verify_witness``.  A construction depends on q only through a few sizes, so
``falsify`` is split in two.  ``_plan`` picks the construction's builder and
its full argument tuple from (n, char, q).  ``_core`` calls the builder, which
builds the construction for no particular q, and computes its q-free
invariants by direct computation: whether x and y commute, the Jordan types
of x, y and the combination.  It is cached per plan in a bounded LRU cache of
256 entries; the n <= 8 sweep in chars 0, 2, 3 reaches 101 keys, and one
(n, char) at most O(n^2).  On every call ``falsify`` then picks the violating
size for q and runs the q checks (x and y in M(q), violating size not
admitted) together with the cached q-free ones, through the same routine that
``verify_witness`` runs on freshly computed invariants.  Returned witnesses
share the cached immutable matrices.  A rejected q with n above
``WITNESS_DIMENSION_LIMIT`` is refused before any matrix is built.
``construction_pairs`` lists every neighbor and gap pair that fits (n, q)
over a given field, built as the witnesses build them; the sampled oracle
draws its catalog from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice

from .criterion import QSet, check_criterion, is_char_power
from .errors import (
    DimensionTooSmall,
    FieldMismatch,
    InternalInconsistency,
    IsCharPower,
    NotNilpotent,
    OutOfRange,
)
from .field import (
    FieldSpec,
    Scalar,
    extension_for_roots,
    galois,
    geometric_sum,
    rationals,
    roots_of_unity,
    surrogate_prime,
)
from .jordan import (Partition, jordan_matrix, jordan_partition,
                     predicted_poly_partition)
from .matrices import ExactMatrix, matrix_to_json

# Largest n at which ``falsify`` builds a witness.  Cold runs of all three
# constructions in chars 0, 2, 3 and 5 (Python 3.11, a 2-vCPU Xeon VM) answer
# in at most 0.34 s at n = 100, the neighbor construction at m = 47 over
# GF(5) being the slowest; q = {n} over Q takes 0.10 s at n = 250.
WITNESS_DIMENSION_LIMIT = 100


@dataclass(frozen=True)
class Witness:
    """A checkable refutation of closure: commuting x, y in the set and
    coefficients a, b with a*x + b*y outside it."""

    construction: str           # "power" | "neighbor" | "gap" | "enumerated"
    field: FieldSpec
    x: ExactMatrix
    y: ExactMatrix
    a: Scalar
    b: Scalar
    combo_partition: Partition
    violating_size: int
    note: str | None = None

    def combination(self) -> ExactMatrix:
        return self.x.scale(self.a) + self.y.scale(self.b)

    def to_json(self) -> dict:
        out = {
            "construction": self.construction,
            "field": str(self.field),
            "x": matrix_to_json(self.x),
            "y": matrix_to_json(self.y),
            "a": str(self.a),
            "b": str(self.b),
            "combo_partition": list(self.combo_partition.parts),
            "violating_size": self.violating_size,
        }
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class _Invariants:
    """What the checks read from a witness's matrices: whether x and y
    commute and the Jordan types of x, y and the combination, each None
    when that matrix is not nilpotent."""

    commute: bool
    x_type: Partition | None
    y_type: Partition | None
    combo_type: Partition | None


def _jordan_type(x: ExactMatrix) -> Partition | None:
    try:
        return jordan_partition(x)
    except NotNilpotent:
        return None


def _invariants(w: Witness) -> _Invariants:
    return _Invariants(w.x.commutator(w.y).is_zero, _jordan_type(w.x),
                       _jordan_type(w.y), _jordan_type(w.combination()))


def _check(w: Witness, inv: _Invariants, q: QSet) -> None:
    """Raise on the first invariant of w that fails for q."""
    if not inv.commute:
        raise InternalInconsistency("witness matrices do not commute")
    for name, jtype in (("x", inv.x_type), ("y", inv.y_type)):
        if jtype is None or not all(s in q for s in jtype.nonunit_sizes):
            raise InternalInconsistency(f"witness {name} is not in M({q})")
    part = inv.combo_type
    if part != w.combo_partition:
        raise InternalInconsistency(
            f"combination partition {part} != recorded {w.combo_partition}")
    if w.violating_size not in part.nonunit_sizes:
        raise InternalInconsistency(
            f"violating size {w.violating_size} absent from combination {part}")
    if w.violating_size in q or w.violating_size == 1:
        raise InternalInconsistency(
            f"violating size {w.violating_size} is admitted by {q}")


def verify_witness(w: Witness, q: QSet) -> None:
    """Recompute every invariant of the witness; raise on any failure."""
    _check(w, _invariants(w), q)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def build_coupled_cells(m: int, a: Scalar, b: Scalar,
                        spec: FieldSpec) -> ExactMatrix:
    """The 2m x 2m block matrix with blocks (a*J, I; 0, b*J) for a single
    size-m nilpotent cell J.  It commutes with diag(J, J); for nonzero a, b
    its cells are (m, m) when the geometric sum S_m(a, b) vanishes and
    (m+1, m-1) otherwise."""
    if m < 1:
        raise OutOfRange("cell size must be positive")
    if a.spec != spec or b.spec != spec:
        raise FieldMismatch("coefficients from a different field")
    zero, one = spec.zero(), spec.one()
    n2 = 2 * m
    rows = [[zero] * n2 for _ in range(n2)]
    for i in range(m - 1):
        rows[i][i + 1] = a
        rows[m + i][m + i + 1] = b
    for i in range(m):
        rows[i][m + i] = one
    return ExactMatrix(spec, rows)


def _neighbor_pair(m: int, eps: Scalar, n: int, spec: FieldSpec):
    """diag(J, J) for a size-m cell J and the coupled cells with a = 1,
    b = eps, both padded to dimension n."""
    cell = ExactMatrix.jordan_cell(spec, spec.zero(), m)
    return (ExactMatrix.block_diag(spec, [cell, cell], n),
            ExactMatrix.block_diag(
                spec, [build_coupled_cells(m, spec.one(), eps, spec)], n))


def _pick_violating(combo_part: Partition, q: QSet | None) -> int:
    sizes = sorted(combo_part.nonunit_sizes, reverse=True)
    if q is not None:
        for s in sizes:
            if s not in q:
                return s
    if sizes:
        return sizes[0]
    raise InternalInconsistency("combination has no non-unit cell")


def witness_power(m: int, k: int, n: int, spec: FieldSpec,
                  q: QSet | None = None) -> Witness:
    """x a single size-m cell, y = x + x^k (similar to x); y - x = x^k has
    the proven cells ``predicted_poly_partition(m, k)``, not recomputed."""
    if not 2 <= k <= m - 1:
        raise OutOfRange(f"need 2 <= k <= m-1, got k={k}, m={m}")
    if m > n:
        raise OutOfRange(f"cell size {m} exceeds dimension {n}")
    x = jordan_matrix(Partition([m]), n, spec)
    y = x + x.power(k)
    a = -spec.one()
    b = spec.one()
    combo_part = Partition([*predicted_poly_partition(m, k), *[1] * (n - m)])
    return Witness("power", spec, x, y, a, b, combo_part,
                   _pick_violating(combo_part, q))


def _char_free_part(m: int, char: int) -> int:
    while char > 1 and m % char == 0:
        m //= char
    return m


def _neighbor_field(m: int, n: int, char: int):
    """Working field plus a justification note for the surrogate case."""
    if char == 0:
        if m % 2 == 0:
            return rationals(), None
        p = surrogate_prime(n, m)
        note = (f"surrogate prime field GF({p}) realizes the characteristic-0 "
                f"verdict: p > n makes every power of p exceed n/2 + 1, and "
                f"GF({p}) holds the order-{m} roots of unity unavailable in Q")
        return galois(p), note
    mfree = _char_free_part(m, char)
    j = extension_for_roots(char, mfree)
    return galois(char, j), None


def witness_neighbor(m: int, n: int, char: int,
                     q: QSet | None = None) -> Witness:
    """Two commuting matrices with cells (m, m) whose combination has the
    proven cells (m+1, m-1).  Uses a nonidentity m-th root of unity e0 (so
    the size-m geometric sum S_m(1, e0) vanishes) and the least t making
    S_m(t+1, t+e0) nonzero; unavailable exactly when m is a power of the
    characteristic."""
    if m < 2:
        raise OutOfRange(f"need m >= 2, got {m}")
    if 2 * m > n:
        raise DimensionTooSmall(f"need 2m <= n, got m={m}, n={n}")
    if char > 0 and is_char_power(m, char):
        raise IsCharPower(f"{m} is a power of the characteristic {char}")
    spec, note = _neighbor_field(m, n, char)
    while True:
        one = spec.one()
        eps = next(r for r in roots_of_unity(spec, m) if r != one)
        # S_m(t+1, t+eps) is a nonzero polynomial in t of degree at most
        # m-1, so with t = -1 and t = -eps at most m+1 values of t are bad
        t = next((cand for cand in islice(spec.elements(), m + 2)
                  if not (cand + one).is_zero and not (cand + eps).is_zero
                  and not geometric_sum(m, cand + one, cand + eps).is_zero),
                 None)
        if t is not None:
            break
        if not spec.is_finite or spec.order >= m + 2:
            raise InternalInconsistency(
                f"no t among the first {m + 2} elements of {spec} makes "
                f"S_{m}(t+1, t+eps) nonzero")
        # finite field too small to dodge the bad t values
        spec = galois(spec.char, 2 * spec.degree)
    x, y = _neighbor_pair(m, eps, n, spec)
    combo_part = Partition([m + 1, m - 1] + [1] * (n - 2 * m))
    return Witness("neighbor", spec, x, y, t, one, combo_part,
                   _pick_violating(combo_part, q), note=note)


def _gap_pair(m: int, m1: int, n: int, spec: FieldSpec):
    """The pair (z1 + z2, z1) of the gap construction, padded to dimension
    n.  z1 and z2 are the two quotient operators, in the complement basis
    e_{1,1..m1-1}, e_{2,2..m2-1}, e_{1,m1}+e_{2,m2}, where e_{2,1} is
    identified with -e_{1,1}."""
    m2 = m + 2
    dim = m1 + m2 - 2
    zero, one = spec.zero(), spec.one()

    def idx1(k):                 # e_{1,k}, 1 <= k <= m1-1
        return k - 1

    def idx2(k):                 # e_{2,k}, 2 <= k <= m2-1
        return (m1 - 1) + (k - 2)

    top = dim - 1                # e_{1,m1} + e_{2,m2}
    z1 = [[zero] * dim for _ in range(dim)]
    for k in range(2, m1):
        z1[idx1(k - 1)][idx1(k)] = one
    z1[idx1(m1 - 1)][top] = one
    z2 = [[zero] * dim for _ in range(dim)]
    for k in range(3, m2):
        z2[idx2(k - 1)][idx2(k)] = one
    z2[idx1(1)][idx2(2)] = -one  # e_{2,1} = -e_{1,1} in the quotient
    z2[idx2(m2 - 1)][top] = one
    z1, z2 = ExactMatrix(spec, z1), ExactMatrix(spec, z2)
    return (ExactMatrix.block_diag(spec, [z1 + z2], n),
            ExactMatrix.block_diag(spec, [z1], n))


def witness_gap(m: int, m1: int, n: int, spec: FieldSpec,
                q: QSet | None = None) -> Witness:
    """Commuting x (cells {m, m1}) and y (cells {m1}) whose difference has
    the proven single non-unit cell of the otherwise unreachable size m+2."""
    if m < 1 or m1 <= m + 2:
        raise OutOfRange(f"need m >= 1 and m1 > m+2, got m={m}, m1={m1}")
    if m + m1 > n:
        raise OutOfRange(f"need m + m1 <= n, got m={m}, m1={m1}, n={n}")
    x, y = _gap_pair(m, m1, n, spec)
    combo_part = Partition([m + 2] + [1] * (n - m - 2))
    return Witness("gap", spec, x, y, spec.one(), -spec.one(), combo_part,
                   _pick_violating(combo_part, q))


def construction_pairs(n: int, spec: FieldSpec, q: QSet):
    """All neighbor- and gap-shaped commuting pairs over spec that fit
    (n, q): a neighbor pair for each m in q with 2m <= n and each m-th
    root of unity other than 1, then a gap pair for each m in {1} | q and
    m1 in q with m1 > m + 2 and m + m1 <= n."""
    one = spec.one()
    out = [_neighbor_pair(m, eps, n, spec)
           for m in q if 2 * m <= n
           for eps in roots_of_unity(spec, m) if eps != one]
    out += [_gap_pair(m, m1, n, spec)
            for m in sorted({1} | set(q.elements)) for m1 in q
            if m1 > m + 2 and m + m1 <= n]
    return out


# ---------------------------------------------------------------------------
# the falsification decision tree
# ---------------------------------------------------------------------------

def _plan(n: int, char: int, q: QSet):
    """The construction that covers a rejected q, as its builder and the
    full argument tuple.

    Rejections are covered in order: a missing size 2 yields a power
    witness; a maximal prefix that is not a characteristic power yields a
    neighbor witness at the first missing size; the remaining case (prefix
    a characteristic power with an element outside its window) yields a gap
    witness, after at most one halving step through a power witness.
    """
    base = rationals() if char == 0 else galois(char)
    m0 = 2
    while (m0 + 1) in q:
        m0 += 1
    if 2 not in q:
        return witness_power, (min(q), min(q) - 1, n, base)
    if m0 > n // 2:
        raise InternalInconsistency(
            f"criterion rejected q={q} despite prefix through {m0}")
    if not is_char_power(m0, char):
        return witness_neighbor, (m0, n, char)
    # the prefix anchor is a characteristic power, so some element escapes
    # its window [n - m0 + 2, 2*m0]
    lo, hi = n - m0 + 2, 2 * m0
    m1 = min(m for m in q if m > m0 and not lo <= m <= hi)
    half_lo, half_hi = m1 // 2, (m1 + 1) // 2
    if m1 < lo:
        # below the window: the gap construction manufactures size m0 + 1
        return witness_gap, (m0 - 1, m1, n, base)
    if half_lo not in q or half_hi not in q:
        return witness_power, (m1, 2, n, base)
    # both halves admitted; the lower half sits strictly between the prefix
    # and the window, so the gap construction applies to it
    return witness_gap, (m0 - 1, half_lo, n, base)


@lru_cache(maxsize=256)
def _core(build, args: tuple) -> tuple[Witness, _Invariants]:
    """The planned construction built for no particular q, with its
    invariants computed by direct computation."""
    w = build(*args)
    return w, _invariants(w)


def falsify(n: int, char: int, q: QSet) -> Witness | None:
    """None when the criterion accepts; otherwise a witness that has passed
    the checks of ``verify_witness`` for q (see the module docstring for
    what is computed once per construction and what on every call).  A
    rejected q with n above WITNESS_DIMENSION_LIMIT raises OutOfRange."""
    if check_criterion(n, char, q).accepted:
        return None
    if n > WITNESS_DIMENSION_LIMIT:
        raise OutOfRange(f"n={n} is above {WITNESS_DIMENSION_LIMIT}, the "
                         f"largest dimension at which a witness is built")
    core, inv = _core(*_plan(n, char, q))
    w = replace(core, violating_size=_pick_violating(core.combo_partition, q))
    _check(w, inv, q)
    return w
