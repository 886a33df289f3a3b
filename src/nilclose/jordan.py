"""Nilpotent structure theory: Jordan partitions from the defects of the
powers, read off the ranks of the row-space chain R_k = R_(k-1) x that
``matrices._power_ranks`` reduces without forming any power, the closed
form for the Jordan type of a polynomial in a single nilpotent cell,
semisimplicity testing and the Jordan-Chevalley decomposition over Q and
GF(p^k).  No row reduction is written here."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .errors import (
    InseparableMinimalPolynomial,
    InternalInconsistency,
    NotNilpotent,
    OutOfRange,
    PartitionTooLarge,
)
from .field import FieldSpec, Poly
from .matrices import (ExactMatrix, _power_ranks, minimal_polynomial,
                       poly_eval)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Partition:
    """Multiset of positive cell sizes, stored sorted descending."""

    parts: tuple[int, ...]

    def __init__(self, parts):
        parts = tuple(sorted(parts, reverse=True))
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    @property
    def nonunit_sizes(self) -> frozenset[int]:
        """The distinct cell sizes of at least 2."""
        return frozenset(p for p in self.parts if p > 1)


def _defect_chain(x: ExactMatrix):
    """Defects [def(x^1), ..., def(x^h)] of the powers up to the nilpotency
    index h, so def(x^h) = n, from the ranks of the row-space chain.
    Raises NotNilpotent when the rank stops falling above 0."""
    n = dim = x.n
    defects = []
    for r in _power_ranks(x):
        if r == dim:
            raise NotNilpotent(f"matrix of size {n} with nonzero {n}-th power")
        defects.append(n - r)
        dim = r
    return defects


def jordan_partition(x: ExactMatrix) -> Partition:
    """Cell sizes recovered from the defect sequence of the powers:
    the number of cells of size >= p is def(x^p) - def(x^(p-1))."""
    return partition_from_defects(_defect_chain(x))


def partition_from_defects(defects) -> Partition:
    """Cell sizes from the defects [def(x^1), ..., def(x^h)] of the powers
    of a nilpotent matrix, the last one equal to its dimension."""
    counts = []
    prev = 0
    for d in defects:
        counts.append(d - prev)
        prev = d
    counts.append(0)
    parts = []
    for size in range(len(defects), 0, -1):
        parts.extend([size] * (counts[size - 1] - counts[size]))
    return Partition(parts)


def jordan_matrix(p: Partition, n: int, spec: FieldSpec) -> ExactMatrix:
    """Block-diagonal nilpotent matrix with the given cell sizes, padded by
    1-cells (zeros) to dimension n."""
    if p.total > n:
        raise PartitionTooLarge(f"partition {p} does not fit in dimension {n}")
    zero = spec.zero()
    cells = [ExactMatrix.jordan_cell(spec, zero, m) for m in p.parts]
    return ExactMatrix.block_diag(spec, cells, n)


def predicted_poly_partition(m: int, k: int) -> Partition:
    """Jordan type of f(J) for a size-m nilpotent cell J and any polynomial f
    whose lowest nonzero term has degree k: exactly k cells, r of size q+1 and
    k-r of size q, where q = m // k and r = m - k*q."""
    if not 1 <= k <= m:
        raise OutOfRange(f"need 1 <= k <= m, got k={k}, m={m}")
    q, r = divmod(m, k)
    return Partition([q + 1] * r + [q] * (k - r))


# ---------------------------------------------------------------------------
# semisimplicity and Jordan-Chevalley decomposition
# ---------------------------------------------------------------------------

def _pth_root_poly(f: Poly) -> Poly:
    """Inverse Frobenius on a polynomial with vanishing derivative:
    f(t) = g(t^p) maps to g with p-th roots taken coefficient-wise."""
    spec = f.spec
    p = spec.char
    root_exp = p ** (spec.degree - 1)  # a -> a^(p^(k-1)) inverts a -> a^p
    return Poly._of(spec, [spec.ops.pow(c, root_exp) for c in f.vals[::p]])


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors.

    In characteristic p a vanishing derivative means f is a polynomial in
    t^p; coefficient-wise p-th roots (exact on these perfect fields) reduce
    the degree and the recursion continues.
    """
    f = f.monic()
    if f.degree <= 0:
        return Poly.one(f.spec)
    d = f.derivative()
    if d.is_zero:
        return squarefree_part(_pth_root_poly(f))
    g = f.gcd(d)
    if g.degree == 0:
        return f
    w = f // g
    r = squarefree_part(g)
    return ((w * r) // w.gcd(r)).monic()


def is_semisimple(x: ExactMatrix) -> bool:
    """True iff the minimal polynomial is squarefree (diagonalizable over
    the algebraic closure)."""
    f = minimal_polynomial(x)
    return squarefree_part(f) == f


def jordan_chevalley(x: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    """Unique decomposition x = s + u with s semisimple, u nilpotent and
    [s, u] = 0, both polynomials in x.

    A squarefree minimal polynomial means x is semisimple: (x, 0) returns
    with no evaluation.  Otherwise Newton iteration on the squarefree part
    f1 of the minimal polynomial: S <- S - f1(S) * g(S) with g the inverse
    of f1' modulo f1, starting at x, stopping at the first S with
    f1(S) = 0, after which every step would return S.  Quadratic
    convergence reaches it within ceil(log2 n) + 1 corrections; raises
    InternalInconsistency if it has not.  Logs one debug line.
    """
    n, spec = x.n, x.spec
    mu = minimal_polynomial(x)
    f1 = squarefree_part(mu)
    if f1 == mu:
        _log.debug("jordan-chevalley n=%d over %s: semisimple", n, spec)
        return x, ExactMatrix.zeros(spec, n)
    gcd_fd, g = f1.xgcd(f1.derivative())  # g * f1' = 1 modulo f1
    if gcd_fd.degree != 0:
        raise InseparableMinimalPolynomial(
            f"squarefree part {f1} shares a factor with its derivative")
    g = g % f1
    steps = math.ceil(math.log2(n)) + 1
    s, k = x, 0
    while not (fs := poly_eval(f1, s)).is_zero:
        if k == steps:
            raise InternalInconsistency(
                f"f1(S) is nonzero after {steps} Newton corrections")
        s, k = s - fs * poly_eval(g, s), k + 1
    _log.debug("jordan-chevalley n=%d over %s: Newton corrections %d",
               n, spec, k)
    return s, x - s
