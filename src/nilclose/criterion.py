"""The decidable classification of closed nilpotent cell-size sets.

A set Q of cell sizes is accepted exactly when some anchor size m0 in
{2, ..., floor(n/2)+1}, equal to floor(n/2)+1 or to a power of the
characteristic, satisfies: Q contains 2..m0 and every larger element of Q
lies in the window [n - m0 + 2, 2*m0].
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    BoundExceeded,
    InvalidQ,
    NonPrimeChar,
    NotNilpotent,
    OutOfRange,
)
from .field import is_prime
from .jordan import is_semisimple, jordan_chevalley, jordan_partition
from .matrices import ExactMatrix

MS_CLASSES = ("zero", "scalars", "semisimple", "semisimple_traceless")

# reject reason tags
MISSING_PREFIX = "missing_prefix"   # Q lacks one of 2..m0
OUT_OF_WINDOW = "out_of_window"     # an element above m0 escapes the window


@dataclass(frozen=True)
class QSet:
    """Sorted subset of {2, ..., n} of admitted non-unit cell sizes."""

    elements: tuple[int, ...]
    n: int

    def __init__(self, elements, n: int):
        elements = tuple(sorted(set(elements)))
        for m in elements:
            if not 2 <= m <= n:
                raise InvalidQ(f"element {m} outside {{2, ..., {n}}}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "n", n)

    def __contains__(self, m: int) -> bool:
        return m in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __str__(self):
        return ",".join(str(m) for m in self.elements) if self.elements else "-"

    @classmethod
    def parse(cls, text: str, n: int) -> "QSet":
        text = text.strip()
        if text in ("-", ""):
            return cls((), n)
        try:
            elements = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise InvalidQ(f"unparsable cell-size set {text!r}") from exc
        return cls(elements, n)


@dataclass(frozen=True)
class RejectReason:
    """Why one candidate anchor fails: the condition tag plus the offender."""

    m0: int
    branch: str
    condition: str          # MISSING_PREFIX or OUT_OF_WINDOW
    offending: int


@dataclass(frozen=True)
class CriterionResult:
    verdict: str            # "accept" | "reject"
    m0: int | None = None
    branch: str | None = None           # "half_n" | "char_power" | "empty"
    reject_reasons: tuple[RejectReason, ...] = ()

    @property
    def accepted(self) -> bool:
        return self.verdict == "accept"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict}
        if self.accepted:
            if self.m0 is not None:
                out["m0"] = self.m0
            out["branch"] = self.branch
        else:
            out["reject_reasons"] = [
                {"m0": r.m0, "branch": r.branch,
                 "condition": r.condition, "offending": r.offending}
                for r in self.reject_reasons
            ]
        return out


def is_char_power(m: int, char: int) -> bool:
    """True iff m = char^k for some k >= 1."""
    if char <= 1 or m < char:
        return False
    while m % char == 0:
        m //= char
    return m == 1


def _validate_char(char: int) -> None:
    try:
        if char == 0 or is_prime(char):
            return
    except ValueError as exc:
        raise NonPrimeChar(f"characteristic {exc}") from exc
    raise NonPrimeChar(f"characteristic {char} is neither 0 nor prime")


def anchor_candidates(n: int, char: int) -> list[tuple[int, str]]:
    """All admissible anchors (m0, branch) in ascending order: the powers
    of the characteristic below floor(n/2) + 1, then floor(n/2) + 1 itself
    if it is at least 2.  There are O(log n) of them."""
    half = n // 2 + 1
    out = []
    m = char
    while 1 < m < half:
        out.append((m, "char_power"))
        m *= char
    if half >= 2:
        out.append((half, "half_n"))
    return out


def check_criterion(n: int, char: int, q: QSet) -> CriterionResult:
    """Decide whether the nilpotent matrices with cell sizes in q (plus 1)
    are closed under spans of commuting pairs over a field of the given
    characteristic.  The anchor m0 is existential: all candidates are tried
    in ascending order and the first success is reported."""
    _validate_char(char)
    if n < 0:
        raise OutOfRange(f"dimension must be non-negative, got {n}")
    if q.n != n:
        raise InvalidQ(f"q has ambient dimension {q.n}, expected {n}")
    if len(q) == 0:
        # only the zero matrix: always closed, no anchor involved
        return CriterionResult("accept", m0=None, branch="empty")
    reasons = []
    for m0, branch in anchor_candidates(n, char):
        reason = None
        for need in range(2, m0 + 1):
            if need not in q:
                reason = RejectReason(m0, branch, MISSING_PREFIX, need)
                break
        if reason is None:
            lo, hi = n - m0 + 2, 2 * m0
            for m in q:
                if m > m0 and not lo <= m <= hi:
                    reason = RejectReason(m0, branch, OUT_OF_WINDOW, m)
                    break
        if reason is None:
            return CriterionResult("accept", m0=m0, branch=branch)
        reasons.append(reason)
    return CriterionResult("reject", reject_reasons=tuple(reasons))


# all_qsets holds all 2^(n-1) subsets in memory at once
ENUMERATION_LIMIT = 20


def all_qsets(n: int):
    """Every subset of {2, ..., n} in lexicographic order of the sorted
    tuple; BoundExceeded above ENUMERATION_LIMIT."""
    if n > ENUMERATION_LIMIT:
        raise BoundExceeded(
            f"n={n} exceeds the enumeration bound {ENUMERATION_LIMIT}")
    universe = list(range(2, n + 1))
    subsets = []
    for size in range(len(universe) + 1):
        subsets.extend(combinations(universe, size))
    subsets.sort()
    return [QSet(s, n) for s in subsets]


def enumerate_valid_q(n: int, char: int) -> list[QSet]:
    """All accepted q-sets, in lexicographic order."""
    _validate_char(char)
    return [q for q in all_qsets(n) if check_criterion(n, char, q).accepted]


# ---------------------------------------------------------------------------
# membership predicates
# ---------------------------------------------------------------------------

def member_mq(x: ExactMatrix, q: QSet) -> bool:
    """True iff x is nilpotent with every non-unit cell size in q."""
    try:
        sizes = jordan_partition(x).nonunit_sizes
    except NotNilpotent:
        return False
    return all(s in q for s in sizes)


def member_ms(x: ExactMatrix, cls: str) -> bool:
    """Membership in one of the four closed classes of semisimple matrices."""
    if cls == "zero":
        return x.is_zero
    if cls == "scalars":
        return x.n == 0 or x == ExactMatrix.identity(
            x.spec, x.n).scale(x.rows[0][0])
    if cls == "semisimple":
        return is_semisimple(x)
    if cls == "semisimple_traceless":
        return is_semisimple(x) and x.trace().is_zero
    raise ValueError(f"unknown class {cls!r}")


def member_full(x: ExactMatrix, cls: str, q: QSet) -> bool:
    """Membership in the product set: semisimple part in the named class,
    nilpotent part with cell sizes in q."""
    s, u = jordan_chevalley(x)
    return member_ms(s, cls) and member_mq(u, q)
