"""Closure analysis of nilpotent matrix sets defined by admitted Jordan
cell sizes, with exact arithmetic over Q and GF(p^k), constructive
counterexamples and a brute-force verification oracle.

The ``nilclose`` logger is silent unless the application configures it;
the oracle logs one debug line per closure table it builds and
``jordan_chevalley`` one per decomposition, on ``nilclose.jordan``.

The oracle names are served on first use (PEP 562), so that importing the
package, or running a CLI command that needs no oracle, does not import
numpy."""

import logging

from .criterion import (
    CriterionResult,
    QSet,
    RejectReason,
    all_qsets,
    anchor_candidates,
    check_criterion,
    enumerate_valid_q,
    is_char_power,
    member_full,
    member_mq,
    member_ms,
)
from .errors import NilcloseError
from .field import (
    FieldSpec,
    Poly,
    Scalar,
    extension_for_roots,
    galois,
    geometric_sum,
    parse_field,
    rationals,
    roots_of_unity,
    surrogate_prime,
)
from .jordan import (
    Partition,
    is_semisimple,
    jordan_chevalley,
    jordan_matrix,
    jordan_partition,
    predicted_poly_partition,
    squarefree_part,
)
from .matrices import (
    ExactMatrix,
    centralizer_basis,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    minimal_polynomial,
    poly_eval,
    rank,
)
from .witness import (
    Witness,
    build_coupled_cells,
    falsify,
    verify_witness,
    witness_gap,
    witness_neighbor,
    witness_power,
)

__all__ = [
    "CriterionResult", "QSet", "RejectReason", "all_qsets",
    "anchor_candidates", "check_criterion", "enumerate_valid_q",
    "is_char_power", "member_full", "member_mq", "member_ms",
    "NilcloseError",
    "FieldSpec", "Poly", "Scalar", "extension_for_roots",
    "galois", "geometric_sum", "parse_field",
    "rationals", "roots_of_unity", "surrogate_prime",
    "Partition", "is_semisimple", "jordan_chevalley", "jordan_matrix",
    "jordan_partition", "predicted_poly_partition", "squarefree_part",
    "ExactMatrix", "centralizer_basis", "load_matrix", "matrix_from_json",
    "matrix_to_json", "minimal_polynomial", "poly_eval", "rank",
    "CrossValidationReport", "OracleReport", "admissible_partitions",
    "centralizer_dimension", "cross_validate", "exhaustive_check",
    "sampled_check",
    "Witness", "build_coupled_cells", "falsify", "verify_witness",
    "witness_gap", "witness_neighbor", "witness_power",
]

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset({
    "CrossValidationReport", "OracleReport", "admissible_partitions",
    "centralizer_dimension", "cross_validate", "exhaustive_check",
    "sampled_check",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

logging.getLogger("nilclose").addHandler(logging.NullHandler())
