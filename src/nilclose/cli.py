"""Command-line front end.

Subcommands: criterion, enumerate, partition, member, witness, verify,
decompose, cross-validate.  `--json` switches every command from aligned
human-readable text to the module serialization formats.  Exit codes:
0 success / oracle pass, 1 domain error, 2 oracle violation, 3 budget
exceeded, 64 usage error, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .criterion import (
    QSet,
    check_criterion,
    enumerate_valid_q,
    member_full,
    member_mq,
    MS_CLASSES,
)
from .errors import BudgetExceeded, NilcloseError
from .field import parse_field
from .jordan import jordan_chevalley, jordan_partition
from .matrices import load_matrix, matrix_to_json
from .witness import falsify

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 128 + 13         # as if killed by SIGPIPE


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(data) -> None:
    print(_json_text(data, "\n"))


def _json_text(o, newline: str) -> str:
    """The text of json.dumps(o, indent=2, sort_keys=True) for o whose
    dict keys are strings; its lines after the first start with newline, a
    line break and o's indent.  A list of strings is joined by the C string
    encoder; an element that is not a string raises TypeError there, and
    the list is written item by item instead."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        try:
            body = ("," + inner).join(map(_quote, o))
        except TypeError:
            body = ("," + inner).join([_json_text(v, inner) for v in o])
        return "[" + inner + body + newline + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + _json_text(v, inner)
            for k, v in sorted(o.items())]) + newline + "}"
    return json.dumps(o)


def _field_arg(text: str):
    try:
        return parse_field(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _degree_list(text: str) -> list[int]:
    try:
        degrees = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from exc
    if any(d < 1 for d in degrees):
        raise argparse.ArgumentTypeError(f"degrees must be positive: {text!r}")
    return degrees


def _int_at_least(least: int, words: str):
    """argparse type: an int >= least, else "must be <words>, got ..."."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from exc
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {words}, got {value}")
        return value
    return parse


_nonnegative_int = _int_at_least(0, "non-negative")
_positive_int = _int_at_least(1, "positive")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_criterion(args) -> int:
    q = QSet.parse(args.q, args.n)
    result = check_criterion(args.n, args.char, q)
    if args.json:
        _emit(result.to_json())
    elif result.accepted:
        if result.m0 is None:
            print("accept (empty set)")
        else:
            print(f"accept (m0={result.m0}, {result.branch})")
    else:
        print("reject")
        for r in result.reject_reasons:
            print(f"  m0={r.m0} ({r.branch}): {r.condition}, "
                  f"offending size {r.offending}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    valid = enumerate_valid_q(args.n, args.char)
    if args.json:
        _emit({"n": args.n, "char": args.char,
               "valid": [str(q) for q in valid]})
    else:
        for q in valid:
            print(str(q))
    return EXIT_OK


def _cmd_partition(args) -> int:
    x = load_matrix(args.input)
    part = jordan_partition(x)
    if args.json:
        _emit({"partition": list(part.parts)})
    else:
        print(str(part))
    return EXIT_OK


def _cmd_member(args) -> int:
    x = load_matrix(args.input)
    q = QSet.parse(args.q, x.n)
    if args.cls is None:
        verdict = member_mq(x, q)
    else:
        verdict = member_full(x, args.cls, q)
    if args.json:
        _emit({"member": verdict})
    else:
        print("true" if verdict else "false")
    return EXIT_OK


def _cmd_witness(args) -> int:
    q = QSet.parse(args.q, args.n)
    w = falsify(args.n, args.char, q)
    if w is None:
        if args.json:
            _emit({"verdict": "accept"})
        else:
            print("accept: no witness exists")
        return EXIT_OK
    if args.json:
        _emit(w.to_json())
    else:
        print(f"construction: {w.construction}")
        print(f"field: {w.field}")
        print(f"coefficients: a={w.a}, b={w.b}")
        print(f"combination partition: {w.combo_partition}")
        print(f"violating size: {w.violating_size}")
        if w.note:
            print(f"note: {w.note}")
        print("x =")
        print(str(w.x))
        print("y =")
        print(str(w.y))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .oracle import exhaustive_check, sampled_check   # imports numpy
    q = QSet.parse(args.q, args.n)
    if args.mode == "exhaustive":
        report = exhaustive_check(args.n, args.field, q, budget=args.budget)
    else:
        report = sampled_check(args.n, args.field, q, args.samples, args.seed)
    if args.json:
        _emit(report.to_json())
    else:
        print(f"{report.mode} check over {report.field}, n={report.n}, "
              f"q={{{report.q}}}: {report.outcome}")
        print(f"  matrices enumerated:  {report.matrices_enumerated}")
        print(f"  pairs tested:         {report.pairs_tested}")
        print(f"  combinations tested:  {report.combinations_tested}")
        if report.violation is not None:
            w = report.violation
            print(f"  violation: a={w.a}, b={w.b}, "
                  f"combination {w.combo_partition}, "
                  f"size {w.violating_size} not admitted")
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_decompose(args) -> int:
    x = load_matrix(args.input)
    s, u = jordan_chevalley(x)
    if args.json:
        _emit({"semisimple": matrix_to_json(s), "nilpotent": matrix_to_json(u)})
    else:
        print("semisimple part:")
        print(str(s))
        print("nilpotent part:")
        print(str(u))
    return EXIT_OK


def _cmd_cross_validate(args) -> int:
    from .oracle import cross_validate                     # imports numpy
    if args.q is None:
        q_range = "all"
    else:
        q_range = [QSet.parse(tok, args.n) for tok in args.q.split(";")]
    report = cross_validate(args.n, args.char, args.degrees, q_range,
                            budget=args.budget)
    if args.json:
        _emit(report.to_json())
    else:
        print(f"n={report.n}, char={report.char}, "
              f"degrees={list(report.degrees)}")
        print(f"  accepted sets: {len(report.accepted)} "
              f"({'; '.join(report.accepted)})")
        print(f"  rejected sets: {len(report.rejected)}, "
              f"all witnessed: {report.witnesses}")
        print(f"  oracle passes: {report.oracle_passes}")
        if report.skipped:
            print(f"  skipped (budget): {'; '.join(report.skipped)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="nilclose",
                     description="closure analysis of nilpotent matrix sets "
                                 "defined by admitted Jordan cell sizes")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, char=False, n=False, q=False):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        if n:
            p.add_argument("--n", type=_nonnegative_int, required=True,
                           help="matrix dimension")
        if char:
            p.add_argument("--char", type=int, required=True,
                           help="field characteristic (0 or a prime)")
        if q:
            p.add_argument("--q", required=True,
                           help="comma-separated cell sizes, or '-' for empty")

    p = sub.add_parser("criterion", help="decide closure for one q-set")
    common(p, char=True, n=True, q=True)
    p.set_defaults(handler=_cmd_criterion)

    p = sub.add_parser("enumerate", help="list all accepted q-sets")
    common(p, char=True, n=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("partition", help="Jordan partition of a matrix file")
    common(p)
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("member", help="membership of a matrix file")
    common(p)
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--q", required=True,
                   help="comma-separated cell sizes, or '-' for empty")
    p.add_argument("--class", dest="cls", choices=MS_CLASSES, default=None,
                   help="also require the semisimple part in this class")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("witness", help="counterexample for a rejected q-set")
    common(p, char=True, n=True, q=True)
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("verify", help="run the brute-force closure oracle")
    common(p, n=True, q=True)
    p.add_argument("--field", required=True, type=_field_arg,
                   help="field text, e.g. GF(5) or GF(2^2)")
    p.add_argument("--mode", choices=("exhaustive", "sampled"),
                   default="exhaustive")
    p.add_argument("--budget", type=_positive_int, default=5_000_000,
                   help="span-size budget for exhaustive mode")
    p.add_argument("--samples", type=_nonnegative_int, default=200,
                   help="random pairs in sampled mode")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("decompose",
                       help="semisimple plus nilpotent decomposition")
    common(p)
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("cross-validate",
                       help="criterion vs oracle vs witnesses")
    common(p, char=True, n=True)
    p.add_argument("--degrees", type=_degree_list, default="1",
                   help="comma-separated extension degrees (default 1)")
    p.add_argument("--q", default=None,
                   help="semicolon-separated q-sets (default: all subsets)")
    p.add_argument("--budget", type=_positive_int, default=5_000_000)
    p.set_defaults(handler=_cmd_cross_validate)

    return parser


@lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser behind ``main``, built once per process: building all
    eight subparsers costs about as much as a small command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null
        # device, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except BudgetExceeded as exc:
        print(f"BudgetExceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NilcloseError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
