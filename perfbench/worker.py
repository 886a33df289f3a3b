"""One cold pass of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
                                [--trace] [--verified-digest HEX]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from there to the start of the first item,
so it covers interpreter start, ``import nilclose`` and input generation.
The timed loop runs every item once with the program's caches starting
empty, as they do for every CLI user.  The correctness gate, the output
digest and the oracle's derived ratios are computed after the loop, outside
the timed region, with tracing removed; ``--verified-digest`` names the
digest of an earlier pass that passed the gate, and a pass whose outputs have
that digest skips it.  The last line of standard output is one JSON object
describing the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import numpy  # noqa: E402  (already imported by nilclose.oracle)

import nilclose  # noqa: E402
from nilclose import cli, criterion, field, jordan, matrices, oracle, witness  # noqa: E402

from tracer import COUNT_NAMES, SPAN_NAMES, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# oracle_sweep: exhaustive_check for every Q at n=4 over GF(5)
# ---------------------------------------------------------------------------

ORACLE_N = 4
ORACLE_BUDGET = 20_000_000


def oracle_inputs(seed):
    # The 8 sets are the whole input space at n=4.  They stay in canonical
    # order for every seed so that the closure-cache fill always lands on
    # the same items.
    del seed
    spec = field.galois(5)
    return [(spec, q) for q in criterion.all_qsets(ORACLE_N)]


def oracle_run(item):
    spec, q = item
    return oracle.exhaustive_check(ORACLE_N, spec, q, budget=ORACLE_BUDGET)


def oracle_check(item, report):
    spec, q = item
    accepted = criterion.check_criterion(ORACLE_N, spec.char, q).accepted
    if report.passed != accepted:
        return f"oracle outcome {report.outcome} but criterion accepted={accepted}"
    if not report.passed:
        if report.violation is None:
            return "violation outcome without a witness"
        witness.verify_witness(report.violation, q)
    return None


def oracle_record(item, report):
    return {"q": str(item[1]), "report": report.to_json()}


# ---------------------------------------------------------------------------
# witness_sweep: falsify for every Q with n=2..8 in chars 0, 2, 3
# ---------------------------------------------------------------------------

def witness_sweep_inputs(seed):
    items = [(n, char, q) for n in range(2, 9) for char in (0, 2, 3)
             for q in criterion.all_qsets(n)]
    random.Random(seed).shuffle(items)
    return items


def witness_sweep_run(item):
    return witness.falsify(*item)


def _check_witness(accepted, q, w):
    """The witness is present exactly when q is rejected, and a present
    witness passes the program's full re-verification (commuting x, y in
    M(q), recomputed combination partition, violating size not in q)."""
    if (w is not None) == accepted:
        return (f"witness present={w is not None} but criterion "
                f"accepted={accepted}")
    if w is not None:
        witness.verify_witness(w, q)    # raises on any wrong invariant
    return None


def witness_sweep_check(item, w):
    n, char, q = item
    return _check_witness(criterion.check_criterion(n, char, q).accepted,
                          q, w)


def witness_sweep_record(item, w):
    n, char, q = item
    return {"n": n, "char": char, "q": str(q),
            "witness": None if w is None else w.to_json()}


# ---------------------------------------------------------------------------
# witness_large: `nilclose witness --n 26 --json` through cli.main
# ---------------------------------------------------------------------------

LARGE_N = 26


def _large_family():
    family = []
    for char in (0, 2, 3, 5):
        for m in (5, 7, 9, 11, 13):         # neighbor, up to GF(2^12), GF(5^6)
            family.append((char, ",".join(map(str, range(2, m + 1)))))
        for m in (5, 9, 13):                # power
            family.append((char, str(m)))
    for m1 in (5, 9, 13):                   # gap, char 2
        family.append((2, f"2,{m1}"))
    for m1 in (7, 10, 13):
        family.append((2, f"2,3,4,{m1}"))
    return family


def witness_large_inputs(seed):
    items = _large_family()
    random.Random(seed).shuffle(items)
    return items


def witness_large_run(item):
    char, qtext = item
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["witness", "--n", str(LARGE_N), "--char", str(char),
                         "--q", qtext, "--json"])
    return code, buf.getvalue()


def witness_large_check(item, out):
    char, qtext = item
    code, text = out
    if code != 0:
        return f"exit code {code}"
    data = json.loads(text)
    q = criterion.QSet.parse(qtext, LARGE_N)
    accepted = criterion.check_criterion(LARGE_N, char, q).accepted
    return _check_witness(accepted, q, witness_from_json(data))


def witness_from_json(data):
    """The Witness printed by `nilclose witness --json`, rebuilt with the
    program's parsers; None for an accept verdict."""
    if data.get("verdict") == "accept":
        return None
    spec = field.parse_field(data["field"])
    return witness.Witness(
        construction=data["construction"], field=spec,
        x=matrices.matrix_from_json(data["x"]),
        y=matrices.matrix_from_json(data["y"]),
        a=spec.parse_scalar(data["a"]), b=spec.parse_scalar(data["b"]),
        combo_partition=jordan.Partition(data["combo_partition"]),
        violating_size=data["violating_size"])


def witness_large_record(item, out):
    return {"char": item[0], "q": item[1], "exit": out[0], "stdout": out[1]}


# ---------------------------------------------------------------------------
# structure_mixed: Jordan-Chevalley on random matrices, polynomials of a cell
# ---------------------------------------------------------------------------

STRUCTURE_DIMS = range(3, 8)
STRUCTURE_PER_CELL = 6          # matrices per (field, n)
POLY_MAX_M = 10


def structure_inputs(seed):
    rng = random.Random(seed)
    items = []
    for spec in (field.rationals(), field.galois(7), field.galois(2, 2)):
        for n in STRUCTURE_DIMS:
            for _ in range(STRUCTURE_PER_CELL):
                if spec.is_finite:
                    rows = [[spec.element_from_index(rng.randrange(spec.order))
                             for _ in range(n)] for _ in range(n)]
                    x = matrices.ExactMatrix(spec, rows)
                else:
                    x = matrices.ExactMatrix.from_ints(
                        spec, [[rng.randint(-2, 2) for _ in range(n)]
                               for _ in range(n)])
                items.append(("jc", x))
    q_field = field.rationals()
    for m in range(1, POLY_MAX_M + 1):
        cell = matrices.ExactMatrix.jordan_cell(q_field, q_field.zero(), m)
        for k in range(1, m + 1):
            coeffs = ([0] * k + [rng.randint(1, 4)]
                      + [rng.randint(-3, 3) for _ in range(3)])
            items.append(("poly", m, k, field.Poly.from_ints(q_field, coeffs),
                          cell))
    rng.shuffle(items)
    return items


def structure_run(item):
    if item[0] == "jc":
        s, u = jordan.jordan_chevalley(item[1])
        return s, u, jordan.jordan_partition(u)
    _, _, _, f, cell = item
    return jordan.jordan_partition(matrices.poly_eval(f, cell))


def structure_check(item, out):
    if item[0] == "jc":
        x = item[1]
        s, u, part = out
        if s + u != x:
            return "s + u != x"
        if not s.commutator(u).is_zero:
            return "s and u do not commute"
        if part.total != x.n:
            return f"partition {part} of the nilpotent part is not of {x.n}"
        # s is semisimple iff the squarefree part of x's minimal polynomial
        # (separable over these perfect fields) annihilates it
        f1 = jordan.squarefree_part(matrices.minimal_polynomial(x))
        if not matrices.poly_eval(f1, s).is_zero:
            return "s is not semisimple"
        if not u.power(x.n).is_zero:
            return "u is not nilpotent"
        return None
    _, m, k, _, _ = item
    expected = jordan.predicted_poly_partition(m, k)
    if out != expected:
        return f"f(J_{m}) with valuation {k}: {out} != predicted {expected}"
    return None


def structure_record(item, out):
    if item[0] == "jc":
        s, u, part = out
        return {"x": matrices.matrix_to_json(item[1]),
                "s": matrices.matrix_to_json(s),
                "u": matrices.matrix_to_json(u),
                "partition": list(part.parts)}
    _, m, k, f, _ = item
    return {"m": m, "k": k, "f": str(f), "partition": list(out.parts)}


# name -> (inputs, run, check, record, digest depends on the seed)
WORKLOADS = {
    "oracle_sweep": (oracle_inputs, oracle_run, oracle_check, oracle_record,
                     False),
    "witness_sweep": (witness_sweep_inputs, witness_sweep_run,
                      witness_sweep_check, witness_sweep_record, False),
    "witness_large": (witness_large_inputs, witness_large_run,
                      witness_large_check, witness_large_record, False),
    "structure_mixed": (structure_inputs, structure_run, structure_check,
                        structure_record, True),
}


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

def gate(check, items, outputs):
    """Failure messages of the correctness gate; an item that raised counts
    as failed with the exception as its message."""
    failures = []
    for i, (item, out) in enumerate(zip(items, outputs)):
        if isinstance(out, BaseException):
            failures.append(f"item {i}: {type(out).__name__}: {out}")
            continue
        try:
            problem = check(item, out)
        except Exception as exc:  # malformed output fails its item
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"item {i}: {problem}")
    return failures


def output_digest(record, items, outputs):
    """SHA-256 of the canonical JSON of every item's output, sorted so that
    the order the seed shuffles items into does not matter."""
    lines = sorted(
        json.dumps({"error": type(out).__name__} if isinstance(out, BaseException)
                   else record(item, out), sort_keys=True,
                   separators=(",", ":"))
        for item, out in zip(items, outputs))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def closure_keys(items, outputs):
    """The (field, n, partition) closure-table keys exhaustive_check asks
    for, in order: admissible partitions up to the one whose Jordan matrix
    is the reported violation's x."""
    keys = []
    for (spec, q), report in zip(items, outputs):
        if isinstance(report, BaseException):
            continue
        for p in oracle.admissible_partitions(ORACLE_N, q):
            keys.append((str(spec), ORACLE_N, p.parts))
            if (report.violation is not None
                    and jordan.jordan_matrix(p, ORACLE_N, spec)
                    == report.violation.x):
                break
    return keys


def run_pass(workload, seed, spawned, trace, verified_digest=None):
    make_inputs, run, check, record, seeded = WORKLOADS[workload]
    items = make_inputs(seed)
    setup_s = time.monotonic() - spawned
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    outputs, latencies = [], []
    clock = time.perf_counter
    first = clock()
    for item in items:
        start = clock()
        try:
            out = run(item)
        except Exception as exc:  # a failed item is counted, not fatal
            out = exc
        latencies.append(clock() - start)
        outputs.append(out)
    run_s = clock() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    digest = output_digest(record, items, outputs)
    # The digest covers every item with its whole output, so outputs equal
    # to those of a pass of this run that passed the gate pass it too.
    failures = [] if digest == verified_digest else gate(check, items, outputs)
    for message in failures[:5]:
        print(f"{workload}: {message}", file=sys.stderr)
    result = {
        "items": len(items),
        "failed": len(failures),
        "run_s": run_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": latencies,
        "digest": digest,
        "digest_seeded": seeded,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nilclose": nilclose.__version__,
        "oracle_budget": ORACLE_BUDGET,
    }
    if workload == "oracle_sweep":
        keys = closure_keys(items, outputs)
        result["closure_keys"] = len(keys)
        result["closure_repeats"] = len(keys) - len(set(keys))
    if tracer is not None:
        result.update(trace_summary(tracer))
    return result


def trace_summary(tracer):
    """Per-span call counts and self times, and the counters, by name."""
    return {"calls": {name: tracer.calls[name] for name in SPAN_NAMES},
            "self_s": {name: tracer.self_s[name] for name in SPAN_NAMES},
            "counts": {name: tracer.counts[name] for name in COUNT_NAMES}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--verified-digest",
                        help="output digest of a pass of the same workload "
                             "and seed that passed the gate")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.spawned, args.trace,
                      args.verified_digest)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
