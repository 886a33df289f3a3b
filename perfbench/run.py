"""The nilclose benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each pass runs one workload's whole
input set once in a fresh interpreter (perfbench/worker.py), so the
program's caches start empty as they do for every CLI user.  Passes run one
at a time, with BLAS/OpenMP threads pinned to 1, until the next pass would
end after ``--seconds``; at least two passes always run.  Set-up time is the
median of the passes' own set-up times.

With ``--trace 0`` the passes are untraced and the result holds the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate and the result holds the per-layer metrics (perfbench/tracer.py),
including the tracing overhead.  The workloads, their item counts, the
predicted layer -> metric -> workload links, the recorded output digests
and the baselines are in perfbench/reference.json.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it records provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PROGRAM = os.path.join(ROOT, "src", "nilclose")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("oracle_sweep", "witness_sweep", "witness_large",
             "structure_mixed")
MIN_PASSES = 2
REFERENCE_SEED = 0          # seed of the recorded seed-dependent digests
HARD_LIMIT_S = 150          # start no pass that would end after this
CHILD_TIMEOUT_S = 170

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(run_start, *args):
    """Run one worker to completion and return its result."""
    timeout = max(1.0, CHILD_TIMEOUT_S - (time.monotonic() - run_start))
    spawned = time.monotonic()
    with subprocess.Popen(
            [sys.executable, WORKER, "--spawned", repr(spawned), *args],
            stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException as exc:    # timeout, SIGTERM or interrupt
            proc.kill()
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise WorkerFailed(f"worker {' '.join(args)} timed out")
            raise
    if proc.returncode != 0:
        raise WorkerFailed(
            f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def pass_spawner(run_start, base):
    """Spawn passes of one workload and seed.  Once a pass has passed the
    correctness gate, later passes skip it when their output digest, which
    covers every item's whole output, is that pass's."""
    verified = []

    def one(*extra):
        if verified:
            extra += ("--verified-digest", verified[0])
        result = spawn(run_start, *base, *extra)
        if not verified and result["failed"] == 0:
            verified.append(result["digest"])
        return result
    return one


def tail_percentile(items):
    """Highest whole percentile with at least ten samples beyond its
    nearest-rank value; 100 (the maximum) when there are ten items or
    fewer."""
    if items <= 10:
        return 100
    return 100 * (items - 10) // items


def percentile(values, pct):
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)        # nearest rank, 1-based
    return ordered[max(rank, 1) - 1]


def run_passes(run_start, seconds, make_pass, min_passes):
    """Repeat make_pass until the next one would end after ``seconds``."""
    done, longest = [], 0.0
    while True:
        began = time.monotonic()
        done.append(make_pass())
        longest = max(longest, time.monotonic() - began)
        elapsed = time.monotonic() - run_start
        if elapsed + longest > HARD_LIMIT_S:
            break
        if len(done) >= min_passes and elapsed + longest > seconds:
            break
    return done


def end_to_end(passes):
    """The gated metrics, plus item latency percentiles for provenance.

    Every pass runs the same items in the same order, so an item's latency
    is its median over the passes; percentiles over items use the nearest
    rank.  Item percentiles are not gated: oracle_sweep's median item is a
    ~1 ms closure-cache hit and witness_large has 38 items in two passes,
    and both spread across seeds by more than any bound a regression check
    could use on a shared 2-vCPU Xeon VM whose speed drifts by a quarter
    over minutes.
    """
    items = passes[0]["items"]
    pct = tail_percentile(items)
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    median = statistics.median
    latencies = [median(column) * 1000
                 for column in zip(*(p["latencies_s"] for p in passes))]
    metrics = {
        "run_s": (median(p["run_s"] for p in passes), "s"),
        "setup_s": (median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    item_latency = {
        "item_p50_ms": percentile(latencies, 50),
        "item_tail_ms": percentile(latencies, pct),
        "tail_percentile": pct,
        "tail_samples_beyond": items - -(-pct * items // 100),
    }
    return metrics, item_latency


def per_layer(untraced, traced, digest_changed):
    first = traced[0]
    median = statistics.median
    metrics = {}
    for name, calls in first["calls"].items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (median(p["self_s"][name] for p in traced),
                                     "s")
    for name, value in first["counts"].items():
        metrics[name] = (value, "count")
    counts = first["counts"]
    enumerated = counts["oracle.matrices_enumerated"]
    metrics["oracle.kept_ratio"] = (
        counts["oracle.pairs_tested"] / enumerated if enumerated else 0.0,
        "ratio")
    keys = first.get("closure_keys", 0)
    metrics["oracle.closure_reuse_ratio"] = (
        first["closure_repeats"] / keys if keys else 0.0, "ratio")
    metrics["trace_overhead_s"] = (
        median(p["run_s"] for p in traced)
        - median(p["run_s"] for p in untraced), "s")
    metrics["output.digest_changed"] = (digest_changed, "flag")
    return metrics


def source_sha256():
    """SHA-256 over the program's source files: the identity of the code
    measured, also in a checkout that is not a git repository."""
    paths = sorted(os.path.join(dirpath, name)
                   for dirpath, _, names in os.walk(PROGRAM)
                   if "__pycache__" not in dirpath for name in names)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description="nilclose benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(PROGRAM, "__init__.py")):
        print(f"perfbench: no nilclose sources under {PROGRAM}",
              file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    run_start = time.monotonic()
    one_pass = pass_spawner(
        run_start, ("--workload", args.workload, "--seed", str(args.seed)))
    try:
        if args.trace:
            pairs = run_passes(
                run_start, args.seconds,
                lambda: (one_pass(), one_pass("--trace")), 1)
            untraced = [u for u, _ in pairs]
            traced = [t for _, t in pairs]
            passes = untraced + traced
            digest = traced[0]["digest"]
            if traced[0]["digest_seeded"] and args.seed != REFERENCE_SEED:
                ref_pass = spawn(run_start, "--workload", args.workload,
                                 "--seed", str(REFERENCE_SEED))
                passes.append(ref_pass)
                digest = ref_pass["digest"]
            changed = int(digest != reference["digests"].get(args.workload))
            metrics = per_layer(untraced, traced, changed)
            item_latency = {}
        else:
            passes = run_passes(run_start, args.seconds, one_pass,
                                MIN_PASSES)
            metrics, item_latency = end_to_end(passes)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    first = passes[0]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "items": first["items"],
        "passes": len(passes),
        "oracle_budget": first["oracle_budget"],
        "output_sha256": first["digest"],
        "python": first["python"],
        "numpy": first["numpy"],
        "nilclose": first["nilclose"],
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **item_latency,
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
