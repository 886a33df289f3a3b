"""Tests of the benchmark's own machinery: the tracer, the correctness gate,
the tail-percentile rule and the refusal to run without the program.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import run
import worker
from nilclose import jordan, matrices, oracle, witness
from nilclose.criterion import QSet
from nilclose.field import galois, rationals
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_falsify():
    tracer = Tracer()
    tracer.install()
    try:
        witness.falsify(4, 0, QSet([2], 4))
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_counts_repeat_and_reach_direct_imports():
    first, second = traced_falsify(), traced_falsify()
    assert first.calls == second.calls
    assert first.counts == second.counts
    assert first.calls["witness.falsify"] == 1
    # jordan calls rank through its own `from .matrices import rank`
    assert first.calls["matrices.rank"] > 0
    assert first.calls["jordan.jordan_partition"] > 0
    assert first.calls["criterion.member_mq"] > 0
    assert first.counts["witness.construction.neighbor"] == 1
    assert all(v >= 0 for v in first.self_s.values())
    assert jordan.rank is matrices.rank
    assert not hasattr(matrices.ExactMatrix.__mul__, "__wrapped__")


def test_gate_counts_a_wrong_verdict_as_failed():
    items = [(4, 0, QSet([2], 4)), (4, 0, QSet([2, 3], 4))]
    outputs = [witness.falsify(*item) for item in items]
    assert worker.gate(worker.witness_sweep_check, items, outputs) == []
    wrong = [None, outputs[1]]          # no witness for a rejected set
    assert len(worker.gate(worker.witness_sweep_check, items, wrong)) == 1
    raised = [ValueError("boom"), outputs[1]]
    assert len(worker.gate(worker.witness_sweep_check, items, raised)) == 1
    # a witness whose recorded combination partition is not the real one
    bogus = dataclasses.replace(outputs[0], combo_partition=jordan.Partition(
        [outputs[0].violating_size] * 2))
    assert len(worker.gate(worker.witness_sweep_check, items,
                           [bogus, outputs[1]])) == 1

    l_item = (0, "5")
    l_out = worker.witness_large_run(l_item)
    assert worker.gate(worker.witness_large_check, [l_item], [l_out]) == []
    data = json.loads(l_out[1])
    data["combo_partition"] = [data["violating_size"]] * 2
    l_bogus = (0, json.dumps(data))
    assert len(worker.gate(worker.witness_large_check, [l_item],
                           [l_bogus])) == 1

    spec = galois(5)
    o_items = [(spec, QSet([3, 4], 4))]
    report = oracle.exhaustive_check(4, spec, o_items[0][1])
    assert worker.gate(worker.oracle_check, o_items, [report]) == []
    passed = dataclasses.replace(report, outcome="pass", violation=None)
    assert len(worker.gate(worker.oracle_check, o_items, [passed])) == 1
    swapped = dataclasses.replace(report, violation=dataclasses.replace(
        report.violation, y=report.violation.x))
    assert len(worker.gate(worker.oracle_check, o_items, [swapped])) == 1

    # (x, 0) for a non-semisimple x: s + u == x and [s, u] == 0 still hold
    q_field = rationals()
    x = matrices.ExactMatrix.jordan_cell(q_field, q_field.one(), 3)
    s_items = [("jc", x)]
    s_out = worker.structure_run(s_items[0])
    assert worker.gate(worker.structure_check, s_items, [s_out]) == []
    zero = matrices.ExactMatrix.zeros(q_field, 3)
    lazy = (x, zero, jordan.jordan_partition(zero))
    assert len(worker.gate(worker.structure_check, s_items, [lazy])) == 1

    clean = {"items": 2, "failed": 0, "run_s": 1.0, "setup_s": 0.1,
             "peak_rss_mb": 30.0, "latencies_s": [0.4, 0.6]}
    metrics, _ = run.end_to_end([clean, dict(clean, failed=1)])
    assert metrics["pass_ratio"][0] == 0.75


def test_gate_is_skipped_only_for_outputs_with_a_verified_digest(
        monkeypatch):
    gated = []

    def counting_gate(check, items, outputs):
        gated.append(len(items))
        return []
    monkeypatch.setattr(worker, "gate", counting_gate)
    monkeypatch.setitem(worker.WORKLOADS, "tiny", (
        lambda seed: [(4, 0, QSet([2], 4))], worker.witness_sweep_run,
        worker.witness_sweep_check, worker.witness_sweep_record, False))
    first = worker.run_pass("tiny", 0, time.monotonic(), False)
    worker.run_pass("tiny", 0, time.monotonic(), False, first["digest"])
    worker.run_pass("tiny", 0, time.monotonic(), False, "0" * 64)
    assert gated == [1, 1]


def test_reference_records_item_counts_and_tail_percentiles():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for name, (make_inputs, *_rest) in worker.WORKLOADS.items():
        entry = reference["workloads"][name]
        items = len(make_inputs(0))
        pct = run.tail_percentile(items)
        beyond = items - -(-pct * items // 100)
        assert entry["items"] == items
        assert entry["tail_percentile"] == pct
        assert entry["tail_samples_beyond"] == beyond
        assert pct == 100 or beyond >= 10


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    traced = dict(worker.trace_summary(traced_falsify()), run_s=1.0)
    layer = run.per_layer([{"run_s": 0.9}], [traced], 0)
    assert list(layer) == [m["name"] for m in bench["per_layer"]]
    untraced = {"items": 2, "failed": 0, "run_s": 1.0, "setup_s": 0.1,
                "peak_rss_mb": 30.0, "latencies_s": [0.4, 0.6]}
    metrics, _ = run.end_to_end([untraced])
    assert list(metrics) == [m["name"] for m in bench["end_to_end"]]
    assert all(metrics[m["name"]][1] == m["unit"] for m in bench["end_to_end"])


def test_inputs_depend_only_on_the_seed():
    assert set(run.WORKLOADS) == set(worker.WORKLOADS)
    for make_inputs, *_rest in worker.WORKLOADS.values():
        assert make_inputs(3) == make_inputs(3)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "witness_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
