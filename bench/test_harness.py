"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest -q bench/test_harness.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import calibration  # noqa: E402
import forelli_lab  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402


def jet(order, expected):
    return workloads.jet_op("exp(z1+z2)", 2, order, expected)


def test_correct_answer_passes():
    rec = harness.run_op(jet(4, truth.exp_sum_jet(2, 4)))
    assert rec.ok, rec.reason
    assert rec.seconds > 0


def test_wrong_answer_is_flagged():
    wrong = {k: 2 * v for k, v in truth.exp_sum_jet(2, 4).items()}
    rec = harness.run_op(jet(4, wrong))
    assert not rec.ok
    assert "coefficient error" in rec.reason


def capacity_op(check):
    return harness.Op("capacity", "segment [-1, 1]",
                      harness.cli_call(["capacity", "--set", "segment -1 1",
                                        "--m", 128, "--json"]), check)


def test_wrong_value_and_unexpected_exit_code_are_flagged():
    assert harness.run_op(capacity_op(workloads.expect_capacity(0.5, 0.05))).ok
    rec = harness.run_op(capacity_op(workloads.expect_capacity(0.7, 0.02)))
    assert not rec.ok and "closed form" in rec.reason
    rec = harness.run_op(capacity_op(workloads.expect_zbar_polynomial))
    assert not rec.ok and rec.reason == "exit 0, expected 1"


def test_escaping_exception_is_one_failure_and_the_loop_goes_on():
    def boom():
        raise IndexError("tuple index out of range")

    ops = [harness.Op("api", "raises", boom, lambda *a: None),
           jet(4, truth.exp_sum_jet(2, 4))]
    records, cycles = harness.run_cycles(ops, 0.0)
    assert cycles == 1 and len(records) == 2
    assert not records[0].ok and records[0].reason.startswith("raised IndexError")
    assert records[1].ok
    line = json.loads(harness.result_line(records, {}))
    assert line["attempted"] == 2 and line["failed"] == 1
    assert line["correct"] is False


def test_latency_stats_keep_failed_time_in_goodput():
    recs = [harness.Record("k", "a", 1.0, True), harness.Record("k", "b", 3.0, False)]
    stats = harness.latency_stats(recs, 50)
    assert stats["goodput_ops_per_s"] == pytest.approx(0.25)
    assert stats["op_s_p50"] == pytest.approx(1.0)


def test_calibrated_latency_scales_by_the_kernel():
    ref = calibration.REFERENCE_S
    assert harness.Record("k", "a", 1.0, True, kernel_s=2 * ref).latency == 0.5
    rec = harness.run_op(jet(4, truth.exp_sum_jet(2, 4)), calibrate=True)
    assert rec.ok and rec.kernel_s > 0
    assert rec.latency == pytest.approx(rec.seconds * ref / rec.kernel_s)


def test_tracer_counts_and_restores():
    original = forelli_lab.cli.run
    tracer = tracing.Tracer()
    with tracer:
        assert forelli_lab.cli.run is not original
        rec = harness.run_op(jet(6, truth.exp_sum_jet(2, 6)))
    assert rec.ok
    assert forelli_lab.cli.run is original
    assert forelli_lab.jets.extract_jet is forelli_lab.cli.extract_jet
    assert tracer.calls["cli.run"] == 1
    assert tracer.calls["jets.extract_jet"] == 1
    assert tracer.counts["jets.svd_calls"] == tracer.counts["jets.modes_solved"] > 0
    # self times add up to the outermost span
    total = tracer.total_s["cli.run"]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    metrics = tracing.layer_metrics(tracer, 1, total, 0.0)
    assert metrics["jets.extract_jet.calls"]["value"] == 1
    assert metrics["jets.full_jet_frac"]["value"] == 1.0
    shares = sum(metrics[f"{layer}.self_frac"]["value"] for layer in tracing.LAYERS)
    assert shares == pytest.approx(1.0)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_launcher_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lab_session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
