"""Every timed op of the benchmark's workloads passes its truth check.

The ops call the library's public API and its CLI, so a change that
breaks one would otherwise show only as a failed op in a benchmark run.
One cycle of the three workloads at seed 1 takes about 5 s on 2 cores.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


@pytest.fixture(scope="module")
def bench():
    """The bench's harness and workloads modules, imported from bench/."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True        # leave no __pycache__ in bench/
    sys.path.insert(0, BENCH)
    try:
        import harness
        import workloads
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = saved
    return harness, workloads


@pytest.mark.parametrize("name", ["analyze_deep", "analyze_wide",
                                  "lab_session"])
def test_timed_ops_pass(bench, tmp_path, name):
    harness, workloads = bench
    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    failed = []
    for op in workload.ops:
        record = harness.run_op(op)
        if not record.ok:
            failed.append((op.label, record.reason))
    assert workload.ops and not failed
