"""Closed-loop runner, failure accounting and end-to-end statistics.

One client runs a workload's op list as a cycle, again and again, each op
starting when the previous one has returned.  Only whole cycles are run,
so every run sees the same mix of ops: a new cycle starts only if it is
expected to end no more than half a cycle past ``--seconds``.

An op is correct when it returns and its check, which compares the
output with ground truth, finds nothing wrong.  An exception escaping
the library counts as one failed op and the loop goes on.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

import calibration

LONG_OP_S = 0.1

# name, unit, better.  BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("goodput_ops_per_s", "ops/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("max_full_jet_order", "order", "higher"),
    ("verdict_agreement_frac", "fraction", "higher"),
)


@dataclass
class Op:
    """One operation and the check of its outcome.

    ``call`` returns the library's result (an exit code for CLI ops);
    ``check(value, stdout, stderr)`` returns None when the outcome agrees
    with ground truth and a reason otherwise.  One op of each ``kind`` is
    run untimed during set-up.
    """

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any, str, str], Optional[str]]


@dataclass
class Record:
    kind: str
    label: str
    seconds: float
    ok: bool
    reason: Optional[str] = None
    kernel_s: Optional[float] = None    # calibration kernel just before

    @property
    def latency(self) -> float:
        """Seconds, scaled to the reference host speed when calibrated."""
        if self.kernel_s is None:
            return self.seconds
        return self.seconds * calibration.REFERENCE_S / self.kernel_s


def cli_call(argv):
    """An op body that runs ``forelli_lab.cli.run(argv)`` in-process."""
    argv = [str(a) for a in argv]

    def call():
        from forelli_lab import cli
        return cli.run(argv)
    return call


def run_op(op: Op, calibrate: bool = False) -> Record:
    """Run one op, timing only the library call.

    With ``calibrate`` the host-speed kernel runs just before the op, and
    also just after it when the op took longer than LONG_OP_S, since the
    host's speed can change during a long op; the record keeps the mean.
    """
    kernel_s = calibration.sample() if calibrate else None
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            value = op.call()
            reason = None
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            reason = (f"raised {type(exc).__name__}: {exc} "
                      f"({os.path.basename(where.filename)}:{where.lineno})")
        seconds = time.perf_counter() - t0
    if calibrate and seconds > LONG_OP_S:
        kernel_s = 0.5 * (kernel_s + calibration.sample())
    if reason is None:
        try:
            reason = op.check(value, out.getvalue(), err.getvalue())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return Record(op.kind, op.label, seconds, reason is None, reason, kernel_s)


def warm_up(ops: List[Op]) -> None:
    """Run the first op of each kind once, untimed."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            run_op(op)


def run_cycles(ops: List[Op], seconds: float, runner=run_op):
    """Run whole cycles of ``ops``; returns (records, cycles)."""
    records: List[Record] = []
    cycles = 0
    begin = time.perf_counter()
    while True:
        for op in ops:
            records.append(runner(op))
        cycles += 1
        elapsed = time.perf_counter() - begin
        if elapsed + 0.5 * elapsed / cycles > seconds:
            return records, cycles


def latency_stats(records: List[Record], tail_pct: float) -> dict:
    """Goodput and latency percentiles of correct ops, from each record's
    calibrated latency.  The time of failed ops stays in the goodput
    denominator."""
    good = [r.latency for r in records if r.ok]
    busy = sum(r.latency for r in records)
    if not good:
        return {"goodput_ops_per_s": 0.0, "op_s_p50": busy, "op_s_tail": busy,
                "correct_ops": 0, "beyond_tail": 0}
    tail = float(np.percentile(good, tail_pct))
    return {"goodput_ops_per_s": len(good) / busy,
            "op_s_p50": float(np.percentile(good, 50)),
            "op_s_tail": tail,
            "correct_ops": len(good),
            "beyond_tail": sum(1 for t in good if t > tail)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Machine, library versions and thread settings of this run."""
    import scipy
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {"name": deps["blas"].get("name"),
                "version": deps["blas"].get("version")}
    except (KeyError, TypeError):
        pass
    return {
        "machine": platform.machine(), "node": platform.node(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def result_line(records: List[Record], metrics: dict) -> str:
    """The final stdout line: correctness, counts and metrics."""
    failed = sum(1 for r in records if not r.ok)
    return json.dumps({"correct": failed == 0 and bool(records),
                       "attempted": len(records), "failed": failed,
                       "metrics": metrics})
