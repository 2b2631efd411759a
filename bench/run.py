"""Benchmark launcher for forelli-lab.

Run from the repository root:

    python3 bench/run.py --workload analyze_deep --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` a separate traced run carries the per-layer metrics.
The library is imported from ``src/`` of the checkout the script sits in.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread, set before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3           # set-ups per run: this process plus two children


def load_library():
    """Import forelli_lab from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "forelli_lab", "__init__.py")):
        sys.exit(f"error: no forelli_lab sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import forelli_lab
    if not os.path.abspath(forelli_lab.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: forelli_lab imported from {forelli_lab.__file__}")


def set_up(workload, seed, workdir):
    """Import, generate inputs and warm up each op kind; returns the workload
    and the seconds since the process started."""
    load_library()
    import harness
    import workloads
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, workdir)
    harness.warm_up(wl.ops)
    return wl, time.perf_counter() - T_START


def calibrated_setup_s(setup_s):
    """Set-up time scaled to the reference host speed, measured just after."""
    import calibration
    return setup_s * calibration.scale()


def child_setups(args, count):
    """Set-up times of ``count`` fresh processes doing the same set-up."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["analyze_deep", "analyze_wide", "lab_session"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the set-up time")
    args = ap.parse_args()
    if not args.setup_only and (args.seconds is None or args.seconds <= 0):
        ap.error("--seconds must be positive")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    try:
        wl, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(f"setup_s {calibrated_setup_s(setup_s)!r}")
            return
        import harness
        env = harness.environment()
        if args.trace:
            records, metrics, tracer = traced_run(wl, args.seconds)
        else:
            records, metrics = untraced_run(wl, args, setup_s)
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.trace:
            tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.csv"))
        failures = [vars(r) for r in records if not r.ok]
        detail = {"workload": wl.name, "seed": args.seed, "env": env,
                  "tail_pct": wl.tail_pct, "failures": failures[:20],
                  "metrics": metrics, "ops": per_op(records)}
        with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
        print("env " + json.dumps(env, sort_keys=True))
        for f in failures[:20]:
            print(f"FAILED {f['label']}: {f['reason']}")
        print(harness.result_line(records, metrics))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def per_op(records):
    """Runs and median seconds of each op, raw and calibrated."""
    by_label = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
    return {label: {"runs": len(rs),
                    "median_s": statistics.median(r.seconds for r in rs),
                    "median_latency_s": statistics.median(r.latency for r in rs)}
            for label, rs in by_label.items()}


def untraced_run(wl, args, setup_s):
    import harness
    import workloads
    raw_setup_s, setup_s = setup_s, calibrated_setup_s(setup_s)
    records, cycles = harness.run_cycles(
        wl.ops, args.seconds, lambda op: harness.run_op(op, calibrate=True))
    stats = harness.latency_stats(records, wl.tail_pct)
    rss = harness.peak_rss_mb()
    # untimed probes: they count toward no other metric
    hard = [harness.run_op(op) for op in wl.hard]
    agree = {op.label for op in wl.ops}
    agree -= {r.label for r in records if not r.ok}
    agreement = (len(agree) + sum(r.ok for r in hard)) / (len(wl.ops) + len(hard))
    for r in hard:
        if not r.ok:
            print(f"hard case disagrees: {r.label}: {r.reason}")
    jet_order = workloads.max_full_jet_order()
    setups = [setup_s] + child_setups(args, SETUP_REPEATS - 1)
    kernel_ms = statistics.median(r.kernel_s for r in records) * 1e3
    print(f"cycles {cycles}; correct ops {stats['correct_ops']}; "
          f"ops beyond p{wl.tail_pct:g}: {stats['beyond_tail']}; "
          f"calibrated set-ups {[round(t, 3) for t in setups]}; "
          f"uncalibrated: set-up {raw_setup_s:.3f} s, "
          f"op p50 {statistics.median(r.seconds for r in records):.4f} s; "
          f"median kernel {kernel_ms:.3f} ms")
    values = {
        "setup_s": statistics.median(setups),
        "goodput_ops_per_s": stats["goodput_ops_per_s"],
        "op_s_p50": stats["op_s_p50"],
        "op_s_tail": stats["op_s_tail"],
        "peak_rss_mb": rss,
        "max_full_jet_order": jet_order,
        "verdict_agreement_frac": agreement,
    }
    units = {name: unit for name, unit, _ in harness.END_TO_END}
    return records, {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def traced_run(wl, seconds):
    """Whole cycles in which each op runs untraced, then traced.

    The untraced run is the op's reference time for the tracing overhead
    and warms it up; per-layer metrics come from the traced runs only.
    """
    import harness
    import tracing
    tracer = tracing.Tracer()
    reference = []

    def run_pair(op):
        reference.append(harness.run_op(op))
        with tracer:
            tracer.op_id = len(reference) - 1
            return harness.run_op(op)

    records, cycles = harness.run_cycles(wl.ops, seconds, run_pair)
    op_s = sum(r.seconds for r in records)
    overhead = op_s / sum(r.seconds for r in reference) - 1.0
    metrics = tracing.layer_metrics(tracer, cycles, op_s, overhead)
    return reference + records, metrics, tracer


if __name__ == "__main__":
    main()
