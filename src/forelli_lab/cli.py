"""Command-line front end.

Subcommands: analyze, jet, slice, capacity, psh, pencil-check,
subpencil, normalize, certify.  Each returns its report's config,
``pipeline.Stage`` list, summary and text lines, and ``_emit`` writes
the report.  Exit codes: 0 no stage fails, 1 some stage fails (a series
with a zbar term fails analyze and certify alike) or a direction set or
pencil fails its check, 2 usage or configuration error, 3 numerical
failure (ill-conditioning, inversion divergence, degenerate
normalization).

stdout carries the report (plain-text summary by default, the full JSON
document with --json); stderr carries diagnostics.  JSON output contains
no timings or timestamps: with a fixed --seed, reports are byte
identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .capacity import (ChartUndecidableError, CompactSet1D, cap1d_transfinite,
                       cap_siciak)
from .expr import EvalError, parse
from .jets import JetExtractionError
from .pencil import (DegenerateNormalizationError, NewtonInversionError,
                     PencilCheckError, compute_H_G, find_subpencil,
                     load_directions, load_pencil, standard_pencil,
                     tilde_normalize)
from .pipeline import (FAIL, PASS, AnalyzeConfig, Stage, disc_errors,
                       disc_stage, forelli_analyze, jet_stage, run_stages)
from .psh import (PshFamily, average_on_torus, classify_trichotomy,
                  envelope_to_csv, upper_envelope)
from .report import build_report, to_json
from .series import FormalSeries, torus
from .slices import chart_poly_family, slice_series

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


def _parse_point(text: str) -> tuple:
    comps = []
    for token in text.split():
        re_s, _, im_s = token.partition(",")
        comps.append(complex(float(re_s), float(im_s or 0.0)))
    if not comps:
        raise ValueError("empty point")
    return tuple(comps)


def _load_function(args, n: int):
    if args.expr:
        return parse(args.expr, dim=n)
    if args.expr_file:
        with open(args.expr_file, "r", encoding="utf-8") as fh:
            return parse(fh.read().strip(), dim=n)
    raise ValueError("an expression is required (--expr or --expr-file)")


def _emit(args, config: dict, stages: list[Stage], summary: dict,
          lines: list[str]) -> int:
    """Write a subcommand's report; exit 1 exactly when some stage fails."""
    passed = all(st.status != FAIL for st in stages)
    if args.json or args.out:
        text = to_json(build_report(args.command, config,
                                    [st.to_dict() for st in stages],
                                    {**summary, "passed": passed},
                                    args.warnings))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json:
        sys.stdout.write(text)
    else:
        print("\n".join(lines))
    return EXIT_PASS if passed else EXIT_FAIL


# -- subcommand implementations ------------------------------------------------

def _analysis_input(args):
    """The function or series of analyze and certify, and its dimension."""
    if args.series_file:
        f = FormalSeries.load(args.series_file)
        return f, f.n
    return _load_function(args, args.dim), args.dim


def _cmd_analyze(args):
    f, n = _analysis_input(args)
    U = load_directions(args.directions, n, args.seed)
    # forelli_analyze takes a function's n from the rows: check them here
    standard_pencil(n, U)
    cfg = AnalyzeConfig(order=args.order, r0=args.r0, K=args.K,
                        seed=args.seed, jet_tol=args.tol, rho_max=args.rho_max,
                        grid=args.grid)
    t0 = time.perf_counter()
    result = forelli_analyze(f, U, cfg)
    elapsed = time.perf_counter() - t0
    lines = ([f"forelli-lab analyze v{__version__}"]
             + [f"  [{st.status:>7}] {st.name}" for st in result.stages]
             + [f"verdict: {result.final_verdict}",
                f"elapsed: {elapsed:.2f} s"])
    return result.config, result.stages, result.summary(), lines


def _cmd_jet(args):
    n = args.dim
    f = _load_function(args, n)
    center = _parse_point(args.center) if args.center else None
    if center is not None and len(center) != n:
        raise ValueError(f"center has {len(center)} components, expected {n}")
    stage, jet = jet_stage(f, n, args.order, args.tol, rho0=args.rho0,
                           sigma=args.sigma, rho_max=args.rho_max,
                           grid=args.grid, center=center)
    if args.series_out:
        jet.series.save(args.series_out)
    diag = {str(k): r for k, r in enumerate(jet.per_order_residuals)}
    config = {"dim": n, "order": args.order, "tol": args.tol,
              "rho0": args.rho0, "sigma": args.sigma,
              "rho_max": args.rho_max, "grid": args.grid,
              "center": args.center}
    lines = [jet.series.to_text().rstrip(),
             json.dumps({"residuals": diag, "verdict": jet.verdict_text()},
                        sort_keys=True)]
    return config, [stage], {"verdict": jet.verdict_text(),
                             "series": jet.series.to_text()}, lines


def _cmd_slice(args):
    S = FormalSeries.load(args.series_file)
    a = _parse_point(args.a)
    if len(a) != S.n:
        raise ValueError(f"point has {len(a)} components, series has n={S.n}")
    sl = slice_series(S, a)
    coeffs = [{"p": p, "q": q, "coeff": [sl.coeffs[p, q].real,
                                         sl.coeffs[p, q].imag]}
              for p in range(S.max_order + 1)
              for q in range(S.max_order + 1 - p)
              if sl.coeffs[p, q] != 0]
    lines = [f"slice along a={a} of {args.series_file}:"]
    lines += [f"  t^{c['p']} tbar^{c['q']}: {c['coeff']}" for c in coeffs]
    return ({"series_file": args.series_file, "a": a},
            [Stage("slice", PASS)], {"coefficients": coeffs}, lines)


def _parse_set(spec: str) -> CompactSet1D:
    toks = spec.split()
    if toks[0] == "segment" and len(toks) == 3:
        return CompactSet1D.segment(float(toks[1]), float(toks[2]))
    if toks[0] == "disc" and len(toks) == 4:
        return CompactSet1D.disc(complex(float(toks[1]), float(toks[2])),
                                 float(toks[3]))
    if toks[0] == "points" and len(toks) == 2:
        with open(toks[1], "r", encoding="utf-8") as fh:
            pts = [complex(float(r), float(i))
                   for r, i in (line.split() for line in fh if line.strip())]
        return CompactSet1D.finite_points(pts)
    raise ValueError(
        f"cannot parse set {spec!r}; use 'segment A B', 'disc RE IM R' or "
        "'points FILE'")


def _cmd_capacity(args):
    if args.siciak_ball is not None:
        rho = args.siciak_ball
        if not 0 < rho < math.inf:          # a nan fails too
            raise ValueError("--siciak-ball must be a positive finite "
                             f"radius, not {rho}")
        samples = torus((rho,), 256)[0][:, None]
        est = cap_siciak(samples, degree=args.degree, trials=args.trials,
                         seed=args.seed, closed_form=rho)
        cfg = {"siciak_ball": rho, "degree": args.degree,
               "trials": args.trials, "seed": args.seed}
    else:
        if not args.set:
            raise ValueError("--set or --siciak-ball is required")
        E = _parse_set(args.set)
        est = cap1d_transfinite(E, args.m)
        cfg = {"set": args.set, "m": args.m}
    summary = {"value": est.value, "method": est.method,
               "points_used": est.points_used}
    lines = [f"capacity estimate: {est.value:.6g} ({est.method}, "
             f"points_used={est.points_used})"]
    closed = est.diagnostics.get("closed_form")
    if closed is not None:
        summary["closed_form"] = closed
        lines.append(f"closed-form reference: {closed:.6g}")
    return cfg, [Stage("capacity", PASS, est.diagnostics)], summary, lines


def _cmd_psh(args):
    S = FormalSeries.load(args.family)
    K = args.K if args.K is not None else min(200, S.max_order)
    if K > S.max_order:
        raise ValueError(f"K={K} exceeds the series max_order {S.max_order}")
    family = PshFamily(chart_poly_family(S, K))
    if family.nvars != 1:
        raise ValueError("psh grids need a 2-dimensional series (1 chart var)")
    stages, summary = [], {}
    lines = [f"psh family of {args.family}, K={K}"]
    if args.classify:
        verdict = classify_trichotomy(family, (args.r,), K, grid=args.grid)
        found = {"alpha_r": verdict.alpha_r, "case": verdict.case}
        stages.append(Stage("trichotomy", PASS, found))
        summary.update(found)
        lines.append(f"  alpha_r = {verdict.alpha_r:.6g} -> {verdict.case}")
    if args.envelope:
        x0, x1, y0, y1 = (float(t) for t in args.envelope.split())
        field = upper_envelope(family, ((x0, x1), (y0, y1)), K,
                               num=args.envelope_num)
        stages.append(Stage("envelope", PASS,
                            {"exceptional_count": len(field.exceptional),
                             "gap": field.gap}))
        summary["exceptional_count"] = len(field.exceptional)
        lines.append(f"  envelope: {len(field.exceptional)} exceptional nodes")
        if args.csv_out:
            with open(args.csv_out, "w", encoding="utf-8") as fh:
                fh.write(envelope_to_csv(field))
            lines.append(f"  wrote grid to {args.csv_out}")
    if not stages:
        avg = average_on_torus(family, 1, 0j, (args.r,), grid=args.grid)
        stages.append(Stage("average", PASS,
                            {"value": avg.value, "clipped": avg.clipped}))
        lines.append(f"  u_1^r(0) = {avg.value:.6g} (clipped {avg.clipped})")
    return ({"family": args.family, "r": args.r, "K": K, "grid": args.grid},
            stages, summary, lines)


def _pencil_from_args(args):
    if args.pencil:
        return load_pencil(args.pencil)
    U = load_directions(args.directions, args.dim, args.seed)
    return standard_pencil(args.dim, U)


def _cmd_pencil_check(args):
    P = _pencil_from_args(args)
    f = _load_function(args, P.n)
    radii = tuple(float(t) for t in args.radii.split(","))
    stage = disc_stage("disc_residuals", f, P, radii, args.tol)
    worst = stage.details["worst_residual"]
    line = (f"checked {stage.details['discs']} discs; worst residual "
            f"{worst:.3g} (tol {args.tol:g})")
    if stage.details["first_error"]:
        line += "; " + disc_errors(stage.details)
    lines = [line, stage.status.upper()]
    return ({"pencil": args.pencil or args.directions, "tol": args.tol,
             "radii": radii},
            [stage], {"worst_residual": worst}, lines)


def _cmd_subpencil(args):
    P = _pencil_from_args(args)
    f = _load_function(args, P.n)
    result = find_subpencil(f, P, tol=args.tol, ell_max=args.ell_max)
    found = {"patch_size": int(result.direction_indices.size), "m": result.m}
    lines = ["subpencil: empty (no direction passes)" if result.empty
             else (f"subpencil: {found['patch_size']} directions at "
                   f"disc radius 1/{result.m}")]
    return ({"pencil": args.pencil or args.directions, "tol": args.tol,
             "ell_max": args.ell_max},
            [Stage("subpencil", FAIL if result.empty else PASS, found)],
            found, lines)


def _cmd_normalize(args):
    P = _pencil_from_args(args)
    v0 = _parse_point(args.v0)
    kdata = tilde_normalize(P, v0, eps=args.eps)
    stages = [Stage("normalize", PASS, kdata.checks)]
    summary = {"checks": kdata.checks}
    lines = ["normalization admissible at v0: "
             + ", ".join(f"{k}={v:.3g}" for k, v in kdata.checks.items())]
    if args.expr or args.expr_file:
        f = _load_function(args, P.n)
        r_lo, r_hi = (float(t) for t in args.z1_ring.split())
        ring = np.concatenate([torus((r,), 24)[0]
                               for r in np.linspace(r_lo, r_hi, 6)])
        hg = compute_H_G(f, kdata, ring, tol_G=args.tol_g)
        found = {"max_abs_G": hg.max_abs_G, "min_abs_H": hg.min_abs_H}
        stages.append(Stage("H_G", PASS if hg.passed else FAIL, found))
        summary.update(found)
        lines.append(f"H/G on ring [{r_lo}, {r_hi}]: max|G|={hg.max_abs_G:.3g},"
                     f" min|H|={hg.min_abs_H:.3g} -> "
                     + ("PASS: " + hg.claim if hg.passed else "FAIL"))
    return ({"pencil": args.pencil or args.directions,
             "v0": v0, "eps": args.eps},
            stages, summary, lines)


def _cmd_certify(args):
    f, n = _analysis_input(args)
    order = f.max_order if args.series_file else args.order
    config = ({"source": args.series_file} if args.series_file else
              {"source": args.expr or args.expr_file, "dim": n,
               "order": order, "tol": args.tol})
    K = args.K if args.K is not None else order
    result = run_stages(f, n, AnalyzeConfig(
        order=order, r0=args.r0, K=K, seed=args.seed, jet_tol=args.tol,
        rho_max=args.rho_max))
    cert = result.certificate
    summary = {} if cert is None else {"M": cert.M, "r_prime": cert.r_prime}
    line = result.final_verdict
    if result.passed:
        rp = ", ".join(f"{r:.6g}" for r in cert.r_prime)
        line = f"certificate: M={cert.M:.6g}, r'=({rp})"
    return ({**config, "r0": args.r0, "K": K, "seed": args.seed},
            result.stages, summary, [line])


# -- argument parsing -----------------------------------------------------------

def _subcommand(sub, name: str, func, help: str, *, seed=True):
    """A subparser with the report flags, and --seed unless ``seed`` is off."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(func=func)
    if seed:
        sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--json", action="store_true",
                    help="print the full JSON report to stdout")
    sp.add_argument("--out", help="also write the JSON report to a file")
    return sp


def _add_function_args(sp):
    sp.add_argument("--expr", help="expression in z1..zn")
    sp.add_argument("--expr-file", help="file containing one expression")


def _add_analysis_args(sp):
    """The input and certificate flags of analyze and certify."""
    _add_function_args(sp)
    sp.add_argument("--series-file")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--order", type=int, default=16)
    sp.add_argument("--K", type=int, default=None)
    sp.add_argument("--r0", type=float, default=0.5)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--rho-max", type=float, default=None)


def _add_pencil_args(sp):
    """The function and pencil flags of the pencil subcommands."""
    _add_function_args(sp)
    sp.add_argument("--pencil", help="pencil JSON file")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--directions", default="sphere:200")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="forelli-lab",
        description="numerical holomorphy lab: series, jets, radii, "
                    "capacities and pencils of discs")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = _subcommand(sub, "analyze", _cmd_analyze,
                     "full pipeline on a function or series")
    _add_analysis_args(sp)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--directions", default="sphere:200")

    sp = _subcommand(sub, "jet", _cmd_jet, "extract a formal Taylor jet",
                     seed=False)
    _add_function_args(sp)
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--order", type=int, default=16)
    sp.add_argument("--rho0", type=float, default=0.2)
    sp.add_argument("--sigma", type=float, default=1.25)
    sp.add_argument("--rho-max", type=float, default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--center", help="expansion center, e.g. '1,0 0,0'")
    sp.add_argument("--series-out", help="write the jet in series text format")

    sp = _subcommand(sub, "slice", _cmd_slice, "restrict a series to a ray",
                     seed=False)
    sp.add_argument("--series-file", required=True)
    sp.add_argument("--a", required=True,
                    help="ray point, e.g. '1,0 2,0' for (1, 2)")

    sp = _subcommand(sub, "capacity", _cmd_capacity,
                     "logarithmic capacity estimates")
    sp.add_argument("--set", help="'segment A B' | 'disc RE IM R' | 'points FILE'")
    sp.add_argument("--m", type=int, default=128)
    sp.add_argument("--siciak-ball", type=float, default=None,
                    help="extremal-function estimate for a ball of this radius")
    sp.add_argument("--degree", type=int, default=32)
    sp.add_argument("--trials", type=int, default=200)

    sp = _subcommand(sub, "psh", _cmd_psh,
                     "plurisubharmonic family diagnostics", seed=False)
    sp.add_argument("--family", required=True, help="series file")
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--K", type=int, default=None)
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--classify", action="store_true")
    sp.add_argument("--envelope", help="grid region 'x0 x1 y0 y1'")
    sp.add_argument("--envelope-num", type=int, default=101)
    sp.add_argument("--csv-out")

    sp = _subcommand(sub, "pencil-check", _cmd_pencil_check,
                     "disc holomorphy residuals")
    _add_pencil_args(sp)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--radii", default="0.3,0.6,0.9")

    sp = _subcommand(sub, "subpencil", _cmd_subpencil,
                     "find a uniform holomorphy patch")
    _add_pencil_args(sp)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--ell-max", type=int, default=8)

    sp = _subcommand(sub, "normalize", _cmd_normalize,
                     "disc-map normalization at v0")
    _add_pencil_args(sp)
    sp.add_argument("--v0", required=True, help="direction, e.g. '1,0 0,0'")
    sp.add_argument("--eps", type=float, default=0.4)
    sp.add_argument("--z1-ring", default="0.05 0.5")
    sp.add_argument("--tol-g", type=float, default=1e-6)

    sp = _subcommand(sub, "certify", _cmd_certify,
                     "polydisc convergence certificate")
    _add_analysis_args(sp)
    return ap


@contextlib.contextmanager
def _recorded_warnings():
    """Collect the UserWarnings that forelli_lab raises, for the report.

    Yields the list of distinct messages in first-seen order.  Each is
    still shown once on stderr.  Every warning raised from the library's
    own files, such as numpy's floating-point RuntimeWarnings in the
    evaluator, prints as ``<Category>: <message>`` without the library's
    file, line and source text, so the stderr bytes do not move with the
    install path or with edits to the source.  Only UserWarnings enter the
    report; the others keep their filters and reach any recorder of
    warnings, such as ``pytest.warns``.
    """
    def ours(filename):
        return os.path.dirname(os.path.abspath(filename)) == _PACKAGE_DIR

    messages = []
    with warnings.catch_warnings():
        # past the once-per-location registry, so a repeated run records too
        warnings.filterwarnings("always", category=UserWarning,
                                module=r"forelli_lab(\.|$)")
        show, form = warnings.showwarning, warnings.formatwarning

        def record(message, category, filename, lineno, file=None, line=None):
            if ours(filename) and issubclass(category, UserWarning):
                text = str(message)
                if text not in messages:
                    messages.append(text)
                    (file or sys.stderr).write(
                        f"{category.__name__}: {text}\n")
                return
            show(message, category, filename, lineno, file, line)

        def without_location(message, category, filename, lineno, line=None):
            if ours(filename):
                return f"{category.__name__}: {message}\n"
            return form(message, category, filename, lineno, line)

        warnings.showwarning = record
        # catch_warnings restores showwarning but not formatwarning
        warnings.formatwarning = without_location
        try:
            yield messages
        finally:
            warnings.formatwarning = form


def _remedy(args, exc: Exception) -> str:
    """What to change when the jet meets one of its order limits."""
    text = str(exc)
    if text.startswith("ill-conditioned radius schedule"):
        return ("; remedy: lower --order, or respace the radius schedule "
                "(e.g. --rho-max 1 caps its largest radius at 1)")
    if text.startswith("grid ") and "2*order+1" in text:
        grid = (f", or raise --grid to at least {2 * args.order + 1} (this "
                "lifts only the grid bound; the jet may still stop at the "
                "condition limit)" if hasattr(args, "grid") else "")
        return "; remedy: lower --order" + grid
    return ""


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        with _recorded_warnings() as args.warnings:
            return _emit(args, *args.func(args))
    except (JetExtractionError, NewtonInversionError,
            DegenerateNormalizationError, EvalError,
            ChartUndecidableError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}{_remedy(args, exc)}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PencilCheckError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (FileNotFoundError, ValueError) as exc:
        # parse, format and configuration errors are ValueErrors
        print(f"error: {exc}{_remedy(args, exc)}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
