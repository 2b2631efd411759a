"""Command-line front end.

Subcommands: analyze, jet, slice, capacity, psh, pencil-check,
subpencil, normalize, certify.  Exit codes: 0 all verdicts pass, 1
analysis completed with failing verdicts, 2 usage or configuration
error, 3 numerical failure (ill-conditioning, inversion divergence,
degenerate normalization).

stdout carries the report (plain-text summary by default, the full JSON
document with --json); stderr carries diagnostics.  JSON output contains
no timings or timestamps: with a fixed --seed, reports are byte
identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .capacity import (ChartUndecidableError, CompactSet1D, cap1d_transfinite,
                       cap_siciak)
from .expr import EvalError, ParseError, parse
from .jets import JetExtractionError, extract_jet
from .pencil import (DegenerateNormalizationError, NewtonInversionError,
                     PencilCheckError, check_holo_along_pencil, compute_H_G,
                     find_subpencil, load_pencil, preset_directions,
                     standard_pencil, tilde_normalize)
from .pipeline import AnalyzeConfig, forelli_analyze
from .psh import (PshFamily, average_on_torus, classify_trichotomy,
                  envelope_to_csv, upper_envelope)
from .report import build_report, to_json
from .series import FormalSeries, SeriesFormatError, torus
from .slices import (CertificateError, NotHolomorphicTypeError,
                     certify_polydisc, chart_poly_family, slice_series)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))


class ConfigError(ValueError):
    pass


def _load_directions(spec: str, n: int, seed: int) -> np.ndarray:
    """A ``preset_directions`` string seeded by --seed, or a JSON file."""
    try:
        return preset_directions(spec, n, seed)
    except ValueError:
        if not os.path.exists(spec):
            raise
    with open(spec, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return np.array([[complex(re, im) for re, im in vec] for vec in data])


def _parse_point(text: str) -> tuple:
    comps = []
    for token in text.split():
        re_s, _, im_s = token.partition(",")
        comps.append(complex(float(re_s), float(im_s or 0.0)))
    if not comps:
        raise ConfigError("empty point")
    return tuple(comps)


def _load_function(args, n: int):
    if getattr(args, "expr", None):
        return parse(args.expr, dim=n)
    if getattr(args, "expr_file", None):
        with open(args.expr_file, "r", encoding="utf-8") as fh:
            return parse(fh.read().strip(), dim=n)
    raise ConfigError("an expression is required (--expr or --expr-file)")


def _emit(args, report: dict, text_lines) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(to_json(report))
    if getattr(args, "json", False):
        sys.stdout.write(to_json(report))
    else:
        for line in text_lines:
            print(line)


def _exit_code(passed: bool) -> int:
    return EXIT_PASS if passed else EXIT_FAIL


# -- subcommand implementations ------------------------------------------------

def _cmd_analyze(args) -> int:
    n = args.dim
    cfg = AnalyzeConfig(order=args.order, r0=args.r0, K=args.K,
                        seed=args.seed, jet_tol=args.tol, rho_max=args.rho_max,
                        grid=args.grid)
    if args.series_file:
        f = FormalSeries.load(args.series_file)
        n = f.n
    else:
        f = _load_function(args, n)
    U = _load_directions(args.directions, n, args.seed)
    t0 = time.perf_counter()
    result = forelli_analyze(f, U, cfg)
    elapsed = time.perf_counter() - t0
    payload = result.to_dict()
    report = build_report(
        "analyze", payload["config"],
        payload["stages"],
        {"passed": result.passed, "final_verdict": result.final_verdict,
         "certificate": payload["certificate"],
         "per_direction": payload["per_direction"]},
        warnings=args.warnings)
    lines = [f"forelli-lab analyze v{__version__}"]
    for st in result.stages:
        lines.append(f"  [{st.status:>7}] {st.name}")
    lines.append(f"verdict: {result.final_verdict}")
    lines.append(f"elapsed: {elapsed:.2f} s")
    _emit(args, report, lines)
    return _exit_code(result.passed)


def _cmd_jet(args) -> int:
    n = args.dim
    f = _load_function(args, n)
    center = _parse_point(args.center) if args.center else None
    if center is not None and len(center) != n:
        raise ConfigError(f"center has {len(center)} components, expected {n}")
    jet = extract_jet(f, n, args.order, rho0=args.rho0, sigma=args.sigma,
                      rho_max=args.rho_max, grid=args.grid, tol=args.tol,
                      center=center)
    diag = {str(k): r for k, r in enumerate(jet.per_order_residuals)}
    report = build_report(
        "jet",
        {"dim": n, "order": args.order, "tol": args.tol, "rho0": args.rho0,
         "sigma": args.sigma, "rho_max": args.rho_max, "grid": args.grid,
         "center": args.center},
        [{"name": "jet", "status": "pass" if jet.full else "fail",
          "details": {"verdict": jet.verdict_text(),
                      "per_order_residuals": jet.per_order_residuals,
                      **jet.offenders()}}],
        {"passed": jet.full, "verdict": jet.verdict_text(),
         "series": jet.series.to_text()},
        warnings=args.warnings)
    if args.series_out:
        jet.series.save(args.series_out)
    lines = [jet.series.to_text().rstrip()]
    lines.append(json.dumps({"residuals": diag,
                             "verdict": jet.verdict_text()}, sort_keys=True))
    _emit(args, report, lines)
    return _exit_code(jet.full)


def _cmd_slice(args) -> int:
    S = FormalSeries.load(args.series_file)
    a = _parse_point(args.a)
    if len(a) != S.n:
        raise ConfigError(f"point has {len(a)} components, series has n={S.n}")
    sl = slice_series(S, a)
    coeffs = [{"p": p, "q": q, "coeff": [sl.coeffs[p, q].real,
                                         sl.coeffs[p, q].imag]}
              for p in range(S.max_order + 1)
              for q in range(S.max_order + 1 - p)
              if sl.coeffs[p, q] != 0]
    report = build_report(
        "slice", {"series_file": args.series_file,
                  "a": [[c.real, c.imag] for c in a]},
        [{"name": "slice", "status": "pass", "details": {}}],
        {"passed": True, "coefficients": coeffs},
        warnings=args.warnings)
    lines = [f"slice along a={a} of {args.series_file}:"]
    for c in coeffs:
        lines.append(f"  t^{c['p']} tbar^{c['q']}: {c['coeff']}")
    _emit(args, report, lines)
    return EXIT_PASS


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
    raise ConfigError(
        f"cannot parse set {spec!r}; use 'segment A B', 'disc RE IM R' or "
        "'points FILE'")


def _cmd_capacity(args) -> int:
    if args.siciak_ball is not None:
        rho = args.siciak_ball
        samples = torus((rho,), 256)[0][:, None]
        est = cap_siciak(samples, degree=args.degree, trials=args.trials,
                         seed=args.seed, closed_form=rho)
        cfg = {"siciak_ball": rho, "degree": args.degree,
               "trials": args.trials, "seed": args.seed}
    else:
        if not args.set:
            raise ConfigError("--set or --siciak-ball is required")
        E = _parse_set(args.set)
        est = cap1d_transfinite(E, args.m)
        cfg = {"set": args.set, "m": args.m}
    summary = {"passed": True, "value": est.value, "method": est.method,
               "points_used": est.points_used}
    closed = est.diagnostics.get("closed_form")
    if closed is not None:
        summary["closed_form"] = closed
    report = build_report("capacity", cfg,
                          [{"name": "capacity", "status": "pass",
                            "details": est.diagnostics}], summary,
                          warnings=args.warnings)
    lines = [f"capacity estimate: {est.value:.6g} ({est.method}, "
             f"points_used={est.points_used})"]
    if closed is not None:
        lines.append(f"closed-form reference: {closed:.6g}")
    _emit(args, report, lines)
    return EXIT_PASS


def _cmd_psh(args) -> int:
    S = FormalSeries.load(args.family)
    K = args.K if args.K is not None else min(200, S.max_order)
    if K > S.max_order:
        raise ConfigError(f"K={K} exceeds the series max_order {S.max_order}")
    family = PshFamily(chart_poly_family(S, K))
    if family.nvars != 1:
        raise ConfigError("psh grids need a 2-dimensional series (1 chart var)")
    stages = []
    summary = {"passed": True}
    lines = [f"psh family of {args.family}, K={K}"]
    if args.classify:
        verdict = classify_trichotomy(family, (args.r,), K, grid=args.grid)
        stages.append({"name": "trichotomy", "status": "pass",
                       "details": {"alpha_r": verdict.alpha_r,
                                   "case": verdict.case}})
        summary["case"] = verdict.case
        summary["alpha_r"] = verdict.alpha_r
        lines.append(f"  alpha_r = {verdict.alpha_r:.6g} -> {verdict.case}")
    if args.envelope:
        x0, x1, y0, y1 = (float(t) for t in args.envelope.split())
        field = upper_envelope(family, ((x0, x1), (y0, y1)), K,
                               num=args.envelope_num)
        stages.append({"name": "envelope", "status": "pass",
                       "details": {"exceptional_count": len(field.exceptional),
                                   "gap": field.gap}})
        summary["exceptional_count"] = len(field.exceptional)
        lines.append(f"  envelope: {len(field.exceptional)} exceptional nodes")
        if args.csv_out:
            with open(args.csv_out, "w", encoding="utf-8") as fh:
                fh.write(envelope_to_csv(field))
            lines.append(f"  wrote grid to {args.csv_out}")
    if not stages:
        avg = average_on_torus(family, 1, 0j, (args.r,), grid=args.grid)
        stages.append({"name": "average", "status": "pass",
                       "details": {"value": avg.value, "clipped": avg.clipped}})
        lines.append(f"  u_1^r(0) = {avg.value:.6g} (clipped {avg.clipped})")
    report = build_report(
        "psh", {"family": args.family, "r": args.r, "K": K,
                "grid": args.grid}, stages, summary,
        warnings=args.warnings)
    _emit(args, report, lines)
    return EXIT_PASS


def _pencil_from_args(args, n: int):
    if args.pencil:
        return load_pencil(args.pencil)
    U = _load_directions(args.directions, n, args.seed)
    return standard_pencil(n, U)


def _cmd_pencil_check(args) -> int:
    P = _pencil_from_args(args, args.dim)
    f = _load_function(args, P.n)
    radii = tuple(float(t) for t in args.radii.split(","))
    result = check_holo_along_pencil(f, P, radii, args.tol)
    worst = result.worst()
    report = build_report(
        "pencil-check",
        {"pencil": args.pencil or args.directions, "tol": args.tol,
         "radii": list(radii)},
        [{"name": "disc_residuals",
          "status": "pass" if result.passed else "fail",
          "details": {"worst_residual": worst,
                      "discs": len(result.residuals), **result.evidence()}}],
        {"passed": result.passed, "worst_residual": worst},
        warnings=args.warnings)
    lines = [f"checked {len(result.residuals)} discs; worst residual "
             f"{worst:.3g} (tol {args.tol:g})",
             "PASS" if result.passed else "FAIL"]
    _emit(args, report, lines)
    return _exit_code(result.passed)


def _cmd_subpencil(args) -> int:
    P = _pencil_from_args(args, args.dim)
    f = _load_function(args, P.n)
    result = find_subpencil(f, P, tol=args.tol, ell_max=args.ell_max)
    ok = not result.empty
    report = build_report(
        "subpencil",
        {"pencil": args.pencil or args.directions, "tol": args.tol,
         "ell_max": args.ell_max},
        [{"name": "subpencil", "status": "pass" if ok else "fail",
          "details": {"patch_size": int(result.direction_indices.size),
                      "m": result.m}}],
        {"passed": ok, "patch_size": int(result.direction_indices.size),
         "m": result.m},
        warnings=args.warnings)
    lines = [(f"subpencil: {result.direction_indices.size} directions at "
              f"disc radius 1/{result.m}") if ok
             else "subpencil: empty (no direction passes)"]
    _emit(args, report, lines)
    return _exit_code(ok)


def _cmd_normalize(args) -> int:
    P = _pencil_from_args(args, args.dim)
    v0 = _parse_point(args.v0)
    kdata = tilde_normalize(P, v0, eps=args.eps)
    stages = [{"name": "normalize", "status": "pass",
               "details": kdata.checks}]
    summary = {"passed": True, "checks": kdata.checks}
    lines = ["normalization admissible at v0: "
             + ", ".join(f"{k}={v:.3g}" for k, v in kdata.checks.items())]
    passed = True
    if args.expr or args.expr_file:
        f = _load_function(args, P.n)
        r_lo, r_hi = (float(t) for t in args.z1_ring.split())
        ring = np.concatenate([torus((r,), 24)[0]
                               for r in np.linspace(r_lo, r_hi, 6)])
        hg = compute_H_G(f, kdata, ring, tol_G=args.tol_g)
        stages.append({"name": "H_G", "status": "pass" if hg.passed else "fail",
                       "details": {"max_abs_G": hg.max_abs_G,
                                   "min_abs_H": hg.min_abs_H}})
        summary["max_abs_G"] = hg.max_abs_G
        summary["min_abs_H"] = hg.min_abs_H
        passed = hg.passed
        lines.append(f"H/G on ring [{r_lo}, {r_hi}]: max|G|={hg.max_abs_G:.3g},"
                     f" min|H|={hg.min_abs_H:.3g} -> "
                     + ("PASS: " + hg.claim if hg.passed else "FAIL"))
    summary["passed"] = passed
    report = build_report(
        "normalize",
        {"pencil": args.pencil or args.directions,
         "v0": [[c.real, c.imag] for c in v0], "eps": args.eps},
        stages, summary,
        warnings=args.warnings)
    _emit(args, report, lines)
    return _exit_code(passed)


def _cmd_certify(args) -> int:
    if args.series_file:
        S = FormalSeries.load(args.series_file)
        source = args.series_file
    else:
        f = _load_function(args, args.dim)
        jet = extract_jet(f, args.dim, args.order, rho_max=args.rho_max,
                          tol=args.tol)
        if not jet.full:
            print(f"jet extraction failed: {jet.verdict_text()}",
                  file=sys.stderr)
            return EXIT_FAIL
        S = jet.series
        source = args.expr or args.expr_file
    K = args.K if args.K is not None else S.max_order
    try:
        cert = certify_polydisc(S, args.r0, K, seed=args.seed)
    except CertificateError as exc:
        report = build_report(
            "certify", {"source": source, "r0": args.r0, "K": K,
                        "seed": args.seed},
            [{"name": "certificate", "status": "fail",
              "details": {"error": str(exc)}}],
            {"passed": False},
            warnings=args.warnings)
        _emit(args, report, [f"certificate refused: {exc}"])
        return EXIT_FAIL
    report = build_report(
        "certify", {"source": source, "r0": args.r0, "K": K,
                    "seed": args.seed},
        [{"name": "certificate", "status": "pass",
          "details": {"M": cert.M, "r_prime": list(cert.r_prime),
                      "margin": cert.margin,
                      "diagnostics": cert.diagnostics}}],
        {"passed": True, "M": cert.M, "r_prime": list(cert.r_prime)},
        warnings=args.warnings)
    rp = ", ".join(f"{r:.6g}" for r in cert.r_prime)
    _emit(args, report, [f"certificate: M={cert.M:.6g}, r'=({rp})"])
    return EXIT_PASS


# -- argument parsing -----------------------------------------------------------

def _add_common(sp, *, seed=True):
    if seed:
        sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--json", action="store_true",
                    help="print the full JSON report to stdout")
    sp.add_argument("--out", help="also write the JSON report to a file")


def _add_function_args(sp):
    sp.add_argument("--expr", help="expression in z1..zn")
    sp.add_argument("--expr-file", help="file containing one expression")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="forelli-lab",
        description="numerical holomorphy lab: series, jets, radii, "
                    "capacities and pencils of discs")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="full pipeline on a function or series")
    _add_function_args(sp)
    sp.add_argument("--series-file")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--order", type=int, default=16)
    sp.add_argument("--K", type=int, default=None)
    sp.add_argument("--r0", type=float, default=0.5)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--rho-max", type=float, default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--directions", default="sphere:200")
    _add_common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("jet", help="extract a formal Taylor jet")
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
    _add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_jet)

    sp = sub.add_parser("slice", help="restrict a series to a ray")
    sp.add_argument("--series-file", required=True)
    sp.add_argument("--a", required=True,
                    help="ray point, e.g. '1,0 2,0' for (1, 2)")
    _add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_slice)

    sp = sub.add_parser("capacity", help="logarithmic capacity estimates")
    sp.add_argument("--set", help="'segment A B' | 'disc RE IM R' | 'points FILE'")
    sp.add_argument("--m", type=int, default=128)
    sp.add_argument("--siciak-ball", type=float, default=None,
                    help="extremal-function estimate for a ball of this radius")
    sp.add_argument("--degree", type=int, default=32)
    sp.add_argument("--trials", type=int, default=200)
    _add_common(sp)
    sp.set_defaults(func=_cmd_capacity)

    sp = sub.add_parser("psh", help="plurisubharmonic family diagnostics")
    sp.add_argument("--family", required=True, help="series file")
    sp.add_argument("--r", type=float, default=1.0)
    sp.add_argument("--K", type=int, default=None)
    sp.add_argument("--grid", type=int, default=64)
    sp.add_argument("--classify", action="store_true")
    sp.add_argument("--envelope", help="grid region 'x0 x1 y0 y1'")
    sp.add_argument("--envelope-num", type=int, default=101)
    sp.add_argument("--csv-out")
    _add_common(sp, seed=False)
    sp.set_defaults(func=_cmd_psh)

    sp = sub.add_parser("pencil-check", help="disc holomorphy residuals")
    _add_function_args(sp)
    sp.add_argument("--pencil", help="pencil JSON file")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--directions", default="sphere:200")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--radii", default="0.3,0.6,0.9")
    _add_common(sp)
    sp.set_defaults(func=_cmd_pencil_check)

    sp = sub.add_parser("subpencil", help="find a uniform holomorphy patch")
    _add_function_args(sp)
    sp.add_argument("--pencil")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--directions", default="sphere:200")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--ell-max", type=int, default=8)
    _add_common(sp)
    sp.set_defaults(func=_cmd_subpencil)

    sp = sub.add_parser("normalize", help="disc-map normalization at v0")
    _add_function_args(sp)
    sp.add_argument("--pencil")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--directions", default="sphere:200")
    sp.add_argument("--v0", required=True, help="direction, e.g. '1,0 0,0'")
    sp.add_argument("--eps", type=float, default=0.4)
    sp.add_argument("--z1-ring", default="0.05 0.5")
    sp.add_argument("--tol-g", type=float, default=1e-6)
    _add_common(sp)
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("certify", help="polydisc convergence certificate")
    _add_function_args(sp)
    sp.add_argument("--series-file")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--order", type=int, default=16)
    sp.add_argument("--K", type=int, default=None)
    sp.add_argument("--r0", type=float, default=0.5)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--rho-max", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_certify)
    return ap


@contextlib.contextmanager
def _recorded_warnings():
    """Collect the UserWarnings that forelli_lab raises, for the report.

    Yields the list of distinct messages in first-seen order.  Each is
    still shown once on stderr, as ``UserWarning: <message>`` without the
    library's file and line, so the stderr bytes do not move with edits
    to the source; other warnings, such as numpy's floating-point
    RuntimeWarnings, pass through untouched and stay out of the report.
    """
    messages = []
    with warnings.catch_warnings():
        # past the once-per-location registry, so a repeated run records too
        warnings.filterwarnings("always", category=UserWarning,
                                module=r"forelli_lab(\.|$)")
        show = warnings.showwarning

        def record(message, category, filename, lineno, file=None, line=None):
            ours = os.path.dirname(os.path.abspath(filename)) == _PACKAGE_DIR
            if ours and issubclass(category, UserWarning):
                text = str(message)
                if text not in messages:
                    messages.append(text)
                    (file or sys.stderr).write(
                        f"{category.__name__}: {text}\n")
                return
            show(message, category, filename, lineno, file, line)

        warnings.showwarning = record
        yield messages


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        with _recorded_warnings() as args.warnings:
            return args.func(args)
    except (JetExtractionError, NewtonInversionError,
            DegenerateNormalizationError, EvalError,
            ChartUndecidableError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PencilCheckError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ConfigError, ParseError, SeriesFormatError,
            NotHolomorphicTypeError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
