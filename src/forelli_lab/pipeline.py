"""End-to-end analysis: from a function or series to a convergence verdict.

The pipeline checks, in order: holomorphy along the straight discs of the
sampled directions (hypothesis 2), existence of the full formal Taylor
jet (hypothesis 1), zbar-freeness of the jet, per-direction root-test
radii of the slice family, positivity of the chart capacity of the
direction set, and finally an explicit polydisc convergence certificate.
Every stage records a verdict; non-fatal failures keep the pipeline
going so the report shows all diagnostics.  The capacity stage reads
only the directions, so its normality check is computed once per
direction set and kept for the next analysis of the same rows.  The
final claim is always "modulo Hartogs extension": continuation beyond
the certified polydisc is out of scope here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .capacity import ChartUndecidableError, normality_check
from .jets import JetResult, extract_jet, jet_of_series
from .pencil import PencilSpec, check_holo_along_pencil, standard_pencil
from .report import build_report
from .series import FormalSeries
from .slices import (CERTIFICATE_SAMPLES, CertificateError,
                     ConvergenceCertificate, _check_K, _check_r0,
                     certify_polydisc, chart_map, chart_poly_family,
                     radius_root_test)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class Stage:
    name: str
    status: str
    details: dict = field(default_factory=dict)
    failure: str = ""           # a failing stage's clause of the verdict

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "details": self.details}


def _judged(name: str, ok: bool, details: dict, failure: str) -> Stage:
    return Stage(name, PASS if ok else FAIL, details, "" if ok else failure)


# fixed settings, reported in the config block of every analysis
RHO0 = 0.2                      # jet: innermost torus radius
SIGMA = 1.25                    # and the ratio of successive radii
DISC_TOL = 1e-8                 # disc_holomorphy: residual bound
DISC_RADII = (0.3, 0.6, 0.9)    # and the disc radii checked


@dataclass
class AnalyzeConfig:
    order: int = 16
    r0: float = 0.5
    K: Optional[int] = None              # defaults to order
    seed: int = 42
    jet_tol: float = 1e-6
    rho_max: Optional[float] = None
    grid: Optional[int] = None

    def to_dict(self, dimension: int) -> dict:
        """The config block of an analysis of directions in C^dimension."""
        return {
            "dimension": dimension, "order": self.order, "r0": self.r0,
            "K": self.K if self.K is not None else self.order,
            "seed": self.seed, "jet_tol": self.jet_tol, "rho0": RHO0,
            "sigma": SIGMA, "rho_max": self.rho_max, "grid": self.grid,
            "disc_tol": DISC_TOL, "disc_radii": list(DISC_RADII),
            "certificate_samples": CERTIFICATE_SAMPLES,
        }


@dataclass
class AnalysisReport:
    """One analysis, with the radii stage's estimate for each direction
    row: None without a chart, empty if the stage did not run."""
    stages: List[Stage]
    certificate: Optional[ConvergenceCertificate]
    final_verdict: str
    passed: bool
    config: dict
    jet: Optional[JetResult] = None
    R_estimate: List[Optional[float]] = field(default_factory=list)

    def stage(self, name: str) -> Optional[Stage]:
        return next((st for st in self.stages if st.name == name), None)

    def summary(self) -> dict:
        """The summary block of the ``analyze`` report."""
        c = self.certificate
        cert = None if c is None else {
            "M": c.M, "r0": c.r0, "r_prime": list(c.r_prime),
            "K_used": c.K_used, "margin": c.margin}
        return {"passed": self.passed, "final_verdict": self.final_verdict,
                "certificate": cert, "R_estimate": self.R_estimate}

    def to_dict(self) -> dict:
        """The ``analyze`` report of this analysis, with an empty
        ``warnings`` array: the command line records a run's warnings."""
        return build_report("analyze", self.config,
                            [s.to_dict() for s in self.stages],
                            self.summary())


# -- stages that analyze shares with the single-check subcommands --------------

def disc_stage(name: str, f, pencil, radii, tol: float) -> Stage:
    """Hypothesis (2): f is holomorphic along the discs of ``pencil`` at
    the given radii; ``name`` is the stage's name in the caller's report."""
    holo = check_holo_along_pencil(f, pencil, radii, tol)
    worst = holo.worst()
    details = {"worst_residual": worst, "tol": tol,
               "discs": len(holo.residuals), **holo.evidence()}
    clauses = [disc_errors(details)] if details["first_error"] else []
    if not clauses or worst > tol:
        clauses.append(f"some disc has antiholomorphic residual {worst:.3g}")
    return _judged(name, holo.passed, details,
                   "hypothesis (2) fails: " + "; ".join(clauses))


def disc_errors(details: dict) -> str:
    """How many discs of a disc stage raised, and the first of them."""
    first = details["first_error"]
    return (f"{details['discs_with_error']} of {details['discs']} discs "
            f"raised an error, the first at direction "
            f"{first['direction_index']}, radius {first['radius']:g}: "
            f"{first['error']}")


def jet_stage(f, n: int, order: int, tol: float,
              **schedule) -> Tuple[Stage, JetResult]:
    """Hypothesis (1): the formal Taylor jet of f up to ``order``;
    ``schedule`` holds extract_jet's radius, grid and center keywords."""
    jet = extract_jet(f, n, order, tol=tol, **schedule)
    return _judged("jet", jet.full,
                   {"verdict": jet.verdict_text(),
                    "max_consistent_order": jet.max_consistent_order,
                    "per_order_residuals": jet.per_order_residuals,
                    "tol": tol, **jet.offenders()},
                   f"hypothesis (1) fails: jet verdict {jet.verdict_text()}"
                   ), jet


def holomorphic_type_stage(series: FormalSeries) -> Stage:
    """The series has no zbar term; a failing stage names one."""
    verdict = series.is_holomorphic_type()
    if verdict:
        return Stage("holomorphic_type", PASS, {"is_holomorphic_type": True})
    I, J, c = verdict.witness
    return Stage("holomorphic_type", FAIL,
                 {"is_holomorphic_type": False,
                  "witness": {"I": list(I), "J": list(J),
                              "coeff": [c.real, c.imag]}},
                 "series is not of holomorphic type; witness term "
                 f"{verdict.witness[:2]}")


def certificate_stage(series: FormalSeries, r0: float, K: int, seed: int
                      ) -> Tuple[Stage, Optional[ConvergenceCertificate]]:
    """The polydisc convergence certificate of a zbar-free series, or the
    reason it is refused."""
    try:
        cert = certify_polydisc(series, r0, K, seed=seed)
    except CertificateError as exc:
        return Stage("certificate", FAIL, {"error": str(exc)},
                     f"certificate refused: {exc}"), None
    return Stage("certificate", PASS,
                 {"M": cert.M, "r_prime": list(cert.r_prime),
                  "margin": cert.margin,
                  "diagnostics": cert.diagnostics}), cert


# -- analyze-only stages -------------------------------------------------------

def _radii_stage(series: FormalSeries, K: int, units: np.ndarray
                 ) -> Tuple[List[Stage], List[Optional[float]]]:
    """The chart family and its root-test radii along the chart rays (1, b)
    of the unit rows, with each row's radius, None where it has no chart."""
    family = chart_poly_family(series, K)
    stages = [Stage("chart_family", PASS, {"K": K, "nvars": family.nvars})]
    window = K // 2
    if window < 4:
        stages.append(Stage("directional_radii", SKIPPED,
                            {"reason": f"family too short for the root test "
                                       f"(K={K}, window={window})"}))
        return stages, []
    charts, has_chart = chart_map(units)
    radii = radius_root_test(family.abs_values_at(
        charts[:, 0] if family.nvars == 1 else charts)).radius
    estimates = iter(radii.tolist())
    column = [next(estimates) if c else None for c in has_chart.tolist()]
    min_radius = float(radii.min(initial=math.inf))
    # the first direction with the smallest R
    min_index = column.index(min_radius) if radii.size else None
    stages.append(_judged("directional_radii", min_radius > 0,
                          {"min_R_estimate": min_radius,
                           "min_R_direction_index": min_index,
                           "chart_excluded": len(units) - len(charts),
                           "window": window},
                          "some directional radius estimate is zero"))
    return stages, column


@functools.lru_cache(maxsize=4)     # a few direction sets per process
def _normality(shape: Tuple[int, ...], rows: bytes):
    """normality_check of the complex128 rows with these bytes.  Only a
    result is kept, and its callers only read it: an error is raised
    again on every call."""
    return normality_check(np.frombuffer(rows, dtype=complex).reshape(shape))


def _capacity_stage(U: np.ndarray) -> Stage:
    """Capacity positivity of the chart image of the direction rows U."""
    try:
        norm = _normality(U.shape, U.tobytes())
    except (ChartUndecidableError, ValueError) as exc:
        return Stage("direction_capacity", FAIL, {"error": str(exc)},
                     str(exc))
    details = {"inscribed_radius": norm.radius,
               "resolution": norm.resolution,
               "capacity_lower_bound": norm.diagnostics["capacity_lower_bound"],
               "chart_dropped": norm.dropped}
    if "detail" in norm.diagnostics:
        details["detail"] = norm.diagnostics["detail"]
    return _judged("direction_capacity", norm.is_normal_sufficient, details,
                   "no inscribed chart ball at the sampling resolution; "
                   "normality not certified")


def forelli_analyze(f, directions, config: Optional[AnalyzeConfig] = None
                    ) -> AnalysisReport:
    """Run the full pipeline on an Expr/callable or an explicit series.

    ``directions`` is an array of vectors sampling an open subset of the
    sphere in C^n, where n is the series' dimension or, for a function,
    the rows' length.  The standard pencil through them checks the set
    and gives the unit rows that every later stage reads.  Function
    inputs get the straight-disc holomorphy check and jet extraction;
    series inputs start at the holomorphic-type stage.
    """
    cfg = config or AnalyzeConfig()
    U = np.atleast_2d(np.asarray(directions, dtype=complex))
    pencil = standard_pencil(f.n if isinstance(f, FormalSeries)
                             else U.shape[1], U)
    return run_stages(f, pencil.n, cfg, (pencil, U))


def run_stages(f, n: int, cfg: AnalyzeConfig,
               directions: Optional[Tuple[PencilSpec, np.ndarray]] = None
               ) -> AnalysisReport:
    """The stages of an analysis of f in C^n, in order.

    ``directions`` is the standard pencil of the direction set with the
    set's rows, as forelli_analyze passes them.
    Without it, as ``certify`` runs, the disc, chart-family, radii and
    capacity stages are left out.  The one skip rule: once the
    holomorphic-type stage fails, every later stage is reported skipped,
    since each reads the series as zbar-free.  An r0 that is not positive
    and finite, and a certificate order K below 1, are refused before the
    first stage.  K is cfg.K (else the order), capped at the order of the
    series or jet.
    """
    _check_r0(cfg.r0)
    K = min(cfg.K if cfg.K is not None else cfg.order,
            f.max_order if isinstance(f, FormalSeries) else cfg.order)
    _check_K(K)
    stages: List[Stage] = []
    if isinstance(f, FormalSeries):
        skipped = ("disc_holomorphy", "jet") if directions else ("jet",)
        stages += [Stage(name, SKIPPED, {"reason": "input is an explicit "
                                                   "series"})
                   for name in skipped]
        jet = jet_of_series(f)
    else:
        if directions:
            stages.append(disc_stage("disc_holomorphy", f, directions[0],
                                     DISC_RADII, DISC_TOL))
        stage, jet = jet_stage(f, n, cfg.order, cfg.jet_tol, rho0=RHO0,
                               sigma=SIGMA, rho_max=cfg.rho_max,
                               grid=cfg.grid)
        stages.append(stage)
    series = jet.series
    stages.append(holomorphic_type_stage(series))

    column, certificate = [], None
    later = (("chart_family", "directional_radii", "direction_capacity")
             if directions else ()) + ("certificate",)
    if stages[-1].status == FAIL:
        stages += [Stage(name, SKIPPED) for name in later]
    else:
        if directions:
            pencil, U = directions
            radii, column = _radii_stage(series, K, pencil.directions)
            stages += radii + [_capacity_stage(U)]
        stage, certificate = certificate_stage(series, cfg.r0, K, cfg.seed)
        stages.append(stage)

    failures = [s.failure for s in stages if s.status == FAIL]
    if failures:
        final = "; ".join(failures)
    else:
        rp = ", ".join(f"{r:.6g}" for r in certificate.r_prime)
        final = (f"holomorphic on B^{n}(0;r) u P_0(U) with certified "
                 f"polydisc polyradius ({rp}), modulo Hartogs extension "
                 "(out of scope)")
    return AnalysisReport(stages, certificate, final, not failures,
                          cfg.to_dict(n), jet, column)
