"""End-to-end analysis: from a function or series to a convergence verdict.

The pipeline checks, in order: holomorphy along the straight discs of the
sampled directions (hypothesis 2), existence of the full formal Taylor
jet (hypothesis 1), zbar-freeness of the jet, per-direction root-test
radii of the slice family, positivity of the chart capacity of the
direction set, and finally an explicit polydisc convergence certificate.
Every stage records a verdict; non-fatal failures keep the pipeline
going so the report shows all diagnostics.  The final claim is always
"modulo Hartogs extension": continuation beyond the certified polydisc
is out of scope here.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .capacity import ChartUndecidableError, normality_check
from .jets import FULL_JET, JetResult, extract_jet, jet_of_series
from .pencil import check_holo_along_pencil, standard_pencil
from .series import FormalSeries
from .slices import (CertificateError, ConvergenceCertificate,
                     certify_polydisc, chart_map, chart_poly_family,
                     radius_root_test)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
INFO = "info"


@dataclass
class Stage:
    name: str
    status: str
    details: dict = field(default_factory=dict)


# fixed settings, reported in the config block of every analysis
RHO0 = 0.2                      # jet: innermost torus radius
SIGMA = 1.25                    # and the ratio of successive radii
DISC_TOL = 1e-8                 # disc_holomorphy: residual bound
DISC_RADII = (0.3, 0.6, 0.9)    # and the disc radii checked
CERTIFICATE_SAMPLES = 64        # certificate: random chart points of the sup


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
            "root_window": None,             # the root test's window is K//2
            "certificate_samples": CERTIFICATE_SAMPLES,
        }


@dataclass
class AnalysisReport:
    stages: List[Stage]
    per_direction: List[dict]
    certificate: Optional[ConvergenceCertificate]
    final_verdict: str
    passed: bool
    config: dict
    jet: Optional[JetResult] = None

    def stage(self, name: str) -> Optional[Stage]:
        for st in self.stages:
            if st.name == name:
                return st
        return None

    def to_dict(self) -> dict:
        cert = None
        if self.certificate is not None:
            cert = {"M": self.certificate.M, "r0": self.certificate.r0,
                    "r_prime": list(self.certificate.r_prime),
                    "K_used": self.certificate.K_used,
                    "margin": self.certificate.margin}
        return {
            "config": self.config,
            "stages": [{"name": s.name, "status": s.status,
                        "details": s.details} for s in self.stages],
            "per_direction": self.per_direction,
            "certificate": cert,
            "final_verdict": self.final_verdict,
            "passed": self.passed,
        }


def forelli_analyze(f, directions, config: Optional[AnalyzeConfig] = None
                    ) -> AnalysisReport:
    """Run the full pipeline on an Expr/callable or an explicit series.

    ``directions`` is an array of unit vectors sampling an open subset
    of the sphere.  Function inputs get the straight-disc holomorphy
    check and jet extraction; series inputs start at the
    holomorphic-type stage.
    """
    cfg = config or AnalyzeConfig()
    U = np.atleast_2d(np.asarray(directions, dtype=complex))
    if U.size == 0:
        raise ValueError("direction set must be nonempty")
    # the capacity check reads only U, so it runs on a background thread,
    # in a copy of the caller's context, while the discs and the jet are
    # checked; leaving the block joins the thread on every exit
    with ThreadPoolExecutor(1) as background:
        capacity = background.submit(contextvars.copy_context().run,
                                     normality_check, U)
        return _analyze(f, U, cfg, capacity)


def _analyze(f, U: np.ndarray, cfg: AnalyzeConfig,
             capacity: Future) -> AnalysisReport:
    """The stages of forelli_analyze; ``capacity`` resolves to the
    normality check of U."""
    n = U.shape[1]
    K = cfg.K if cfg.K is not None else cfg.order
    stages: List[Stage] = []
    per_direction: List[dict] = []
    certificate = None
    failures: List[str] = []

    is_series = isinstance(f, FormalSeries)

    # hypothesis (2): holomorphy along the straight discs of U
    if is_series:
        stages.append(Stage("disc_holomorphy", SKIPPED,
                            {"reason": "input is an explicit series"}))
    else:
        pencil = standard_pencil(n, U)
        holo = check_holo_along_pencil(f, pencil, DISC_RADII, DISC_TOL)
        worst = holo.worst()
        stages.append(Stage(
            "disc_holomorphy", PASS if holo.passed else FAIL,
            {"worst_residual": worst, "tol": DISC_TOL,
             "discs_checked": len(holo.residuals), **holo.evidence()}))
        if not holo.passed:
            failures.append("hypothesis (2) fails: some disc has "
                            f"antiholomorphic residual {worst:.3g}")

    # hypothesis (1): the full formal Taylor jet exists
    if is_series:
        jet = jet_of_series(f)
        stages.append(Stage("jet", SKIPPED,
                            {"reason": "input is an explicit series"}))
    else:
        jet = extract_jet(f, n, cfg.order, rho0=RHO0, sigma=SIGMA,
                          rho_max=cfg.rho_max, grid=cfg.grid, tol=cfg.jet_tol)
        ok = jet.verdict == FULL_JET
        stages.append(Stage(
            "jet", PASS if ok else FAIL,
            {"verdict": jet.verdict_text(),
             "max_consistent_order": jet.max_consistent_order,
             "per_order_residuals": jet.per_order_residuals,
             "tol": cfg.jet_tol,
             **jet.offenders()}))
        if not ok:
            failures.append(
                f"hypothesis (1) fails: jet verdict {jet.verdict_text()}")
    series = jet.series

    # zbar-freeness of the (candidate) jet
    verdict = series.is_holomorphic_type()
    det = {"is_holomorphic_type": bool(verdict)}
    if not verdict:
        I, J, c = verdict.witness
        det["witness"] = {"I": list(I), "J": list(J), "coeff": [c.real, c.imag]}
    stages.append(Stage("holomorphic_type", PASS if verdict else FAIL, det))
    if not verdict:
        failures.append("series is not of holomorphic type; "
                        f"witness term {verdict.witness[:2]}")
        final = "; ".join(failures)
        stages.append(Stage("chart_family", SKIPPED, {}))
        stages.append(Stage("directional_radii", SKIPPED, {}))
        stages.append(Stage("direction_capacity", SKIPPED, {}))
        stages.append(Stage("certificate", SKIPPED, {}))
        return AnalysisReport(stages, per_direction, None, final, False,
                              cfg.to_dict(n), jet)

    K = min(K, series.max_order)
    family = chart_poly_family(series, K)
    stages.append(Stage("chart_family", PASS, {"K": K, "nvars": family.nvars}))

    # per-direction root-test radii along the chart rays (1, b)
    window = K // 2
    if window < 4:
        stages.append(Stage("directional_radii", SKIPPED,
                            {"reason": f"family too short for the root test "
                                       f"(K={K}, window={window})"}))
    else:
        # row by row, as np.linalg.norm(U, axis=1) rounds differently; a
        # zero row stays zero, and chart_map rejects it
        norms = np.array([np.linalg.norm(v) for v in U])[:, None]
        units = np.divide(U, norms, out=np.zeros_like(U), where=norms > 0)
        charts, has_chart = chart_map(units)
        columns = iter(family.abs_values_at(
            charts[:, 0] if family.nvars == 1 else charts).T)
        rows = iter(charts.tolist())
        min_radius = float("inf")
        min_index = None              # first direction with the smallest R
        for index, unit in enumerate(units.tolist()):
            entry = {"direction": [[v.real, v.imag] for v in unit],
                     "chart": None, "R_estimate": None}
            if has_chart[index]:
                radius = radius_root_test(next(columns), K, window).radius
                entry["chart"] = [[v.real, v.imag] for v in next(rows)]
                entry["R_estimate"] = radius
                if min_index is None or radius < min_radius:
                    min_radius, min_index = radius, index
            per_direction.append(entry)
        stages.append(Stage("directional_radii",
                            PASS if min_radius > 0 else FAIL,
                            {"min_R_estimate": min_radius,
                             "min_R_direction_index": min_index,
                             "chart_excluded": len(U) - len(charts),
                             "window": window}))
        if min_radius <= 0:
            failures.append("some directional radius estimate is zero")

    # capacity positivity of the chart image of U
    try:
        norm = capacity.result()
        details = {"inscribed_radius": norm.radius,
                   "resolution": norm.resolution,
                   "capacity_lower_bound":
                       norm.diagnostics["capacity_lower_bound"],
                   "chart_dropped": norm.dropped}
        if "detail" in norm.diagnostics:
            details["detail"] = norm.diagnostics["detail"]
        stages.append(Stage(
            "direction_capacity", PASS if norm.is_normal_sufficient else FAIL,
            details))
        if not norm.is_normal_sufficient:
            failures.append("no inscribed chart ball at the sampling "
                            "resolution; normality not certified")
    except (ChartUndecidableError, ValueError) as exc:
        stages.append(Stage("direction_capacity", FAIL, {"error": str(exc)}))
        failures.append(str(exc))

    # explicit polydisc certificate
    try:
        certificate = certify_polydisc(series, cfg.r0, K, CERTIFICATE_SAMPLES,
                                       seed=cfg.seed)
        stages.append(Stage("certificate", PASS,
                            {"M": certificate.M,
                             "r_prime": list(certificate.r_prime),
                             "diagnostics": certificate.diagnostics}))
    except CertificateError as exc:
        stages.append(Stage("certificate", FAIL, {"error": str(exc)}))
        failures.append(f"certificate refused: {exc}")

    passed = not failures
    if passed:
        rp = ", ".join(f"{r:.6g}" for r in certificate.r_prime)
        final = (f"holomorphic on B^{n}(0;r) u P_0(U) with certified "
                 f"polydisc polyradius ({rp}), modulo Hartogs extension "
                 "(out of scope)")
    else:
        final = "; ".join(failures)
    return AnalysisReport(stages, per_direction, certificate, final, passed,
                          cfg.to_dict(n), jet)
