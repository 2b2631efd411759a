"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them live).

Every criterion is a pure, seeded function returning (passed, report_dict);
the determinism criterion re-runs each one and compares the serialized
reports byte for byte.  Tolerances and runtime budgets are asserted as
stated, never loosened.
"""

import math
import time

import numpy as np
import pytest

import forelli_lab as fl
from forelli_lab.report import build_report, to_json
from forelli_lab.slices import ChartPoly
from forelli_lab.psh import PshFamily

SEED = 42
_cache = {}


def _report(name, config, passed, details):
    return build_report(
        "acceptance", dict(config, criterion=name, seed=SEED),
        [{"name": name, "status": "pass" if passed else "fail",
          "details": details}],
        {"passed": bool(passed)})


# -- criterion implementations -------------------------------------------------

def criterion_1_euler_kernel():
    rng = np.random.default_rng(SEED)
    from conftest import random_series
    mismatches = 0
    sample_bad = 0
    for i in range(500):
        n = int(rng.integers(1, 4))
        S = random_series(rng, n, 8, num_terms=int(rng.integers(1, 14)),
                          holomorphic=bool(rng.integers(0, 2)))
        ker = S.euler_ebar().is_zero()
        holo = bool(S.is_holomorphic_type())
        if ker != holo:
            mismatches += 1
        pts = tuple(rng.standard_normal(100) + 1j * rng.standard_normal(100)
                    for _ in range(n))
        sampled = np.abs(S.euler_ebar().evaluate(pts)).max()
        if holo and sampled > 1e-10:
            sample_bad += 1
        if not holo and sampled <= 1e-10:
            sample_bad += 1
    passed = mismatches == 0 and sample_bad == 0
    return passed, _report(
        "euler_kernel_equivalence", {"series": 500, "max_degree": 8},
        passed, {"mismatches": mismatches, "sampling_disagreements": sample_bad})


def criterion_2_directional_radius():
    K = 200
    results = {}
    passed = True
    for b in (0.5, 2.0, 4.0):
        vals = np.empty(K + 1)
        for k in range(K + 1):
            vals[k] = abs(sum(b ** j for j in range(k + 1)))
        rt = fl.radius_root_test(vals)
        truth = min(1.0, 1.0 / abs(b))
        rel = abs(rt.radius / truth - 1.0)
        results[str(b)] = {"estimate": rt.radius, "truth": truth,
                           "rel_error": rel}
        passed = passed and rel <= 0.05
    return passed, _report("directional_radius_oracle", {"K": K}, passed,
                           results)


def criterion_3_certificate():
    f = fl.parse("1/((1-z1)*(1-z2))")
    jet = fl.extract_jet(f, 2, 20, rho_max=0.6, grid=128)
    ok_jet = jet.verdict == fl.FULL_JET
    cert = fl.certify_polydisc(jet.series, 0.5, 20, seed=SEED)
    rng = np.random.default_rng(SEED + 3)
    rad = 0.9 * np.array(cert.r_prime) * np.sqrt(rng.random((50, 2)))
    pts = rad * np.exp(2j * np.pi * rng.random((50, 2)))
    z = (pts[:, 0], pts[:, 1])
    worst = float(np.abs(f(z) - jet.series.evaluate(z)).max())
    passed = ok_jet and worst <= 1e-8
    return passed, _report(
        "certificate_soundness", {"order": 20, "r0": 0.5}, passed,
        {"jet_verdict": jet.verdict_text(), "M": cert.M,
         "r_prime": list(cert.r_prime), "max_pointwise_error": worst})


def criterion_4_counterexample_pipeline():
    f_text = "z1^2*z2*conj(z1)/normsq(z)"
    f = fl.parse(f_text)
    U = fl.sphere_directions(2, 500, seed=SEED)
    pencil = fl.standard_pencil(2, U)
    holo = fl.check_holo_along_pencil(f, pencil, (0.3, 0.6, 0.9), tol=1e-8)
    worst_disc = holo.worst()
    jet = fl.extract_jet(f, 2, 4)
    rep = fl.forelli_analyze(f, U, fl.AnalyzeConfig(order=4, seed=SEED))
    hypothesis_line = "hypothesis (1) fails" in rep.final_verdict
    passed = (holo.passed and worst_disc <= 1e-8
              and jet.verdict_text() == "JetUpTo(1)"
              and jet.per_order_residuals[2] > 1e-3
              and not rep.passed and hypothesis_line)
    return passed, _report(
        "counterexample_pipeline", {"function": f_text, "directions": 500},
        passed,
        {"worst_disc_residual": worst_disc,
         "jet_verdict": jet.verdict_text(),
         "order_2_residual": jet.per_order_residuals[2],
         "final_verdict": rep.final_verdict})


def criterion_5_capacity_oracles():
    details = {}
    seg = fl.cap1d_transfinite(fl.CompactSet1D.segment(-1, 1), 128)
    disc = fl.cap1d_transfinite(fl.CompactSet1D.disc(0, 0.7), 128)
    fin = fl.cap1d_transfinite(
        fl.CompactSet1D.finite_points([0, 1, 1j, -0.5]), 128)
    details["segment"] = {"value": seg.value, "truth": 0.5}
    details["disc"] = {"value": disc.value, "truth": 0.7}
    details["finite"] = {"value": fin.value, "truth": 0.0}
    passed = (abs(seg.value / 0.5 - 1) <= 0.02
              and abs(disc.value / 0.7 - 1) <= 0.02
              and fin.value == 0.0)
    theta = 2 * np.pi * np.arange(256) / 256
    for rho in (0.5, 1.0, 2.0):
        samples = (rho * np.exp(1j * theta))[:, None]
        est = fl.cap_siciak(samples, degree=32, trials=200, seed=SEED,
                            closed_form=rho)
        details[f"siciak_ball_{rho}"] = {"value": est.value, "truth": rho}
        passed = passed and abs(est.value / rho - 1) <= 0.05
    return passed, _report("capacity_oracles", {"m": 128, "degree": 32},
                           passed, details)


def _monomial_family(coef_fn, K):
    polys = [ChartPoly.from_dict(1, {(0,): 1.0})]
    polys += [ChartPoly.from_dict(1, {(k,): coef_fn(k)})
              for k in range(1, K + 1)]
    return PshFamily.from_polys(polys)


def criterion_6_trichotomy():
    # thresholds are configurable; the defaults (+-50) sit far outside the
    # log K growth of these families, so the run pins a separating value
    K, thr = 120, 3.0
    fam_a = _monomial_family(lambda k: float(k) ** -k, K)
    fam_b = _monomial_family(lambda k: float(k) ** k, K)
    fam_c = _monomial_family(lambda k: 1.0, K)
    va = fl.classify_trichotomy(fam_a, (1.0,), K, threshold=thr)
    vb = fl.classify_trichotomy(fam_b, (1.0,), K, threshold=thr)
    vc = fl.classify_trichotomy(fam_c, (1.0,), K, threshold=thr)
    field = fl.upper_envelope(fam_b, ((-1, 1), (-1, 1)), num=101)
    if field.exceptional:
        cloud = fl.CompactSet1D.sample_cloud(field.exceptional)
        exc_cap = fl.cap1d_transfinite(cloud, 8).value
    else:
        exc_cap = 0.0
    passed = (va.case == "MinusInfinity" and vb.case == "PlusInfinity"
              and vc.case == "Finite" and exc_cap <= 0.05)
    return passed, _report(
        "trichotomy", {"K": K, "threshold": thr}, passed,
        {"case_a": va.case, "case_b": vb.case, "case_c": vc.case,
         "alpha_a": va.alpha_r, "alpha_b": vb.alpha_r, "alpha_c": vc.alpha_r,
         "exceptional_capacity": exc_cap,
         "exceptional_count": len(field.exceptional)})


def criterion_7_lipschitz():
    slack = fl.psh.LIPSCHITZ_SLACK          # 1e-3
    rng = np.random.default_rng(SEED)
    failures = 0
    worst_margin = math.inf
    for _ in range(100):
        k = int(rng.integers(1, 61))
        coeffs = {(j,): complex(rng.standard_normal(), rng.standard_normal())
                  for j in range(k + 1)}
        polys = [ChartPoly.from_dict(1, {(0,): 1.0})] * k \
            + [ChartPoly.from_dict(1, coeffs)]
        fam = PshFamily.from_polys(polys)
        r0 = 0.5 + rng.random()
        r = (r0 + 0.05 + rng.random(),)
        s = (r0 + 0.05 + rng.random(),)
        z = 0.8 * complex(rng.standard_normal(), rng.standard_normal())
        w = 0.8 * complex(rng.standard_normal(), rng.standard_normal())
        chk = fl.lipschitz_check(fam, k, z, w, r, s, r0, grid=512)
        worst_margin = min(worst_margin, chk.rhs + slack - chk.lhs)
        if not chk.passed:
            failures += 1
    passed = failures == 0
    return passed, _report("lipschitz_estimate",
                           {"trials": 100, "slack": slack}, passed,
                           {"failures": failures,
                            "worst_margin": worst_margin})


def criterion_8_pencil_pipeline():
    U = fl.sphere_directions(2, 150, seed=SEED)
    twisted = fl.pencil_from_exprs(2, ["l*u1", "l*u2 + l^2*conj(u1)*u2"], U)
    f = fl.parse("exp(z1+z2)")
    kd = fl.tilde_normalize(twisted, (1.0, 0.0), eps=0.4)
    rr = np.linspace(0.05, 0.45, 6)
    tt = np.exp(2j * np.pi * np.arange(24) / 24)
    ring = (rr[:, None] * tt[None, :]).ravel()
    hg = fl.compute_H_G(f, kd, ring, tol_G=1e-7)
    sp = fl.find_subpencil(f, twisted, tol=1e-6, ell_max=8)
    radius = fl.standard_subpencil_radius(twisted, np.arange(25), mesh=1000)
    passed = (kd.checks["max_abs_k0"] <= 1e-8
              and kd.checks["max_slope_defect"] <= 1e-6
              and kd.checks["max_holo_residual"] <= 1e-8
              and hg.passed and hg.max_abs_G <= 1e-7 and hg.min_abs_H > 0
              and sp.m == 1
              and sp.direction_indices.size == twisted.num_directions
              and radius >= 0.1)
    return passed, _report(
        "twisted_pencil_pipeline", {"directions": 150, "mesh": 1000}, passed,
        {"normalize_checks": kd.checks, "max_abs_G": hg.max_abs_G,
         "min_abs_H": hg.min_abs_H,
         "subpencil_size": int(sp.direction_indices.size),
         "subpencil_m": sp.m, "standard_radius": radius})


def criterion_9_negative_controls():
    U = fl.sphere_directions(2, 100, seed=SEED)
    std = fl.standard_pencil(2, U)
    holo = fl.check_holo_along_pencil(fl.parse("conj(z1)"), std, tol=1e-8)
    sp = fl.find_subpencil(fl.parse("conj(z1)"), std, tol=1e-6, ell_max=4)
    S = (fl.FormalSeries.variable(1, 2, 8)
         + fl.FormalSeries.monomial((1, 0), (0, 1), 1.0, 8))
    verdict = S.is_holomorphic_type()
    witness_ok = (not verdict and verdict.witness[0] == (1, 0)
                  and verdict.witness[1] == (0, 1))
    passed = (not holo.passed and holo.worst() >= 0.5 and sp.empty
              and witness_ok)
    return passed, _report(
        "negative_controls", {"directions": 100}, passed,
        {"conj_worst_residual": holo.worst(), "subpencil_empty": sp.empty,
         "witness": [list(verdict.witness[0]), list(verdict.witness[1])]})


CRITERIA = [
    ("1", criterion_1_euler_kernel, 5.0),
    ("2", criterion_2_directional_radius, 1.0),
    ("3", criterion_3_certificate, 10.0),
    ("4", criterion_4_counterexample_pipeline, 30.0),
    ("5", criterion_5_capacity_oracles, 60.0),
    ("6", criterion_6_trichotomy, 20.0),
    ("7", criterion_7_lipschitz, 60.0),
    ("8", criterion_8_pencil_pipeline, 60.0),
    ("9", criterion_9_negative_controls, 5.0),
]


def _run(number, func, limit):
    t0 = time.perf_counter()
    passed, report = func()
    elapsed = time.perf_counter() - t0
    line = "criterion %s: %s [%.2f s, limit %.0f s]" % (
        number, "PASS" if passed else "FAIL", elapsed, limit)
    print(line)
    _cache[number] = to_json(report).encode()
    return passed, elapsed


@pytest.mark.parametrize("number,func,limit", CRITERIA,
                         ids=[f"criterion_{c[0]}" for c in CRITERIA])
def test_criterion(number, func, limit):
    passed, elapsed = _run(number, func, limit)
    assert passed, f"criterion {number} failed"
    assert elapsed < limit, f"criterion {number} exceeded {limit} s"


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    identical = True
    for number, func, _limit in CRITERIA:
        first = _cache.get(number)
        if first is None:
            first = to_json(func()[1]).encode()
        again = to_json(func()[1]).encode()
        if first != again:
            identical = False
            print(f"criterion 10: report for criterion {number} not "
                  "byte-identical")
    elapsed = time.perf_counter() - t0
    print("criterion 10: %s [%.2f s]" % ("PASS" if identical else "FAIL",
                                         elapsed))
    assert identical
