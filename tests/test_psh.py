import math

import numpy as np
import pytest

from forelli_lab import (CompactSet1D, average_on_torus, cap1d_transfinite,
                         classify_trichotomy, lipschitz_check, upper_envelope)
from forelli_lab.psh import (CLIP_FLOOR, FINITE, MINUS_INFINITY, PLUS_INFINITY,
                             V_GAP, PshFamily)
from forelli_lab.series import torus
from forelli_lab.slices import ChartPoly


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def monomial_family(coef_fn, K, power_fn=lambda k: k):
    polys = [ChartPoly.from_dict(1, {(0,): 1.0})]
    polys += [ChartPoly.from_dict(1, {(power_fn(k),): coef_fn(k)})
              for k in range(1, K + 1)]
    return PshFamily.from_polys(polys)


def constant_family(c, K):
    polys = [ChartPoly.from_dict(1, {(0,): c}) for _ in range(K + 1)]
    return PshFamily.from_polys(polys)


class TestTorusAverage:
    def test_mean_of_log_abs_is_log_radius(self):
        fam = monomial_family(lambda k: 1.0, 60)   # P_k = z^k, u_k = log|z|
        for r in (0.5, 1.0, 2.0):
            avg = average_on_torus(fam, 17, 0j, (r,), grid=64)
            assert avg.value == pytest.approx(math.log(r), abs=1e-6)

    def test_constant_polynomial_exact(self):
        fam = constant_family(3.0 - 4.0j, 20)      # |c| = 5
        avg = average_on_torus(fam, 7, 0.3j, (1.7,))
        # exact up to the summation rounding of the mean
        assert abs(avg.value - math.log(5.0) / 7) <= 1e-15

    def test_harmonic_mean_value_off_zero(self):
        # center 2, radius 1: mean of log|z| is log 2 (zero outside the disc)
        fam = monomial_family(lambda k: 1.0, 60)
        avg = average_on_torus(fam, 11, 2.0 + 0j, (1.0,), grid=128)
        assert avg.value == pytest.approx(math.log(2.0), abs=1e-6)

    def test_clipping_flagged(self):
        # P_k(2) = 0 exactly, and the angle-0 node of the torus around 1
        # with radius 1 lands on z = 2 exactly
        polys = [ChartPoly.from_dict(1, {(0,): -2.0, (1,): 1.0})] * 11
        fam = PshFamily.from_polys(polys)
        avg = average_on_torus(fam, 3, 1.0 + 0j, (1.0,), grid=64)
        assert avg.clipped == 1
        assert avg.value <= -900 / 64  # one clipped node drags the mean

    def test_submean_inequality(self, rng):
        for _ in range(20):
            deg = int(rng.integers(1, 8))
            coeffs = {(j,): complex(rng.standard_normal(),
                                    rng.standard_normal())
                      for j in range(deg + 1)}
            fam = PshFamily.from_polys(
                [ChartPoly.from_dict(1, {(0,): 1.0})] * 1
                + [ChartPoly.from_dict(1, coeffs)] * 8)
            z = complex(rng.standard_normal(), rng.standard_normal()) * 0.5
            r = 0.3 + rng.random()
            uk = fam.u(5, np.array([z]))[0]
            avg = average_on_torus(fam, 5, z, (r,), grid=256)
            assert uk <= avg.value + 1e-3

    def test_center_must_be_finite(self):
        fam = monomial_family(lambda k: 1.0, 30)
        error = r"^center must be finite, not \(\(nan\+0j\),\)$"
        with pytest.raises(ValueError, match=error):
            average_on_torus(fam, 9, math.nan, (1.0,))
        with pytest.raises(ValueError, match=error):
            lipschitz_check(fam, 9, math.nan, 0j, (1.0,), (1.0,), 0.5)

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
    def test_polyradius_must_be_positive_and_finite(self, r):
        # every torus average refuses it: classify_trichotomy's, and
        # lipschitz_check's where r exceeds its r0
        fam = monomial_family(lambda k: 1.0, 30)
        error = ("^polyradius entries must be positive and finite, "
                 rf"not \({r},\)$")
        calls = [lambda: average_on_torus(fam, 9, 0j, (r,)),
                 lambda: classify_trichotomy(fam, (r,), 30)]
        if not r <= 0.5:
            calls.append(lambda: lipschitz_check(fam, 9, 0j, 0j, (r,),
                                                 (1.0,), 0.5))
        for call in calls:
            with pytest.raises(ValueError, match=error):
                call()

    def test_grid_refinement_stable(self):
        fam = monomial_family(lambda k: 1.0, 30)
        a = average_on_torus(fam, 9, 0.4 + 0.1j, (1.1,), grid=64).value
        b = average_on_torus(fam, 9, 0.4 + 0.1j, (1.1,), grid=128).value
        assert abs(a - b) <= 1e-4

    @pytest.mark.parametrize("nvars,z,r", [
        (1, 0j, (0.5, 7.0)),          # a longer r lost its extra radius
        (1, (0j, 0j), (0.5, 0.5)),    # a longer z averaged per coordinate
        (1, 0j, ()),                  # a shorter r raised IndexError
        (2, (0j, 0j), (0.5,)),
    ])
    def test_rejects_lengths_off_the_family(self, nvars, z, r):
        polys = [ChartPoly.from_dict(nvars, {(1,) * nvars: 1.0})] * 4
        fam = PshFamily.from_polys(polys)
        with pytest.raises(ValueError, match="polyradius"):
            average_on_torus(fam, 2, z, r)


class TestLipschitz:
    def test_degenerate_equality(self):
        fam = monomial_family(lambda k: 1.0, 30)
        chk = lipschitz_check(fam, 10, 0j, 0j, (1.5,), (1.5,), r0=1.0)
        assert chk.lhs == 0.0 and chk.passed

    def test_geometric_family_config(self):
        # P_k(b) = sum b^j regrouped from the geometric product series
        polys = [ChartPoly.from_dict(1, {(j,): 1.0 for j in range(k + 1)})
                 for k in range(51)]
        fam = PshFamily.from_polys(polys)
        chk = lipschitz_check(fam, 50, 0j, 0.1 + 0j, (1.0,), (1.2,), r0=0.9)
        assert chk.passed
        assert chk.rhs == pytest.approx((0.2 + 0.1) / 0.9)

    def test_random_polynomial_sweep(self, rng):
        # the bound is a theorem; 50 random configurations must all pass
        for _ in range(50):
            k = int(rng.integers(1, 61))
            coeffs = {(j,): complex(rng.standard_normal(),
                                    rng.standard_normal())
                      for j in range(k + 1)}
            polys = [ChartPoly.from_dict(1, {(0,): 1.0})] * (k) \
                + [ChartPoly.from_dict(1, coeffs)]
            fam = PshFamily.from_polys(polys)
            r0 = 0.5 + rng.random()
            r = (r0 + 0.05 + rng.random(),)
            s = (r0 + 0.05 + rng.random(),)
            z = 0.8 * complex(rng.standard_normal(), rng.standard_normal())
            w = 0.8 * complex(rng.standard_normal(), rng.standard_normal())
            chk = lipschitz_check(fam, k, z, w, r, s, r0, grid=512)
            assert chk.passed

    def test_radius_floor_enforced(self):
        fam = monomial_family(lambda k: 1.0, 10)
        with pytest.raises(ValueError):
            lipschitz_check(fam, 5, 0j, 0j, (0.8,), (1.5,), r0=1.0)


class TestTrichotomy:
    K = 120

    def fam_a(self):
        return monomial_family(lambda k: float(k) ** -k, self.K)

    def fam_b(self):
        return monomial_family(lambda k: float(k) ** k, self.K)

    def fam_c(self):
        return monomial_family(lambda k: 1.0, self.K)

    def test_three_cases(self):
        va = classify_trichotomy(self.fam_a(), (1.0,), self.K, threshold=3.0)
        vb = classify_trichotomy(self.fam_b(), (1.0,), self.K, threshold=3.0)
        vc = classify_trichotomy(self.fam_c(), (1.0,), self.K, threshold=3.0)
        assert va.case == MINUS_INFINITY
        assert vb.case == PLUS_INFINITY
        assert vc.case == FINITE
        # exclusivity is structural: exactly one case string each
        assert len({va.case, vb.case, vc.case}) == 3

    def test_finite_alpha_value(self):
        for r in (0.5, 1.0, 1.5):
            v = classify_trichotomy(self.fam_c(), (r,), self.K, threshold=3.0)
            assert v.alpha_r == pytest.approx(math.log(r), abs=1e-6)

    def test_exceptional_sample_concentrates_at_zero(self):
        vb = classify_trichotomy(self.fam_b(), (1.0,), self.K, threshold=3.0)
        exc = vb.evidence["exceptional_sample"]
        assert exc, "expected a nonempty exceptional sample"
        assert all(abs(complex(z)) <= 0.15 for z in exc)

    def test_requires_long_family(self):
        with pytest.raises(ValueError):
            classify_trichotomy(self.fam_c(), (1.0,), 10)


class TestEnvelope:
    K = 120

    def test_power_family_envelope_is_log_abs(self):
        fam = monomial_family(lambda k: 1.0, self.K)
        field = upper_envelope(fam, ((-1, 1), (-1, 1)), num=81)
        nodes = field.nodes
        mask = np.abs(nodes) > 0.1
        assert np.allclose(field.u[mask], np.log(np.abs(nodes[mask])),
                           atol=1e-12)
        away = [z for z in field.exceptional if abs(z) > 0.05]
        assert not away

    def test_superexponential_family_exceptional_capacity(self):
        fam = monomial_family(lambda k: float(k) ** k, self.K)
        field = upper_envelope(fam, ((-1, 1), (-1, 1)), num=101)
        assert field.exceptional
        assert all(abs(z) <= 0.1 for z in field.exceptional)
        cloud = CompactSet1D.sample_cloud(field.exceptional)
        est = cap1d_transfinite(cloud, 8)
        assert est.value <= 0.05

    def test_constant_family_no_exceptional(self):
        fam = constant_family(1.0, 40)
        field = upper_envelope(fam, ((-1, 1), (-1, 1)), num=41)
        assert np.all(field.u == 0.0)
        assert np.all(field.u_star == 0.0)
        assert not field.exceptional

    def test_region_must_be_finite(self):
        fam = constant_family(1.0, 40)
        with pytest.raises(ValueError, match=r"^envelope region must be "
                           r"finite, not \(\(-1, 1\), \(-1, nan\)\)$"):
            upper_envelope(fam, ((-1, 1), (-1, math.nan)), num=5)

    def test_csv_export(self):
        from forelli_lab.psh import envelope_to_csv
        fam = constant_family(1.0, 40)
        field = upper_envelope(fam, ((0, 1), (0, 1)), num=5)
        text = envelope_to_csv(field)
        assert text.splitlines()[0] == "x,y,u,u_star"
        assert len(text.splitlines()) == 26

    def test_csv_fields_are_plain_numbers(self):
        from forelli_lab.psh import envelope_to_csv
        fam = monomial_family(lambda k: 1.0, 40)
        field = upper_envelope(fam, ((-1, 1), (-1, 1)), num=9)
        lines = envelope_to_csv(field).splitlines()[1:]
        rows = [[float(t) for t in line.split(",")] for line in lines]
        assert len(rows) == 81 and all(len(r) == 4 for r in rows)
        assert rows[0][:2] == [-1.0, -1.0]
        assert rows[1][:2] == [-0.75, -1.0]
        for x, y, u, _ in rows:
            if abs(complex(x, y)) > 0.1:
                assert u == pytest.approx(math.log(abs(complex(x, y))),
                                          abs=1e-12)


# -- one k at a time, as the estimates read before values_at took member lists

def ref_u(family, k, points):
    vals = np.abs(family.family.polys[k](points))
    with np.errstate(divide="ignore"):
        return np.log(vals) / k


def ref_average(family, k, z, r, grid=64):
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    nodes = torus(np.atleast_1d(np.asarray(r, dtype=float)), grid)
    pts = np.stack([z[j] + nodes[j] for j in range(len(z))], axis=-1)
    vals = ref_u(family, k, pts[..., 0] if len(z) == 1 else pts)
    clipped = int(np.sum(~np.isfinite(vals)))
    return float(np.mean(np.maximum(vals, CLIP_FLOOR))), clipped


def ref_classify(family, r, K, grid, threshold):
    nv = family.nvars
    zero = np.zeros(nv, dtype=complex) if nv > 1 else 0j
    averages = np.array([ref_average(family, k, zero, r, grid)[0]
                         for k in range(1, K + 1)])
    tail_start = K - math.ceil(K / 2)
    alpha = float(averages[tail_start:].max())
    evidence = {"tail_averages": averages[tail_start:].tolist()}
    if alpha >= threshold:
        pos = [k for k in range(tail_start + 1, K + 1) if averages[k - 1] > 0]
        side = np.linspace(-1.0, 1.0, 21)
        xx, yy = np.meshgrid(side, side)
        flat = (xx + 1j * yy).ravel()
        sample_points = flat if nv == 1 else np.column_stack([flat] * nv)
        vmax = np.full(len(sample_points), -np.inf)
        for k in pos:
            vmax = np.maximum(vmax, ref_u(family, k, sample_points)
                              / averages[k - 1])
        evidence["subsequence"] = pos
        evidence["exceptional_sample"] = \
            sample_points[vmax < 1.0 - V_GAP].tolist()
    return alpha, evidence


def ref_envelope_u(family, nodes, K):
    u = np.full(nodes.shape, -np.inf)
    for k in range(K - math.ceil(K / 2) + 1, K + 1):
        u = np.maximum(u, ref_u(family, k, nodes))
    return np.maximum(u, CLIP_FLOOR)


def random_family(rng, nv, K, max_terms):
    polys = [ChartPoly(nv, rng.integers(0, k + 2, (T, nv)),
                       rng.standard_normal(T) + 1j * rng.standard_normal(T))
             for k, T in enumerate(rng.integers(0, max_terms + 1, K + 1))]
    return PshFamily.from_polys(polys)


class TestAgainstOneKAtATime:
    K = 120

    @pytest.mark.parametrize("coef, case", [
        (lambda k: float(k) ** -k, MINUS_INFINITY),
        (lambda k: float(k) ** k, PLUS_INFINITY),
        (lambda k: 1.0, FINITE)])
    @pytest.mark.parametrize("K", [120, 65, 64, 41])
    def test_trichotomy_cases(self, coef, case, K):
        fam = monomial_family(coef, self.K)
        v = classify_trichotomy(fam, (1.0,), K, threshold=3.0)
        alpha, evidence = ref_classify(fam, (1.0,), K, 64, 3.0)
        assert v.case == case
        assert math.copysign(1, v.alpha_r) == math.copysign(1, alpha)
        assert v.alpha_r == alpha
        for key, want in evidence.items():
            assert v.evidence[key] == want
        if case == PLUS_INFINITY:
            assert v.evidence["exceptional_sample"]

    @pytest.mark.parametrize("nv, grid", [(1, 16), (1, 64), (2, 16), (2, 33)])
    def test_random_families(self, rng, nv, grid):
        fam = random_family(rng, nv, 30, 5)       # members with no terms too
        r = (0.8,) * nv
        for threshold in (0.1, 50.0):
            v = classify_trichotomy(fam, r, 30, grid, threshold=threshold)
            alpha, evidence = ref_classify(fam, r, 30, grid, threshold)
            assert repr(v.alpha_r) == repr(alpha)
            for key, want in evidence.items():
                assert repr(v.evidence[key]) == repr(want)
        z = 0.2 - 0.1j if nv == 1 else (0.2, -0.1j)
        for k in range(1, 31):
            assert tuple(average_on_torus(fam, k, z, r, grid)) \
                == ref_average(fam, k, z, r, grid)

    def test_plus_case_in_two_variables(self):
        fam = monomial_family(lambda k: float(k) ** k, 40)
        polys = [ChartPoly(2, p.exponents.repeat(2, axis=1), p.coeffs)
                 for p in fam.family.polys]
        fam2 = PshFamily.from_polys(polys)
        v = classify_trichotomy(fam2, (1.0, 1.0), 40, 16, threshold=3.0)
        alpha, evidence = ref_classify(fam2, (1.0, 1.0), 40, 16, 3.0)
        assert v.case == PLUS_INFINITY and v.alpha_r == alpha
        assert v.evidence["exceptional_sample"] \
            == evidence["exceptional_sample"] != []

    def test_vanishing_member_is_clipped(self):
        # P_k(2) = 0 exactly on the torus around 1 of radius 1, and P_5 is
        # the empty polynomial, -inf everywhere
        polys = [ChartPoly.from_dict(1, {(0,): -2.0, (1,): 1.0})] * 5 \
            + [ChartPoly(1, np.zeros((0, 1), dtype=int), [])] * 2
        fam = PshFamily.from_polys(polys)
        for k, clipped in ((3, 1), (5, 64)):
            avg = average_on_torus(fam, k, 1.0 + 0j, (1.0,), grid=64)
            assert tuple(avg) == ref_average(fam, k, 1.0 + 0j, (1.0,), 64)
            assert avg.clipped == clipped
        assert fam.u(5, np.array([0.5, 2.0])).tolist() == [-np.inf, -np.inf]

    @pytest.mark.parametrize("num", [9, 41, 64, 101])
    def test_envelope(self, num):
        fam = monomial_family(lambda k: float(k) ** k, 60)
        field = upper_envelope(fam, ((-1, 1), (-1, 1)), num=num)
        assert same_bits(field.u, ref_envelope_u(fam, field.nodes, 60))

    def test_u_rows(self, rng):
        fam = random_family(rng, 2, 12, 4)
        pts = rng.standard_normal((7, 5, 2)) + 1j * rng.standard_normal((7, 5, 2))
        for k in range(1, 13):
            assert same_bits(fam.u(k, pts), ref_u(fam, k, pts))
            assert same_bits(fam.u(k, pts[0, 0]), ref_u(fam, k, pts[0, 0]))


class TestErrorsKept:
    def test_small_grid(self):
        fam = monomial_family(lambda k: 1.0, 30)
        with pytest.raises(ValueError, match="^grid must be >= 16 per angle$"):
            average_on_torus(fam, 0, 0j, (1.0,), grid=15)
        with pytest.raises(ValueError, match="^grid must be >= 16 per angle$"):
            classify_trichotomy(fam, (1.0,), 30, grid=8)

    def test_lengths(self):
        fam = monomial_family(lambda k: 1.0, 30)
        with pytest.raises(ValueError, match="^center and polyradius need 1 "
                                             "components$"):
            classify_trichotomy(fam, (1.0, 1.0), 30)

    @pytest.mark.parametrize("k", [0, -1, 31])
    def test_k_outside_the_family(self, k):
        fam = monomial_family(lambda k: 1.0, 30)
        message = f"^k={k} outside 1..30$"
        with pytest.raises(ValueError, match=message):
            fam.u(k, np.zeros(4))
        with pytest.raises(ValueError, match=message):
            average_on_torus(fam, k, 0j, (1.0,))

    def test_classify_past_the_family(self):
        fam = monomial_family(lambda k: 1.0, 30)
        with pytest.raises(ValueError, match="^k=31 outside 1..30$"):
            classify_trichotomy(fam, (1.0,), 40)
