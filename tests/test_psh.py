import math

import numpy as np
import pytest

from forelli_lab import (CompactSet1D, average_on_torus, cap1d_transfinite,
                         classify_trichotomy, lipschitz_check, upper_envelope)
from forelli_lab.psh import FINITE, MINUS_INFINITY, PLUS_INFINITY, PshFamily
from forelli_lab.slices import ChartPoly


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

    def test_grid_refinement_stable(self):
        fam = monomial_family(lambda k: 1.0, 30)
        a = average_on_torus(fam, 9, 0.4 + 0.1j, (1.1,), grid=64).value
        b = average_on_torus(fam, 9, 0.4 + 0.1j, (1.1,), grid=128).value
        assert abs(a - b) <= 1e-4


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
        field = upper_envelope(fam, ((-1, 1), (-1, 1)), self.K, num=81)
        nodes = field.nodes
        mask = np.abs(nodes) > 0.1
        assert np.allclose(field.u[mask], np.log(np.abs(nodes[mask])),
                           atol=1e-12)
        away = [z for z in field.exceptional if abs(z) > 0.05]
        assert not away

    def test_superexponential_family_exceptional_capacity(self):
        fam = monomial_family(lambda k: float(k) ** k, self.K)
        field = upper_envelope(fam, ((-1, 1), (-1, 1)), self.K, num=101)
        assert field.exceptional
        assert all(abs(z) <= 0.1 for z in field.exceptional)
        cloud = CompactSet1D.sample_cloud(field.exceptional)
        est = cap1d_transfinite(cloud, 8)
        assert est.value <= 0.05

    def test_constant_family_no_exceptional(self):
        fam = constant_family(1.0, 40)
        field = upper_envelope(fam, ((-1, 1), (-1, 1)), 40, num=41)
        assert np.all(field.u == 0.0)
        assert np.all(field.u_star == 0.0)
        assert not field.exceptional

    def test_csv_export(self):
        from forelli_lab.psh import envelope_to_csv
        fam = constant_family(1.0, 40)
        field = upper_envelope(fam, ((0, 1), (0, 1)), 40, num=5)
        text = envelope_to_csv(field)
        assert text.splitlines()[0] == "x,y,u,u_star"
        assert len(text.splitlines()) == 26

    def test_csv_fields_are_plain_numbers(self):
        from forelli_lab.psh import envelope_to_csv
        fam = monomial_family(lambda k: 1.0, 40)
        field = upper_envelope(fam, ((-1, 1), (-1, 1)), 40, num=9)
        lines = envelope_to_csv(field).splitlines()[1:]
        rows = [[float(t) for t in line.split(",")] for line in lines]
        assert len(rows) == 81 and all(len(r) == 4 for r in rows)
        assert rows[0][:2] == [-1.0, -1.0]
        assert rows[1][:2] == [-0.75, -1.0]
        for x, y, u, _ in rows:
            if abs(complex(x, y)) > 0.1:
                assert u == pytest.approx(math.log(abs(complex(x, y))),
                                          abs=1e-12)
