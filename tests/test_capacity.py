import math

import numpy as np
import pytest

from forelli_lab import (CapacityEstimate, ChartUndecidableError,
                         CompactSet1D, cap1d_transfinite, cap_siciak, energy,
                         leja_points, normality_check, siciak_lower_bound,
                         sphere_directions, cap_directions)


class TestEnergy:
    def test_two_points_at_unit_distance(self):
        assert energy([0.0, 1.0], [0.5, 0.5]) == 0.0

    def test_coincident_points(self):
        assert energy([1j, 1j], [0.5, 0.5]) == -math.inf

    def test_uniform_circle_matches_closed_form(self):
        # discrete equilibrium energy of m-th roots of unity is log(m)/m
        m = 64
        pts = np.exp(2j * np.pi * np.arange(m) / m)
        val = energy(pts, np.full(m, 1.0 / m))
        assert abs(val) <= 0.1
        assert val == pytest.approx(math.log(m) / m, rel=1e-10)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            energy([0.0, 1.0], [0.7, 0.7])
        with pytest.raises(ValueError):
            energy([0.0, 1.0], [-0.5, 1.5])


class TestLeja:
    def test_segment_first_three(self):
        pts = leja_points(CompactSet1D.segment(-1, 1), 3)
        got = sorted(p.real for p in pts)
        spacing = 2.0 / (50 * 3 - 1)     # candidate resolution
        assert got[0] == pytest.approx(-1.0, abs=spacing)
        assert got[2] == pytest.approx(1.0, abs=spacing)
        assert got[1] == pytest.approx(0.0, abs=spacing)

    def test_disc_near_antipodal(self):
        pts = leja_points(CompactSet1D.disc(0, 1), 2)
        assert abs(pts[0] - pts[1]) >= 1.99

    def test_degenerate_single_point(self):
        with pytest.warns(UserWarning, match="degenerate"):
            pts = leja_points(CompactSet1D.finite_points([0.0]), 5)
        assert np.all(pts == 0.0)


class TestTransfiniteDiameter:
    def test_segment_within_two_percent(self):
        est = cap1d_transfinite(CompactSet1D.segment(-1, 1), 128)
        assert est.value == pytest.approx(0.5, rel=0.02)
        assert est.diagnostics["closed_form"] == 0.5

    def test_disc_within_two_percent(self):
        est = cap1d_transfinite(CompactSet1D.disc(0, 0.7), 128)
        assert est.value == pytest.approx(0.7, rel=0.02)

    def test_finite_set_exactly_zero(self):
        est = cap1d_transfinite(CompactSet1D.finite_points([0, 1, 1j]), 128)
        assert est.value == 0.0

    def test_monotone_under_inclusion(self):
        small = cap1d_transfinite(CompactSet1D.disc(0, 0.4), 96)
        big = cap1d_transfinite(CompactSet1D.disc(0, 0.8), 96)
        assert small.value <= big.value * 1.02
        seg = cap1d_transfinite(CompactSet1D.segment(-0.7, 0.7), 96)
        disc = cap1d_transfinite(CompactSet1D.disc(0, 0.7), 96)
        assert seg.value <= disc.value * 1.02

    def test_scaling(self):
        base = cap1d_transfinite(CompactSet1D.segment(-1, 1), 96)
        scaled = cap1d_transfinite(CompactSet1D.segment(-3, 3), 96)
        assert scaled.value == pytest.approx(3 * base.value, rel=0.02)

    def test_minimum_points(self):
        with pytest.raises(ValueError):
            cap1d_transfinite(CompactSet1D.segment(-1, 1), 4)

    def test_estimate_validates_sign(self):
        with pytest.raises(ValueError):
            CapacityEstimate(-0.1, "TransfiniteDiameter", 8)


class TestSiciak:
    @staticmethod
    def disc_samples(rho, m=256):
        theta = 2 * np.pi * np.arange(m) / m
        ring = rho * np.exp(1j * theta)
        inner = 0.6 * rho * np.exp(1j * theta[: m // 2] * 2)
        return np.concatenate([ring, inner])[:, None]

    def test_never_positive_on_the_set(self):
        E = self.disc_samples(1.0)
        for z in (E[0], E[17], E[200]):
            assert siciak_lower_bound(E, z, 32) <= 1e-12

    def test_unit_ball_growth(self):
        E = self.disc_samples(1.0)
        lb = siciak_lower_bound(E, [2.0], 32)
        assert lb >= math.log(2.0) - 0.05

    def test_center_nonpositive(self):
        E = self.disc_samples(0.8)
        assert siciak_lower_bound(E, [0.0], 16) <= 0.0

    def test_ball_capacities_within_five_percent(self):
        for rho in (0.5, 1.0, 2.0):
            est = cap_siciak(self.disc_samples(rho), degree=32, trials=200,
                             closed_form=rho)
            assert est.value == pytest.approx(rho, rel=0.05)
            assert est.method == "SiciakExtremal"

    def test_scaling_covariance(self):
        a = cap_siciak(self.disc_samples(0.7), degree=32, trials=200)
        b = cap_siciak(self.disc_samples(1.4), degree=32, trials=200)
        assert b.value == pytest.approx(2 * a.value, rel=0.05)

    def test_probe_radius_validation(self):
        with pytest.raises(ValueError):
            cap_siciak(self.disc_samples(1.0), probe_radii=(2.0, 5.0))


class TestNormalityCheck:
    def test_full_sphere(self):
        U = sphere_directions(2, 400, seed=1)
        res = normality_check(U)
        assert res.is_normal_sufficient
        assert res.radius >= res.resolution > 0

    def test_cap_tan_scale(self):
        U = cap_directions(2, 0.2, 500, seed=2)
        res = normality_check(U)
        assert res.is_normal_sufficient
        # chart of the cap is a disc of radius about tan(0.2) = 0.203
        assert 0.08 <= res.radius <= 0.45

    def test_chart_undecidable(self):
        # 120 directions concentrated on the excluded locus v1 = 0
        phases = np.exp(2j * np.pi * np.arange(120) / 120)
        U = np.column_stack([np.zeros(120), phases])
        with pytest.raises(ChartUndecidableError):
            normality_check(U)

    def test_requires_hundred_directions(self):
        U = sphere_directions(2, 50, seed=0)
        with pytest.raises(ValueError, match="100"):
            normality_check(U)

    def test_rotation_covariance(self):
        U = cap_directions(2, 0.3, 400, seed=3)
        rot = np.diag([np.exp(0.4j), np.exp(-1.1j)])
        res1 = normality_check(U)
        res2 = normality_check(U @ rot.T)
        assert res1.is_normal_sufficient == res2.is_normal_sufficient
        assert res1.radius == pytest.approx(res2.radius, rel=0.25)

    def test_capacity_lower_bound_reported(self):
        U = cap_directions(2, 0.25, 400, seed=4)
        res = normality_check(U)
        assert res.diagnostics["capacity_lower_bound"] == res.radius

    def test_one_variable_chart_is_a_point(self):
        U = sphere_directions(1, 5, seed=0)
        res = normality_check(U)
        assert res.is_normal_sufficient
        assert res.center == () and res.radius == 0.0
        assert res.diagnostics["chart_samples"] == 5

    def test_three_variable_directions(self):
        # chart lives in C^2 (R^4); coverage queries must still work
        U = cap_directions(3, 0.3, 400, seed=1)
        res = normality_check(U)
        assert res.is_normal_sufficient
        assert res.radius > 0
