import math

import numpy as np
import pytest

from forelli_lab import (CapacityEstimate, ChartUndecidableError,
                         CompactSet1D, cap1d_transfinite, cap_siciak, energy,
                         leja_points, normality_check, siciak_lower_bound,
                         sphere_directions, cap_directions)
from forelli_lab import capacity
from forelli_lab.capacity import _growth_bounds, _trial_family
from forelli_lab.series import _realify
from forelli_lab.series import torus
from forelli_lab.slices import chart_map


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

    @pytest.mark.parametrize("build,error", [
        (lambda: CompactSet1D.disc(0, math.nan),
         "disc radius must be positive and finite, not nan"),
        (lambda: CompactSet1D.disc(0, math.inf),
         "disc radius must be positive and finite, not inf"),
        (lambda: CompactSet1D.disc(0, 0.0),
         "disc radius must be positive and finite, not 0.0"),
        (lambda: CompactSet1D.disc(complex(math.nan, 0), 0.7),
         "disc center must be finite, not (nan+0j)"),
        (lambda: CompactSet1D.segment(0, math.nan),
         "segment endpoints must be finite, not (nan+0j)"),
        (lambda: CompactSet1D.finite_points([0, 1j, math.inf]),
         "points must be finite, not (inf+0j)"),
        (lambda: CompactSet1D.sample_cloud([complex(0, math.nan)]),
         "cloud points must be finite, not nanj")])
    def test_sets_must_be_finite(self, build, error):
        with pytest.raises(ValueError) as got:
            build()
        assert str(got.value) == error


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


def siciak_one_probe(E_samples, z, degree, trials=200, *, seed=42):
    """The per-probe body of siciak_lower_bound before its trial
    polynomials were shared between probes."""
    E = np.atleast_2d(np.asarray(E_samples, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    nv = E.shape[1]
    rng = np.random.default_rng(seed)
    d = int(degree)
    best = -math.inf
    nz = float(np.linalg.norm(z))
    forms = []
    if nz > 0:
        forms.append((np.conj(z) / nz, 0j))
    for _ in range(trials // 2):
        a = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
        c0 = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.3
        forms.append((a, c0))
    for a, c0 in forms:
        on_E = np.abs(E @ a + c0)
        at_z = abs(complex(z @ a) + c0)
        supE = float(on_E.max())
        if supE == 0 or at_z == 0:
            continue
        best = max(best, math.log(at_z) - math.log(supE))
    for _ in range(trials - trials // 2):
        if nv == 1:
            deg = int(rng.integers(1, d + 1))
            coef = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            on_E = np.abs(np.polynomial.polynomial.polyval(E[:, 0], coef))
            at_z = abs(np.polynomial.polynomial.polyval(complex(z[0]), coef))
        else:
            A = rng.standard_normal((d, nv)) + 1j * rng.standard_normal((d, nv))
            on_E = np.abs(np.prod(E @ A.T, axis=1))
            at_z = abs(complex(np.prod(z @ A.T)))
        supE = float(on_E.max())
        if supE == 0 or at_z == 0:
            continue
        best = max(best, (math.log(at_z) - math.log(supE)) / d)
    return best if np.isfinite(best) else -math.inf


class TestSiciakSharedTrials:
    """Sharing the trial polynomials between probes changes no bit."""

    @staticmethod
    def cloud(nv, m=120, seed=5):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((m, nv)) + 1j * rng.standard_normal((m, nv))

    @pytest.mark.parametrize("nv", [1, 2, 3])
    def test_lower_bound_matches_per_probe_body(self, nv, monkeypatch):
        E = self.cloud(nv)
        for z in (E[3], 5.0 * E[7], np.zeros(nv), np.full(nv, 40.0 + 3j)):
            for degree, trials in ((16, 60), (4, 1)):
                monkeypatch.setattr(capacity, "SICIAK_TRIALS", trials)
                assert siciak_lower_bound(E, z, degree) \
                    == siciak_one_probe(E, z, degree, trials)

    @pytest.mark.parametrize("nv", [1, 2, 3])
    def test_cap_siciak_matches_per_probe_loop(self, nv):
        E = self.cloud(nv)
        degree, trials, probe_radii, seed = 12, 40, (10.0, 30.0, 100.0), 42
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((8, nv)) + 1j * rng.standard_normal((8, nv))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        gamma = -math.inf
        for R in probe_radii:
            for w in dirs:
                vlb = siciak_one_probe(E, R * w, degree, trials, seed=seed)
                gamma = max(gamma, vlb - math.log(R))
        est = cap_siciak(E, degree=degree, trials=trials)
        assert est.diagnostics["gamma"] == gamma
        assert est.value == math.exp(-gamma)

    def test_degree_checked(self):
        with pytest.raises(ValueError, match="degree"):
            cap_siciak(self.cloud(2), degree=0)


def trial_family_one_at_a_time(E, degree, trials, seed):
    """The one-variable ``_trial_family`` that the batched Horner
    recurrence replaced: one ``polyval`` per trial polynomial."""
    rng = np.random.default_rng(seed)
    forms = []
    for _ in range(trials // 2):
        a = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        c0 = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.3
        forms.append(((a, c0), float(np.abs(E @ a + c0).max())))
    polys = []
    for _ in range(trials - trials // 2):
        deg = int(rng.integers(1, degree + 1))
        p = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        on_E = np.abs(np.polynomial.polynomial.polyval(E[:, 0], p))
        polys.append((np.concatenate([p, np.zeros(degree - deg)]),
                      float(on_E.max())))
    return degree, forms, polys


class TestTrialFamilyAtOnce:
    """The one-variable trial polynomials evaluated on E all at once give
    the per-trial ``polyval`` bits."""

    @staticmethod
    def assert_same(got, want):
        assert got[0] == want[0]
        for (g, g_sup), (w, w_sup) in zip(got[1], want[1]):
            assert g[0].tobytes() == w[0].tobytes() and g[1] == w[1]
            assert g_sup == w_sup
        assert len(got[2]) == len(want[2])
        for (g, g_sup), (w, w_sup) in zip(got[2], want[2]):
            assert g.tobytes() == w.tobytes()
            assert g_sup == w_sup

    def test_cli_ball(self):
        # the input of `capacity --siciak-ball 0.7`
        E = torus((0.7,), 256)[0][:, None]
        self.assert_same(_trial_family(E, 32, 200, 42),
                         trial_family_one_at_a_time(E, 32, 200, 42))

    @pytest.mark.parametrize("draw", range(20))
    def test_random_draws(self, draw):
        rng = np.random.default_rng([draw, 11])
        size = int(rng.choice([1, 2, 3, 7, 64, 300]))
        E = ((rng.standard_normal((size, 1))
              + 1j * rng.standard_normal((size, 1))) * rng.uniform(0.1, 3.0))
        degree, trials = int(rng.integers(1, 40)), int(rng.integers(0, 60))
        seed = int(rng.integers(0, 1000))
        self.assert_same(_trial_family(E, degree, trials, seed),
                         trial_family_one_at_a_time(E, degree, trials, seed))

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("trials", [1, 2, 3, 4, 5])
    def test_few_points_and_trials(self, size, trials):
        # one point and one trial of the top degree: numpy rounds the
        # broadcast product of a (1, 1) block and one point otherwise than
        # polyval's (1,) * (1,)
        rng = np.random.default_rng([size, trials])
        E = rng.standard_normal((size, 1)) + 1j * rng.standard_normal(
            (size, 1))
        for seed in range(40):
            self.assert_same(_trial_family(E, 38, trials, seed),
                             trial_family_one_at_a_time(E, 38, trials, seed))


def per_probe_gamma(E, degree, trials, probe_radii, directions, seed):
    """cap_siciak's gamma with one siciak_one_probe call per probe."""
    nv = E.shape[1]
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((directions, nv)) + 1j * rng.standard_normal(
        (directions, nv))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    gamma = -math.inf
    for R in probe_radii:
        for w in dirs:
            vlb = siciak_one_probe(E, R * w, degree, trials, seed=seed)
            gamma = max(gamma, vlb - math.log(R))
    return gamma, dirs


def probe_with(monkeypatch, radii, directions):
    """cap_siciak with other probe shells and directions per shell."""
    monkeypatch.setattr(capacity, "SICIAK_PROBE_RADII", radii)
    monkeypatch.setattr(capacity, "SICIAK_DIRECTIONS", directions)


class TestSiciakProbesAtOnce:
    """All probes in one pass give each probe the per-probe bound's bits."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cli_ball_probe_by_probe(self, seed):
        # the input of `capacity --siciak-ball 0.7`
        E = torus((0.7,), 256)[0][:, None]
        radii = (10.0, 30.0, 100.0)
        gamma, dirs = per_probe_gamma(E, 32, 200, radii, 8, seed)
        Z = np.array([R * w for R in radii for w in dirs])
        bounds = _growth_bounds(E, Z, _trial_family(E, 32, 200, seed))
        assert bounds == [siciak_one_probe(E, z, 32, 200, seed=seed)
                          for z in Z]
        est = cap_siciak(E, degree=32, trials=200, seed=seed, closed_form=0.7)
        assert est.diagnostics["gamma"] == gamma
        assert est.value == math.exp(-gamma)

    @pytest.mark.parametrize("nv", [1, 2])
    @pytest.mark.parametrize("degree, trials, directions", [
        (12, 1, 8), (1, 40, 8), (1, 1, 3), (5, 0, 4), (32, 200, 2)])
    def test_small_families(self, nv, degree, trials, directions,
                            monkeypatch):
        E = TestSiciakSharedTrials.cloud(nv)
        radii = (2.0, 10.0)
        gamma, _ = per_probe_gamma(E, degree, trials, radii, directions, 7)
        probe_with(monkeypatch, radii, directions)
        est = cap_siciak(E, degree=degree, trials=trials, seed=7)
        assert est.diagnostics["gamma"] == gamma

    @pytest.mark.parametrize("nv", [1, 3])
    def test_set_of_zeros(self, nv, monkeypatch):
        # on E = {0} the leading forms and, in several variables, the
        # products of linear forms have sup 0 and are skipped
        E = np.zeros((6, nv), dtype=complex)
        gamma, _ = per_probe_gamma(E, 4, 10, (10.0,), 3, 42)
        probe_with(monkeypatch, (10.0,), 3)
        assert cap_siciak(E, degree=4, trials=10).diagnostics["gamma"] == gamma


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

    def test_zero_row_is_rejected(self):
        # a zero row has no direction; it used to be counted as dropped
        U = np.vstack([cap_directions(2, 0.3, 200, seed=1), np.zeros((1, 2))])
        with pytest.raises(ValueError, match="zero vector"):
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


def normality_one_center_at_a_time(directions, *, max_centers=128,
                                   shell_directions=16, cover_factor=2.0):
    """The per-center loop that the batched shell steps replaced
    (returns center, radius, resolution)."""
    from scipy.spatial import cKDTree
    B = chart_map(directions)[0]
    X = _realify(B)
    dim = X.shape[1]
    tree = cKDTree(X)
    nn = tree.query(X[:min(len(X), 512)], k=2)[0][:, 1]
    h = float(np.median(nn))
    if h == 0:
        h = float(np.mean(nn)) or 1e-12
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((shell_directions * dim, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    centers = X[:: max(1, len(X) // max_centers)]
    cover = cover_factor * h
    best_radius, best_center = 0.0, None
    for c in centers:
        radius = 0.0
        for j in range(1, 65):
            R = j * h
            shells = np.concatenate([c + 0.5 * R * dirs, c + R * dirs])
            if np.any(tree.query(shells)[0] > cover):
                break
            radius = R
        if radius > best_radius:
            best_radius, best_center = radius, c
    center = (None if best_center is None else
              tuple(complex(a, b) for a, b in best_center.reshape(-1, 2)))
    return center, best_radius, h


class TestNormalityAgainstCenterLoop:
    @pytest.mark.parametrize("n,M,seed", [(2, 100, 0), (2, 400, 1), (2, 1000, 2),
                                          (3, 100, 3), (3, 300, 4), (3, 1000, 5)])
    def test_sphere(self, n, M, seed):
        U = sphere_directions(n, M, seed=seed)
        res = normality_check(U)
        assert (res.center, res.radius, res.resolution) \
            == normality_one_center_at_a_time(U)
        assert res.diagnostics["capacity_lower_bound"] == (
            res.radius if res.is_normal_sufficient else 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 7919])
    @pytest.mark.parametrize("n,M", [(2, 200), (3, 200), (3, 1000)])
    def test_analyze_sized_sets(self, n, M, seed):
        # most shell points are covered by an earlier query on their ray
        # and are not queried; the result is that of querying them all
        U = sphere_directions(n, M, seed=seed)
        res = normality_check(U)
        assert (res.center, res.radius, res.resolution) \
            == normality_one_center_at_a_time(U)

    @pytest.mark.parametrize("n,theta,M", [(2, 0.2, 500), (2, 0.6, 150),
                                           (3, 0.3, 400)])
    def test_cap_and_settings(self, n, theta, M, monkeypatch):
        U = cap_directions(n, theta, M, seed=M)
        for kw in ({}, {"max_centers": 7}, {"shell_directions": 3},
                   {"cover_factor": 1.2}, {"cover_factor": 4.0}):
            with monkeypatch.context() as m:
                for key, value in kw.items():
                    m.setattr(capacity, key.upper(), value)
                res = normality_check(U)
            assert (res.center, res.radius, res.resolution) \
                == normality_one_center_at_a_time(U, **kw), kw

    def test_shell_point_exactly_at_cover_is_covered(self):
        from scipy.spatial import cKDTree
        from forelli_lab.capacity import _covered
        tree = cKDTree(np.array([[0.0, 0.0], [10.0, 0.0]]))
        dirs = np.array([[1.0, 0.0], [0.0, -1.0]])
        center = np.zeros((1, 2))
        assert _covered(tree, center, 0.75, dirs, 0.75,
                        np.zeros((2, 1, 2))).tolist() == [True]
        assert _covered(tree, center, 0.75, dirs, np.nextafter(0.75, 0.0),
                        np.zeros((2, 1, 2))).tolist() == [False]
