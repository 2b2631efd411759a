import math
import warnings

import numpy as np
import pytest

from forelli_lab import (DegenerateNormalizationError, KData,
                         PencilCheckError, check_holo_along_pencil,
                         compute_H_G, disc_holo_residual, find_subpencil,
                         parse, pencil_from_exprs, sphere_directions,
                         standard_pencil, standard_subpencil_radius,
                         tilde_normalize)
from forelli_lab import expr, pencil
from forelli_lab.expr import EvalError, as_callable
from forelli_lab.pencil import (_angular_graph, _frames, _gauss_newton_step,
                                _largest_component, _renormalize,
                                wirtinger_dbar)
from forelli_lab.series import DISC_CHUNK_SAMPLES, _realify, torus
from test_expr import EVERY_NODE

TWIST = ["l*u1", "l*u2 + l^2*conj(u1)*u2"]


@pytest.fixture(scope="module")
def sphere150():
    return sphere_directions(2, 150, seed=7)


@pytest.fixture(scope="module")
def twisted(sphere150):
    return pencil_from_exprs(2, TWIST, sphere150)


@pytest.fixture(scope="module")
def standard(sphere150):
    return standard_pencil(2, sphere150)


class TestStandardPencil:
    def test_single_disc(self):
        P = standard_pencil(2, [(1.0, 0.0)])
        lam = np.array([0.5j, -0.25])
        pts = P.disc(lam, 0)
        assert np.allclose(pts[:, 0], lam)
        assert np.allclose(pts[:, 1], 0.0)

    def test_normalization_warning(self):
        with pytest.warns(UserWarning, match="normaliz"):
            P = standard_pencil(2, [(2.0, 0.0)])
        assert np.allclose(np.linalg.norm(P.directions, axis=1), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(PencilCheckError):
            standard_pencil(2, np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf * 1j])
    def test_non_finite_rejected(self, bad):
        U = [(1.0, 0.0), (0.6, 0.8), (bad, 1.0)]
        with pytest.raises(PencilCheckError, match="^non-finite direction 2 "):
            standard_pencil(2, U)
        with pytest.raises(PencilCheckError, match="^non-finite direction 2 "):
            pencil_from_exprs(2, TWIST, U)


class TestDiscResidual:
    def test_polynomial_clean(self):
        assert disc_holo_residual(lambda lam: lam ** 3, 0.9) <= 1e-12

    def test_conjugate_is_dirty(self):
        assert disc_holo_residual(np.conj, 1.0) == pytest.approx(1.0)
        assert disc_holo_residual(np.conj, 0.9) >= 0.5

    def test_small_antiholomorphic_component(self):
        res = disc_holo_residual(lambda lam: lam ** 2 + 0.01 * np.conj(lam),
                                 1.0)
        assert res == pytest.approx(0.01, rel=1e-6)

    def test_soundness_sweep(self, rng):
        for _ in range(20):
            deg = int(rng.integers(0, 9))   # far below the 64 samples
            coef = rng.standard_normal(deg + 1) \
                + 1j * rng.standard_normal(deg + 1)
            g = lambda lam: np.polynomial.polynomial.polyval(lam, coef)
            assert disc_holo_residual(g, 0.8) <= 1e-10

    @pytest.mark.parametrize("g, what", [
        (lambda lam: 1 / (lam - 0.5), "non-finite disc samples"),
        # finite samples whose Fourier sum overflows
        (lambda lam: np.full(lam.shape, 1e307), "disc transform overflows"),
    ], ids=["non-finite", "overflow"])
    def test_unusable_circle_raises(self, g, what):
        with pytest.raises(EvalError, match=f"^{what} at radius 0\\.5$"), \
                np.errstate(all="ignore"):
            disc_holo_residual(g, 0.5)


class TestCheckAlongPencil:
    def test_entire_function_on_twisted(self, twisted):
        res = check_holo_along_pencil(parse("exp(z1+z2)"), twisted, tol=1e-9)
        assert res.passed
        assert res.worst() <= 1e-9

    def test_conjugate_fails(self, standard):
        res = check_holo_along_pencil(parse("conj(z1)"), standard, tol=1e-8)
        assert not res.passed
        assert res.worst() >= 0.5

    def test_line_holomorphic_counterexample(self, standard):
        f = parse("z1^2*z2*conj(z1)/normsq(z)")
        res = check_holo_along_pencil(f, standard, tol=1e-8)
        assert res.passed

    def test_composition_closure(self, twisted):
        f = parse("exp(z1+z2)")
        base = check_holo_along_pencil(f, twisted, tol=1e-9).worst()
        sq = check_holo_along_pencil(parse("exp(z1+z2)^2"), twisted,
                                     tol=1e-9).worst()
        aff = check_holo_along_pencil(parse("3*exp(z1+z2)+i"), twisted,
                                      tol=1e-9).worst()
        assert sq <= base + 1e-9
        assert aff <= base + 1e-9


def one_disc_at_a_time(f, P, rho_schedule=(0.3, 0.6, 0.9)):
    """The per-disc loop that the batched disc check replaced."""
    func = as_callable(f, P.n)
    out = []
    for i in range(P.num_directions):
        for rho in rho_schedule:
            try:
                g = lambda lam: func(tuple(np.moveaxis(P.disc(lam, i), -1, 0)))
                out.append((i, float(rho), disc_holo_residual(g, rho), None))
            except Exception as exc:
                out.append((i, float(rho), math.nan, str(exc)))
    return out


def assert_same_discs(result, reference):
    R = len(result.radii)
    got = [(k // R, float(result.radii[k % R]), float(res),
            result.errors.get(k)) for k, res in enumerate(result.residuals)]
    assert len(got) == len(reference)
    for g, r in zip(got, reference):
        assert g[0] == r[0] and g[1] == r[1] and g[3] == r[3]
        assert g[2] == r[2] or (math.isnan(g[2]) and math.isnan(r[2])), (g, r)
    assert result.passed == all(e is None and res <= result.tol
                                for _, _, res, e in reference)


@pytest.fixture(scope="module")
def with_e1(sphere150):
    """The sphere sample with (1, 0) inserted at index 17."""
    return np.insert(sphere150, 17, [1.0, 0.0], axis=0)


class TestBatchedAgainstOneDisc:
    """Batched chunks must give each disc exactly its one-disc result.

    Disc k of a result is direction k // len(radii) at radius
    radii[k % len(radii)]."""

    @pytest.mark.parametrize("expr", ["exp(z1+z2)", "conj(z1)", "1/(z1-0.3)",
                                      "z1^2*z2*conj(z1)/normsq(z)",
                                      "exp(800*z1)"])
    @pytest.mark.parametrize("kind", ["standard", "twisted"])
    def test_bit_identical(self, with_e1, kind, expr):
        P = (standard_pencil(2, with_e1) if kind == "standard"
             else pencil_from_exprs(2, TWIST, with_e1))
        # 151 directions x 3 radii: several chunks of whole directions
        assert P.num_directions > DISC_CHUNK_SAMPLES // (3 * 64)
        with np.errstate(over="ignore", invalid="ignore"):
            res = check_holo_along_pencil(parse(expr), P)
            ref = one_disc_at_a_time(parse(expr), P)
        assert_same_discs(res, ref)

    def test_chunks_hold_whole_directions(self, standard):
        shapes = []

        def f(z):
            shapes.append(z[0].shape)
            return z[0] * z[1]

        res = check_holo_along_pencil(f, standard, (0.2, 0.4, 0.6, 0.8))
        rows = DISC_CHUNK_SAMPLES // (4 * 64)
        assert shapes == [(min(rows, standard.num_directions - start), 4, 64)
                          for start in range(0, standard.num_directions,
                                             rows)]
        assert len(res.residuals) == 4 * standard.num_directions
        assert res.passed and not res.errors

    def test_exact_zero_errors_only_its_disc(self, with_e1):
        P = standard_pencil(2, with_e1)
        res = check_holo_along_pencil(parse("1/(z1-0.3)"), P)
        # direction 17 at radius 0.3, the first of the three radii
        assert res.errors == {17 * 3: "division by zero in 'z1-0.3'"}
        assert np.isnan(res.residuals[17 * 3])
        assert res.evidence()["discs_with_error"] == 1
        assert res.evidence()["first_error"] == {
            "direction_index": 17, "radius": 0.3,
            "error": "division by zero in 'z1-0.3'"}

    def test_overflow_is_a_non_finite_error(self, with_e1):
        P = standard_pencil(2, with_e1)
        with np.errstate(over="ignore", invalid="ignore"):
            res = check_holo_along_pencil(parse("exp(800*z1)"), P)
        # direction 17, (1, 0), at radius 0.9, the last of the three radii
        assert res.errors[17 * 3 + 2] == "non-finite disc samples at radius 0.9"
        assert not res.passed

    def test_transform_overflow_is_an_error(self):
        # direction 168 at radius 0.9: finite samples, overflowing FFT
        P = standard_pencil(2, sphere_directions(2, 300, seed=2))
        with np.errstate(over="ignore", invalid="ignore"):
            res = check_holo_along_pencil(parse("exp(800*z1)"), P)
        assert res.errors[168 * 3 + 2] == "disc transform overflows at radius 0.9"
        assert np.isnan(res.residuals[168 * 3 + 2])
        assert np.isfinite(np.delete(res.residuals, list(res.errors))).all()
        assert res.worst() == 1.0
        assert res.evidence()["discs_with_error"] == len(res.errors) == 6

    def test_all_discs_errored(self, standard):
        res = check_holo_along_pencil(parse("1/(z1-z1)"), standard)
        assert len(res.errors) == len(res.residuals) == 3 * 150
        assert math.isnan(res.worst()) and not res.passed
        assert res.evidence()["worst_direction_index"] is None

    def test_other_radii(self, twisted):
        f = parse("exp(z1)*z2 + conj(z2)^2")
        radii = (0.2, 1.0, 2.5, 0.7)
        res = check_holo_along_pencil(f, twisted, radii)
        assert_same_discs(res, one_disc_at_a_time(f, twisted, radii))

    def test_plain_callable(self, standard):
        f = lambda z: np.exp(z[0]) * z[1] ** 2 + 0.5 * np.conj(z[1])
        assert_same_discs(check_holo_along_pencil(f, standard),
                          one_disc_at_a_time(f, standard))

    def test_callable_that_only_takes_one_disc(self, standard):
        def f(z):
            if np.ndim(z[0]) != 1:
                raise TypeError("one disc at a time")
            return np.sin(z[0]) + z[1]
        assert_same_discs(check_holo_along_pencil(f, standard),
                          one_disc_at_a_time(f, standard))

    def test_worst_disc_evidence(self, with_e1):
        P = standard_pencil(2, with_e1)
        res = check_holo_along_pencil(parse("conj(z1)"), P)
        k = int(np.argmax(res.residuals))
        assert res.worst() == res.residuals.max()
        assert res.evidence() == {
            "worst_direction_index": k // 3,
            "worst_radius": (0.3, 0.6, 0.9)[k % 3], "discs_with_error": 0,
            "first_error": None}
        # the largest |u1| direction at the largest radius
        assert res.evidence()["worst_direction_index"] == 17
        assert res.evidence()["worst_radius"] == 0.9


def angular_graph_by_sets(directions, k=8):
    """The set loop that the array-built angular graph replaced."""
    from scipy.spatial import cKDTree
    M = len(directions)
    if M == 1:
        return [np.array([], dtype=int)]
    X = _realify(directions)
    _, idx = cKDTree(X).query(X, k=min(k + 1, M))
    neigh = [set() for _ in range(M)]
    for i in range(M):
        for j in idx[i][1:]:
            neigh[i].add(int(j))
            neigh[int(j)].add(i)
    return [np.array(sorted(s), dtype=int) for s in neigh]


class TestAngularGraph:
    @pytest.mark.parametrize("n,M", [(1, 1), (1, 2), (2, 5), (2, 9), (2, 10),
                                     (2, 150), (3, 1000)])
    def test_matches_set_loop(self, n, M):
        U = sphere_directions(n, M, seed=M)
        got, want = _angular_graph(U), angular_graph_by_sets(U)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_duplicate_directions(self, sphere150):
        U = np.vstack([sphere150[:40], sphere150[:6]])
        for g, w in zip(_angular_graph(U), angular_graph_by_sets(U)):
            assert np.array_equal(g, w)


class TestPencilValidation:
    def test_base_point_violation(self, sphere150):
        with pytest.raises(PencilCheckError, match="base point"):
            pencil_from_exprs(2, ["l*u1 + 0.1", "l*u2"], sphere150[:40])

    def test_antiholomorphic_disc_rejected(self, sphere150):
        # the first sampled direction, and its first failing component
        with pytest.raises(PencilCheckError) as exc:
            pencil_from_exprs(2, ["l*u1", "conj(l)*u2"], sphere150[:40])
        assert str(exc.value) == (
            "disc through [0.00075092+0.92286554j 0.18236313+0.33920837j] "
            "has component 2 residual 0.347")

    def test_lambda_through_its_modulus_rejected(self):
        # on |lambda| = rho the samples of lambda |lambda|^2 u2 are those of
        # rho^2 lambda u2, so no negative mode sees it; d/dlambdabar does
        U = sphere_directions(2, 100, seed=1)
        with pytest.raises(PencilCheckError) as exc:
            pencil_from_exprs(2, ["l*u1", "l*u2 + l*conj(l)*u2"], U)
        assert str(exc.value) == (
            "disc through [0.12054851+0.63780275j 0.28660121+0.70465272j] "
            "has component 2 with |d/dlambdabar| 0.685")

    def test_non_finite_disc_is_a_numerical_failure(self, sphere150):
        # exp overflows on the discs of the directions with Re u2 > 0.71
        with np.errstate(all="ignore"), pytest.raises(
                EvalError, match="^non-finite disc samples at radius 0.9$"):
            pencil_from_exprs(2, ["l*u1", "l*exp(1000*u2)"], sphere150[:40])

    def test_collapsed_map_rejected(self, sphere150):
        with pytest.raises(PencilCheckError, match="injectivity"):
            pencil_from_exprs(2, ["0*l*u1", "0*l*u2"], sphere150[:40])


class TestTildeNormalize:
    def test_standard_gives_product(self, standard):
        kd = tilde_normalize(standard, (1.0, 0.0), eps=0.4)
        w = 0.3 * np.exp(2j * np.pi * np.arange(16) / 16)
        for z2 in (0.1, -0.07 + 0.12j):
            assert np.abs(kd.k(w, z2) - w * z2).max() <= 1e-10

    def test_twisted_quadratic_correction(self, twisted):
        kd = tilde_normalize(twisted, (1.0, 0.0), eps=0.4)
        w = np.array([0.05 - 0.2j, 0.18, 0.1j])
        z2 = 0.11 - 0.03j
        want = w * z2 + w ** 2 * z2
        assert np.abs(kd.k(w, z2) - want).max() <= 1e-10
        assert kd.checks["max_abs_k0"] <= 1e-8
        assert kd.checks["max_slope_defect"] <= 1e-6

    def test_rotated_base_direction(self, twisted):
        # normalization must work at any chart direction, not just e1
        v0 = np.array([1.0, 0.3]) / np.linalg.norm([1.0, 0.3])
        kd = tilde_normalize(twisted, v0, eps=0.3)
        assert kd.checks["max_holo_residual"] <= 1e-8

    def test_dimension_restriction(self):
        P = standard_pencil(3, sphere_directions(3, 40, seed=1))
        with pytest.raises(ValueError, match="n = 2"):
            tilde_normalize(P, (1.0, 0.0, 0.0))

    def test_single_disc_pencil(self):
        # the map extends analytically to any direction, so a one-disc
        # pencil still normalizes (resolution is degenerate, no crash)
        P = standard_pencil(2, [(1.0, 0.0)])
        kd = tilde_normalize(P, (0.8, 0.6), eps=0.3)
        assert kd.checks["max_abs_k0"] <= 1e-8
        assert kd.checks["max_slope_defect"] <= 1e-6

    def test_far_direction_warns(self):
        from forelli_lab import cap_directions
        P = standard_pencil(2, cap_directions(2, 0.2, 100, seed=3))
        with pytest.warns(UserWarning, match="extrapolated"):
            tilde_normalize(P, (0.0, 1.0), eps=0.2)

    @pytest.mark.parametrize("v0", [(0.0, 1.0), (0.3, 1.0), (1j, 0.5)])
    def test_far_direction_text(self, v0):
        # the gap as the smallest angle of one direction at a time
        from forelli_lab import cap_directions
        P = standard_pencil(2, cap_directions(2, 0.2, 100, seed=3))
        unit = np.asarray(v0, dtype=complex) / np.linalg.norm(v0)
        gap = min(math.acos(float(np.clip(np.real(np.vdot(unit, u)), -1, 1)))
                  for u in P.directions)
        with pytest.warns(UserWarning) as caught:
            tilde_normalize(P, v0, eps=0.2)
        assert [str(w.message) for w in caught] == [
            f"v0 is {gap:.3g} rad from the nearest sampled direction; "
            "the pencil is extrapolated there"]

    def test_bench_twisted_pencil_checks(self):
        # the lab_session pencil at seed 1; its directions enter only the
        # extrapolation test, so reversing or thinning them moves no check
        rng = np.random.default_rng([1, 3])
        U = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        U /= np.linalg.norm(U, axis=1)[:, None]
        checks = []
        for directions in (U, U[::-1], U[::7]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                kd = tilde_normalize(pencil_from_exprs(2, TWIST, directions),
                                     (1.0, 0.0), eps=0.4)
            checks.append(repr(kd.checks))
        assert checks[0] == checks[1] == checks[2]
        assert kd.checks["max_abs_k0"] <= 1e-8


class TestComputeHG:
    @staticmethod
    def ring(lo=0.05, hi=0.45, n_r=5, n_t=16):
        rr = np.linspace(lo, hi, n_r)
        tt = np.exp(2j * np.pi * np.arange(n_t) / n_t)
        return (rr[:, None] * tt[None, :]).ravel()

    def test_product_function_on_standard(self, standard):
        kd = tilde_normalize(standard, (1.0, 0.0))
        hg = compute_H_G(parse("z1*z2"), kd, self.ring(), tol_G=1e-8)
        assert hg.passed
        assert np.allclose(hg.H, -np.abs(self.ring()) ** 2, atol=1e-8)

    def test_antiholomorphic_fails(self, standard):
        kd = tilde_normalize(standard, (1.0, 0.0))
        hg = compute_H_G(parse("conj(z2)"), kd, self.ring(), tol_G=1e-6)
        assert not hg.passed
        # G = H * df/dwbar with df/dwbar = 1
        assert np.allclose(np.abs(hg.G), np.abs(self.ring()) ** 2, atol=1e-8)

    def test_entire_function_on_twisted(self, twisted):
        kd = tilde_normalize(twisted, (1.0, 0.0))
        hg = compute_H_G(parse("exp(z1+z2)"), kd, self.ring(), tol_G=1e-7)
        assert hg.passed
        assert hg.max_abs_G <= 1e-7
        assert hg.min_abs_H > 0

    def test_degenerate_normalization_detected(self):
        # k(w, z2) = w * re(z2) has equal Wirtinger halves, w/2, so H = 0
        def dk(w, z2):
            w, z2 = np.broadcast_arrays(np.asarray(w), np.asarray(z2))
            return np.real(z2), w / 2, w / 2

        kd = KData(v0=np.array([1.0, 0.0]), rotation=np.eye(2), eps=0.4,
                   k=lambda w, z2: np.asarray(w) * np.real(z2), dk=dk)
        with pytest.raises(DegenerateNormalizationError):
            compute_H_G(parse("z1*z2"), kd, self.ring())

    def test_agreement_with_direct_wirtinger(self, twisted):
        # whenever the H/G route passes, raw Wirtinger residuals on the
        # v0-disc are small too
        kd = tilde_normalize(twisted, (1.0, 0.0))
        tol_G = 1e-6
        hg = compute_H_G(parse("exp(z1+z2)"), kd, self.ring(), tol_G=tol_G)
        assert hg.passed
        lam = self.ring()
        pts = twisted.map_batch(lam, np.broadcast_to(
            np.array([1.0, 0.0]), lam.shape + (2,)))
        func = lambda z: np.exp(z[0] + z[1])
        dbar = np.abs(wirtinger_dbar(func, pts)).max()
        assert dbar <= 10 * tol_G

    def test_claim_is_only_the_equation_across_the_disc(self, twisted):
        # conj(z1) is antiholomorphic along the v0 disc itself, yet
        # df/dwbar = 0 there: H/G passes, and pencil-check is what fails
        kd = tilde_normalize(twisted, (1.0, 0.0))
        hg = compute_H_G(parse("conj(z1)"), kd, self.ring())
        assert hg.passed and hg.max_abs_G == 0.0
        assert hg.claim == ("df/dwbar = 0 along the v0 disc (holomorphy "
                            "along the disc is hypothesis (2): pencil-check)")
        assert not check_holo_along_pencil(parse("conj(z1)"), twisted).passed


def bump_function(center, radius):
    """Smooth (C^inf) bump supported in the ball around ``center``."""
    c = np.asarray(center, dtype=complex)
    r2 = radius ** 2

    def f(z):
        d2 = sum(np.abs(np.asarray(z[k]) - c[k]) ** 2 for k in range(len(c)))
        d2 = np.minimum(np.asarray(d2, dtype=float), r2)
        out = np.zeros(np.shape(d2))
        inside = d2 < r2 * (1 - 1e-9)
        out = np.where(inside, np.exp(-d2 / np.maximum(r2 - d2, 1e-300)), 0.0)
        return out + 0j
    return f


class TestExactDerivatives:
    """The Wirtinger routine and dk against central differences."""

    def test_expr_halves_match_central_differences(self, rng):
        e = parse(EVERY_NODE)
        pts = 0.7 * (rng.standard_normal((50, 2))
                     + 1j * rng.standard_normal((50, 2)))
        exact = pencil._wirtinger(e, pts)
        differenced = pencil._wirtinger(as_callable(e, 2), pts)
        for got, want in zip(exact, differenced):
            assert got.shape == (50, 2)
            err = np.abs(got - want) / np.maximum(1.0, np.abs(got))
            assert err.max() <= 1e-7
        assert np.array_equal(wirtinger_dbar(e, pts), exact[1])

    def test_conj_free_expr_has_zero_dbar(self, rng):
        pts = (rng.standard_normal((3, 40, 2))
               + 1j * rng.standard_normal((3, 40, 2)))
        dz, dzbar = pencil._wirtinger(parse("exp(z1*z2)/(4 - z1^2) + z2"), pts)
        assert dz.shape == dzbar.shape == (3, 40, 2)
        assert not dzbar.any() and np.isfinite(dz).all()

    @pytest.mark.parametrize("f", [
        lambda z: np.exp(z[0] + z[1]), lambda z: z[0] * np.conj(z[1]),
        bump_function((0.0, 0.5), 0.3), lambda z: 2.0],
        ids=["exp", "conj", "bump", "constant"])
    def test_callable_dbar_is_the_parents(self, rng, f):
        pts = 0.4 * (rng.standard_normal((3, 40, 2))
                     + 1j * rng.standard_normal((3, 40, 2)))
        for delta in (1e-5, 1e-3):
            assert np.array_equal(wirtinger_dbar(f, pts, delta),
                                  central_difference_dbar(f, pts, delta))
        assert np.array_equal(wirtinger_dbar(f, pts),
                              central_difference_dbar(f, pts, 1e-5))

    @pytest.mark.parametrize("v0", [(1.0, 0.0), (0.8, 0.6)])
    @pytest.mark.parametrize("kind", ["twisted", "cubic", "exp_quotient"])
    def test_dk_matches_central_differences(self, kind, v0):
        kd = tilde_normalize(seeded_pencil(kind, 5), v0, eps=0.4)
        w = 0.15 * np.exp(2j * np.pi * np.arange(8) / 8)[:, None]
        z2 = np.array([0.0, 0.1 - 0.05j, -0.08j])
        h = 1e-5

        def diff(dw, dz2):
            return (kd.k(w + h * dw, z2 + h * dz2)
                    - kd.k(w - h * dw, z2 - h * dz2)) / (2 * h)

        kx, ky = diff(0, 1), diff(0, 1j)
        want = diff(1, 0), 0.5 * (kx - 1j * ky), 0.5 * (kx + 1j * ky)
        for got, ref in zip(kd.dk(w, z2), want):
            assert got.shape == (8, 3)
            assert np.abs(got - ref).max() <= 1e-6
        hg = compute_H_G(parse("exp(z1+z2)"), kd, TestComputeHG.ring())
        assert hg.passed and hg.max_abs_G <= 1e-15

    def test_expr_inputs_are_never_shifted(self, monkeypatch):
        # an Expr f is evaluated only where the search samples it, never
        # as a callable (which the difference branch would call); the map
        # of the normalization only through map_tangents
        P = seeded_pencil("twisted", 2)
        f = parse("exp(z1+z2)")
        seen = []
        jvp = pencil.evaluate_jvp

        def spy(e, z, dz):
            if e is f:
                seen.append(np.stack(z, axis=-1))
            return jvp(e, z, dz)

        def refuse(*args):
            raise AssertionError("evaluated outside the forward-mode fold")

        monkeypatch.setattr(pencil, "evaluate_jvp", spy)
        monkeypatch.setattr(expr, "evaluate", refuse)
        sp = find_subpencil(f, P, tol=1e-6, ell_max=4)
        assert sp.m == 1 and sp.direction_indices.size == P.num_directions
        rings = np.array([0.93 / j for j in range(1, 5)] + [0.02])
        lam = (rings[:, None] * torus((1.0,), 8)[0]).ravel()
        M = P.num_directions
        want = P.disc(np.broadcast_to(lam, (M,) + lam.shape), np.arange(M))
        assert np.array_equal(np.concatenate(seen).reshape(-1, 2),
                              want.reshape(-1, 2))
        monkeypatch.setattr(pencil.PencilSpec, "map_batch", refuse)
        seen.clear()
        kd = tilde_normalize(P, (0.8, 0.6), eps=0.4)
        assert compute_H_G(f, kd, TestComputeHG.ring()).passed
        assert len(seen) == 1


class TestFindSubpencil:
    def test_holomorphic_full_patch(self, twisted):
        sp = find_subpencil(parse("exp(z1+z2)"), twisted, tol=1e-6, ell_max=4)
        assert sp.m == 1
        assert sp.direction_indices.size == twisted.num_directions

    def test_conjugate_empty(self, standard):
        sp = find_subpencil(parse("conj(z1)"), standard, tol=1e-6, ell_max=4)
        assert sp.empty
        assert np.all(sp.ell_star == 0)
        assert sp.residual_table.shape == (standard.num_directions, 4)

    def test_bump_fixture_recovers_clean_half(self, sphere150):
        # exp + a bump near (0, 0.5): directions with |u1| > 0.6 have cones
        # disjoint from the support, so their residuals stay clean at m = 1
        P = standard_pencil(2, sphere150)
        f_holo = parse("exp(z1+z2)")
        bump = bump_function((0.0, 0.5), 0.15)
        f = lambda z: f_holo(z) + bump(z)
        sp = find_subpencil(f, P, tol=1e-6, ell_max=8)
        assert not sp.empty
        assert sp.m == 1
        abs_u1 = np.abs(sphere150[:, 0])
        clean = set(np.nonzero(abs_u1 > 0.75)[0].tolist())
        dirty = set(np.nonzero(abs_u1 < 0.35)[0].tolist())
        got = set(sp.direction_indices.tolist())
        interior_clean = {i for i in clean
                          if all(abs_u1[j] > 0.65 for j in P.neighbors[i])}
        assert interior_clean <= got
        assert not (dirty & got)

    def test_tolerance_monotonicity(self, sphere150):
        P = standard_pencil(2, sphere150)
        f_holo = parse("exp(z1+z2)")
        bump = bump_function((0.0, 0.5), 0.15)
        f = lambda z: f_holo(z) + bump(z)
        tight = find_subpencil(f, P, tol=1e-8, ell_max=8)
        loose = find_subpencil(f, P, tol=1e-4, ell_max=8)
        assert set(tight.direction_indices) <= set(loose.direction_indices)


class TestSubpencilRadius:
    def test_standard_full_radius(self, standard):
        r = standard_subpencil_radius(standard, np.arange(25), mesh=400)
        assert r == 1.0

    def test_twisted_positive_radius(self, twisted):
        r = standard_subpencil_radius(twisted, np.arange(25), mesh=400)
        assert r >= 0.1

    def test_boundary_margin_precondition(self, sphere150):
        P = standard_pencil(2, sphere150)
        V = list(range(40))              # a strict direction subset
        with pytest.raises(PencilCheckError, match="boundary"):
            standard_subpencil_radius(P, [39], V=V, mesh=50)


# -- reference copies of the per-row and per-direction code -------------------

def tangent_frames(V):
    """``pencil._frames`` with the points first: V (B, n) gives (B, 2n-1, n)."""
    return _frames(V.T).transpose(2, 1, 0)


def pinv_invert_map(P, targets, lam0, dirs0, iters, tol):
    """The Gauss-Newton inversion before live rows and the Gram step:
    ``pinv`` on every row, every iteration."""
    B, n = targets.shape
    mu = np.array(lam0, dtype=complex)
    V = np.array(dirs0, dtype=complex)
    h = 1e-6

    def resid(mu_v, V_v):
        return _realify(P.map_batch(mu_v, V_v) - targets)

    scale = np.maximum(1.0, np.linalg.norm(_realify(targets), axis=1))
    for _ in range(iters):
        R = resid(mu, V)
        rnorm = np.linalg.norm(R, axis=1)
        if np.all(rnorm <= tol * scale):
            break
        frames = tangent_frames(V)
        p = 2 * n + 1
        J = np.empty((B, 2 * n, p))
        for q in range(p):
            dmu = np.zeros(B, dtype=complex)
            dV = np.zeros_like(V)
            if q == 0:
                dmu = np.full(B, h, dtype=complex)
            elif q == 1:
                dmu = np.full(B, 1j * h, dtype=complex)
            else:
                dV = h * frames[:, q - 2, :]
            Vp = _renormalize(V + dV)
            Vm = _renormalize(V - dV)
            J[:, :, q] = (resid(mu + dmu, Vp) - resid(mu - dmu, Vm)) / (2 * h)
        step = -np.einsum("bij,bj->bi", np.linalg.pinv(J), R)
        alpha = np.ones(B)
        for _damp in range(4):
            mu_new = mu + alpha * (step[:, 0] + 1j * step[:, 1])
            V_new = _renormalize(V + np.einsum(
                "b,bkn,bk->bn", alpha, frames, step[:, 2:]))
            worse = np.linalg.norm(resid(mu_new, V_new), axis=1) > rnorm
            if not worse.any():
                break
            alpha = np.where(worse, alpha * 0.5, alpha)
        mu, V = mu_new, V_new
    R = resid(mu, V)
    ok = np.linalg.norm(R, axis=1) <= 10 * tol * scale
    return mu, V, ok


def ring_loop_offender(P, W, V):
    """The first w of W whose 2-ring leaves V, by the set loop it replaced."""
    V_set = set(range(P.num_directions)) if V is None else set(int(v) for v in V)
    for w in W:
        ring = set(P.neighbors[w].tolist()) | {int(w)}
        ring2 = set()
        for i in ring:
            ring2 |= set(P.neighbors[i].tolist())
        if not (ring | ring2) <= V_set:
            return int(w)
    return None


def central_difference_dbar(f, points, delta):
    """``wirtinger_dbar`` as it was, central differences for every f."""
    points = np.asarray(points, dtype=complex)
    n = points.shape[-1]
    out = np.empty(points.shape, dtype=complex)
    for j in range(n):
        def shifted(step):
            q = points.copy()
            q[..., j] = q[..., j] + step
            return np.asarray(f(tuple(q[..., k] for k in range(n))),
                              dtype=complex)
        dx = (shifted(delta) - shifted(-delta)) / (2.0 * delta)
        dy = (shifted(1j * delta) - shifted(-1j * delta)) / (2.0 * delta)
        out[..., j] = 0.5 * (dx + 1j * dy)
    return out


def cr_residual_on_points(f, points):
    """max_j |d f / dzbar_j| per point; +inf where evaluation fails."""
    try:
        vals = np.abs(wirtinger_dbar(f, points)).max(axis=-1)
    except Exception:
        return np.full(points.shape[:-1], np.inf)
    return np.where(np.isfinite(vals), vals, np.inf)


def per_direction_subpencil(f, P, tol=1e-6, ell_max=8, phases=8):
    """The direction-by-direction subpencil search the chunked one replaced;
    an Expr f goes to ``wirtinger_dbar`` as it is, after its variable check."""
    as_callable(f, P.n)
    M = P.num_directions
    rings = np.array([0.93 / j for j in range(1, ell_max + 1)] + [0.02])
    phase = np.exp(2j * np.pi * np.arange(phases) / phases)
    lam = (rings[:, None] * phase[None, :]).ravel()
    table = np.full((M, ell_max), np.inf)
    for i in range(M):
        U = np.broadcast_to(P.directions[i], lam.shape + (P.n,))
        try:
            pts = P.map_batch(lam, U)
            res = cr_residual_on_points(f, pts)
        except Exception:
            continue
        for ell in range(1, ell_max + 1):
            mask = np.abs(lam) <= 1.0 / ell
            table[i, ell - 1] = float(res[mask].max())
    ell_star = np.zeros(M, dtype=int)
    for i in range(M):
        passing = np.nonzero(table[i] <= tol)[0]
        ell_star[i] = passing[0] + 1 if passing.size else 0
    for m in range(1, ell_max + 1):
        in_set = (ell_star > 0) & (ell_star <= m)
        interior = np.array([
            in_set[i] and all(in_set[j] for j in P.neighbors[i])
            for i in range(M)])
        if interior.any():
            return _largest_component(interior, P.neighbors), m, ell_star, table
    return np.array([], dtype=int), None, ell_star, table


CUBIC = ["l*u1 + l^3*u2*conj(u2)", "l*u2"]
EXP_QUOTIENT = ["l*u1*exp(l*u2)", "l*u2/(1 - l*u1/4)"]


def seeded_pencil(kind, seed, count=200):
    U = sphere_directions(2, count, seed=seed)
    if kind == "standard":
        return standard_pencil(2, U)
    exprs = {"twisted": TWIST, "cubic": CUBIC, "exp_quotient": EXP_QUOTIENT}
    return pencil_from_exprs(2, exprs[kind], U)


class TestInversionAgainstPinv:
    """Live rows and the Gram step give the radius of the pinv inversion."""

    def radius_pair(self, monkeypatch, P, W, **kw):
        calls = []
        fast = pencil._invert_map

        def both(*args):
            ref = pinv_invert_map(*args)
            calls.append((ref, fast(*args)))
            return ref

        got = standard_subpencil_radius(P, W, **kw)
        with monkeypatch.context() as m:
            m.setattr(pencil, "_invert_map", both)
            want = standard_subpencil_radius(P, W, **kw)
        assert got == want
        for (mu0, V0, ok0), (mu1, V1, ok1) in calls:
            assert np.array_equal(ok0, ok1)
            assert np.abs(mu1 - mu0)[ok0].max(initial=0.0) <= 1e-8
            assert np.abs(V1 - V0)[ok0].max(initial=0.0) <= 1e-8
        return got

    @pytest.mark.parametrize("kind,seed,mesh", [
        ("twisted", 1, 1000), ("twisted", 2, 400), ("twisted", 3, 400),
        ("cubic", 1, 1000), ("cubic", 4, 400), ("standard", 2, 1000),
        ("exp_quotient", 2, 400)])
    def test_same_radius(self, monkeypatch, kind, seed, mesh):
        P = seeded_pencil(kind, seed)
        W = np.sort(np.random.default_rng(seed).choice(200, 20, replace=False))
        r = self.radius_pair(monkeypatch, P, W, mesh=mesh)
        assert 0.0 < r <= 1.0

    def test_same_radius_inside_a_direction_patch(self, monkeypatch):
        # V: a cap around e1, W: every direction two cells inside it; some
        # preimages land outside V and shrink the radius
        P = seeded_pencil("twisted", 6, 400)
        V = np.nonzero(np.abs(P.directions[:, 0]) > 0.7)[0]
        W = [w for w in V if ring_loop_offender(P, [w], V) is None]
        assert len(W) == 2
        r = self.radius_pair(monkeypatch, P, W, V=V, mesh=400)
        assert r < self.radius_pair(monkeypatch, P, W, mesh=400)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_boundary_offender(self, sphere150, seed):
        P = standard_pencil(2, sphere150)
        rng = np.random.default_rng(seed)
        V = rng.choice(150, 120, replace=False)
        W = rng.choice(150, 10, replace=False)
        w = ring_loop_offender(P, W, V)
        assert w is not None
        with pytest.raises(PencilCheckError,
                           match=f"^direction {w} is within 2 mesh cells"):
            standard_subpencil_radius(P, W, V=V, mesh=50)


class TestExactJacobian:
    """Each Gauss-Newton iteration evaluates the Jacobian once; map_batch
    gives only the residuals: the first one and each step's trials."""

    @pytest.mark.parametrize("kind", ["twisted", "exp_quotient", "standard"])
    def test_one_jacobian_per_iteration(self, monkeypatch, kind):
        P = seeded_pencil(kind, 3)
        events = []
        spec = pencil.PencilSpec
        batch, tangents, step = (spec.map_batch, spec.map_tangents,
                                 pencil._gauss_newton_step)

        def spy_batch(self, lam, U):
            events.append(("residual", np.size(lam)))
            return batch(self, lam, U)

        def spy_tangents(self, lam, U, dlam, dU):
            events.append(("jacobian", np.size(lam)))
            return tangents(self, lam, U, dlam, dU)

        def spy_step(J, R):
            events.append(("step", R.shape[-1]))
            return step(J, R)

        monkeypatch.setattr(spec, "map_batch", spy_batch)
        monkeypatch.setattr(spec, "map_tangents", spy_tangents)
        monkeypatch.setattr(pencil, "_gauss_newton_step", spy_step)
        B = 300
        lam = 0.8 * np.exp(2j * np.pi * np.arange(B) / 7) * np.linspace(0.1, 1, B)
        dirs = P.directions[np.arange(B) % P.num_directions]
        # start off the straight-line preimage, so the standard pencil
        # iterates too
        start = _renormalize(dirs + 0.1 * np.roll(dirs, 1, axis=0))
        mu, V, ok = pencil._invert_map(P, lam[:, None] * dirs, 0.9 * lam,
                                       start, pencil._NEWTON_ITERS,
                                       pencil._NEWTON_TOL)
        assert ok.all()
        assert events[0] == ("residual", B)
        iterations = [i for i, e in enumerate(events) if e[0] == "jacobian"]
        assert len(iterations) >= 2
        for start, stop in zip(iterations, iterations[1:] + [len(events)]):
            (_, b), *rest = events[start:stop]
            assert rest[:2] == [("step", b), ("residual", b)]
            damping = rest[2:]
            assert len(damping) <= 3
            assert all(kind == "residual" and 0 < size <= b
                       for kind, size in damping)


class TestGaussNewtonStep:
    """The batch-last step against ``pinv`` on points-first stacks."""

    @staticmethod
    def pinv_step(J, R):
        return -np.einsum("bij,bj->bi", np.linalg.pinv(J), R)

    @staticmethod
    def stack(rng, b=7):
        return rng.standard_normal((b, 4, 5)), rng.standard_normal((b, 4))

    @staticmethod
    def step(J, R):
        """``_gauss_newton_step`` on the (b, m, p) stack J, points first."""
        return _gauss_newton_step(J.transpose(1, 2, 0), R.T).T

    def test_matches_pinv_on_full_rank_rows(self, rng):
        J, R = self.stack(rng, 200)
        step = self.step(J, R)
        ref = self.pinv_step(J, R)
        err = np.linalg.norm(step - ref, axis=1) / np.linalg.norm(ref, axis=1)
        assert err.max() <= 1e-12

    def rank_deficient_takes_pinv(self, monkeypatch, J, R, row):
        seen = []
        pinv = np.linalg.pinv

        def spy(A, *args, **kwargs):
            seen.append(A.copy())
            return pinv(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", spy)
        step = self.step(J, R)
        monkeypatch.undo()
        assert len(seen) == 1 and np.array_equal(seen[0], J[row:row + 1])
        ref = self.pinv_step(J, R)
        assert np.array_equal(step[row],
                              self.pinv_step(J[row:row + 1], R[row:row + 1])[0])
        rest = np.arange(len(J)) != row
        err = (np.linalg.norm(step[rest] - ref[rest], axis=1)
               / np.linalg.norm(ref[rest], axis=1))
        assert err.max() <= 1e-12

    def test_rank_deficient_row_takes_pinv(self, rng, monkeypatch):
        J, R = self.stack(rng)
        J[3] = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 5))  # rank 3
        self.rank_deficient_takes_pinv(monkeypatch, J, R, 3)

    def test_singular_gram_row_takes_pinv(self, rng, monkeypatch):
        J, R = self.stack(rng)
        J[2, 1] = 0.0                    # an exact zero row: a zero pivot
        self.rank_deficient_takes_pinv(monkeypatch, J, R, 2)

    def test_non_finite_row_raises_like_pinv(self, rng):
        J, R = self.stack(rng)
        J[4, 1, 3] = np.nan
        with pytest.raises(np.linalg.LinAlgError) as want:
            self.pinv_step(J, R)
        with pytest.raises(np.linalg.LinAlgError) as got:
            self.step(J, R)
        assert str(got.value) == str(want.value)


def only_one_direction(z):
    """exp(z1+z2), refusing coordinate arrays of more than one dimension."""
    if np.ndim(z[0]) > 1:
        raise TypeError("one direction at a time")
    return np.exp(z[0] + z[1])


class TestChunkedSubpencil:
    """Chunked directions give the per-direction search, bit for bit."""

    @pytest.mark.parametrize("f,tol,ell_max", [
        (parse("exp(z1+z2)"), 1e-6, 8),
        (parse("1/(z1-0.3)"), 1e-6, 8),
        (parse("exp(800*z1)"), 1e-6, 8),
        (parse("z1^2*z2*conj(z1)/normsq(z)"), 1e-6, 5),
        (only_one_direction, 1e-6, 8),
        (parse("exp(z1+z2)+1e-3*conj(z1)"), 1e-30, 4),   # empty patch
    ], ids=["exp", "pole", "overflow", "counterexample", "one-direction",
            "empty"])
    @pytest.mark.parametrize("kind", ["standard", "twisted"])
    def test_bit_identical(self, with_e1, kind, f, tol, ell_max):
        P = (standard_pencil(2, with_e1) if kind == "standard"
             else pencil_from_exprs(2, TWIST, with_e1))
        # 151 directions: three chunks of 72-point master samples
        assert P.num_directions > DISC_CHUNK_SAMPLES // 72
        with np.errstate(over="ignore", invalid="ignore"):
            got = find_subpencil(f, P, tol=tol, ell_max=ell_max)
            V, m, ell_star, table = per_direction_subpencil(
                f, P, tol=tol, ell_max=ell_max)
        assert np.array_equal(got.residual_table, table)
        assert np.array_equal(got.ell_star, ell_star)
        assert np.array_equal(got.direction_indices, V)
        assert got.m == m
        if tol == 1e-30:
            assert got.empty

    def test_failing_direction_keeps_inf(self, with_e1):
        # z2 vanishes only on the disc through e1 (index 17): its chunk
        # raises and is redone, and only direction 17 fails there
        def f(z):
            if np.any(z[1] == 0):
                raise ValueError("z2 = 0")
            return np.exp(z[0] + z[1])

        got = find_subpencil(f, standard_pencil(2, with_e1))
        assert np.isinf(got.residual_table[17]).all()
        assert np.isfinite(np.delete(got.residual_table, 17, axis=0)).all()
        assert got.ell_star[17] == 0
