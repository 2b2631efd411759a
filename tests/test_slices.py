import itertools
import math

import numpy as np
import pytest

from forelli_lab import (CertificateError, ChartPoly, FormalSeries,
                         NotHolomorphicTypeError, certify_polydisc, chart_map,
                         chart_poly_family, radius_root_test, slice_series)
from forelli_lab import slices
from forelli_lab.slices import SlicePolyFamily

from conftest import geometric_product_series, random_series


class TestDirection:
    def test_chart(self):
        charts, has_chart = chart_map([(3.0, 4.0)])
        assert has_chart.tolist() == [True]
        assert charts.shape == (1, 1)
        assert charts[0, 0] == pytest.approx(4.0 / 3.0)

    def test_chart_excluded_near_zero(self):
        charts, has_chart = chart_map([(1e-12, 1.0), (0.6, 0.8)])
        assert has_chart.tolist() == [False, True]
        assert charts.shape == (1, 1)
        assert charts[0, 0] == pytest.approx(4.0 / 3.0)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            chart_map([(3.0, 4.0), (0.0, 0.0)])


class TestSlice:
    def test_linear(self):
        S = (FormalSeries.variable(1, 2, 8)
             + FormalSeries.variable(2, 2, 8))
        sl = slice_series(S, (1.0, 2.0))
        assert sl.coefficient(1, 0) == pytest.approx(3.0)
        assert sl.is_t_only()

    def test_mixed_term(self):
        S = FormalSeries.monomial((1, 0), (0, 1), 1.0, 8)   # z1 zbar2
        sl = slice_series(S, (1.0, 1.0))
        assert sl.coefficient(1, 1) == pytest.approx(1.0)
        assert not sl.is_t_only()

    def test_geometric_coefficients(self):
        # sum over i,j <= 6 of z1^i z2^j along (1, b): t^k picks sum b^j
        S = geometric_product_series(n_max=6, max_order=6)
        b = 0.7 + 0.2j
        sl = slice_series(S, (1.0, b))
        for k in range(7):
            want = sum(b ** j for j in range(k + 1))
            assert sl.coefficient(k, 0) == pytest.approx(want)

    @pytest.mark.parametrize("a,message", [
        ((math.nan, 1.0), r"^ray point must be finite, not \(nan\+0j\)$"),
        ((1.0, complex(0, -math.inf)), "^ray point must be finite, not "
                                       "-infj$"),
        ((1.0,), "^ray point has 1 components, expected 2$")])
    def test_ray_point_must_be_finite(self, a, message):
        S = FormalSeries.variable(1, 2, 4)
        with pytest.raises(ValueError, match=message):
            slice_series(S, a)

    def test_linear_in_series(self, rng):
        A = random_series(rng, 2, 6)
        B = random_series(rng, 2, 6)
        a = (0.3 - 1j, 0.5)
        sa = slice_series(A, a).coeffs + slice_series(B, a).coeffs
        sab = slice_series(A + B, a).coeffs
        assert np.allclose(sa, sab, atol=1e-14)


class TestChartFamily:
    def test_single_variable_term(self):
        S = FormalSeries.variable(1, 2, 8)
        fam = chart_poly_family(S, 8)
        assert fam.polys[1](0.0) == pytest.approx(1.0)
        for k in (0, 2, 3):
            assert not fam.polys[k].coeffs.size

    def test_pure_second_variable(self):
        S = FormalSeries.monomial((0, 2), (0, 0), 1.0, 8)
        fam = chart_poly_family(S, 8)
        b = 1.3 - 0.4j
        assert fam.polys[2](b) == pytest.approx(b ** 2)

    def test_geometric_regrouping_exact(self):
        # integer data: regrouping equality is exact, not approximate
        S = geometric_product_series(n_max=8, max_order=8)
        fam = chart_poly_family(S, 8)
        b = 2.0
        sl = slice_series(S, (1.0, b))
        for k in range(9):
            assert fam.polys[k](b) == sl.coefficient(k, 0)

    def test_blocks_keep_the_order_of_from_dict(self, rng):
        # the family cuts its arrays from the series table, in the term
        # order (by beta) of a hand-made polynomial, so sums round alike
        S = random_series(rng, 3, 8, num_terms=60, holomorphic=True)
        for k, p in enumerate(chart_poly_family(S, 8).polys):
            want = ChartPoly.from_dict(2, {
                I[1:]: c for (I, _J), c in S.terms_of_order(k).items()})
            assert np.array_equal(p.exponents, want.exponents)
            assert p.coeffs.tobytes() == want.coeffs.tobytes()
            assert not (p.exponents.flags.writeable
                        or p.coeffs.flags.writeable)

    def test_degree_bound(self, rng):
        S = random_series(rng, 3, 8, holomorphic=True)
        fam = chart_poly_family(S, 8)
        for k, p in enumerate(fam.polys):
            assert p.degree <= k

    def test_rejects_zbar_terms(self):
        S = FormalSeries.monomial((1, 0), (0, 1), 1.0, 8)
        with pytest.raises(NotHolomorphicTypeError):
            chart_poly_family(S, 8)

    def test_three_variable_regrouping(self):
        S = FormalSeries(3, 6, {((i, j, k), (0, 0, 0)): 1.0
                                for i in range(7) for j in range(7)
                                for k in range(7) if i + j + k <= 6})
        fam = chart_poly_family(S, 6)
        b = np.array([0.5, 0.25])
        sl = slice_series(S, (1.0, 0.5, 0.25))
        for k in range(7):
            assert fam.polys[k](b) == sl.coefficient(k, 0)

    def test_phase_invariance(self):
        # chart of e^{i theta}(1, b) is the same b; slice moduli agree
        S = geometric_product_series(n_max=6, max_order=6)
        b = 0.8 + 0.1j
        sl1 = np.abs(slice_series(S, (1.0, b)).t_coefficients())
        sl2 = np.abs(slice_series(S, (1j * 1.0, 1j * b)).t_coefficients())
        assert np.max(np.abs(sl1 - sl2)) == 0.0  # multiplication by i is exact
        theta = 0.37
        w = np.exp(1j * theta)
        sl3 = np.abs(slice_series(S, (w, w * b)).t_coefficients())
        assert np.max(np.abs(sl1 - sl3)) <= 1e-12 * np.max(sl1)


class TestRootTest:
    @staticmethod
    def geometric_values(b, K):
        return [abs(sum(b ** j for j in range(k + 1))) for k in range(K + 1)]

    def test_geometric_radius(self):
        rt = radius_root_test(self.geometric_values(2.0, 200))
        assert 0.475 <= rt.radius <= 0.525

    def test_all_zero_tail(self):
        vals = [1.0] + [0.0] * 200
        rt = radius_root_test(vals)
        assert rt.radius == math.inf

    def test_factorial_family_matches_stirling(self):
        # |P_k| = k!; largest K whose factorial still fits a double is 170
        K = 150
        vals = [1.0] + [float(math.factorial(k)) for k in range(1, K + 1)]
        rt = radius_root_test(vals)
        stirling = math.exp(-math.lgamma(K + 1) / K)
        assert rt.radius < 0.05
        assert rt.radius == pytest.approx(stirling, rel=1e-9)

    def test_window_preconditions(self):
        # K = 7 values past the first: window K//2 = 3
        with pytest.raises(ValueError, match="window must be >= 4, not 3"):
            radius_root_test([1.0] * 8)
        assert radius_root_test([1.0] * 9).window == 4

    def test_columns_match_one_column_at_a_time(self, rng):
        # one call on a (K+1, points) array gives each column's floats, bit
        # for bit, as the per-column formula and a 1-D call on it do
        K = 20
        growth = np.exp(rng.uniform(-3, 3, 300))
        values = np.abs(rng.standard_normal((K + 1, 300))) * growth ** (
            np.arange(K + 1)[:, None])
        values[rng.random(values.shape) < 0.1] = 0.0
        values[K // 2:, :5] = 0.0                     # vanishing tails
        rt = radius_root_test(values)
        assert rt.radius.shape == rt.log_rate.shape == (300,)
        for j, column in enumerate(values.T):
            with np.errstate(divide="ignore"):
                seq = np.log(column[1:]) / np.arange(1, K + 1)
            finite = seq[K - K // 2:][np.isfinite(seq[K - K // 2:])]
            log_rate = float(finite.max()) if finite.size else -math.inf
            radius = math.exp(-log_rate) if finite.size else math.inf
            one = radius_root_test(column)
            assert type(one.radius) is type(one.log_rate) is float
            assert one.radius == rt.radius[j] == radius
            assert one.log_rate == rt.log_rate[j] == log_rate
            assert np.array_equal(one.sequence, rt.sequence[:, j])

    def test_scaling_shifts_log_rate_boundedly(self):
        # replacing S by c S moves each (1/k) log term by log|c|/k
        K, c = 200, 10.0
        base = self.geometric_values(2.0, K)
        scaled = [c * v for v in base]
        r1 = radius_root_test(base)
        r2 = radius_root_test(scaled)
        k_min = K - r1.window + 1
        assert abs(r2.log_rate - r1.log_rate) <= math.log(c) / k_min + 1e-12


class TestCertificate:
    def test_geometric_product(self):
        S = geometric_product_series(n_max=12, max_order=12)
        cert = certify_polydisc(S, 0.5, 12)
        # sup |P_k(b)|^(1/k) over |b| <= 1 is (k+1)^(1/k), max 2 at k=1
        assert cert.M == pytest.approx(2.0, rel=1e-9)
        assert cert.r_prime[0] == pytest.approx(1.0 / (2 * cert.M))
        assert cert.r_prime[1] == pytest.approx(0.5 / (2 * cert.M))

    def test_single_term(self):
        S = FormalSeries.variable(1, 2, 8)
        cert = certify_polydisc(S, 0.5, 8)
        assert cert.M == pytest.approx(1.05)
        assert cert.r_prime == pytest.approx((1 / 2.1, 0.5 / 2.1))

    def test_rejects_zbar(self):
        S = FormalSeries.monomial((0, 0), (1, 0), 1.0, 8)
        with pytest.raises(NotHolomorphicTypeError):
            certify_polydisc(S, 0.5, 8)

    @pytest.mark.parametrize("r0", [0.0, -0.5, math.inf, math.nan])
    def test_rejects_r0_that_is_not_positive_and_finite(self, r0):
        S = FormalSeries.variable(1, 2, 8)
        with pytest.raises(ValueError, match="^r0 must be positive and "
                                             f"finite, not {r0}$"):
            certify_polydisc(S, r0, 8)

    def test_refusal_on_undersampling(self, monkeypatch):
        # (z2 - z1)^6 has its chart maximum away from the single sampled
        # boundary point, so the Cauchy check catches the understated M
        undersample(monkeypatch)
        S = (FormalSeries.variable(2, 2, 8) - FormalSeries.variable(1, 2, 8)) ** 6
        with pytest.raises(CertificateError):
            certify_polydisc(S, 0.5, 8)

    def test_tail_bound_soundness(self, rng):
        # partial sums at points of 0.9 r' obey the k^n 2^-k block bound
        S = geometric_product_series(n_max=12, max_order=12)
        cert = certify_polydisc(S, 0.5, 12)
        n = S.n
        for _ in range(20):
            rad = 0.9 * np.array(cert.r_prime) * np.sqrt(rng.random(n))
            z = rad * np.exp(2j * np.pi * rng.random(n))
            absz = np.abs(z)
            for k in range(1, 13):
                total = sum(abs(c) * float(np.prod(absz ** np.array(I)))
                            for (I, _J), c in S.terms_of_order(k).items())
                assert total < k ** n * 2.0 ** (-k)

    def test_determinism(self):
        S = geometric_product_series(n_max=10, max_order=10)
        a = certify_polydisc(S, 0.5, 10, seed=7)
        b = certify_polydisc(S, 0.5, 10, seed=7)
        assert a.M == b.M and a.r_prime == b.r_prime


# -- reference loops -------------------------------------------------------
# Plain term-by-term, point-by-point evaluations to check the monomial
# kernel against.  The kernel multiplies and sums in another order, so values
# agree to a rounding bound fixed in advance: (terms + degree + 2) * eps
# times the sum of the moduli of the terms.

EPS = np.finfo(float).eps


def ref_terms(coeffs, point):
    """[c * prod x_j^e_j for each (exponent, c)] at one point."""
    out = []
    for beta, c in coeffs:
        term = complex(c)
        for x, e in zip(point, beta):
            if e:
                term *= complex(x) ** e
        out.append(term)
    return out


def poly_terms(p):
    """The (beta, coefficient) pairs of a ChartPoly."""
    return list(zip(p.exponents.tolist(), p.coeffs.tolist()))


def ref_chart_poly(p, b):
    """P(b) one point at a time; one chart variable takes bare points."""
    b = np.asarray(b, dtype=complex)
    lead = b.shape if p.nvars == 1 else b.shape[:-1]
    pts = b.reshape(lead + (p.nvars,))
    vals = np.zeros(lead, dtype=complex)
    bound = np.zeros(lead)
    for idx in np.ndindex(*lead):
        terms = ref_terms(poly_terms(p), pts[idx])
        vals[idx] = sum(terms, 0j)
        bound[idx] = sum(abs(t) for t in terms)
    return vals, (len(p.coeffs) + p.degree + 2) * EPS * bound


def ref_slice(S, a):
    N = S.max_order
    coeffs = np.zeros((N + 1, N + 1), dtype=complex)
    scale = np.zeros((N + 1, N + 1))
    point = tuple(a) + tuple(np.conj(a))
    for (I, J), c in S.items():
        (w,) = ref_terms([(I + J, c)], point)
        coeffs[sum(I), sum(J)] += w
        scale[sum(I), sum(J)] += abs(w)
    return coeffs, (len(S) + 2 * N + 2) * EPS * scale


def block_sums(S, K, z):
    """The order-k block sums sum |a_I| |z^I|, k = 1..K, term by term."""
    return [sum(abs(c) * float(np.prod(np.abs(z) ** np.array(I)))
                for (I, _J), c in S.terms_of_order(k).items())
            for k in range(1, K + 1)]


def undersample(monkeypatch):
    """One boundary sample, no interior samples and no margin."""
    for name, value in (("CERTIFICATE_SAMPLES", 0), ("CERTIFICATE_GRID", 1),
                        ("CERTIFICATE_MARGIN", 0.0)):
        monkeypatch.setattr(slices, name, value)


def ref_certificate(S, r0, K, sample_count=64, margin=0.05, angular_grid=48,
                    seed=42):
    """(M, r_prime, max_block_ratio) by per-point and per-term loops."""
    family = chart_poly_family(S, K)
    n, nv = S.n, S.n - 1
    rng = np.random.default_rng(seed)
    samples = [()]
    if nv:
        angles = 2.0 * np.pi * np.arange(angular_grid) / angular_grid
        samples = [tuple(2.0 * r0 * np.exp(1j * t) for t in combo)
                   for combo in itertools.product(angles, repeat=nv)]
        radii = 2.0 * r0 * np.sqrt(rng.random((sample_count, nv)))
        phases = np.exp(2j * np.pi * rng.random((sample_count, nv)))
        samples += [tuple(z) for z in radii * phases]
    M = 1.0 + margin
    for k in range(1, K + 1):
        pk = family.polys[k]
        vmax = max(abs(sum(ref_terms(poly_terms(pk), b), 0j)) for b in samples)
        if pk.coeffs.size and vmax > 0:
            M = max(M, vmax ** (1.0 / k))
    r_prime = (1.0 / (2.0 * M),) + (r0 / (2.0 * M),) * (n - 1)
    for (I, _J), c in S.items():
        k = sum(I)
        beta_order = k - I[0]
        bound = M ** k * r0 ** (-beta_order)
        if 1 <= k <= K and abs(c) > bound:
            raise CertificateError(
                f"Cauchy bound violated at z^{I}: |{abs(c):.6g}| > "
                f"M^{k} r0^-{beta_order} = {bound:.6g}; "
                "increase K or the boundary sampling")
    max_ratio = 0.0
    for k, total in enumerate(block_sums(S, K, np.array(r_prime)), start=1):
        bound = k ** n * 2.0 ** (-k)
        if total > bound:
            raise CertificateError(
                f"order-{k} block sum {total:.6g} > k^n 2^-k = {bound:.6g} "
                "at the corner |z| = r'; certificate refused")
        max_ratio = max(max_ratio, total / bound)
    return M, r_prime, max_ratio


def exp_sum_series(n, N):
    """Truncation of exp(z_1 + ... + z_n)."""
    terms = {(I, (0,) * n): 1.0 / math.prod(math.factorial(i) for i in I)
             for I in itertools.product(range(N + 1), repeat=n)
             if sum(I) <= N}
    return FormalSeries(n, N, terms)


class TestKernelAgainstLoops:
    @staticmethod
    def poly(rng, nvars, degree=6):
        betas = [b for b in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(b) <= degree]
        return ChartPoly.from_dict(nvars, {
            b: complex(rng.standard_normal(), rng.standard_normal())
            for b in betas})

    @pytest.mark.parametrize("nvars, point, batch", [
        (0, (), (5, 0)),
        (1, 0.7 - 0.4j, (4, 3)),
        (2, (0.5 + 0.5j, -1.2), (2, 3, 2)),
    ])
    def test_chart_poly(self, rng, nvars, point, batch):
        p = self.poly(rng, nvars)
        pts = (rng.standard_normal(batch)
               + 1j * rng.standard_normal(batch)) if nvars else np.zeros(batch)
        for b in (point, pts):
            got = p(b)
            want, tol = ref_chart_poly(p, b)
            assert np.shape(got) == want.shape
            assert np.all(np.abs(got - want) <= tol)

    def test_empty_chart_poly_is_zero(self):
        p = ChartPoly.from_dict(2, {})
        assert np.array_equal(p(np.ones((3, 2))), np.zeros(3))

    def test_chart_poly_rejects_wrong_last_axis(self, rng):
        with pytest.raises(ValueError):
            self.poly(rng, 2)(np.ones((4, 3)))

    def test_slice_of_mixed_series(self, rng):
        S = random_series(rng, 3, 7, num_terms=40)
        assert not S.is_holomorphic_type()
        a = (0.8 - 0.3j, -0.5 + 1.1j, 0.25j)
        want, tol = ref_slice(S, a)
        got = slice_series(S, a).coeffs
        assert np.all(np.abs(got - want) <= tol)
        assert np.array_equal(got == 0, want == 0)

    def test_values_at_point_array(self, rng):
        S = random_series(rng, 3, 8, num_terms=60, holomorphic=True)
        fam = chart_poly_family(S, 8)
        B = rng.standard_normal((25, 2)) + 1j * rng.standard_normal((25, 2))
        vals = fam.values_at(B)
        assert vals.shape == (fam.K + 1, 25)
        for k, p in enumerate(fam.polys):
            want, tol = ref_chart_poly(p, B)
            assert np.all(np.abs(vals[k] - want) <= tol)

    @pytest.mark.parametrize("S, r0, K", [
        (exp_sum_series(1, 10), 0.5, 10),
        (exp_sum_series(2, 10), 0.5, 10),
        (geometric_product_series(n_max=8, max_order=8), 1, 8),
        (exp_sum_series(3, 7), 0.4, 7),
    ], ids=["n1-exp", "n2-exp", "n2-geometric-int-r0", "n3-exp"])
    def test_certificate(self, rng, S, r0, K):
        M, r_prime, max_ratio = ref_certificate(S, r0, K, seed=11)
        cert = certify_polydisc(S, r0, K, seed=11)
        assert cert.M == pytest.approx(M, rel=1e-12)
        assert cert.r_prime == pytest.approx(r_prime, rel=1e-12)
        assert max_ratio > 0
        assert cert.diagnostics["max_block_ratio"] == pytest.approx(
            max_ratio, rel=1e-12)
        # the corner bounds every block sum on the polydisc
        corner = block_sums(S, K, np.array(r_prime))
        for _ in range(20):
            u = rng.random((2, S.n))
            z = np.array(r_prime) * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
            assert all(np.array(block_sums(S, K, z)) <= corner)

    def test_corner_at_the_bound_is_certified(self):
        # 1/(1 - z1/0.3): M = 1/0.3 and the order-1 block sum is exactly
        # 1/2 at the corner, its supremum on the open polydisc
        S = FormalSeries(2, 12, {((k, 0), (0, 0)): 0.3 ** -k
                                 for k in range(13)})
        cert = certify_polydisc(S, 0.5, 12)
        assert cert.diagnostics["max_block_ratio"] == 1.0
        assert ref_certificate(S, 0.5, 12)[2] == 1.0

    @pytest.mark.parametrize("K", [0, -1])
    def test_no_order_is_no_certificate(self, K):
        S = FormalSeries(2, 12, {((k, 0), (0, 0)): 0.3 ** -k
                                 for k in range(13)})
        with pytest.raises(ValueError, match=f"^K must be at least 1, not {K}$"):
            certify_polydisc(S, 0.5, K)

    @pytest.mark.parametrize("case", ["cauchy", "block"])
    def test_refusal_message(self, case, monkeypatch):
        # (z2 - z1)^6 fails the Cauchy check (a); z1 - z2 vanishes at the
        # single boundary sample, so M = 1 passes (a) and check (b) refuses
        z1, z2 = (FormalSeries.variable(k, 2, 8) for k in (1, 2))
        S = (z2 - z1) ** 6 if case == "cauchy" else z1 - z2
        with pytest.raises(CertificateError) as want:
            ref_certificate(S, 0.5, 8, sample_count=0, angular_grid=1,
                            margin=0.0)
        undersample(monkeypatch)
        with pytest.raises(CertificateError) as got:
            certify_polydisc(S, 0.5, 8)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(
            "Cauchy bound" if case == "cauchy" else "order-1 block sum")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFamilyValues:
    """``values_at`` gives each member the bits of its own ChartPoly call."""

    @staticmethod
    def family(rng, nv, K, max_terms):
        polys = []
        for k in range(K + 1):
            T = int(rng.integers(0, max_terms + 1))
            polys.append(ChartPoly(nv, rng.integers(0, k + 2, (T, nv)),
                                   rng.standard_normal(T)
                                   + 1j * rng.standard_normal(T)))
        return SlicePolyFamily(nv, polys)

    @staticmethod
    def points(rng, nv, shape):
        shape = tuple(shape) + ((nv,) if nv > 1 else ())
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("nv", [1, 2])
    @pytest.mark.parametrize("max_terms", [1, 9])
    @pytest.mark.parametrize("shape", [(), (1,), (3,), (64,), (441,),
                                       (48, 48), (101, 101)])
    def test_rows_are_member_calls(self, rng, nv, max_terms, shape):
        fam = self.family(rng, nv, 30, max_terms)
        b = self.points(rng, nv, shape)
        want = np.array([p(b) for p in fam.polys], dtype=complex)
        assert same_bits(fam.values_at(b), want)
        members = [29, 3, 3, 0, 17]
        assert same_bits(fam.values_at(b, members), want[members])
        assert same_bits(fam.abs_values_at(b), np.abs(want))

    def test_single_term_members_at_one_point(self, rng):
        # one-entry products round without fused multiply-adds in numpy
        polys = [ChartPoly(2, [[k, 2 * k + 1]], [0.3 - 1.1j * k])
                 for k in range(12)]
        fam = SlicePolyFamily(2, polys)
        for b in self.points(rng, 2, (40,)):
            want = np.array([p(b) for p in polys])
            assert same_bits(fam.values_at(b), want)
            assert same_bits(fam.values_at(b[None]), want[:, None])

    @pytest.mark.parametrize("K", [63, 64, 65, 127, 130])
    def test_chunks_split_the_family(self, K):
        # 64 one-term members fill a chunk of 64 points
        polys = [ChartPoly(1, [[k]], [1.0 + 0.5j]) for k in range(K + 1)]
        fam = SlicePolyFamily(1, polys)
        b = 0.9 * np.exp(2j * np.pi * np.arange(64) / 64)
        want = np.array([p(b) for p in polys])
        assert same_bits(fam.values_at(b), want)
        assert same_bits(fam.values_at(b, range(1, K + 1)), want[1:])

    def test_vanishing_and_empty_members(self):
        polys = [ChartPoly(1, [[0], [1]], [-2.0, 1.0]),     # zero at b = 2
                 ChartPoly(1, np.zeros((0, 1), dtype=int), []),
                 ChartPoly(1, [[3]], [1j])]
        fam = SlicePolyFamily(1, polys)
        b = np.array([2.0, 0.5 + 1j, 0.0])
        vals = fam.values_at(b)
        assert same_bits(vals, np.array([p(b) for p in polys]))
        assert vals[0, 0] == 0 and not vals[1].any() and vals[2, 2] == 0
        assert fam.values_at(b, []).shape == (0, 3)
        assert fam.values_at(np.zeros((0,)), [0, 2]).shape == (2, 0)

    def test_chart_family_of_a_series(self, rng):
        S = random_series(rng, 3, 9, num_terms=80, holomorphic=True)
        fam = chart_poly_family(S, 9)
        for shape in [(), (200,), (2368,)]:
            b = self.points(rng, 2, shape)
            want = np.array([p(b) for p in fam.polys], dtype=complex)
            assert same_bits(fam.values_at(b), want)

    def test_wrong_last_axis(self, rng):
        fam = self.family(rng, 2, 5, 3)
        with pytest.raises(ValueError, match="last axis 2"):
            fam.values_at(np.ones((4, 3)))
