import math

import numpy as np
import pytest

from forelli_lab import (FULL_JET, JET_UP_TO, NO_JET, FormalSeries,
                         extract_jet, parse)

from conftest import random_series


class TestPolynomialRecovery:
    def test_product_monomial(self):
        jet = extract_jet(parse("z1*z2"), 2, 4)
        assert jet.verdict == FULL_JET
        assert abs(jet.series.coefficient((1, 1)) - 1.0) <= 1e-12
        assert len(jet.series) == 1

    def test_geometric_one_variable(self):
        jet = extract_jet(parse("1/(1-z1)"), 1, 8, rho_max=0.5)
        assert jet.verdict == FULL_JET
        for k in range(9):
            assert abs(jet.series.coefficient((k,)) - 1.0) <= 1e-8

    def test_polynomial_exactness_sweep(self, rng):
        # unit-bounded random polynomial in z and zbar, total bidegree <= 6
        for _ in range(5):
            S = random_series(rng, 2, 6, num_terms=10)
            S = S * (1.0 / max(1.0, S.max_abs_coefficient()))
            jet = extract_jet(lambda z, S=S: S.evaluate(z), 2, 6)
            assert jet.verdict == FULL_JET
            for key, c in S.items():
                assert abs(jet.series.coefficient(*key) - c) <= 1e-10
            for key, c in jet.series.items():
                assert abs(S.coefficient(*key) - c) <= 1e-10

    def test_center_translation(self):
        jet = extract_jet(parse("z1^2"), 1, 2, center=(1.0,))
        # (z+1)^2 = 1 + 2z + z^2
        assert abs(jet.series.coefficient((0,)) - 1.0) <= 1e-10
        assert abs(jet.series.coefficient((1,)) - 2.0) <= 1e-10
        assert abs(jet.series.coefficient((2,)) - 1.0) <= 1e-10


class TestJetFailureDetection:
    def test_counterexample_fails_at_order_two(self):
        jet = extract_jet(parse("z1^2*z2*conj(z1)/normsq(z)"), 2, 4)
        assert jet.verdict == JET_UP_TO
        assert jet.max_consistent_order == 1
        assert jet.per_order_residuals[0] <= 1e-6
        assert jet.per_order_residuals[1] <= 1e-6
        assert jet.per_order_residuals[2] > 1e-3
        # order-0 and order-1 coefficients vanish
        for (I, J), c in jet.series.items():
            assert sum(I) + sum(J) >= 2

    def test_homogeneity_detector(self, rng):
        # g/normsq with g a monomial of bidegree d+2 that does not divide out:
        # verdict at most JetUpTo(d-1)
        cases = [((4, 0), (0, 0)), ((3, 1), (0, 0)), ((2, 1), (1, 0)),
                 ((0, 2), (2, 0)), ((2, 2), (0, 0))]
        for I, J in cases:
            d = sum(I) + sum(J) - 2
            expr = []
            for k, e in enumerate(I):
                expr += [f"z{k+1}"] * e
            for k, e in enumerate(J):
                expr += [f"conj(z{k+1})"] * e
            f = parse("*".join(expr) + "/normsq(z)")
            jet = extract_jet(f, 2, max(4, d + 2))
            order = (jet.max_consistent_order if jet.verdict != NO_JET
                     else -1)
            assert order <= d - 1, (I, J, jet.verdict_text())

    def test_conjugation_symmetry(self, rng):
        S = random_series(rng, 2, 4, num_terms=8)
        f = lambda z: S.evaluate(z)
        g = lambda z: np.conj(S.evaluate(z))
        jf = extract_jet(f, 2, 4)
        jg = extract_jet(g, 2, 4)
        for (I, J), c in jf.series.items():
            assert abs(jg.series.coefficient(J, I) - np.conj(c)) <= 1e-9


class TestValidation:
    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid"):
            extract_jet(parse("z1"), 1, 40, grid=64)

    def test_too_few_radii(self):
        with pytest.raises(ValueError, match="radii"):
            extract_jet(parse("z1"), 1, 8, radii=[0.2, 0.3])

    def test_ill_conditioned_schedule(self):
        from forelli_lab import JetExtractionError
        radii = [0.2 * (1 + 1e-9) ** t for t in range(5)]
        with pytest.raises(JetExtractionError, match="ill-conditioned"):
            extract_jet(parse("z1*z2"), 2, 6, radii=radii)

    def test_evaluation_failure_reported(self):
        from forelli_lab import JetExtractionError
        with pytest.raises(JetExtractionError, match="evaluation failed"):
            extract_jet(parse("1/(z1-0.25)"), 1, 4, radii=[0.25, 0.35, 0.5])

    def test_exact_series_wrapper(self):
        from forelli_lab import jet_of_series
        S = FormalSeries(2, 4, {((1, 1), (0, 0)): 1.0})
        jet = jet_of_series(S)
        assert jet.verdict == FULL_JET and jet.series == S


class TestThreeVariables:
    def test_triple_product_recovery(self):
        jet = extract_jet(parse("z1*z2*z3"), 3, 4, grid=32)
        assert jet.verdict == FULL_JET
        assert abs(jet.series.coefficient((1, 1, 1)) - 1.0) <= 1e-10

    def test_homogeneous_quotient_detected(self):
        jet = extract_jet(parse("z1^2*z2*conj(z1)/normsq(z)"), 3, 4, grid=32)
        order = jet.max_consistent_order if jet.verdict != NO_JET else -1
        assert order <= 1                 # at most JetUpTo(1)


class TestEntireFunctions:
    def test_exp_recovers_factorials(self):
        jet = extract_jet(parse("exp(z1+z2)"), 2, 10)
        assert jet.verdict == FULL_JET
        for a in range(11):
            for b in range(11 - a):
                want = 1.0 / (math.factorial(a) * math.factorial(b))
                got = jet.series.coefficient((a, b))
                assert abs(got - want) <= 1e-9 * max(1.0, want)
        assert bool(jet.series.is_holomorphic_type())


def _reference_jet(f, n, order, grid, rho0=0.2, sigma=1.25, tol=1e-6,
                   coeff_floor=1e-10):
    """Per-mode reference: one torus sample, one ``lstsq`` solve and one
    pseudoinverse per Fourier mode, in ``_mode_list`` order.

    Returns the verdict text, the coefficients {(I, J): (value, rounding)}
    with the solve-rounding part of each coefficient's uncertainty bound,
    the mode-table keys and the worst condition number.
    """
    import itertools
    from forelli_lab.jets import _failure_order, _mode_list, radius_schedule

    radii = radius_schedule(max((order + 1) // 2 + 1, 2), rho0, sigma)
    rows = list(itertools.product(range(len(radii)), repeat=n))
    theta = 2.0 * np.pi * np.arange(grid) / grid
    phases = [np.exp(1j * g)
              for g in np.meshgrid(*([theta] * n), indexing="ij")]
    modes = _mode_list(n, order)
    vals = np.empty((len(rows), len(modes)), dtype=complex)
    for ri, row in enumerate(rows):
        F = np.fft.fftn(f(tuple(radii[row[k]] * phases[k]
                                for k in range(n)))) / grid ** n
        for mi, mu in enumerate(modes):
            vals[ri, mi] = F[tuple(m % grid for m in mu)]
    row_radii = radii[np.array(rows)]
    scale = float(np.abs(vals).max())
    noise_floor = 1e-13 * max(1.0, scale)

    coeffs, entries, worst_cond = {}, [], 1.0
    for mi, mu in enumerate(modes):
        plus = np.maximum(mu, 0)
        minus = np.maximum(np.negative(mu), 0)
        d = int(plus.sum() + minus.sum())
        Ls = [L for L in itertools.product(range((order - d) // 2 + 1),
                                           repeat=n)
              if sum(L) <= (order - d) // 2]
        A = np.prod(row_radii[:, None, :]
                    ** (plus + minus + 2 * np.array(Ls))[None], axis=2)
        col = np.linalg.norm(A, axis=0)
        worst_cond = max(worst_cond, np.linalg.cond(A / col))
        b = vals[:, mi]
        x = np.linalg.lstsq(A / col, b, rcond=None)[0] / col
        res = float(np.abs(A @ x - b).max())
        pinv_rows = np.linalg.norm(np.linalg.pinv(A / col), axis=1) / col
        rounding = 10.0 * np.finfo(float).eps * np.linalg.norm(b) * pinv_rows
        noise = rounding + math.sqrt(len(b)) * noise_floor * pinv_rows
        for L, c, nz, rnd in zip(Ls, x, noise, rounding):
            if abs(c) > max(coeff_floor, nz):
                coeffs[(tuple(int(v) for v in plus + np.array(L)),
                        tuple(int(v) for v in minus + np.array(L)))] = (c, rnd)
        entries.append((mu, d, 0.0 if res <= noise_floor else res,
                        float(np.abs(b).max()), A @ x - b))

    mag = np.zeros(order + 1)
    for _, d, _, bmax, _ in entries:
        mag[d] = max(mag[d], bmax)
    clean, failed = np.zeros(order + 1), np.zeros(order + 1)
    diag = [ri for ri, row in enumerate(rows) if len(set(row)) == 1]
    for mu, d, res, bmax, resid in entries:
        eps = res / max(mag[d], 1e-12)
        if eps <= tol:
            clean[d] = max(clean[d], eps)
            continue
        k = _failure_order(resid, diag, radii, bmax, scale, d)
        if k <= order:
            failed[k] = max(failed[k], eps)
    residuals = np.maximum(np.maximum.accumulate(failed), clean)
    top = int(np.argmax(residuals > tol)) - 1 if np.any(residuals > tol) \
        else order
    verdict = ("FullJet" if top == order
               else f"JetUpTo({top})" if top >= 1 else "NoJet")
    return verdict, coeffs, [(mu, d) for mu, d, *_ in entries], worst_cond


class TestBatchedSolverMatchesReference:
    CASES = [
        ("exp(z1)", 1, 12, 64),
        ("exp(z1+z2)", 2, 10, 64),
        ("conj(z1)+z2", 2, 8, 64),
        ("z1^2*z2*conj(z1)/normsq(z)", 2, 4, 64),
        ("1/((1-z1)*(1-z2))", 2, 12, 64),
        ("exp(z1+z2+z3)", 3, 6, 32),
        ("z1^2*z2*conj(z1)/normsq(z)", 3, 4, 32),
    ]

    @pytest.mark.parametrize("expr,n,order,grid", CASES)
    def test_against_per_mode_lstsq(self, expr, n, order, grid):
        f = parse(expr, dim=n)
        jet = extract_jet(f, n, order, grid=grid)
        verdict, coeffs, table, cond = _reference_jet(f, n, order, grid)
        assert jet.verdict_text() == verdict
        assert set(jet.series.terms) == set(coeffs)
        # a coefficient agrees to 1e-12 of the largest one, or within the
        # solve-rounding term of its uncertainty where conditioning makes
        # that larger (the aliased zbar terms of the geometric series)
        scale = max(abs(c) for c, _ in coeffs.values())
        for key, (c, rounding) in coeffs.items():
            assert (abs(jet.series.coefficient(*key) - c)
                    <= max(1e-12 * scale, rounding)), key
        assert [(row["mode"], row["base_order"])
                for row in jet.diagnostics["modes"]] == table
        # the smallest singular value carries relative error ~ eps * cond,
        # and cond stays below 1e6 in these cases
        assert jet.diagnostics["worst_condition"] == pytest.approx(cond,
                                                                  rel=1e-9)

    def test_geometric_product_stays_short_of_full(self):
        jet = extract_jet(parse("1/((1-z1)*(1-z2))"), 2, 12)
        assert jet.verdict_text() == "JetUpTo(11)"

    def test_condition_limit_names_first_mode(self):
        from forelli_lab import JetExtractionError
        with pytest.raises(JetExtractionError,
                           match=r"ill-conditioned radius schedule: "
                                 r"mode \(-8, 0\) condition"):
            extract_jet(parse("exp(z1+z2)"), 2, 24)
