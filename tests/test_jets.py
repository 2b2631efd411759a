import math
import threading

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

    def test_ill_conditioned_schedule(self):
        from forelli_lab import JetExtractionError
        with pytest.raises(JetExtractionError, match="ill-conditioned"):
            extract_jet(parse("z1*z2"), 2, 6, sigma=1 + 1e-9)

    @pytest.mark.parametrize("name", ["rho0", "sigma", "rho_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_schedule_must_be_finite(self, name, value):
        from forelli_lab import radius_schedule
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite, not {value}$"):
            radius_schedule(5, **{name: value})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            extract_jet(parse("z1"), 1, 8, **{name: value})

    @pytest.mark.parametrize("center,message", [
        ((math.nan, 0), r"^center must be finite, not \(nan\+0j\)$"),
        ((0, complex(1, math.inf)), r"^center must be finite, not "
                                    r"\(1\+infj\)$"),
        ((0,), "^center has 1 components, expected 2$")])
    def test_center_must_be_finite(self, center, message):
        with pytest.raises(ValueError, match=message):
            extract_jet(parse("exp(z1+z2)"), 2, 6, center=center)

    def test_evaluation_failure_reported(self):
        from forelli_lab import JetExtractionError
        with pytest.raises(JetExtractionError, match="evaluation failed"):
            extract_jet(parse("1/(z1-0.25)"), 1, 4, rho0=0.25)

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


def _reference_failure_order(resid_diag, radii, bmax, global_scale,
                             base_order):
    """One mode's failure order by the per-mode loop that the array
    ``jets._failure_orders`` replaced: the rounded median of the log-log
    slopes between consecutive diagonal misfits above the floor, or
    ``base_order`` without two such misfits or a finite slope."""
    ed = np.abs(resid_diag)
    floor = 1e-11 * max(bmax, 1e-3 * max(global_scale, 1e-12))
    mask = ed > floor
    if mask.sum() < 2:
        return base_order
    slopes = np.diff(np.log(ed[mask])) / np.diff(np.log(radii[mask]))
    slope = float(np.median(slopes))
    if not np.isfinite(slope):
        return base_order
    return max(int(round(slope)), 0)


class TestFailureOrders:
    @pytest.mark.parametrize("count", [2, 3, 4, 7, 12])
    def test_rows_match_the_per_mode_loop(self, rng, count):
        from forelli_lab.jets import _failure_orders, radius_schedule
        radii = radius_schedule(count)
        modes = 400
        # misfits spanning the floor, some rows with 0, 1 or 2 entries
        # above it, exact zeros and exact power laws (half-integer slopes)
        scale = 10.0 ** rng.uniform(-16, 0, (modes, count))
        scale[rng.random((modes, count)) < 0.3] = 0.0
        resid = scale * np.exp(2j * np.pi * rng.random((modes, count)))
        beta = rng.integers(0, 20, modes) / 2
        resid[:50] = radii ** beta[:50, None]
        bmax = 10.0 ** rng.uniform(-14, 1, modes)
        base = rng.integers(0, 12, modes)
        got = _failure_orders(resid, radii, bmax, 2.0, base)
        want = [_reference_failure_order(resid[i], radii, bmax[i], 2.0,
                                         int(base[i])) for i in range(modes)]
        assert got.tolist() == want

    def test_no_dirty_mode(self):
        from forelli_lab.jets import _failure_orders
        got = _failure_orders(np.empty((0, 3), dtype=complex),
                              np.array([0.2, 0.25, 0.3]), np.empty(0), 1.0,
                              np.empty(0, dtype=int))
        assert got.shape == (0,)


def _reference_jet(f, n, order, grid, rho0=0.2, sigma=1.25, tol=1e-6,
                   coeff_floor=1e-10):
    """Per-mode reference: one torus sample, one ``lstsq`` solve and one
    pseudoinverse per Fourier mode, in ``_modes`` order.

    The tori are the m radii for n = 1; for n >= 2 they are the
    radius-index tuples t with t_1 + ... + t_n <= m (m + 2 for n = 2) and
    the diagonal tuples (s, ..., s), in product order.

    Returns the verdict text, the coefficients {(I, J): (value, rounding)}
    with the solve-rounding part of each coefficient's uncertainty bound,
    the mode-table keys and the worst condition number.
    """
    import itertools
    from forelli_lab.jets import _modes, radius_schedule

    radii = radius_schedule(max((order + 1) // 2 + 1, 2), rho0, sigma)
    m = len(radii)
    top = m + 2 if n == 2 else m
    rows = [row for row in itertools.product(range(m), repeat=n)
            if n == 1 or sum(row) <= top or len(set(row)) == 1]
    theta = 2.0 * np.pi * np.arange(grid) / grid
    phases = [np.exp(1j * g)
              for g in np.meshgrid(*([theta] * n), indexing="ij")]
    modes = [tuple(mu) for mu in _modes(n, order).tolist()]
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
        k = _reference_failure_order(resid[diag], radii, bmax, scale, d)
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
                                 r"mode \(-6, 0\) condition"):
            extract_jet(parse("exp(z1+z2)"), 2, 24)


def _reference_sample_modes(func, compact, radii, rows, mus, grid, order,
                            two_threads=False):
    """The sampling loop the compact axes and the mode band replaced: full
    ``torus`` components for every input, ``np.fft.fftn`` of the whole
    torus and one flat gather of the modes at m mod G, all on the calling
    thread (``two_threads`` is ignored)."""
    from forelli_lab.series import torus

    n = mus.shape[1]
    unit = torus((1.0,) * n, grid)
    fft_index = np.ravel_multi_index(tuple((mus % grid).T), (grid,) * n)
    mode_vals = np.empty((len(rows), len(mus)), dtype=complex)
    for ri, row in enumerate(rows):
        vals = np.asarray(func(tuple(radii[row[k]] * unit[k]
                                     for k in range(n))), dtype=complex)
        vals = np.broadcast_to(vals, unit[0].shape)
        mode_vals[ri] = np.fft.fftn(vals, norm="forward").ravel()[fft_index]
    return mode_vals


class TestSamplingMatchesFullTorusReference:
    """Compact axes and the mode band change no number of the jet."""

    # the last flag is False where numpy's broadcast loops round the
    # products of the normsq quotient differently from the full-array
    # loops (4.8e-17 here)
    CASES = [
        ("exp(z1)", 1, 12, 64, None, True),
        ("z1^2", 1, 2, 64, (1.0,), True),
        ("exp(z1+z2)", 2, 10, 64, None, True),
        ("conj(z1)+z2", 2, 8, 64, None, True),
        ("z1^2*z2*conj(z1)/normsq(z)", 2, 4, 64, None, True),
        ("1/((1-z1)*(1-z2))", 2, 12, 64, None, True),
        ("exp(z1*z2)", 2, 8, 64, (0.1, -0.2j), True),
        ("2.5", 2, 4, 64, None, True),
        ("exp(z1+z2+z3)", 3, 6, 32, None, True),
        ("1+z1*z2*z3+z1^3-2*z2^2*z3", 3, 8, 32, None, True),
        ("z1*conj(z2)+z3^2", 3, 6, 32, None, True),
        ("z1^2*z2*conj(z1)/normsq(z)", 3, 4, 32, None, False),
    ]

    @pytest.mark.parametrize("expr,n,order,grid,center,exact", CASES)
    def test_same_jet(self, monkeypatch, expr, n, order, grid, center,
                      exact):
        from forelli_lab import jets

        f = parse(expr, dim=n)
        got = extract_jet(f, n, order, grid=grid, center=center)
        monkeypatch.setattr(jets, "_sample_modes", _reference_sample_modes)
        want = extract_jet(f, n, order, grid=grid, center=center)

        assert got.verdict_text() == want.verdict_text()
        assert got.per_order_residuals == want.per_order_residuals
        assert np.array_equal(got.series.graded.exponents,
                              want.series.graded.exponents)
        a, b = got.series.graded.coeffs, want.series.graded.coeffs
        if exact:
            assert a.tobytes() == b.tobytes()
            assert got.diagnostics == want.diagnostics
            return
        assert np.abs(a - b).max() <= 1e-15
        assert got.diagnostics.keys() == want.diagnostics.keys()
        for row, ref in zip(got.diagnostics["modes"],
                            want.diagnostics["modes"]):
            assert row.keys() == ref.keys()
            assert row["misfit"] == ref["misfit"]
            assert abs(row["magnitude"] - ref["magnitude"]) <= 1e-15
            assert row.get("failure_order") == ref.get("failure_order")


class TestCallableInputs:
    def test_callable_gets_fresh_full_arrays(self):
        n, order, grid = 2, 4, 64
        seen = []

        def f(z):
            stacked = np.stack(z)     # every component has the same shape
            w = z[0]
            w *= 2.0                  # writes into its own input
            seen.append(z)
            return w * stacked[1] + stacked[0]

        jet = extract_jet(f, n, order)
        want = extract_jet(parse("2*z1*z2+z1"), n, order)
        assert jet.verdict == FULL_JET
        assert jet.series.graded.coeffs.tobytes() == \
            want.series.graded.coeffs.tobytes()
        arrays = [c for z in seen for c in z]
        assert len(arrays) == n * len(jet.diagnostics["radii"]) ** n
        assert all(c.shape == (grid,) * n and c.flags.writeable
                   for c in arrays)
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[:i])


class TestOffenders:
    def test_counterexample_names_its_first_failing_mode(self):
        jet = extract_jet(parse("z1^2*z2*conj(z1)/normsq(z)"), 2, 4)
        assert jet.verdict_text() == "JetUpTo(1)"
        first = jet.diagnostics["first_failing_mode"]
        assert first["failure_order"] == 2
        assert first["misfit"] > first["tol"] == 1e-6
        row = next(r for r in jet.diagnostics["modes"]
                   if r["mode"] == first["mode"])
        assert row["failure_order"] == 2 and row["misfit"] == first["misfit"]
        # no dirty mode fails below it
        assert all(r.get("failure_order", 3) >= 2
                   for r in jet.diagnostics["modes"])
        worst = jet.diagnostics["worst_condition_mode"]
        assert worst["condition"] == jet.diagnostics["worst_condition"]
        assert jet.offenders() == {"first_failing_mode": first,
                                   "worst_condition_mode": worst}

    def test_full_jet_has_no_failing_mode(self):
        jet = extract_jet(parse("exp(z1+z2)"), 2, 10)
        assert jet.full and jet.diagnostics["first_failing_mode"] is None
        assert jet.diagnostics["worst_condition_mode"]["mode"] in [
            r["mode"] for r in jet.diagnostics["modes"]]


def test_deepcopy_of_a_jet():
    import copy
    jet = extract_jet(parse("z1^2*z2*conj(z1)/normsq(z)"), 2, 4)
    twin = copy.deepcopy(jet)
    assert twin.series == jet.series
    assert twin.series.graded.coeffs.tobytes() == \
        jet.series.graded.coeffs.tobytes()
    assert twin.diagnostics == jet.diagnostics


def _count_pools(patch):
    """Patch ``jets._on_two_threads`` to record the task of every helper
    started, by name ("sample_slab" or "solve"), and to fail a task that
    runs beside more than one helper; return the record."""
    from forelli_lab import jets
    pools, run = [], jets._on_two_threads
    before = threading.active_count()

    def recording(task, items):
        pools.append(task.__name__)

        def checked(item):
            assert threading.active_count() <= before + 1
            task(item)

        run(checked, items)

    patch.setattr(jets, "_on_two_threads", recording)
    return pools


class TestSamplingThreads:
    """n = 3 Expr tori sampled by the calling thread and one helper give the
    one-worker jet, bit for bit."""

    @staticmethod
    def _jet(monkeypatch, workers, f, n, order, center=None):
        """The jet with ``workers`` CPUs, its mode table, the threads that
        transformed tori and the tasks of the helpers started."""
        from forelli_lab import jets

        sample, transform = jets._sample_modes, jets.torus_modes
        modes, threads = [], set()

        def recording_sample(*args):
            modes.append(sample(*args))
            return modes[-1]

        def recording_transform(*args):
            threads.add(threading.get_ident())
            return transform(*args)

        with monkeypatch.context() as patch:
            patch.setattr(jets, "_sample_workers", lambda: workers)
            patch.setattr(jets, "_sample_modes", recording_sample)
            patch.setattr(jets, "torus_modes", recording_transform)
            pools = _count_pools(patch)
            jet = extract_jet(f, n, order, center=center)
        return jet, modes[0], threads, pools

    @staticmethod
    def _assert_same_jet(got, want):
        assert got.verdict_text() == want.verdict_text()
        assert got.per_order_residuals == want.per_order_residuals
        assert got.series.graded.exponents.tobytes() == \
            want.series.graded.exponents.tobytes()
        assert got.series.graded.coeffs.tobytes() == \
            want.series.graded.coeffs.tobytes()
        assert got.diagnostics == want.diagnostics

    @pytest.mark.parametrize("expr,order,center", [
        ("exp(z1+z2+z3)", 8, None),
        ("1+z1*z2*z3+z1^3-2*z2^2*z3", 8, None),
        ("z1^2*z2*conj(z1)/normsq(z)", 4, None),
        ("exp(z1*z2+z3)", 6, (0.1, -0.2j, 0.05)),
    ])
    def test_pool_matches_one_worker(self, monkeypatch, expr, order, center):
        # two CPUs: the calling thread and one helper sample the tori (every
        # n = 3 torus at grid 32 is a slab of 32^3 points), then solve the
        # design stacks if they hold 32^3 entries in all: 41 552 at order 8,
        # 8 806 at order 6 and 1 278 at order 4
        f = parse(expr, dim=3)
        got, got_modes, threads, pools = self._jet(monkeypatch, 2, f, 3,
                                                   order, center)
        want, want_modes, serial, serial_pools = self._jet(
            monkeypatch, 1, f, 3, order, center)
        assert (serial, serial_pools) == ({threading.get_ident()}, [])
        assert threading.get_ident() in threads and len(threads) <= 2
        assert pools == ["sample_slab"] + ["solve"] * (order >= 8)
        assert got_modes.tobytes() == want_modes.tobytes()
        self._assert_same_jet(got, want)

    def test_more_workers_than_cores_switching_often(self, monkeypatch):
        # more CPUs than two still start one helper, and every torus writes
        # only its own row of the mode table: a lost or misplaced row would
        # change the bytes
        import sys
        f = parse("exp(z1+z2+z3)", dim=3)
        want, want_modes = self._jet(monkeypatch, 1, f, 3, 6)[:2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [self._jet(monkeypatch, workers, f, 3, 6)
                    for workers in (2, 8)]
        finally:
            sys.setswitchinterval(interval)
        for got, got_modes, threads, pools in runs:
            assert len(threads) <= 2 and pools == ["sample_slab"]
            assert got_modes.tobytes() == want_modes.tobytes()
            self._assert_same_jet(got, want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_torus_is_named(self, monkeypatch, workers):
        # every torus with rho_3 = 0.25 divides by zero; the first in row
        # order is raised, with plain floats in its radii
        from forelli_lab import JetExtractionError, jets
        monkeypatch.setattr(jets, "_sample_workers", lambda: workers)
        with pytest.raises(JetExtractionError) as info:
            extract_jet(parse("1/(z3-0.25)", dim=3), 3, 4)
        assert str(info.value) == ("evaluation failed on torus "
                                   "rho=(0.2, 0.2, 0.25): division by zero "
                                   "in 'z3-0.25'")

    def test_callable_runs_on_the_calling_thread(self, monkeypatch):
        import threading

        from forelli_lab import jets
        monkeypatch.setattr(jets, "_sample_workers", lambda: 2)
        idents = set()

        def f(z):
            idents.add(threading.get_ident())
            return z[0] * z[1] * z[2]

        jet = extract_jet(f, 3, 4)
        assert jet.verdict == FULL_JET
        assert idents == {threading.get_ident()}

    def test_pool_keeps_the_callers_error_state(self, monkeypatch):
        # without the caller's errstate the pool threads would only warn,
        # and the overflow would surface as non-finite samples
        from forelli_lab import JetExtractionError, jets
        monkeypatch.setattr(jets, "_sample_workers", lambda: 2)
        with np.errstate(over="raise"):
            with pytest.raises(JetExtractionError,
                               match=r"evaluation failed .*: overflow"):
                extract_jet(parse("exp(5000*z1)+z2*z3", dim=3), 3, 4)


def _gathered_stack(power, row_idx, expo):
    """The design stacks as np.prod over the whole (K, rows, #L, n) gather,
    the construction the per-axis products replaced."""
    return np.prod(power[row_idx[None, :, None, :], expo[:, None, :, :]],
                   axis=3)


class TestDesignStacksMatchGather:
    """The per-axis design stacks are the gathered products, bit for bit."""

    @pytest.mark.parametrize("n,order", [(1, 22), (2, 12), (2, 22), (3, 10)])
    @pytest.mark.parametrize("rho_max", [None, 1.0])
    def test_every_dmax_group(self, n, order, rho_max):
        import itertools

        from forelli_lab.jets import _design_stack, _modes, radius_schedule

        radii = radius_schedule((order + 1) // 2 + 1, rho_max=rho_max)
        row_idx = np.array(list(itertools.product(range(len(radii)),
                                                  repeat=n)))
        power = radii[:, None] ** np.arange(order + 1)
        classes = np.unique(np.abs(_modes(n, order)), axis=0)
        class_dmax = (order - classes.sum(axis=1)) // 2
        for dmax in np.unique(class_dmax):
            Ls = np.array([L for L in itertools.product(range(dmax + 1),
                                                        repeat=n)
                           if sum(L) <= dmax])
            expo = (classes[class_dmax == dmax][:, None, :]
                    + 2 * Ls[None, :, :])
            got = _design_stack(power, row_idx, expo)
            want = _gathered_stack(power, row_idx, expo)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), dmax


class TestSlabsMatchOneTorusAtATime:
    """n <= 2 Expr tori sampled in slabs give the per-torus samples, errors
    and warnings."""

    @staticmethod
    def _run(monkeypatch, slabs, f, n, order, **kw):
        """The jet (or its error) and the warnings, with slabs or with one
        torus per evaluation on the calling thread."""
        import warnings

        from forelli_lab import JetExtractionError, jets
        with monkeypatch.context() as patch:
            if not slabs:
                patch.setattr(jets, "POOL_MIN_POINTS", 1)
                patch.setattr(jets, "_sample_workers", lambda: 1)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                try:
                    outcome = extract_jet(f, n, order, **kw)
                except JetExtractionError as exc:
                    outcome = str(exc)
        return outcome, [(w.category, str(w.message)) for w in seen]

    @pytest.mark.parametrize("expr,n,order,kw,message", [
        # the second of a slab of three, rho = 0.2 * 1.25
        ("1/(z1-0.25)", 1, 4, {},
         "evaluation failed on torus rho=(0.25,): division by zero in "
         "'z1-0.25'"),
        # the third of each slab of eight
        ("1/(z2-0.3125)", 2, 10, {},
         "evaluation failed on torus rho=(0.2, 0.3125): division by zero "
         "in 'z2-0.3125'"),
        # exp overflows from rho = 0.25 on: the second torus of the slab
        ("exp(3000*z1)", 1, 8, {},
         "non-finite samples on torus rho=(0.25,)"),
        ("z1+exp(3000*z2)", 2, 8, {},
         "non-finite samples on torus rho=(0.2, 0.25)"),
    ])
    def test_same_error(self, monkeypatch, expr, n, order, kw, message):
        f = parse(expr, dim=n)
        got = self._run(monkeypatch, True, f, n, order, **kw)
        want = self._run(monkeypatch, False, f, n, order, **kw)
        assert got == want
        assert got[0] == message

    def test_same_error_without_warnings(self, monkeypatch):
        with np.errstate(over="ignore", invalid="ignore"):
            got = self._run(monkeypatch, True, parse("z1+exp(3000*z2)"), 2, 8)
        assert got == ("non-finite samples on torus rho=(0.2, 0.25)", [])

    @pytest.mark.parametrize("expr", ["z1+1/(1+exp(3000*re(z2)))",
                                      "exp(z1+z2)"])
    def test_same_jet(self, monkeypatch, expr):
        # exp overflows to inf + 0j on the tori with rho_2 >= 0.25 and the
        # quotient is 0 there: those slabs are redone torus by torus, and
        # the jet and warnings are those of one torus at a time
        f = parse(expr, dim=2)
        (got, got_warned), (want, want_warned) = (
            self._run(monkeypatch, slabs, f, 2, 8) for slabs in (True, False))
        assert got_warned == want_warned
        assert got.series.graded.coeffs.tobytes() == \
            want.series.graded.coeffs.tobytes()
        assert got.per_order_residuals == want.per_order_residuals
        assert got.diagnostics == want.diagnostics


class TestWarningsMatchOneThread:
    """With two workers an Expr jet gives one worker's jet or error and its
    warnings, in order: the two threads evaluate slabs only where numpy's
    warnings raise, and the calling thread redoes the slabs that failed
    torus by torus, in row order."""

    @staticmethod
    def _run(monkeypatch, workers, f, n, order):
        """The jet's verdict, coefficient bytes and residuals, or its error;
        the warnings recorded; and the tasks of the helpers started."""
        import warnings

        from forelli_lab import JetExtractionError, jets
        with monkeypatch.context() as patch:
            patch.setattr(jets, "_sample_workers", lambda: workers)
            pools = _count_pools(patch)
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                try:
                    jet = extract_jet(f, n, order)
                    outcome = (jet.verdict_text(),
                               jet.series.graded.coeffs.tobytes(),
                               jet.per_order_residuals)
                except JetExtractionError as exc:
                    outcome = str(exc)
        return outcome, [(w.category, str(w.message)) for w in seen], pools

    @pytest.mark.parametrize("expr,n,order,warned", [
        # exp overflows from rho = 0.25 on: the first such torus raises
        ("exp(3000*z1)", 1, 8, 1),
        ("z1+exp(3000*z2)", 2, 14, 1),
        ("z1+exp(3000*z3)", 3, 6, 1),
        # the quotient is 0 there: every such torus warns and recovers
        ("z1+1/(1+exp(3000*re(z1)))", 1, 8, 4),
        ("z1+1/(1+exp(3000*re(z2)))", 2, 14, 48),
        ("z1+1/(1+exp(3000*re(z3)))", 3, 6, 21),
    ])
    def test_same_warnings(self, monkeypatch, expr, n, order, warned):
        # the failed slabs are collected from both threads, also when they
        # switch often
        import sys
        f = parse(expr, dim=n)
        want, want_warned, serial = self._run(monkeypatch, 1, f, n, order)
        assert serial == []
        assert want_warned == [
            (RuntimeWarning, "overflow encountered in exp")] * warned
        interval = sys.getswitchinterval()
        for switch in (interval, 1e-6):
            sys.setswitchinterval(switch)
            try:
                got, got_warned, pools = self._run(monkeypatch, 2, f, n,
                                                   order)
            finally:
                sys.setswitchinterval(interval)
            assert pools[:1] == (["sample_slab"] if n > 1 else [])
            assert (got, got_warned) == (want, want_warned)


class TestSolveHelper:
    """Large design stacks solved on the calling thread and one helper give
    the serial jet, bit for bit, and the serial error."""

    @staticmethod
    def _jet(monkeypatch, workers, f, n, order, switch=None, **kw):
        """The jet with ``workers`` threads allowed, and the tasks of the
        helpers started."""
        import sys

        from forelli_lab import jets
        interval = sys.getswitchinterval()
        with monkeypatch.context() as patch:
            patch.setattr(jets, "_sample_workers", lambda: workers)
            pools = _count_pools(patch)
            if switch:
                sys.setswitchinterval(switch)
            try:
                jet = extract_jet(f, n, order, **kw)
            finally:
                sys.setswitchinterval(interval)
        return jet, pools

    @pytest.mark.parametrize("f,n,order,kw", [
        *[("exp(z1+z2)", 2, order, {"rho_max": rho_max})
          for order in (16, 20, 22) for rho_max in (None, 1.0)],
        ("1+z1*z2+z1^3-2*z2^2", 2, 22, {}),
        ("conj(z1)+z2", 2, 20, {}),
        # JetUpTo(1): failure orders read the diagonal misfits
        ("z1^2*z2*conj(z1)/normsq(z)", 2, 16, {}),
        (lambda z: np.exp(z[0] + z[1] * z[2]), 3, 8, {}),
    ])
    def test_helper_matches_serial(self, monkeypatch, f, n, order, kw):
        from forelli_lab.expr import Expr
        if isinstance(f, str):
            f = parse(f, dim=n)
        want, serial_pools = self._jet(monkeypatch, 1, f, n, order, **kw)
        assert serial_pools == []
        # an Expr's slabs are sampled on the two threads too (callables on
        # the calling thread), one helper at a time
        sampled = ["sample_slab"] if isinstance(f, Expr) else []
        for switch in (None, 1e-6):
            got, pools = self._jet(monkeypatch, 2, f, n, order, switch, **kw)
            assert pools == sampled + ["solve"]
            assert got.verdict_text() == want.verdict_text()
            assert got.series.graded.exponents.tobytes() == \
                want.series.graded.exponents.tobytes()
            assert got.series.graded.coeffs.tobytes() == \
                want.series.graded.coeffs.tobytes()
            assert got.per_order_residuals == want.per_order_residuals
            assert got.diagnostics == want.diagnostics

    @pytest.mark.parametrize("workers", [1, 2])
    def test_smallest_failing_group_raises(self, monkeypatch, workers):
        # the groups of 21 and 55 unknowns (dmax 5 and 9 at order 22) fail:
        # an ascending loop over dmax meets 21 first, while the calling
        # thread starts with the 55-unknown group, the largest
        svd = np.linalg.svd

        def failing_svd(a, *args, **kw):
            if a.shape[-1] in (21, 55):
                raise np.linalg.LinAlgError(f"{a.shape[-1]} unknowns")
            return svd(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="^21 unknowns$"):
            self._jet(monkeypatch, workers, parse("exp(z1+z2)"), 2, 22)
        assert threading.active_count() == before

    @pytest.mark.parametrize("f,n,order", [
        ("exp(z1)", 1, 22),
        ("exp(z1+z2)", 2, 6),
        ("1+z1*z2+z1^3-2*z2^2", 2, 6),
        ("z1^2*z2*conj(z1)/normsq(z)", 2, 4),
    ])
    def test_small_jets_start_no_thread(self, monkeypatch, f, n, order):
        # n = 1 at grid 64: one slab of at most 12 tori of 64 points; n = 2
        # up to order 6: slabs of at most 4 tori of 64^2 points, half of
        # POOL_MIN_POINTS, and at most 1 280 stack entries
        from forelli_lab import jets

        def no_pool(*args):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(jets, "_sample_workers", lambda: 2)
        monkeypatch.setattr(jets, "ThreadPoolExecutor", no_pool)
        extract_jet(parse(f, dim=n), n, order)

    @pytest.mark.parametrize("order,pools", [(12, 0), (13, 1), (14, 1)])
    def test_helper_starts_after_order_12(self, monkeypatch, order, pools):
        # the n = 2 stacks hold 45 * 588 = 26 460 entries at order 12,
        # 56 * 756 = 42 336 at order 13 and 56 * 960 = 53 760 at order 14,
        # against POOL_MIN_POINTS = 32 768; the slabs are sampled on two
        # threads at all three orders
        jet, started = self._jet(monkeypatch, 2, parse("exp(z1+z2)"), 2,
                                 order)
        assert started == ["sample_slab"] + ["solve"] * pools
        assert jet.verdict == FULL_JET

    @pytest.mark.parametrize("order,sampled", [(4, 0), (6, 0), (7, 1),
                                               (8, 1)])
    def test_sampling_helper_starts_at_order_7(self, monkeypatch, order,
                                               sampled):
        # n = 2 at grid 64: slabs of up to 8 tori of 4 096 points.  Orders
        # 4 and 6 have 3 and 4 slabs of 3 and 4 tori (12 288 and 16 384
        # points, no more than half of POOL_MIN_POINTS); order 7 has 5 of
        # 5 tori (20 480 points).  Two slabs of more than half start it
        jet, started = self._jet(monkeypatch, 2, parse("exp(z1+z2)"), 2,
                                 order)
        assert started == ["sample_slab"] * sampled
        assert jet.verdict == FULL_JET

    @pytest.mark.parametrize("workers", [1, 2])
    def test_condition_limit_with_and_without_helper(self, monkeypatch,
                                                     workers):
        from forelli_lab import JetExtractionError
        with pytest.raises(JetExtractionError) as info:
            self._jet(monkeypatch, workers, parse("exp(z1+z2)"), 2, 24)
        assert str(info.value) == ("ill-conditioned radius schedule: mode "
                                   "(-6, 0) condition 3.42e+14 exceeds 1e+14")


def _full_product(n, count, top):
    import itertools
    return list(itertools.product(range(count), repeat=n))


class TestLowerSetRows:
    """n >= 2 jets sample a lower set of radius tuples plus the diagonal;
    n = 1 jets sample all radii."""

    def test_n1_is_the_full_product(self):
        from forelli_lab.jets import _radius_rows
        for count in range(2, 13):
            for top in range(2, count + 1):
                assert _radius_rows(1, count, top) == \
                    _full_product(1, count, top)
        assert extract_jet(parse("exp(z1)", dim=1), 1, 12).diagnostics[
            "tori"] == 7

    @pytest.mark.parametrize("order,tori", [(12, 45), (16, 69), (20, 97),
                                            (22, 112)])
    def test_n2_lower_set_and_diagonal(self, order, tori):
        from forelli_lab.jets import N2_SLACK, _radius_rows
        for count in range(2, 13):
            for top in range(2, count + 1):
                rows = _radius_rows(2, count, top)
                assert rows == sorted(rows)         # product order
                assert {(s, s) for s in range(count)} <= set(rows)
                lower = [t for t in rows if sum(t) <= top + N2_SLACK]
                assert lower == [t for t in _full_product(2, count, top)
                                 if sum(t) <= top + N2_SLACK]
                assert len(rows) == len(lower) + sum(
                    2 * s > top + N2_SLACK for s in range(count))
                for t1, t2 in lower:                # a lower set
                    assert t1 == 0 or (t1 - 1, t2) in rows
                    assert t2 == 0 or (t1, t2 - 1) in rows
        m = order // 2 + 1
        assert len(_radius_rows(2, m, m)) == tori
        jet = extract_jet(parse("exp(z1+z2)"), 2, order)
        assert jet.diagnostics["tori"] == tori

    @pytest.mark.parametrize("rho_max", [None, 1.0])
    def test_n2_exp_no_worse_conditioned_than_the_full_product(
            self, monkeypatch, rho_max):
        # the lower set's worst condition is 0.77-0.87 of the product's
        # on the default schedule and 0.78-0.91 with rho_max 1
        from forelli_lab import jets
        f = parse("exp(z1+z2)")
        for order in range(12, 23):
            jet = extract_jet(f, 2, order, rho_max=rho_max)
            with monkeypatch.context() as patch:
                patch.setattr(jets, "_radius_rows", _full_product)
                full = extract_jet(f, 2, order, rho_max=rho_max)
            assert full.diagnostics["tori"] > jet.diagnostics["tori"]
            assert (jet.diagnostics["worst_condition"]
                    <= full.diagnostics["worst_condition"]), order
            assert jet.verdict == FULL_JET, order
            assert all(not any(J) for _, J in jet.series.terms)
            for i1 in range(order + 1):
                for i2 in range(order + 1 - i1):
                    want = 1.0 / (math.factorial(i1) * math.factorial(i2))
                    got = jet.series.coefficient((i1, i2))
                    assert abs(got - want) <= 1e-6, (order, i1, i2)

    @pytest.mark.parametrize("order,tori", [(4, 18), (6, 34), (8, 56),
                                            (10, 84), (12, 121)])
    def test_n3_lower_set_and_diagonal(self, order, tori):
        from forelli_lab.jets import _radius_rows
        m = order // 2 + 1
        rows = _radius_rows(3, m, m)
        assert len(rows) == tori
        assert rows == sorted(rows)                 # product order
        assert {(s,) * 3 for s in range(m)} <= set(rows)
        lower = [t for t in rows if sum(t) <= m]
        assert len(lower) == len(rows) - sum(3 * s > m for s in range(m))
        for t in lower:                             # a lower set
            for k in range(3):
                if t[k]:
                    assert t[:k] + (t[k] - 1,) + t[k + 1:] in rows
        jet = extract_jet(parse("z1*z2*z3", dim=3), 3, order)
        assert jet.diagnostics["tori"] == tori

    def test_n3_callable_sees_each_torus_once_in_row_order(self,
                                                            monkeypatch):
        # the calling thread samples callables, and with one worker Expr
        # tori, in runs that share all but the last radius index
        from forelli_lab import jets
        from forelli_lab.jets import _radius_rows
        seen = []

        def f(z):
            seen.append(tuple(float(abs(c.flat[0])) for c in z))
            return z[0] * z[1] + z[2]

        jet = extract_jet(f, 3, 6)
        radii = jet.diagnostics["radii"]
        want = [tuple(radii[t] for t in row)
                for row in _radius_rows(3, len(radii), len(radii))]
        assert seen == pytest.approx(want, rel=1e-15)
        monkeypatch.setattr(jets, "_sample_workers", lambda: 1)
        serial = extract_jet(parse("z1*z2+z3", dim=3), 3, 6)
        assert serial.series.graded.coeffs.tobytes() == \
            jet.series.graded.coeffs.tobytes()

    @pytest.mark.parametrize("order", range(1, 16))
    def test_n3_every_class_has_full_rank(self, order):
        # worst at the default schedule: 3.88e7 at order 12 and 2.35e10
        # at order 15 (the full product: 7.35e5 and 3.11e7)
        from forelli_lab.jets import (COND_LIMIT, _design_stack, _modes,
                                      _radius_rows, _simplex,
                                      radius_schedule)
        m = max((order + 1) // 2 + 1, 2)
        radii = radius_schedule(m)
        row_idx = np.array(_radius_rows(3, m, m))
        power = radii[:, None] ** np.arange(order + 1)
        classes = np.unique(np.abs(_modes(3, order)), axis=0)
        simplex = _simplex(3, order // 2)
        for cls in classes:
            Ls = simplex[simplex.sum(axis=1) <= (order - cls.sum()) // 2]
            A = _design_stack(power, row_idx, (cls + 2 * Ls)[None])[0]
            A = A / np.linalg.norm(A, axis=0)
            sv = np.linalg.svd(A, compute_uv=False)
            assert len(sv) == len(Ls) and sv[-1] > 0, cls
            assert sv[0] / sv[-1] < COND_LIMIT, cls

    def test_n3_exp_coefficients(self):
        # the parent full-product design gave at most 5.7e-14 here
        import itertools

        from forelli_lab.jets import COEFF_FLOOR
        f = parse("exp(z1+z2+z3)", dim=3)
        for order in range(8, 16):
            jet = extract_jet(f, 3, order)
            assert jet.verdict == FULL_JET
            assert all(not any(J) for _, J in jet.series.terms)
            for I in itertools.product(range(order + 1), repeat=3):
                if sum(I) > order:
                    continue
                want = 1.0 / math.prod(math.factorial(i) for i in I)
                got = jet.series.coefficient(I)
                if got == 0:                # dropped below the floor
                    assert want <= COEFF_FLOOR, (order, I)
                else:
                    assert abs(got - want) <= 1e-13, (order, I)

    def test_counterexample_verdicts(self):
        # the function is homogeneous of degree 2: the zero jet through
        # order 1 is the true answer.  The full product read NoJet at
        # order 4 (mode (1, 1, 0) charged to order 1)
        f = parse("z1^2*z2*conj(z1)/normsq(z)", dim=3)
        jet = extract_jet(f, 3, 4)
        assert jet.verdict_text() == "JetUpTo(1)"
        assert jet.diagnostics["first_failing_mode"]["failure_order"] == 2
        for order in range(5, 13):
            assert extract_jet(f, 3, order).verdict == NO_JET, order
        assert extract_jet(parse("z1^3*conj(z2)^2/normsq(z)", dim=3),
                           3, 6).verdict == NO_JET

    @pytest.mark.parametrize("f,order,kw", [
        # the n = 3 jets of this file
        ("z1*z2*z3", 4, {}),
        ("exp(z1+z2+z3)", 6, {}),
        ("exp(z1+z2+z3)", 8, {}),
        ("1+z1*z2*z3+z1^3-2*z2^2*z3", 8, {}),
        ("z1*conj(z2)+z3^2", 6, {}),
        ("exp(z1*z2+z3)", 6, {"center": (0.1, -0.2j, 0.05)}),
        (lambda z: np.exp(z[0] + z[1] * z[2]), 8, {}),
        ("z1^3*conj(z2)^2/normsq(z)", 6, {}),
        ("1/(z3-0.25)", 4, {}),
        # the jets of the n = 3 benchmark workload
        ("1+z1*z2*z3+z1^3-2*z2^2*z3", 6, {}),
        ("1+z1*z2*z3+z1^3-2*z2^2*z3", 10, {}),
        ("1/((1-z1)*(1-z2)*(1-z3))", 6, {}),
        ("1/((1-z1)*(1-z2)*(1-z3))", 8, {}),
    ])
    def test_same_verdicts_as_the_full_product(self, monkeypatch, f, order,
                                               kw):
        from forelli_lab import JetExtractionError, jets

        def outcome():
            try:
                jet = extract_jet(parse(f, dim=3) if isinstance(f, str)
                                  else f, 3, order, **kw)
            except JetExtractionError as exc:
                return str(exc)
            first = jet.diagnostics["first_failing_mode"]
            return (jet.verdict_text(), jet.max_consistent_order,
                    first and first["failure_order"])

        got = outcome()
        monkeypatch.setattr(jets, "_radius_rows", _full_product)
        assert got == outcome()
