import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import forelli_lab
from forelli_lab import DimensionMismatchError, FormalSeries, SeriesFormatError
from forelli_lab.series import torus, torus_modes

from conftest import random_series


def z(k, n=2, N=8):
    return FormalSeries.variable(k, n, N)


def zbar(k, n=2, N=8):
    return FormalSeries.conj_variable(k, n, N)


class TestConstruction:
    def test_canonical_drops_zeros(self):
        S = FormalSeries(2, 4, {((1, 0), (0, 0)): 0.0, ((0, 1), (0, 0)): 2.0})
        assert len(S) == 1

    def test_rejects_overflow_order(self):
        with pytest.raises(ValueError, match="exceeds max_order"):
            FormalSeries(2, 2, {((2, 1), (0, 0)): 1.0})

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            FormalSeries(2, 4, {((-1, 0), (0, 0)): 1.0})

    def test_equality_is_structural(self):
        a = z(1) + z(2)
        b = z(2) + z(1)
        assert a == b
        assert a != a.truncate(1) or a.max_order == 1

    def test_immutable(self):
        S = z(1)
        with pytest.raises(AttributeError):
            S.n = 3


class TestAdd:
    def test_additive_inverse(self):
        assert (z(1) + (-z(1))).is_zero()

    def test_mixed_terms_kept(self):
        S = FormalSeries(2, 8, {((1, 0), (0, 1)): 1.0})  # z1 zbar2
        T = S + z(1)
        assert len(T) == 2
        assert T.coefficient((1, 0), (0, 1)) == 1.0
        assert T.coefficient((1, 0)) == 1.0

    def test_zero_identity(self):
        S = random_series(np.random.default_rng(0), 2, 8)
        assert S + FormalSeries.zero(2, 8) == S

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            z(1, n=2) + z(1, n=3, N=8)


class TestMul:
    def test_z_zbar(self):
        P = z(1) * zbar(1)
        assert P.coefficient((1, 0), (1, 0)) == 1.0
        assert len(P) == 1

    def test_difference_of_squares(self):
        one = FormalSeries.constant(1.0, 2, 8)
        P = (one + z(1)) * (one - z(1))
        assert P == one - z(1) * z(1)

    def test_truncation_drops_high_degree(self):
        a = FormalSeries.monomial((2, 0), (0, 0), 1.0, 2)
        b = FormalSeries.monomial((0, 1), (0, 0), 1.0, 2)
        assert (a * b).is_zero()

    def test_scalar(self):
        assert (2 * z(1)).coefficient((1, 0)) == 2.0


class TestTruncate:
    def test_example(self):
        S = FormalSeries(2, 8, {((0, 0), (0, 0)): 1.0, ((1, 0), (0, 0)): 1.0,
                                ((1, 0), (0, 1)): 1.0})
        T = S.truncate(1)
        assert T.max_order == 1
        assert len(T) == 2

    def test_order_zero(self):
        S = FormalSeries(2, 8, {((0, 0), (0, 0)): 7.0, ((1, 0), (0, 0)): 1.0})
        assert S.truncate(0) == FormalSeries.constant(7.0, 2, 0)

    def test_idempotent(self, rng):
        S = random_series(rng, 2, 8)
        assert S.truncate(3).truncate(3) == S.truncate(3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            z(1).truncate(9)


class TestEulerOperators:
    def test_e_kills_constants(self):
        assert FormalSeries.constant(3.0, 2, 4).euler_e().is_zero()

    def test_e_homogeneous(self):
        S = FormalSeries.monomial((2, 0), (0, 0), 1.0, 4)
        assert S.euler_e() == 2 * S

    def test_e_mixed_degree(self):
        # z1 z2 zbar1 has |I| = 2
        S = FormalSeries.monomial((1, 1), (1, 0), 1.0, 4)
        assert S.euler_e() == 2 * S

    def test_ebar_kills_holomorphic(self):
        S = FormalSeries.monomial((3, 0), (0, 0), 1.0, 4)
        assert S.euler_ebar().is_zero()

    def test_ebar_single_conjugate(self):
        S = FormalSeries.monomial((1, 0), (0, 1), 1.0, 4)
        assert S.euler_ebar() == S

    def test_ebar_degree_three(self):
        S = FormalSeries.monomial((0, 0), (2, 1), 1.0, 4)
        assert S.euler_ebar() == 3 * S

    def test_grading_on_monomials(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            N = 8
            total = int(rng.integers(0, N + 1))
            cut = int(rng.integers(0, total + 1))
            I = tuple(int(a) for a in rng.multinomial(total - cut,
                                                      np.ones(n) / n))
            J = tuple(int(b) for b in rng.multinomial(cut, np.ones(n) / n))
            S = FormalSeries.monomial(I, J, 1.7 - 0.3j, N)
            assert S.euler_e() == sum(I) * S
            assert S.euler_ebar() == sum(J) * S

    def test_truncation_commutes(self, rng):
        for _ in range(20):
            S = random_series(rng, 2, 8)
            for m in (0, 3, 6):
                assert S.euler_ebar().truncate(m) == S.truncate(m).euler_ebar()
                assert S.euler_e().truncate(m) == S.truncate(m).euler_e()


class TestHolomorphicType:
    def test_positive(self):
        S = FormalSeries(2, 8, {((0, 0), (0, 0)): 1.0, ((1, 0), (0, 0)): 1.0,
                                ((0, 3), (0, 0)): 5.0})
        v = S.is_holomorphic_type()
        assert v and v.witness is None

    def test_negative_with_witness(self):
        S = z(1) + FormalSeries.monomial((1, 0), (0, 1), 1.0, 8)
        v = S.is_holomorphic_type()
        assert not v
        assert v.witness[0] == (1, 0) and v.witness[1] == (0, 1)

    def test_kernel_identity(self, rng):
        # Ebar S = 0 iff S is of holomorphic type, exactly
        for _ in range(200):
            holo = bool(rng.integers(0, 2))
            S = random_series(rng, int(rng.integers(1, 4)), 8,
                              holomorphic=holo)
            assert S.euler_ebar().is_zero() == bool(S.is_holomorphic_type())

    def test_sampling_consistency(self, rng):
        for _ in range(20):
            S = random_series(rng, 2, 6)
            E = S.euler_ebar()
            pts = (rng.standard_normal(100) + 1j * rng.standard_normal(100),
                   rng.standard_normal(100) + 1j * rng.standard_normal(100))
            sampled = np.abs(E.evaluate(pts)).max()
            if E.is_zero():
                assert sampled == 0.0
            else:
                assert sampled > 0.0


class TestEvaluate:
    def test_modulus_squared(self):
        S = z(1) * zbar(1)
        assert S.evaluate((2j, 0)) == pytest.approx(4.0)

    def test_affine(self):
        S = FormalSeries.constant(1.0, 2, 8) + z(2)
        assert S.evaluate((0, 3)) == pytest.approx(4.0)

    def test_hand_value(self):
        # z1^2 zbar2 at (1+i, 2) -> (1+i)^2 * 2 = 4i
        S = FormalSeries.monomial((2, 0), (0, 1), 1.0, 8)
        assert S.evaluate((1 + 1j, 2)) == pytest.approx(4j)

    def test_vectorized_matches_scalar(self, rng):
        S = random_series(rng, 2, 6)
        zs = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        batch = S.evaluate((zs[:, 0], zs[:, 1]))
        for i in range(10):
            assert batch[i] == pytest.approx(S.evaluate(tuple(zs[i])))


class TestRingLaws:
    # exactly-representable integer coefficients make these exact in floats
    def test_laws(self, rng):
        for _ in range(15):
            A = random_series(rng, 2, 6, num_terms=6, integer=True)
            B = random_series(rng, 2, 6, num_terms=6, integer=True)
            C = random_series(rng, 2, 6, num_terms=6, integer=True)
            assert A + B == B + A
            assert (A + B) + C == A + (B + C)
            assert A * B == B * A
            assert (A * B) * C == A * (B * C)
            assert A * (B + C) == A * B + A * C


class TestTextFormat:
    def test_round_trip(self, rng):
        for _ in range(10):
            S = random_series(rng, int(rng.integers(1, 4)), 8)
            assert FormalSeries.from_text(S.to_text()) == S

    def test_comments_and_header(self):
        text = "# a comment\nn=2 N=3\n1 0 | 0 1 | 0.5 -1.25\n"
        S = FormalSeries.from_text(text)
        assert S.coefficient((1, 0), (0, 1)) == 0.5 - 1.25j

    def test_missing_header(self):
        with pytest.raises(SeriesFormatError):
            FormalSeries.from_text("1 0 | 0 1 | 1 0\n")

    def test_malformed_term(self):
        with pytest.raises(SeriesFormatError, match="line 2"):
            FormalSeries.from_text("n=2 N=3\n1 0 | nope\n")

    def test_file_round_trip(self, tmp_path, rng):
        S = random_series(rng, 2, 8)
        path = tmp_path / "series.txt"
        S.save(path)
        assert FormalSeries.load(path) == S


def same_bits(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64))


class TestTorus:
    """``torus`` reproduces the samplers it replaced, bit for bit."""

    RADII = (0.9, 0.35, 1.7)

    @pytest.mark.parametrize("n,grid", [(1, 64), (2, 64), (3, 32), (3, 64)])
    def test_jets_meshgrid_phases(self, n, grid):
        theta = 2.0 * np.pi * np.arange(grid) / grid
        phases = [np.exp(1j * g)
                  for g in np.meshgrid(*([theta] * n), indexing="ij")]
        radii = self.RADII[:n]
        for unit, scaled, ph, r in zip(torus((1.0,) * n, grid),
                                       torus(radii, grid), phases, radii):
            assert same_bits(unit, ph)
            assert same_bits(r * unit, r * ph)
            assert same_bits(scaled, r * ph)
            assert unit.flags.c_contiguous and unit.shape == (grid,) * n

    @pytest.mark.parametrize("count", [8, 64, 256])
    @pytest.mark.parametrize("rho", [1.0, 0.3, 0.93])
    def test_pencil_circle(self, rho, count):
        # the disc residual's 64 samples and find_subpencil's 8 phases
        (circle,) = torus((rho,), count)
        assert same_bits(circle, rho * np.exp(2j * np.pi * np.arange(count)
                                              / count))

    @pytest.mark.parametrize("count", [48, 100, 256, 3200])
    def test_theta_circle(self, count):
        # the Siciak-ball circle and the disc candidates' boundary
        theta = 2.0 * np.pi * np.arange(count) / count
        assert same_bits(torus((0.7,), count)[0], 0.7 * np.exp(1j * theta))

    @pytest.mark.parametrize("n,grid", [(1, 64), (2, 64), (3, 64), (2, 256)])
    def test_psh_torus_points(self, n, grid):
        z = np.array([0.1 - 0.2j, -0.3j, 0.25])[:n]
        r = np.array(self.RADII[:n])
        theta = 2.0 * np.pi * np.arange(grid) / grid
        grids = np.meshgrid(*([theta] * n), indexing="ij")
        want = np.stack([z[k] + r[k] * np.exp(1j * grids[k])
                         for k in range(n)], axis=-1)
        got = np.stack([z[k] + c for k, c in enumerate(torus(r, grid))],
                       axis=-1)
        assert same_bits(got, want)

    @pytest.mark.parametrize("nv", [1, 2, 3])
    def test_certificate_boundary(self, nv):
        r0, grid = 0.3, 48
        angles = 2.0 * np.pi * np.arange(grid) / grid
        want = 2.0 * r0 * np.exp(
            1j * np.array(list(itertools.product(angles, repeat=nv))))
        got = np.stack(torus((2.0 * r0,) * nv, grid), axis=-1).reshape(-1, nv)
        assert same_bits(got, want)

    def test_no_radii_is_no_component(self):
        assert torus((), 48) == ()


class TestTorusModes:
    @pytest.mark.parametrize("n,grid", [(1, 16), (2, 16), (3, 8)])
    def test_recovers_trigonometric_coefficients(self, rng, n, grid):
        modes = [tuple(int(m) for m in rng.integers(-3, 4, n))
                 for _ in range(6)] + [(-1,) * n, (0,) * n]
        coeffs = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(
            len(modes))
        comps = torus((1.0,) * n, grid)
        vals = sum(c * np.prod([z ** m for z, m in zip(comps, mu)], axis=0)
                   for c, mu in zip(coeffs, modes))
        got = torus_modes(vals, n)
        want = np.zeros((grid,) * n, dtype=complex)
        for c, mu in zip(coeffs, modes):
            want[tuple(m % grid for m in mu)] += c
        assert np.abs(got - want).max() <= 1e-14

    def test_leading_axes_are_separate_tori(self, rng):
        vals = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
        got = torus_modes(vals, 1)
        assert same_bits(got, np.fft.fft(vals, axis=-1) / 64)
        for row, v in zip(got, vals):
            assert same_bits(row, torus_modes(v, 1))


def test_only_series_calls_fft():
    """Every FFT of samples goes through ``series.torus_modes``."""
    offenders = []
    for path in sorted(Path(forelli_lab.__file__).parent.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            if isinstance(node, ast.Attribute):
                names.append(node.attr)
            if any("fft" in name.split(".") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
