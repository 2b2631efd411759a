"""Directional restriction of series and polydisc convergence certificates.

A series S restricted to a ray t -> t*a gives a one-variable slice
S(a_1 t, ..., a_n t).  For holomorphic-type series the chart direction
(1, b), b in C^(n-1), regroups the coefficients a_I by total degree into
the slice polynomial family

    P_k(b) = sum_{|beta| <= k} a_{(k - |beta|, beta)} b^beta,

which drives the root-test radius estimate along (1, b) and, through
Cauchy estimates on |P_k| over a chart polydisc, an explicit polydisc of
convergence with polyradius (1/(2M), r0/(2M), ..., r0/(2M)).

Slices, chart polynomials and the certificate's block sums are all
evaluated by the series module's monomial kernel on whole point arrays,
reading the series' graded term view; no evaluation here loops over
terms or over points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .series import FormalSeries, monomials, torus

CHART_EPS = 1e-9   # directions with |v_1| below this have no chart


class NotHolomorphicTypeError(ValueError):
    """The operation requires a zbar-free series."""


class CertificateError(RuntimeError):
    """Verification of a convergence certificate failed."""


@dataclass(frozen=True)
class Direction:
    """A unit vector on S^(2n-1) with its chart image b = (v_2/v_1, ...)."""

    unit: Tuple[complex, ...]

    @classmethod
    def from_vector(cls, v) -> "Direction":
        v = np.asarray(v, dtype=complex)
        nrm = float(np.linalg.norm(v))
        if nrm == 0:
            raise ValueError("zero vector has no direction")
        return cls(tuple(v / nrm))

    @property
    def n(self) -> int:
        return len(self.unit)

    @property
    def chart(self) -> Optional[Tuple[complex, ...]]:
        v1 = self.unit[0]
        if abs(v1) <= CHART_EPS:
            return None
        return tuple(vk / v1 for vk in self.unit[1:])


@dataclass
class SliceSeries:
    """Coefficients c[p, q] of t^p tbar^q for a slice S(a t)."""

    max_order: int
    coeffs: np.ndarray        # (N+1, N+1) complex, c[p, q] = 0 for p+q > N

    def coefficient(self, p: int, q: int) -> complex:
        return complex(self.coeffs[p, q])

    def t_coefficients(self) -> np.ndarray:
        """The pure t^p coefficients c[p, 0] (all of them for holo type)."""
        return self.coeffs[:, 0].copy()

    def is_t_only(self, tol: float = 0.0) -> bool:
        off = self.coeffs[:, 1:]
        return bool(np.all(np.abs(off) <= tol))


def slice_series(S: FormalSeries, a) -> SliceSeries:
    """Restrict S to the ray t -> t*a:  c[p,q] = sum_{|I|=p,|J|=q} C a^I abar^J."""
    a = np.asarray(a, dtype=complex)
    if len(a) != S.n:
        raise ValueError(f"ray point has {len(a)} components, expected {S.n}")
    N = S.max_order
    g = S.graded
    terms = g.coeffs * monomials(np.concatenate([a, np.conj(a)]), g.exponents)
    coeffs = np.zeros((N + 1, N + 1), dtype=complex)
    np.add.at(coeffs, (g.exponents[:, :S.n].sum(axis=1),
                       g.exponents[:, S.n:].sum(axis=1)), terms)
    return SliceSeries(N, coeffs)


def _chart_points(b, nvars: int) -> np.ndarray:
    """b as points (..., nvars); with one chart variable each entry is a point."""
    b = np.asarray(b, dtype=complex)
    b = b[..., None] if nvars == 1 else b
    if b.shape[-1:] != (nvars,):
        raise ValueError(f"points must have last axis {nvars}, got {b.shape}")
    return b


@dataclass(frozen=True)
class ChartPoly:
    """Sparse polynomial in the chart variables b_1..b_m."""

    nvars: int
    coeffs: tuple     # ((beta, coefficient), ...) sorted by exponent

    @classmethod
    def from_dict(cls, nvars: int, d: dict) -> "ChartPoly":
        items = tuple(sorted(((tuple(k), complex(v)) for k, v in d.items()
                              if v != 0)))
        return cls(nvars, items)

    @property
    def degree(self) -> int:
        return max((sum(beta) for beta, _ in self.coeffs), default=0)

    @cached_property
    def _table(self):
        exponents = np.array([beta for beta, _ in self.coeffs], dtype=int)
        values = np.array([c for _, c in self.coeffs], dtype=complex)
        return exponents.reshape(len(self.coeffs), self.nvars), values

    def __call__(self, b):
        """P at chart points b of shape (..., nvars); bare points if nvars == 1."""
        exponents, values = self._table
        return monomials(_chart_points(b, self.nvars), exponents) @ values


@dataclass
class SlicePolyFamily:
    """The slice polynomials P_0..P_K of a holomorphic-type series."""

    nvars: int
    polys: List[ChartPoly]

    @property
    def K(self) -> int:
        return len(self.polys) - 1

    def values_at(self, b) -> np.ndarray:
        return np.array([p(b) for p in self.polys], dtype=complex)

    def abs_values_at(self, b) -> np.ndarray:
        return np.abs(self.values_at(b))


def chart_poly_family(S: FormalSeries, K: int) -> SlicePolyFamily:
    """Regroup a holomorphic-type S into P_k(b), k = 0..K.

    The coefficient of b^beta in P_k is the series coefficient of
    z^(k-|beta|, beta); evaluating P_k at b gives the t^k coefficient of
    the slice along (1, b).
    """
    verdict = S.is_holomorphic_type()
    if not verdict:
        raise NotHolomorphicTypeError(
            f"series has a zbar term, witness {verdict.witness!r}")
    if not 0 <= K <= S.max_order:
        raise ValueError(f"K={K} outside [0, {S.max_order}]")
    # S is zbar-free, so the block of order k holds the z^(k-|beta|, beta)
    g = S.graded
    ends = np.searchsorted(g.orders, np.arange(K + 2))
    polys = [ChartPoly.from_dict(S.n - 1, dict(zip(
        map(tuple, g.exponents[lo:hi, 1:S.n].tolist()),
        g.coeffs[lo:hi].tolist()))) for lo, hi in zip(ends[:-1], ends[1:])]
    for k, p in enumerate(polys):
        assert p.degree <= k
    return SlicePolyFamily(S.n - 1, polys)


@dataclass
class RootTestResult:
    """Root-test radius estimate with the full inspection sequence.

    ``sequence[k-1]`` is (1/k) log |P_k| for k = 1..K (-inf at zeros);
    ``log_rate`` is the window maximum used as the limsup proxy and
    ``radius`` is exp(-log_rate) (inf when the tail vanishes).
    """

    radius: float
    log_rate: float
    sequence: np.ndarray
    window: int
    K: int


def radius_root_test(values: Sequence[float], K: Optional[int] = None,
                     window: Optional[int] = None) -> RootTestResult:
    """Estimate the convergence radius from |P_k(b)|, k = 0..K.

    ``values[k]`` is |P_k(b)| (the k = 0 entry is ignored).  The limsup
    of (1/k) log |P_k| is approximated by its maximum over the last
    ``window`` indices (default K//2); the radius estimate is
    exp(-limsup).  Requires K >= 2*window and window >= 4.
    """
    values = np.asarray(values, dtype=float)
    if K is None:
        K = len(values) - 1
    if window is None:
        window = K // 2
    if window < 4:
        raise ValueError("window must be >= 4")
    if K < 2 * window:
        raise ValueError(f"K={K} too small for window {window} (need K >= 2*window)")
    if len(values) < K + 1:
        raise ValueError(f"need K+1 = {K + 1} values, got {len(values)}")
    ks = np.arange(1, K + 1)
    with np.errstate(divide="ignore"):
        seq = np.log(values[1:K + 1]) / ks
    tail = seq[K - window:]
    finite = tail[np.isfinite(tail)]
    if finite.size == 0:
        return RootTestResult(math.inf, -math.inf, seq, window, K)
    log_rate = float(finite.max())
    return RootTestResult(float(math.exp(-log_rate)), log_rate, seq, window, K)


@dataclass(frozen=True)
class Polydisc:
    """P^n(z; r) = {w : |w_i - z_i| < r_i}."""

    center: Tuple[complex, ...]
    polyradius: Tuple[float, ...]

    def __post_init__(self):
        if len(self.center) != len(self.polyradius):
            raise ValueError("center and polyradius dimensions differ")
        if any(r <= 0 for r in self.polyradius):
            raise ValueError("all polyradius entries must be positive")

    @property
    def n(self) -> int:
        return len(self.center)

    def contains(self, w) -> bool:
        w = np.asarray(w, dtype=complex)
        return bool(np.all(np.abs(w - np.asarray(self.center))
                           < np.asarray(self.polyradius)))

    def scaled(self, factor: float) -> "Polydisc":
        return Polydisc(self.center,
                        tuple(factor * r for r in self.polyradius))


@dataclass
class ConvergenceCertificate:
    """Witness (M, r0, r') for convergence on the polydisc P^n(0; r').

    ``r_prime`` is computed exactly as (1/(2M), r0/(2M), ..., r0/(2M)).
    ``margin`` inflates the sampled sup so finite sampling cannot
    silently understate M.
    """

    M: float
    r0: float
    r_prime: Tuple[float, ...]
    K_used: int
    margin: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def polydisc(self) -> Polydisc:
        return Polydisc((0j,) * len(self.r_prime), self.r_prime)


def certify_polydisc(S: FormalSeries, r0: float, K: int,
                     sample_count: int = 64, *, margin: float = 0.05,
                     angular_grid: int = 48, check_points: int = 20,
                     seed: int = 42) -> ConvergenceCertificate:
    """Build and verify a polydisc convergence certificate for S.

    M is max(1 + margin, sup |P_k(b)|^(1/k)) with the sup sampled over
    the distinguished boundary |b_i| = 2 r0 (where the maximum principle
    puts it) plus ``sample_count`` random interior points.  The
    certificate is refused unless, on the truncated data, (a) every
    coefficient obeys the Cauchy bound |a_(k-|beta|, beta)| <= M^k
    r0^(-|beta|), and (b) at ``check_points`` random points of
    P^n(0; r') the order-k coefficient blocks sum below k^n 2^(-k).
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    family = chart_poly_family(S, K)       # validates holomorphic type
    n = S.n
    nv = family.nvars
    rng = np.random.default_rng(seed)

    # one row per grid node; with nv = 0 the grid is one empty point
    boundary = np.array(torus((2.0 * r0,) * nv, angular_grid),
                        dtype=complex).reshape(nv, angular_grid ** nv).T
    radii = 2.0 * r0 * np.sqrt(rng.random((sample_count, nv)))
    phases = np.exp(2j * np.pi * rng.random((sample_count, nv)))
    samples = np.concatenate([boundary, radii * phases])     # (count, nv)

    M = 1.0 + margin
    for k, pk in enumerate(family.polys[1:], start=1):
        # with one chart variable the (count, 1) samples are bare points
        vmax = float(np.abs(pk(samples)).max())
        if vmax > 0:
            M = max(M, vmax ** (1.0 / k))
    r_prime = (1.0 / (2.0 * M),) + (r0 / (2.0 * M),) * (n - 1)

    # S is zbar-free, so a term's order is |I| and its chart degree |I| - I_1
    g = S.graded
    ks = np.arange(1, K + 1)
    in_range = (g.orders >= 1) & (g.orders <= K)

    # (a) Cauchy bounds on every stored coefficient
    beta_orders = g.orders - g.exponents[:, 0]
    bounds = M ** g.orders * float(r0) ** (-beta_orders)
    violated = np.flatnonzero(in_range & (np.abs(g.coeffs) > bounds))
    if violated.size:
        t = violated[0]
        raise CertificateError(
            f"Cauchy bound violated at z^{g.keys[t][0]}: "
            f"|{abs(g.coeffs[t]):.6g}| > M^{g.orders[t]} r0^-{beta_orders[t]}"
            f" = {bounds[t]:.6g}; increase K or the boundary sampling")

    # (b) order-block tail bounds at random points of the open polydisc
    u = rng.random((check_points, 2, n))
    pts = np.array(r_prime) * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
    weights = np.abs(g.coeffs[in_range]) * monomials(
        np.abs(pts), g.exponents[in_range, :n])
    totals = weights @ (g.orders[in_range, None] == ks)    # (points, K)
    block_bounds = ks ** n * 2.0 ** (-ks)
    max_ratio = float((totals / block_bounds).max(initial=0.0))
    refused = np.argwhere(totals >= block_bounds)       # points, then orders
    if refused.size:
        p, j = refused[0]
        raise CertificateError(
            f"order-{j + 1} block sum {totals[p, j]:.6g} >= k^n 2^-k = "
            f"{block_bounds[j]:.6g} at z={pts[p]}; certificate refused")

    diagnostics = {"boundary_samples": len(samples),
                   "check_points": check_points,
                   "max_block_ratio": max_ratio, "seed": seed}
    return ConvergenceCertificate(M=M, r0=r0, r_prime=r_prime, K_used=K,
                                  margin=margin, diagnostics=diagnostics)
