"""Directional restriction of series and polydisc convergence certificates.

A series S restricted to a ray t -> t*a gives a one-variable slice
S(a_1 t, ..., a_n t).  For holomorphic-type series the chart direction
(1, b), b in C^(n-1), regroups the coefficients a_I by total degree into
the slice polynomial family

    P_k(b) = sum_{|beta| <= k} a_{(k - |beta|, beta)} b^beta,

which drives the root-test radius estimate along (1, b) and, through
Cauchy estimates on |P_k| over a chart polydisc, an explicit polydisc of
convergence with polyradius (1/(2M), r0/(2M), ..., r0/(2M)).
``chart_map`` alone maps directions v to charts b = v[1:]/v[0].

Each P_k is an order block of the series' graded table.  Slices, chart
polynomials and the certificate's block sums are all evaluated by the
series module's monomial kernel on whole point arrays; no evaluation
here loops over terms or over points, and a family's members share one
kernel call per chunk of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .series import DISC_CHUNK_SAMPLES, FormalSeries, monomials, torus

CHART_EPS = 1e-9   # directions with |v_1| up to this have no chart


class NotHolomorphicTypeError(ValueError):
    """The operation requires a zbar-free series."""


class CertificateError(RuntimeError):
    """Verification of a convergence certificate failed."""


def chart_map(directions) -> Tuple[np.ndarray, np.ndarray]:
    """Chart images b = (v_2/v_1, ..., v_n/v_1) of the rows v of directions.

    Returns the charts of the rows with |v_1| > CHART_EPS, shape
    (rows kept, n - 1), and the boolean mask of those rows.  A zero row
    is not a direction and raises ValueError.
    """
    U = np.atleast_2d(np.asarray(directions, dtype=complex))
    if not U.any(axis=1).all():
        raise ValueError("zero vector has no direction")
    has_chart = np.abs(U[:, 0]) > CHART_EPS
    V = U[has_chart]
    return V[:, 1:] / V[:, :1], has_chart


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


@dataclass(frozen=True, eq=False)
class ChartPoly:
    """Sparse polynomial sum_t coeffs[t] b^exponents[t] in b_1..b_m.

    Both arrays are read-only copies; ``from_dict`` and
    ``chart_poly_family`` give the terms in order of exponent.
    """

    nvars: int
    exponents: np.ndarray     # (T, nvars) int
    coeffs: np.ndarray        # (T,) complex

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        exponents = np.array(self.exponents, dtype=int).reshape(
            len(coeffs), self.nvars)
        for name, a in (("exponents", exponents), ("coeffs", coeffs)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_dict(cls, nvars: int, d: dict) -> "ChartPoly":
        items = sorted((tuple(k), complex(v)) for k, v in d.items() if v != 0)
        return cls(nvars, [beta for beta, _ in items], [c for _, c in items])

    @property
    def degree(self) -> int:
        return int(self.exponents.sum(axis=1).max(initial=0))

    def __call__(self, b):
        """P at chart points b of shape (..., nvars); bare points if nvars == 1."""
        return monomials(_chart_points(b, self.nvars), self.exponents) \
            @ self.coeffs


@dataclass
class SlicePolyFamily:
    """The slice polynomials P_0..P_K of a holomorphic-type series."""

    nvars: int
    polys: List[ChartPoly]

    @property
    def K(self) -> int:
        return len(self.polys) - 1

    def values_at(self, b, members=None) -> np.ndarray:
        """P_k(b) for the k in members (default 0..K), shape (members,) + points.

        One ``monomials`` call per chunk of members (at least one, at most
        series.DISC_CHUNK_SAMPLES points x terms), then each member's own
        columns times its coefficients: the bits of the member's own call.
        """
        b = _chart_points(b, self.nvars)
        polys = self.polys if members is None else [self.polys[k] for k in members]
        ends = np.cumsum([0] + [len(p.coeffs) for p in polys])
        # numpy multiplies one-entry arrays in place without fused
        # multiply-adds, so a lone point keeps its members apart
        size = math.prod(b.shape[:-1])
        cap = DISC_CHUNK_SAMPLES // size if size > 1 else 0
        rows, lo = [], 0
        while lo < len(polys):
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] + cap, "right")) - 1)
            M = monomials(b, np.concatenate([p.exponents for p in polys[lo:hi]]))
            rows += [M[..., s - ends[lo]:e - ends[lo]] @ p.coeffs for p, s, e
                     in zip(polys[lo:hi], ends[lo:hi], ends[lo + 1:hi + 1])]
            lo = hi
        if len(rows) == 1:
            return rows[0][None]
        return np.array(rows, dtype=complex).reshape((len(rows),) + b.shape[:-1])

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
    # S is zbar-free, so the block of order k holds the z^(k-|beta|, beta);
    # within a block the terms go in order of beta
    g = S.graded
    ends = np.searchsorted(g.orders, np.arange(K + 2))
    betas = g.exponents[:ends[-1], 1:S.n]
    perm = np.lexsort((*betas.T[::-1], g.orders[:ends[-1]]))
    betas, coeffs = betas[perm], g.coeffs[perm]
    polys = [ChartPoly(S.n - 1, betas[lo:hi], coeffs[lo:hi])
             for lo, hi in zip(ends[:-1], ends[1:])]
    return SlicePolyFamily(S.n - 1, polys)


@dataclass
class RootTestResult:
    """Root-test radius estimate with the full inspection sequence.

    ``sequence[k-1]`` is (1/k) log |P_k| for k = 1..K (-inf at zeros);
    ``log_rate`` is the window maximum used as the limsup proxy and
    ``radius`` is exp(-log_rate) (inf when the tail vanishes).  For
    values of several points, ``radius`` and ``log_rate`` are arrays
    with one entry per point.
    """

    radius: float
    log_rate: float
    sequence: np.ndarray
    window: int
    K: int


def radius_root_test(values, K: Optional[int] = None,
                     window: Optional[int] = None) -> RootTestResult:
    """Estimate the convergence radius from |P_k(b)|, k = 0..K.

    ``values[k]`` is |P_k(b)| (the k = 0 entry is ignored).  The limsup
    of (1/k) log |P_k| is approximated by its maximum over the last
    ``window`` indices (default K//2); the radius estimate is
    exp(-limsup).  Requires K >= 2*window and window >= 4.

    ``values`` may also be an array (K+1, ...) with one column per point
    b, as ``abs_values_at`` returns it: the test runs along axis 0, and
    ``radius`` and ``log_rate`` are arrays of the trailing shape whose
    entries are, bit for bit, the floats a 1-D call on each column gives.
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
    ks = np.arange(1, K + 1).reshape((K,) + (1,) * (values.ndim - 1))
    with np.errstate(divide="ignore"):
        seq = np.log(values[1:K + 1]) / ks
    tail = seq[K - window:]
    log_rate = np.where(np.isfinite(tail), tail, -np.inf).max(axis=0)
    # math.exp per entry: np.exp may differ from it in the last bit
    radius = np.reshape([math.exp(-r) if r > -math.inf else math.inf
                         for r in log_rate.ravel().tolist()], log_rate.shape)
    if values.ndim == 1:
        return RootTestResult(radius.item(), log_rate.item(), seq, window, K)
    return RootTestResult(radius, log_rate, seq, window, K)


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


def certify_polydisc(S: FormalSeries, r0: float, K: int,
                     sample_count: int = 64, *, margin: float = 0.05,
                     angular_grid: int = 48,
                     seed: int = 42) -> ConvergenceCertificate:
    """Build and verify a polydisc convergence certificate for S.

    M is max(1 + margin, sup |P_k(b)|^(1/k)) with the sup sampled over
    the distinguished boundary |b_i| = 2 r0 (where the maximum principle
    puts it) plus ``sample_count`` random interior points.  The
    certificate is refused unless, on the truncated data, (a) every
    coefficient obeys the Cauchy bound |a_(k-|beta|, beta)| <= M^k
    r0^(-|beta|), with M^k read as max(M^k, sup_k) (the k-th root can
    round M^k an ulp below sup_k), and (b) the order-k coefficient blocks
    sum below k^n 2^(-k) on the open polydisc P^n(0; r').  A block sum
    sum |a_I| |z^I| increases in every |z_j|, so its value at the corner
    |z_j| = r'_j, one evaluation, is its supremum there: (b) holds when
    that value is at most k^n 2^(-k).  ``seed`` draws the interior sup
    samples.  K must be at least 1: with no order checked there is no
    certificate.
    """
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    if K < 1:
        raise ValueError(f"K must be at least 1, not {K}")
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

    # with one chart variable the (count, 1) samples are bare points
    sup = family.abs_values_at(samples).reshape(K + 1, -1).max(axis=1)
    M = max([1.0 + margin] + [vmax ** (1.0 / k) for k, vmax
                              in enumerate(sup.tolist()) if k and vmax > 0])
    r_prime = (1.0 / (2.0 * M),) + (r0 / (2.0 * M),) * (n - 1)

    # S is zbar-free, so a term's order is |I| and its chart degree |I| - I_1
    g = S.graded
    ks = np.arange(1, K + 1)
    in_range = (g.orders >= 1) & (g.orders <= K)

    # (a) Cauchy bounds on every stored coefficient
    beta_orders = g.orders - g.exponents[:, 0]
    bounds = (np.maximum(M ** g.orders, sup[np.minimum(g.orders, K)])
              * float(r0) ** (-beta_orders))
    violated = np.flatnonzero(in_range & (np.abs(g.coeffs) > bounds))
    if violated.size:
        t = violated[0]
        raise CertificateError(
            f"Cauchy bound violated at z^{g.keys[t][0]}: "
            f"|{abs(g.coeffs[t]):.6g}| > M^{g.orders[t]} r0^-{beta_orders[t]}"
            f" = {bounds[t]:.6g}; increase K or the boundary sampling")

    # (b) order-block tail bounds at the corner of the polydisc
    weights = np.abs(g.coeffs[in_range]) * monomials(
        np.array(r_prime), g.exponents[in_range, :n])
    totals = weights @ (g.orders[in_range, None] == ks)    # (K,)
    block_bounds = ks ** n * 2.0 ** (-ks)
    max_ratio = float((totals / block_bounds).max())
    refused = np.flatnonzero(totals > block_bounds)
    if refused.size:
        j = refused[0]
        raise CertificateError(
            f"order-{j + 1} block sum {totals[j]:.6g} > k^n 2^-k = "
            f"{block_bounds[j]:.6g} at the corner |z| = r'; "
            "certificate refused")

    diagnostics = {"boundary_samples": len(samples),
                   "max_block_ratio": max_ratio, "seed": seed}
    return ConvergenceCertificate(M=M, r0=r0, r_prime=r_prime, K_used=K,
                                  margin=margin, diagnostics=diagnostics)
