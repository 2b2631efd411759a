"""Logarithmic capacity estimators.

One complex variable: discrete logarithmic energy, greedy Leja point
selection, and the transfinite-diameter estimate

    delta_m = (prod_{i<j} |p_i - p_j|)^(2 / (m (m-1)))

whose known O(log m / m) finite-m bias is removed by extrapolating the
pair (delta_{m/2}, delta_m) in the model log delta_m = log c + g log(m)/m.

Several variables: one-sided (lower) bounds on the extremal growth
function V_E by trial polynomials, the growth-defect capacity estimate
c = exp(-gamma) from probe shells, and the chart inscribed-ball
positivity check used to certify that a direction set is normal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .pencil import _realify
from .slices import CHART_EPS


class ChartUndecidableError(RuntimeError):
    """All directions fell in the excluded chart locus v_1 = 0."""


@dataclass
class CompactSet1D:
    """A compact planar set with a deterministic candidate-point sampler."""

    kind: str                  # disc | segment | finite | cloud
    params: tuple

    @classmethod
    def disc(cls, center: complex, radius: float) -> "CompactSet1D":
        if radius <= 0:
            raise ValueError("disc radius must be positive")
        return cls("disc", (complex(center), float(radius)))

    @classmethod
    def segment(cls, a: complex, b: complex) -> "CompactSet1D":
        if a == b:
            raise ValueError("segment endpoints must differ")
        return cls("segment", (complex(a), complex(b)))

    @classmethod
    def finite_points(cls, points) -> "CompactSet1D":
        pts = tuple(complex(p) for p in points)
        if not pts:
            raise ValueError("empty point set")
        return cls("finite", (pts,))

    @classmethod
    def sample_cloud(cls, points) -> "CompactSet1D":
        pts = tuple(complex(p) for p in points)
        if not pts:
            raise ValueError("empty sample cloud")
        return cls("cloud", (pts,))

    def closed_form(self) -> Optional[float]:
        """Reference capacity where one is classical (tests only)."""
        if self.kind == "disc":
            return self.params[1]
        if self.kind == "segment":
            return abs(self.params[1] - self.params[0]) / 4.0
        if self.kind == "finite":
            return 0.0
        return None

    def candidates(self, count: int) -> np.ndarray:
        """Deterministic candidate points covering the set."""
        if self.kind == "segment":
            a, b = self.params
            t = np.linspace(0.0, 1.0, count)
            return a + (b - a) * t
        if self.kind == "disc":
            center, radius = self.params
            nb = count // 2
            theta = 2.0 * np.pi * np.arange(nb) / nb
            boundary = center + radius * np.exp(1j * theta)
            # sunflower spiral fills the interior without randomness
            ni = count - nb
            idx = np.arange(1, ni + 1)
            rr = radius * np.sqrt(idx / (ni + 1.0))
            golden = np.pi * (3.0 - math.sqrt(5.0))
            interior = center + rr * np.exp(1j * golden * idx)
            return np.concatenate([boundary, interior])
        pts = np.array(self.params[0], dtype=complex)
        return pts


def energy(points, weights) -> float:
    """Discrete logarithmic energy sum_{i != j} w_i w_j log|p_i - p_j|.

    Weights must form a probability vector.  Coincident points at
    distinct indices give -inf.
    """
    points = np.asarray(points, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if points.shape != weights.shape or points.ndim != 1:
        raise ValueError("points and weights must be 1-d and equal length")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    D = np.abs(points[:, None] - points[None, :])
    off = ~np.eye(len(points), dtype=bool)
    ww = weights[:, None] * weights[None, :]
    relevant = off & (ww > 0)
    if np.any(D[relevant] == 0):
        return -math.inf
    with np.errstate(divide="ignore"):
        logs = np.where(relevant, np.log(np.where(D > 0, D, 1.0)), 0.0)
    return float(np.sum(ww * logs * off))


def leja_points(E: CompactSet1D, m: int, *, candidate_factor: int = 50
                ) -> np.ndarray:
    """Greedy sequence maximizing the product of distances to chosen points.

    Deterministic: candidates come from the set's sampler, the start
    point maximizes |.| (ties broken lexicographically), and each step
    takes the argmax of the running distance product.  A degenerate set
    (single candidate) yields a repeated point with a warning.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    cands = E.candidates(max(candidate_factor * m, 2 * m))
    order = np.lexsort((cands.imag, cands.real))
    cands = cands[order]
    if np.unique(cands).size == 1:
        warnings.warn("degenerate set: single distinct point, capacity 0")
        return np.full(m, cands[0])
    start = int(np.argmax(np.abs(cands)))
    pts = [cands[start]]
    logprod = np.log(np.abs(cands - pts[0]) + 1e-300)
    for _ in range(1, m):
        nxt = int(np.argmax(logprod))
        pts.append(cands[nxt])
        logprod = logprod + np.log(np.abs(cands - pts[-1]) + 1e-300)
    return np.array(pts)


@dataclass
class CapacityEstimate:
    """A nonnegative capacity value with method metadata."""

    value: float
    method: str                # TransfiniteDiameter | EnergyLowerBound |
    points_used: int           # ClosedForm | SiciakExtremal
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("capacity must be nonnegative")


def _pairwise_delta(points: np.ndarray) -> float:
    m = len(points)
    if m < 2:
        return 0.0
    iu = np.triu_indices(m, 1)
    D = np.abs(points[:, None] - points[None, :])[iu]
    if np.any(D == 0):
        return 0.0
    return float(np.exp(2.0 * np.sum(np.log(D)) / (m * (m - 1))))


def cap1d_transfinite(E: CompactSet1D, m: int) -> CapacityEstimate:
    """Transfinite-diameter capacity estimate on Leja points.

    Computes delta_m and delta_{m//2} on prefixes of one Leja sequence
    and removes the leading log(m)/m bias by extrapolation; the raw
    deltas stay in the diagnostics.  Finite point sets with fewer than m
    points have capacity exactly 0.
    """
    if m < 8:
        raise ValueError("m must be >= 8")
    closed = E.closed_form()
    if E.kind == "finite" and m > len(E.params[0]):
        return CapacityEstimate(0.0, "TransfiniteDiameter", m,
                                {"reason": "m exceeds cardinality",
                                 "closed_form": closed})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pts = leja_points(E, m)
    delta_full = _pairwise_delta(pts)
    half = m // 2
    delta_half = _pairwise_delta(pts[:half])
    value = delta_full
    gamma = 0.0
    if delta_full > 0 and delta_half > 0 and m >= 16:
        L_full = math.log(m) / m
        L_half = math.log(half) / half
        gamma = (math.log(delta_full) - math.log(delta_half)) / (L_full - L_half)
        gamma = min(max(gamma, 0.0), 3.0)
        value = math.exp(math.log(delta_full) - gamma * L_full)
    return CapacityEstimate(value, "TransfiniteDiameter", m,
                            {"delta_raw": delta_full,
                             "delta_half": delta_half,
                             "bias_exponent": gamma,
                             "closed_form": closed})


# -- several variables: extremal-function machinery ---------------------------


def siciak_lower_bound(E_samples, z, degree: int, trials: int = 200, *,
                       seed: int = 42) -> float:
    """Lower bound for the extremal growth function V_E(z).

    Maximizes (1/d)(log|p(z)| - log sup_E |p|) over trial polynomials:
    powers of random affine-linear forms plus the distinguished family
    <conj(z)/|z|, w>^d.  The sup over E is taken on the given sample, so
    bounds are honest up to the sample's coverage of E.
    """
    E = np.atleast_2d(np.asarray(E_samples, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    nv = E.shape[1]
    if z.shape[0] != nv:
        raise ValueError("z and E live in different dimensions")
    rng = np.random.default_rng(seed)
    d = int(degree)
    if d < 1:
        raise ValueError("degree must be >= 1")

    best = -math.inf
    nz = float(np.linalg.norm(z))
    # trial family 1: d-th powers of affine-linear forms; for p = lin^d the
    # normalization (1/d)(log|p| - log sup|p|) collapses to the linear ratio
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
    # trial family 2: random-coefficient polynomials of degree <= d
    # (univariate) or products of d random linear forms (several variables)
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


def cap_siciak(E_samples, degree: int = 32, trials: int = 200,
               probe_radii: Sequence[float] = (10.0, 30.0, 100.0), *,
               directions: int = 8, seed: int = 42,
               closed_form: Optional[float] = None) -> CapacityEstimate:
    """Capacity exp(-gamma) from the growth defect of V_E lower bounds.

    gamma is estimated as the max over probe shells ||z|| = R and sampled
    directions of (V_lb(z) - log ||z||).  Estimates are one-sided in the
    V_E sense; downstream uses only need positivity.
    """
    probe_radii = tuple(float(r) for r in probe_radii)
    if not probe_radii or max(probe_radii) < 10.0:
        raise ValueError("largest probe radius must be >= 10")
    if list(probe_radii) != sorted(probe_radii):
        raise ValueError("probe radii must be increasing")
    E = np.atleast_2d(np.asarray(E_samples, dtype=complex))
    nv = E.shape[1]
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((directions, nv)) + 1j * rng.standard_normal(
        (directions, nv))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    gamma = -math.inf
    for R in probe_radii:
        for w in dirs:
            z = R * w
            vlb = siciak_lower_bound(E, z, degree, trials, seed=seed)
            gamma = max(gamma, vlb - math.log(R))
    value = math.exp(-gamma) if np.isfinite(gamma) else 0.0
    return CapacityEstimate(value, "SiciakExtremal", E.shape[0],
                            {"gamma": gamma, "degree": degree,
                             "trials": trials, "probe_radii": probe_radii,
                             "closed_form": closed_form})


# -- normality of a direction set ---------------------------------------------


@dataclass
class NormalityCheck:
    is_normal_sufficient: bool
    center: Optional[Tuple[complex, ...]]
    radius: float
    resolution: float
    dropped: int
    diagnostics: dict = field(default_factory=dict)


def chart_points(directions) -> Tuple[np.ndarray, int]:
    """Map unit vectors to chart points (v_2/v_1, ...), dropping v_1 ~ 0."""
    U = np.atleast_2d(np.asarray(directions, dtype=complex))
    keep = np.abs(U[:, 0]) > CHART_EPS
    dropped = int((~keep).sum())
    V = U[keep]
    if V.size == 0:
        raise ChartUndecidableError(
            "all directions lie on the excluded locus v_1 = 0; "
            "the chart-based check cannot decide")
    return V[:, 1:] / V[:, 0:1], dropped


def normality_check(directions, *, max_centers: int = 128,
                    shell_directions: int = 16, cover_factor: float = 2.0
                    ) -> NormalityCheck:
    """Inscribed-ball positivity check for the chart image of a direction set.

    Finds the largest ball around a chart sample point whose interior is
    densely covered by chart samples at the sampling resolution (median
    nearest-neighbour distance).  A positive radius certifies positive
    capacity of the chart image by monotonicity, which is the
    sufficiency direction of the normality criterion.  Verdicts are
    never claimed below the reported resolution.  Needs at least 100
    directions for the resolution estimate to mean anything.  In n = 1
    the chart space is a single point, which any nonempty direction set
    covers; the check then passes with radius and resolution 0.
    """
    U = np.atleast_2d(np.asarray(directions))
    if U.shape[1] == 1:
        B, dropped = chart_points(U)
        return NormalityCheck(
            is_normal_sufficient=True, center=(), radius=0.0, resolution=0.0,
            dropped=dropped,
            diagnostics={"chart_samples": len(B), "capacity_lower_bound": 0.0,
                         "detail": "n = 1: the chart space is a point, "
                                   "covered by any nonempty direction set"})
    if len(U) < 100:
        raise ValueError("normality check needs >= 100 sampled directions")
    B, dropped = chart_points(directions)
    if len(B) < 2:
        raise ChartUndecidableError("need at least 2 chart samples")
    X = _realify(B)
    dim = X.shape[1]
    tree = cKDTree(X)
    probe_count = min(len(X), 512)
    nn = tree.query(X[:probe_count], k=2)[0][:, 1]
    h = float(np.median(nn))
    if h == 0:
        h = float(np.mean(nn)) or 1e-12

    # deterministic probe directions on the unit sphere of R^dim
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((shell_directions * dim, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]

    centers = X[:: max(1, len(X) // max_centers)]
    cover = cover_factor * h
    best_radius = 0.0
    best_center = None
    max_steps = 64
    for c in centers:
        radius = 0.0
        for j in range(1, max_steps + 1):
            R = j * h
            shells = np.concatenate([c + 0.5 * R * dirs, c + R * dirs])
            dist = tree.query(shells)[0]
            if np.any(dist > cover):
                break
            radius = R
        if radius > best_radius:
            best_radius = radius
            best_center = c
    ok = best_radius >= h > 0
    center = None
    if best_center is not None:
        cc = best_center.reshape(-1, 2)
        center = tuple(complex(a, b) for a, b in cc)
    return NormalityCheck(
        is_normal_sufficient=bool(ok), center=center, radius=best_radius,
        resolution=h, dropped=dropped,
        diagnostics={"chart_samples": len(B),
                     "capacity_lower_bound": best_radius if ok else 0.0})
