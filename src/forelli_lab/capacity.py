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

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .series import _realify, chunks, torus
from .slices import chart_map


class ChartUndecidableError(RuntimeError):
    """All directions fell in the excluded chart locus v_1 = 0."""


def _finite(what: str, values) -> None:
    """Refuse the first number of ``values`` that is not finite."""
    for value in values:
        if not cmath.isfinite(value):
            raise ValueError(f"{what} must be finite, not {value}")


@dataclass
class CompactSet1D:
    """A compact planar set with a deterministic candidate-point sampler.

    Every number that defines the set must be finite, and a disc radius
    positive.
    """

    kind: str                  # disc | segment | finite | cloud
    params: tuple

    @classmethod
    def disc(cls, center: complex, radius: float) -> "CompactSet1D":
        _finite("disc center", [complex(center)])
        if not 0 < radius < math.inf:          # a nan fails too
            raise ValueError(
                f"disc radius must be positive and finite, not {radius}")
        return cls("disc", (complex(center), float(radius)))

    @classmethod
    def segment(cls, a: complex, b: complex) -> "CompactSet1D":
        _finite("segment endpoints", [complex(a), complex(b)])
        if a == b:
            raise ValueError("segment endpoints must differ")
        return cls("segment", (complex(a), complex(b)))

    @classmethod
    def finite_points(cls, points) -> "CompactSet1D":
        pts = tuple(complex(p) for p in points)
        if not pts:
            raise ValueError("empty point set")
        _finite("points", pts)
        return cls("finite", (pts,))

    @classmethod
    def sample_cloud(cls, points) -> "CompactSet1D":
        pts = tuple(complex(p) for p in points)
        if not pts:
            raise ValueError("empty sample cloud")
        _finite("cloud points", pts)
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
            boundary = center + torus((radius,), nb)[0]
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


#: Leja candidates per requested point.
LEJA_CANDIDATE_FACTOR = 50


def leja_points(E: CompactSet1D, m: int) -> np.ndarray:
    """Greedy sequence maximizing the product of distances to chosen points.

    Deterministic: LEJA_CANDIDATE_FACTOR * m candidates come from the
    set's sampler, the start point maximizes |.| (ties broken
    lexicographically), and each step takes the argmax of the running
    distance product.  A degenerate set (single candidate) yields a
    repeated point with a warning.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    cands = E.candidates(LEJA_CANDIDATE_FACTOR * m)
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


def _trial_family(E: np.ndarray, degree: int, trials: int, seed: int):
    """The z-independent trial polynomials of ``siciak_lower_bound``.

    Returns d and two lists of (polynomial, sup over E) pairs: affine
    forms (a, c0) and the degree-<= d family (in one variable its d + 1
    coefficients, lowest first and zero-padded, so that the family is one
    array; in several, rows of linear forms).  Polynomials whose sup over
    E is 0 are kept, so that the draws stay in order.
    """
    rng = np.random.default_rng(seed)
    d = int(degree)
    if d < 1:
        raise ValueError("degree must be >= 1")
    nv = E.shape[1]
    forms = []
    for _ in range(trials // 2):
        a = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
        c0 = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.3
        forms.append(((a, c0), float(np.abs(E @ a + c0).max())))
    polys = []
    for _ in range(trials - trials // 2):
        if nv == 1:
            deg = int(rng.integers(1, d + 1))
            p = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            on_E = np.abs(np.polynomial.polynomial.polyval(E[:, 0], p))
            p = np.concatenate([p, np.zeros(d - deg)])
        else:
            p = rng.standard_normal((d, nv)) + 1j * rng.standard_normal((d, nv))
            on_E = np.abs(np.prod(E @ p.T, axis=1))
        polys.append((p, float(on_E.max())))
    return d, forms, polys


def _growth_bounds(E: np.ndarray, Z: np.ndarray, family) -> List[float]:
    """``siciak_lower_bound`` at each row z of Z from a precomputed
    ``_trial_family``: |p(z)| of every trial p at every probe z as
    (trials, probes) arrays, then one maximum per probe."""
    d, forms, polys = family
    # trial family 1: d-th powers of affine-linear forms; for p = lin^d the
    # normalization (1/d)(log|p| - log sup|p|) collapses to the linear ratio;
    # first the form <conj(z)/|z|, w> of each probe, with its sup over E
    lead = np.zeros((2, len(Z)))
    for j, z in enumerate(Z):
        nz = float(np.linalg.norm(z))
        if nz > 0:
            a = np.conj(z) / nz
            lead[:, j] = abs(complex(z @ a) + 0j), np.abs(E @ a + 0j).max()
    # trial family 2: random-coefficient polynomials of degree <= d
    # (univariate) or products of d random linear forms (several variables)
    if Z.shape[1] == 1:
        # at nv = 1, z @ a and polyval round as these real products do
        x = Z[:, 0]
        a, c0 = np.reshape([(f[0], c) for (f, c), _ in forms], (-1, 2)).T[..., None]
        at_forms = np.hypot(x.real * a.real - x.imag * a.imag + c0.real,
                            x.real * a.imag + x.imag * a.real + c0.imag)
        C = np.array([p for p, _ in polys]).reshape(-1, d + 1)
        vr, vi = C[:, d:].real, C[:, d:].imag
        for j in range(d - 1, -1, -1):
            vr, vi = (C[:, j:j + 1].real + (vr * x.real - vi * x.imag),
                      C[:, j:j + 1].imag + (vr * x.imag + vi * x.real))
        at_polys = np.hypot(vr, vi)
    else:
        # in several variables numpy's products round otherwise; keep them
        at_forms = np.array([[abs(complex(z @ a) + c0) for z in Z]
                             for (a, c0), _ in forms]).reshape(-1, len(Z))
        at_polys = np.array([[abs(complex(np.prod(z @ p.T))) for z in Z]
                             for p, _ in polys]).reshape(-1, len(Z))
    at = np.concatenate([lead[:1], at_forms, at_polys])
    sups = np.reshape([s for _, s in forms + polys], (-1, 1))
    sup = np.concatenate([lead[1:], np.repeat(sups, len(Z), axis=1)])
    # logs by math.log, as one trial at a time took them; 0 is skipped
    keep = (at != 0) & (sup != 0)
    logs = np.reshape(list(map(math.log, np.concatenate(
        [at[keep], sup[keep]]).tolist())), (2, -1))
    ratio = np.full(at.shape, -np.inf)
    ratio[keep] = logs[0] - logs[1]
    ratio[1 + len(forms):] /= d
    # a nan never wins, as in max(); an infinite best gives -inf
    return [b if math.isfinite(b) else -math.inf
            for b in np.fmax.reduce(ratio).tolist()]


#: The trial polynomials of ``siciak_lower_bound`` and the seed that
#: draws them.
SICIAK_TRIALS = 200
SICIAK_SEED = 42
#: The probe shells ||z|| = R of ``cap_siciak``, and its directions.
SICIAK_PROBE_RADII = (10.0, 30.0, 100.0)
SICIAK_DIRECTIONS = 8


def siciak_lower_bound(E_samples, z, degree: int) -> float:
    """Lower bound for the extremal growth function V_E(z).

    Maximizes (1/d)(log|p(z)| - log sup_E |p|) over SICIAK_TRIALS trial
    polynomials drawn from SICIAK_SEED: powers of random affine-linear
    forms plus the distinguished family <conj(z)/|z|, w>^d.  The sup over
    E is taken on the given sample, so bounds are honest up to the
    sample's coverage of E.
    """
    E = np.atleast_2d(np.asarray(E_samples, dtype=complex))
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.shape[0] != E.shape[1]:
        raise ValueError("z and E live in different dimensions")
    return _growth_bounds(E, z[None], _trial_family(
        E, degree, SICIAK_TRIALS, SICIAK_SEED))[0]


def cap_siciak(E_samples, degree: int = 32, trials: int = 200, *,
               seed: int = 42,
               closed_form: Optional[float] = None) -> CapacityEstimate:
    """Capacity exp(-gamma) from the growth defect of V_E lower bounds.

    gamma is estimated as the max over the probe shells ||z|| = R in
    SICIAK_PROBE_RADII and SICIAK_DIRECTIONS sampled directions of
    (V_lb(z) - log ||z||).  Estimates are one-sided in the V_E sense;
    downstream uses only need positivity.  The trial polynomials and their
    sups over E are built once, and evaluated at all probes in one pass.
    """
    E = np.atleast_2d(np.asarray(E_samples, dtype=complex))
    nv = E.shape[1]
    rng = np.random.default_rng(seed)
    shape = (SICIAK_DIRECTIONS, nv)
    dirs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    Z = (np.array(SICIAK_PROBE_RADII)[:, None, None] * dirs).reshape(-1, nv)
    bounds = _growth_bounds(E, Z, _trial_family(E, degree, trials, seed))
    logs = [math.log(R) for R in SICIAK_PROBE_RADII for _ in dirs]
    gamma = max([-math.inf] + [b - r for b, r in zip(bounds, logs)])
    value = math.exp(-gamma) if np.isfinite(gamma) else 0.0
    return CapacityEstimate(value, "SiciakExtremal", E.shape[0],
                            {"gamma": gamma, "degree": degree,
                             "trials": trials,
                             "probe_radii": SICIAK_PROBE_RADII,
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


#: Largest number of shell steps, in units of the resolution h.
MAX_SHELL_STEPS = 64
#: Most ball centers tried, probe directions per chart dimension of a
#: shell, and the covering distance in units of h.
MAX_CENTERS = 128
SHELL_DIRECTIONS = 16
COVER_FACTOR = 2.0


def _covered(tree, centers: np.ndarray, R: float, dirs: np.ndarray,
             cover: float, known: np.ndarray) -> np.ndarray:
    """Per center c, whether every point c + R*d of the shell has a sample
    within cover.

    known[:, i, j] holds the radius t and nearest-sample distance delta of
    the last query on the ray centers[i] + t*dirs[j], and is updated here;
    (0, 0) stands for the center, itself a sample.  A point with
    |R - t| + delta <= cover*(1 - 1e-9), less the rounding of the points, is
    covered by the triangle inequality and is not queried.  The others are
    queried at most series.DISC_CHUNK_SAMPLES at a time, and the search is
    cut a hair above cover: a point with no sample that near gets an
    infinite distance, which the test reads the same as any beyond cover.
    """
    t, delta = known
    slack = 1e-9 * cover + 1e-15 * dirs.shape[1] * (
        np.abs(centers).max(axis=1)[:, None] + np.maximum(R, t))
    ci, di = np.nonzero(np.abs(R - t) + delta > cover - slack)
    points = centers[ci] + R * dirs[di]
    dist = np.empty(len(points))
    for start, stop in chunks(len(points), 1):
        dist[start:stop] = tree.query(
            points[start:stop], distance_upper_bound=cover * (1 + 1e-9))[0]
    t[ci, di], delta[ci, di] = R, dist
    return np.bincount(ci[dist > cover], minlength=len(centers)) == 0


def normality_check(directions) -> NormalityCheck:
    """Inscribed-ball positivity check for the chart image of a direction set.

    Finds the largest ball around a chart sample point whose interior is
    densely covered by chart samples at the sampling resolution (median
    nearest-neighbour distance).  A positive radius certifies positive
    capacity of the chart image by monotonicity, which is the
    sufficiency direction of the normality criterion.  Verdicts are
    never claimed below the reported resolution.  Needs at least 100
    directions for the resolution estimate to mean anything.  In n = 1
    the chart space is a single point, which any nonempty direction set
    covers; the check then passes with radius and resolution 0.  The
    chart points come from ``slices.chart_map``, which rejects a zero row.

    The shells grow in steps of the resolution h, up to MAX_SHELL_STEPS,
    for all centers at once: each step queries the shell points of the
    centers still live that no earlier query on their ray covers (see
    _covered), and a center leaves at its first shell that is not covered.
    Its radius is then the last step all of whose shells were covered;
    the result names the first center with the largest radius.
    """
    U = np.atleast_2d(np.asarray(directions))
    if U.shape[1] > 1 and len(U) < 100:
        raise ValueError("normality check needs >= 100 sampled directions")
    B = chart_map(U)[0]
    dropped = len(U) - len(B)
    if not len(B):
        raise ChartUndecidableError(
            "all directions lie on the excluded locus v_1 = 0; "
            "the chart-based check cannot decide")
    if U.shape[1] == 1:
        return NormalityCheck(
            is_normal_sufficient=True, center=(), radius=0.0, resolution=0.0,
            dropped=dropped,
            diagnostics={"chart_samples": len(B), "capacity_lower_bound": 0.0,
                         "detail": "n = 1: the chart space is a point, "
                                   "covered by any nonempty direction set"})
    if len(B) < 2:
        raise ChartUndecidableError("need at least 2 chart samples")
    from scipy.spatial import cKDTree
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
    dirs = rng.standard_normal((SHELL_DIRECTIONS * dim, dim))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]

    centers = X[:: max(1, len(X) // MAX_CENTERS)]
    cover = COVER_FACTOR * h
    radii = np.zeros(len(centers))
    live = np.arange(len(centers))     # centers whose shells are all covered
    known = np.zeros((2, len(centers), len(dirs)))     # see _covered
    for j in range(1, MAX_SHELL_STEPS + 1):
        R = j * h
        # for even j, 0.5 * R equals (j // 2) * h exactly, and every live
        # center passed that shell at step j // 2
        for shell in (R, 0.5 * R) if j % 2 else (R,):
            ok = _covered(tree, centers[live], shell, dirs, cover, known)
            live, known = live[ok], known[:, ok]
        if not live.size:
            break
        radii[live] = R
    best = int(np.argmax(radii))       # the first of the largest radii
    best_radius = float(radii[best])
    ok = best_radius >= h > 0
    center = None if best_radius == 0 else tuple(
        complex(a, b) for a, b in centers[best].reshape(-1, 2))
    return NormalityCheck(
        is_normal_sufficient=bool(ok), center=center, radius=best_radius,
        resolution=h, dropped=dropped,
        diagnostics={"chart_samples": len(B),
                     "capacity_lower_bound": best_radius if ok else 0.0})
