"""Numerical study of the plurisubharmonic family u_k = (1/k) log |P_k|.

Tools for the scaled log-modulus functions of a slice polynomial family:
torus averages u_k^r(z), the scale-free Lipschitz bound
|u_k^r(z) - u_k^s(w)| < (|r - s| + |z - w|) / r0, the trichotomy of
alpha_r = limsup u_k^r(0) into -inf / +inf / finite, and grid estimates
of the upper envelope u and its regularization u* whose discrepancy set
is the (small-capacity) exceptional set.

Averages integrate u_k itself (not P_k) over the distinguished torus:
that is the reading under which the sub-mean inequality and the
Lipschitz estimate hold.  Points where P_k vanishes give a -inf
integrand; they are clipped at a configurable floor and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .series import torus
from .slices import ChartPoly, SlicePolyFamily

MINUS_INFINITY = "MinusInfinity"
PLUS_INFINITY = "PlusInfinity"
FINITE = "Finite"


@dataclass
class PshFamily:
    """Accessor for u_k(z) = (1/k) log |P_k(z)| of a polynomial family."""

    family: SlicePolyFamily

    @classmethod
    def from_polys(cls, polys: Sequence[ChartPoly]) -> "PshFamily":
        nv = polys[0].nvars
        return cls(SlicePolyFamily(nv, list(polys)))

    @property
    def K(self) -> int:
        return self.family.K

    @property
    def nvars(self) -> int:
        return self.family.nvars

    def u(self, k: int, points):
        """u_k at points; -inf exactly where P_k vanishes."""
        if not 1 <= k <= self.K:
            raise ValueError(f"k={k} outside 1..{self.K}")
        vals = np.abs(self.family.polys[k](points))
        with np.errstate(divide="ignore"):
            return np.log(vals) / k


class TorusAverage(NamedTuple):
    value: float
    clipped: int


def average_on_torus(family: PshFamily, k: int, z, r, grid: int = 64, *,
                     clip_floor: float = -1e3) -> TorusAverage:
    """Trapezoidal average of u_k over the distinguished torus of P(z; r).

    -inf integrand points (zeros of P_k on the sampling grid) are clipped
    at ``clip_floor`` and counted in the result; clipping biases the
    average downward and is reported, not fatal.
    """
    if grid < 16:
        raise ValueError("grid must be >= 16 per angle")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if len(z) != family.nvars or len(r) != family.nvars:
        raise ValueError(f"center and polyradius need {family.nvars} components")
    nodes = torus(r, grid)
    pts = np.stack([z[k] + nodes[k] for k in range(len(z))], axis=-1)
    vals = family.u(k, pts[..., 0] if len(z) == 1 else pts)
    clipped = int(np.sum(~np.isfinite(vals)))
    vals = np.maximum(vals, clip_floor)
    return TorusAverage(float(np.mean(vals)), clipped)


class LipschitzCheck(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def lipschitz_check(family: PshFamily, k: int, z, w, r, s, r0: float,
                    grid: int = 256, *, slack: float = 1e-3) -> LipschitzCheck:
    """Check |u_k^r(z) - u_k^s(w)| < (|r - s| + |z - w|)/r0 + slack.

    All polyradius entries must exceed r0; distances are the sums of
    componentwise moduli.  ``slack`` absorbs quadrature error of the two
    torus averages.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(r <= r0) or np.any(s <= r0):
        raise ValueError("all polyradius entries must exceed r0")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    az = average_on_torus(family, k, z, r, grid)
    aw = average_on_torus(family, k, w, s, grid)
    lhs = abs(az.value - aw.value)
    rhs = float((np.abs(r - s).sum() + np.abs(z - w).sum()) / r0)
    return LipschitzCheck(lhs, rhs, lhs < rhs + slack)


@dataclass
class TrichotomyVerdict:
    """Classification of alpha_r = limsup u_k^r(0)."""

    alpha_r: float
    case: str                   # MinusInfinity | PlusInfinity | Finite
    evidence: dict = field(default_factory=dict)


def classify_trichotomy(family: PshFamily, r, K: Optional[int] = None,
                        grid: int = 64, *, threshold: float = 50.0,
                        sample_points: Optional[np.ndarray] = None,
                        v_gap: float = 0.5) -> TrichotomyVerdict:
    """Estimate alpha_r and classify it into the three exclusive cases.

    alpha_r is the maximum of u_k^r(0) over the last ceil(K/2) indices.
    In the +inf case the normalized functions v_k = u_k / u_k^r(0) are
    sampled (over the indices with positive average) and the points
    where their tail maximum stays below 1 - v_gap are reported as the
    exceptional-set sample.
    """
    if K is None:
        K = family.K
    if K < 20:
        raise ValueError("need K >= 20")
    nv = family.nvars
    zero = np.zeros(nv, dtype=complex) if nv > 1 else 0j
    averages = np.array([
        average_on_torus(family, k, zero, r, grid).value
        for k in range(1, K + 1)])
    tail_start = K - math.ceil(K / 2)
    alpha = float(averages[tail_start:].max())
    if alpha <= -threshold:
        case = MINUS_INFINITY
    elif alpha >= threshold:
        case = PLUS_INFINITY
    else:
        case = FINITE
    evidence = {"tail_averages": averages[tail_start:].tolist(),
                "threshold": threshold, "grid": grid}

    if case == PLUS_INFINITY:
        pos = [k for k in range(tail_start + 1, K + 1) if averages[k - 1] > 0]
        if sample_points is None:
            side = np.linspace(-1.0, 1.0, 21)
            xx, yy = np.meshgrid(side, side)
            flat = (xx + 1j * yy).ravel()
            sample_points = flat if nv == 1 else np.column_stack([flat] * nv)
        vmax = np.full(len(sample_points), -np.inf)
        for k in pos:
            uk = np.asarray(family.u(k, sample_points), dtype=float)
            vk = uk / averages[k - 1]
            vmax = np.maximum(vmax, vk)
        exceptional = np.asarray(sample_points)[vmax < 1.0 - v_gap]
        evidence["subsequence"] = pos
        evidence["exceptional_sample"] = exceptional.tolist()
    return TrichotomyVerdict(alpha, case, evidence)


@dataclass
class EnvelopeField:
    """Grid estimates of u = limsup u_k and its upper regularization u*."""

    nodes: np.ndarray           # complex grid nodes
    u: np.ndarray
    u_star: np.ndarray
    exceptional: List[complex]
    gap: float
    window: int


def upper_envelope(family: PshFamily, grid_region, K: Optional[int] = None, *,
                   num: int = 101, gap: float = 0.5,
                   clip_floor: float = -1e3) -> EnvelopeField:
    """Estimate (u, u*) on a rectangular grid and sample {u < u* - gap}.

    One chart variable only.  u is the windowed max of u_k over the tail
    half of indices; u* dilates u by a max over the 8 neighbouring
    nodes.  The exceptional sample is diagnostic: its 1-d capacity can
    be estimated downstream to check the vanishing-capacity prediction.
    """
    if family.nvars != 1:
        raise NotImplementedError("envelope grids are built in 1 chart variable")
    if K is None:
        K = family.K
    (x0, x1), (y0, y1) = grid_region
    xs = np.linspace(x0, x1, num)
    ys = np.linspace(y0, y1, num)
    nodes = xs[None, :] + 1j * ys[:, None]
    window = math.ceil(K / 2)
    u = np.full(nodes.shape, -np.inf)
    for k in range(K - window + 1, K + 1):
        u = np.maximum(u, family.u(k, nodes))
    u = np.maximum(u, clip_floor)
    u_star = u.copy()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            shifted = np.roll(np.roll(u, dx, axis=0), dy, axis=1)
            # roll wraps around; mask the wrapped border back to -inf
            if dx == 1:
                shifted[0, :] = -np.inf
            elif dx == -1:
                shifted[-1, :] = -np.inf
            if dy == 1:
                shifted[:, 0] = -np.inf
            elif dy == -1:
                shifted[:, -1] = -np.inf
            u_star = np.maximum(u_star, shifted)
    mask = u < u_star - gap
    exceptional = [complex(c) for c in nodes[mask]]
    return EnvelopeField(nodes=nodes, u=u, u_star=u_star,
                         exceptional=exceptional, gap=gap, window=window)


def envelope_to_csv(field: EnvelopeField) -> str:
    """CSV dump (x, y, u, u_star) of an envelope field."""
    lines = ["x,y,u,u_star"]
    columns = (field.nodes.real, field.nodes.imag, field.u, field.u_star)
    # tolist() yields Python floats, whose repr is the plain decimal
    for row in zip(*(np.ravel(c).tolist() for c in columns)):
        lines.append("%r,%r,%r,%r" % row)
    return "\n".join(lines) + "\n"
