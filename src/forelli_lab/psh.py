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
integrand; they are clipped at CLIP_FLOOR and counted.

Each u_k is a row of one ``SlicePolyFamily.values_at`` call for as many
k as fit in series.DISC_CHUNK_SAMPLES values; averages and maxima reduce
those rows, bit for bit what one k at a time gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .series import chunks, torus
from .slices import ChartPoly, SlicePolyFamily

MINUS_INFINITY = "MinusInfinity"
PLUS_INFINITY = "PlusInfinity"
FINITE = "Finite"

CLIP_FLOOR = -1e3     # where the -inf values of u_k are clipped
V_GAP = 0.5           # classify_trichotomy: exceptional where v < 1 - V_GAP
ENVELOPE_GAP = 0.5    # upper_envelope: exceptional where u < u* - ENVELOPE_GAP
LIPSCHITZ_SLACK = 1e-3    # lipschitz_check: quadrature error of two averages


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
        return next(_u_rows(self, [k], points))[1][0]


def _u_rows(family: PshFamily, ks, points):
    """(ks, rows u_k(points)) for the ks in chunks of at most
    series.DISC_CHUNK_SAMPLES values, one ``values_at`` call each."""
    ks = np.asarray(ks)
    bad = ks[(ks < 1) | (ks > family.K)]
    if bad.size:
        raise ValueError(f"k={bad[0]} outside 1..{family.K}")
    for start, stop in chunks(len(ks), np.size(points) // max(1, family.nvars)):
        k = ks[start:stop]
        vals = np.abs(family.family.values_at(points, k))
        with np.errstate(divide="ignore"):
            yield k, np.log(vals) / k.reshape((-1,) + (1,) * (vals.ndim - 1))


class TorusAverage(NamedTuple):
    value: float
    clipped: int


def average_on_torus(family: PshFamily, k: int, z, r,
                     grid: int = 64) -> TorusAverage:
    """Trapezoidal average of u_k over the distinguished torus of P(z; r).

    The center z must be finite and every polyradius entry positive and
    finite.  -inf integrand points (zeros of P_k on the sampling grid)
    are clipped at CLIP_FLOOR and counted in the result; clipping biases
    the average downward and is reported, not fatal.
    """
    return _torus_averages(family, [k], z, r, grid)[0]


def _torus_averages(family: PshFamily, ks, z, r, grid: int
                    ) -> List[TorusAverage]:
    """``average_on_torus`` for each k in ks, from shared torus nodes."""
    if grid < 16:
        raise ValueError("grid must be >= 16 per angle")
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if len(z) != family.nvars or len(r) != family.nvars:
        raise ValueError(f"center and polyradius need {family.nvars} components")
    if not np.isfinite(z).all():
        raise ValueError(f"center must be finite, not {tuple(z.tolist())}")
    if not ((r > 0) & (r < math.inf)).all():          # a nan fails too
        raise ValueError("polyradius entries must be positive and finite, "
                         f"not {tuple(r.tolist())}")
    nodes = torus(r, grid)
    pts = np.stack([z[k] + nodes[k] for k in range(len(z))], axis=-1)
    out = []
    for k, rows in _u_rows(family, ks, pts[..., 0] if len(z) == 1 else pts):
        rows = rows.reshape(len(k), -1)
        out += map(TorusAverage,
                   np.maximum(rows, CLIP_FLOOR).mean(axis=1).tolist(),
                   np.sum(~np.isfinite(rows), axis=1).tolist())
    return out


class LipschitzCheck(NamedTuple):
    lhs: float
    rhs: float
    passed: bool


def lipschitz_check(family: PshFamily, k: int, z, w, r, s, r0: float,
                    grid: int = 256) -> LipschitzCheck:
    """Check |u_k^r(z) - u_k^s(w)| < (|r - s| + |z - w|)/r0 + LIPSCHITZ_SLACK.

    All polyradius entries must exceed r0; distances are the sums of
    componentwise moduli.  The slack absorbs quadrature error of the two
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
    return LipschitzCheck(lhs, rhs, lhs < rhs + LIPSCHITZ_SLACK)


@dataclass
class TrichotomyVerdict:
    """Classification of alpha_r = limsup u_k^r(0)."""

    alpha_r: float
    case: str                   # MinusInfinity | PlusInfinity | Finite
    evidence: dict = field(default_factory=dict)


def classify_trichotomy(family: PshFamily, r, K: Optional[int] = None,
                        grid: int = 64, *,
                        threshold: float = 50.0) -> TrichotomyVerdict:
    """Estimate alpha_r and classify it into the three exclusive cases.

    alpha_r is the maximum of u_k^r(0) over the last ceil(K/2) indices.
    In the +inf case the normalized functions v_k = u_k / u_k^r(0) are
    sampled (over the indices with positive average) at the 21 x 21 grid
    nodes b of the square |Re b|, |Im b| <= 1, with b in every chart
    variable, and the nodes where their tail maximum stays below 1 - V_GAP
    are reported as the exceptional-set sample.
    """
    if K is None:
        K = family.K
    if K < 20:
        raise ValueError("need K >= 20")
    nv = family.nvars
    zero = np.zeros(nv, dtype=complex) if nv > 1 else 0j
    averages = np.array([a.value for a in _torus_averages(
        family, range(1, K + 1), zero, r, grid)])
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
        side = np.linspace(-1.0, 1.0, 21)
        xx, yy = np.meshgrid(side, side)
        flat = (xx + 1j * yy).ravel()
        sample_points = flat if nv == 1 else np.column_stack([flat] * nv)
        vmax = np.full(len(sample_points), -np.inf)
        for k, rows in _u_rows(family, pos, sample_points):
            vmax = np.maximum(vmax, (rows / averages[k - 1, None]).max(axis=0))
        exceptional = sample_points[vmax < 1.0 - V_GAP]
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


def upper_envelope(family: PshFamily, grid_region, *,
                   num: int = 101) -> EnvelopeField:
    """Estimate (u, u*) on a rectangular grid; sample {u < u* - ENVELOPE_GAP}.

    One chart variable only.  u is the windowed max of u_k over the tail
    half of the family's indices, k = K - ceil(K/2) + 1..K with K =
    ``family.K``; u* dilates u by a max over the 8 neighbouring nodes.
    The region ((x0, x1), (y0, y1)) must be finite.  The exceptional
    sample is diagnostic: its 1-d capacity can be estimated downstream to
    check the vanishing-capacity prediction.
    """
    if family.nvars != 1:
        raise NotImplementedError("envelope grids are built in 1 chart variable")
    (x0, x1), (y0, y1) = grid_region
    if not np.isfinite([x0, x1, y0, y1]).all():
        raise ValueError(f"envelope region must be finite, not {grid_region}")
    K = family.K
    xs = np.linspace(x0, x1, num)
    ys = np.linspace(y0, y1, num)
    nodes = xs[None, :] + 1j * ys[:, None]
    window = math.ceil(K / 2)
    u = np.full(nodes.shape, -np.inf)
    for _, rows in _u_rows(family, range(K - window + 1, K + 1), nodes):
        u = np.maximum(u, rows.max(axis=0))
    u = np.maximum(u, CLIP_FLOOR)
    # one grid-sized array at a time: a stack of the nine shifts would pass
    # the 0.5 MB glibc threshold that series.DISC_CHUNK_SAMPLES notes
    padded = np.pad(u, 1, constant_values=-np.inf)
    u_star = u
    for i in range(3):
        for j in range(3):
            u_star = np.maximum(u_star, padded[i:i + num, j:j + num])
    mask = u < u_star - ENVELOPE_GAP
    exceptional = [complex(c) for c in nodes[mask]]
    return EnvelopeField(nodes=nodes, u=u, u_star=u_star,
                         exceptional=exceptional, gap=ENVELOPE_GAP,
                         window=window)


def envelope_to_csv(field: EnvelopeField) -> str:
    """CSV dump (x, y, u, u_star) of an envelope field."""
    lines = ["x,y,u,u_star"]
    columns = (field.nodes.real, field.nodes.imag, field.u, field.u_star)
    # tolist() yields Python floats, whose repr is the plain decimal
    for row in zip(*(np.ravel(c).tolist() for c in columns)):
        lines.append("%r,%r,%r,%r" % row)
    return "\n".join(lines) + "\n"
