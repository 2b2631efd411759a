"""Pencils of holomorphic discs and Cauchy-Riemann verification along them.

A pencil is a family of discs through a base point, parametrized by a
sampled set of unit directions U on S^(2n-1) and a map (lambda, u) ->
point.  The standard pencil is (lambda, u) -> lambda u; general pencils
carry expression vectors in the variables l, u1..un, conj(u_k).  The map
is evaluated on (lambda, u) pairs; the required structure is that each
fixed-u disc is holomorphic in lambda, which is exactly what the
residual checks measure.

Residuals are Fourier based: a function of one complex variable sampled
on a circle is holomorphic iff its negative-index Fourier content
vanishes; the circles and their modes come from ``series.torus`` and
``series.torus_modes``.  Cauchy-Riemann residuals of ambient functions
use central finite differences for the Wirtinger derivatives (the
functions are only assumed C^1, so complex-step tricks are not
available).

The direction sample carries an angular nearest-neighbour graph; "open
subsets" of U are connected graph patches with their neighbourhoods, and
the subpencil search replaces the Baire-category argument by an explicit
smallest-disc-index patch search over that graph.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from .expr import EvalError, Expr, evaluate, parse
from .series import torus, torus_modes


class PencilCheckError(ValueError):
    """A pencil failed one of its structural checks."""


class DegenerateNormalizationError(RuntimeError):
    """H vanished on the whole grid; the verdict is inconclusive."""


class NewtonInversionError(RuntimeError):
    """Map inversion failed below the radius floor."""


# fixed numerical settings, grouped by the function that reads them
_PENCIL_HOLO_TOL = 1e-8      # pencil_from_exprs: disc residual per component
_PENCIL_MESH_TOL = 1e-10     # and the distance at which mesh images coincide
_Z2_SAMPLES = 12             # tilde_normalize: the z2 ring of its checks,
_NORMALIZE_NEWTON_TOL = 1e-12    # its first-component Newton solve,
_FD_STEP = 1e-6              # that solve's difference step
_TOL_K0 = 1e-8               # and the bounds of its three checks
_TOL_SLOPE = 1e-6
_TOL_HOLO = 1e-8
_HG_DELTA = 1e-5             # compute_H_G: Wirtinger difference step
_H_FLOOR = 1e-9              # and the floor |H| must clear
_BISECT_STEPS = 10           # standard_subpencil_radius: bisection on r,
_NEWTON_ITERS = 30           # the inversion's iterations and tolerance,
_NEWTON_TOL = 1e-10
_R_FLOOR = 1e-6              # and the radius below which no r is verified


# -- direction sampling --------------------------------------------------------

def sphere_directions(n: int, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic sample of unit vectors on S^(2n-1) in C^n."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1)[:, None]

def cap_directions(n: int, theta: float, count: int,
                   center: Optional[Sequence[complex]] = None,
                   seed: int = 0) -> np.ndarray:
    """Sample a geodesic cap of angular radius theta around ``center``."""
    if center is None:
        center = np.eye(n, dtype=complex)[0]
    c = np.asarray(center, dtype=complex)
    c = c / np.linalg.norm(c)
    rng = np.random.default_rng(seed)
    out = np.empty((count, n), dtype=complex)
    for i in range(count):
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = g - np.real(np.vdot(c, g)) * c
        w = w / np.linalg.norm(w)
        alpha = theta * math.sqrt(rng.random())
        out[i] = math.cos(alpha) * c + math.sin(alpha) * w
    return out

def preset_directions(spec: str, n: int, seed: int) -> np.ndarray:
    """Directions named by ``sphere[:count[:seed]]`` or ``cap:theta[:count[:seed]]``.

    ``count`` defaults to 200, and ``seed`` applies when the string has none.
    """
    name, *args = spec.split(":")
    if name not in ("sphere", "cap"):
        raise ValueError(f"unknown directions preset or missing file: {spec!r}")
    if name == "cap":
        if not args:
            raise ValueError("cap preset needs an angular radius: cap:theta[:count]")
        theta = float(args.pop(0))
    count = int(args[0]) if args else 200
    s = int(args[1]) if len(args) > 1 else seed
    if name == "sphere":
        return sphere_directions(n, count, s)
    return cap_directions(n, theta, count, seed=s)


def angular_distance(u, v) -> float:
    inner = float(np.clip(np.real(np.vdot(np.asarray(u), np.asarray(v))),
                          -1.0, 1.0))
    return math.acos(inner)


def _realify(points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(points)
    return np.column_stack([points.real, points.imag]).reshape(len(points), -1)


# -- pencil spec ---------------------------------------------------------------

@dataclass
class PencilSpec:
    """A sampled pencil of holomorphic discs.

    ``map_batch(lam, U)`` evaluates the disc map elementwise on arrays of
    disc parameters and directions.  ``neighbors[i]`` lists the indices
    adjacent to direction i in the angular graph.
    """

    n: int
    base_point: np.ndarray
    directions: np.ndarray              # (M, n) unit vectors
    kind: str                           # "standard" | "general"
    map_exprs: Optional[Tuple[Expr, ...]] = None
    neighbors: List[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.neighbors:
            self.neighbors = _angular_graph(self.directions)

    @property
    def num_directions(self) -> int:
        return len(self.directions)

    def map_batch(self, lam, U) -> np.ndarray:
        """Evaluate the pencil map on broadcastable (lam, U) arrays.

        lam has shape (...,), U has shape (..., n); returns (..., n).
        """
        lam = np.asarray(lam, dtype=complex)
        U = np.asarray(U, dtype=complex)
        if self.kind == "standard":
            return lam[..., None] * U
        comps = (lam,) + tuple(U[..., k] for k in range(self.n))
        cols = [np.broadcast_to(np.asarray(evaluate(e, comps), dtype=complex),
                                lam.shape)
                for e in self.map_exprs]
        return np.stack(cols, axis=-1)

    def disc(self, lam, index) -> np.ndarray:
        """Points of the disc through direction ``index`` at parameters lam.

        An index array gives one disc per entry; its shape leads lam's.
        """
        lam = np.asarray(lam, dtype=complex)
        lead = tuple(range(np.ndim(index), lam.ndim))
        U = np.broadcast_to(np.expand_dims(self.directions[index], lead),
                            lam.shape + (self.n,))
        return self.map_batch(lam, U)

    def resolution(self) -> float:
        """Median nearest-neighbour angular distance of the direction sample.

        A single-direction pencil has no neighbour spacing; returns pi.
        """
        if self.num_directions < 2:
            return math.pi
        X = _realify(self.directions)
        take = min(len(X), 512)
        d = cKDTree(X).query(X[:take], k=2)[0][:, 1]
        # chordal ~ angular for fine samples
        return float(np.median(2.0 * np.arcsin(np.clip(d / 2.0, 0, 1))))


def _angular_graph(directions: np.ndarray, k: int = 8) -> List[np.ndarray]:
    M = len(directions)
    if M == 1:
        return [np.array([], dtype=int)]
    X = _realify(directions)
    kk = min(k + 1, M)
    _, idx = cKDTree(X).query(X, k=kk)
    i = np.repeat(np.arange(M), kk - 1)
    j = idx[:, 1:].ravel()
    # each k-NN pair in both orders, as sorted unique codes row * M + column
    code = np.unique(np.concatenate([i * M + j, j * M + i]))
    rows, cols = np.divmod(code, M)
    ends = np.cumsum(np.bincount(rows, minlength=M))
    return np.split(cols, ends[:-1])


def _unit_directions(n: int, U) -> np.ndarray:
    """U as unit rows in C^n; warns when it normalizes, rejects bad sets."""
    U = np.atleast_2d(np.asarray(U, dtype=complex))
    if U.size == 0:
        raise PencilCheckError("direction set must be nonempty")
    if U.shape[1] != n:
        raise PencilCheckError(f"directions live in C^{U.shape[1]}, expected C^{n}")
    norms = np.linalg.norm(U, axis=1)
    if np.any(norms == 0):
        raise PencilCheckError("zero vector in direction set")
    deviation = float(np.abs(norms - 1.0).max())
    if deviation > 1e-8:
        warnings.warn(f"directions off the unit sphere by up to {deviation:.3g};"
                      " normalizing")
    return U / norms[:, None]


def standard_pencil(n: int, U) -> PencilSpec:
    """The straight-ray pencil (lambda, u) -> lambda u at the origin."""
    return PencilSpec(n=n, base_point=np.zeros(n, dtype=complex),
                      directions=_unit_directions(n, U), kind="standard")


def pencil_from_exprs(n: int, map_exprs, directions,
                      base_point=None) -> PencilSpec:
    """Build a general pencil from per-component map expressions.

    Expressions use the variables l (the disc parameter), u1..un and
    conj(u_k).  Validation checks the base point, per-disc holomorphy of
    sampled discs, and injectivity of the map on a sampled mesh (two
    mesh pairs may share an image only if they describe the same point
    lambda*u of the parameter cone).
    """
    names = ("l",) + tuple(f"u{k+1}" for k in range(n))
    exprs = tuple(parse(e, var_names=names) if isinstance(e, str) else e
                  for e in map_exprs)
    if len(exprs) != n:
        raise PencilCheckError(f"{len(exprs)} map components for C^{n}")
    U = _unit_directions(n, directions)
    p = (np.zeros(n, dtype=complex) if base_point is None
         else np.asarray(base_point, dtype=complex))
    spec = PencilSpec(n=n, base_point=p, directions=U, kind="general",
                      map_exprs=exprs)
    _validate_pencil(spec)
    return spec


def _validate_pencil(spec: PencilSpec):
    sub = spec.directions[:: max(1, spec.num_directions // 24)]
    at0 = spec.map_batch(np.zeros(len(sub)), sub)
    worst = float(np.abs(at0 - spec.base_point).max())
    if worst > 1e-10:
        raise PencilCheckError(
            f"map(0, u) differs from the base point by {worst:.3g}")
    for u in sub:
        for j in range(spec.n):
            g = lambda lam: spec.map_batch(lam, np.broadcast_to(
                u, lam.shape + (spec.n,)))[..., j]
            res = disc_holo_residual(g, 0.9, modes=16)
            if res > _PENCIL_HOLO_TOL:
                raise PencilCheckError(
                    f"disc through {u} has component {j+1} residual {res:.3g}")
    # mesh injectivity on pairs, modulo genuine cone identifications
    radii = np.array([0.25, 0.55, 0.85])
    phases = torus((1.0,), 6)[0]
    lam = (radii[:, None] * phases[None, :]).ravel()
    L = np.tile(lam, len(sub))
    D = np.repeat(sub, lam.size, axis=0)
    images = spec.map_batch(L, D)
    cone = L[:, None] * D
    tree = cKDTree(_realify(images))
    for i, j in tree.query_pairs(_PENCIL_MESH_TOL):
        if np.abs(cone[i] - cone[j]).max() > 1e-8:
            raise PencilCheckError(
                f"mesh injectivity violated: parameters {(L[i], tuple(D[i]))} "
                f"and {(L[j], tuple(D[j]))} share an image")


def load_pencil(source) -> PencilSpec:
    """Load a pencil from the JSON file format.

    Keys: n; map (list of expressions in l, u1..un); directions (a
    ``preset_directions`` string, seeded with 0 when it names no seed, or
    an explicit list of [re, im] component pairs); optional p (base point).
    """
    if isinstance(source, (str,)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = dict(source)
    n = int(data["n"])
    dirs = data.get("directions", "sphere:200")
    if isinstance(dirs, str):
        U = preset_directions(dirs, n, 0)
    else:
        U = np.array([[complex(re, im) for re, im in vec] for vec in dirs])
    p = None
    if "p" in data:
        p = np.array([complex(re, im) for re, im in data["p"]])
    if "map" in data:
        return pencil_from_exprs(n, data["map"], U, p)
    return standard_pencil(n, U)


# -- disc holomorphy residuals -------------------------------------------------

def _holo_residuals(g: Callable, rho, modes: int):
    """The disc residual of g on the circles |lambda| = rho, one per rho.

    ``rho`` is a scalar or an array of radii; g gets the samples as an
    array rho.shape + (4*modes,).  Returns the residuals and a per-circle
    all-finite mask; a circle with non-finite samples enters the FFT as
    zeros, so its residual means nothing.
    """
    if modes < 16:
        raise ValueError("modes must be >= 16")
    count = 4 * modes
    lam = np.asarray(rho, dtype=float)[..., None] * torus((1.0,), count)[0]
    vals = np.broadcast_to(np.asarray(g(lam), dtype=complex), lam.shape)
    finite = np.isfinite(vals).all(axis=-1)
    c = torus_modes(np.where(finite[..., None], vals, 0), 1)
    neg = c[..., count // 2:]      # indices -count/2 .. -1
    return (np.abs(neg).max(axis=-1) / np.fmax(1.0, np.abs(c).max(axis=-1)),
            finite)


def disc_holo_residual(g: Callable, rho: float, modes: int = 16) -> float:
    """Antiholomorphic Fourier content of lambda -> g(lambda) on |lambda|=rho.

    Samples 4*modes points; the residual is the largest modulus over
    negative-index Fourier coefficients, normalized by max(1, largest
    coefficient).  Zero (to quadrature accuracy) iff the samples come
    from a holomorphic function of lambda.
    """
    res, finite = _holo_residuals(g, rho, modes)
    if not finite:
        raise EvalError(f"non-finite disc samples at radius {rho}")
    return float(res)


@dataclass
class DiscResidual:
    direction_index: int
    direction: Tuple[complex, ...]
    radius: float
    residual: float
    error: Optional[str] = None


@dataclass
class PencilHoloResult:
    residuals: List[DiscResidual]
    tol: float
    passed: bool

    def worst(self) -> float:
        disc = self.worst_disc()
        return math.nan if disc is None else disc.residual

    def worst_disc(self) -> Optional[DiscResidual]:
        """The first error-free disc with the largest residual, if any."""
        clean = [r for r in self.residuals if r.error is None]
        if not clean:
            return None
        return clean[int(np.argmax([r.residual for r in clean]))]

    def evidence(self) -> dict:
        """Report details: where the worst disc is, and how many failed."""
        disc = self.worst_disc()
        return {"worst_direction_index":
                    None if disc is None else disc.direction_index,
                "worst_radius": None if disc is None else disc.radius,
                "discs_with_error":
                    sum(r.error is not None for r in self.residuals)}


#: Most samples (discs x points per disc) that one batched disc
#: evaluation holds.  Freeing a block of about 0.5 MB or more makes glibc
#: raise its mmap threshold, which changes how the rest of the process
#: allocates; 4096 complex samples per array stay well below that.
DISC_CHUNK_SAMPLES = 4096


def check_holo_along_pencil(f, P: PencilSpec,
                            rho_schedule: Sequence[float] = (0.3, 0.6, 0.9),
                            tol: float = 1e-8, modes: int = 16
                            ) -> PencilHoloResult:
    """Residual of lambda -> f(map(lambda, u)) per direction and radius.

    Every entry is what ``disc_holo_residual`` gives on that disc alone.
    The discs are evaluated in chunks of at most DISC_CHUNK_SAMPLES
    samples, one map call, one f call and one row FFT per chunk, so f
    must act pointwise on coordinate arrays of any shape.  A disc whose
    chunk raises, or whose samples are not all finite, is redone on its
    own, so an error stays with its own disc and keeps its message.
    """
    from .expr import as_callable
    func = as_callable(f, P.n)

    def on_discs(di):
        """lambda -> f(map(lambda, u)) on the discs through directions di."""
        return lambda lam: func(tuple(np.moveaxis(P.disc(lam, di), -1, 0)))

    radii = list(rho_schedule)
    rho = np.asarray(radii, dtype=float)
    discs = [(i, r) for i in range(P.num_directions) for r in range(len(radii))]
    step = max(1, DISC_CHUNK_SAMPLES // max(1, 4 * modes))
    units = [tuple(u) for u in P.directions]
    out = []
    for start in range(0, len(discs), step):
        part = discs[start:start + step]
        di, ri = np.array(part, dtype=int).T
        try:
            res, finite = _holo_residuals(on_discs(di), rho[ri], modes)
        except Exception:          # every disc of the chunk is redone
            res, finite = [math.nan] * len(part), [False] * len(part)
        for (i, r), value, ok in zip(part, res, finite):
            entry = DiscResidual(i, units[i], float(radii[r]),
                                 float(value) if ok else math.nan)
            if not ok:
                try:
                    entry.residual = disc_holo_residual(on_discs(i), radii[r],
                                                        modes)
                except Exception as exc:   # per-disc failures are non-fatal
                    entry.error = str(exc)
            out.append(entry)
    ok = all(e.error is None and e.residual <= tol for e in out)
    return PencilHoloResult(out, tol, ok)


# -- Wirtinger residuals of ambient functions ----------------------------------

def wirtinger_dbar(f, points: np.ndarray, delta: float = 1e-5) -> np.ndarray:
    """Central-difference d/dzbar_j of f at an array of points (..., n).

    Returns an array (..., n) of the n conjugate Wirtinger derivatives.
    """
    points = np.asarray(points, dtype=complex)
    n = points.shape[-1]
    out = np.empty(points.shape, dtype=complex)
    for j in range(n):
        def shifted(step):
            q = points.copy()
            q[..., j] = q[..., j] + step
            return np.asarray(f(tuple(q[..., k] for k in range(n))),
                              dtype=complex)
        dx = (shifted(delta) - shifted(-delta)) / (2.0 * delta)
        dy = (shifted(1j * delta) - shifted(-1j * delta)) / (2.0 * delta)
        out[..., j] = 0.5 * (dx + 1j * dy)
    return out


# -- the disc-map normalization (n = 2) ----------------------------------------

@dataclass
class KData:
    """Normalized disc-map data h~(z1, z2) = (z1, k(z1, z2)).

    ``k(w, z2)`` is vectorized over w for a fixed scalar z2.  ``rotation``
    maps original coordinates to the working frame in which the chosen
    direction is (1, 0).
    """

    v0: np.ndarray
    rotation: np.ndarray
    eps: float
    k: Callable[[np.ndarray, complex], np.ndarray]
    checks: dict = field(default_factory=dict)


def _rotation_to_e1(v0: np.ndarray) -> np.ndarray:
    v0 = np.asarray(v0, dtype=complex)
    v0 = v0 / np.linalg.norm(v0)
    q2 = np.array([-np.conj(v0[1]), np.conj(v0[0])])
    Q = np.vstack([np.conj(v0), np.conj(q2)])
    return Q


def tilde_normalize(P: PencilSpec, v0, eps: float = 0.4) -> KData:
    """Normalize the pencil near the direction v0 (dimension 2 only).

    Rotates coordinates so v0 becomes (1, 0), forms the two-parameter
    disc map h~(z1, z2) = map at the cone point z1 * (1, z2), and inverts
    its first component along each disc (complex Newton) so the map
    takes the shape (z1, k(z1, z2)).  Verifies that k is holomorphic in
    z1, vanishes at z1 = 0, and has first z1-derivative equal to z2;
    failure of any of these raises PencilCheckError (pencil not
    admissible at v0).
    """
    if P.n != 2:
        raise ValueError("normalization is implemented for n = 2 only")
    v0_arr = np.asarray(v0, dtype=complex)
    v0_arr = v0_arr / np.linalg.norm(v0_arr)
    gap = min(angular_distance(v0_arr, u) for u in P.directions)
    if gap > 4.0 * max(P.resolution(), 1e-12):
        warnings.warn(f"v0 is {gap:.3g} rad from the nearest sampled "
                      "direction; the pencil is extrapolated there")
    Q = _rotation_to_e1(v0_arr)
    Qh = Q.conj().T

    def htilde(z1, z2):
        """h~ on an array of z1 at a fixed complex z2, in rotated coords."""
        z1 = np.asarray(z1, dtype=complex)
        s = math.sqrt(1.0 + abs(z2) ** 2)
        u_rot = np.array([1.0, z2], dtype=complex) / s
        u = Qh @ u_rot
        U = np.broadcast_to(u, z1.shape + (2,))
        img = P.map_batch(z1 * s, U)
        return img @ Q.T          # rotate image: rows are points

    def k_func(w, z2):
        w = np.asarray(w, dtype=complex)
        flat = w.ravel()
        zeta = flat.copy()
        # derivative scale at 0 to seed Newton
        d0 = (htilde(np.array([_FD_STEP]), z2)[0, 0]
              - htilde(np.array([-_FD_STEP]), z2)[0, 0]) / (2 * _FD_STEP)
        if abs(d0) < 1e-12:
            raise PencilCheckError(
                f"disc map degenerate along z1 at z2={z2}: a'(0)={d0:.3g}")
        zeta = flat / d0
        target = flat
        for _ in range(60):
            vals = htilde(zeta, z2)
            a = vals[:, 0]
            err = a - target
            if np.abs(err).max() <= _NORMALIZE_NEWTON_TOL * max(
                    1.0, np.abs(target).max()):
                break
            da = (htilde(zeta + _FD_STEP, z2)[:, 0]
                  - htilde(zeta - _FD_STEP, z2)[:, 0]) / (2 * _FD_STEP)
            da = np.where(np.abs(da) < 1e-14, 1e-14, da)
            zeta = zeta - err / da
        else:
            raise NewtonInversionError(
                f"first-component inversion stalled at z2={z2}")
        return htilde(zeta, z2)[:, 1].reshape(w.shape)

    # admissibility checks
    failures = []
    z2s = torus((0.5 * eps,), _Z2_SAMPLES)[0]
    k0 = np.array([k_func(np.zeros(1), z2)[0] for z2 in z2s])
    worst_k0 = float(np.abs(k0).max())
    if worst_k0 > _TOL_K0:
        failures.append(f"k(0, z2) as large as {worst_k0:.3g}")
    step = 1e-5
    slopes = np.array([
        (k_func(np.array([step]), z2)[0] - k_func(np.array([-step]), z2)[0])
        / (2 * step) for z2 in z2s])
    worst_slope = float(np.abs(slopes - z2s).max())
    if worst_slope > _TOL_SLOPE:
        failures.append(f"dk/dz1(0, z2) off z2 by {worst_slope:.3g}")
    worst_holo = 0.0
    for z2 in z2s[:: max(1, _Z2_SAMPLES // 6)]:
        res = disc_holo_residual(lambda lam: k_func(lam, z2), 0.4 * eps)
        worst_holo = max(worst_holo, res)
    if worst_holo > _TOL_HOLO:
        failures.append(f"k not holomorphic in z1: residual {worst_holo:.3g}")
    if failures:
        raise PencilCheckError(
            "pencil not admissible at v0: " + "; ".join(failures))
    checks = {"max_abs_k0": worst_k0, "max_slope_defect": worst_slope,
              "max_holo_residual": worst_holo, "eps": eps}
    return KData(v0=np.asarray(v0, dtype=complex), rotation=Q, eps=eps,
                 k=k_func, checks=checks)


@dataclass
class HGResult:
    z1_grid: np.ndarray
    H: np.ndarray
    G: np.ndarray
    max_abs_G: float
    min_abs_H: float
    passed: bool
    claim: str


def compute_H_G(f, kdata: KData, z1_grid, *, tol_G: float = 1e-6) -> HGResult:
    """Evaluate the normalization invariants H and G on a punctured grid.

    H(z1) = |dk/dz2bar|^2 - |dk/dz2|^2 at (z1, 0); G(z1) combines the
    z2-Wirtinger derivatives of k and of F(z1, z2) = f(z1, k(z1, z2))
    into the holomorphic expression that factors as H * df/dwbar.  A
    pass (G below tol_G, H bounded away from zero on the punctured grid)
    certifies the Cauchy-Riemann equations for f along the v0 disc.
    """
    from .expr import as_callable
    z1 = np.asarray(z1_grid, dtype=complex)
    func = as_callable(f, 2)
    Qh = kdata.rotation.conj().T

    def f_rot(z1v, wv):
        pts = np.stack([z1v, wv], axis=-1) @ Qh.T
        return np.asarray(func((pts[..., 0], pts[..., 1])), dtype=complex)

    delta = _HG_DELTA
    ks = {s: kdata.k(z1, s) for s in (delta, -delta, 1j * delta, -1j * delta)}
    kx = (ks[delta] - ks[-delta]) / (2 * delta)
    ky = (ks[1j * delta] - ks[-1j * delta]) / (2 * delta)
    k_z2 = 0.5 * (kx - 1j * ky)
    k_z2bar = 0.5 * (kx + 1j * ky)
    H = np.abs(k_z2bar) ** 2 - np.abs(k_z2) ** 2

    Fs = {s: f_rot(z1, ks[s]) for s in ks}
    Fx = (Fs[delta] - Fs[-delta]) / (2 * delta)
    Fy = (Fs[1j * delta] - Fs[-1j * delta]) / (2 * delta)
    F_z2 = 0.5 * (Fx - 1j * Fy)
    F_z2bar = 0.5 * (Fx + 1j * Fy)
    G = k_z2bar * F_z2 - k_z2 * F_z2bar

    max_G = float(np.abs(G).max())
    min_H = float(np.abs(H).min())
    if float(np.abs(H).max()) < _H_FLOOR:
        raise DegenerateNormalizationError(
            "H below the floor on the whole grid; normalization degenerate, "
            "verdict inconclusive")
    passed = bool(max_G <= tol_G and min_H >= _H_FLOOR)
    claim = ("df/dwbar = 0 and df/dzbar = 0 along the v0 disc"
             if passed else "Cauchy-Riemann verification failed")
    return HGResult(z1_grid=z1, H=H, G=G, max_abs_G=max_G, min_abs_H=min_H,
                    passed=passed, claim=claim)


# -- subpencil search ----------------------------------------------------------

@dataclass
class SubpencilResult:
    """A direction patch V and disc index m with uniform CR residuals.

    Every direction in V has Cauchy-Riemann residual below tolerance on
    the disc of radius 1/m.  ``ell_star[i]`` is the smallest passing disc
    index per direction (0 when none passes).
    """

    direction_indices: np.ndarray
    m: Optional[int]
    ell_star: np.ndarray
    residual_table: np.ndarray        # (M, ell_max) residuals
    tol: float

    @property
    def empty(self) -> bool:
        return self.direction_indices.size == 0


def find_subpencil(f, P: PencilSpec, tol: float = 1e-6, ell_max: int = 8, *,
                   phases: int = 8, delta: float = 1e-5) -> SubpencilResult:
    """Find a direction patch sharing a uniform holomorphy disc radius.

    Per direction, the Cauchy-Riemann residual of f is sampled on discs
    of radius 1/ell (ell = 1..ell_max); the patch returned is the largest
    connected set of graph-interior directions passing at the smallest
    workable ell.  Empty result (with the residual table) when no
    direction passes at ell_max.

    The directions are evaluated in chunks of at most DISC_CHUNK_SAMPLES
    disc samples: one map call and one ``wirtinger_dbar`` per chunk, so f
    must act pointwise on coordinate arrays of any shape.  A chunk whose
    evaluation raises is redone one direction at a time, and a direction
    that fails there keeps residual inf; every table entry is what the
    direction gives on its own.
    """
    from .expr import as_callable
    func = as_callable(f, P.n)
    M = P.num_directions
    # master disc sample: one ring per ell plus deep interior points, so the
    # points with |lam| <= 1/ell sample every smaller disc as well
    rings = np.array([0.93 / j for j in range(1, ell_max + 1)] + [0.02])
    lam = (rings[:, None] * torus((1.0,), phases)[0][None, :]).ravel()
    masks = [np.abs(lam) <= 1.0 / ell for ell in range(1, ell_max + 1)]

    def residuals(rows):
        """Per-ell worst CR residuals of the directions rows (or one index)."""
        pts = P.disc(np.broadcast_to(lam, np.shape(rows) + lam.shape), rows)
        res = np.abs(wirtinger_dbar(func, pts, delta)).max(axis=-1)
        res = np.where(np.isfinite(res), res, np.inf)
        return np.array([res[..., mask].max(axis=-1) for mask in masks]).T

    table = np.full((M, ell_max), np.inf)
    step = max(1, DISC_CHUNK_SAMPLES // lam.size)
    for start in range(0, M, step):
        rows = np.arange(start, min(start + step, M))
        try:
            table[rows] = residuals(rows)
        except Exception:          # redo the chunk direction by direction
            for i in rows:
                try:
                    table[i] = residuals(i)
                except Exception:  # the direction keeps residual inf
                    pass

    passing = table <= tol
    ell_star = np.where(passing.any(axis=1), passing.argmax(axis=1) + 1, 0)

    for m in range(1, ell_max + 1):
        in_set = (ell_star > 0) & (ell_star <= m)
        interior = in_set & ~_has_neighbour_in(P, ~in_set)
        if interior.any():
            V = _largest_component(interior, P.neighbors)
            return SubpencilResult(V, m, ell_star, table, tol)
    return SubpencilResult(np.array([], dtype=int), None, ell_star, table, tol)


def _has_neighbour_in(P: PencilSpec, mask: np.ndarray) -> np.ndarray:
    """Per direction: whether some graph neighbour of it lies in ``mask``."""
    sizes = [len(nb) for nb in P.neighbors]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    nbr = np.concatenate([np.asarray(nb, dtype=int) for nb in P.neighbors])
    return np.bincount(owner[mask[nbr]], minlength=len(sizes)) > 0


def _largest_component(mask: np.ndarray, neighbors) -> np.ndarray:
    seen = np.zeros(len(mask), dtype=bool)
    best: List[int] = []
    for start in range(len(mask)):
        if not mask[start] or seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for j in neighbors[i]:
                if mask[j] and not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        if len(comp) > len(best):
            best = comp
    return np.array(sorted(best), dtype=int)


# -- standard subpencil radius -------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def standard_subpencil_radius(P: PencilSpec, W, *, V=None,
                              mesh: int = 1000) -> float:
    """Largest verified r with {lambda u : u in W, |lambda| < r} inside the
    image of the pencil restricted to V.

    Straight-ray mesh points are inverted through the pencil map by
    damped Gauss-Newton (``_invert_map``, starting from the straight-line
    preimage); a candidate r passes when every inversion converges inside
    the unit disc with preimage direction in V.  Divergence counts as
    "outside the image", shrinking r; dropping below ``_R_FLOOR`` raises.
    Membership in V is one boolean mask over the directions, read both by
    the 2-ring margin check on W and by the test of each candidate r.
    """
    W = np.asarray(W, dtype=int)
    M = P.num_directions
    if V is None:
        in_V = np.ones(M, dtype=bool)
    else:
        v = np.array([int(j) for j in V], dtype=int)
        in_V = np.zeros(M, dtype=bool)
        in_V[v[(v >= 0) & (v < M)]] = True
    if W.size == 0:
        raise ValueError("W must be nonempty")
    # angular margin >= 2 graph cells: the 2-ring of W stays in V
    near_out = ~in_V
    for _ in range(2):
        near_out = near_out | _has_neighbour_in(P, near_out)
    for w in W:
        if w < 0 or near_out[w]:             # a negative w is not in V
            raise PencilCheckError(
                f"direction {w} is within 2 mesh cells of the boundary of V")

    res = P.resolution()
    dir_tree = cKDTree(_realify(P.directions))

    idx = np.arange(mesh)
    mesh_dirs = P.directions[W[idx % len(W)]]
    mesh_rho = 0.05 + 0.90 * ((idx * _GOLDEN) % 1.0)
    mesh_phase = np.exp(2j * np.pi * ((idx * _GOLDEN ** 2) % 1.0))
    last_witness = [None]

    def test(r: float) -> bool:
        lam = r * mesh_rho * mesh_phase
        targets = lam[:, None] * mesh_dirs
        mu, V_dir, ok = _invert_map(P, targets, lam, mesh_dirs,
                                    _NEWTON_ITERS, _NEWTON_TOL)
        bad = ~ok
        bad |= np.abs(mu) >= 1.0 - 1e-9
        _, nearest = dir_tree.query(_realify(V_dir))
        bad |= ~in_V[nearest]
        chord = np.linalg.norm(_realify(V_dir) - _realify(
            P.directions[nearest]), axis=1)
        bad |= chord > 2.0 * res + 1e-9
        if bad.any():
            last_witness[0] = targets[int(np.nonzero(bad)[0][0])]
            return False
        return True

    if test(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if test(mid):
            lo = mid
        else:
            hi = mid
    if lo < _R_FLOOR:
        raise NewtonInversionError(
            f"no verifiable radius above {_R_FLOOR}; inversion failed down to "
            f"r={hi:.3g} at mesh point {last_witness[0]}")
    return lo


def _invert_map(P: PencilSpec, targets, lam0, dirs0, iters: int, tol: float):
    """Batch damped Gauss-Newton solve of map(mu, v) = target.

    Unknowns per point: mu in C and v on the sphere, parametrized by a
    real tangent frame at the current v.  Returns (mu, v, converged).

    The points are independent, so each iteration works on the live
    points only, those whose residual is not yet within tol * scale; a
    converged point is frozen.  The Jacobian is central differences, one
    column per map call, and the step is the minimum-norm Gauss-Newton
    step of ``_gauss_newton_step``.  Each point whose residual grows has
    its step halved, up to three times.
    """
    B, n = targets.shape
    mu = np.array(lam0, dtype=complex)
    V = np.array(dirs0, dtype=complex)
    h = 1e-6
    p = 2 * n + 1                            # unknowns: mu, tangent of v

    def resid(mu_v, V_v, tgt):
        return _realify(P.map_batch(mu_v, V_v) - tgt)

    scale = np.maximum(1.0, np.linalg.norm(_realify(targets), axis=1))
    R = resid(mu, V, targets)
    live = np.arange(B)
    for _ in range(iters):
        rnorm = np.linalg.norm(R[live], axis=1)
        keep = ~(rnorm <= tol * scale[live])     # a nan residual stays live
        live, rnorm = live[keep], rnorm[keep]
        if live.size == 0:
            break
        b = live.size
        mu_l, V_l, tgt = mu[live], V[live], targets[live]
        frames = _tangent_frames(V_l)                # (b, 2n-1, n) complex
        J = np.empty((b, 2 * n, p))
        V_unit = _renormalize(V_l)
        for q, dmu in enumerate((h, 1j * h)):
            J[:, :, q] = (resid(mu_l + dmu, V_unit, tgt)
                          - resid(mu_l - dmu, V_unit, tgt)) / (2 * h)
        for q in range(2, p):
            dV = h * frames[:, q - 2, :]
            J[:, :, q] = (resid(mu_l, _renormalize(V_l + dV), tgt)
                          - resid(mu_l, _renormalize(V_l - dV), tgt)) / (2 * h)
        step = _gauss_newton_step(J, R[live])
        alpha = np.ones(b)

        def trial(rows):
            a = alpha[rows]
            mu_t = mu_l[rows] + a * (step[rows, 0] + 1j * step[rows, 1])
            V_t = _renormalize(V_l[rows] + np.einsum(
                "b,bkn,bk->bn", a, frames[rows], step[rows, 2:]))
            return mu_t, V_t, resid(mu_t, V_t, tgt[rows])

        rows = np.arange(b)
        mu_new, V_new, R_new = trial(rows)
        for _damp in range(3):
            rows = rows[np.linalg.norm(R_new[rows], axis=1) > rnorm[rows]]
            if rows.size == 0:
                break
            alpha[rows] *= 0.5
            mu_new[rows], V_new[rows], R_new[rows] = trial(rows)
        mu[live], V[live], R[live] = mu_new, V_new, R_new
    ok = np.linalg.norm(R, axis=1) <= 10 * tol * scale
    return mu, V, ok


def _gauss_newton_step(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of J step = -R for a stack of wide Jacobians.

    J has shape (b, m, p) with m < p.  When J has full row rank,
    pinv(J) R = J^T (J J^T)^-1 R, so one stacked solve of the (b, m, m)
    Gram matrices replaces one SVD per row.  The Gram matrix squares
    cond(J), so a row whose step is non-finite or misses J step = -R by
    more than 1e-6 |R| takes the pinv step instead, and every row does
    when the stacked solve raises.
    """
    Jt = np.swapaxes(J, 1, 2)
    try:
        y = np.linalg.solve(J @ Jt, R[..., None])
    except np.linalg.LinAlgError:
        return -np.einsum("bij,bj->bi", np.linalg.pinv(J), R)
    step = -(Jt @ y)[..., 0]
    miss = np.linalg.norm(np.einsum("bij,bj->bi", J, step) + R, axis=1)
    bad = ~(np.isfinite(step).all(axis=1)
            & (miss <= 1e-6 * np.linalg.norm(R, axis=1)))
    if bad.any():
        step[bad] = -np.einsum("bij,bj->bi", np.linalg.pinv(J[bad]), R[bad])
    return step


def _renormalize(V: np.ndarray) -> np.ndarray:
    return V / np.linalg.norm(V, axis=-1, keepdims=True)


def _tangent_frames(V: np.ndarray) -> np.ndarray:
    """Real-orthonormal tangent frames of S^(2n-1) at each row of V.

    Uses the Householder reflection mapping e1 to the realified point:
    its remaining columns are an orthonormal basis of the tangent space.
    """
    B, n = V.shape
    d = 2 * n
    X = _realify(V)                                   # (B, d) unit rows
    W = -X.copy()
    W[:, 0] += 1.0                                    # e1 - x
    nsq = np.einsum("bi,bi->b", W, W)
    frames_r = np.broadcast_to(np.eye(d)[1:], (B, d - 1, d)).copy()
    good = nsq > 1e-12
    coef = np.zeros((B, d - 1))
    coef[good] = 2.0 * W[good, 1:] / nsq[good, None]
    frames_r -= coef[:, :, None] * W[:, None, :]
    # x ~ e1 rows keep the canonical frame e2..ed
    return frames_r[:, :, :n] + 1j * frames_r[:, :, n:]
