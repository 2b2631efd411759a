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
vanishes.  Cauchy-Riemann residuals of ambient functions use central
finite differences for the Wirtinger derivatives (the functions are only
assumed C^1, so complex-step tricks are not available).

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


class PencilCheckError(ValueError):
    """A pencil failed one of its structural checks."""


class DegenerateNormalizationError(RuntimeError):
    """H vanished on the whole grid; the verdict is inconclusive."""


class NewtonInversionError(RuntimeError):
    """Map inversion failed below the radius floor."""


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

    def disc(self, lam, index: int) -> np.ndarray:
        """Points of the disc through direction ``index`` at parameters lam."""
        lam = np.asarray(lam, dtype=complex)
        U = np.broadcast_to(self.directions[index], lam.shape + (self.n,))
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
    neigh = [set() for _ in range(M)]
    for i in range(M):
        for j in idx[i][1:]:
            neigh[i].add(int(j))
            neigh[int(j)].add(i)
    return [np.array(sorted(s), dtype=int) for s in neigh]


def standard_pencil(n: int, U) -> PencilSpec:
    """The straight-ray pencil (lambda, u) -> lambda u at the origin."""
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
    return PencilSpec(n=n, base_point=np.zeros(n, dtype=complex),
                      directions=U / norms[:, None], kind="standard")


def pencil_from_exprs(n: int, map_exprs, directions,
                      base_point=None, *, validate: bool = True,
                      holo_tol: float = 1e-8, mesh_tol: float = 1e-10
                      ) -> PencilSpec:
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
    U = np.atleast_2d(np.asarray(directions, dtype=complex))
    norms = np.linalg.norm(U, axis=1)
    U = U / norms[:, None]
    p = (np.zeros(n, dtype=complex) if base_point is None
         else np.asarray(base_point, dtype=complex))
    spec = PencilSpec(n=n, base_point=p, directions=U, kind="general",
                      map_exprs=exprs)
    if validate:
        _validate_pencil(spec, holo_tol, mesh_tol)
    return spec


def _validate_pencil(spec: PencilSpec, holo_tol: float, mesh_tol: float):
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
            if res > holo_tol:
                raise PencilCheckError(
                    f"disc through {u} has component {j+1} residual {res:.3g}")
    # mesh injectivity on pairs, modulo genuine cone identifications
    radii = np.array([0.25, 0.55, 0.85])
    phases = np.exp(2j * np.pi * np.arange(6) / 6)
    lam = (radii[:, None] * phases[None, :]).ravel()
    L = np.tile(lam, len(sub))
    D = np.repeat(sub, lam.size, axis=0)
    images = spec.map_batch(L, D)
    cone = L[:, None] * D
    tree = cKDTree(_realify(images))
    for i, j in tree.query_pairs(mesh_tol):
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

def disc_holo_residual(g: Callable, rho: float, modes: int = 16) -> float:
    """Antiholomorphic Fourier content of lambda -> g(lambda) on |lambda|=rho.

    Samples 4*modes points; the residual is the largest modulus over
    negative-index Fourier coefficients, normalized by max(1, largest
    coefficient).  Zero (to quadrature accuracy) iff the samples come
    from a holomorphic function of lambda.
    """
    if modes < 16:
        raise ValueError("modes must be >= 16")
    count = 4 * modes
    lam = rho * np.exp(2j * np.pi * np.arange(count) / count)
    vals = np.asarray(g(lam), dtype=complex)
    if vals.shape != lam.shape:
        vals = np.broadcast_to(vals, lam.shape)
    if not np.all(np.isfinite(vals)):
        raise EvalError(f"non-finite disc samples at radius {rho}")
    c = np.fft.fft(vals) / count
    neg = c[count // 2:]          # indices -count/2 .. -1
    return float(np.abs(neg).max() / max(1.0, np.abs(c).max()))


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
        vals = [r.residual for r in self.residuals if r.error is None]
        return max(vals, default=math.nan)


def check_holo_along_pencil(f, P: PencilSpec,
                            rho_schedule: Sequence[float] = (0.3, 0.6, 0.9),
                            tol: float = 1e-8, modes: int = 16
                            ) -> PencilHoloResult:
    """Residual of lambda -> f(map(lambda, u)) per direction and radius."""
    from .expr import as_callable
    func = as_callable(f, P.n)
    out = []
    ok = True
    for i in range(P.num_directions):
        for rho in rho_schedule:
            entry = DiscResidual(i, tuple(P.directions[i]), float(rho),
                                 math.nan)
            try:
                g = lambda lam: func(tuple(np.moveaxis(P.disc(lam, i), -1, 0)))
                entry.residual = disc_holo_residual(g, rho, modes)
                if not entry.residual <= tol:
                    ok = False
            except Exception as exc:       # per-disc failures are non-fatal
                entry.error = str(exc)
                ok = False
            out.append(entry)
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


def cr_residual_on_points(f, points: np.ndarray, delta: float = 1e-5
                          ) -> np.ndarray:
    """max_j |d f / dzbar_j| per point; +inf where evaluation fails."""
    try:
        vals = np.abs(wirtinger_dbar(f, points, delta)).max(axis=-1)
    except Exception:
        return np.full(points.shape[:-1], np.inf)
    return np.where(np.isfinite(vals), vals, np.inf)


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


def tilde_normalize(P: PencilSpec, v0, eps: float = 0.4, *,
                    z2_samples: int = 12, newton_tol: float = 1e-12,
                    fd_step: float = 1e-6, tol_k0: float = 1e-8,
                    tol_slope: float = 1e-6, tol_holo: float = 1e-8
                    ) -> KData:
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
        d0 = (htilde(np.array([fd_step]), z2)[0, 0]
              - htilde(np.array([-fd_step]), z2)[0, 0]) / (2 * fd_step)
        if abs(d0) < 1e-12:
            raise PencilCheckError(
                f"disc map degenerate along z1 at z2={z2}: a'(0)={d0:.3g}")
        zeta = flat / d0
        target = flat
        for _ in range(60):
            vals = htilde(zeta, z2)
            a = vals[:, 0]
            err = a - target
            if np.abs(err).max() <= newton_tol * max(1.0, np.abs(target).max()):
                break
            da = (htilde(zeta + fd_step, z2)[:, 0]
                  - htilde(zeta - fd_step, z2)[:, 0]) / (2 * fd_step)
            da = np.where(np.abs(da) < 1e-14, 1e-14, da)
            zeta = zeta - err / da
        else:
            raise NewtonInversionError(
                f"first-component inversion stalled at z2={z2}")
        return htilde(zeta, z2)[:, 1].reshape(w.shape)

    # admissibility checks
    failures = []
    z2s = 0.5 * eps * np.exp(2j * np.pi * np.arange(z2_samples) / z2_samples)
    k0 = np.array([k_func(np.zeros(1), z2)[0] for z2 in z2s])
    worst_k0 = float(np.abs(k0).max())
    if worst_k0 > tol_k0:
        failures.append(f"k(0, z2) as large as {worst_k0:.3g}")
    step = 1e-5
    slopes = np.array([
        (k_func(np.array([step]), z2)[0] - k_func(np.array([-step]), z2)[0])
        / (2 * step) for z2 in z2s])
    worst_slope = float(np.abs(slopes - z2s).max())
    if worst_slope > tol_slope:
        failures.append(f"dk/dz1(0, z2) off z2 by {worst_slope:.3g}")
    worst_holo = 0.0
    for z2 in z2s[:: max(1, z2_samples // 6)]:
        res = disc_holo_residual(lambda lam: k_func(lam, z2), 0.4 * eps)
        worst_holo = max(worst_holo, res)
    if worst_holo > tol_holo:
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


def compute_H_G(f, kdata: KData, z1_grid, delta: float = 1e-5, *,
                tol_G: float = 1e-6, h_floor: float = 1e-9) -> HGResult:
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
    if float(np.abs(H).max()) < h_floor:
        raise DegenerateNormalizationError(
            "H below the floor on the whole grid; normalization degenerate, "
            "verdict inconclusive")
    passed = bool(max_G <= tol_G and min_H >= h_floor)
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
    """
    from .expr import as_callable
    func = as_callable(f, P.n)
    M = P.num_directions
    # master disc sample: one ring per ell plus deep interior points, so the
    # points with |lam| <= 1/ell sample every smaller disc as well
    rings = np.array([0.93 / j for j in range(1, ell_max + 1)] + [0.02])
    phase = np.exp(2j * np.pi * np.arange(phases) / phases)
    lam = (rings[:, None] * phase[None, :]).ravel()

    table = np.full((M, ell_max), np.inf)
    for i in range(M):
        U = np.broadcast_to(P.directions[i], lam.shape + (P.n,))
        try:
            pts = P.map_batch(lam, U)
            res = cr_residual_on_points(func, pts, delta)
        except Exception:
            continue
        for ell in range(1, ell_max + 1):
            mask = np.abs(lam) <= 1.0 / ell
            table[i, ell - 1] = float(res[mask].max())

    ell_star = np.zeros(M, dtype=int)
    for i in range(M):
        passing = np.nonzero(table[i] <= tol)[0]
        ell_star[i] = passing[0] + 1 if passing.size else 0

    for m in range(1, ell_max + 1):
        in_set = (ell_star > 0) & (ell_star <= m)
        interior = np.array([
            in_set[i] and all(in_set[j] for j in P.neighbors[i])
            for i in range(M)])
        if interior.any():
            V = _largest_component(interior, P.neighbors)
            return SubpencilResult(V, m, ell_star, table, tol)
    return SubpencilResult(np.array([], dtype=int), None, ell_star, table, tol)


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


def standard_subpencil_radius(P: PencilSpec, W, *, V=None, mesh: int = 1000,
                              bisect_steps: int = 10, newton_iters: int = 30,
                              newton_tol: float = 1e-10,
                              r_floor: float = 1e-6) -> float:
    """Largest verified r with {lambda u : u in W, |lambda| < r} inside the
    image of the pencil restricted to V.

    Straight-ray mesh points are inverted through the pencil map by
    damped Gauss-Newton (starting from the straight-line preimage); a
    candidate r passes when every inversion converges inside the unit
    disc with preimage direction in V.  Divergence counts as "outside
    the image", shrinking r; dropping below ``r_floor`` raises.
    """
    W = np.asarray(W, dtype=int)
    V_set = set(range(P.num_directions)) if V is None else set(int(v) for v in V)
    if W.size == 0:
        raise ValueError("W must be nonempty")
    # angular margin >= 2 graph cells: the 2-ring of W stays in V
    for w in W:
        ring = set(P.neighbors[w].tolist()) | {int(w)}
        ring2 = set()
        for i in ring:
            ring2 |= set(P.neighbors[i].tolist())
        if not (ring | ring2) <= V_set:
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
                                    newton_iters, newton_tol)
        bad = ~ok
        bad |= np.abs(mu) >= 1.0 - 1e-9
        _, nearest = dir_tree.query(_realify(V_dir))
        bad |= ~np.array([int(j) in V_set for j in nearest])
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
    for _ in range(bisect_steps):
        mid = 0.5 * (lo + hi)
        if test(mid):
            lo = mid
        else:
            hi = mid
    if lo < r_floor:
        raise NewtonInversionError(
            f"no verifiable radius above {r_floor}; inversion failed down to "
            f"r={hi:.3g} at mesh point {last_witness[0]}")
    return lo


def _invert_map(P: PencilSpec, targets, lam0, dirs0, iters: int, tol: float):
    """Batch damped Gauss-Newton solve of map(mu, v) = target.

    Unknowns per point: mu in C and v on the sphere, parametrized by a
    real tangent frame at the current v.  Returns (mu, v, converged).
    """
    B, n = targets.shape
    mu = np.array(lam0, dtype=complex)
    V = np.array(dirs0, dtype=complex)
    h = 1e-6

    def resid(mu_v, V_v):
        return _realify(P.map_batch(mu_v, V_v) - targets)

    scale = np.maximum(1.0, np.linalg.norm(_realify(targets), axis=1))
    for _ in range(iters):
        R = resid(mu, V)
        rnorm = np.linalg.norm(R, axis=1)
        if np.all(rnorm <= tol * scale):
            break
        frames = _tangent_frames(V)                  # (B, 2n-1, n) complex
        p = 2 * n + 1
        J = np.empty((B, 2 * n, p))
        for q in range(p):
            dmu = np.zeros(B, dtype=complex)
            dV = np.zeros_like(V)
            if q == 0:
                dmu = np.full(B, h, dtype=complex)
            elif q == 1:
                dmu = np.full(B, 1j * h, dtype=complex)
            else:
                dV = h * frames[:, q - 2, :]
            Vp = _renormalize(V + dV)
            Vm = _renormalize(V - dV)
            J[:, :, q] = (resid(mu + dmu, Vp) - resid(mu - dmu, Vm)) / (2 * h)
        step = -np.einsum("bij,bj->bi", np.linalg.pinv(J), R)
        alpha = np.ones(B)
        for _damp in range(4):
            mu_new = mu + alpha * (step[:, 0] + 1j * step[:, 1])
            V_new = _renormalize(V + np.einsum(
                "b,bkn,bk->bn", alpha, frames, step[:, 2:]))
            worse = np.linalg.norm(resid(mu_new, V_new), axis=1) > rnorm
            if not worse.any():
                break
            alpha = np.where(worse, alpha * 0.5, alpha)
        mu, V = mu_new, V_new
    R = resid(mu, V)
    ok = np.linalg.norm(R, axis=1) <= 10 * tol * scale
    return mu, V, ok


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
