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
``series.torus_modes``.  Every derivative of an expression is exact:
the pencil map's (the standard map in closed form, a general map by
forward-mode evaluation, ``expr.evaluate_jvp``) and the Wirtinger
derivatives of an ambient ``Expr`` function, which give the
Cauchy-Riemann residuals, the normalization and its invariants.  Only a
plain callable passed through the API is differenced (``_wirtinger``).

The direction sample carries an angular nearest-neighbour graph; "open
subsets" of U are connected graph patches with their neighbourhoods, and
the subpencil search replaces the Baire-category argument by an explicit
smallest-disc-index patch search over that graph.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import (EvalError, Expr, as_callable, evaluate, evaluate_jvp,
                   parse)
from .series import _realify, chunks, torus, torus_modes


class PencilCheckError(ValueError):
    """A pencil failed one of its structural checks."""


class DegenerateNormalizationError(RuntimeError):
    """H vanished on the whole grid; the verdict is inconclusive."""


class NewtonInversionError(RuntimeError):
    """Map inversion failed below the radius floor."""


# fixed numerical settings, grouped by the function that reads them
_DISC_SAMPLES = 64           # the disc checks: samples per circle
_PENCIL_HOLO_TOL = 1e-8      # pencil_from_exprs: disc residual per component
_PENCIL_MESH_TOL = 1e-10     # and the distance at which mesh images coincide
_Z2_SAMPLES = 12             # tilde_normalize: the z2 ring of its checks,
_NORMALIZE_NEWTON_TOL = 1e-12    # its first-component Newton solve,
_TOL_K0 = 1e-8               # and the bounds of its three checks
_TOL_SLOPE = 1e-6
_TOL_HOLO = 1e-8
_H_FLOOR = 1e-9              # compute_H_G: the floor |H| must clear
_BISECT_STEPS = 10           # standard_subpencil_radius: bisection on r,
_NEWTON_ITERS = 30           # the inversion's iterations and tolerance,
_NEWTON_TOL = 1e-10
_R_FLOOR = 1e-6              # and the radius below which no r is verified
_SUBPENCIL_PHASES = 8        # find_subpencil: disc phases per ring


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


def load_directions(spec, n: int, seed: int) -> np.ndarray:
    """The raw rows of a direction set in C^n, as given.

    ``spec`` is a ``preset_directions`` string (seeded by ``seed`` when
    it names no seed), the path of a JSON file holding a list of
    directions, or such a list itself; each direction is a list of
    [re, im] component pairs of finite numbers.  A list of another form,
    or with a NaN, an infinity or an integer beyond the float range (JSON
    admits all three), raises ValueError naming its first bad row.
    """
    if isinstance(spec, str):
        try:
            return preset_directions(spec, n, seed)
        except ValueError:
            if not os.path.exists(spec):
                raise
        with open(spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    rows = np.array(spec, dtype=object)
    if rows.size == 0 and rows.ndim <= 2:    # no direction: checked later
        return rows.astype(complex)
    if not (isinstance(spec, list) and rows.ndim == 3 and rows.shape[2] == 2
            and all(map(_is_number, rows.flat))):
        raise ValueError(_bad_directions(spec))
    # the [re, im] float pairs read as complex: complex(re, im) bit for bit
    return rows.astype(float).view(complex)[..., 0]


def _is_number(x) -> bool:
    """Whether x is an int or float that reads as a finite float."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def _bad_directions(spec) -> str:
    """Why ``spec`` is not a list of rows of [re, im] number pairs, naming
    its first bad row."""
    what = "directions must be a list of rows of [re, im] number pairs"
    if not isinstance(spec, list):
        return f"{what}, not a {type(spec).__name__}"
    for i, vec in enumerate(spec):
        if not (isinstance(vec, list) and len(vec) == len(spec[0])
                and all(isinstance(c, list) and len(c) == 2
                        and all(map(_is_number, c))
                        for c in vec)):
            return f"{what}; row {i} is {vec!r}"
    return what


# -- pencil spec ---------------------------------------------------------------

@dataclass
class PencilSpec:
    """A sampled pencil of holomorphic discs.

    ``map_batch(lam, U)`` evaluates the disc map elementwise on arrays of
    disc parameters and directions.  ``neighbors[i]`` lists the indices
    adjacent to direction i in the angular graph, built on first read.
    """

    n: int
    base_point: np.ndarray
    directions: np.ndarray              # (M, n) unit vectors
    kind: str                           # "standard" | "general"
    map_exprs: Optional[Tuple[Expr, ...]] = None

    @cached_property
    def neighbors(self) -> List[np.ndarray]:
        return _angular_graph(self.directions)

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

    def map_tangents(self, lam, U, dlam, dU):
        """The map and its derivatives along real tangent directions.

        Components come first here: lam has shape (b,) and U (n, b); dlam
        and dU are their tangents along p directions, broadcastable to
        (p, b) and (n, p, b).  Returns the values, (n, b), and the
        derivatives, (n, p, b): the product rule for the standard map,
        ``evaluate_jvp`` otherwise.
        """
        if self.kind == "standard":
            return lam * U, dlam * U[:, None] + lam * dU
        comps, tans = (lam,) + tuple(U), (dlam,) + tuple(dU)
        out = [evaluate_jvp(e, comps, tans) for e in self.map_exprs]
        return (np.stack([np.broadcast_to(v, lam.shape) for v, _ in out]),
                np.stack([d for _, d in out]))

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
        from scipy.spatial import cKDTree
        X = _realify(self.directions)
        take = min(len(X), 512)
        d = cKDTree(X).query(X[:take], k=2)[0][:, 1]
        # chordal ~ angular for fine samples
        return float(np.median(2.0 * np.arcsin(np.clip(d / 2.0, 0, 1))))


def _angular_graph(directions: np.ndarray, k: int = 8) -> List[np.ndarray]:
    M = len(directions)
    if M == 1:
        return [np.array([], dtype=int)]
    from scipy.spatial import cKDTree
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
    finite = np.isfinite(U).all(axis=1)
    if not finite.all():
        raise PencilCheckError(f"non-finite direction {np.argmin(finite)} "
                               "in direction set")
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
    conj(u_k).  Validation checks per-disc holomorphy of sampled discs,
    the base point map(0, u) = p at every direction (a non-finite
    map(0, u) fails it), and injectivity of the map on a sampled mesh
    (two mesh pairs may share an image only if they describe the same
    point lambda*u of the parameter cone).
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
    samples = []

    def components(lam):
        # lam is (component, direction, sample), the same for every
        # component; the map's values, one component per row, and their
        # derivatives along the lambda tangents 1 and i
        vals, dh = spec.map_tangents(lam[0], sub.T[:, :, None],
                                     np.array([1, 1j])[:, None, None],
                                     np.zeros((spec.n, 1, 1, 1)))
        samples.append((vals, dh))
        return vals

    rho = 0.9
    res = _holo_residuals(components, np.full((spec.n, len(sub)), rho))
    # d/dlambdabar on the FFT check's scale: the negative modes miss a
    # lambda that enters through |lambda|^2, the exact derivative does not;
    # a non-finite circle enters as zeros, as in the FFT check
    finite = ~np.isnan(res)
    vals, dh = samples[0]
    dh = np.where(finite[:, None, :, None], dh, 0)
    scale = np.fmax(1.0, np.abs(torus_modes(
        np.where(finite[..., None], vals, 0), 1)).max(axis=-1))
    dbar = 0.5 * np.abs(dh[:, 0] + 1j * dh[:, 1]).max(axis=-1) / scale
    # the first bad disc in direction order, then component order
    bad = (~np.isfinite(res) | (res > _PENCIL_HOLO_TOL)
           | (dbar > _PENCIL_HOLO_TOL)).T
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), spec.n)
        if not np.isfinite(res[j, i]):
            raise _disc_error(res[j, i], rho)
        if res[j, i] > _PENCIL_HOLO_TOL:
            raise PencilCheckError(f"disc through {sub[i]} has component "
                                   f"{j+1} residual {res[j, i]:.3g}")
        raise PencilCheckError(f"disc through {sub[i]} has component {j+1} "
                               f"with |d/dlambdabar| {dbar[j, i]:.3g}")
    # one point per direction, so every direction is checked; after the
    # discs, so that a map overflowing on them is a numerical failure
    at0 = spec.map_batch(np.zeros(spec.num_directions), spec.directions)
    worst = float(np.abs(at0 - spec.base_point).max())
    if not worst <= 1e-10:          # a nan from a non-finite map(0, u) too
        raise PencilCheckError(
            f"map(0, u) differs from the base point by {worst:.3g}")
    # mesh injectivity on pairs, modulo genuine cone identifications
    radii = np.array([0.25, 0.55, 0.85])
    phases = torus((1.0,), 6)[0]
    lam = (radii[:, None] * phases[None, :]).ravel()
    L = np.tile(lam, len(sub))
    D = np.repeat(sub, lam.size, axis=0)
    points = _realify(spec.map_batch(L, D))
    # |x - y|^2 <= max |2x|^2, |2y|^2: finite doubled squared norms keep
    # the tree's squared distances finite
    with np.errstate(over="ignore", invalid="ignore"):
        huge = np.flatnonzero(~np.isfinite(np.sum((2 * points) ** 2, axis=1)))
    if huge.size:
        raise EvalError("mesh image overflows at (lambda, u) = "
                        f"{(L[huge[0]].item(), tuple(D[huge[0]].tolist()))}")
    from scipy.spatial import cKDTree
    cone = L[:, None] * D
    tree = cKDTree(points)
    for i, j in tree.query_pairs(_PENCIL_MESH_TOL):
        if np.abs(cone[i] - cone[j]).max() > 1e-8:
            raise PencilCheckError(
                "mesh injectivity violated: parameters "
                f"{(L[i].item(), tuple(D[i].tolist()))} and "
                f"{(L[j].item(), tuple(D[j].tolist()))} share an image")


def load_pencil(source) -> PencilSpec:
    """Load a pencil from the JSON file format.

    Keys: n (a positive integer); map (list of expressions in l,
    u1..un); directions (what ``load_directions`` reads, a preset seeded
    with 0 when it names no seed); optional p (base point, a direction
    row; nonzero only with a map).  A bad n or p raises ValueError.
    """
    if isinstance(source, (str,)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"pencil file {source}: the top level must be "
                             "a JSON object")
    else:
        data = dict(source)
    if "n" not in data:
        raise ValueError('pencil has no "n" (the dimension)')
    n = data["n"]
    if type(n) is not int or n < 1:         # JSON true is not a dimension
        raise ValueError(f'pencil "n" must be a positive integer, not {n!r}')
    try:                    # one row of n [re, im] pairs, as a direction
        p = load_directions([data.get("p", [[0, 0]] * n)], n, 0)[0]
    except ValueError:
        p = None
    if p is None or p.shape != (n,):
        raise ValueError(f'pencil "p" must be one row of {n} [re, im] '
                         f'number pairs, not {data["p"]!r}')
    if p.any() and "map" not in data:
        raise ValueError('pencil "p" is nonzero but there is no "map": '
                         "the standard pencil has base point 0")
    U = load_directions(data.get("directions", "sphere:200"), n, 0)
    if "map" in data:
        return pencil_from_exprs(n, data["map"], U, p)
    return standard_pencil(n, U)


# -- disc holomorphy residuals -------------------------------------------------

def _holo_residuals(g: Callable, rho) -> np.ndarray:
    """The disc residual of g on the circles |lambda| = rho, one per rho.

    ``rho`` is a scalar or an array of radii; g gets the samples as an
    array rho.shape + (_DISC_SAMPLES,).  A residual is nan where the
    circle's samples are not all finite (they enter the FFT as zeros) and
    inf where they are but their transform overflows.
    """
    lam = np.asarray(rho, dtype=float)[..., None] * torus(
        (1.0,), _DISC_SAMPLES)[0]
    vals = np.broadcast_to(np.asarray(g(lam), dtype=complex), lam.shape)
    finite = np.isfinite(vals).all(axis=-1)
    mag = np.abs(torus_modes(np.where(finite[..., None], vals, 0), 1))
    # indices -_DISC_SAMPLES/2 .. -1 are the negative modes; inf / inf
    # comes only from an overflowed transform, which the inf below marks
    with np.errstate(invalid="ignore"):
        res = (mag[..., _DISC_SAMPLES // 2:].max(axis=-1)
               / np.fmax(1.0, mag.max(axis=-1)))
    return np.where(finite, np.where(np.isfinite(mag).all(axis=-1), res,
                                     np.inf), np.nan)


def _disc_error(res, rho) -> EvalError:
    """The error of a circle of radius rho whose residual is not finite."""
    what = ("non-finite disc samples" if np.isnan(res)
            else "disc transform overflows")
    return EvalError(f"{what} at radius {rho}")


def disc_holo_residual(g: Callable, rho: float) -> float:
    """Antiholomorphic Fourier content of lambda -> g(lambda) on |lambda|=rho.

    Samples _DISC_SAMPLES = 64 points; the residual is the largest modulus
    over negative-index Fourier coefficients, normalized by max(1, largest
    coefficient).  Zero (to quadrature accuracy) iff the samples come
    from a holomorphic function of lambda.  Raises EvalError when a
    sample is not finite, or when the samples are but their transform
    overflows.
    """
    res = _holo_residuals(g, rho)
    if not np.isfinite(res):
        raise _disc_error(res, rho)
    return float(res)


@dataclass
class PencilHoloResult:
    """The disc check of a pencil: one disc per direction and radius.

    ``residuals`` holds one residual per disc, direction-major (disc
    i * len(radii) + r is direction i at radii[r]), nan where the disc
    raised; ``errors`` maps each such disc index to its error text.
    """

    residuals: np.ndarray
    radii: np.ndarray
    errors: Dict[int, str]
    tol: float
    passed: bool

    def _worst_disc(self) -> Optional[int]:
        """The first error-free disc with the largest residual, if any."""
        clean = np.delete(np.arange(len(self.residuals)), list(self.errors))
        if not clean.size:
            return None
        return int(clean[np.argmax(self.residuals[clean])])

    def worst(self) -> float:
        k = self._worst_disc()
        return math.nan if k is None else float(self.residuals[k])

    def evidence(self) -> dict:
        """Report details: where the worst disc is, how many discs failed
        to evaluate, and the first of them with its error."""
        k, first = self._worst_disc(), min(self.errors, default=None)
        R = len(self.radii)
        return {"worst_direction_index": None if k is None else k // R,
                "worst_radius": None if k is None else float(self.radii[k % R]),
                "discs_with_error": len(self.errors),
                "first_error": None if first is None else {
                    "direction_index": first // R,
                    "radius": float(self.radii[first % R]),
                    "error": self.errors[first]}}


def check_holo_along_pencil(f, P: PencilSpec,
                            rho_schedule: Sequence[float] = (0.3, 0.6, 0.9),
                            tol: float = 1e-8) -> PencilHoloResult:
    """Residual of lambda -> f(map(lambda, u)) per direction and radius.

    Every entry is what ``disc_holo_residual`` gives on that disc alone.
    The directions are evaluated in chunks of at most DISC_CHUNK_SAMPLES
    samples, every radius of a direction in the same chunk: one map
    call, one f call and one row FFT per chunk, on a (directions, radii,
    samples) array, so f must act pointwise on coordinate arrays of any
    shape.  A disc whose chunk raises, or whose residual is not finite,
    is redone on its own, so an error stays with its own disc and keeps
    its message.
    """
    func = as_callable(f, P.n)

    def on_discs(di):
        """lambda -> f(map(lambda, u)) on the discs through directions di."""
        return lambda lam: func(tuple(np.moveaxis(P.disc(lam, di), -1, 0)))

    radii = np.asarray(rho_schedule, dtype=float)
    res = np.empty((P.num_directions, len(radii)))
    for start, stop in chunks(P.num_directions,
                              len(radii) * _DISC_SAMPLES):
        try:
            res[start:stop] = _holo_residuals(
                on_discs(np.arange(start, stop)),
                np.broadcast_to(radii, (stop - start, len(radii))))
        except Exception:          # every disc of the chunk is redone
            res[start:stop] = np.nan
    res = res.ravel()
    errors = {}
    for k in np.flatnonzero(~np.isfinite(res)).tolist():
        i, r = divmod(k, len(radii))
        try:
            res[k] = disc_holo_residual(on_discs(i), float(radii[r]))
        except Exception as exc:   # per-disc failures are non-fatal
            res[k], errors[k] = math.nan, str(exc)
    return PencilHoloResult(res, radii, errors, tol,
                            not errors and bool((res <= tol).all()))


# -- Wirtinger derivatives of ambient functions --------------------------------

def _wirtinger(f, points: np.ndarray, delta: float = 1e-5):
    """d/dz_j and d/dzbar_j of f at an array of points (..., n).

    Returns two arrays (..., n), (D_x - i D_y)/2 and (D_x + i D_y)/2 from
    the derivatives along the real and imaginary axis of each z_j.  An
    ``Expr`` gets them exactly, from one ``evaluate_jvp`` call along the
    2n coordinate tangents on one leading axis; a callable by central
    differences with step delta, the one difference step of this module.
    """
    points = np.asarray(points, dtype=complex)
    n = points.shape[-1]
    if isinstance(f, Expr):
        eye = np.kron(np.eye(n), [[1.0], [1j]])      # rows: x_1, y_1, x_2, ..
        D = evaluate_jvp(f, tuple(np.moveaxis(points, -1, 0)), tuple(
            eye.T.reshape((n, 2 * n) + (1,) * (points.ndim - 1))))[1]
    else:
        def shifted(j, step):
            q = points.copy()
            q[..., j] = q[..., j] + step
            return np.broadcast_to(np.asarray(f(tuple(np.moveaxis(q, -1, 0))),
                                              dtype=complex), points.shape[:-1])
        D = np.stack([(shifted(j, s * delta) - shifted(j, -s * delta))
                      / (2.0 * delta) for j in range(n) for s in (1, 1j)])
    dx, dy = np.moveaxis(D[0::2], 0, -1), np.moveaxis(D[1::2], 0, -1)
    return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)


def wirtinger_dbar(f, points: np.ndarray, delta: float = 1e-5) -> np.ndarray:
    """d/dzbar_j of f at an array of points (..., n), as an array (..., n):
    the second half of ``_wirtinger``, exact for an ``Expr``."""
    return _wirtinger(f, points, delta)[1]


# -- the disc-map normalization (n = 2) ----------------------------------------

@dataclass
class KData:
    """Normalized disc-map data h~(z1, z2) = (z1, k(z1, z2)).

    ``k(w, z2)`` broadcasts over w and z2, and ``dk(w, z2)`` gives its
    derivatives there, (dk/dw, dk/dz2, dk/dz2bar).  ``rotation`` maps
    original coordinates to the working frame in which the chosen
    direction is (1, 0).
    """

    v0: np.ndarray
    rotation: np.ndarray
    eps: float
    k: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dk: Callable[[np.ndarray, np.ndarray], Tuple[np.ndarray, ...]]
    checks: dict = field(default_factory=dict)


def tilde_normalize(P: PencilSpec, v0, eps: float = 0.4) -> KData:
    """Normalize the pencil near the direction v0 (dimension 2 only).

    Rotates coordinates so v0 becomes (1, 0), forms the two-parameter
    disc map h~(z1, z2) = map at the cone point z1 * (1, z2), and inverts
    its first component along each disc (complex Newton) so the map
    takes the shape (z1, k(z1, z2)).  Verifies that k is holomorphic in
    z1, vanishes at z1 = 0, and has first z1-derivative equal to z2;
    failure of any of these raises PencilCheckError (pencil not
    admissible at v0).  Every derivative is exact: h~'s come from one
    ``map_tangents`` call along zeta, Re z2 and Im z2, and k's from them
    by implicit differentiation of the Newton solve.
    """
    if P.n != 2:
        raise ValueError("normalization is implemented for n = 2 only")
    v0_arr = np.asarray(v0, dtype=complex) / np.linalg.norm(v0)
    inner = float(np.real(P.directions @ np.conj(v0_arr)).max())
    gap = math.acos(min(max(inner, -1.0), 1.0))
    if gap > 4.0 * max(P.resolution(), 1e-12):
        warnings.warn(f"v0 is {gap:.3g} rad from the nearest sampled "
                      "direction; the pencil is extrapolated there")
    Q = np.array([np.conj(v0_arr), [-v0_arr[1], v0_arr[0]]])   # v0 -> e1
    Qh = Q.conj().T
    dzeta, dz2 = np.array([[1.0], [0.0], [0.0]]), np.array([[0.0], [1.0], [1j]])

    def htilde(zeta, z2):
        """h~ on flat arrays (zeta, z2) in rotated coords, (2, b), and its
        derivatives along zeta, Re z2 and Im z2, (2, 3, b)."""
        s = np.sqrt(1.0 + np.abs(z2) ** 2)
        ds = (np.conj(z2) * dz2).real / s
        u = np.stack([np.ones_like(z2), z2]) / s
        du = (np.stack([0 * dz2, dz2]) - u[:, None] * ds) / s
        val, D = P.map_tangents(zeta * s, Qh @ u, dzeta * s + zeta * ds,
                                np.einsum("ij,jpb->ipb", Qh, du))
        return Q @ val, np.einsum("ij,jpb->ipb", Q, D)

    def solve(w, z2):
        """h~ and its derivatives where h~_1(zeta, z2) = w, by Newton, on
        the broadcast shape of w and z2."""
        w, z2 = np.broadcast_arrays(np.asarray(w, dtype=complex),
                                    np.asarray(z2, dtype=complex))
        shape, w, z2 = w.shape, w.ravel(), z2.ravel()
        d0 = htilde(np.zeros_like(w), z2)[1][0, 0]    # a'(0) seeds Newton
        if (np.abs(d0) < 1e-12).any():
            i = int(np.argmax(np.abs(d0) < 1e-12))
            raise PencilCheckError(f"disc map degenerate along z1 at "
                                   f"z2={z2[i]}: a'(0)={d0[i]:.3g}")
        zeta = w / d0
        for _ in range(60):
            val, D = htilde(zeta, z2)
            err = val[0] - w
            if np.abs(err).max() <= _NORMALIZE_NEWTON_TOL * max(
                    1.0, np.abs(w).max()):
                return val.reshape((2,) + shape), D.reshape((2, 3) + shape)
            da = np.where(np.abs(D[0, 0]) < 1e-14, 1e-14, D[0, 0])
            zeta = zeta - err / da
        raise NewtonInversionError("first-component inversion stalled at "
                                   f"z2={z2[np.argmax(np.abs(err))]}")

    def derivatives(D):
        """(dk/dw, dk/dz2, dk/dz2bar) from h~'s derivatives at a solution:
        implicit, as h~_1 = w stays fixed."""
        k_w = D[1, 0] / D[0, 0]
        kx, ky = D[1, 1:] - k_w * D[0, 1:]
        return k_w, 0.5 * (kx - 1j * ky), 0.5 * (kx + 1j * ky)

    k = lambda w, z2: solve(w, z2)[0][1]
    # admissibility checks, each one array call over the z2 ring
    failures = []
    z2s = torus((0.5 * eps,), _Z2_SAMPLES)[0]
    k0, D = solve(0.0, z2s)
    worst_k0 = float(np.abs(k0[1]).max())
    if worst_k0 > _TOL_K0:
        failures.append(f"k(0, z2) as large as {worst_k0:.3g}")
    worst_slope = float(np.abs(derivatives(D)[0] - z2s).max())
    if worst_slope > _TOL_SLOPE:
        failures.append(f"dk/dz1(0, z2) off z2 by {worst_slope:.3g}")
    rows, rho = z2s[:: max(1, _Z2_SAMPLES // 6), None], 0.4 * eps
    res = _holo_residuals(lambda lam: k(lam, rows), np.full(len(rows), rho))
    if not np.isfinite(res).all():
        raise _disc_error(res[~np.isfinite(res)][0], rho)
    worst_holo = float(res.max())
    if worst_holo > _TOL_HOLO:
        failures.append(f"k not holomorphic in z1: residual {worst_holo:.3g}")
    if failures:
        raise PencilCheckError(
            "pencil not admissible at v0: " + "; ".join(failures))
    checks = {"max_abs_k0": worst_k0, "max_slope_defect": worst_slope,
              "max_holo_residual": worst_holo, "eps": eps}
    return KData(v0=np.asarray(v0, dtype=complex), rotation=Q, eps=eps,
                 k=k, dk=lambda w, z2: derivatives(solve(w, z2)[1]),
                 checks=checks)


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
    into the holomorphic expression that factors as H * df/dwbar, F's by
    the chain rule.  A pass (G below tol_G, H bounded away from zero on
    the punctured grid) certifies df/dwbar = 0 along the v0 disc, the
    equation across it with z1 held fixed; holomorphy along the disc is
    hypothesis (2), which ``pencil-check`` tests.
    """
    z1 = np.asarray(z1_grid, dtype=complex)
    as_callable(f, 2)          # checks an Expr's variables
    _, k_z2, k_z2bar = kdata.dk(z1, 0.0)
    H = np.abs(k_z2bar) ** 2 - np.abs(k_z2) ** 2

    # w is coordinate 1 of the complex-linear map back to the original frame
    Qh = kdata.rotation.conj().T
    pts = np.stack([z1, kdata.k(z1, 0.0)], axis=-1) @ Qh.T
    f_z, f_zbar = _wirtinger(f, pts)
    f_w, f_wbar = f_z @ Qh[:, 1], f_zbar @ np.conj(Qh[:, 1])
    F_z2 = f_w * k_z2 + f_wbar * np.conj(k_z2bar)
    F_z2bar = f_w * k_z2bar + f_wbar * np.conj(k_z2)
    G = k_z2bar * F_z2 - k_z2 * F_z2bar

    max_G = float(np.abs(G).max())
    min_H = float(np.abs(H).min())
    if float(np.abs(H).max()) < _H_FLOOR:
        raise DegenerateNormalizationError(
            "H below the floor on the whole grid; normalization degenerate, "
            "verdict inconclusive")
    passed = bool(max_G <= tol_G and min_H >= _H_FLOOR)
    claim = ("df/dwbar = 0 along the v0 disc (holomorphy along the disc is "
             "hypothesis (2): pencil-check)"
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


def find_subpencil(f, P: PencilSpec, tol: float = 1e-6,
                   ell_max: int = 8) -> SubpencilResult:
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
    if ell_max < 1:
        raise ValueError(f"ell_max must be at least 1, not {ell_max}")
    as_callable(f, P.n)        # checks an Expr's variables
    M = P.num_directions
    # master disc sample: one ring per ell plus deep interior points, so the
    # points with |lam| <= 1/ell sample every smaller disc as well
    rings = np.array([0.93 / j for j in range(1, ell_max + 1)] + [0.02])
    lam = (rings[:, None] * torus((1.0,), _SUBPENCIL_PHASES)[0]).ravel()
    masks = [np.abs(lam) <= 1.0 / ell for ell in range(1, ell_max + 1)]

    def residuals(rows):
        """Per-ell worst CR residuals of the directions rows (or one index)."""
        pts = P.disc(np.broadcast_to(lam, np.shape(rows) + lam.shape), rows)
        res = np.abs(wirtinger_dbar(f, pts)).max(axis=-1)
        res = np.where(np.isfinite(res), res, np.inf)
        return np.array([res[..., mask].max(axis=-1) for mask in masks]).T

    table = np.full((M, ell_max), np.inf)
    for start, stop in chunks(M, lam.size):
        rows = np.arange(start, stop)
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

    from scipy.spatial import cKDTree
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
    converged point is frozen.  The arrays hold the live points on their
    last axis.  The Jacobian is exact, one ``map_tangents`` call per
    iteration along the real and imaginary parts of mu and the frame, and
    the step is the minimum-norm Gauss-Newton step of
    ``_gauss_newton_step``.  Each point whose residual grows has its step
    halved, up to three times.
    """
    B, n = targets.shape
    p = 2 * n + 1                            # unknowns: mu, tangent of v
    mu = np.array(lam0, dtype=complex)
    V = np.array(np.transpose(dirs0), dtype=complex)            # (n, B)
    T = np.transpose(targets)
    dlam = np.zeros((p, 1), dtype=complex)   # mu moves along 1 and i only
    dlam[:2, 0] = 1.0, 1j

    def resid(mu_v, V_v, tgt):
        d = P.map_batch(mu_v, V_v.T).T - tgt
        return np.concatenate([d.real, d.imag])                 # (2n, b)

    scale = np.maximum(1.0, np.linalg.norm(
        np.concatenate([T.real, T.imag]), axis=0))
    R = resid(mu, V, T)
    live = np.arange(B)
    for _ in range(iters):
        rnorm = np.linalg.norm(R[:, live], axis=0)
        keep = ~(rnorm <= tol * scale[live])     # a nan residual stays live
        live, rnorm = live[keep], rnorm[keep]
        if live.size == 0:
            break
        b = live.size
        mu_l, V_l, tgt = mu[live], V[:, live], T[:, live]
        frames = _frames(V_l)                        # (n, 2n-1, b) complex
        dU = np.concatenate([np.zeros((n, 2, b), dtype=complex), frames],
                            axis=1)
        D = P.map_tangents(mu_l, V_l, dlam, dU)[1]   # (n, p, b)
        step = _gauss_newton_step(np.concatenate([D.real, D.imag]),
                                  R[:, live])
        alpha = np.ones(b)

        def trial(rows):
            a = alpha[rows]
            mu_t = mu_l[rows] + a * (step[0, rows] + 1j * step[1, rows])
            V_t = _renormalize(V_l[:, rows] + np.einsum(
                "nkb,kb->nb", frames[:, :, rows], a * step[2:, rows]), axis=0)
            return mu_t, V_t, resid(mu_t, V_t, tgt[:, rows])

        mu_new, V_new, R_new = trial(slice(None))
        rows = np.arange(b)
        for _damp in range(3):
            rows = rows[np.linalg.norm(R_new[:, rows], axis=0) > rnorm[rows]]
            if rows.size == 0:
                break
            alpha[rows] *= 0.5
            mu_new[rows], V_new[:, rows], R_new[:, rows] = trial(rows)
        mu[live], V[:, live], R[:, live] = mu_new, V_new, R_new
    ok = np.linalg.norm(R, axis=0) <= 10 * tol * scale
    return mu, V.T, ok


def _gauss_newton_step(J: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of J step = -R for wide Jacobians, batch last.

    J has shape (m, p, b) with m < p and R shape (m, b): each entry is a
    vector over the b points, and the step comes back as (p, b).  When J
    has full row rank, pinv(J) R = J^T (J J^T)^-1 R, so the (m, m) Gram
    matrices (one contraction, no temporary larger than J) are solved by
    elimination across the points; they are symmetric positive definite,
    so no pivot is needed.  The Gram matrix squares cond(J), so a point
    whose step is non-finite (a zero pivot) or misses J step = -R by more
    than 1e-6 |R| takes the pinv step instead.
    """
    G = np.einsum("ipb,jpb->ijb", J, J)
    m = len(G)
    y = R.copy()
    with np.errstate(all="ignore"):
        for k in range(m - 1):
            f = G[k + 1:, k] / G[k, k]
            G[k + 1:, k + 1:] -= f[:, None] * G[k, k + 1:]
            y[k + 1:] -= f * y[k]
        for k in reversed(range(m)):
            y[k] = (y[k] - np.einsum("jb,jb->b", G[k, k + 1:], y[k + 1:])
                    ) / G[k, k]
        step = -np.einsum("ipb,ib->pb", J, y)
        miss = np.linalg.norm(np.einsum("ipb,pb->ib", J, step) + R, axis=0)
    bad = ~(np.isfinite(step).all(axis=0)
            & (miss <= 1e-6 * np.linalg.norm(R, axis=0)))
    if bad.any():
        Jb = np.moveaxis(J[:, :, bad], -1, 0)
        step[:, bad] = -np.einsum("bij,bj->bi", np.linalg.pinv(Jb),
                                  R[:, bad].T).T
    return step


def _renormalize(V: np.ndarray, axis: int = -1) -> np.ndarray:
    return V / np.linalg.norm(V, axis=axis, keepdims=True)


def _frames(V: np.ndarray) -> np.ndarray:
    """Real-orthonormal tangent frames of S^(2n-1) at the columns of V.

    V has shape (n, b); returns (n, 2n-1, b), frame vector k of point j
    in [:, k, j].  Uses the Householder reflection mapping e1 to the
    realified point: its remaining columns are an orthonormal basis of
    the tangent space.  Points with x ~ e1 keep the canonical frame e2..ed.
    """
    n, b = V.shape
    d = 2 * n
    W = -np.concatenate([V.real, V.imag])             # (d, b), e1 - x
    W[0] += 1.0
    nsq = np.einsum("ib,ib->b", W, W)
    coef = 2.0 * W[1:] / np.where(nsq > 1e-12, nsq, np.inf)
    F = np.eye(d)[:, 1:, None] - W[:, None] * coef    # (d, d-1, b)
    return F[:n] + 1j * F[n:]
