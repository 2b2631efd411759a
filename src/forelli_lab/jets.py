"""Formal Taylor jets of functions f(z, zbar) by torus sampling.

The function is sampled on product tori with a geometric schedule of
radii per component.  On the torus of radius vector rho the discrete
Fourier mode mu in Z^n equals

    F_mu(rho) = sum_{I - J = mu} C[I,J] rho^(I + J)    (+ truncation),

so each mode pins down the coefficients along one diagonal I - J = mu.
Writing I = mu_+ + L, J = mu_- + L (L >= 0 componentwise), the unknowns
of a mode form a simplex of shifted even powers, and sampling radius
tuples unisolvent for every simplex (``_radius_rows``: the full product
of the schedule for n = 1, a lower set and the diagonal for n >= 2; at
n = 2 that is 45/69/97/112 tori at orders 12/16/20/22 instead of the
product's 49/81/121/144) makes the per-mode linear system an
(overdetermined) Vandermonde solve.
The cross-radius misfit of that solve is the consistency certificate: a
function admitting the jet fits every mode to quadrature accuracy, while
homogeneous non-polynomial behaviour (for instance quotients by normsq)
leaves a misfit whose decay order locates the first inconsistent jet
order.

The design matrix of mode mu depends only on the componentwise |mu|, so
the 2^k sign variants of a |mu| class share one factorisation and are
solved as one multi-right-hand-side product.  Classes with the same
dmax = (order - |mu|_1) // 2 give systems of the same shape, and each
such stack is factored by a single batched SVD: about order/2 + 1 SVD
calls per jet instead of one per mode.

The stacks of design matrices are built one torus axis at a time, and
the mode layout (the modes, their |mu| classes and the L simplices) by
array arithmetic; the modes become tuples once, for the mode table.

The solve reads only the modes with |mu_1| + ... + |mu_n| <= order, so
each torus is transformed only on the band |mu_k| <= order, and an Expr
is evaluated on broadcastable torus axes rather than full arrays.  An
Expr is sampled in slabs, the tori that differ only in their last radius
up to POOL_MIN_POINTS points, each in one evaluation and one band
transform.  One runner, _on_two_threads, shares independent tasks
between the calling thread and one helper; numpy's loops and FFTs
release the GIL, and each task writes only its own rows.  Each phase
decides alone: the slabs run on it when at least two hold more than
POOL_MIN_POINTS / 2 points (n = 2 from order 7 on at grid 64; at grid 32
every n = 3 torus is a slab of POOL_MIN_POINTS), the dmax groups when
the stacks hold POOL_MIN_POINTS entries or more in total (n = 2 from
order 13 on, n = 3 from order 8).  Sampling ends before solving starts,
so at most one helper is alive.  The jet, its error and its warnings are
those of one task at a time.
"""

from __future__ import annotations

import cmath
import collections
import contextvars
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .expr import Expr, as_callable
from .series import FormalSeries, torus, torus_modes

FULL_JET = "FullJet"
JET_UP_TO = "JetUpTo"
NO_JET = "NoJet"

# solved coefficients at or below this modulus are dropped from the jet
COEFF_FLOOR = 1e-10
# a radius schedule whose scaled design matrix is worse conditioned than
# this for some mode is refused
COND_LIMIT = 1e14
# below this many entries the GIL hand-off between short numpy calls costs
# more than a second core gains.  Expr tori are sampled in slabs of up to
# this many points, on two threads when at least two slabs hold more than
# half of it, and design stacks of this many entries in all are solved on
# two
POOL_MIN_POINTS = 32 ** 3
# n = 2 tori keep the radius-index pairs t_1 + t_2 <= m + N2_SLACK (m radii)
# and the diagonal: 112 of the 144 pairs at order 22
N2_SLACK = 2


class JetExtractionError(RuntimeError):
    """Evaluation failure on a torus or an unusable radius schedule."""


@dataclass
class JetResult:
    """Candidate jet plus per-order consistency diagnostics.

    ``per_order_residuals[k]`` is the worst relative cross-radius misfit
    charged to total order k; orders up to ``max_consistent_order`` are
    below the tolerance used for the run.  ``verdict`` is one of
    FullJet, JetUpTo (with ``max_consistent_order`` carrying the m of
    JetUpTo(m)) or NoJet.
    """

    series: FormalSeries
    max_consistent_order: int
    per_order_residuals: List[float]
    verdict: str
    tol: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def full(self) -> bool:
        return self.verdict == FULL_JET

    def verdict_text(self) -> str:
        if self.verdict == JET_UP_TO:
            return f"JetUpTo({self.max_consistent_order})"
        return self.verdict

    def offenders(self) -> dict:
        """The ``first_failing_mode`` and ``worst_condition_mode`` entries
        of the diagnostics, for a report's jet stage."""
        return {key: self.diagnostics.get(key)
                for key in ("first_failing_mode", "worst_condition_mode")}


def radius_schedule(num: int, rho0: float = 0.2, sigma: float = 1.25,
                    rho_max: Optional[float] = None) -> np.ndarray:
    """Geometric radius schedule rho0 * sigma^t, optionally rescaled so the
    largest radius equals rho_max (keeps the nodes distinct).  Each of
    rho0, sigma and a given rho_max must be finite."""
    if num < 2:
        raise ValueError("need at least 2 radii")
    for name, value in (("rho0", rho0), ("sigma", sigma), ("rho_max", rho_max)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")
    if rho_max is not None and rho0 * sigma ** (num - 1) > rho_max:
        if rho_max <= rho0:
            raise ValueError("rho_max must exceed rho0")
        sigma = (rho_max / rho0) ** (1.0 / (num - 1))
    return rho0 * sigma ** np.arange(num)


def _simplex(n: int, top: int) -> np.ndarray:
    """The rows L in N^n with L_1 + ... + L_n <= top, in lexicographic
    order (the order of itertools.product), as an (count, n) int array."""
    # rows of np.indices in C order run like itertools.product
    L = np.indices((top + 1,) * n).reshape(n, -1).T
    return L[L.sum(axis=1) <= top]


def _modes(n: int, order: int) -> np.ndarray:
    """All mu in Z^n with |mu_1| + ... + |mu_n| <= order, as rows in
    lexicographic order."""
    mus = np.indices((2 * order + 1,) * n).reshape(n, -1).T - order
    return mus[np.abs(mus).sum(axis=1) <= order]


def _radius_rows(n: int, count: int, top: int) -> List[tuple]:
    """Radius-index tuples of the sampled tori, in itertools.product order
    over range(count): all of them for n = 1; otherwise a lower set,
    unisolvent for the simplex of unknowns of every |mu| class (Biermann),
    and the diagonal (t, ..., t) that _failure_orders reads.  The lower
    set is t_1 + ... + t_n <= top for n >= 3 and t_1 + t_2 <= top +
    N2_SLACK for n = 2 (a smaller slack pushes orders 20 and 22 past
    COND_LIMIT)."""
    rows = itertools.product(range(count), repeat=n)
    if n == 1:
        return list(rows)
    if n == 2:
        top += N2_SLACK
    return [t for t in rows if sum(t) <= top or len(set(t)) == 1]


def extract_jet(f, n: int, order: int, *,
                rho0: float = 0.2, sigma: float = 1.25,
                rho_max: Optional[float] = None,
                grid: Optional[int] = None,
                tol: float = 1e-6,
                center: Optional[Sequence[complex]] = None) -> JetResult:
    """Extract the order-``order`` formal Taylor jet of f at the origin.

    f is an Expr or a callable taking a tuple of n complex arrays.  An
    Expr is evaluated on compact torus axes: component k has shape
    (G,) on axis k and 1 elsewhere, so a subexpression in fewer than n
    variables runs on fewer points.  A callable gets fresh, writeable
    arrays of the full shape (G,) * n, which it may stack or write into.
    The tori have the ceil(order/2) + 1 radii of ``radius_schedule(rho0,
    sigma, rho_max)``, which must be positive and distinct, and the
    angular grid at least 2*order + 1 points per dimension.  A nonzero
    ``center``, n finite components, translates the expansion point.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if grid is None:
        grid = 64 if n <= 2 else 32
    if grid < 2 * order + 1:
        raise ValueError(f"grid {grid} < 2*order+1 = {2 * order + 1}")
    m_needed = max((order + 1) // 2 + 1, 2)    # ceil(order/2) + 1
    radii = np.asarray(radius_schedule(m_needed, rho0, sigma, rho_max),
                       dtype=float)
    if np.any(radii <= 0) or len(set(radii.tolist())) != len(radii):
        raise ValueError("radii must be positive and distinct")

    func = as_callable(f, n)
    if center is not None:
        center = tuple(complex(c) for c in center)
        if len(center) != n:
            raise ValueError(f"center has {len(center)} components, "
                             f"expected {n}")
        for c in center:
            if not cmath.isfinite(c):
                raise ValueError(f"center must be finite, not {c}")
        base = func
        func = lambda z: base(tuple(z[k] + center[k] for k in range(n)))

    mus = _modes(n, order)
    rows = _radius_rows(n, len(radii), m_needed)
    two = _sample_workers() > 1
    mode_vals = _sample_modes(func, isinstance(f, Expr), radii, rows, mus,
                              grid, order, two)

    row_idx = np.array(rows, dtype=int).reshape(len(rows), n)
    # the indices of the rows (t, ..., t), in ascending t
    diag_rows = np.flatnonzero((row_idx == row_idx[:, :1]).all(axis=1))

    global_scale = float(np.abs(mode_vals).max()) if mode_vals.size else 0.0
    # quadrature values carry O(eps_mach * scale) noise; misfits below that
    # are indistinguishable from zero
    noise_floor = 1e-13 * max(1.0, global_scale)

    # pass 1: tensor-Vandermonde solves.  The design matrix of mode mu
    # depends only on |mu|, so each |mu| class is factored once for all of
    # its sign variants, and classes with the same dmax = (order - |mu|_1)//2
    # have the same shape and are factored by one stacked SVD.  The classes
    # run in lexicographic order of |mu|, which is the order of its C-order
    # ravel.
    class_shape = (order + 1,) * n
    keys, mode_class = np.unique(
        np.ravel_multi_index(tuple(np.abs(mus).T), class_shape),
        return_inverse=True)
    classes = np.stack(np.unravel_index(keys, class_shape), axis=1)
    class_dmax = (order - classes.sum(axis=1)) // 2
    # a mode's sign variant within its class: the bitmask of its negative
    # entries
    variant = (mus < 0) @ (1 << np.arange(n))
    power = radii[:, None] ** np.arange(order + 1)     # power[t, e] = rho_t^e

    mu_plus = np.maximum(mus, 0)
    mu_minus = np.maximum(-mus, 0)
    base_orders = np.abs(mus).sum(axis=1)
    magnitude = np.abs(mode_vals).max(axis=0)
    # per-coefficient uncertainty: input noise (quadrature/aliasing) and
    # solve rounding filtered through the pseudoinverse rows; entries the
    # data cannot determine above that level are zeroed
    data_unc = (10.0 * np.finfo(float).eps * np.linalg.norm(mode_vals, axis=0)
                + math.sqrt(len(rows)) * noise_floor)
    res_abs = np.empty(len(mus))            # each mode's largest |misfit|
    res_diag = np.empty((len(mus), len(radii)), dtype=complex)
    class_cond = np.empty(len(classes))
    kept = {}                   # dmax: (I + J exponent rows, coefficient)
    simplex = _simplex(n, order // 2)
    L_order, mode_dmax = simplex.sum(axis=1), class_dmax[mode_class]
    groups = range(order // 2 + 1)      # every dmax: |mu| runs over 0..order

    def solve(dmax):            # writes the rows of its classes and modes
        Ls = simplex[L_order <= dmax]
        cls = np.flatnonzero(class_dmax == dmax)
        expo = classes[cls][:, None, :] + 2 * Ls[None, :, :]   # (K, #L, n)
        A = _design_stack(power, row_idx, expo)                # (K, rows, #L)
        col_scale = np.linalg.norm(A, axis=1)
        col_scale[col_scale == 0] = 1.0
        Um, sv, Vt = np.linalg.svd(A / col_scale[:, None, :],
                                   full_matrices=False)
        cond = np.full(len(cls), np.inf)
        np.divide(sv[:, 0], sv[:, -1], out=cond, where=sv[:, -1] > 0)
        class_cond[cls] = cond
        if np.any(cond > COND_LIMIT):
            return              # reported below, at the first such mode

        sel = np.flatnonzero(mode_dmax == dmax)
        k, v = np.searchsorted(cls, mode_class[sel]), variant[sel]
        # right-hand sides as (class, rows, sign variant), zero-padded
        B = np.zeros((len(cls), len(rows), 2 ** n), dtype=complex)
        B[k, :, v] = mode_vals[:, sel].T
        x_eq = Vt.transpose(0, 2, 1) @ (
            (Um.transpose(0, 2, 1) @ B) / sv[:, :, None])
        X = x_eq / col_scale[:, :, None]
        misfit = (A @ X - B)[k, :, v]                          # (modes, rows)
        res_abs[sel] = np.abs(misfit).max(axis=1)
        res_diag[sel] = misfit[:, diag_rows]
        x = X[k, :, v]                                         # (modes, #L)
        pinv_rows = np.sqrt(np.sum((Vt / sv[:, :, None]) ** 2, axis=1))
        noise = data_unc[sel, None] * pinv_rows[k] / col_scale[k]
        mi, li = np.nonzero(np.abs(x) > np.maximum(COEFF_FLOOR, noise))
        m = sel[mi]
        kept[dmax] = (np.concatenate([mu_plus[m] + Ls[li],
                                      mu_minus[m] + Ls[li]], axis=1),
                      x[mi, li])

    # per dmax, the classes and unknowns #L of its stack (see POOL_MIN_POINTS)
    n_cls, n_unk = np.bincount(class_dmax), np.cumsum(np.bincount(L_order))
    if two and len(rows) * (n_cls @ n_unk) >= POOL_MIN_POINTS:
        _on_two_threads(solve, sorted(      # largest SVD work first
            groups, key=lambda d: -n_cls[d] * n_unk[d] ** 2))
    else:
        for dmax in groups:
            solve(dmax)

    mode_cond = class_cond[mode_class]
    bad = np.flatnonzero(mode_cond > COND_LIMIT)
    if bad.size:
        raise JetExtractionError(
            "ill-conditioned radius schedule: mode "
            f"{tuple(mus[bad[0]].tolist())} condition "
            f"{mode_cond[bad[0]]:.3g} exceeds {COND_LIMIT:.3g}")
    worst_cond = max(1.0, float(mode_cond.max()))

    exponents, coeffs = (np.concatenate(parts)
                         for parts in zip(*(kept[d] for d in groups)))

    res_abs[res_abs <= noise_floor] = 0.0

    # pass 2: normalize misfits by the largest mode magnitude at each total
    # order (absolute floor 1e-12 covers identically-zero orders) and charge
    # each dirty mode to its failure order, -1 marking a clean mode; an
    # order's residual is the largest misfit charged at or below it, or of
    # a clean mode at it
    order_mag = np.zeros(order + 1)
    np.maximum.at(order_mag, base_orders, magnitude)
    misfit = res_abs / np.maximum(order_mag[base_orders], 1e-12)
    clean = misfit <= tol
    order_noise = np.zeros(order + 1)
    np.maximum.at(order_noise, base_orders[clean], misfit[clean])
    failure = np.full(len(mus), -1)
    failure[~clean] = _failure_orders(res_diag[~clean], radii,
                                      magnitude[~clean], global_scale,
                                      base_orders[~clean])
    charged = np.flatnonzero((failure >= 0) & (failure <= order))
    fail_eps = np.zeros(order + 1)
    np.maximum.at(fail_eps, failure[charged], misfit[charged])
    residuals = np.maximum(np.maximum.accumulate(fail_eps), order_noise)

    ok = residuals <= tol
    max_consistent = order if ok.all() else int(np.argmin(ok)) - 1
    verdict = (FULL_JET if max_consistent == order
               else JET_UP_TO if max_consistent >= 1 else NO_JET)

    mode_table = [{"mode": tuple(mu), "base_order": d, "misfit": eps,
                   "magnitude": mag,
                   **({"failure_order": k} if k >= 0 else {}),
                   **({"truncation_only": True} if k > order else {})}
                  for mu, d, eps, mag, k in zip(
                      mus.tolist(), base_orders.tolist(), misfit.tolist(),
                      magnitude.tolist(), failure.tolist())]
    # the offenders: the dirty mode that fails at the lowest order (the
    # largest misfit among ties, then the first in mode order), null
    # exactly on FullJet, and the mode with the largest condition number
    # (the first in mode order)
    first_failing = None
    if charged.size:
        row = mode_table[charged[np.lexsort((-misfit[charged],
                                             failure[charged]))[0]]]
        first_failing = {"mode": row["mode"],
                         "failure_order": row["failure_order"],
                         "misfit": row["misfit"], "tol": tol}
    worst = int(np.argmax(mode_cond))

    series = FormalSeries._from_arrays(n, order, exponents, coeffs)
    diagnostics = {
        "radii": radii.tolist(),
        "grid": grid,
        "tori": len(rows),
        "coeff_floor": COEFF_FLOOR,
        "worst_condition": worst_cond,
        "modes": mode_table,
        "first_failing_mode": first_failing,
        "worst_condition_mode": {"mode": mode_table[worst]["mode"],
                                 "condition": float(mode_cond[worst])},
    }
    return JetResult(series=series, max_consistent_order=max_consistent,
                     per_order_residuals=residuals.tolist(), verdict=verdict,
                     tol=tol, diagnostics=diagnostics)


def _design_stack(power, row_idx, expo) -> np.ndarray:
    """The stacked design matrices A[c, r, l] = prod_k power[row_idx[r, k],
    expo[c, l, k]] of the exponent rows ``expo`` (K, #L, n).

    The product runs one axis at a time: the same products in the same
    order as np.prod over the (K, rows, #L, n) gather, without that
    n times larger temporary.
    """
    A = power[row_idx[None, :, None, 0], expo[:, None, :, 0]]
    for k in range(1, expo.shape[2]):
        A *= power[row_idx[None, :, None, k], expo[:, None, :, k]]
    return A


def _on_two_threads(task, items) -> None:
    """task(item) for every item, the calling thread taking them from the
    front of ``items`` and one helper, in a copy of the caller's context
    (numpy keeps its error state there), from the back.  An item is
    skipped only above a failed one, so the error raised, that of the
    smallest failing item, is the error of an ascending loop."""
    queue, failed = collections.deque(items), []    # (item, error)

    def drain(pop):
        while True:
            try:
                item = pop()
            except IndexError:      # no item left
                return
            if not failed or item < min(failed)[0]:
                try:
                    task(item)
                except Exception as exc:
                    failed.append((item, exc))

    with ThreadPoolExecutor(1) as pool:
        helper = pool.submit(contextvars.copy_context().run, drain, queue.pop)
        try:
            drain(queue.popleft)
        finally:
            queue.clear()           # on an interrupt the helper stops too
            helper.result()
    if failed:
        raise min(failed)[1]


def _sample_workers() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no CPU affinity on this platform
        return os.cpu_count() or 1


def _sample_modes(func, compact, radii, rows, mus, grid, order,
                  two_threads):
    """The Fourier modes ``mus`` of func on the torus of radii[row], for
    each radius-index row of ``rows`` (``_radius_rows``, in
    itertools.product order), as an array (rows, modes).

    With ``compact`` (Expr inputs) component k of a torus has shape (G,)
    on axis k and 1 elsewhere; otherwise each component is a fresh full
    (G,) * n array, one torus per call, on the calling thread (a callable
    may keep state).  The band |m_k| <= order of modes is transformed and
    the modes gathered with one flat index array.

    Compact tori are sampled in slabs: the tori that share every radius
    index but the last, up to POOL_MIN_POINTS points together, get one
    evaluation (the last component carries a leading slab axis) and one
    band transform, under an np.errstate in which numpy's floating-point
    events that would warn raise.  The slabs that raise or hold non-finite
    samples are redone afterwards, in row order, torus by torus on the
    calling thread, so the errors and warnings are those of one torus at a
    time, the first failing torus in row order raising.  With
    ``two_threads`` and at least two slabs of more than POOL_MIN_POINTS / 2
    points the slabs run on ``_on_two_threads``, otherwise in row order on
    the calling thread.
    """
    n = mus.shape[1]
    if compact:
        circle = torus((1.0,), grid)[0]
        unit = tuple(circle.reshape((grid,) + (1,) * (n - 1 - k))
                     for k in range(n))
    else:
        unit = torus((1.0,) * n, grid)
    band_index = np.ravel_multi_index(tuple((mus + order).T),
                                      (2 * order + 1,) * n)
    mode_vals = np.empty((len(rows), len(mus)), dtype=complex)

    def sample(ri):
        rho = radii[list(rows[ri])]
        zs = tuple(rho[k] * unit[k] for k in range(n))
        try:
            vals = np.asarray(func(zs), dtype=complex)
        except Exception as exc:
            raise JetExtractionError(
                f"evaluation failed on torus rho={tuple(rho.tolist())}: {exc}"
            ) from exc
        if not np.all(np.isfinite(vals)):
            raise JetExtractionError(
                f"non-finite samples on torus rho={tuple(rho.tolist())}")
        vals = np.broadcast_to(vals, (grid,) * n)
        mode_vals[ri] = torus_modes(vals, n, order).ravel()[band_index]

    if not compact:
        for ri in range(len(rows)):
            sample(ri)
        return mode_vals

    strict = {kind: "ignore" if mode == "ignore" else "raise"
              for kind, mode in np.geterr().items()}
    redo = []                   # the slabs that raised or went non-finite

    def sample_slab(slab):
        """Tori start..stop-1, which differ only in their last radius."""
        start, stop = slab
        rho = radii[list(rows[start])]
        last = radii[[row[-1] for row in rows[start:stop]]]
        zs = tuple(rho[k] * unit[k] for k in range(n - 1)) + (
            (last[:, None] * unit[-1]).reshape(
                (stop - start,) + (1,) * (n - 1) + (grid,)),)
        try:
            with np.errstate(**strict):
                vals = np.asarray(func(zs), dtype=complex)
        except Exception:
            vals = None
        if vals is None or not np.all(np.isfinite(vals)):
            redo.append(slab)
            return
        vals = np.broadcast_to(vals, (stop - start,) + (grid,) * n)
        mode_vals[start:stop] = torus_modes(vals, n, order).reshape(
            stop - start, -1)[:, band_index]

    size = max(1, POOL_MIN_POINTS // grid ** n)
    # the runs of rows that share every radius index but the last, cut
    # into slabs of at most ``size`` tori
    runs = [list(run) for _, run in itertools.groupby(
        range(len(rows)), key=lambda ri: rows[ri][:-1])]
    slabs = [(start, min(start + size, run[-1] + 1))
             for run in runs for start in range(run[0], run[-1] + 1, size)]
    large = sum(2 * (stop - start) * grid ** n > POOL_MIN_POINTS
                for start, stop in slabs)
    if two_threads and large >= 2:
        _on_two_threads(sample_slab, slabs)
    else:
        for slab in slabs:
            sample_slab(slab)
    for start, stop in sorted(redo):
        for ri in range(start, stop):
            sample(ri)
    return mode_vals


def _failure_orders(resid_diag, radii, bmax, global_scale, base_orders):
    """Charge dirty modes to jet orders, one per row of ``resid_diag``.

    The residual of the tensor-Vandermonde solve scales like rho^beta for
    the first inconsistent order beta.  The log-log slope is estimated as
    the median of consecutive-pair slopes over the misfits on the diagonal
    radius rows (t, ..., t), the row's entries of ``resid_diag`` above a
    floor, which ignores the sign-change dips the least-squares fit can
    leave at mid-range radii.  When the diagonal carries fewer than two
    such entries (the misfit may cancel there by symmetry) fall back to
    the lowest order the mode contributes to, its ``base_orders`` entry.
    """
    ed = np.abs(resid_diag)
    floor = 1e-11 * np.maximum(bmax, 1e-3 * max(global_scale, 1e-12))
    usable = ed > floor[:, None]
    # each row's usable entries first, in radius order, then its others
    at = np.argsort(~usable, axis=1, kind="stable")
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = (np.diff(np.log(np.take_along_axis(ed, at, axis=1)), axis=1)
                  / np.diff(np.log(radii)[at], axis=1))
    # the slopes between usable entries, ascending, then nan; the median
    # of an even count is the mean of its middle two, as in np.median
    pairs = usable.sum(axis=1, keepdims=True) - 1
    slopes = np.sort(np.where(np.arange(len(radii) - 1) < pairs, slopes,
                              np.nan), axis=1)
    lo, hi = (np.take_along_axis(slopes, np.maximum(pairs - s, 0) // 2, axis=1)
              for s in (1, 0))
    slope = np.where(pairs % 2, lo, (lo + hi) / 2)[:, 0]
    ok = (pairs[:, 0] >= 1) & np.isfinite(slope)
    return np.where(ok, np.maximum(np.round(slope), 0),
                    base_orders).astype(int)


def jet_of_series(S: FormalSeries) -> JetResult:
    """Wrap an explicit series as an exact (residual-free) jet result."""
    residuals = [0.0] * (S.max_order + 1)
    return JetResult(series=S, max_consistent_order=S.max_order,
                     per_order_residuals=residuals, verdict=FULL_JET,
                     tol=0.0, diagnostics={"source": "explicit series"})
