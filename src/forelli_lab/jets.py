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

The design matrix of mode mu depends only on the componentwise |mu|, and
the sampled radius rows are closed under permuting coordinates, so the
matrix of a |mu| class is that of its representative, |mu| sorted in
descending order, with its rows and unknowns permuted (the symmetry
reduction of a least-squares problem).  Each representative is factored
once, and the modes of its orbit, the 2^k sign variants of each of its
up to n! orderings, are solved as one multi-right-hand-side product:
144 factorisations for the 276 classes at n = 2, order 22, and 67 for
the 286 at n = 3, order 10.  Representatives with the same
dmax = (order - |mu|_1) // 2 give systems of the same shape, and each
such stack is factored by a single batched SVD: order/2 + 1 SVD calls
per jet instead of one per mode.

The stacks of design matrices are built one torus axis at a time, and
the mode layout (the modes, their representatives, permutations and
slots, and the L simplices) by array arithmetic; the modes become tuples
once, for the mode table.

The solve reads only the modes with |mu_1| + ... + |mu_n| <= order, so
each torus is transformed only on the band |mu_k| <= order, and the
function, an Expr, is evaluated on broadcastable torus axes rather than
full arrays.  It is sampled in slabs, the tori that differ only in their
last radius up to POOL_MIN_POINTS points, each in one evaluation and one
band transform.  One runner, _on_two_threads, shares independent tasks
between the calling thread and one helper; numpy's loops and FFTs
release the GIL, and each task writes only its own rows.  Each phase
decides alone: the slabs run on it when at least two hold more than
POOL_MIN_POINTS / 2 points (n = 2 from order 7 on at grid 64; at grid 32
every n = 3 torus is a slab of POOL_MIN_POINTS), the dmax groups when
the factored stacks and their right-hand sides hold 2 * POOL_MIN_POINTS
entries or more in total, POOL_MIN_POINTS for each thread (n = 2 from
order 15 on, n = 3 from order 7).  Sampling ends before solving starts,
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

from .expr import as_callable
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
# more than a second core gains.  Tori are sampled in slabs of up to
# this many points, on two threads when at least two slabs hold more than
# half of it, and the factored design stacks are solved on two when they
# and their right-hand sides hold this many entries per thread
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

    f is an Expr in at most n variables; anything else raises TypeError
    before any sampling.  It is evaluated on compact torus axes:
    component k has shape (G,) on axis k and 1 elsewhere, so a
    subexpression in fewer than n variables runs on fewer points.  The
    tori have the ceil(order/2) + 1 radii of ``radius_schedule(rho0,
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
    mode_vals = _sample_modes(func, radii, rows, mus, grid, order, two)

    row_idx = np.array(rows, dtype=int).reshape(len(rows), n)
    # the indices of the rows (t, ..., t), in ascending t
    diag_rows = np.flatnonzero((row_idx == row_idx[:, :1]).all(axis=1))

    global_scale = float(np.abs(mode_vals).max()) if mode_vals.size else 0.0
    # quadrature values carry O(eps_mach * scale) noise; misfits below that
    # are indistinguishable from zero
    noise_floor = 1e-13 * max(1.0, global_scale)

    # pass 1: tensor-Vandermonde solves.  The design matrix of mode mu
    # depends only on |mu|, and the radius rows are closed under permuting
    # coordinates, so the class of |mu| is the class of its representative,
    # |mu| sorted in descending order, with rows and unknowns permuted: a
    # mode whose |mu| reaches its representative through the permutation p
    # has row r where the representative has the row of row_idx[r, p], and
    # unknown L where it has Ls[:, p].  Each representative is factored
    # once for every mode of its orbit, and the representatives with the
    # same dmax = (order - |mu|_1)//2 have the same shape and are factored
    # by one stacked SVD.  They run in lexicographic order, which is the
    # order of their C-order ravel.
    class_shape = (order + 1,) * n
    to_rep = np.argsort(-np.abs(mus), axis=1, kind="stable")
    keys, mode_rep = np.unique(
        np.ravel_multi_index(tuple(np.take_along_axis(
            np.abs(mus), to_rep, axis=1).T), class_shape),
        return_inverse=True)
    reps = np.stack(np.unravel_index(keys, class_shape), axis=1)
    rep_dmax = (order - reps.sum(axis=1)) // 2
    # each mode's permutation p, as an index into ``perms``
    perms = np.array(list(itertools.permutations(range(n))))
    mode_perm = np.searchsorted(
        np.ravel_multi_index(tuple(perms.T), (n,) * n),
        np.ravel_multi_index(tuple(to_rep.T), (n,) * n))
    # row_perm[p, r]: the representative's row for row r under perms[p]
    row_perm = _permuted_index(row_idx, perms, len(radii))
    # a mode's slot: its rank among the modes of its orbit
    by_rep = np.argsort(mode_rep, kind="stable")
    mode_slot = np.empty(len(mus), dtype=int)
    mode_slot[by_rep] = (np.arange(len(mus))
                         - np.searchsorted(mode_rep[by_rep], mode_rep[by_rep]))
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
    rep_cond = np.empty(len(reps))
    kept = {}                   # dmax: (I + J exponent rows, coefficient)
    simplex = _simplex(n, order // 2)
    L_order, mode_dmax = simplex.sum(axis=1), rep_dmax[mode_rep]
    groups = range(order // 2 + 1)      # every dmax: |mu| runs over 0..order
    width = np.zeros(len(groups), dtype=int)    # per dmax, the slots
    np.maximum.at(width, mode_dmax, mode_slot + 1)

    def solve(dmax):            # writes the rows of its orbits and modes
        Ls = simplex[L_order <= dmax]
        rep = np.flatnonzero(rep_dmax == dmax)
        expo = reps[rep][:, None, :] + 2 * Ls[None, :, :]     # (K, #L, n)
        A = _design_stack(power, row_idx, expo)                # (K, rows, #L)
        col_scale = np.linalg.norm(A, axis=1)
        col_scale[col_scale == 0] = 1.0
        Um, sv, Vt = np.linalg.svd(A / col_scale[:, None, :],
                                   full_matrices=False)
        cond = np.full(len(rep), np.inf)
        np.divide(sv[:, 0], sv[:, -1], out=cond, where=sv[:, -1] > 0)
        rep_cond[rep] = cond
        if np.any(cond > COND_LIMIT):
            return              # reported below, at the first such mode

        sel = np.flatnonzero(mode_dmax == dmax)
        k = np.searchsorted(rep, mode_rep[sel])[:, None]
        slot = mode_slot[sel, None]
        # right-hand sides as (representative, rows, slot), zero-padded:
        # each mode's samples go to its representative's rows, and ``at``
        # holds their flat positions
        b = mode_vals[:, sel].T                                # (modes, rows)
        at = (k * len(rows) + row_perm[mode_perm[sel]]) * width[dmax] + slot
        B = np.zeros(len(rep) * len(rows) * width[dmax], dtype=complex)
        B[at] = b
        B = B.reshape(len(rep), len(rows), width[dmax])
        x_eq = Vt.transpose(0, 2, 1) @ (
            (Um.transpose(0, 2, 1) @ B) / sv[:, :, None])
        X = x_eq / col_scale[:, :, None]
        misfit = (A @ X).reshape(-1)[at] - b                   # (modes, rows)
        res_abs[sel] = np.abs(misfit).max(axis=1)
        res_diag[sel] = misfit[:, diag_rows]
        # each mode's unknowns at their positions among the representative's
        c = _permuted_index(Ls, perms, dmax + 1)[mode_perm[sel]]
        x = X[k, c, slot]                                      # (modes, #L)
        pinv_rows = np.sqrt(np.sum((Vt / sv[:, :, None]) ** 2, axis=1))
        noise = data_unc[sel, None] * pinv_rows[k, c] / col_scale[k, c]
        mi, li = np.nonzero(np.abs(x) > np.maximum(COEFF_FLOOR, noise))
        m = sel[mi]
        kept[dmax] = (np.concatenate([mu_plus[m] + Ls[li],
                                      mu_minus[m] + Ls[li]], axis=1),
                      x[mi, li])

    # per dmax, the representatives and unknowns #L of its stack (see
    # POOL_MIN_POINTS; the slots of its right-hand sides are ``width``)
    n_rep, n_unk = np.bincount(rep_dmax), np.cumsum(np.bincount(L_order))
    if two and len(rows) * (n_rep @ (n_unk + width)) >= 2 * POOL_MIN_POINTS:
        _on_two_threads(solve, sorted(      # largest SVD work first
            groups, key=lambda d: -n_rep[d] * n_unk[d] ** 2))
    else:
        for dmax in groups:
            solve(dmax)

    mode_cond = rep_cond[mode_rep]
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


def _permuted_index(rows, perms, size) -> np.ndarray:
    """index[p, r]: the position in ``rows`` of rows[r, perms[p]], for
    index rows below ``size`` in ascending C-order ravel (product order)
    and closed under every permutation of ``perms``."""
    shape = (size,) * rows.shape[1]
    return np.searchsorted(np.ravel_multi_index(tuple(rows.T), shape),
                           np.ravel_multi_index(tuple(rows[:, perms].T),
                                                shape))


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


def _sample_modes(func, radii, rows, mus, grid, order, two_threads):
    """The Fourier modes ``mus`` of func on the torus of radii[row], for
    each radius-index row of ``rows`` (``_radius_rows``, in
    itertools.product order), as an array (rows, modes).

    Component k of a torus has shape (G,) on axis k and 1 elsewhere, and
    func (an Expr's evaluation) broadcasts them.  The band |m_k| <= order
    of modes is transformed and the modes gathered with one flat index
    array.

    The tori are sampled in slabs: the tori that share every radius
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
    circle = torus((1.0,), grid)[0]
    unit = tuple(circle.reshape((grid,) + (1,) * (n - 1 - k))
                 for k in range(n))
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
