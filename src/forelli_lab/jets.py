"""Formal Taylor jets of functions f(z, zbar) by torus sampling.

The function is sampled on product tori with a geometric schedule of
radii per component.  On the torus of radius vector rho the discrete
Fourier mode mu in Z^n equals

    F_mu(rho) = sum_{I - J = mu} C[I,J] rho^(I + J)    (+ truncation),

so each mode pins down the coefficients along one diagonal I - J = mu.
Writing I = mu_+ + L, J = mu_- + L (L >= 0 componentwise), the unknowns
of a mode form a simplex of shifted even powers, and sampling the full
product grid of the radius schedule makes the per-mode linear system an
(overdetermined) tensor Vandermonde solve.  The cross-radius misfit of
that solve is the consistency certificate: a function admitting the jet
fits every mode to quadrature accuracy, while homogeneous non-polynomial
behaviour (for instance quotients by normsq) leaves a misfit whose decay
order locates the first inconsistent jet order.

The design matrix of mode mu depends only on the componentwise |mu|, so
the 2^k sign variants of a |mu| class share one factorisation and are
solved as one multi-right-hand-side product.  Classes with the same
dmax = (order - |mu|_1) // 2 give systems of the same shape, and each
such stack is factored by a single batched SVD: about order/2 + 1 SVD
calls per jet instead of one per mode.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .expr import as_callable
from .series import FormalSeries, torus, torus_modes

FULL_JET = "FullJet"
JET_UP_TO = "JetUpTo"
NO_JET = "NoJet"


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


def radius_schedule(num: int, rho0: float = 0.2, sigma: float = 1.25,
                    rho_max: Optional[float] = None) -> np.ndarray:
    """Geometric radius schedule rho0 * sigma^t, optionally rescaled so the
    largest radius equals rho_max (keeps the nodes distinct)."""
    if num < 2:
        raise ValueError("need at least 2 radii")
    if rho_max is not None and rho0 * sigma ** (num - 1) > rho_max:
        if rho_max <= rho0:
            raise ValueError("rho_max must exceed rho0")
        sigma = (rho_max / rho0) ** (1.0 / (num - 1))
    return rho0 * sigma ** np.arange(num)


def _mode_list(n: int, order: int) -> List[tuple]:
    """All mu in Z^n with |mu_1| + ... + |mu_n| <= order."""
    # rows of np.indices in C order run like itertools.product
    mus = np.indices((2 * order + 1,) * n).reshape(n, -1).T - order
    return [tuple(mu) for mu in mus[np.abs(mus).sum(axis=1) <= order].tolist()]


def extract_jet(f, n: int, order: int, *,
                radii: Optional[Sequence[float]] = None,
                rho0: float = 0.2, sigma: float = 1.25,
                rho_max: Optional[float] = None,
                grid: Optional[int] = None,
                tol: float = 1e-6,
                coeff_floor: float = 1e-10,
                cond_limit: float = 1e14,
                center: Optional[Sequence[complex]] = None) -> JetResult:
    """Extract the order-``order`` formal Taylor jet of f at the origin.

    f is an Expr or a callable taking a tuple of n complex arrays.  The
    radius schedule must contain at least ceil(order/2) + 1 entries and
    the angular grid at least 2*order + 1 points per dimension.  A
    nonzero ``center`` translates the expansion point.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if grid is None:
        grid = 64 if n <= 2 else 32
    if grid < 2 * order + 1:
        raise ValueError(f"grid {grid} < 2*order+1 = {2 * order + 1}")
    m_needed = max((order + 1) // 2 + 1, 2)    # ceil(order/2) + 1
    if radii is None:
        radii = radius_schedule(m_needed, rho0, sigma, rho_max)
    radii = np.asarray(radii, dtype=float)
    if len(radii) < m_needed:
        raise ValueError(
            f"{len(radii)} radii given; order {order} needs >= {m_needed}")
    if np.any(radii <= 0) or len(set(radii.tolist())) != len(radii):
        raise ValueError("radii must be positive and distinct")

    func = as_callable(f, n)
    if center is not None:
        center = tuple(complex(c) for c in center)
        base = func
        func = lambda z: base(tuple(z[k] + center[k] for k in range(n)))

    # sample one product torus at a time, scaling the unit torus, and
    # gather the needed Fourier modes with one flat index array
    unit = torus((1.0,) * n, grid)
    modes = _mode_list(n, order)
    mus = np.array(modes, dtype=int).reshape(len(modes), n)
    fft_index = np.ravel_multi_index(tuple((mus % grid).T), (grid,) * n)
    rows = list(itertools.product(range(len(radii)), repeat=n))
    mode_vals = np.empty((len(rows), len(modes)), dtype=complex)
    for ri, row in enumerate(rows):
        zs = tuple(radii[row[k]] * unit[k] for k in range(n))
        try:
            vals = np.asarray(func(zs), dtype=complex)
        except Exception as exc:
            raise JetExtractionError(
                f"evaluation failed on torus rho={tuple(radii[t] for t in row)}: {exc}"
            ) from exc
        vals = np.broadcast_to(vals, unit[0].shape)
        if not np.all(np.isfinite(vals)):
            raise JetExtractionError(
                f"non-finite samples on torus rho={tuple(radii[t] for t in row)}")
        mode_vals[ri] = torus_modes(vals, n).ravel()[fft_index]

    row_idx = np.array(rows, dtype=int).reshape(len(rows), n)
    diag_rows = [ri for ri, row in enumerate(rows)
                 if all(t == row[0] for t in row)]

    global_scale = float(np.abs(mode_vals).max()) if mode_vals.size else 0.0
    # quadrature values carry O(eps_mach * scale) noise; misfits below that
    # are indistinguishable from zero
    noise_floor = 1e-13 * max(1.0, global_scale)

    # pass 1: tensor-Vandermonde solves.  The design matrix of mode mu
    # depends only on |mu|, so each |mu| class is factored once for all of
    # its sign variants, and classes with the same dmax = (order - |mu|_1)//2
    # have the same shape and are factored by one stacked SVD.
    classes, mode_class = np.unique(np.abs(mus), axis=0, return_inverse=True)
    mode_class = mode_class.reshape(-1)
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
    resid = np.empty((len(modes), len(rows)), dtype=complex)
    class_cond = np.empty(len(classes))
    kept = []                   # (mode, L index, I, J, coefficient) arrays
    for dmax in np.unique(class_dmax):
        Ls = np.array([L for L in itertools.product(range(dmax + 1), repeat=n)
                       if sum(L) <= dmax], dtype=int).reshape(-1, n)
        cls = np.flatnonzero(class_dmax == dmax)
        expo = classes[cls][:, None, :] + 2 * Ls[None, :, :]   # (K, #L, n)
        A = np.prod(power[row_idx[None, :, None, :], expo[:, None, :, :]],
                    axis=3)                                    # (K, rows, #L)
        col_scale = np.linalg.norm(A, axis=1)
        col_scale[col_scale == 0] = 1.0
        Um, sv, Vt = np.linalg.svd(A / col_scale[:, None, :],
                                   full_matrices=False)
        cond = np.full(len(cls), np.inf)
        np.divide(sv[:, 0], sv[:, -1], out=cond, where=sv[:, -1] > 0)
        class_cond[cls] = cond
        if np.any(cond > cond_limit):
            continue            # reported below, at the first such mode

        sel = np.flatnonzero(class_dmax[mode_class] == dmax)
        k, v = np.searchsorted(cls, mode_class[sel]), variant[sel]
        # right-hand sides as (class, rows, sign variant), zero-padded
        B = np.zeros((len(cls), len(rows), 2 ** n), dtype=complex)
        B[k, :, v] = mode_vals[:, sel].T
        x_eq = Vt.transpose(0, 2, 1) @ (
            (Um.transpose(0, 2, 1) @ B) / sv[:, :, None])
        X = x_eq / col_scale[:, :, None]
        resid[sel] = (A @ X - B)[k, :, v]
        x = X[k, :, v]                                         # (modes, #L)
        pinv_rows = np.sqrt(np.sum((Vt / sv[:, :, None]) ** 2, axis=1))
        noise = data_unc[sel, None] * pinv_rows[k] / col_scale[k]
        mi, li = np.nonzero(np.abs(x) > np.maximum(coeff_floor, noise))
        m = sel[mi]
        kept.append((m, li, mu_plus[m] + Ls[li], mu_minus[m] + Ls[li],
                     x[mi, li]))

    mode_cond = class_cond[mode_class]
    bad = np.flatnonzero(mode_cond > cond_limit)
    if bad.size:
        raise JetExtractionError(
            f"ill-conditioned radius schedule: mode {modes[bad[0]]} condition "
            f"{mode_cond[bad[0]]:.3g} exceeds {cond_limit:.3g}")
    worst_cond = max(1.0, float(mode_cond.max()))

    # insert coefficients in mode order, then L order within a mode:
    # consumers that sum over the term map follow its insertion order
    m, li, I, J, c = (np.concatenate(parts) for parts in zip(*kept))
    order_ix = np.lexsort((li, m))
    coeffs = {(tuple(i), tuple(j)): v for i, j, v in zip(
        I[order_ix].tolist(), J[order_ix].tolist(), c[order_ix].tolist())}

    res_abs = np.abs(resid).max(axis=1)
    res_abs[res_abs <= noise_floor] = 0.0

    # pass 2: normalize misfits by the largest mode magnitude at each total
    # order (absolute floor 1e-12 covers identically-zero orders) and charge
    # dirty modes to their failure order
    order_mag = np.zeros(order + 1)
    np.maximum.at(order_mag, base_orders, magnitude)
    misfit = res_abs / np.maximum(order_mag[base_orders], 1e-12)
    clean = misfit <= tol
    order_noise = np.zeros(order + 1)
    np.maximum.at(order_noise, base_orders[clean], misfit[clean])
    fail_eps = np.zeros(order + 1)
    mode_table = [{"mode": mu, "base_order": d, "misfit": eps, "magnitude": mag}
                  for mu, d, eps, mag in zip(modes, base_orders.tolist(),
                                             misfit.tolist(),
                                             magnitude.tolist())]
    for idx in np.flatnonzero(~clean):
        row = mode_table[idx]
        d = row["base_order"]
        k_fail = _failure_order(resid[idx], diag_rows, radii,
                                row["magnitude"], global_scale, d)
        row["failure_order"] = k_fail
        if k_fail <= order:
            fail_eps[k_fail] = max(fail_eps[k_fail], row["misfit"])
        else:
            row["truncation_only"] = True

    residuals = []
    running = 0.0
    for k in range(order + 1):
        running = max(running, fail_eps[k])
        residuals.append(max(running, order_noise[k]))

    max_consistent = -1
    for k in range(order + 1):
        if residuals[k] <= tol:
            max_consistent = k
        else:
            break
    if max_consistent == order:
        verdict = FULL_JET
    elif max_consistent >= 1:
        verdict = JET_UP_TO
    else:
        verdict = NO_JET

    series = FormalSeries(n, order, coeffs)
    diagnostics = {
        "radii": radii.tolist(),
        "grid": grid,
        "coeff_floor": coeff_floor,
        "worst_condition": worst_cond,
        "modes": mode_table,
    }
    return JetResult(series=series, max_consistent_order=max_consistent,
                     per_order_residuals=residuals, verdict=verdict,
                     tol=tol, diagnostics=diagnostics)


def _failure_order(resid, diag_rows, radii, bmax, global_scale, base_order):
    """Charge a dirty mode to a jet order.

    The residual of the tensor-Vandermonde solve scales like rho^beta for
    the first inconsistent order beta.  The log-log slope is estimated as
    the median of consecutive-pair slopes over the diagonal radius rows,
    which ignores the sign-change dips the least-squares fit can leave at
    mid-range radii.  When the diagonal carries no usable signal (the
    misfit may cancel there by symmetry) fall back to the lowest order
    the mode contributes to.
    """
    ed = np.abs(resid[diag_rows])
    floor = 1e-11 * max(bmax, 1e-3 * max(global_scale, 1e-12))
    mask = ed > floor
    if mask.sum() < 2:
        return base_order
    logs_r = np.log(radii[mask])
    logs_e = np.log(ed[mask])
    slopes = np.diff(logs_e) / np.diff(logs_r)
    slope = float(np.median(slopes))
    if not np.isfinite(slope):
        return base_order
    return max(int(round(slope)), 0)


def jet_of_series(S: FormalSeries) -> JetResult:
    """Wrap an explicit series as an exact (residual-free) jet result."""
    residuals = [0.0] * (S.max_order + 1)
    return JetResult(series=S, max_consistent_order=S.max_order,
                     per_order_residuals=residuals, verdict=FULL_JET,
                     tol=0.0, diagnostics={"source": "explicit series"})
