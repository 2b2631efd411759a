"""Sparse truncated formal power series in (z_1..z_n, zbar_1..zbar_n).

A series is a finite sum  sum_{I,J} C[I,J] z^I zbar^J  with complex
coefficients, truncated at a total order bound N (every term satisfies
|I| + |J| <= N).  Multi-indices are plain tuples of nonnegative ints.
All values are immutable; every operation returns a new series, so
instances are safe to share across threads.

The degree-grading (Euler) operators act termwise:

    E     : C z^I zbar^J  ->  |I| C z^I zbar^J
    Ebar  : C z^I zbar^J  ->  |J| C z^I zbar^J

so on canonical series the kernel of Ebar is exactly the set of series
free of zbar (holomorphic type).  Coefficients are complex doubles and
"zero" means exactly 0.0 in both components; there is no epsilon
comparison at this layer.

A series stores one table, ``FormalSeries.graded``: an exponent array
whose row t is I + J and a coefficient array, in graded-lexicographic
order of (I, J) with no repeated row and no zero coefficient.  Ring
operations build the rows of their result as arrays and put them in
this form with one sort and one ordered summation.  Every polynomial
evaluation in the lab goes through the one kernel ``monomials``.

Every trapezoidal sample in the lab, on circles and on product tori, is
built by ``torus`` and transformed by ``torus_modes``.  On a grid of size
G the torus of radii (r_1..r_n) has the nodes z_k = r_k exp(1j (2.0 pi
j_k / G)), j_k = 0..G-1, held as arrays of shape (G,) * n in C order of
(j_1..j_n); its Fourier mode m in Z^n sits at index m mod G of the modes.

The batching rule of the lab lives here too: every batched evaluation
is cut by ``chunks`` into pieces of at most DISC_CHUNK_SAMPLES samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

MultiIndex = Tuple[int, ...]
TermKey = Tuple[MultiIndex, MultiIndex]


class DimensionMismatchError(ValueError):
    """Arguments live in different ambient dimensions."""


class SeriesFormatError(ValueError):
    """Malformed series text."""


def _check_index(alpha, n: int) -> MultiIndex:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise DimensionMismatchError(
            f"multi-index {alpha} has length {len(alpha)}, expected {n}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has a negative entry")
    return alpha


#: Most samples (items x samples per item) that one batched evaluation
#: holds: disc samples in the pencil checks, chart points x terms in the
#: slice families, shell points in the capacity check's KD-tree queries.
#: Freeing a block of about 0.5 MB or more makes glibc raise its mmap
#: threshold, which changes how the rest of the process allocates; 4096
#: complex samples per array stay well below that.
DISC_CHUNK_SAMPLES = 4096


def chunks(count: int, samples_per_item: int):
    """(start, stop) ranges over ``count`` items, each range holding at
    most DISC_CHUNK_SAMPLES samples, or one item if that alone holds more."""
    step = max(1, DISC_CHUNK_SAMPLES // max(1, samples_per_item))
    for start in range(0, count, step):
        yield start, min(start + step, count)


def _realify(points: np.ndarray) -> np.ndarray:
    """Rows of complex points as rows of their real and imaginary parts."""
    points = np.atleast_2d(points)
    return np.column_stack([points.real, points.imag]).reshape(len(points), -1)


def monomials(points, exponents) -> np.ndarray:
    """prod_j points[..., j] ** exponents[t, j] as an array (..., T).

    Shapes: points (..., d), exponents (T, d); each used power is computed once.
    """
    points = np.asarray(points)
    out = np.ones(points.shape[:-1] + (len(exponents),),
                  dtype=np.result_type(points, float))
    for j, e in enumerate(np.asarray(exponents, dtype=int).T):
        used, at = np.unique(e, return_inverse=True)
        out *= (points[..., j, None] ** used)[..., at]
    return out


def torus(radii, grid: int) -> Tuple[np.ndarray, ...]:
    """The n C-contiguous components of the nodes of |z_k| = radii[k]."""
    n = len(radii)
    circle = np.exp(1j * (2.0 * np.pi * np.arange(grid) / grid))
    # component k varies along axis k only
    return tuple(
        np.broadcast_to((r * circle).reshape((grid,) + (1,) * (n - 1 - k)),
                        (grid,) * n).copy()
        for k, r in enumerate(radii))


def torus_modes(values, n: int, band: Optional[int] = None) -> np.ndarray:
    """Fourier modes of samples on tori spanning the last n axes of values.

    With ``band`` only the modes m with |m_k| <= band on every axis are
    kept, as an array of size 2 band + 1 per axis holding mode m at index
    m + band.  Those values are the ones the full transform has at m mod G,
    bit for bit: like ``np.fft.fftn`` the transform runs one axis at a
    time, last axis first, and each 1-D transform acts on its own lines, so
    the band is cut after each axis before the next.
    """
    for axis in range(-1, -n - 1, -1):
        # "forward" divides by grid inside the transform, with no extra pass
        values = np.fft.fft(values, axis=axis, norm="forward")
        if band is not None:
            values = values.take(np.arange(-band, band + 1)
                                 % values.shape[axis], axis=axis)
    return values


def _times(a, b) -> np.ndarray:
    """Elementwise a * b with Python's complex rounding (no fused multiply-add)."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@dataclass(frozen=True, eq=False)
class GradedTerms:
    """A series' terms in graded-lexicographic order, as read-only arrays."""

    exponents: np.ndarray     # (T, 2n) int: row t is I + J
    coeffs: np.ndarray        # (T,) complex
    orders: np.ndarray        # (T,) int, |I| + |J|, nondecreasing

    @cached_property
    def keys(self) -> Tuple[TermKey, ...]:
        """The (I, J) pair of each row."""
        n = self.exponents.shape[1] // 2
        return tuple((tuple(e[:n]), tuple(e[n:]))
                     for e in self.exponents.tolist())


@dataclass(frozen=True, eq=False)
class HolomorphicTypeVerdict:
    """Outcome of the zbar-freeness check.

    ``witness`` is a violating term (I, J, coefficient) with J != 0 and is
    present exactly when ``is_holomorphic_type`` is False.
    """

    is_holomorphic_type: bool
    witness: Optional[Tuple[MultiIndex, MultiIndex, complex]] = None

    def __post_init__(self):
        if self.is_holomorphic_type == (self.witness is not None):
            raise ValueError("witness must be present iff verdict is False")

    def __bool__(self) -> bool:
        return self.is_holomorphic_type


class FormalSeries:
    """Immutable sparse polynomial in z and zbar, truncated at ``max_order``.

    Terms are kept in a canonical form: exact-zero coefficients are dropped
    and iteration follows graded-lexicographic order of (I, J), so printed
    and serialized output is deterministic.  Equality is structural.
    """

    __slots__ = ("n", "max_order", "graded")

    def __new__(cls, n: int, max_order: int,
                terms: Optional[Iterable[Tuple[TermKey, complex]]] = None):
        n = int(n)
        max_order = int(max_order)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if max_order < 0:
            raise ValueError("max_order must be >= 0")
        rows, values = [], []
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for (I, J), c in items:
                I = _check_index(I, n)
                J = _check_index(J, n)
                if sum(I) + sum(J) > max_order:
                    raise ValueError(
                        f"term z^{I} zbar^{J} exceeds max_order {max_order}")
                rows.append(I + J)
                values.append(complex(c))
        return cls._from_arrays(
            n, max_order, np.array(rows, dtype=int).reshape(len(rows), 2 * n),
            np.array(values, dtype=complex))

    @classmethod
    def _from_arrays(cls, n: int, max_order: int, exponents, coeffs,
                     ties=()) -> "FormalSeries":
        """The series sum_t coeffs[t] z^I zbar^J, row t of exponents I + J.

        The rows must satisfy |I| + |J| <= max_order.  Repeated rows are
        summed from 0 in order of the ``ties`` keys (most significant
        first), then of position; zero sums are dropped.
        """
        orders = exponents.sum(axis=1)
        # np.lexsort sorts by its last key first
        perm = np.lexsort((*ties[::-1], *exponents.T[::-1], orders))
        exponents, orders = exponents[perm], orders[perm]
        new = np.ones(len(perm), dtype=bool)
        new[1:] = (exponents[1:] != exponents[:-1]).any(axis=1)
        sums = np.zeros(np.count_nonzero(new), dtype=complex)
        np.add.at(sums, np.cumsum(new) - 1, coeffs[perm])
        nonzero = sums != 0
        rows = np.flatnonzero(new)[nonzero]
        table = (exponents[rows], sums[nonzero], orders[rows])
        for a in table:
            a.flags.writeable = False
        S = object.__new__(cls)
        object.__setattr__(S, "n", n)
        object.__setattr__(S, "max_order", max_order)
        object.__setattr__(S, "graded", GradedTerms(*table))
        return S

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the series from its table
        return (FormalSeries._from_arrays,
                (self.n, self.max_order, self.graded.exponents,
                 self.graded.coeffs))

    # -- basic access ------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The term map {(I, J): coefficient}, in graded order."""
        return dict(self.items())

    def items(self) -> Iterator[Tuple[TermKey, complex]]:
        """Terms in graded-lexicographic order."""
        return zip(self.graded.keys, self.graded.coeffs.tolist())

    def coefficient(self, I, J=None) -> complex:
        I = _check_index(I, self.n)
        J = _check_index(J, self.n) if J is not None else (0,) * self.n
        return self.terms.get((I, J), 0j)

    def is_zero(self) -> bool:
        return len(self) == 0

    def __len__(self) -> int:
        return len(self.graded.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.n == other.n and self.max_order == other.max_order
                and np.array_equal(self.graded.exponents,
                                   other.graded.exponents)
                and np.array_equal(self.graded.coeffs, other.graded.coeffs))

    __hash__ = None

    def __repr__(self) -> str:
        inner = " + ".join(
            f"({c:g})*z^{I}zb^{J}" for (I, J), c in self.items())
        return f"FormalSeries(n={self.n}, N={self.max_order}: {inner or '0'})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int, max_order: int) -> "FormalSeries":
        return cls(n, max_order)

    @classmethod
    def constant(cls, c: complex, n: int, max_order: int) -> "FormalSeries":
        zero = (0,) * n
        return cls(n, max_order, {(zero, zero): c})

    @classmethod
    def monomial(cls, I, J, c: complex, max_order: int) -> "FormalSeries":
        return cls(len(tuple(I)), max_order, {(tuple(I), tuple(J)): c})

    @classmethod
    def variable(cls, k: int, n: int, max_order: int) -> "FormalSeries":
        """The coordinate function z_k (1-based)."""
        if not 1 <= k <= n:
            raise ValueError(f"variable index {k} outside 1..{n}")
        I = tuple(1 if i == k - 1 else 0 for i in range(n))
        return cls.monomial(I, (0,) * n, 1.0, max_order)

    @classmethod
    def conj_variable(cls, k: int, n: int, max_order: int) -> "FormalSeries":
        """The conjugate coordinate zbar_k (1-based)."""
        if not 1 <= k <= n:
            raise ValueError(f"variable index {k} outside 1..{n}")
        J = tuple(1 if i == k - 1 else 0 for i in range(n))
        return cls.monomial((0,) * n, J, 1.0, max_order)

    # -- ring operations ---------------------------------------------------

    def _require_same_dim(self, other: "FormalSeries"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.n} vs {other.n}")

    def _termwise(self, coeffs) -> "FormalSeries":
        """This series with its coefficients replaced by ``coeffs``."""
        return FormalSeries._from_arrays(self.n, self.max_order,
                                         self.graded.exponents, coeffs)

    def __add__(self, other) -> "FormalSeries":
        if isinstance(other, (int, float, complex)):
            other = FormalSeries.constant(other, self.n, self.max_order)
        self._require_same_dim(other)
        N = min(self.max_order, other.max_order)
        a, b = self.graded, other.graded
        s, t = (np.searchsorted(g.orders, N, side="right") for g in (a, b))
        return FormalSeries._from_arrays(
            self.n, N, np.concatenate([a.exponents[:s], b.exponents[:t]]),
            np.concatenate([a.coeffs[:s], b.coeffs[:t]]))

    __radd__ = __add__

    def __neg__(self) -> "FormalSeries":
        return self._termwise(-self.graded.coeffs)

    def __sub__(self, other) -> "FormalSeries":
        return self + (-other if isinstance(other, FormalSeries) else -complex(other))

    def __rsub__(self, other) -> "FormalSeries":
        return (-self) + complex(other)

    def __mul__(self, other) -> "FormalSeries":
        if isinstance(other, (int, float, complex)):
            return self._termwise(_times(self.graded.coeffs, complex(other)))
        self._require_same_dim(other)
        N = min(self.max_order, other.max_order)
        a, b = self.graded, other.graded
        # Cauchy product, truncated at N: b.orders is sorted, so the partners
        # of row i of a are a prefix of b, of length counts[i]
        counts = np.searchsorted(b.orders, N - a.orders, side="right")
        left = np.repeat(np.arange(len(counts)), counts)
        right = np.arange(len(left)) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
        prods = _times(a.coeffs[left], b.coeffs[right])
        # the products of one key are summed in (real, imag) order, so
        # S*T == T*S exactly
        return FormalSeries._from_arrays(
            self.n, N, a.exponents[left] + b.exponents[right], prods,
            (prods.real, prods.imag))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FormalSeries":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = FormalSeries.constant(1.0, self.n, self.max_order)
        for _ in range(k):
            result = result * self
        return result

    # -- truncation and operators -----------------------------------------

    def truncate(self, m: int) -> "FormalSeries":
        """Drop all terms of total order > m; the result has max_order m."""
        if not 0 <= m <= self.max_order:
            raise ValueError(
                f"truncation order {m} outside [0, {self.max_order}]")
        g = self.graded
        t = np.searchsorted(g.orders, m, side="right")
        return FormalSeries._from_arrays(self.n, m, g.exponents[:t],
                                         g.coeffs[:t])

    def euler_e(self) -> "FormalSeries":
        """Apply E = sum_k z_k d/dz_k (termwise factor |I|)."""
        g = self.graded
        return self._termwise(_times(g.coeffs,
                                     g.exponents[:, :self.n].sum(axis=1)))

    def euler_ebar(self) -> "FormalSeries":
        """Apply Ebar = sum_k zbar_k d/dzbar_k (termwise factor |J|)."""
        g = self.graded
        return self._termwise(_times(g.coeffs,
                                     g.exponents[:, self.n:].sum(axis=1)))

    def is_holomorphic_type(self) -> HolomorphicTypeVerdict:
        """True iff no stored term carries a zbar factor (J != 0)."""
        g = self.graded
        zbar = np.flatnonzero(g.exponents[:, self.n:].any(axis=1))
        if zbar.size:
            t = zbar[0]
            return HolomorphicTypeVerdict(
                False, (*g.keys[t], complex(g.coeffs[t])))
        return HolomorphicTypeVerdict(True)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, z):
        """Evaluate at a point of C^n, or componentwise on arrays.

        ``z`` is a sequence of n complex scalars or broadcastable numpy
        arrays.  zbar is the componentwise conjugate.  Exact polynomial
        evaluation; always finite.
        """
        if len(z) != self.n:
            raise DimensionMismatchError(
                f"point has {len(z)} components, expected {self.n}")
        comps = np.broadcast_arrays(*(np.asarray(c, dtype=complex) for c in z))
        points = np.stack([*comps, *np.conj(comps)], axis=-1)
        total = monomials(points, self.graded.exponents) @ self.graded.coeffs
        return complex(total) if total.shape == () else total

    def __call__(self, z):
        return self.evaluate(z)

    # -- helpers used by downstream modules --------------------------------

    def max_abs_coefficient(self) -> float:
        return float(np.abs(self.graded.coeffs).max(initial=0.0))

    def terms_of_order(self, k: int) -> dict:
        """Terms with |I| + |J| == k, as {(I, J): coefficient}."""
        g = self.graded
        lo, hi = np.searchsorted(g.orders, (k, k + 1))
        return dict(zip(g.keys[lo:hi], g.coeffs[lo:hi].tolist()))

    # -- text format -------------------------------------------------------

    def to_text(self) -> str:
        """Serialize to the line-based series format.

        Header ``n=<int> N=<int>``; one term per line,
        ``i1 .. in | j1 .. jn | re im`` with shortest round-trip decimals.
        """
        lines = [f"n={self.n} N={self.max_order}"]
        for (I, J), c in self.items():
            lines.append("%s | %s | %s %s" % (
                " ".join(map(str, I)), " ".join(map(str, J)),
                repr(c.real), repr(c.imag)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FormalSeries":
        header = None
        terms = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if header is None:
                try:
                    fields = dict(part.split("=") for part in line.split())
                    header = (int(fields["n"]), int(fields["N"]))
                except (ValueError, KeyError):
                    raise SeriesFormatError(
                        f"line {lineno}: expected header 'n=<int> N=<int>', "
                        f"got {line!r}")
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3:
                raise SeriesFormatError(
                    f"line {lineno}: expected 'I | J | re im', got {line!r}")
            try:
                I = tuple(int(t) for t in parts[0].split())
                J = tuple(int(t) for t in parts[1].split())
                re_s, im_s = parts[2].split()
                c = complex(float(re_s), float(im_s))
            except ValueError:
                raise SeriesFormatError(f"line {lineno}: malformed term {line!r}")
            terms.append(((I, J), c))
        if header is None:
            raise SeriesFormatError("missing header line 'n=<int> N=<int>'")
        return cls(header[0], header[1], terms)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "FormalSeries":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())
