"""Sparse truncated formal power series in (z_1..z_n, zbar_1..zbar_n).

A series is a finite sum  sum_{I,J} C[I,J] z^I zbar^J  with complex
coefficients, stored sparsely and truncated at a total order bound N
(every stored term satisfies |I| + |J| <= N).  Multi-indices are plain
tuples of nonnegative ints.  All values are immutable; every operation
returns a new series, so instances are safe to share across threads.

The degree-grading (Euler) operators act termwise:

    E     : C z^I zbar^J  ->  |I| C z^I zbar^J
    Ebar  : C z^I zbar^J  ->  |J| C z^I zbar^J

so on canonical series the kernel of Ebar is exactly the set of series
free of zbar (holomorphic type).  Coefficients are complex doubles and
"zero" means exactly 0.0 in both components; there is no epsilon
comparison at this layer.

Each series builds its graded array view (``FormalSeries.graded``) once;
ordered iteration, order blocks and the zbar check read it.  Every
polynomial evaluation in the lab goes through the one kernel ``monomials``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple

import numpy as np

MultiIndex = Tuple[int, ...]
TermKey = Tuple[MultiIndex, MultiIndex]


class DimensionMismatchError(ValueError):
    """Arguments live in different ambient dimensions."""


class SeriesFormatError(ValueError):
    """Malformed series text."""


def order(alpha: MultiIndex) -> int:
    """Total order |alpha| = alpha_1 + ... + alpha_n."""
    return sum(alpha)


def _check_index(alpha, n: int) -> MultiIndex:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != n:
        raise DimensionMismatchError(
            f"multi-index {alpha} has length {len(alpha)}, expected {n}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"multi-index {alpha} has a negative entry")
    return alpha


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


class GradedTerms(NamedTuple):
    """A series' terms in graded-lexicographic order, as read-only arrays."""

    keys: Tuple[TermKey, ...]
    exponents: np.ndarray     # (T, 2n) int: row t is I + J
    coeffs: np.ndarray        # (T,) complex
    orders: np.ndarray        # (T,) int, |I| + |J|, nondecreasing


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

    __slots__ = ("n", "max_order", "_terms", "_graded")

    def __init__(self, n: int, max_order: int,
                 terms: Optional[Iterable[Tuple[TermKey, complex]]] = None):
        n = int(n)
        max_order = int(max_order)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if max_order < 0:
            raise ValueError("max_order must be >= 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "max_order", max_order)
        canon = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for (I, J), c in items:
                I = _check_index(I, n)
                J = _check_index(J, n)
                if order(I) + order(J) > max_order:
                    raise ValueError(
                        f"term z^{I} zbar^{J} exceeds max_order {max_order}")
                c = complex(c) + canon.get((I, J), 0j)
                if c == 0:
                    canon.pop((I, J), None)
                else:
                    canon[(I, J)] = c
        object.__setattr__(self, "_terms", canon)
        object.__setattr__(self, "_graded", None)

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    # -- basic access ------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Copy of the term map {(I, J): coefficient}."""
        return dict(self._terms)

    @property
    def graded(self) -> GradedTerms:
        """The graded array view of the terms, built once per instance."""
        if self._graded is None:
            # graded lexicographic on the concatenated (I, J)
            keys = tuple(sorted(self._terms, key=lambda k: (
                order(k[0]) + order(k[1]), k[0] + k[1])))
            exps = np.array([I + J for I, J in keys], dtype=int)
            exps = exps.reshape(len(keys), 2 * self.n)
            coeffs = np.array([self._terms[k] for k in keys], dtype=complex)
            view = GradedTerms(keys, exps, coeffs, exps.sum(axis=1))
            for a in view[1:]:
                a.flags.writeable = False
            object.__setattr__(self, "_graded", view)
        return self._graded

    def items(self) -> Iterator[Tuple[TermKey, complex]]:
        """Terms in graded-lexicographic order."""
        for key in self.graded.keys:
            yield key, self._terms[key]

    def coefficient(self, I, J=None) -> complex:
        I = _check_index(I, self.n)
        J = _check_index(J, self.n) if J is not None else (0,) * self.n
        return self._terms.get((I, J), 0j)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return (self.n == other.n and self.max_order == other.max_order
                and self._terms == other._terms)

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

    def __add__(self, other) -> "FormalSeries":
        if isinstance(other, (int, float, complex)):
            other = FormalSeries.constant(other, self.n, self.max_order)
        self._require_same_dim(other)
        N = min(self.max_order, other.max_order)
        out = {}
        for src in (self._terms, other._terms):
            for key, c in src.items():
                if order(key[0]) + order(key[1]) <= N:
                    out[key] = out.get(key, 0j) + c
        return FormalSeries(self.n, N, out)

    __radd__ = __add__

    def __neg__(self) -> "FormalSeries":
        return FormalSeries(self.n, self.max_order,
                            {k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "FormalSeries":
        return self + (-other if isinstance(other, FormalSeries) else -complex(other))

    def __rsub__(self, other) -> "FormalSeries":
        return (-self) + complex(other)

    def __mul__(self, other) -> "FormalSeries":
        if isinstance(other, (int, float, complex)):
            return FormalSeries(
                self.n, self.max_order,
                {k: c * other for k, c in self._terms.items()})
        self._require_same_dim(other)
        N = min(self.max_order, other.max_order)
        # Cauchy product, truncated at N.  Products are accumulated per
        # output key in a canonical order so that S*T == T*S exactly.
        buckets = {}
        for (I1, J1), c1 in self._terms.items():
            d1 = order(I1) + order(J1)
            for (I2, J2), c2 in other._terms.items():
                if d1 + order(I2) + order(J2) > N:
                    continue
                I = tuple(a + b for a, b in zip(I1, I2))
                J = tuple(a + b for a, b in zip(J1, J2))
                buckets.setdefault((I, J), []).append(c1 * c2)
        out = {}
        for key, prods in buckets.items():
            prods.sort(key=lambda c: (c.real, c.imag))
            out[key] = sum(prods)
        return FormalSeries(self.n, N, out)

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
        kept = {k: c for k, c in self._terms.items()
                if order(k[0]) + order(k[1]) <= m}
        return FormalSeries(self.n, m, kept)

    def euler_e(self) -> "FormalSeries":
        """Apply E = sum_k z_k d/dz_k (termwise factor |I|)."""
        return FormalSeries(
            self.n, self.max_order,
            {k: order(k[0]) * c for k, c in self._terms.items()})

    def euler_ebar(self) -> "FormalSeries":
        """Apply Ebar = sum_k zbar_k d/dzbar_k (termwise factor |J|)."""
        return FormalSeries(
            self.n, self.max_order,
            {k: order(k[1]) * c for k, c in self._terms.items()})

    def is_holomorphic_type(self) -> HolomorphicTypeVerdict:
        """True iff no stored term carries a zbar factor (J != 0)."""
        g = self.graded
        zbar = np.flatnonzero(g.exponents[:, self.n:].any(axis=1))
        if zbar.size:
            I, J = g.keys[zbar[0]]
            return HolomorphicTypeVerdict(False, (I, J, self._terms[(I, J)]))
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
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def terms_of_order(self, k: int) -> dict:
        """Terms with |I| + |J| == k, as {(I, J): coefficient}."""
        g = self.graded
        lo, hi = np.searchsorted(g.orders, (k, k + 1))
        return {key: self._terms[key] for key in g.keys[lo:hi]}

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
