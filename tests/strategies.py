"""Hypothesis strategies for expressions whose verdicts are known by
construction, for the property tests (run under conftest's ``tier1``
profile).

Every strategy takes the dimension n and draws ``Expr`` trees in z1..zn.
Coefficients are quarters k/4, so the text of a tree is exact.

- ``holomorphic(n)`` (H): conj-free sums of products of monomials
  c z_j^p, exponentials exp(L(z)) with ||L||_1 <= 1, and reciprocals
  1/(c - L(z)) with c > ||L||_1, where L is a linear form and ||L||_1
  the sum of the moduli of its coefficients.  No divisor vanishes on the
  closed unit polydisc, so H is holomorphic on a neighbourhood of it.
- ``circle_perturbed(n)`` (N_circle): H + 0.5 T for T in conj(z1) and
  re(z1).  Along a line lambda u with u1 != 0, T has the negative
  Fourier mode conj(lambda) on every circle.
- ``radial_perturbed(n)`` (N_radial): H + 0.5 T for T in z1*conj(z2),
  normsq(z), exp(conj(z1)*z2) and im(z2)*z1.  Along a line, T enters
  only through |lambda|^2, so no circle shows a negative mode.

H + 0.5 T is never holomorphic: H has no conj term to cancel T's.
"""

from hypothesis import strategies as st

from forelli_lab import parse

CIRCLE_TERMS = ("conj(z1)", "re(z1)")
RADIAL_TERMS = ("z1*conj(z2)", "normsq(z)", "exp(conj(z1)*z2)", "im(z2)*z1")

QUARTERS = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def _linear_form(draw, n: int, l1_max: float):
    """A two-term linear form (text, ||L||_1) with ||L||_1 <= l1_max."""
    j, k = draw(st.integers(1, n)), draw(st.integers(1, n))
    top = int(4 * l1_max)
    a = draw(st.integers(-top, top)) / 4
    rest = top - int(4 * abs(a))
    b = draw(st.integers(-rest, rest)) / 4
    return f"({a!r})*z{j}+({b!r})*z{k}", abs(a) + abs(b)


@st.composite
def _atom(draw, n: int):
    kind = draw(st.sampled_from(["monomial", "exp", "reciprocal"]))
    if kind == "monomial":
        c, k, p = draw(QUARTERS), draw(st.integers(1, n)), draw(
            st.integers(0, 3))
        return f"({c!r})*z{k}^{p}"
    if kind == "exp":
        return f"exp({draw(_linear_form(n, 1.0))[0]})"
    # c = ||L||_1 + a positive quarter: c - L(z) has no zero where
    # every |z_k| <= 1
    L, l1 = draw(_linear_form(n, 2.0))
    c = l1 + draw(st.integers(1, 4)) / 4
    return f"1/(({c!r})-({L}))"


def _holomorphic_text(n: int):
    product = st.lists(_atom(n), min_size=1, max_size=2).map("*".join)
    return st.lists(product, min_size=1, max_size=3).map("+".join)


def holomorphic(n: int):
    """H: conj-free trees, holomorphic near the closed unit polydisc."""
    return _holomorphic_text(n).map(lambda text: parse(text, dim=n))


def _perturbed(n: int, terms):
    return st.tuples(_holomorphic_text(n), st.sampled_from(terms)).map(
        lambda t: parse(f"{t[0]}+0.5*{t[1]}", dim=n))


def circle_perturbed(n: int):
    """N_circle: H + 0.5 T, T with a negative mode on every circle."""
    return _perturbed(n, CIRCLE_TERMS)


def radial_perturbed(n: int):
    """N_radial: H + 0.5 T, T entering every line only through |lambda|^2."""
    return _perturbed(n, RADIAL_TERMS)
