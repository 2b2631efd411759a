"""Parser and evaluator for closed-form test functions f(z, zbar).

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" nat ] ;
    atom    = number | "i" | variable | call | "(" expr ")" ;
    call    = ("conj" | "exp" | "re" | "im" | "normsq") "(" arg ")" ;
    arg     = expr | "z" ;              (* bare "z" only inside normsq *)
    number  = digits [ "." digits ] [ ("e"|"E") ["+"|"-"] digits ] | "." digits ;
    nat     = digits ;

Precedence: power > unary minus > "*","/" > "+","-".  Integer exponents
are nonnegative literals; negative powers are written with division.
Variables are ``z1``..``zn`` by default; a custom name list can be given
(the pencil file format uses ``l``, ``u1``..``un``).  ``normsq(z)`` is
sum_k z_k zbar_k of the whole coordinate vector; ``normsq`` of a single
expression e means e * conj(e).

Evaluation is plain complex arithmetic, vectorized: points may be given
as scalars or broadcastable numpy arrays per component.  ``evaluate_jvp``
is its forward-mode twin: the same value, and the derivatives along given
real tangent directions.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class EvalError(ValueError):
    """Evaluation failure; carries the offending subexpression text."""

    def __init__(self, message: str, subexpr: Optional[str] = None):
        if subexpr:
            message = f"{message} in {subexpr!r}"
        super().__init__(message)
        self.subexpr = subexpr


# -- AST --------------------------------------------------------------------

class Expr:
    __slots__ = ()

    def __call__(self, z):
        return evaluate(self, z)

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Num(Expr):
    value: complex


@dataclass(frozen=True)
class Var(Expr):
    index: int          # 0-based component index
    name: str


@dataclass(frozen=True)
class WholeVector(Expr):
    """The bare coordinate vector ``z``; only valid inside normsq."""


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str             # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    func: str           # conj | exp | re | im | normsq
    arg: Expr


_FUNCTIONS = ("conj", "exp", "re", "im", "normsq")


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    line, line_start = 1, 0
    while pos < len(text):
        if text[pos] == "\n":
            line += 1
            line_start = pos + 1
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}",
                             line, bad_at - line_start + 1)
        col = m.start(m.lastgroup) - line_start + 1
        tokens.append((m.lastgroup, m.group(m.lastgroup), line, col))
        pos = m.end()
    tokens.append(("end", "", line, len(text) - line_start + 1))
    return tokens


# -- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, var_names: Optional[Sequence[str]],
                 dim: Optional[int]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_names = tuple(var_names) if var_names is not None else None
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok=None):
        tok = tok or self.peek()
        where = "end of input" if tok[0] == "end" else repr(tok[1])
        raise ParseError(f"{message}, found {where}", tok[2], tok[3])

    def expect_op(self, op: str):
        tok = self.advance()
        if tok[0] != "op" or tok[1] != op:
            self.error(f"expected {op!r}", tok)

    def parse(self) -> Expr:
        e = self.parse_expr()
        tok = self.peek()
        if tok[0] != "end":
            self.error("unexpected trailing input")
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            e = BinOp(op, e, self.parse_term())
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            e = BinOp(op, e, self.parse_unary())
        return e

    def parse_unary(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            tok = self.advance()
            if tok[0] != "num" or not tok[1].isdigit():
                self.error("exponent must be a nonnegative integer", tok)
            return Pow(base, int(tok[1]))
        return base

    def parse_atom(self) -> Expr:
        tok = self.advance()
        kind, text = tok[0], tok[1]
        if kind == "num":
            return Num(complex(float(text)))
        if kind == "op" and text == "(":
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            if text in _FUNCTIONS:
                self.expect_op("(")
                # bare z means the whole coordinate vector, but only in the
                # default z1..zn naming scheme
                if (text == "normsq" and self.var_names is None
                        and self.peek()[:2] == ("ident", "z")
                        and self.tokens[self.pos + 1][:2] == ("op", ")")):
                    self.advance()
                    arg: Expr = WholeVector()
                else:
                    arg = self.parse_expr()
                self.expect_op(")")
                return Call(text, arg)
            if text == "i":
                return Num(1j)
            return self.parse_variable(tok)
        self.error("expected a number, variable, function or '('", tok)

    def parse_variable(self, tok) -> Expr:
        name = tok[1]
        if self.var_names is not None:
            if name not in self.var_names:
                self.error(f"unknown identifier {name!r}", tok)
            return Var(self.var_names.index(name), name)
        m = _re.fullmatch(r"z(\d+)", name)
        if not m:
            self.error(f"unknown identifier {name!r}", tok)
        k = int(m.group(1))
        if k < 1:
            self.error("variable index must be >= 1", tok)
        if self.dim is not None and k > self.dim:
            self.error(f"variable index {k} out of declared range 1..{self.dim}",
                       tok)
        return Var(k - 1, name)


def parse(text: str, dim: Optional[int] = None,
          var_names: Optional[Sequence[str]] = None) -> Expr:
    """Parse an expression.

    ``dim`` optionally bounds the default variable indices z1..zdim at
    parse time; without it the range is checked at evaluation.
    ``var_names`` switches to an explicit variable-name list (used for
    pencil map expressions in l, u1..un).
    """
    return _Parser(text, var_names, dim).parse()


# -- printer -----------------------------------------------------------------

def to_string(e: Expr) -> str:
    def prec(node):
        if isinstance(node, BinOp):
            return 1 if node.op in "+-" else 2
        if isinstance(node, Neg):
            return 3
        return 9

    def render(node, parent_prec):
        if isinstance(node, Num):
            v = node.value
            if v.imag == 0:
                s = repr(v.real)
            elif v == 1j:
                s = "i"
            elif v.real == 0:
                s = f"{repr(v.imag)}*i"
            else:
                s = f"({repr(v.real)}+{repr(v.imag)}*i)"
            return s
        if isinstance(node, Var):
            return node.name
        if isinstance(node, WholeVector):
            return "z"
        if isinstance(node, Neg):
            inner = render(node.arg, 3)
            s = f"-{inner}"
            return f"({s})" if parent_prec > 3 else s
        if isinstance(node, BinOp):
            p = prec(node)
            left = render(node.left, p)
            right = render(node.right, p + 1)   # left-assoc
            s = f"{left}{node.op}{right}"
            return f"({s})" if p < parent_prec else s
        if isinstance(node, Pow):
            return f"{render(node.base, 9)}^{node.exponent}"
        if isinstance(node, Call):
            return f"{node.func}({render(node.arg, 0)})"
        raise TypeError(f"not an Expr node: {node!r}")

    return render(e, 0)


# -- evaluator ---------------------------------------------------------------

Point = Union[Sequence[complex], Tuple[np.ndarray, ...]]


def _ev(node, comps, tans):
    # (value, tangent) of node.  tans holds one tangent per variable; when
    # it is None, so is every tangent and only values are computed, by the
    # same operations either way.  Module-level rather than a closure: a
    # recursive closure forms a reference cycle that keeps the input
    # arrays alive until the cyclic garbage collector runs
    d = tans is not None
    if isinstance(node, Num):
        return node.value, 0 if d else None
    if isinstance(node, Var):
        if node.index >= len(comps):
            raise EvalError(
                f"variable {node.name} out of range for a point in C^{len(comps)}")
        return comps[node.index], tans[node.index] if d else None
    if isinstance(node, Neg):
        a, da = _ev(node.arg, comps, tans)
        return -a, -da if d else None
    if isinstance(node, BinOp):
        a, da = _ev(node.left, comps, tans)
        b, db = _ev(node.right, comps, tans)
        if node.op == "+":
            return a + b, da + db if d else None
        if node.op == "-":
            return a - b, da - db if d else None
        if node.op == "*":
            return a * b, da * b + a * db if d else None
        den = np.asarray(b)
        if np.any(den == 0):
            raise EvalError("division by zero", to_string(node.right))
        q = a / b
        return q, (da - q * db) / b if d else None
    if isinstance(node, Pow):
        a, da = _ev(node.base, comps, tans)
        k = node.exponent
        return a ** k, (k * a ** (k - 1) * da if k else 0) if d else None
    if isinstance(node, Call):
        if node.func == "normsq":
            if isinstance(node.arg, WholeVector):
                squares = [_normsq(c, tans[k] if d else None, d)
                           for k, c in enumerate(comps)]
                total, dtotal = squares[0]
                for c, dc in squares[1:]:
                    total = total + c
                    dtotal = dtotal + dc if d else None
                return total, dtotal
            return _normsq(*_ev(node.arg, comps, tans), d)
        a, da = _ev(node.arg, comps, tans)
        if node.func == "conj":
            return np.conj(a), np.conj(da) if d else None
        if node.func == "exp":
            ea = np.exp(a)
            return ea, ea * da if d else None
        if node.func == "re":
            return np.real(a) + 0j, np.real(da) + 0j if d else None
        if node.func == "im":
            return np.imag(a) + 0j, np.imag(da) + 0j if d else None
    raise TypeError(f"not an Expr node: {node!r}")


def _normsq(a, da, d):
    return a * np.conj(a), da * np.conj(a) + a * np.conj(da) if d else None


def evaluate(e: Expr, z: Point):
    """Evaluate ``e`` at ``z`` (sequence of scalars or numpy arrays).

    Raises EvalError on an exact zero denominator or an out-of-range
    variable index; the error names the offending subexpression.
    """
    comps = [np.asarray(c, dtype=complex) for c in z]
    arr = np.asarray(_ev(e, comps, None)[0], dtype=complex)
    if arr.shape == ():
        return complex(arr)
    return arr


def evaluate_jvp(e: Expr, z: Point, dz: Point):
    """Value of ``e`` at ``z`` and its derivatives along real directions.

    ``dz`` holds one tangent per variable of ``z``: the point moves as
    z + t dz for real t, so conj(dz) is the tangent of conj(z).  Each
    tangent broadcasts against the points, typically with one extra
    leading axis that runs over the directions.  Returns (value,
    tangent), the value bit for bit what ``evaluate`` returns and the
    tangent d/dt e(z + t dz) at t = 0, broadcast to the shape of all the
    points and tangents together; raises the errors of ``evaluate``.
    """
    comps = [np.asarray(c, dtype=complex) for c in z]
    tans = [np.asarray(c, dtype=complex) for c in dz]
    value, tangent = _ev(e, comps, tans)
    arr = np.asarray(value, dtype=complex)
    shape = np.broadcast_shapes(*(a.shape for a in comps + tans))
    return (complex(arr) if arr.shape == () else arr,
            np.broadcast_to(np.asarray(tangent, dtype=complex), shape))


def max_var_index(e: Expr) -> int:
    """Largest 0-based variable index used, or -1 for constant expressions."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Neg):
        return max_var_index(e.arg)
    if isinstance(e, BinOp):
        return max(max_var_index(e.left), max_var_index(e.right))
    if isinstance(e, Pow):
        return max_var_index(e.base)
    if isinstance(e, Call):
        return max_var_index(e.arg)
    return -1


def as_callable(f, n: int):
    """The Expr f as a vectorized function on C^n points.  Anything that
    is not an Expr raises TypeError, and an Expr in more than n variables
    EvalError."""
    if not isinstance(f, Expr):
        raise TypeError(f"expected an Expr, got {type(f).__name__}")
    top = max_var_index(f)
    if top >= n:
        raise EvalError(
            f"expression uses z{top + 1} but the ambient dimension is {n}")
    return lambda z: evaluate(f, z)
