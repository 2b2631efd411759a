import numpy as np
import pytest

from forelli_lab import EvalError, ParseError, evaluate, parse, to_string
from forelli_lab.expr import BinOp, Call, Neg, Num, Pow, Var, evaluate_jvp


class TestParse:
    def test_product_node(self):
        e = parse("z1*conj(z2)")
        assert isinstance(e, BinOp) and e.op == "*"
        assert isinstance(e.left, Var) and e.left.index == 0
        assert isinstance(e.right, Call) and e.right.func == "conj"

    def test_counterexample_structure(self):
        e = parse("z1^2*z2*conj(z1)/normsq(z)")
        assert isinstance(e, BinOp) and e.op == "/"
        assert isinstance(e.right, Call) and e.right.func == "normsq"

    def test_trailing_operator(self):
        with pytest.raises(ParseError, match="end of input"):
            parse("z1 +")

    def test_error_carries_position(self):
        try:
            parse("z1 + $")
        except ParseError as exc:
            assert exc.line == 1 and exc.col == 6
        else:
            pytest.fail("no error raised")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("z1 + w2")

    def test_index_out_of_declared_range(self):
        with pytest.raises(ParseError, match="out of declared range"):
            parse("z3", dim=2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="nonnegative integer"):
            parse("z1^-2")

    def test_custom_names(self):
        e = parse("l*u1 + l^2*conj(u1)*u2", var_names=("l", "u1", "u2"))
        assert evaluate(e, (2.0, 1j, 1.0)) == pytest.approx(2j + 4 * (-1j))

    def test_precedence(self):
        # power binds tighter than unary minus, which binds tighter than *
        assert evaluate(parse("-z1^2"), (2.0,)) == pytest.approx(-4.0)
        assert evaluate(parse("1+2*3^2"), (0.0,)) == pytest.approx(19.0)
        assert evaluate(parse("2*-3"), (0.0,)) == pytest.approx(-6.0)

    def test_imaginary_unit(self):
        assert evaluate(parse("2*i + 1"), (0.0,)) == pytest.approx(1 + 2j)


class TestEval:
    def test_normsq(self):
        assert evaluate(parse("normsq(z)"), (3.0, 4j)) == pytest.approx(25.0)

    def test_normsq_of_expression(self):
        assert evaluate(parse("normsq(z1+z2)"), (1.0, 1j)) == pytest.approx(2.0)

    def test_counterexample_value(self):
        e = parse("z1^2*z2*conj(z1)/normsq(z)")
        assert evaluate(e, (1.0, 1.0)) == pytest.approx(0.5)

    def test_division_by_zero(self):
        e = parse("1/(1-z1)")
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(e, (1.0,))
        # the offending subexpression is named
        try:
            evaluate(e, (1.0,))
        except EvalError as exc:
            assert "z1" in exc.subexpr

    def test_re_im_conj_exp(self):
        assert evaluate(parse("re(z1)"), (3 + 4j,)) == pytest.approx(3.0)
        assert evaluate(parse("im(z1)"), (3 + 4j,)) == pytest.approx(4.0)
        assert evaluate(parse("conj(z1)"), (3 + 4j,)) == pytest.approx(3 - 4j)
        assert evaluate(parse("exp(z1)"), (1j * np.pi,)) == pytest.approx(-1.0)

    def test_variable_out_of_range_at_eval(self):
        with pytest.raises(EvalError, match="out of range"):
            evaluate(parse("z3"), (1.0, 2.0))

    def test_vectorized(self):
        e = parse("z1*conj(z2) + exp(z1)")
        z1 = np.array([0.1, 0.2 + 0.3j])
        z2 = np.array([1.0, -1j])
        out = evaluate(e, (z1, z2))
        for i in range(2):
            assert out[i] == pytest.approx(evaluate(e, (z1[i], z2[i])))

    def test_inputs_released_without_garbage_collection(self):
        # the jet sampler evaluates hundreds of large tori; inputs held by
        # a reference cycle would pile up until the cyclic collector ran
        import gc
        import weakref
        z1 = np.ones(8, dtype=complex)
        ref = weakref.ref(z1)
        gc.disable()
        try:
            evaluate(parse("exp(z1) + z1^2"), (z1,))
            del z1
            assert ref() is None
        finally:
            gc.enable()


def _random_expr(rng, depth, nvars):
    roll = rng.integers(0, 8 if depth > 0 else 2)
    if roll == 0:
        return Num(complex(round(rng.standard_normal(), 3),
                           round(rng.standard_normal(), 3)))
    if roll == 1:
        k = int(rng.integers(0, nvars))
        return Var(k, f"z{k + 1}")
    if roll == 2:
        return Neg(_random_expr(rng, depth - 1, nvars))
    if roll in (3, 4, 5):
        op = "+-*"[roll - 3]
        return BinOp(op, _random_expr(rng, depth - 1, nvars),
                     _random_expr(rng, depth - 1, nvars))
    if roll == 6:
        return Pow(_random_expr(rng, depth - 1, nvars),
                   int(rng.integers(0, 4)))
    func = ["conj", "exp", "re", "im"][int(rng.integers(0, 4))]
    return Call(func, _random_expr(rng, depth - 1, nvars))


class TestRoundTrip:
    def test_print_parse_eval_agreement(self, rng):
        for _ in range(40):
            e = _random_expr(rng, 3, 2)
            back = parse(to_string(e))
            pts = rng.standard_normal((100, 2)) * 0.7 \
                + 1j * rng.standard_normal((100, 2)) * 0.7
            a = evaluate(e, (pts[:, 0], pts[:, 1]))
            b = evaluate(back, (pts[:, 0], pts[:, 1]))
            a = np.broadcast_to(np.asarray(a), (100,))
            b = np.broadcast_to(np.asarray(b), (100,))
            scale = np.maximum(1.0, np.abs(a))
            assert np.max(np.abs(a - b) / scale) <= 1e-12


# every node type: + - * /, unary minus, ^, conj, exp, re, im, normsq of an
# expression and of the whole vector, numbers and i
EVERY_NODE = ("exp(z1*conj(z2))/(2 + normsq(z)) - re(z1)^3*im(z2)"
              " + normsq(z1 - 0.5*z2)*-z1 + i*z2^0")


class TestForwardMode:
    def points(self, rng, count=50, directions=4):
        z = rng.standard_normal((2, count)) + 1j * rng.standard_normal((2, count))
        dz = (rng.standard_normal((2, directions, count))
              + 1j * rng.standard_normal((2, directions, count)))
        return tuple(0.7 * z), tuple(dz)

    def test_value_is_evaluate_bit_for_bit(self, rng):
        e = parse(EVERY_NODE)
        z, dz = self.points(rng)
        value, _ = evaluate_jvp(e, z, dz)
        assert np.array_equal(value, evaluate(e, z))
        assert evaluate_jvp(e, (0.3, 1j), (1.0, 0.0))[0] == evaluate(e, (0.3, 1j))

    def test_derivatives_match_central_differences(self, rng):
        e = parse(EVERY_NODE)
        z, dz = self.points(rng)
        _, tangent = evaluate_jvp(e, z, dz)
        assert tangent.shape == (4, 50)
        h = 1e-6
        shifted = lambda t: evaluate(e, tuple(c + t * d for c, d in zip(z, dz)))
        fd = (shifted(h) - shifted(-h)) / (2 * h)
        err = np.abs(tangent - fd) / np.maximum(1.0, np.abs(tangent))
        assert err.max() <= 1e-7

    def test_constant_has_zero_tangent(self):
        value, tangent = evaluate_jvp(parse("2*i - 1"), (np.ones(3),),
                                      (np.ones((2, 3)),))
        assert value == -1 + 2j
        assert tangent.shape == (2, 3) and not tangent.any()

    @pytest.mark.parametrize("text,z", [("1/(1-z1)", (1.0,)),
                                        ("z1/(z2 - normsq(z1))", (1j, 1.0)),
                                        ("z3", (1.0, 2.0))])
    def test_errors_are_evaluates(self, text, z):
        e = parse(text)
        with pytest.raises(EvalError) as want:
            evaluate(e, z)
        with pytest.raises(EvalError) as got:
            evaluate_jvp(e, z, tuple(np.ones((2, 1)) for _ in z))
        assert str(got.value) == str(want.value)
