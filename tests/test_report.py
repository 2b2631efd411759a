"""The report writer: the bytes of json.dumps(indent=2, sort_keys=True).

``to_json`` writes the report directly; these tests hold it to the
standard library's output on arbitrary JSON values and on every
subcommand's report, and hold ``sanitize`` to its isinstance-chain form.
"""

import enum
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from forelli_lab.cli import run
from forelli_lab.report import sanitize, to_json
from forelli_lab.series import FormalSeries

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


# -- to_json against json.dumps ------------------------------------------------

class Real(float):
    pass


class Whole(int):
    pass


class Colour(enum.IntEnum):
    RED = 1


# quotes, backslashes, control characters, DEL, non-ASCII, astral and a
# lone surrogate, which encode_basestring_ascii writes as \ud800
TRICKY = '"\\/\b\f\n\r\t\x00\x1f\x7f\x80é €😀\ud800'
TEXT = st.text(st.one_of(st.sampled_from(TRICKY), st.characters()),
               max_size=8)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                     1e16, 1e-5, 0.1]))
INTS = st.one_of(st.integers(), st.integers(-2**200, 2**200))
LEAVES = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT,
                   FLOATS.map(Real), INTS.map(Whole), st.just(Colour.RED))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
        st.dictionaries(FLOATS, children, max_size=3))


VALUES = st.recursive(LEAVES, containers, max_leaves=24)


# The default repr of a plain object carries its memory address, which would
# give its case a new name on every run; these fixed ids keep the names the
# cases were first reported under.
OBJECT_ID = "<object object at 0x7f6d1e519c20>"
THING_ID = "<test_report.Thing object at 0x7f6d161b4250>"


class TestToJson:
    @hypothesis.given(VALUES)
    def test_bytes_of_json_dumps(self, value):
        assert to_json(value) == dumps(value)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[[]]], {"": ""},
        {"b": 1, "a": [1.5, True, None, "x"], "A": -0.0},
        [5e-324, 1.7976931348623157e308, 2**64 + 1, -2**70],
        {"nested": [{"k": [Real(0.5), Whole(3), Colour.RED]}]},
    ], ids=repr)
    def test_named_shapes(self, value):
        assert to_json(value) == dumps(value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [
        lambda x: x, lambda x: [1.0, x], lambda x: {"a": {"b": [x]}},
        lambda x: {"a": Real(x)}], ids=["top", "list", "dict", "subclass"])
    def test_non_finite_floats_raise_value_error(self, bad, where):
        value = where(bad)
        with pytest.raises(ValueError) as want:
            dumps(value)
        with pytest.raises(ValueError) as got:
            to_json(value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("value", [
        pytest.param(object(), id=OBJECT_ID),
        {"a": [1, {"b": object()}]}, [set()], {"z": 1, None: 2},
        {1: "a", "b": 2}, b"bytes", np.float32(1.0)], ids=repr)
    def test_unserializable_raises_type_error(self, value):
        with pytest.raises(TypeError) as want:
            dumps(value)
        with pytest.raises(TypeError) as got:
            to_json(value)
        assert str(got.value) == str(want.value)


# -- sanitize against its isinstance chain -------------------------------------

def reference_sanitize(obj):
    """sanitize as it read before its exact-type fast path, with arrays of
    one or more axes sent to .tolist() (they tried .item() first)."""
    if isinstance(obj, dict):
        return {str(k): reference_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_sanitize(v) for v in obj]
    if isinstance(obj, complex):
        return [reference_sanitize(obj.real), reference_sanitize(obj.imag)]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if hasattr(obj, "item") and not getattr(obj, "ndim", 0):
        return reference_sanitize(obj.item())
    if hasattr(obj, "tolist"):
        return reference_sanitize(obj.tolist())
    return str(obj)


def same(a, b) -> bool:
    """Equal values of identical types all the way down (floats by repr,
    so -0.0 differs from 0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


class Thing:
    def __str__(self):
        return "a thing"


class TestSanitize:
    @hypothesis.given(VALUES)
    def test_same_as_reference_on_json_values(self, value):
        assert same(sanitize(value), reference_sanitize(value))

    @pytest.mark.parametrize("value", [
        np.float64(1.25), np.float64(-0.0), np.float32(0.1), np.int64(-7),
        np.bool_(True), np.complex128(1 - 2j), complex(0.5, math.inf),
        np.array(3.5), np.array(2 + 1j), np.array([7]), np.array([[1j]]),
        [math.nan, math.inf, -math.inf, -0.0], np.float64(math.nan),
        {1: 2, 3: [4, (5, 6)]}, {(1, 2): "tuple key", None: 1.5},
        (1, (2.0, "three")), pytest.param(Thing(), id=THING_ID),
        Fraction(1, 3), Real(2.5),
        Real(math.inf), Whole(4), Colour.RED, True, None, "text", 10**30,
        {"stage": {"values": [np.float64(0.5)], "ok": np.bool_(False)}},
    ], ids=repr)
    def test_same_as_reference(self, value):
        got, want = sanitize(value), reference_sanitize(value)
        assert same(got, want)
        assert to_json(got) == dumps(want)

    @pytest.mark.parametrize("value, want", [
        (np.arange(6).reshape(2, 3), [[0, 1, 2], [3, 4, 5]]),
        (np.array([[1 + 1j, math.nan]]), [[[1.0, 1.0], ["nan", 0.0]]]),
        ({"values": np.linspace(0, 1, 4)},
         {"values": [0.0, 1 / 3, 2 / 3, 1.0]}),
        (np.array([7]), [7]), (np.array([[1j]]), [[[0.0, 1.0]]]),
        (np.array(7), 7), (np.zeros((2, 0)), [[], []]),
    ], ids=["ints-2x3", "complex-nan", "dict-linspace", "one-entry",
            "complex-1x1", "zero-d", "empty-2x0"])
    def test_arrays_give_nested_lists(self, value, want):
        # arrays of one or more axes go through .tolist(), 0-d ones .item()
        assert same(sanitize(value), want)


# -- every subcommand's report -------------------------------------------------

def reencoded(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def run_json(capsys, *argv):
    code = run([*argv, "--json"])
    out = capsys.readouterr().out
    assert code in (0, 1), argv
    return out


class TestReports:
    def test_wide_analyze(self, capsys):
        out = run_json(capsys, "analyze", "--expr", "exp(z1+z2+z3)", "--dim",
                       "3", "--order", "8", "--directions", "sphere:1000",
                       "--seed", "1")
        # one radius column, without an echo of the 1000 direction rows
        assert len(json.loads(out)["summary"]["R_estimate"]) == 1000
        assert len(out.encode()) < 40_000
        assert out == reencoded(out)

    def test_every_subcommand(self, capsys, tmp_path):
        series = tmp_path / "geo.txt"
        FormalSeries(2, 24, {((i, j), (0, 0)): 1.0 for i in range(25)
                             for j in range(25 - i)}).save(series)
        pencil = tmp_path / "twist.json"
        pencil.write_text(json.dumps(
            {"n": 2, "map": ["l*u1", "l*u2 + l^2*conj(u1)*u2"],
             "directions": "sphere:40:3"}))
        for argv in [
                ("jet", "--expr", "z1^2*z2*conj(z1)/normsq(z)", "--order",
                 "4"),
                ("slice", "--series-file", str(series), "--a", "1,0 0.5,0"),
                ("capacity", "--set", "segment -1 1", "--m", "64"),
                ("psh", "--family", str(series), "--K", "24", "--classify"),
                ("pencil-check", "--pencil", str(pencil), "--expr",
                 "exp(z1+z2)"),
                ("subpencil", "--pencil", str(pencil), "--expr", "conj(z1)"),
                ("normalize", "--pencil", str(pencil), "--v0", "1,0 0,0",
                 "--expr", "exp(z1)"),
                ("certify", "--series-file", str(series), "--r0", "0.5")]:
            out = run_json(capsys, *argv)
            assert out == reencoded(out), argv
