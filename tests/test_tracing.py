"""The benchmark's span tracer (bench/tracing.py) still fits the library.

The tracer wraps library functions and methods by name; a rename of one
of its targets would make ``bench/run.py --trace 1`` fail, so this test
installs and uninstalls it against the current library.
"""

import sys
import types
from pathlib import Path

import numpy as np

import forelli_lab
import forelli_lab.cli  # noqa: F401  (the tracer wraps cli.run)
from forelli_lab import FormalSeries
from forelli_lab.slices import ChartPoly

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """bench/tracing.py as a module, with no bytecode cache written beside it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def library_state(tracing):
    """Every attribute the tracer may patch, by holder and name."""
    holders = [forelli_lab, np.linalg] + [
        m for key, m in sys.modules.items() if key.startswith("forelli_lab.") and m]
    holders += [getattr(sys.modules[f"forelli_lab.{mod}"], cls)
                for mod, cls, _meth, _name in tracing.METHODS]
    return {(id(h), key): value for h in holders for key, value in vars(h).items()}


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    before = library_state(tracing)
    tracer = tracing.Tracer()
    with tracer:
        for mod, attr in tracing.FUNCTIONS:
            target = getattr(sys.modules[f"forelli_lab.{mod}"], attr)
            assert hasattr(target, "__wrapped__"), f"{mod}.{attr}"
        for mod, cls, meth, _name in tracing.METHODS:
            target = vars(getattr(sys.modules[f"forelli_lab.{mod}"], cls))[meth]
            assert hasattr(target, "__wrapped__"), f"{cls}.{meth}"
        product = FormalSeries.variable(1, 2, 4) * FormalSeries.variable(2, 2, 4)
        value = ChartPoly.from_dict(1, {(2,): 1.0})(np.array([2.0, 3.0]))
    assert product.coefficient((1, 1)) == 1.0
    assert value.tolist() == [4.0, 9.0]
    assert tracer.calls["series.mul"] == 1
    assert tracer.calls["slices.chart_poly_call"] == 1
    assert tracer.counts["slices.chart_poly_call.points"] == 2
    assert library_state(tracing) == before


def test_counters_keep_their_meaning():
    """The counts read from return values still count discs and modes."""
    tracing = load_tracing()
    P = forelli_lab.standard_pencil(
        2, forelli_lab.sphere_directions(2, 30, seed=1))
    order = 6
    with tracing.Tracer() as tracer:
        holo = forelli_lab.check_holo_along_pencil(
            forelli_lab.parse("exp(z1+z2)"), P, (0.3, 0.6, 0.9, 0.95))
        jet = forelli_lab.extract_jet(forelli_lab.parse("exp(z1)*z2"), 2,
                                      order)
    assert holo.passed and jet.full
    # one disc per direction and radius
    assert tracer.counts["pencil.discs_checked"] == 30 * 4
    # one mode per mu in Z^2 with |mu_1| + |mu_2| <= order
    modes = sum(1 for a in range(-order, order + 1)
                for b in range(-order, order + 1) if abs(a) + abs(b) <= order)
    assert tracer.counts["jets.modes_solved"] == modes == 85
