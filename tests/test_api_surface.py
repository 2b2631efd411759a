"""The public API surface: ``forelli_lab.__all__`` and its settings.

A setting is a parameter with a default value: one of a public callable
in ``__all__`` or of a public method of a class in it, or a field of
``AnalyzeConfig``.  Each is a value a caller can vary, so each doubles
what the tests and the benchmark must cover.

The rule: a new setting needs a caller outside ``tests/`` (in ``src/``,
``demos/``, ``bench/`` or the command line) that passes a value other
than the default, and a CHANGES.md line that names it.  A value that
only one caller uses is a module constant instead, which a test can
monkeypatch.  A value the code can work out from its other inputs, as
``radius_root_test`` reads K from its values and ``upper_envelope`` from
its family, is derived there and is not a setting either.  So a change
to either pin below is a change to this file and to CHANGES.md.

The input rule is the same rule for input types: the function under test
is an ``Expr``, the one kind of f that the command line, ``demos/`` and
``bench/`` pass.  ``extract_jet``, ``check_holo_along_pencil``,
``find_subpencil``, ``compute_H_G`` and ``wirtinger_dbar`` take only an
``Expr``, ``forelli_analyze`` an ``Expr`` or a ``FormalSeries``, and
anything else (a Python function, or a series given to the first five)
raises TypeError before any work is done.
"""

import dataclasses
import inspect

import numpy as np
import pytest

import forelli_lab
from forelli_lab import (AnalyzeConfig, FormalSeries, check_holo_along_pencil,
                         compute_H_G, extract_jet, find_subpencil,
                         forelli_analyze, sphere_directions, standard_pencil,
                         tilde_normalize, wirtinger_dbar)

PUBLIC_NAMES = [
    "AnalysisReport", "AnalyzeConfig", "CapacityEstimate", "CertificateError",
    "ChartPoly", "ChartUndecidableError", "CompactSet1D",
    "ConvergenceCertificate", "DegenerateNormalizationError",
    "DimensionMismatchError", "EnvelopeField", "EvalError", "Expr",
    "FULL_JET", "FormalSeries", "HGResult", "HolomorphicTypeVerdict",
    "JET_UP_TO", "JetExtractionError", "JetResult", "KData",
    "LipschitzCheck", "NO_JET", "NewtonInversionError", "NormalityCheck",
    "NotHolomorphicTypeError", "ParseError", "PencilCheckError",
    "PencilHoloResult", "PencilSpec", "PshFamily", "RootTestResult",
    "SeriesFormatError", "SlicePolyFamily", "SliceSeries",
    "SubpencilResult", "TorusAverage", "TrichotomyVerdict",
    "average_on_torus", "cap1d_transfinite", "cap_directions", "cap_siciak",
    "capacity", "certify_polydisc", "chart_map", "chart_poly_family",
    "check_holo_along_pencil", "classify_trichotomy", "compute_H_G",
    "disc_holo_residual", "energy", "evaluate", "expr", "extract_jet",
    "find_subpencil", "forelli_analyze", "jet_of_series", "jets",
    "leja_points", "lipschitz_check", "load_pencil", "normality_check",
    "parse", "pencil", "pencil_from_exprs", "pipeline", "psh",
    "radius_root_test", "radius_schedule", "report", "series",
    "siciak_lower_bound", "slice_series", "slices", "sphere_directions",
    "standard_pencil", "standard_subpencil_radius", "tilde_normalize",
    "to_string", "upper_envelope", "wirtinger_dbar"]

SETTINGS = {
    "AnalyzeConfig": ("order", "r0", "K", "seed", "jet_tol", "rho_max",
                      "grid"),
    "FormalSeries.coefficient": ("J",),
    "SlicePolyFamily.values_at": ("members",),
    "average_on_torus": ("grid",),
    "cap_directions": ("seed",),
    "cap_siciak": ("degree", "trials", "seed", "closed_form"),
    "certify_polydisc": ("seed",),
    "check_holo_along_pencil": ("rho_schedule", "tol"),
    "classify_trichotomy": ("K", "grid", "threshold"),
    "compute_H_G": ("tol_G",),
    "extract_jet": ("rho0", "sigma", "rho_max", "grid", "tol", "center"),
    "find_subpencil": ("tol", "ell_max"),
    "forelli_analyze": ("config",),
    "lipschitz_check": ("grid",),
    "parse": ("dim", "var_names"),
    "pencil_from_exprs": ("base_point",),
    "radius_schedule": ("rho0", "sigma", "rho_max"),
    "sphere_directions": ("seed",),
    "standard_subpencil_radius": ("V", "mesh"),
    "tilde_normalize": ("eps",),
    "upper_envelope": ("num",),
}


def defaulted(func) -> tuple:
    return tuple(p.name for p in inspect.signature(func).parameters.values()
                 if p.default is not p.empty)


def public_settings() -> dict:
    """Each public callable or method with settings, and their names."""
    found = {"AnalyzeConfig": tuple(
        f.name for f in dataclasses.fields(AnalyzeConfig))}
    for name in forelli_lab.__all__:
        obj = getattr(forelli_lab, name)
        if inspect.isfunction(obj):
            found[name] = defaulted(obj)
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                func = getattr(member, "__func__", member)   # class methods
                if not attr.startswith("_") and inspect.isfunction(func):
                    found[f"{name}.{attr}"] = defaulted(func)
    return {name: names for name, names in found.items() if names}


def test_public_names():
    assert forelli_lab.__all__ == PUBLIC_NAMES


def test_settings():
    assert public_settings() == SETTINGS
    assert sum(map(len, SETTINGS.values())) == 43


# the directions of the contract tests: e1 and 30 more on the sphere
DIRECTIONS = np.vstack([[1.0, 0.0], sphere_directions(2, 30, seed=3)])


def _holo(f):
    return check_holo_along_pencil(f, standard_pencil(2, DIRECTIONS))


def _subpencil(f):
    return find_subpencil(f, standard_pencil(2, DIRECTIONS), ell_max=2)


def _H_G(f):
    kd = tilde_normalize(standard_pencil(2, DIRECTIONS), (1.0, 0.0))
    return compute_H_G(f, kd, [0.1, 0.2j])


FUNCTION_ENTRY_POINTS = {
    "extract_jet": lambda f: extract_jet(f, 2, 4),
    "check_holo_along_pencil": _holo,
    "find_subpencil": _subpencil,
    "compute_H_G": _H_G,
    "wirtinger_dbar": lambda f: wirtinger_dbar(f, DIRECTIONS[:3]),
}
ENTRY_POINTS = {**FUNCTION_ENTRY_POINTS,
                "forelli_analyze": lambda f: forelli_analyze(f, DIRECTIONS)}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_plain_functions_refused(name):
    # refused before the first evaluation; find_subpencil, which turns
    # the errors of its chunks into inf rows, raises instead of
    # returning an empty patch
    seen = []
    f = lambda z: seen.append(z) or z[0]
    with pytest.raises(TypeError, match="^expected an Expr, got function$"):
        ENTRY_POINTS[name](f)
    assert seen == []


@pytest.mark.parametrize("name", FUNCTION_ENTRY_POINTS)
def test_series_refused_by_the_function_entry_points(name):
    with pytest.raises(TypeError,
                       match="^expected an Expr, got FormalSeries$"):
        FUNCTION_ENTRY_POINTS[name](FormalSeries.variable(1, 2, 4))


def test_forelli_analyze_takes_the_series_route():
    S = FormalSeries.variable(1, 2, 4)
    report = forelli_analyze(S, DIRECTIONS)
    skipped = {"reason": "input is an explicit series"}
    for name in ("disc_holomorphy", "jet"):
        stage = report.stage(name)
        assert (stage.status, stage.details) == ("skipped", skipped)
    assert report.jet.series is S
    assert report.stage("holomorphic_type").status == "pass"
