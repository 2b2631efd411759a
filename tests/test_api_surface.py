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
"""

import dataclasses
import inspect

import forelli_lab
from forelli_lab import AnalyzeConfig

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
