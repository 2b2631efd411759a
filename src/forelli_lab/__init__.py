"""Numerical laboratory for holomorphy along families of complex discs.

Decide holomorphic type of formal power series via the degree-grading
operators, extract Taylor jets of closed-form functions by torus
sampling, estimate directional radii of convergence and build explicit
polydisc convergence certificates, measure logarithmic capacities, and
verify holomorphy of functions along standard and C^1 pencils of
holomorphic discs.
"""

__version__ = "0.1.0"

from .series import (DimensionMismatchError, FormalSeries,
                     HolomorphicTypeVerdict, SeriesFormatError)
from .expr import EvalError, Expr, ParseError, evaluate, parse, to_string
from .jets import (FULL_JET, JET_UP_TO, NO_JET, JetExtractionError, JetResult,
                   extract_jet, jet_of_series, radius_schedule)
from .slices import (CertificateError, ChartPoly, ConvergenceCertificate,
                     NotHolomorphicTypeError, RootTestResult, SlicePolyFamily,
                     SliceSeries, certify_polydisc, chart_map,
                     chart_poly_family, radius_root_test, slice_series)
from .capacity import (CapacityEstimate, ChartUndecidableError, CompactSet1D,
                       NormalityCheck, cap1d_transfinite, cap_siciak, energy,
                       leja_points, normality_check, siciak_lower_bound)
from .psh import (EnvelopeField, LipschitzCheck, PshFamily, TorusAverage,
                  TrichotomyVerdict, average_on_torus, classify_trichotomy,
                  lipschitz_check, upper_envelope)
from .pencil import (DegenerateNormalizationError, DiscResidual, HGResult,
                     KData, NewtonInversionError, PencilCheckError,
                     PencilHoloResult, PencilSpec, SubpencilResult,
                     cap_directions, check_holo_along_pencil, compute_H_G,
                     disc_holo_residual, find_subpencil, load_pencil,
                     pencil_from_exprs, sphere_directions, standard_pencil,
                     standard_subpencil_radius, tilde_normalize,
                     wirtinger_dbar)
from .pipeline import AnalysisReport, AnalyzeConfig, forelli_analyze

__all__ = [name for name in dir() if not name.startswith("_")]
