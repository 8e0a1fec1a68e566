"""Exact dyadic local densities, their generating functions, and period tables.

The layers, bottom up:

- localfield: the supported p-adic fields, quadratic defects, Hilbert symbols
- qform: diagonal quadratic forms, invariants, anisotropic representatives
- kernels / counting: exact congruence counting and the level series X
- ratfunc / closedforms: rational-function closed forms and their assembly
  into the generating function Pi and the even-prime local factor
- periods: the dimension-indexed global tables and truncated Euler products
"""

__version__ = "0.1.0"

from .localfield import (LocalField, FieldElt, DefectResult, make_field,
                         quadratic_defect, is_square, unit_defect_kind,
                         unit_class_reps, square_class_reps, hilbert_symbol,
                         count_square_roots, InternalConsistencyError)
from .qform import (DiagonalForm, FormInvariants, WittProfile, invariants,
                    is_anisotropic, anisotropic_representative, witt_profile)
from .counting import (TruncatedSeries, count_level_naive,
                       count_level_histogram, x_series, x_series_at,
                       pi_truncated, conic_measure,
                       residually_anisotropic_pair)
from .kernels import EnumBudgetError, PrimeBoundError
from .ratfunc import RF, Poly, pretty_rf, ratio_if_proportional
from .closedforms import (ClosedFormCase, PiecewiseGeometric, UnsupportedCase,
                          CASE_TAGS, case_for_form, x_closed, closed_profile,
                          x_from_levels, x_from_levels_zero, pi_from_x,
                          pi_geometric, dimension_reduce,
                          local_factor_chain, halfstep_sum, zeta_Z)
from .periods import (GlobalPeriodSpec, PeriodValue, mod4_character,
                      table_row, verify_table_row, evaluate_period)

__all__ = [
    "LocalField", "FieldElt", "DefectResult", "make_field",
    "quadratic_defect", "is_square", "unit_defect_kind", "unit_class_reps",
    "square_class_reps", "hilbert_symbol", "count_square_roots",
    "InternalConsistencyError",
    "DiagonalForm", "FormInvariants", "WittProfile", "invariants",
    "is_anisotropic", "anisotropic_representative", "witt_profile",
    "TruncatedSeries", "count_level_naive", "count_level_histogram",
    "x_series", "x_series_at", "pi_truncated", "conic_measure",
    "residually_anisotropic_pair",
    "EnumBudgetError", "PrimeBoundError",
    "RF", "Poly", "pretty_rf", "ratio_if_proportional",
    "ClosedFormCase", "PiecewiseGeometric", "UnsupportedCase", "CASE_TAGS",
    "case_for_form", "x_closed", "closed_profile", "x_from_levels",
    "x_from_levels_zero", "pi_from_x", "pi_geometric", "dimension_reduce",
    "local_factor_chain", "halfstep_sum", "zeta_Z",
    "GlobalPeriodSpec", "PeriodValue", "mod4_character", "table_row",
    "verify_table_row", "evaluate_period",
]
