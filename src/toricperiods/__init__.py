"""Exact verification of toric period dualities over the function field of P^1.

The package builds dual pairs of graded affine toric data from rational
strongly convex cones and checks, coefficient by coefficient in truncated
formal series over a cyclotomic field, that the automorphic and spectral
period computations agree: globally, orbit by orbit under regularization,
and through finite-quotient (stack) variants.  Everything is exact; no
floating point appears anywhere.
"""

__version__ = "0.1.0"

from .characters import Character, character_from_spec, formal_character
from .cones import (
    Cone,
    dual_cone,
    face_dual,
    faces,
    hilbert_basis,
    make_cone,
    points_at_level,
)
from .curve import Curve, place_counts, zeta_series
from .duality import GradedDualPair, GradedToricDatum, toric_dual
from .periods import (
    automorphic_local_factor,
    automorphic_period,
    engine_input,
    spectral_local_factor,
    spectral_period,
    verify_weak_duality,
)
from .regularization import is_cuspidal, is_generic, verify_langlands_dual_periods
from .series import TruncatedSeries
from .stacks import induced_pair, make_isogeny, verify_stack_duality

__all__ = [
    "Character",
    "Cone",
    "Curve",
    "GradedDualPair",
    "GradedToricDatum",
    "TruncatedSeries",
    "automorphic_local_factor",
    "automorphic_period",
    "character_from_spec",
    "dual_cone",
    "engine_input",
    "face_dual",
    "faces",
    "formal_character",
    "hilbert_basis",
    "induced_pair",
    "is_cuspidal",
    "is_generic",
    "make_cone",
    "make_isogeny",
    "place_counts",
    "points_at_level",
    "spectral_local_factor",
    "spectral_period",
    "toric_dual",
    "verify_langlands_dual_periods",
    "verify_stack_duality",
    "verify_weak_duality",
    "zeta_series",
]
