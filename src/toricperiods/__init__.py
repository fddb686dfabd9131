"""Exact verification of toric period dualities over the function field of P^1.

The package builds dual pairs of graded affine toric data from rational
strongly convex cones and checks, coefficient by coefficient in truncated
formal series over a cyclotomic field, that the automorphic and spectral
period computations agree: globally, orbit by orbit under regularization,
and through finite-quotient (stack) variants.  Everything is exact; no
floating point appears anywhere.

The public names are listed once, by module, in `_EXPORTS`.  A name, or a
submodule, is imported when it is first read (PEP 562), so `import
toricperiods` alone loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "characters": ("Character", "character_from_spec", "formal_character"),
    "cones": ("Cone", "dual_cone", "face_dual", "faces", "hilbert_basis", "make_cone",
              "points_at_level"),
    "curve": ("Curve", "place_counts", "zeta_series"),
    "duality": ("GradedDualPair", "GradedToricDatum", "toric_dual"),
    "periods": ("automorphic_local_factor", "automorphic_period", "certified",
                "spectral_local_factor", "spectral_period", "verify_weak_duality"),
    "regularization": ("is_cuspidal", "is_generic", "verify_langlands_dual_periods"),
    "series": ("TruncatedSeries",),
    "stacks": ("make_isogeny", "verify_stack_duality"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A public name, or a submodule, imported when it is first read (PEP 562)."""
    module = _MODULE_OF.get(name, name)
    path = f"{__name__}.{module}"
    try:
        value = import_module(path)
    except ModuleNotFoundError as err:
        if err.name != path:
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return value if module == name else getattr(value, name)
