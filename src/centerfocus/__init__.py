"""Symbolic and numeric toolkit for the center-focus question of planar
vector-field singularities with rotational linear part, together with the
complex-analytic machinery around their Siegel resonant complexifications.

The public names below are served lazily (PEP 562): `import centerfocus`
loads no submodule, and a name loads the one that defines it."""

__version__ = "0.1.0"

_MODULE_OF = {  # public name -> the submodule that defines it
    **dict.fromkeys(("GaussianRational", "OneForm2", "Poly2", "VectorField2",
                     "gr", "lie_derivative"), "series"),
    **dict.fromkeys(("Germ1", "compose", "finite_order", "invert",
                     "pseudo_orbit"), "germ"),
    **dict.fromkeys(("CenterVerdict", "LyapunovReport", "certify_center",
                     "lyapunov_quantities", "morse_check",
                     "normalize_rotation"), "center"),
    **dict.fromkeys(("blowup", "complexify", "contact_order", "factor_fg",
                     "formal_first_integral_siegel", "real_slice",
                     "siegel_check"), "foliation"),
    **dict.fromkeys(("TransverseSegment", "bounded_order_scan",
                     "detect_periodic_sequence", "half_return_map",
                     "integrate", "level_set_conservation", "return_map"),
                    "flow"),
}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
