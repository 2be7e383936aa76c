"""Symbolic and numeric toolkit for the center-focus question of planar
vector-field singularities with rotational linear part, together with the
complex-analytic machinery around their Siegel resonant complexifications."""

__version__ = "0.1.0"

from .series import (  # noqa: F401
    GaussianRational,
    OneForm2,
    Poly2,
    VectorField2,
    gr,
    lie_derivative,
)
from .germ import Germ1, compose, finite_order, invert, pseudo_orbit  # noqa: F401
from .center import (  # noqa: F401
    CenterVerdict,
    LyapunovReport,
    certify_center,
    lyapunov_quantities,
    morse_check,
    normalize_rotation,
)
from .foliation import (  # noqa: F401
    blowup,
    complexify,
    contact_order,
    factor_fg,
    formal_first_integral_siegel,
    real_slice,
    siegel_check,
)
from .flow import (  # noqa: F401
    TransverseSegment,
    bounded_order_scan,
    detect_periodic_sequence,
    half_return_map,
    integrate,
    level_set_conservation,
    return_map,
)
