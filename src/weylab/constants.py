"""Semiclassical constants and closed-form spectral predictions.

Everything in this module is a closed-form expression: the semiclassical
(Lieb-Thirring) constants L_{gamma,d}, the one- and two-term Weyl predictions
for Riesz means, the corner-corrected three-term prediction for polygons, the
short-time heat-trace expansions, and the remainder envelopes used to sanity
check computed spectra.  No spectrum is ever touched here.
"""

import math

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
_BOUNDARY_CONDITIONS = (DIRICHLET, NEUMANN)


def check_bc(bc):
    """Validate a boundary-condition label and return it normalized."""
    if not isinstance(bc, str) or bc.lower() not in _BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}; expected one of {_BOUNDARY_CONDITIONS}")
    return bc.lower()


def boundary_sign(bc):
    """Sign of the surface term in two-term expansions: -1 Dirichlet, +1 Neumann."""
    return -1.0 if check_bc(bc) == DIRICHLET else 1.0


def _check_order(gamma, dim):
    """Validate the order/dimension pair of the semiclassical constants."""
    if not (gamma >= 0):
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {dim}")


def _lt(gamma, dim):
    # Gamma(gamma+1) / ((4 pi)^{dim/2} Gamma(gamma + dim/2 + 1)); lgamma keeps
    # the ratio stable for large arguments.  dim = 0 is allowed internally (the
    # constant degenerates to 1) so that two-term formulas work in d = 1.
    return math.exp(
        math.lgamma(gamma + 1.0)
        - 0.5 * dim * math.log(4.0 * math.pi)
        - math.lgamma(gamma + 0.5 * dim + 1.0)
    )


def lt_constant(gamma, dim):
    """Semiclassical constant L_{gamma,dim} = Gamma(gamma+1)/((4 pi)^{dim/2} Gamma(gamma+dim/2+1)).

    gamma >= 0 real, dim >= 1 integer.  L_{0,2} = 1/(4 pi), L_{0,1} = 1/pi.
    """
    _check_order(gamma, dim)
    return _lt(gamma, dim)


def _check_angles(angles):
    angles = [float(a) for a in angles]
    for a in angles:
        if not (0.0 < a <= 2.0 * math.pi):
            raise ValueError(f"interior angle {a} outside (0, 2*pi]")
    return angles


def corner_sum(angles):
    """Sum of (pi^2 - alpha^2)/(24 pi alpha) over the interior angles.

    The unit square gives 1/4, the equilateral triangle 1/3, and any straight
    angle (alpha = pi) contributes exactly zero.
    """
    angles = _check_angles(angles)
    return sum((math.pi**2 - a**2) / (24.0 * math.pi * a) for a in angles)


def one_term_prediction(lam, gamma, dim, volume):
    """Leading Weyl term L_{gamma,dim} |Omega| lambda^{gamma + dim/2}."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    return lt_constant(gamma, dim) * volume * lam ** (gamma + 0.5 * dim)


def two_term_prediction(lam, gamma, dim, volume, perimeter, bc):
    """Two-term Weyl prediction for the order-gamma Riesz mean at energy lam.

    L_{g,d}|Omega| lam^{g+d/2} -/+ (1/4) L_{g,d-1} |bdry| lam^{g+(d-1)/2},
    minus for Dirichlet, plus for Neumann.
    """
    sign = boundary_sign(bc)
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    _check_order(gamma, dim)
    main = _lt(gamma, dim) * volume * lam ** (gamma + 0.5 * dim)
    surf = 0.25 * _lt(gamma, dim - 1) * perimeter * lam ** (gamma + 0.5 * (dim - 1))
    return main + sign * surf


def three_term_polygon_prediction(lam, gamma, area, perimeter, angles, bc):
    """Two-term planar prediction plus the corner term lam^gamma * corner_sum(angles).

    The corner term enters with a plus sign for both boundary conditions.
    """
    base = two_term_prediction(lam, gamma, 2, area, perimeter, bc)
    return base + lam**gamma * corner_sum(angles)


def heat_two_term_prediction(t, dim, volume, perimeter, bc):
    """Short-time heat trace (4 pi t)^{-d/2} (|Omega| -/+ sqrt(pi t)/2 |bdry|)."""
    sign = boundary_sign(bc)
    if not t > 0:
        raise ValueError("t must be > 0")
    return (4.0 * math.pi * t) ** (-0.5 * dim) * (
        volume + sign * 0.5 * math.sqrt(math.pi * t) * perimeter
    )


def heat_polygon_prediction(t, area, perimeter, angles):
    """Dirichlet polygon heat trace: area/(4 pi t) - perimeter/(8 sqrt(pi t)) + corner_sum."""
    if not t > 0:
        raise ValueError("t must be > 0")
    return (
        area / (4.0 * math.pi * t)
        - perimeter / (8.0 * math.sqrt(math.pi * t))
        + corner_sum(angles)
    )


def heat_polygon_error_bound(t, area, n_corners, alpha_min, big_r):
    """Explicit bound on the polygon heat-trace remainder.

    (5 n + 20 |Omega| / R^2) alpha^{-2} exp(-R^2 sin^2(alpha/2) / (16 t)) with
    alpha the smallest interior angle and R the corner-separation radius.
    """
    if not (t > 0 and big_r > 0 and 0 < alpha_min <= math.pi):
        raise ValueError("need t > 0, R > 0 and alpha_min in (0, pi]")
    pref = (5.0 * n_corners + 20.0 * area / big_r**2) / alpha_min**2
    return pref * math.exp(-(big_r**2) * math.sin(0.5 * alpha_min) ** 2 / (16.0 * t))


def default_envelope_alpha(gamma):
    """Decay exponent parameter: 1 for gamma >= 1, 0.9*gamma below (0 at gamma = 0)."""
    if not gamma >= 0:
        raise ValueError("gamma must be >= 0")
    return 1.0 if gamma >= 1.0 else 0.9 * gamma


def error_envelope(lam, gamma, perimeter, inradius, dim, bc):
    """Order-only remainder envelope (unit constant) for the two-term expansion.

    Dirichlet:  Per * lam^{gamma+(d-1)/2} * (r_in sqrt(lam))^{-alpha/11}
    Neumann:    Per * lam^{gamma+(d-1)/2} * [ (1 + ln_+(r_in sqrt(lam)))^{-alpha*max(1,gamma)}
                                              + (r_in sqrt(lam))^{1-d} ]
    with alpha = 1 for gamma >= 1 and 0.9*gamma for gamma < 1.
    These have unit prefactor by convention: they encode the decay *order* of
    the remainder, not a certified constant.
    """
    bc = check_bc(bc)
    if not (lam > 0 and perimeter > 0 and inradius > 0):
        raise ValueError("need lam > 0, perimeter > 0, inradius > 0")
    alpha = default_envelope_alpha(gamma)
    scale = perimeter * lam ** (gamma + 0.5 * (dim - 1))
    x = inradius * math.sqrt(lam)
    if bc == DIRICHLET:
        return scale * x ** (-alpha / 11.0)
    lnp = max(math.log(x), 0.0)
    return scale * ((1.0 + lnp) ** (-alpha * max(1.0, gamma)) + x ** (1 - dim))

