"""Numerical laboratory for spectral asymptotics of planar Laplacians."""

__version__ = "0.1.0"

from .constants import (DIRICHLET, NEUMANN, boundary_sign, check_bc, corner_sum,
                        default_envelope_alpha, error_envelope,
                        heat_polygon_error_bound, heat_polygon_prediction,
                        heat_two_term_prediction, lt_constant, one_term_prediction,
                        three_term_polygon_prediction, two_term_prediction)
from .geometry import (ConvexPolygon, bishop_gromov_profile, chebyshev_center,
                       corner_params, distance_level_volume, inradius, load_polygon,
                       random_convex_polygon, save_polygon, theta_omega)
from .riesz import (PIECEWISE_CONSTANT, PIECEWISE_LINEAR, SampledFunction,
                    interpolation_constant, riesz_lift, riesz_interpolation_certificate,
                    semigroup_check)
from .spectra import (CapacityError, CertifiedRangeError, Disk,
                      InsufficientResolutionError, Rectangle, Spectrum, counting_function,
                      dirichlet_neumann_trace_gap, disk_spectrum, heat_trace,
                      pointwise_spectral_function, polygon_dirichlet_spectrum_fd,
                      rectangle_spectrum, riesz_mean)
from .smoothing import (AtomicMeasure, MollifierFamily, PhiHierarchy, build_mollifier,
                        build_phi_hierarchy, iterated_identity_report,
                        reflection_heat_bound, smoothed_riesz, tauberian_order_check)
from .shapeopt import (OptimizationRun, optimize_rectangle, rectangle_riesz_objective,
                       symmetry_trend, write_trace_csv)
