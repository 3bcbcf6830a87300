"""Closed-form constants and predictions against independently derived values."""

import math

import numpy as np
import pytest

from weylab.constants import (DIRICHLET, NEUMANN, boundary_sign, check_bc, corner_sum,
                              default_envelope_alpha, error_envelope, heat_polygon_error_bound,
                              heat_polygon_prediction, heat_two_term_prediction, lt_constant,
                              one_term_prediction, three_term_polygon_prediction,
                              two_term_prediction)


def test_lt_constant_reference_values():
    # rational-multiple-of-pi cases worked out by hand from the Gamma ratio
    assert abs(lt_constant(0, 2) - 1.0 / (4.0 * math.pi)) < 1e-15
    assert abs(lt_constant(0, 1) - 1.0 / math.pi) < 1e-15
    assert abs(lt_constant(1, 2) - 1.0 / (8.0 * math.pi)) < 1e-15
    assert abs(lt_constant(1.5, 2) - 1.0 / (10.0 * math.pi)) < 1e-15
    assert abs(lt_constant(1, 1) - 2.0 / (3.0 * math.pi)) < 1e-15
    # 40-digit quadrature-free evaluation of Gamma(1.7)/((4 pi)^{3/2} Gamma(3.2))
    assert abs(lt_constant(0.7, 3) - 0.0084149205318371247229) < 1e-16


def test_lt_constant_monotone_in_dim():
    for g in (0.0, 0.5, 1.0, 2.0):
        vals = [lt_constant(g, d) for d in range(1, 6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_semiclassical_params_validation():
    # both entry points refuse the same three bad (gamma, dim) pairs
    cases = ((-0.1, 2, "gamma must be >= 0"), (1.0, 0, "dim must be an integer >= 1"),
             (1.0, 2.5, "dim must be an integer >= 1"))
    for gamma, dim, msg in cases:
        with pytest.raises(ValueError, match=msg):
            lt_constant(gamma, dim)
        with pytest.raises(ValueError, match=msg):
            two_term_prediction(100.0, gamma, dim, 1.0, 4.0, DIRICHLET)
    with pytest.raises(ValueError):
        lt_constant(-1.0, 2)


def test_bc_labels():
    assert check_bc("Dirichlet") == DIRICHLET
    assert check_bc("NEUMANN") == NEUMANN
    assert boundary_sign(DIRICHLET) == -1.0
    assert boundary_sign(NEUMANN) == 1.0
    with pytest.raises(ValueError):
        check_bc("robin")
    with pytest.raises(ValueError):
        check_bc(3)


def test_corner_sum_reference_values():
    assert abs(corner_sum([math.pi / 2] * 4) - 0.25) < 1e-15
    assert abs(corner_sum([math.pi / 3] * 3) - 1.0 / 3.0) < 1e-15
    # right triangle with legs 3 and 4; 20-digit arbitrary-precision sum
    angles = [math.pi / 2, math.atan2(4.0, 3.0), math.atan2(3.0, 4.0)]
    assert abs(corner_sum(angles) - 0.38624755659542467369) < 1e-15
    # a straight angle contributes exactly nothing
    assert corner_sum([math.pi]) == 0.0
    assert abs(corner_sum([math.pi / 2] * 4 + [math.pi]) - 0.25) < 1e-15


def test_corner_sum_rejects_bad_angles():
    for bad in (0.0, -0.3, 2.0 * math.pi + 0.1):
        with pytest.raises(ValueError):
            corner_sum([math.pi / 2, bad])


def test_two_term_orientation():
    """Surface correction lowers Dirichlet counts and raises Neumann counts."""
    for lam in (10.0, 1e3, 1e7):
        for g in (0.0, 0.5, 1.0):
            one = one_term_prediction(lam, g, 2, 1.0)
            lo = two_term_prediction(lam, g, 2, 1.0, 4.0, DIRICHLET)
            hi = two_term_prediction(lam, g, 2, 1.0, 4.0, NEUMANN)
            assert lo < one < hi
            assert abs((one - lo) - (hi - one)) < 1e-9 * one


def test_two_term_reduces_to_one_term():
    assert two_term_prediction(100.0, 1.0, 2, 1.0, 0.0, DIRICHLET) == \
        one_term_prediction(100.0, 1.0, 2, 1.0)


def test_three_term_adds_corner_contribution():
    lam, g = 500.0, 1.0
    base = two_term_prediction(lam, g, 2, 1.0, 4.0, DIRICHLET)
    three = three_term_polygon_prediction(lam, g, 1.0, 4.0, [math.pi / 2] * 4, DIRICHLET)
    assert abs(three - base - 0.25 * lam**g) < 1e-12 * lam**g


def test_one_term_negative_lambda_rejected():
    with pytest.raises(ValueError):
        one_term_prediction(-1.0, 1.0, 2, 1.0)
    with pytest.raises(ValueError):
        two_term_prediction(-1.0, 1.0, 2, 1.0, 4.0, DIRICHLET)


def test_heat_two_term_closed_form():
    t = 0.01
    want = (1.0 - 0.5 * math.sqrt(math.pi * t) * 4.0) / (4.0 * math.pi * t)
    assert abs(heat_two_term_prediction(t, 2, 1.0, 4.0, DIRICHLET) - want) < 1e-12 * abs(want)
    with pytest.raises(ValueError):
        heat_two_term_prediction(0.0, 2, 1.0, 4.0, DIRICHLET)


def test_heat_polygon_prediction_unit_square():
    t = 0.02
    want = 1.0 / (4.0 * math.pi * t) - 4.0 / (8.0 * math.sqrt(math.pi * t)) + 0.25
    got = heat_polygon_prediction(t, 1.0, 4.0, [math.pi / 2] * 4)
    assert abs(got - want) < 1e-14 * abs(want)


def test_heat_polygon_error_bound_shape():
    # decreasing in R, increasing in t, and guarded preconditions
    b1 = heat_polygon_error_bound(0.01, 1.0, 4, math.pi / 2, 0.25)
    b2 = heat_polygon_error_bound(0.01, 1.0, 4, math.pi / 2, 0.5)
    b3 = heat_polygon_error_bound(0.02, 1.0, 4, math.pi / 2, 0.25)
    assert b2 < b1 < b3
    with pytest.raises(ValueError):
        heat_polygon_error_bound(-0.01, 1.0, 4, math.pi / 2, 0.25)
    with pytest.raises(ValueError):
        heat_polygon_error_bound(0.01, 1.0, 4, 0.0, 0.25)
    with pytest.raises(ValueError):
        heat_polygon_error_bound(0.01, 1.0, 4, math.pi / 2, 0.0)


def test_envelope_alpha_and_monotonicity():
    assert default_envelope_alpha(1.0) == 1.0
    assert default_envelope_alpha(2.0) == 1.0
    assert abs(default_envelope_alpha(0.5) - 0.45) < 1e-15
    assert default_envelope_alpha(0.0) == 0.0
    with pytest.raises(ValueError):
        default_envelope_alpha(-0.5)
    # Dirichlet envelope decays relative to the surface scale as lambda grows
    lams = np.geomspace(1e2, 1e8, 7)
    rel = [error_envelope(l, 1.0, 4.0, 0.5, 2, DIRICHLET) / (4.0 * l**1.5) for l in lams]
    assert all(b < a for a, b in zip(rel, rel[1:]))
    rel_n = [error_envelope(l, 1.0, 4.0, 0.5, 2, NEUMANN) / (4.0 * l**1.5) for l in lams]
    assert all(b < a for a, b in zip(rel_n, rel_n[1:]))


def test_envelope_preconditions():
    with pytest.raises(ValueError):
        error_envelope(0.0, 1.0, 4.0, 0.5, 2, DIRICHLET)
    with pytest.raises(ValueError):
        error_envelope(10.0, 1.0, -4.0, 0.5, 2, DIRICHLET)
    with pytest.raises(ValueError):
        error_envelope(10.0, 1.0, 4.0, 0.0, 2, DIRICHLET)
