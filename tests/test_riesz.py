"""Fractional lifts, the semigroup law, and the interpolation certificate."""

import math
import tracemalloc

import numpy as np
import pytest

from weylab import riesz
from weylab.constants import DIRICHLET
from weylab.riesz import (PIECEWISE_CONSTANT, PIECEWISE_LINEAR, SampledFunction,
                          interpolation_constant, riesz_interpolation_certificate, riesz_lift,
                          semigroup_check)
from weylab.spectra import rectangle_spectrum


def _random_sampled(rng, n_hi=40):
    n = int(rng.integers(4, n_hi))
    grid = np.concatenate(([0.0], np.cumsum(rng.random(n) + 0.02)))
    return SampledFunction(grid, rng.normal(size=n + 1), PIECEWISE_CONSTANT)


def test_sampled_function_validation():
    with pytest.raises(ValueError):
        SampledFunction([0.5, 1.0], [1.0, 2.0])          # grid must start at 0
    with pytest.raises(ValueError):
        SampledFunction([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0], [1.0])
    with pytest.raises(ValueError):
        SampledFunction([0.0, 1.0], [1.0, np.inf])
    with pytest.raises(ValueError):
        SampledFunction([0.0, 1.0], [1.0, 2.0], "cubic")


def test_sampled_function_evaluation_conventions():
    f = SampledFunction([0.0, 1.0, 2.0], [3.0, 5.0, 7.0], PIECEWISE_CONSTANT)
    assert f.sup_abs() == 7.0


def test_lift_against_quadrature_oracle():
    """Frozen 40-digit adaptive-quadrature value for a fixed step function."""
    f = SampledFunction([0.0, 0.5, 1.2, 2.0], [1.0, 3.0, 2.0, 2.0], PIECEWISE_CONSTANT)
    lf = riesz_lift(f, 0.6)
    assert abs(lf.values[-1] - 3.572267573413168846) < 1e-12
    assert lf.interpolation == PIECEWISE_LINEAR


def test_piecewise_linear_input_is_refused():
    # a piecewise-linear lift's (L - g_j)_+^{kappa+1} terms cancel on mixed-sign
    # input: a lift of a lift, or of any piecewise-linear sample, raises instead
    # of losing digits
    g = SampledFunction([0.0, 0.4, 1.2], [0.0, 2.0, 1.0], PIECEWISE_LINEAR)
    lifted = riesz_lift(SampledFunction([0.0, 0.4, 1.2], [0.0, 2.0, 1.0]), 0.5)
    for h in (g, lifted):
        with pytest.raises(ValueError, match="step functions only"):
            riesz_lift(h, 1.7)
        with pytest.raises(ValueError, match="step functions only"):
            semigroup_check(h, 0.5, 1.0)
        with pytest.raises(ValueError, match="step functions only"):
            riesz_interpolation_certificate(h, 0.5, 1.0)


def test_lift_of_unit_constant_is_power():
    # lift of f = 1 is Lambda^kappa / Gamma(kappa + 1), exactly integrable
    grid = np.linspace(0.0, 5.0, 41)
    f = SampledFunction(grid, np.ones(41), PIECEWISE_CONSTANT)
    for kappa in (0.3, 1.0, 2.5):
        lf = riesz_lift(f, kappa)
        want = grid**kappa / math.gamma(kappa + 1.0)
        assert np.max(np.abs(lf.values - want)) < 1e-12 * max(1.0, want[-1])


def _rectangle_count():
    """Eigenvalues and counting function N(L) = #{lambda_n <= L} of a Dirichlet rectangle.

    N is left-constant on its distinct eigenvalues (1 588 nodes with 0), so
    _eval_powers runs it in 80 row blocks of 20 rows.
    """
    ev = rectangle_spectrum(1.0, 1.37, DIRICHLET, 1.5e4).eigenvalues
    grid = np.concatenate(([0.0], np.unique(ev)))
    return ev, SampledFunction(grid, np.searchsorted(ev, grid, side="right"), PIECEWISE_CONSTANT)


def test_lift_of_a_counting_function_is_the_direct_riesz_sum():
    # N's order-kappa lift is sum_n (L - lambda_n)_+^kappa / Gamma(kappa + 1)
    ev, f = _rectangle_count()
    grid = f.grid
    assert grid.size > 1500     # more than one _eval_powers row block
    d = np.maximum(grid[:, None] - ev[None, :], 0.0)
    for kappa in (0.5, 1.0, 1.5):
        want = np.sum(d**kappa, axis=1) / math.gamma(kappa + 1.0)
        got = riesz_lift(f, kappa).values
        assert np.all(np.abs(got - want) <= 1e-12 * want), kappa


def test_lift_footprint_stays_in_cache_sized_blocks():
    # the peak is one row block's temporaries: measured 0.88 MB here, where
    # 2^20-element blocks of 8 MB temporaries peak at 16.7 MB
    _, f = _rectangle_count()
    riesz_lift(f, 1.5)
    tracemalloc.start()
    try:
        riesz_lift(f, 1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, f"lift peak {peak / 2**20:.2f} MB"


@pytest.mark.parametrize("block", [lambda n: 2**20, lambda n: n], ids=["2^20", "one-row"])
def test_lift_does_not_depend_on_the_block_size(monkeypatch, block):
    # blocks only regroup rows: each node sums the same nonzero terms, so only
    # the products' roundoff may differ.  Measured worst relative difference from
    # the default blocks: 8.8e-16 (one 2^20 chunk) and 1.3e-15 (one row per
    # block).
    _, f = _rectangle_count()
    default = {kappa: riesz_lift(f, kappa).values for kappa in (0.5, 1.0, 1.5)}
    monkeypatch.setattr(riesz, "BLOCK_ELEMENTS", block(len(f.grid)))
    for kappa, want in default.items():
        got = riesz_lift(f, kappa).values
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), kappa


def test_lift_monotone_for_nonnegative_input():
    # only for kappa >= 1: the derivative of the lift is itself a lift of order
    # kappa - 1, which fails to be nonnegative for fractional orders below one
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = _random_sampled(rng)
        f = SampledFunction(f.grid, np.abs(f.values), PIECEWISE_CONSTANT)
        lf = riesz_lift(f, float(rng.uniform(1.0, 2.5)))
        assert np.all(np.diff(lf.values) >= -1e-14)


def test_lift_rejects_bad_kappa():
    f = SampledFunction([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        riesz_lift(f, 0.0)
    with pytest.raises(ValueError):
        riesz_lift(f, -0.5)


def test_semigroup_law_random_sweep():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        f = _random_sampled(rng, n_hi=30)
        k1 = float(rng.uniform(0.3, 2.0))
        k2 = float(rng.uniform(0.3, 2.0))
        worst = max(worst, semigroup_check(f, k1, k2))
    # measured 1.2e-12 for this seed; the law itself is exact, the residue is
    # accumulated evaluation roundoff in the plus-power sums
    assert worst < 1e-8, f"semigroup deviation {worst:.3e}"


def test_semigroup_rejects_bad_orders():
    f = SampledFunction([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        semigroup_check(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        semigroup_check(f, 1.0, -1.0)


def test_interpolation_constant_values():
    # 4 e^{1/(2e)} to 20 digits
    assert abs(interpolation_constant(1.0) - 4.8077734738812578688) < 1e-14
    assert abs(interpolation_constant(0.4) - 4.8077734738812578688) < 1e-14
    assert interpolation_constant(1.5) > interpolation_constant(1.0)
    assert interpolation_constant(2.6) > interpolation_constant(1.5)


def test_interpolation_certificate_never_violated():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        f = _random_sampled(rng)
        gamma = float(rng.uniform(0.1, 1.0))
        sigma = gamma * float(rng.uniform(0.05, 0.95))
        lhs, rhs, ratio = riesz_interpolation_certificate(f, sigma, gamma)
        assert lhs <= rhs
        worst = max(worst, ratio)
    assert worst <= 1.0, f"certificate ratio {worst}"


def test_interpolation_certificate_order_guard():
    f = SampledFunction([0.0, 1.0, 2.0], [1.0, -1.0, 2.0])
    with pytest.raises(ValueError):
        riesz_interpolation_certificate(f, 0.8, 0.5)
    with pytest.raises(ValueError):
        riesz_interpolation_certificate(f, 0.0, 0.5)
