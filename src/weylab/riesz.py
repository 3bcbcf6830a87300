"""Fractional Riesz lifts of sampled functions and the identities built on them.

The lift (1/Gamma(kappa)) * int_0^Lambda (Lambda-mu)^{kappa-1} f(mu) dmu of a
tabulated interpolant is exactly a finite sum of plus-powers (Lambda-g_j)_+^kappa
and (Lambda-g_j)_+^{kappa+1} anchored at the grid nodes, so it is evaluated
as that sum and the kappa < 1 endpoint singularity costs nothing.  On top sit
the semigroup law and the log-convexity interpolation certificate with its
explicit constant.
"""

import math

import numpy as np

PIECEWISE_CONSTANT = "piecewise-constant-left"
PIECEWISE_LINEAR = "piecewise-linear"
BLOCK_ELEMENTS = 2**15   # elements per _eval_powers row block: 256 KB temporaries stay in L2


class SampledFunction:
    """Function tabulated on a strictly increasing grid starting at 0."""

    def __init__(self, grid, values, interpolation=PIECEWISE_CONSTANT):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or len(grid) < 2:
            raise ValueError("grid and values must be matching 1-d arrays, length >= 2")
        if grid[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if interpolation not in (PIECEWISE_CONSTANT, PIECEWISE_LINEAR):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        self.grid = grid
        self.values = values
        self.interpolation = interpolation

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.interpolation == PIECEWISE_LINEAR:
            return np.interp(x, self.grid, self.values)
        i = np.clip(np.searchsorted(self.grid, x, side="right") - 1, 0, len(self.grid) - 1)
        return self.values[i]

    def sup_abs(self):
        """max |f| over the grid nodes: for a lift, a lower estimate of its sup between nodes."""
        return float(np.max(np.abs(self.values)))


def riesz_lift(f, kappa):
    """Riesz lift of order kappa as the plus-power sum of `_power_basis`; returns a piecewise-linear sample."""
    if not kappa > 0:
        raise ValueError("kappa must be > 0")
    a, b = _power_basis(f, kappa)
    return SampledFunction(f.grid, _eval_powers(f.grid, a, b, kappa, 1.0 / math.gamma(kappa)),
                           PIECEWISE_LINEAR)


def _power_basis(f, kappa):
    """Coefficients (a, b) with lift(f, kappa)(L) = sum_j [a_j u^k + b_j u^{k+1}]/Gamma(k), u=(L-g_j)_+.

    Integrating the interpolant cell by cell against the kernel leaves only
    shifted plus-powers anchored at the grid nodes, so the lift of a sampled
    function is exactly a finite combination of them.
    """
    g = f.grid
    n = len(g)
    if f.interpolation == PIECEWISE_CONSTANT:
        slopes = np.zeros(n - 1)
    else:
        slopes = np.diff(f.values) / np.diff(g)
    v = f.values[:-1]
    w = np.diff(g)
    a = np.zeros(n)
    b = np.zeros(n)
    a[:-1] += v / kappa
    a[1:] -= (v + slopes * w) / kappa
    b[:-1] += slopes / (kappa * (kappa + 1.0))
    b[1:] -= slopes / (kappa * (kappa + 1.0))
    return a, b


def _eval_powers(grid, coef_lo, coef_hi, s, prefactor):
    """prefactor * sum_j [coef_lo_j u^s + coef_hi_j u^{s+1}], u = (L - g_j)_+, at every node L of grid.

    u vanishes for j >= i at node i, so a row block [i, e) reads only the
    columns [:e-1], and out[0] = 0.  The u^{s+1} product is skipped when every
    coef_hi is 0 (piecewise-constant input).  A block holds about
    BLOCK_ELEMENTS entries, so its temporaries stay in a core's L2 cache and
    each block's product is one small dgemv.
    """
    n = len(grid)
    out = np.zeros(n)
    linear = np.any(coef_hi)
    rows = max(1, BLOCK_ELEMENTS // n)
    for i in range(1, n, rows):
        e = min(i + rows, n)
        u = grid[i:e, None] - grid[None, :e - 1]
        np.maximum(u, 0.0, out=u)
        p = u**s
        out[i:e] = p @ coef_lo[:e - 1]
        if linear:
            out[i:e] += (p * u) @ coef_hi[:e - 1]
    return out * prefactor


def semigroup_check(f, kappa1, kappa2):
    """Sup-norm deviation between the iterated lift and the order kappa1+kappa2 lift.

    The iterated side carries the kappa1-lift exactly (as shifted plus-powers)
    into the kappa2-lift via the Beta-function cell integrals, so the reported
    deviation is pure evaluation error, not resampling error.  Both sides are
    `_eval_powers` sums over the same nodes, so the deviation checks the
    Gamma-factor algebra of that Beta-function lift, not an independent route
    to the lift.  Returns the deviation.
    """
    if not (kappa1 > 0 and kappa2 > 0):
        raise ValueError("kappa1, kappa2 must be > 0")
    a, b = _power_basis(f, kappa1)
    k = kappa1 + kappa2
    # (mu-c)_+^s lifts to Gamma(s+1)/Gamma(s+kappa2+1) (L-c)_+^{s+kappa2}
    fac_a = math.gamma(kappa1 + 1.0) / math.gamma(k + 1.0)
    fac_b = math.gamma(kappa1 + 2.0) / math.gamma(k + 2.0)
    iterated = _eval_powers(f.grid, a * fac_a, b * fac_b, k, 1.0 / math.gamma(kappa1))
    direct = riesz_lift(f, k)
    return float(np.max(np.abs(iterated - direct.values)))


def interpolation_constant(gamma):
    """Explicit log-convexity constant: 4e^{1/(2e)} for gamma <= 1, iterated for gamma > 1."""
    base = 4.0 * math.exp(1.0 / (2.0 * math.e))
    if gamma <= 1.0:
        return base
    n = math.ceil(2.0 * gamma)
    return 4.0 ** (n * n / 4.0) * base


def riesz_interpolation_certificate(f, sigma, gamma):
    """Certificate (lhs, rhs, ratio) for sup|f^{(sigma)}| <= C (sup|f|)^{1-s/g} (sup|f^{(gamma)}|)^{s/g}.

    Each sup is taken over the grid nodes (SampledFunction.sup_abs).  The lifts
    vary between nodes, so lhs and the gamma-lift's sup are lower estimates of
    the sups over [0, grid[-1]].
    """
    if not 0 < sigma < gamma:
        raise ValueError("need 0 < sigma < gamma")
    lhs = riesz_lift(f, sigma).sup_abs()
    sup_f = f.sup_abs()
    sup_g = riesz_lift(f, gamma).sup_abs()
    theta = sigma / gamma
    rhs = interpolation_constant(gamma) * sup_f ** (1.0 - theta) * sup_g**theta
    ratio = 0.0 if rhs == 0.0 else lhs / rhs
    return lhs, rhs, ratio
