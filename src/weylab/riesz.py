"""Fractional Riesz lifts of step functions and the identities built on them.

The lift (1/Gamma(kappa)) * int_0^Lambda (Lambda-mu)^{kappa-1} f(mu) dmu of a
left-constant step function is exactly sum_j c_j (Lambda-g_j)_+^kappa over its
jumps c_j at the grid nodes g_j, so it is evaluated as that sum and the
kappa < 1 endpoint singularity costs nothing.  On top sit the semigroup law
and the log-convexity interpolation certificate with its explicit constant.
A lift's output is labelled piecewise-linear and is not lifted again.
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

    def sup_abs(self):
        """max |f| over the grid nodes: for a lift, a lower estimate of its sup between nodes."""
        return float(np.max(np.abs(self.values)))


def riesz_lift(f, kappa):
    """Riesz lift of order kappa of a step function; returns a sample labelled piecewise-linear."""
    if not kappa > 0:
        raise ValueError("kappa must be > 0")
    return SampledFunction(f.grid, _eval_powers(f.grid, _power_basis(f, kappa), kappa,
                                                1.0 / math.gamma(kappa)), PIECEWISE_LINEAR)


def _power_basis(f, kappa):
    """Coefficients a with lift(f, kappa)(L) = sum_j a_j (L - g_j)_+^kappa / Gamma(kappa).

    The constant v_j on [g_j, g_{j+1}) lifts to v_j [(L-g_j)_+^kappa - (L-g_{j+1})_+^kappa] / kappa,
    so a_j is the jump of f at g_j over kappa.  Piecewise-linear input is refused: its
    u^{kappa+1} terms cancel, losing about 8 digits on mixed-sign input (ROADMAP item 13).
    """
    if f.interpolation != PIECEWISE_CONSTANT:
        raise ValueError("Riesz lifts take step functions only; lifting piecewise-linear"
                         " input waits for a better-conditioned basis (ROADMAP item 13)")
    v = f.values[:-1]
    a = np.zeros(len(f.grid))
    a[:-1] += v / kappa
    a[1:] -= v / kappa
    return a


def _eval_powers(grid, coef, s, prefactor):
    """prefactor * sum_j coef_j u^s, u = (L - g_j)_+, at every node L of grid.

    u vanishes for j >= i at node i, so a row block [i, e) reads only the
    columns [:e-1], and out[0] = 0.  A block holds about BLOCK_ELEMENTS
    entries, so its temporaries stay in a core's L2 cache and each block's
    product is one small dgemv.
    """
    n = len(grid)
    out = np.zeros(n)
    rows = max(1, BLOCK_ELEMENTS // n)
    for i in range(1, n, rows):
        e = min(i + rows, n)
        u = grid[i:e, None] - grid[None, :e - 1]
        np.maximum(u, 0.0, out=u)
        out[i:e] = u**s @ coef[:e - 1]
    return out * prefactor


def semigroup_check(f, kappa1, kappa2):
    """Sup-norm deviation between the iterated lift and the order kappa1+kappa2 lift.

    The iterated side carries the kappa1-lift exactly (as shifted plus-powers) into the
    kappa2-lift via the Beta-function cell integrals, so the deviation is pure evaluation
    error, not resampling error.  Both sides are `_eval_powers` sums over the same nodes, so
    it checks the Gamma-factor algebra of that lift, not an independent route to the lift.
    """
    if not (kappa1 > 0 and kappa2 > 0):
        raise ValueError("kappa1, kappa2 must be > 0")
    a = _power_basis(f, kappa1)
    k = kappa1 + kappa2
    # (mu-c)_+^s lifts to Gamma(s+1)/Gamma(s+kappa2+1) (L-c)_+^{s+kappa2}
    fac = math.gamma(kappa1 + 1.0) / math.gamma(k + 1.0)
    iterated = _eval_powers(f.grid, a * fac, k, 1.0 / math.gamma(kappa1))
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
