"""Fractional Riesz lifts of sampled functions and the identities built on them.

The lift (1/Gamma(kappa)) * int_0^Lambda (Lambda-mu)^{kappa-1} f(mu) dmu is
integrated in closed form against the interpolant on every grid cell, so the
kappa < 1 endpoint singularity costs nothing.  On top sit the semigroup law,
the log-convexity interpolation certificate with its explicit constant, and
the Aizenman-Lieb reduction of higher Riesz means to order-1 means.
"""

import math

import numpy as np

from .spectra import riesz_mean

PIECEWISE_CONSTANT = "piecewise-constant-left"
PIECEWISE_LINEAR = "piecewise-linear"


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
        return float(np.max(np.abs(self.values)))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("lambda,value\n")
            for g, v in zip(self.grid, self.values):
                fh.write(f"{g:.17g},{v:.17g}\n")

    @classmethod
    def from_csv(cls, path, interpolation=PIECEWISE_CONSTANT):
        grid, values = [], []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "lambda,value":
                raise ValueError(f"unexpected CSV header {header!r}")
            for line in fh:
                if not line.strip():
                    continue
                g, v = line.split(",")
                grid.append(float(g))
                values.append(float(v))
        return cls(grid, values, interpolation)


def riesz_lift(f, kappa):
    """Exact cell-by-cell Riesz lift of order kappa; returns a piecewise-linear sample."""
    if not kappa > 0:
        raise ValueError("kappa must be > 0")
    g = f.grid
    n = len(g)
    out = np.zeros(n)
    inv_gamma = 1.0 / math.gamma(kappa)
    base = f.values[:-1]
    if f.interpolation == PIECEWISE_CONSTANT:
        slopes = np.zeros(n - 1)
    else:
        slopes = np.diff(f.values) / np.diff(g)
    lo, hi = g[:-1], g[1:]
    # rows per chunk: ~2^20 elements, so each of the half-dozen temporaries is ~8 MB
    chunk = max(1, int(2**20 / max(n, 1)))
    for s in range(1, n, chunk):
        lam = g[s:s + chunk][:, None]
        u0 = np.clip(lam - lo[None, :], 0.0, None)
        u1 = np.clip(lam - hi[None, :], 0.0, None)
        p0, p1 = u0**kappa, u1**kappa
        term = (base[None, :] + slopes[None, :] * u0) * (p0 - p1) / kappa \
            - slopes[None, :] * (u0 * p0 - u1 * p1) / (kappa + 1.0)
        out[s:s + chunk] = np.sum(term, axis=1)
    return SampledFunction(g, out * inv_gamma, PIECEWISE_LINEAR)


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


def _eval_powers(grid, nodes, coef_lo, coef_hi, s_lo, s_hi, prefactor):
    out = np.zeros(len(grid))
    chunk = max(1, int(2**20 / max(len(nodes), 1)))
    for i in range(0, len(grid), chunk):
        u = np.clip(grid[i:i + chunk][:, None] - nodes[None, :], 0.0, None)
        out[i:i + chunk] = u**s_lo @ coef_lo + u**s_hi @ coef_hi
    return out * prefactor


def semigroup_check(f, kappa1, kappa2):
    """Sup-norm deviation between the iterated lift and the order kappa1+kappa2 lift.

    The iterated side carries the kappa1-lift exactly (as shifted plus-powers)
    into the kappa2-lift via the Beta-function cell integrals, so the reported
    deviation is pure evaluation error, not resampling error.  Returns the
    deviation.
    """
    if not (kappa1 > 0 and kappa2 > 0):
        raise ValueError("kappa1, kappa2 must be > 0")
    a, b = _power_basis(f, kappa1)
    k = kappa1 + kappa2
    # (mu-c)_+^s lifts to Gamma(s+1)/Gamma(s+kappa2+1) (L-c)_+^{s+kappa2}
    fac_a = math.gamma(kappa1 + 1.0) / math.gamma(k + 1.0)
    fac_b = math.gamma(kappa1 + 2.0) / math.gamma(k + 2.0)
    iterated = _eval_powers(f.grid, f.grid, a * fac_a, b * fac_b, k, k + 1.0,
                            1.0 / math.gamma(kappa1))
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
    """Certificate (lhs, rhs, ratio) for sup|f^{(sigma)}| <= C (sup|f|)^{1-s/g} (sup|f^{(gamma)}|)^{s/g}."""
    if not 0 < sigma < gamma:
        raise ValueError("need 0 < sigma < gamma")
    lhs = riesz_lift(f, sigma).sup_abs()
    sup_f = f.sup_abs()
    sup_g = riesz_lift(f, gamma).sup_abs()
    theta = sigma / gamma
    rhs = interpolation_constant(gamma) * sup_f ** (1.0 - theta) * sup_g**theta
    ratio = 0.0 if rhs == 0.0 else lhs / rhs
    return lhs, rhs, ratio


def aizenman_lieb_check(spec, gamma, lam, tail=0.0):
    """Both sides of the order-reduction identity R_gamma = g(g-1) int tau^{g-2} R_1(lam-tau) dtau.

    The left side sums the spectrum directly; the right side integrates the
    order-1 Riesz mean as a black box, exactly on the intervals where it is
    linear in tau, so the comparison carries no quadrature error.
    """
    if not gamma > 1:
        raise ValueError("gamma must be > 1")
    if lam + tail > spec.complete_below:
        raise ValueError(f"R1 not certified on [0, {lam + tail}] (threshold {spec.complete_below})")
    lhs = riesz_mean(spec, lam, gamma)
    ev = spec.eigenvalues[spec.eigenvalues < lam]
    taus = np.unique(np.concatenate(([0.0, lam], lam - ev)))
    taus = taus[(taus >= 0.0) & (taus <= lam)]
    y = np.array([riesz_mean(spec, lam - t, 1.0) for t in taus])
    ta, tb = taus[:-1], taus[1:]
    ya, yb = y[:-1], y[1:]
    width = tb - ta
    good = width > 0
    slope_b = np.zeros(len(width))
    slope_b[good] = (ya[good] - yb[good]) / width[good]
    a_coef = ya + slope_b * ta
    g1 = gamma - 1.0
    integral = np.sum(a_coef * (tb**g1 - ta**g1) / g1 - slope_b * (tb**gamma - ta**gamma) / gamma)
    rhs = gamma * g1 * float(integral)
    return lhs, rhs
