"""Riesz-mean shape optimization over unit-area rectangles."""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .constants import DIRICHLET, check_bc
from .spectra import _expand

ASPECT_RANGE = (0.05, 1.0)
MAX_EVALUATIONS = 20000    # branch-and-bound evaluation cap; the gap is reported either way


@dataclass(frozen=True)
class OptimizationRun:
    """Record of one constrained optimization: the full trace plus the winner.

    Dirichlet runs maximize the Riesz mean, Neumann runs minimize it; the
    orientation is part of the record so the trace invariant is unambiguous.
    certified_gap is the proven relative optimality gap |R* - best| / |best|
    (up to floating-point roundoff).
    """

    family: str
    lam: float
    gamma: float
    bc: str
    optimizer_trace: tuple
    best: tuple
    certified_gap: float
    degenerate: bool = False

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be > 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if not (math.isfinite(self.certified_gap) and self.certified_gap >= 0):
            raise ValueError("certified_gap must be finite and >= 0")
        objs = [obj for _, obj in self.optimizer_trace]
        if objs:
            slack = 1e-12 * max(1.0, abs(self.best[1]))
            if self.bc == DIRICHLET:
                dominated = self.best[1] >= max(objs) - slack
            else:
                dominated = self.best[1] <= min(objs) + slack
            if not dominated:
                raise ValueError("the recorded winner does not dominate its own trace")

    def to_report(self):
        """JSON-ready dict with the full trace."""
        return {
            "family": self.family,
            "lambda": self.lam,
            "gamma": self.gamma,
            "bc": self.bc,
            "best": {"params": self.best[0], "objective": self.best[1]},
            "certified_gap": self.certified_gap,
            "degenerate": self.degenerate,
            "trace": [{"params": p, "objective": v} for p, v in self.optimizer_trace],
        }


# ---- sort-free lattice sums ---------------------------------------------------------
#
# Aspect rho means sides (area/rho)^(1/2) x (area*rho)^(1/2), so with s = pi^2/area
# the eigenvalues are lambda_mn(rho) = s (m^2 rho + n^2 / rho), m, n >= lo.


def _first_index(bc):
    return 1 if bc == DIRICHLET else 0


def _row_top(t, rho, s):
    """Largest n with s n^2 / rho < t, row by row (lo - 1 or less when none)."""
    n = np.floor(np.sqrt(np.maximum(t, 0.0) * rho / s))
    n -= s * n * n / rho >= t
    n += s * (n + 1.0) ** 2 / rho < t
    return n


def _sq_sum(n):
    """sum_{j=1}^{n} j^2, zero for n <= 0."""
    n = np.maximum(n, 0.0)
    return n * (n + 1.0) * (2.0 * n + 1.0) / 6.0


def _rows(lam, rho_min, bc, s):
    m = np.arange(_first_index(bc), math.floor(math.sqrt(lam / (s * rho_min))) + 2, dtype=float)
    return m, s * m * m


def rectangle_riesz_objective(rho, lam, gamma, bc, area=1.0):
    """Riesz mean sum of (lam - lambda_k)_+^gamma for the aspect-rho rectangle.

    Aspect rho means sides (area/rho)^(1/2) x (area*rho)^(1/2); the constraint
    |Omega| = area is enforced exactly by construction.  The sum runs row by row
    over the lattice without building or sorting a spectrum: in closed form via
    sum n^2 at gamma = 1, as a count at gamma = 0, term by term otherwise.
    """
    if not rho > 0:
        raise ValueError("aspect ratio must be > 0")
    if not area > 0:
        raise ValueError("area must be > 0")
    if not lam > 0:
        raise ValueError("lambda must be > 0")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    bc = check_bc(bc)
    lo, s = _first_index(bc), math.pi**2 / area
    m, sm2 = _rows(lam, rho, bc, s)
    t = lam - sm2 * rho
    top = _row_top(t, rho, s)
    cnt = np.maximum(top - lo + 1.0, 0.0)
    if gamma == 0:
        return float(np.sum(cnt))
    if gamma == 1:
        return float(np.sum(cnt * t - s / rho * _sq_sum(top)))
    mm, n = _expand(m, top, lo)
    return float(np.sum((lam - s * (mm * mm * rho + n * n / rho)) ** gamma))


def _slope_enclosure(p, q, lam, gamma, bc, s):
    """Slope interval [lo, hi] and crossing sums (cp, cq, cmax) for R on [p, q].

    Each lattice term contributes w s (n^2/rho^2 - m^2) to dR/drho with w = gamma
    (lam - lambda_mn)_+^(gamma - 1); w is enclosed through the range of the
    convex lambda_mn(rho) over [p, q], and n^2/rho^2 - m^2 decreases in rho.
    For gamma < 1, w is unbounded where lambda_mn crosses lam, so the crossing
    terms (min lambda_mn < lam <= max lambda_mn on [p, q]) leave the slope sum:
    cp and cq are their sum at p and at q, cmax = sum (lam - min lambda_mn)^gamma
    bounds it on [p, q].  For gamma >= 1 the enclosure holds a.e. for every term
    and the crossing sums are 0.  Row m holds terms below lam at both ends for
    n <= n_in and somewhere in [p, q] for n <= n_sup.  At gamma = 1 the rows are
    summed in closed form, otherwise term by term (_termwise_slopes, also the
    closed form's reference).
    """
    m, sm2 = _rows(lam, p, bc, s)
    top_p = _row_top(lam - sm2 * p, p, s)
    top_q = _row_top(lam - sm2 * q, q, s)
    # lambda_mn has its interior minimum 2 s m n at rho = n/m: the largest n with
    # p m < n < q m and 2 s m n < lam can dip below lam only strictly inside
    cand = np.minimum(np.ceil(q * m), np.ceil(lam / (2.0 * s * np.maximum(m, 1.0)))) - 1.0
    cand = np.where(cand > p * m, cand, -1.0)
    n_in = np.minimum(top_p, top_q)
    n_sup = np.maximum(np.maximum(top_p, top_q), cand)
    if gamma != 1:
        return _termwise_slopes(p, q, lam, gamma, bc, s, m, n_sup)
    lo = _first_index(bc)
    c_in, s2_in = np.maximum(n_in - lo + 1.0, 0.0), _sq_sum(n_in)
    d_lo = -sm2 * c_in + s / q**2 * s2_in
    d_hi = -sm2 * c_in + s / p**2 * s2_in
    # crossing terms n_in < n <= n_sup have w in [0, 1]: the lower slope keeps
    # their negative part (n <= q m), the upper slope their positive part (n >= p m)
    k = np.maximum(n_in, lo - 1.0)
    neg = np.minimum(n_sup, np.floor(q * m))
    pos = np.maximum(k, np.ceil(p * m) - 1.0)
    d_lo += np.where(neg > k, -sm2 * (neg - k) + s / q**2 * (_sq_sum(neg) - _sq_sum(k)), 0.0)
    d_hi += np.where(n_sup > pos,
                     -sm2 * (n_sup - pos) + s / p**2 * (_sq_sum(n_sup) - _sq_sum(pos)), 0.0)
    return float(np.sum(d_lo)), float(np.sum(d_hi)), 0.0, 0.0, 0.0


def _termwise_slopes(p, q, lam, gamma, bc, s, m, n_sup):
    m, n = _expand(m, n_sup, _first_index(bc))
    lam_p = s * (m * m * p + n * n / p)
    lam_q = s * (m * m * q + n * n / q)
    lam_min = np.where(n <= m * p, lam_p, np.where(n >= m * q, lam_q, 2.0 * s * m * n))
    lam_max = np.maximum(lam_p, lam_q)

    def weight(x):
        pos = x > 0.0  # keeps 0^(gamma - 1) out of the evaluated branch
        return np.where(pos, gamma * np.where(pos, x, 1.0) ** (gamma - 1.0), 0.0)

    w_lo, w_hi = weight(lam - lam_max), weight(lam - lam_min)
    crossing = 0.0, 0.0, 0.0
    if gamma < 1:
        cross = (lam_min < lam) & (lam_max >= lam)
        w_hi[cross] = 0.0

        def term(ev):  # (lam - ev)_+^gamma over the crossing terms; 0^0 must count 0
            x = lam - ev[cross]
            return float(np.sum(np.where(x > 0.0, np.maximum(x, 0.0) ** gamma, 0.0)))

        crossing = term(lam_p), term(lam_q), term(lam_min)
    g_lo, g_hi = s * (n * n / q**2 - m * m), s * (n * n / p**2 - m * m)
    return (float(np.sum(np.minimum(w_lo * g_lo, w_hi * g_lo))),
            float(np.sum(np.maximum(w_lo * g_hi, w_hi * g_hi))), *crossing)


def _interval_bound(p, q, fp, fq, slope_lo, slope_hi):
    """Max over [p, q] of f given f(p), f(q) and f' in [slope_lo, slope_hi] a.e."""
    if slope_hi <= 0.0 or slope_lo >= 0.0:
        return max(fp, fq)
    # f <= fp + hi (x - p) and f <= fq - lo (q - x); their crossing is the peak
    x = min(max((fq - fp - slope_lo * (q - p)) / (slope_hi - slope_lo), 0.0), q - p)
    return max(fp, fq, fp + slope_hi * x)


def _rectangle_bound(p, q, fp, fq, lam, gamma, bc):
    """Upper bound of sign R on [p, q] given fp = sign R(p) and fq = sign R(q).

    sign is +1 (Dirichlet, maximize) or -1 (Neumann, minimize).  The smooth
    terms are bounded from their endpoint values and slope enclosure, the
    crossing terms (gamma < 1) by their largest value above and by 0 below.
    """
    sign = 1.0 if bc == DIRICHLET else -1.0
    d_lo, d_hi, cp, cq, cmax = _slope_enclosure(p, q, lam, gamma, bc, math.pi**2)
    slopes = (d_lo, d_hi) if sign > 0 else (-d_hi, -d_lo)
    return (_interval_bound(p, q, fp - sign * cp, fq - sign * cq, *slopes)
            + max(0.0, sign * cmax))


def _branch_and_bound(f, bound, lo, hi, tol):
    """Certified maximization of f on [lo, hi] (Piyavskii-Shubert style).

    bound(p, q, f(p), f(q)) bounds f above on [p, q]; intervals are bisected
    best-bound first until the best bound is within tol * |best| of the best
    sample.  Returns the certified relative gap.
    """
    f_lo, f_hi = f(lo), f(hi)
    best = max(f_lo, f_hi)
    heap = [(-bound(lo, hi, f_lo, f_hi), lo, hi, f_lo, f_hi)]
    evals = 2
    while True:
        top = -heap[0][0]
        scale = abs(best) or 1.0
        if top - best <= tol * scale or evals >= MAX_EVALUATIONS:
            return max(top - best, 0.0) / scale
        _, p, q, fp, fq = heapq.heappop(heap)
        c = 0.5 * (p + q)
        fc = f(c)
        evals += 1
        best = max(best, fc)
        for a, b, fa, fb in ((p, c, fp, fc), (c, q, fc, fq)):
            heapq.heappush(heap, (-bound(a, b, fa, fb), a, b, fa, fb))


def optimize_rectangle(lam, gamma, bc, tol=1e-12):
    """Certified global optimum of the Riesz mean over aspect rho in [0.05, 1].

    The search is a branch-and-bound on interval bounds (_rectangle_bound): the
    run stops once the optimum is proven within relative gap tol of the best
    sample, and records that gap.
    """
    bc = check_bc(bc)
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not lam > 0:
        raise ValueError("lambda must be > 0")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    sign = 1.0 if bc == DIRICHLET else -1.0
    trace = []

    def f(rho):
        val = rectangle_riesz_objective(rho, lam, gamma, bc)
        trace.append((float(rho), val))
        return sign * val

    def bound(p, q, fp, fq):
        return _rectangle_bound(p, q, fp, fq, lam, gamma, bc)

    gap = _branch_and_bound(f, bound, *ASPECT_RANGE, tol)
    objs = np.array([v for _, v in trace])
    if np.max(np.abs(objs)) == 0.0:
        # lambda sits below every first eigenvalue in the family
        return OptimizationRun("rectangle", float(lam), float(gamma), bc,
                               tuple(trace), (1.0, 0.0), gap, degenerate=True)
    j = int(np.argmax(sign * objs))
    return OptimizationRun("rectangle", float(lam), float(gamma), bc,
                           tuple(trace), trace[j], gap)


def symmetry_trend(study, slack=1e-9):
    """True when the symmetry gaps along the ladder are weakly decreasing."""
    gaps = [g for _, _, g in study]
    return all(b <= a + slack for a, b in zip(gaps, gaps[1:]))


def write_trace_csv(run, path):
    """Objective-vs-parameter trace as a two-column CSV."""
    with open(path, "w") as fh:
        fh.write("params,objective\n")
        for p, v in run.optimizer_trace:
            fh.write("%.17g,%.17g\n" % (p, v))
