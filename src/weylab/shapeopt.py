"""Riesz-mean shape optimization over unit-area rectangles."""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .constants import DIRICHLET, check_bc, check_nonnegative, check_positive
from .spectra import _expand, _first_index

ASPECT_RANGE = (0.05, 1.0)
MAX_EVALUATIONS = 20000    # branch-and-bound evaluation cap; the gap is reported either way
TREND_SLACK = 1e-9         # symmetry gaps may rise by this much and still count as decreasing
PI2 = math.pi**2           # eigenvalue scale s of the unit-area aspect-rho rectangles


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
        check_positive(self.lam, "lambda")
        check_nonnegative(self.gamma, "gamma")
        check_nonnegative(self.certified_gap, "certified_gap")
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
# Aspect rho means sides rho^(-1/2) x rho^(1/2), so with s = PI2 = pi^2 the eigenvalues
# are lambda_mn(rho) = s (m^2 rho + n^2 / rho), m, n >= lo.


def _row_top(t, rho):
    """Largest n with s n^2 / rho < t, row by row (lo - 1 or less when none)."""
    n = np.floor(np.sqrt(np.maximum(t, 0.0) * rho / PI2))
    n -= PI2 * n * n / rho >= t
    n += PI2 * (n + 1.0) ** 2 / rho < t
    return n


def _sq_sum(n):
    """sum_{j=1}^{n} j^2, zero for n <= 0."""
    n = np.maximum(n, 0.0)
    return n * (n + 1.0) * (2.0 * n + 1.0) / 6.0


def _rows(lam, rho_min, bc):
    m = np.arange(_first_index(bc), math.floor(math.sqrt(lam / (PI2 * rho_min))) + 2, dtype=float)
    return m, PI2 * m * m


def _row_data(lam, bc):
    """Per-run m, s m^2 and ceil(lam / (2 s max(m, 1))) on the longest rows, rho = 0.05."""
    m, sm2 = _rows(lam, ASPECT_RANGE[0], bc)
    return m, sm2, np.ceil(lam / (2.0 * PI2 * np.maximum(m, 1.0)))


def rectangle_riesz_objective(rho, lam, gamma, bc):
    """Riesz mean sum of (lam - lambda_k)_+^gamma for the aspect-rho rectangle.

    Aspect rho means sides rho^(-1/2) x rho^(1/2); the constraint |Omega| = 1 is
    enforced exactly by construction.  The sum runs row by row over the lattice
    without building or sorting a spectrum: in closed form via sum n^2 at
    gamma = 1, term by term otherwise.
    """
    check_positive(rho, "aspect ratio")
    check_positive(lam, "lambda")
    check_nonnegative(gamma, "gamma")
    bc = check_bc(bc)
    return _lattice_sample(rho, lam, gamma, bc, *_rows(lam, rho, bc))[0]


def _lattice_sample(rho, lam, gamma, bc, m, sm2):
    """(Riesz mean, row tops) at aspect rho over the rows m with s m^2 = sm2."""
    lo = _first_index(bc)
    t = lam - sm2 * rho
    top = _row_top(t, rho)
    if gamma == 1:
        cnt = np.maximum(top - lo + 1.0, 0.0)
        return float(np.sum(cnt * t - PI2 / rho * _sq_sum(top))), top
    mm, n = _expand(m, top, lo)
    return float(np.sum((lam - PI2 * (mm * mm * rho + n * n / rho)) ** gamma)), top


def _slope_enclosure(p, q, top_p, top_q, lam, gamma, bc, rows):
    """Slope interval [lo, hi] and crossing sums (cp, cq, cmax) for R on [p, q].

    Each lattice term contributes w s (n^2/rho^2 - m^2) to dR/drho with w = gamma
    (lam - lambda_mn)_+^(gamma - 1); w is enclosed through the range of the
    convex lambda_mn(rho) over [p, q], and n^2/rho^2 - m^2 decreases in rho.
    For gamma < 1, w is unbounded where lambda_mn crosses lam, so the crossing
    terms (min lambda_mn < lam <= max lambda_mn on [p, q]) leave the slope sum:
    cp and cq are their sum at p and at q, cmax = sum (lam - min lambda_mn)^gamma
    bounds it on [p, q].  For gamma >= 1 the enclosure holds a.e. for every term
    and the crossing sums are 0.  top_p and top_q are the row tops at p and q on
    their own rows; sums run over p's rows (rows = _row_data), and past q's last
    row s m^2 q > lam, where _row_top gives exactly -1: top_q is padded with -1.
    Row m holds terms below lam at both ends for n <= n_in and somewhere in [p, q]
    for n <= n_sup.  At gamma = 1, with S(n) = sum_{j<=n} j^2, k = max(n_in, lo-1),
    A = max(min(n_sup, floor(q m)), k), pos = max(k, ceil(p m) - 1), B = max(n_sup,
    pos), the closed form is d_lo = -sum s m^2 (A - lo + 1) + s/q^2 sum S(A) and
    d_hi = -sum s m^2 (k - lo + 1 + B - pos) + s/p^2 sum (S(k) + S(B) - S(pos)), in
    integer-valued floats below 2^53.  Otherwise the rows are summed term by term
    (_termwise_slopes, also the closed form's reference).
    """
    m, sm2, dip = (r[:len(top_p)] for r in rows)
    top_q = np.concatenate((top_q, np.full(len(top_p) - len(top_q), -1.0)))
    # lambda_mn has its interior minimum 2 s m n at rho = n/m: the largest n with
    # p m < n < q m and 2 s m n < lam can dip below lam only strictly inside
    cand = np.minimum(np.ceil(q * m), dip) - 1.0
    cand = np.where(cand > p * m, cand, -1.0)
    n_in = np.minimum(top_p, top_q)
    n_sup = np.maximum(np.maximum(top_p, top_q), cand)
    if gamma != 1:
        return _termwise_slopes(p, q, lam, gamma, bc, m, n_sup)
    lo = _first_index(bc)
    # crossing terms n_in < n <= n_sup have w in [0, 1]: the lower slope keeps
    # their negative part (n <= q m), the upper slope their positive part (n >= p m)
    k = np.maximum(n_in, lo - 1.0)
    a = np.maximum(np.minimum(n_sup, np.floor(q * m)), k)
    pos = np.maximum(k, np.ceil(p * m) - 1.0)
    b = np.maximum(n_sup, pos)
    s_a, s_k, s_b, s_pos = _sq_sum(np.array((a, k, b, pos))).sum(axis=1)
    d_lo = -(sm2 @ (a - (lo - 1.0))) + PI2 / q**2 * s_a
    d_hi = -(sm2 @ (k - pos + b - (lo - 1.0))) + PI2 / p**2 * (s_k + s_b - s_pos)
    return float(d_lo), float(d_hi), 0.0, 0.0, 0.0


def _termwise_slopes(p, q, lam, gamma, bc, m, n_sup):
    m, n = _expand(m, n_sup, _first_index(bc))
    lam_p = PI2 * (m * m * p + n * n / p)
    lam_q = PI2 * (m * m * q + n * n / q)
    lam_min = np.where(n <= m * p, lam_p, np.where(n >= m * q, lam_q, 2.0 * PI2 * m * n))
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
    g_lo, g_hi = PI2 * (n * n / q**2 - m * m), PI2 * (n * n / p**2 - m * m)
    return (float(np.sum(np.minimum(w_lo * g_lo, w_hi * g_lo))),
            float(np.sum(np.maximum(w_lo * g_hi, w_hi * g_hi))), *crossing)


def _interval_bound(p, q, fp, fq, slope_lo, slope_hi):
    """Max over [p, q] of f given f(p), f(q) and f' in [slope_lo, slope_hi] a.e."""
    if slope_hi <= 0.0 or slope_lo >= 0.0:
        return max(fp, fq)
    # f <= fp + hi (x - p) and f <= fq - lo (q - x); their crossing is the peak
    x = min(max((fq - fp - slope_lo * (q - p)) / (slope_hi - slope_lo), 0.0), q - p)
    return max(fp, fq, fp + slope_hi * x)


def _rectangle_bound(p, q, fp, fq, lam, gamma, bc, rows):
    """Upper bound of sign R on [p, q] given samples (sign R, row tops) at p and q.

    sign is +1 (Dirichlet, maximize) or -1 (Neumann, minimize).  The smooth terms
    are bounded from their endpoint values and slope enclosure, the crossing terms
    (gamma < 1) by their largest value above and by 0 below.
    """
    sign = 1.0 if bc == DIRICHLET else -1.0
    d_lo, d_hi, cp, cq, cmax = _slope_enclosure(p, q, fp[1], fq[1], lam, gamma, bc, rows)
    slopes = (d_lo, d_hi) if sign > 0 else (-d_hi, -d_lo)
    return (_interval_bound(p, q, fp[0] - sign * cp, fq[0] - sign * cq, *slopes)
            + max(0.0, sign * cmax))


def _branch_and_bound(f, bound, lo, hi, tol):
    """Certified maximization of f on [lo, hi] (Piyavskii-Shubert style).

    f(x) is a sample (value, data); bound(p, q, f(p), f(q)) bounds the value on
    [p, q] above.  Intervals are bisected best-bound first until the best bound
    is within tol * |best| of the best value.  Returns the certified relative gap.
    """
    f_lo, f_hi = f(lo), f(hi)
    best = max(f_lo[0], f_hi[0])
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
        best = max(best, fc[0])
        for a, b, fa, fb in ((p, c, fp, fc), (c, q, fc, fq)):
            heapq.heappush(heap, (-bound(a, b, fa, fb), a, b, fa, fb))


def optimize_rectangle(lam, gamma, bc, tol=1e-12):
    """Certified global optimum of the Riesz mean over aspect rho in [0.05, 1].

    The search is a branch-and-bound on interval bounds (_rectangle_bound): the
    run stops once the optimum is proven within relative gap tol of the best
    sample, and records that gap.
    """
    bc = check_bc(bc)
    check_positive(tol, "tol")
    check_positive(lam, "lambda")
    check_nonnegative(gamma, "gamma")
    sign = 1.0 if bc == DIRICHLET else -1.0
    rows = _row_data(lam, bc)
    lo = _first_index(bc)
    trace = []

    def f(rho):
        # rho's own rows are a prefix of the run's rows, bit for bit what _rows gives
        k = math.floor(math.sqrt(lam / (PI2 * rho))) + 2 - lo
        val, tops = _lattice_sample(rho, lam, gamma, bc, rows[0][:k], rows[1][:k])
        trace.append((float(rho), val))
        return sign * val, tops

    def bound(p, q, fp, fq):
        return _rectangle_bound(p, q, fp, fq, lam, gamma, bc, rows)

    gap = _branch_and_bound(f, bound, *ASPECT_RANGE, tol)
    objs = np.array([v for _, v in trace])
    # all zero: lam is below every first eigenvalue in the family (bool: np.bool_ breaks JSON)
    degenerate = bool(np.max(np.abs(objs)) == 0.0)
    best = (1.0, 0.0) if degenerate else trace[int(np.argmax(sign * objs))]
    return OptimizationRun("rectangle", float(lam), float(gamma), bc, tuple(trace), best, gap, degenerate)


def symmetry_trend(study):
    """True when the symmetry gaps along the ladder are weakly decreasing (up to TREND_SLACK)."""
    gaps = [g for _, _, g in study]
    return all(b <= a + TREND_SLACK for a, b in zip(gaps, gaps[1:]))


def write_trace_csv(run, path):
    """Objective-vs-parameter trace as a two-column CSV."""
    with open(path, "w") as fh:
        fh.write("params,objective\n")
        for p, v in run.optimizer_trace:
            fh.write("%.17g,%.17g\n" % (p, v))
