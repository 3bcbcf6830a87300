"""Independent checks of every campaign report.

Each check recomputes what a report claims by a route apart from weylab
(integer-lattice sums, Bessel zeros bracketed with brentq, closed-form
5-point eigenvalues, a 40-digit oracle, edge-triple enumeration), or tests
a property the method must have (domain monotonicity, a certified gap, a
theorem bound).  ``check(report, text, plan, workdir)`` returns the list of
failures; an empty list is a pass.  The checks run after the timer stops.
"""

import json
import math
import os

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv, jvp

import oracle
from campaigns import SPECTRUM_FILE

PI2 = math.pi**2
SUM_REL = 1e-11      # the same terms summed in another order
FORMULA_REL = 1e-12  # a closed form evaluated twice
FD_REL = 1e-10       # eigsh against the closed-form 5-point eigenvalues


class Failures(list):
    def close(self, what, got, want, rel, floor=0.0):
        if not abs(got - want) <= rel * abs(want) + floor:
            err = abs(got - want) / abs(want) if want else abs(got - want)
            self.append(f"{what}: got {float(got)!r}, expected {float(want)!r} (relative error {err:.2e})")

    def true(self, what, cond):
        if not cond:
            self.append(what)


# ---- closed forms ------------------------------------------------------------------


def lt_const(gamma, dim):
    return math.gamma(gamma + 1.0) / ((4.0 * math.pi) ** (dim / 2.0) * math.gamma(gamma + dim / 2.0 + 1.0))


def two_term(lam, gamma, area, per, bc):
    sign = -1.0 if bc == "dirichlet" else 1.0
    return (lt_const(gamma, 2) * area * lam ** (gamma + 1.0)
            + sign * 0.25 * lt_const(gamma, 1) * per * lam ** (gamma + 0.5))


def envelope(lam, gamma, per, r_in, bc):
    alpha = 1.0 if gamma >= 1.0 else 0.9 * gamma
    scale = per * lam ** (gamma + 0.5)
    x = r_in * math.sqrt(lam)
    if bc == "dirichlet":
        return scale * x ** (-alpha / 11.0)
    return scale * ((1.0 + max(math.log(x), 0.0)) ** (-alpha * max(1.0, gamma)) + 1.0 / x)


def corner_sum(angles):
    return sum((math.pi**2 - a * a) / (24.0 * math.pi * a) for a in angles)


def riesz_sum(ev, lam, gamma):
    d = lam - ev[ev < lam]
    return float(d.size) if gamma == 0 else float(np.sum(d**gamma))


def rect_eigs(a, b, bc, lam):
    """pi^2 (m^2/a^2 + n^2/b^2) < lam on the integer lattice, unsorted."""
    lo = 1 if bc == "dirichlet" else 0
    m = np.arange(lo, int(a * math.sqrt(lam) / math.pi) + 2, dtype=float)
    n = np.arange(lo, int(b * math.sqrt(lam) / math.pi) + 2, dtype=float)
    ev = (PI2 * ((m * m / (a * a))[:, None] + (n * n / (b * b))[None, :])).ravel()
    return ev[ev < lam]


def bessel_zeros(nu, x_max, derivative):
    """Zeros of J_nu (or J_nu') in (0, x_max): sign changes on a 0.05 grid, then brentq.

    Neither J_nu nor J_nu' has a zero in (0, nu] (besides z = 0), so the grid
    starts at nu; consecutive zeros are further apart than the grid step.
    """
    f = (lambda x: jvp(nu, x)) if derivative else (lambda x: jv(nu, x))
    start = max(float(nu), 0.5)
    if start >= x_max:
        return np.array([])
    x = np.append(np.arange(start, x_max, 0.05), x_max)
    y = f(x)
    idx = np.nonzero(np.sign(y[:-1]) * np.sign(y[1:]) < 0)[0]
    return np.array([brentq(f, x[i], x[i + 1], xtol=1e-14, rtol=1e-15) for i in idx])


def disk_eigs(radius, bc, lam):
    """Disk eigenvalues < lam with multiplicity (2 for nu >= 1; Neumann adds 0)."""
    x_max = radius * math.sqrt(lam)
    out = [np.zeros(1)] if bc == "neumann" else []
    nu = 0
    while nu < x_max:
        z = bessel_zeros(nu, x_max, bc == "neumann")
        out.extend([(z / radius) ** 2] * (1 if nu == 0 else 2))
        nu += 1
    return np.concatenate(out) if out else np.array([])


def hexagon_radii():
    """Inscribed and circumscribed radii of the unit-area regular hexagon."""
    big_r = math.sqrt(2.0 / (6.0 * math.sin(math.pi / 3.0)))
    return big_r * math.cos(math.pi / 6.0), big_r


def fd_square_eigs(h):
    """Closed-form 5-point Dirichlet eigenvalues of the unit square, mesh h = 1/N."""
    n = int(round(1.0 / h))
    s = np.sin(np.arange(1, n) * math.pi * h / 2.0) ** 2
    return (4.0 / h**2) * (s[:, None] + s[None, :]).ravel()


def scan_objective(lam, gamma, bc, rhos):
    """Riesz mean of the unit-area aspect-rho rectangles, column by column in n.

    Eigenvalues pi^2 (m^2 rho + n^2 / rho); each column n sums over m, in closed
    form via sum m^2 at gamma = 1 and term by term otherwise.
    """
    lo = 1 if bc == "dirichlet" else 0
    total = np.zeros_like(rhos)
    for n in range(lo, int(math.sqrt(lam * rhos.max()) / math.pi) + 2):
        t = lam - PI2 * n * n / rhos
        if gamma == 1:
            top = np.floor(np.sqrt(np.maximum(t, 0.0) / (PI2 * rhos)))
            top -= PI2 * rhos * top**2 >= t
            top += PI2 * rhos * (top + 1.0) ** 2 < t
            cnt = np.maximum(top - lo + 1.0, 0.0)
            sq = np.maximum(top, 0.0) * (np.maximum(top, 0.0) + 1.0) * (2.0 * np.maximum(top, 0.0) + 1.0) / 6.0
            total += cnt * t - PI2 * rhos * sq
        else:
            m = np.arange(lo, int(math.sqrt(max(t.max(), 0.0) / (PI2 * rhos.min()))) + 2, dtype=float)
            d = t[:, None] - PI2 * rhos[:, None] * (m * m)[None, :]
            total += np.sum(np.where(d > 0.0, np.abs(d) ** gamma, 0.0), axis=1)
    return total


def inradius_by_triples(vertices):
    """Largest circle tangent to three edge lines and inside every edge: no LP."""
    v = np.asarray(vertices, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    normals = np.column_stack((e[:, 1], -e[:, 0])) / np.hypot(e[:, 0], e[:, 1])[:, None]
    offsets = np.einsum("ij,ij->i", normals, v)
    best, k = 0.0, len(v)
    for i in range(k):
        for j in range(i + 1, k):
            for l in range(j + 1, k):
                rows = [i, j, l]
                a = np.column_stack((normals[rows], np.ones(3)))
                if abs(np.linalg.det(a)) < 1e-12:
                    continue
                x, y, r = np.linalg.solve(a, offsets[rows])
                if r > best and np.all(normals @ (x, y) + r <= offsets + 1e-12):
                    best = r
    return best


# ---- spectra -----------------------------------------------------------------------

RECT_DOMAINS = {"unit-square": (1.0, 1.0), "rect:1:1.5": (1.0, 1.5), "rect:1:2": (1.0, 2.0)}


def _weyl_rows(fails, res, cfg, area, per, r_in, r_in_rel=FORMULA_REL):
    bc, g = cfg["bc"], cfg["gamma"]
    for i, row in enumerate(res["rows"]):
        lam = row["lambda"]
        fails.close(f"row {i} two_term", row["two_term"], two_term(lam, g, area, per, bc), FORMULA_REL)
        fails.close(f"row {i} one_term", row["one_term"], lt_const(g, 2) * area * lam ** (g + 1.0),
                    FORMULA_REL)
        fails.close(f"row {i} envelope", row["envelope"], envelope(lam, g, per, r_in, bc), r_in_rel)
        rem = row["computed"] - row["two_term"]
        fails.close(f"row {i} remainder", row["remainder"], rem, FORMULA_REL, 1e-9)
        fails.true(f"row {i} within_envelope flag disagrees with |remainder| <= envelope",
                   row["within_envelope"] == (abs(rem) <= row["envelope"]))
        fails.true(f"row {i} at lambda {lam} lies outside the envelope", row["within_envelope"])
    fails.true("all_within_envelope disagrees with the rows",
               res["all_within_envelope"] == all(r["within_envelope"] for r in res["rows"]))


def check_weyl_rect(fails, rep, plan):
    res, cfg = rep["results"], rep["config"]
    a, b = RECT_DOMAINS[cfg["domain"]]
    _weyl_rows(fails, res, cfg, a * b, 2.0 * (a + b), 0.5 * min(a, b))
    for i in plan["rect_rows"]:
        row = res["rows"][i]
        want = riesz_sum(rect_eigs(a, b, cfg["bc"], row["lambda"]), row["lambda"], cfg["gamma"])
        fails.close(f"row {i} Riesz mean against the lattice sum", row["computed"], want, SUM_REL)


def check_weyl_disk(fails, rep, plan):
    res, cfg = rep["results"], rep["config"]
    radius = float(cfg["domain"].split(":")[1])
    _weyl_rows(fails, res, cfg, math.pi * radius**2, 2.0 * math.pi * radius, radius)
    rows = [res["rows"][i] for i in plan["disk_rows"]]
    ev = disk_eigs(radius, cfg["bc"], max(r["lambda"] for r in rows))
    for i, row in zip(plan["disk_rows"], rows):
        want = riesz_sum(ev, row["lambda"], cfg["gamma"])
        fails.close(f"row {i} Riesz mean against brentq Bessel zeros", row["computed"], want, 1e-10)


def check_weyl_hexagon(fails, rep, plan):
    res, cfg = rep["results"], rep["config"]
    r_in, r_out = hexagon_radii()
    per = 12.0 * r_out * math.sin(math.pi / 6.0)
    # the report's inradius comes from an LP; 1e-9 covers its tolerance
    _weyl_rows(fails, res, cfg, 1.0, per, r_in, r_in_rel=1e-9)
    # Dirichlet domain monotonicity, B_r in the hexagon in B_R, holds for every
    # eigenvalue (lambda_1 included), hence for every Riesz mean
    lam_top = max(r["lambda"] for r in res["rows"])
    inner, outer = disk_eigs(r_in, "dirichlet", lam_top), disk_eigs(r_out, "dirichlet", lam_top)
    fails.true("inscribed/circumscribed disk lambda_1 bracket is empty", outer.min() < inner.min())
    for i, row in enumerate(res["rows"]):
        lo, hi = riesz_sum(inner, row["lambda"], cfg["gamma"]), riesz_sum(outer, row["lambda"], cfg["gamma"])
        fails.true(f"row {i}: Riesz mean {row['computed']} outside the disk bracket [{lo}, {hi}]",
                   lo <= row["computed"] <= hi)


def _heat_rows(fails, res, t_theta, area, per, angles):
    for i, row in enumerate(res["rows"]):
        t = row["t"]
        fails.close(f"row {i} theta against the closed-form trace", row["theta"], t_theta(t), FD_REL)
        fails.close(f"row {i} two_term", row["two_term"],
                    (area - 0.5 * math.sqrt(math.pi * t) * per) / (4.0 * math.pi * t), FORMULA_REL)
        pred = area / (4.0 * math.pi * t) - per / (8.0 * math.sqrt(math.pi * t)) + corner_sum(angles)
        fails.close(f"row {i} polygon_prediction", row["polygon_prediction"], pred, FORMULA_REL)
        fails.close(f"row {i} deviation", row["deviation"], row["theta"] - pred, 1e-9, 1e-12)
        fails.true(f"row {i} outside its polygon bound", row["within_bound"])
    fails.true("all_within_bound is false", res["all_within_bound"])


def check_heat_rect(fails, rep, plan):
    res, cfg = rep["results"], rep["config"]
    a, b = RECT_DOMAINS[cfg["domain"]]
    lam_max = 30.0 / res["rows"][0]["t"]
    ev = rect_eigs(a, b, cfg["bc"], lam_max)
    _heat_rows(fails, res, lambda t: float(np.sum(np.exp(-t * ev))), a * b, 2.0 * (a + b),
               [0.5 * math.pi] * 4)
    # the truncated trace plus its tail bound must contain the full lattice trace,
    # a product of one-dimensional theta sums
    for i, row in enumerate(res["rows"]):
        t = row["t"]
        k = np.arange(1, 400, dtype=float)
        full = float(np.sum(np.exp(-t * PI2 * k * k / a**2)) * np.sum(np.exp(-t * PI2 * k * k / b**2)))
        fails.true(f"row {i}: full trace {full} not within [theta, theta + tail]",
                   row["theta"] * (1 - SUM_REL) <= full <= row["theta"] * (1 + SUM_REL) + row["tail_bound"])


def check_heat_square_fd(fails, rep, plan):
    res, cfg = rep["results"], rep["config"]
    ev = fd_square_eigs(cfg["grid_h"])
    # at t >= 0.01 the eigenvalues above the solver's cut add < 1e-13 relative
    _heat_rows(fails, res, lambda t: float(np.sum(np.exp(-t * ev))), 1.0, 4.0, [0.5 * math.pi] * 4)


def check_polygon_rect(fails, rep, plan):
    res, cfg = rep["results"], rep["config"]
    a, b = RECT_DOMAINS[cfg["domain"]]
    area, per, g, bc = a * b, 2.0 * (a + b), cfg["gamma"], cfg["bc"]
    target = corner_sum([0.5 * math.pi] * 4)
    fails.close("corner_sum", res["corner_sum"], target, FORMULA_REL)
    for i, row in enumerate(res["rows"]):
        lam = row["lambda"]
        two = two_term(lam, g, area, per, bc)
        fails.close(f"row {i} two_term", row["two_term"], two, FORMULA_REL)
        fails.close(f"row {i} three_term", row["three_term"], two + lam**g * target, FORMULA_REL)
        fails.close(f"row {i} third_term_ratio", row["third_term_ratio"],
                    (row["computed"] - row["two_term"]) / lam**g, 1e-9, 1e-12)
        fails.close(f"row {i} residual_after_three", row["residual_after_three"],
                    row["computed"] - row["three_term"], 1e-9, 1e-9)
    for i in plan["polygon_rows"]:
        row = res["rows"][i]
        want = riesz_sum(rect_eigs(a, b, bc, row["lambda"]), row["lambda"], g)
        fails.close(f"row {i} Riesz mean against the lattice sum", row["computed"], want, SUM_REL)
    dev = float(np.mean([abs(r["third_term_ratio"] - target) for r in res["rows"]]))
    fails.close("mean_abs_third_term_deviation", res["mean_abs_third_term_deviation"], dev, 1e-9)


def check_pointwise(fails, rep, plan):
    """Refit the remainder exponent from an independent lattice sum of e_lambda(x, x)."""
    res, cfg = rep["results"], rep["config"]
    a, b = RECT_DOMAINS[cfg["domain"]]
    x, y = res["point"]
    g = cfg["gamma"]
    start, stop, count = cfg["lam"].split(":")
    lams = np.geomspace(float(start), float(stop), int(count.rstrip("log")))
    lo = 1 if cfg["bc"] == "dirichlet" else 0
    k_max = int(max(a, b) * math.sqrt(lams[-1]) / math.pi) + 2
    m = np.arange(lo, k_max, dtype=float)
    if cfg["bc"] == "dirichlet":
        fx, fy = 2.0 / a * np.sin(m * math.pi * x / a) ** 2, 2.0 / b * np.sin(m * math.pi * y / b) ** 2
    else:
        fx = np.where(m == 0, 1.0, 2.0) / a * np.cos(m * math.pi * x / a) ** 2
        fy = np.where(m == 0, 1.0, 2.0) / b * np.cos(m * math.pi * y / b) ** 2
    ev = PI2 * ((m * m / a**2)[:, None] + (m * m / b**2)[None, :])
    amp = fx[:, None] * fy[None, :]
    keep = ev < lams[-1] * (1 + 1e-9)
    ev, amp = ev[keep], amp[keep]
    rem = np.array([abs(float(amp @ np.clip(l - ev, 0.0, None) ** g) - lt_const(g, 2) * l ** (g + 1.0))
                    for l in lams])
    # block maxima over 12 logarithmic blocks, then a log-log line (the documented fit)
    edges = np.geomspace(lams[0], lams[-1] * (1.0 + 1e-12), 13)
    block = np.clip(np.digitize(lams, edges) - 1, 0, 11)
    taus, peaks = [], []
    for k in range(12):
        sel = np.nonzero(block == k)[0]
        if sel.size:
            j = sel[np.argmax(rem[sel])]
            taus.append(math.sqrt(lams[j]))
            peaks.append(rem[j])
    slope = float(np.polyfit(np.log(taus), np.log(peaks), 1)[0])
    fails.close("fitted_exponent against the independent lattice refit", res["fitted_exponent"], slope,
                1e-9)
    fails.close("expected_exponent", res["expected_exponent"], g + 0.5, 0.0)
    inside = abs(res["fitted_exponent"] - (g + 0.5)) <= res["band"]
    fails.true("within_band flag disagrees with |slope - (gamma + 1/2)| <= band",
               res["within_band"] == inside)
    fails.true(f"fitted exponent {res['fitted_exponent']} outside gamma + 1/2 +- {res['band']}", inside)


def check_spectrum_file(fails, rep, plan, workdir):
    from weylab.spectra import Spectrum
    res, cfg = rep["results"], rep["config"]
    a, b = RECT_DOMAINS[cfg["domain"]]
    spec = Spectrum.load(os.path.join(workdir, SPECTRUM_FILE))
    want = np.sort(rect_eigs(a, b, cfg["bc"], cfg["lambda_max"]))
    fails.true(f"file holds {len(spec)} eigenvalues, the lattice {want.size}", len(spec) == want.size)
    fails.true(f"report count {res['count']} differs from the file", res["count"] == len(spec))
    if len(spec) == want.size:
        err = float(np.max(np.abs(spec.eigenvalues - want) / want))
        fails.true(f"file eigenvalues differ from the lattice by {err:.2e} relative", err <= 1e-15)
    fails.true("complete_below / exact / bc differ from the request",
               spec.complete_below == cfg["lambda_max"] == res["complete_below"] and spec.exact
               and spec.bc == cfg["bc"])


# ---- tauberian -------------------------------------------------------------------


def check_tauberian(fails, rep, plan):
    res, cfg = rep["results"], rep["config"]
    want = oracle.b_table(cfg["eps"])
    for row in res["b_table"]:
        m = row["m"]
        if m % 2:
            fails.true(f"odd b_{m} = {row['b']!r} is not exactly 0", row["b"] == 0.0)
        else:
            fails.close(f"b_{m} against the 40-digit Plancherel oracle", row["b"], want[m], 1e-10)
        fails.true(f"b_{m} closed-form gap {row['closed_form_gap']:.2e} > 1e-9",
                   row["closed_form_gap"] <= 1e-9)
    fails.true("b-table is not m = 0..6", [r["m"] for r in res["b_table"]] == list(range(7)))
    for r in res["identity_residuals"]:
        fails.close(f"identity residual ({r['measure']}, m={r['m']})", r["residual"],
                    abs(r["lhs"] - r["rhs"]), 0.0, 1e-15)
        fails.true(f"identity residual {r['residual']:.2e} > 1e-8 ({r['measure']}, m={r['m']})",
                   r["residual"] <= 1e-8)
        fails.true("identity row eps/tau differ from the request",
                   r["eps"] == cfg["eps"] and r["tau"] == cfg["tau"])
    fails.true("identity rows are not 3 measures x m in {1, 2}", len(res["identity_residuals"]) == 6)
    fails.true("max_residual is not the largest residual",
               res["max_residual"] == max(r["residual"] for r in res["identity_residuals"]))


def _direct_lift(nodes, ev, kappa):
    """sum_n (L - lambda_n)_+^kappa / Gamma(kappa + 1) at every node L."""
    out = np.empty(nodes.size)
    for s in range(0, nodes.size, 256):
        d = nodes[s:s + 256, None] - ev[None, :]
        out[s:s + 256] = np.sum(np.where(d > 0.0, np.abs(d) ** kappa, 0.0), axis=1)
    return out / math.gamma(kappa + 1.0)


def check_lifts(fails, rep, spec):
    grid = np.asarray(rep["grid"])
    ev = rect_eigs(spec["a"], spec["b"], "dirichlet", spec["lambda_max"])
    fails.true("grid does not start at 0 and rise strictly", grid[0] == 0.0 and np.all(np.diff(grid) > 0))
    fails.true(f"grid has {grid.size - 1} nodes, the lattice {np.unique(ev).size} distinct eigenvalues",
               grid.size - 1 == np.unique(ev).size)
    direct = {}

    def lift(k):
        if k not in direct:
            direct[k] = _direct_lift(grid, ev, k)
        return direct[k]

    for k in spec["kappas"]:
        got = np.asarray(rep["lifts"][repr(k)])
        want = lift(k)
        err = np.abs(got - want)
        bad = err > 1e-12 * np.abs(want) + 1e-14 * np.max(np.abs(want))
        if np.any(bad):
            i = int(np.argmax(bad))
            fails.append(f"lift kappa={k} at node {i}: {float(got[i])!r} != direct sum {float(want[i])!r}")
    k1, k2 = spec["semigroup"]
    top = np.max(np.abs(lift(k1 + k2)))
    dev = rep["semigroup_deviation"]
    fails.true(f"semigroup deviation {dev:.2e} > 1e-12 x sup {top:.3e}", 0.0 <= dev <= 1e-12 * top)
    sigma, gamma = spec["certificate"]
    lhs, rhs, ratio = rep["certificate"]
    sup_s, sup_g = np.max(np.abs(lift(sigma))), np.max(np.abs(lift(gamma)))
    sup_f = float(ev.size)  # sup N = N(lambda_max)
    base = 4.0 * math.exp(1.0 / (2.0 * math.e))
    const = base if gamma <= 1.0 else 4.0 ** (math.ceil(2.0 * gamma) ** 2 / 4.0) * base
    theta = sigma / gamma
    fails.close("certificate lhs = sup |lift sigma|", lhs, sup_s, 1e-10)
    fails.close("certificate rhs", rhs, const * sup_f ** (1.0 - theta) * sup_g**theta, 1e-10)
    fails.close("certificate ratio", ratio, lhs / rhs, 1e-12)
    fails.true(f"interpolation ratio {ratio} > 1", ratio <= 1.0)


# ---- shape-geometry --------------------------------------------------------------


def check_shape_opt(fails, rep, plan, points):
    res, cfg = rep["results"], rep["config"]
    g, bc, tol = cfg["gamma"], cfg["bc"], cfg["tol"]
    sign = 1.0 if bc == "dirichlet" else -1.0
    runs = res["runs"]
    for i, run in enumerate(runs):
        best = run["best"]["objective"]
        trace = [t["objective"] for t in run["trace"]]
        fails.true(f"run {i}: best does not dominate its trace",
                   sign * best >= max(sign * v for v in trace) - 1e-12 * abs(best))
        own = scan_objective(run["lambda"], g, bc, np.array([run["best"]["params"]]))[0]
        fails.close(f"run {i}: best objective at its own aspect", best, own, SUM_REL)
        if g >= 1:
            gap = run["certified_gap"]
            fails.true(f"run {i} at lambda {run['lambda']}: certified_gap {gap} > tol {tol}",
                       gap is not None and gap <= tol)
    if "study" in res:
        for s, run in zip(res["study"], runs):
            fails.true("study row disagrees with its run",
                       s["best_aspect"] == run["best"]["params"]
                       and s["symmetry_gap"] == abs(run["best"]["params"] - 1.0))
        gaps = [s["symmetry_gap"] for s in res["study"]]
        fails.true("gap_weakly_decreasing flag disagrees with the gaps",
                   res["gap_weakly_decreasing"] == all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:])))
    for i in points:
        run = runs[i]
        rhos = np.linspace(0.05, 1.0, 4001 if g == 1 else 2001)
        vals = scan_objective(run["lambda"], g, bc, rhos)
        j = int(np.argmax(sign * vals))
        best = run["best"]["objective"]
        slack = ((run["certified_gap"] or 0.0) + 1e-13) * abs(vals[j])
        fails.true(f"run {i} at lambda {run['lambda']}: best {best!r} (aspect {run['best']['params']:.5f}) "
                   f"is worse than the scan's {float(vals[j])!r} (aspect {rhos[j]:.5f})",
                   sign * best >= sign * vals[j] - slack)


# |{d < s}| <= s Per, theta(Omega) = Per, and r -> |Omega ∩ B_r| / r^2 nonincreasing,
# up to the roundoff of exact formulas
GEOMETRY_BOUNDS = {"level_volume_bound": 1e-9, "theta_vs_perimeter": 1e-9, "bishop_gromov": 1e-10}


def check_geometry(fails, rep, plan):
    from weylab.geometry import inradius, random_convex_polygon
    res, cfg = rep["results"], rep["config"]
    fails.true("polygon count / seed differ from the request",
               res["polygons"] == cfg["count"] and res["seed"] == cfg["seed"])
    worst = res["worst"]
    for key, bound in GEOMETRY_BOUNDS.items():
        fails.true(f"worst {key} = {worst[key]!r} above its theorem bound {bound}", worst[key] <= bound)
    ok = all(worst[k] <= b for k, b in GEOMETRY_BOUNDS.items())
    fails.true("all_ok flag disagrees with the worst figures", res["all_ok"] == ok)
    for seed in (cfg["seed"], plan["polygon_seed"]):
        rng = np.random.default_rng(seed)
        for k in range(20):
            poly = random_convex_polygon(rng)
            fails.close(f"inradius of polygon {k} (seed {seed}) against edge triples",
                        inradius(poly), inradius_by_triples(poly.vertices), 1e-11)


# ---- dispatch --------------------------------------------------------------------


def _shape(key):
    return lambda fails, rep, plan, workdir: check_shape_opt(fails, rep, plan, plan[key])


def _plain(fn):
    return lambda fails, rep, plan, workdir: fn(fails, rep, plan)


CHECKS = {
    "weyl-square-D": _plain(check_weyl_rect),
    "weyl-rect-N": _plain(check_weyl_rect),
    "weyl-disk-D": _plain(check_weyl_disk),
    "weyl-disk-N": _plain(check_weyl_disk),
    "weyl-hexagon-fd": _plain(check_weyl_hexagon),
    "heat-rect-D": _plain(check_heat_rect),
    "heat-square-fd": _plain(check_heat_square_fd),
    "polygon-rect": _plain(check_polygon_rect),
    "pointwise-square": _plain(check_pointwise),
    "spectrum-write": check_spectrum_file,
    "tauberian-default": _plain(check_tauberian),
    "tauberian-eps0.05": _plain(check_tauberian),
    "shape-opt-g1-D-ladder": _shape("ladder_points"),
    "shape-opt-g1-N": _shape("neumann_points"),
    "shape-opt-g1.5-D": _shape("g15_points"),
    # the known fault is always scanned at its one lambda, whatever the seed
    "shape-opt-g0.5-3e4": lambda fails, rep, plan, workdir: check_shape_opt(fails, rep, plan, [0]),
    "geometry-200": _plain(check_geometry),
}


def check(report, text, plan, workdir):
    """Failures of one report's output (empty list: the report passes)."""
    try:
        return _check(report, text, plan, workdir)
    except Exception as exc:  # a malformed report fails its check, it does not stop the run
        return [f"check raised {type(exc).__name__}: {exc}"]


def _check(report, text, plan, workdir):
    fails = Failures()
    out = json.loads(text)
    if "lift" in report:
        check_lifts(fails, out, report["lift"])
        return fails
    if "error" in out:
        return [f"report raised {out['error']['type']}: {out['error']['message']}"]
    CHECKS[report["id"]](fails, out, plan, workdir)
    return fails
