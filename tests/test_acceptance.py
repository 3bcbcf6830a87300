"""Acceptance gate: twelve numbered end-to-end checks with pinned tolerances.

Each check prints one summary line with its measured numbers and its verdict
before asserting, so a red run still reports what was actually computed.
Runtime caps are asserted alongside the numerical criteria.
"""

import math
import time

import numpy as np

from weylab import (AtomicMeasure, ConvexPolygon, Rectangle, SampledFunction,
                    bishop_gromov_profile, build_mollifier, build_phi_hierarchy,
                    chebyshev_center, distance_level_volume, heat_polygon_error_bound,
                    heat_polygon_prediction, heat_trace, inradius, iterated_identity_report,
                    lt_constant, optimize_rectangle,
                    polygon_dirichlet_spectrum_fd, random_convex_polygon,
                    rectangle_spectrum, riesz_interpolation_certificate, riesz_mean,
                    semigroup_check, tauberian_order_check, theta_omega, DIRICHLET, NEUMANN)

SQUARE = Rectangle(1.0, 1.0)


def _verdict(num, tag, detail, ok):
    print(f"criterion {num:02d} [{tag}]: {detail} - {'PASS' if ok else 'FAIL'}")
    return ok


def _log_lambdas():
    return np.geomspace(1e4, 1e5, 20)


def test_01_semiclassical_constants():
    t0 = time.perf_counter()
    c2 = lt_constant(0.0, 2)
    c1 = lt_constant(0.0, 1)
    elapsed = time.perf_counter() - t0
    dev = max(abs(c2 - 1.0 / (4.0 * math.pi)) * 4.0 * math.pi,
              abs(c1 - 1.0 / math.pi) * math.pi)
    ok = dev <= 1e-12 and elapsed < 1e-3
    assert _verdict(1, "constants", f"max rel dev {dev:.3e} in {elapsed*1e6:.0f} us", ok)


def test_02_square_corner_term():
    t0 = time.perf_counter()
    spec = rectangle_spectrum(1.0, 1.0, DIRICHLET, 1.1e5)
    l12, l11 = lt_constant(1.0, 2), lt_constant(1.0, 1)
    devs = []
    for lam in _log_lambdas():
        r = riesz_mean(spec, lam, 1.0) - l12 * lam**2 + 0.25 * l11 * 4.0 * lam**1.5
        devs.append(abs(r / lam - 0.25))
    mean_dev = float(np.mean(devs))
    elapsed = time.perf_counter() - t0
    ok = mean_dev <= 0.05 and elapsed < 30.0
    assert _verdict(2, "corner-term",
                    f"mean |r/lambda - 1/4| = {mean_dev:.6f} (tol 0.05) in {elapsed:.1f}s", ok)


def test_03_heat_trace_polygon_bound():
    t0 = time.perf_counter()
    spec = rectangle_spectrum(1.0, 1.0, DIRICHLET, 8000.0)
    big_r = 0.25
    worst = 0.0
    for t in (0.02, 0.01, 0.005):
        theta, tail = heat_trace(spec, t)
        pred = heat_polygon_prediction(t, 1.0, 4.0, (0.5 * math.pi,) * 4)
        bound = 10.0 * ((5.0 * 4 + 20.0 / big_r**2) / (0.5 * math.pi) ** 2
                        * math.exp(-big_r**2 * math.sin(0.25 * math.pi) ** 2 / (16.0 * t)))
        assert abs(bound - 10.0 * heat_polygon_error_bound(t, 1.0, 4, 0.5 * math.pi, big_r)) \
            < 1e-12 * bound
        worst = max(worst, abs(theta - pred) / (bound + tail))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 10.0
    assert _verdict(3, "heat-trace",
                    f"worst |Theta - pred| / bound = {worst:.3e} in {elapsed:.1f}s", ok)


def test_04_two_term_boundary_sign():
    t0 = time.perf_counter()
    l12, l11 = lt_constant(1.0, 2), lt_constant(1.0, 1)
    target = 0.25 * l11 * 4.0
    means = {}
    for bc in (NEUMANN, DIRICHLET):
        spec = rectangle_spectrum(1.0, 1.0, bc, 1.1e5)
        ratios = [(riesz_mean(spec, lam, 1.0) - l12 * lam**2) / lam**1.5
                  for lam in _log_lambdas()]
        means[bc] = float(np.mean(ratios))
    rel_n = abs(means[NEUMANN] - target) / target
    rel_d = abs(means[DIRICHLET] + target) / target
    elapsed = time.perf_counter() - t0
    ok = rel_n <= 0.05 and rel_d <= 0.05 and elapsed < 60.0
    assert _verdict(4, "boundary-sign",
                    f"Neumann {means[NEUMANN]:+.5f}, Dirichlet {means[DIRICHLET]:+.5f} "
                    f"vs +-{target:.5f} (rel {rel_n:.4f}/{rel_d:.4f}) in {elapsed:.1f}s", ok)


def test_05_trace_difference_monotone():
    t0 = time.perf_counter()
    spec_n = rectangle_spectrum(1.0, 1.0, NEUMANN, 1.1e5)
    spec_d = rectangle_spectrum(1.0, 1.0, DIRICHLET, 1.1e5)
    target = 0.5 * lt_constant(1.0, 1) * 4.0
    f = lambda lam: riesz_mean(spec_n, lam, 1.0) - riesz_mean(spec_d, lam, 1.0)
    ratios = [f(lam) / lam**1.5 for lam in _log_lambdas()]
    rel = abs(float(np.mean(ratios)) - target) / target
    vals = np.array([f(lam) for lam in np.linspace(1e4, 1e5, 1000)])
    min_step = float(np.min(np.diff(vals)))
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.05 and min_step >= 0.0 and elapsed < 60.0
    assert _verdict(5, "trace-difference",
                    f"mean f/lambda^1.5 rel dev {rel:.2e}, min grid step {min_step:.1f} "
                    f"in {elapsed:.1f}s", ok)


def test_06_pointwise_decay_exponent():
    t0 = time.perf_counter()
    slope = tauberian_order_check(SQUARE, DIRICHLET, (0.5, 0.5), 1.0,
                                  np.geomspace(1e3, 1e5, 600))
    elapsed = time.perf_counter() - t0
    ok = abs(slope - 1.5) <= 0.15 and elapsed < 60.0
    assert _verdict(6, "pointwise-exponent",
                    f"fitted exponent {slope:.4f} (band 1.5 +- 0.15) in {elapsed:.1f}s", ok)


def test_07_interpolation_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst, violations = 0.0, 0
    for _ in range(100):
        n = int(rng.integers(4, 30))
        grid = np.concatenate(([0.0], np.cumsum(rng.random(n - 1) + 0.05)))
        f = SampledFunction(grid, rng.normal(size=n))
        gamma = float(rng.uniform(0.1, 1.0))
        sigma = gamma * float(rng.uniform(0.05, 0.95))
        _, _, ratio = riesz_interpolation_certificate(f, sigma, gamma)
        worst = max(worst, ratio)
        violations += ratio > 1.0
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    assert _verdict(7, "riesz-interpolation",
                    f"max ratio {worst:.4f}, {violations} violations of 100 "
                    f"in {elapsed:.1f}s", ok)


def test_08_riesz_lift_semigroup():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 25))
        grid = np.concatenate(([0.0], np.cumsum(rng.random(n - 1) + 0.05)))
        f = SampledFunction(grid, rng.normal(size=n))
        k1 = float(rng.uniform(0.2, 2.0))
        k2 = float(rng.uniform(0.2, 2.0))
        worst = max(worst, semigroup_check(f, k1, k2))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    assert _verdict(8, "lift-semigroup",
                    f"max deviation {worst:.3e} over 20 draws in {elapsed:.1f}s", ok)


def test_09_iterated_identity_and_coefficients():
    t0 = time.perf_counter()
    fam = build_mollifier()
    measures = (AtomicMeasure(atoms=((1.0, 1.0),)),
                AtomicMeasure(atoms=((1.0, 1.0), (2.0, 1.0))),
                AtomicMeasure(atoms=((0.9, 2.0), (1.7, 0.7), (2.6, 1.5))))
    hiers = {eps: build_phi_hierarchy(fam, eps) for eps in (0.1, 0.05)}
    worst = 0.0
    for mu in measures:
        for m in (1, 2):
            for h in hiers.values():
                worst = max(worst, iterated_identity_report(mu, m, 3.0, h)["residual"])
    hier = hiers[0.1]
    closed = hier.b_closed_form()
    b_gap = max(abs(hier.b[m] - closed[m]) for m in range(7))
    odd_ok = hier.b[1] == 0.0 and hier.b[3] == 0.0 and hier.b[5] == 0.0
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and b_gap < 1e-10 and odd_ok and elapsed < 120.0
    assert _verdict(9, "iterated-identity",
                    f"max residual {worst:.3e}, coefficient route gap {b_gap:.1e}, "
                    f"odd terms zero: {odd_ok}, in {elapsed:.1f}s", ok)


def _steiner_monte_carlo(poly, r, seed, n_total=10_000_000, chunk=250_000):
    lo = poly.vertices.min(axis=0) - r
    hi = poly.vertices.max(axis=0) + r
    box = float(np.prod(hi - lo))
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    ee = np.sum(e * e, axis=1)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_total // chunk):
        pts = lo + rng.random((chunk, 2)) * (hi - lo)
        rel = pts[:, None, :] - v[None, :, :]
        cross = e[None, :, 0] * rel[:, :, 1] - e[None, :, 1] * rel[:, :, 0]
        inside = np.all(cross >= 0.0, axis=1)
        tt = np.clip(np.einsum("ijk,jk->ij", rel, e) / ee[None, :], 0.0, 1.0)
        diff = rel - tt[:, :, None] * e[None, :, :]
        d2 = np.min(np.sum(diff * diff, axis=2), axis=1)
        hits += int(np.count_nonzero(inside | (d2 <= r * r)))
    p = hits / n_total
    est = p * box
    sigma = box * math.sqrt(p * (1.0 - p) / n_total)
    return est, sigma


def test_10_convex_geometry_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    level_violations = 0
    min_margin = np.inf
    worst_ident = 0.0
    worst_bg = -np.inf
    for _ in range(200):
        poly = random_convex_polygon(rng)
        center, cheb_r = chebyshev_center(poly)
        r_in = inradius(poly)
        worst_ident = max(worst_ident, abs(cheb_r - r_in) / r_in,
                          abs(theta_omega(poly) - poly.perimeter) / poly.perimeter)
        for frac in (0.15, 0.5, 0.9):
            s = frac * r_in
            margin = s * poly.perimeter - distance_level_volume(poly, s)
            min_margin = min(min_margin, margin)
            level_violations += margin < 0.0
        radii = np.geomspace(0.1 * r_in, 3.0, 12)
        for base in (center, poly.vertices[0]):
            prof = bishop_gromov_profile(poly, base, radii)
            worst_bg = max(worst_bg, float(np.max(np.diff(prof))))
    poly = ConvexPolygon(random_convex_polygon(np.random.default_rng(7)).vertices * 2.0)
    r = 0.4
    est, sigma = _steiner_monte_carlo(poly, r, seed=2024)
    closed = poly.area + r * poly.perimeter + math.pi * r * r   # Steiner formula for |P + B_r|
    mc_gap = abs(est - closed)
    elapsed = time.perf_counter() - t0
    ok = (level_violations == 0 and worst_bg <= 1e-10 and worst_ident <= 1e-9
          and mc_gap <= 3.0 * sigma and elapsed < 120.0)
    assert _verdict(10, "convex-geometry",
                    f"level-volume margin >= {min_margin:.2e} (0 violations), "
                    f"profile max step {worst_bg:.1e}, identity dev {worst_ident:.1e}, "
                    f"Steiner |MC - closed| = {mc_gap:.2e} vs 3 sigma = {3*sigma:.2e}, "
                    f"in {elapsed:.1f}s", ok)


def test_11_fd_convergence_order():
    t0 = time.perf_counter()
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    exact = 2.0 * math.pi**2
    errs = [abs(polygon_dirichlet_spectrum_fd(sq, h, 30.0).eigenvalues[0] - exact)
            for h in (1.0 / 50.0, 1.0 / 100.0)]
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    ok = 3.2 <= ratio <= 4.8 and elapsed < 60.0
    assert _verdict(11, "fd-order",
                    f"lambda_1 error ratio h=1/50 vs 1/100: {ratio:.4f} "
                    f"(band [3.2, 4.8]) in {elapsed:.1f}s", ok)


def test_12_rectangle_symmetry_trend():
    # The Dirichlet optimum approaches the square, the least-perimeter rectangle,
    # as lambda grows: the worst symmetry gap |rho* - 1| of each decade of a
    # 13-per-decade log ladder over [1e2, 1e6] strictly decreases.  At single
    # desk-scale lambda the gap need not shrink (rho* = 0.887 at lambda = 500,
    # gaps 0.239, 0, 0.108 at 100, 300, 1000), so the claim is stated on decades.
    t0 = time.perf_counter()
    tol = 1e-12
    lams = np.geomspace(1e2, 1e6, 49)
    runs = [optimize_rectangle(lam, 1.0, DIRICHLET, tol) for lam in lams]
    elapsed = time.perf_counter() - t0
    worst_cert = max(r.certified_gap for r in runs)
    gaps = np.array([abs(r.best[0] - 1.0) for r in runs])
    decade_max = [float(np.max(gaps[12 * d:12 * d + 13])) for d in range(4)]
    trend = all(b < a for a, b in zip(decade_max, decade_max[1:]))
    certified = worst_cert <= tol
    ok = trend and certified and elapsed < 120.0
    shown = ", ".join(f"{g:.4f}" for g in decade_max)
    _verdict(12, "shape-optimization",
             f"decade max symmetry gaps over 1e2..1e6 {{{shown}}} strictly decreasing: "
             f"{trend}, worst certified gap {worst_cert:.1e} (tol {tol:g}), in {elapsed:.1f}s", ok)
    assert certified, f"optimality certificate {worst_cert:.3e} exceeds {tol:g}"
    assert trend, f"decade maxima of the symmetry gap are not strictly decreasing: {shown}"
    assert elapsed < 120.0
