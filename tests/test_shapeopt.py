"""Fixed-area shape optimization of Riesz means over rectangles and regular polygons."""

import math

import numpy as np
import pytest

from weylab import (OptimizationRun, optimize_rectangle, optimize_regular_polygon,
                    optimizer_convergence_study, rectangle_riesz_objective,
                    symmetry_trend, two_term_ranking_agreement, write_trace_csv,
                    DIRICHLET, NEUMANN)
from weylab.shapeopt import _slope_enclosure, _termwise_slopes
from weylab import rectangle_spectrum, riesz_mean

# Dirichlet gamma = 1 optima are critical points rho* = sqrt(sum n^2 / sum m^2) of
# the lattice piece A - pi^2 (rho sum m^2 + sum n^2 / rho) that holds rho*.  Within
# it R'' = -2 pi^2 sum n^2 / rho^3, so a certified relative gap g confines the
# returned aspect to |rho - rho*| <= sqrt(2 g R / |R''|): about 1.2e-6 at
# lambda = 100, 500, 1000 for the default g <= 1e-12.
RHO_PREC = 2e-6


def _column_sum(lam, rhos):
    """Independent Dirichlet R_1 on an aspect grid: columns n, closed-form rows m."""
    pi2 = math.pi**2
    total = np.zeros_like(rhos)
    for n in range(1, int(math.sqrt(lam * rhos.max()) / math.pi) + 2):
        t = lam - pi2 * n * n / rhos
        big_m = np.floor(np.sqrt(np.maximum(t, 0.0) / (pi2 * rhos)))
        big_m -= pi2 * rhos * big_m**2 >= t
        big_m += pi2 * rhos * (big_m + 1.0) ** 2 < t
        big_m = np.maximum(big_m, 0.0)
        total += big_m * t - pi2 * rhos * big_m * (big_m + 1.0) * (2.0 * big_m + 1.0) / 6.0
    return total


def test_objective_reference_value():
    # unit square at lambda = 500: 20-digit lattice-sum value
    val = rectangle_riesz_objective(1.0, 500.0, 1.0, DIRICHLET)
    assert abs(val - 7676.573665426113) < 1e-8


def test_objective_aspect_inversion_symmetry():
    # rho and 1/rho describe the same rectangle up to a rotation
    for rho in (0.3, 0.55, 0.7):
        v = rectangle_riesz_objective(rho, 500.0, 1.0, DIRICHLET)
        w = rectangle_riesz_objective(1.0 / rho, 500.0, 1.0, DIRICHLET)
        assert abs(v - w) < 1e-11 * abs(v)


def test_objective_scaling_covariance():
    # |Omega| -> 2 |Omega| halves every eigenvalue, so R_1 scales by 1/2 at lambda/2
    v2 = rectangle_riesz_objective(0.7, 250.0, 1.0, DIRICHLET, area=2.0)
    v1 = rectangle_riesz_objective(0.7, 500.0, 1.0, DIRICHLET, area=1.0)
    assert abs(v2 - 0.5 * v1) < 1e-12 * abs(v1)


def test_objective_against_the_sorted_spectrum():
    rng = np.random.default_rng(5)
    for _ in range(40):
        rho, lam = float(rng.uniform(0.05, 1.0)), float(10.0 ** rng.uniform(1.0, 3.5))
        gamma = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0]))
        bc = DIRICHLET if rng.random() < 0.5 else NEUMANN
        spec = rectangle_spectrum(1.0 / math.sqrt(rho), math.sqrt(rho), bc, lam + 1.0)
        want = riesz_mean(spec, lam, gamma)
        assert abs(rectangle_riesz_objective(rho, lam, gamma, bc) - want) <= 1e-12 * max(want, 1.0)


def test_slope_enclosure_contains_the_difference_quotients():
    # a.e. derivative enclosure on [p, q]; the closed form at gamma = 1 must
    # agree with the term-by-term reference
    rng = np.random.default_rng(11)
    s = math.pi**2
    for _ in range(40):
        lam = float(10.0 ** rng.uniform(1.5, 4.0))
        gamma = float(rng.choice([1.0, 1.5, 2.0]))
        bc = DIRICHLET if rng.random() < 0.5 else NEUMANN
        p = float(rng.uniform(0.05, 0.95))
        q = min(1.0, p + float(10.0 ** rng.uniform(-4.0, -0.5)))
        lo, hi = _slope_enclosure(p, q, lam, gamma, bc, s)
        xs = np.linspace(p, q, 201)
        ys = np.array([rectangle_riesz_objective(x, lam, gamma, bc) for x in xs])
        dq = np.diff(ys) / np.diff(xs)
        slack = 1e-9 * (abs(lo) + abs(hi) + 1.0)
        assert lo - slack <= dq.min() and dq.max() <= hi + slack
        if gamma == 1.0:
            m = np.arange(1 if bc == DIRICHLET else 0, int(math.sqrt(lam / (s * p))) + 2.0)
            n_sup = np.floor(np.sqrt(lam / s))  # superset: slack rows contribute zero
            ref = _termwise_slopes(p, q, lam, 1.0, bc, s, m, np.full(m.shape, n_sup))
            assert abs(ref[0] - lo) <= 1e-12 * (abs(lo) + abs(hi))
            assert abs(ref[1] - hi) <= 1e-12 * (abs(lo) + abs(hi))


def test_objective_guards():
    with pytest.raises(ValueError):
        rectangle_riesz_objective(0.0, 500.0, 1.0, DIRICHLET)
    with pytest.raises(ValueError):
        rectangle_riesz_objective(0.5, -3.0, 1.0, DIRICHLET)
    with pytest.raises(ValueError):
        rectangle_riesz_objective(0.5, 500.0, 1.0, DIRICHLET, area=0.0)


def test_dirichlet_rectangle_optimum_at_desk_scale():
    run = optimize_rectangle(500.0, 1.0, DIRICHLET)
    assert not run.degenerate
    assert run.certified_gap <= 1e-12
    # the optimum is NOT the square
    assert abs(run.best[0] - 0.8872395243871024) < RHO_PREC
    assert abs(run.best[1] - 7700.381292176507) < 1e-6
    assert run.best[1] > rectangle_riesz_objective(1.0, 500.0, 1.0, DIRICHLET)
    # never below an exhaustive scan of the feasible interval
    grid_best = max(rectangle_riesz_objective(r, 500.0, 1.0, DIRICHLET)
                    for r in np.linspace(0.3, 1.0, 141))
    assert run.best[1] >= grid_best - 1e-9


@pytest.mark.parametrize("lam", [500.0, 10.0 ** (25.0 / 6.0), 1e5, 1e6])
def test_optimum_never_below_an_independent_scan(lam):
    # at 14678, 1e5 and 1e6 a local search started from a 64-point pre-scan lands
    # on a non-global optimum, 7e-7, 5e-7 and 8e-9 relative below the scan
    run = optimize_rectangle(lam, 1.0, DIRICHLET)
    assert run.certified_gap <= 1e-12
    scan_best = float(np.max(_column_sum(lam, np.linspace(0.05, 1.0, 20001))))
    assert run.best[1] >= scan_best - (run.certified_gap + 1e-13) * run.best[1]


def test_optimizer_is_deterministic():
    a = optimize_rectangle(777.0, 1.0, DIRICHLET, tol=1e-5)
    b = optimize_rectangle(777.0, 1.0, DIRICHLET, tol=1e-5)
    assert a.optimizer_trace == b.optimizer_trace
    assert a.best == b.best


def test_neumann_rectangle_optimum():
    run = optimize_rectangle(500.0, 1.0, NEUMANN)
    # the minimizer is the kink where lambda_{1,7}(rho) = pi^2 (rho + 49/rho) crosses 500;
    # one-sided slopes there are >= 160, so a gap <= 1e-12 of R = 12412 pins rho to 8e-11
    assert run.certified_gap <= 1e-12
    assert abs(run.best[0] - 0.9864282861133695) < 1e-10
    assert run.best[1] <= min(v for _, v in run.optimizer_trace) + 1e-12


def test_degenerate_run_below_the_ground_state():
    run = optimize_rectangle(5.0, 1.0, DIRICHLET)
    assert run.degenerate
    assert run.best == (1.0, 0.0)
    assert run.certified_gap == 0.0


def test_square_wins_just_above_the_ground_state():
    # only near-square rectangles have lambda_1 < 21, so rho = 1 is the argmax
    run = optimize_rectangle(21.0, 1.0, DIRICHLET)
    assert run.best[0] == 1.0


def test_sub_lipschitz_runs_carry_no_certificate():
    # gamma < 1: (lam - lambda)_+^gamma has unbounded slope where lambda crosses lam
    run = optimize_rectangle(500.0, 0.5, DIRICHLET, tol=1e-6)
    assert run.certified_gap is None
    assert run.to_report()["certified_gap"] is None
    assert run.best[1] == max(v for _, v in run.optimizer_trace)


def test_convergence_study_pins():
    study = optimizer_convergence_study([100.0, 300.0, 1000.0], 1.0, DIRICHLET)
    want = [(100.0, 0.7608859102526822), (300.0, 1.0), (1000.0, 0.8924902359848785)]
    for (lam, rho, gap), (wlam, wrho) in zip(study, want):
        assert lam == wlam
        assert abs(rho - wrho) < RHO_PREC
        assert abs(gap - abs(wrho - 1.0)) < RHO_PREC
    # measured gaps 0.239, 0.0, 0.108: not a weakly decreasing ladder
    assert symmetry_trend(study) is False
    with pytest.raises(ValueError):
        optimizer_convergence_study([300.0, 100.0], 1.0, DIRICHLET)


def test_symmetry_trend_logic():
    assert symmetry_trend([(1, 0, 0.5), (2, 0, 0.3), (3, 0, 0.3), (4, 0, 0.1)]) is True
    assert symmetry_trend([(1, 0, 0.1), (2, 0, 0.3)]) is False
    wobble = [(1, 0, 0.5), (2, 0, 0.5 + 1e-12)]
    assert symmetry_trend(wobble) is True
    assert symmetry_trend(wobble, slack=0.0) is False


def test_ranking_agreement_counts():
    # unit envelopes make every desk-scale pair incomparable (vacuously perfect)
    assert two_term_ranking_agreement(500.0, 1.0, DIRICHLET) == (0, 0)
    assert two_term_ranking_agreement(500.0, 1.0, DIRICHLET, envelope_scale=0.005) == (10, 10)
    assert two_term_ranking_agreement(500.0, 1.0, NEUMANN, envelope_scale=0.005) == (18, 18)


def test_regular_polygon_optimizer():
    run = optimize_regular_polygon(80.0, 1.0, sides=(3, 4, 5), h=0.05)
    assert run.experimental
    assert [n for n, _ in run.optimizer_trace] == [3, 4, 5]
    assert run.best[0] == 4          # the square beats triangle and pentagon here
    assert abs(run.best[1] - 128.21447698471533) < 1e-5
    assert len(run.error_bars) == 3
    for (n, bar), (tn, val) in zip(run.error_bars, run.optimizer_trace):
        assert n == tn and 0.0 <= bar < 0.05 * abs(val)
    with pytest.raises(ValueError):
        optimize_regular_polygon(-1.0, 1.0)


def test_run_record_validation():
    with pytest.raises(ValueError):
        OptimizationRun("rectangle", 0.0, 1.0, DIRICHLET, (), (1.0, 0.0))
    with pytest.raises(ValueError):
        OptimizationRun("rectangle", 10.0, -1.0, DIRICHLET, (), (1.0, 0.0))
    # the recorded winner must dominate its own trace
    with pytest.raises(ValueError):
        OptimizationRun("rectangle", 10.0, 1.0, DIRICHLET,
                        ((0.5, 3.0), (0.9, 7.0)), (0.5, 3.0))
    with pytest.raises(ValueError):
        OptimizationRun("rectangle", 10.0, 1.0, NEUMANN,
                        ((0.5, 3.0), (0.9, 7.0)), (0.9, 7.0))
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            OptimizationRun("rectangle", 10.0, 1.0, DIRICHLET, (), (1.0, 0.0),
                            certified_gap=bad)
    rep = OptimizationRun("rectangle", 10.0, 1.0, DIRICHLET,
                          ((0.5, 3.0), (0.9, 7.0)), (0.9, 7.0)).to_report()
    assert rep["best"] == {"params": 0.9, "objective": 7.0}
    assert len(rep["trace"]) == 2 and rep["experimental"] is False
    assert rep["certified_gap"] is None


def test_trace_csv(tmp_path):
    run = optimize_rectangle(30.0, 1.0, DIRICHLET, tol=1e-3)
    path = tmp_path / "trace.csv"
    write_trace_csv(run, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "params,objective"
    assert len(lines) == len(run.optimizer_trace) + 1
    p, v = lines[1].split(",")
    assert float(p) == run.optimizer_trace[0][0]
    assert float(v) == run.optimizer_trace[0][1]
