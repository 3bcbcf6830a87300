"""Fixed-area shape optimization of Riesz means over rectangles."""

import math

import numpy as np
import pytest

from weylab import shapeopt
from weylab.constants import DIRICHLET, NEUMANN
from weylab.shapeopt import (OptimizationRun, _rectangle_bound, _row_data, _row_top, _rows,
                             _slope_enclosure, _termwise_slopes, optimize_rectangle,
                             rectangle_riesz_objective, symmetry_trend, write_trace_csv)
from weylab.spectra import rectangle_spectrum, riesz_mean

# Dirichlet gamma = 1 optima are critical points rho* = sqrt(sum n^2 / sum m^2) of
# the lattice piece A - pi^2 (rho sum m^2 + sum n^2 / rho) that holds rho*.  Within
# it R'' = -2 pi^2 sum n^2 / rho^3, so a certified relative gap g confines the
# returned aspect to |rho - rho*| <= sqrt(2 g R / |R''|): about 1.2e-6 at
# lambda = 100, 500, 1000 for the default g <= 1e-12.
RHO_PREC = 2e-6


def _tops(rho, lam, bc):
    """Row tops at rho on its own rows, as the optimizer samples them."""
    return _row_top(lam - _rows(lam, rho, bc)[1] * rho, rho)


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
        rows = _row_data(lam, bc)
        top_p, top_q = _tops(p, lam, bc), _tops(q, lam, bc)
        lo, hi, *crossing = _slope_enclosure(p, q, top_p, top_q, lam, gamma, bc, rows)
        assert crossing == [0.0, 0.0, 0.0]
        xs = np.linspace(p, q, 201)
        ys = np.array([rectangle_riesz_objective(x, lam, gamma, bc) for x in xs])
        dq = np.diff(ys) / np.diff(xs)
        slack = 1e-9 * (abs(lo) + abs(hi) + 1.0)
        assert lo - slack <= dq.min() and dq.max() <= hi + slack
        if gamma == 1.0:
            m = np.arange(1 if bc == DIRICHLET else 0, int(math.sqrt(lam / (s * p))) + 2.0)
            n_sup = np.floor(np.sqrt(lam / s))  # superset: slack rows contribute zero
            ref = _termwise_slopes(p, q, lam, 1.0, bc, m, np.full(m.shape, n_sup))
            assert ref[2:] == (0.0, 0.0, 0.0)
            assert abs(ref[0] - lo) <= 1e-12 * (abs(lo) + abs(hi))
            assert abs(ref[1] - hi) <= 1e-12 * (abs(lo) + abs(hi))


def test_padded_tops_are_the_tops_on_the_longer_rows():
    # the bound on [p, q] reads p's and q's tops, each on its own rows, and the
    # per-run row constants sliced to p's rows; q's tops padded with -1 must be
    # bit for bit what _row_top gives on p's rows
    rng = np.random.default_rng(31)
    for _ in range(200):
        lam = float(10.0 ** rng.uniform(0.5, 6.0))
        bc = DIRICHLET if rng.random() < 0.5 else NEUMANN
        p, q = np.sort(rng.uniform(0.05, 1.0, 2))
        m, sm2 = _rows(lam, p, bc)
        top_p, top_q = _tops(p, lam, bc), _tops(q, lam, bc)
        rows = _row_data(lam, bc)
        assert np.array_equal(rows[0][:len(m)], m) and np.array_equal(rows[1][:len(m)], sm2)
        assert len(top_p) == len(m)
        padded = np.concatenate((top_q, np.full(len(top_p) - len(top_q), -1.0)))
        assert np.array_equal(padded, _row_top(lam - sm2 * q, q))


@pytest.mark.parametrize("gamma", [1.0, 1.5])
def test_row_tops_once_per_sampled_aspect(monkeypatch, gamma):
    # each evaluation computes its row tops once, in the one lattice pass that
    # gives the objective and the tops both neighbouring interval bounds share
    calls = []
    row_top = shapeopt._row_top
    monkeypatch.setattr(shapeopt, "_row_top", lambda *a: calls.append(1) or row_top(*a))
    run = optimize_rectangle(1e4, gamma, DIRICHLET)
    assert run.certified_gap <= 1e-12
    assert len(calls) == len(run.optimizer_trace)


def test_objective_guards():
    with pytest.raises(ValueError):
        rectangle_riesz_objective(0.0, 500.0, 1.0, DIRICHLET)
    with pytest.raises(ValueError):
        rectangle_riesz_objective(0.5, -3.0, 1.0, DIRICHLET)


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


def test_sub_lipschitz_runs_are_certified_against_a_scan():
    # gamma < 1: (lam - lambda)_+^gamma has unbounded slope where lambda crosses lam;
    # a 64-point pre-scan plus golden section returned 268209.94 at rho = 0.86547
    # for the first case, below the global 268212.66 at rho = 0.91842
    rhos = np.linspace(0.05, 1.0, 8001)
    for gamma, bc in ((0.5, DIRICHLET), (0.0, DIRICHLET), (0.5, NEUMANN)):
        run = optimize_rectangle(3e4, gamma, bc)
        assert run.certified_gap <= 1e-12
        sign = 1.0 if bc == DIRICHLET else -1.0
        scan = sign * np.array([rectangle_riesz_objective(r, 3e4, gamma, bc) for r in rhos])
        assert sign * run.best[1] >= scan.max() - (run.certified_gap + 1e-13) * abs(run.best[1])
        if gamma == 0.5 and bc == DIRICHLET:
            assert abs(run.best[0] - 0.91842) < 1e-5
            assert abs(run.best[1] - 268212.66) < 0.01


def test_interval_bound_dominates_the_objective():
    # the branch-and-bound bound on [p, q] from the endpoint values must hold at
    # every sample, crossing terms (gamma < 1) included
    rng = np.random.default_rng(23)
    for _ in range(40):
        lam = float(10.0 ** rng.uniform(1.5, 4.0))
        gamma = float(rng.choice([0.0, 0.25, 0.5, 1.0, 1.5]))
        bc = DIRICHLET if rng.random() < 0.5 else NEUMANN
        sign = 1.0 if bc == DIRICHLET else -1.0
        p = float(rng.uniform(0.05, 0.95))
        q = min(1.0, p + float(10.0 ** rng.uniform(-4.0, -0.5)))
        xs = np.linspace(p, q, 201)
        ys = sign * np.array([rectangle_riesz_objective(x, lam, gamma, bc) for x in xs])
        rows = _row_data(lam, bc)
        top = _rectangle_bound(p, q, (ys[0], _tops(p, lam, bc)), (ys[-1], _tops(q, lam, bc)),
                               lam, gamma, bc, rows)
        assert ys.max() <= top + 1e-12 * (np.abs(ys).max() + 1.0)


def test_convergence_study_pins():
    runs = [optimize_rectangle(lam, 1.0, DIRICHLET) for lam in (100.0, 300.0, 1000.0)]
    study = [(r.lam, r.best[0], abs(r.best[0] - 1.0)) for r in runs]
    want = [(100.0, 0.7608859102526822), (300.0, 1.0), (1000.0, 0.8924902359848785)]
    for (lam, rho, gap), (wlam, wrho) in zip(study, want):
        assert lam == wlam
        assert abs(rho - wrho) < RHO_PREC
        assert abs(gap - abs(wrho - 1.0)) < RHO_PREC
    # measured gaps 0.239, 0.0, 0.108: not a weakly decreasing ladder
    assert symmetry_trend(study) is False


def test_symmetry_trend_logic():
    assert symmetry_trend([(1, 0, 0.5), (2, 0, 0.3), (3, 0, 0.3), (4, 0, 0.1)]) is True
    assert symmetry_trend([(1, 0, 0.1), (2, 0, 0.3)]) is False
    # a rise within the 1e-9 slack still counts as decreasing, one beyond it does not
    assert symmetry_trend([(1, 0, 0.5), (2, 0, 0.5 + 1e-12)]) is True
    assert symmetry_trend([(1, 0, 0.5), (2, 0, 0.5 + 1e-8)]) is False


def test_run_record_validation():
    with pytest.raises(ValueError):
        OptimizationRun("rectangle", 0.0, 1.0, DIRICHLET, (), (1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        OptimizationRun("rectangle", 10.0, -1.0, DIRICHLET, (), (1.0, 0.0), 0.0)
    # the recorded winner must dominate its own trace
    with pytest.raises(ValueError):
        OptimizationRun("rectangle", 10.0, 1.0, DIRICHLET,
                        ((0.5, 3.0), (0.9, 7.0)), (0.5, 3.0), 0.0)
    with pytest.raises(ValueError):
        OptimizationRun("rectangle", 10.0, 1.0, NEUMANN,
                        ((0.5, 3.0), (0.9, 7.0)), (0.9, 7.0), 0.0)
    for bad in (-1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            OptimizationRun("rectangle", 10.0, 1.0, DIRICHLET, (), (1.0, 0.0), bad)
    rep = OptimizationRun("rectangle", 10.0, 1.0, DIRICHLET,
                          ((0.5, 3.0), (0.9, 7.0)), (0.9, 7.0), 0.0).to_report()
    assert rep["best"] == {"params": 0.9, "objective": 7.0}
    assert len(rep["trace"]) == 2
    assert rep["certified_gap"] == 0.0


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
