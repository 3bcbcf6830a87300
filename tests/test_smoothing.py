"""Band-limited mollifier hierarchy, smoothed Riesz means, and the iterated identity."""

import argparse
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from pointwise_refit import refit_slope
from weylab import smoothing
from weylab.cli import cmd_pointwise_check, cmd_tauberian_demo
from weylab.constants import DIRICHLET, NEUMANN
from weylab.smoothing import (FFT_SIZE, MAX_HIERARCHY_K, TAB_HALF_WIDTH, TAB_STEP,
                              WINDOW_HALF_WIDTH, AtomicMeasure, MollifierFamily, PhiHierarchy,
                              _identity_sides, build_mollifier, build_phi_hierarchy,
                              iterated_identity_report, reflection_heat_bound, smoothed_riesz,
                              tauberian_order_check)
from weylab.spectra import Rectangle

FAM = build_mollifier()
HIER = build_phi_hierarchy(FAM, 0.1)

# measured decay envelope phi(tau) <= SCALE exp(-RATE tau^POWER) of the kernel
ENVELOPE_RATE = 1.66
ENVELOPE_POWER = 0.6
ENVELOPE_SCALE = 16.0


def _psi(fam, tau):
    """psi by the family's trapezoid rule in xi, summed directly at each tau.

    The family evaluates the same sum on its grid through one real FFT; this
    direct sum is the reference for that tabulation (|tau| well below the alias
    period).
    """
    xi = 2.0 * math.pi / (FFT_SIZE * TAB_STEP) * np.arange(fam._cos_coef.size)
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    return np.concatenate([np.cos(blk[:, None] * xi) @ fam._cos_coef
                           for blk in np.array_split(tau, -(-tau.size // 8192))])


def test_kernel_is_a_probability_density():
    assert abs(HIER.moments[0] - 1.0) < 1e-10
    taus = np.linspace(0.0, 60.0, 400)
    assert np.all(_psi(FAM, taus) ** 2 >= 0.0)   # phi = psi^2 by construction
    assert abs(FAM.chi_moment(0) - 1.0) < 1e-12
    assert FAM.chi_moment(3) == 0.0


def test_psi_tabulation_against_mpmath():
    # independent 30-digit route: psi(tau) = (norm/pi) int_0^1/2 p(xi) cos(tau xi) dxi
    # with p the Gevrey profile and norm^2 = pi / int_0^1/2 p^2, by tanh-sinh quadrature.
    # The trapezoid rule meets it to ~4e-17; the former Gauss-Legendre cosine
    # quadrature was off by 4.7e-14 at tau = 17.25 and 1.7e-13 in I_0.
    import mpmath
    from weylab.smoothing import GEVREY_POWER, GEVREY_SCALE, HALF_BAND, TAB_STEP

    with mpmath.workdps(30):
        def p(xi):
            return mpmath.exp(-GEVREY_SCALE * (1 - (xi / HALF_BAND) ** 2) ** -GEVREY_POWER)

        norm = mpmath.sqrt(mpmath.pi / mpmath.quad(lambda x: p(x) ** 2, [0, HALF_BAND]))
        taus = (0.0, 0.5, 3.0, 17.25)
        want = [float(norm / mpmath.pi * mpmath.quad(lambda x: p(x) * mpmath.cos(t * x),
                                                     [0, HALF_BAND])) for t in taus]
    phi_tab = FAM._phi_tab
    for t, w in zip(taus, want):
        j = int(round(t / TAB_STEP))
        assert FAM.tab_grid[j] == t
        assert abs(float(_psi(FAM, t)[0]) - w) <= 1e-15, f"tau={t}"
        assert abs(phi_tab[j] - w * w) <= 1e-15, f"tau={t}"
    assert abs(HIER.moments[0] - 1.0) <= 1e-13
    # the FFT tabulation against the direct sum across the whole padded window
    # (measured 2.8e-17)
    j = np.arange(0, FAM.tab_grid.size, 997)
    assert np.max(np.abs(phi_tab[j] - _psi(FAM, FAM.tab_grid[j]) ** 2)) <= 1e-16


def _phi_hat(fam, xi):
    """Fourier transform of the tabulated (even) phi.

    The trapezoid rule on the padded uniform grid is spectrally accurate here:
    the integrand and all its derivatives vanish at the window ends.
    """
    tab = fam._phi_tab
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    return np.array([TAB_STEP * (2.0 * float(np.cos(s * fam.tab_grid) @ tab) - tab[0])
                     for s in xi])


# phi-hat(xi) = (norm^2 / 2pi) int p(eta) p(xi - eta) d eta, p the evenly extended
# Gevrey profile and norm^2 = pi / int_0^1/2 p^2, by 40-digit mpmath tanh-sinh
# quadrature on 16 sub-intervals between the profile's kinks (60 digits agree).
# At 0.9 the exact value is far below roundoff, so its sign is not checked.
PHI_HAT_ORACLE = {0.2: 0.51990230241990737399, 0.5: 0.0057974843915965882474,
                  0.9: 9.425e-41}


def test_fourier_transform_band_limited():
    assert abs(_phi_hat(FAM, 0.0)[0] - 1.0) < 1e-10
    xi = list(PHI_HAT_ORACLE)
    inside = _phi_hat(FAM, xi)
    assert np.max(np.abs(inside - [PHI_HAT_ORACLE[x] for x in xi])) <= 1e-15
    outside = _phi_hat(FAM, [1.05, 1.5, 3.0, 10.0])
    assert np.max(np.abs(outside)) < 1e-9


def test_kernel_decay_envelope():
    # the envelope behind MAX_HIERARCHY_K (test_truncation_stability_gate);
    # measured sup ratio 0.78
    taus = np.linspace(0.5, 150.0, 20000)
    env = ENVELOPE_SCALE * np.exp(-ENVELOPE_RATE * taus**ENVELOPE_POWER)
    assert float(np.max(_psi(FAM, taus) ** 2 / env)) <= 1.0


def test_hierarchy_parity_is_structural():
    taus = np.linspace(0.0, 100.0, 777)
    for k in range(MAX_HIERARCHY_K + 1):
        left = HIER.phi_k(k, -taus)
        right = (-1.0) ** k * HIER.phi_k(k, taus)
        assert float(np.max(np.abs(left - right))) == 0.0, f"k={k}"


def test_antiderivative_chain_consistency():
    # finite differences of Phi_k recover phi_k.  Phi_k is as smooth through
    # tau = 0 as elsewhere, since its integration constants come from the spline
    # the chain integrates.  The stencil amplifies cancellation roundoff of the
    # tau^{k+1}/(k+1)! terms by 1/h, so the attainable accuracy degrades by up
    # to a decade per level.
    taus = np.linspace(-10.0, 10.0, 100)
    h = 1e-5
    for k in range(MAX_HIERARCHY_K + 1):
        fd = (HIER.phi_k_antiderivative(k, taus + h)
              - HIER.phi_k_antiderivative(k, taus - h)) / (2.0 * h)
        assert np.max(np.abs(fd - HIER.phi_k(k, taus))) < 1e-10 * 10.0**k + 1e-9, f"k={k}"
    # even-level integration constants: Phi_k(0) = I_k / 2 at every even level,
    # since the moments come from the chain's own half-line moments
    assert float(HIER.phi_k_antiderivative(0, np.array([0.0]))[0]) == 0.5 * HIER.moments[0]
    for k in range(0, MAX_HIERARCHY_K + 1, 2):
        phi0 = float(HIER.phi_k_antiderivative(k, np.array([0.0]))[0])
        assert abs(2.0 * phi0 - HIER.moments[k]) <= 1e-14 * HIER.moments[k], f"k={k}"


def test_window_guard():
    with pytest.raises(ValueError):
        HIER.phi_k(2, WINDOW_HALF_WIDTH + 1.0)
    with pytest.raises(ValueError):
        HIER.phi_k(9, 0.0)


# I_k at eps = 0.1 from an independent 40-digit mpmath computation: the
# Plancherel moments M_2j = (1/2pi) int |q^(j)|^2 dxi of the Gevrey profile q
# (psi = inverse cosine transform of q), fed through the bump-moment recursion
# I_k = M_k/k! - sum_{j even < k} I_j c_{k-j} eps^{k-j} / (k-j)!.
PLANCHEREL_MOMENTS = {2: 15.947122107063038, 4: 119.42869835065701,
                      6: 627.10896981580660, 8: 3483.6620915358075}


def test_hierarchy_moments():
    # odd moments vanish structurally; even ones match the Plancherel values
    assert HIER.moments[1] == 0.0
    assert HIER.moments[3] == 0.0
    assert HIER.moments[5] == 0.0
    assert HIER.moments[7] == 0.0
    for k in (2, 4, 6, 8):
        want = PLANCHEREL_MOMENTS[k]
        assert abs(HIER.moments[k] - want) < 1e-13 * want, f"k={k}"


def test_hierarchy_build_fits_one_spline(monkeypatch):
    # the chain, its integration constants and the moments all come from the
    # phi spline, so a fresh family and a hierarchy on it fit exactly one CubicSpline
    real, fits = smoothing.CubicSpline, []

    def counting(*args, **kwargs):
        fits.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(smoothing, "CubicSpline", counting)
    h = PhiHierarchy(MollifierFamily(), 0.1)
    assert len(h.moments) == MAX_HIERARCHY_K + 1
    assert len(fits) == 1


def test_windowed_chain_matches_the_full_range_chain():
    # the family integrates the spline restricted to [0, WINDOW_HALF_WIDTH]; the
    # chain of the full-range spline, each level then restricted to the window,
    # has the same pieces bit for bit
    def restricted(pp):
        x = pp.x
        i0 = max(0, np.searchsorted(x, 0.0, side="right") - 1)
        i1 = min(len(x) - 1, np.searchsorted(x, WINDOW_HALF_WIDTH, side="left"))
        return pp.c[:, i0:i1], x[i0:i1 + 1]

    level = CubicSpline(FAM.tab_grid, FAM._phi_tab, bc_type=((1, 0.0), "not-a-knot"))
    assert len(FAM._a_window) == MAX_HIERARCHY_K + 2
    for k, window in enumerate(FAM._a_window):
        if k:
            level = level.antiderivative()
            level.c[-1, :] += FAM._half_moments[k - 1] / math.factorial(k - 1)
        c, x = restricted(level)
        assert np.array_equal(window.c, c) and np.array_equal(window.x, x), f"k={k}"


def test_bump_chain_against_mpmath():
    # B_i(tau) = int_{-eps}^{min(tau, eps)} (tau - u)^{i-1}/(i-1)! chi_eps(u) du
    # = sum_k C(i-1, k) tau^{i-1-k} (-eps)^k M_k(min(tau/eps, 1)) / (i-1)!, with
    # M_k(x) = int_{-1}^x v^k chi(v) dv by 30-digit tanh-sinh quadrature; the
    # sum in 30 digits loses nothing to cancellation at these tau
    import mpmath

    with mpmath.workdps(30):
        def bump(v):
            return mpmath.exp(-1 / (1 - v * v))

        norm = mpmath.quad(bump, [-1, 0, 1])
        moments = {x: [mpmath.quad(lambda v: v**k * bump(v), [-1, x] if x <= 0 else [-1, 0, x])
                       / norm for k in range(MAX_HIERARCHY_K + 1)] for x in (-0.5, 0, 0.3, 1)}
        for eps in (0.1, 0.05):
            h = build_phi_hierarchy(FAM, eps)
            for x, tau in ((-0.5, -eps / 2), (0, 0.0), (0.3, 0.3 * eps), (1, eps),
                           (1, 3.0), (1, 40.0), (1, 128.0)):
                mom = moments[x]
                for i in range(1, MAX_HIERARCHY_K + 2):
                    want = float(mpmath.fsum(
                        mpmath.binomial(i - 1, k) * mpmath.mpf(tau) ** (i - 1 - k)
                        * (-mpmath.mpf(eps)) ** k * mom[k] for k in range(i))
                        / mpmath.factorial(i - 1))
                    got = float(h._B(i, np.array([tau]))[0])
                    assert abs(got - want) <= 1e-13 * want, f"eps={eps} tau={tau} i={i}"


def test_coefficient_recursion_against_closed_forms():
    b = HIER.b
    assert b[0] == 1.0 and b[1] == 0.0 and b[3] == 0.0 and b[5] == 0.0
    closed = HIER.b_closed_form()
    for m in range(MAX_HIERARCHY_K + 1):
        assert abs(b[m] - closed[m]) < 1e-10, f"m={m}"
    # hand-expanded series inverse of the even moment sequence
    i2, i4, i6 = HIER.moments[2], HIER.moments[4], HIER.moments[6]
    assert abs(b[2] + i2) < 1e-10
    assert abs(b[4] - (i2 * i2 - i4)) < 1e-9
    assert abs(b[6] - (-i2**3 + 2.0 * i2 * i4 - i6)) < 1e-8


def test_truncation_stability_gate():
    # the crude K-fold truncation bound env(T) (2T)^K / K! of the padded window,
    # env the frozen decay envelope (out at T, psi is below the roundoff of the
    # FFT sum, so the tabulated value bounds nothing), stays below 1e-9 up to
    # K = 8 and not at 9: that is why every hierarchy stops at MAX_HIERARCHY_K
    edge = ENVELOPE_SCALE * math.exp(-ENVELOPE_RATE * TAB_HALF_WIDTH ** ENVELOPE_POWER)

    def est(K):
        return edge * (2.0 * TAB_HALF_WIDTH) ** K / math.factorial(K)

    assert abs(est(8) - 1.739070845872548e-10) < 1e-22
    assert abs(est(9) - 1.978676162414988e-08) < 1e-20
    assert est(MAX_HIERARCHY_K) <= 1e-9 < est(MAX_HIERARCHY_K + 1)
    assert len(HIER.moments) == len(HIER.b) == MAX_HIERARCHY_K + 1
    for f in (HIER.phi_k, HIER.phi_k_antiderivative):
        f(MAX_HIERARCHY_K, 0.0)
        with pytest.raises(ValueError, match="out of range"):
            f(MAX_HIERARCHY_K + 1, 0.0)
    with pytest.raises(ValueError):
        PhiHierarchy(FAM, 0.0)
    with pytest.raises(ValueError):
        PhiHierarchy(FAM, 1.5)


def test_build_mollifier_returns_the_shared_family():
    assert build_mollifier() is FAM


def test_atomic_measure_merging_and_guards():
    mu = AtomicMeasure(atoms=((1.0, 0.5), (1.0, 0.25), (0.4, 1.0)))
    assert mu.atoms == ((0.4, 1.0), (1.0, 0.75))
    assert mu.purely_atomic
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((1.0, 0.5), (1.0, -0.75)))
    with pytest.raises(ValueError):
        AtomicMeasure(atoms=((-1.0, 0.5),))
    with pytest.raises(ValueError):
        AtomicMeasure(K0=-0.1)


def test_convolved_distribution_vanishes_at_zero():
    # atoms cancel exactly through the parity representation ...
    mu = AtomicMeasure(atoms=((0.7, 1.3), (2.0, 0.4)))
    for k in (0, 2, 4, 6):
        assert float(HIER.conv_distribution(k, mu, np.array([0.0]))[0]) == 0.0
    # ... and so does the point mass at 0, since Phi_k(0) = I_k / 2 at every even level
    mu0 = AtomicMeasure(atoms=((0.7, 1.3),), K0=0.8)
    for k in (0, 2, 4, 6):
        assert abs(float(HIER.conv_distribution(k, mu0, np.array([0.0]))[0])) < 1e-12


def test_smoothed_riesz_refines_to_the_sharp_mean():
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    errs = [abs(smoothed_riesz(mu, 1.0, 2.0, build_phi_hierarchy(FAM, eps)) - 0.75)
            for eps in (0.2, 0.1, 0.05)]
    assert errs[2] < 2e-4
    assert 3.5 < errs[0] / errs[1] < 4.5       # O(eps^2) halving
    assert 3.5 < errs[1] / errs[2] < 4.5
    # tau entirely below the smoothed support: exactly zero
    assert smoothed_riesz(mu, 1.0, 0.5, build_phi_hierarchy(FAM, 0.2)) == 0.0


def test_smoothed_riesz_takes_integer_gamma_and_the_origin_mass():
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    for gamma in (1.5, 0, -1):
        with pytest.raises(ValueError, match="integer"):
            smoothed_riesz(mu, gamma, 2.0, HIER)
    # the point mass K0 at 0 is an atom of weight K0/2 there, so an atom of
    # weight w at a -> 0 tends to K0 = 2w
    for gamma in (1, 2):
        origin = smoothed_riesz(AtomicMeasure(atoms=((1.0, 1.0),), K0=1.4), gamma, 2.0, HIER)
        near = smoothed_riesz(AtomicMeasure(atoms=((1.0, 1.0), (1e-9, 0.7))), gamma, 2.0, HIER)
        assert abs(origin - near) <= 1e-8, f"gamma={gamma}"


def test_identity_sides_against_the_bump_moments():
    # delta(c) with its band inside (0, tau): chi_eps*N_mu = B_1(s - c) on [0, tau],
    # so with P' = G_m(s/tau) the left side is (2m/tau) int chi_eps(u) (P(tau) -
    # P(c + u)) du = (2m/tau) (P(tau) - sum_k P^(k)(c) eps^k c_k / k!), c_k the unit
    # bump's moments by 30-digit mpmath quadrature.  The identity says the right
    # side is the same number.
    import mpmath

    with mpmath.workdps(30):
        def bump(u):
            return mpmath.exp(-1 / (1 - u * u))

        norm = mpmath.quad(bump, [-1, 0, 1])
        c_k = {k: float(mpmath.quad(lambda u: u**k * bump(u), [-1, 0, 1]) / norm)
               for k in (2, 4)}
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    for eps, tau in ((0.1, 3.0), (0.05, 5.0)):
        for m in (1, 2):
            g = np.array([0.0, 1.0] if m == 1 else [0.0, 1.0, 0.0, -1.0])  # G_1 = u, G_2 = u - u^3
            P = np.polynomial.Polynomial(g / tau ** np.arange(g.size)).integ()
            want = 2.0 * m / tau * (P(tau) - P(1.0) - sum(
                P.deriv(k)(1.0) * eps**k * c_k[k] / math.factorial(k) for k in (2, 4)))
            lhs, rhs = _identity_sides(mu, m, tau, build_phi_hierarchy(FAM, eps))
            assert type(lhs) is float and type(rhs) is float
            assert abs(lhs - want) <= 1e-14 * want, f"lhs eps={eps} m={m}"
            assert abs(rhs - want) <= 1e-14 * want, f"rhs eps={eps} m={m}"


def test_identity_residuals_catch_a_perturbed_b2():
    # every demo residual is at roundoff, so b_2 off by 1e-10 relative shows
    for eps, tau in ((0.1, 3.0), (0.05, 5.0)):
        rep = cmd_tauberian_demo(argparse.Namespace(eps=eps, tau=tau))
        assert rep["max_residual"] <= 1e-13, f"eps={eps}"
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    for eps, tau in ((0.1, 3.0), (0.05, 5.0)):
        h = build_phi_hierarchy(FAM, eps)
        h.b = h.b[:2] + (h.b[2] * (1.0 + 1e-10),) + h.b[3:]
        assert iterated_identity_report(mu, 2, tau, h)["residual"] > 1e-12, f"eps={eps}"


def test_one_hierarchy_per_run(monkeypatch):
    # the demo builds its one hierarchy and hands it down: the sums build none
    built = []
    init = PhiHierarchy.__init__

    def counting(self, family, eps):
        built.append(eps)
        init(self, family, eps)

    monkeypatch.setattr(PhiHierarchy, "__init__", counting)
    cmd_tauberian_demo(argparse.Namespace(eps=0.1, tau=3.0))
    assert built == [0.1]
    built.clear()
    mu = AtomicMeasure(atoms=((1.0, 1.0), (2.0, 0.5)))
    smoothed_riesz(mu, 2, 3.0, HIER)
    assert iterated_identity_report(mu, 2, 3.0, HIER)["eps"] == 0.1
    assert built == []


def _square_dirichlet_atoms(lam_max):
    # atoms at sqrt(pi^2 (m^2 + n^2)) < sqrt(lam_max), weighted by multiplicity
    m = np.arange(1, int(math.sqrt(lam_max) / math.pi) + 2)
    ev = math.pi**2 * (m[:, None] ** 2 + m[None, :] ** 2).ravel()
    loc, mult = np.unique(np.sqrt(ev[ev < lam_max]), return_counts=True)
    return AtomicMeasure(atoms=tuple(zip(loc, mult)))


def test_identity_on_the_unit_square_spectrum():
    mu = _square_dirichlet_atoms(3000.0)
    assert len(mu.atoms) == 101 and sum(w for _, w in mu.atoms) == 220
    tau = 0.9 * math.sqrt(3000.0)
    for m in (1, 2):
        rep = iterated_identity_report(mu, m, tau, HIER)
        assert rep["residual"] <= 1e-12 * max(1.0, abs(rep["lhs"])), f"m={m}"
    # the array passes are linear in the measure: the whole equals the sum of its atoms
    singles = [AtomicMeasure(atoms=(atom,)) for atom in mu.atoms]
    for whole, parts in (
            (smoothed_riesz(mu, 2, tau, HIER),
             [smoothed_riesz(one, 2, tau, HIER) for one in singles]),
            (HIER.conv_distribution(2, mu, tau),
             [HIER.conv_distribution(2, one, tau) for one in singles])):
        assert abs(whole - math.fsum(parts)) <= 1e-13 * abs(whole)
    # the shift -a evaluates the chain at tau + a, past the window beyond lambda ~ 3 600
    big = _square_dirichlet_atoms(1e4)
    with pytest.raises(ValueError, match="tabulated window"):
        iterated_identity_report(big, 1, 0.9 * math.sqrt(1e4), HIER)


def test_iterated_identity_residuals():
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    assert iterated_identity_report(mu, 1, 3.0, HIER)["residual"] < 1e-6
    assert iterated_identity_report(mu, 2, 3.0, HIER)["residual"] < 1e-5
    rep = iterated_identity_report(mu, 1, 3.0, HIER)
    assert set(rep) == {"m", "eps", "tau", "lhs", "rhs", "residual"}
    assert abs(rep["lhs"] - rep["rhs"]) == rep["residual"]


def test_iterated_identity_zero_measure():
    mu = AtomicMeasure(atoms=((1.0, 0.0),))
    assert iterated_identity_report(mu, 1, 3.0, HIER)["residual"] == 0.0


def test_iterated_identity_guards():
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        iterated_identity_report(mu, 3, 3.0, HIER)
    with pytest.raises(ValueError):
        iterated_identity_report(mu, 1, -1.0, HIER)
    with pytest.raises(ValueError):
        iterated_identity_report(AtomicMeasure(K0=1.0), 1, 3.0, HIER)


def test_reflection_heat_bound():
    # at the centre of the Dirichlet unit square the diagonal kernel is the square
    # of the one-dimensional eigenfunction sum sum_m 2 sin^2(m pi / 2) e^{-pi^2 m^2 t};
    # past m = 30 its terms add less than 2 e^{-31^2 pi^2 t} / (1 - e^{-pi^2 t}) < 1e-200
    t, m = 0.05, np.arange(1, 31)
    assert 2.0 * math.exp(-31**2 * math.pi**2 * t) / -math.expm1(-math.pi**2 * t) < 1e-200
    line = np.sum(2.0 * np.sin(0.5 * m * math.pi) ** 2 * np.exp(-math.pi**2 * m**2 * t))
    free = 1.0 / (4.0 * math.pi * t)
    rect = Rectangle(1.0, 1.0)
    dev, bound = reflection_heat_bound(rect, DIRICHLET, (0.5, 0.5), t)
    assert abs(dev - abs(line**2 - free)) < 1e-12
    assert abs(bound - free * math.exp(-0.25 / (4.0 * t))) < 1e-12
    # the one-reflection bound needs t small next to d(x)^2: stay in that regime
    rng = np.random.default_rng(13)
    for _ in range(25):
        x = (float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.3, 1.7)))
        t = float(rng.uniform(0.002, 0.01))
        bc = DIRICHLET if rng.random() < 0.5 else NEUMANN
        d, b = reflection_heat_bound(Rectangle(1.0, 2.0), bc, x, t)
        assert d <= b * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        reflection_heat_bound(rect, DIRICHLET, (0.0, 0.5), 0.05)


def test_pointwise_order_fit():
    """Envelope exponents of the pointwise remainder at desk-scale energies."""
    grid = np.geomspace(1e3, 1e5, 600)
    sq = Rectangle(1.0, 1.0)
    for x in ((0.5, 0.5), (0.31, 0.47)):
        slope = tauberian_order_check(sq, DIRICHLET, x, 1.0, grid)
        assert abs(slope - refit_slope(DIRICHLET, x, 1.0, grid)) < 1e-9, f"x={x}"
        assert 1.35 <= slope <= 1.65
    assert 0.3 <= tauberian_order_check(sq, DIRICHLET, (0.5, 0.5), 0.0, grid) <= 0.7
    assert 1.35 <= tauberian_order_check(sq, NEUMANN, (0.5, 0.5), 1.0, grid) <= 1.65


def test_pointwise_check_takes_points_near_the_walls():
    # valid interior points: a one-reflection heat bound is no theorem here, where
    # sqrt(t) is comparable to the distance to a second wall, so nothing that
    # reads no eigenvalue may refuse them
    grid = np.geomspace(1e3, 1e5, 600)
    for bc, x in ((NEUMANN, (0.02, 0.5)), (DIRICHLET, (0.05, 0.05)), (NEUMANN, (0.05, 0.05))):
        rep = cmd_pointwise_check(argparse.Namespace(
            domain="unit-square", bc=bc, lam="1e3:1e5:600log", gamma=1.0, x=f"{x[0]},{x[1]}"))
        assert abs(rep["fitted_exponent"] - refit_slope(bc, x, 1.0, grid)) < 1e-9, f"{bc} x={x}"


def test_pointwise_order_fit_refusals():
    sq = Rectangle(1.0, 1.0)
    with pytest.raises(ValueError, match="insufficient lambda range"):
        tauberian_order_check(sq, DIRICHLET, (0.5, 0.5), 1.0, np.geomspace(1e3, 1e4, 50))
    with pytest.raises(ValueError, match="too sparse"):
        tauberian_order_check(sq, DIRICHLET, (0.5, 0.5), 1.0, np.geomspace(1e3, 1e5, 6))
    with pytest.raises(ValueError):
        tauberian_order_check(sq, DIRICHLET, (0.5, 0.5), 1.0, np.linspace(-1.0, 1e5, 100))
