"""Band-limited mollifier hierarchy, smoothed Riesz means, and the iterated identity."""

import numpy as np
import pytest
from scipy.integrate import quad

from weylab import (AtomicMeasure, OddDistributionFunction, PhiHierarchy, Rectangle,
                    build_mollifier, build_phi_hierarchy, majorant_check,
                    reflection_heat_bound, smoothed_riesz, tauberian_order_check,
                    unsmoothed_riesz, verify_iterated_identity,
                    iterated_identity_report, DIRICHLET, NEUMANN)
from weylab.smoothing import (ENVELOPE_POWER, ENVELOPE_RATE, ENVELOPE_SCALE,
                              WINDOW_HALF_WIDTH, _identity_sides)

FAM = build_mollifier()
HIER = build_phi_hierarchy(FAM, 0.1, 6)


def test_kernel_is_a_probability_density():
    assert abs(HIER.moments[0] - 1.0) < 1e-10
    taus = np.linspace(0.0, 60.0, 400)
    assert np.all(FAM.phi(taus) >= 0.0)          # phi = psi^2 by construction
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
    phi_tab = FAM.psi_majorant(-1)
    for t, w in zip(taus, want):
        j = int(round(t / TAB_STEP))
        assert FAM.tab_grid[j] == t
        assert abs(float(FAM.psi(t)[0]) - w) <= 1e-15, f"tau={t}"
        assert abs(phi_tab[j] - w * w) <= 1e-15, f"tau={t}"
    assert abs(HIER.moments[0] - 1.0) <= 1e-13


def test_fourier_transform_band_limited():
    assert abs(FAM.phi_hat(0.0) - 1.0) < 1e-10
    inside = FAM.phi_hat(np.array([0.2, 0.5, 0.9]))
    assert np.all(inside > 0.0)
    outside = FAM.phi_hat(np.array([1.05, 1.5, 3.0, 10.0]))
    assert np.max(np.abs(outside)) < 1e-9


def test_kernel_decay_envelope():
    # frozen envelope used by the truncation gate; measured sup ratio 0.78
    taus = np.linspace(0.5, 150.0, 20000)
    env = ENVELOPE_SCALE * np.exp(-ENVELOPE_RATE * taus**ENVELOPE_POWER)
    assert float(np.max(FAM.phi(taus) / env)) <= 1.0


def test_hierarchy_parity_is_structural():
    taus = np.linspace(0.0, 100.0, 777)
    for k in range(HIER.K + 1):
        left = HIER.phi_k(k, -taus)
        right = (-1.0) ** k * HIER.phi_k(k, taus)
        assert float(np.max(np.abs(left - right))) == 0.0, f"k={k}"


def test_antiderivative_chain_consistency():
    # finite differences of Phi_k recover phi_k; keep the stencil off tau = 0,
    # where the half-line integration constant has its ~1e-9 quadrature seam.
    # The stencil amplifies cancellation roundoff of the tau^{k+1}/(k+1)! terms
    # by 1/h, so the attainable accuracy degrades by about a decade per level.
    taus = np.linspace(-10.0, 10.0, 100)
    h = 1e-5
    for k in range(HIER.K + 1):
        fd = (HIER.phi_k_antiderivative(k, taus + h)
              - HIER.phi_k_antiderivative(k, taus - h)) / (2.0 * h)
        assert np.max(np.abs(fd - HIER.phi_k(k, taus))) < 1e-10 * 10.0**k + 1e-9, f"k={k}"
    # even-level integration constants: Phi_k(0) = I_k / 2 at every even level,
    # since the moments come from the chain's own half-line moments
    assert float(HIER.phi_k_antiderivative(0, np.array([0.0]))[0]) == 0.5 * HIER.moments[0]
    for h in (HIER, build_phi_hierarchy(FAM, 0.1, 8)):
        for k in range(0, h.K + 1, 2):
            phi0 = float(h.phi_k_antiderivative(k, np.array([0.0]))[0])
            assert abs(2.0 * phi0 - h.moments[k]) <= 1e-14 * h.moments[k], f"K={h.K} k={k}"


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
    for k in (2, 4, 6):
        want = PLANCHEREL_MOMENTS[k]
        assert abs(HIER.moments[k] - want) < 1e-11 * want, f"k={k}"
    h8 = build_phi_hierarchy(FAM, 0.1, 8)
    assert h8.moments[7] == 0.0
    assert abs(h8.moments[8] - PLANCHEREL_MOMENTS[8]) < 1e-10 * PLANCHEREL_MOMENTS[8]


def test_coefficient_recursion_against_closed_forms():
    b = HIER.b
    assert b[0] == 1.0 and b[1] == 0.0 and b[3] == 0.0 and b[5] == 0.0
    closed = HIER.b_closed_form()
    for m in range(7):
        assert abs(b[m] - closed[m]) < 1e-10, f"m={m}"
    # hand-expanded series inverse of the even moment sequence
    i2, i4, i6 = HIER.moments[2], HIER.moments[4], HIER.moments[6]
    assert abs(b[2] + i2) < 1e-10
    assert abs(b[4] - (i2 * i2 - i4)) < 1e-9
    assert abs(b[6] - (-i2**3 + 2.0 * i2 * i4 - i6)) < 1e-8


def test_majorant_chain_controls_every_level():
    consts = FAM.majorant_constants(6)
    for eps in (1.0, 0.1, 0.01):
        h = build_phi_hierarchy(FAM, eps, 6)
        ratios = majorant_check(h)
        assert abs(ratios[0][1] - 1.0) < 1e-12
        for k, r in ratios:
            assert np.isfinite(r) and r <= consts[k], f"eps={eps} k={k} ratio={r}"
            assert r <= 1.0 + 1e-9      # measured contraction for this kernel


def test_truncation_stability_gate():
    # closed-form estimates frozen for the padded window
    assert abs(FAM.stability_estimate(8) - 1.739070845872548e-10) < 1e-22
    assert abs(FAM.stability_estimate(9) - 1.978676162414988e-08) < 1e-20
    assert build_phi_hierarchy(FAM, 0.1, 8).K == 8
    with pytest.raises(ValueError, match="beyond tabulation stability"):
        PhiHierarchy(FAM, 0.1, 9)
    with pytest.raises(ValueError):
        PhiHierarchy(FAM, 0.0, 2)
    with pytest.raises(ValueError):
        PhiHierarchy(FAM, 1.5, 2)
    with pytest.raises(ValueError):
        PhiHierarchy(FAM, 0.1, -1)


def test_hierarchies_are_cached():
    assert build_phi_hierarchy(FAM, 0.1, 6) is HIER
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
    with pytest.raises(ValueError):
        AtomicMeasure(polynomial_part=((1.0, 0.0),))


def test_odd_distribution_function():
    mu = AtomicMeasure(atoms=((1.0, 2.0),), K0=0.5, polynomial_part=((0.3, 1.5),))
    n = OddDistributionFunction(mu)
    sig = np.array([0.2, 0.7, 1.0, 1.4, 3.0])
    assert np.array_equal(n(-sig), -n(sig))
    # midpoint regularization at the jump
    pure = OddDistributionFunction(AtomicMeasure(atoms=((1.0, 2.0),)))
    assert pure(1.0) == 1.0
    assert pure(1.0 + 1e-9) == 2.0
    assert pure(0.5) == 0.0


def test_convolved_distribution_vanishes_at_zero():
    # atoms cancel exactly through the parity representation ...
    mu = AtomicMeasure(atoms=((0.7, 1.3), (2.0, 0.4)))
    for k in (0, 2, 4, 6):
        assert float(HIER.conv_distribution(k, mu, np.array([0.0]))[0]) == 0.0
    # ... and so does the point mass at 0, since Phi_k(0) = I_k / 2 at every even level
    mu0 = AtomicMeasure(atoms=((0.7, 1.3),), K0=0.8)
    for k in (0, 2, 4, 6):
        assert abs(float(HIER.conv_distribution(k, mu0, np.array([0.0]))[0])) < 1e-12


def test_smoothed_distribution_background_against_quadrature():
    # Gauss panels vs adaptive QUADPACK on the kinked background integrand
    mu = AtomicMeasure(polynomial_part=((0.7, 2.2),))
    eps = 0.15
    h = build_phi_hierarchy(FAM, eps, 0)
    for sigma in (0.05, 0.12, 0.4, 1.3):
        def integrand(u):
            x = sigma - u
            return FAM.chi(u / eps) / eps * 0.7 * np.sign(x) * abs(x) ** 2.2
        pts = [sigma] if abs(sigma) < eps else None
        want, err = quad(integrand, -eps, eps, points=pts, limit=200)
        got = float(h.smoothed_distribution(mu, np.array([sigma]))[0])
        assert abs(got - want) < 1e-9 + 10.0 * err, f"sigma={sigma}"


def test_unsmoothed_riesz_values():
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    assert unsmoothed_riesz(mu, 1.0, 2.0) == 0.75
    assert unsmoothed_riesz(mu, 1.0, 0.5) == 0.0     # atom above tau
    assert unsmoothed_riesz(AtomicMeasure(K0=2.0), 1.0, 5.0) == 1.0
    # 20-digit quadrature for the power background K=2, nu=1.5 at gamma=1.3
    bg = AtomicMeasure(polynomial_part=((2.0, 1.5),))
    assert abs(unsmoothed_riesz(bg, 1.3, 2.0) - 2.8946939842673678964) < 1e-12
    with pytest.raises(ValueError):
        unsmoothed_riesz(mu, 0.0, 2.0)
    with pytest.raises(ValueError):
        unsmoothed_riesz(mu, 1.0, 0.0)


def test_smoothed_riesz_refines_to_the_sharp_mean():
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    errs = [abs(smoothed_riesz(mu, 1.0, 2.0, eps, FAM) - 0.75)
            for eps in (0.2, 0.1, 0.05)]
    assert errs[2] < 2e-4
    assert 3.5 < errs[0] / errs[1] < 4.5       # O(eps^2) halving
    assert 3.5 < errs[1] / errs[2] < 4.5
    # tau entirely below the smoothed support: exactly zero
    assert smoothed_riesz(mu, 1.0, 0.5, 0.2, FAM) == 0.0


def test_iterated_identity_residuals():
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    assert verify_iterated_identity(mu, 1, 0.1, 3.0, FAM) < 1e-6
    assert verify_iterated_identity(mu, 2, 0.1, 3.0, FAM) < 1e-5
    rep = iterated_identity_report(mu, 1, 0.1, 3.0, FAM)
    assert set(rep) == {"m", "eps", "tau", "lhs", "rhs", "residual"}
    assert abs(rep["lhs"] - rep["rhs"]) == rep["residual"]


def test_iterated_identity_zero_measure():
    mu = AtomicMeasure(atoms=((1.0, 0.0),))
    assert verify_iterated_identity(mu, 1, 0.1, 3.0, FAM) == 0.0


def test_iterated_identity_guards():
    mu = AtomicMeasure(atoms=((1.0, 1.0),))
    with pytest.raises(ValueError):
        verify_iterated_identity(mu, 3, 0.1, 3.0, FAM)
    with pytest.raises(ValueError):
        verify_iterated_identity(mu, 1, 0.1, -1.0, FAM)
    with pytest.raises(ValueError):
        verify_iterated_identity(AtomicMeasure(K0=1.0), 1, 0.1, 3.0, FAM)
    with pytest.raises(RuntimeError, match="quadrature did not converge"):
        _identity_sides(mu, 2, 0.1, 3.0, FAM, quad_tol=1e-30)


def test_reflection_heat_bound():
    rect = Rectangle(1.0, 1.0)
    dev, bound = reflection_heat_bound(rect, DIRICHLET, (0.5, 0.5), 0.05)
    assert abs(dev - 0.04260606497343189) < 1e-10
    assert abs(bound - 0.45598654639838593) < 1e-10
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
    slope = tauberian_order_check(sq, DIRICHLET, (0.5, 0.5), 1.0, grid)
    assert abs(slope - 1.5231739787585188) < 1e-9       # frozen fit, this build
    assert 1.35 <= slope <= 1.65
    assert 0.3 <= tauberian_order_check(sq, DIRICHLET, (0.5, 0.5), 0.0, grid) <= 0.7
    assert 1.35 <= tauberian_order_check(sq, NEUMANN, (0.5, 0.5), 1.0, grid) <= 1.65
    assert 1.35 <= tauberian_order_check(sq, DIRICHLET, (0.31, 0.47), 1.0, grid) <= 1.65


def test_pointwise_order_fit_refusals():
    sq = Rectangle(1.0, 1.0)
    with pytest.raises(ValueError, match="insufficient lambda range"):
        tauberian_order_check(sq, DIRICHLET, (0.5, 0.5), 1.0, np.geomspace(1e3, 1e4, 50))
    with pytest.raises(ValueError, match="too sparse"):
        tauberian_order_check(sq, DIRICHLET, (0.5, 0.5), 1.0, np.geomspace(1e3, 1e5, 6))
    with pytest.raises(ValueError):
        tauberian_order_check(sq, DIRICHLET, (0.5, 0.5), 1.0, np.linspace(-1.0, 1e5, 100))
