"""Exact lattice/Bessel spectra, the FD solver, and the functionals on top."""

import math

import numpy as np
import pytest

from weylab import (CapacityError, CertifiedRangeError, ConvexPolygon, Disk,
                    InsufficientResolutionError, Rectangle, Spectrum,
                    ToleranceExceededError, counting_function,
                    dirichlet_neumann_trace_gap, disk_spectrum, heat_trace,
                    pointwise_spectral_function, polygon_dirichlet_spectrum_fd,
                    rectangle_spectrum, riesz_mean, sample_spectral_function,
                    DIRICHLET, NEUMANN)

PI2 = math.pi**2


def test_unit_square_dirichlet_lattice():
    spec = rectangle_spectrum(1.0, 1.0, DIRICHLET, 200.0)
    want = PI2 * np.array([2, 5, 5, 8, 10, 10, 13, 13, 17, 17, 18, 20, 20])
    assert np.allclose(spec.eigenvalues[:13], want, rtol=1e-14)
    assert spec.exact and spec.bc == DIRICHLET
    assert spec.domain == {"shape": "rectangle", "a": 1.0, "b": 1.0}


def test_unit_square_neumann_lattice():
    spec = rectangle_spectrum(1.0, 1.0, NEUMANN, 60.0)
    want = PI2 * np.array([0, 1, 1, 2, 4, 4, 5, 5])
    assert np.allclose(spec.eigenvalues[:8], want, rtol=1e-14)
    assert spec.eigenvalues[0] == 0.0


def test_counting_and_riesz_reference_values():
    spec = rectangle_spectrum(1.0, 1.0, DIRICHLET, 200.0)
    assert counting_function(spec, 50.0) == 3
    assert counting_function(spec, 2.0 * PI2) == 0        # strict inequality
    # 150 - 12 pi^2, 20 digits
    assert abs(riesz_mean(spec, 50.0, 1.0) - 31.564747186927696574) < 1e-12
    assert riesz_mean(spec, 50.0, 0.0) == 3.0
    with pytest.raises(CertifiedRangeError):
        counting_function(spec, 201.0)
    with pytest.raises(ValueError):
        riesz_mean(spec, 50.0, -1.0)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        rectangle_spectrum(1.0, 1.0, DIRICHLET, 1e9)


def test_disk_spectrum_bessel_oracles():
    """First disk eigenvalues against 40-digit Bessel-zero squares."""
    spec = disk_spectrum(1.0, DIRICHLET, 40.0)
    assert abs(spec.eigenvalues[0] - 5.7831859629467845212) < 1e-10
    assert abs(spec.eigenvalues[1] - 14.681970642123893257) < 1e-10
    assert spec.eigenvalues[1] == spec.eigenvalues[2]     # angular multiplicity 2
    assert abs(spec.eigenvalues[3] - 26.374616427163390770) < 1e-10
    assert abs(spec.eigenvalues[5] - 30.471262343662086399) < 1e-10
    assert counting_function(spec, 30.0) == 5
    # multiplicity blocks: the nu = 1 pair shares one id, the radial modes do not
    assert spec.block_ids[1] == spec.block_ids[2] != spec.block_ids[0]


def test_disk_neumann_starts_at_zero():
    spec = disk_spectrum(1.0, NEUMANN, 20.0)
    assert spec.eigenvalues[0] == 0.0
    # (j'_{1,1})^2 with multiplicity two
    assert abs(spec.eigenvalues[1] - 3.3899577166718887269) < 1e-10
    assert spec.eigenvalues[1] == spec.eigenvalues[2]


def test_disk_radius_scaling():
    a = disk_spectrum(1.0, DIRICHLET, 40.0)
    b = disk_spectrum(2.0, DIRICHLET, 10.0)
    assert np.allclose(b.eigenvalues, a.eigenvalues[: len(b.eigenvalues)] / 4.0, rtol=1e-13)


def test_heat_trace_theta_oracles():
    """Unit-square traces at t = 0.05 against 40-digit Jacobi-theta products."""
    spec = rectangle_spectrum(1.0, 1.0, DIRICHLET, 6000.0)
    th, tail = heat_trace(spec, 0.05)
    assert abs(th - 0.57998317783002112227) < 1e-12
    assert tail < 1e-100
    spec_n = rectangle_spectrum(1.0, 1.0, NEUMANN, 6000.0)
    th_n, _ = heat_trace(spec_n, 0.05)
    assert abs(th_n - 3.1031157102513086458) < 1e-12


def test_heat_trace_tail_bound_is_honest():
    # truncating the spectrum moves the trace by less than the certified tail
    full = rectangle_spectrum(1.0, 1.0, DIRICHLET, 6000.0)
    cut = rectangle_spectrum(1.0, 1.0, DIRICHLET, 400.0)
    for t in (0.02, 0.05, 0.1):
        th_full, _ = heat_trace(full, t)
        th_cut, tail_cut = heat_trace(cut, t)
        assert abs(th_full - th_cut) <= tail_cut
    with pytest.raises(ToleranceExceededError):
        heat_trace(cut, 0.001, tol=1e-12)
    with pytest.raises(ValueError):
        heat_trace(full, 0.0)


def test_spectrum_save_load_roundtrip(tmp_path):
    spec = disk_spectrum(1.0, DIRICHLET, 60.0)
    path = tmp_path / "disk.spec"
    spec.save(path)
    back = Spectrum.load(path)
    assert np.array_equal(spec.eigenvalues, back.eigenvalues)
    assert np.array_equal(spec.block_ids, back.block_ids)
    assert back.domain == spec.domain
    assert back.complete_below == spec.complete_below
    assert back.exact


def test_spectrum_validation():
    dom = Rectangle(1.0, 1.0).key()
    with pytest.raises(ValueError):
        Spectrum([1.0, 0.5], DIRICHLET, 2.0, dom, True)       # decreasing
    with pytest.raises(ValueError):
        Spectrum([-1.0, 0.5], DIRICHLET, 2.0, dom, True)
    with pytest.raises(ValueError):
        Spectrum([0.0, 0.5], DIRICHLET, 2.0, dom, True)       # Dirichlet > 0
    with pytest.raises(ValueError):
        Spectrum([0.5, 1.0], NEUMANN, 2.0, dom, True)         # Neumann starts at 0
    with pytest.raises(ValueError):
        Spectrum([1.0, 2.0], DIRICHLET, 0.0, dom, True)


def test_domain_dataclasses():
    r = Rectangle(2.0, 0.5)
    assert r.area == 1.0 and r.perimeter == 5.0
    d = Disk(2.0)
    assert abs(d.area - 4.0 * math.pi) < 1e-14
    with pytest.raises(ValueError):
        Rectangle(0.0, 1.0)
    with pytest.raises(ValueError):
        Disk(-1.0)


def test_fd_eigenvalue_matches_aligned_grid_formula():
    # on an axis-aligned grid the discrete eigenvalues are explicit:
    # (4/h^2)(sin^2(m pi h / 2) + sin^2(n pi h / 2))
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    for h in (1.0 / 30.0, 1.0 / 50.0):
        spec = polygon_dirichlet_spectrum_fd(sq, h, 100.0)
        want1 = (8.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
        assert abs(spec.eigenvalues[0] - want1) < 1e-9, f"h={h}"
        want2 = (4.0 / h**2) * (math.sin(math.pi * h / 2.0) ** 2
                                + math.sin(math.pi * h) ** 2)
        assert abs(spec.eigenvalues[1] - want2) < 1e-8
        assert not spec.exact


def test_fd_guards():
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    with pytest.raises(ValueError):
        polygon_dirichlet_spectrum_fd(sq, 0.3, 100.0)   # h >= inradius / 2
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError):
            polygon_dirichlet_spectrum_fd(sq, 0.05, lam)
    with pytest.raises(InsufficientResolutionError):
        polygon_dirichlet_spectrum_fd(sq, 0.2, 200.0)   # all 16 grid modes lie below 200


def _square_fd_eigenvalues(h):
    """Closed-form 5-point Dirichlet eigenvalues (4/h^2)(sin^2(j pi h/2) + sin^2(k pi h/2)), sorted."""
    s = np.sin(np.arange(1, int(round(1.0 / h))) * math.pi * h / 2.0) ** 2
    return np.sort((4.0 / h**2) * (s[:, None] + s[None, :]).ravel())


def test_fd_count_is_the_closed_form_count():
    # N(lambda_max) comes from the inertia of A - lambda_max*I; on the unit square
    # it must equal the closed-form count, also on either side of a double eigenvalue
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    for h in (1.0 / 30.0, 1.0 / 50.0):
        exact = _square_fd_eigenvalues(h)
        double = exact[1]                  # the (1,2)/(2,1) pair
        assert exact[2] == double
        for lam in (30.0, double * (1.0 - 1e-9), double * (1.0 + 1e-9), 500.0, 2000.0):
            spec = polygon_dirichlet_spectrum_fd(sq, h, lam)
            want = exact[exact < lam]
            assert len(spec) == len(want), f"h={h}, lambda_max={lam}"
            assert np.max(np.abs(spec.eigenvalues - want)) < 1e-9 * lam
            assert spec.complete_below == lam
            riesz_mean(spec, lam - 1e-9, 1.0)
        assert len(polygon_dirichlet_spectrum_fd(sq, h, 0.5 * exact[0])) == 0


def test_fd_refuses_an_uncertified_count(monkeypatch):
    from weylab import spectra
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    h, lam = 1.0 / 20.0, 100.0           # four eigenvalues below lam
    inertia, solver = spectra._count_below, spectra.eigsh
    # an inertia count off by one either way disagrees with the eigensolver
    for off in (-1, 1):
        monkeypatch.setattr(spectra, "_count_below", lambda A, shift, off=off: inertia(A, shift) + off)
        with pytest.raises(RuntimeError, match="inertia count"):
            polygon_dirichlet_spectrum_fd(sq, h, lam)
    monkeypatch.undo()

    class OffDiagonal:
        perm_r, perm_c = np.array([1, 0]), np.array([0, 1])

    monkeypatch.setattr(spectra, "splu", lambda *args, **kwargs: OffDiagonal())
    with pytest.raises(RuntimeError, match="off the diagonal"):
        polygon_dirichlet_spectrum_fd(sq, h, lam)
    monkeypatch.undo()

    def ghost(*args, **kwargs):          # one eigenpair returned twice, another missed
        w, v = solver(*args, **kwargs)
        w[1], v[:, 1] = w[0], v[:, 0]
        return w, v

    monkeypatch.setattr(spectra, "eigsh", ghost)
    with pytest.raises(RuntimeError, match="orthonormal"):
        polygon_dirichlet_spectrum_fd(sq, h, lam)


def test_pointwise_spectral_function_center_values():
    rect = Rectangle(1.0, 1.0)
    # below 50 only the (1,1) mode survives the sin^2 weights at the center
    assert pointwise_spectral_function(rect, (0.5, 0.5), 50.0, 0.0, DIRICHLET) == 4.0
    # Neumann: (0,0) contributes 1, the (0,2)/(2,0) pair contributes 2 + 2
    assert pointwise_spectral_function(rect, (0.5, 0.5), 50.0, 0.0, NEUMANN) == 5.0
    v = pointwise_spectral_function(rect, (0.5, 0.5), 50.0, 1.0, DIRICHLET)
    assert abs(v - 4.0 * (50.0 - 2.0 * PI2)) < 1e-12
    with pytest.raises(ValueError):
        pointwise_spectral_function(rect, (0.0, 0.5), 50.0, 0.0, DIRICHLET)
    with pytest.raises(ValueError):
        pointwise_spectral_function(rect, (0.5, 0.5), 50.0, -1.0, DIRICHLET)


def test_sample_spectral_function_monotone():
    rect = Rectangle(1.0, 2.0)
    sample = sample_spectral_function(rect, (0.31, 0.47), np.linspace(5.0, 300.0, 40))
    vals = list(sample.values.values())
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert abs(sample.dist_to_boundary - 0.31) < 1e-15
    with pytest.raises(ValueError):
        sample_spectral_function(rect, (0.3, 0.4), [10.0, 5.0])


def test_trace_gap_sign_and_guards():
    spec_d = rectangle_spectrum(1.0, 1.0, DIRICHLET, 600.0)
    spec_n = rectangle_spectrum(1.0, 1.0, NEUMANN, 600.0)
    for lam in np.linspace(5.0, 500.0, 23):
        assert dirichlet_neumann_trace_gap(spec_d, spec_n, lam) >= 0.0
    with pytest.raises(ValueError):
        dirichlet_neumann_trace_gap(spec_n, spec_d, 100.0)
    other = rectangle_spectrum(2.0, 0.5, NEUMANN, 600.0)
    with pytest.raises(ValueError):
        dirichlet_neumann_trace_gap(spec_d, other, 100.0)
