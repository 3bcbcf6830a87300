"""Exact lattice/Bessel spectra, the FD solver, and the functionals on top."""

import math

import numpy as np
import pytest
from scipy.special import jn_zeros, jnp_zeros

from weylab import spectra
from weylab.constants import DIRICHLET, NEUMANN
from weylab.geometry import ConvexPolygon
from weylab.spectra import (CapacityError, CertifiedRangeError, Disk, InsufficientResolutionError,
                            Rectangle, Spectrum, counting_function, dirichlet_neumann_trace_gap,
                            disk_spectrum, heat_trace, pointwise_spectral_function,
                            polygon_dirichlet_spectrum_fd, rectangle_spectrum, riesz_mean)

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
    # long thin rectangles: too many lattice terms, or too many rows even to list them
    with pytest.raises(CapacityError):
        rectangle_spectrum(100.0, 0.01, DIRICHLET, 1e9)
    with pytest.raises(CapacityError):
        rectangle_spectrum(1e5, 1e-3, NEUMANN, 1e9)
    # ... but a thin Dirichlet rectangle whose first eigenvalue is above lambda is empty
    assert len(rectangle_spectrum(1e5, 1e-5, DIRICHLET, 1e9)) == 0


def test_disk_capacity_guard_refuses_up_front(monkeypatch):
    # with the cap at 1000 the unit disk at lambda = 1e4 (2456 Dirichlet eigenvalues) is
    # refused, as the rectangle is, before any Bessel table is built
    monkeypatch.setattr(spectra, "MAX_EIGENVALUES", 1000)
    with pytest.raises(CapacityError):
        rectangle_spectrum(1.0, 1.0, DIRICHLET, 3e4)

    def no_table(*args):
        raise AssertionError("Bessel zero table built before the capacity check")

    monkeypatch.setattr(spectra, "_bessel_zeros", no_table)
    for bc in (DIRICHLET, NEUMANN):
        with pytest.raises(CapacityError):
            disk_spectrum(1.0, bc, 1e4)
    monkeypatch.undo()
    assert len(disk_spectrum(1.0, DIRICHLET, 1e4)) == 2456


def test_rectangle_lattice_is_complete_off_the_square():
    """Seeded draws of sides and lambda against a brute-force meshgrid enumeration."""
    rng = np.random.default_rng(20261018)
    for _ in range(50):
        a, b = rng.uniform(0.2, 3.0, 2)
        lam = rng.uniform(1.0, 3e4)
        for bc, lo in ((DIRICHLET, 1), (NEUMANN, 0)):
            m, n = np.meshgrid(np.arange(lo, int(a * math.sqrt(lam) / math.pi) + 3, dtype=float),
                               np.arange(lo, int(b * math.sqrt(lam) / math.pi) + 3, dtype=float))
            ev = PI2 * (m * m / (a * a) + n * n / (b * b))
            want = np.sort(ev[ev < lam])
            got = rectangle_spectrum(a, b, bc, lam).eigenvalues
            assert np.array_equal(got, want), (a, b, lam, bc)


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
    # below (j'_{0,1})^2 = 14.68 the nu = 0 row is empty, the nu = 1, 2 rows are not
    low = disk_spectrum(1.0, NEUMANN, 12.0).eigenvalues
    assert len(low) == 5 and low[0] == 0.0 and low[1] == low[2] and low[3] == low[4]
    assert np.allclose(low[1::2], [3.3899577166718887269, 9.3283632137463579072], rtol=1e-14)


def _disk_reference(radius, bc, lam):
    """Disk eigenvalues and block ids order by order from specfun's zeros (jn_zeros, jnp_zeros)."""
    x_max = radius * math.sqrt(lam)
    zeros_of = jnp_zeros if bc == NEUMANN else jn_zeros
    vals, blocks = ([0.0], [0]) if bc == NEUMANN else ([], [])
    block = len(blocks)
    for nu in range(math.ceil(x_max)):
        z = zeros_of(nu, int(x_max / math.pi) + 3)
        assert z[-1] > x_max
        mult = 1 if nu == 0 else 2
        for zk in z[z < x_max]:
            vals.extend([(zk / radius) ** 2] * mult)
            blocks.extend([block] * mult)
            block += 1
    order = np.argsort(vals, kind="stable")
    return np.asarray(vals)[order], np.asarray(blocks, dtype=int)[order]


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("radius", [1.0, 0.8])
def test_disk_spectrum_matches_per_order_reference(bc, radius):
    rng = np.random.default_rng(20261018)
    for lam in (1e4, 10.0 ** rng.uniform(0.0, 4.0)):
        want, want_blocks = _disk_reference(radius, bc, lam)
        spec = disk_spectrum(radius, bc, lam)
        assert len(spec) == len(want), (lam, len(spec), len(want))
        assert np.array_equal(spec.block_ids, want_blocks), lam
        assert np.allclose(spec.eigenvalues, want, rtol=1e-14, atol=0.0), lam


@pytest.mark.parametrize("bc, corrupt_derivative",
                         [(DIRICHLET, False), (NEUMANN, True), (NEUMANN, False)])
def test_disk_spectrum_refuses_a_missed_zero(monkeypatch, bc, corrupt_derivative):
    # drop the second zero of J_3 (or of J_3', or of the J_3 Rolle reference)
    brackets = spectra._bessel_brackets

    def drop_one(x_end, nu_stop, derivative):
        out = brackets(x_end, nu_stop, derivative)
        if derivative != corrupt_derivative:
            return out
        i = np.flatnonzero(out[0] == 3)[1]
        return tuple(np.delete(col, i) for col in out)

    monkeypatch.setattr(spectra, "_bessel_brackets", drop_one)
    with pytest.raises(RuntimeError, match="interlacing"):
        disk_spectrum(1.0, bc, 1e4)


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
    with pytest.raises(ValueError):
        heat_trace(full, 0.0)


@pytest.mark.parametrize("domain,bc", [(Rectangle(1.0, b), NEUMANN) for b in (1.0, 1e-1, 1e-2, 1e-3, 1e-4)]
                         + [(Disk(1.0), DIRICHLET), (Disk(1.0), NEUMANN)],
                         ids=["rect-1", "rect-1e-1", "rect-1e-2", "rect-1e-3", "rect-1e-4",
                              "disk-dirichlet", "disk-neumann"])
def test_heat_trace_tail_bounds_the_exact_omitted_tail(domain, bc):
    # Lambda sits just below an eigenvalue, where the omitted tail is largest
    # next to e^{-t Lambda}; the exact tail sums the spectrum up to 750/t, past
    # which every term e^{-t lambda} underflows.  heat-check takes t = 30/Lambda:
    # just below 4 pi^2 that is t = 0.75991, where a 16 L_{0,2}|Omega| mu count
    # bound gave thin Neumann rectangles tails 1.9-193 times too small.
    for target in (4 * PI2 * (1 - 1e-9), 60.0, 300.0):
        ev = domain.spectrum(bc, target * 1.5).eigenvalues
        lam = ev[np.searchsorted(ev, target)] * (1 - 1e-12)
        cut = domain.spectrum(bc, lam)
        for t in (2.0 / lam, 30.0 / lam):
            full = domain.spectrum(bc, 750.0 / t).eigenvalues
            exact = float(np.sum(np.exp(-t * full[full >= lam])))
            tail = heat_trace(cut, t)[1]
            assert exact > 0.0 and tail >= exact, (lam, t, tail, exact)


def test_spectrum_save_load_roundtrip(tmp_path):
    # the loaded spectrum rebuilds its domain from the saved key, so the heat
    # trace (whose tail bound needs the area) comes back bit for bit
    for name, spec in (("rect", rectangle_spectrum(1.0, 2.0, NEUMANN, 300.0)),
                       ("disk", disk_spectrum(1.0, DIRICHLET, 60.0)),
                       ("fd", ConvexPolygon.regular(6).spectrum(DIRICHLET, 200.0, 0.05))):
        path = tmp_path / f"{name}.spec"
        spec.save(path)
        back = Spectrum.load(path)
        assert np.array_equal(spec.eigenvalues, back.eigenvalues)
        assert np.array_equal(spec.block_ids, back.block_ids)
        assert back.domain == spec.domain
        assert back.area == spec.area
        assert back.complete_below == spec.complete_below
        assert back.exact == spec.exact == (name != "fd")
        for t in (0.01, 0.1):
            assert heat_trace(back, t) == heat_trace(spec, t)
    path = tmp_path / "rect.spec"
    path.write_text(path.read_text().replace('"rectangle"', '"torus"'))
    with pytest.raises(ValueError, match="unknown domain shape 'torus'"):
        Spectrum.load(path)


def test_rectangle_closed_forms_match_the_polygon_route():
    rng = np.random.default_rng(16)
    for a, b in np.exp(rng.uniform(-5.0, 3.0, (2000, 2))):
        rect, poly = Rectangle(a, b), ConvexPolygon.rectangle(a, b)
        for got, want in ((rect.area, poly.area), (rect.perimeter, poly.perimeter),
                          (rect.inradius, poly.inradius)):
            assert abs(got - want) <= 1e-15 * want, (a, b)
        assert np.all(np.abs(np.subtract(rect.angles, poly.angles)) <= 1e-15 * poly.angles)


def test_spectrum_validation():
    dom = Rectangle(1.0, 1.0)
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
    assert r.inradius == 0.25 and r.angles == (0.5 * math.pi,) * 4
    d = Disk(2.0)
    assert abs(d.area - 4.0 * math.pi) < 1e-14
    assert d.inradius == 2.0 and d.angles is None
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
    # six eigenvalues below lam (19.70, 49.00 ×2, 78.31, 97.04 ×2)
    h, lam = 1.0 / 20.0, 100.0
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


SQUARE_H, SQUARE_LAMBDA = 1.0 / 50.0, 3000.0   # N = 242: four windows


def test_fd_windows_match_the_closed_form(monkeypatch):
    calls, inertia = [], spectra._count_below

    def spy(A, shift):
        calls.append((shift, inertia(A, shift)))
        return calls[-1][1]

    monkeypatch.setattr(spectra, "_count_below", spy)
    spec = polygon_dirichlet_spectrum_fd(ConvexPolygon.rectangle(1.0, 1.0), SQUARE_H, SQUARE_LAMBDA)
    want = _square_fd_eigenvalues(SQUARE_H)
    want = want[want < SQUARE_LAMBDA]
    assert len(spec) == len(want) == 242
    assert np.max(np.abs(spec.eigenvalues - want)) < 1e-9 * SQUARE_LAMBDA
    # N at lambda_max, then one count per interior cut of four equal windows
    assert [s for s, _ in calls] == [SQUARE_LAMBDA, 750.0, 1500.0, 2250.0]
    assert [c for _, c in calls[1:]] == [int(np.count_nonzero(want < s)) for s in (750, 1500, 2250)]


def test_fd_windows_refuse_an_uncertified_count(monkeypatch):
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    inertia, solver, factor = spectra._count_below, spectra.eigsh, spectra.splu
    # a miscount at one interior cut only: the two windows beside it disagree with eigsh
    for off in (-1, 1):
        monkeypatch.setattr(spectra, "_count_below", lambda A, shift, off=off:
                            inertia(A, shift) + (off if shift == 1500.0 else 0))
        with pytest.raises(RuntimeError, match="inertia count"):
            polygon_dirichlet_spectrum_fd(sq, SQUARE_H, SQUARE_LAMBDA)
    monkeypatch.undo()

    class OffDiagonal:
        perm_r, perm_c = np.array([1, 0]), np.array([0, 1])

    calls = []

    def off_diagonal_in_a_window(*args, **kwargs):   # the counts factor cleanly
        calls.append(1)
        return OffDiagonal() if len(calls) == 6 else factor(*args, **kwargs)

    monkeypatch.setattr(spectra, "splu", off_diagonal_in_a_window)
    with pytest.raises(RuntimeError, match="off the diagonal"):
        polygon_dirichlet_spectrum_fd(sq, SQUARE_H, SQUARE_LAMBDA)
    assert len(calls) == 6
    monkeypatch.undo()

    def ghost(A, k, sigma, **kwargs):   # in the window [750, 1500): a pair returned twice
        w, v = solver(A, k, sigma=sigma, **kwargs)
        if sigma == 1125.0:
            i, j = np.argsort(np.abs(w - sigma))[:2]
            w[j], v[:, j] = w[i], v[:, i]
        return w, v

    monkeypatch.setattr(spectra, "eigsh", ghost)
    with pytest.raises(RuntimeError, match="orthonormal"):
        polygon_dirichlet_spectrum_fd(sq, SQUARE_H, SQUARE_LAMBDA)


@pytest.mark.parametrize("split", [0, 1, 2])
def test_fd_cut_on_a_double_eigenvalue(monkeypatch, split):
    # windows of 3 pairs put the first cut of [0, 3*mu) on the (1,2)/(2,1) pair mu; whatever
    # the inertia at mu says (both, one or neither of the pair below it), the cut moves into
    # a gap, is recounted, and every eigenvalue lands in its own window
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    exact = _square_fd_eigenvalues(SQUARE_H)
    mu = exact[1]
    monkeypatch.setattr(spectra, "FD_WINDOW_PAIRS", 3)
    calls, spy = [], spectra._count_below

    def split_pair(A, shift):
        c = spy(A, shift)
        calls.append((shift, c))
        return c - split if abs(shift - mu) <= 1e-12 * mu else c

    monkeypatch.setattr(spectra, "_count_below", split_pair)
    spec = polygon_dirichlet_spectrum_fd(sq, SQUARE_H, 3.0 * mu)
    want = exact[exact < 3.0 * mu]
    assert len(spec) == len(want) == 8
    assert np.max(np.abs(spec.eigenvalues - want)) < 1e-9 * mu
    # N, the counts at mu and 2*mu, then one recount at the moved cut
    assert len(calls) == 4
    cut, count = calls[3]     # in the gap below the pair or the gap above it
    assert exact[0] < cut < exact[1] or exact[2] < cut < exact[3]
    assert count == np.count_nonzero(exact < cut)


def test_fd_cut_that_stays_ambiguous_raises(monkeypatch):
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    mu = _square_fd_eigenvalues(SQUARE_H)[1]
    monkeypatch.setattr(spectra, "FD_WINDOW_PAIRS", 3)
    # a cut that does not move off the pair is ambiguous twice
    monkeypatch.setattr(spectra, "_gap_cut", lambda w, resid, lo, hi, cut: cut)
    with pytest.raises(RuntimeError, match="ambiguous"):
        polygon_dirichlet_spectrum_fd(sq, SQUARE_H, 3.0 * mu)


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


def _pointwise_by_double_loop(a, b, x, lam, gamma, bc):
    """sum over (m, n) of |u_mn(x)|^2 (lam - lambda_mn)_+^gamma, one mode at a time."""
    lo = 1 if bc == DIRICHLET else 0
    total = 0.0
    for m in range(lo, int(a * math.sqrt(lam) / math.pi) + 2):
        for n in range(lo, int(b * math.sqrt(lam) / math.pi) + 2):
            ev = PI2 * (m * m / (a * a) + n * n / (b * b))
            if ev >= lam:
                continue
            if bc == DIRICHLET:
                u2 = (2.0 / a * math.sin(m * math.pi * x[0] / a) ** 2
                      * 2.0 / b * math.sin(n * math.pi * x[1] / b) ** 2)
            else:
                u2 = ((2.0 if m else 1.0) / a * math.cos(m * math.pi * x[0] / a) ** 2
                      * (2.0 if n else 1.0) / b * math.cos(n * math.pi * x[1] / b) ** 2)
            total += u2 * (lam - ev) ** gamma
    return total


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 1.5])
def test_pointwise_spectral_function_on_a_grid(bc, gamma):
    # one enumeration serves the whole grid; each value matches its scalar call
    # and an independent mode-by-mode sum of the normalized eigenfunctions
    a, b, x = 1.3, 0.7, (0.41, 0.23)
    rect = Rectangle(a, b)
    lams = np.array([37.3, 211.9, 804.1, 2456.7, 3001.3])
    vals = pointwise_spectral_function(rect, x, lams, gamma, bc)
    assert vals.shape == lams.shape
    for lam, v in zip(lams, vals):
        scalar = pointwise_spectral_function(rect, x, lam, gamma, bc)
        assert isinstance(scalar, float)
        assert abs(v - scalar) <= 1e-12 * abs(scalar)
        ref = _pointwise_by_double_loop(a, b, x, lam, gamma, bc)
        assert ref > 0.0 and abs(v - ref) <= 1e-12 * ref, (lam, v, ref)


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
