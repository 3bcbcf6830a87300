"""Exact lattice/Bessel spectra, the FD solver, and the functionals on top."""

import json
import math
import tracemalloc

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


def test_fd_capacity_guard_refuses_up_front(monkeypatch):
    # the unit square at h = 0.02 has a 51 x 51 bounding box of grid points: a cap
    # of 2600 refuses it before the box's meshgrid is built, a cap of 2601 does not
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    monkeypatch.setattr(spectra, "MAX_EIGENVALUES", 2600)
    with monkeypatch.context() as m:
        def no_grid(*args, **kwargs):
            raise AssertionError("FD box grid built before the capacity check")

        m.setattr(spectra.np, "meshgrid", no_grid)
        with pytest.raises(CapacityError, match="2601 box points"):
            polygon_dirichlet_spectrum_fd(sq, 0.02, 500.0)
    monkeypatch.setattr(spectra, "MAX_EIGENVALUES", 2601)
    exact = _square_fd_eigenvalues(0.02)
    assert len(polygon_dirichlet_spectrum_fd(sq, 0.02, 500.0)) == np.count_nonzero(exact < 500.0)


SIZE_CASES = {
    "rect-side": lambda: rectangle_spectrum(math.inf, 1.0, DIRICHLET, 100.0),
    "rect-lambda": lambda: rectangle_spectrum(1.0, 1.0, NEUMANN, math.inf),
    "disk-radius": lambda: disk_spectrum(math.inf, DIRICHLET, 100.0),
    "disk-lambda": lambda: disk_spectrum(1.0, NEUMANN, math.inf),
}


@pytest.mark.parametrize("call", SIZE_CASES.values(), ids=SIZE_CASES.keys())
def test_infinite_sizes_and_lambda_max_are_refused(call):
    # the domain checks the sizes; an infinite size or lambda_max used to reach
    # int(inf) in the enumeration and fail with OverflowError
    with pytest.raises(ValueError, match="finite"):
        call()


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
    """Disk eigenvalues order by order from specfun's zeros (jn_zeros, jnp_zeros)."""
    x_max = radius * math.sqrt(lam)
    zeros_of = jnp_zeros if bc == NEUMANN else jn_zeros
    vals = [0.0] if bc == NEUMANN else []
    for nu in range(math.ceil(x_max)):
        z = zeros_of(nu, int(x_max / math.pi) + 3)
        assert z[-1] > x_max
        for zk in z[z < x_max]:
            vals.extend([(zk / radius) ** 2] * (1 if nu == 0 else 2))
    return np.sort(vals)


@pytest.mark.parametrize("bc", [DIRICHLET, NEUMANN])
@pytest.mark.parametrize("radius", [1.0, 0.8])
def test_disk_spectrum_matches_per_order_reference(bc, radius):
    rng = np.random.default_rng(20261018)
    for lam in (1e4, 10.0 ** rng.uniform(0.0, 4.0)):
        want = _disk_reference(radius, bc, lam)
        spec = disk_spectrum(radius, bc, lam)
        assert len(spec) == len(want), (lam, len(spec), len(want))
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


TAIL_CASES = {
    **{f"rect-{b}": (Rectangle(1.0, float(b)), NEUMANN, None) for b in ("1", "1e-1", "1e-2", "1e-3", "1e-4")},
    "disk-dirichlet": (Disk(1.0), DIRICHLET, None),
    "disk-neumann": (Disk(1.0), NEUMANN, None),
    **{f"rect-D-{b}": (Rectangle(1.0, float(b)), DIRICHLET, None) for b in ("1", "0.5", "0.1", "0.01", "0.001")},
    "disk-0.1-dirichlet": (Disk(0.1), DIRICHLET, None),
    **{f"fd-square-h{h}": (ConvexPolygon.rectangle(1.0, 1.0), DIRICHLET, float(h)) for h in ("0.1", "0.05", "0.02")},
}


@pytest.mark.parametrize("domain,bc,h", TAIL_CASES.values(), ids=TAIL_CASES.keys())
def test_heat_trace_tail_bounds_the_exact_omitted_tail(domain, bc, h):
    # Lambda sits just below an eigenvalue, where the omitted tail is largest next
    # to e^{-t Lambda}: the first one past each target, and the 2nd, 11th and 101st.
    # heat-check takes t = 30/Lambda: just below 4 pi^2 that is t = 0.75991, where a
    # 16 L_{0,2}|Omega| mu count bound gave thin Neumann rectangles tails 1.9-193 times
    # too small.  The exact tail sums the spectrum up to 375 Lambda, past which every
    # term e^{-t lambda}, t >= 2/Lambda, underflows; the FD square's whole 5-point
    # spectrum is closed-form, and FD spectra are computed below 4/h^2 only.
    if h is None:
        top = 450.0
        while len(ev := domain.spectrum(bc, top).eigenvalues) <= 100 or ev[-1] < 300.0:
            top *= 4.0
    else:
        full = _square_fd_eigenvalues(h)
        ev = full[full < 4.0 / h**2]
    ranks = [np.searchsorted(ev, target) for target in (4 * PI2 * (1 - 1e-9), 60.0, 300.0)]
    lams = [ev[r] * (1 - 1e-12) for r in ranks + [1, 10, 100] if r < len(ev)]
    if h is None:
        full = domain.spectrum(bc, 375.0 * max(lams)).eigenvalues
    for lam in lams:
        cut = domain.spectrum(bc, lam, h)
        lam = cut.complete_below
        for t in (2.0 / lam, 30.0 / lam):
            exact = float(np.sum(np.exp(-t * full[full >= lam])))
            tail = heat_trace(cut, t)[1]
            assert exact > 0.0 and tail >= exact, (lam, t, tail, exact)


def test_spectrum_save_load_roundtrip(tmp_path):
    # a JSON header line, then `index,eigenvalue,group` per eigenvalue, the
    # eigenvalue %.17g and the group stepping by one where the value changes; the
    # loaded spectrum rebuilds its domain from the saved key, so the heat trace
    # (whose tail bound needs the domain's count bound) comes back bit for bit
    for name, spec in (("rect", rectangle_spectrum(1.0, 2.0, NEUMANN, 300.0)),
                       ("disk", disk_spectrum(1.0, DIRICHLET, 60.0)),
                       ("fd", ConvexPolygon.regular(6).spectrum(DIRICHLET, 200.0, 0.05))):
        path = tmp_path / f"{name}.spec"
        spec.save(path)
        header, *lines = path.read_text().splitlines()
        assert json.loads(header) == {"bc": spec.bc, "domain": spec.domain,
                                      "complete_below": spec.complete_below, "exact": spec.exact}
        index, values, groups = zip(*(line.split(",") for line in lines))
        assert list(map(int, index)) == list(range(len(spec))) and len(spec) > 0
        assert list(values) == [f"{ev:.17g}" for ev in spec.eigenvalues]
        groups = np.array(groups, dtype=int)
        assert groups[0] == 0 and np.array_equal(np.diff(groups), np.diff(spec.eigenvalues) != 0)
        back = Spectrum.load(path)
        assert np.array_equal(spec.eigenvalues, back.eigenvalues)
        assert back.domain == spec.domain
        assert back.count_bound == spec.count_bound
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


def test_spectrum_refuses_non_finite_eigenvalues(tmp_path):
    # a NaN made both the order and the sign test false: [5, nan, 1] was accepted, and its
    # counting function at 3 returned 0 with the eigenvalue 1 below 3
    dom = Rectangle(1.0, 1.0)
    for ev in ([5.0, math.nan, 1.0], [1.0, math.inf]):
        with pytest.raises(ValueError, match="eigenvalues must be finite"):
            Spectrum(ev, DIRICHLET, 100.0, dom, True)
    path = tmp_path / "nan.spec"
    rectangle_spectrum(1.0, 1.0, DIRICHLET, 100.0).save(path)
    header, first, *rest = path.read_text().splitlines(keepends=True)
    path.write_text(header + first + "1,nan,1\n" + "".join(rest))
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        Spectrum.load(path)


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
    # the half-size matrix reaches only the eigenvalues below 4/h^2, here 1600
    with pytest.raises(InsufficientResolutionError, match="4/h"):
        polygon_dirichlet_spectrum_fd(sq, 0.05, 1600.0)


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


class OffDiagonal:
    """A factorization whose row and column permutations differ."""
    perm_r, perm_c = np.array([1, 0]), np.array([0, 1])


def test_fd_refuses_an_uncertified_count(monkeypatch):
    from weylab import spectra
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    # six eigenvalues below lam (19.70, 49.00 ×2, 78.31, 97.04 ×2)
    h, lam = 1.0 / 20.0, 100.0
    inertia, solver = spectra._count_from, spectra.eigsh
    # an inertia count off by one either way disagrees with the eigensolver
    for off in (-1, 1):
        def miscount(M, d, cut, off=off):
            c, n = inertia(M, d, cut)
            return c, n + off

        monkeypatch.setattr(spectra, "_count_from", miscount)
        with pytest.raises(RuntimeError, match="inertia count"):
            polygon_dirichlet_spectrum_fd(sq, h, lam)
    monkeypatch.undo()

    monkeypatch.setattr(spectra, "splu", lambda *args, **kwargs: OffDiagonal())
    with pytest.raises(RuntimeError, match="off the diagonal"):
        polygon_dirichlet_spectrum_fd(sq, h, lam)
    monkeypatch.undo()

    def ghost(A, k, sigma, **kwargs):   # the pair nearest the shift returned twice, another missed
        w, v = solver(A, k, sigma=sigma, **kwargs)
        i, j = np.argsort(np.abs(w - sigma))[:2]
        w[j], v[:, j] = w[i], v[:, i]
        return w, v

    monkeypatch.setattr(spectra, "eigsh", ghost)
    with pytest.raises(RuntimeError, match="orthonormal"):
        polygon_dirichlet_spectrum_fd(sq, h, lam)


SQUARE_H, SQUARE_LAMBDA = 1.0 / 50.0, 3000.0   # N = 242: four windows


def test_fd_windows_match_the_closed_form(monkeypatch):
    calls, inertia = [], spectra._count_from

    def spy(M, d, cut):
        calls.append(inertia(M, d, cut))
        return calls[-1]

    monkeypatch.setattr(spectra, "_count_from", spy)
    spec = polygon_dirichlet_spectrum_fd(ConvexPolygon.rectangle(1.0, 1.0), SQUARE_H, SQUARE_LAMBDA)
    want = _square_fd_eigenvalues(SQUARE_H)
    want = want[want < SQUARE_LAMBDA]
    assert len(spec) == len(want) == 242
    assert np.max(np.abs(spec.eigenvalues - want) / want) < 1e-13
    # so the polygon heat-check of this square (t from 0.01, lambda_max = 30/t) reports
    # theta to roundoff: measured within 1.8e-15, where eigsh on the full matrix was
    # 2.2e-13 off at t = 0.01
    for t in (0.01, 0.02, 0.03, 0.04):
        assert abs(heat_trace(spec, t)[0] - math.fsum(np.exp(-t * want))) < 2e-14, f"t={t}"
    # N at lambda_max, then one count per interior cut of four equal windows
    assert [s for s, _ in calls] == [SQUARE_LAMBDA, 750.0, 1500.0, 2250.0]
    assert [c for _, c in calls[1:]] == [int(np.count_nonzero(want < s)) for s in (750, 1500, 2250)]


def test_fd_footprint():
    # eigsh runs on M = C^T C (1200 unknowns, not 2401), the Ritz vectors reach A 16
    # columns at a time, and only one window's lifted vectors are kept for its Gram
    # check; measured 5.65 MB, where keeping all N lifted vectors peaked at 9.4 MB
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    polygon_dirichlet_spectrum_fd(sq, SQUARE_H, SQUARE_LAMBDA)
    tracemalloc.start()
    try:
        polygon_dirichlet_spectrum_fd(sq, SQUARE_H, SQUARE_LAMBDA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6, f"FD peak {peak / 1e6:.2f} MB"


def test_fd_windows_refuse_an_uncertified_count(monkeypatch):
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    inertia, solver, factor = spectra._count_from, spectra.eigsh, spectra.splu
    # a miscount at one interior cut only: the two windows beside it disagree with eigsh
    for off in (-1, 1):
        def miscount(M, d, cut, off=off):
            c, n = inertia(M, d, cut)
            return c, n + (off if cut == 1500.0 else 0)

        monkeypatch.setattr(spectra, "_count_from", miscount)
        with pytest.raises(RuntimeError, match="inertia count"):
            polygon_dirichlet_spectrum_fd(sq, SQUARE_H, SQUARE_LAMBDA)
    monkeypatch.undo()

    calls = []

    def off_diagonal_at_one_cut(*args, **kwargs):   # every step of the cut 1500
        calls.append(1)
        return OffDiagonal() if 3 <= len(calls) <= 5 else factor(*args, **kwargs)

    monkeypatch.setattr(spectra, "splu", off_diagonal_at_one_cut)
    with pytest.raises(RuntimeError, match="off the diagonal"):
        polygon_dirichlet_spectrum_fd(sq, SQUARE_H, SQUARE_LAMBDA)
    assert len(calls) == 5
    monkeypatch.undo()

    # eigsh runs on M = C^T C, shifted to the midpoint of the window's interval in
    # mu = (4/h^2 - lambda)^2
    d = 4.0 / SQUARE_H**2
    window_shift = 0.5 * ((d - 750.0) ** 2 + (d - 1500.0) ** 2)

    def ghost(A, k, sigma, **kwargs):   # in the window [750, 1500): a pair returned twice
        w, v = solver(A, k, sigma=sigma, **kwargs)
        if sigma == window_shift:
            i, j = np.argsort(np.abs(w - sigma))[:2]
            w[j], v[:, j] = w[i], v[:, i]
        return w, v

    monkeypatch.setattr(spectra, "eigsh", ghost)
    with pytest.raises(RuntimeError, match="orthonormal"):
        polygon_dirichlet_spectrum_fd(sq, SQUARE_H, SQUARE_LAMBDA)


def _spy_eigsh_shifts(monkeypatch):
    """The shifts of every eigsh call of the FD solver, in call order."""
    shifts, solver = [], spectra.eigsh

    def spy(A, k, sigma, **kwargs):
        shifts.append(sigma)
        return solver(A, k, sigma=sigma, **kwargs)

    monkeypatch.setattr(spectra, "eigsh", spy)
    return shifts


@pytest.mark.parametrize("split", [0, 1, 2])
def test_fd_cut_on_a_double_eigenvalue(monkeypatch, split):
    # windows of 3 pairs put the first cut of [0, 3*mu) on the (1,2)/(2,1) pair mu; whatever
    # the inertia at mu says (both, one or neither of the pair below it), the window [0, mu)
    # finds a Ritz value at its cut, drops the cut and solves [0, 2*mu) as one window.  The
    # three counts at mu are built from the exact count below the pair, not from the
    # inertia at mu, which depends on roundoff
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    exact = _square_fd_eigenvalues(SQUARE_H)
    mu = exact[1]
    monkeypatch.setattr(spectra, "FD_WINDOW_PAIRS", 3)
    calls, spy = [], spectra._count_from

    def split_pair(M, d, cut):
        c, n = spy(M, d, cut)
        calls.append((c, n))
        return c, int(np.count_nonzero(exact < mu)) + 2 - split if abs(c - mu) <= 1e-12 * mu else n

    monkeypatch.setattr(spectra, "_count_from", split_pair)
    shifts = _spy_eigsh_shifts(monkeypatch)
    spec = polygon_dirichlet_spectrum_fd(sq, SQUARE_H, 3.0 * mu)
    want = exact[exact < 3.0 * mu]
    assert len(spec) == len(want) == 8
    assert np.max(np.abs(spec.eigenvalues - want)) < 1e-9 * mu
    # N, then the counts at mu and 2*mu, and no recount
    assert [s for s, _ in calls] == pytest.approx([3.0 * mu, mu, 2.0 * mu], rel=1e-12)
    # [0, mu), then the merged [0, 2*mu) at the midpoint of its mu-interval, then [2*mu, 3*mu)
    d, two_mu = 4.0 / SQUARE_H**2, calls[2][0]
    assert len(shifts) == 3
    assert shifts[1] == 0.5 * (d**2 + (d - two_mu) ** 2)


def test_fd_merges_down_to_one_window(monkeypatch):
    # N(2*mu) = 6 in two windows of 3 pairs, whose one interior cut lies on the pair mu:
    # the cut goes and [0, 2*mu) is solved as a single window
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    exact = _square_fd_eigenvalues(SQUARE_H)
    mu = exact[1]
    monkeypatch.setattr(spectra, "FD_WINDOW_PAIRS", 3)
    calls, inertia = [], spectra._count_from

    def spy(M, d, cut):
        calls.append(cut)
        return inertia(M, d, cut)

    monkeypatch.setattr(spectra, "_count_from", spy)
    shifts = _spy_eigsh_shifts(monkeypatch)
    spec = polygon_dirichlet_spectrum_fd(sq, SQUARE_H, 2.0 * mu)
    want = exact[exact < 2.0 * mu]
    assert len(spec) == len(want) == 6
    assert np.max(np.abs(spec.eigenvalues - want)) < 1e-9 * mu
    assert calls == [2.0 * mu, mu]
    d = 4.0 / SQUARE_H**2
    assert shifts[-1] == 0.5 * (d**2 + (d - 2.0 * mu) ** 2) and len(shifts) == 2


def test_fd_refuses_a_pair_from_another_window(monkeypatch):
    # window [750, 1500) gets a pair of window [0, 750) in place of one of its own: the
    # borrowed Ritz value lies outside the window, whose count then falls short
    d = 4.0 / SQUARE_H**2
    first, second = (0.5 * ((d - lo) ** 2 + (d - hi) ** 2) for lo, hi in ((0.0, 750.0), (750.0, 1500.0)))
    solver, pairs = spectra.eigsh, {}

    def borrow(A, k, sigma, **kwargs):
        w, v = solver(A, k, sigma=sigma, **kwargs)
        pairs[sigma] = w.copy(), v.copy()
        if sigma == second:
            fw, fv = pairs[first]
            i, j = np.argmin(np.abs(fw - first)), np.argmin(np.abs(w - sigma))
            w[j], v[:, j] = fw[i], fv[:, i]
        return w, v

    monkeypatch.setattr(spectra, "eigsh", borrow)
    with pytest.raises(RuntimeError, match=r"in \[750.0, 1500.0\), the inertia count"):
        polygon_dirichlet_spectrum_fd(ConvexPolygon.rectangle(1.0, 1.0), SQUARE_H, SQUARE_LAMBDA)
    assert first in pairs and second in pairs


def test_fd_round_lambda_max_is_counted_a_little_lower(monkeypatch):
    # at h = 0.02 every entry of M = C^T C is a multiple of 1/h^4, and at lambda_max h^2 = 1
    # or 2 so is the shift (4/h^2 - lambda_max)^2: a leading minor of M - shift*I is exactly
    # singular, and the count at lambda_max pivoted off the diagonal.  At 5000 (1 + 1e-15)
    # the factorization keeps the diagonal, but its smallest pivot is 1e-29 of the largest
    # and of the wrong sign.  Each is counted at lambda_max (1 - 1e-6) instead, and the
    # spectrum is complete below that top cut
    pent, d = ConvexPolygon.regular(5), 4.0 / 0.02**2
    shifts, factor = [], spectra._ldlt

    def spy(A, shift):
        shifts.append(shift)
        return factor(A, shift)

    monkeypatch.setattr(spectra, "_ldlt", spy)
    ref = polygon_dirichlet_spectrum_fd(pent, 0.02, 5001.0).eigenvalues
    for lam, count in ((2500.0, 206), (5000.0, 454), (5000.0 * (1.0 + 1e-15), 454)):
        del shifts[:]
        spec = polygon_dirichlet_spectrum_fd(pent, 0.02, lam)
        assert shifts[:2] == [(d - lam) ** 2, (d - lam * (1.0 - 1e-6)) ** 2]
        assert spec.complete_below == lam * (1.0 - 1e-6)
        assert spec.eigenvalues[-1] < spec.complete_below
        # the certified count below 2501 (5001) holds no eigenvalue in [top, lambda_max + 1)
        assert len(spec) == np.count_nonzero(ref < lam + 1.0) == count
        assert np.max(np.abs(spec.eigenvalues - ref[:len(spec)]) / spec.eigenvalues) < 1e-12
    monkeypatch.undo()
    monkeypatch.setattr(spectra, "_ldlt", lambda A, shift: OffDiagonal())
    with pytest.raises(RuntimeError, match="off the diagonal"):
        polygon_dirichlet_spectrum_fd(pent, 0.02, 2499.0)


def test_fd_untrusted_lambda_max_on_an_eigenvalue_is_counted_below_it(monkeypatch):
    # lambda_max sits on the 11th square eigenvalue and its count is not trusted: the top
    # cut moves a little lower, the spectrum holds the 10 eigenvalues below it, and the
    # count at the 11th, which the solve did not certify, is refused
    sq = ConvexPolygon.rectangle(1.0, 1.0)
    eleventh = _square_fd_eigenvalues(SQUARE_H)[10]
    untrusted, factor = (4.0 / SQUARE_H**2 - eleventh) ** 2, spectra._ldlt
    monkeypatch.setattr(spectra, "_ldlt", lambda A, shift:
                        OffDiagonal() if shift == untrusted else factor(A, shift))
    spec = polygon_dirichlet_spectrum_fd(sq, SQUARE_H, eleventh)
    assert len(spec) == 10 and spec.complete_below == eleventh * (1.0 - 1e-6)
    assert spec.eigenvalues[-1] < spec.complete_below < eleventh
    with pytest.raises(CertifiedRangeError):
        counting_function(spec, eleventh)
    monkeypatch.undo()
    # unfaked: at h = 1/30, 1800 = (4/h^2)(sin^2(pi/6) + sin^2(pi/6)) is an eigenvalue and a
    # round cut whose count is not trusted
    exact = _square_fd_eigenvalues(1.0 / 30.0)
    spec = polygon_dirichlet_spectrum_fd(sq, 1.0 / 30.0, 1800.0)
    assert spec.complete_below == 1800.0 * (1.0 - 1e-6)
    assert len(spec) == np.count_nonzero(exact < 1799.99) == np.count_nonzero(exact < 1800.01) - 1
    assert np.max(np.abs(spec.eigenvalues - exact[:len(spec)])) < 1e-9 * 1800.0


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
    # an empty grid used to end in numpy's "zero-size array" error
    with pytest.raises(ValueError, match="lambda grid must be finite and non-empty"):
        pointwise_spectral_function(rect, (0.5, 0.5), np.array([]), 1.0, DIRICHLET)


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
