"""Convex-polygon machinery: erosions, boundary layers, wedges, disk intersections."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

import weylab.geometry as geometry
from weylab import (ConvexPolygon, bishop_gromov_profile, chebyshev_center,
                    corner_params, distance_level_volume, inradius, load_polygon,
                    random_convex_polygon, save_polygon, theta_omega)

SQ = ConvexPolygon.rectangle(1.0, 1.0)
# containment, not disjointness, bounds this triangle's corner radius
FLAT = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.5, 0.15]])
# a 4 x 2 rectangle with its corners cut at 45 degrees: the four cuts
# (length 0.1 sqrt 2) collapse together at s = 0.1 sqrt(2) / (2 tan(pi / 8)),
# well before the inradius 1
CUT = ConvexPolygon([[0.1, 0.0], [3.9, 0.0], [4.0, 0.1], [4.0, 1.9],
                     [3.9, 2.0], [0.1, 2.0], [0.0, 1.9], [0.0, 0.1]])


def _clip_halfplane(points, normal, offset):
    """Sutherland-Hodgman clip of a convex loop against normal . x <= offset."""
    out = []
    m = len(points)
    for i in range(m):
        cur, nxt = points[i], points[(i + 1) % m]
        dc = offset - float(np.dot(normal, cur))
        dn = offset - float(np.dot(normal, nxt))
        if dc >= 0.0:
            out.append(cur)
            if dn < 0.0:
                out.append(cur + (dc / (dc - dn)) * (nxt - cur))
        elif dn > 0.0:
            out.append(cur + (dc / (dc - dn)) * (nxt - cur))
    return out


def _sanitize_loop(points, scale):
    """Drop duplicate and collinear vertices from a convex CCW loop."""
    pts = [np.asarray(p, dtype=float) for p in points]
    out = []
    for p in pts:
        if not out or np.hypot(*(p - out[-1])) > 1e-11 * max(scale, 1e-30):
            out.append(p)
    if len(out) >= 2 and np.hypot(*(out[0] - out[-1])) <= 1e-11 * max(scale, 1e-30):
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        for i in range(len(out)):
            a, b, c = out[i - 1], out[i], out[(i + 1) % len(out)]
            u, w = b - a, c - b
            lu, lw = np.hypot(*u), np.hypot(*w)
            if lu * lw == 0 or geometry._cross(u, w) <= 1e-11 * lu * lw:
                out.pop(i)
                changed = True
                break
    if len(out) < 3:
        return None
    return np.array(out)


def erode(poly, s):
    """Inner parallel body at distance s by clipping with the inward-offset
    half-planes: the oracle for the edge-collapse pieces.  None when the body
    is empty or has collapsed to a lower-dimensional set."""
    if s < 0:
        raise ValueError("offset must be >= 0")
    if s == 0.0:
        return poly
    pts = list(poly.vertices)
    for k in range(poly.n):
        pts = _clip_halfplane(pts, poly.normals[k], poly.offsets[k] - s)
        if len(pts) < 3:
            return None
    arr = _sanitize_loop(pts, poly.scale)
    if arr is None:
        return None
    try:
        return ConvexPolygon(arr)
    except ValueError:
        return None


def _scaled_random_polygon(rng, s):
    """random_convex_polygon(rng) with its vertices times s: the hull of the s-scaled points."""
    return ConvexPolygon(random_convex_polygon(rng).vertices * s)


def _strictly_inside(poly, point):
    return bool(np.all(poly.normals @ np.asarray(point, dtype=float) < poly.offsets))


def test_polygon_construction_basics():
    assert SQ.n == 4
    assert abs(SQ.area - 1.0) < 1e-15
    assert abs(SQ.perimeter - 4.0) < 1e-15
    assert np.allclose(SQ.angles, math.pi / 2)
    assert SQ.contains([0.5, 0.5])
    assert SQ.contains([1.0, 1.0])
    assert not SQ.contains([1.1, 0.5])
    assert _strictly_inside(SQ, [0.5, 0.5])
    assert not _strictly_inside(SQ, [1.0, 0.5])


def test_polygon_validation():
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [0, 1], [1, 1], [1, 0]])       # clockwise
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0], [2, 0], [1, 1]])       # collinear run
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [0, 0], [1, 0], [1, 1]])       # duplicate vertex
    with pytest.raises(ValueError):
        ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])  # reflex


def test_regular_polygon_has_requested_area():
    for n in (3, 4, 6, 11):
        p = ConvexPolygon.regular(n)
        assert abs(p.area - 1.0) < 1e-12
        assert np.allclose(p.angles, (n - 2) * math.pi / n)
    q = ConvexPolygon.regular(5, area=2.5)
    assert abs(q.area - 2.5) < 1e-12
    with pytest.raises(ValueError):
        ConvexPolygon.regular(2)


def test_scaled_and_translated():
    p = ConvexPolygon(3.0 * SQ.vertices + [-1.0, 2.0])
    assert abs(p.area - 9.0) < 1e-12
    assert abs(p.perimeter - 12.0) < 1e-12


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    p = _scaled_random_polygon(rng, 2.5)
    path = tmp_path / "poly.json"
    save_polygon(p, path)
    q = load_polygon(path)
    assert np.array_equal(p.vertices, q.vertices)


def test_chebyshev_center_of_square():
    c, r = chebyshev_center(SQ)
    assert abs(r - 0.5) <= 1e-14
    assert np.all(np.abs(c - 0.5) <= 1e-14)
    assert inradius(SQ) == r


def _inradius_by_highs(p):
    # the Chebyshev-center LP: max r subject to n_k . c + r <= b_k
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.column_stack((p.normals, np.ones(p.n))),
                  b_ub=p.offsets, bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs")
    assert res.success, res.message
    return float(res.x[2])


def _inradius_by_edge_triples(p):
    # the inradius is the largest feasible circle tangent to three edge lines
    tri = np.array([(i, j, k) for i in range(p.n) for j in range(i + 1, p.n)
                    for k in range(j + 1, p.n)])
    lhs = np.concatenate((p.normals[tri], np.ones(tri.shape + (1,))), axis=2)
    sol = np.linalg.solve(lhs, p.offsets[tri][..., None])[..., 0]
    feasible = np.all(sol[:, :2] @ p.normals.T + sol[:, 2:] <= p.offsets + 1e-12 * p.scale, axis=1)
    return float(np.max(sol[feasible, 2]))


def test_chebyshev_center_against_independent_oracles():
    rng = np.random.default_rng(151)
    for _ in range(500):
        p = _scaled_random_polygon(rng, float(rng.uniform(0.3, 4.0)))
        c, r = chebyshev_center(p)
        assert abs(r - _inradius_by_highs(p)) <= 1e-9 * r
        assert abs(r - _inradius_by_edge_triples(p)) <= 1e-12 * r
        assert np.all(p.normals @ c + r <= p.offsets + 1e-12 * p.scale)
        assert r == inradius(p) == chebyshev_center(p)[1]


def test_chebyshev_center_closed_forms():
    for a, b in ((1.0, 2.0), (3.0, 0.7), (0.25, 0.25), (5.0, 1.0)):
        p = ConvexPolygon.rectangle(a, b)
        c, r = chebyshev_center(p)
        assert abs(r - 0.5 * min(a, b)) <= 1e-14 * min(a, b)
        assert np.all(p.normals @ c + r <= p.offsets + 1e-14 * p.scale)
    for n in range(3, 13):
        p = ConvexPolygon.regular(n)
        big_r = math.sqrt(2.0 / (n * math.sin(2.0 * math.pi / n)))
        c, r = chebyshev_center(p)
        assert abs(r - big_r * math.cos(math.pi / n)) <= 1e-14 * big_r
        assert np.all(np.abs(c) <= 1e-14 * big_r)
    # isosceles trapezoid: the incircle touches both parallel sides, not the legs
    trap = ConvexPolygon([[0.0, 0.0], [4.0, 0.0], [3.0, 1.0], [1.0, 1.0]])
    c, r = chebyshev_center(trap)
    assert abs(r - 0.5) <= 1e-14
    assert abs(c[1] - 0.5) <= 1e-14
    assert np.all(trap.normals @ c + r <= trap.offsets + 1e-14 * trap.scale)


def test_chebyshev_center_returns_a_copy():
    c, _ = chebyshev_center(SQ)
    c[:] = 9.0
    assert np.all(np.abs(chebyshev_center(SQ)[0] - 0.5) <= 1e-14)


def test_erosion_pieces_with_parallel_edges():
    # antiparallel lines become adjacent only at the last collapse, and
    # simultaneous collapses make one event: no stage of (near) zero length,
    # and no division by a vanishing cross product
    for p, count in ((SQ, 1), (ConvexPolygon.rectangle(1.0, 2.0), 1),
                     (ConvexPolygon.regular(6), 1), (CUT, 2)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sched = geometry._collapse_schedule(p)
        assert len(sched.pieces) == count
        assert all(s_hi - s_lo > 1e-3 * sched.radius for s_lo, s_hi, *_ in sched.pieces)
        assert sched.pieces[-1][1] == sched.radius == inradius(p)
    first_cut = 0.05 * math.sqrt(2.0) / math.tan(math.pi / 8.0)
    assert abs(geometry._collapse_schedule(CUT).pieces[0][1] - first_cut) <= 1e-15


def test_erosion_pieces_against_clipping():
    # the schedule's quadratic pieces against Sutherland-Hodgman erosion
    rng = np.random.default_rng(152)
    polys = [SQ, ConvexPolygon.rectangle(1.0, 2.0), ConvexPolygon.regular(6), CUT]
    polys += [_scaled_random_polygon(rng, float(rng.uniform(0.3, 4.0))) for _ in range(50)]
    for p in polys:
        pieces = geometry._collapse_schedule(p).pieces
        assert pieces[0][0] == 0.0
        assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
        for s in rng.uniform(0.0, inradius(p), 4):
            inner = erode(p, s)
            assert abs(p.area - distance_level_volume(p, s) - inner.area) <= 1e-12 * p.area


def test_erode_square_closed_form():
    inner = erode(SQ, 0.2)
    assert abs(inner.area - 0.36) < 1e-12
    assert abs(inner.perimeter - 2.4) < 1e-12
    assert erode(SQ, 0.0) is SQ
    assert erode(SQ, 0.6) is None
    with pytest.raises(ValueError):
        erode(SQ, -0.1)


def test_erosion_collapses_exactly_at_the_inradius():
    rng = np.random.default_rng(5)
    for _ in range(15):
        p = random_convex_polygon(rng)
        r_in = inradius(p)
        assert erode(p, 0.8 * r_in) is not None
        assert erode(p, 1.02 * r_in) is None


def test_distance_level_volume_square():
    # boundary layer of the unit square: 4s - 4s^2
    for s in (0.05, 0.2, 0.45, 0.5):
        want = 4.0 * s - 4.0 * s * s
        assert abs(distance_level_volume(SQ, s) - want) < 1e-12
    assert distance_level_volume(SQ, 0.0) == 0.0
    with pytest.raises(ValueError):
        distance_level_volume(SQ, 0.51)


def test_boundary_layer_bound_random_sweep():
    """|{d < s}| <= s * Per with strict margin away from s = 0."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = _scaled_random_polygon(rng, float(rng.uniform(0.5, 3.0)))
        r_in = inradius(p)
        for f in (0.1, 0.35, 0.62, 0.85, 1.0):
            s = f * r_in
            assert distance_level_volume(p, s) <= s * p.perimeter


def test_theta_equals_perimeter():
    # the piecewise supremum must land on the l -> 0+ limit, not above it
    assert abs(theta_omega(SQ) - 4.0) < 1e-12
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = _scaled_random_polygon(rng, float(rng.uniform(0.3, 4.0)))
        assert abs(theta_omega(p) - p.perimeter) < 1e-9 * p.perimeter


def test_polygon_disk_area_closed_cases():
    def area(center, r):
        return float(geometry._disk_areas(SQ, center, np.array([r]))[0])

    assert abs(area([0.5, 0.5], 0.3) - math.pi * 0.09) < 1e-14
    assert abs(area([0.5, 0.5], 2.0) - 1.0) < 1e-14
    assert abs(area([0.0, 0.0], 0.3) - math.pi * 0.09 / 4.0) < 1e-14
    assert abs(area([0.5, 0.0], 0.3) - math.pi * 0.09 / 2.0) < 1e-13
    assert area([0.5, 0.5], 0.0) == 0.0


def _area_inside_ngon(p, center, radius, sides=1024):
    # |P ∩ regular N-gon with inradius `radius` about center|, by Qhull
    th = 2.0 * math.pi * (np.arange(sides) + 0.5) / sides
    ngon = np.column_stack((np.cos(th), np.sin(th)))
    halfspaces = np.vstack((np.column_stack((p.normals, -p.offsets)),
                            np.column_stack((ngon, -(ngon @ center + radius)))))
    return ConvexHull(HalfspaceIntersection(halfspaces, center).intersections).volume


def test_disk_areas_between_inscribed_and_circumscribed_polygons():
    # independent route: the disk lies between its inscribed and circumscribed
    # 1024-gons, so |P ∩ disk| lies between their clipped areas
    rng = np.random.default_rng(153)
    sides = 1024
    for _ in range(12):
        p = _scaled_random_polygon(rng, float(rng.uniform(0.3, 4.0)))
        c, r_in = chebyshev_center(p)
        base = c + 0.9 * (p.vertices[0] - c) * rng.uniform()
        radii = np.geomspace(0.2 * r_in, 2.0 * p.scale, 6)
        areas = geometry._disk_areas(p, base, radii)
        assert np.array_equal(bishop_gromov_profile(p, base, radii), areas / (radii * radii))
        for r, area in zip(radii, areas):
            lo = _area_inside_ngon(p, base, r * math.cos(math.pi / sides), sides)
            hi = _area_inside_ngon(p, base, r, sides)
            slack = 1e-12 * p.area
            assert lo - slack <= area <= hi + slack
            assert hi - lo <= 1e-4 * r * r


def test_bishop_gromov_small_radius_limits():
    prof = bishop_gromov_profile(SQ, [0.5, 0.5], [1e-4, 1e-3, 0.01])
    assert np.allclose(prof, math.pi, atol=1e-12)
    prof_corner = bishop_gromov_profile(SQ, [0.0, 0.0], [1e-4, 1e-3, 0.01])
    assert np.allclose(prof_corner, math.pi / 4.0, atol=1e-12)


def test_bishop_gromov_monotone_random_sweep():
    rng = np.random.default_rng(31)
    for _ in range(30):
        p = _scaled_random_polygon(rng, float(rng.uniform(0.5, 2.5)))
        r_in = inradius(p)
        radii = np.geomspace(0.05 * r_in, 3.0 * p.scale, 14)
        c, _ = chebyshev_center(p)
        prof = bishop_gromov_profile(p, c, radii)       # raises on any increase
        assert prof[0] >= prof[-1]
        bishop_gromov_profile(p, p.vertices[0], radii)  # boundary base point


def test_bishop_gromov_guards():
    with pytest.raises(ValueError):
        bishop_gromov_profile(SQ, [2.0, 2.0], [0.1, 0.2])
    with pytest.raises(ValueError):
        bishop_gromov_profile(SQ, [0.5, 0.5], [0.2, 0.1])
    with pytest.raises(ValueError):
        bishop_gromov_profile(SQ, [0.5, 0.5], [-0.1, 0.2])


def test_corner_params_square():
    cp = corner_params(SQ)
    assert abs(cp.alpha - math.pi / 2) < 1e-15
    # adjacent wedges meet along a unit edge at radius 1/2, so R = 1/4
    assert cp.R == 0.25
    alpha, big_r = cp
    assert (alpha, big_r) == (cp.alpha, cp.R)


def test_corner_params_regular_polygons():
    # disjointness binds before containment: R = side / 4
    for n in (3, 6):
        p = ConvexPolygon.regular(n)
        side = float(np.hypot(*(p.vertices[1] - p.vertices[0])))
        cp = corner_params(p)
        assert abs(cp.alpha - (n - 2) * math.pi / n) < 1e-12
        assert abs(cp.R - side / 4.0) < 1e-15


def _wedge_arcs(poly, r, samples=2001):
    """Points on the arc of every corner wedge W_i(r), from the outgoing edge
    counterclockwise through the interior angle."""
    v = poly.vertices
    arcs = []
    for i in range(poly.n):
        d1 = v[(i + 1) % poly.n] - v[i]
        d1 = d1 / np.hypot(*d1)
        perp = np.array([-d1[1], d1[0]])
        phi = np.linspace(0.0, poly.angles[i], samples)[:, None]
        arcs.append(v[i] + r * (np.cos(phi) * d1 + np.sin(phi) * perp))
    return arcs


def _in_closed_sector(poly, i, point, r, rel=1e-12):
    v = poly.vertices
    w = np.asarray(point) - v[i]
    rho = float(np.hypot(*w))
    if rho > r:
        return False
    d1 = v[(i + 1) % poly.n] - v[i]
    d2 = v[i - 1] - v[i]
    tol = rel * rho * max(np.hypot(*d1), np.hypot(*d2))
    return d1[0] * w[1] - d1[1] * w[0] >= -tol and w[0] * d2[1] - w[1] * d2[0] >= -tol


@pytest.mark.parametrize("case", ["random", "regular", "triangle"])
def test_corner_radius_against_sampled_wedges(case):
    # independent route: sample the wedge arcs and test the disc pairs
    # directly, just below and just above the supremum 2R
    if case == "random":
        rng = np.random.default_rng(20261018)
        polys = [random_convex_polygon(rng) for _ in range(40)]
    elif case == "regular":
        polys = [ConvexPolygon.regular(n) for n in range(3, 9)]
    else:
        polys = [FLAT]
    for p in polys:
        sup = 2.0 * corner_params(p).R
        tol = 1e-12 * p.scale
        pair = np.hypot(*(p.vertices[:, None] - p.vertices[None]).transpose(2, 0, 1))
        np.fill_diagonal(pair, np.inf)

        def arcs_inside(r):
            return all(np.all(p.normals @ pts.T <= p.offsets[:, None] + tol)
                       for pts in _wedge_arcs(p, r))

        below = (1.0 - 1e-9) * sup
        assert arcs_inside(below)
        assert np.all(pair > 2.0 * below)
        above = (1.0 + 1e-6) * sup
        i, j = np.unravel_index(np.argmin(pair), pair.shape)
        mid = 0.5 * (p.vertices[i] + p.vertices[j])
        assert (not arcs_inside(above)
                or (_in_closed_sector(p, i, mid, above) and _in_closed_sector(p, j, mid, above)))


def test_corner_radius_where_containment_binds():
    # the apex wedge of a flat triangle reaches the base at r = 0.15, well
    # before any two wedges meet (half the shortest side is 0.26)
    assert abs(corner_params(FLAT).R - 0.075) <= 1e-15


def test_random_polygon_propagates_real_errors(monkeypatch):
    # only a degenerate hull (QhullError) is redrawn; any other fault surfaces
    def broken(points):
        raise TypeError("not a hull")

    monkeypatch.setattr(geometry, "ConvexHull", broken)
    with pytest.raises(TypeError, match="not a hull"):
        random_convex_polygon(np.random.default_rng(0))


def test_random_polygon_determinism():
    a = random_convex_polygon(np.random.default_rng(123))
    b = random_convex_polygon(np.random.default_rng(123))
    assert np.array_equal(a.vertices, b.vertices)
    assert a.n >= 3 and a.area > 0
