"""Convex polygon geometry: inradius, erosion, boundary layers, corner data.

All quantities here are computed from closed forms: erosion by inward
half-plane offsets, circle/polygon clipping via Green's theorem, the
boundary-layer functional via the piecewise-quadratic erosion area, and the
corner-separation radius from the containment bound and half the closest
vertex distance.  The only iterative numerics are the Chebyshev-center linear
program (HiGHS).
"""

import json
import math
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

RANDOM_POLYGON_MAX_POINTS = 10


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _ang(u, v):
    """Signed angle from u to v in (-pi, pi]; zero if either is (near) null."""
    if (u[0] * u[0] + u[1] * u[1]) < 1e-300 or (v[0] * v[0] + v[1] * v[1]) < 1e-300:
        return 0.0
    return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1])


class ConvexPolygon:
    """Strictly convex polygon with counterclockwise vertices.

    Construction validates orientation, strict convexity (relative cross
    product tolerance 1e-12, i.e. turning sines must exceed it), and that the
    interior angles sum to (n-2)*pi within 1e-10.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("need at least 3 planar vertices")
        n = v.shape[0]
        e = np.roll(v, -1, axis=0) - v
        lengths = np.hypot(e[:, 0], e[:, 1])
        if np.any(lengths == 0.0):
            raise ValueError("duplicate consecutive vertices")
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        sines = cross / (lengths * np.roll(lengths, -1))
        if np.any(sines <= 0.0):
            if 2.0 * np.sum(0.5 * (v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])) < 0:
                raise ValueError("vertices must be in counterclockwise order")
            raise ValueError("polygon is not strictly convex")
        if np.any(sines <= 1e-12):
            raise ValueError("near-degenerate corner (turning sine <= 1e-12)")
        self.vertices = v
        self._edges = e
        self._lengths = lengths
        # interior angle at vertex i sits between incoming edge e_{i-1} and
        # outgoing edge e_i: alpha_i = pi - turn_i
        turn = np.arctan2(
            np.roll(e[:, 0], 1) * e[:, 1] - np.roll(e[:, 1], 1) * e[:, 0],
            np.roll(e[:, 0], 1) * e[:, 0] + np.roll(e[:, 1], 1) * e[:, 1],
        )
        self.angles = math.pi - turn
        if abs(float(np.sum(self.angles)) - (n - 2) * math.pi) > 1e-10:
            raise ValueError("interior angles do not sum to (n-2)*pi")
        self.area = float(0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))
        self.perimeter = float(np.sum(lengths))
        # outward unit normals (rotate edge direction by -90 degrees) and offsets
        self.normals = np.column_stack((e[:, 1], -e[:, 0])) / lengths[:, None]
        self.offsets = np.einsum("ij,ij->i", self.normals, v)
        self.scale = float(np.max(np.ptp(v, axis=0)))
        self._chebyshev = None

    @property
    def n(self):
        return self.vertices.shape[0]

    def chebyshev(self):
        """(center copy, inradius) from one Chebyshev-center LP per polygon.

        Polygons are never mutated (scaled/translated build new ones), so the
        solve is cached on the instance.
        """
        if self._chebyshev is None:
            self._chebyshev = chebyshev_center(self)
        center, radius = self._chebyshev
        return center.copy(), radius

    def contains(self, point, tol=0.0):
        p = np.asarray(point, dtype=float)
        return bool(np.all(self.normals @ p <= self.offsets + tol))

    def strictly_contains(self, point, margin=0.0):
        p = np.asarray(point, dtype=float)
        return bool(np.all(self.normals @ p < self.offsets - margin))

    def scaled(self, s):
        if not s > 0:
            raise ValueError("scale factor must be > 0")
        return ConvexPolygon(self.vertices * s)

    def translated(self, shift):
        return ConvexPolygon(self.vertices + np.asarray(shift, dtype=float))

    @classmethod
    def rectangle(cls, a, b):
        if not (a > 0 and b > 0):
            raise ValueError("rectangle sides must be > 0")
        return cls([[0.0, 0.0], [a, 0.0], [a, b], [0.0, b]])

    @classmethod
    def regular(cls, n, area=1.0):
        if n < 3:
            raise ValueError("need n >= 3")
        # circumradius giving the requested area: A = n R^2 sin(2 pi / n) / 2
        big_r = math.sqrt(2.0 * area / (n * math.sin(2.0 * math.pi / n)))
        th = 2.0 * math.pi * np.arange(n) / n
        return cls(np.column_stack((big_r * np.cos(th), big_r * np.sin(th))))

    def to_json_dict(self):
        return {"vertices": self.vertices.tolist()}

    @classmethod
    def from_json_dict(cls, d):
        return cls(d["vertices"])


def save_polygon(poly, path):
    with open(path, "w") as fh:
        json.dump(poly.to_json_dict(), fh)


def load_polygon(path):
    with open(path) as fh:
        return ConvexPolygon.from_json_dict(json.load(fh))


def chebyshev_center(poly):
    """Deepest interior point and its distance to the boundary, via an LP."""
    a_ub = np.column_stack((poly.normals, np.ones(poly.n)))
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=a_ub,
        b_ub=poly.offsets,
        bounds=[(None, None), (None, None), (0.0, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"Chebyshev-center LP failed: {res.message}")
    return np.array(res.x[:2]), float(res.x[2])


def inradius(poly):
    """Inradius as the optimum of the (cached) Chebyshev-center linear program."""
    return poly.chebyshev()[1]


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
            if lu * lw == 0 or _cross(u, w) <= 1e-11 * lu * lw:
                out.pop(i)
                changed = True
                break
    if len(out) < 3:
        return None
    return np.array(out)


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


def erode(poly, s):
    """Inner parallel body at distance s (intersection of inward-offset half-planes).

    Returns None when the body is empty or has collapsed to a lower-dimensional set.
    """
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


def distance_level_volume(poly, s):
    """Area of the boundary layer {x in Omega : dist(x, boundary) < s}, 0 <= s <= inradius."""
    r_in = inradius(poly)
    if not (0.0 <= s <= r_in * (1.0 + 1e-12)):
        raise ValueError(f"s = {s} outside [0, inradius = {r_in}]")
    inner = erode(poly, min(s, r_in))
    return poly.area - (inner.area if inner is not None else 0.0)


def inner_parallel_perimeter(poly, s):
    """Perimeter of the inner parallel body, 0 <= s < inradius."""
    r_in = inradius(poly)
    if not (0.0 <= s < r_in):
        raise ValueError(f"s = {s} outside [0, inradius = {r_in})")
    inner = erode(poly, s)
    if inner is None:
        raise RuntimeError("erosion collapsed before the inradius; polygon data inconsistent")
    return inner.perimeter


def _erosion_pieces(poly):
    """Quadratic pieces of the erosion area A(s) on [0, inradius).

    Between edge-collapse events the inner body keeps its angle set, so
    A(s0 + u) = A(s0) - u*P(s0) + u^2 * sum_i cot(alpha_i / 2).  Returns a list
    of (s_lo, s_hi, area_lo, per_lo, K_lo).
    """
    r_in = inradius(poly)
    pieces = []
    s0 = 0.0
    current = poly
    for _ in range(poly.n + 2):
        cot_half = 1.0 / np.tan(0.5 * current.angles)
        k_sum = float(np.sum(cot_half))
        # edge i runs from vertex i to vertex i+1; its length shrinks at rate
        # cot(alpha_i/2) + cot(alpha_{i+1}/2)
        rates = cot_half + np.roll(cot_half, -1)
        with np.errstate(divide="ignore"):
            vanish = current._lengths / rates
        u_star = float(np.min(vanish[rates > 0])) if np.any(rates > 0) else np.inf
        s_next = min(s0 + u_star, r_in)
        pieces.append((s0, s_next, current.area, current.perimeter, k_sum))
        if s_next >= r_in * (1.0 - 1e-12) or s_next >= r_in - 1e-14 * max(poly.scale, 1.0):
            break
        s0 = s_next
        current = erode(poly, s0)
        if current is None:
            break
    return pieces, r_in


def theta_omega(poly):
    """sup over l > 0 of |{dist to boundary <= l}| / l, from the closed-form pieces.

    For convex polygons the boundary-layer area is l*Per - l^2*K piecewise, so
    the supremum is attained in the limit l -> 0+ and equals the perimeter; the
    value returned is the exact piecewise supremum (which reproduces that fact
    rather than assuming it).
    """
    pieces, r_in = _erosion_pieces(poly)
    total = poly.area
    best = poly.perimeter  # l -> 0+ limit on the first piece
    for (s_a, s_b, a0, p0, k) in pieces:
        h_a = total - a0

        def g(l):
            u = l - s_a
            return (h_a + u * p0 - u * u * k) / l

        if s_b > s_a:
            best = max(best, g(s_b))
            if s_a > 0.0:
                best = max(best, g(s_a))
            # interior stationary point of g: K u^2 + 2 K s_a u + (h_a - P0 s_a) = 0
            disc = s_a * s_a - (h_a - p0 * s_a) / k if k > 0 else -1.0
            if disc >= 0.0:
                u = -s_a + math.sqrt(disc)
                if 0.0 < u < s_b - s_a:
                    best = max(best, g(s_a + u))
    best = max(best, total / r_in)  # branch l >= inradius: |Omega|/l maximized at l = r_in
    return best


def minkowski_ball_area(poly, r):
    """Exact Steiner formula |Omega + B_r| = |Omega| + r*Per + pi r^2."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return poly.area + r * poly.perimeter + math.pi * r * r


def _edge_disk_term(p, q, r):
    """Contribution of directed edge p->q to |polygon ∩ disk(0, r)| (Green's theorem)."""
    d = q - p
    a = float(np.dot(d, d))
    if a < 1e-300:
        return 0.0
    b = 2.0 * float(np.dot(p, d))
    c = float(np.dot(p, p)) - r * r
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return 0.5 * r * r * _ang(p, q)
    sq = math.sqrt(disc)
    t1 = (-b - sq) / (2.0 * a)
    t2 = (-b + sq) / (2.0 * a)
    if t2 <= 0.0 or t1 >= 1.0:
        return 0.5 * r * r * _ang(p, q)
    t1c = max(t1, 0.0)
    t2c = min(t2, 1.0)
    x1 = p + t1c * d
    x2 = p + t2c * d
    term = 0.5 * _cross(x1, x2)
    if t1 > 0.0:
        term += 0.5 * r * r * _ang(p, x1)
    if t2 < 1.0:
        term += 0.5 * r * r * _ang(x2, q)
    return term


def polygon_disk_area(poly, center, r):
    """Exact area of the intersection of the polygon with a disk of radius r."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0.0:
        return 0.0
    c = np.asarray(center, dtype=float)
    v = poly.vertices - c
    return float(sum(_edge_disk_term(v[i], v[(i + 1) % poly.n], r) for i in range(poly.n)))


def bishop_gromov_profile(poly, a, radii):
    """Profile r -> |Omega ∩ B_r(a)| / r^2 on an increasing radius grid.

    The point a must lie in the closure of the polygon.  The profile is
    nonincreasing; a numerical increase beyond 1e-10 raises, since every
    ingredient is exact and such an increase would indicate an internal bug.
    """
    if not poly.contains(a, tol=1e-9 * max(poly.scale, 1.0)):
        raise ValueError("base point must lie in the closure of the polygon")
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0 or np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing and positive")
    vals = np.array([polygon_disk_area(poly, a, r) / (r * r) for r in radii])
    jumps = np.diff(vals)
    if np.any(jumps > 1e-10 * np.maximum(1.0, np.abs(vals[:-1]))):
        raise RuntimeError("Bishop-Gromov profile increased beyond tolerance; internal inconsistency")
    return vals


# ---------------------------------------------------------------------------
# corner wedges


class CornerParams(NamedTuple):
    """Smallest interior angle and half the largest admissible wedge radius."""

    alpha: float
    R: float


def _containment_sup(poly):
    """Largest r with every corner wedge W_i(r) inside the polygon (closed form).

    The maximum of a linear functional over a sector with angle < pi is
    attained at the apex, at an arc endpoint, or at the arc point aligned with
    the functional, so containment in each edge half-plane gives an explicit
    bound (b_j - n_j . v_i) / m_ij.
    """
    unit = poly._edges / poly._lengths[:, None]
    sup = np.inf
    for i in range(poly.n):
        # the wedge at v_i spans the cone from the outgoing edge d1 to the
        # reversed incoming edge d2, counterclockwise
        d1, d2 = unit[i], -unit[i - 1]
        for j in range(poly.n):
            nrm = poly.normals[j]
            m = max(0.0, float(np.dot(nrm, d1)), float(np.dot(nrm, d2)))
            if _cross(d1, nrm) >= 0.0 and _cross(nrm, d2) >= 0.0:
                m = 1.0
            if m > 1e-14:
                gap = poly.offsets[j] - float(np.dot(nrm, poly.vertices[i]))
                sup = min(sup, gap / m)
    return float(sup)


def corner_params(poly):
    """Smallest interior angle alpha and R = sup{r : wedges W_i(r) pairwise disjoint
    and contained in the polygon} / 2, in closed form.

    Lemma: for i != j the closed wedges W_i(r) and W_j(r) meet if and only if
    r >= |v_i - v_j| / 2.  If: the polygon lies in v_i + cone_i, so v_j - v_i is
    in cone_i, and symmetrically at v_j; the midpoint (v_i + v_j) / 2 is at
    distance |v_i - v_j| / 2 from both apexes and in both cones.  Only if: below
    that radius the two discs are already disjoint.  Hence the supremum is
    min(containment radius, min_{i != j} |v_i - v_j| / 2).
    """
    v = poly.vertices
    pair = np.sqrt(((v[:, None] - v[None]) ** 2).sum(-1))
    np.fill_diagonal(pair, np.inf)
    sup = min(_containment_sup(poly), 0.5 * float(pair.min()))
    return CornerParams(float(np.min(poly.angles)), 0.5 * sup)


def random_convex_polygon(rng, scale=1.0):
    """Random strictly convex polygon (hull of uniform points), for test sweeps."""
    for _ in range(100):
        k = int(rng.integers(4, RANDOM_POLYGON_MAX_POINTS + 1))
        pts = rng.random((k, 2)) * scale
        try:
            hull = ConvexHull(pts)
        except Exception:
            continue
        loop = _sanitize_loop(pts[hull.vertices], scale)
        if loop is None:
            continue
        try:
            return ConvexPolygon(loop)
        except ValueError:
            continue
    raise RuntimeError("failed to generate a random convex polygon")
