"""Convex polygon geometry: inradius, inner parallel bodies, boundary layers, corner data.

Every quantity here comes from a closed form.  One edge-collapse (straight
skeleton) pass per polygon gives the Chebyshev center, the inradius and the
piecewise-quadratic area of the inner parallel bodies, hence the boundary-layer
functional; disk intersections come from Green's theorem; the corner-separation
radius from the containment bound and half the closest vertex distance.  Nothing
is iterative: there is no linear program and no search.
"""

import functools
import json
import math
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .constants import DIRICHLET, check_bc, check_positive

RANDOM_POLYGON_MAX_POINTS = 10


def _cross(u, v):
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _ang(u, v):
    """Signed angle from u to v in (-pi, pi] (last axis); zero where either is (near) null."""
    null = (np.sum(u * u, axis=-1) < 1e-300) | (np.sum(v * v, axis=-1) < 1e-300)
    return np.where(null, 0.0, np.arctan2(_cross(u, v), np.sum(u * v, axis=-1)))


class ConvexPolygon:
    """Strictly convex polygon with counterclockwise vertices.

    Construction validates finite vertices, orientation, strict convexity
    (relative cross product tolerance 1e-12, i.e. turning sines must exceed it),
    and that the interior angles sum to (n-2)*pi within 1e-10.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("need at least 3 planar vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        n = v.shape[0]
        nxt = np.arange(1, n + 1) % n
        e = v[nxt] - v
        lengths = np.hypot(e[:, 0], e[:, 1])
        if np.any(lengths == 0.0):
            raise ValueError("duplicate consecutive vertices")
        sines = _cross(e, e[nxt]) / (lengths * lengths[nxt])
        twice_area = _cross(v, v[nxt])
        if np.any(sines <= 0.0):
            if np.sum(twice_area) < 0:
                raise ValueError("vertices must be in counterclockwise order")
            raise ValueError("polygon is not strictly convex")
        if np.any(sines <= 1e-12):
            raise ValueError("near-degenerate corner (turning sine <= 1e-12)")
        self.vertices = v
        self._edges = e
        self._lengths = lengths
        # interior angle at vertex i sits between incoming edge e_{i-1} and
        # outgoing edge e_i: alpha_i = pi - turn_i
        e_in = e[nxt - 2]
        self.angles = math.pi - np.arctan2(_cross(e_in, e), np.sum(e_in * e, axis=1))
        if abs(float(np.sum(self.angles)) - (n - 2) * math.pi) > 1e-10:
            raise ValueError("interior angles do not sum to (n-2)*pi")
        self.area = float(0.5 * np.sum(twice_area))
        self.perimeter = float(np.sum(lengths))
        # outward unit normals (rotate edge direction by -90 degrees) and offsets
        self.normals = np.column_stack((e[:, 1], -e[:, 0])) / lengths[:, None]
        self.offsets = np.einsum("ij,ij->i", self.normals, v)
        self.scale = float(np.max(np.ptp(v, axis=0)))

    @property
    def n(self):
        return self.vertices.shape[0]

    @functools.cached_property
    def _schedule(self):
        # polygons are never mutated
        return _collapse_schedule(self)

    @property
    def inradius(self):
        """The last collapse time of the (cached) edge-collapse schedule."""
        return self._schedule.radius

    def key(self):
        return {"shape": "polygon", "vertices": self.vertices.tolist()}

    def corners(self):
        return corner_params(self)

    def spectrum(self, bc, lambda_max, h=None):
        # 5-point FD; spectra imports this module at load time, so import it here
        from .spectra import polygon_dirichlet_spectrum_fd
        if check_bc(bc) != DIRICHLET:
            raise ValueError("polygon spectra are Dirichlet-only (FD backend)")
        if h is None:
            raise ValueError("polygon spectra need --grid-h")
        return polygon_dirichlet_spectrum_fd(self, h, lambda_max)

    def _count_bound(self):
        """(0, 0, 4|Omega|/pi): N(mu) <= 16 L_{0,2}|Omega| mu, eight times Li-Yau's Dirichlet bound.
        It bounds the 5-point FD count too: Berezin's inequality with the grid symbol >= 4|xi|^2/pi^2
        gives N(mu) <= n h^2 pi mu/8, and n h^2 <= |Omega + B(h/sqrt 2)| < 1.84|Omega| for the n
        grid points inside at h < r_in/2.  Polygon spectra are Dirichlet-only."""
        return 0.0, 0.0, 4.0 * self.area / math.pi

    def contains(self, point, tol=0.0):
        p = np.asarray(point, dtype=float)
        return bool(np.all(self.normals @ p <= self.offsets + tol))

    @classmethod
    def rectangle(cls, a, b):
        check_positive(a, "rectangle side a")
        check_positive(b, "rectangle side b")
        return cls([[0.0, 0.0], [a, 0.0], [a, b], [0.0, b]])

    @classmethod
    def regular(cls, n, area=1.0):
        if n < 3:
            raise ValueError("need n >= 3")
        # circumradius giving the requested area: A = n R^2 sin(2 pi / n) / 2
        big_r = math.sqrt(2.0 * area / (n * math.sin(2.0 * math.pi / n)))
        th = 2.0 * math.pi * np.arange(n) / n
        return cls(np.column_stack((big_r * np.cos(th), big_r * np.sin(th))))


def save_polygon(poly, path):
    with open(path, "w") as fh:
        json.dump({"vertices": poly.vertices.tolist()}, fh)


def load_polygon(path):
    with open(path) as fh:
        return ConvexPolygon(json.load(fh)["vertices"])


class _Schedule(NamedTuple):  # see _collapse_schedule
    center: np.ndarray
    radius: float
    pieces: list


def _collapse_schedule(poly):
    """Edge-collapse (straight-skeleton) schedule of a convex polygon, in closed form.

    The inner parallel body at offset s is {n_k . x <= b_k - s}.  Active edge i
    collapses at the s solving n_k . x + s = b_k for k = prev(i), i, next(i), from
    the original offsets; convex polygons have no split events.  Each stage drops
    the first edge to collapse; the last three lines meet at the Chebyshev center
    at s = inradius (Aichholzer, Aurenhammer, Alberts & Gaertner, J. UCS 1, 1995).
    Between events the area is A(s0 + u) = A(s0) - u P(s0) + u^2 K, with P the
    perimeter and K = sum tan(turn / 2); pieces are (s0, s_end, A(s0), P(s0), K).
    A stage shorter than 1e-12 inradius merges into the one before it.  That
    drops simultaneous collapses, and every stage that starts at the inradius,
    the only place where antiparallel lines become adjacent.
    """
    nrm, off = poly.normals, poly.offsets
    active, stages, s0 = list(range(poly.n)), [], 0.0
    while True:
        m = len(active)
        tri = [(active[j - 1], active[j], active[(j + 1) % m]) for j in range(m)]
        lhs = np.concatenate((nrm[tri], np.ones((m, 3, 1))), axis=2)
        sol = np.linalg.solve(lhs, off[tri][..., None])[..., 0]
        stages.append((s0, active))
        if m == 3:
            break
        j = int(np.argmin(sol[:, 2]))
        s0 = max(s0, float(sol[j, 2]))
        active = active[:j] + active[j + 1:]
    center, r_in = sol[0, :2], float(sol[0, 2])
    tol = max(1e-12 * r_in, 1e-14 * max(poly.scale, 1.0))
    ends = [s for s, _ in stages[1:]] + [r_in]
    stages = [st for k, (st, end) in enumerate(zip(stages, ends)) if k == 0 or end - st[0] > tol]
    ends = [s for s, _ in stages[1:]] + [r_in]
    pieces = []
    for k, ((s_lo, idx), s_hi) in enumerate(zip(stages, ends)):
        nxt = idx[1:] + idx[:1]
        n_a, n_b = nrm[idx], nrm[nxt]
        sin = _cross(n_a, n_b)
        k_sum = float(np.sum(sin / (1.0 + np.sum(n_a * n_b, axis=1))))
        if k == 0:
            area, per = poly.area, poly.perimeter
        else:
            # vertex between active edges j and j+1, at offset b - s_lo
            c_a, c_b = off[idx] - s_lo, off[nxt] - s_lo
            v = np.column_stack((c_a * n_b[:, 1] - c_b * n_a[:, 1],
                                 n_a[:, 0] * c_b - n_b[:, 0] * c_a)) / sin[:, None]
            w = np.concatenate((v[1:], v[:1]))
            area = float(0.5 * np.sum(_cross(v, w)))
            per = float(np.sum(np.hypot(*(w - v).T)))
        pieces.append((s_lo, s_hi, area, per, k_sum))
    return _Schedule(center, r_in, pieces)


def chebyshev_center(poly):
    """Deepest interior point and its distance to the boundary: where the last
    three lines of the polygon's (cached) edge-collapse schedule meet."""
    return poly._schedule.center.copy(), poly._schedule.radius


def inradius(poly):
    return poly.inradius


def distance_level_volume(poly, s):
    """Area of the boundary layer {x in Omega : dist(x, boundary) < s}, 0 <= s <= inradius:
    the polygon's area minus that of its inner parallel body at s."""
    r_in = poly.inradius
    if not (0.0 <= s <= r_in * (1.0 + 1e-12)):
        raise ValueError(f"s = {s} outside [0, inradius = {r_in}]")
    s = min(s, r_in)
    s_lo, _, area, per, k = next(p for p in reversed(poly._schedule.pieces) if p[0] <= s)
    u = s - s_lo
    return poly.area - (area - u * per + u * u * k)


def theta_omega(poly):
    """sup over l > 0 of |{dist to boundary <= l}| / l, from the closed-form pieces.

    For convex polygons the boundary-layer area is l*Per - l^2*K piecewise, so
    the supremum is attained in the limit l -> 0+ and equals the perimeter; the
    value returned is the exact piecewise supremum (which reproduces that fact
    rather than assuming it).
    """
    best = poly.perimeter  # l -> 0+ limit on the first piece
    for (s_a, s_b, a0, p0, k) in poly._schedule.pieces:
        h_a = poly.area - a0

        def g(l):
            u = l - s_a
            return (h_a + u * p0 - u * u * k) / l

        best = max(best, g(s_b))  # pieces are contiguous: this covers every event
        # interior stationary point of g: K u^2 + 2 K s_a u + (h_a - P0 s_a) = 0
        disc = s_a * s_a - (h_a - p0 * s_a) / k if k > 0 else -1.0
        if disc >= 0.0:
            u = -s_a + math.sqrt(disc)
            if 0.0 < u < s_b - s_a:
                best = max(best, g(s_a + u))
    # branch l >= inradius: |Omega|/l maximized at l = r_in
    return max(best, poly.area / poly.inradius)


def _disk_areas(poly, center, radii):
    """|polygon ∩ disk(center, r)| for every r in radii, by Green's theorem, in one
    array pass: edge p -> q adds 0.5 x1 x x2 for its chord x1 x2 inside the disk
    and 0.5 r^2 * angle for each part outside it."""
    p = (poly.vertices - np.asarray(center, dtype=float))[:, None]  # edge, radius, xy
    q = np.roll(p, -1, axis=0)
    d = q - p
    r2 = radii * radii
    a = np.sum(d * d, axis=-1)
    live = a >= 1e-300  # a null edge contributes nothing
    a = np.where(live, a, 1.0)
    b = 2.0 * np.sum(p * d, axis=-1)
    disc = b * b - 4.0 * a * (np.sum(p * p, axis=-1) - r2)
    sq = np.sqrt(np.maximum(disc, 0.0))
    t1, t2 = (-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)
    cuts = (disc > 0.0) & (t2 > 0.0) & (t1 < 1.0)
    x1 = p + np.maximum(t1, 0.0)[..., None] * d
    x2 = p + np.minimum(t2, 1.0)[..., None] * d
    chord = (0.5 * _cross(x1, x2)
             + np.where(t1 > 0.0, 0.5 * r2 * _ang(p, x1), 0.0)
             + np.where(t2 < 1.0, 0.5 * r2 * _ang(x2, q), 0.0))
    terms = np.where(cuts, chord, 0.5 * r2 * _ang(p, q))
    return np.sum(np.where(live, terms, 0.0), axis=0)


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
    vals = _disk_areas(poly, a, radii) / (radii * radii)
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
    # row i: the wedge at v_i spans the cone from the outgoing edge d1 to the
    # reversed incoming edge d2, counterclockwise; column j: edge j's half-plane
    d1 = poly._edges / poly._lengths[:, None]
    d2 = -np.roll(d1, 1, axis=0)
    nrm = poly.normals
    m = np.maximum(0.0, np.maximum(d1 @ nrm.T, d2 @ nrm.T))
    m[(_cross(d1[:, None], nrm) >= 0.0) & (_cross(nrm, d2[:, None]) >= 0.0)] = 1.0
    gap = poly.offsets - poly.vertices @ nrm.T
    keep = m > 1e-14
    return float(np.min(gap[keep] / m[keep], initial=np.inf))


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


def random_convex_polygon(rng):
    """Random strictly convex polygon: the hull of uniform points in the unit square."""
    for _ in range(100):
        k = int(rng.integers(4, RANDOM_POLYGON_MAX_POINTS + 1))
        pts = rng.random((k, 2))
        try:
            return ConvexPolygon(pts[ConvexHull(pts).vertices])
        except (QhullError, ValueError):  # degenerate point set or near-degenerate hull: draw again
            continue
    raise RuntimeError("failed to generate a random convex polygon")
