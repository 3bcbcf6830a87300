"""Exact and discretized planar Laplace spectra plus the functionals built on them.

Domains (Rectangle, Disk, geometry.ConvexPolygon) share area, perimeter, inradius, angles
(None for the disk), corners() (not the disk), key(), a count bound and spectrum(bc,
lambda_max, h): lattice sums, Bessel zeros or 5-point FD.  On a Spectrum sit the counting
function (strict inequality), Riesz means, heat traces with a tail bound from the domain's
count bound, rectangle pointwise spectral functions and the Dirichlet/Neumann gap.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu
from scipy.special import j0, j1, jv, jvp

from .constants import DIRICHLET, NEUMANN, check_bc, check_nonnegative, check_positive
from .geometry import ConvexPolygon, corner_params

# memory cap: eigenvalues enumerated, Bessel-zero table entries, or FD box grid points
MAX_EIGENVALUES = 5_000_000

# Bessel-zero grid step: below every gap (> 2.9) between consecutive zeros of J_nu or of J_nu'
# and every j'_{nu,1} - nu (> 0.8); a grid that missed a zero fails disk_spectrum's count check
BESSEL_GRID_STEP = 0.5

# eigenpairs per shift-invert window of the FD solve
FD_WINDOW_PAIRS = 75

# Ritz vectors lifted from the half-size matrix to the 5-point matrix at a time
LIFT_COLUMNS = 16

# relative steps down from an FD cut whose count is not trusted: at a round cut
# M - shift*I can be a multiple of an integer matrix with an exactly singular leading
# minor, and 1e-6 already lifts that pivot far above roundoff
FD_CUT_STEPS = (0.0, 1e-6, 1e-4)


class CapacityError(RuntimeError):
    """Requested enumeration would exceed the configured memory cap."""


class CertifiedRangeError(ValueError):
    """Query above the spectrum's completeness threshold."""


class InsufficientResolutionError(ValueError):
    """Discretization grid too coarse for the eigenvalues below the requested threshold."""


@dataclass(frozen=True)
class Rectangle:
    a: float
    b: float
    angles = (0.5 * math.pi,) * 4

    def __post_init__(self):
        check_positive(self.a, "rectangle side a")
        check_positive(self.b, "rectangle side b")

    @property
    def area(self):
        return self.a * self.b

    @property
    def perimeter(self):
        return 2.0 * (self.a + self.b)

    @property
    def inradius(self):
        return 0.5 * min(self.a, self.b)

    def key(self):
        return {"shape": "rectangle", "a": self.a, "b": self.b}

    def corners(self):
        return corner_params(ConvexPolygon.rectangle(self.a, self.b))

    def spectrum(self, bc, lambda_max, h=None):
        if h is not None:
            raise ValueError("--grid-h applies to polygon domains only")
        return rectangle_spectrum(self.a, self.b, bc, lambda_max)

    def _count_bound(self):
        """(c0, c1, c2) with N(mu) <= c0 + c1 sqrt(mu) + c2 mu under both conditions: N_N(mu) <=
        (a sqrt(mu)/pi + 1)(b sqrt(mu)/pi + 1) on the lattice, and N_D(mu) <= N_N(mu) by min-max."""
        return 1.0, (self.a + self.b) / math.pi, self.a * self.b / math.pi**2


@dataclass(frozen=True)
class Disk:
    radius: float
    angles = None

    def __post_init__(self):
        check_positive(self.radius, "disk radius")

    @property
    def area(self):
        return math.pi * self.radius**2

    @property
    def perimeter(self):
        return 2.0 * math.pi * self.radius

    @property
    def inradius(self):
        return self.radius

    def key(self):
        return {"shape": "disk", "radius": self.radius}

    def spectrum(self, bc, lambda_max, h=None):
        if h is not None:
            raise ValueError("--grid-h applies to polygon domains only")
        return disk_spectrum(self.radius, bc, lambda_max)

    def _count_bound(self):
        """As Rectangle's, from N_N(mu) <= 1 + N_D(mu) + 2 ceil(R sqrt(mu)) <= 3 + 2R sqrt(mu) + R^2 mu/2.

        The J_nu' and J_nu zeros interlace (DLMF 10.21(i)), leaving each order 1 <= nu < R sqrt(mu)
        at most one more J_nu' zero than J_nu zeros; Li-Yau gives N_D(mu) <= |Omega| mu / (2 pi).
        N_D(mu) <= N_N(mu) by min-max, so the bound holds for both conditions."""
        return 3.0, 2.0 * self.radius, 0.5 * self.radius**2


# saved key's "shape" -> constructor taking the key's other entries
_DOMAINS = {"rectangle": Rectangle, "disk": Disk, "polygon": ConvexPolygon}


class Spectrum:
    """Sorted eigenvalue list with multiplicities expanded, certified below a threshold:
    every eigenvalue < complete_below is present.
    """

    def __init__(self, eigenvalues, bc, complete_below, domain, exact):
        ev = np.asarray(eigenvalues, dtype=float)
        if ev.ndim != 1:
            raise ValueError("eigenvalues must be a flat list")
        if not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be finite")
        if not np.all(np.diff(ev) >= 0):
            raise ValueError("eigenvalues must be nondecreasing")
        if np.any(ev < 0):
            raise ValueError("negative eigenvalue")
        self.bc = check_bc(bc)
        check_positive(complete_below, "complete_below")
        if self.bc == DIRICHLET and len(ev) and ev[0] <= 0:
            raise ValueError("Dirichlet spectra are strictly positive")
        if self.bc == NEUMANN and len(ev) and ev[0] != 0.0:
            raise ValueError("Neumann spectra on connected domains start at 0")
        self.eigenvalues = ev
        self.complete_below = float(complete_below)
        self.domain = domain.key()
        self.count_bound = domain._count_bound()
        self.exact = bool(exact)

    def __len__(self):
        return len(self.eigenvalues)

    def save(self, path):
        """A JSON header line, then `index,eigenvalue,group` lines (%.17g, so load reads back
        the same bits); the group numbers the distinct values, so equal eigenvalues share one."""
        ev = self.eigenvalues
        groups = np.cumsum(np.diff(ev, prepend=ev[:1]) != 0)
        header = {
            "bc": self.bc,
            "domain": self.domain,
            "complete_below": self.complete_below,
            "exact": self.exact,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(f"{i},{v:.17g},{g}\n" for i, (v, g) in enumerate(zip(ev, groups)))

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            header = json.loads(fh.readline())
            evs = [float(ev) for _, ev, _ in (line.split(",") for line in fh if line.strip())]
        key = header["domain"]
        shape = key.pop("shape")
        if shape not in _DOMAINS:
            raise ValueError(f"unknown domain shape {shape!r}")
        return cls(evs, header["bc"], header["complete_below"], _DOMAINS[shape](**key),
                   header["exact"])


def _first_index(bc):
    """Smallest lattice index: Dirichlet modes start at 1, Neumann modes at 0."""
    return 1 if bc == DIRICHLET else 0


def _expand(m, top, lo):
    """Explicit (m, n) pairs for n = lo..top[i] on row m[i], m-major."""
    cnt = np.maximum(top - lo + 1, 0).astype(np.int64)
    if cnt.sum() > MAX_EIGENVALUES:
        raise CapacityError(f"{cnt.sum()} lattice terms exceed cap {MAX_EIGENVALUES}")
    rows = np.repeat(np.arange(m.size), cnt)
    n = lo + np.arange(rows.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return m[rows], n.astype(float)


def _rectangle_modes(a, b, bc, lam):
    """Lattice modes (m, n, ev) below lam, m-major, with ev = pi^2(m^2/a^2 + n^2/b^2).

    Dirichlet takes m, n >= 1, Neumann m, n >= 0.  The rows and each row's n run
    one past their real-valued bounds and the filter ev < lam decides, so rounding
    in a bound cannot drop a mode.
    """
    lo = _first_index(bc)
    pi2 = math.pi**2
    m_hi = int(math.floor(a * math.sqrt(max(lam - pi2 * lo / (b * b), 0.0)) / math.pi)) + 1
    if m_hi > MAX_EIGENVALUES:
        raise CapacityError(f"{m_hi} lattice rows exceed cap {MAX_EIGENVALUES}")
    m = np.arange(lo, m_hi + 1, dtype=float)
    rem = np.maximum(lam - pi2 * m * m / (a * a), 0.0)
    m, n = _expand(m, np.floor(b * np.sqrt(rem) / math.pi) + 1, lo)
    ev = pi2 * (m * m / (a * a) + n * n / (b * b))
    keep = ev < lam
    return m[keep], n[keep], ev[keep]


def rectangle_spectrum(a, b, bc, lambda_max):
    """All eigenvalues pi^2(m^2/a^2 + n^2/b^2) below lambda_max (Dirichlet m,n>=1, Neumann m,n>=0)."""
    rect = Rectangle(a, b)
    check_positive(lambda_max, "lambda_max")
    bc = check_bc(bc)
    ev = np.sort(_rectangle_modes(a, b, bc, lambda_max)[2])
    return Spectrum(ev, bc, lambda_max, rect, exact=True)


def _bessel_sweep(x, first):
    """Yield (nu, x, J_{nu-1}(x), J_nu(x)) on x[first[nu]:] for nu = 0 .. len(first) - 1.

    Upward recurrence J_{nu+1} = (2 nu / x) J_nu - J_{nu-1} from J_{-1} = -J_1 and J_0.
    It is stable while nu < x, so first must be nondecreasing and drop every x <= nu.
    """
    prev, cur, done = -j1(x), j0(x), 0
    for nu, lo in enumerate(first):
        x, prev, cur, done = x[lo - done:], prev[lo - done:], cur[lo - done:], lo
        yield nu, x, prev, cur
        prev, cur = cur, (2.0 * nu / x) * cur - prev


def _bessel_brackets(x_end, nu_stop, derivative):
    """(nu, a, signbit of f(a)), nu-major, for every grid cell [a, a + BESSEL_GRID_STEP]
    above nu < nu_stop where f = J_nu (J_nu') changes sign."""
    x = BESSEL_GRID_STEP * np.arange(1, math.ceil(x_end / BESSEL_GRID_STEP) + 2)
    out = []
    for nu, xs, prev, cur in _bessel_sweep(x, np.searchsorted(x, np.arange(nu_stop), side="right")):
        s = np.signbit(prev - nu / xs * cur if derivative else cur)
        i = np.flatnonzero(s[:-1] != s[1:])
        out.append((np.full(i.size, nu), xs[i], s[i]))
    return tuple(np.concatenate(col) for col in zip(*out))


def _raise_unless(ok, what, k0=1):
    for nu, k in np.argwhere(~ok)[:1]:
        raise RuntimeError(f"Bessel {what} failure at (nu={nu}, k={k + k0})")


def _bessel_zeros(x_end, nu_stop, derivative):
    """Z[nu, k] = (k+1)-th zero of J_nu (nonzero zero of J_nu'), inf-padded, every zero below
    the grid end (> x_end) for nu < nu_stop.  Safeguarded Newton refines all brackets at
    once; then AMOS residual and ordering are checked, and disk_spectrum counts each row."""
    nu, a, sa = _bessel_brackets(x_end, nu_stop, derivative)
    b, z = a + BESSEL_GRID_STEP, a + 0.5 * BESSEL_GRID_STEP
    first = np.searchsorted(nu, np.arange(nu_stop + 1))
    for _ in range(60):  # Newton takes ~7 steps, bisection alone < 50
        prev, cur = np.empty_like(z), np.empty_like(z)
        for n, _, p, c in _bessel_sweep(z, first[:-1]):
            lo, hi = first[n], first[n + 1]
            prev[lo:hi], cur[lo:hi] = p[:hi - lo], c[:hi - lo]
        jp = prev - nu / z * cur  # J_nu', and J_nu'' below from Bessel's equation
        f, df = (jp, -jp / z - (1.0 - (nu / z) ** 2) * cur) if derivative else (cur, jp)
        left = np.signbit(f) == sa
        a, b = np.where(left, z, a), np.where(left, b, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = z - f / df
        # closed bracket: an open one would bounce converged points to the midpoint
        step = np.where((a <= step) & (step <= b), step, 0.5 * (a + b))
        moved, z = np.abs(step - z) > 4.0 * np.spacing(z), step
        if not moved.any():
            break
    else:
        raise RuntimeError("Bessel zero Newton iteration did not converge in 60 steps")
    k = np.arange(z.size) - first[nu]
    Z = np.full((nu_stop, k.max() + 2 if k.size else 1), np.inf)
    Z[nu, k] = z
    ok = np.ones(Z.shape, dtype=bool)
    ok[nu, k] = np.abs(jvp(nu, z) if derivative else jv(nu, z)) <= 1e-9
    _raise_unless(ok, "zero residual")
    _raise_unless((Z[:, :-1] < Z[:, 1:]) | np.isinf(Z[:, 1:]), "ordering", 2)
    return Z


def _bessel_counts(x, derivative):
    """N[nu] = #zeros of J_nu (nonzero zeros of J_nu') below x, nu < ceil(x), from signs at x (DLMF
    10.21(i)): J_nu > 0 on (0, j_{nu,1}), j_{nu,1} > nu and the J_nu, J_{nu+1} zeros interlace, so
    N_nu - N_{nu+1} = [J_nu(x) J_{nu+1}(x) < 0]; J_nu' zeros interlace with J_nu zeros, so N'_nu is
    N_nu or N_nu + 1 by the parity of [J_nu'(x) < 0] (nu >= 1), N'_0 = N_1.  Each sign, of J_nu and
    J_nu' alike, counts only if |f(x)| > 16 x eps sqrt(2/(pi x)) (AMOS errs more at large x)."""
    nu = np.arange(math.ceil(x))
    f = np.array([jv(nu, x)] + ([jvp(nu, x)] if derivative else []))
    if np.abs(f).min() <= 16.0 * np.finfo(float).eps * math.sqrt(2.0 * x / math.pi):
        raise RuntimeError(f"Bessel zero count not certified: x = {x!r} is within roundoff of a zero")
    s = np.signbit(np.append(f[0], 1.0))  # J_{ceil(x)}(x) > 0 as j_{nu,1} > nu
    n = np.append(np.cumsum((s[:-1] != s[1:])[::-1])[::-1], 0)
    return np.append(n[1], n[1:-1] + (n[1:-1] % 2 != np.signbit(f[1, 1:]))) if derivative else n[:-1]


def disk_spectrum(radius, bc, lambda_max):
    """Disk eigenvalues (z/R)^2 over Bessel zeros z < R*sqrt(lambda_max), multiplicity 2 for nu>=1."""
    disk = Disk(radius)
    check_positive(lambda_max, "lambda_max")
    bc = check_bc(bc)
    x_max = radius * math.sqrt(lambda_max)
    derivative = bc == NEUMANN
    # the zero table has ceil(x_max) rows of about x_max/pi + 2 entries, more than the
    # N ~ x_max^2 / 4 eigenvalues; refuse before allocating either
    cells = math.ceil(x_max) * (x_max / math.pi + 2.0)
    if cells > MAX_EIGENVALUES:
        raise CapacityError(f"disk at R^2 lambda = {x_max**2:.4g} needs ~{cells:.3g} Bessel-zero"
                            f" table entries, above the cap {MAX_EIGENVALUES}")
    count = _bessel_counts(x_max, derivative)
    Z = _bessel_zeros(x_max, count.size, derivative)
    _raise_unless((Z < x_max) == (np.arange(Z.shape[1]) < count[:, None]), "zero count")
    nu, k = np.nonzero(Z < x_max)
    vals = np.repeat((Z[nu, k] / radius) ** 2, np.where(nu == 0, 1, 2))
    if derivative:  # constant mode
        vals = np.concatenate(([0.0], vals))
    return Spectrum(np.sort(vals), bc, lambda_max, disk, exact=True)


def _ldlt(A, shift):
    """Sparse LU of A - shift*I in symmetric mode: with diagonal pivots and one symmetric
    permutation it is L D L^T with D = diag(U), so its inertia is that of A - shift*I."""
    return splu((A - shift * sparse.identity(A.shape[0], format="csr")).tocsc(),
                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _count_from(M, d, cut):
    """(c, eigenvalues below c) of A = d*I - [[0, C^T], [C, 0]], M = C^T C, at the first
    c = cut * (1 - s), s in FD_CUT_STEPS, whose L D L^T of M - (d - c)^2 I is trusted: it keeps
    diagonal pivots, and none is within n*eps*max|pivot| of zero (n the order of M), where its
    sign would be roundoff.  The count is that of the mu > (d - c)^2, by Sylvester's law of
    inertia; when no step is trusted, the last refusal is raised."""
    for step in FD_CUT_STEPS:
        c = cut * (1.0 - step)
        lu = _ldlt(M, (d - c) ** 2)
        if not np.array_equal(lu.perm_r, lu.perm_c):
            refusal = "pivoted off the diagonal"
            continue
        pivots = lu.U.diagonal()
        if np.min(np.abs(pivots)) > M.shape[0] * np.finfo(float).eps * np.max(np.abs(pivots)):
            return c, int(np.count_nonzero(pivots > 0))
        refusal = "has a roundoff pivot"
    raise RuntimeError(f"inertia factorization at {c} {refusal}; count not certified")


def polygon_dirichlet_spectrum_fd(poly, h, lambda_max):
    """Every 5-point Dirichlet eigenvalue on an h-aligned grid below a top cut <= lambda_max.

    The grid graph is bipartite, so with the unknowns ordered by colour, smaller colour
    first, A = d*I - [[0, C^T], [C, 0]] with d = 4/h^2, and every eigenvalue below d is
    d - sqrt(mu) for an eigenvalue mu > 0 of M = C^T C, which has half the unknowns.  The
    inertia of M gives the count N below top <= lambda_max < d.  [0, top) is sliced into
    ceil(N / FD_WINDOW_PAIRS) equal windows, each cut's count again from inertia.  Each
    window runs one shift-invert eigsh on M at the midpoint of its mu-interval, for its
    count c plus two pairs, on the same kind of symmetric L D L^T that gives the counts.
    Each Ritz vector x is lifted once to z = (x, C x / sqrt(mu)) / |.|, whose Rayleigh
    quotient w on A is its value; every pair's residual on A must be small.  A window
    certifies its own pairs: it must hold exactly c Ritz values, their vectors Z must have
    Z^T Z = I to 1e-8 per entry, and every Ritz value must lie more than 2 r_win from the
    interior cuts, where r_win >= ||A Z - Z diag(w)||_2 is the 2-norm of its residuals.
    Kahan's theorem (Parlett, The Symmetric Eigenvalue Problem, ch. 11) then gives c
    distinct eigenvalues of A, each within sqrt(2) r_win / sigma_min(Z) < 2 r_win of its
    Ritz value, since sigma_min(Z)^2 >= 1 - 1e-8 c > 1/2 for c < n_s <= MAX_EIGENVALUES.
    They lie in the window, which holds exactly c by inertia: each eigenvalue there is
    matched once, and no pair can repeat across the disjoint windows.  No eigenvalue lies
    below the cut 0; the top cut is not tested.  A Ritz value within 2 r_win of an interior
    cut drops that cut, and the two windows beside it are solved again as one; each merge
    removes a cut, so this ends at the latest in a single window.  A cut, lambda_max
    included, whose L D L^T is not trusted is counted a little lower (_count_from); the
    spectrum is complete below the top cut.
    """
    check_positive(h, "h")
    r_in = poly.inradius
    if not h < 0.5 * r_in:
        raise ValueError(f"h = {h} must be smaller than half the inradius {r_in}")
    check_positive(lambda_max, "lambda_max")
    d = 4.0 / h**2
    if not lambda_max < d:
        raise InsufficientResolutionError(f"lambda_max = {lambda_max} must lie below 4/h^2 = {d}")
    xmin, ymin = poly.vertices.min(axis=0)
    xmax, ymax = poly.vertices.max(axis=0)
    i_lo, i_hi = int(math.floor(xmin / h)), int(math.ceil(xmax / h))
    j_lo, j_hi = int(math.floor(ymin / h)), int(math.ceil(ymax / h))
    box = (i_hi - i_lo + 1) * (j_hi - j_lo + 1)
    if box > MAX_EIGENVALUES:
        raise CapacityError(f"FD grid of {box} box points at h = {h} exceeds cap {MAX_EIGENVALUES}")
    ii = np.arange(i_lo, i_hi + 1)
    jj = np.arange(j_lo, j_hi + 1)
    X, Y = np.meshgrid(ii * h, jj * h, indexing="ij")
    pts = np.column_stack((X.ravel(), Y.ravel()))
    margin = 1e-6 * h  # grid points essentially on the boundary count as outside
    keep = np.flatnonzero(np.all(pts @ poly.normals.T < poly.offsets[None, :] - margin, axis=1))
    n_pts = len(keep)
    # red-black colouring; the smaller colour's n_s points come first
    row, col = np.divmod(keep, len(jj))
    black = (row + col) % 2 == 1
    if 2 * np.count_nonzero(black) > n_pts:
        black = ~black
    keep = keep[np.argsort(black, kind="stable")]
    n_s = n_pts - int(np.count_nonzero(black))
    # 5-point Laplacian of the whole box restricted to the interior points: the
    # neighbours outside the polygon drop out, which is the Dirichlet condition
    d2 = [sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) for n in (len(jj), len(ii))]
    A = sparse.kronsum(*d2, format="csr")[keep][:, keep] / h**2
    C = -A[n_s:, :n_s]
    if (abs(A - sparse.bmat([[None, -C.T], [-C, None]]) - d * sparse.identity(n_pts)) > 0).nnz:
        raise RuntimeError("FD Laplacian is not 4/h^2 minus a symmetric red-black coupling")
    M = (C.T @ C).tocsr()
    top, num_eigs = _count_from(M, d, lambda_max)
    if n_s < max(num_eigs, 3) + 2:
        raise InsufficientResolutionError(f"grid has {n_s} unknowns per colour for N({top}) = {num_eigs}")
    n_win = max(1, math.ceil(num_eigs / FD_WINDOW_PAIRS))
    cuts = [top * j / n_win for j in range(n_win + 1)]
    below = [0] * n_win + [num_eigs]
    for i in range(1, n_win):
        cuts[i], below[i] = _count_from(M, d, cuts[i])
    # seeded start vector, so identical inputs give identical bytes; a constant
    # vector would be orthogonal to every odd eigenvector of a symmetric domain
    v0 = np.random.default_rng(0).standard_normal(n_s)
    norm_a = 8.0 / h**2
    vals, j = np.empty(num_eigs), 0
    while j < n_win:
        lo, hi, count = cuts[j], cuts[j + 1], below[j + 1] - below[j]
        if count < 0:
            raise RuntimeError(f"inertia count at {hi} is below the inertia count at {lo}")
        sigma = 0.5 * ((d - lo) ** 2 + (d - hi) ** 2)
        lu = _ldlt(M, sigma)
        mu, x = eigsh(M, k=min(count + 2, n_s - 1), sigma=sigma, which="LM", v0=v0,
                      OPinv=LinearOperator(M.shape, matvec=lu.solve, dtype=float))
        del lu
        z, w, resid = np.empty((n_pts, len(mu))), np.empty(len(mu)), np.empty(len(mu))
        for c in range(0, len(mu), LIFT_COLUMNS):
            b = slice(c, c + LIFT_COLUMNS)
            zb = z[:, b]
            zb[:n_s], zb[n_s:] = x[:, b], C @ x[:, b] / np.sqrt(mu[b])
            zb /= np.linalg.norm(zb, axis=0)
            Az = A @ zb
            w[b] = np.einsum("ij,ij->j", zb, Az)
            resid[b] = np.linalg.norm(Az - zb * w[b], axis=0)
        del x  # before the next window's eigsh builds its workspace
        order = np.argsort(w)
        w, resid = w[order], resid[order]
        if not np.all(resid <= 1e-9 * norm_a):
            worst = int(np.argmax(resid))
            raise RuntimeError(f"FD eigenpair {worst} residual {resid[worst]:.3e} exceeds 1e-9*||A|| = {1e-9 * norm_a:.3e}")
        r_win = np.linalg.norm(resid)
        near = [i for i in (j, j + 1) if 0 < i < n_win and np.any(np.abs(w - cuts[i]) <= 2.0 * r_win)]
        if near:
            i = near[0]
            del cuts[i], below[i]
            n_win, j = n_win - 1, i - 1
            continue
        inside = (w >= lo) & (w < hi)
        if np.count_nonzero(inside) != count:
            raise RuntimeError(f"eigsh finds {np.count_nonzero(inside)} eigenvalues in [{lo}, {hi}),"
                               f" the inertia count {count}")
        # orthonormality rules out one eigenpair returned twice in place of another
        cols = order[inside]
        gram = np.abs((z.T @ z)[np.ix_(cols, cols)] - np.eye(count)).max(initial=0.0)
        if gram > 1e-8:
            raise RuntimeError(f"FD eigenvectors in [{lo}, {hi}) are not orthonormal:"
                               f" max |Z^T Z - I| = {gram:.3e}")
        vals[below[j]:below[j + 1]] = w[inside]
        j += 1
    return Spectrum(vals, DIRICHLET, top, poly, exact=False)


def counting_function(spec, lam):
    """Number of eigenvalues strictly below lam (0 for lam <= 0); NaN and lam > complete_below raise."""
    if not lam <= spec.complete_below:
        raise CertifiedRangeError(f"lambda = {lam} is not <= the completeness threshold {spec.complete_below}")
    return int(np.searchsorted(spec.eigenvalues, lam, side="left"))


def riesz_mean(spec, lam, gamma):
    """Riesz mean of order gamma at lam: sum of (lam - lambda_n)^gamma over lambda_n < lam."""
    check_nonnegative(gamma, "gamma")
    k = counting_function(spec, lam)
    d = lam - spec.eigenvalues[:k]
    return float(np.sum(d**gamma))


def heat_trace(spec, t):
    """Heat trace over the certified part of the spectrum plus a tail bound.

    The omitted tail sum_{lambda_n >= Lambda} e^{-t lambda_n}, Lambda = complete_below, is at
    most t int_Lambda^inf e^{-t mu} N(mu) dmu for any bound N on the count; this takes the
    domain's own N(mu) <= c0 + c1 sqrt(mu) + c2 mu, and the erfc term is the integral of
    c1 sqrt(mu).
    """
    check_positive(t, "t")
    ev = spec.eigenvalues[spec.eigenvalues < spec.complete_below]
    value = float(np.sum(np.exp(-t * ev)))
    lam = spec.complete_below
    x = t * lam
    c0, c1, c2 = spec.count_bound
    tail = ((c0 + c1 * math.sqrt(lam) + c2 * (lam + 1.0 / t)) * math.exp(-x)
            + 0.5 * c1 * math.sqrt(math.pi / t) * math.erfc(math.sqrt(x)))
    return value, tail


def pointwise_spectral_function(rect, x, lam, gamma, bc):
    """(-Delta - lam)_-^gamma (x,x) on a rectangle via the explicit eigenfunctions.

    lam is a scalar or a 1-D grid; the modes are enumerated once, below
    max(lam) (1 + 1e-9), and each value is a dot product of the weights
    |u_mn(x)|^2 with (lam - lambda_mn)_+^gamma, or with [lambda_mn < lam] at gamma = 0.
    """
    bc = check_bc(bc)
    check_nonnegative(gamma, "gamma")
    px, py = float(x[0]), float(x[1])
    if not (0.0 < px < rect.a and 0.0 < py < rect.b):
        raise ValueError("x must lie strictly inside the rectangle")
    lams = np.asarray(lam, dtype=float)
    if not (lams.size and np.all(np.isfinite(lams))):
        raise ValueError("lambda grid must be finite and non-empty")
    m, n, ev = _rectangle_modes(rect.a, rect.b, bc, float(np.max(lams)) * (1.0 + 1e-9))
    # |u_mn(x)|^2 = w_m w_n / |Omega| f(m pi x / a)^2 f(n pi y / b)^2, w = 1 at index 0, else 2
    f = np.sin if bc == DIRICHLET else np.cos
    amp = (np.where(m == 0, 1.0, 2.0) * np.where(n == 0, 1.0, 2.0) / (rect.a * rect.b)
           * f(m * math.pi * px / rect.a) ** 2 * f(n * math.pi * py / rect.b) ** 2)
    vals = np.array([amp @ (np.clip(l - ev, 0.0, None) ** gamma if gamma > 0 else ev < l)
                     for l in lams.ravel()])
    return float(vals[0]) if lams.ndim == 0 else vals


def dirichlet_neumann_trace_gap(spec_d, spec_n, lam, gamma=1.0):
    """f(lam) = Tr(-Delta^N - lam)_-^gamma - Tr(-Delta^D - lam)_-^gamma (>= 0)."""
    if spec_d.domain != spec_n.domain:
        raise ValueError("mismatched domains")
    if spec_d.bc != DIRICHLET or spec_n.bc != NEUMANN:
        raise ValueError("pass (dirichlet, neumann) spectra in that order")
    return riesz_mean(spec_n, lam, gamma) - riesz_mean(spec_d, lam, gamma)
