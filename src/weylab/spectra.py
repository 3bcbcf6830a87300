"""Exact and discretized planar Laplace spectra plus the functionals built on them.

Domains (Rectangle, Disk, geometry.ConvexPolygon) share area, perimeter, inradius,
angles (None for the disk), corners() (not the disk), key() and spectrum(bc,
lambda_max, h): lattice sums, Bessel zeros or 5-point FD.  On a Spectrum sit the
counting function (strict inequality), Riesz means, heat traces with a certified
tail bound, rectangle pointwise spectral functions and the Dirichlet/Neumann gap.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu
from scipy.special import j0, j1, jv, jvp

from .constants import DIRICHLET, NEUMANN, check_bc, lt_constant
from .geometry import ConvexPolygon, corner_params

# memory cap for analytic enumeration (number of eigenvalues)
MAX_EIGENVALUES = 5_000_000

# Bessel-zero grid step: below the smallest gap (> 2.9) between consecutive zeros
# of J_nu or of J_nu', and below every j'_{nu,1} - nu (> 0.8)
BESSEL_GRID_STEP = 0.5

# eigenpairs per shift-invert window of the FD solve
FD_WINDOW_PAIRS = 75


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
        if not (self.a > 0 and self.b > 0):
            raise ValueError("rectangle sides must be > 0")

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
        return rectangle_spectrum(self.a, self.b, bc, lambda_max)

    def _neumann_count_bound(self):
        """(c0, c1, c2) with N_N(mu) <= c0 + c1 sqrt(mu) + c2 mu: (a sqrt(mu)/pi + 1)(b sqrt(mu)/pi + 1)."""
        return 1.0, (self.a + self.b) / math.pi, self.a * self.b / math.pi**2


@dataclass(frozen=True)
class Disk:
    radius: float
    angles = None

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be > 0")

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
        return disk_spectrum(self.radius, bc, lambda_max)

    def _neumann_count_bound(self):
        """As Rectangle's, from N_N(mu) <= 1 + N_D(mu) + 2 ceil(R sqrt(mu)) <= 3 + 2R sqrt(mu) + R^2 mu/2.

        The Rolle interlacing that disk_spectrum certifies leaves each order 1 <= nu < R sqrt(mu)
        at most one more J_nu' zero than J_nu zeros; Li-Yau gives N_D(mu) <= |Omega| mu / (2 pi)."""
        return 3.0, 2.0 * self.radius, 0.5 * self.radius**2


# saved key's "shape" -> constructor taking the key's other entries
_DOMAINS = {"rectangle": Rectangle, "disk": Disk, "polygon": ConvexPolygon}


class Spectrum:
    """Sorted eigenvalue list with multiplicities expanded, certified below a threshold.

    block_ids group entries that belong to one analytic multiplicity block
    (identical eigenvalue); every eigenvalue < complete_below is present.
    """

    def __init__(self, eigenvalues, bc, complete_below, domain, exact, block_ids=None):
        ev = np.asarray(eigenvalues, dtype=float)
        if ev.ndim != 1:
            raise ValueError("eigenvalues must be a flat list")
        if len(ev) and np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        if np.any(ev < 0):
            raise ValueError("negative eigenvalue")
        self.bc = check_bc(bc)
        if not complete_below > 0:
            raise ValueError("complete_below must be > 0")
        if self.bc == DIRICHLET and len(ev) and ev[0] <= 0:
            raise ValueError("Dirichlet spectra are strictly positive")
        if self.bc == NEUMANN and len(ev) and ev[0] != 0.0:
            raise ValueError("Neumann spectra on connected domains start at 0")
        self.eigenvalues = ev
        self.complete_below = float(complete_below)
        self.domain = domain.key()
        self.area = domain.area
        self.neumann_count_bound = domain._neumann_count_bound() if self.bc == NEUMANN else None
        self.exact = bool(exact)
        if block_ids is None:
            block_ids = np.zeros(len(ev), dtype=int)
            if len(ev):
                block_ids[1:] = np.cumsum(ev[1:] != ev[:-1])
        self.block_ids = np.asarray(block_ids, dtype=int)
        if len(self.block_ids) != len(ev):
            raise ValueError("block_ids length mismatch")

    def __len__(self):
        return len(self.eigenvalues)

    def save(self, path):
        header = {
            "bc": self.bc,
            "domain": self.domain,
            "complete_below": self.complete_below,
            "exact": self.exact,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (ev, blk) in enumerate(zip(self.eigenvalues, self.block_ids)):
                fh.write(f"{i},{ev:.17g},{blk}\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            header = json.loads(fh.readline())
            evs, blks = [], []
            for line in fh:
                if not line.strip():
                    continue
                _, ev, blk = line.split(",")
                evs.append(float(ev))
                blks.append(int(blk))
        key = header["domain"]
        shape = key.pop("shape")
        if shape not in _DOMAINS:
            raise ValueError(f"unknown domain shape {shape!r}")
        return cls(evs, header["bc"], header["complete_below"], _DOMAINS[shape](**key),
                   header["exact"], block_ids=blks)


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
    if not (a > 0 and b > 0 and lambda_max > 0):
        raise ValueError("need a, b, lambda_max > 0")
    bc = check_bc(bc)
    ev = np.sort(_rectangle_modes(a, b, bc, lambda_max)[2])
    return Spectrum(ev, bc, lambda_max, Rectangle(a, b), exact=True)


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


def _raise_unless(ok, what, nu0=0, k0=1):
    for nu, k in np.argwhere(~ok)[:1]:
        raise RuntimeError(f"Bessel {what} failure at (nu={nu + nu0}, k={k + k0})")


def _bessel_zeros(x_end, nu_stop, derivative):
    """Z[nu, k] = (k+1)-th zero of J_nu (nonzero zero of J_nu'), inf-padded, every zero below
    the grid end (> x_end) for nu < nu_stop.  Safeguarded Newton refines all brackets at
    once; then AMOS residual, ordering and (J_nu) cross-order interlacing are checked."""
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
    _raise_unless((Z[:, :-1] < Z[:, 1:]) | np.isinf(Z[:, 1:]), "ordering", 0, 2)
    if not derivative:
        _raise_unless((Z[:-1] < Z[1:]) | np.isinf(Z[1:]), "interlacing", 1)
    return Z


def disk_spectrum(radius, bc, lambda_max):
    """Disk eigenvalues (z/R)^2 over Bessel zeros z < R*sqrt(lambda_max), multiplicity 2 for nu>=1."""
    if not (radius > 0 and lambda_max > 0):
        raise ValueError("need radius, lambda_max > 0")
    bc = check_bc(bc)
    x_max = radius * math.sqrt(lambda_max)
    derivative = bc == NEUMANN
    # Rolle: j_{nu,k-1} < j'_{nu,k} < j_{nu,k} with j_{nu,0} = 0, or for nu = 0 (no zero
    # z = 0) j_{0,k} < j'_{0,k} < j_{0,k+1}.  The reference reaches up to ~1.05 nu^(1/3)
    # past a row's last J_nu' zero near the turning point.
    x_ref = x_max + 1.1 * x_max ** (1.0 / 3.0) + math.pi
    # a zero table up to x has ceil(x_max) rows of fewer than x/pi + 2 entries, more than
    # the N ~ x_max^2 / 4 eigenvalues; refuse before allocating either
    cells = math.ceil(x_max) * ((x_ref if derivative else x_max) / math.pi + 2.0)
    if cells > MAX_EIGENVALUES:
        raise CapacityError(f"disk at R^2 lambda = {x_max**2:.4g} needs ~{cells:.3g} Bessel-zero"
                            f" table entries, above the cap {MAX_EIGENVALUES}")
    Z = _bessel_zeros(x_max, math.ceil(x_max), derivative)
    if derivative:
        ref = _bessel_zeros(x_ref, Z.shape[0], False)
        ref = np.pad(ref, ((0, 0), (1, Z.shape[1])), constant_values=((0, 0), (0.0, np.inf)))
        ref[0, :-1] = ref[0, 1:]
        lo, hi = ref[:, :Z.shape[1]], ref[:, 1:Z.shape[1] + 1]
        _raise_unless((lo < Z) & (Z < hi) & (hi < np.inf) | np.isinf(Z), "interlacing")
    nu, k = np.nonzero(Z < x_max)
    mult = np.where(nu == 0, 1, 2)
    vals = np.repeat((Z[nu, k] / radius) ** 2, mult)
    blocks = np.repeat(np.arange(nu.size) + derivative, mult)
    if derivative:  # constant mode
        vals, blocks = np.concatenate(([0.0], vals)), np.concatenate(([0], blocks))
    order = np.argsort(vals, kind="stable")
    return Spectrum(vals[order], bc, lambda_max, Disk(radius), exact=True, block_ids=blocks[order])


def _ldlt(A, shift):
    """Sparse LU of A - shift*I in symmetric mode: with diagonal pivots and one symmetric
    permutation it is L D L^T with D = diag(U), so its inertia is that of A - shift*I."""
    lu = splu((A - shift * sparse.identity(A.shape[0], format="csr")).tocsc(),
              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError(f"inertia factorization at {shift} pivoted off the diagonal; count not certified")
    return lu


def _count_below(A, shift):
    """Eigenvalues of symmetric A below shift, by Sylvester's law of inertia."""
    return int(np.count_nonzero(_ldlt(A, shift).U.diagonal() < 0))


def _gap_cut(w, resid, lo, hi, cut):
    """The midpoint between consecutive sorted Ritz values w that lies in (lo, hi), beyond
    every Ritz value's residual, and nearest to cut."""
    mid = 0.5 * (w[1:] + w[:-1])
    clear = [m for m in mid if lo < m < hi and np.all(np.abs(w - m) > resid)]
    if not clear:
        raise RuntimeError(f"FD window cut {cut} is ambiguous and no clear gap lies in ({lo}, {hi})")
    return min(clear, key=lambda m: abs(m - cut))


def polygon_dirichlet_spectrum_fd(poly, h, lambda_max):
    """Every Dirichlet eigenvalue below lambda_max of the 5-point Laplacian on an h-aligned grid.

    The inertia of A - lambda_max*I gives the count N.  [0, lambda_max) is sliced into
    ceil(N / FD_WINDOW_PAIRS) equal windows, each cut's count again from inertia.  Each
    window runs one shift-invert eigsh at its centre, for its count c plus two pairs, on
    the same kind of symmetric L D L^T that gives the counts.  Every pair must have a
    small residual, each window must hold exactly c Ritz values, and all N vectors must
    be orthonormal.  A Ritz value within its residual of an interior cut moves that cut
    into a clear gap, which is recounted; a second ambiguity there raises.
    """
    if not h > 0:
        raise ValueError("h must be > 0")
    r_in = poly.inradius
    if not h < 0.5 * r_in:
        raise ValueError(f"h = {h} must be smaller than half the inradius {r_in}")
    if not lambda_max > 0:
        raise ValueError("lambda_max must be > 0")
    xmin, ymin = poly.vertices.min(axis=0)
    xmax, ymax = poly.vertices.max(axis=0)
    i_lo, i_hi = int(math.floor(xmin / h)), int(math.ceil(xmax / h))
    j_lo, j_hi = int(math.floor(ymin / h)), int(math.ceil(ymax / h))
    ii = np.arange(i_lo, i_hi + 1)
    jj = np.arange(j_lo, j_hi + 1)
    X, Y = np.meshgrid(ii * h, jj * h, indexing="ij")
    pts = np.column_stack((X.ravel(), Y.ravel()))
    margin = 1e-6 * h  # grid points essentially on the boundary count as outside
    keep = np.flatnonzero(np.all(pts @ poly.normals.T < poly.offsets[None, :] - margin, axis=1))
    n_pts = len(keep)
    # 5-point Laplacian of the whole box restricted to the interior points: the
    # neighbours outside the polygon drop out, which is the Dirichlet condition
    d2 = [sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) for n in (len(jj), len(ii))]
    A = sparse.kronsum(*d2, format="csr")[keep][:, keep] / h**2
    if (abs(A - A.T) > 1e-30).nnz:
        raise RuntimeError("FD Laplacian is not symmetric")
    num_eigs = _count_below(A, lambda_max)
    if n_pts < max(num_eigs, 3) + 2:
        raise InsufficientResolutionError(f"grid has {n_pts} interior points for N({lambda_max}) = {num_eigs}")
    n_win = max(1, math.ceil(num_eigs / FD_WINDOW_PAIRS))
    cuts = [lambda_max * j / n_win for j in range(n_win + 1)]
    below = [0] + [_count_below(A, c) for c in cuts[1:-1]] + [num_eigs]
    # seeded start vector, so identical inputs give identical bytes; a constant
    # vector would be orthogonal to every odd eigenvector of a symmetric domain
    v0 = np.random.default_rng(0).standard_normal(n_pts)
    norm_a = 8.0 / h**2
    vals, vecs = np.empty(num_eigs), np.empty((n_pts, num_eigs))
    moved, j = set(), 0
    while j < n_win:
        lo, hi, count = cuts[j], cuts[j + 1], below[j + 1] - below[j]
        if count < 0:
            raise RuntimeError(f"inertia count at {hi} is below the inertia count at {lo}")
        sigma = 0.5 * (lo + hi)
        lu = _ldlt(A, sigma)
        w, v = eigsh(A, k=min(count + 2, n_pts - 1), sigma=sigma, which="LM", v0=v0,
                     OPinv=LinearOperator(A.shape, matvec=lu.solve, dtype=float))
        del lu
        order = np.argsort(w)
        w, v = w[order], v[:, order]
        resid = np.linalg.norm(A @ v - v * w[None, :], axis=0)
        if np.any(resid > 1e-9 * norm_a):
            worst = int(np.argmax(resid))
            raise RuntimeError(f"FD eigenpair {worst} residual {resid[worst]:.3e} exceeds 1e-9*||A|| = {1e-9 * norm_a:.3e}")
        near = [i for i in (j, j + 1) if 0 < i < n_win and np.any(np.abs(w - cuts[i]) <= resid)]
        if near:
            i = near[0]
            if i in moved:
                raise RuntimeError(f"FD window cut {cuts[i]} stays ambiguous after recounting")
            cuts[i] = _gap_cut(w, resid, cuts[i - 1], cuts[i + 1], cuts[i])
            below[i] = _count_below(A, cuts[i])
            moved.add(i)
            j = i - 1
            continue
        inside = (w >= lo) & (w < hi)
        if np.count_nonzero(inside) != count:
            raise RuntimeError(f"eigsh finds {np.count_nonzero(inside)} eigenvalues in [{lo}, {hi}),"
                               f" the inertia count {count}")
        vals[below[j]:below[j + 1]], vecs[:, below[j]:below[j + 1]] = w[inside], v[:, inside]
        j += 1
    # orthonormality rules out one eigenpair returned twice in place of another
    gram = np.abs(vecs.T @ vecs - np.eye(num_eigs)).max(initial=0.0)
    if gram > 1e-8:
        raise RuntimeError(f"FD eigenvectors are not orthonormal: max |V^T V - I| = {gram:.3e}")
    return Spectrum(vals, DIRICHLET, lambda_max, poly, exact=False)


def counting_function(spec, lam):
    """Number of eigenvalues strictly below lam."""
    if lam > spec.complete_below:
        raise CertifiedRangeError(f"lambda = {lam} above completeness threshold {spec.complete_below}")
    return int(np.searchsorted(spec.eigenvalues, lam, side="left"))


def riesz_mean(spec, lam, gamma):
    """Riesz mean of order gamma at lam: sum of (lam - lambda_n)^gamma over lambda_n < lam."""
    if not gamma >= 0:
        raise ValueError("gamma must be >= 0")
    k = counting_function(spec, lam)
    d = lam - spec.eigenvalues[:k]
    return float(np.sum(d**gamma))


def heat_trace(spec, t):
    """Heat trace over the certified part of the spectrum plus a tail bound.

    The omitted tail sum_{lambda_n >= Lambda} e^{-t lambda_n}, Lambda = complete_below, is at
    most t int_Lambda^inf e^{-t mu} N(mu) dmu for any bound N on the count.  Dirichlet takes
    N(mu) = 16 L_{0,2}|Omega| mu (8 times Li-Yau's), Neumann the domain's c0 + c1 sqrt(mu) + c2 mu;
    the erfc term is the integral of c1 sqrt(mu).
    """
    if not t > 0:
        raise ValueError("t must be > 0")
    ev = spec.eigenvalues[spec.eigenvalues < spec.complete_below]
    value = float(np.sum(np.exp(-t * ev)))
    lam = spec.complete_below
    x = t * lam
    if spec.bc == DIRICHLET:
        tail = 16.0 * lt_constant(0, 2) * spec.area / t * (1.0 + x) * math.exp(-x)
    else:
        c0, c1, c2 = spec.neumann_count_bound
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
    if not gamma >= 0:
        raise ValueError("gamma must be >= 0")
    px, py = float(x[0]), float(x[1])
    if not (0.0 < px < rect.a and 0.0 < py < rect.b):
        raise ValueError("x must lie strictly inside the rectangle")
    lams = np.asarray(lam, dtype=float)
    m, n, ev = _rectangle_modes(rect.a, rect.b, bc, float(np.max(lams)) * (1.0 + 1e-9))
    if bc == DIRICHLET:
        amp = (4.0 / (rect.a * rect.b)) * np.sin(m * math.pi * px / rect.a) ** 2 \
            * np.sin(n * math.pi * py / rect.b) ** 2
    else:
        amp = (np.where(m == 0, 1.0, 2.0) * np.where(n == 0, 1.0, 2.0)
               / (rect.a * rect.b)) * np.cos(m * math.pi * px / rect.a) ** 2 \
            * np.cos(n * math.pi * py / rect.b) ** 2
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
