"""Exact and discretized planar Laplace spectra plus the functionals built on them.

Rectangles and disks get analytically enumerated spectra (lattice sums, Bessel
zeros); convex polygons get a 5-point finite-difference Dirichlet solve.  On
top of a Spectrum sit the counting function (strict inequality), Riesz means,
heat traces with a certified tail bound, pointwise spectral functions for
rectangles, and the Dirichlet/Neumann trace gap.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh, splu
from scipy.special import j0, j1, jv, jvp

from .constants import DIRICHLET, NEUMANN, check_bc, lt_constant
from .geometry import ConvexPolygon, inradius

# memory cap for analytic enumeration (number of eigenvalues)
MAX_EIGENVALUES = 5_000_000

# Bessel-zero grid step: below the smallest gap (> 2.9) between consecutive zeros
# of J_nu or of J_nu', and below every j'_{nu,1} - nu (> 0.8)
BESSEL_GRID_STEP = 0.5


class CapacityError(RuntimeError):
    """Requested enumeration would exceed the configured memory cap."""


class CertifiedRangeError(ValueError):
    """Query above the spectrum's completeness threshold."""


class InsufficientResolutionError(ValueError):
    """Discretization grid too coarse for the eigenvalues below the requested threshold."""


class ToleranceExceededError(RuntimeError):
    """A certified bound exceeded a caller-supplied tolerance."""


@dataclass(frozen=True)
class Rectangle:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("rectangle sides must be > 0")

    @property
    def area(self):
        return self.a * self.b

    @property
    def perimeter(self):
        return 2.0 * (self.a + self.b)

    def key(self):
        return {"shape": "rectangle", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class Disk:
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be > 0")

    @property
    def area(self):
        return math.pi * self.radius**2

    @property
    def perimeter(self):
        return 2.0 * math.pi * self.radius

    def key(self):
        return {"shape": "disk", "radius": self.radius}


def _polygon_key(poly):
    return {"shape": "polygon", "vertices": poly.vertices.tolist()}


def domain_area(domain):
    """Area of a serialized domain descriptor."""
    if domain["shape"] == "rectangle":
        return domain["a"] * domain["b"]
    if domain["shape"] == "disk":
        return math.pi * domain["radius"] ** 2
    if domain["shape"] == "polygon":
        return ConvexPolygon(domain["vertices"]).area
    raise ValueError(f"unknown domain shape {domain['shape']!r}")


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
        self.domain = dict(domain)
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
        return cls(evs, header["bc"], header["complete_below"], header["domain"],
                   header["exact"], block_ids=blks)


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
    lo = 1 if bc == DIRICHLET else 0
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
    return Spectrum(ev, bc, lambda_max, Rectangle(a, b).key(), exact=True)


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
    Z = _bessel_zeros(x_max, math.ceil(x_max), derivative)
    if derivative:
        # Rolle: j_{nu,k-1} < j'_{nu,k} < j_{nu,k} with j_{nu,0} = 0, or for nu = 0 (no zero
        # z = 0) j_{0,k} < j'_{0,k} < j_{0,k+1}.  The reference reaches up to ~1.05 nu^(1/3)
        # past a row's last J_nu' zero near the turning point.
        ref = _bessel_zeros(x_max + 1.1 * x_max ** (1.0 / 3.0) + math.pi, Z.shape[0], False)
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
    return Spectrum(vals[order], bc, lambda_max, Disk(radius).key(), exact=True, block_ids=blocks[order])


def _count_below(A, shift):
    """Eigenvalues of symmetric A below shift, by Sylvester's law of inertia: with diagonal
    pivots and one symmetric permutation, the LU of A - shift*I is L D L^T with D = diag(U)."""
    lu = splu((A - shift * sparse.identity(A.shape[0], format="csr")).tocsc(),
              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError(f"inertia factorization at {shift} pivoted off the diagonal; count not certified")
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def polygon_dirichlet_spectrum_fd(poly, h, lambda_max):
    """Every Dirichlet eigenvalue below lambda_max of the 5-point Laplacian on an h-aligned grid.

    The inertia of A - lambda_max*I gives the count N; eigsh must then return
    N + 1 orthonormal pairs with small residuals, exactly N of them below lambda_max.
    """
    if not isinstance(poly, ConvexPolygon):
        poly = ConvexPolygon(poly)
    if not h > 0:
        raise ValueError("h must be > 0")
    r_in = inradius(poly)
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
    # seeded start vector, so identical inputs give identical bytes; a constant
    # vector would be orthogonal to every odd eigenvector of a symmetric domain
    v0 = np.random.default_rng(0).standard_normal(n_pts)
    w, v = eigsh(A, k=num_eigs + 1, sigma=0, which="LM", v0=v0)
    order = np.argsort(w)
    w, v = w[order], v[:, order]
    norm_a = 8.0 / h**2
    resid = np.linalg.norm(A @ v - v * w[None, :], axis=0)
    if np.any(resid > 1e-9 * norm_a):
        worst = int(np.argmax(resid))
        raise RuntimeError(f"FD eigenpair {worst} residual {resid[worst]:.3e} exceeds 1e-9*||A|| = {1e-9 * norm_a:.3e}")
    # orthonormality rules out one eigenpair returned twice in place of another
    gram = np.abs(v.T @ v - np.eye(num_eigs + 1)).max()
    if gram > 1e-8:
        raise RuntimeError(f"FD eigenvectors are not orthonormal: max |V^T V - I| = {gram:.3e}")
    below = int(np.count_nonzero(w < lambda_max))
    if below != num_eigs:
        raise RuntimeError(f"eigsh finds {below} eigenvalues below {lambda_max}, the inertia count {num_eigs}")
    return Spectrum(w[:num_eigs], DIRICHLET, lambda_max, _polygon_key(poly), exact=False)


def counting_function(spec, lam):
    """Number of eigenvalues strictly below lam."""
    if lam > spec.complete_below:
        raise CertifiedRangeError(f"lambda = {lam} above completeness threshold {spec.complete_below}")
    return int(np.searchsorted(spec.eigenvalues, lam, side="left"))


def riesz_mean(spec, lam, gamma):
    """Riesz mean of order gamma at lam: sum of (lam - lambda_n)^gamma over lambda_n < lam."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    k = counting_function(spec, lam)
    if gamma == 0:
        return float(k)
    d = lam - spec.eigenvalues[:k]
    return float(np.sum(d**gamma))


def heat_trace(spec, t, volume=None, tol=None):
    """Heat trace over the certified part of the spectrum plus a tail bound.

    The omitted tail sum_{lambda_n >= complete_below} e^{-t lambda_n} is bounded
    using N(mu) <= 4^d L_{0,d}|Omega| mu^{d/2} for mu >= complete_below (d=2):
    tail <= 16 L_{0,2}|Omega| t^{-1} (1 + t*Lambda) e^{-t*Lambda}.
    """
    if not t > 0:
        raise ValueError("t must be > 0")
    if volume is None:
        volume = domain_area(spec.domain)
    ev = spec.eigenvalues[spec.eigenvalues < spec.complete_below]
    value = float(np.sum(np.exp(-t * ev)))
    x = t * spec.complete_below
    tail = 16.0 * lt_constant(0, 2) * volume / t * (1.0 + x) * math.exp(-x)
    if tol is not None and tail > tol:
        raise ToleranceExceededError(f"heat-trace tail bound {tail:.3e} exceeds tolerance {tol:.3e}")
    return value, tail


def _mode_amplitudes(rect, x, lam, bc):
    """Weights |u_mn(x)|^2 of the normalized eigenfunctions, and their eigenvalues, below lam."""
    px, py = float(x[0]), float(x[1])
    m, n, ev = _rectangle_modes(rect.a, rect.b, bc, lam)
    if bc == DIRICHLET:
        amp = (4.0 / (rect.a * rect.b)) * np.sin(m * math.pi * px / rect.a) ** 2 \
            * np.sin(n * math.pi * py / rect.b) ** 2
    else:
        amp = (np.where(m == 0, 1.0, 2.0) * np.where(n == 0, 1.0, 2.0)
               / (rect.a * rect.b)) * np.cos(m * math.pi * px / rect.a) ** 2 \
            * np.cos(n * math.pi * py / rect.b) ** 2
    return amp, ev


def pointwise_spectral_function(rect, x, lam, gamma, bc):
    """(-Delta - lam)_-^gamma (x,x) on a rectangle via the explicit eigenfunctions."""
    bc = check_bc(bc)
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    px, py = float(x[0]), float(x[1])
    if not (0.0 < px < rect.a and 0.0 < py < rect.b):
        raise ValueError("x must lie strictly inside the rectangle")
    amp, ev = _mode_amplitudes(rect, x, lam, bc)
    w = (lam - ev) ** gamma if gamma > 0 else 1.0
    return float(np.sum(amp * w))


def dirichlet_neumann_trace_gap(spec_d, spec_n, lam, gamma=1.0):
    """f(lam) = Tr(-Delta^N - lam)_-^gamma - Tr(-Delta^D - lam)_-^gamma (>= 0)."""
    if spec_d.domain != spec_n.domain:
        raise ValueError("mismatched domains")
    if spec_d.bc != DIRICHLET or spec_n.bc != NEUMANN:
        raise ValueError("pass (dirichlet, neumann) spectra in that order")
    return riesz_mean(spec_n, lam, gamma) - riesz_mean(spec_d, lam, gamma)
