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
from scipy.special import jnyn_zeros, jv, jvp

from .constants import DIRICHLET, NEUMANN, check_bc, lt_constant
from .geometry import ConvexPolygon, inradius

# memory cap for analytic enumeration (number of eigenvalues)
MAX_EIGENVALUES = 5_000_000


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


def rectangle_spectrum(a, b, bc, lambda_max):
    """All eigenvalues pi^2(m^2/a^2 + n^2/b^2) below lambda_max (Dirichlet m,n>=1, Neumann m,n>=0)."""
    if not (a > 0 and b > 0 and lambda_max > 0):
        raise ValueError("need a, b, lambda_max > 0")
    bc = check_bc(bc)
    estimate = a * b * lambda_max / (4 * math.pi) + (a + b) * math.sqrt(lambda_max) + 16
    if estimate > MAX_EIGENVALUES:
        raise CapacityError(f"~{estimate:.3g} eigenvalues below {lambda_max} exceeds cap {MAX_EIGENVALUES}")
    lo = 1 if bc == DIRICHLET else 0
    pi2 = math.pi**2
    m_hi = int(math.floor(a * math.sqrt(lambda_max) / math.pi)) + 1
    vals = []
    for m in range(lo, m_hi + 1):
        rem = lambda_max - pi2 * m * m / (a * a)
        if rem <= 0 and m > 0:
            continue
        n_hi = int(math.floor(b * math.sqrt(max(rem, 0.0)) / math.pi)) + 1
        n = np.arange(lo, n_hi + 1)
        lam = pi2 * (m * m / (a * a) + n * n / (b * b))
        vals.append(lam[lam < lambda_max])
    ev = np.sort(np.concatenate(vals)) if vals else np.array([])
    dom = Rectangle(a, b).key()
    return Spectrum(ev, bc, lambda_max, dom, exact=True)


def _verified_bessel_zeros(nu, count, derivative):
    """Zeros of J_nu (or J_nu') with residual and Rolle-interlacing verification."""
    # one jnyn_zeros call yields both zero sets; the derivative check needs
    # count + 1 zeros of J_nu as its Rolle reference
    ref, ref_p = jnyn_zeros(nu, count + 1 if derivative else count)[:2]
    zeros = ref_p[:count] if derivative else ref
    resid = jvp(nu, zeros) if derivative else jv(nu, zeros)
    bad = np.where(np.abs(resid) > 1e-9)[0]
    if len(bad):
        k = bad[0] + 1
        raise RuntimeError(f"Bessel zero bracketing failure at (nu={nu}, k={k}): residual {resid[bad[0]]:.3e}")
    if np.any(np.diff(zeros) <= 0):
        k = int(np.where(np.diff(zeros) <= 0)[0][0]) + 1
        raise RuntimeError(f"Bessel zero ordering failure at (nu={nu}, k={k})")
    if derivative:
        # Rolle: between consecutive zeros of J_nu lies one zero of J_nu' and
        # vice versa.  With the convention that excludes z=0 for nu=0, the
        # derivative zeros sit above the function zeros instead of below.
        lo, hi = (ref[:count], ref[1:]) if nu == 0 else (np.concatenate(([0.0], ref[:count - 1])), ref[:count])
        viol = np.where((zeros <= lo) | (zeros >= hi))[0]
        if len(viol):
            k = int(viol[0]) + 1
            raise RuntimeError(f"Bessel interlacing failure at (nu={nu}, k={k})")
    return zeros


def disk_spectrum(radius, bc, lambda_max):
    """Disk eigenvalues (z/R)^2 over Bessel zeros z < R*sqrt(lambda_max), multiplicity 2 for nu>=1."""
    if not (radius > 0 and lambda_max > 0):
        raise ValueError("need radius, lambda_max > 0")
    bc = check_bc(bc)
    x_max = radius * math.sqrt(lambda_max)
    derivative = bc == NEUMANN
    vals, blocks = [], []
    if derivative:
        vals.append(0.0)  # constant mode
        blocks.append(0)
    next_block = len(blocks)
    prev_row = None
    nu = 0
    while True:
        count = max(int((x_max - max(nu, 1)) / math.pi) + 3, 1)
        zeros = _verified_bessel_zeros(nu, count, derivative)
        while zeros[-1] < x_max:  # make sure the row covers the window
            count *= 2
            zeros = _verified_bessel_zeros(nu, count, derivative)
        if prev_row is not None and not derivative:
            # cross-order interlacing j_{nu,k} < j_{nu+1,k} (Rolle covers the derivative case)
            k_common = min(len(prev_row), len(zeros))
            viol = np.where(prev_row[:k_common] >= zeros[:k_common])[0]
            if len(viol):
                raise RuntimeError(f"Bessel interlacing failure at (nu={nu}, k={int(viol[0]) + 1})")
        keep = zeros[zeros < x_max]
        if len(keep) == 0:
            break
        mult = 1 if nu == 0 else 2
        for z in keep:
            lam = (z / radius) ** 2
            vals.extend([lam] * mult)
            blocks.extend([next_block] * mult)
            next_block += 1
        prev_row = zeros
        nu += 1
    order = np.argsort(np.asarray(vals), kind="stable")
    ev = np.asarray(vals)[order]
    blk = np.asarray(blocks)[order]
    return Spectrum(ev, bc, lambda_max, Disk(radius).key(), exact=True, block_ids=blk)


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


def _rectangle_modes(rect, lam, bc):
    lo = 1 if bc == DIRICHLET else 0
    pi2 = math.pi**2
    m_hi = int(math.floor(rect.a * math.sqrt(lam) / math.pi)) + 1
    out_m, out_n, out_ev = [], [], []
    for m in range(lo, m_hi + 1):
        rem = lam - pi2 * m * m / (rect.a**2)
        if rem <= 0 and m > 0:
            continue
        n_hi = int(math.floor(rect.b * math.sqrt(max(rem, 0.0)) / math.pi)) + 1
        n = np.arange(lo, n_hi + 1)
        ev = pi2 * (m * m / rect.a**2 + n * n / rect.b**2)
        keep = ev < lam
        out_m.append(np.full(keep.sum(), m))
        out_n.append(n[keep])
        out_ev.append(ev[keep])
    if not out_m:
        return np.array([]), np.array([]), np.array([])
    return np.concatenate(out_m), np.concatenate(out_n), np.concatenate(out_ev)


def pointwise_spectral_function(rect, x, lam, gamma, bc):
    """(-Delta - lam)_-^gamma (x,x) on a rectangle via the explicit eigenfunctions."""
    bc = check_bc(bc)
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    px, py = float(x[0]), float(x[1])
    if not (0.0 < px < rect.a and 0.0 < py < rect.b):
        raise ValueError("x must lie strictly inside the rectangle")
    m, n, ev = _rectangle_modes(rect, lam, bc)
    if len(ev) == 0:
        return 0.0
    if bc == DIRICHLET:
        amp = (4.0 / (rect.a * rect.b)) * np.sin(m * math.pi * px / rect.a) ** 2 \
            * np.sin(n * math.pi * py / rect.b) ** 2
    else:
        eps_m = np.where(m == 0, 1.0, 2.0)
        eps_n = np.where(n == 0, 1.0, 2.0)
        amp = (eps_m * eps_n / (rect.a * rect.b)) * np.cos(m * math.pi * px / rect.a) ** 2 \
            * np.cos(n * math.pi * py / rect.b) ** 2
    w = (lam - ev) ** gamma if gamma > 0 else 1.0
    return float(np.sum(amp * w))


@dataclass(frozen=True)
class SpectralFunctionSample:
    point: tuple
    dist_to_boundary: float
    values: dict  # lambda -> e_lambda(x, x)

    def __post_init__(self):
        if not self.dist_to_boundary > 0:
            raise ValueError("sample point must be interior")
        v = list(self.values.values())
        if any(b < a - 1e-12 for a, b in zip(v, v[1:])):
            raise ValueError("spectral function must be nondecreasing in lambda")


def sample_spectral_function(rect, x, lambdas, bc=DIRICHLET):
    """Tabulate e_lambda(x,x) on an increasing lambda grid for a rectangle."""
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(np.diff(lambdas) <= 0):
        raise ValueError("lambda grid must be strictly increasing")
    px, py = float(x[0]), float(x[1])
    dist = min(px, rect.a - px, py, rect.b - py)
    vals = {float(l): pointwise_spectral_function(rect, x, l, 0.0, bc) for l in lambdas}
    return SpectralFunctionSample((px, py), dist, vals)


def dirichlet_neumann_trace_gap(spec_d, spec_n, lam, gamma=1.0):
    """f(lam) = Tr(-Delta^N - lam)_-^gamma - Tr(-Delta^D - lam)_-^gamma (>= 0)."""
    if spec_d.domain != spec_n.domain:
        raise ValueError("mismatched domains")
    if spec_d.bc != DIRICHLET or spec_n.bc != NEUMANN:
        raise ValueError("pass (dirichlet, neumann) spectra in that order")
    return riesz_mean(spec_n, lam, gamma) - riesz_mean(spec_d, lam, gamma)
