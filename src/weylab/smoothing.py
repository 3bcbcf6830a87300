"""Band-limited mollifiers, their antiderivative hierarchies, and smoothed Riesz means."""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, PPoly
from scipy.special import beta as beta_function, roots_jacobi

from .constants import check_bc, lt_constant
from .spectra import Rectangle, _mode_amplitudes

GEVREY_POWER = 1.5         # steepness of the spectral-profile bump (frozen by a decay scan)
GEVREY_SCALE = 4.0
HALF_BAND = 0.5            # support radius of psi-hat; phi = psi^2 then has phi-hat in [-1,1]
TAB_STEP = 1.0 / 256.0
TAB_HALF_WIDTH = 512.0     # padded tabulation window; the kernel envelope is ~1e-30 out here
FFT_SIZE = 2**20           # alias period FFT_SIZE * TAB_STEP = 4096 >> 2 * TAB_HALF_WIDTH
WINDOW_HALF_WIDTH = 128.0  # pointwise hierarchy evaluations are restricted to this window
EVAL_HALF_WIDTH = 40.0     # reporting window for suprema and majorant ratios
MAX_HIERARCHY_K = 8
STABILITY_TOL = 1e-9
PSI_UNDERFLOW = 1e-280
ENVELOPE_RATE = 1.66       # measured decay envelope phi(tau) <= SCALE exp(-RATE tau^POWER)
ENVELOPE_POWER = 0.6
ENVELOPE_SCALE = 16.0

_GL_CACHE = {}


def _gl(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _restrict(ppoly, lo, hi):
    """Slice a PPoly to the breakpoint range [lo, hi] (coefficients are local)."""
    x = ppoly.x
    i0 = max(0, np.searchsorted(x, lo, side="right") - 1)
    i1 = min(len(x) - 1, np.searchsorted(x, hi, side="left"))
    return PPoly(ppoly.c[:, i0:i1], x[i0:i1 + 1])


class MollifierFamily:
    """Even band-limited kernel phi = psi^2 together with the compact bump chi.

    psi is the inverse cosine transform of a Gevrey-steepened profile supported in
    [-1/2, 1/2], Plancherel-normalized so that the square integrates to one; chi is
    the normalized exp(-1/(1-u^2)) bump.  One equispaced trapezoid rule in xi gives
    the norm, psi at any tau and, through one real FFT, psi on the whole tabulation
    grid.  Its step 2pi/(FFT_SIZE*TAB_STEP) makes tau_j xi_k = 2pi jk/FFT_SIZE on
    the grid, and for this compactly supported, infinitely flat profile its only
    error is the alias psi(tau + FFT_SIZE*TAB_STEP), far below roundoff for
    |tau| <= TAB_HALF_WIDTH (Trefethen & Weideman, SIAM Rev. 56, 2014).
    Tabulations, antiderivative chains and majorant chains are built lazily and
    shared by every hierarchy on the family.
    """

    def __init__(self):
        step = 2.0 * math.pi / (FFT_SIZE * TAB_STEP)
        xi = step * np.arange(math.ceil(HALF_BAND / step))   # nodes in [0, 1/2)
        wq = np.full(xi.size, step)
        wq[0] = 0.5 * step          # the profile is even: half weight at xi = 0
        profile = np.exp(-GEVREY_SCALE * (1.0 - (xi / HALF_BAND) ** 2) ** -GEVREY_POWER)
        self._norm = math.sqrt(math.pi / float(np.sum(wq * profile * profile)))
        self._xi = xi
        self._cos_coef = self._norm * wq * profile / math.pi
        # chi = normalized bump; keep the raw Gauss rule so sub-interval integrals
        # against chi can be formed with any smooth integrand later
        xc, wc = _gl(400)
        raw = np.exp(-1.0 / (1.0 - xc**2))
        self._chi_norm = 1.0 / float(np.sum(wc * raw))
        self._chi_nodes = xc
        self._chi_glweights = wc
        # everything is tabulated on the right half-line and extended by parity,
        # so evenness/oddness of the hierarchy is structural, not approximate
        n_half = int(round(TAB_HALF_WIDTH / TAB_STEP))
        self.tab_grid = np.arange(n_half + 1) * TAB_STEP
        self._phi_tab = None
        self._spline = None
        self._half_moments = None
        self._a_window = []     # restricted k-fold antiderivatives of the phi spline
        self._a_last_full = None
        self._psi_tab = None    # index k+1 <-> psi_k, starting at k = -1
        self._psi_int = None
        self._majorant_const = None
        self._hier_cache = {}

    # ---- direct evaluations -------------------------------------------------

    def psi(self, tau):
        """psi by the trapezoid rule summed directly (|tau| well below the alias period)."""
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        out = np.empty(tau.size)
        flat = tau.ravel()
        for i in range(0, flat.size, 8192):
            blk = flat[i:i + 8192, None] * self._xi[None, :]
            out[i:i + 8192] = np.cos(blk) @ self._cos_coef
        return out.reshape(tau.shape)

    def phi(self, tau):
        """The band-limited kernel phi = psi^2 evaluated from the quadrature rule."""
        return self.psi(tau) ** 2

    def chi(self, tau):
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(tau.shape)
        inside = np.abs(tau) < 1.0
        if np.any(inside):
            u = tau[inside]
            out[inside] = self._chi_norm * np.exp(-1.0 / (1.0 - u * u))
        return out

    def chi_moment(self, k):
        """k-th moment of the unit-scale bump; odd moments vanish by symmetry."""
        if k % 2 == 1:
            return 0.0
        raw = np.exp(-1.0 / (1.0 - self._chi_nodes**2))
        return float(np.sum(self._chi_glweights * raw * self._chi_nodes**k) * self._chi_norm)

    def phi_hat(self, xi):
        """Fourier transform of the tabulated phi.

        The trapezoid rule on the padded uniform grid is spectrally accurate here:
        the integrand and all its derivatives vanish at the window ends.
        """
        self._ensure_tab()
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        out = np.empty(xi.size)
        for i, s in enumerate(xi.ravel()):
            even_sum = 2.0 * float(np.cos(s * self.tab_grid) @ self._phi_tab)
            out[i] = TAB_STEP * (even_sum - self._phi_tab[0])
        return out.reshape(xi.shape)

    # ---- lazy tabulations ---------------------------------------------------

    def _ensure_tab(self):
        if self._phi_tab is None:
            # the same trapezoid sum at every grid point: Re sum_k c_k e^{-2pi i jk/N}
            padded = np.zeros(FFT_SIZE)
            padded[:self._cos_coef.size] = self._cos_coef
            psi_tab = np.fft.rfft(padded).real[:self.tab_grid.size]
            self._phi_tab = psi_tab * psi_tab
            # clamp the (exact) even symmetry at 0
            self._spline = CubicSpline(self.tab_grid, self._phi_tab,
                                       bc_type=((1, 0.0), "not-a-knot"))

    def _half_moment(self, j):
        # integral of u^j phi(u) over the right half-line
        self._ensure_tab()
        if self._half_moments is None:
            self._half_moments = {}
        if j not in self._half_moments:
            g = self.tab_grid
            anti = CubicSpline(g, g**j * self._phi_tab).antiderivative()
            self._half_moments[j] = float(anti(g[-1]))
        return self._half_moments[j]

    def _ensure_chain(self, kmax):
        # right-half chain A_k with the left-tail integration constant
        # A_k(0) = int_0^inf u^{k-1} phi(u) du / (k-1)! restored exactly
        self._ensure_tab()
        while len(self._a_window) <= kmax:
            k = len(self._a_window)
            if k == 0:
                full = self._spline
            else:
                full = self._a_last_full.antiderivative()
                full.c[-1, :] += self._half_moment(k - 1) / math.factorial(k - 1)
            self._a_window.append(_restrict(full, 0.0, WINDOW_HALF_WIDTH))
            self._a_last_full = full

    def _ensure_psi(self, kmax):
        self._ensure_tab()
        if self._psi_tab is None:
            self._psi_tab = [self._phi_tab, self._phi_tab]  # k = -1 and k = 0
            self._psi_int = [1.0, 1.0]
            self._majorant_const = [1.0]
        g = self.tab_grid
        while len(self._psi_tab) <= kmax + 1:
            k = len(self._psi_tab) - 1
            anti = CubicSpline(g, g * self._psi_tab[k - 1]).antiderivative()
            tab = float(anti(g[-1])) - anti(g)
            self._psi_tab.append(tab)
            q = CubicSpline(g, tab).antiderivative()
            self._psi_int.append(2.0 * float(q(g[-1])))  # psi_k is even
            i1 = np.searchsorted(g, 1.0)
            inf_near = float(np.min(tab[g <= 1.0]))
            c_prev = self._majorant_const[k - 1]
            self._majorant_const.append(
                (tab[i1] + 2.0 * c_prev * self._psi_int[k]) / inf_near)

    def psi_majorant(self, k):
        """Tabulated values of psi_k on the full grid (k >= -1)."""
        self._ensure_psi(max(k, 0))
        return self._psi_tab[k + 1]

    def majorant_constants(self, kmax):
        self._ensure_psi(kmax)
        return tuple(self._majorant_const[:kmax + 1])

    def stability_estimate(self, K):
        """Crude K-fold truncation bound env(T) (2T)^K / K! for the padded window.

        Uses the frozen decay envelope rather than the tabulated endpoint: out
        there psi is below the roundoff of the FFT sum (~1e-17), so the tabulated
        value bounds nothing.
        """
        edge = ENVELOPE_SCALE * math.exp(-ENVELOPE_RATE * TAB_HALF_WIDTH ** ENVELOPE_POWER)
        return edge * (2.0 * TAB_HALF_WIDTH) ** K / math.factorial(K)


@functools.cache
def build_mollifier():
    """The one shared mollifier family, built on first use."""
    return MollifierFamily()


@dataclass(frozen=True)
class AtomicMeasure:
    """Atoms on the positive half-line plus optional power background, odd-extended.

    atoms: tuple of (location > 0, weight); polynomial_part: tuple of (K_i >= 0,
    nu_i > 0) densities nu_i K_i u^{nu_i - 1} du; K0 >= 0 is a point mass at 0.
    The augmented measure must be nonnegative at every atom.
    """

    atoms: tuple = ()
    polynomial_part: tuple = ()
    K0: float = 0.0

    def __post_init__(self):
        merged = {}
        for loc, w in self.atoms:
            loc, w = float(loc), float(w)
            if not (loc > 0 and np.isfinite(loc) and np.isfinite(w)):
                raise ValueError("atoms need finite locations > 0 and finite weights")
            merged[loc] = merged.get(loc, 0.0) + w
        for loc, w in merged.items():
            if w < 0:
                raise ValueError(f"augmented measure is negative at the atom {loc}")
        if self.K0 < 0:
            raise ValueError("K0 must be >= 0")
        for big_k, nu in self.polynomial_part:
            if big_k < 0 or not nu > 0:
                raise ValueError("background terms need K_i >= 0 and nu_i > 0")
        object.__setattr__(self, "atoms", tuple(sorted(merged.items())))
        object.__setattr__(self, "polynomial_part",
                           tuple((float(k), float(nu)) for k, nu in self.polynomial_part))
        object.__setattr__(self, "K0", float(self.K0))

    @property
    def locations(self):
        return np.array([s for s, _ in self.atoms])

    @property
    def weights(self):
        return np.array([w for _, w in self.atoms])

    @property
    def purely_atomic(self):
        return not self.polynomial_part and self.K0 == 0.0


class OddDistributionFunction:
    """Odd, midpoint-regularized distribution function of an odd-extended measure."""

    def __init__(self, measure):
        self.measure = measure

    def __call__(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        mu = self.measure
        out = 0.5 * mu.K0 * np.sign(sigma)
        for s, w in mu.atoms:
            out = out + 0.5 * w * (np.sign(sigma - s) + np.sign(sigma + s))
        for big_k, nu in mu.polynomial_part:
            out = out + big_k * np.sign(sigma) * np.abs(sigma) ** nu
        return out


class PhiHierarchy:
    """The antiderivative chain phi_{k,eps} with its moments and coefficients.

    Exact decomposition on the tabulated window: phi_k = A_k - sum_{j even < k}
    I_j B_{k-j}, where A_k is the k-fold antiderivative of the phi spline and B_i
    the i-fold antiderivative of chi_eps (closed polynomial beyond the bump,
    Gauss quadrature across it).  Hierarchies are immutable and shareable.
    """

    def __init__(self, family, eps, K):
        if not 0.0 < eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        K = int(K)
        if K < 0:
            raise ValueError("K must be >= 0")
        est = family.stability_estimate(max(K, 1))
        if K > MAX_HIERARCHY_K or est > STABILITY_TOL:
            raise ValueError(
                f"requested K={K} beyond tabulation stability: estimated "
                f"truncation {est:.3e} exceeds {STABILITY_TOL:g}")
        family._ensure_chain(K + 1)
        family._ensure_psi(K)
        self.family = family
        self.eps = float(eps)
        self.K = K
        self._bpoly = self._chi_antiderivative_polys(K + 1)
        self.moments = self._hierarchy_moments()
        self.b = self._b_recursion()

    # ---- chi_eps antiderivatives ---------------------------------------------

    def _chi_antiderivative_polys(self, imax):
        # B_i(tau) for tau >= eps equals a degree i-1 polynomial fixed by the
        # bump moments (Cauchy repeated-integration kernel (tau-u)^{i-1}/(i-1)!)
        polys = [None]
        mom = [self.family.chi_moment(k) * self.eps**k for k in range(imax)]
        for i in range(1, imax + 1):
            coef = np.zeros(i)
            for k in range(i):
                coef[k] = math.comb(i - 1, k) * (-1.0) ** k * mom[k] / math.factorial(i - 1)
            polys.append(coef)  # ascending powers tau^{i-1-k} stored reversed below
        return polys

    def _B(self, i, tau):
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(tau.shape)
        eps, fam = self.eps, self.family
        if i == 0:
            inside = np.abs(tau) < eps
            if np.any(inside):
                out[inside] = fam.chi(tau[inside] / eps) / eps
            return out
        coef = self._bpoly[i]
        right = tau >= eps
        if np.any(right):
            t = tau[right]
            acc = np.zeros(t.shape)
            for k in range(i):
                acc += coef[k] * t ** (i - 1 - k)
            out[right] = acc
        mid = (~right) & (tau > -eps)
        if np.any(mid):
            t = tau[mid] / eps
            half = 0.5 * (t + 1.0)
            v = -1.0 + (fam._chi_nodes[None, :] + 1.0) * half[:, None]
            dens = fam._chi_norm * np.exp(-1.0 / (1.0 - v * v))
            kern = (tau[mid][:, None] - eps * v) ** (i - 1) / math.factorial(i - 1)
            out[mid] = np.sum(fam._chi_glweights[None, :] * half[:, None] * dens * kern,
                              axis=1)
        return out

    def chi_eps(self, tau):
        return self._B(0, tau)

    def chi_cdf(self, tau):
        return self._B(1, tau)

    # ---- hierarchy assembly ----------------------------------------------------

    def _hierarchy_moments(self):
        # I_k = M_k / k! - sum_{j even < k} I_j c_{k-j} eps^{k-j} / (k-j)!: the
        # constant term of the large-tau polynomial A_{k+1} - sum_j I_j B_{k+1-j}.
        # M_k = 2 x the half-line moment the chain already uses as its A_{k+1}(0),
        # so Phi_k(0) = I_k / 2 holds to roundoff at every even level.
        fam, eps = self.family, self.eps
        mom = []
        for k in range(self.K + 1):
            if k % 2 == 1:
                mom.append(0.0)  # odd integrands: exactly zero by parity
                continue
            val = 2.0 * fam._half_moment(k) / math.factorial(k)
            for j in range(0, k, 2):
                val -= mom[j] * fam.chi_moment(k - j) * eps ** (k - j) / math.factorial(k - j)
            mom.append(val)
        return tuple(mom)

    def _b_recursion(self):
        bs = [1.0]
        for m in range(1, self.K + 1):
            if m % 2 == 1:
                bs.append(0.0)  # enforced: odd coefficients vanish structurally
                continue
            acc = 0.0
            for j in range(0, m, 2):
                acc += bs[j] * self.moments[m - j]
            bs.append((-1.0) ** (m - 1) * acc)
        return tuple(bs)

    def b_closed_form(self):
        """Composition-sum solution of the coefficient recursion (cross-check)."""
        out = [1.0]
        for m in range(1, self.K + 1):
            total = 0.0
            for parts in _compositions(m):
                prod = 1.0
                for p in parts:
                    prod *= self.moments[p] if p <= self.K else 0.0
                total += (-1.0) ** len(parts) * prod
            out.append(total)
        return tuple(out)

    def _window_guard(self, tau):
        if np.max(np.abs(tau), initial=0.0) > WINDOW_HALF_WIDTH:
            raise ValueError(
                f"evaluation point beyond the tabulated window |tau| <= {WINDOW_HALF_WIDTH:g}")

    def phi_k(self, k, tau):
        """phi_{k,eps} evaluated on the tabulated window.

        Tabulation lives on the right half-line; negative arguments go through
        the parity relation phi_k(-t) = (-1)^k phi_k(t), so the even/odd
        symmetry of every level is exact by construction.
        """
        if not 0 <= k <= self.K:
            raise ValueError("k out of range for this hierarchy")
        tau = np.asarray(tau, dtype=float)
        self._window_guard(tau)
        at = np.abs(tau)
        out = self.family._a_window[k](at)
        for j in range(0, k, 2):
            if k - j <= 0:
                continue
            out = out - self.moments[j] * self._B(k - j, at)
        if k % 2 == 1:
            out = out * np.sign(tau)
        return out

    def phi_k_antiderivative(self, k, tau):
        """Running integral of phi_{k,eps} from -infinity.

        With Phi_k(t) tabulated for t >= 0, the left half follows from
        Phi_k(-t) = (-1)^k (I_k - Phi_k(t)).
        """
        if not 0 <= k <= self.K:
            raise ValueError("k out of range for this hierarchy")
        tau = np.asarray(tau, dtype=float)
        self._window_guard(tau)
        at = np.abs(tau)
        pos = self.family._a_window[k + 1](at)
        for j in range(0, k, 2):
            pos = pos - self.moments[j] * self._B(k + 1 - j, at)
        return np.where(tau >= 0, pos, (-1.0) ** k * (self.moments[k] - pos))

    # ---- convolutions against the odd-extended measure -------------------------

    def conv_distribution(self, k, mu, sigma):
        """phi_{k,eps} * N_mu at sigma for an atomic measure (plus a point mass at 0)."""
        if mu.polynomial_part:
            raise ValueError("convolution formulas require a purely atomic measure")
        sigma = np.asarray(sigma, dtype=float)
        out = np.zeros(sigma.shape)
        ik = self.moments[k]
        for s, w in mu.atoms:
            out = out + w * (self.phi_k_antiderivative(k, sigma - s)
                             + self.phi_k_antiderivative(k, sigma + s) - ik)
        if mu.K0:
            out = out + mu.K0 * (self.phi_k_antiderivative(k, sigma) - 0.5 * ik)
        return out

    def conv_jump_measure(self, k, mu, sigma):
        """phi_{k,eps} * T_mu at sigma, T_mu the even reflection of the atom set."""
        if mu.polynomial_part:
            raise ValueError("convolution formulas require a purely atomic measure")
        sigma = np.asarray(sigma, dtype=float)
        out = np.zeros(sigma.shape)
        for s, w in mu.atoms:
            out = out + w * (self.phi_k(k, sigma - s) + self.phi_k(k, sigma + s))
        if mu.K0:
            out = out + mu.K0 * self.phi_k(k, sigma)
        return out

    def smoothed_distribution(self, mu, sigma):
        """chi_eps * N_mu, including background terms by quadrature."""
        sigma = np.asarray(sigma, dtype=float)
        out = np.zeros(sigma.shape)
        for s, w in mu.atoms:
            out = out + w * (self.chi_cdf(sigma - s) + self.chi_cdf(sigma + s) - 1.0)
        if mu.K0:
            out = out + mu.K0 * (self.chi_cdf(sigma) - 0.5)
        if mu.polynomial_part:
            fam, eps = self.family, self.eps
            nodes, glw = fam._chi_nodes, fam._chi_glweights
            dens = fam._chi_norm * np.exp(-1.0 / (1.0 - nodes**2))
            flat = sigma.ravel()
            acc = np.zeros(flat.shape)
            for idx, sg in enumerate(flat):
                # split the bump at the kink of |.|^nu when it falls inside
                panels = [(-1.0, 1.0)]
                if abs(sg) < eps:
                    panels = [(-1.0, sg / eps), (sg / eps, 1.0)]
                val = 0.0
                for lo, hi in panels:
                    half = 0.5 * (hi - lo)
                    if half <= 0:
                        continue
                    v = lo + (nodes + 1.0) * half
                    d = fam._chi_norm * np.exp(-1.0 / np.maximum(1.0 - v * v, 1e-300))
                    u = sg - eps * v
                    bg = np.zeros(v.shape)
                    for big_k, nu in mu.polynomial_part:
                        bg += big_k * np.sign(u) * np.abs(u) ** nu
                    val += float(np.sum(glw * half * d * bg))
                acc[idx] = val
            out = out + acc.reshape(sigma.shape)
        return out


def _compositions(m):
    """All tuples of positive integers summing to m."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in _compositions(m - first):
            yield (first,) + rest


def build_phi_hierarchy(fam, eps, K):
    key = (float(eps), int(K))
    if key not in fam._hier_cache:
        fam._hier_cache[key] = PhiHierarchy(fam, eps, K)
    return fam._hier_cache[key]


def majorant_check(h):
    """Sup of |phi_{k,eps}| / psi_k over the reporting window, per level k.

    Ratios are omitted wherever psi_k underflows (noted here; with the padded
    tabulation this never happens inside the +-40 window).
    """
    fam = h.family
    g = fam.tab_grid
    sel = np.abs(g) <= EVAL_HALF_WIDTH
    taus = g[sel]
    out = []
    for k in range(h.K + 1):
        psi_vals = fam.psi_majorant(k)[sel]
        phi_vals = h.phi_k(k, taus)
        mask = psi_vals > PSI_UNDERFLOW
        ratio = float(np.max(np.abs(phi_vals[mask]) / psi_vals[mask]))
        out.append((k, ratio))
    return out


# ---- smoothed Riesz means ------------------------------------------------------


def _adaptive_quad(f, a, b, breakpoints=(), rtol=1e-10, atol=1e-13, max_depth=26):
    """Composite Gauss-Legendre with bisection refinement; returns (value, error)."""
    pts = [a] + sorted(p for p in set(breakpoints) if a < p < b) + [b]
    x24, w24 = _gl(24)
    x48, w48 = _gl(48)
    total, err = 0.0, 0.0
    stack = [(pts[i], pts[i + 1], 0) for i in range(len(pts) - 1)]
    while stack:
        lo, hi, depth = stack.pop()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        coarse = half * float(w24 @ f(mid + half * x24))
        fine = half * float(w48 @ f(mid + half * x48))
        d = abs(fine - coarse)
        if d <= max(atol, rtol * (abs(fine) + 1e-30)) or depth >= max_depth:
            total += fine
            err += d
        else:
            stack.append((lo, mid, depth + 1))
            stack.append((mid, hi, depth + 1))
    return total, err


def _jacobi_tail(f, c, tau, gamma, n):
    # integral over [c, tau] of (1-(s/tau)^2)^(gamma-1) f(s), weight absorbed at s=tau
    x, w = roots_jacobi(n, gamma - 1.0, 0.0)
    half = 0.5 * (tau - c)
    s = c + half * (x + 1.0)
    jac = (half / tau) ** (gamma - 1.0) * (1.0 + s / tau) ** (gamma - 1.0)
    return half * float(np.sum(w * jac * f(s)))


def _measure_breakpoints(mu, eps, tau):
    pts = set()
    for s, _ in mu.atoms:
        for p in (s - eps, s, s + eps):
            if 0.0 < p < tau:
                pts.add(p)
    if (mu.K0 or mu.polynomial_part) and 0.0 < eps < tau:
        pts.add(eps)
    return sorted(pts)


def smoothed_riesz(mu, gamma, tau, eps, fam):
    """R_{mu,eps}^gamma(tau) = (2 gamma / tau) integral of G_gamma(s/tau) chi_eps*N_mu."""
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    h = build_phi_hierarchy(fam, eps, 0)
    smooth_n = lambda s: h.smoothed_distribution(mu, s)
    breaks = _measure_breakpoints(mu, eps, tau)
    cut = max([7.0 * tau / 8.0] + [p for p in breaks if p < tau])
    body = lambda s: (1.0 - (s / tau) ** 2) ** (gamma - 1.0) * (s / tau) * smooth_n(s)
    val, _ = _adaptive_quad(body, 0.0, cut, breakpoints=breaks)
    tail_f = lambda s: (s / tau) * smooth_n(s)
    val += _jacobi_tail(tail_f, cut, tau, gamma, 64)
    return 2.0 * gamma / tau * val


def unsmoothed_riesz(mu, gamma, tau):
    """Closed-form R_mu^gamma(tau) for atoms, point mass at 0, and power background."""
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    total = 0.5 * mu.K0
    for s, w in mu.atoms:
        if s < tau:
            total += w * (1.0 - (s / tau) ** 2) ** gamma
    for big_k, nu in mu.polynomial_part:
        total += big_k * tau**nu * gamma * beta_function(0.5 * nu + 1.0, gamma)
    return total


# ---- the iterated integration-by-parts identity ---------------------------------


def _g_poly(m):
    # ascending coefficients of (1-u^2)^(m-1) * u
    c = np.polynomial.polynomial.polypow([1.0, 0.0, -1.0], m - 1)
    return np.concatenate(([0.0], c))


def _identity_sides(mu, m, eps, tau, fam, quad_tol=1e-8):
    if m not in (1, 2):
        raise ValueError("the iterated identity is checked for m in {1, 2}")
    if not tau > 0:
        raise ValueError("tau must be > 0")
    if not mu.purely_atomic:
        raise ValueError("identity check requires a purely atomic odd-extended measure")
    h = build_phi_hierarchy(fam, eps, m + 1)
    lhs = smoothed_riesz(mu, m, tau, eps, fam)
    gc = _g_poly(m)
    dpoly = [gc]
    for _ in range(m):
        dpoly.append(np.polynomial.polynomial.polyder(dpoly[-1]))
    breaks = [s for s, _ in mu.atoms if 0.0 < s < tau]
    rhs, achieved = 0.0, 0.0
    for j in range(0, m + 1, 2):
        bj = h.b[j]
        f1 = lambda s: (np.polynomial.polynomial.polyval(s / tau, dpoly[j])
                        * h.conv_distribution(0, mu, s))
        v1, e1 = _adaptive_quad(f1, 0.0, tau, breakpoints=breaks)
        rhs += 2.0 * m * bj * tau ** (-j - 1) * v1
        f2 = lambda s, kk=m + 1 - j: (np.polynomial.polynomial.polyval(s / tau, dpoly[m])
                                      * h.conv_jump_measure(kk, mu, s))
        v2, e2 = _adaptive_quad(f2, 0.0, tau, breakpoints=breaks)
        rhs -= 2.0 * m * (-1.0) ** m * bj * tau ** (-m - 1) * v2
        achieved += abs(2.0 * m * bj) * (tau ** (-j - 1) * e1 + tau ** (-m - 1) * e2)
    for j in range(0, m, 2):
        rhs -= (2.0**m * math.factorial(m) * h.b[j] * tau**-m
                * float(h.conv_distribution(m - j, mu, np.array([tau]))[0]))
    if achieved > quad_tol:
        raise RuntimeError(
            f"quadrature did not converge: achieved {achieved:.2e} > requested {quad_tol:g}")
    return lhs, rhs


def verify_iterated_identity(mu, m, eps, tau, fam):
    """Absolute difference between the smoothed Riesz mean and its three-sum expansion."""
    lhs, rhs = _identity_sides(mu, m, eps, tau, fam)
    return abs(lhs - rhs)


def iterated_identity_report(mu, m, eps, tau, fam):
    lhs, rhs = _identity_sides(mu, m, eps, tau, fam)
    return {"m": int(m), "eps": float(eps), "tau": float(tau),
            "lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}


# ---- empirical order check of the pointwise remainder ----------------------------


def reflection_heat_bound(rect, bc, x, t):
    """Diagonal heat-kernel deviation from the free kernel and its reflection bound.

    Returns (deviation, bound) with bound = exp(-d(x)^2/(4t)) / (4 pi t); the image
    sums are exact for the rectangle, so deviation <= bound is a theorem, not a fit.
    """
    bc = check_bc(bc)
    if not isinstance(rect, Rectangle):
        rect = Rectangle(*rect)
    px, py = float(x[0]), float(x[1])
    if not (0.0 < px < rect.a and 0.0 < py < rect.b):
        raise ValueError("x must lie strictly inside the rectangle")
    sign = -1.0 if bc == "dirichlet" else 1.0

    def line_diag(pos, length):
        nmax = int(math.ceil(math.sqrt(280.0 * t) / (2.0 * length))) + 2
        n = np.arange(-nmax, nmax + 1)
        direct = np.sum(np.exp(-((2.0 * n * length) ** 2) / (4.0 * t)))
        mirror = np.sum(np.exp(-((2.0 * pos + 2.0 * n * length) ** 2) / (4.0 * t)))
        return (direct + sign * mirror) / math.sqrt(4.0 * math.pi * t)

    k_diag = line_diag(px, rect.a) * line_diag(py, rect.b)
    free = 1.0 / (4.0 * math.pi * t)
    dist = min(px, rect.a - px, py, rect.b - py)
    return abs(k_diag - free), free * math.exp(-dist * dist / (4.0 * t))


def tauberian_order_check(rect, bc, x, gamma, lambda_grid):
    """Fitted tau-exponent of the pointwise Riesz remainder envelope at x.

    Gates on the exact reflection bound for the heat kernel at t = 0.05, then fits
    block maxima of |(-Delta-lambda)_-^gamma(x,x) - L_{gamma,2} lambda^{gamma+1}|
    against tau = sqrt(lambda) over 12 logarithmic blocks.
    """
    bc = check_bc(bc)
    if not isinstance(rect, Rectangle):
        rect = Rectangle(*rect)
    lam = np.sort(np.asarray(lambda_grid, dtype=float))
    if lam[0] <= 0:
        raise ValueError("lambda grid must be positive")
    decades = math.log10(lam[-1] / lam[0])
    if decades < 1.5:
        raise ValueError(f"insufficient lambda range: {decades:.2f} decades < 1.5")
    dev, bound = reflection_heat_bound(rect, bc, x, 0.05)
    if dev > bound * (1.0 + 1e-12):
        raise RuntimeError("reflection heat bound violated; spectra untrustworthy")

    amp, ev = _mode_amplitudes(rect, x, lam[-1] * (1.0 + 1e-9), bc)
    main_c = lt_constant(gamma, 2)
    rem = np.empty(lam.size)
    for i, l in enumerate(lam):
        if gamma > 0:
            val = float(amp @ np.clip(l - ev, 0.0, None) ** gamma)
        else:
            val = float(amp @ (ev < l))
        rem[i] = abs(val - main_c * l ** (gamma + 1.0))

    edges = np.geomspace(lam[0], lam[-1] * (1.0 + 1e-12), 13)
    block = np.clip(np.digitize(lam, edges) - 1, 0, 11)
    tau_star, rem_star = [], []
    for bidx in range(12):
        sel = block == bidx
        if not np.any(sel) or np.max(rem[sel]) <= 0:
            continue
        i_max = np.argmax(np.where(sel, rem, -np.inf))
        tau_star.append(math.sqrt(lam[i_max]))
        rem_star.append(rem[i_max])
    if len(tau_star) < 8:
        raise ValueError("lambda grid too sparse for a 12-block envelope fit")
    slope, _ = np.polyfit(np.log(tau_star), np.log(rem_star), 1)
    return float(slope)
