"""Band-limited mollifiers, their antiderivative hierarchies, and smoothed Riesz means."""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .constants import boundary_sign, check_bc, check_nonnegative, check_positive, lt_constant
from .spectra import pointwise_spectral_function

GEVREY_POWER = 1.5         # steepness of the spectral-profile bump (frozen by a decay scan)
GEVREY_SCALE = 4.0
HALF_BAND = 0.5            # support radius of psi-hat; phi = psi^2 then has phi-hat in [-1,1]
TAB_STEP = 1.0 / 256.0
TAB_HALF_WIDTH = 512.0     # padded tabulation window; the kernel envelope is ~1e-30 out here
FFT_SIZE = 2**20           # alias period FFT_SIZE * TAB_STEP = 4096 >> 2 * TAB_HALF_WIDTH
WINDOW_HALF_WIDTH = 128.0  # pointwise hierarchy evaluations are restricted to this window
MAX_HIERARCHY_K = 8        # top level of every hierarchy (see PhiHierarchy)


def _spline_half_moments(spline):
    # int_0^inf u^j S(u) du for every j <= MAX_HIERARCHY_K, S the phi spline:
    # a 6-point Gauss rule per cubic piece is exact up to degree 3 + 8, so the
    # chain constants A_k(0) and the moments I_k come from the very function
    # the chain integrates.  One Gauss node at a time keeps the temporaries
    # at one grid-sized array each.
    c = spline.c
    moments = np.zeros(MAX_HIERARCHY_K + 1)
    for x, w in zip(*np.polynomial.legendre.leggauss(6)):
        t = 0.5 * TAB_STEP * (x + 1.0)
        p = 0.5 * TAB_STEP * w * (((c[0] * t + c[1]) * t + c[2]) * t + c[3])
        u = spline.x[:-1] + t
        for j in range(moments.size):
            moments[j] += np.sum(p)
            p *= u
    return moments


class MollifierFamily:
    """Even band-limited kernel phi = psi^2 together with the compact bump chi.

    psi is the inverse cosine transform of a Gevrey-steepened profile supported in
    [-1/2, 1/2], Plancherel-normalized so that the square integrates to one; chi is
    the normalized exp(-1/(1-u^2)) bump.  One equispaced trapezoid rule in xi gives
    the norm and, through one real FFT, psi on the whole tabulation grid.  Its step
    2pi/(FFT_SIZE*TAB_STEP) makes tau_j xi_k = 2pi jk/FFT_SIZE on the grid, and
    for this compactly supported, infinitely flat profile its only error is the
    alias psi(tau + FFT_SIZE*TAB_STEP), far below roundoff for |tau| <=
    TAB_HALF_WIDTH (Trefethen & Weideman, SIAM Rev. 56, 2014).
    The constructor builds everything in one pass: the tabulation, its one cubic
    spline, the spline's half-line moments and the top A_{MAX_HIERARCHY_K+1} of the
    antiderivative chain of the spline on [0, WINDOW_HALF_WIDTH], which every
    hierarchy on the family shares; a lower level A_k is its derivative of order
    MAX_HIERARCHY_K + 1 - k.
    """

    def __init__(self):
        step = 2.0 * math.pi / (FFT_SIZE * TAB_STEP)
        xi = step * np.arange(math.ceil(HALF_BAND / step))   # nodes in [0, 1/2)
        wq = np.full(xi.size, step)
        wq[0] = 0.5 * step          # the profile is even: half weight at xi = 0
        profile = np.exp(-GEVREY_SCALE * (1.0 - (xi / HALF_BAND) ** 2) ** -GEVREY_POWER)
        norm = math.sqrt(math.pi / float(np.sum(wq * profile * profile)))
        self._cos_coef = norm * wq * profile / math.pi
        # chi = normalized bump; keep the raw Gauss rule so sub-interval integrals
        # against chi can be formed with any smooth integrand later
        xc, wc = np.polynomial.legendre.leggauss(400)
        raw = np.exp(-1.0 / (1.0 - xc**2))
        self._chi_norm = 1.0 / float(np.sum(wc * raw))
        self._chi_nodes = xc
        self._chi_glweights = wc
        self._chi_moments = tuple(
            0.0 if k % 2 else float(np.sum(wc * raw * xc**k) * self._chi_norm)
            for k in range(MAX_HIERARCHY_K + 1))
        # everything is tabulated on the right half-line and extended by parity,
        # so evenness/oddness of the hierarchy is structural, not approximate
        n_half = int(round(TAB_HALF_WIDTH / TAB_STEP))
        self.tab_grid = np.arange(n_half + 1) * TAB_STEP
        # the same trapezoid sum at every grid point: Re sum_k c_k e^{-2pi i jk/N}
        padded = np.zeros(FFT_SIZE)
        padded[:self._cos_coef.size] = self._cos_coef
        psi_tab = np.fft.rfft(padded).real[:self.tab_grid.size]
        self._phi_tab = psi_tab * psi_tab
        del padded, psi_tab  # 16 MB with the rfft output psi_tab views; the spline reads neither
        # clamp the (exact) even symmetry at 0
        spline = CubicSpline(self.tab_grid, self._phi_tab, bc_type=((1, 0.0), "not-a-knot"))
        self._half_moments = _spline_half_moments(spline)
        # right-half chain A_k with the left-tail integration constant
        # A_k(0) = int_0^inf u^{k-1} phi(u) du / (k-1)! restored exactly; only the
        # top level is kept.  The window starts at the grid's left end, where an
        # antiderivative's constants start accumulating, so integrating the windowed
        # spline gives the window of the full-range chain piece for piece.
        n_win = int(round(WINDOW_HALF_WIDTH / TAB_STEP))
        self._chain = PPoly(spline.c[:, :n_win], spline.x[:n_win + 1])
        for k in range(1, MAX_HIERARCHY_K + 2):
            self._chain = self._chain.antiderivative()
            self._chain.c[-1, :] += self._half_moments[k - 1] / math.factorial(k - 1)

    def chi_moment(self, k):
        """k-th moment (k <= MAX_HIERARCHY_K) of the unit-scale bump; odd ones vanish."""
        return self._chi_moments[k]


@functools.cache
def build_mollifier():
    """The one shared mollifier family, built on first use."""
    return MollifierFamily()


@dataclass(frozen=True)
class AtomicMeasure:
    """Atoms on the positive half-line plus a point mass at 0, odd-extended.

    atoms: tuple of (location > 0, weight); a finite K0 >= 0 is a point mass at 0.
    The augmented measure must be nonnegative at every atom.
    """

    atoms: tuple = ()
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
        check_nonnegative(self.K0, "K0")
        object.__setattr__(self, "atoms", tuple(sorted(merged.items())))
        object.__setattr__(self, "K0", float(self.K0))

    @property
    def purely_atomic(self):
        return self.K0 == 0.0

    @property
    def atoms_with_origin(self):
        """Locations and weights, as two arrays, of the atoms plus the point mass at 0.

        The point mass is an atom at 0 of weight K0/2: K0 f(s) = (K0/2) (f(s - 0) +
        f(s + 0)), so every term of the odd-extended measure then has the one form
        w (f(s - a) + f(s + a)).
        """
        atoms = self.atoms + (((0.0, 0.5 * self.K0),) if self.K0 else ())
        return tuple(np.array(atoms, dtype=float).reshape(-1, 2).T)


class PhiHierarchy:
    """The antiderivative chain phi_{k,eps}, k <= MAX_HIERARCHY_K, with its moments and b.

    Exact decomposition on the tabulated window: phi_k = A_k - sum_{j even < k}
    I_j B_{k-j}, where A_k is the k-fold antiderivative of the phi spline and B_i
    the i-fold antiderivative of chi_eps.  The chain stops at MAX_HIERARCHY_K = 8:
    the crude truncation bound env(T) (2T)^k / k! of the padded window T =
    TAB_HALF_WIDTH, env the kernel's measured decay envelope, is 1.7e-10 at k = 8
    and 2.0e-8 at k = 9.
    """

    def __init__(self, family, eps):
        if not 0.0 < eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        self.family = family
        self.eps = float(eps)
        self.moments = self._hierarchy_moments()
        self.b = self._b_recursion()

    # ---- chi_eps antiderivatives ---------------------------------------------

    def _B(self, i, tau):
        # B_i(tau) = int_{-eps}^{min(tau, eps)} (tau - u)^{i-1}/(i-1)! chi_eps(u) du
        # (Cauchy's repeated-integration kernel) by the family's Gauss rule mapped
        # onto the part of the bump left of tau
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(tau.shape)
        eps, fam = self.eps, self.family
        inside = tau > -eps
        if np.any(inside):
            t = tau[inside]
            half = 0.5 * (np.minimum(t / eps, 1.0) + 1.0)
            v = -1.0 + (fam._chi_nodes[None, :] + 1.0) * half[:, None]
            dens = fam._chi_norm * np.exp(-1.0 / (1.0 - v * v))
            kern = (t[:, None] - eps * v) ** (i - 1) / math.factorial(i - 1)
            out[inside] = np.sum(fam._chi_glweights[None, :] * half[:, None] * dens * kern,
                                 axis=1)
        return out

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
        for k in range(MAX_HIERARCHY_K + 1):
            if k % 2 == 1:
                mom.append(0.0)  # odd integrands: exactly zero by parity
                continue
            val = 2.0 * fam._half_moments[k] / math.factorial(k)
            for j in range(0, k, 2):
                val -= mom[j] * fam.chi_moment(k - j) * eps ** (k - j) / math.factorial(k - j)
            mom.append(val)
        return tuple(mom)

    def _b_recursion(self):
        bs = [1.0]
        for m in range(1, MAX_HIERARCHY_K + 1):
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
        for m in range(1, MAX_HIERARCHY_K + 1):
            total = 0.0
            for parts in _compositions(m):
                prod = 1.0
                for p in parts:
                    prod *= self.moments[p]
                total += (-1.0) ** len(parts) * prod
            out.append(total)
        return tuple(out)

    def _right_half(self, level, k, tau):
        # A_level - sum_{j even < k} I_j B_{level-j} at |tau|: the right-half
        # tabulation of phi_k (level k) and of its running integral (level k + 1)
        if not 0 <= k <= MAX_HIERARCHY_K:
            raise ValueError(f"k out of range 0..{MAX_HIERARCHY_K}")
        tau = np.asarray(tau, dtype=float)
        if np.max(np.abs(tau), initial=0.0) > WINDOW_HALF_WIDTH:
            raise ValueError(
                f"evaluation point beyond the tabulated window |tau| <= {WINDOW_HALF_WIDTH:g}")
        at = np.abs(tau)
        out = self.family._chain(at, MAX_HIERARCHY_K + 1 - level)
        for j in range(0, k, 2):
            out = out - self.moments[j] * self._B(level - j, at)
        return tau, out

    def phi_k(self, k, tau):
        """phi_{k,eps} evaluated on the tabulated window.

        Tabulation lives on the right half-line; negative arguments go through
        the parity relation phi_k(-t) = (-1)^k phi_k(t), so the even/odd
        symmetry of every level is exact by construction.
        """
        tau, out = self._right_half(k, k, tau)
        return out * np.sign(tau) if k % 2 == 1 else out

    def phi_k_antiderivative(self, k, tau):
        """Running integral of phi_{k,eps} from -infinity.

        With Phi_k(t) tabulated for t >= 0, the left half follows from
        Phi_k(-t) = (-1)^k (I_k - Phi_k(t)).
        """
        tau, pos = self._right_half(k + 1, k, tau)
        return np.where(tau >= 0, pos, (-1.0) ** k * (self.moments[k] - pos))

    # ---- convolutions against the odd-extended measure -------------------------

    @staticmethod
    def _atom_sum(f, c, mu, sigma):
        # sum w (f(sigma - a) + f(sigma + a) - c) over the atoms and the origin,
        # one column per atom; a constant c = 0 leaves every term unchanged
        a, w = mu.atoms_with_origin
        d = np.asarray(sigma, dtype=float)[..., None]
        return (f(d - a) + f(d + a) - c) @ w

    def conv_distribution(self, k, mu, sigma):
        """phi_{k,eps} * N_mu at sigma for an atomic measure (plus a point mass at 0)."""
        return self._atom_sum(functools.partial(self.phi_k_antiderivative, k),
                              self.moments[k], mu, sigma)

    def conv_jump_measure(self, k, mu, sigma):
        """phi_{k,eps} * T_mu at sigma, T_mu the even reflection of the atom set."""
        return self._atom_sum(functools.partial(self.phi_k, k), 0.0, mu, sigma)

    def smoothed_distribution(self, mu, sigma):
        """chi_eps * N_mu for the atoms and the point mass at 0."""
        return self._atom_sum(self.chi_cdf, 1.0, mu, sigma)

    def _conv_integral(self, level, k, mu, ders, tau):
        # int_0^tau p(s) (F * mu)(s) ds for a polynomial p given with its derivatives
        # ders = [p, p', ...] (see _by_parts), and F = phi_k (level k,
        # as in conv_jump_measure) or Phi_k (level k + 1, as in conv_distribution).
        # Each shift c in {a, -a} splits [0, tau] at b = clip(c, 0, tau).  On [b, tau],
        # right of c, F(s - c) is the right-half chain at s - c, and level + n is its
        # n-th antiderivative.  On [0, b], left of c, parity gives F(s - c) = (-1)^k
        # phi_k(c - s), or (-1)^k (I_k - Phi_k(c - s)), whose chain in s is (-1)^n
        # times the right-half chain at c - s; the constant I_k integrates as a
        # polynomial.  An empty piece (b = 0 or b = tau) adds an exact zero.
        sign = (-1.0) ** k
        const = self.moments[k] if level == k + 1 else 0.0
        left = sign if level == k else -sign
        q = ders[0].integ()
        a, w = mu.atoms_with_origin
        part = -const * (q(tau) - q(0.0))
        for c in (a, -a):
            b = np.clip(c, 0.0, tau)
            part += _by_parts(ders, lambda n, s: self._right_half(level + n, k, s - c)[1], b, tau)
            part += sign * const * (q(b) - q(0.0)) + left * _by_parts(
                ders, lambda n, s: (-1.0) ** n * self._right_half(level + n, k, c - s)[1], 0.0, b)
        return part @ w


def _compositions(m):
    """All tuples of positive integers summing to m."""
    if m == 0:
        yield ()
        return
    for first in range(1, m + 1):
        for rest in _compositions(m - first):
            yield (first,) + rest


def build_phi_hierarchy(fam, eps):
    """A new phi_{k,eps} hierarchy on the family (well under a millisecond)."""
    return PhiHierarchy(fam, eps)


# ---- smoothed Riesz means ------------------------------------------------------


def _g_derivatives(m, tau):
    # (1 - u^2)^(m-1) u at u = s / tau, as a polynomial p in s, and its derivatives:
    # [p, p', ..., p^(deg p)].  The derivatives of p^(j) are the list from j on.
    c = np.concatenate(([0.0], np.polynomial.polynomial.polypow([1.0, 0.0, -1.0], m - 1)))
    p = np.polynomial.Polynomial(c / tau ** np.arange(c.size))
    return [p.deriv(r) for r in range(p.degree() + 1)]


def _by_parts(ders, chain, x, y):
    # int_x^y p F_0 = sum_r (-1)^r [p^(r) F_{r+1}]_x^y for a polynomial p, given as
    # ders = [p, p', ..., p^(deg p)], and an antiderivative chain chain(n, s) = F_n(s),
    # F_{n+1}' = F_n: the sum stops at r = deg p, so the integral is a handful of
    # chain values at its two ends.  x and y broadcast to one interval per atom, and
    # so does the result.
    ends = np.array(np.broadcast_arrays(x, y))
    total = 0.0
    for r, d in enumerate(ders):
        v = d(ends) * chain(r + 1, ends)
        total += (-1.0) ** r * (v[1] - v[0])
    return total


def smoothed_riesz(mu, gamma, tau, hier):
    """R_{mu,eps}^gamma(tau) = (2 gamma / tau) integral of G_gamma(s/tau) chi_eps*N_mu.

    gamma must be an integer >= 1, so that G_gamma(u) = (1 - u^2)^(gamma-1) u is a
    polynomial; eps is the hierarchy's.  chi is even, so chi_eps*N_mu(s) = sum_a w
    (B_1(s - a) - B_1(-s - a)) with the point mass at 0 an atom of weight K0/2, and
    the integral is a finite sum of B-chain values at 0 and tau.  Atoms whose band
    lies beyond tau add an exact zero.
    """
    check_positive(tau, "tau")
    if not (float(gamma).is_integer() and gamma >= 1):
        raise ValueError("gamma must be an integer >= 1")
    m = int(gamma)
    ders = _g_derivatives(m, tau)
    a, w = mu.atoms_with_origin
    zero = np.zeros(a.shape)
    total = (_by_parts(ders, lambda n, s: hier._B(n + 1, s - a), zero, tau)
             + _by_parts(ders, lambda n, s: (-1.0) ** (n + 1) * hier._B(n + 1, -s - a),
                         zero, tau)) @ w
    return 2.0 * m / tau * float(total)


# ---- the iterated integration-by-parts identity ---------------------------------


def _identity_sides(mu, m, tau, hier):
    if m not in (1, 2):
        raise ValueError("the iterated identity is checked for m in {1, 2}")
    check_positive(tau, "tau")
    if not mu.purely_atomic:
        raise ValueError("identity check requires a purely atomic odd-extended measure")
    lhs = smoothed_riesz(mu, m, tau, hier)
    ders = _g_derivatives(m, tau)
    rhs = 0.0
    for j in range(0, m + 1, 2):
        kk = m + 1 - j
        rhs += 2.0 * m * hier.b[j] / tau * (
            hier._conv_integral(1, 0, mu, ders[j:], tau)
            - (-1.0) ** m * hier._conv_integral(kk, kk, mu, ders[m:], tau))
    for j in range(0, m, 2):
        rhs -= (2.0**m * math.factorial(m) * hier.b[j] * tau**-m
                * hier.conv_distribution(m - j, mu, tau))
    return lhs, float(rhs)


def iterated_identity_report(mu, m, tau, hier):
    """Both sides of the m-fold identity at tau on the caller's phi-hierarchy."""
    lhs, rhs = _identity_sides(mu, m, tau, hier)
    return {"m": int(m), "eps": hier.eps, "tau": float(tau),
            "lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}


# ---- empirical order check of the pointwise remainder ----------------------------


def reflection_heat_bound(rect, bc, x, t):
    """Diagonal heat-kernel deviation from the free kernel and its reflection bound.

    Returns (deviation, bound) with bound = exp(-d(x)^2/(4t)) / (4 pi t); the image
    sums are exact for the rectangle, so deviation <= bound is a theorem, not a fit.
    """
    sign = boundary_sign(bc)
    check_positive(t, "t")
    px, py = float(x[0]), float(x[1])
    if not (0.0 < px < rect.a and 0.0 < py < rect.b):
        raise ValueError("x must lie strictly inside the rectangle")

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

    Fits block maxima of |(-Delta-lambda)_-^gamma(x,x) - L_{gamma,2} lambda^{gamma+1}|
    against tau = sqrt(lambda) over 12 logarithmic blocks.
    """
    bc = check_bc(bc)
    lam = np.sort(np.asarray(lambda_grid, dtype=float))
    if not (lam.size and lam[0] > 0):
        raise ValueError("lambda grid must be positive and non-empty")
    decades = math.log10(lam[-1] / lam[0])
    if decades < 1.5:
        raise ValueError(f"insufficient lambda range: {decades:.2f} decades < 1.5")

    main_c = lt_constant(gamma, 2)
    vals = pointwise_spectral_function(rect, x, lam, gamma, bc)
    rem = np.array([abs(v - main_c * l ** (gamma + 1.0)) for v, l in zip(vals, lam)])

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
