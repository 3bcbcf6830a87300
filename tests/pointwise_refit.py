"""Independent refit of the pointwise remainder exponent on the unit square.

Shared by the tests that check `pointwise-check` and `tauberian_order_check`
against a route that does not go through weylab's spectral sums.
"""

import math

import numpy as np


def refit_slope(bc, x, gamma, grid):
    """Fitted tau-exponent of |(-Delta - lambda)_-^gamma(x, x) - L_{gamma,2} lambda^{gamma+1}|.

    Separable eigenfunction weights u_m(x)^2 u_n(y)^2 on an (m, n) grid, the
    remainder at each lambda of the grid, its maxima over 12 logarithmic blocks
    and a log-log line through them; bc is "dirichlet" or "neumann".
    """
    m = np.arange(0 if bc == "neumann" else 1, int(math.sqrt(grid[-1]) / math.pi) + 2)
    if bc == "dirichlet":
        wx, wy = (2.0 * np.sin(m * math.pi * c) ** 2 for c in x)
    else:
        wx, wy = (np.where(m == 0, 1.0, 2.0) * np.cos(m * math.pi * c) ** 2 for c in x)
    ev = math.pi**2 * (m[:, None] ** 2 + m[None, :] ** 2)
    amp = wx[:, None] * wy[None, :]
    lt = math.gamma(gamma + 1.0) / (4.0 * math.pi * math.gamma(gamma + 2.0))
    rem = np.array([abs(np.sum(amp * np.clip(lam - ev, 0.0, None) ** gamma)
                        - lt * lam ** (gamma + 1.0)) for lam in grid])
    edges = np.geomspace(grid[0], grid[-1] * (1.0 + 1e-12), 13)
    block = np.clip(np.digitize(grid, edges) - 1, 0, 11)
    peaks = [sel[np.argmax(rem[sel])] for sel in (np.nonzero(block == b)[0] for b in range(12))
             if sel.size]
    return np.polyfit(0.5 * np.log(grid[peaks]), np.log(rem[peaks]), 1)[0]
