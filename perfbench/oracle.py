"""40-digit oracle for the tauberian-demo b-table, independent of weylab.

psi is the inverse cosine transform of the Gevrey profile
q(xi) = exp(-4 (1 - (2 xi)^2)^(-3/2)) on |xi| < 1/2, normalized so that
phi = psi^2 integrates to one.  Its even moments follow by Plancherel,
M_2j = (1/2pi) int |q^(j)|^2 dxi, and the bump moments are
c_k = int u^k chi(u) du for the normalized chi = exp(-1/(1-u^2)).  Both are
independent of eps.  The hierarchy moments and the b-table follow from

    I_k = M_k/k! - sum_{j even < k} I_j c_{k-j} eps^{k-j} / (k-j)!
    b_m = (-1)^{m-1} sum_{j even < m} b_j I_{m-j},  b_0 = 1, odd b_m = 0.

Run ``python3 perfbench/oracle.py`` to recompute the pinned values with
mpmath (about 2 s) and compare them with the pins below.
"""

import sys

PLANCHEREL_MOMENTS = {  # M_k
    2: "31.89582535048871447964404578767902589245",
    4: "2866.591340609664932278530294730189939361",
    6: "451586.4407029000867939907037301561282362",
}
BUMP_MOMENTS = {  # c_k
    2: "0.1581136362637982302280504281590563231945",
    4: "0.05298181802207716836488068505449011711117",
    6: "0.02306298678193304709920241945381606225008",
}


def b_table(eps, moments=PLANCHEREL_MOMENTS, bump=BUMP_MOMENTS):
    """b_0..b_6 at eps (floats) from the pinned 40-digit moments."""
    import mpmath as mp
    with mp.workdps(45):
        big_m = {k: mp.mpf(v) for k, v in moments.items()}
        c = {k: mp.mpf(v) for k, v in bump.items()}
        e = mp.mpf(eps)
        i = {0: mp.mpf(1)}
        for k in (2, 4, 6):
            v = big_m[k] / mp.factorial(k)
            for j in range(0, k, 2):
                v -= i[j] * c[k - j] * e ** (k - j) / mp.factorial(k - j)
            i[k] = v
        b = {0: mp.mpf(1)}
        for m in (2, 4, 6):
            b[m] = (-1) ** (m - 1) * sum(b[j] * i[m - j] for j in range(0, m, 2))
        return [float(b.get(m, 0)) for m in range(7)]


def compute(dps=45):
    """Recompute (M_k, c_k) for k = 2, 4, 6 as 40-digit strings."""
    import mpmath as mp
    with mp.workdps(dps):
        half = mp.mpf(1) / 2

        def q_derivs(x):
            # q = e^g with g = -4 u^(-3/2), u = 1 - 4 x^2; Faa di Bruno up to order 3
            u = 1 - 4 * x * x
            g1 = -48 * x * u ** mp.mpf(-2.5)
            g2 = -48 * u ** mp.mpf(-2.5) - 960 * x * x * u ** mp.mpf(-3.5)
            g3 = -2880 * x * u ** mp.mpf(-3.5) - 26880 * x**3 * u ** mp.mpf(-4.5)
            q = mp.exp(-4 * u ** mp.mpf(-1.5))
            return (q, q * g1, q * (g2 + g1**2), q * (g3 + 3 * g1 * g2 + g1**3))

        z = mp.quad(lambda x: q_derivs(x)[0] ** 2, [-half, 0, half])
        big_m = {2 * j: 1 / z * mp.quad(lambda x: q_derivs(x)[j] ** 2, [-half, 0, half])
                 for j in (1, 2, 3)}
        chi = lambda u: mp.exp(-1 / (1 - u * u))
        cz = mp.quad(chi, [-1, 0, 1])
        c = {k: mp.quad(lambda u: u**k * chi(u), [-1, 0, 1]) / cz for k in (2, 4, 6)}
        return ({k: mp.nstr(v, 40) for k, v in big_m.items()},
                {k: mp.nstr(v, 40) for k, v in c.items()})


if __name__ == "__main__":
    import mpmath as mp
    big_m, c = compute()
    worst = 0.0
    for name, fresh, pinned in (("M", big_m, PLANCHEREL_MOMENTS), ("c", c, BUMP_MOMENTS)):
        for k in sorted(fresh):
            rel = abs(mp.mpf(fresh[k]) / mp.mpf(pinned[k]) - 1)
            worst = max(worst, float(rel))
            print(f"{name}_{k} = {fresh[k]}   (pinned: relative difference {float(rel):.1e})")
    for eps in (0.1, 0.05):
        print(f"eps = {eps}: b = {b_table(eps, big_m, c)}")
    ok = worst < 1e-35
    print("pins reproduced" if ok else "PINS DIFFER")
    sys.exit(0 if ok else 1)
