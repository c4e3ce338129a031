"""50-digit reference for the shell sandwich sums of gamma^(n)(0).

Sums every lower and upper shell bound of D^{r,t} directly up to the first
M > k0 with M L t^M < 1e-45 (L = log 1/r), where g(j) equals t^j to 45
digits, and closes both sums there with their geometric remainders.
"""

from fractions import Fraction

import mpmath

from slitdisc.geometry import ParamRT, first_shell_index, first_trapped_index


def _mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def sandwich_sums(r: Fraction, t: Fraction, n: int):
    """(sum of lower shell bounds, sum of upper shell bounds) as 50-digit mpf."""
    params = ParamRT(r, t)
    k0, jmin = first_shell_index(params), first_trapped_index(params)
    with mpmath.workdps(50):
        R, T = _mpf(r), _mpf(t)
        L, p = mpmath.log(1 / R), 2 * n + 2
        q = T / R**p
        M = k0 + 1
        while M * L * T**M >= mpmath.mpf(10) ** -45:
            M += 1
        g = [None] + [1 / (T ** (-j) + j * L) for j in range(1, M + 2)]
        tail = [None] * (M + 3)
        tail[M + 2] = T ** (M + 2) / (1 - T)  # sum_{j > M+1} t^j
        for j in range(M + 1, 0, -1):
            tail[j] = g[j] + tail[j + 1]
        width = mpmath.mpf(1) / 4 - 2 * R ** (k0 + 1)
        lower = [width * 4 ** (2 * n + 3) * g[k0 + 1]]
        upper = [width * (2 * R ** (k0 + 1)) ** (-(2 * n + 3)) * tail[jmin]]
        for k in range(k0 + 1, M + 1):
            lower.append((2 * R**k) ** -p * (1 - R) * g[k + 1])
            upper.append((2 * R ** (k + 1)) ** -p * (1 / R - 1) * tail[k])
        # past M: g(k+1) = t^(k+1) and sum_{j>=k} g(j) = t^k / (1 - t), so the
        # terms are geometric with ratio q
        rest_lower = 2**-p * (1 - R) * T * q ** (M + 1) / (1 - q)
        rest_upper = 2**-p * R**-p * (1 / R - 1) / (1 - T) * q ** (M + 1) / (1 - q)
        return mpmath.fsum(lower) + rest_lower, mpmath.fsum(upper) + rest_upper
