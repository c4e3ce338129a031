"""Output checks that do not come from slitdisc.

Every expected value here is computed by the benchmark itself: closed-form
capacities, the roots-of-unity and Gauss-Lobatto Fekete energies, exact
Fraction threshold comparisons, and Bergman kernels summed from the
diagonal monomial Gram matrix of a radially symmetric domain.  Nothing in
this module imports slitdisc.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import legendre


class CheckFailed(Exception):
    """An output of the program disagrees with an independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(got: float, want: float, tol: float, what: str) -> None:
    require(abs(got - want) <= tol, f"{what}: got {got!r}, want {want!r} within {tol:.3g}")


def json_float(v) -> float:
    """Floats as slitdisc's JSON writes them: non-finite values are strings."""
    return float(v) if isinstance(v, str) else v


# ---------------------------------------------------------------------------
# capacity


def circle_log_cap(radius: float) -> float:
    return math.log(radius)


def segment_log_cap(length: float) -> float:
    return math.log(length / 4.0)


def arc_log_cap(radius: float, half_width: float) -> float:
    return math.log(radius * math.sin(half_width / 2.0))


def two_arcs_log_cap(radius: float, half_width: float) -> float:
    """Two opposite arcs of one circle, each of half-width w <= pi/2.

    z -> z^2 maps the pair onto one arc of radius R^2 and half-width 2w, and
    the capacity of a preimage under a monic degree-d polynomial is the d-th
    root of the image's capacity: log R + (1/2) log sin w.
    """
    return math.log(radius) + 0.5 * math.log(math.sin(half_width))


def _pair_log_sum(x: np.ndarray) -> float:
    i, j = np.triu_indices(len(x), k=1)
    return float(np.sum(np.log(np.abs(x[i] - x[j]))))


def circle_fekete_energy(n: int, radius: float) -> float:
    """Energy of the n-th roots of unity on a circle of radius R, the optimum."""
    return math.comb(n, 2) * math.log(radius) + 0.5 * n * math.log(n)


def segment_fekete_energy(n: int, length: float) -> float:
    """Energy of the Gauss-Lobatto points (+-1 and the zeros of P'_{n-1}),
    the Fekete set of [-1, 1], rescaled to a segment of the given length."""
    inner = legendre.Legendre.basis(n - 1).deriv().roots()
    x = np.concatenate([[-1.0], np.real(inner), [1.0]])
    return _pair_log_sum(x) + math.comb(n, 2) * math.log(length / 2.0)


# ---------------------------------------------------------------------------
# Wiener-type thresholds, exact


def classification(r, t) -> str:
    """Threshold rule of the paper, compared in Fractions: r^2 <= t is
    complete by exhaustion, t <= r^4 is not complete, between is unknown."""
    r, t = Fraction(r), Fraction(t)
    if r * r <= t:
        return "ExhaustiveHenceComplete"
    if t <= r**4:
        return "NotComplete"
    return "Unknown"


def divergent_at_origin(r, t, n: int) -> bool:
    """gamma^(n)(0) diverges exactly when t >= r^(2n+2)."""
    return Fraction(t) >= Fraction(r) ** (2 * n + 2)


# ---------------------------------------------------------------------------
# Bergman kernel on radially symmetric domains {rho < |z| < 1}


def monomial_log_norm_sq(degrees: np.ndarray, rho: float) -> np.ndarray:
    """log ||z^n||^2 = log(2 pi int_rho^1 s^(2n+1) ds), rho = 0 for the disc."""
    out = np.empty(len(degrees))
    for i, d in enumerate(degrees):
        d = int(d)
        if d == -1:
            out[i] = math.log(2.0 * math.pi * -math.log(rho))
        elif rho == 0.0:
            out[i] = math.log(math.pi / (d + 1))
        else:
            # pi (1 - rho^(2d+2)) / (d+1), with both signs of d+1 kept positive
            e = (2 * d + 2) * math.log(rho)
            mag = math.log(-math.expm1(e)) if e < 0 else e + math.log(-math.expm1(-e))
            out[i] = math.log(math.pi) + mag - math.log(abs(d + 1))
    return out


def series_kernel(z, min_degree: int, max_degree: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Finite-basis kernel K and metric beta = I/K at the points z (z != 0
    when min_degree < 1), from the diagonal Gram matrix:
    K = sum |z^n|^2/||z^n||^2, and I = A - |c|^2/K with A and c the same
    sums over the derivative functional."""
    deg = np.arange(min_degree, max_degree + 1)
    inv_norm = np.exp(-monomial_log_norm_sq(deg, rho))
    zs = np.atleast_1d(np.asarray(z, dtype=complex))[:, None]
    e = zs**deg
    dv = np.where(deg == 0, 0.0, deg * zs ** np.where(deg == 0, 0, deg - 1))
    K = np.sum(np.abs(e) ** 2 * inv_norm, axis=1)
    A = np.sum(np.abs(dv) ** 2 * inv_norm, axis=1)
    c = np.sum(np.conj(e) * dv * inv_norm, axis=1)
    return K, (A - np.abs(c) ** 2 / K) / K


def true_kernel(z: complex, rho: float) -> float:
    """Bergman kernel on the diagonal: closed form on the disc, the full
    Laurent series (summed until its terms vanish) on an annulus."""
    s = abs(z)
    if rho == 0.0:
        return 1.0 / (math.pi * (1.0 - s * s) ** 2)
    n_max = int(math.ceil(60.0 / -math.log(max(s, rho / s)))) + 4
    deg = np.arange(-n_max, n_max + 1)
    logs = 2.0 * deg * math.log(s) - monomial_log_norm_sq(deg, rho)
    return float(np.sum(np.exp(logs)))


def gram_condition(min_degree: int, max_degree: int, rho: float) -> float:
    """2-norm condition number of the (diagonal) monomial Gram matrix."""
    logs = monomial_log_norm_sq(np.arange(min_degree, max_degree + 1), rho)
    return math.exp(float(np.max(logs) - np.min(logs)))


def radial_path_length(a: float, b: float, min_degree: int, max_degree: int, rho: float) -> float:
    """Bergman length of the radial segment a <= |z| <= b: the integral of
    sqrt(beta) by 64-point Gauss-Legendre on each of 16 panels."""
    x, w = legendre.leggauss(64)
    edges = np.linspace(a, b, 17)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = half * x[None, :] + 0.5 * (edges[:-1] + edges[1:])[:, None]
    _, beta = series_kernel(nodes.ravel(), min_degree, max_degree, rho)
    return float(np.sum((half * w[None, :]).ravel() * np.sqrt(np.maximum(beta, 0.0))))
