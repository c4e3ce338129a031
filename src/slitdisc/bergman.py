"""Bergman kernel and metric on validation domains.

K_D(z) = sup |f(z)|^2 / ||f||^2 over L^2-holomorphic f is computed as the
finite-basis supremum e* G^{-1} e with G the Gram matrix of scaled monomials
(z/R)^n (Laurent powers on annuli).  Every supported domain is radially
symmetric, so distinct powers are orthogonal and G is diagonal: its entries
are the radial moments g_n = 2 pi int (s/R)^(2n) s ds, taken by 1-D
Gauss-Legendre on radial panels, and K = sum |e_n|^2 / g_n.  The derivative
functional I_D(z,1) is the same quadratic form over the subspace f(z) = 0,
I = A - |c|^2/K with A = sum |d_n|^2 / g_n and c = sum conj(e_n) d_n / g_n
(d the derivative evaluation vector), and the metric is the classical
quotient beta_D = I/K.  All three are sums over the basis, so one vectorised
pass serves any number of points.

The engine deliberately refuses domains with arc or segment obstacles: their
Bergman space strictly exceeds restrictions of disc functions, and a monomial
computation would be silently wrong.  Discs, annuli, and punctured variants
are the supported validation domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import (
    DiscObstacle,
    DomainSpec,
    PointObstacle,
    _point_on_obstacle,
)

CONDITION_CAP = 1e14


@dataclass(frozen=True)
class QuadratureConfig:
    """Polar quadrature: `radial_order` Gauss-Legendre nodes per radial panel.

    The angular integral of |(z/R)^n|^2 is exactly 2 pi, so no angular grid is
    built.  `angular_points` sizes no computation; it is only validated, for
    callers that still read it."""

    radial_order: int = 64
    angular_points: int = 512

    def __post_init__(self) -> None:
        if self.radial_order < 2:
            raise ValueError("radial_order must be >= 2")
        if self.angular_points < 8:
            raise ValueError("angular_points must be >= 8")


@dataclass(frozen=True)
class BasisSpec:
    """Scaled power basis (z/R)^n for n in [min_degree, max_degree]."""

    domain: DomainSpec
    max_degree: int
    min_degree: int = 0

    def __post_init__(self) -> None:
        if self.max_degree < self.min_degree:
            raise ValueError("max_degree must be >= min_degree")
        rho, _ = _radial_profile(self.domain)
        if self.min_degree < 0 and rho <= 0.0:
            raise ValueError("negative (Laurent) degrees need the origin excluded by a positive-radius obstacle")

    @property
    def degrees(self) -> np.ndarray:
        return np.arange(self.min_degree, self.max_degree + 1)

    @property
    def size(self) -> int:
        return self.max_degree - self.min_degree + 1


def monomials(domain: DomainSpec, max_degree: int) -> BasisSpec:
    return BasisSpec(domain=domain, max_degree=max_degree)


def laurent(domain: DomainSpec, min_degree: int, max_degree: int) -> BasisSpec:
    return BasisSpec(domain=domain, max_degree=max_degree, min_degree=min_degree)


@dataclass(frozen=True)
class KernelEstimate:
    z: complex
    kernel: float  # K_D(z)
    metric: float  # beta_D(z) = I/K
    derivative_functional: float  # I_D(z, 1)
    basis_size: int
    quad_points: int  # radial quadrature nodes
    error_proxy: float  # relative K change from dropping an end basis function (the larger end on a Laurent basis)
    condition: float  # 2-norm condition number of the Gram matrix, max(g)/min(g)


def _radial_profile(domain: DomainSpec) -> tuple[float, float]:
    """(inner radius, outer radius) of the radially-symmetric area; rejects
    obstacle shapes whose Bergman space has no implemented basis."""
    rho = 0.0
    for ob in domain.obstacles:
        if isinstance(ob, PointObstacle):
            continue
        if isinstance(ob, DiscObstacle) and ob.center == 0j:
            rho = max(rho, ob.radius)
            continue
        raise ValueError(
            "no implemented basis for domains with arc, segment, or off-center disc "
            "obstacles; the kernel engine runs on disc/annulus/punctured domains only"
        )
    return rho, domain.outer_radius


def _radial_edges(domain: DomainSpec) -> list[float]:
    """Radial panel edges: the inner radius, the radii of point obstacles
    between, and the outer radius."""
    rho, R = _radial_profile(domain)
    cuts = sorted(
        {abs(ob.location) for ob in domain.obstacles if isinstance(ob, PointObstacle) and rho < abs(ob.location) < R}
    )
    return [rho, *cuts, R]


@lru_cache(maxsize=8)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order and
    shared read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gram_matrix(basis: BasisSpec, quad: QuadratureConfig) -> np.ndarray:
    """Diagonal of the Gram matrix, g_n = <b_n, b_n> = 2 pi int (s/R)^(2n) s ds
    over the radial panels; the off-diagonal entries vanish by radial symmetry."""
    edges = np.array(_radial_edges(basis.domain))
    x, wx = _legendre_rule(quad.radial_order)
    half = 0.5 * np.diff(edges)[:, None]
    s = (half * x + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    ws = (half * wx).ravel()
    powers = (s / basis.domain.outer_radius)[:, None] ** (2 * basis.degrees)
    g = 2.0 * np.pi * ((ws * s) @ powers)
    if not np.all(np.isfinite(g) & (g > 0.0)):
        raise ValueError("Gram norms not all finite and positive; quadrature inconsistent")
    return g


class KernelEngine:
    """One Gram computation, then kernel and metric at any number of points."""

    def __init__(self, basis: BasisSpec, quad: QuadratureConfig):
        self.basis = basis
        self.quad = quad
        self.norms = gram_matrix(basis, quad)
        self.condition = float(np.max(self.norms) / np.min(self.norms))
        if not (self.condition < CONDITION_CAP):
            raise ValueError(
                f"Gram matrix condition {self.condition:.3e} exceeds {CONDITION_CAP:.0e}; use a smaller basis"
            )
        self.quad_points = (len(_radial_edges(basis.domain)) - 1) * quad.radial_order
        self._rho, self._R = _radial_profile(basis.domain)

    def _check_inside(self, zs: np.ndarray) -> None:
        r = np.abs(zs)
        inside = (r < self._R) & ((self._rho < r) | (self._rho == 0.0))
        if not inside.all():
            raise ValueError(f"point {complex(zs[np.argmin(inside)])} not inside the domain's area")
        for z in zs.tolist():
            for ob in self.basis.domain.obstacles:
                if _point_on_obstacle(z, ob):
                    raise ValueError(f"point {z} lies on an obstacle")

    def _forms(self, zs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evaluation vectors e (one row per point), K and I at the points zs."""
        self._check_inside(zs)
        deg = self.basis.degrees
        R = self.basis.domain.outer_radius
        w = zs[:, None] / R
        e = w**deg
        # the constant's derivative is 0, even at w = 0
        d = (deg / R) * w ** np.where(deg == 0, 0, deg - 1)
        g = self.norms
        K = np.sum(np.abs(e) ** 2 / g, axis=1)
        bad = np.flatnonzero(~(K > 0.0))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"kernel estimate {K[i]} not positive; basis cannot represent evaluation at {complex(zs[i])}"
            )
        A = np.sum(np.abs(d) ** 2 / g, axis=1)
        c = np.sum(e.conj() * d / g, axis=1)
        return e, K, A - np.abs(c) ** 2 / K

    def metric(self, zs) -> np.ndarray:
        """beta_D = I/K at every point of zs, in one vectorised pass."""
        _, K, I = self._forms(np.asarray(zs, dtype=complex).ravel())
        return I / K

    def estimate(self, z: complex) -> KernelEstimate:
        e, K, I = self._forms(np.array([complex(z)]))
        e, K, I = e[0], float(K[0]), float(I[0])
        # with a diagonal Gram, dropping an end basis function lowers K by its term
        if self.basis.size > 1:
            dropped = abs(e[-1]) ** 2 / self.norms[-1]
            if self.basis.min_degree < 0:
                dropped = max(dropped, abs(e[0]) ** 2 / self.norms[0])
            proxy = float(dropped / K)
        else:
            proxy = math.inf
        return KernelEstimate(
            z=complex(z),
            kernel=K,
            metric=I / K,
            derivative_functional=I,
            basis_size=self.basis.size,
            quad_points=self.quad_points,
            error_proxy=proxy,
            condition=self.condition,
        )


def kernel_at(basis: BasisSpec, quad: QuadratureConfig, z: complex) -> KernelEstimate:
    """Finite-basis Bergman data at one point; see KernelEngine for reuse."""
    return KernelEngine(basis, quad).estimate(z)


def _path_samples(path: tuple[complex, ...], samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Arclength grid and the arclength-uniform points on the polyline."""
    pts = np.array([complex(p) for p in path])
    if len(pts) < 2:
        raise ValueError("path needs at least two waypoints")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    seg = np.abs(np.diff(pts))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s_grid = np.linspace(0.0, cum[-1], samples)
    j = np.minimum(np.searchsorted(cum, s_grid, side="right") - 1, len(pts) - 2)
    frac = np.divide(s_grid - cum[j], seg[j], out=np.zeros(samples), where=seg[j] > 0.0)
    return s_grid, pts[j] + frac * (pts[j + 1] - pts[j])


def metric_path_length(engine: KernelEngine, path: tuple[complex, ...], samples: int = 257) -> float:
    """Composite-trapezoid Bergman length of a polyline: integral of
    sqrt(beta) with respect to arclength, every sample in one engine pass."""
    s_grid, zs = _path_samples(path, samples)
    if s_grid[-1] == 0.0:
        return 0.0
    integrand = np.sqrt(np.maximum(engine.metric(zs), 0.0))
    return float(np.trapezoid(integrand, s_grid))
