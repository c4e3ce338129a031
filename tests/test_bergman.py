import math
from fractions import Fraction

import numpy as np
import pytest

from slitdisc.bergman import (
    BasisSpec,
    KernelEngine,
    QuadratureConfig,
    _path_samples,
    gram_matrix,
    kernel_at,
    laurent,
    metric_path_length,
    monomials,
)
from slitdisc.geometry import DiscObstacle, ParamRT, PointObstacle, annulus, build_domain, punctured_disc, unit_disc

QUAD = QuadratureConfig()


def disc_kernel(z: complex) -> float:
    return 1.0 / (math.pi * (1.0 - abs(z) ** 2) ** 2)


def dense_gram(basis: BasisSpec, quad: QuadratureConfig) -> np.ndarray:
    """Reference Gram matrix from the 2-D tensor polar rule: Gauss-Legendre
    radial nodes on each panel (split at point obstacles) times a uniform
    angular grid of quad.angular_points, summed densely over all nodes."""
    dom = basis.domain
    R = dom.outer_radius
    rho = max([ob.radius for ob in dom.obstacles if isinstance(ob, DiscObstacle)], default=0.0)
    cuts = sorted({abs(ob.location) for ob in dom.obstacles if isinstance(ob, PointObstacle) and rho < abs(ob.location) < R})
    edges = [rho, *cuts, R]
    x, wx = np.polynomial.legendre.leggauss(quad.radial_order)
    s = np.concatenate([0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(edges[:-1], edges[1:])])
    ws = np.concatenate([0.5 * (b - a) * wx for a, b in zip(edges[:-1], edges[1:])])
    m = quad.angular_points
    theta = 2.0 * np.pi * np.arange(m) / m
    nodes = (s[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = ((ws * s)[:, None] * np.full(m, 2.0 * np.pi / m)[None, :]).ravel()
    B = np.power((nodes / R)[:, None], basis.degrees)
    return (B.conj().T * weights) @ B


@pytest.mark.parametrize(
    "basis",
    [monomials(unit_disc(), 30), monomials(punctured_disc(), 30)]
    + [laurent(annulus(rho), -15, 15) for rho in (0.4, 0.5, 0.6)],
    ids=["disc", "punctured", "annulus0.4", "annulus0.5", "annulus0.6"],
)
def test_gram_diagonal_matches_dense_tensor_rule(basis):
    G = dense_gram(basis, QUAD)
    scale = np.max(np.abs(G))
    assert np.max(np.abs(G - G.conj().T)) < 1e-13 * scale
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-13 * scale
    g = gram_matrix(basis, QUAD)
    assert g.shape == (basis.size,)
    assert np.max(np.abs(g - np.diag(G).real) / g) < 1e-13


def test_gram_diagonal_unit_disc():
    basis = monomials(unit_disc(), 12)
    g = gram_matrix(basis, QUAD)
    expect = np.array([math.pi / (n + 1) for n in range(13)])
    assert np.allclose(g, expect, rtol=1e-13, atol=0.0)
    G = dense_gram(basis, QUAD)
    assert np.max(np.abs(G - np.diag(np.diag(G)))) < 1e-14 * math.pi


def test_gram_diagonal_annulus_laurent():
    rho = 0.5
    basis = laurent(annulus(rho), -3, 6)
    g = gram_matrix(basis, QUAD)
    for i, n in enumerate(range(-3, 7)):
        if n == -1:
            expect = 2.0 * math.pi * math.log(1.0 / rho)
        else:
            expect = 2.0 * math.pi * (1.0 - rho ** (2 * n + 2)) / (2 * n + 2)
        assert g[i] == pytest.approx(expect, rel=1e-13), n
    G = dense_gram(basis, QUAD)
    assert np.max(np.abs(G - np.diag(np.diag(G)))) < 1e-13 * np.max(g)


def test_kernel_disc_closed_form():
    est0 = kernel_at(monomials(unit_disc(), 30), QUAD, 0j)
    assert est0.kernel == pytest.approx(1.0 / math.pi, rel=1e-12)
    est = kernel_at(monomials(unit_disc(), 30), QUAD, 0.5 + 0j)
    assert est.kernel == pytest.approx(disc_kernel(0.5), rel=1e-12)
    assert est.basis_size == 31
    assert est.condition < 100.0


def test_kernel_rotation_symmetry():
    b = monomials(unit_disc(), 30)
    kx = kernel_at(b, QUAD, 0.5 + 0j)
    ky = kernel_at(b, QUAD, 0.5j)
    assert ky.kernel == pytest.approx(kx.kernel, rel=1e-12)
    assert ky.metric == pytest.approx(kx.metric, rel=1e-12)


def test_metric_disc_closed_form():
    b = monomials(unit_disc(), 30)
    est0 = kernel_at(b, QUAD, 0j)
    assert est0.metric == pytest.approx(2.0, abs=1e-12)
    est = kernel_at(b, QUAD, 0.5 + 0j)
    assert est.metric == pytest.approx(2.0 / (1.0 - 0.25) ** 2, rel=1e-12)
    # metric, kernel, and the deflated functional are one identity
    assert abs(est.derivative_functional - est.metric * est.kernel) <= 1e-12 * est.derivative_functional


def test_punctured_disc_indistinguishable():
    # a point is a removable singularity for L^2 holomorphic functions
    b_full = monomials(unit_disc(), 20)
    b_punct = monomials(punctured_disc(), 20)
    for z in (0.25 + 0j, 0.1 - 0.6j):
        a = kernel_at(b_full, QUAD, z)
        b = kernel_at(b_punct, QUAD, z)
        assert b.kernel == a.kernel
        assert b.metric == a.metric


def test_truncation_error_at_outer_edge():
    # geometric tail of the kernel series: visible at |z| = 0.9, deg 30
    exact = disc_kernel(0.9)
    est30 = kernel_at(monomials(unit_disc(), 30), QUAD, 0.9 + 0j)
    est60 = kernel_at(monomials(unit_disc(), 60), QUAD, 0.9 + 0j)
    assert abs(est30.kernel - exact) / exact == pytest.approx(1e-2, rel=1.0)
    assert abs(est60.kernel - exact) / exact < 1e-4
    assert 1e-3 < est30.error_proxy < 0.5
    assert est60.error_proxy < est30.error_proxy
    near0 = kernel_at(monomials(unit_disc(), 30), QUAD, 0j)
    assert near0.error_proxy < 1e-12


def test_error_proxy_sees_laurent_bottom_end():
    # at z = 0.7 on the rho = 0.5 annulus the dropped z^-15 term (2.2e-4 of K)
    # outweighs the z^15 one (3.4e-5); the series truncation is 3.0e-4
    est = kernel_at(laurent(annulus(0.5), -15, 15), QUAD, 0.7 + 0j)
    assert est.error_proxy >= 2e-4


def test_annulus_kernel_dominates_disc():
    # smaller domain, larger kernel; needs the annulus basis to contain the
    # disc monomial range so the comparison is between nested function spaces
    deg = 30
    b_disc = monomials(unit_disc(), deg)
    b_ann = laurent(annulus(0.5), -10, deg)
    for x in (0.7, 0.95):
        k_disc = kernel_at(b_disc, QUAD, complex(x)).kernel
        k_ann = kernel_at(b_ann, QUAD, complex(x)).kernel
        assert k_ann >= k_disc, x


def test_annulus_metric_blows_up_at_both_edges():
    b = laurent(annulus(0.5), -15, 15)
    mids = {x: kernel_at(b, QUAD, complex(x)).metric for x in (0.55, 0.71, 0.95)}
    assert mids[0.55] > mids[0.71] < mids[0.95]


def test_refuses_slit_domains():
    dom = build_domain(ParamRT(Fraction(1, 5), Fraction(3, 10)), 5)
    with pytest.raises(ValueError, match="no implemented basis"):
        monomials(dom, 10)


def test_rejects_points_outside_or_on_obstacles():
    b = laurent(annulus(0.5), -5, 10)
    with pytest.raises(ValueError, match="not inside"):
        kernel_at(b, QUAD, 0.3 + 0j)
    with pytest.raises(ValueError, match="not inside"):
        kernel_at(b, QUAD, 1.2 + 0j)
    bp = monomials(punctured_disc(), 10)
    with pytest.raises(ValueError, match="obstacle"):
        kernel_at(bp, QUAD, 0j)


def test_laurent_requires_a_hole():
    with pytest.raises(ValueError, match="origin excluded"):
        laurent(unit_disc(), -3, 5)


def test_condition_cap_trips():
    with pytest.raises(ValueError, match="condition"):
        kernel_at(laurent(annulus(0.5), -40, 10), QUAD, 0.7 + 0j)


def test_quadrature_and_basis_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(radial_order=1)
    with pytest.raises(ValueError):
        QuadratureConfig(angular_points=4)
    with pytest.raises(ValueError):
        BasisSpec(domain=unit_disc(), max_degree=2, min_degree=5)


def test_path_length_radial_geodesic():
    # int_0^x sqrt(2)/(1-s^2) ds = sqrt(2) atanh(x) for the disc metric
    b = monomials(unit_disc(), 60)
    got = metric_path_length(KernelEngine(b, QUAD), (0j, 0.9 + 0j))
    want = math.sqrt(2.0) * math.atanh(0.9)
    assert got == pytest.approx(want, rel=1e-4)


def test_path_length_degenerate_and_validation():
    engine = KernelEngine(monomials(unit_disc(), 10), QUAD)
    assert metric_path_length(engine, (0.2 + 0j, 0.2 + 0j)) == 0.0
    with pytest.raises(ValueError):
        metric_path_length(engine, (0.2 + 0j,))
    with pytest.raises(ValueError):
        metric_path_length(engine, (0j, 0.5 + 0j), samples=1)


def test_path_length_polyline_additive():
    engine = KernelEngine(monomials(unit_disc(), 30), QUAD)
    one = metric_path_length(engine, (0j, 0.3 + 0j, 0.6 + 0j), samples=513)
    two = metric_path_length(engine, (0j, 0.6 + 0j), samples=513)
    assert one == pytest.approx(two, rel=1e-6)


@pytest.mark.parametrize(
    "basis, path",
    [
        (monomials(unit_disc(), 30), (0j, 0.3 + 0.1j, 0.3 + 0.1j, -0.5j)),
        (monomials(punctured_disc(), 20), (0.1 + 0.1j, 0.5 + 0j, 0.5 + 0.5j)),
        (laurent(annulus(0.5), -15, 15), (0.55 + 0j, 0.71 + 0j, 0.95 + 0j)),
    ],
    ids=["disc", "punctured", "annulus"],
)
def test_batched_path_integrand_matches_pointwise(basis, path):
    engine = KernelEngine(basis, QUAD)
    s_grid, zs = _path_samples(path, 257)
    batched = engine.metric(zs)
    pointwise = np.array([engine.estimate(z).metric for z in zs])
    assert np.max(np.abs(batched - pointwise) / pointwise) <= 1e-15
    want = float(np.trapezoid(np.sqrt(np.maximum(pointwise, 0.0)), s_grid))
    assert metric_path_length(engine, path) == pytest.approx(want, rel=1e-15)


def test_path_through_puncture_rejected():
    engine = KernelEngine(monomials(punctured_disc(), 10), QUAD)
    with pytest.raises(ValueError, match="obstacle"):
        metric_path_length(engine, (-0.5 + 0j, 0.5 + 0j))
