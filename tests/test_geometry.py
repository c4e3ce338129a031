import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slitdisc.geometry import (
    ArcObstacle,
    CompactSet,
    DiscObstacle,
    DomainSpec,
    ParamRT,
    PointObstacle,
    SegmentObstacle,
    annulus,
    arc,
    build_domain,
    circle,
    descriptor_contains,
    first_shell_index,
    first_trapped_index,
    make_arc,
    punctured_disc,
    shell,
    trapped_obstacles,
    unit_disc,
)
from slitdisc.capacity import log_capacity
from slitdisc.geometry import _angular_overlap, _check_pairwise_disjoint, _point_on_obstacle

F = Fraction


def test_params_validation():
    ParamRT(F(1, 8), F(1, 32))
    with pytest.raises(ValueError):
        ParamRT(F(0), F(1, 32))
    with pytest.raises(ValueError):
        ParamRT(F(1, 8), F(1, 2))  # t < 1/2 strictly
    with pytest.raises(ValueError):
        ParamRT(F(9, 8), F(1, 32))
    p = ParamRT(F(1, 2), F(1, 32))
    assert not p.in_stated_range
    assert any("stated" in f for f in p.flags())


def test_make_arc_log_identity_exact():
    # log cap data of arc k: log_radius = k log r, log_sin_quarter = -t^(-k)
    p = ParamRT(F(1, 8), F(1, 32))
    for k in (1, 2, 3, 7):
        a = make_arc(p, k)
        assert a.log_sin_quarter == -float(32**k)
        assert a.log_radius_value == k * math.log(1 / 8)
        assert a.radius == 0.125**k
        assert a.center_angle == 0.0


def test_make_arc_width_ladder():
    # k = 1 at t = 1/32: half_width = 2 asin(e^-32), representable
    p = ParamRT(F(1, 8), F(1, 32))
    a1 = make_arc(p, 1)
    assert a1.half_width == pytest.approx(2.0 * math.exp(-32.0), rel=1e-12)
    assert not a1.point_like
    # k = 2: e^(-1024) underflows, width 0.0 but log data finite
    a2 = make_arc(p, 2)
    assert a2.half_width == 0.0 and a2.point_like and not a2.degenerate
    assert a2.log_sin_quarter == -1024.0
    # -k log t > 709: t^(-k) itself overflows, arc degrades to a point
    a_deg = make_arc(p, 210)
    assert a_deg.degenerate and a_deg.log_sin_quarter == float("-inf")


def test_make_arc_radius_underflow():
    p = ParamRT(F(1, 10), F(1, 100))
    with pytest.raises(OverflowError):
        make_arc(p, 400)  # 10^-400 below float range


def test_build_domain_family():
    p = ParamRT(F(1, 5), F(3, 10))
    dom = build_domain(p, 12)
    arcs = [ob for ob in dom.obstacles if isinstance(ob, ArcObstacle)]
    pts = [ob for ob in dom.obstacles if isinstance(ob, PointObstacle)]
    assert len(arcs) == 12 and len(pts) == 1 and pts[0].location == 0j
    assert dom.family == p
    assert "r=1/5" in dom.label and "t=3/10" in dom.label


def test_build_domain_truncates_on_underflow():
    p = ParamRT(F(1, 10), F(2, 5))
    dom = build_domain(p, 500)
    arcs = [ob for ob in dom.obstacles if isinstance(ob, ArcObstacle)]
    assert len(arcs) < 500
    assert "truncat" in dom.label


_exact_or_float_r = st.one_of(st.fractions(F(1, 20), F(1, 2), max_denominator=40), st.floats(0.05, 0.5))
_exact_or_float_t = st.one_of(st.fractions(F(1, 200), F(49, 100), max_denominator=200), st.floats(0.005, 0.49))


# (1/20, 1/200) up to k = 400: e^(-t^-k) underflows from k = 2, t^-k
# overflows from k = 134 (degenerate arcs), r^k underflows at k = 249
@example(r=F(1, 20), t=F(1, 200), k_max=400)
@example(r=0.05, t=0.005, k_max=400)
@given(r=_exact_or_float_r, t=_exact_or_float_t, k_max=st.integers(1, 400))
def test_build_domain_arcs_are_make_arc(r, t, k_max):
    p = ParamRT(r, t)
    dom = build_domain(p, k_max)
    *arcs, origin = dom.obstacles
    assert origin == PointObstacle(0j)
    for k, a in enumerate(arcs, start=1):
        assert a == make_arc(p, k), k
    if len(arcs) < k_max:  # truncated where the radius underflows
        with pytest.raises(OverflowError):
            make_arc(p, len(arcs) + 1)
        assert f"truncated at k={len(arcs)}" in dom.label


@example(r=F(1, 20), t=F(1, 200), k_max=248)
@given(r=_exact_or_float_r, t=_exact_or_float_t, k_max=st.integers(1, 248))
def test_family_arc_log_capacity_is_k_log_r_minus_t_to_the_minus_k(r, t, k_max):
    # the stored log data, not the underflowing half_width, give the capacity:
    # on both sides of the e^(-t^-k) underflow, and -inf once t^-k overflows
    p = ParamRT(r, t)
    for k in range(1, k_max + 1):
        a = make_arc(p, k)
        got = log_capacity(a).log_value
        if a.degenerate:
            assert got == -math.inf
        else:
            assert got == k * math.log(float(r)) - float(t) ** -k, (k, a.half_width)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_obstacles_reject_non_finite_inputs(bad):
    makers = [
        lambda: ArcObstacle(bad, 0.0, 0.1, -3.0),
        lambda: ArcObstacle(0.1, bad, 0.1, -3.0),
        lambda: ArcObstacle(0.1, 0.0, bad, -3.0),
        lambda: ArcObstacle(0.1, 0.0, 0.1, -3.0, log_radius=bad),
        lambda: arc(bad, 0.0, 0.1),
        lambda: arc(0.1, bad, 0.1),
        lambda: arc(0.1, 0.0, bad),
        lambda: circle(bad),
        lambda: DiscObstacle(0j, bad),
        lambda: DiscObstacle(complex(bad, 0.0), 0.1),
        lambda: DiscObstacle(complex(0.0, bad), 0.1),
        lambda: SegmentObstacle(0j, complex(bad, 0.0)),
        lambda: SegmentObstacle(complex(0.0, bad), 0.1 + 0j),
    ]
    if not bad < 0:  # log sin of the quarter width may be -inf (a degenerate arc)
        makers.append(lambda: ArcObstacle(0.1, 0.0, 0.1, bad))
    for make in makers:
        with pytest.raises(ValueError):
            make()


def test_first_shell_index_values():
    assert first_shell_index(ParamRT(F(1, 5), F(1, 100))) == 1
    assert first_shell_index(ParamRT(F(3, 10), F(1, 100))) == 2
    assert first_shell_index(ParamRT(F(9, 20), F(1, 100))) == 2
    assert first_shell_index(ParamRT(F(1, 2), F(1, 100))) == 3


@given(st.fractions(min_value=0, max_value=F(1, 2), max_denominator=10**4).filter(lambda r: r > 0))
def test_shell_indices_match_fraction_definitions(r):
    p = ParamRT(r, F(1, 100))
    j = 1
    while r**j > F(1, 4):
        j += 1
    assert first_trapped_index(p) == j
    k = 1
    while not (r**k <= F(1, 4) and 2 * r ** (k + 1) < F(1, 4)):
        k += 1
    assert first_shell_index(p) == k


def test_shell_indices_float_half_and_beyond():
    assert first_shell_index(ParamRT(0.5, 0.01)) == 3
    assert first_shell_index(ParamRT(0.4999999999999999, 0.01)) == 2
    with pytest.raises(ValueError, match="r <= 1/2"):
        first_shell_index(ParamRT(0.5000000000000001, 0.01))
    with pytest.raises(ValueError, match="r <= 1/2"):
        first_shell_index(ParamRT(F(3, 5), F(1, 100)))


def test_shell_examples():
    # r = 0.2: shells [2 r^(k+1), 2 r^k], first shell clamped at 1/4
    p = ParamRT(F(1, 5), F(1, 100))
    s1 = shell(p, 1)
    assert s1.inner_radius == pytest.approx(2 * 0.2**2) and s1.outer_radius == 0.25
    s2 = shell(p, 2)
    assert s2.inner_radius == pytest.approx(0.016) and s2.outer_radius == pytest.approx(0.08)
    # shell k traps exactly arc k
    assert s2.inner_radius <= 0.2**2 <= s2.outer_radius


def test_shell_errors():
    p45 = ParamRT(F(9, 20), F(1, 100))
    with pytest.raises(ValueError, match="2"):
        shell(p45, 1)  # first shell index is 2
    with pytest.raises(ValueError):
        shell(ParamRT(F(3, 5), F(1, 100)), 3)  # r > 1/2: no shell traps its arc
    # r = 1/2 still works via closed-interval trapping
    s = shell(ParamRT(F(1, 2), F(1, 100)), 3)
    assert s.inner_radius <= 0.5**3 <= s.outer_radius


def test_trapped_at_origin_exact_radii():
    p = ParamRT(F(1, 5), F(3, 10))
    dom = build_domain(p, 20)
    # delta = r^k: arcs 1..k-1 outside, arcs k.. inside (closed disc)
    for k in (2, 5, 9):
        got = trapped_obstacles(dom, 0j, 0.2**k)
        radii = sorted(ob.radius for ob in got.pieces if isinstance(ob, ArcObstacle))
        assert radii[-1] == pytest.approx(0.2**k)
        assert len(radii) == 20 - k + 1
        assert any(isinstance(ob, PointObstacle) for ob in got.pieces)


def test_trapped_monotone_in_delta():
    p = ParamRT(F(1, 5), F(3, 10))
    dom = build_domain(p, 15)
    deltas = [1e-6, 1e-4, 1e-2, 0.2, 0.9]
    sets = [trapped_obstacles(dom, 0j, d) for d in deltas]
    for small, big in zip(sets[:-1], sets[1:]):
        assert descriptor_contains(small, big)


def test_trapped_off_origin_containment():
    # the geometric step behind gamma(x) <= gamma(0): every trapped piece at
    # x on the negative real axis is trapped at the origin too; holds for
    # every -1 < x < 0 here because the arcs sit within pi/2 of angle 0
    p = ParamRT(F(1, 5), F(3, 10))
    dom = build_domain(p, 15)
    for x in (-0.3, -1e-3, -1e-6):
        for delta in (1e-5, 1e-3, 0.05, 0.24):
            at_x = trapped_obstacles(dom, complex(x), delta)
            at_0 = trapped_obstacles(dom, 0j, delta)
            assert descriptor_contains(at_x, at_0), (x, delta)


def test_clip_partial_arc():
    # probe circle cutting a quarter circle out of a full circle
    ob = circle(1.0)
    dom = DomainSpec(outer_radius=2.0, obstacles=(ob,), label="test")
    got = trapped_obstacles(dom, 1.0 + 0j, 0.5)
    assert len(got.pieces) == 1
    piece = got.pieces[0]
    assert isinstance(piece, ArcObstacle)
    # chord geometry: |e^{i a} - 1| = 0.5 at a = 2 asin(1/4)
    assert piece.half_width == pytest.approx(2.0 * math.asin(0.25), rel=1e-9)
    assert abs(piece.center_angle) < 1e-12


def test_clip_whole_arc_preserves_exact_fields():
    p = ParamRT(F(1, 8), F(1, 32))
    dom = build_domain(p, 3)
    a2 = make_arc(p, 2)
    got = trapped_obstacles(dom, 0j, 0.125)  # traps arcs 2, 3 wholly
    arcs = [ob for ob in got.pieces if isinstance(ob, ArcObstacle)]
    match = [ob for ob in arcs if ob.radius == a2.radius]
    assert match and match[0].log_sin_quarter == a2.log_sin_quarter


def test_trapped_empty_and_polar():
    dom = unit_disc()
    assert trapped_obstacles(dom, 0.3 + 0.1j, 0.2).is_empty
    pd = punctured_disc()
    got = trapped_obstacles(pd, 0j, 0.1)
    assert got.is_polar and not got.is_empty


def test_point_like_arcs_are_not_polar():
    # underflowed width with finite log_sin_quarter keeps positive capacity
    p = ParamRT(F(1, 5), F(3, 10))
    dom = build_domain(p, 30)
    got = trapped_obstacles(dom, 0j, 0.2**20)
    assert not got.is_polar
    assert all(ob.point_like for ob in got.pieces if isinstance(ob, ArcObstacle))


def test_disjointness_rejections():
    with pytest.raises(ValueError):
        DomainSpec(outer_radius=1.0, obstacles=(circle(0.5), circle(0.5)), label="x")
    with pytest.raises(ValueError):
        DomainSpec(
            outer_radius=1.0,
            obstacles=(DiscObstacle(0j, 0.3), DiscObstacle(0.4 + 0j, 0.2)),
            label="x",
        )
    with pytest.raises(ValueError):
        DomainSpec(outer_radius=1.0, obstacles=(PointObstacle(0.5 + 0j), circle(0.5)), label="x")
    with pytest.raises(ValueError):
        DomainSpec(outer_radius=0.5, obstacles=(circle(0.9),), label="x")  # outside closure


def test_segment_clip():
    seg = SegmentObstacle(-1 + 0j, 1 + 0j)
    dom = DomainSpec(outer_radius=2.0, obstacles=(seg,), label="seg")
    got = trapped_obstacles(dom, 0j, 0.25)
    assert len(got.pieces) == 1
    piece = got.pieces[0]
    assert isinstance(piece, SegmentObstacle)
    assert piece.length == pytest.approx(0.5)


def test_validation_domains():
    assert unit_disc().obstacles == ()
    assert punctured_disc().obstacles == (PointObstacle(0j),)
    ann = annulus(0.5)
    assert isinstance(ann.obstacles[0], DiscObstacle) and ann.obstacles[0].radius == 0.5
    with pytest.raises(ValueError):
        annulus(1.5)


# ---------------------------------------------------------------------------
# the one-pass disjointness check against the pairwise one it replaced


def _pairwise_disjoint_reference(obstacles):
    """The former O(k^2) check: every pair of obstacles, in domain order."""
    for i, a in enumerate(obstacles):
        for b in obstacles[i + 1 :]:
            if isinstance(a, ArcObstacle) and isinstance(b, ArcObstacle):
                if a.radius == b.radius and _angular_overlap(a.angular_interval(), b.angular_interval()):
                    raise ValueError("overlapping arcs on one circle")
            elif isinstance(a, DiscObstacle) and isinstance(b, DiscObstacle):
                if abs(a.center - b.center) <= a.radius + b.radius:
                    raise ValueError("overlapping disc obstacles")
            elif {type(a), type(b)} == {ArcObstacle, DiscObstacle}:
                arc_ob = a if isinstance(a, ArcObstacle) else b
                disc_ob = b if isinstance(b, DiscObstacle) else a
                if abs(disc_ob.center) == 0.0 and arc_ob.radius <= disc_ob.radius:
                    raise ValueError("arc swallowed by disc obstacle")
            elif isinstance(a, PointObstacle) or isinstance(b, PointObstacle):
                pt = a if isinstance(a, PointObstacle) else b
                other = b if isinstance(a, PointObstacle) else a
                if _point_on_obstacle(pt.location, other):
                    raise ValueError("point obstacle lies on another obstacle")


def _accepts(check, obstacles) -> bool:
    try:
        check(obstacles)
    except ValueError:
        return False
    return True


DISJOINTNESS_POOL = (
    arc(0.5, 0.0, 0.3),
    arc(0.5, 0.5, 0.3),  # overlaps the first on the same circle
    arc(0.5, 2.0, 0.2),
    arc(0.5, math.pi - 0.1, 0.2),  # these two overlap across the +-pi wrap
    arc(0.5, -math.pi + 0.05, 0.1),
    circle(0.7),
    make_arc(ParamRT(F(1, 5), F(1, 100)), 1),
    make_arc(ParamRT(F(1, 5), F(1, 100)), 4),
    DiscObstacle(0j, 0.6),  # swallows every arc at 0.5
    DiscObstacle(0j, 0.5),  # its rim is the circle of those arcs
    DiscObstacle(0j, 0.1),
    DiscObstacle(0.3 + 0.3j, 0.1),
    DiscObstacle(0.35 + 0.3j, 0.1),  # overlaps the disc before
    SegmentObstacle(-0.6 - 0.6j, -0.2 - 0.2j),
    PointObstacle(0.5 + 0j),  # on the first arc
    PointObstacle(-0.4 - 0.4j),  # on the segment
    PointObstacle(0.5 * cmath.exp(2.0j)),  # on the arc centred at angle 2
    PointObstacle(0.3 + 0.3j),  # inside an off-centre disc
    PointObstacle(0j),
    PointObstacle(0.9j),
)


def test_one_pass_disjointness_matches_pairwise():
    seen = set()
    pool = DISJOINTNESS_POOL
    groups = itertools.chain(
        itertools.combinations_with_replacement(pool, 2),
        itertools.combinations(pool, 3),
        [pool, build_domain(ParamRT(F(1, 5), F(1, 100)), 40).obstacles],
        [build_domain(ParamRT(F(1, 5), F(1, 100)), 40).obstacles + (ob,) for ob in pool],
    )
    for obstacles in groups:
        for order in (obstacles, obstacles[::-1]):
            want = _accepts(_pairwise_disjoint_reference, order)
            assert _accepts(_check_pairwise_disjoint, order) == want, order
            seen.add(want)
    assert seen == {True, False}
