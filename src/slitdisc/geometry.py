"""Slit-disc domains and obstacle-in-disc geometry.

The central object is the family D^{r,t}: the unit disc minus a stack of
concentric circular arcs A_k at radii r^k whose angular half-widths shrink
so fast (sin of the quarter-width is e^(-t^-k)) that every width-like
quantity must be carried as a log.  Obstacles double as compact-set
descriptors for the capacity oracles, so clipping an arc against a probe
disc returns more obstacles rather than a separate geometry vocabulary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .numerics import EXP_OVERFLOW, Real, exp_or_inf, is_exact, le_guarded, power

NEG_INF = float("-inf")

# clipped arcs narrower than this (radians, log-domain threshold) degrade to points
MIN_CLIP_WIDTH = 1e-300
# absolute tolerance for circle-circle intersection angle arithmetic
CLIP_ANGLE_TOL = 1e-12


@dataclass(frozen=True)
class ParamRT:
    """Family parameters (r, t) for D^{r,t}.

    r and t may be Fractions, in which case every threshold comparison
    downstream (classification, ratio tests) is exact.  The admitted range
    0 < r < 1 is wider than the stated family range r < 1/4; the extra room
    is needed because the quasi-conformal image of the canonical instance
    lands at r = 1/2.  Reports must flag r >= 1/4.
    """

    r: Real
    t: Real

    def __post_init__(self) -> None:
        if not (0 < self.r < 1):
            raise ValueError(f"need 0 < r < 1, got r={self.r}")
        if not (0 < self.t < Fraction(1, 2)):
            raise ValueError(f"need 0 < t < 1/2, got t={self.t}")

    @property
    def in_stated_range(self) -> bool:
        """True when r sits inside the family's stated range (0, 1/4)."""
        return self.r < Fraction(1, 4)

    @property
    def is_exact(self) -> bool:
        return is_exact(self.r) and is_exact(self.t)

    def flags(self) -> tuple[str, ...]:
        if self.in_stated_range:
            return ()
        return ("r outside stated family range (0, 1/4)",)


@dataclass(frozen=True)
class ArcObstacle:
    """Closed circular arc {radius * e^(i*theta) : |theta - center_angle| <= half_width}.

    half_width is half the total angular extent, in (0, pi]; pi means the
    full circle.  log_sin_quarter = log(sin(half_width/2)) is stored
    separately because for the family's arcs it equals -t^-k, far below
    what a float half_width can resolve (half_width then underflows to
    0.0).  log_radius optionally carries an exact k*log(r) so capacity
    arithmetic does not re-round log(r^k).  degenerate marks arcs whose
    -t^-k overflowed the float exponent range: they behave as points
    geometrically and carry capacity 0 (log -inf).
    """

    radius: float
    center_angle: float
    half_width: float
    log_sin_quarter: float
    log_radius: float | None = None
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.radius < math.inf):
            raise ValueError(f"arc radius must be positive and finite, got {self.radius}")
        if not math.isfinite(self.center_angle):
            raise ValueError(f"arc center_angle must be finite, got {self.center_angle}")
        if not (0.0 <= self.half_width <= math.pi + CLIP_ANGLE_TOL):
            raise ValueError(f"half_width out of (0, pi]: {self.half_width}")
        if not (self.log_sin_quarter <= 1e-15):
            raise ValueError("log_sin_quarter must be <= 0 (sin of an angle <= pi/2)")
        if self.log_radius is not None and not math.isfinite(self.log_radius):
            raise ValueError(f"log_radius must be finite, got {self.log_radius}")

    @property
    def log_radius_value(self) -> float:
        return math.log(self.radius) if self.log_radius is None else self.log_radius

    @property
    def is_full_circle(self) -> bool:
        return self.half_width >= math.pi - CLIP_ANGLE_TOL

    @property
    def point_like(self) -> bool:
        """True when the arc has no representable angular extent."""
        return self.degenerate or self.half_width == 0.0

    @property
    def center_point(self) -> complex:
        return self.radius * cmath.exp(1j * self.center_angle)

    def angular_interval(self) -> tuple[float, float]:
        return (self.center_angle - self.half_width, self.center_angle + self.half_width)


def arc(radius: float, center_angle: float, half_width: float) -> ArcObstacle:
    """Arc constructor for directly representable widths."""
    if not (0.0 < half_width <= math.pi + CLIP_ANGLE_TOL):
        raise ValueError(f"half_width must lie in (0, pi], got {half_width}")
    return ArcObstacle(
        radius=radius,
        center_angle=center_angle,
        half_width=min(half_width, math.pi),
        log_sin_quarter=math.log(math.sin(half_width / 2.0)),
    )


def circle(radius: float) -> ArcObstacle:
    return arc(radius, 0.0, math.pi)


@dataclass(frozen=True)
class DiscObstacle:
    center: complex
    radius: float

    def __post_init__(self) -> None:
        if not (0.0 < self.radius < math.inf):
            raise ValueError(f"disc obstacle needs a positive finite radius, got {self.radius}")
        if not cmath.isfinite(self.center):
            raise ValueError(f"disc obstacle centre must be finite, got {self.center}")


@dataclass(frozen=True)
class SegmentObstacle:
    z0: complex
    z1: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.z0) and cmath.isfinite(self.z1)):
            raise ValueError(f"segment endpoints must be finite, got {self.z0} and {self.z1}")
        if self.z0 == self.z1:
            raise ValueError("degenerate segment; use PointObstacle")

    @property
    def length(self) -> float:
        return abs(self.z1 - self.z0)


@dataclass(frozen=True)
class PointObstacle:
    location: complex


Obstacle = Union[ArcObstacle, DiscObstacle, SegmentObstacle, PointObstacle]


@dataclass(frozen=True)
class CompactSet:
    """Finite union of obstacle pieces, used as a compact-set descriptor."""

    pieces: tuple[Obstacle, ...]

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    @property
    def is_polar(self) -> bool:
        """True when the union is a finite set of points (capacity zero)."""
        return all(map(piece_is_polar, self.pieces))


def piece_is_polar(p: Obstacle) -> bool:
    """True for a point, or an arc with no angular extent and log sin = -inf:
    a piece of capacity zero.

    An arc whose half_width merely underflowed keeps a finite
    log_sin_quarter and is NOT polar: its capacity r^k e^{-t^{-k}} is
    positive even when no float can represent the angle.
    """
    if isinstance(p, ArcObstacle):
        return p.point_like and p.log_sin_quarter == NEG_INF
    return isinstance(p, PointObstacle)


@dataclass(frozen=True)
class Shell:
    """Radial annulus of the decomposition; shell k traps exactly arc k."""

    index: int
    inner_radius: float
    outer_radius: float

    def __post_init__(self) -> None:
        if not (0.0 < self.inner_radius < self.outer_radius):
            raise ValueError("shell needs 0 < inner < outer")


@dataclass(frozen=True)
class DomainSpec:
    """Bounded domain: open disc of outer_radius minus closed obstacles."""

    outer_radius: float
    obstacles: tuple[Obstacle, ...]
    label: str
    family: ParamRT | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not (self.outer_radius > 0.0):
            raise ValueError("outer_radius must be positive")
        for ob in self.obstacles:
            if not _inside_closed_disc(ob, self.outer_radius):
                raise ValueError(f"obstacle {ob!r} leaves the closed disc of radius {self.outer_radius}")
        _check_pairwise_disjoint(self.obstacles)


def _inside_closed_disc(ob: Obstacle, rad: float) -> bool:
    tol = 1e-12 * rad
    if isinstance(ob, ArcObstacle):
        return ob.radius <= rad + tol
    if isinstance(ob, DiscObstacle):
        return abs(ob.center) + ob.radius <= rad + tol
    if isinstance(ob, SegmentObstacle):
        return abs(ob.z0) <= rad + tol and abs(ob.z1) <= rad + tol
    return abs(ob.location) <= rad + tol


def _angular_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Do two angular intervals on the same circle intersect (mod 2pi)?"""
    lo_a, hi_a = a
    lo_b, hi_b = b
    if hi_a - lo_a >= 2.0 * math.pi or hi_b - lo_b >= 2.0 * math.pi:
        return True
    # shift b by multiples of 2pi so the candidates straddle a
    for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
        if lo_b + shift <= hi_a and hi_b + shift >= lo_a:
            return True
    return False


def _check_pairwise_disjoint(obstacles: tuple[Obstacle, ...]) -> None:
    """Reject overlapping obstacles for the shapes this package composes.

    Arcs on one circle must not overlap, discs must be separated, no arc may
    sit inside a disc centred at the origin (the only discs combined with
    arcs), and no point may lie on another piece; segment-vs-curve
    intersection is not computed exactly (segments appear standalone in
    capacity descriptors).  Arcs are grouped by radius, so only arcs on the
    same circle are compared: a family domain of k arcs costs O(k).
    """
    arcs_by_radius: dict[float, list[ArcObstacle]] = {}
    discs: list[DiscObstacle] = []
    for ob in obstacles:
        if isinstance(ob, ArcObstacle):
            arcs_by_radius.setdefault(ob.radius, []).append(ob)
        elif isinstance(ob, DiscObstacle):
            discs.append(ob)
    for same_circle in arcs_by_radius.values():
        for i, a in enumerate(same_circle):
            for b in same_circle[i + 1 :]:
                if _angular_overlap(a.angular_interval(), b.angular_interval()):
                    raise ValueError("overlapping arcs on one circle")
    for i, a in enumerate(discs):
        for b in discs[i + 1 :]:
            if abs(a.center - b.center) <= a.radius + b.radius:
                raise ValueError("overlapping disc obstacles")
    centred = [d.radius for d in discs if abs(d.center) == 0.0]
    if arcs_by_radius and centred and min(arcs_by_radius) <= max(centred):
        raise ValueError("arc swallowed by disc obstacle")
    for i, pt in enumerate(obstacles):
        if isinstance(pt, PointObstacle):
            for j, other in enumerate(obstacles):
                if j != i and _point_on_obstacle(pt.location, other):
                    raise ValueError("point obstacle lies on another obstacle")


def _point_on_obstacle(z: complex, ob: Obstacle) -> bool:
    if isinstance(ob, PointObstacle):
        return z == ob.location
    if isinstance(ob, DiscObstacle):
        return abs(z - ob.center) <= ob.radius
    if isinstance(ob, ArcObstacle):
        # tolerance relative to the arc radius: family arcs accumulate at 0,
        # so an absolute band would swallow the origin puncture
        if abs(abs(z) - ob.radius) > 1e-12 * ob.radius:
            return False
        if ob.is_full_circle:
            return True
        dtheta = _wrap_angle(cmath.phase(z) - ob.center_angle)
        return abs(dtheta) <= ob.half_width + CLIP_ANGLE_TOL
    # segment
    d = ob.z1 - ob.z0
    s = ((z - ob.z0) / d).real
    if not (0.0 <= s <= 1.0):
        return False
    return abs(ob.z0 + s * d - z) <= 1e-15 * max(1.0, ob.length)


def _wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]."""
    out = math.fmod(theta + math.pi, 2.0 * math.pi)
    if out <= 0.0:
        out += 2.0 * math.pi
    return out - math.pi


# ---------------------------------------------------------------------------
# family construction


def make_arc(params: ParamRT, k: int) -> ArcObstacle:
    """Arc A_k of the family: radius r^k, centered on the positive real axis.

    log(sin(half_width/2)) = -t^-k is stored exactly; half_width itself is
    2*arcsin(e^(-t^-k)), computed as 2 e^(-t^-k) once the sine falls below
    1e-8 (the arcsin series is past double rounding there), and 0.0 once
    the exponential underflows.  When t^-k overflows the float range the
    arc is flagged degenerate: geometry treats it as its center point and
    its capacity is exactly 0 in log-domain (-inf).
    """
    if k < 1:
        raise ValueError("arc index k must be >= 1")
    return next(_family_arcs(params, (k,)))


def _family_arcs(params: ParamRT, ks: Iterable[int]) -> Iterator[ArcObstacle]:
    """The arcs A_k for k in ks, as make_arc gives them, with r, t and their
    logs converted to floats once.  Raises OverflowError at the first radius
    r^k that underflows doubles; the logs are taken only past that check."""
    r = float(params.r)
    t = float(params.t)
    log_r = log_t = None
    for k in ks:
        radius = r**k
        if radius == 0.0:
            raise OverflowError(f"arc radius r^{k} underflows doubles for r={r}")
        if log_r is None:
            log_r, log_t = math.log(r), math.log(t)
        exponent = -k * log_t  # log of t^-k
        degenerate = exponent > EXP_OVERFLOW
        if degenerate:
            half_width, log_sin_quarter = 0.0, NEG_INF
        else:
            log_sin_quarter = -(t ** (-k))
            s = exp_or_inf(log_sin_quarter)
            half_width = 2.0 * math.asin(s) if s >= 1e-8 else 2.0 * s
        yield ArcObstacle(
            radius=radius,
            center_angle=0.0,
            half_width=half_width,
            log_sin_quarter=log_sin_quarter,
            log_radius=k * log_r,
            degenerate=degenerate,
        )


def build_domain(params: ParamRT, k_max: int) -> DomainSpec:
    """D^{r,t} truncated at k_max arcs, plus the origin accumulation point.

    Arcs whose radius underflows doubles are dropped (the truncation index
    is recorded in the label); they are geometrically indistinguishable
    from the origin point that is always present.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    arcs: list[Obstacle] = []
    label = f"slit-disc r={params.r} t={params.t} k_max={k_max}"
    try:
        for a in _family_arcs(params, range(1, k_max + 1)):
            arcs.append(a)
    except OverflowError:
        label += f" (arcs truncated at k={len(arcs)}: radius underflow)"
    arcs.append(PointObstacle(0j))
    return DomainSpec(outer_radius=1.0, obstacles=tuple(arcs), label=label, family=params)


def unit_disc() -> DomainSpec:
    return DomainSpec(outer_radius=1.0, obstacles=(), label="unit disc")


def punctured_disc() -> DomainSpec:
    return DomainSpec(outer_radius=1.0, obstacles=(PointObstacle(0j),), label="punctured disc")


def annulus(inner_radius: float) -> DomainSpec:
    if not (0.0 < inner_radius < 1.0):
        raise ValueError("annulus needs 0 < inner_radius < 1")
    return DomainSpec(
        outer_radius=1.0,
        obstacles=(DiscObstacle(0j, inner_radius),),
        label=f"annulus {inner_radius} < |z| < 1",
    )


# ---------------------------------------------------------------------------
# shell decomposition


def first_trapped_index(params: ParamRT) -> int:
    """Smallest arc index j with r^j <= 1/4: the first arc the gamma integral sees.

    Exact for rational r; float r compares with le_guarded, so a power
    within the guard band of 1/4 counts as inside.  A walk of j steps, run
    once per gamma^(n)(0) request (through first_shell_index), so not cached.
    """
    quarter = Fraction(1, 4)
    j = 1
    while not le_guarded(power(params.r, j), quarter).result:
        j += 1
    return j


def first_shell_index(params: ParamRT) -> int:
    """Smallest k whose shell [2r^(k+1), 1/4] is nonempty and traps arc k.

    For r < 1/2 an arc inside the integration range (r^k <= 1/4) already
    makes its shell nonempty (2r^(k+1) <= r/2 < 1/4), so this is
    first_trapped_index; at r = 1/2 arc 2 sits at 1/4 where shell 2 is
    empty, and the start moves to k = 3.  For the stated range r < 1/4 it
    is 1.  Requires r <= 1/2 so that shell k actually traps arc k.
    """
    if params.r > Fraction(1, 2):
        raise ValueError("shell decomposition requires r <= 1/2 (arc k must stay inside shell k)")
    k = first_trapped_index(params)
    return k + 1 if params.r == Fraction(1, 2) else k


def check_shell_index(params: ParamRT, k: int) -> int:
    """First shell index k0, after checking that shell k exists (k >= k0)."""
    k0 = first_shell_index(params)
    if k < k0:
        raise ValueError(f"shell {k} is empty or misses the integration range; first valid shell is k={k0}")
    return k0


def shell(params: ParamRT, k: int) -> Shell:
    """Shell k of the radial decomposition of (0, 1/4].

    The first shell is clamped to outer radius 1/4 (the upper limit of the
    gamma integral); deeper shells are the plain annuli [2r^(k+1), 2r^k].
    Raises once 2r^(k+1) underflows doubles; the log-domain shell sums in
    wiener never build a Shell.
    """
    k0 = check_shell_index(params, k)
    r = float(params.r)
    inner = 2.0 * r ** (k + 1)
    outer = 0.25 if k == k0 else 2.0 * r**k
    got = Shell(index=k, inner_radius=inner, outer_radius=outer)
    # trapping invariant: arc k sits inside shell k (closed at both ends for r = 1/2)
    if not (inner <= r**k <= outer + CLIP_ANGLE_TOL):
        raise AssertionError(f"shell {k} fails to trap arc radius r^{k}")
    return got


# ---------------------------------------------------------------------------
# trapped sets


def trapped_obstacles(domain: DomainSpec, center: complex, delta: float) -> CompactSet:
    """Portion of the removed set inside the closed disc of radius delta.

    Whole pieces stay whole (preserving exact log-domain fields); partially
    covered arcs and segments are clipped; lens-shaped partial overlaps
    with disc obstacles are not representable and raise.
    """
    if not (delta > 0.0):
        raise ValueError("delta must be positive")
    pieces: list[Obstacle] = []
    for ob in domain.obstacles:
        pieces.extend(_clip_obstacle(ob, center, delta))
    return CompactSet(pieces=tuple(pieces))


def _clip_obstacle(ob: Obstacle, zc: complex, delta: float) -> list[Obstacle]:
    if isinstance(ob, PointObstacle):
        return [ob] if abs(ob.location - zc) <= delta else []
    if isinstance(ob, DiscObstacle):
        d = abs(ob.center - zc)
        if d + ob.radius <= delta:
            return [ob]
        if d - ob.radius > delta:
            return []
        if d + delta <= ob.radius:
            # probe disc swallowed by the obstacle
            return [DiscObstacle(zc, delta)]
        raise ValueError("partial disc-obstacle overlap (lens) is not representable as a descriptor")
    if isinstance(ob, SegmentObstacle):
        return _clip_segment(ob, zc, delta)
    return _clip_arc(ob, zc, delta)


def _clip_segment(ob: SegmentObstacle, zc: complex, delta: float) -> list[Obstacle]:
    d = ob.z1 - ob.z0
    w = ob.z0 - zc
    # |w + s d|^2 <= delta^2, quadratic in s
    a = (d * d.conjugate()).real
    b = 2.0 * (w * d.conjugate()).real
    c = (w * w.conjugate()).real - delta * delta
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    s0 = max(0.0, (-b - root) / (2.0 * a))
    s1 = min(1.0, (-b + root) / (2.0 * a))
    if s0 > s1:
        return []
    if s0 == 0.0 and s1 == 1.0:
        return [ob]
    lo = ob.z0 + s0 * d
    hi = ob.z0 + s1 * d
    if abs(hi - lo) == 0.0:
        return [PointObstacle(lo)]
    return [SegmentObstacle(lo, hi)]


def _clip_arc(ob: ArcObstacle, zc: complex, delta: float) -> list[Obstacle]:
    if ob.point_like:
        return [ob] if abs(ob.center_point - zc) <= delta else []
    R = ob.radius
    d = abs(zc)
    denom = 2.0 * R * d
    if denom == 0.0:
        # concentric probe, or |zc| so small (subnormal) that 2R|zc|
        # underflows: all or nothing
        return [ob] if R <= delta else []
    # |R e^(i theta) - zc| <= delta  <=>  cos(theta - phi) >= u
    u = (R * R + d * d - delta * delta) / denom
    if u > 1.0:
        return []
    if u <= -1.0:
        return [ob]
    psi = math.acos(u)
    phi = cmath.phase(zc)
    if ob.is_full_circle:
        return [_sub_arc(ob, phi - psi, phi + psi)]
    lo_a, hi_a = ob.angular_interval()
    spans = _interval_intersection((lo_a, hi_a), (phi - psi, phi + psi))
    if not spans:
        return []
    covered = sum(hi - lo for lo, hi in spans)
    if covered >= (hi_a - lo_a) - CLIP_ANGLE_TOL:
        return [ob]  # whole arc inside: keep the exact original fields
    return [_sub_arc(ob, lo, hi) for lo, hi in spans]


def _sub_arc(parent: ArcObstacle, lo: float, hi: float) -> Obstacle:
    width = hi - lo
    if width < MIN_CLIP_WIDTH:
        mid = 0.5 * (lo + hi)
        return PointObstacle(parent.radius * cmath.exp(1j * mid))
    half = 0.5 * width
    return ArcObstacle(
        radius=parent.radius,
        center_angle=0.5 * (lo + hi),
        half_width=min(half, math.pi),
        log_sin_quarter=math.log(math.sin(min(half, math.pi) / 2.0)),
        log_radius=parent.log_radius,
    )


def _interval_intersection(a: tuple[float, float], b: tuple[float, float]) -> list[tuple[float, float]]:
    """Intersection of two angular intervals on the circle, as plain intervals.

    Both inputs have width <= 2pi; the result can be up to two intervals.
    """
    out = []
    for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
        lo = max(a[0], b[0] + shift)
        hi = min(a[1], b[1] + shift)
        if hi > lo:
            out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# descriptor containment (the monotonicity step of the gamma comparison)


def descriptor_contains(inner: CompactSet, outer: CompactSet) -> bool:
    """True when every piece of inner is covered by a single piece of outer.

    This is the set-containment predicate behind trapped(x, delta) being a
    subset of trapped(0, delta); it checks piecewise coverage, which is how
    clipped descriptors of the same domain nest.
    """
    return all(any(_piece_covered(p, q) for q in outer.pieces) for p in inner.pieces)


def _piece_covered(p: Obstacle, q: Obstacle) -> bool:
    if isinstance(p, PointObstacle):
        return _point_on_obstacle(p.location, q)
    if isinstance(p, ArcObstacle):
        if not isinstance(q, ArcObstacle) or p.radius != q.radius:
            return isinstance(q, DiscObstacle) and abs(q.center) + p.radius <= q.radius
        if q.is_full_circle:
            return True
        if p.point_like:
            return _point_on_obstacle(p.center_point, q)
        dl = _wrap_angle(p.center_angle - q.center_angle)
        return abs(dl) + p.half_width <= q.half_width + CLIP_ANGLE_TOL
    if isinstance(p, SegmentObstacle):
        return isinstance(q, SegmentObstacle) and _point_on_obstacle(p.z0, q) and _point_on_obstacle(p.z1, q)
    if isinstance(p, DiscObstacle):
        return isinstance(q, DiscObstacle) and abs(p.center - q.center) + p.radius <= q.radius
    return False
