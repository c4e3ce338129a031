import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre

from slitdisc import capacity
from slitdisc.capacity import (
    DiscreteMeasure,
    EquilibriumError,
    LogCapacity,
    arc_log_capacity,
    disc_log_capacity,
    equilibrium_energy,
    fekete_log_capacity,
    fekete_points,
    log_capacity,
    point_log_capacity,
    segment_log_capacity,
    union_log_capacity,
)
from slitdisc.geometry import (
    ArcObstacle,
    CompactSet,
    DiscObstacle,
    ParamRT,
    PointObstacle,
    SegmentObstacle,
    arc,
    circle,
    make_arc,
)

F = Fraction


def test_closed_forms():
    assert log_capacity(circle(2.0)).log_value == pytest.approx(math.log(2.0), abs=1e-15)
    assert disc_log_capacity(0.5).log_value == math.log(0.5)
    # segment of length L has capacity L/4
    assert segment_log_capacity(2.0).log_value == pytest.approx(math.log(0.5), abs=1e-15)
    assert log_capacity(SegmentObstacle(-1 + 0j, 1 + 0j)).log_value == pytest.approx(math.log(0.5), abs=1e-15)
    # semicircle: R sin(pi/4)
    semi = arc(1.0, 0.0, math.pi / 2)
    assert log_capacity(semi).log_value == pytest.approx(math.log(math.sin(math.pi / 4)), abs=1e-15)
    # full-width arc degenerates to the circle value
    assert arc_log_capacity(3.0, math.pi).log_value == pytest.approx(math.log(3.0), abs=1e-15)
    assert point_log_capacity().is_polar


def test_family_arc_capacity_is_exact_in_log_domain():
    p = ParamRT(F(1, 8), F(1, 32))
    a = make_arc(p, 2)
    lc = log_capacity(a)
    assert lc.log_value == 2 * math.log(0.125) - 1024.0
    assert not lc.is_polar
    assert lc.value == 0.0  # honest linear-scale underflow


def test_degenerate_arc_is_polar():
    p = ParamRT(F(1, 8), F(1, 32))
    a = make_arc(p, 210)
    assert a.degenerate
    lc = log_capacity(a)
    assert lc.is_polar and lc.value == 0.0


def test_log_capacity_value_honesty():
    assert LogCapacity(-800.0).value == 0.0
    assert LogCapacity(800.0).value == math.inf
    assert LogCapacity(705.0).value == math.exp(705.0)  # finite up to the double range
    assert LogCapacity(0.0).value == 1.0
    with pytest.raises(ValueError):
        LogCapacity(float("nan"))


def test_union_dispatcher_rules():
    p = ParamRT(F(1, 5), F(3, 10))
    one = CompactSet(pieces=(make_arc(p, 3), PointObstacle(0j)))
    # finitely many extra points do not change capacity
    assert log_capacity(one).log_value == log_capacity(make_arc(p, 3)).log_value
    two = CompactSet(pieces=(make_arc(p, 3), make_arc(p, 4)))
    with pytest.raises(ValueError, match="union"):
        log_capacity(two)
    assert log_capacity(CompactSet(pieces=(PointObstacle(0j),))).is_polar


def test_union_bounds():
    a = ArcObstacle(radius=0.5, center_angle=0.0, half_width=0.1, log_sin_quarter=-10.0 - math.log(2.0))
    b = ArcObstacle(radius=0.5, center_angle=1.0, half_width=0.1, log_sin_quarter=-40.0 - math.log(2.0))
    # log caps are exactly -10 - 2 log 2 + ... use the actual values
    la = log_capacity(a).log_value
    lb = log_capacity(b).log_value
    lower, upper = union_log_capacity([a, b])
    assert lower.log_value == max(la, lb)
    assert upper.log_value == pytest.approx(-1.0 / (1.0 / -la + 1.0 / -lb), rel=1e-14)
    assert lower.log_value <= upper.log_value
    # polar parts contribute nothing
    lower2, upper2 = union_log_capacity([a, PointObstacle(1j)])
    assert lower2.log_value == la and upper2.log_value == pytest.approx(la)
    # the bound only makes sense below capacity 1
    with pytest.raises(ValueError):
        union_log_capacity([circle(1.0)])
    lo_e, up_e = union_log_capacity([])
    assert lo_e.is_polar and up_e.is_polar


def test_fekete_deterministic_per_seed():
    c = circle(1.0)
    r1 = fekete_points(c, 16, seed=7)
    r2 = fekete_points(c, 16, seed=7)
    assert r1.energy == r2.energy
    assert r1.points == r2.points
    r3 = fekete_points(c, 16, seed=8)
    # a different seed may land on a rotated optimum; energies still agree closely
    assert r3.energy == pytest.approx(r1.energy, abs=1e-6)


def test_fekete_raw_estimate_decreases():
    # log d_n for the circle is log(n)/(n-1), strictly decreasing to log cap = 0
    c = circle(1.0)
    raws = [fekete_points(c, n, seed=0).raw_log_dn for n in (8, 12, 16)]
    for n, raw in zip((8, 12, 16), raws):
        assert raw == pytest.approx(math.log(n) / (n - 1), abs=1e-7)
    assert raws[0] > raws[1] > raws[2] > 0.0


def test_fekete_corrected_exact_on_circles():
    # n-th roots of unity scaled by R: energy = (n/2) log n + C(n,2) log R,
    # so the corrected estimator returns log R with no n-dependent bias
    r = fekete_points(circle(2.0), 12, seed=0)
    assert r.corrected_log_dn == pytest.approx(math.log(2.0), abs=1e-7)


def test_fekete_log_capacity_circle():
    lc = fekete_log_capacity(circle(1.0), 16, seed=0)
    assert abs(lc.log_value) < 1e-7


def test_fekete_rejections_and_polar():
    with pytest.raises(ValueError):
        fekete_points(circle(1.0), 1)
    with pytest.raises(ValueError):
        fekete_points(CompactSet(pieces=(PointObstacle(0j),)), 8)
    assert fekete_log_capacity(CompactSet(pieces=(PointObstacle(0j),)), 8).is_polar
    assert fekete_log_capacity(PointObstacle(0j), 8).is_polar


def test_fekete_underflowed_arc_advises_closed_form():
    # half_width underflows to 0.0 but log cap = 2 log(1/8) - 1024 is finite:
    # the oracle must refuse rather than report the polar value
    tiny = make_arc(ParamRT(F(1, 8), F(1, 32)), 2)
    assert tiny.point_like and not tiny.degenerate
    with pytest.raises(ValueError, match="closed-form"):
        fekete_log_capacity(tiny, 16)
    with pytest.raises(ValueError, match="closed-form"):
        equilibrium_energy(tiny, 16)
    # inside a union with resolvable extent the unresolvable piece is inert
    wide = arc(1.0, 0.0, 0.5)
    both = fekete_log_capacity(CompactSet(pieces=(wide, tiny)), 16)
    alone = fekete_log_capacity(wide, 16)
    assert both.log_value == alone.log_value


def _outcome(fn, cs):
    try:
        return fn(cs)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "piece",
    [
        ArcObstacle(0.5, 0.0, 0.0, -math.inf),  # polar, though not flagged degenerate
        make_arc(ParamRT(F(1, 8), F(1, 32)), 205),  # -t^-205 overflows: degenerate
        PointObstacle(0.5),
    ],
)
def test_polar_piece_bare_and_wrapped_agree(piece):
    # one polarity predicate: a bare piece takes the path of its one-piece set
    calls = (
        log_capacity,
        lambda cs: fekete_points(cs, 8),
        lambda cs: fekete_log_capacity(cs, 8),
        lambda cs: equilibrium_energy(cs, 16),
    )
    for fn in calls:
        assert _outcome(fn, piece) == _outcome(fn, CompactSet((piece,)))
    assert log_capacity(piece).is_polar and fekete_log_capacity(piece, 8).is_polar


def test_fekete_multi_piece_allocation():
    # two arcs must each hold at least one point and the estimate exceeds
    # the single-arc capacity (monotonicity of capacity under unions)
    a = arc(1.0, 0.0, 0.6)
    b = arc(1.0, math.pi, 0.6)
    both = CompactSet(pieces=(a, b))
    lc_union = fekete_log_capacity(both, 16, seed=0)
    lc_single = log_capacity(a)
    assert lc_union.log_value > lc_single.log_value
    # a union may hold local optima, so every start runs to convergence
    res = fekete_points(both, 16, seed=0)
    assert res.n_starts == 8 and res.converged


def _allocate_loop(lengths, n):
    """Reference: the greedy largest-remainder top-up, one point at a time."""
    m = len(lengths)
    total = float(sum(lengths))
    counts = [1] * m
    quota = [n * L / total for L in lengths]
    for _ in range(n - m):
        deficits = [quota[i] - counts[i] for i in range(m)]
        i = max(range(m), key=lambda j: (deficits[j], -j))
        counts[i] += 1
    return counts


_piece_lengths = st.lists(
    st.integers(1, 4).map(float) | st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=6
)


@given(lengths=_piece_lengths, extra=st.integers(0, 80))
def test_allocate_matches_greedy_loop(lengths, extra):
    # integer lengths make ties, which go to the lower piece in both
    n = len(lengths) + extra
    counts = capacity._allocate(lengths, n)
    assert counts == _allocate_loop(lengths, n)
    assert all(type(c) is int for c in counts) and sum(counts) == n


def test_allocate_rejects_too_few_points():
    with pytest.raises(ValueError, match="at least one point per piece"):
        capacity._allocate([1.0, 2.0, 3.0], 2)


def test_fekete_reports_a_capped_ascent(monkeypatch):
    monkeypatch.setattr(capacity, "_MAX_SWEEPS", 2)
    res = fekete_points(circle(1.0), 16, seed=0)
    assert res.sweeps == 2 and not res.converged
    assert res.final_gain >= capacity.SWEEP_GAIN_STOP


def test_fekete_max_gradient_tells_converged_from_capped(monkeypatch):
    converged = fekete_points(circle(1.0), 8, seed=0)
    # the Gauss-Lobatto end points rest on -1 and 1 with |dE/ds| near 1000,
    # pointing outward; only the inward component counts
    segment = fekete_points(SegmentObstacle(-1 + 0j, 1 + 0j), 64, seed=0)
    monkeypatch.setattr(capacity, "_MAX_SWEEPS", 2)
    capped = fekete_points(circle(1.0), 16, seed=0)
    assert converged.converged and not capped.converged
    assert converged.max_gradient < 1e-3 * capped.max_gradient
    assert segment.converged and segment.max_gradient < 1e-3


def test_fekete_log_capacity_checks_the_half_size_solve_first(monkeypatch):
    five_arcs = CompactSet(tuple(arc(1.0, 2.0 * math.pi * i / 5, 0.2) for i in range(5)))

    def no_solve(*args):
        raise AssertionError("a solve ran before the half-size check")

    monkeypatch.setattr(capacity, "_ascend", no_solve)
    with pytest.raises(ValueError, match=r"n // 2 >= 5 points, one per piece: n=8 gives 4"):
        fekete_log_capacity(five_arcs, 8)


def test_fekete_segment_is_gauss_lobatto_n64():
    # the Fekete set of [-1, 1] is +-1 and the zeros of P'_{n-1} (Stieltjes)
    n = 64
    inner = np.real(legendre.Legendre.basis(n - 1).deriv().roots())
    x = np.concatenate([[-1.0], inner, [1.0]])
    i, j = np.triu_indices(n, k=1)
    want = float(np.sum(np.log(np.abs(x[i] - x[j]))))
    res = fekete_points(SegmentObstacle(-1 + 0j, 1 + 0j), n, seed=0)
    assert res.n_starts == 1 and res.converged
    assert res.energy == pytest.approx(want, rel=1e-10)
    assert -1 + 0j in res.points and 1 + 0j in res.points


def test_fekete_circle_is_equispaced_n64():
    n = 64
    res = fekete_points(circle(1.0), n, seed=0)
    assert res.n_starts == 1 and res.converged
    assert res.energy == pytest.approx(0.5 * n * math.log(n), rel=1e-10)
    angles = np.sort(np.angle(np.array(res.points)))
    gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
    assert np.ptp(gaps) < 1e-6


def test_fekete_single_start_matches_best_of_eight_seeds():
    # the energy on one arc is concave on the ordered cone: one start suffices
    quarter = arc(1.0, 0.0, math.pi / 4)
    one = fekete_points(quarter, 16, seed=0)
    best = max(fekete_points(quarter, 16, seed=s).energy for s in range(8))
    assert one.n_starts == 1
    assert one.energy == pytest.approx(best, rel=1e-10)


# ---------------------------------------------------------------------------
# the batched ascent against the serial one it replaced


class _Configuration:
    """Serial reference: one start's n-point state, moved piece by piece."""

    def __init__(self, pieces, params):
        self.pieces = pieces
        self._place([np.asarray(p, dtype=float) for p in params])

    def _place(self, params):
        self.params = params
        self.positions = [pc.points(p) for pc, p in zip(self.pieces, self.params)]
        self.value = self.energy()

    def energy(self):
        E = 0.0
        for pi, (pc, th) in enumerate(zip(self.pieces, self.params)):
            if len(th) >= 2:
                i, j = np.triu_indices(len(th), k=1)
                E += float(np.sum(pc.chord_log(th[i], th[j])))
            for qj in range(pi + 1, len(self.pieces)):
                d = np.abs(self.positions[pi][:, None] - self.positions[qj][None, :])
                with np.errstate(divide="ignore"):
                    E += float(np.sum(np.log(d)))
        return E

    def _newton_step(self, pi):
        pc, th = self.pieces[pi], self.params[pi]
        g, h = pc.chord_slopes(th)
        foreign = [self.positions[qj] for qj in range(len(self.pieces)) if qj != pi]
        if foreign:
            dz, ddz = pc.derivatives(th)
            u_bar = np.conj(self.positions[pi][:, None] - np.concatenate(foreign)[None, :])
            inv = 1.0 / np.abs(u_bar) ** 2
            slope = (dz[:, None] * u_bar).real * inv
            g = g + slope.sum(axis=1)
            h = h + ((ddz[:, None] * u_bar).real * inv + np.abs(dz)[:, None] ** 2 * inv - 2.0 * slope**2).sum(axis=1)
        step = np.divide(-g, h, out=g.copy(), where=h < 0.0)
        order = np.argsort(th)
        srt = th[order]
        if pc.periodic:
            half_gaps = 0.5 * np.diff(np.append(srt, srt[0] + 2.0 * math.pi))
            room_up, room_down = half_gaps, np.roll(half_gaps, 1)
        else:
            half_gaps = 0.5 * np.diff(srt)
            room_up = np.append(half_gaps, pc.hi - srt[-1])
            room_down = np.insert(half_gaps, 0, srt[0] - pc.lo)
        up, down = np.empty_like(th), np.empty_like(th)
        up[order], down[order] = room_up, room_down
        return np.clip(step, -down, up)

    def ascend(self):
        old, before = self.params, self.value
        steps = [self._newton_step(pi) for pi in range(len(self.pieces))]
        for _ in range(capacity._MAX_HALVINGS):
            self._place([th + d for th, d in zip(old, steps)])
            if self.value >= before:
                return self.value - before
            steps = [0.5 * d for d in steps]
        self._place(old)
        return 0.0


def _serial_fekete(cs, n, seed):
    """The fields of fekete_points as the start-by-start ascent computes them."""
    pieces = capacity._parameterize(cs)
    counts = capacity._allocate([pc.arclength for pc in pieces], n)
    n_starts = 1 if len(pieces) == 1 else capacity._N_STARTS
    best = None
    for s_idx in range(n_starts):
        rng = np.random.default_rng((int(seed), s_idx))
        cfg = _Configuration(pieces, capacity._seeded_params(pieces, counts, rng))
        sweeps, gain = 0, math.inf
        while gain >= capacity.SWEEP_GAIN_STOP and sweeps < capacity._MAX_SWEEPS:
            gain = cfg.ascend()
            sweeps += 1
        if best is None or cfg.value > best[0].value:
            best = (cfg, sweeps, gain)
    cfg, sweeps, gain = best
    return {
        "energy": cfg.value,
        "points": tuple(complex(z) for z in np.concatenate(cfg.positions)),
        "sweeps": sweeps,
        "n_starts": n_starts,
        "converged": gain < capacity.SWEEP_GAIN_STOP,
        "final_gain": gain,
    }


def _fields(res):
    return {f: getattr(res, f) for f in ("energy", "points", "sweeps", "n_starts", "converged", "final_gain")}


def _piece(kind, slot, a, b, c):
    """A piece of the given kind inside annulus `slot` (radii 3 slot + 1 to 3 slot + 2),
    so pieces in distinct slots are disjoint; a, b, c in [0, 1) place it."""
    lo = 3.0 * slot + 1.0
    phi = 2.0 * math.pi * a
    if kind == "arc":
        return arc(lo + b, phi, 0.05 + (math.pi - 0.05) * c)
    if kind == "segment":
        # both ends in the annulus, less than 0.3 rad apart: the chord stays outside radius lo cos(0.15)
        r0, r1 = lo + 0.5 * b, lo + 0.5 + 0.5 * c
        return SegmentObstacle(complex(r0 * math.cos(phi), r0 * math.sin(phi)), r1 * complex(math.cos(phi + 0.3 * b), math.sin(phi + 0.3 * b)))
    return DiscObstacle(complex((lo + 0.5) * math.cos(phi), (lo + 0.5) * math.sin(phi)), 0.1 + 0.3 * b)


def _arcs_on_one_circle(radius, offset, widths):
    k = len(widths)
    return CompactSet(tuple(arc(radius, offset + 2.0 * math.pi * i / k, (0.05 + 0.85 * w) * math.pi / k) for i, w in enumerate(widths)))


_unit = st.floats(0.0, 1.0, exclude_max=True)
_compact_sets = st.one_of(
    st.builds(
        lambda spec: CompactSet(tuple(_piece(kind, slot, a, b, c) for slot, (kind, a, b, c) in enumerate(spec))),
        st.lists(st.tuples(st.sampled_from(("arc", "segment", "disc")), _unit, _unit, _unit), min_size=1, max_size=3),
    ),
    st.builds(_arcs_on_one_circle, st.floats(0.5, 2.0), _unit, st.lists(_unit, min_size=2, max_size=3)),
)


# a fifth of the profile's examples: each one runs up to 8 serial starts
@settings(max_examples=settings.default.max_examples // 5, deadline=None)
@given(cs=_compact_sets, extra=st.integers(0, 15), seed=st.integers(0, 2**16))
def test_fekete_batched_ascent_matches_serial_reference(cs, extra, seed):
    n = max(2, min(len(cs.pieces) + extra, 16))
    assert _fields(fekete_points(cs, n, seed=seed)) == _serial_fekete(cs, n, seed)


def _two_unit_arcs():
    return CompactSet((arc(1.0, 0.0, 0.5), arc(1.0, math.pi, 0.5)))


_DISC_SEGMENT_ARC = CompactSet(
    (DiscObstacle(0.2 + 0.1j, 0.3), SegmentObstacle(0.8 + 0j, 1.5 + 0.5j), arc(2.0, math.pi / 2, 0.5))
)


def test_fekete_pinned_two_arcs_n8():
    res = fekete_points(_two_unit_arcs(), 8, seed=3)
    assert res.energy == 2.231612261697194
    assert res.raw_log_dn == 0.07970043791775692
    assert res.corrected_log_dn == -0.21736263946507675
    assert res.points == (
        (0.8775825618903728 - 0.479425538604203j),
        (0.9776241040447362 - 0.21035948086722098j),
        (0.9776241228079502 + 0.2103593936670905j),
        (0.8775825618903728 + 0.479425538604203j),
        (-0.8775825618903726 + 0.4794255386042031j),
        (-0.9776241078168798 + 0.2103594633365701j),
        (-0.9776241206118934 - 0.21035940387304317j),
        (-0.8775825618903728 - 0.4794255386042029j),
    )
    assert (res.sweeps, res.n_starts, res.converged) == (11, 8, True)
    assert res.final_gain == 8.113509863960644e-12
    assert fekete_log_capacity(_two_unit_arcs(), 8, seed=3).log_value == -0.37719069684045636


def test_fekete_pinned_two_arcs_n4():
    res = fekete_points(_two_unit_arcs(), 4, seed=3)
    assert res.energy == 2.427381229701598
    assert res.raw_log_dn == 0.4045635382835997
    assert res.corrected_log_dn == -0.05753458208969716
    assert res.points == (
        (0.8775825618903728 - 0.479425538604203j),
        (0.8775825618903728 + 0.479425538604203j),
        (-0.8775825618903726 + 0.4794255386042031j),
        (-0.8775825618903728 - 0.4794255386042029j),
    )
    assert (res.sweeps, res.n_starts, res.converged) == (2, 8, True)
    assert res.final_gain == 0.0


def test_fekete_pinned_disc_segment_arc_n8():
    res = fekete_points(_DISC_SEGMENT_ARC, 8, seed=0)
    assert res.energy == 9.298500814312826
    assert res.raw_log_dn == 0.33208931479688664
    assert res.corrected_log_dn == 0.03502623741405296
    assert res.points == (
        (-0.0028226500822196854 - 0.1210497062056981j),
        (0.36770661965447626 - 0.14874583358132623j),
        (-0.040283102182608 + 0.27962191070552156j),
        (1.161778053376633 + 0.25841289526902367j),
        (1.5 + 0.5j),
        (0.9588510772084061 + 1.7551651237807453j),
        (-0.26876714635454046 + 1.9818587792878777j),
        (-0.9588510772084059 + 1.7551651237807455j),
    )
    assert (res.sweeps, res.n_starts, res.converged) == (31, 8, True)
    assert res.final_gain == 5.809042136206699e-11


def test_equilibrium_circle():
    energy, measure = equilibrium_energy(circle(1.0), 64, seed=0)
    # equilibrium energy of the unit circle is log cap = 0
    assert abs(energy.value) <= energy.tolerance
    assert energy.tolerance < 0.05
    # symmetry forces the uniform measure
    w = measure.weights
    assert max(w) - min(w) < 1e-10
    assert sum(w) == pytest.approx(1.0, abs=1e-12)
    energy2, _ = equilibrium_energy(circle(2.0), 64, seed=0)
    assert abs(energy2.value - math.log(2.0)) <= energy2.tolerance


def test_equilibrium_segment():
    energy, measure = equilibrium_energy(SegmentObstacle(-1 + 0j, 1 + 0j), 96, seed=0)
    assert abs(energy.value - math.log(0.5)) <= energy.tolerance
    # equilibrium mass on a segment piles up at the endpoints
    w = measure.weights
    assert w[0] > w[len(w) // 2]


def test_equilibrium_rejections():
    with pytest.raises(ValueError):
        equilibrium_energy(circle(1.0), 4)
    with pytest.raises(ValueError):
        equilibrium_energy(CompactSet(pieces=(PointObstacle(0j),)), 16)


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(points=(0j,), weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        DiscreteMeasure(points=(0j, 1j), weights=(-0.1, 1.1))
    with pytest.raises(ValueError):
        DiscreteMeasure(points=(0j, 1j), weights=(0.3, 0.3))
    DiscreteMeasure(points=(0j, 1j), weights=(0.5, 0.5))


def test_equilibrium_error_carries_iterate():
    m = DiscreteMeasure(points=(0j,), weights=(1.0,))
    err = EquilibriumError("stalled", m, 0.125)
    assert err.measure is m and err.gap == 0.125
    assert "stalled" in str(err)
