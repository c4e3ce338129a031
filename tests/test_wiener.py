import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slitdisc.capacity import union_log_capacity
from slitdisc.geometry import (
    CompactSet,
    DiscObstacle,
    DomainSpec,
    ParamRT,
    PointObstacle,
    SegmentObstacle,
    build_domain,
    circle,
    descriptor_contains,
    first_shell_index,
    first_trapped_index,
    punctured_disc,
    trapped_obstacles,
    unit_disc,
)
from slitdisc.wiener import (
    FLAG_FEKETE_PATH,
    FLAG_GUARD_BAND,
    FLAG_NO_SHELLS,
    FLAG_RATIO_ONE,
    Classification,
    GammaQuadrature,
    GammaReport,
    Verdict,
    _piece_probe_radii,
    _TrappedSplit,
    classify_domain,
    divergence_ratio,
    gamma_at_origin,
    gamma_numeric,
    log_g,
    log_tail_g,
    shell_term_log_bounds,
    threshold_report,
)

F = Fraction


# ---------------------------------------------------------------------------
# the weight g


def test_log_g_sandwich_exact():
    # t^j / (1 - t log r) <= g(j) <= t^j, checked in log-domain with no slack;
    # the floor is t^(j-1) g(1) exactly, and at j = 1 it IS g(1), so comparing
    # against that form keeps the equality case out of rounding's reach
    for r_num in (1, 2, 7):
        for t_num in (1, 3, 9):
            p = ParamRT(F(r_num, 10), F(t_num, 20))
            log_t = math.log(t_num / 20)
            log_g1 = log_g(p, 1)
            for j in (1, 2, 5, 17, 40, 113, 400):
                lg = log_g(p, j)
                assert lg <= j * log_t
                assert lg >= (j - 1) * log_t + log_g1


def test_log_tail_recursion():
    p = ParamRT(F(1, 5), F(3, 10))
    # tail(k) = g(k) + tail(k+1), including across the cache-bucket edge at 64
    for k in (1, 5, 63, 64, 65, 127, 128):
        whole = math.exp(log_tail_g(p, k))
        split = math.exp(log_g(p, k)) + math.exp(log_tail_g(p, k + 1))
        assert whole == pytest.approx(split, rel=1e-12)
        assert log_tail_g(p, k) >= log_g(p, k)


def test_first_trapped_index():
    assert first_trapped_index(ParamRT(F(1, 5), F(1, 100))) == 1
    assert first_trapped_index(ParamRT(F(9, 20), F(1, 100))) == 2
    # r = 1/2: arc 2 sits at radius 1/4, inside the integration range even
    # though the first nonempty shell is k = 3
    assert first_trapped_index(ParamRT(F(1, 2), F(1, 100))) == 2


# ---------------------------------------------------------------------------
# shell sandwich


def test_shell_bounds_worked_example():
    # deep shell k=3 at (r, t) = (1/5, 3/10), n = 0:
    #   lower = (2 r^3)^-2 (1-r) g(4),  upper = (2 r^4)^-2 (1/r - 1) sum_{j>=3} g(j)
    lo, up = map(math.exp, shell_term_log_bounds(ParamRT(F(1, 5), F(3, 10)), 0, 3))
    assert lo == pytest.approx(24.057977782134, rel=1e-10)
    assert up == pytest.approx(13673.351900776, rel=1e-10)


def test_shell_bounds_ordered():
    for p in (ParamRT(F(1, 5), F(3, 10)), ParamRT(F(1, 8), F(1, 32)), ParamRT(F(9, 20), F(1, 5))):
        for n in (0, 1):
            k0 = None
            for k in range(1, 30):
                try:
                    lo, up = shell_term_log_bounds(p, n, k)
                except ValueError:
                    continue  # below the first shell
                if k0 is None:
                    k0 = k
                assert lo <= up, (p, n, k)


def test_shell_linear_overflow_clips_to_inf():
    rep = gamma_at_origin(ParamRT(F(1, 10), F(2, 5)), 2, k_terms=60)
    k, lo_log, up_log = rep.shell_terms_log[-1]
    assert k == 60 and math.isfinite(lo_log) and math.isfinite(up_log)
    assert rep.shell_terms[-1] == (60, math.inf, math.inf)


def test_shell_terms_past_radius_underflow():
    # ratio t / r^4 = 9/10: the finite tail runs past k = 275, where the
    # shell radius 2r^(k+1) underflows doubles; the log-domain sum carries on
    p = ParamRT(F(1, 15), F(1, 56250))
    assert 2.0 * (1 / 15) ** 276 == 0.0
    rep = gamma_at_origin(p, 1)
    assert rep.verdict is Verdict.FINITE
    assert rep.truncation["converged"] and rep.truncation["k_stop"] > 275
    assert rep.lower_sum <= rep.upper_sum


def test_deep_shell_log_bounds_vs_mpmath():
    # deep shell k = 300 of the same pair against a 50-digit evaluation of
    # the sandwich formulas; g(j) <= t^j, so 40 tail terms leave < 1e-190
    r, t, n, k = F(1, 15), F(1, 56250), 1, 300
    lo, up = shell_term_log_bounds(ParamRT(r, t), n, k)
    with mpmath.workdps(50):
        R, T = mpmath.mpf(r.numerator) / r.denominator, mpmath.mpf(t.numerator) / t.denominator

        def g(j):
            return 1 / (T ** (-j) + j * mpmath.log(1 / R))

        p = 2 * n + 2
        ref_lo = -p * mpmath.log(2 * R**k) + mpmath.log(1 - R) + mpmath.log(g(k + 1))
        tail = mpmath.fsum(g(j) for j in range(k, k + 40))
        ref_up = -p * mpmath.log(2 * R ** (k + 1)) + mpmath.log(1 / R - 1) + mpmath.log(tail)
        assert abs(lo - ref_lo) <= 1e-12
        assert abs(up - ref_up) <= 1e-12


# ---------------------------------------------------------------------------
# threshold classification


def test_classify_thresholds_exact():
    assert classify_domain(ParamRT(F(1, 5), F(1, 25))) is Classification.EXHAUSTIVE_HENCE_COMPLETE
    assert classify_domain(ParamRT(F(1, 5), F(1, 24))) is Classification.EXHAUSTIVE_HENCE_COMPLETE
    assert classify_domain(ParamRT(F(1, 5), F(1, 625))) is Classification.NOT_COMPLETE
    assert classify_domain(ParamRT(F(1, 5), F(1, 1000))) is Classification.NOT_COMPLETE
    assert classify_domain(ParamRT(F(1, 5), F(1, 100))) is Classification.UNKNOWN


def test_threshold_report_evidence():
    rep = threshold_report(ParamRT(F(1, 5), F(1, 100)))
    assert rep.ratio_n0 == F(1, 4) and isinstance(rep.ratio_n0, Fraction)
    assert rep.ratio_n1 == F(25, 4)
    assert not rep.exhaustive_test.result and not rep.not_complete_test.result
    assert not rep.flags

    edge = threshold_report(ParamRT(F(1, 5), F(1, 625)))
    assert edge.classification is Classification.NOT_COMPLETE
    assert FLAG_RATIO_ONE in edge.flags
    assert edge.ratio_n1 == 1

    below = threshold_report(ParamRT(F(1, 5), F(1, 1000)))
    assert FLAG_RATIO_ONE not in below.flags


def test_threshold_float_guard_band():
    rep = threshold_report(ParamRT(0.2, 0.2 * 0.2))
    assert rep.classification is Classification.EXHAUSTIVE_HENCE_COMPLETE
    assert FLAG_GUARD_BAND in rep.flags
    clean = threshold_report(ParamRT(0.2, 0.041))
    assert FLAG_GUARD_BAND not in clean.flags


def test_threshold_guard_band_relative_for_tiny_floats():
    # r^2 = 5t, so neither threshold holds; an absolute 1e-15 band would tie r^2 with t
    rep = threshold_report(ParamRT(math.sqrt(5e-16), 1e-16))
    assert rep.classification is Classification.UNKNOWN
    assert FLAG_GUARD_BAND not in rep.flags


def test_divergence_ratio_exactness():
    assert divergence_ratio(ParamRT(F(1, 5), F(3, 10)), 0) == F(15, 2)
    assert isinstance(divergence_ratio(ParamRT(0.2, 0.3), 0), float)


# ---------------------------------------------------------------------------
# gamma at the origin (analytic shells)


def test_gamma_origin_divergent():
    rep = gamma_at_origin(ParamRT(F(1, 5), F(3, 10)), 0)
    assert rep.verdict is Verdict.DIVERGENT
    assert rep.value == math.inf
    assert rep.ratio == F(15, 2)
    assert len(rep.shell_terms) == 40  # fixed report window
    assert not rep.truncation["converged"]
    # the lower terms grow, settling into a geometric tail of ratio t / r^2
    lows = [lo for _, lo, _ in rep.shell_terms_log]
    steps = [b - a for a, b in zip(lows[:-1], lows[1:])]
    assert all(s > 0.0 for s in steps[1:])
    assert all(s == pytest.approx(math.log(7.5), rel=1e-9) for s in steps[-5:])


def test_gamma_origin_finite_frozen_sums():
    rep = gamma_at_origin(ParamRT(F(1, 5), F(1, 100)), 0)
    assert rep.verdict is Verdict.FINITE
    assert rep.lower_sum == pytest.approx(0.0012543159601157, rel=1e-9)
    assert rep.upper_sum == pytest.approx(5.405120739404772, rel=1e-9)
    assert rep.value == rep.upper_sum
    assert rep.truncation["converged"] and rep.truncation["k_stop"] == 32
    assert rep.truncation["tail_relative_bound"] < 1e-17
    assert 0.0 < rep.lower_sum < rep.upper_sum


def test_gamma_origin_boundary_ratio_one():
    rep = gamma_at_origin(ParamRT(F(1, 5), F(1, 25)), 0)
    assert rep.verdict is Verdict.DIVERGENT
    assert FLAG_RATIO_ONE in rep.flags
    assert rep.ratio == 1


def test_gamma_origin_higher_n_diverges_sooner():
    p = ParamRT(F(1, 5), F(1, 100))
    assert gamma_at_origin(p, 0).verdict is Verdict.FINITE
    assert gamma_at_origin(p, 1).verdict is Verdict.DIVERGENT  # ratio 25/4 >= 1


def test_gamma_origin_no_shell_decomposition():
    finite = gamma_at_origin(ParamRT(F(3, 5), F(1, 100)), 0)
    assert FLAG_NO_SHELLS in finite.flags
    assert finite.verdict is Verdict.FINITE
    assert math.isnan(finite.value) and finite.shell_terms == ()
    divergent = gamma_at_origin(ParamRT(F(3, 5), F(2, 5)), 0)
    assert divergent.verdict is Verdict.DIVERGENT and divergent.value == math.inf


def test_gamma_origin_budget_exhausted_flagged():
    rep = gamma_at_origin(ParamRT(F(1, 5), F(1, 100)), 0, k_terms=5)
    assert not rep.truncation["converged"]
    assert any("budget" in f for f in rep.flags)
    assert len(rep.shell_terms) == 5


def test_gamma_report_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        GammaReport(
            n=0,
            z=0j,
            verdict=Verdict.FINITE,
            value=1.0,
            shell_terms=((1, 2.0, 1.0),),
            ratio=None,
            truncation={},
            lower_sum=2.0,
            upper_sum=1.0,
        )


# ---------------------------------------------------------------------------
# numeric quadrature


def test_gamma_numeric_full_and_punctured_disc_vanish():
    for dom in (unit_disc(), punctured_disc()):
        rep = gamma_numeric(dom, 0j, 0)
        assert rep.verdict is Verdict.FINITE
        assert rep.lower_sum == 0.0 and rep.upper_sum == 0.0 and rep.value == 0.0


def test_gamma_numeric_brackets_sit_inside_analytic():
    p = ParamRT(F(1, 5), F(1, 100))
    analytic = gamma_at_origin(p, 0)
    numeric = gamma_numeric(build_domain(p, 25), 0j, 0)
    assert numeric.verdict is Verdict.FINITE
    assert analytic.lower_sum <= numeric.lower_sum
    assert numeric.lower_sum <= numeric.upper_sum
    assert numeric.upper_sum <= analytic.upper_sum


def test_gamma_numeric_divergent_stops_early():
    p = ParamRT(F(1, 5), F(3, 10))
    quad = GammaQuadrature()
    rep = gamma_numeric(build_domain(p, 40), 0j, 0, quad)
    assert rep.verdict is Verdict.DIVERGENT
    assert rep.value == math.inf
    assert rep.lower_sum > quad.divergence_threshold
    assert rep.truncation["delta_stop"] > 100.0 * quad.delta_min


def test_gamma_numeric_inconclusive_on_power_overflow():
    # delta^(-2n-3) leaves float range partway down the grid at n = 40
    rep = gamma_numeric(unit_disc(), 0j, 40)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert "failed_cell" in rep.truncation and "error" in rep.truncation


def test_gamma_numeric_fekete_path_flag():
    quad = GammaQuadrature(capacity_path="fekete", fekete_n=8)
    rep = gamma_numeric(punctured_disc(), 0j, 0, quad)
    assert FLAG_FEKETE_PATH in rep.flags
    assert rep.value == 0.0


def test_gamma_numeric_probe_must_fit():
    with pytest.raises(ValueError):
        gamma_numeric(unit_disc(), 0.8 + 0j, 0)


def test_gamma_numeric_subnormal_centre_matches_origin():
    # at |z| = 5e-324 the arc clip's 2R|z| underflows to 0.0; the probe is
    # then concentric, so every cell must match z = 0 exactly
    dom = build_domain(ParamRT(F(1, 5), F(1, 100)), 3)
    tiny = gamma_numeric(dom, 5e-324 + 0j, 0)
    origin = gamma_numeric(dom, 0j, 0)
    assert tiny.verdict is origin.verdict is Verdict.FINITE
    assert (tiny.lower_sum, tiny.upper_sum) == (origin.lower_sum, origin.upper_sum)
    assert tiny.truncation["cells"] == origin.truncation["cells"] == 308


def test_gamma_quadrature_validation():
    with pytest.raises(ValueError):
        GammaQuadrature(delta_min=0.3)
    with pytest.raises(ValueError):
        GammaQuadrature(points_per_octave=0)
    with pytest.raises(ValueError):
        GammaQuadrature(capacity_path="guess")


def test_gamma_numeric_lens_overlap_stays_inconclusive():
    # an off-centre disc cut by the probe disc has no descriptor: the cell
    # where the probe first reaches it (delta in (0.05, 0.15)) fails
    dom = DomainSpec(outer_radius=1.0, obstacles=(DiscObstacle(0.1 + 0j, 0.05),), label="lens")
    rep = gamma_numeric(dom, 0j, 0)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.truncation["failed_cell"] == 6 and rep.truncation["cells"] == 6
    assert rep.truncation["error"] == "partial disc-obstacle overlap (lens) is not representable as a descriptor"
    assert rep.lower_sum == rep.upper_sum == 4.7474944098891925


def test_gamma_numeric_fekete_path_pinned():
    # arc 2 of D^{1/3, 1/5} is clipped by the probe discs around z; the Fekete
    # estimates on the trapped pieces are pinned bit for bit
    dom = build_domain(ParamRT(F(1, 3), F(1, 5)), 2)
    quad = GammaQuadrature(delta_min=1e-2, points_per_octave=1, capacity_path="fekete", fekete_n=8)
    rep = gamma_numeric(dom, 0.1 + 0.02j, 0, quad)
    assert rep.verdict is Verdict.FINITE and rep.truncation["cells"] == 12
    assert rep.lower_sum == 34.91823718828753
    assert rep.upper_sum == 45.6228930307232
    assert rep.shell_terms[1] == (1, 0.002192772356608597, 0.009925212798942781)
    assert rep.shell_terms[8] == (8, 21.092194591740576, 21.092194591740576)
    assert rep.shell_terms[9] == (9, 1.1351749127735894e-08, 1.6541964664695002e-08)
    assert rep.shell_terms[10] == (10, 0.0, 10.696923396803122)


# ---------------------------------------------------------------------------
# the trapped-set split against the reference clip


def _outcome(fn):
    """What a trapped-set computation gives: its pieces, or its error text."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def _check_split(dom, z, extra_deltas=()):
    """The split gives trapped_obstacles' pieces at every probe radius, at
    twice each dmax (the grid's own breakpoints) and at extra_deltas; and the
    reference trapped sets grow with delta."""
    radii = [_piece_probe_radii(ob, z) for ob in dom.obstacles]
    split = _TrappedSplit(dom, z, radii)
    deltas = {d for dmin, dmax in radii for d in (dmin, dmax, 2.0 * dmax)} | set(extra_deltas)
    deltas = sorted(d for d in deltas if d > 0.0)
    grown = []
    for delta in deltas:
        ref = _outcome(lambda: trapped_obstacles(dom, z, delta).pieces)
        assert _outcome(lambda: split.pieces(delta)) == ref, (z, delta)
        if isinstance(ref, str):
            continue
        grown.append(ref)
        if ref:
            max_log, recip_sum = split.log_bounds(delta)
            lower, upper = union_log_capacity(ref)
            assert max_log == lower.log_value
            if recip_sum > 0.0:
                assert -1.0 / recip_sum == pytest.approx(upper.log_value, rel=1e-15, abs=0.0)
    chain = grown[::4]
    for small, big in zip(chain, chain[1:]):
        assert descriptor_contains(CompactSet(small), CompactSet(big))


# |z| <= 3/4 keeps the probe discs inside the unit disc; subnormal |z|
# included, where the reference arc clip's 2 R |z| underflows to zero
_admissible_z = st.one_of(
    st.just(0j),
    st.builds(
        lambda rho, phi: complex(rho * math.cos(phi), rho * math.sin(phi)),
        st.floats(0.0, 0.75, exclude_min=True),
        st.floats(-math.pi, math.pi),
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    r=st.fractions(F(1, 20), F(1, 2), max_denominator=40),
    t=st.fractions(F(1, 200), F(49, 100), max_denominator=200),
    k_max=st.integers(1, 30),
    z=_admissible_z,
    near=st.integers(1, 6),
    nudge=st.floats(-1e-6, 1e-6),
    deltas=st.lists(st.floats(1e-12, 0.25), max_size=5),
)
def test_trapped_split_matches_reference(r, t, k_max, z, near, nudge, deltas):
    dom = build_domain(ParamRT(r, t), k_max)
    _check_split(dom, z, deltas)
    # a centre next to arc `near`, where the off-centre clip is at its most
    # sensitive to rounding
    rho = float(r) ** near * (1.0 + nudge)
    if rho <= 0.75:
        _check_split(dom, complex(rho * math.cos(nudge), rho * math.sin(nudge)), deltas)


HAND_BUILT = DomainSpec(
    outer_radius=1.0,
    obstacles=(
        DiscObstacle(0j, 0.05),
        circle(0.3),
        SegmentObstacle(0.4 + 0.1j, 0.5 - 0.2j),
        PointObstacle(-0.4 + 0.2j),
        DiscObstacle(-0.2 - 0.5j, 0.08),
    ),
    label="segment, centred disc, full circle, point, off-centre disc",
)


@settings(max_examples=40, deadline=None)
@given(z=_admissible_z, deltas=st.lists(st.floats(1e-12, 0.25), max_size=5))
def test_trapped_split_matches_reference_hand_built(z, deltas):
    _check_split(HAND_BUILT, z, deltas)


def test_trapped_split_hand_built_fixed_centres():
    # on the segment, on the full circle, inside the centred disc (the probe
    # disc is swallowed, then cuts a lens), next to the point
    for z in (0.45 - 0.05j, 0.3j, 0.01 + 0.01j, -0.4 + 0.21j, 0j):
        _check_split(HAND_BUILT, z, (0.01, 0.1, 0.25))


# ---------------------------------------------------------------------------
# numeric quadrature inside the analytic shell bounds


@settings(max_examples=20, deadline=None)
@given(
    r=st.fractions(F(1, 20), F(1, 2), max_denominator=60).filter(lambda r: r < F(1, 2)),
    t=st.fractions(F(1, 1000), F(49, 100), max_denominator=1000),
    n=st.integers(0, 1),
    data=st.data(),
)
def test_numeric_inside_analytic_at_origin(r, t, n, data):
    # over the window [2 r^(K+1), 1/4] = shells k0..K, the numeric bracket at
    # z = 0 lies inside the sums of the analytic shell bounds (criterion 7 for
    # random rational (r, t)); the window stops above 1e-9
    p = ParamRT(r, t)
    k0 = first_shell_index(p)
    K = data.draw(st.integers(k0, max(k0, int(math.log(5e-10) / math.log(r)) - 1)))
    quad = GammaQuadrature(delta_min=2.0 * float(r) ** (K + 1), divergence_threshold=math.inf)
    numeric = gamma_numeric(build_domain(p, K + 2), 0j, n, quad)
    assert numeric.verdict is Verdict.FINITE
    log_lo, log_up = zip(*(shell_term_log_bounds(p, n, k) for k in range(k0, K + 1)))
    assert math.exp(np.logaddexp.reduce(log_lo)) <= numeric.lower_sum
    assert numeric.lower_sum <= numeric.upper_sum
    assert numeric.upper_sum <= math.exp(np.logaddexp.reduce(log_up))
