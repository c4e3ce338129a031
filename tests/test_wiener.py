import bisect
import itertools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from shell_reference import sandwich_sums

from slitdisc.capacity import log_capacity, union_log_capacity
from slitdisc.numerics import power
from slitdisc.geometry import (
    ArcObstacle,
    CompactSet,
    DiscObstacle,
    DomainSpec,
    ParamRT,
    PointObstacle,
    SegmentObstacle,
    _clip_obstacle,
    _wrap_angle,
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
    FLAG_GUARD_BAND,
    FLAG_NO_SHELLS,
    FLAG_RATIO_ONE,
    SPLIT_MARGIN,
    SPLIT_SCALE_SLACK,
    Classification,
    GammaQuadrature,
    GammaReport,
    Verdict,
    _probe,
    _TrappedSets,
    classify_domain,
    divergence_ratio,
    gamma_at_origin,
    gamma_numeric,
    log_g,
    log_tail_g,
    phase_diagram,
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
    # tail(k) = g(k) + tail(k+1), each tail from its own weights array and
    # closed remainder
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
    # the default 40-shell window of a divergent pair already leaves the
    # double range at its last shell
    rep = gamma_at_origin(ParamRT(F(1, 100), F(2, 5)), 2)
    k, lo_log, up_log = rep.shell_terms_log[-1]
    assert k == 40 and math.isfinite(lo_log) and math.isfinite(up_log)
    assert rep.shell_terms[-1] == (40, math.inf, math.inf)


def test_shell_terms_past_radius_underflow():
    # ratio t / r^4 = 9/10: the tail runs on past k = 275, where the shell
    # radius 2r^(k+1) underflows doubles; the closed-form remainder covers
    # it, so the bracket holds the 50-digit sums of every shell
    p = ParamRT(F(1, 15), F(1, 56250))
    assert 2.0 * (1 / 15) ** 276 == 0.0
    rep = gamma_at_origin(p, 1)
    assert rep.verdict is Verdict.FINITE and rep.truncation["converged"]
    lower, upper = sandwich_sums(F(1, 15), F(1, 56250), 1)
    assert rep.lower_sum <= lower and upper <= rep.upper_sum


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


@pytest.mark.parametrize("t", [F(1, 10**400), F(1, 10**309)], ids=["below-doubles", "subnormal"])
def test_logs_below_the_double_range_vs_mpmath(t):
    # float(t) is 0.0 or subnormal: the logs come from the Fractions, and
    # match 50-digit values; the linear sums underflow (the upper one to a
    # tiny double at t = 10^-309)
    r, n = F(1, 5), 0
    p = ParamRT(r, t)
    k0, jmin = first_shell_index(p), first_trapped_index(p)
    lo, up = shell_term_log_bounds(p, n, k0)
    with mpmath.workdps(50):
        R, T = mpmath.mpf(r.numerator) / r.denominator, mpmath.mpf(t.numerator) / t.denominator
        L = mpmath.log(1 / R)

        def g(j):
            return 1 / (T ** (-j) + j * L)

        def tail(k):  # g(j) <= t^j, so three terms leave < 1e-600 relative
            return mpmath.fsum(g(j) for j in range(k, k + 3))

        log_width = mpmath.log(mpmath.mpf(1) / 4 - 2 * R ** (k0 + 1))
        refs = [
            (log_g(p, 1), mpmath.log(g(1))),
            (log_tail_g(p, 1), mpmath.log(tail(1))),
            (lo, log_width + (2 * n + 3) * mpmath.log(4) + mpmath.log(g(k0 + 1))),
            (up, log_width - (2 * n + 3) * mpmath.log(2 * R ** (k0 + 1)) + mpmath.log(tail(jmin))),
        ]
        for got, ref in refs:
            assert abs(got - ref) <= 1e-14 * abs(ref), (got, ref)
    rep = gamma_at_origin(p, n)
    assert rep.verdict is Verdict.FINITE and rep.truncation["converged"]
    assert rep.lower_sum == 0.0 and rep.upper_sum < 1e-300
    assert all(math.isfinite(lo) and lo <= up for _, lo, up in rep.shell_terms_log)


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


@pytest.mark.parametrize(
    "p, ratio_n0, ratio_n1",
    [
        # 0.04 * 25 = 1 + 2.1e-17 exactly
        (ParamRT(F(1, 5), 0.04), 1.0, 25.0),
        # float(0.2)^2 is 0.04 + 4.4e-18: 1/25 over it is 1 - 1.1e-16
        (ParamRT(0.2, F(1, 25)), 0.9999999999999999, 24.999999999999993),
    ],
    ids=["exact-r", "exact-t"],
)
def test_mixed_exactness_pinned(p, ratio_n0, ratio_n1):
    # one parameter exact: the ratios are the floats nearest to the exact
    # ratios of the values; the tests compare power(r, p) as le_guarded
    # does, so t = r^2 lands on the band
    rep = threshold_report(p)
    assert rep.classification is Classification.EXHAUSTIVE_HENCE_COMPLETE
    assert type(rep.ratio_n0) is float and rep.ratio_n0 == ratio_n0 == float(F(p.t) / F(p.r) ** 2)
    assert type(rep.ratio_n1) is float and rep.ratio_n1 == ratio_n1 == float(F(p.t) / F(p.r) ** 4)
    assert rep.exhaustive_test.result and rep.exhaustive_test.boundary_warning
    assert not rep.not_complete_test.result and not rep.not_complete_test.boundary_warning
    assert rep.flags == (FLAG_GUARD_BAND,)
    origin = gamma_at_origin(p, 0)
    assert origin.verdict is Verdict.DIVERGENT
    assert type(origin.ratio) is float and origin.ratio == ratio_n0
    assert origin.flags == (FLAG_GUARD_BAND, FLAG_RATIO_ONE)


_exact_r = st.fractions(0, 1, max_denominator=40).filter(lambda r: 0 < r < 1)


@settings(deadline=None)
@given(data=st.data(), r=_exact_r)
def test_threshold_report_is_fraction_arithmetic(data, r):
    # t = r^2 and t = r^4, the two boundaries, are drawn explicitly
    t = data.draw(
        st.one_of(
            st.just(r**2),
            st.just(r**4),
            st.fractions(0, F(1, 2), max_denominator=10**4),
        ).filter(lambda t: 0 < t < F(1, 2))
    )
    rep = threshold_report(ParamRT(r, t))
    want = (
        Classification.EXHAUSTIVE_HENCE_COMPLETE
        if r**2 <= t
        else Classification.NOT_COMPLETE if t <= r**4 else Classification.UNKNOWN
    )
    assert rep.classification is want
    assert rep.ratio_n0 == t / r**2 and type(rep.ratio_n0) is Fraction
    assert rep.ratio_n1 == t / r**4 and type(rep.ratio_n1) is Fraction
    assert (FLAG_RATIO_ONE in rep.flags) == (t == r**4)


# ---------------------------------------------------------------------------
# the phase diagram, one row at a time


def _grid(lo, hi, steps):
    """The phase-diagram command's grid of steps points from lo to hi."""
    return [lo + (hi - lo) * F(i, max(steps - 1, 1)) for i in range(steps)]


def _assert_cells_are_threshold_reports(rs, ts):
    try:
        for r in rs:
            for t in ts:
                threshold_report(ParamRT(r, t))
    except ValueError as exc:  # a bad r or t: the first one a cell-by-cell sweep meets
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            phase_diagram(rs, ts)
        return
    cells = phase_diagram(rs, ts)
    assert [(r, t) for r, t, *_ in cells] == [(r, t) for r in rs for t in ts]
    for r, t, cls, q0, q1 in cells:
        rep = threshold_report(ParamRT(r, t))
        assert cls is rep.classification, (r, t)
        assert (type(q0), q0) == (type(rep.ratio_n0), rep.ratio_n0), (r, t)
        assert (type(q1), q1) == (type(rep.ratio_n1), rep.ratio_n1), (r, t)


def _bound(lo, hi):
    """An exact or a float grid bound strictly inside (lo, hi)."""
    return st.one_of(
        st.fractions(lo, hi, max_denominator=1000), st.floats(lo, hi, exclude_min=True, exclude_max=True)
    ).filter(lambda x: lo < x < hi)


@settings(deadline=None)
@given(
    r_bounds=st.lists(_bound(0, 1), min_size=2, max_size=2),
    t_bounds=st.lists(_bound(0, F(1, 2)), min_size=2, max_size=2),
    r_steps=st.integers(1, 5),
    t_steps=st.integers(1, 8),
    ulps=st.integers(0, 2),
    on_thresholds=st.booleans(),
)
def test_phase_diagram_cells_are_threshold_reports(r_bounds, t_bounds, r_steps, t_steps, ulps, on_thresholds):
    rs, ts = _grid(*sorted(r_bounds), r_steps), _grid(*sorted(t_bounds), t_steps)
    if on_thresholds:
        # cells on t = r^2 and t = r^4, and for floats the ulps around them,
        # inside the guard band
        kind = F if isinstance(ts[0], F) else float
        edges = [kind(power(r, p)) for r in rs for p in (2, 4)]
        if kind is float:
            edges += [x + k * math.ulp(x) for x in edges for k in range(-ulps, ulps + 1)]
        ts = sorted({t for t in ts + edges if 0 < t < F(1, 2)})
    _assert_cells_are_threshold_reports(rs, ts)


@pytest.mark.parametrize(
    "rs, ts",
    [
        # float cells inside the guard band: 0.1**2 is 0.010000000000000002
        ([0.1, F(1, 10)], [0.0001, 0.01 - 1e-17, 0.01, 0.010000000000000002, 0.0100000000000001, 0.02]),
        ([0.1], [F(1, 10000), F(1, 100), F(2, 100)]),
        # exact cells on t = r^4 and t = r^2
        ([F(1, 5), F(1, 4)], [F(1, 625), F(1, 256), F(1, 100), F(1, 25), F(1, 16)]),
        # one-step grids
        ([F(1, 5)], [F(1, 25)]),
        ([0.2], [0.04]),
        ([F(1, 20)], _grid(F(1, 100), F(49, 100), 50)),
        # float ratios t / r^4 past the double range, shown as inf
        ([1e-80, 5.8e-170], [1e-300, 0.01, 0.1]),
        ([], [F(1, 4)]),
        ([F(1, 4)], []),
    ],
)
def test_phase_diagram_cells_are_threshold_reports_fixed(rs, ts):
    _assert_cells_are_threshold_reports(rs, ts)


def test_phase_diagram_rejects_what_bisection_cannot_take():
    with pytest.raises(ValueError, match="ascending"):
        phase_diagram([F(1, 5)], [F(1, 4), F(1, 8)])
    with pytest.raises(ValueError, match="all exact or all floats"):
        phase_diagram([F(1, 5)], [F(1, 100), 0.02])


@pytest.mark.parametrize(
    "rs, ts",
    [
        ([F(1, 2), F(1)], [F(1, 4), F(1, 2)]),
        ([F(1, 2), F(1)], [F(1, 4)]),
        ([F(1), F(1, 2)], [F(1, 2)]),
        ([0.5, 0.25], [0.1, 0.5, 0.7]),
    ],
)
def test_phase_diagram_rejects_the_first_bad_cell(rs, ts):
    # the error is the first one a cell-by-cell sweep meets
    with pytest.raises(ValueError) as want:
        for r in rs:
            for t in ts:
                ParamRT(r, t)
    with pytest.raises(ValueError) as got:
        phase_diagram(rs, ts)
    assert str(got.value) == str(want.value)


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
    # K is the first k >= 2 with k log(5) 100^-k below 2^-53; past it both
    # sums close with ratios q = 1/4 to the last bit
    assert rep.truncation["converged"] and rep.truncation["k_stop"] == 9
    sigma, rho = rep.truncation["tail_ratios"]
    assert sigma <= 0.25 <= rho and rho - sigma <= 1e-16
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


def test_gamma_origin_ratio_one_inside_guard_band():
    # 0.04 sits within the guard band of 0.2**2 = 0.04000000000000001, and
    # 0.2 * 0.2 is that float itself: both are ratio one
    for t in (0.04, 0.2 * 0.2):
        rep = gamma_at_origin(ParamRT(0.2, t), 0)
        assert rep.verdict is Verdict.DIVERGENT
        assert FLAG_RATIO_ONE in rep.flags and FLAG_GUARD_BAND in rep.flags
    assert FLAG_RATIO_ONE not in gamma_at_origin(ParamRT(0.2, 0.041), 0).flags


def _assert_inside(r, t, n, rel=None):
    """The report brackets the 50-digit sandwich sums with no tolerance, and
    within rel of them when rel is given."""
    rep = gamma_at_origin(ParamRT(r, t), n)
    assert rep.verdict is Verdict.FINITE
    lower, upper = sandwich_sums(r, t, n)
    assert rep.lower_sum <= lower, (r, t, n)
    assert upper <= rep.upper_sum, (r, t, n)
    if rel is not None:
        assert rep.lower_sum >= lower * (1 - rel), (r, t, n)
        assert rep.upper_sum <= upper * (1 + rel), (r, t, n)


@pytest.mark.parametrize(
    "r, t",
    [(F(1, 2), F(1, 100)), (0.5, 0.01), (F(1, 5), 0.001)],
    ids=["exact-half", "float-half", "exact-r-float-t"],
)
@pytest.mark.parametrize("n", [0, 1])
def test_gamma_origin_brackets_at_the_edges(r, t, n):
    # at r = 1/2 the first shell k0 = 3 holds the g-tail from jmin = k0 - 1;
    # float parameters are bracketed as the Fractions they are
    rep = gamma_at_origin(ParamRT(r, t), n)
    assert rep.verdict is Verdict.FINITE
    lower, upper = sandwich_sums(F(r), F(t), n)
    assert rep.lower_sum <= lower and upper <= rep.upper_sum


@pytest.mark.parametrize(
    "q, n",
    [
        (F(999, 1000), 0),  # stopped on the old 6000-term budget below the true sum
        (F(9, 10), 0),
        (1 - F(1, 2**10), 0),
        (1 - F(1, 2**20), 0),
        (1 - F(1, 2**40), 1),
    ],
)
def test_gamma_origin_brackets_near_ratio_one(q, n):
    r = F(1, 5)
    _assert_inside(r, q * r ** (2 * n + 2), n, rel=1e-12 if q <= F(99, 100) else None)


@settings(max_examples=settings.default.max_examples * 3 // 5, deadline=None)
@given(
    r=st.fractions(F(1, 20), F(1, 2), max_denominator=60),
    q=st.one_of(
        st.fractions(0, 1, max_denominator=10**6).filter(lambda q: 0 < q < 1),
        st.integers(1, 60).map(lambda k: 1 - F(1, 2**k)),
    ),
    n=st.integers(0, 2),
)
def test_gamma_origin_brackets_the_sandwich_sums(r, q, n):
    # the closed-form remainders make [lower_sum, upper_sum] hold the whole
    # infinite sandwich sums, and stay within 1e-12 of them away from q = 1
    _assert_inside(r, q * r ** (2 * n + 2), n, rel=1e-12 if q <= F(99, 100) else None)


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


def test_gamma_numeric_lens_overlap_stays_inconclusive():
    # an off-centre disc cut by the probe disc has no descriptor: the cell
    # where the probe first reaches it (delta in (0.05, 0.15)) fails
    dom = DomainSpec(outer_radius=1.0, obstacles=(DiscObstacle(0.1 + 0j, 0.05),), label="lens")
    rep = gamma_numeric(dom, 0j, 0)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.truncation["failed_cell"] == 6 and rep.truncation["cells"] == 6
    assert rep.truncation["error"] == "partial disc-obstacle overlap (lens) is not representable as a descriptor"
    assert rep.lower_sum == rep.upper_sum == 4.7474944098891925


# ---------------------------------------------------------------------------
# the trapped sets at many deltas against the reference clip


def _outcome(fn):
    """What a trapped-set computation gives: its pieces, or its error text."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def _probes(dom, z):
    return np.array([_probe(ob, z) for ob in dom.obstacles]).reshape(-1, 4).T


def _assert_reciprocal_sums(pieces, recip_sum, upper):
    """recip_sum, and the sum behind union_log_capacity's upper bound
    -1 / sum, are sums of the pieces' 1 / (-log cap) in two orders: each lies
    within the recursive-summation bound of math.fsum of those reciprocals."""
    logs = [log_capacity(p).log_value for p in pieces]
    recips = [1.0 / -lv for lv in logs if lv != -math.inf]
    exact = math.fsum(recips)
    # a recursive sum of N positive terms is off by at most (N - 1) 2^-53 of
    # their sum, in any order; fsum's one rounding adds half an ulp
    bound = (len(recips) - 1) * 2.0**-53 * exact + 0.5 * math.ulp(exact)
    assert abs(recip_sum - exact) <= bound
    # the upper bound keeps -1 / sum: inverting it back rounds twice more
    assert abs(-1.0 / upper - exact) <= bound + 2.0 * 2.0**-53 * exact


def _check_split(dom, z, extra_deltas=()):
    """At every probe radius, at twice each dmax (the grid's own breakpoints)
    and at extra_deltas, _TrappedSets gives trapped_obstacles' pieces and
    its error text, and log_bounds, asked for all of them at once, gives
    union_log_capacity's bounds; and the reference trapped sets grow with
    delta."""
    probes = _probes(dom, z)
    sets = _TrappedSets(dom.obstacles, z, probes)
    deltas = {d for dmin, dmax in zip(probes[0].tolist(), probes[1].tolist()) for d in (dmin, dmax, 2.0 * dmax)}
    deltas = sorted(d for d in deltas | set(extra_deltas) if d > 0.0)
    lower, recip_sum, errors = sets.log_bounds(deltas)
    grown = []
    for i, delta in enumerate(deltas):
        ref = _outcome(lambda: trapped_obstacles(dom, z, delta).pieces)
        assert _outcome(lambda: sets.pieces(delta)) == ref, (z, delta)
        if isinstance(ref, str):
            assert errors[i] == ref, (z, delta)
            continue
        assert i not in errors, (z, delta)
        grown.append(ref)
        if ref:
            lo, up = union_log_capacity(ref)
            assert lower[i] == lo.log_value
            if recip_sum[i] > 0.0:
                _assert_reciprocal_sums(ref, recip_sum[i], up.log_value)
        else:
            assert lower[i] == -math.inf and recip_sum[i] == 0.0
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


@settings(max_examples=settings.default.max_examples * 2 // 5, deadline=None)
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


def test_trapped_split_sums_reciprocals_in_its_own_order():
    # at delta = 1.27e-5 (21 trapped pieces) the prefix sum and
    # union_log_capacity's sum differ by 1.03e-15 relative, within the bound
    _check_split(build_domain(ParamRT(F(2, 7), F(7, 36)), 28), 0j)


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


@settings(max_examples=settings.default.max_examples * 2 // 5, deadline=None)
@given(z=_admissible_z, deltas=st.lists(st.floats(1e-12, 0.25), max_size=5))
def test_trapped_split_matches_reference_hand_built(z, deltas):
    _check_split(HAND_BUILT, z, deltas)


def test_trapped_split_hand_built_fixed_centres():
    # on the segment, on the full circle, inside the centred disc (the probe
    # disc is swallowed, then cuts a lens), next to the point
    for z in (0.45 - 0.05j, 0.3j, 0.01 + 0.01j, -0.4 + 0.21j, 0j):
        _check_split(HAND_BUILT, z, (0.01, 0.1, 0.25))


# ---------------------------------------------------------------------------
# the array pass against the sequential per-delta loop it replaced


def _ref_probe_radii(ob, z):
    """(first contact delta, fully-covered delta) for one obstacle seen from z."""
    if isinstance(ob, PointObstacle):
        d = abs(ob.location - z)
        return d, d
    if isinstance(ob, DiscObstacle):
        d = abs(ob.center - z)
        return max(d - ob.radius, 0.0), d + ob.radius
    if isinstance(ob, SegmentObstacle):
        d0, d1 = abs(ob.z0 - z), abs(ob.z1 - z)
        seg = ob.z1 - ob.z0
        t = ((z - ob.z0) / seg).real
        dmin = min(d0, d1)
        if 0.0 < t < 1.0:
            dmin = min(dmin, abs(ob.z0 + t * seg - z))
        return dmin, max(d0, d1)
    if ob.point_like:
        d = abs(ob.center_point - z)
        return d, d
    if z == 0j:
        return ob.radius, ob.radius
    R, d, phi = ob.radius, abs(z), math.atan2(z.imag, z.real)
    rel = _wrap_angle(phi - ob.center_angle)
    near = ob.center_angle + max(-ob.half_width, min(ob.half_width, rel))
    dmin = abs(z - R * complex(math.cos(near), math.sin(near)))
    cands = [ob.center_angle - ob.half_width, ob.center_angle + ob.half_width]
    anti = _wrap_angle(phi + math.pi - ob.center_angle)
    if abs(anti) <= ob.half_width:
        cands.append(ob.center_angle + anti)
    dmax = max(abs(z - R * complex(math.cos(a), math.sin(a))) for a in cands)
    return dmin, dmax


def _ref_delta_grid(radii, quad):
    top, bottom = 0.25, quad.delta_min
    n_geo = max(1, int(math.ceil(math.log2(top / bottom) * 8)))  # 8 points an octave
    pts = {top, bottom}
    for i in range(1, n_geo):
        pts.add(top * (bottom / top) ** (i / n_geo))
    for dmin, dmax in radii:
        for v in (dmin, dmax, 2.0 * dmax):
            if bottom < v < top:
                pts.add(v)
    return np.array(sorted(pts))


def _ref_clip_scale(ob, z):
    if isinstance(ob, SegmentObstacle):
        return max(abs(ob.z0 - z), abs(ob.z1 - z))
    if isinstance(ob, ArcObstacle) and not ob.point_like and z != 0j:
        return ob.radius + abs(z)
    return 0.0


class _RefSplit:
    """One bisect of the sorted dmax per delta; ties go through the clip."""

    def __init__(self, domain, z, radii):
        self.obstacles, self.z = domain.obstacles, z
        lo, hi = [], []
        for ob, (dmin, dmax) in zip(self.obstacles, radii):
            scale = _ref_clip_scale(ob, z)
            if scale:
                slack = SPLIT_SCALE_SLACK * scale * scale
                dmin = math.sqrt(max(dmin * dmin - slack, 0.0)) * (1.0 - SPLIT_MARGIN)
                dmax = math.sqrt(dmax * dmax + slack) * (1.0 + SPLIT_MARGIN)
            lo.append(dmin)
            hi.append(dmax)
        self.order = sorted(range(len(hi)), key=hi.__getitem__)
        self.hi = [hi[i] for i in self.order]
        self.lo = [lo[i] for i in self.order]
        self.lo_suffix_min = list(reversed(list(itertools.accumulate(reversed(self.lo), min))))
        self.log_max = [-math.inf]
        self.recip_sum = [0.0]
        for i in self.order:
            lv = log_capacity(self.obstacles[i]).log_value
            self.log_max.append(max(self.log_max[-1], lv))
            self.recip_sum.append(self.recip_sum[-1] + (1.0 / (-lv) if lv != -math.inf else 0.0))

    def split(self, delta):
        whole = bisect.bisect_left(self.hi, delta)
        band = []
        j = whole
        while j < len(self.lo) and self.lo_suffix_min[j] <= delta:
            if self.lo[j] <= delta:
                i = self.order[j]
                band.append((i, _clip_obstacle(self.obstacles[i], self.z, delta)))
            j += 1
        return whole, band

    def pieces(self, delta):
        whole, band = self.split(delta)
        by_index = {i: [self.obstacles[i]] for i in self.order[:whole]}
        by_index.update(band)
        return tuple(p for i in sorted(by_index) for p in by_index[i])

    def log_bounds(self, delta):
        whole, band = self.split(delta)
        lower, recip_sum = self.log_max[whole], self.recip_sum[whole]
        for _, clipped in band:
            for piece in clipped:
                lv = log_capacity(piece).log_value
                lower = max(lower, lv)
                if lv != -math.inf:
                    recip_sum += 1.0 / (-lv)
        if lower >= 0.0:
            union_log_capacity(self.pieces(delta))
        return lower, recip_sum


def _ref_bracket_h(split, delta):
    lower, recip_sum = split.log_bounds(delta)
    if lower == -math.inf:
        return 0.0, 0.0
    return 1.0 / (-lower), 1.0 / (1.0 / recip_sum)


def _ref_power_integral(a, b, n):
    p = 2 * n + 2
    try:
        return (a**-p - b**-p) / p
    except OverflowError as exc:
        raise ValueError(f"power weight delta^(-{p + 1}) overflows at delta={a}; raise delta_min or lower n") from exc


def reference_gamma_numeric(domain, z, n, quad=GammaQuadrature()):
    """gamma_numeric as the per-delta loop it was: h cached per delta, one
    cell at a time from 1/4 down, stopping at the first error or at the
    divergence threshold."""
    if abs(z) + 0.25 > domain.outer_radius + 1e-12:
        raise ValueError("probe discs of radius 1/4 must stay inside the domain's outer circle")
    radii = [_ref_probe_radii(ob, z) for ob in domain.obstacles]
    grid = _ref_delta_grid(radii, quad)
    flags = list(domain.family.flags()) if domain.family is not None else []
    cells, lower_sum, upper_sum = [], 0.0, 0.0
    truncation = {
        "mode": "numeric-quadrature",
        "delta_min": quad.delta_min,
        "divergence_threshold": quad.divergence_threshold,
        "unresolved_below_delta_min": True,
    }
    verdict = Verdict.FINITE
    idx = 0
    try:
        split = _RefSplit(domain, z, radii)
        h_cache = {}

        def at(delta):
            if delta not in h_cache:
                h_cache[delta] = _ref_bracket_h(split, delta)
            return h_cache[delta]

        for a, b in zip(grid[-2::-1], grid[::-1]):
            h_lo, _ = at(float(a))
            _, h_up = at(float(b))
            P = _ref_power_integral(float(a), float(b), n)
            cell_lo, cell_up = h_lo * P, h_up * P
            lower_sum += cell_lo
            upper_sum += cell_up
            cells.append((idx, cell_lo, cell_up))
            idx += 1
            if lower_sum > quad.divergence_threshold:
                verdict = Verdict.DIVERGENT
                truncation["delta_stop"] = float(a)
                break
        else:
            truncation["delta_stop"] = quad.delta_min
    except ValueError as exc:
        verdict = Verdict.INCONCLUSIVE
        truncation["failed_cell"] = idx
        truncation["error"] = str(exc)
    truncation["cells"] = idx
    ratio = divergence_ratio(domain.family, n) if domain.family is not None else None
    return GammaReport(
        n=n,
        z=z,
        verdict=verdict,
        value=math.inf if verdict == Verdict.DIVERGENT else upper_sum,
        shell_terms=tuple(cells),
        ratio=ratio,
        truncation=truncation,
        lower_sum=lower_sum,
        upper_sum=upper_sum,
        flags=tuple(flags),
    )


def _assert_matches_reference(dom, z, n, quad):
    got, ref = gamma_numeric(dom, z, n, quad), reference_gamma_numeric(dom, z, n, quad)
    # field for field: cells, both sums, verdict, the whole truncation dict
    assert got.shell_terms == ref.shell_terms
    assert (got.lower_sum, got.upper_sum, got.value) == (ref.lower_sum, ref.upper_sum, ref.value)
    assert got.verdict is ref.verdict
    assert got.truncation == ref.truncation
    assert got == ref
    return got


_exact_or_float_r = st.one_of(st.fractions(F(1, 20), F(1, 2), max_denominator=40), st.floats(0.05, 0.5))
_exact_or_float_t = st.one_of(st.fractions(F(1, 200), F(49, 100), max_denominator=200), st.floats(0.005, 0.49))


@settings(max_examples=settings.default.max_examples // 5, deadline=None)
@given(
    r=_exact_or_float_r,
    t=_exact_or_float_t,
    k_max=st.integers(1, 200),
    where=st.sampled_from(("origin", "off-axis", "near", "subnormal", "hand-built")),
    z=_admissible_z,
    near=st.integers(1, 6),
    nudge=st.floats(-1e-6, 1e-6),
    n=st.integers(0, 2),
    # delta_min down to 1e-60, below which delta^-7 leaves the double range
    delta_min_exp=st.floats(1.0, 60.0),
    threshold=st.one_of(st.just(1e6), st.floats(1.0, 1e12), st.just(math.inf)),
)
def test_gamma_numeric_matches_sequential_reference(r, t, k_max, where, z, near, nudge, n, delta_min_exp, threshold):
    quad = GammaQuadrature(delta_min=10.0**-delta_min_exp, divergence_threshold=threshold)
    if where == "hand-built":
        _assert_matches_reference(HAND_BUILT, z, n, quad)
        return
    dom = build_domain(ParamRT(r, t), k_max)
    rho = float(r) ** near * (1.0 + nudge)
    z = {
        "origin": 0j,
        "off-axis": z * 0.02,
        "near": complex(rho * math.cos(nudge), rho * math.sin(nudge)) if rho <= 0.75 else 0j,
        "subnormal": complex(5e-324, 0.0) * (1 + near % 2) if nudge >= 0 else complex(0.0, -5e-324),
    }[where]
    _assert_matches_reference(dom, z, n, quad)


# a segment through the probe centre diverges at once; the disc beside it is
# cut into a lens only for delta in (0.01, 0.05), past the stop
_LENS_BELOW_STOP = DomainSpec(
    outer_radius=1.0,
    obstacles=(SegmentObstacle(0.001 + 0j, 0.2 + 0j), DiscObstacle(-0.03 + 0j, 0.02)),
    label="segment beside a disc",
)
# an arc whose stored log radius puts its log capacity above 0
_LOG_CAP_ABOVE_ZERO = DomainSpec(
    outer_radius=1.0,
    obstacles=(ArcObstacle(0.1, 0.0, 0.5, math.log(math.sin(0.25)), log_radius=2.0), PointObstacle(0j)),
    label="arc of log capacity 0.6",
)
# cell 0 fails at both of its ends: at 1/4 the circle's log capacity is 2,
# below it the disc, whole at 1/4, is cut into a lens; the lower end is
# evaluated first
_BOTH_ENDS_FAIL = DomainSpec(
    outer_radius=1.0,
    obstacles=(DiscObstacle(0.15 + 0j, 0.1), ArcObstacle(0.25, 0.0, math.pi, 0.0, log_radius=2.0)),
    label="disc inside a circle of log capacity 2",
)


@pytest.mark.parametrize(
    "dom, z, n, quad, verdict",
    [
        (HAND_BUILT, 0.01 + 0.01j, 0, GammaQuadrature(), Verdict.INCONCLUSIVE),  # lens
        (HAND_BUILT, 0.01 + 0.01j, 0, GammaQuadrature(divergence_threshold=10.0), Verdict.DIVERGENT),
        (HAND_BUILT, 0.45 - 0.05j, 1, GammaQuadrature(), Verdict.DIVERGENT),
        (_LENS_BELOW_STOP, 0j, 0, GammaQuadrature(), Verdict.INCONCLUSIVE),
        (_LENS_BELOW_STOP, 0j, 0, GammaQuadrature(divergence_threshold=10.0), Verdict.DIVERGENT),
        (_LOG_CAP_ABOVE_ZERO, 0j, 0, GammaQuadrature(), Verdict.INCONCLUSIVE),
        (_LOG_CAP_ABOVE_ZERO, 0.05j, 0, GammaQuadrature(), Verdict.INCONCLUSIVE),
        (_BOTH_ENDS_FAIL, 0j, 0, GammaQuadrature(), Verdict.INCONCLUSIVE),
        # the lens at the first cell comes before its weight's overflow
        (DomainSpec(1.0, (DiscObstacle(0.2 + 0j, 0.1),), "lens"), 0j, 300, GammaQuadrature(), Verdict.INCONCLUSIVE),
        (unit_disc(), 0j, 40, GammaQuadrature(), Verdict.INCONCLUSIVE),  # power overflow
        (unit_disc(), 0j, 300, GammaQuadrature(), Verdict.INCONCLUSIVE),  # (1/4)^-602 overflows: cell 0
        (build_domain(ParamRT(F(1, 5), F(1, 100)), 30), 0j, 2, GammaQuadrature(delta_min=1e-60), Verdict.DIVERGENT),
        (
            build_domain(ParamRT(F(1, 5), F(1, 100)), 30),
            0j,
            2,
            GammaQuadrature(delta_min=1e-60, divergence_threshold=math.inf),
            Verdict.INCONCLUSIVE,
        ),
        (build_domain(ParamRT(F(1, 5), F(3, 10)), 40), 0j, 0, GammaQuadrature(), Verdict.DIVERGENT),
        (build_domain(ParamRT(F(1, 5), F(3, 10)), 40), 0.001j, 0, GammaQuadrature(), Verdict.FINITE),
    ],
    ids=[
        "lens",
        "lens-past-stop",
        "on-segment",
        "disc-lens",
        "disc-lens-past-stop",
        "log-cap-above-zero",
        "log-cap-above-zero-off-centre",
        "both-ends-of-cell-0-fail",
        "lens-before-overflow",
        "power-overflow",
        "power-overflow-first-cell",
        "family-power-overflow-past-stop",
        "family-power-overflow",
        "family-divergent",
        "family-off-axis",
    ],
)
def test_gamma_numeric_matches_sequential_reference_fixed(dom, z, n, quad, verdict):
    assert _assert_matches_reference(dom, z, n, quad).verdict is verdict


def test_gamma_numeric_rejects_negative_n():
    with pytest.raises(ValueError, match="n >= 0"):
        gamma_numeric(unit_disc(), 0j, -1)


# ---------------------------------------------------------------------------
# numeric quadrature inside the analytic shell bounds


@settings(max_examples=settings.default.max_examples // 5, deadline=None)
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
