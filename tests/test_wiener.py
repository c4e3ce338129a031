import math
from fractions import Fraction

import mpmath
import pytest

from slitdisc.geometry import ParamRT, build_domain, first_trapped_index, punctured_disc, unit_disc
from slitdisc.wiener import (
    FLAG_FEKETE_PATH,
    FLAG_GUARD_BAND,
    FLAG_NO_SHELLS,
    FLAG_RATIO_ONE,
    Classification,
    GammaQuadrature,
    GammaReport,
    Verdict,
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


def test_gamma_quadrature_validation():
    with pytest.raises(ValueError):
        GammaQuadrature(delta_min=0.3)
    with pytest.raises(ValueError):
        GammaQuadrature(points_per_octave=0)
    with pytest.raises(ValueError):
        GammaQuadrature(capacity_path="guess")
