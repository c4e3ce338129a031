import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitdisc.numerics import (
    exact_pow,
    float_or_inf,
    is_exact,
    le_guarded,
    parse_number,
    pow_maybe_exact,
    power,
)


def test_parse_number_rational_vs_float():
    v = parse_number("1/8")
    assert v == Fraction(1, 8) and is_exact(v)
    w = parse_number("0.125")
    assert w == 0.125 and not is_exact(w)
    assert parse_number(" 3/10 ") == Fraction(3, 10)


def test_float_or_inf_rounds_and_saturates():
    assert float_or_inf(Fraction(1, 3)) == 1 / 3
    assert float_or_inf(Fraction(1, 10**400)) == 0.0
    # the halfway point between the largest double and 2^1024 rounds up, to inf
    assert float_or_inf(Fraction(2**1024 - 2**970 - 1)) == sys.float_info.max
    assert float_or_inf(Fraction(2**1024 - 2**970)) == math.inf
    assert float_or_inf(Fraction(-(10**400), 3)) == -math.inf


def test_le_guarded_exact_is_exact():
    assert le_guarded(Fraction(1, 25), Fraction(1, 25)).result
    assert not le_guarded(Fraction(1, 25) + Fraction(1, 10**30), Fraction(1, 25)).result
    assert not le_guarded(Fraction(1, 25), Fraction(1, 25)).boundary_warning


def test_le_guarded_float_guard_band():
    # 0.04000000000000001 vs 0.04: inside the 1e-15 relative band
    a = 0.2 * 0.2
    cmp = le_guarded(a, 0.04)
    assert cmp.result and cmp.boundary_warning
    # comfortably separated floats: no warning
    cmp2 = le_guarded(0.039, 0.04)
    assert cmp2.result and not cmp2.boundary_warning
    cmp3 = le_guarded(0.041, 0.04)
    assert not cmp3.result and not cmp3.boundary_warning


def test_le_guarded_band_is_relative_below_one():
    # 5e-16 vs 1e-16 are a factor 5 apart, far outside a 1e-15 relative band
    cmp = le_guarded(5e-16, 1e-16)
    assert not cmp.result and not cmp.boundary_warning
    a = 1e-20 * (1 + 2**-52)
    tie = le_guarded(a, 1e-20)
    assert tie.result and tie.boundary_warning


def test_power_preserves_exactness():
    assert power(Fraction(1, 5), 3) == Fraction(1, 125)
    assert isinstance(power(Fraction(1, 5), 3), Fraction)
    assert power(0.2, 3) == 0.2**3


def test_exact_pow_perfect_roots():
    assert exact_pow(Fraction(1, 8), Fraction(1, 3)) == Fraction(1, 2)
    assert exact_pow(Fraction(1, 8), Fraction(5, 3)) == Fraction(1, 32)
    assert exact_pow(Fraction(4, 9), Fraction(1, 2)) == Fraction(2, 3)
    assert exact_pow(Fraction(1, 8), Fraction(-1, 3)) == 2
    # no exact cube root of 1/2
    assert exact_pow(Fraction(1, 2), Fraction(1, 3)) is None


def test_pow_maybe_exact_fallback():
    assert pow_maybe_exact(Fraction(1, 8), Fraction(1, 3)) == Fraction(1, 2)
    got = pow_maybe_exact(Fraction(1, 2), Fraction(1, 3))
    assert isinstance(got, float) and got == pytest.approx(0.5 ** (1 / 3), rel=1e-15)


def _as(kind, x):
    return Fraction(x) if kind == "exact" else float(x)


@given(
    a=st.floats(1e-300, 0.5),
    kinds=st.tuples(st.sampled_from(["exact", "float"]), st.sampled_from(["exact", "float"])),
    rel=st.lists(st.floats(-3e-15, 3e-15), min_size=1, max_size=20),
    ulps=st.lists(st.integers(-12, 12), max_size=10),
)
def test_le_guarded_is_monotone_in_t(a, kinds, rel, ulps):
    # the phase diagram bisects an ascending t column on both tests; near
    # and inside the 1e-15 guard band around a, for exact, float and mixed
    # pairs, a <= t may only turn True and t <= a only turn False
    a_kind, t_kind = kinds
    pivot = _as(a_kind, a)
    near = [a * (1.0 + x) for x in rel] + [a + k * math.ulp(a) for k in ulps]
    ts = sorted(_as(t_kind, t) for t in near + [a] if t > 0.0)
    above = [le_guarded(pivot, t).result for t in ts]
    below = [le_guarded(t, pivot).result for t in ts]
    assert above == sorted(above)
    assert below == sorted(below, reverse=True)
