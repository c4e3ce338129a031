from fractions import Fraction

import pytest

from slitdisc.numerics import (
    exact_pow,
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

