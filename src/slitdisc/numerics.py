"""Low-level numeric helpers shared across the package.

Everything size-sensitive runs in log-domain: the slit-disc arcs carry
quantities like e^(-t^-k) that underflow doubles almost immediately, so the
rule throughout the package is to add logs, never to exponentiate anything
whose magnitude is not known to be safe.  The exact-arithmetic helpers keep
rational inputs (Fraction) rational for threshold comparisons; floats fall
back to a guarded comparison with an explicit boundary warning.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Real = Union[int, float, Fraction]

# exp() overflows doubles just above 709.78; stay a hair below
EXP_OVERFLOW = 709.0
# float pairs this close, relative to the larger, compare as equal
REL_GUARD = 1e-15
LOG2 = math.log(2.0)


def is_exact(x: Real) -> bool:
    """True when x supports exact rational comparison."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def exp_or_inf(x: float) -> float:
    """e^x, with inf only where it overflows doubles (math.exp gives 0.0 on underflow)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def float_or_inf(q: Fraction) -> float:
    """The correctly rounded float of q, with +-inf only past the double range
    (float(q) raises OverflowError there; it gives 0.0 on underflow)."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def log_real(x: Real) -> float:
    """log of a positive real, also one below the double range: math.log of
    the float where that is a normal double, else log_fraction."""
    f = float(x)
    return math.log(f) if f >= sys.float_info.min else log_fraction(Fraction(x))


def log_fraction(x: Fraction) -> float:
    """log of a positive Fraction, also one below the double range."""
    s = x.denominator.bit_length() - x.numerator.bit_length()
    return math.log(float(x * Fraction(2) ** s)) - s * LOG2


def parse_number(text: str) -> Real:
    """Parse a CLI number.

    Strings containing '/' are exact rationals ("1/8" -> Fraction(1, 8));
    anything else is a float.  Decimal strings deliberately stay floats:
    only explicit p/q input opts into exact threshold arithmetic.
    """
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    return float(s)


@dataclass(frozen=True)
class GuardedComparison:
    """Result of a <= comparison that may sit on a float boundary."""

    result: bool
    boundary_warning: bool


def le_guarded(a: Real, b: Real) -> GuardedComparison:
    """a <= b, exact for rationals, guarded for floats.

    Float pairs within REL_GUARD of each other, relative to the larger
    magnitude at every scale, are treated as equal: the comparison answers
    True (inclusive boundary) and raises the warning flag so reports can
    surface that the verdict sits inside the guard band.
    """
    if is_exact(a) and is_exact(b):
        return GuardedComparison(result=(a <= b), boundary_warning=False)
    fa, fb = float(a), float(b)
    scale = max(abs(fa), abs(fb))
    if fa != fb and abs(fa - fb) <= REL_GUARD * scale:
        return GuardedComparison(result=True, boundary_warning=True)
    return GuardedComparison(result=(fa <= fb), boundary_warning=(fa == fb))


def power(x: Real, k: int) -> Real:
    """x**k, exact for Fraction/int bases, float otherwise."""
    if is_exact(x):
        return x**k
    return float(x) ** k


def _int_nth_root(x: int, n: int) -> int | None:
    """Exact integer n-th root of x >= 0, or None when x is not a perfect power."""
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if x in (0, 1) or n == 1:
        return x
    # float seed, then correct; magnitudes here are small enough for +-2 slack
    guess = max(1, int(round(x ** (1.0 / n))))
    for cand in range(max(1, guess - 2), guess + 3):
        if cand**n == x:
            return cand
    # fall back to bisection for seeds the float pow missed
    lo, hi = 1, max(2, guess + 2)
    while hi**n < x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == x else None


def exact_pow(base: Fraction, exponent: Fraction) -> Fraction | None:
    """base**exponent as an exact Fraction, or None when no exact value exists.

    Handles rational exponents via integer n-th roots of numerator and
    denominator, e.g. (1/8)**(5/3) = 1/32 exactly.
    """
    base = Fraction(base)
    exponent = Fraction(exponent)
    if base <= 0:
        raise ValueError("exact_pow needs a positive base")
    if exponent < 0:
        base = 1 / base
        exponent = -exponent
    a, b = exponent.numerator, exponent.denominator
    p, q = base.numerator, base.denominator
    rp = _int_nth_root(p, b)
    rq = _int_nth_root(q, b)
    if rp is None or rq is None:
        return None
    return Fraction(rp**a, rq**a)


def pow_maybe_exact(base: Real, exponent: Real) -> Real:
    """base**exponent, exact when both are rational and the root is perfect."""
    if is_exact(base) and is_exact(exponent):
        got = exact_pow(Fraction(base), Fraction(exponent))
        if got is not None:
            return got
    return float(base) ** float(exponent)
