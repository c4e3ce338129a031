"""Wiener-type boundary criterion gamma^(n) and the completeness classifier.

gamma_D^(n)(z) integrates d(delta) / (delta^(2n+3) * (-log cap of the part of
the removed set within delta of z)) over (0, 1/4].  At z = 0 the radial range
splits into shells trapping one arc each, and every shell term is sandwiched
between closed-form bounds whose ratio from shell to shell tends to t / r^(2n+2).
Divergence is therefore decided analytically by that ratio (exactly, when the
parameters are rational); quadrature only ever brackets finite windows.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Literal

import numpy as np

from .capacity import fekete_log_capacity, log_capacity, union_log_capacity
from .geometry import (
    ArcObstacle,
    DiscObstacle,
    DomainSpec,
    Obstacle,
    ParamRT,
    PointObstacle,
    check_shell_index,
    first_shell_index,
    trapped_obstacles,
    _clip_obstacle,
    _wrap_angle,
)
from .numerics import GuardedComparison, exp_or_inf, le_guarded, power

INF = float("inf")
NEG_INF = float("-inf")

FLAG_RATIO_ONE = (
    "ratio = 1: the shell series diverges at the boundary; the classification follows the threshold hypothesis"
)
FLAG_GUARD_BAND = "float threshold comparison landed inside the 1e-15 guard band"
FLAG_NO_SHELLS = "no shell decomposition for r > 1/2; verdict is ratio-only"
FLAG_FEKETE_PATH = "fekete capacity path: bracket sums are estimates, not certified bounds"


class Classification(Enum):
    EXHAUSTIVE_HENCE_COMPLETE = "ExhaustiveHenceComplete"
    NOT_COMPLETE = "NotComplete"
    UNKNOWN = "Unknown"


class Verdict(Enum):
    DIVERGENT = "Divergent"
    FINITE = "Finite"
    INCONCLUSIVE = "Inconclusive"


# ---------------------------------------------------------------------------
# the reciprocal-log weight g, its tails and the shell terms, in one array pass

LOG2 = math.log(2.0)
LOG_EPS = -53 * LOG2  # e_j below 2^-53 leaves 1 + e_j == 1 in doubles


def _log(x) -> float:
    """log of a positive parameter, also one below the double range: math.log
    of the float where that is a normal double, else _log_fraction."""
    f = float(x)
    return math.log(f) if f >= sys.float_info.min else _log_fraction(Fraction(x))


def log_g(params: ParamRT, j):
    """log of g(j) = 1 / (t^-j + j log(1/r)), the reciprocal of -log cap of arc j,
    for an int or an array of j.

    Computed entirely in log-domain: t^-j overflows floats long before the
    family runs out of interesting indices.
    """
    log_t, log_inv_r = _log(params.t), -_log(params.r)
    return -np.logaddexp(-j * log_t, np.log(j * log_inv_r))


def _log_e(j: int, log_t: float, log_inv_r: float) -> float:
    """log of e_j = j log(1/r) t^j: g(j) = t^j / (1 + e_j), falling for j >= 2 as t < 1/2."""
    return math.log(j) + math.log(log_inv_r) + j * log_t


def _shell_logs(params: ParamRT, n: int, k0: int, k_stop: int):
    """(log g-tails for j = 1..J, shells k0..k_stop (none if k_stop < k0), their
    log lower and upper bounds, a bound A on the summed magnitudes of any log
    term's components), in one array pass.

    First shell (clamped at outer radius 1/4):
        lower = (1/4 - 2r^(k0+1)) * 4^(2n+3) * g(k0+1)
        upper = (1/4 - 2r^(k0+1)) * (2r^(k0+1))^(-2n-3) * sum_{j>=jmin} g(j)
    with jmin the first arc index inside the integration range.  Deeper
    shells [2r^(k+1), 2r^k]:
        lower = (2r^k)^(-2n-2) * (1-r) * g(k+1)
        upper = (2r^(k+1))^(-2n-2) * (1/r - 1) * sum_{j>=k} g(j)
    The weights run to the first J > k_stop with e_J < 2^-53, and past J
    g(j) <= t^j closes the tails within 2^-53.  Every factor stays a log, so
    k may run past the index where the shell radii underflow doubles.
    """
    r, t = float(params.r), float(params.t)
    log_r, log_t = _log(params.r), _log(params.t)
    J = next(j for j in itertools.count(k_stop + 1) if _log_e(j, log_t, -log_r) < LOG_EPS)
    lg = log_g(params, np.arange(1, J + 1))
    rem = (J + 1) * log_t - math.log1p(-t)  # log of t^(J+1) / (1 - t)
    tails = np.logaddexp.accumulate(np.append(lg, rem)[::-1])[:0:-1]
    k = np.arange(k0, k_stop + 1)
    p = 2 * n + 2
    lower = -p * (LOG2 + k * log_r) + math.log1p(-r) + lg[k]
    upper = -p * (LOG2 + (k + 1) * log_r) + math.log(1.0 / r - 1.0) + tails[k - 1]
    # radial factors and constants, and |log g(J)|, above every |log g| and |log tail|
    magnitude = (2 * n + 3) * (3 * LOG2 + (k_stop + 2) * -log_r) + abs(float(lg[-1]))
    if k.size:
        log_width = math.log(0.25 - 2.0 * r ** (k0 + 1))
        # first_trapped_index: first_shell_index adds one to it at r = 1/2 only
        jmin = k0 - 1 if params.r == Fraction(1, 2) else k0
        lower[0] = log_width + (2 * n + 3) * math.log(4.0) + lg[k0]
        upper[0] = log_width - (2 * n + 3) * (LOG2 + (k0 + 1) * log_r) + tails[jmin - 1]
        magnitude += abs(log_width)
    return tails, k, lower, upper, magnitude


def log_tail_g(params: ParamRT, k: int) -> float:
    """log of sum_{j >= k} g(j), over by less than 2^-53 relative."""
    return float(_shell_logs(params, 0, k + 1, k)[0][k - 1])


def shell_term_log_bounds(params: ParamRT, n: int, k: int) -> tuple[float, float]:
    """Log-domain sandwich for the k-th shell's contribution to gamma^(n)(0)."""
    _, _, lower, upper, _ = _shell_logs(params, n, check_shell_index(params, k), k)
    return float(lower[-1]), float(upper[-1])


# ---------------------------------------------------------------------------
# classification by the exact ratio test


def _ratio_test(params: ParamRT, n: int) -> tuple[object, GuardedComparison, object]:
    """(q = t / r^(2n+2), the guarded test q >= 1 as r^(2n+2) <= t, r^(2n+2)),
    from one power of r.  q is a Fraction when both parameters are exact,
    else float(t) / float(r)^(2n+2); the test compares power(r, 2n+2), exact
    for a rational r, so for exact r and float t the two take different powers.
    """
    p = 2 * n + 2
    r_p = power(params.r, p)
    ratio = params.t / r_p if params.is_exact else float(params.t) / float(params.r) ** p
    return ratio, le_guarded(r_p, params.t), r_p


def divergence_ratio(params: ParamRT, n: int):
    """t / r^(2n+2); Fraction when the parameters are exact."""
    return _ratio_test(params, n)[0]


@dataclass(frozen=True)
class ThresholdReport:
    classification: Classification
    ratio_n0: object
    ratio_n1: object
    exhaustive_test: GuardedComparison
    not_complete_test: GuardedComparison
    flags: tuple[str, ...]


def threshold_report(params: ParamRT) -> ThresholdReport:
    """Threshold classification of the (r, t) plane with the evidence attached.

    r^2 <= t: gamma^(0)(0) diverges, the domain is Bergman exhaustive at the
    only bad boundary point, hence complete.  t <= r^4: not complete.  The
    strip r^4 < t < r^2 is unresolved.  Both boundaries are inclusive; exact
    rational inputs are compared exactly.  The two tests and both ratios
    come from _ratio_test at n = 0 and n = 1, the very test gamma_at_origin
    decides divergence by, so the classifier and gamma^(n)(0) cannot
    disagree; t <= r^4 takes the same r^4.
    """
    ratio_n0, exhaustive, _ = _ratio_test(params, 0)
    ratio_n1, ratio_one, r4 = _ratio_test(params, 1)
    not_complete = le_guarded(params.t, r4)
    flags = list(params.flags())
    if exhaustive.boundary_warning or not_complete.boundary_warning:
        flags.append(FLAG_GUARD_BAND)
    if exhaustive.result:
        cls = Classification.EXHAUSTIVE_HENCE_COMPLETE
    elif not_complete.result:
        cls = Classification.NOT_COMPLETE
        if ratio_one.result:  # t == r^4 up to the guard band
            flags.append(FLAG_RATIO_ONE)
    else:
        cls = Classification.UNKNOWN
    return ThresholdReport(
        classification=cls,
        ratio_n0=ratio_n0,
        ratio_n1=ratio_n1,
        exhaustive_test=exhaustive,
        not_complete_test=not_complete,
        flags=tuple(flags),
    )


def classify_domain(params: ParamRT) -> Classification:
    return threshold_report(params).classification


# ---------------------------------------------------------------------------
# gamma reports


@dataclass(frozen=True)
class GammaReport:
    n: int
    z: complex
    verdict: Verdict
    value: float  # upper_sum when Finite, inf when Divergent
    shell_terms: tuple[tuple[int, float, float], ...]
    ratio: object  # t / r^(2n+2) when the domain is a family member, else None
    truncation: dict
    lower_sum: float
    upper_sum: float
    shell_terms_log: tuple[tuple[int, float, float], ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for k, lo, up in self.shell_terms:
            if not (lo <= up or math.isnan(up)):
                raise ValueError(f"shell term {k}: lower {lo} exceeds upper {up}")


DIVERGENT_REPORT_TERMS = 40


def _log_fraction(x: Fraction) -> float:
    """log of a positive Fraction, also one below the double range."""
    s = x.denominator.bit_length() - x.numerator.bit_length()
    return math.log(float(x * Fraction(2) ** s)) - s * LOG2


def _finite_shells(params: ParamRT, n: int, k0: int, q: Fraction):
    """(_shell_logs up to K, log lower and upper remainders past K, sigma_K, rho_K,
    magnitude of the remainders' logs), K the first k > k0 with e_k below 2^-53
    and (1 - q)/2.  As e_j falls, upper_{k+1} / upper_k <= rho_K = q (1 + e_K) < 1
    and lower_{k+1} / lower_k >= sigma_K = q / (1 + e_{K+2}) for all k >= K: the
    remainders are at most upper_K rho_K / (1 - rho_K) and at least
    lower_K sigma_K / (1 - sigma_K).  q is exact, so 1 - q is too."""
    log_q, log_1mq = _log_fraction(q), _log_fraction(1 - q)
    log_t, log_inv_r = _log(params.t), -_log(params.r)
    K = next(k for k in itertools.count(k0 + 1) if _log_e(k, log_t, log_inv_r) < min(LOG_EPS, log_1mq - LOG2))
    logs = _shell_logs(params, n, k0, K)
    log_e_up, log_e_lo = _log_e(K, log_t, log_inv_r), _log_e(K + 2, log_t, log_inv_r)
    log_rho = log_q + math.log1p(math.exp(log_e_up))
    log_sigma = log_q - math.log1p(math.exp(log_e_lo))
    # 1 - rho = (1 - q) - q e_K;  1 - sigma = ((1 - q) + e_{K+2}) / (1 + e_{K+2})
    log_1m_rho = log_1mq + math.log1p(-math.exp(log_q + log_e_up - log_1mq))
    log_1m_sigma = float(np.logaddexp(log_1mq, log_e_lo)) - math.log1p(math.exp(log_e_lo))
    lower = float(logs[2][-1]) + log_sigma - log_1m_sigma
    upper = float(logs[3][-1]) + log_rho - log_1m_rho
    return logs, lower, upper, math.exp(log_sigma), math.exp(log_rho), abs(log_q) + abs(log_1mq) + 1.0


def gamma_at_origin(params: ParamRT, n: int) -> GammaReport:
    """gamma^(n)(0) for D^{r,t} via the analytic shell decomposition.

    The verdict never comes from the numeric sums: the shell sandwich makes
    the series two-sided geometric with ratio q = t / r^(2n+2), so
    divergence is exactly q >= 1 (inclusive at the boundary, where the terms
    stay bounded below).  One _ratio_test gives q and that test, the one
    threshold_report classifies by, so the two cannot disagree; a finite
    sum takes the exact q from it (of the floats, for float parameters),
    and the shell index is walked once.  Divergent reports carry a fixed
    window of 40 shells; finite ones add the remainders of _finite_shells,
    so they bound the whole infinite sandwich sums.  A rounding moves a log
    by at most 2^-53 A, A the magnitudes of _shell_logs and the remainders;
    a term and its g-tail take at most 16 (library calls count twice, and
    the tail recursion damps carried errors by t < 1/2), the sum one per
    term.  So both sums are widened outward by 2^-53 (N + 16) A in log
    (log_margin).
    """
    ratio, cmp, _ = _ratio_test(params, n)
    flags = list(params.flags())
    if cmp.boundary_warning:
        flags.append(FLAG_GUARD_BAND)
    if cmp.result and (cmp.boundary_warning or ratio == 1):
        flags.append(FLAG_RATIO_ONE)
    have_shells = not (params.r > Fraction(1, 2))
    if not have_shells:
        flags.append(FLAG_NO_SHELLS)

    truncation: dict = {"mode": "analytic-shells"}
    terms_log, lower_sum, upper_sum = (), 0.0, 0.0
    if have_shells:
        k0 = first_shell_index(params)
        if cmp.result:
            logs = _shell_logs(params, n, k0, k0 + DIVERGENT_REPORT_TERMS - 1)
            lo_rest, up_rest, rest_size = NEG_INF, NEG_INF, 0.0
        else:
            # for float parameters, the exact ratio of their values
            q = ratio if params.is_exact else Fraction(params.t) / Fraction(params.r) ** (2 * n + 2)
            logs, lo_rest, up_rest, sigma, rho, rest_size = _finite_shells(params, n, k0, q)
            truncation["tail_ratios"] = (sigma, rho)
        _, k, lower, upper, size = logs
        margin = 2.0**-53 * (k.size + 16) * (size + rest_size)
        lower_sum = exp_or_inf(float(np.logaddexp.reduce(lower, initial=lo_rest)) - margin)
        upper_sum = exp_or_inf(float(np.logaddexp.reduce(upper, initial=up_rest)) + margin)
        terms_log = tuple(zip(k.tolist(), lower.tolist(), upper.tolist()))
        truncation.update(k_start=k0, k_stop=terms_log[-1][0], converged=not cmp.result, log_margin=margin)

    if not (cmp.result or have_shells):
        flags.append("value not computed without a shell decomposition")
    return GammaReport(
        n=n,
        z=0j,
        verdict=Verdict.DIVERGENT if cmp.result else Verdict.FINITE,
        value=INF if cmp.result else upper_sum if have_shells else math.nan,
        shell_terms=tuple((k, exp_or_inf(lo), exp_or_inf(up)) for k, lo, up in terms_log),
        ratio=ratio,
        truncation=truncation,
        lower_sum=lower_sum,
        upper_sum=upper_sum,
        shell_terms_log=terms_log,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# numeric quadrature for arbitrary centers


@dataclass(frozen=True)
class GammaQuadrature:
    """Bracketing-quadrature parameters for gamma_numeric.

    capacity_path chooses how trapped-set capacities are produced:
    "closed_form" brackets the union with exact per-piece capacities (the
    certified path); "fekete" replaces both bracket sides with the oracle
    estimate, useful as a cross-check at representable scales.
    """

    delta_min: float = 1e-12
    points_per_octave: int = 8
    divergence_threshold: float = 1e6
    capacity_path: Literal["closed_form", "fekete"] = "closed_form"
    fekete_n: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.delta_min < 0.25):
            raise ValueError("need 0 < delta_min < 1/4")
        if self.points_per_octave < 1:
            raise ValueError("points_per_octave must be >= 1")
        if self.capacity_path not in ("closed_form", "fekete"):
            raise ValueError("capacity_path must be closed_form or fekete")


def _probe(ob: Obstacle, z: complex) -> tuple[float, float, float, float]:
    """(first contact delta dmin, fully-covered delta dmax, clip scale, log cap)
    of one obstacle seen from z.

    The clip scale is the length scale of the reference clip's rounding.  It
    is zero where the clip compares the very distance computed here (points,
    discs, point-like arcs, arcs around a centre at the origin), so that a
    delta equal to dmax leaves the piece whole.
    """
    lv = log_capacity(ob).log_value
    if isinstance(ob, ArcObstacle):
        if ob.point_like:
            d = abs(ob.center_point - z)
            return d, d, 0.0, lv
        R = ob.radius
        if z == 0j:
            return R, R, 0.0, lv
        d, phi = abs(z), math.atan2(z.imag, z.real)
        rel = _wrap_angle(phi - ob.center_angle)
        near = ob.center_angle + max(-ob.half_width, min(ob.half_width, rel))
        dmin = abs(z - R * complex(math.cos(near), math.sin(near)))
        cands = [ob.center_angle - ob.half_width, ob.center_angle + ob.half_width]
        anti = _wrap_angle(phi + math.pi - ob.center_angle)
        if abs(anti) <= ob.half_width:
            cands.append(ob.center_angle + anti)
        dmax = max(abs(z - R * complex(math.cos(a), math.sin(a))) for a in cands)
        return dmin, dmax, R + d, lv
    if isinstance(ob, PointObstacle):
        d = abs(ob.location - z)
        return d, d, 0.0, lv
    if isinstance(ob, DiscObstacle):
        d = abs(ob.center - z)
        return max(d - ob.radius, 0.0), d + ob.radius, 0.0, lv
    # segment: the clip's scale is the farther endpoint's distance, dmax
    d0, d1 = abs(ob.z0 - z), abs(ob.z1 - z)
    seg = ob.z1 - ob.z0
    t = ((z - ob.z0) / seg).real
    dmin = min(d0, d1)
    if 0.0 < t < 1.0:
        dmin = min(dmin, abs(ob.z0 + t * seg - z))
    return dmin, max(d0, d1), max(d0, d1), lv


def _delta_grid(dmin: np.ndarray, dmax: np.ndarray, quad: GammaQuadrature) -> list[float]:
    """The cell ends, descending from 1/4 to delta_min: a geometric grid of
    points_per_octave points an octave, and every dmin, dmax and 2 dmax
    strictly between the two (the breakpoints of the trapped sets)."""
    top, bottom = 0.25, quad.delta_min
    n_geo = max(1, int(math.ceil(math.log2(top / bottom) * quad.points_per_octave)))
    geometric = [top * (bottom / top) ** (i / n_geo) for i in range(1, n_geo)]  # float powers, as numpy's differ
    breaks = np.concatenate((dmin, dmax, 2.0 * dmax))
    pts = {top, bottom, *geometric, *breaks[(bottom < breaks) & (breaks < top)].tolist()}
    return sorted(pts, reverse=True)


# margins that widen [dmin, dmax] of off-centre arcs and segments, whose clip
# solves for the probe circle's crossing instead of comparing dmin or dmax:
# relative to delta, and in units of the squared clip scale for the rounding
# of those formulas (hundreds of ulps of it)
SPLIT_MARGIN = 1e-12
SPLIT_SCALE_SLACK = 1e-13


class _TrappedSets:
    """The trapped sets of one domain seen from one centre z, at many deltas at once.

    The pieces are sorted once by their fully-covered radius dmax, widened
    by the margins above where the clip does its own arithmetic (clip scale
    above 0).  At each delta a prefix of that order is whole: the pieces
    with dmax below delta, then those with dmax equal to it and clip scale
    0, which the clip would return whole.  One searchsorted over all deltas
    gives every prefix, and prefix running maxima and prefix reciprocal sums
    of the sorted closed forms give its bounds, summed in the order the clip
    would have added those ties.  Past the prefix, the pieces with delta in
    [dmin, dmax] (the band) go through the reference clip
    geometry._clip_obstacle; the rest are absent.
    """

    def __init__(self, obstacles: tuple[Obstacle, ...], z: complex, probes: np.ndarray):
        self.obstacles, self.z = obstacles, z
        dmin, dmax, scale, lv = probes
        margin = scale != 0.0
        slack = SPLIT_SCALE_SLACK * scale * scale
        lo = np.where(margin, np.sqrt(np.maximum(dmin * dmin - slack, 0.0)) * (1.0 - SPLIT_MARGIN), dmin)
        hi = np.where(margin, np.sqrt(dmax * dmax + slack) * (1.0 + SPLIT_MARGIN), dmax)
        self.order = np.argsort(hi, kind="stable")
        self.hi, self.lo, margin, lv = hi[self.order], lo[self.order], margin[self.order], lv[self.order]
        count = len(lv)
        # the first margin piece at or after each position: a run of ties ends there
        at = np.where(margin, np.arange(count), count)
        self.next_margin = np.append(np.minimum.accumulate(at[::-1])[::-1], count)
        # min of lo over each suffix: the band walk stops once no piece can reach delta
        self.lo_suffix_min = np.append(np.minimum.accumulate(self.lo[::-1])[::-1], INF)
        recip = np.zeros(count)
        finite = lv != NEG_INF
        with np.errstate(divide="ignore"):  # log cap 0 gives -inf; its deltas fail
            recip[finite] = 1.0 / -lv[finite]
        self.log_max = np.maximum.accumulate(np.append(NEG_INF, lv))
        self.recip_sum = np.cumsum(np.append(0.0, recip))

    def whole(self, deltas: np.ndarray) -> np.ndarray:
        """Length of the whole prefix of the sorted pieces at each delta."""
        ties = np.searchsorted(self.hi, deltas, "left")
        return np.minimum(np.searchsorted(self.hi, deltas, "right"), self.next_margin[ties])

    def band(self, whole: int, delta: float) -> list[tuple[int, list[Obstacle]]]:
        """[(domain index, clipped pieces)] of the band past a whole prefix."""
        band = []
        j = whole
        while self.lo_suffix_min[j] <= delta:
            if self.lo[j] <= delta:
                i = int(self.order[j])
                band.append((i, _clip_obstacle(self.obstacles[i], self.z, delta)))
            j += 1
        return band

    def pieces(self, delta: float) -> tuple[Obstacle, ...]:
        """The trapped set at delta, piece for piece as trapped_obstacles gives it."""
        whole = int(self.whole(np.array([delta]))[0])
        by_index = {i: [self.obstacles[i]] for i in self.order[:whole].tolist()}
        by_index.update(self.band(whole, delta))
        return tuple(p for i in sorted(by_index) for p in by_index[i])

    def log_bounds(self, deltas: list[float]) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
        """(max log cap, sum of 1/(-log cap)) over the trapped pieces at each
        delta, as union_log_capacity combines them, and the error text at
        each delta where the clip fails or, as union_log_capacity checks,
        a piece has log cap >= 0."""
        whole = self.whole(np.array(deltas))
        lower, recip_sum = self.log_max[whole], self.recip_sum[whole]
        errors: dict[int, str] = {}
        for i in np.flatnonzero(self.lo_suffix_min[whole] <= np.array(deltas)).tolist():
            try:
                band = self.band(int(whole[i]), deltas[i])
            except ValueError as exc:
                errors[i] = str(exc)
                continue
            low, total = float(lower[i]), float(recip_sum[i])
            for _, clipped in band:
                for piece in clipped:
                    lv = log_capacity(piece).log_value
                    low = max(low, lv)
                    if lv != NEG_INF:
                        total += 1.0 / (-lv)
            lower[i], recip_sum[i] = low, total
        for i in np.flatnonzero(lower >= 0.0).tolist():
            if i not in errors:
                try:
                    union_log_capacity(self.pieces(deltas[i]))  # raises, naming the first offending piece
                except ValueError as exc:
                    errors[i] = str(exc)
        return lower, recip_sum, errors


def _closed_form_h(domain: DomainSpec, z: complex, probes: np.ndarray, deltas: list[float]):
    """(lower, upper bracket of h = 1 / (-log cap of the trapped set), error
    texts) at every delta; h is zero on polar or empty sets."""
    lower, recip_sum, errors = _TrappedSets(domain.obstacles, z, probes).log_bounds(deltas)
    h_lo, h_up = np.zeros(len(deltas)), np.zeros(len(deltas))
    # a finite max makes recip_sum > 0; h_up inverts the union bound
    # -1/recip_sum as union_log_capacity rounds it (0.0 once that is -inf)
    ok = (lower > NEG_INF) & (lower < 0.0)
    with np.errstate(over="ignore", divide="ignore"):
        h_lo[ok] = 1.0 / -lower[ok]
        h_up[ok] = 1.0 / (1.0 / recip_sum[ok])
    return h_lo, h_up, errors


def _fekete_h(domain: DomainSpec, z: complex, g: list[float], weights: np.ndarray, quad: GammaQuadrature):
    """(h, error texts) from the Fekete estimate on trapped_obstacles, at the
    grid points the top-down sweep reaches: it ends at the first error, at
    the cell whose weight overflows, or once the lower sum crosses the
    divergence threshold, so no solve runs past the stop."""
    h = np.zeros(len(g))
    lower_sum = 0.0
    for c in range(len(g) - 1):
        for i in (1, 0) if c == 0 else (c + 1,):
            try:
                est = fekete_log_capacity(trapped_obstacles(domain, z, g[i]), quad.fekete_n, quad.seed).log_value
            except ValueError as exc:
                return h, {i: str(exc)}
            # a polar or empty trapped set gives -inf, hence h = 0
            h[i] = 0.0 if est == NEG_INF else 1.0 / (-est)
        if c == len(weights):
            break
        lower_sum += h[c + 1] * weights[c]
        if lower_sum > quad.divergence_threshold:
            break
    return h, {}


def _cell_weights(g: list[float], n: int) -> tuple[np.ndarray, str | None]:
    """Exact integrals (a^-p - b^-p) / p of delta^(-2n-3), p = 2n + 2, over
    the cells [a, b] = [g[c+1], g[c]] of the descending grid g, up to the
    first cell whose a^-p leaves the double range, and that cell's error
    text (None if no power does).  The powers are Python float powers:
    numpy's differ from them in the last bit."""
    p = 2 * n + 2
    powers: list[float] = []
    error = None
    try:
        for delta in g:
            powers.append(delta**-p)
    except OverflowError:
        a = g[max(len(powers), 1)]
        error = f"power weight delta^(-{p + 1}) overflows at delta={a}; raise delta_min or lower n"
    powers_arr = np.array(powers)
    return (powers_arr[1:] - powers_arr[:-1]) / p, error


def gamma_numeric(
    domain: DomainSpec, z: complex, n: int, quad: GammaQuadrature = GammaQuadrature()
) -> GammaReport:
    """Two-sided bracket of gamma^(n)(z) by monotone cell quadrature.

    On each cell [a, b] of a log grid the trapped set at a is contained in
    the trapped set at b, so h = 1/(-log cap) brackets the integrand from
    both sides while the delta power integrates exactly.  Accumulation runs
    from delta = 1/4 downward; the verdict turns Divergent at the first cell
    where the certified lower sum crosses the divergence threshold.  Mass
    below delta_min is never claimed: finite verdicts mean "finite over the
    resolved window", and the truncation metadata says so.

    The closed-form path is one array pass over the grid.  One pass over
    the obstacles gives each piece's probe radii (dmin, dmax), clip scale
    and closed-form log capacity; the radii are the grid's breakpoints.
    _TrappedSets then bounds the trapped set at every delta at once: one
    searchsorted finds the whole pieces, ties dmax == delta included where
    the clip would return them whole (nearly every arc of a family domain
    is point-like, so its radii are exact distances that land on grid
    points), and only the band of pieces the probe circle may cross goes
    through the reference clip.  The trapped pieces are the ones
    trapped_obstacles gives, so the bracket equals the union_log_capacity
    one up to the order in which the reciprocals are summed.  The cells,
    both sums and the divergence stop come from one cumsum.  Errors (a
    lens the clip cannot represent, log cap >= 0, the delta power leaving
    the double range) are recorded at the grid points where they occur,
    and the report takes the first cell a top-down sweep would fail at,
    unless the lower sum crossed the threshold before it; so it equals the
    per-delta loop this replaced, cell for cell.  The fekete path
    estimates h on the trapped_obstacles pieces cell by cell and runs no
    solve past the stop.  n must be >= 0.
    """
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if abs(z) + 0.25 > domain.outer_radius + 1e-12:
        raise ValueError("probe discs of radius 1/4 must stay inside the domain's outer circle")
    probes = np.array([_probe(ob, z) for ob in domain.obstacles]).reshape(-1, 4).T
    g = _delta_grid(probes[0], probes[1], quad)  # descending: cell c is [g[c+1], g[c]]
    weights, overflow = _cell_weights(g, n)
    flags = list(domain.family.flags()) if domain.family is not None else []
    if quad.capacity_path == "fekete":
        flags.append(FLAG_FEKETE_PATH)
        h_up, errors = _fekete_h(domain, z, g, weights, quad)
        h_lo = h_up
    else:
        h_lo, h_up, errors = _closed_form_h(domain, z, probes, g)
    # the sweep evaluates h at a cell's lower end a = g[c+1] (for cell 0,
    # then at its upper end g[0]) before its weight
    failures = [(max(i - 1, 0), i == 0, text) for i, text in errors.items()]
    if overflow is not None:
        failures.append((len(weights), 2, overflow))
    failed_cell, _, error = min(failures, default=(len(weights), 0, None))
    cell_lo = h_lo[1 : failed_cell + 1] * weights[:failed_cell]
    cell_up = h_up[:failed_cell] * weights[:failed_cell]
    lower, upper = np.cumsum(cell_lo), np.cumsum(cell_up)
    crossed = np.flatnonzero(lower > quad.divergence_threshold)
    truncation: dict = {
        "mode": "numeric-quadrature",
        "delta_min": quad.delta_min,
        "capacity_path": quad.capacity_path,
        "divergence_threshold": quad.divergence_threshold,
        "unresolved_below_delta_min": True,
    }
    cells = failed_cell
    if crossed.size:
        verdict = Verdict.DIVERGENT
        cells = int(crossed[0]) + 1
        truncation["delta_stop"] = g[cells]
    elif error is not None:
        verdict = Verdict.INCONCLUSIVE
        truncation["failed_cell"] = cells
        truncation["error"] = error
    else:
        verdict = Verdict.FINITE
        truncation["delta_stop"] = quad.delta_min
    truncation["cells"] = cells
    lower_sum = float(lower[cells - 1]) if cells else 0.0
    upper_sum = float(upper[cells - 1]) if cells else 0.0

    ratio = None
    if domain.family is not None:
        ratio = divergence_ratio(domain.family, n)
    value = INF if verdict == Verdict.DIVERGENT else upper_sum
    return GammaReport(
        n=n,
        z=z,
        verdict=verdict,
        value=value,
        shell_terms=tuple(zip(range(cells), cell_lo[:cells].tolist(), cell_up[:cells].tolist())),
        ratio=ratio,
        truncation=truncation,
        lower_sum=lower_sum,
        upper_sum=upper_sum,
        flags=tuple(flags),
    )
