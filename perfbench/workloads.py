"""Seeded request lists for the three workloads.

A request is one user action: a `slitdisc` command line run in-process
through `slitdisc.cli.main(argv)`, or a public library call where the
command line cannot express the input (two-arc unions, `fekete_points`).
Each request carries a check of its output against `checks`, which does
not use slitdisc.  A request whose `fault` is set reproduces a known fault
of the program on fixed inputs: it fails on every pass until the fault is
mended, and is counted as a failed operation, not as a wrong output.

Program functions are looked up on their modules at call time, so the
traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from checks import (
    arc_log_cap,
    circle_fekete_energy,
    circle_log_cap,
    classification,
    close,
    divergent_at_origin,
    gram_condition,
    json_float,
    radial_path_length,
    require,
    segment_fekete_energy,
    segment_log_cap,
    series_kernel,
    true_kernel,
    two_arcs_log_cap,
)
from slitdisc import capacity, cli, geometry

WORKLOADS = ("oracle", "wiener", "bergman")

FAULT_EQUILIBRIUM = "equilibrium_energy at m=64 declares a tolerance that misses the closed form"
FAULT_GUARD_BAND = "le_guarded floors its scale at 1, so tiny float thresholds tie"
FAULT_SHELL_UNDERFLOW = "gamma_at_origin raises once 2r^(k+1) underflows inside a finite shell tail"


@dataclass
class Request:
    kind: str
    key: tuple  # what a repeat means: (r, t) for wiener, (domain, basis) for bergman
    run: Callable[[], object]
    check: Callable[[object, dict], None]  # raises CheckFailed; dict is per-pass state
    fault: str | None = None
    cli: bool = False


def run_cli(argv: list[str]) -> str:
    """One `slitdisc` invocation, in-process; returns what it printed."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"slitdisc {' '.join(argv)} exited with {rc}: {err.getvalue().strip()}")
    return buf.getvalue()


def cli_request(kind, key, argv, check, fault=None, raw=False) -> Request:
    """A command-line request; `check` gets the record's results block, or
    the printed text when `raw` (CSV output)."""

    def checked(out, store):
        check(out if raw else json.loads(out)["results"], store)

    return Request(kind, key, lambda: run_cli(argv), checked, fault, cli=True)


def lib_request(kind, key, call, check, fault=None) -> Request:
    return Request(kind, key, call, lambda out, store: check(out), fault)


def _zarg(z: complex) -> str:
    """A complex number as the CLI reads it: 're,im'."""
    return f"{z.real!r},{z.imag!r}"


def cold_request(workload: str) -> Request:
    """The fixed first request of a run, timed as part of set-up."""
    if workload == "oracle":
        # no Fekete solve: one 0.6 s interval would make set-up the noisiest figure
        return _capacity_request("circle", 1.0, ["--shape", "circle", "--radius", "1.0"], 0.0, 128, 0, fekete=False)
    if workload == "wiener":
        return _gamma_origin_request(Fraction(1, 5), Fraction(1, 100), 0)
    return _kernel_point_request("disc", None, 0, 30, 0.5 + 0j)


def build(workload: str, seed: int) -> list[Request]:
    """The request list of one pass; the same seed gives the same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"oracle": _oracle, "wiener": _wiener, "bergman": _bergman}[workload](rng)


def repeat_share(requests: list[Request]) -> float:
    """Share of a pass's requests whose key already appeared in the pass."""
    seen: set = set()
    repeats = 0
    for req in requests:
        repeats += req.key in seen
        seen.add(req.key)
    return repeats / len(requests)


# ---------------------------------------------------------------------------
# oracle: Fekete and equilibrium capacity cross-checks

FEKETE_N = 8
# The Richardson-corrected n=8 estimate misses the closed form by up to 0.04
# on these shapes (segment 0.038, quarter arc 0.035, two arcs 0.033).
FEKETE_LOG_TOL = 0.06
# relative gap below the known optimal energy a converged ascent may leave
ENERGY_GAP_TOL = 1e-8
# rounding allowance above the optimum
ENERGY_EPS = 1e-12


def _two_arcs(radius: float, half_width: float):
    return geometry.CompactSet(
        (geometry.arc(radius, 0.0, half_width), geometry.arc(radius, math.pi, half_width))
    )


def _check_equilibrium(energy: float, tolerance: float, want: float) -> None:
    require(0.0 < tolerance < math.inf, f"declared tolerance {tolerance!r} not positive and finite")
    close(energy, want, tolerance, "equilibrium energy against its declared tolerance")


def _capacity_request(shape, key, args, want, m, seed, fekete=True, fault=None) -> Request:
    argv = ["capacity", *args, "--equilibrium-m", str(m), "--seed", str(seed)]
    if fekete:
        argv += ["--fekete-n", str(FEKETE_N)]

    def check(res, store):
        close(res["closed_form_log"], want, 1e-12, "closed-form log capacity")
        if fekete:
            close(res["fekete_log"], want, FEKETE_LOG_TOL, "Fekete log capacity")
        _check_equilibrium(res["equilibrium_energy"], res["equilibrium_tolerance"], want)

    return cli_request(f"capacity-{shape}", (shape, key), argv, check, fault)


def _fekete_two_arcs_request(R: float, w: float, seed: int) -> Request:
    want = two_arcs_log_cap(R, w)
    return lib_request(
        "fekete-two-arcs",
        ("two-arcs", R, w),
        lambda: capacity.fekete_log_capacity(_two_arcs(R, w), FEKETE_N, seed=seed),
        lambda out: close(out.log_value, want, FEKETE_LOG_TOL, "Fekete log capacity of two arcs"),
    )


def _equilibrium_two_arcs_request(R: float, w: float, m: int, fault=None) -> Request:
    want = two_arcs_log_cap(R, w)
    return lib_request(
        "equilibrium-two-arcs",
        ("two-arcs", R, w),
        lambda: capacity.equilibrium_energy(_two_arcs(R, w), m),
        lambda out: _check_equilibrium(out[0].value, out[0].tolerance, want),
        fault,
    )


def _check_points(res, want: float, log_cap: float, on_set) -> None:
    require(len(res.points) == FEKETE_N, "wrong number of points")
    require(all(on_set(p) for p in res.points), "a point left the set")
    require(res.energy <= want + ENERGY_EPS * (1 + abs(want)), f"energy {res.energy!r} above the optimum {want!r}")
    require(want - res.energy <= ENERGY_GAP_TOL * (1 + abs(want)), f"energy {res.energy!r} short of the optimum {want!r}")
    # d_n decreases to the capacity, so every estimate lies above it
    require(res.raw_log_dn >= log_cap - 1e-12, "transfinite-diameter estimate below the capacity")


def _circle_points_request(R: float, seed: int) -> Request:
    def check(res):
        _check_points(res, circle_fekete_energy(FEKETE_N, R), circle_log_cap(R), lambda p: abs(abs(p) - R) <= 1e-12 * R)

    return lib_request(
        "fekete-points-circle", ("circle", R), lambda: capacity.fekete_points(geometry.circle(R), FEKETE_N, seed=seed), check
    )


def _segment_points_request(c: float, h: float, seed: int) -> Request:
    """Fekete points of [c - h, c + h] against the Gauss-Lobatto energy."""

    def check(res):
        def on_set(p):
            return p.imag == 0.0 and c - h - 1e-12 <= p.real <= c + h + 1e-12

        _check_points(res, segment_fekete_energy(FEKETE_N, 2 * h), segment_log_cap(2 * h), on_set)

    segment = geometry.SegmentObstacle(complex(c - h, 0), complex(c + h, 0))
    return lib_request(
        "fekete-points-segment", ("segment", 2 * h), lambda: capacity.fekete_points(segment, FEKETE_N, seed=seed), check
    )


def _oracle(rng) -> list[Request]:
    def num(lo, hi):
        return float(round(rng.uniform(lo, hi), 4))

    def seed():
        return int(rng.integers(1000))

    def m():
        return int(rng.choice((128, 192, 256)))

    R = num(0.5, 2.0)
    reqs = [_capacity_request("circle", R, ["--shape", "circle", "--radius", str(R)], circle_log_cap(R), 64, seed())]
    L = num(0.5, 4.0)
    reqs.append(_capacity_request("segment", L, ["--shape", "segment", "--length", str(L)], segment_log_cap(L), m(), seed()))
    R, w = num(0.5, 2.0), math.pi / 4  # a quarter of the circle
    args = ["--shape", "arc", "--radius", str(R), "--half-width", repr(w)]
    reqs.append(_capacity_request("arc", R, args, arc_log_cap(R, w), m(), seed()))
    reqs.append(_fekete_two_arcs_request(num(0.5, 2.0), num(0.3, 0.8), seed()))
    reqs.append(_equilibrium_two_arcs_request(num(0.5, 2.0), num(0.3, 0.8), m()))
    reqs.append(_circle_points_request(num(0.5, 2.0), seed()))
    reqs.append(_segment_points_request(num(-1.0, 1.0), num(0.25, 2.0), seed()))
    # the known fault, on fixed inputs: [0, 2] (a translate of [-1, 1]) and
    # two opposite unit arcs of half-width 0.5, both at m = 64
    args = ["--shape", "segment", "--length", "2"]
    reqs.append(_capacity_request("segment", 2.0, args, segment_log_cap(2.0), 64, 0, fekete=False, fault=FAULT_EQUILIBRIUM))
    reqs.append(_equilibrium_two_arcs_request(1.0, 0.5, 64, fault=FAULT_EQUILIBRIUM))
    return reqs


# ---------------------------------------------------------------------------
# wiener: thresholds, shell sums and bracketing quadrature through the CLI

# 36 pairs: more distinct (r, t) than the 32-entry lru_caches of wiener.py
# hold.  The ratios that set the cost of a pair's shell sums are the same in every
# pass; the seed draws r, and so t, and the order.  t/r^2 for the pairs
# complete by exhaustion and for the unknown strip (all above the largest
# r^2, 81/400), then t/r^4 for the pairs not complete, the last four with
# shell tails of 250 to 500 terms at n = 1, like (1/5, 1/700).
_EXHAUSTIVE_T_R2 = tuple(Fraction(k, 100) for k in (105, 115, 125, 135, 145, 155, 165, 180, 195, 210, 225, 240))
_STRIP_T_R2 = tuple(Fraction(k, 100) for k in (25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 80, 90))
_NOT_COMPLETE_T_R4 = tuple(Fraction(k, 100) for k in (5, 15, 25, 35, 45, 55, 65, 80, 85, 87, 89, 92))


def _exact_pairs(rng) -> list[tuple[Fraction, Fraction, str]]:
    """Distinct rational (r, t), 1/20 <= r <= 9/20: twelve complete by
    exhaustion, twelve in the unknown strip, twelve not complete."""
    pairs: list[tuple[Fraction, Fraction, str]] = []
    strata = [("exhaustive", 2, q) for q in _EXHAUSTIVE_T_R2]
    strata += [("strip", 2, q) for q in _STRIP_T_R2]
    strata += [("not-complete", 4, q) for q in _NOT_COMPLETE_T_R4]
    for stratum, power, q in strata:
        while True:
            den = int(rng.integers(6, 25))
            r = Fraction(int(rng.integers(math.ceil(den / 20), math.floor(9 * den / 20) + 1)), den)
            t = q * r**power
            if all(r != p[0] for p in pairs) and t < Fraction(1, 2) and _tails_fit(r, t):
                pairs.append((r, t, stratum))
                break
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def _tails_fit(r: Fraction, t: Fraction) -> bool:
    """True when the finite shell sums at n = 0 and 1 reach their 1e-18
    relative cut, with a few shells to spare, before r^k underflows doubles.

    Deeper tails hit FAULT_SHELL_UNDERFLOW, which a seeded pair would show
    on some seeds only; every pass shows it on fixed inputs instead (see
    _wiener).  Drop this filter when that fault is mended."""
    for n in (0, 1):
        q = float(t / r ** (2 * n + 2))
        if q < 1.0:
            shells = (18 * math.log(10) - math.log1p(-q)) / -math.log(q)
            if (shells + 4) * -math.log(float(r)) > 740.0:
                return False
    return True


def _float_pairs(rng) -> list[tuple[str, str]]:
    """Decimal (r, t) strings, kept at least 5% away from both thresholds."""
    out = []
    for scale in (1.6, 0.5, 0.3, 0.02):
        while True:
            r = f"{rng.uniform(0.08, 0.4):.3f}"
            t = f"{float(r) ** 2 * scale * rng.uniform(0.9, 1.1):.6g}"
            rf, tf = Fraction(float(r)), Fraction(float(t))
            if 0 < tf < Fraction(1, 2) and all(abs(tf / rf**k - 1) > Fraction(1, 20) for k in (2, 4)):
                out.append((r, t))
                break
    return out


def _first_shell(r: Fraction) -> int:
    k = 1
    while not (r**k <= Fraction(1, 4) and 2 * r ** (k + 1) < Fraction(1, 4)):
        k += 1
    return k


def _check_brackets(report: dict) -> None:
    lo, up = json_float(report["lower_sum"]), json_float(report["upper_sum"])
    require(lo <= up, f"bracket lower {lo!r} above upper {up!r}")
    for k, a, b in report["shell_terms"]:
        require(json_float(a) <= json_float(b), f"term {k}: lower {a!r} above upper {b!r}")


def _classify_request(r, t, fault=None) -> Request:
    want = classification(_as_number(str(r)), _as_number(str(t)))

    def check(res, store):
        got = res["report"]["classification"]
        require(got == want, f"classify r={r} t={t}: got {got}, want {want}")

    return cli_request("classify", (str(r), str(t)), ["classify", "--r", str(r), "--t", str(t)], check, fault)


def _as_number(s):
    """The value the CLI parses from a string: p/q exact, decimals as floats."""
    return Fraction(s) if "/" in s else Fraction(float(s))


def _gamma_origin_request(r, t, n, fault=None) -> Request:
    rs, ts = str(r), str(t)
    divergent = divergent_at_origin(_as_number(rs), _as_number(ts), n)

    def check(res, store):
        rep = res["report"]
        want = "Divergent" if divergent else "Finite"
        require(rep["verdict"] == want, f"gamma r={rs} t={ts} n={n}: got {rep['verdict']}, want {want}")
        _check_brackets(rep)
        store[("origin", rs, ts, n)] = rep

    argv = ["gamma", "--r", rs, "--t", ts, "--n", str(n)]
    return cli_request(f"gamma-origin-n{n}", (rs, ts), argv, check, fault)


def _gamma_window_request(r: Fraction, t: Fraction) -> Request:
    """Numeric bracket at z = 0 over [2 r^(K+1), 1/4], which shells k0..K
    tile, against the analytic shell sums of the same pair's origin record."""
    rs, ts = str(r), str(t)
    k0 = _first_shell(r)
    K = min(k0 + 9, 23)
    while 2.0 * float(r) ** (K + 1) < 1e-11:
        K -= 1
    delta_min = 2.0 * float(r) ** (K + 1)

    def check(res, store):
        rep = res["report"]
        _check_brackets(rep)
        origin = store.get(("origin", rs, ts, 0))
        require(origin is not None, "origin record missing from the pass")
        terms = [(k, json_float(a), json_float(b)) for k, a, b in origin["shell_terms_log"] if k <= K]
        require(len(terms) == K - k0 + 1, f"origin record lacks shells {k0}..{K}")
        a_lo = math.exp(float(np.logaddexp.reduce([a for _, a, _ in terms])))
        a_up = math.exp(float(np.logaddexp.reduce([b for _, _, b in terms])))
        lo, up = json_float(rep["lower_sum"]), json_float(rep["upper_sum"])
        require(a_lo <= lo <= up <= a_up, f"window r={rs} t={ts}: numeric [{lo!r}, {up!r}] not inside analytic [{a_lo!r}, {a_up!r}]")

    argv = ["gamma", "--r", rs, "--t", ts, "--numeric", "--kmax", "25", "--delta-min", repr(delta_min), "--threshold", "1e30"]
    return cli_request("gamma-numeric-window", (rs, ts), argv, check)


def _gamma_numeric_request(r, t, n, z: complex, kind: str, against_origin=False) -> Request:
    rs, ts = str(r), str(t)
    zs = _zarg(z)

    def check(res, store):
        rep = res["report"]
        require(rep["verdict"] != "Inconclusive", f"gamma --numeric r={rs} t={ts} z={zs} inconclusive")
        _check_brackets(rep)
        if z == 0:
            store[("numeric-zero", rs, ts, n)] = rep
        elif against_origin:
            at0 = store.get(("numeric-zero", rs, ts, n))
            require(at0 is not None, "z = 0 record missing from the pass")
            up, lo0 = json_float(rep["upper_sum"]), json_float(at0["lower_sum"])
            require(up <= lo0, f"bracket at z={zs} (upper {up!r}) not below the origin's (lower {lo0!r})")

    argv = ["gamma", "--r", rs, "--t", ts, "--n", str(n), "--numeric", "--kmax", "200", f"--z={zs}"]
    return cli_request(kind, (rs, ts), argv, check)


def _phase_request(rng, fmt: str) -> Request:
    r_min = Fraction(1, int(rng.integers(10, 30)))
    r_max = Fraction(int(rng.integers(7, 10)), 20)
    t_min = Fraction(1, int(rng.integers(100, 1000)))
    t_max = Fraction(int(rng.integers(30, 50)), 100)
    steps = 18
    grid = [
        (r_min + (r_max - r_min) * Fraction(i, steps - 1), t_min + (t_max - t_min) * Fraction(j, steps - 1))
        for i in range(steps)
        for j in range(steps)
    ]

    def check_rows(rows):
        require(len(rows) == len(grid), f"{len(rows)} rows, want {len(grid)}")
        for (r, t), row in zip(grid, rows):
            require((Fraction(row["r"]), Fraction(row["t"])) == (r, t), f"row at r={row['r']} t={row['t']}, want r={r} t={t}")
            require(row["verdict"] == classification(r, t), f"phase r={r} t={t}: got {row['verdict']}")

    def check(out, store):
        if fmt == "csv":
            lines = list(csv.reader(io.StringIO(out)))
            require(lines[0] == ["r", "t", "verdict", "ratio_n0", "ratio_n1"], "wrong CSV header")
            check_rows([dict(zip(lines[0], line)) for line in lines[1:]])
        else:
            check_rows(out["rows"])

    argv = ["phase-diagram", "--format", fmt, "--r-steps", str(steps), "--t-steps", str(steps)]
    argv += ["--r-min", str(r_min), "--r-max", str(r_max), "--t-min", str(t_min), "--t-max", str(t_max)]
    return cli_request(f"phase-diagram-{fmt}", ("grid", fmt, r_min, r_max, t_min, t_max), argv, check, raw=fmt == "csv")


# alpha with an exact radial power 2 alpha - 1 = 1/q, so images stay rational
_QC_ALPHAS = ((Fraction(2, 3), 3), (Fraction(3, 4), 2), (Fraction(5, 8), 4))
_QC_BASES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 4), Fraction(2, 7))


def _qc_request(alpha: Fraction, q: int, c: Fraction, t: Fraction) -> Request:
    r = c**q  # r^(2 alpha - 1) = c exactly
    L, ratio = 1 / (2 * alpha - 1), abs(alpha - 1) / alpha

    def check(res, store):
        require(Fraction(res["L"]) == L, f"qc L={res['L']}, want {L}")
        require(Fraction(res["beltrami"]["ratio"]) == ratio, f"Beltrami ratio {res['beltrami']['ratio']}, want {ratio}")
        img = (Fraction(res["image"]["r"]), Fraction(res["image"]["t"]))
        require(img == (c, t), f"qc image {img}, want ({c}, {t})")

    argv = ["qc", "--alpha", str(alpha), "--r", str(r), "--t", str(t)]
    return cli_request("qc", (str(r), str(t)), argv, check)


def _counterexample_request(alpha: Fraction, q: int, c: Fraction) -> Request:
    r = c**q
    t = r * c**2  # the geometric midpoint of [r^2, c^4], the chain's default
    L, ratio = 1 / (2 * alpha - 1), abs(alpha - 1) / alpha

    def check(res, store):
        ch = res["chain"]
        src, img = classification(r, t), classification(c, t)
        require(ch["source_classification"] == src, f"chain source {ch['source_classification']}, want {src}")
        require(ch["image_classification"] == img, f"chain image {ch['image_classification']}, want {img}")
        require(Fraction(ch["image"]["r"]) == c and Fraction(ch["image"]["t"]) == t, "chain image parameters")
        require(Fraction(ch["qc_constant"]) == L and Fraction(ch["beltrami_ratio"]) == ratio, "chain map data")
        require([Fraction(x) for x in ch["t_interval"]] == [r**2, c**4], "chain t interval")
        ok = src == "ExhaustiveHenceComplete" and img == "NotComplete"
        require(res["succeeds"] is ok, f"chain succeeds={res['succeeds']}, want {ok}")

    argv = ["counterexample", "--alpha", str(alpha), "--r", str(r)]
    return cli_request("counterexample", (str(r), str(t)), argv, check)


def _qc_requests(rng) -> list[Request]:
    reqs = []
    for i in range(8):
        alpha, q = _QC_ALPHAS[int(rng.integers(len(_QC_ALPHAS)))]
        c = _QC_BASES[int(rng.integers(len(_QC_BASES)))]
        if i % 2 == 0:
            reqs.append(_qc_request(alpha, q, c, Fraction(1, int(rng.integers(3, 200)))))
        else:
            reqs.append(_counterexample_request(alpha, q, c))
    return reqs


def _wiener(rng) -> list[Request]:
    pairs = _exact_pairs(rng)
    exhaustive = [(r, t) for r, t, s in pairs if s == "exhaustive"]
    finite = [(r, t) for r, t, s in pairs if s != "exhaustive"]
    # blocks in one fixed pair order: with 36 > 32 pairs, no lru_cache entry
    # of wiener.py survives from one block to the next
    reqs = [_classify_request(r, t) for r, t, _ in pairs]
    reqs += [_gamma_origin_request(r, t, 0) for r, t, _ in pairs]
    reqs += [_gamma_origin_request(r, t, 1) for r, t, _ in pairs]
    for r, t in _float_pairs(rng):
        reqs += [_classify_request(r, t), _gamma_origin_request(r, t, 0)]
    reqs += [_gamma_window_request(r, t) for r, t in exhaustive[:6]]
    for i, (r, t) in enumerate(finite[:6]):
        z = complex(*(rng.choice((-1, 1), 2) * rng.uniform(1e-3, 1e-2, 2)))
        reqs.append(_gamma_numeric_request(r, t, i % 2, z, "gamma-numeric-off-axis"))
    for r, t in exhaustive[6:9]:
        x = float(rng.choice((1e-3, 1e-4)))
        reqs.append(_gamma_numeric_request(r, t, 0, 0j, "gamma-numeric-origin"))
        reqs.append(_gamma_numeric_request(r, t, 0, complex(-x, 0.0), "gamma-numeric-negative-axis", against_origin=True))
    reqs += [_phase_request(rng, "json"), _phase_request(rng, "csv")]
    reqs += _qc_requests(rng)
    # the known faults, on fixed inputs: r^2 = 5t, yet the guard band ties
    # them; and a convergent n = 1 tail that runs past the underflow of r^k
    reqs.append(_classify_request(repr(math.sqrt(5e-16)), "1e-16", fault=FAULT_GUARD_BAND))
    reqs.append(_gamma_origin_request(Fraction(1, 15), Fraction(1, 56250), 1, fault=FAULT_SHELL_UNDERFLOW))
    return reqs


# ---------------------------------------------------------------------------
# bergman: kernel and metric records on the validation domains

DISC_DEGREES = (10, 15, 20, 25, 30)
PUNCTURED_DEGREES = (10, 20, 30)
ANNULUS_BASES = ((-15, 15), (-15, 15), (-10, 10))
ANNULUS_RADII = ("1/2", "2/5", "3/5")
# the finite basis truncates the disc kernel by < 3e-6 and the metric by
# < 1e-4 (relative) at |z| <= 0.45 and degree >= 10
DISC_K_TOL = 1e-5
DISC_BETA_TOL = 1e-3
PATH_TOL = 2e-5  # the 257-sample trapezoid errs by < 2.2e-6 on these paths


def _kernel_argv(domain, rho, lo, hi) -> list[str]:
    argv = ["kernel", "--domain", domain, "--max-degree", str(hi), "--min-degree", str(lo)]
    return argv + (["--inner-radius", rho] if rho else [])


def _check_estimate(est: dict, z: complex, rho: float, lo: int, hi: int) -> None:
    K, beta = json_float(est["kernel"]), json_float(est["metric"])
    K_s, beta_s = (float(v[0]) for v in series_kernel(z, lo, hi, rho))
    # solve error grows with the Gram condition number
    tol = max(1e-11, 1e-15 * gram_condition(lo, hi, rho))
    require(abs(K - K_s) <= tol * K_s, f"K({z}) = {K!r}, series {K_s!r}")
    require(abs(beta - beta_s) <= tol * beta_s, f"beta({z}) = {beta!r}, series {beta_s!r}")
    K_true = true_kernel(z, rho)
    require(K <= K_true * (1 + 1e-12), f"finite-basis K({z}) = {K!r} exceeds the true kernel {K_true!r}")
    if rho == 0.0:
        s2 = abs(z) ** 2
        require(abs(K / K_true - 1) <= DISC_K_TOL, f"K({z}) = {K!r}, closed form {K_true!r}")
        beta_true = 2.0 / (1.0 - s2) ** 2
        require(abs(beta / beta_true - 1) <= DISC_BETA_TOL, f"beta({z}) = {beta!r}, closed form {beta_true!r}")


def _kernel_point_request(domain, rho_s, lo, hi, z: complex) -> Request:
    rho = float(Fraction(rho_s)) if rho_s else 0.0

    def check(res, store):
        _check_estimate(res["estimate"], z, rho, lo, hi)

    argv = _kernel_argv(domain, rho_s, lo, hi) + [f"--z={_zarg(z)}"]
    return cli_request(f"kernel-{domain}", (domain, rho_s, lo, hi), argv, check)


def _bergman(rng) -> list[Request]:
    def disc_point():
        return complex(rng.uniform(0.05, 0.45) * np.exp(1j * rng.uniform(0, 2 * np.pi)))

    reqs = [_kernel_point_request("disc", None, 0, d, disc_point()) for d in DISC_DEGREES]
    reqs += [_kernel_point_request("punctured", None, 0, d, disc_point()) for d in PUNCTURED_DEGREES]
    for lo, hi in ANNULUS_BASES:
        rho_s = ANNULUS_RADII[int(rng.integers(len(ANNULUS_RADII)))]
        rho = float(Fraction(rho_s))
        z = complex(rng.uniform(rho + 0.05, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        reqs.append(_kernel_point_request("annulus", rho_s, lo, hi, z))

    x = float(round(rng.uniform(0.3, 0.6), 4))

    def check_disc_path(res, store):
        _check_estimate(res["estimate"], complex(x / 2), 0.0, 0, 30)
        want = math.sqrt(2.0) * math.atanh(x)
        require(abs(res["path_length"] / want - 1) <= PATH_TOL, f"path 0..{x}: {res['path_length']!r}, want {want!r}")

    argv = _kernel_argv("disc", None, 0, 30) + [f"--z={x / 2!r}", "--path", "0", repr(x)]
    reqs.append(cli_request("kernel-disc-path", ("disc", None, 0, 30), argv, check_disc_path))

    a, b = float(round(rng.uniform(0.58, 0.65), 4)), float(round(rng.uniform(0.8, 0.9), 4))
    u = complex(np.exp(1j * rng.uniform(-1.2, 1.2)))  # positive real part keeps argparse happy

    def check_annulus_path(res, store):
        _check_estimate(res["estimate"], a * u, 0.5, -15, 15)
        want = radial_path_length(a, b, -15, 15, 0.5)
        require(abs(res["path_length"] / want - 1) <= PATH_TOL, f"path {a}..{b}: {res['path_length']!r}, want {want!r}")

    argv = _kernel_argv("annulus", "1/2", -15, 15) + [f"--z={_zarg(a * u)}", "--path", _zarg(a * u), _zarg(b * u)]
    reqs.append(cli_request("kernel-annulus-path", ("annulus", "1/2", -15, 15), argv, check_annulus_path))
    return reqs

