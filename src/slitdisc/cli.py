"""Command-line front end: capacity, gamma, classify, phase-diagram, qc,
kernel, counterexample.

Records are {config, results, provenance} JSON (CSV for sweeps).  Identical
config gives byte-identical output apart from the provenance timestamp.
to_json_text writes each record in one walk, byte-identical to the stdlib's
json.dumps(to_jsonable(record), sort_keys=True, indent=2).
Rational inputs like "1/8" stay exact through every threshold comparison;
decimal inputs travel as floats behind a guard band.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import enum
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .bergman import BasisSpec, KernelEngine, QuadratureConfig, metric_path_length
from .capacity import equilibrium_energy, fekete_log_capacity, log_capacity
from .geometry import (
    DiscObstacle,
    ParamRT,
    SegmentObstacle,
    annulus,
    arc,
    build_domain,
    circle,
    make_arc,
    punctured_disc,
    unit_disc,
)
from .numerics import parse_number
from .qcmap import QCParams, beltrami, counterexample_chain, qc_constant, transport_params
from .wiener import GammaQuadrature, gamma_at_origin, gamma_numeric, phase_diagram, threshold_report


# ---------------------------------------------------------------------------
# serialization


def to_jsonable(obj):
    """Lossless JSON projection: Fractions and non-finite floats to strings,
    complex to {re, im}, dataclasses/enums unwrapped.

    Dispatches on the exact type first: records are mostly plain floats,
    ints, strings and containers of them.  Everything else, subclasses
    such as np.float64 and NamedTuples included, is projected one level by
    _shallow and the result projected again.
    """
    t = type(obj)
    if t is float:
        return obj if math.isfinite(obj) else _nonfinite(obj)
    if t is str or t is int or t is bool or obj is None:
        return obj
    if t is tuple or t is list:
        return [to_jsonable(v) for v in obj]
    if t is dict:
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    return to_jsonable(_shallow(obj))


def _nonfinite(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _shallow(obj):
    """One level of the projection of anything but an exact plain type; the
    children come back raw, for the caller to project."""
    # int and str subclasses (enum mixins) and np.float64 by their content,
    # as the stdlib encoder writes them
    if isinstance(obj, int):
        return int.__int__(obj)
    if isinstance(obj, str):
        return str.__str__(obj)
    if isinstance(obj, float):
        return float.__float__(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if isinstance(obj, enum.Enum):
        return obj.value
    names = _field_names(type(obj))
    if names is not None:
        return {name: getattr(obj, name) for name in names}
    if isinstance(obj, dict):
        return dict(obj.items())
    if hasattr(obj, "_asdict"):  # NamedTuple, which is also a tuple: check first
        return obj._asdict()
    if isinstance(obj, (list, tuple)):
        return list(obj)
    return repr(obj)


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of a dataclass, None for any other class."""
    return tuple(f.name for f in dataclasses.fields(cls)) if dataclasses.is_dataclass(cls) else None


_encode_str = json.encoder.encode_basestring_ascii


def to_json_text(record) -> str:
    """The record as json.dumps(to_jsonable(record), sort_keys=True, indent=2)
    writes it, byte for byte, in one walk that appends to one list.

    The stdlib takes its pure-Python encoder whenever indent is set, after
    a separate to_jsonable pass over the same tree.
    """
    out: list[str] = []
    _write(record, out, "\n")
    return "".join(out)


def _write(obj, out: list[str], nl: str) -> None:
    """Append obj's JSON text to out; nl is the newline and indent of obj's line.

    repr of an exact float or int is the float.__repr__ or int.__repr__ the
    stdlib encoder writes.
    """
    t = type(obj)
    if t is float:
        out.append(repr(obj) if math.isfinite(obj) else _encode_str(_nonfinite(obj)))
    elif t is str:
        out.append(_encode_str(obj))
    elif t is int:
        out.append(repr(obj))
    elif t is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        out.append("[" + inner)
        for v in obj:
            _write(v, out, inner)
            out.append(sep)
        out[-1] = nl + "]"
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        # str keys first, so a collision such as {1: a, "1": b} keeps what to_jsonable keeps
        d = {str(k): v for k, v in obj.items()}
        inner = nl + "  "
        sep = "," + inner
        out.append("{" + inner)
        for k in sorted(d):
            out.append(_encode_str(k) + ": ")
            _write(d[k], out, inner)
            out.append(sep)
        out[-1] = nl + "}"
    else:
        _write(_shallow(obj), out, nl)


def _provenance() -> dict:
    return {
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "tool": "slitdisc",
        "version": __version__,
    }


def _emit(record: dict, args, text: str | None = None) -> None:
    """Write JSON (or preformatted CSV text) to --out or stdout."""
    payload = text if text is not None else to_json_text(record) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _parse_complex(text: str) -> complex:
    s = text.strip()
    if "," in s:
        re_s, im_s = s.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(s), 0.0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_capacity(args) -> dict:
    results: dict = {}
    if args.shape == "circle":
        shape = circle(args.radius)
    elif args.shape == "arc":
        shape = arc(args.radius, 0.0, args.half_width)
    elif args.shape == "segment":
        shape = SegmentObstacle(0j, complex(args.length, 0.0))
        if not (args.length > 0.0):  # the closed form would take |length|
            raise ValueError("length must be positive")
    elif args.shape == "disc":
        shape = DiscObstacle(0j, args.radius)
    else:  # family-arc
        params = ParamRT(parse_number(args.r), parse_number(args.t))
        shape = make_arc(params, args.k)
        results["family"] = {"k": args.k, "r": params.r, "t": params.t}
    results["closed_form_log"] = log_capacity(shape).log_value
    if args.fekete_n:
        results["fekete_n"] = args.fekete_n
        results["fekete_log"] = fekete_log_capacity(shape, args.fekete_n, seed=args.seed).log_value
    if args.equilibrium_m:
        energy, measure = equilibrium_energy(shape, args.equilibrium_m)
        results["equilibrium_m"] = args.equilibrium_m
        results["equilibrium_energy"] = energy.value
        results["equilibrium_tolerance"] = energy.tolerance
    return results


def cmd_gamma(args) -> dict:
    params = ParamRT(parse_number(args.r), parse_number(args.t))
    z = _parse_complex(args.z)
    if z == 0j and not args.numeric:
        report = gamma_at_origin(params, args.n)
    else:
        quad = GammaQuadrature(delta_min=args.delta_min, divergence_threshold=args.threshold)
        report = gamma_numeric(build_domain(params, args.kmax), z, args.n, quad)
    return {"ratio": report.ratio, "report": report}


def cmd_classify(args) -> dict:
    params = ParamRT(parse_number(args.r), parse_number(args.t))
    return {"report": threshold_report(params)}


def cmd_phase_diagram(args) -> tuple[dict, str | None]:
    """The threshold classification and both ratios over an r-major (r, t)
    grid of steps points an axis, from wiener.phase_diagram: one row at a
    time, two bisections a row.  Rational bounds keep the grid rational and
    every comparison exact."""
    r_min, r_max = parse_number(args.r_min), parse_number(args.r_max)
    t_min, t_max = parse_number(args.t_min), parse_number(args.t_max)
    if not (0 < r_min <= r_max < 1 and 0 < t_min <= t_max < Fraction(1, 2)):
        raise ValueError("grid bounds must satisfy 0 < r < 1 and 0 < t < 1/2")
    for option, steps in (("--r-steps", args.r_steps), ("--t-steps", args.t_steps)):
        if steps < 1:
            raise ValueError(f"{option} must be at least 1, got {steps}")
    rs = [r_min + (r_max - r_min) * Fraction(i, max(args.r_steps - 1, 1)) for i in range(args.r_steps)]
    ts = [t_min + (t_max - t_min) * Fraction(j, max(args.t_steps - 1, 1)) for j in range(args.t_steps)]
    rows = [
        {"r": r, "t": t, "verdict": cls.value, "ratio_n0": q0, "ratio_n1": q1}
        for r, t, cls, q0, q1 in phase_diagram(rs, ts)
    ]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["r", "t", "verdict", "ratio_n0", "ratio_n1"])
        for row in rows:
            writer.writerow([_csv_cell(row[k]) for k in ("r", "t", "verdict", "ratio_n0", "ratio_n1")])
        return {"rows": rows}, buf.getvalue()
    return {"rows": rows}, None


def _csv_cell(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_qc(args) -> dict:
    alpha = QCParams(parse_number(args.alpha))
    results: dict = {"L": qc_constant(alpha)}
    z = _parse_complex(args.z)
    if z != 0j:
        results["beltrami"] = beltrami(alpha, z)
    if args.r is not None:
        params = ParamRT(parse_number(args.r), parse_number(args.t))
        image = transport_params(params, alpha)
        results["source"] = params
        results["image"] = image
        results["image_flags"] = image.flags()
    return results


def cmd_kernel(args) -> dict:
    if args.domain == "disc":
        dom = unit_disc()
    elif args.domain == "punctured":
        dom = punctured_disc()
    else:
        dom = annulus(float(parse_number(args.inner_radius)))
    basis = BasisSpec(domain=dom, max_degree=args.max_degree, min_degree=args.min_degree)
    quad = QuadratureConfig(radial_order=args.radial_order, angular_points=args.angular_points)
    engine = KernelEngine(basis, quad)
    results: dict = {"estimate": engine.estimate(_parse_complex(args.z))}
    if args.path:
        pts = tuple(_parse_complex(p) for p in args.path)
        results["path"] = pts
        results["path_length"] = metric_path_length(engine, pts, samples=args.samples)
    return results


def cmd_counterexample(args) -> dict:
    alpha = QCParams(parse_number(args.alpha))
    r = parse_number(args.r) if args.r is not None else None
    t = parse_number(args.t) if args.t is not None else None
    chain = counterexample_chain(alpha, r=r, t=t)
    return {"chain": chain, "succeeds": chain.succeeds}


# ---------------------------------------------------------------------------
# parser


class _Given(argparse.Action):
    """Store the value, as the default action does, and add the option's dest
    to the namespace's `given`, the options the command line named."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


# per command: options read only under a condition on the others, the
# condition in words and as a test; naming one where it fails is an error
_READ_ONLY_WHEN = {
    "capacity": (("r", "t", "k"), "--shape family-arc", lambda args: args.shape == "family-arc"),
    "qc": (("t",), "--r", lambda args: args.r is not None),
    "kernel": (("inner_radius",), "--domain annulus", lambda args: args.domain == "annulus"),
}


def _refuse_unread(args) -> None:
    """Raise ValueError for the first option given that the command would not read."""
    if args.command not in _READ_ONLY_WHEN:
        return
    dests, condition, holds = _READ_ONLY_WHEN[args.command]
    given = [d for d in dests if d in getattr(args, "given", ())]
    if given and not holds(args):
        raise ValueError(f"--{given[0].replace('_', '-')} is read only with {condition}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process.

    Subcommands carry no handler: main looks up cmd_<command> by name on
    every call, so rebinding a cmd_* function after the first call takes
    effect.
    """
    p = argparse.ArgumentParser(prog="slitdisc", description="slit-disc capacity, Wiener criterion, and Bergman toolkit")
    p.add_argument("--version", action="version", version=f"slitdisc {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="write the record to this path instead of stdout")

    sp = sub.add_parser("capacity", help="log capacity of a described set, closed form vs oracles")
    sp.add_argument("--shape", choices=("circle", "arc", "segment", "disc", "family-arc"), required=True)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--half-width", type=float, default=math.pi, help="arc half-angle in radians")
    sp.add_argument("--length", type=float, default=1.0)
    sp.add_argument("--r", default="1/8", action=_Given, help="family-arc only")
    sp.add_argument("--t", default="1/32", action=_Given, help="family-arc only")
    sp.add_argument("--k", type=int, default=1, action=_Given, help="family-arc only")
    sp.add_argument("--fekete-n", type=int, default=0, help="also run the Fekete oracle with n points")
    sp.add_argument("--equilibrium-m", type=int, default=0, help="also run the equilibrium-measure oracle with m cells")
    sp.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed of the Fekete oracle's union starts; every shape here is one piece, "
        "which starts at fixed points, so the seed changes no output",
    )
    common(sp)

    sp = sub.add_parser("gamma", help="Wiener-type gamma^(n): analytic shells at 0, bracketing quadrature elsewhere")
    sp.add_argument("--r", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--z", default="0", help="evaluation point, 're' or 're,im'")
    sp.add_argument("--numeric", action="store_true", help="force the quadrature path even at z = 0")
    sp.add_argument("--delta-min", type=float, default=1e-12)
    sp.add_argument("--threshold", type=float, default=1e6)
    sp.add_argument("--kmax", type=int, default=200, help="arcs of the domain the quadrature path builds")
    common(sp)

    sp = sub.add_parser("classify", help="completeness classification by the threshold rules")
    sp.add_argument("--r", required=True)
    sp.add_argument("--t", required=True)
    common(sp)

    sp = sub.add_parser("phase-diagram", help="classification sweep over a rational (r, t) grid")
    sp.add_argument("--r-min", default="1/20")
    sp.add_argument("--r-max", default="9/20")
    sp.add_argument("--r-steps", type=int, default=50)
    sp.add_argument("--t-min", default="1/100")
    sp.add_argument("--t-max", default="49/100")
    sp.add_argument("--t-steps", type=int, default=50)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    common(sp)

    sp = sub.add_parser("qc", help="quasi-conformal map data and parameter transport")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--z", default="0.25")
    sp.add_argument("--r", default=None)
    sp.add_argument("--t", default="1/32", action=_Given, help="read only with --r")
    common(sp)

    sp = sub.add_parser("kernel", help="Bergman kernel/metric estimates on validation domains")
    sp.add_argument("--domain", choices=("disc", "punctured", "annulus"), default="disc")
    sp.add_argument("--inner-radius", default="1/2", action=_Given, help="annulus only")
    sp.add_argument("--max-degree", type=int, default=30)
    sp.add_argument("--min-degree", type=int, default=0)
    sp.add_argument("--radial-order", type=int, default=64)
    sp.add_argument("--angular-points", type=int, default=512)
    sp.add_argument("--z", default="0")
    sp.add_argument("--path", nargs="*", default=None, help="polyline waypoints for a Bergman length")
    sp.add_argument("--samples", type=int, default=257)
    common(sp)

    sp = sub.add_parser("counterexample", help="complete -> quasi-conformal image not complete, full chain")
    sp.add_argument("--alpha", default="2/3")
    sp.add_argument("--r", default=None)
    sp.add_argument("--t", default=None)
    common(sp)

    return p


def _config_echo(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("out", "given")}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _refuse_unread(args)
        out = command(args)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = None
    if isinstance(out, tuple):
        results, text = out
    else:
        results = out
    if text is not None:
        _emit({}, args, text=text)
        return 0
    record = {
        "config": _config_echo(args),
        "provenance": _provenance(),
        "results": results,
    }
    _emit(record, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
