"""Fixed reference kernel and the drift-scaled clock built on it.

The CPU speed of a small shared machine drifts by more than a tenth over
tens of seconds, so raw wall times of the same work do not repeat.  Every
interval the benchmark reports is therefore expressed in reference-scaled
time:

    scaled = wall * NOMINAL_S / mean(reference before, reference after)

where the reference is `reference_kernel()` timed just before and just
after the interval.  The kernel mixes interpreter-bound Python with
small-array numpy calls, the same mix slitdisc runs: a loop of Fraction
arithmetic, dict updates and numpy calls on 16- and 48-element arrays, and
the library work that wraps every CLI call (argparse, JSON, CSV).  Timed
side by side on the same machine, this mix tracked the three workloads
together better than its variants (perfbench/README.md).
NOMINAL_S and the kernel body are fixed: changing either one changes the
unit of every reported time, so neither may be recalibrated.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import time
from fractions import Fraction

import numpy as np

# nominal duration of one reference_kernel() call; the unit of scaled time
NOMINAL_S = 0.010

_LOOPS = 250
_X = np.linspace(0.05, 0.95, 48)
# a record shaped like the CLI's: exact numbers as strings, floats, nulls
_DOC = {
    "rows": [
        {"r": str(Fraction(i, i + 3)), "t": str(Fraction(i, 7 * i + 1)), "v": [float(i), 0.5 * i, None, "x" * (i % 7)]}
        for i in range(120)
    ]
}


def _library_round() -> int:
    """What a CLI call does around its numbers: build and run an argparse
    tree, write and read back a JSON record, write CSV rows."""
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c", "d", "e"):
        sp = sub.add_parser(name)
        for opt in ("--r", "--t", "--n", "--z", "--out"):
            sp.add_argument(opt, default="0")
    parser.parse_args(["c", "--r", "1/5", "--t", "1/100"])
    text = json.dumps(_DOC, sort_keys=True, indent=2)
    rows = json.loads(text)["rows"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow([row["r"], row["t"], row["v"][0]])
    return len(text) + len(buf.getvalue())


def reference_kernel() -> float:
    """A fixed amount of mixed Python and small-array numpy work."""
    acc = 0.0
    frac = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, _LOOPS + 1):
        y = np.log1p(np.abs(np.sin(_X * i)))
        acc += float(np.dot(y, _X))
        z = np.exp(1j * i * _X[:16])
        acc += abs(complex(np.sum(z)))
        frac += Fraction(i, i + 7)
        for k in range(24):
            table[k] = table.get(k, 0) + k * i
        acc += sum(table.values()) % 7
    acc += _library_round() + _library_round()
    return acc + float(frac)


def time_reference() -> float:
    """Wall seconds of one reference_kernel() call."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scale_factor(before: float, after: float) -> float:
    """Multiplier from wall seconds to scaled seconds for an interval whose
    neighbouring reference calls took `before` and `after` wall seconds."""
    return NOMINAL_S / (0.5 * (before + after))
