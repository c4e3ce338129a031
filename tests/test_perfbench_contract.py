"""What the benchmark tracer (perfbench/tracer.py) needs of the library.

The traced benchmark run wraps the functions tracer.SPANS names and reads
work counts from their arguments and return values; a rename or a changed
call here would break that run without failing any other test.
"""

import importlib
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from slitdisc import bergman
from slitdisc.capacity import fekete_points
from slitdisc.geometry import ParamRT, annulus, build_domain, circle, punctured_disc, unit_disc
from slitdisc.wiener import gamma_at_origin, gamma_numeric

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer


def test_tracer_spans_name_library_functions():
    for module, function, _ in tracer.SPANS:
        assert callable(getattr(importlib.import_module(f"slitdisc.{module}"), function, None)), (module, function)
    assert callable(importlib.import_module("slitdisc.numerics").le_guarded)


def test_tracer_gram_flops_reads_kernel_engine_arguments(monkeypatch):
    calls = []
    gram_matrix = bergman.gram_matrix

    def spy(*args, **kwargs):
        calls.append(args)
        return gram_matrix(*args, **kwargs)

    monkeypatch.setattr(bergman, "gram_matrix", spy)
    quad = bergman.QuadratureConfig(radial_order=16, angular_points=8)
    for basis in (
        bergman.monomials(unit_disc(), 5),
        bergman.monomials(punctured_disc(), 5),
        bergman.laurent(annulus(0.5), -3, 5),
    ):
        bergman.KernelEngine(basis, quad)
    assert len(calls) == 3
    for args in calls:
        flops = tracer._gram_flops(*args[:2])
        assert type(flops) is int and flops > 0


def test_tracer_work_counts_read_return_values():
    counts = defaultdict(float)
    p = ParamRT(Fraction(1, 5), Fraction(1, 100))
    tracer._count_work(counts, "gamma_numeric", (), gamma_numeric(build_domain(p, 5), 0j, 0))
    tracer._count_work(counts, "gamma_at_origin", (), gamma_at_origin(p, 0))
    tracer._count_work(counts, "fekete_points", (), fekete_points(circle(1.0), 4))
    assert counts["wiener.numeric_cells"] > 0 and counts["wiener.shell_terms"] > 0
    assert counts["capacity.fekete_sweeps"] > 0
