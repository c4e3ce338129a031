"""slitdisc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout of the repository and imports the package
from its `src/`.  One single-threaded process (BLAS pinned to one thread
before numpy loads) sends one request at a time, in whole passes over the
workload's seeded request list, until `--seconds` have passed.  Every
output is checked against an independent computation (see checks.py).

All times are reference-scaled (see refkernel.py): each chunk of requests
lasting about CHUNK_S is bracketed by two calls of a fixed reference kernel,
and its wall times are multiplied by NOMINAL_S over their mean duration.

With --trace 0 the last line of output is the end-to-end result; with
--trace 1 the functions of each layer are wrapped (tracer.py) and the last
line holds the per-layer metrics instead, and the spans are written to
perfbench/out/.  The exit code is 1 when an output is wrong or a request
fails outside the known faults, 2 when the program is missing.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from checks import CheckFailed  # noqa: E402
from refkernel import scale_factor, time_reference  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
# as in workloads.py, which cannot be imported before set-up is timed
WORKLOADS = ("oracle", "wiener", "bergman")
# a reference call brackets every ~CHUNK_S of requests (or one longer request)
CHUNK_S = 0.15


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Outcomes:
    """Counts of attempted and failed requests, and unexpected problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def record(self, req, out, error, store) -> None:
        self.attempted += 1
        if error is None:
            try:
                req.check(out, store)
                return
            except CheckFailed as exc:
                error = exc
        self.failed += 1
        if req.fault is None:
            self.wrong.append(f"{req.kind}: {type(error).__name__}: {error}")


def timed_call(req):
    t0 = time.perf_counter()
    try:
        out, error = req.run(), None
    except Exception as exc:  # a failing request is counted, not fatal
        out, error = None, exc
    return time.perf_counter() - t0, out, error


def measure(requests, seconds, outcomes, tracer=None):
    """Whole passes over `requests` until `seconds` of wall time have passed.

    Returns (scaled latencies, wall latencies, passes)."""
    latencies: list[float] = []
    walls: list[float] = []
    passes = 0
    ref_before = time_reference()
    deadline = time.perf_counter() + seconds
    while True:
        store: dict = {}
        i = 0
        while i < len(requests):
            chunk = []
            start = time.perf_counter()
            while i < len(requests) and (not chunk or time.perf_counter() - start < CHUNK_S):
                req = requests[i]
                i += 1
                rid = tracer.begin_request() if tracer else None
                wall, out, error = timed_call(req)
                chunk.append((req, wall, out, error, rid))
            ref_after = time_reference()
            scale = scale_factor(ref_before, ref_after)
            ref_before = ref_after
            for req, wall, out, error, rid in chunk:
                latencies.append(wall * scale)
                walls.append(wall)
                outcomes.record(req, out, error, store)
                if tracer:
                    tracer.set_scale(rid, scale)
                    if req.cli and error is None:
                        tracer.counts["cli.record_bytes"] += len(out.encode())
        passes += 1
        if time.perf_counter() >= deadline:
            return latencies, walls, passes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "slitdisc", "__init__.py")):
        print(f"error: no slitdisc package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # set-up: from importing slitdisc to the end of the first, cold request
    # (one measurement brackets it, so each side takes the median of three)
    time_reference()  # warm the reference kernel itself
    ref_before = statistics.median(time_reference() for _ in range(3))
    t0 = time.perf_counter()
    import workloads  # imports slitdisc

    cold = workloads.cold_request(args.workload)
    _, out, error = timed_call(cold)
    setup_wall = time.perf_counter() - t0
    setup_s = setup_wall * scale_factor(ref_before, statistics.median(time_reference() for _ in range(3)))

    cold_outcome = Outcomes()
    cold_outcome.record(cold, out, error, {})
    outcomes = Outcomes()
    outcomes.wrong = cold_outcome.wrong  # the cold request is set-up, not part of a pass

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    requests = workloads.build(args.workload, args.seed)
    latencies, walls, passes = measure(requests, args.seconds, outcomes, tracer)

    if tracer:
        from tracer import PER_LAYER

        values = tracer.per_layer(passes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}
        summary = {"workload": args.workload, "seed": args.seed, "passes": passes, "requests_per_s": len(latencies) / sum(latencies)}
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"), summary)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "requests_per_s": {"value": len(latencies) / sum(latencies), "unit": "1/s"},
            "request_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
        }
    # the same figures unscaled, for comparing raw and scaled spread, and
    # the make-up of the pass
    info = {
        "raw": {"setup_s": setup_wall, "requests_per_s": len(walls) / sum(walls), "request_p50_ms": 1e3 * statistics.median(walls)},
        "passes": passes,
        "requests_per_pass": len(requests),
        "repeat_share": workloads.repeat_share(requests),
    }
    print(f"run-info {json.dumps(info)}", file=sys.stderr)
    for line in outcomes.wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    correct = not outcomes.wrong
    result = {"correct": correct, "attempted": outcomes.attempted, "failed": outcomes.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
