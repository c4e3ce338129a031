"""Traced runs: per-layer metrics for every workload, and tracing overhead.

    python3 perfbench/trace_all.py

For each workload of BENCHMARK.json it makes one untraced and one traced
run of run_seconds with seed 1.  It prints the per-layer metrics of the
traced run, and the tracing overhead: the traced run's scaled time per
request over the untraced run's, minus one.  Everything goes to
perfbench/out/layers.json; the spans of each traced run are in
perfbench/out/spans-<workload>-seed1.json.
"""

from __future__ import annotations

import json
import os
import sys

from steady import ROOT, run_once

SEED = 1


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    report = {}
    for w in bench["workloads"]:
        name = w["name"]
        plain = run_once(name, SEED, bench["run_seconds"], trace=0)
        traced = run_once(name, SEED, bench["run_seconds"], trace=1)
        with open(os.path.join(ROOT, "perfbench", "out", f"spans-{name}-seed{SEED}.json")) as fh:
            summary = json.load(fh)["summary"]
        overhead = plain["metrics"]["requests_per_s"]["value"] / summary["requests_per_s"] - 1.0
        report[name] = {"tracing_overhead": overhead, "passes": summary["passes"], "per_layer": traced["metrics"]}
        print(f"\n{name} (seed {SEED}, {summary['passes']} traced passes, tracing overhead {overhead:+.1%})")
        for metric, v in traced["metrics"].items():
            print(f"  {metric:36s} {v['value']:14.6g} {v['unit']}")
    with open(os.path.join(ROOT, "perfbench", "out", "layers.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
