"""Steadiness check: run each workload with several seeds, one run at a time.

    python3 perfbench/steady.py

It runs every workload of BENCHMARK.json once with each of the seeds 1-10,
for run_seconds each.  For each workload and end-to-end metric it prints
the median and quartiles of the runs (statistics.quantiles, n=4), the quartile spread as a share of
the median, and the metric's bound from BENCHMARK.json.  A spread at or
above a third of the bound is marked, since two sets of runs must agree
within the bound.  It also prints the share of failed requests, which must
be the same in every run.  Raw results go to perfbench/out/steady-<workload>.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One run's result line, with its run-info line under "info"."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py")]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = [line for line in proc.stderr.splitlines() if line.startswith("run-info ")]
    result["info"] = json.loads(info[-1].split(" ", 1)[1])
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in SEEDS:
            results.append(run_once(workload, seed, bench["run_seconds"]))
            print(f"{workload} seed {seed}: {json.dumps(results[-1]['metrics'])}", file=sys.stderr)
        with open(os.path.join(ROOT, "perfbench", "out", f"steady-{workload}.json"), "w") as fh:
            json.dump(results, fh, indent=1)
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results})
        fail_shares = {r["failed"] / r["attempted"] for r in results}
        repeats = [r["info"]["repeat_share"] for r in results]
        print(f"\n{workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
              f"failed/attempted {', '.join(shares)} ({'one share' if len(fail_shares) == 1 else 'SHARES DIFFER'})")
        print(f"  {results[0]['info']['requests_per_pass']} requests per pass, "
              f"{min(r['info']['passes'] for r in results)}-{max(r['info']['passes'] for r in results)} passes per run, "
              f"{min(repeats):.1%}-{max(repeats):.1%} of requests repeat a key already seen in the pass")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} {'raw spread':>10s}")
        for name, bound in bounds.items():
            q1, med, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in results], n=4)
            spread = (q3 - q1) / med
            raw = ""
            if name in results[0]["info"]["raw"]:
                rq1, rmed, rq3 = statistics.quantiles([r["info"]["raw"][name] for r in results], n=4)
                raw = f"{(rq3 - rq1) / rmed:10.3f}"
            mark = "" if name == "setup_s" or spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f} {raw:>10s}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
