"""Measure the baseline: two sets of ten runs of every workload, each run in
its own process, then two traced runs per workload.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Writes, per workload and set, the median and quartiles of each end-to-end
metric with its spread (quartile distance over median), how far the second
set's median lies from the first's, and the per-layer metrics of the first
traced run, noting whether the two traced runs' counts agree.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Two sets of ten runs, each run with its own seed.
SETS = (tuple(range(1, 11)), tuple(range(11, 21)))


def one_run(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=False,
                          cwd=HERE.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} ops failed")
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def one_set(workload, seeds):
    runs = [one_run(workload, seed, 0) for seed in seeds]
    metrics = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
               for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        s = metrics[m["name"]]
        print(f"{workload:14} seeds {seeds[0]}-{seeds[-1]} {m['name']:12} median "
              f"{s['median']:12.6g} spread {s['spread']:.3f} (bound {m['bound']})",
              flush=True)
    return {"seeds": list(seeds), "ops_per_run": [r["attempted"] for r in runs],
            "end_to_end": metrics}


def worsening(first, second):
    """How much worse the second set's median is than the first's, as a
    share of the first, per end-to-end metric (negative: better)."""
    out = {}
    for m in SPEC["end_to_end"]:
        a = first["end_to_end"][m["name"]]["median"]
        b = second["end_to_end"][m["name"]]["median"]
        out[m["name"]] = (b - a) / a if m["better"] == "lower" else (a - b) / a
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    sets = [{w: one_set(w, seeds) for w in args.workload} for seeds in SETS]
    doc = {"python": platform.python_version(), "machine": platform.machine(),
           "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workload:
        traced = [one_run(workload, SETS[0][0], 1) for _ in range(2)]
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        counts = [{k: v for k, v in t["metrics"].items()
                   if v["unit"] in ("count", "bytes") or k.endswith("useful_ratio")}
                  for t in traced]
        doc["workloads"][workload] = {
            "sets": [s[workload] for s in sets],
            "second_set_worse_by": worsening(sets[0][workload], sets[1][workload]),
            "per_layer": {"seed": SETS[0][0], "counts_repeat": counts[0] == counts[1],
                          "ops_both_rounds": traced[0]["attempted"], "metrics": layers},
        }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
