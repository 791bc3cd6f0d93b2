"""Time ``validate``'s tree rules and partition rules against the rules they
replaced (``tree_rules_oracle``, ``partition_rules_oracle``) on the
documents each benchmark workload reads.

Usage, from the repository root::

    PYTHONPATH=src python tests/bench_validate.py [--rounds 11] [--out BENCH_validate.json]

The documents are those of ``tests/bench_loader.py``: the distinct standard
inputs of the ops that ``perfbench/workloads.py`` lists, each parsed once.
Each round runs every mechanism's tree rules once with each implementation,
one right after the other, the first alternating by document and round, and
then its partition rules the same way; a round's time per implementation is
the sum over the workload's documents.  The JSON written holds, per
workload and per layer, each implementation's median and quartiles of the
round times and how many rounds the new rules won, and counters that do
not depend on the machine: documents, nodes, internal nodes, the distinct
tuples of children's steps that the tree rules decide (summed over
documents) and information sets.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gradualmech as gm  # noqa: E402
from bench_loader import ROOT, documents, spread  # noqa: E402
from gradualmech.fileformat import parse_mechanism  # noqa: E402
from gradualmech.gameform import _partition_rules, _tree_rules  # noqa: E402
from oracles import partition_rules_oracle, tree_rules_oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYERS = {
    "tree_rules": (_tree_rules, tree_rules_oracle),
    "partition_rules": (_partition_rules, partition_rules_oracle),
}


def counters(mechs):
    internal = step_tuples = sets = 0
    for mech in mechs:
        kids = [tuple(mech.step[c] for c in cs) for cs in mech.children if cs]
        internal += len(kids)
        step_tuples += len(set(kids))
        sets += len(mech.infosets)
    return {"documents": len(mechs), "nodes": sum(m.n_nodes() for m in mechs),
            "internal_nodes": internal, "distinct_child_step_tuples": step_tuples,
            "infosets": sets}


def measure(mechs, rounds, rules):
    """Per round, the seconds the new rules and the oracle took over all
    mechanisms."""
    new, old = [], []
    for r in range(rounds):
        gc.collect()
        total = [0.0, 0.0]
        for k, mech in enumerate(mechs):
            for which in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                rules[which](mech)
                total[which] += time.perf_counter() - t0
        new.append(total[0])
        old.append(total[1])
    return new, old


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--out", default=str(ROOT / "BENCH_validate.json"))
    args = ap.parse_args(argv)
    result = {
        "command": "PYTHONPATH=src python tests/bench_validate.py"
                   f" --rounds {args.rounds}",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "rounds": args.rounds,
        "workloads": {},
    }
    for name, cls in WORKLOADS.items():
        mechs = [parse_mechanism(text)[0] for text in documents(cls(gm))]
        row = counters(mechs)
        line = [f"{name}: {row['documents']} documents, {row['internal_nodes']} internal "
                f"nodes, {row['distinct_child_step_tuples']} step tuples"]
        for layer, rules in LAYERS.items():
            for mech in mechs:  # warm both implementations' paths
                assert rules[0](mech) == rules[1](mech)
            new, old = measure(mechs, args.rounds, rules)
            row[layer] = {
                "new_s": spread(new),
                "oracle_s": spread(old),
                "oracle_over_new_median": statistics.median(old) / statistics.median(new),
                "rounds_won": sum(a < b for a, b in zip(new, old)),
            }
            line.append(f"{layer} {statistics.median(new) * 1e3:.2f} ms against "
                        f"{statistics.median(old) * 1e3:.2f} ms, "
                        f"x{row[layer]['oracle_over_new_median']:.3f}, "
                        f"won {row[layer]['rounds_won']}/{args.rounds}")
        result["workloads"][name] = row
        print("; ".join(line))
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
