"""Time ``parse_mechanism`` against ``parse_mechanism_oracle``, the recursive
loader it replaced, on the documents each benchmark workload reads.

Usage, from the repository root::

    PYTHONPATH=src python tests/bench_loader.py [--rounds 11] [--out BENCH_loader.json]

The documents are the standard inputs of the ops that
``perfbench/workloads.py`` lists (read, not changed): each step's fixed
document, and for the checks of ``gen ttc`` the generated document.  Each
round parses every document once with each loader, one right after the
other, the first alternating by document and round; a round's time per
loader is the sum over the workload's documents.  The JSON written holds,
per workload, each loader's median and quartiles of the round times, how
many rounds the parser won, and counters that do not depend on the
machine: documents, bytes, nodes, and the distinct steps the pass keys,
summed over documents.
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import gradualmech as gm  # noqa: E402
from conftest import run_argv  # noqa: E402
from gradualmech.fileformat import parse_mechanism  # noqa: E402
from oracles import parse_mechanism_oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def documents(workload):
    """The distinct documents the workload's ops read, in op order."""
    out = {}
    for op in workload.all_ops():
        first_out = None
        for step in op:
            if step.stdin is None:
                if first_out is None:
                    code, first_out, _ = run_argv(list(op[0].argv), op[0].stdin)
                    assert code == 0, op[0].argv
                out.setdefault(first_out)
            elif step.stdin:
                out.setdefault(step.stdin)
    return list(out)


def counters(docs):
    nodes = steps = 0
    for text in docs:
        mech = parse_mechanism(text)[0]
        nodes += mech.n_nodes()
        steps += len(set(mech.step[1:]))
    return {"documents": len(docs), "bytes": sum(len(t.encode()) for t in docs),
            "nodes": nodes, "distinct_steps": steps}


def spread(times):
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def measure(docs, rounds):
    """Per round, the seconds each loader took over all documents."""
    loaders = (parse_mechanism, parse_mechanism_oracle)
    new, old = [], []
    for r in range(rounds):
        gc.collect()
        total = [0.0, 0.0]
        for k, text in enumerate(docs):
            for which in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                t0 = time.perf_counter()
                loaders[which](text)
                total[which] += time.perf_counter() - t0
        new.append(total[0])
        old.append(total[1])
    return new, old


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=11)
    ap.add_argument("--out", default=str(ROOT / "BENCH_loader.json"))
    args = ap.parse_args(argv)
    result = {
        "command": "PYTHONPATH=src python tests/bench_loader.py"
                   f" --rounds {args.rounds}",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "rounds": args.rounds,
        "workloads": {},
    }
    for name, cls in WORKLOADS.items():
        docs = documents(cls(gm))
        for text in docs:  # warm both loaders' paths
            parse_mechanism(text)
            parse_mechanism_oracle(text)
        new, old = measure(docs, args.rounds)
        row = counters(docs)
        row["parse_mechanism_s"] = spread(new)
        row["oracle_s"] = spread(old)
        row["oracle_over_parser_median"] = statistics.median(old) / statistics.median(new)
        row["rounds_won"] = sum(a < b for a, b in zip(new, old))
        result["workloads"][name] = row
        print(f"{name}: {row['documents']} documents, {row['nodes']} nodes; parser "
              f"{row['parse_mechanism_s']['median'] * 1e3:.1f} ms, oracle "
              f"{row['oracle_s']['median'] * 1e3:.1f} ms per round, "
              f"x{row['oracle_over_parser_median']:.3f}, won {row['rounds_won']}/{args.rounds}")
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
