"""Time ``reduce_to_direct`` on the ascending auctions and count the work
each chain does, on this tree and, side by side, on another checkout.

Usage, from the repository root::

    python tests/bench_reduce.py [--parent DIR] [--runs 5] [--out BENCH_reduce.json]

``DIR`` is the root of another checkout, for example the parent commit
unpacked with ``git archive``; without it only this tree is measured.  Each
measurement runs in a fresh ``python -B`` process that imports
``gradualmech`` from the measured tree's ``src``, builds the auction and
times one reduction.  Per auction the runs alternate between the trees, the
parent first on even runs.  One more process per tree reduces the auction
once with counting wrappers, for the counts that do not depend on the
machine: copies (``transforms._copy``), the calls that decide a step
(``_split_terminals``, ``coalesce_ready``, ``merge_ready`` and
``_merge_classes``, whether a probe makes them or an ``apply_*`` function
checking its step again), ``is_incentive_preserving`` calls, regroupings
(``Mechanism.regroup``),
the tree texts ``fingerprint`` writes, and the step-key ``repr`` texts it
writes for them: the growth of the step table's ``texts``, which a copy
inherits from its input, or, in a checkout whose trees keep no texts,
``len(_tree["keys"])`` per tree text.  The child nodes of the trees
``canonical_tree`` builds are counted as taken from the origin, where the
pass takes a kept node's children from the input's tables, or as keyed
afresh.  Per step kind the record divides those calls by the steps of that
kind: ``_split_terminals`` per split, ``coalesce_ready`` per coalesce (the
headline count) and ``_merge_classes`` per merge.  The script checks that
both trees give the same chain: the same steps, fingerprints and
preservation verdicts.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AUCTIONS = ((3, 3), (4, 4), (5, 3), (4, 5), (5, 4))
COUNTED = ("_copy", "_split_terminals", "coalesce_ready", "merge_ready", "_merge_classes",
           "is_incentive_preserving")
# Per step kind, the call that decides a step of that kind.
PROBES = {"split": "_split_terminals", "coalesce": "coalesce_ready", "merge": "_merge_classes"}


def reduce_once(n, m, count):
    """In a child process: reduce the (n, m) auction once and return its
    steps, the chain's digest and either the seconds or the counts."""
    import gradualmech as gm
    from gradualmech import gameform, transforms

    mech = gm.build_gstar(n, m)
    _, f = gm.second_price_scf(n, m)
    counts = dict.fromkeys(COUNTED + ("regroups", "tree_texts", "key_texts",
                                      "nodes_taken", "nodes_keyed"), 0)
    if count:
        def counted(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        for name in COUNTED:
            setattr(transforms, name, counted(name, getattr(transforms, name)))
        gameform.Mechanism.regroup = counted("regroups", gameform.Mechanism.regroup)
        fingerprint = gameform.Mechanism.fingerprint

        def fingerprint_counted(self):
            if "text" in self._tree:
                return fingerprint(self)
            counts["tree_texts"] += 1
            texts = self._tree.get("texts")
            if texts is None:
                counts["key_texts"] += len(self._tree["keys"])
                return fingerprint(self)
            out = fingerprint(self)  # it replaces the tuple of texts by a longer one
            counts["key_texts"] += len(self._tree["texts"]) - len(texts)
            return out

        gameform.Mechanism.fingerprint = fingerprint_counted
        canonical_tree = transforms.canonical_tree

        def canonical_tree_counted(model, root, edges, *origin):
            def counted_edges(handle, v):
                out = edges(handle, v)
                if origin and type(out) is tuple:
                    counts["nodes_taken"] += len(origin[0].children[out[0]])
                else:
                    counts["nodes_keyed"] += len(out)
                return out

            return canonical_tree(model, root, counted_edges, *origin)

        transforms.canonical_tree = canonical_tree_counted
    start = time.perf_counter()
    chain = gm.reduce_to_direct(mech, f)
    seconds = time.perf_counter() - start
    record = repr([(s.transform, s.fingerprint, s.preserving) for s in chain.steps])
    out = {"steps": len(chain.steps),
           "digest": hashlib.sha256(record.encode()).hexdigest()[:16]}
    if count:
        kinds = chain.counts()
        out["counts"] = counts
        out["calls_per_step"] = {kind: counts[name] / kinds[kind] if kinds[kind] else None
                                 for kind, name in PROBES.items()}
    else:
        out["seconds"] = seconds
    return out


def measure(tree, n, m, count=False):
    """``reduce_once`` in a fresh process importing ``tree``'s package."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    argv = [sys.executable, "-B", __file__, "--child", str(n), str(m)]
    if count:
        argv.append("--count")
    done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="root of the checkout to compare with")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default=str(ROOT / "BENCH_reduce.json"))
    ap.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    ap.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(reduce_once(*args.child, args.count)))
        return
    trees = {"change": ROOT}
    if args.parent:
        trees = {"parent": Path(args.parent).resolve(), "change": ROOT}
    result = {
        "command": "python tests/bench_reduce.py"
                   + (" --parent DIR" if args.parent else "") + f" --runs {args.runs}",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "runs": args.runs,
        "auctions": {},
    }
    for n, m in AUCTIONS:
        seconds = {label: [] for label in trees}
        chains = set()
        for r in range(args.runs):
            for label in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                got = measure(trees[label], n, m)
                seconds[label].append(got["seconds"])
                chains.add((got["steps"], got["digest"]))
        row = {}
        for label, tree in trees.items():
            got = measure(tree, n, m, count=True)
            chains.add((got["steps"], got["digest"]))
            row[label] = {"seconds_median": statistics.median(seconds[label]),
                          "seconds": seconds[label],
                          "coalesce_ready_per_coalesce": got["calls_per_step"]["coalesce"],
                          "calls_per_step": got["calls_per_step"], "counts": got["counts"]}
        assert len(chains) == 1, (n, m, chains)
        (steps, digest), = chains
        entry = {"steps": steps, "chain_digest": digest, **row}
        if args.parent:
            entry["parent_over_change_median"] = (row["parent"]["seconds_median"]
                                                  / row["change"]["seconds_median"])
        result["auctions"][f"{n}x{m}"] = entry
        print(f"({n},{m}) {steps} steps: " + "; ".join(
            f"{label} {r['seconds_median']:.2f} s, "
            f"{r['coalesce_ready_per_coalesce']:.1f} coalesce_ready per coalesce, {r['counts']}"
            for label, r in row.items()))
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
