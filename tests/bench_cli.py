"""Time whole CLI commands, each in a fresh process, on this tree and, side
by side, on another checkout.

Usage, from the repository root::

    python tests/bench_cli.py [--parent DIR] [--runs 5] [--out BENCH_cli.json]

``DIR`` is the root of another checkout, for example the parent commit
unpacked with ``git archive``; without it only this tree is measured.  Each
measurement is one ``python -B -m gradualmech.cli`` process importing the
measured tree's ``src``, timed from start to exit, so it includes the
interpreter's start and the package's import.  Each ``gen`` command writes
its document to a temporary file, and the commands after it read the
document its own tree wrote.  Per command the runs alternate between the
trees, the parent first on even runs.

Per command and tree the script records the median and every run's
seconds, and the child's peak resident set size (``ru_maxrss`` from
``os.wait4``).  It checks that every run of a command, on both trees, gives
the same exit code, the same stdout and, for ``gen``, the same document,
and records their sha256 digests.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Per document: the command that generates it, then the commands that read it.
PIPELINES = {
    "ttc4": (["gen", "ttc", "--n", "4"], [["check-ic"], ["check-irp"], ["check-sp"]]),
    "auction54": (["gen", "auction", "--n", "5", "--m", "4"], [["check-irp"]]),
    "random0": (["gen", "random", "--seed", "0"], [["reduce", "--json"]]),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_cli(tree, argv, stdout_path):
    """Run the CLI of ``tree`` once; return (seconds, exit code, stdout
    bytes, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"))
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-B", "-m", "gradualmech.cli", *argv],
                                env=env, stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (seconds, proc.returncode, Path(stdout_path).read_bytes(),
            usage.ru_maxrss / 1024)


def measure(trees, argv_of, runs, tmp, output_of=None):
    """Time one command ``runs`` times per tree.  ``argv_of(label)`` gives
    the tree's argv; ``output_of(label)``, if given, the document it writes."""
    rows = {label: {"seconds": [], "maxrss_mb": []} for label in trees}
    seen = set()
    for r in range(runs):
        for label in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
            seconds, code, out, rss = run_cli(trees[label], argv_of(label),
                                              Path(tmp) / "stdout")
            rows[label]["seconds"].append(seconds)
            rows[label]["maxrss_mb"].append(rss)
            written = sha256(Path(output_of(label)).read_bytes()) if output_of else None
            seen.add((code, sha256(out), written))
    assert len(seen) == 1, (argv_of("change"), seen)
    (code, out_digest, written), = seen
    entry = {"exit": code, "stdout_sha256": out_digest}
    if written:
        entry["output_sha256"] = written
    for label, row in rows.items():
        entry[label] = {"seconds_median": statistics.median(row["seconds"]),
                        "maxrss_mb_median": statistics.median(row["maxrss_mb"]), **row}
    if "parent" in trees:
        entry["parent_over_change_median"] = (entry["parent"]["seconds_median"]
                                              / entry["change"]["seconds_median"])
    return entry


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="root of the checkout to compare with")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default=str(ROOT / "BENCH_cli.json"))
    args = ap.parse_args(argv)
    trees = {"change": ROOT}
    if args.parent:
        trees = {"parent": Path(args.parent).resolve(), "change": ROOT}
    result = {
        "command": "python tests/bench_cli.py"
                   + (" --parent DIR" if args.parent else "") + f" --runs {args.runs}",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "runs": args.runs,
        "commands": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, (gen, readers) in PIPELINES.items():
            def doc(label):
                return str(Path(tmp) / f"{label}-{name}.json")

            jobs = [(" ".join(gen), lambda label: [*gen, "-o", doc(label)], doc)]
            jobs += [(f"{' '.join(cmd)} <{' '.join(gen)}>",
                      lambda label, cmd=cmd: [*cmd, doc(label)], None) for cmd in readers]
            for key, argv_of, output_of in jobs:
                entry = measure(trees, argv_of, args.runs, tmp, output_of)
                result["commands"][key] = entry
                print(f"{key}: exit {entry['exit']}; " + "; ".join(
                    f"{label} {entry[label]['seconds_median']:.2f} s, "
                    f"{entry[label]['maxrss_mb_median']:.0f} MB" for label in trees),
                    flush=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
