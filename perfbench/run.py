"""End-to-end benchmark of the gradualmech command line.

    python3 perfbench/run.py --workload ttc-pipeline --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from ``src/`` next to this
directory.  A run is one process, one client and a closed loop: each op
calls ``gradualmech.cli.main(argv)`` in process with its document on a
swapped stdin and stdout captured, so the timing covers the CLI's own path
(parse, validate, verdict, witness text, exit code) without process
start-up.  Whole rounds of the workload's ops, each round in its own order
drawn from the seed, run until ``--seconds`` have passed and at least 100
ops have run; every step's exit code and stdout bytes are compared with the
outputs recorded in ``expected/``.

Every op starts after a full garbage collection, as it would in a fresh
CLI process.  The timed metrics are scaled to a fixed host speed, read off a
reference loop timed after every op and every 20 ms inside ops and set-ups
(see ``speed.py``); the text lines before the result also give the op
latencies unscaled.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
untraced and one traced, prints the per-layer metrics and writes the spans
to ``out/``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all`` runs
every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
# At least ten latencies lie beyond op_p90_ms.
MIN_OPS = 100

sys.path.insert(0, str(HERE))
from speed import REFERENCE_S, SpeedLog  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, load_expected  # noqa: E402

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_package(fresh=False):
    """Import gradualmech from the checkout's ``src/``; return the package
    and its CLI module.  ``fresh`` drops loaded package modules first, so
    the import runs again."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    if fresh:
        for name in [m for m in sys.modules
                     if m == "gradualmech" or m.startswith("gradualmech.")]:
            del sys.modules[name]
    gm = importlib.import_module("gradualmech")
    cli = importlib.import_module("gradualmech.cli")
    if not Path(gm.__file__).resolve().is_relative_to(src):
        raise ImportError(f"gradualmech imported from {gm.__file__}, not from {src}")
    return gm, cli


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(ops, expected):
    """Pair each step with its recorded (exit, stdout bytes, stdout sha256).

    The record is None when the step is unknown, its argv changed, or its
    fixed input document differs from the recorded one: such a step always
    counts as failed.
    """
    records = expected["steps"]
    out = []
    for op in ops:
        steps = []
        for step in op:
            rec = records.get(step.name)
            want = None
            if (rec is not None and list(step.argv) == rec["argv"]
                    and (step.stdin is None or _sha256(step.stdin) == rec["stdin_sha256"])):
                want = (rec["exit"], rec["stdout_bytes"], rec["stdout_sha256"])
            steps.append((list(step.argv), step.stdin, want))
        out.append(steps)
    return out


def run_steps(cli, op):
    """Run an op's steps through ``cli.main``; return (exit code, stdout)
    per step.  A step with stdin None reads the first step's stdout."""
    results = []
    saved = sys.stdin, sys.stdout, sys.stderr
    try:
        for argv, stdin, _ in op:
            sys.stdin = io.StringIO(results[0][1] if stdin is None else stdin)
            sys.stdout = io.StringIO()
            sys.stderr = io.StringIO()
            code = cli.main(argv)
            results.append((code, sys.stdout.getvalue()))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return results


def matches(op, results):
    if len(results) != len(op):
        return False
    for (_, _, want), (code, out) in zip(op, results):
        data = out.encode()
        if want != (code, len(data), hashlib.sha256(data).hexdigest()):
            return False
    return True


class Record:
    """Latencies and failures of the ops run so far, and the host speed
    around them."""

    def __init__(self, speed=None):
        self.speed = speed or SpeedLog()
        self.latencies = []     # wall time less the reference loops inside
        self.spans = []         # (start, end)
        self.failed = 0
        self.first_error = None

    def _attempt(self, cli, op, op_id, tracer):
        span = tracer.open_op(op_id) if tracer else None
        try:
            return run_steps(cli, op)
        except Exception:
            if self.first_error is None:
                self.first_error = traceback.format_exc()
            return None
        finally:
            if span is not None:
                tracer.close(span)

    def run(self, cli, ops, order, tracer=None):
        """Run the ops once each, in ``order``."""
        if not self.speed.ends:
            self.speed.take()
        for op_id in order:
            op = ops[op_id]
            gc.collect()  # the op meets the collector as a fresh CLI process would
            results, t0, t1, latency = self.speed.timed(
                lambda: self._attempt(cli, op, op_id, tracer))
            self.latencies.append(latency)
            self.spans.append((t0, t1))
            if results is None or not matches(op, results):
                self.failed += 1

    def scaled_latencies(self):
        return [self.speed.scaled(t0, t1, lat)
                for (t0, t1), lat in zip(self.spans, self.latencies)]


def build_ops(gm, name, tiny=False):
    """Build a workload's documents and ops and load its expected outputs."""
    workload = WORKLOADS[name](gm, tiny)
    return prepare(workload.all_ops(), load_expected(name))


def _fresh_ops(name, tiny):
    gm, cli = import_package(fresh=True)
    return cli, build_ops(gm, name, tiny)


def setup(speed, name, tiny=False):
    """Import the package and build the ops, SETUP_REPEATS times; return the
    package's CLI module, the last ops and the median scaled set-up time."""
    times = []
    speed.take()
    for _ in range(SETUP_REPEATS):
        ops = None  # free the previous set-up's documents before timing the next
        (cli, ops), t0, t1, elapsed = speed.timed(lambda: _fresh_ops(name, tiny))
        times.append(speed.scaled(t0, t1, elapsed))
    return cli, ops, statistics.median(times)


def round_orders(n_ops, seed):
    """Endless op orders, one per round, drawn from the seed."""
    rng = random.Random(seed)
    while True:
        order = list(range(n_ops))
        rng.shuffle(order)
        yield order


def measure(cli, ops, seed, seconds, speed):
    """Closed loop over whole rounds, each in its own order, until
    ``seconds`` have passed and at least MIN_OPS ops have run."""
    rec = Record(speed)
    start = time.perf_counter()
    for order in round_orders(len(ops), seed):
        rec.run(cli, ops, order)
        if len(rec.latencies) >= MIN_OPS and time.perf_counter() - start >= seconds:
            return rec


def percentiles_ms(latencies):
    """(median, 90th percentile) in milliseconds."""
    return (statistics.median(latencies) * 1000,
            statistics.quantiles(latencies, n=10)[8] * 1000)


def end_to_end(rec, setup_s):
    """The timed metrics, all scaled to the reference speed: throughput is
    completed ops over the ops' scaled time."""
    lat = rec.scaled_latencies()
    p50, p90 = percentiles_ms(lat)
    return {
        "ops_per_s": (len(lat) - rec.failed) / sum(lat),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def traced(cli, ops, name, seed):
    """One untraced and one traced round of the same ops in the seed's
    order; return the ops' record (both rounds) and the per-layer metrics of
    the traced round."""
    rec = Record()
    order = next(round_orders(len(ops), seed))
    rec.run(cli, ops, order)
    tracer = Tracer()
    try:
        tracer.install()
        rec.run(cli, ops, order, tracer)
    finally:
        tracer.restore()
    tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz")
    lat = rec.scaled_latencies()
    overhead = sum(lat[len(order):]) / sum(lat[:len(order)])
    return rec, tracer.layer_metrics(overhead)


def run_workload(name, seed, seconds, trace, tiny=False):
    """Set up, measure and return (record, metrics as {name: (value, unit)}).
    The traced round runs without the speed sampler's timer, whose loops
    would land in the layers' self times."""
    speed = SpeedLog()
    with speed.sampling():
        cli, ops, setup_s = setup(speed, name, tiny)
        # Set-up objects leave the collector's view, so the ops' collections
        # scan only what the ops themselves allocate, as in a CLI process.
        gc.collect()
        gc.freeze()
        if not trace:
            rec = measure(cli, ops, seed, seconds, speed)
    if trace:
        rec, values = traced(cli, ops, name, seed)
        units = {metric: unit for metric, unit, _ in PER_LAYER}
    else:
        values = end_to_end(rec, setup_s)
        units = END_TO_END_UNITS
    return rec, {metric: (values[metric], unit) for metric, unit in units.items()}


def report(name, seed, rec, metrics):
    n = len(rec.latencies)
    if rec.first_error:
        print(rec.first_error, file=sys.stderr)
    print(f"workload {name}, seed {seed}: {n} ops, {rec.failed} failed")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<44} {value:>14.6g} {unit}")
    print(f"  {'error_rate':<44} {rec.failed / n:>14.6g} failed/attempted")
    p50, p90 = percentiles_ms(rec.latencies)
    ref_ms = statistics.median(rec.speed.durations) * 1000
    print(f"  unscaled: op p50 {p50:.6g} ms, op p90 {p90:.6g} ms; "
          f"reference loop median {ref_ms:.6g} ms (scaled to {REFERENCE_S * 1000:g} ms)")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": n,
        "failed": rec.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))


def run_all(args):
    """Each workload in a fresh process; exit status of the worst."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        rec, metrics = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except ImportError as e:
        print(f"error: cannot import gradualmech: {e}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, rec, metrics)
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
