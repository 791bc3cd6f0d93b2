"""Record the expected output of every op the workloads run.

    python3 perfbench/record.py [--workload NAME ...]

Runs every key of a workload once through ``cli.main`` in process and writes
``expected/<workload>.json``: per step its argv, the sha256 of its input
document, its exit code and the length and sha256 of its stdout.

Before writing, the records are cross-checked against answers known
independently of the code under test; a failed check writes nothing.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import sys
import time

from run import ROOT, import_package, run_steps
from workloads import EXPECTED_DIR, WORKLOADS

BRUTE_FORCE_LIMIT = 10_000


def record(cli, workload):
    """Run every key's ops once; return (step records, the input document
    of each step)."""
    steps, inputs = {}, {}
    for key in workload.keys():
        for op in workload.ops(key):
            results = run_steps(cli, [(list(s.argv), s.stdin, None) for s in op])
            for step, (code, out) in zip(op, results):
                doc = results[0][1] if step.stdin is None else step.stdin
                data = out.encode()
                steps[step.name] = {
                    "argv": list(step.argv),
                    "stdin_sha256": hashlib.sha256(doc.encode()).hexdigest(),
                    "exit": code,
                    "stdout_bytes": len(data),
                    "stdout_sha256": hashlib.sha256(data).hexdigest(),
                }
                inputs[step.name] = doc
    return steps, inputs


class CrossCheck:
    """Independent answers the records must agree with."""

    def __init__(self, gm, cli, name, steps, inputs):
        self.gm, self.cli, self.name = gm, cli, name
        self.steps, self.inputs = steps, inputs
        self.problems = []
        self.counts = collections.Counter()

    def expect(self, ok, what):
        self.counts[what] += 1
        if not ok:
            self.problems.append(what)

    def by_document(self):
        """{input sha256: {verb: exit}} over the check and reduce steps."""
        out = collections.defaultdict(dict)
        for rec in self.steps.values():
            verb = " ".join(a for a in rec["argv"] if a.startswith("check") or a in
                            ("--relaxed", "reduce"))
            out[rec["stdin_sha256"]][verb] = rec["exit"]
        return out

    def run(self):
        for rec in self.steps.values():
            self.expect(rec["exit"] in (0, 1), "every step runs (exit 0 or 1)")
        for verbs in self.by_document().values():
            ic = verbs.get("check-ic")
            for rp in ("check-rp", "check-rp --relaxed"):
                if ic is not None and rp in verbs:
                    self.expect(verbs[rp] == ic, f"IC equals {rp[6:]}")
            if verbs.get("check-irp") == 0 and ic is not None:
                self.expect(ic == 0, "IRP implies IC")
        getattr(self, "known_" + self.name.replace("-", "_"))()
        self.brute_force()
        return self.problems

    def exits(self, suffix, prefix=""):
        return {n: r["exit"] for n, r in self.steps.items()
                if n.endswith(suffix) and n.startswith(prefix)}

    def known_ttc_pipeline(self):
        for name, code in self.exits("/check-ic").items():
            self.expect(code == 0, "staged trading mechanisms pass IC")

    def known_check_auction(self):
        for name, rec in self.steps.items():
            if "/ill" not in name:
                self.expect(rec["exit"] == 0, "pooled auctions pass every check")
            elif name.endswith(("/check-ic", "/check-ill")):
                self.expect(rec["exit"] == 1,
                            "illuminations of pooled auctions break incentives")
        from gradualmech.fileformat import serialize_mechanism
        model, f = self.gm.second_price_scf(2, 2)
        example1 = serialize_mechanism(self.gm.example1_mechanism(), f)
        self.expect(self.cli_exit(["check-ic", "-"], example1) == 1,
                    "example1 fails IC")

    def known_reduce_corpus(self):
        from gradualmech.fileformat import load_mechanism
        for name, code in self.exits("/reduce").items():
            mech, _, f = load_mechanism(self.inputs[name], require_scf=True)
            self.expect((code == 0) == self.gm.is_ic(mech, f).holds,
                        "theorem1_verdict equals is_ic")
            if name.startswith(("gstar-", "rda3-", "sd-good")):
                self.expect(code == 0, "auctions, trading and sd good pass IC")
        self.expect(self.exits("/reduce", "sd-bad")["sd-bad/reduce"] == 1,
                    "sd bad fails IC")
        _, sd_bad = self.cli_steps([["gen", "sd", "--which", "bad"], ["check-ic", "-"]])
        self.expect(sd_bad == 1, "sd bad fails IC")

    def cli_exit(self, argv, doc):
        return run_steps(self.cli, [(argv, doc, None)])[0][0]

    def cli_steps(self, argvs):
        plan = [(argvs[0], "", None)] + [(a, None, None) for a in argvs[1:]]
        return [code for code, _ in run_steps(self.cli, plan)]

    def brute_force(self):
        """tests/oracles.py brute_force_ic against the recorded exit code of
        every check-ic and reduce step whose input document has a joint
        strategy space small enough."""
        sys.path.insert(0, str(ROOT / "tests"))
        from oracles import brute_force_ic
        from gradualmech.fileformat import load_mechanism
        verdicts = {}
        for name, rec in sorted(self.steps.items()):
            if rec["argv"][0] not in ("check-ic", "reduce"):
                continue
            doc_id = rec["stdin_sha256"]
            if doc_id not in verdicts:
                mech, _, f = load_mechanism(self.inputs[name], require_scf=True)
                small = self.gm.strategy_space_size(mech) <= BRUTE_FORCE_LIMIT
                verdicts[doc_id] = brute_force_ic(mech, f) if small else None
            if verdicts[doc_id] is not None:
                self.expect((rec["exit"] == 0) == verdicts[doc_id],
                            f"brute_force_ic agrees with {rec['argv'][0]}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="*", choices=list(WORKLOADS),
                   default=list(WORKLOADS))
    args = p.parse_args(argv)
    gm, cli = import_package()
    status = 0
    for name in args.workload:
        t0 = time.perf_counter()
        workload = WORKLOADS[name](gm)
        steps, inputs = record(cli, workload)
        check = CrossCheck(gm, cli, name, steps, inputs)
        problems = check.run()
        print(f"{name}: {len(steps)} steps in "
              f"{time.perf_counter() - t0:.1f} s; cross-checks: "
              + ", ".join(f"{what} x{n}" for what, n in sorted(check.counts.items())))
        if problems:
            print(f"{name}: cross-check failed: {collections.Counter(problems)}",
                  file=sys.stderr)
            status = 1
            continue
        doc = {"format": "perfbench-expected/1", "workload": name, "steps": steps}
        with open(EXPECTED_DIR / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
