"""The benchmark's workloads: which documents each one feeds the CLI, and the
ops that feed them.

An op is a tuple of steps; each step is one ``gradualmech.cli.main(argv)``
call whose standard input is either a fixed document or the op's first
step's standard output.  Every workload runs a fixed set of keys whose
expected outputs are recorded in ``expected/<workload>.json``; the seed sets
only the order in which a run goes through them.  The sets are fixed
because on a shared 2-vCPU VM the speed drifts by up to 2x within seconds,
and seed-drawn subsets would add their own spread on top of that drift.

Each round stays under ten seconds, so a run holds at least two rounds: the
workloads keep every kind of op the benchmark is meant to cover, but fewer
instances of the slow ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_DIR = HERE / "expected"

# Random documents come from fixed generator seeds, so their outputs can be
# recorded once.
POOL_SEED = 250108802


@dataclass(frozen=True)
class Step:
    name: str                 # key of the recorded output
    argv: tuple
    stdin: str | None = ""    # None: the op's first step's stdout


def _priority_spec(pr):
    return ";".join(",".join(map(str, order)) for order in pr)


class Workload:
    """Base: subclasses list their keys and turn a key into ops."""

    name = ""

    def __init__(self, gm, tiny=False):
        self.gm = gm
        self.tiny = tiny
        self._cache = {}

    def groups(self):
        """{group name: keys}."""
        raise NotImplementedError

    def ops(self, key):
        raise NotImplementedError

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def _serialize(self, mech, f):
        from gradualmech.fileformat import serialize_mechanism
        return serialize_mechanism(mech, f)

    def keys(self):
        """Every key, or the first two of each group in tiny mode."""
        return [key for keys in self.groups().values()
                for key in (keys[:2] if self.tiny else keys)]

    def all_ops(self):
        """One round: every key's ops, in key order."""
        return [op for key in self.keys() for op in self.ops(key)]


class TtcPipeline(Workload):
    """``gen ttc | check-ic - ; check-rp - ; check-irp -`` over every other
    three-agent priority structure."""

    name = "ttc-pipeline"
    STRIDE = 2

    def groups(self):
        structures = self.gm.all_priority_structures(3)[::self.STRIDE]
        return {"structures": [_priority_spec(pr) for pr in structures]}

    def ops(self, spec):
        gen = Step(f"{spec}/gen", ("gen", "ttc", "--n", "3", "--priorities", spec))
        checks = tuple(Step(f"{spec}/{verb}", (verb, "-"), None)
                       for verb in ("check-ic", "check-rp", "check-irp"))
        return [(gen,) + checks]


CHECKS = {
    "check-ic": ("check-ic", "-"),
    "check-rp": ("check-rp", "-"),
    "check-rp-relaxed": ("check-rp", "--relaxed", "-"),
    "check-irp": ("check-irp", "-"),
}


class CheckAuction(Workload):
    """One check of one pooled ascending auction per op: full scans on the
    auctions themselves, early exits on illuminations of them."""

    name = "check-auction"
    # The IC scan of (5,4) takes 4-5 s and the RP scans of (4,5) and (5,4)
    # 2-14 s each, too long for a round; (5,4) keeps its IRP check, (4,5)
    # its IC and IRP checks.
    PASSING = {
        (4, 4): ("check-ic", "check-rp", "check-rp-relaxed", "check-irp"),
        (5, 3): ("check-ic", "check-rp", "check-rp-relaxed", "check-irp"),
        (4, 5): ("check-ic", "check-irp"),
        (5, 4): ("check-irp",),
    }
    # Failing checks on (4,5) and (5,4) illuminations take 0.3-6 s each, so
    # the illuminations come from the two smaller auctions.
    FAILING_FROM = ((4, 4), (5, 3))
    ILLUMINATIONS = 3

    def _auction(self, n, m):
        def make():
            g = self.gm.build_gstar(n, m)
            _, f = self.gm.second_price_scf(n, m)
            return g, f, self._serialize(g, f)
        return self._memo(("auction", n, m), make)

    def _candidates(self, n, m):
        g, _, _ = self._auction(n, m)
        return self.gm.find_opportunities(g, "illuminate")

    def groups(self):
        out = {"passing": [f"gstar-{n}-{m}" for n, m in self.PASSING]}
        for n, m in self.FAILING_FROM:
            count = len(self._candidates(n, m))
            rng = random.Random(POOL_SEED + 10 * n + m)
            picked = sorted(rng.sample(range(count), self.ILLUMINATIONS))
            out[f"illuminations-{n}-{m}"] = [f"gstar-{n}-{m}/ill{j}" for j in picked]
        return out

    def ops(self, key):
        auction, _, ill = key.partition("/")
        n, m = (int(x) for x in auction.split("-")[1:])
        g, f, base = self._auction(n, m)
        if not ill:
            return [(Step(f"{key}/{check}", CHECKS[check], base),)
                    for check in self.PASSING[(n, m)]]
        t = self._candidates(n, m)[int(ill[3:])]
        doc = self._serialize(self.gm.apply_illuminate(g, t), f)
        ops = [(Step(f"{key}/{check}", CHECKS[check], doc),)
               for check in ("check-ic", "check-rp", "check-irp")]
        argv = ("check-ill", "-", "--agent", g.model.agent_names[t.agent],
                "--infoset", str(t.infoset),
                "--part", ",".join(map(str, t.part1)))
        ops.append((Step(f"{key}/check-ill", argv, base),))
        return ops


class ReduceCorpus(Workload):
    """``reduce --json -`` on random transformed mechanisms, staged trading
    mechanisms and the fixed examples."""

    name = "reduce-corpus"
    # Random mechanisms are nine in ten of the ops, so op_p90_ms falls
    # inside their population rather than at its slowest few.
    RANDOM = 300
    # Each trading reduction takes 1-2 s: every 72nd structure (3 of 216).
    TRADING_STRIDE = 72
    # The (4,3) auction's reduction alone takes about 3 s.
    AUCTIONS = ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4))

    def groups(self):
        voting = sorted(self._voting()[2])
        fixed = ([f"voting-{k}" for k in voting] + ["sd-good", "sd-bad"]
                 + [f"gstar-{n}-{m}" for n, m in self.AUCTIONS])
        structures = self.gm.all_priority_structures(3)[::self.TRADING_STRIDE]
        return {
            "random": [f"random-{k}" for k in range(self.RANDOM)],
            "trading": [f"rda3-{_priority_spec(pr)}" for pr in structures],
            "fixed": fixed,
        }

    def _voting(self):
        return self._memo("voting", self.gm.voting_examples)

    def document(self, key):
        gm = self.gm
        kind, _, rest = key.partition("-")
        if kind == "random":
            rng = random.Random(POOL_SEED + int(rest))
            mech, f, _, _, _ = gm.random_transformed_mechanism(rng)
        elif kind == "rda3":
            pr = tuple(tuple(int(x) for x in order.split(","))
                       for order in rest.split(";"))
            mech, (_, f) = gm.build_rda(pr, 3), gm.ttc_scf(pr, 3)
        elif kind == "voting":
            _, f, mechs = self._voting()
            mech = mechs[rest]
        elif kind == "sd":
            good, bad, _, f = self._memo("sd", gm.serial_dictatorship_pair)
            mech = good if rest == "good" else bad
        elif kind == "gstar":
            n, m = (int(x) for x in rest.split("-"))
            mech, (_, f) = gm.build_gstar(n, m), gm.second_price_scf(n, m)
        else:
            raise ValueError(f"unknown corpus key {key!r}")
        return self._serialize(mech, f)

    def ops(self, key):
        return [(Step(f"{key}/reduce", ("reduce", "--json", "-"),
                      self.document(key)),)]


WORKLOADS = {w.name: w for w in (TtcPipeline, CheckAuction, ReduceCorpus)}


def load_expected(name):
    with open(EXPECTED_DIR / f"{name}.json") as fh:
        return json.load(fh)
