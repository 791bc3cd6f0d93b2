import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import gradualmech as gm
from gradualmech.cli import main

CORPUS_SEED = 418043
N_RANDOM = 200
# Documented subset of three-agent priority structures used by the heavy
# corpus-wide checks: every seventh structure in lexicographic order plus the
# last one, 32 in total.  The plain incentive checks run on all 216.
RDA3_SUBSET_RULE = "lexicographic stride 7, plus the final structure"
# Of those, the reductions whose every probed mechanism the rewrite oracles
# check in the suite; the script modes check all.
RDA3_PROBE_STRIDE = 4


def run_argv(argv, text):
    """Exit code, stdout and stderr of one in-process CLI call reading
    ``text`` on stdin."""
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def rda3_subset():
    prs = gm.all_priority_structures(3)
    picked = prs[::7]
    if prs[-1] not in picked:
        picked.append(prs[-1])
    return picked


def make_gstar_instances():
    out = {}
    for (n, m) in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        model, f = gm.second_price_scf(n, m)
        out[(n, m)] = (gm.build_gstar(n, m), model, f)
    return out


def make_rda_instances():
    out = []
    for pr in gm.all_priority_structures(2):
        model, f = gm.ttc_scf(pr, 2)
        out.append((f"rda2-{pr}", gm.build_rda(pr, 2), model, f))
    for pr in rda3_subset():
        model, f = gm.ttc_scf(pr, 3)
        out.append((f"rda3-{pr}", gm.build_rda(pr, 3), model, f))
    return out


def make_random_corpus():
    rng = random.Random(CORPUS_SEED)
    out = []
    for k in range(N_RANDOM):
        mech, f, model, tag, applied = gm.random_transformed_mechanism(rng)
        out.append((f"random-{k}-{tag}", mech, model, f))
    return out


def make_full_corpus(voting, sd_pair, gstar_instances, rda_instances, random_corpus):
    """The acceptance corpus: named (mechanism, model, f) triples."""
    model_v, f_v, mechs = voting
    out = [(f"voting-{k}", m, model_v, f_v) for k, m in mechs.items()]
    good, bad, model_sd, f_sd = sd_pair
    out += [("sd-good", good, model_sd, f_sd), ("sd-bad", bad, model_sd, f_sd)]
    for (n, m), (g, model_a, f_a) in gstar_instances.items():
        out.append((f"gstar-{n}-{m}", g, model_a, f_a))
    model22, f22 = gm.second_price_scf(2, 2)
    out.append(("example1", gm.example1_mechanism(), model22, f22))
    base, ill = gm.example2_base_and_illumination()
    model32, f32 = gm.second_price_scf(3, 2)
    out.append(("example2-base", base, model32, f32))
    out.append(("example2-ill", gm.apply_illuminate(base, ill), model32, f32))
    out += rda_instances
    out += random_corpus
    return out


def build_full_corpus():
    """``full_corpus`` outside pytest, for the tests' script modes."""
    return make_full_corpus(gm.voting_examples(), gm.serial_dictatorship_pair(),
                            make_gstar_instances(), make_rda_instances(),
                            make_random_corpus())


def reduction_probes(corpus, rda3_stride=1):
    """(name, mechanism, kinds) for every mechanism at which a reduction of
    a corpus entry looks for a rewrite, with the kinds it looks for there,
    in chain order.  Of the ``rda3-*`` entries only every ``rda3_stride``-th
    is reduced.  A reduction takes the fingerprint of its input and of each
    step's result once, in chain order, so the mechanisms are recorded by
    wrapping ``Mechanism.fingerprint`` for the length of each reduction.
    The kinds follow from the chain: a reduction looks for a split until it
    finds none, then, while the mechanism is not static, for a coalesce,
    and for a merge where it finds no coalesce."""
    out = []
    real = gm.Mechanism.fingerprint
    rda3 = [entry for entry in corpus if entry[0].startswith("rda3-")]
    picked = [entry for entry in corpus if not entry[0].startswith("rda3-")]
    picked += rda3[::rda3_stride]
    for name, mech, model, f in picked:
        seen = []

        def recorded(m):
            seen.append(m)
            return real(m)

        try:
            gm.Mechanism.fingerprint = recorded
            chain = gm.reduce_to_direct(mech, f)
        finally:
            gm.Mechanism.fingerprint = real
        assert len(seen) == len(chain.steps) + 1, name
        splitting = True
        for current, step in zip(seen, chain.steps + [None]):
            kinds = ["split"] if splitting else []
            if step is None or not isinstance(step.transform, gm.Split):
                splitting = False
                if not gm.is_static(current):
                    kinds.append("coalesce")
                    if step is not None and isinstance(step.transform, gm.Merge):
                        kinds.append("merge")
            if kinds:
                out.append((name, current, kinds))
    return out


@pytest.fixture(scope="session")
def voting():
    model, f, mechs = gm.voting_examples()
    return model, f, mechs


@pytest.fixture(scope="session")
def sd_pair():
    return gm.serial_dictatorship_pair()


@pytest.fixture(scope="session")
def gstar_instances():
    return make_gstar_instances()


@pytest.fixture(scope="session")
def rda_instances():
    return make_rda_instances()


@pytest.fixture(scope="session")
def random_corpus():
    return make_random_corpus()


@pytest.fixture(scope="session")
def full_corpus(voting, sd_pair, gstar_instances, rda_instances, random_corpus):
    """The acceptance corpus: named (mechanism, model, f) triples."""
    return make_full_corpus(voting, sd_pair, gstar_instances, rda_instances,
                            random_corpus)


@pytest.fixture(scope="session")
def corpus_probes(full_corpus):
    """``reduction_probes`` of the acceptance corpus, every fourth rda3
    entry reduced."""
    return reduction_probes(full_corpus, rda3_stride=RDA3_PROBE_STRIDE)
