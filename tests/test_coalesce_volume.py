"""``coalesce_ready`` decides whether the agent acquires information between
the two decisions by comparing box volumes; ``coalesce_ready_oracle`` builds
both sets' ``theta_minus`` and compares the sets.  On every probe the two
must agree: the verdict and the message.

The probes are every (predecessor set, set) candidate, which passes every
test but the last, and four variants of each that fail one earlier test.
The suite probes every ``full_corpus`` entry and every mechanism at which a
reduction of the corpus looks for a rewrite (of the ``rda3-*`` entries,
every fourth).  Run as a script to probe along every reduction:
``PYTHONPATH=src python tests/test_coalesce_volume.py``.
"""

import collections
import dataclasses

from gradualmech.transforms import coalesce_ready
from oracles import coalesce_candidates, coalesce_ready_oracle


def probes(mech):
    for t in coalesce_candidates(mech):
        yield t
        yield dataclasses.replace(t, infoset=len(mech.infosets))
        yield dataclasses.replace(t, target=-1)
        yield dataclasses.replace(t, action=frozenset())
        yield dataclasses.replace(t, target=t.infoset)


def check_probes(name, mech, tally):
    for t in probes(mech):
        got = coalesce_ready(mech, t)
        assert got == coalesce_ready_oracle(mech, t), (name, t, got)
        tally["ready" if got is None else got] += 1


def check_all(mechanisms):
    tally = collections.Counter()
    for name, mech in mechanisms:
        check_probes(name, mech, tally)
    # Every message occurs, and both verdicts of the last test.
    assert len(tally) == 6, tally
    return tally


def test_coalesce_ready_matches_the_oracle_on_the_corpus(full_corpus):
    check_all((name, mech) for name, mech, model, f in full_corpus)


def test_coalesce_ready_matches_the_oracle_along_the_reductions(corpus_probes):
    check_all((name, mech) for name, mech, kinds in corpus_probes)


if __name__ == "__main__":
    from conftest import build_full_corpus, reduction_probes

    entries = build_full_corpus()
    tally = check_all([(name, mech) for name, mech, model, f in entries]
                      + [(name, mech) for name, mech, kinds in reduction_probes(entries)])
    print(f"{sum(tally.values())} probes agree with the oracle: {dict(tally)}")
