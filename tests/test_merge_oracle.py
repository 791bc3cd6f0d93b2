"""``merge_ready`` and ``apply_merge`` decide a merge from the agent's
experience chains before anything is built.  ``apply_merge_oracle`` builds
the regrouping, validates it and illuminates it again.  On every probe the
two must agree: accept or reject, the rejection message, the merged
mechanism's fingerprint and the forward ``Illuminate``.

One difference is allowed: after ``merge: result is not a valid
mechanism:`` the oracle quotes ``validate``'s report on the regrouping,
which names the united set by its index there, while ``apply_merge`` names
no index.  Both must say that perfect recall fails.

The suite probes every ordered pair of one agent's sets, equal pairs
included, of every ``full_corpus`` entry.  ``iter_opportunities`` probes
only pairs with one menu and one chain; it must yield what the all-pairs
scan ``merge_opportunities_oracle`` yields, on the corpus and on every
mechanism at which a reduction of the corpus looks for a merge (of the
``rda3-*`` entries, every fourth).  Run as a script to probe, in addition,
every such mechanism of every reduction with both:
``PYTHONPATH=src python tests/test_merge_oracle.py``.
"""

import collections
import itertools

import gradualmech as gm
from gradualmech.transforms import Merge, merge_ready
from oracles import apply_merge_oracle, merge_opportunities_oracle

INVALID = "merge: result is not a valid mechanism: "
RECALL = "members violate perfect recall"


def probes(mech):
    for i in range(mech.model.n_agents):
        for first, second in itertools.product(mech.agent_infosets(i), repeat=2):
            yield Merge(i, first, second)


def same_rejection(got, want):
    if want.startswith(INVALID):
        return got.startswith(INVALID) and got.endswith(RECALL) and want.endswith(RECALL)
    return got == want


def check_probes(name, mech, tally):
    """Compare every probe of ``mech`` with the oracle; count each outcome
    in ``tally`` by its message, or "accepted"."""
    for t in probes(mech):
        try:
            want = apply_merge_oracle(mech, t)
        except gm.MechanismError as e:
            want = str(e)
        problem = merge_ready(mech, t)
        try:
            got = gm.apply_merge(mech, t)
        except gm.MechanismError as e:
            got = str(e)
        if isinstance(want, str):
            assert isinstance(got, str) and got == problem, (name, t, got)
            assert same_rejection(got, want), (name, t, got, want)
            tally[want.split(":")[1].strip()] += 1
        else:
            assert problem is None, (name, t, problem)
            (merged, forward), (merged_o, forward_o) = got, want
            assert forward == forward_o, (name, t)
            assert merged.fingerprint() == merged_o.fingerprint(), (name, t)
            assert gm.mechanisms_equal(merged, merged_o), (name, t)
            tally["accepted"] += 1


def test_merge_decision_matches_the_oracle(full_corpus):
    tally = collections.Counter()
    for name, mech, model, f in full_corpus:
        check_probes(name, mech, tally)
    # Every kind of verdict occurs, the round trip included.
    assert set(tally) == {"no such pair of distinct information sets for that agent",
                          "the two sets offer different action menus",
                          "result is not a valid mechanism",
                          "illuminating the result does not reproduce the original",
                          "accepted"}, tally


def test_iter_opportunities_yields_the_ready_merges(full_corpus, corpus_probes):
    """On every corpus entry, and on every mechanism at which a reduction of
    the corpus looks for a merge, where merges actually occur."""
    mechanisms = [(name, mech) for name, mech, model, f in full_corpus]
    mechanisms += [(name, mech) for name, mech, kinds in corpus_probes if "merge" in kinds]
    ready = 0
    for name, mech in mechanisms:
        found = list(gm.iter_opportunities(mech, "merge"))
        assert found == merge_opportunities_oracle(mech), name
        ready += len(found)
    assert ready > 0


if __name__ == "__main__":
    from conftest import build_full_corpus, reduction_probes

    tally = collections.Counter()
    entries = build_full_corpus()
    for name, mech, model, f in entries:
        check_probes(name, mech, tally)
    for name, mech, kinds in reduction_probes(entries):
        if "merge" in kinds:
            check_probes(name, mech, tally)
            assert list(gm.iter_opportunities(mech, "merge")) == \
                merge_opportunities_oracle(mech), name
    print(f"{sum(tally.values())} probes agree with the oracle: {dict(tally)}")
