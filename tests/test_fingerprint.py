"""Step keys and fingerprints.  ``build_mechanism`` checks, normalizes and
keys each distinct action profile once and hands the mechanism each node's
step number and the distinct keys as tree tables; ``fingerprint`` writes
each tree's part of its text once, each distinct key's text once in it, and
each mechanism's information sets itself.  Every fingerprint must equal
``fingerprint_oracle``, which derives the whole text per mechanism, and must
not depend on the agent order inside a step.  ``is_incentive_preserving``
looks each of its rows up in the SCF once.

The suite checks every ``full_corpus`` entry, every illumination and merge
probe of each, and each step of the reductions outside ``rda3-*``; the
counting test reduces the first rda3 structure.  Run as a script to check
every reduction: ``PYTHONPATH=src python tests/test_fingerprint.py``.
"""

import itertools

import pytest

import gradualmech as gm
from gradualmech import gameform, transforms
from oracles import fingerprint_oracle


def groups_of(mech):
    return [(s.agent, list(s.nodes)) for s in mech.infosets]


def rebuild(mech, order=tuple):
    """``mech`` built afresh from its nodes, each step's (agent, action)
    pairs passed through ``order``."""
    nodes = [(mech.parent[v], order(mech.step[v]) if mech.step[v] else None)
             for v in range(mech.n_nodes())]
    return gm.build_mechanism(mech.model, nodes, groups_of(mech), dict(mech.outcome))


def regroupings(mech):
    """Each illumination and each ready merge of ``mech``, with
    the merge's forward illumination."""
    for t in gm.iter_opportunities(mech, "illuminate"):
        try:
            yield t, gm.apply_illuminate(mech, t)
        except gm.MechanismError:
            continue
    for t in gm.iter_opportunities(mech, "merge"):
        merged, forward = gm.apply_merge(mech, t)
        yield t, merged
        yield forward, gm.apply_illuminate(merged, forward)


def check_reduction(name, mech, f):
    chain = gm.reduce_to_direct(mech, f)
    assert chain.source_fingerprint == fingerprint_oracle(mech), name
    current = mech
    for step in chain.steps:
        current = gm.apply_transformation(current, step.transform)
        assert step.fingerprint == fingerprint_oracle(current) == current.fingerprint(), \
            (name, step.transform)
    return len(chain.steps)


def test_agent_order_inside_a_step_does_not_matter(full_corpus):
    for name, mech, model, f in full_corpus:
        again = rebuild(mech, lambda step: tuple(reversed(step)))
        assert again.step == mech.step, name
        assert again.fingerprint() == mech.fingerprint() == fingerprint_oracle(again), name


def test_corpus_fingerprints_match_the_oracle(full_corpus):
    for name, mech, model, f in full_corpus:
        assert mech.fingerprint() == fingerprint_oracle(mech), name


def test_voting_fingerprints_are_pinned(voting):
    model, f, mechs = voting
    assert {name: m.fingerprint()[:16] for name, m in mechs.items()} == {
        "g1": "fcf26be242329311", "g2": "7be7d01b390c38a8",
        "g3": "464edb8a8185c953", "g4": "9188a1465bde0fed",
        "direct": "55bfa55986342298"}


def test_worked_example_fingerprints_are_pinned(sd_pair):
    """The bad serial dictatorship and Example 2's base, with the record of
    Example 2's illumination."""
    good, bad, model, f = sd_pair
    assert bad.fingerprint()[:16] == "32b3d6b97be45e63"
    base, illumination = gm.example2_base_and_illumination()
    assert base.fingerprint()[:16] == "eafa3a20a52c67bc"
    assert illumination == gm.Illuminate(2, 3, (4,), (1, 2, 3))


def test_fingerprint_joins_step_texts_at_the_edges(voting):
    """The tree's text writes each distinct step key once and joins it per
    node; the join must reproduce ``repr`` of the per-node keys for a lone
    root and for a tree whose nodes all carry one step."""
    model, f, mechs = voting
    full = model.full_type_set(0)
    lone = gm.build_mechanism(model, [(None, None)], [], {0: 0})
    assert lone.canonical_form()[1] == (None,)
    one_step = ((0, full),)
    path = gm.build_mechanism(model, [(None, None), (0, one_step), (1, one_step)],
                              [(0, [0]), (0, [1])], {2: 0})
    assert path.canonical_form()[1] == (None,) + (((0, tuple(sorted(full))),),) * 2
    child = gm.build_mechanism(model, [(None, None), (0, one_step)], [(0, [0])], {1: 0})
    for mech in (lone, path, child):
        assert mech.fingerprint() == fingerprint_oracle(mech), mech
        assert len(mech._tree["keys"]) == len(set(mech.step)), mech


def test_regrouping_fingerprints_match_the_oracle(full_corpus):
    checked = 0
    for name, mech, model, f in full_corpus:
        for t, out in regroupings(mech):
            assert out.fingerprint() == fingerprint_oracle(out), (name, t)
            checked += 1
    assert checked > 0


def test_reduction_step_fingerprints_match_the_oracle(full_corpus):
    steps = sum(check_reduction(name, mech, f) for name, mech, model, f in full_corpus
                if not name.startswith("rda3-"))
    assert steps > 0


def test_shared_tree_text_carries_no_other_information_sets(full_corpus):
    """Whichever mechanism on a tree writes the tree's text first, the
    other's fingerprint is its own."""
    checked = 0
    for name, mech, model, f in full_corpus:
        t, out = next(regroupings(mech), (None, None))
        if out is None:
            continue
        for first_source in (True, False):
            fresh = rebuild(mech)
            other = fresh.regroup(groups_of(out))
            first, second = (fresh, other) if first_source else (other, fresh)
            first.fingerprint()
            assert second.fingerprint() == fingerprint_oracle(second), (name, t)
            assert first.fingerprint() == fingerprint_oracle(first), (name, t)
            assert fresh.fingerprint() != other.fingerprint(), (name, t)
            checked += 1
    assert checked > 0


# -- machine-independent counts ------------------------------------------------


@pytest.fixture
def step_key_calls(monkeypatch):
    calls = [0]
    real = gameform.step_key

    def counted(step):
        calls[0] += 1
        return real(step)

    monkeypatch.setattr(gameform, "step_key", counted)
    return calls


def test_a_build_keys_each_distinct_step_once(full_corpus, step_key_calls):
    for name, mech, model, f in full_corpus:
        step_key_calls[0] = 0
        again = rebuild(mech)
        assert step_key_calls[0] <= len(set(mech.step) - {None}), name
        step_key_calls[0] = 0
        again.fingerprint()
        assert step_key_calls[0] == 0, name


def test_regrouping_fingerprints_key_nothing(full_corpus, step_key_calls):
    for name, mech, model, f in full_corpus:
        for t, out in itertools.islice(regroupings(mech), 8):
            step_key_calls[0] = 0
            out.fingerprint()
            assert step_key_calls[0] == 0, (name, t)


def test_reduction_keys_fewer_steps_than_it_builds_nodes(monkeypatch, step_key_calls):
    pr = gm.all_priority_structures(3)[0]
    model, f = gm.ttc_scf(pr, 3)
    mech = gm.build_rda(pr, 3)
    built = [0]
    real = transforms.canonical_tree

    # Every tree a rewrite builds comes out of one ``canonical_tree`` pass;
    # its first table, ``parent``, has one entry per node.
    def counted(*args):
        tree = real(*args)
        built[0] += len(tree[0])
        return tree

    monkeypatch.setattr(transforms, "canonical_tree", counted)
    step_key_calls[0] = 0
    gm.reduce_to_direct(mech, f)
    assert 0 < step_key_calls[0] < built[0]


class CountingScf(gm.ScfTable):
    def __init__(self, f):
        super().__init__(f.model, f.outcomes)
        self.lookups = 0

    def __getitem__(self, profile):
        self.lookups += 1
        return super().__getitem__(profile)


def acquired_count(mech, agent, nodes):
    others = [j for j in range(mech.model.n_agents) if j != agent]
    return len({rest for v in nodes
                for rest in itertools.product(*(mech.theta[v][j] for j in others))})


def test_incentive_preservation_looks_each_row_up_once(full_corpus):
    checked = 0
    for name, mech, model, f in full_corpus:
        for t in gm.iter_opportunities(mech, "merge"):
            merged, forward = gm.apply_merge(mech, t)
            counting = CountingScf(f)
            verdict = gm.is_incentive_preserving(merged, forward, counting)
            assert verdict == gm.is_incentive_preserving(merged, forward, f), (name, t)
            rows = (acquired_count(merged, forward.agent, forward.part1)
                    + acquired_count(merged, forward.agent, forward.part2))
            assert counting.lookups <= len(merged.theta_infoset(forward.infoset)) * rows, \
                (name, t)
            checked += 1
    assert checked > 0


if __name__ == "__main__":
    from conftest import build_full_corpus

    entries = build_full_corpus()
    steps = sum(check_reduction(name, mech, f) for name, mech, model, f in entries)
    print(f"{len(entries)} reductions, {steps} steps: fingerprints match the oracle")
