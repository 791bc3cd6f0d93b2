"""Split, coalesce, unsplit and uncoalesce copy their input through
``canonical_tree`` with the input as origin: the copy numbers its steps on
in the input's step table, and takes the children it keeps, with their
steps, numbers, menus and, where the parent's row is unchanged, their
``theta`` rows, from the input's tables.  ``plain_copy_oracle`` builds the
same copy with a plain pass, every node keyed afresh.  The two must agree
on every tree and partition table, ``canonical_form``, the outcomes and the
fingerprint, or raise the same error.

Every opportunity of the four kinds is applied to every ``full_corpus``
entry, to the mechanisms of ``random_transformed_mechanism`` seeds 0-199,
to each corpus entry's twin built by ``build_mechanism_oracle``, whose step
numbers, children tuples and menus come from another builder, and to every
``PROBE_STRIDE``-th mechanism at which a corpus reduction looks for a
rewrite (of the ``rda3-*`` entries, every fourth): checking every one of
those mechanisms takes about 150 s, most of it in their 36 702
uncoalesces.  Run as a script to check every mechanism of every corpus
reduction and print the counts:
``PYTHONPATH=src python tests/test_copy_origin.py``.
"""

import collections
import random

import gradualmech as gm
from gradualmech import transforms
from gradualmech.gameform import MechanismError
from oracles import plain_copy_oracle
from test_validate_rules import twin

KINDS = ("split", "coalesce", "unsplit", "uncoalesce")
PROBE_STRIDE = 16


def tables(mech):
    return (mech.parent, mech.step, mech.children, mech.terminals, mech.theta,
            mech.menus, mech.canonical_form(), mech.outcome,
            [(s.agent, s.nodes) for s in mech.infosets], mech.experience,
            mech.fingerprint())


def record(apply, mech, t):
    try:
        return tables(apply(mech, t))
    except MechanismError as e:
        return str(e)


def check(mechanisms, tally):
    """Compare the two copies for every opportunity of each kind."""
    for name, mech in mechanisms:
        for kind in KINDS:
            for t in gm.iter_opportunities(mech, kind):
                got = record(gm.apply_transformation, mech, t)
                assert got == record(plain_copy_oracle, mech, t), (name, t)
                tally[kind] += 1
    return tally


def test_copies_match_the_plain_pass_on_the_corpus(full_corpus):
    tally = check(((name, mech) for name, mech, _, _ in full_corpus),
                  collections.Counter())
    assert all(tally[kind] for kind in KINDS), tally


def test_copies_match_the_plain_pass_along_the_reductions(corpus_probes):
    tally = check(((name, mech) for name, mech, _ in corpus_probes[::PROBE_STRIDE]),
                  collections.Counter())
    assert all(tally[kind] for kind in KINDS), tally


def test_copies_match_the_plain_pass_on_random_seeds():
    mechs = ((f"seed-{seed}", gm.random_transformed_mechanism(random.Random(seed))[0])
             for seed in range(200))
    tally = check(mechs, collections.Counter())
    assert all(tally[kind] for kind in KINDS), tally


def test_copies_of_an_oracle_built_origin(full_corpus):
    """The copies of each entry's twin match the plain pass; on some twins
    the oracle numbers the steps in another order than ``canonical_tree``."""
    renumbered = 0
    for name, mech, _, _ in full_corpus:
        other = twin(mech)
        renumbered += other._tree["ids"] != mech._tree["ids"]
        check([(name, other)], collections.Counter())
    assert renumbered


def test_kept_children_take_both_theta_paths(full_corpus, monkeypatch):
    """Where a copy keeps a node's children, their rows are the origin's
    when the node's row is unchanged, and are moved where it changed:
    below a coalesced source action, before the target."""
    real, kept = transforms.canonical_tree, []

    def recorded(model, root, edges, origin):
        def seen(handle, v):
            out = edges(handle, v)
            if type(out) is tuple and origin.children[out[0]]:
                kept.append((v, out[0]))
            return out

        return real(model, root, seen, origin)

    monkeypatch.setattr(transforms, "canonical_tree", recorded)
    rows = collections.Counter()
    for name, mech, _, _ in full_corpus:
        for t in gm.iter_opportunities(mech, "coalesce"):
            out = gm.apply_coalesce(mech, t)
            for v, o in kept:
                same = out.theta[v] == mech.theta[o]
                first, c = out.children[v][0], mech.children[o][0]
                assert (out.theta[first] is mech.theta[c]) == same, (name, t, v)
                rows[same] += 1
            kept.clear()
    assert rows[True] and rows[False], rows


if __name__ == "__main__":
    from conftest import build_full_corpus, reduction_probes

    entries = build_full_corpus()
    tally = check([(name, mech) for name, mech, _, _ in entries]
                  + [(name, mech) for name, mech, _ in reduction_probes(entries)]
                  + [(f"seed-{seed}",
                      gm.random_transformed_mechanism(random.Random(seed))[0])
                     for seed in range(200)]
                  + [(name, twin(mech)) for name, mech, _, _ in entries],
                  collections.Counter())
    print(f"copies agree with the plain pass: {dict(tally)}")
