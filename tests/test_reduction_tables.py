"""The tables ``reduce_to_direct`` carries from step to step, against the
rescans they replace.

The reduction keeps which sets offer no split, which sets no coalesce takes
and which merges are refused, and probes again only what a step can change;
a merge reads its result's conflict tables off its input's
(``Mechanism.unite``).  ``reduce_chain_oracle`` probes every candidate after
every step.  The suite compares the two chains on every other ``rda3-*``
entry of ``full_corpus`` (``tests/test_reduction_oracles.py`` compares the
other entries), the (3,3), (4,4) and (5,3) auctions and every tenth
``random_transformed_mechanism`` seed, checks each carried conflict table
against one built afresh, and pins the probes of the (4,4) chain, so that a
return to rescanning fails.  Run as a script to compare all of
``full_corpus``, seeds 0-1999 and the (4,5) and (5,4) auctions as well::

    PYTHONPATH=src python tests/test_reduction_tables.py
"""

import random

import gradualmech as gm
from gradualmech import transforms
from oracles import reduce_chain_oracle

SUITE_AUCTIONS = ((3, 3), (4, 4), (5, 3))
SCRIPT_AUCTIONS = ((4, 5), (5, 4))
SUITE_SEEDS = range(0, 2000, 10)
SCRIPT_SEEDS = range(2000)


def chain_record(chain):
    return ([(s.transform, s.fingerprint, s.preserving) for s in chain.steps],
            chain.source_fingerprint, chain.final.canonical_form())


def check_chain(name, mech, f):
    expected, _ = reduce_chain_oracle(mech, f)
    assert chain_record(gm.reduce_to_direct(mech, f)) == chain_record(expected), name


def auction(n, m):
    return gm.build_gstar(n, m), gm.second_price_scf(n, m)[1]


def random_mechanism(seed):
    mech, f, *_ = gm.random_transformed_mechanism(random.Random(seed))
    return mech, f


def check_carried_conflicts(name, mech, f):
    """Replay the chain; before each merge build every terminal's conflict
    masks, then compare the merged mechanism's carried tables with those a
    plain regrouping of it builds.  Return the number of merges."""
    merges = 0
    for step in gm.reduce_to_direct(mech, f).steps:
        if isinstance(step.transform, gm.Merge):
            for z in mech.terminals:
                mech.conflict_masks(z)
            merged, _ = gm.apply_merge(mech, step.transform)
            fresh = merged.regroup([(s.agent, s.nodes) for s in merged.infosets])
            assert merged._other_action == fresh._other_action_masks(), (name, step)
            for z in mech.terminals:
                assert merged._conflict_masks[z] == fresh.conflict_masks(z), (name, step, z)
            mech = merged
            merges += 1
        else:
            mech = gm.apply_transformation(mech, step.transform)
    return merges


def test_reduction_matches_the_rescan_on_the_trading_corpus(full_corpus):
    """Every other ``rda3-*`` entry; ``tests/test_reduction_oracles.py``
    compares the rest of ``full_corpus``."""
    rda3 = [entry for entry in full_corpus if entry[0].startswith("rda3-")]
    for name, mech, model, f in rda3[::2]:
        check_chain(name, mech, f)


def test_reduction_matches_the_rescan_on_the_auctions():
    for n, m in SUITE_AUCTIONS:
        check_chain((n, m), *auction(n, m))


def test_reduction_matches_the_rescan_on_random_mechanisms():
    for seed in SUITE_SEEDS:
        check_chain(seed, *random_mechanism(seed))


def test_merges_carry_the_conflict_tables(full_corpus):
    entries = [(name, mech, f) for name, mech, model, f in full_corpus
               if not name.startswith("rda3-")]
    entries.append(("gstar-4-4", *auction(4, 4)))
    assert sum(check_carried_conflicts(*entry) for entry in entries) > 0


def test_the_four_by_four_chain_probes_only_what_its_steps_change(monkeypatch):
    """The rescanning loop made 10 821 ``coalesce_ready`` calls and 659
    ``merge_ready`` probes (each merge then decided once more) on this chain
    of 36 splits, 53 coalesces and 117 merges; ``_split_terminals`` ran once
    per set it passed, every step."""
    counts = dict.fromkeys(("_split_terminals", "coalesce_ready", "_merge_classes"), 0)
    for name in counts:
        real = getattr(transforms, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(transforms, name, counted)
    chain = gm.reduce_to_direct(*auction(4, 4))
    assert chain.counts() == {"split": 36, "coalesce": 53, "merge": 117}
    assert counts == {"_split_terminals": 89, "coalesce_ready": 287, "_merge_classes": 562}


if __name__ == "__main__":
    from conftest import build_full_corpus

    entries = [(name, mech, f) for name, mech, model, f in build_full_corpus()]
    entries += [((n, m), *auction(n, m)) for n, m in SUITE_AUCTIONS + SCRIPT_AUCTIONS]
    entries += [(seed, *random_mechanism(seed)) for seed in SCRIPT_SEEDS]
    for entry in entries:
        check_chain(*entry)
    print(f"{len(entries)} reductions agree with the rescanning oracle")
