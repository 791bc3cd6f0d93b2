"""Illumination and merge keep their input's tree and node ids instead of
rebuilding it.  Every result must equal what ``build_mechanism`` makes of its
raw nodes and groups (``rebuild_oracle``): the same canonical form and
fingerprint, tables equal to ``mechanism_tables_oracle``, and a ``validate``
report equal to the single-pass ``validate_oracle``.

The suite checks at most ``ILLUMINATIONS_PER_ENTRY`` illuminations of each
``full_corpus`` entry, each applicable merge with its forward illumination,
and each step of the reduction of the entries outside ``rda3-*``.  Run as a
script to check every illumination and every reduction:
``PYTHONPATH=src python tests/test_canonical_rebuild.py``.
"""

import itertools

import gradualmech as gm
from oracles import mechanism_tables_oracle, rebuild_oracle, validate_oracle

ILLUMINATIONS_PER_ENTRY = 8


def check_rebuild(name, mech):
    order = [(s.agent, s.nodes[0]) for s in mech.infosets]
    assert order == sorted(order), name
    again = rebuild_oracle(mech)
    assert gm.mechanisms_equal(again, mech), name
    assert again.fingerprint() == mech.fingerprint(), name
    theta, experience, menus = mechanism_tables_oracle(mech)
    assert mech.theta == theta == again.theta, name
    assert mech.experience == experience == again.experience, name
    assert [frozenset(s.actions) for s in mech.infosets] == menus, name
    assert gm.validate(mech) == validate_oracle(mech) == gm.validate(again), name


def check_illuminations(name, mech, cap):
    checked = 0
    for t in itertools.islice(gm.iter_opportunities(mech, "illuminate"), cap):
        try:
            out = gm.apply_illuminate(mech, t)
        except gm.MechanismError:
            continue
        check_rebuild((name, t), out)
        checked += 1
    return checked


def check_merges(name, mech):
    checked = 0
    for t in gm.iter_opportunities(mech, "merge"):
        merged, forward = gm.apply_merge(mech, t)
        check_rebuild((name, t), merged)
        check_rebuild((name, forward), gm.apply_illuminate(merged, forward))
        checked += 1
    return checked


def check_reduction_steps(name, mech, f):
    chain = gm.reduce_to_direct(mech, f)
    current = mech
    for step in chain.steps:
        current = gm.apply_transformation(current, step.transform)
        assert current.fingerprint() == step.fingerprint, (name, step.transform)
        check_rebuild((name, step.transform), current)
    return len(chain.steps)


def test_illuminations_keep_the_canonical_tree(full_corpus):
    checked = sum(check_illuminations(name, mech, ILLUMINATIONS_PER_ENTRY)
                  for name, mech, model, f in full_corpus)
    assert checked > 0


def test_merges_keep_the_canonical_tree(full_corpus):
    checked = sum(check_merges(name, mech) for name, mech, model, f in full_corpus)
    assert checked > 0


def test_reduction_steps_are_canonical(full_corpus):
    steps = sum(check_reduction_steps(name, mech, f)
                for name, mech, model, f in full_corpus
                if not name.startswith("rda3-"))
    assert steps > 0


if __name__ == "__main__":
    from conftest import build_full_corpus

    entries = build_full_corpus()
    counts = [0, 0, 0]
    for name, mech, model, f in entries:
        counts[0] += check_illuminations(name, mech, None)
        counts[1] += check_merges(name, mech)
        counts[2] += check_reduction_steps(name, mech, f)
    print(f"{len(entries)} entries: {counts[0]} illuminations, {counts[1]} merges "
          f"and {counts[2]} reduction steps rebuild to themselves")
