"""Split, coalesce, unsplit and uncoalesce copy the input's tree through
``canonical_tree``; each is compared here with the raw-list rewrite it
replaced (``tests/oracles.py``), which numbers its nodes with
``build_mechanism``.  Every opportunity of each kind is applied to every
``full_corpus`` entry, to the mechanisms of a stride of
``random_transformed_mechanism`` seeds and to one fixed mechanism whose
coalesce targets have another mover; results must agree on the
fingerprint, the per-node tables, the outcomes and the ``validate`` report,
or raise the same error.

Run as a script to print the number of rewrites compared per kind:
``PYTHONPATH=src python tests/test_rewrite_oracles.py``.
"""

import random

import pytest

import gradualmech as gm
from gradualmech import make_step
from gradualmech.gameform import MechanismError
from oracles import (apply_coalesce_walk_oracle, apply_split_oracle,
                     apply_uncoalesce_oracle, apply_unsplit_oracle,
                     mechanism_tables_oracle)

REWRITES = {
    "split": (gm.apply_split, apply_split_oracle),
    "coalesce": (gm.apply_coalesce, apply_coalesce_walk_oracle),
    "unsplit": (gm.apply_unsplit, apply_unsplit_oracle),
    "uncoalesce": (gm.apply_uncoalesce, apply_uncoalesce_oracle),
}
# Every 5th seed below 200: mechanisms drawn apart from the corpus's one
# random stream.
SEEDS = range(0, 200, 5)


def rewrite_record(apply, mech, t):
    try:
        out = apply(mech, t)
    except MechanismError as e:
        return str(e)
    return (out.fingerprint(), mechanism_tables_oracle(out), out.outcome,
            gm.validate(out))


def compare_rewrites(kind, mechs):
    """Apply every ``kind`` opportunity of each named mechanism with the
    library and with its oracle; return the number compared."""
    apply, oracle = REWRITES[kind]
    compared = 0
    for name, mech in mechs:
        for t in gm.iter_opportunities(mech, kind):
            assert (rewrite_record(apply, mech, t)
                    == rewrite_record(oracle, mech, t)), (name, t)
            compared += 1
    return compared


def simultaneous_after_idle_root():
    """Two voters who keep their whole type sets at the root and then report
    together.  Coalescing either voter's two decisions meets target nodes
    where the other voter moves too, which no corpus entry does before the
    later steps of a three-agent trading chain."""
    model, f, _ = gm.voting_examples()
    full = [model.full_type_set(a) for a in range(2)]
    nodes = [(None, None), (0, make_step({0: full[0], 1: full[1]}))]
    outcomes = {}
    for a in sorted(full[0]):
        for b in sorted(full[1]):
            nodes.append((1, make_step({0: {a}, 1: {b}})))
            outcomes[len(nodes) - 1] = f[(a, b)]
    groups = [(agent, [v]) for v in (0, 1) for agent in (0, 1)]
    return gm.build_mechanism(model, nodes, groups, outcomes)


def extra_mechanisms():
    """The stride of seeds and the fixed mechanism."""
    return ([(f"seed-{seed}", gm.random_transformed_mechanism(random.Random(seed))[0])
             for seed in SEEDS]
            + [("simultaneous-after-idle-root", simultaneous_after_idle_root())])


@pytest.fixture(scope="module")
def mechanisms(full_corpus):
    return [(name, mech) for name, mech, _, _ in full_corpus] + extra_mechanisms()


@pytest.mark.parametrize("kind", sorted(REWRITES))
def test_rewrite_matches_the_raw_list_oracle(kind, mechanisms):
    assert compare_rewrites(kind, mechanisms) > 0


@pytest.mark.parametrize("actions", [("M", "M"), ("LR", "M", "LR")])
def test_uncoalesce_refuses_a_repeated_action(actions):
    """A record naming an action twice defers fewer actions than it lists;
    the library and its oracle refuse it alike.  On g1, voter1's root set
    offers M and L,R."""
    menu = {"M": frozenset({1}), "LR": frozenset({0, 2})}
    t = gm.Uncoalesce(0, 0, tuple(menu[a] for a in actions))
    g1 = gm.voting_examples()[2]["g1"]
    for apply in REWRITES["uncoalesce"]:
        with pytest.raises(MechanismError) as err:
            apply(g1, t)
        assert str(err.value) == "uncoalesce: need two or more actions from the menu"


if __name__ == "__main__":
    from conftest import build_full_corpus

    mechs = ([(name, mech) for name, mech, _, _ in build_full_corpus()]
             + extra_mechanisms())
    for kind in sorted(REWRITES):
        print(f"{kind}: {compare_rewrites(kind, mechs)} rewrites agree")
