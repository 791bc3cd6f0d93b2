import itertools

import pytest

import gradualmech as gm
from gradualmech import MechanismError

from oracles import consistency_oracle, consistent_pair_table
from test_gameform import ALL, missing_product_child, root_fan


def test_unconditional_strategy_direct(voting):
    model, f, mechs = voting
    direct = mechs["direct"]
    s = gm.unconditional_strategy(direct, 0, 2)
    (k, action), = s.items()
    assert action == frozenset({2})


def test_unconditional_strategy_tracks_type(voting):
    model, f, mechs = voting
    g3 = mechs["g3"]
    for t in range(3):
        s = gm.unconditional_strategy(g3, 1, t)
        for k, action in s.items():
            if t in g3.theta_infoset(k):
                assert t in action


def test_gstar_unconditional_stays_until_value(gstar_instances):
    g, model, f = gstar_instances[(2, 3)]
    # value 3 (type 2): stay at level 1 and 2; value 1 (type 0): leave at once
    s_high = gm.unconditional_strategy(g, 0, 2)
    for k, action in s_high.items():
        if 2 in g.theta_infoset(k):
            assert 2 in action
    z = gm.truthful_terminal(g, (2, 0))
    assert model.outcome_names[g.outcome[z]] == "w1@p1"


def test_play_matches_truthful_terminal(full_corpus):
    for name, mech, model, f in full_corpus[:30]:
        for profile in itertools.islice(model.profiles(), 12):
            strategies = {i: gm.unconditional_strategy(mech, i, profile[i])
                          for i in range(model.n_agents)}
            assert gm.play(mech, strategies) == gm.truthful_terminal(mech, profile), name


def test_figure_style_reaction_play(sd_pair):
    good, bad, model, f = sd_pair
    # agent 1 (index 0) reacts: pick a when told the first report tops a, b otherwise
    told_a = next(k for k, s in enumerate(bad.infosets)
                  if s.agent == 0 and len(s.nodes) == 2)
    other = next(k for k, s in enumerate(bad.infosets)
                 if s.agent == 0 and len(s.nodes) == 4)
    tops = {x: frozenset(t for t, r in enumerate(model.rankings) if r[0] == x)
            for x in range(3)}
    react = gm.unconditional_strategy(bad, 0, 0)
    react[told_a] = tops[0]
    react[other] = tops[1]
    s3 = gm.unconditional_strategy(bad, 2, 0)

    abc = model.rankings.index((0, 1, 2))
    bac = model.rankings.index((1, 0, 2))
    truthful = gm.play(bad, {0: react, 1: gm.unconditional_strategy(bad, 1, abc), 2: s3})
    lying = gm.play(bad, {0: react, 1: gm.unconditional_strategy(bad, 1, bac), 2: s3})
    # truth gets agent 2 item b; misreporting "ba" gets item a
    assert model.outcome_names[bad.outcome[truthful]][1] == "b"
    assert model.outcome_names[bad.outcome[lying]][1] == "a"


def test_common_strategy_reflexive(voting):
    model, f, mechs = voting
    g3 = mechs["g3"]
    for z in g3.terminals:
        assert gm.common_strategy_exists(g3, z, z, {0})


def test_common_strategy_direct_mechanism(voting):
    model, f, mechs = voting
    direct = mechs["direct"]
    zs = direct.terminals
    for z1 in zs:
        for z2 in zs:
            expected = direct.theta[z1][0] == direct.theta[z2][0]  # only voter 2 free
            assert gm.common_strategy_exists(direct, z1, z2, {1}) == expected


def test_excluding_everyone_is_an_error(voting):
    model, f, mechs = voting
    g3 = mechs["g3"]
    with pytest.raises(MechanismError):
        gm.common_strategy_exists(g3, g3.terminals[0], g3.terminals[1], {0, 1})


def test_consistency_matches_oracle_on_small_fixtures(voting, sd_pair, gstar_instances):
    model, f, mechs = voting
    fixtures = [mechs["g1"], mechs["g3"], mechs["direct"],
                sd_pair[1], gstar_instances[(2, 2)][0]]
    for mech in fixtures:
        n = mech.model.n_agents
        for i in range(n):
            table = consistent_pair_table(mech, {i})
            ordered = table | {(b, a) for (a, b) in table}
            assert set(gm.consistent_profile_pairs(mech, i)) == ordered


def test_frozen_pair_counts_for_g3(voting):
    model, f, mechs = voting
    g3 = mechs["g3"]
    # frozen from the strategy-enumeration oracle
    assert len(list(gm.consistent_profile_pairs(g3, 0))) == 51
    assert len(list(gm.consistent_profile_pairs(g3, 1))) == 27


def test_pairwise_consistency_with_two_excluded(sd_pair):
    good, bad, model, f = sd_pair
    for z1 in bad.terminals[:6]:
        for z2 in bad.terminals[:6]:
            fast = gm.common_strategy_exists(bad, z1, z2, {0, 1})
            assert fast == consistency_oracle(bad, z1, z2, {0, 1})


def test_unconditional_strategy_needs_one_truthful_option():
    # voter 1's actions overlap on M and leave out R
    mech = root_fan([{0: {0, 1}, 1: ALL}, {0: {1}, 1: ALL}])
    assert gm.unconditional_strategy(mech, 0, 0) == {0: frozenset({0, 1})}
    for t in (1, 2):
        with pytest.raises(MechanismError,
                           match=f"^information set 0: no unique truthful option for type {t}$"):
            gm.unconditional_strategy(mech, 0, t)


def test_play_refuses_incomplete_profiles_and_missing_children():
    mech = missing_product_child()
    rest = frozenset({1, 2})
    z = gm.play(mech, {0: {0: rest}, 1: {1: frozenset({0})}})
    assert mech.step[z] == gm.make_step({0: rest, 1: {0}})
    with pytest.raises(MechanismError, match="^play requires a strategy for every agent$"):
        gm.play(mech, {0: {0: rest}})
    with pytest.raises(MechanismError,
                       match="^node 0: strategy profile selects a missing child$"):
        gm.play(mech, {0: {0: rest}, 1: {1: rest}})
    # both voters move at the root, but only voter 1 has a set there
    mech = root_fan([{0: ALL, 1: ALL}], infoset_groups=[(0, [0])])
    with pytest.raises(MechanismError, match="^node 0: agent 1 has no information set$"):
        gm.play(mech, {0: {0: ALL}, 1: {}})
