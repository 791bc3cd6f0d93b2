import math

import pytest

import gradualmech as gm
from gradualmech import MechanismError, build_mechanism, make_step
from oracles import partition_walk_oracle, theta_minus_oracle, validate_oracle


def tiny_model():
    return gm.voting_model_and_scf()[0]


def root_fan(steps, infoset_groups=((0, [0]), (1, [0]))):
    """A root whose children take the given steps, all ending in outcome 1."""
    nodes = [(None, None)] + [(0, make_step(step)) for step in steps]
    return build_mechanism(tiny_model(), nodes, infoset_groups,
                           {k: 1 for k in range(1, len(nodes))})


ALL = frozenset({0, 1, 2})


def overlapping_actions():
    # agent 0 offers {L,M} and {M,R}: overlap on M
    return root_fan([{0: {0, 1}, 1: ALL}, {0: {1, 2}, 1: ALL}])


def non_partition_actions():
    # union of agent 0's actions misses R
    return root_fan([{0: {0}, 1: ALL}, {0: {1}, 1: ALL}])


def missing_product_child():
    # {L},{M,R} for both agents, but only three of the four combinations
    return root_fan([{0: {0}, 1: {0}}, {0: {0}, 1: {1, 2}}, {0: {1, 2}, 1: {0}}])


def duplicate_action_profiles():
    return root_fan([{0: ALL, 1: ALL}, {0: ALL, 1: ALL}])


def disagreeing_acting_agents():
    # both voters move at one child, voter 1 alone at the other
    return root_fan([{0: ALL, 1: ALL}, {0: {0}}])


def unsorted_partial_product():
    # voter 2's actions first appear out of sorted order; two combinations
    # are missing
    return root_fan([{0: {0}, 1: {1, 2}}, {0: {1, 2}, 1: {0}}])


def misplaced_outcomes():
    # the root carries an outcome and one terminal has none
    nodes = [(None, None), (0, make_step({0: ALL, 1: ALL}))]
    return build_mechanism(tiny_model(), nodes, [(0, [0]), (1, [0])], {0: 1})


def test_direct_mechanism_validates(voting):
    model, f, mechs = voting
    assert gm.validate(mechs["direct"]) == []
    assert gm.implemented_scf(mechs["direct"]) == f


def test_all_voting_mechanisms_validate(voting):
    model, f, mechs = voting
    for name, mech in mechs.items():
        assert gm.validate(mech) == [], name
        assert gm.implements(mech, f), name


def test_overlapping_actions_reported_not_crashed():
    report = gm.validate(overlapping_actions())
    assert any("overlapping actions" in r for r in report)


def test_non_partition_actions_reported():
    report = gm.validate(non_partition_actions())
    assert any("partition her current set" in r for r in report)


@pytest.mark.parametrize("build, rule", [
    (overlapping_actions, "overlapping actions"),
    (non_partition_actions, "do not partition her current set"),
    (missing_product_child, "not the full product"),
    (duplicate_action_profiles, "duplicate action profiles"),
])
def test_broken_partition_is_named_by_a_local_rule(build, rule):
    """Each local rule the partition argument rests on, broken alone: the
    profile walk finds no unique truthful path, and validate names the rule."""
    mech = build()
    assert not partition_walk_oracle(mech)
    assert any(rule in r for r in gm.validate(mech))


@pytest.mark.parametrize("build", [
    overlapping_actions, non_partition_actions, missing_product_child,
    duplicate_action_profiles, disagreeing_acting_agents,
    unsorted_partial_product, misplaced_outcomes,
])
def test_broken_trees_match_the_single_pass_oracle(build):
    """The tree rules read off the menu table report what the single-pass
    rules did, in the same order, on the same tree and on a regrouping of
    it."""
    mech = build()
    report = gm.validate(mech)
    assert report and report == validate_oracle(mech)
    again = mech.regroup([(s.agent, s.nodes) for s in reversed(mech.infosets)])
    assert gm.validate(again) == report


def test_missing_root_agent_reported():
    model = tiny_model()
    nodes = [(None, None)]
    for act in (frozenset({0}), frozenset({1}), frozenset({2})):
        nodes.append((0, make_step({0: act})))  # voter 2 never active
    mech = build_mechanism(model, nodes, [(0, [0])], {1: 1, 2: 1, 3: 1})
    report = gm.validate(mech)
    assert any("active at the initial history" in r for r in report)
    assert report == validate_oracle(mech)


def test_imperfect_recall_reported(voting):
    model, f, mechs = voting
    g3 = mechs["g3"]
    # pool voter 2's two information sets that follow different knowledge:
    # fine (that is g4); instead pool one of them with voter 1's refinement
    # nodes swapped across different own actions of voter 1 in g1
    g1 = mechs["g1"]
    groups = []
    moved = False
    for s in g1.infosets:
        if s.agent == 0 and len(s.nodes) == 1 and s.nodes[0] != 0 and not moved:
            # merge voter 1's later set into her root set: her own past differs
            moved = True
            continue
        groups.append((s.agent, list(s.nodes)))
    root_k = next(i for i, (a, ns) in enumerate(groups) if a == 0 and 0 in ns)
    extra = next(s.nodes[0] for s in g1.infosets
                 if s.agent == 0 and s.nodes[0] != 0)
    groups[root_k] = (0, groups[root_k][1] + [extra])
    mech = build_mechanism(
        g1.model,
        [(g1.parent[v], g1.step[v]) for v in range(g1.n_nodes())],
        groups, g1.outcome)
    report = gm.validate(mech)
    assert report  # menus differ or recall broken, either way diagnosed
    assert report == validate_oracle(mech)


def test_local_rules_imply_terminal_partition(full_corpus):
    """validate checks only local rules; the walk it no longer runs agrees
    on every valid mechanism of the corpus."""
    for name, mech, model, f in full_corpus:
        assert gm.validate(mech) == validate_oracle(mech) == [], name
        assert partition_walk_oracle(mech), name


def test_dangling_parent_is_build_error():
    model = tiny_model()
    with pytest.raises(MechanismError, match="dangling"):
        build_mechanism(model, [(None, None), (7, make_step({0: frozenset({0})}))],
                        [], {})


def test_parent_cycles_are_disconnected_nodes():
    """A parent cycle cannot contain the root, so the breadth-first walk
    never reaches its nodes: two nodes that are each other's parent, and a
    node that is its own parent, are reported as disconnected."""
    model = tiny_model()
    step = make_step({0: frozenset({0})})
    for nodes in ([(None, None), (2, step), (1, step)],
                  [(None, None), (1, step)]):
        with pytest.raises(MechanismError, match="^disconnected nodes present$"):
            build_mechanism(model, nodes, [], {})


def test_bad_type_ids_are_build_errors():
    model = tiny_model()
    n_types = model.n_types(0)
    for action in (frozenset({"a"}), frozenset({-1}), frozenset({n_types}),
                   frozenset({0, n_types}), frozenset()):
        with pytest.raises(MechanismError, match="node 1: bad action for agent 0"):
            build_mechanism(model, [(None, None), (0, ((0, action),))], [], {})


BOTH = make_step({0: ALL, 1: ALL})
ROOT_FAN = [(None, None), (0, BOTH)]

# case -> (nodes, information sets, outcomes, the message); the tiny model
# has two agents and three outcomes.
BUILD_REJECTIONS = {
    "empty": ([], [], {}, "empty mechanism"),
    "no-root": ([(0, BOTH)], [], {}, "exactly one root required, found 0"),
    "two-roots": ([(None, None), (None, None)], [], {}, "exactly one root required, found 2"),
    "missing-profile": ([(None, None), (0, ())], [], {}, "node 1: missing action profile"),
    "unknown-agent": ([(None, None), (0, ((2, ALL),))], [], {}, "node 1: unknown agent 2"),
    "outcome-on-unknown-node": (ROOT_FAN, [(0, [0]), (1, [0])], {1: 1, 5: 1},
                                "outcome attached to unknown node 5"),
    "unknown-outcome": (ROOT_FAN, [(0, [0]), (1, [0])], {1: 3}, "unknown outcome id 3"),
    "set-of-unknown-agent": (ROOT_FAN, [(0, [0]), (2, [0])], {1: 1},
                             "information set for unknown agent 2"),
    "set-with-unknown-node": (ROOT_FAN, [(0, [0]), (1, [0, 9])], {1: 1},
                              "information set references unknown node 9"),
}


@pytest.mark.parametrize("case", sorted(BUILD_REJECTIONS))
def test_build_mechanism_rejects_raw_input(case):
    nodes, groups, outcomes, message = BUILD_REJECTIONS[case]
    with pytest.raises(MechanismError) as e:
        build_mechanism(tiny_model(), nodes, groups, outcomes)
    assert str(e.value) == message


def test_theta_at_root_and_after_actions(voting):
    model, f, mechs = voting
    g3 = mechs["g3"]
    full = frozenset({0, 1, 2})
    assert g3.theta[0][0] == full
    assert g3.theta[0][1] == full
    # voter 2's node after voter 1 reports M: voter 1's set is {M}
    after_m = next(v for v in range(g3.n_nodes())
                   if g3.parent[v] == 0 and dict(g3.step[v])[0] == frozenset({1}))
    assert g3.theta[after_m][0] == frozenset({1})
    assert g3.theta[after_m][1] == full


def test_theta_minus_of_pooled_auction_set(gstar_instances):
    g, model, f = gstar_instances[(2, 2)]
    pooled = next(k for k, s in enumerate(g.infosets)
                  if s.agent == 1 and len(s.nodes) == 2)
    # both bidder-1 values are still possible from bidder 2's seat
    assert theta_minus_oracle(g, pooled) == {(0,), (1,)}


def test_siblings_same_action_static_mechanism_empty(voting):
    model, f, mechs = voting
    assert gm.siblings_same_action(mechs["direct"]) == []


def test_siblings_in_bad_serial_dictatorship(sd_pair):
    good, bad, model, f = sd_pair
    sibs = gm.siblings_same_action(bad)
    # agent 1 (index 0) has the pair of sets split by the first report
    assert any(a == 0 for a, _, _ in sibs)
    pair = next((k1, k2) for a, k1, k2 in sibs if a == 0)
    assert {len(bad.infosets[k].nodes) for k in pair} == {2, 4}


def test_siblings_in_gstar_3_2(gstar_instances):
    g, model, f = gstar_instances[(3, 2)]
    sibs = gm.siblings_same_action(g)
    third = [p for p in sibs if p[0] == 2]
    assert len(third) == 1
    _, k1, k2 = third[0]
    sizes = sorted(len(g.infosets[k].nodes) for k in (k1, k2))
    assert sizes == [1, 3]


def test_terminal_partition_property(full_corpus):
    for name, mech, model, f in full_corpus[:40]:
        total = sum(math.prod(len(s) for s in mech.theta[z]) for z in mech.terminals)
        assert total == model.n_profiles(), name
        seen = set()
        for z in mech.terminals:
            for profile in mech.theta_profiles(z):
                assert profile not in seen, name
                seen.add(profile)


def test_canonical_equality_is_renumbering_invariant(voting):
    model, f, mechs = voting
    g3 = mechs["g3"]
    # shuffle raw ids and rebuild
    n = g3.n_nodes()
    perm = list(range(n))
    perm[1:] = reversed(perm[1:])
    inv = {old: new for new, old in enumerate(perm)}
    raw = [None] * n
    for old in range(n):
        p = g3.parent[old]
        raw[inv[old]] = (inv[p] if p is not None else None, g3.step[old])
    groups = [(s.agent, [inv[v] for v in s.nodes]) for s in g3.infosets]
    outcomes = {inv[v]: x for v, x in g3.outcome.items()}
    rebuilt = build_mechanism(model, raw, groups, outcomes)
    assert gm.mechanisms_equal(rebuilt, g3)


def test_implements_is_not_fooled_by_a_reused_scf_id(voting):
    """A table that differs from f in one entry is never implemented, even
    when it is allocated where a just-freed correct table lived."""
    model, f, mechs = voting
    g3 = mechs["g3"]
    wrong = list(f.outcomes)
    wrong[0] = (wrong[0] + 1) % model.n_outcomes()
    stale = 0
    for _ in range(3000):
        right = gm.ScfTable(model, f.outcomes)
        assert gm.implements(g3, right)
        del right
        stale += gm.implements(g3, gm.ScfTable(model, wrong))
    assert stale == 0
