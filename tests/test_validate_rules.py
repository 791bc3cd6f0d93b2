"""``validate`` against the rules it replaced, ``tree_rules_oracle`` and
``partition_rules_oracle``: the reports must be equal, order included.

``_tree_rules`` decides closure, duplicate profiles, the full product and
overlapping actions once per distinct tuple of children's steps, and keeps
per node only the outcome placement and the test that the actions cover the
node's current set.  ``_partition_rules`` reads each agent's decision nodes
off the menus' keys in one pass and compares each member of an information
set with the first.  The reports are compared on the acceptance corpus, on the
malformed documents that parse, on hand-broken mechanisms that reach every
message, and on each one's ``build_mechanism_oracle`` twin, whose builder
shares one menu among nodes whose children's steps differ.  Two of the
broken mechanisms repeat one tuple of children's steps: at two nodes that
break the same local rule, and under two different current sets, so that
only one of the nodes gets the partition message.
"""

import json

import gradualmech as gm
from gradualmech import build_mechanism, make_step
from gradualmech.fileformat import ParseError, parse_mechanism, serialize_mechanism

from oracles import build_mechanism_oracle, partition_rules_oracle, tree_rules_oracle
from test_fileformat_cli import MALFORMED
from test_gameform import (disagreeing_acting_agents, duplicate_action_profiles,
                           misplaced_outcomes, missing_product_child,
                           non_partition_actions, overlapping_actions,
                           unsorted_partial_product)

ALL = frozenset({0, 1, 2})


def twin(mech):
    """``mech`` built again by ``build_mechanism_oracle`` from its nodes,
    groups and outcomes."""
    nodes = [(mech.parent[v], mech.step[v]) for v in range(mech.n_nodes())]
    groups = [(s.agent, list(s.nodes)) for s in mech.infosets]
    return build_mechanism_oracle(mech.model, nodes, groups, dict(mech.outcome))


def same_reports(mech, name):
    """validate's report equals the oracles' on ``mech`` and on its twin;
    returns the report."""
    report = gm.validate(mech)
    assert report == tree_rules_oracle(mech) + partition_rules_oracle(mech), name
    other = twin(mech)
    assert gm.validate(other) == tree_rules_oracle(other) + partition_rules_oracle(other), name
    return report


def voting_tree(edges, groups):
    """A two-voter mechanism: node 0 is the root and node k > 0 the k-th of
    ``edges``, (parent, {agent: types}) pairs; every terminal ends in
    outcome 1.  ``groups`` name input ids."""
    nodes = [(None, None)] + [(p, make_step(step)) for p, step in edges]
    inner = {p for p, _ in edges}
    return build_mechanism(gm.voting_model_and_scf()[0], nodes, groups,
                           {v: 1 for v in range(len(nodes)) if v not in inner})


def root_inactive():
    # voter 2 never acts at the root
    return voting_tree([(0, {0: {t}}) for t in ALL], [(0, [0])])


def lone_root():
    # a terminal root: nobody acts at the initial history
    return voting_tree([], [])


def sets_overlap():
    # voter 1's root decision lies in two of her sets
    return voting_tree([(0, {0: ALL, 1: ALL})], [(0, [0]), (0, [0]), (1, [0])])


def decision_left_out():
    # voter 1 decides again at node 1, in no information set
    return voting_tree([(0, {0: ALL, 1: ALL}), (1, {0: {0}}), (1, {0: {1, 2}})],
                       [(0, [0]), (1, [0])])


def menus_differ():
    # voter 2 splits her types two different ways at nodes 1 and 2, which
    # share a set; her experience is the same at both
    return voting_tree([(0, {0: {0}, 1: ALL}), (0, {0: {1, 2}, 1: ALL}),
                        (1, {1: {0}}), (1, {1: {1, 2}}),
                        (2, {1: {0, 1}}), (2, {1: {2}})],
                       [(0, [0]), (1, [0]), (1, [1, 2])])


def recall_broken():
    # voter 1 confirms {M, R} at node 2 and again at node 3 below it, in one
    # set: equal menus, but her chain at node 3 holds her choice at node 2
    return voting_tree([(0, {0: {0}, 1: ALL}), (0, {0: {1, 2}, 1: ALL}),
                        (2, {0: {1, 2}}), (3, {0: {1, 2}})],
                       [(0, [0]), (1, [0]), (0, [2, 3])])


def same_steps_same_rule():
    # nodes 1 and 2 have equal children's steps, and voter 2's actions
    # overlap at both
    return voting_tree([(0, {0: {0}, 1: ALL}), (0, {0: {1, 2}, 1: ALL}),
                        (1, {1: {0, 1}}), (1, {1: {1, 2}}),
                        (2, {1: {0, 1}}), (2, {1: {1, 2}})],
                       [(0, [0]), (1, [0]), (1, [1, 2])])


def same_steps_other_current_set():
    # nodes 1 and 2 have equal children's steps, {M} and {R} for voter 2,
    # which partition her current set at node 2 only
    return voting_tree([(0, {0: ALL, 1: {0}}), (0, {0: ALL, 1: {1, 2}}),
                        (1, {1: {1}}), (1, {1: {2}}),
                        (2, {1: {1}}), (2, {1: {2}})],
                       [(0, [0]), (1, [0]), (1, [1]), (1, [2])])


def one_menu_two_verdicts():
    # the root's two children have equal steps; below node 1 the voters'
    # actions form the full product, below node 2 one combination is
    # missing.  build_mechanism_oracle gives nodes 1 and 2 one menu object.
    split = ({0}, {1, 2})
    below = [{0: a, 1: b} for a in split for b in split]
    edges = [(0, {0: ALL, 1: ALL}), (0, {0: ALL, 1: ALL})]
    edges += [(1, step) for step in below] + [(2, step) for step in below[:3]]
    return voting_tree(edges, [(0, [0]), (1, [0]), (0, [1]), (1, [1]),
                               (0, [2]), (1, [2])])


BROKEN = [
    misplaced_outcomes, disagreeing_acting_agents, duplicate_action_profiles,
    missing_product_child, unsorted_partial_product, overlapping_actions,
    non_partition_actions, root_inactive, lone_root, sets_overlap, decision_left_out,
    menus_differ, recall_broken, same_steps_same_rule,
    same_steps_other_current_set, one_menu_two_verdicts,
]

MESSAGES = (
    "has no outcome", "carries an outcome", "disagree on the acting agents",
    "duplicate action profiles", "not the full product", "overlapping actions",
    "do not partition her current set", "active at the initial history",
    "information sets overlap", "do not cover exactly",
    "offer different action menus", "violate perfect recall",
)


def test_broken_mechanisms_match_the_oracles_and_reach_every_message():
    reports = [same_reports(build(), build.__name__) for build in BROKEN]
    assert all(reports)
    for text in MESSAGES:
        assert any(text in line for report in reports for line in report), text


def test_repeated_children_steps_are_decided_per_node():
    """The memo's cases: one rule broken at two nodes, the partition
    message at one of two nodes, and two nodes that the twin's builder
    gives one menu but that break different rules."""
    mech = same_steps_same_rule()
    nodes = [v for v in range(mech.n_nodes()) if list(mech.menus[v]) == [1]]
    assert len(nodes) == 2
    assert len({tuple(mech.step[c] for c in mech.children[v]) for v in nodes}) == 1
    assert same_reports(mech, "same rule") == [
        f"node {v}: agent 1 has overlapping actions" for v in nodes]

    mech = same_steps_other_current_set()
    nodes = [v for v in range(mech.n_nodes()) if list(mech.menus[v]) == [1]]
    assert same_reports(mech, "other set") == [
        f"node {nodes[0]}: agent 1 actions do not partition her current set"]

    mech = one_menu_two_verdicts()
    other = twin(mech)
    assert other.menus[1] is other.menus[2] and mech.menus[1] is not mech.menus[2]
    assert same_reports(mech, "one menu") == [
        "node 0: duplicate action profiles",
        "node 2: children are not the full product of available actions"]


def test_corpus_matches_the_oracles(full_corpus):
    for name, mech, _, _ in full_corpus:
        assert same_reports(mech, name) == [], name


def broken_documents(voting):
    """The malformed documents of the CLI tests, then three edits of the g3
    document that parse and break a partition or a tree rule."""
    model, f, mechs = voting
    text = serialize_mechanism(mechs["g3"], f)
    for path, value in MALFORMED.values():
        doc = json.loads(text)
        if path:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            doc = value
        yield json.dumps(doc)
    doc = json.loads(text)
    del doc["tree"]["children"][0]["node"]["children"][0]  # node 1 offers {M}, {R}
    yield json.dumps(doc)
    doc = json.loads(text)
    del doc["infosets"][-1]  # voter 2's decision at node 2 in no set
    yield json.dumps(doc)
    doc = json.loads(text)
    doc["infosets"][-1]["nodes"] = [2, 1]  # node 1 in two of voter 2's sets
    yield json.dumps(doc)


def test_parsed_broken_documents_match_the_oracles(voting):
    reports = []
    for text in broken_documents(voting):
        try:
            mech = parse_mechanism(text)[0]
        except ParseError:
            continue
        reports.append(same_reports(mech, text))
    assert len(reports) >= 3 and all(reports)
