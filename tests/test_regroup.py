"""``Mechanism.regroup``: one tree, many partitions.

A regrouping shares its source's tree tables, lazily built ones included,
and builds its own partition tables and ``validate`` report, so it must
give the same answers whether it was made before or after the source built
them: its conflict agents equal ``conflict_agents_oracle``, its tables
equal ``mechanism_tables_oracle`` and ``node_menus_oracle``, and
``validate`` equals the single-pass ``validate_oracle``, report order
included.

The suite regroups the entries of ``full_corpus`` outside ``rda3-*`` and
compares conflict agents on every node pair of trees up to
``PAIR_CHECK_NODES`` nodes.  Run as a script to cover all 250 entries and
every node pair: ``PYTHONPATH=src python tests/test_regroup.py``.
"""

import itertools

import gradualmech as gm
from oracles import (conflict_agents_oracle, mechanism_tables_oracle,
                     node_menus_oracle, rebuild_oracle, validate_oracle)

PAIR_CHECK_NODES = 30


def groups_of(mech):
    return [(s.agent, list(s.nodes)) for s in mech.infosets]


def regroupings(mech):
    """Partitions of ``mech``'s tree to regroup onto: its own, its first
    illumination's and its first ready merge's."""
    out = [groups_of(mech)]
    for t in gm.iter_opportunities(mech, "illuminate"):
        try:
            out.append(groups_of(gm.apply_illuminate(mech, t)))
            break
        except gm.MechanismError:
            continue
    t = next(gm.iter_opportunities(mech, "merge"), None)
    if t is not None:
        out.append(groups_of(gm.apply_merge(mech, t)[0]))
    return out


def build_tree_tables(mech):
    """Build every lazily built table of ``mech``: tree tables, the
    ``validate`` report and the per-node conflict masks."""
    gm.validate(mech)
    mech.outcome_masks()
    mech.truthful_table()
    for u in range(mech.n_nodes()):
        mech.conflict_masks(u)


def check_tables(name, mech, max_pair_nodes):
    assert gm.validate(mech) == validate_oracle(mech), name
    theta, experience, menus = mechanism_tables_oracle(mech)
    assert mech.theta == theta, name
    assert mech.experience == experience, name
    assert [frozenset(s.actions) for s in mech.infosets] == menus, name
    assert list(mech.menus) == node_menus_oracle(mech), name
    n = mech.n_nodes()
    if n <= max_pair_nodes:
        for u, v in itertools.product(range(n), repeat=2):
            assert mech.conflict_agents(u, v) == conflict_agents_oracle(mech, u, v), \
                (name, u, v)


def check_regroup(name, mech, max_pair_nodes=PAIR_CHECK_NODES):
    """Regroup a fresh copy of ``mech`` onto each of ``regroupings(mech)``,
    once before and once after the copy builds its lazy tables; return the
    number of regroupings checked."""
    checked = 0
    for groups in regroupings(mech):
        source = rebuild_oracle(mech)
        early = source.regroup(groups)
        build_tree_tables(source)
        late = source.regroup(groups)
        for out in (early, late):
            assert ([(s.agent, s.nodes) for s in out.infosets]
                    == sorted((a, tuple(sorted(ns))) for a, ns in groups)), name
            check_tables(name, out, max_pair_nodes)
            assert out.truthful_table() is source.truthful_table(), name
            assert out.terminals_under(0) is source.terminals_under(0), name
            checked += 1
        check_tables(name, source, max_pair_nodes)
    return checked


def test_regroup_shares_the_tree_and_rebuilds_the_partition(full_corpus):
    checked = sum(check_regroup(name, mech) for name, mech, model, f in full_corpus
                  if not name.startswith("rda3-"))
    assert checked > 0


def recall_breaking_union(mech):
    """Groups that pool two of one agent's sets with equal menus but
    different own experience, as a merge without the successor split would:
    the pooled set breaks perfect recall."""
    for i in range(mech.model.n_agents):
        for x, y in itertools.combinations(mech.agent_infosets(i), 2):
            a, b = mech.infosets[x], mech.infosets[y]
            if (a.actions == b.actions and mech.experience[i][a.nodes[0]]
                    != mech.experience[i][b.nodes[0]]):
                groups = [(s.agent, list(s.nodes))
                          for k, s in enumerate(mech.infosets) if k not in (x, y)]
                return groups + [(i, list(a.nodes + b.nodes))]
    return None


def test_regroup_onto_a_bad_partition_reports_only_its_own_violation(gstar_instances):
    g = gstar_instances[(3, 3)][0]
    groups = recall_breaking_union(g)
    assert groups is not None
    for source_first in (False, True):
        source = rebuild_oracle(g)
        if source_first:
            assert gm.validate(source) == []
        bad = source.regroup(groups)
        report = gm.validate(bad)
        assert report == validate_oracle(bad)
        assert len(report) == 1 and report[0].endswith("members violate perfect recall")
        assert gm.validate(source) == []
        # Dropping a set leaves its nodes uncovered; the tree rules still pass.
        short = source.regroup(groups_of(source)[1:])
        assert gm.validate(short) == validate_oracle(short) == [
            "agent 0: information sets do not cover exactly her decision nodes"]


if __name__ == "__main__":
    from conftest import build_full_corpus

    entries = build_full_corpus()
    checked = 0
    for name, mech, model, f in entries:
        checked += check_regroup(name, mech, max_pair_nodes=float("inf"))
    print(f"{len(entries)} entries: {checked} regroupings agree with the oracles")
