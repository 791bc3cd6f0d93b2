import hashlib
import io
import itertools
import time
from contextlib import redirect_stdout

import pytest

import gradualmech as gm
from gradualmech.cli import main
from gradualmech.generators import _pointer_cycles

from conftest import rda3_subset, run_argv
from oracles import gen_ttc_oracle, replay_ic_witness, sd_assignment, ttc_all_cycles


def test_ttc_identity_when_all_top_own():
    # everyone owns her own-indexed item and ranks it first
    pr = ((0, 1), (1, 0))
    model, f = gm.ttc_scf(pr, 2)
    ab = model.rankings.index((0, 1))
    ba = model.rankings.index((1, 0))
    ident = model.matching_index[(0, 1)]
    swap = model.matching_index[(1, 0)]
    assert f[(ab, ba)] == ident          # both claim their own
    assert f[(ba, ab)] == swap           # crossed preferences trade


def test_ttc_matches_all_cycles_oracle_n2_n3():
    for n in (2, 3):
        for pr in gm.all_priority_structures(n):
            model, f = gm.ttc_scf(pr, n)
            for profile in model.profiles():
                expected = model.matching_index[ttc_all_cycles(pr, n, model, profile)]
                assert f[profile] == expected, (n, pr, profile)


def test_ttc_strategy_proof_all_structures_n_le_3():
    for n in (2, 3):
        for pr in gm.all_priority_structures(n):
            model, f = gm.ttc_scf(pr, n)
            ok, _ = gm.is_strategy_proof(model, f)
            assert ok, (n, pr)


def test_sd_scf_matches_direct_oracle():
    model, f = gm.serial_dictatorship_scf(3)
    for profile in model.profiles():
        assert f[profile] == model.matching_index[sd_assignment(model, [0, 1, 2], profile)]
    for n in (2, 3):
        for order in itertools.permutations(range(n)):
            model, f = gm.serial_dictatorship_scf(n, order)
            for profile in model.profiles():
                assert f[profile] == model.matching_index[sd_assignment(model, order, profile)], \
                    (n, order, profile)


BAD_PRIORITIES = {
    "ttc-repeated-agent": lambda: gm.ttc_scf(((0, 1), (0, 0)), 2),
    "ttc-too-few-orders": lambda: gm.ttc_scf(((0, 1),), 2),
    "rda-repeated-agent": lambda: gm.build_rda(((0, 1), (0, 0)), 2),
    "rda-agent-out-of-range": lambda: gm.build_rda(((0, 5), (1, 0)), 2),
    "sd-repeated-agent": lambda: gm.serial_dictatorship_scf(2, [0, 0]),
}


@pytest.mark.parametrize("build", BAD_PRIORITIES.values(), ids=BAD_PRIORITIES)
def test_trading_refuses_priorities_that_are_not_permutations(build):
    with pytest.raises(ValueError, match=r"^priorities must be 2 item orders, each a "
                                         r"permutation of the agents 0\.\.1$"):
        build()


def test_pointer_cycles_match_their_definition():
    """Every partial pointer graph over at most four agents: an agent is on
    a cycle iff following the pointers from her leads back to her."""
    for n in range(1, 5):
        for targets in itertools.product([None, *range(n)], repeat=n):
            graph = {a: p for a, p in enumerate(targets) if p is not None}
            expected = set()
            for a in graph:
                cur = graph[a]
                for _ in range(n):
                    if cur == a:
                        expected.add(a)
                        break
                    cur = graph.get(cur)
            assert _pointer_cycles(graph) == expected, graph


def test_one_agent_trading_tree_takes_one_degenerate_step():
    """With one agent and one item nobody decides anything, but every agent
    must act at the root, so the tree is the static one-step mechanism and
    ``gen ttc --n 1`` passes every check."""
    mech = gm.build_rda(((0,),), 1)
    assert mech.n_nodes() == 2 and gm.validate(mech) == [] and gm.is_static(mech)
    code, doc, err = run_argv(["gen", "ttc", "--n", "1"], "")
    assert (code, err) == (0, "")
    for verb in ("validate", "check-ic", "check-rp", "check-irp", "reduce"):
        assert run_argv([verb, "-"], doc)[0] == 0, verb


def test_sd_pair_truthful_tables_equal(sd_pair):
    good, bad, model, f = sd_pair
    assert gm.implemented_scf(good) == f
    assert gm.implemented_scf(bad) == f


def test_sd_good_tree_is_the_common_priority_trading_tree(sd_pair):
    """The good serial dictatorship is the staged trading tree when every
    item ranks the agents 0, 1, 2, node for node."""
    good = sd_pair[0]
    assert gm.mechanisms_equal(good, gm.build_rda(((0, 1, 2),) * 3, 3))
    assert good.fingerprint()[:16] == "4880b401ddba6545"


def test_rda_validates_and_matches_ttc_everywhere():
    for n in (2, 3):
        for pr in gm.all_priority_structures(n):
            model, f = gm.ttc_scf(pr, n)
            rda = gm.build_rda(pr, n)
            assert gm.validate(rda) == [], (n, pr)
            assert gm.implemented_scf(rda) == f, (n, pr)


def tree_digest(trees):
    """First 16 hex digits of the sha256 of the trees' fingerprints, one a
    line."""
    text = "\n".join(tree.fingerprint() for tree in trees)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rda_digest(structures):
    return tree_digest(gm.build_rda(pr, len(pr)) for pr in structures)


def test_rda_tree_shapes_are_pinned():
    """The staged trees themselves, node for node: every two- and
    three-agent structure, and a stride of the four-agent ones."""
    small = gm.all_priority_structures(2) + gm.all_priority_structures(3)
    assert len(small) == 220
    assert rda_digest(small) == "4f4c9029372c1940"
    four = gm.all_priority_structures(4)[::20011]
    assert len(four) == 17
    assert rda_digest(four) == "6b95a5faf55c424a"


GSTAR_SIZES = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (5, 3), (4, 5), (5, 4)]


def test_gstar_tree_shapes_are_pinned():
    """The ascending auction trees themselves, node for node, from two to
    five bidders."""
    assert tree_digest(gm.build_gstar(n, m) for n, m in GSTAR_SIZES) == "d3de7fb5bce53af9"


def levels(model):
    """Every weak order of the model as lists of sorted outcome ids."""
    return [[sorted(lv) for lv in order.levels] for per_type in model.prefs for order in per_type]


def digest(value):
    """First 16 hex digits of the sha256 of ``repr(value)``."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def test_auction_and_matching_models_are_pinned():
    """What the fingerprints, which hold names, do not pin: the lotteries,
    preferences and SCF tables of the pinned auctions' models, and the
    preferences of the matching models for one to four agents."""
    auctions = []
    for n, m in GSTAR_SIZES:
        model, f = gm.second_price_scf(n, m)
        auctions.append((model.lotteries, levels(model), f.outcomes))
    assert digest(auctions) == "10d7811a7df68362"
    assert digest([levels(gm.matching_model(n)) for n in range(1, 5)]) == "46a9f1d555527b39"


@pytest.mark.parametrize("n, m", [(1, 2), (2, 0)])
def test_second_price_needs_two_bidders_and_a_value(n, m):
    with pytest.raises(ValueError, match="^need at least two bidders and one value$"):
        gm.second_price_scf(n, m)


def test_rda_four_agent_stride_verdicts():
    """The four-agent stride of ``test_rda_tree_shapes_are_pinned``: every
    tree is IC and RP, and 14 of the 17 are IRP."""
    verdicts = []
    for pr in gm.all_priority_structures(4)[::20011]:
        rda = gm.build_rda(pr, 4)
        f = gm.implemented_scf(rda)
        verdicts.append(tuple(check(rda, f).holds for check in (gm.is_ic, gm.is_rp, gm.is_irp)))
    assert all(ic and rp for ic, rp, _ in verdicts)
    assert sum(irp for _, _, irp in verdicts) == 14


def test_rda_two_agents_claim_and_trade_paths():
    pr = ((0, 1), (1, 0))
    model, f = gm.ttc_scf(pr, 2)
    rda = gm.build_rda(pr, 2)
    ab = model.rankings.index((0, 1))
    ba = model.rankings.index((1, 0))
    # both prefer their own endowed item: both claim, identity matching
    z = gm.truthful_terminal(rda, (ab, ba))
    assert model.outcome_names[rda.outcome[z]] == "ab"
    # crossed: both renounce, degenerate designation, mutual trade
    z = gm.truthful_terminal(rda, (ba, ab))
    assert model.outcome_names[rda.outcome[z]] == "ba"


def test_rda_reports_refine_along_paths():
    """Each agent's successive reports are nested: no self-contradiction."""
    for pr in gm.all_priority_structures(3)[::31]:
        rda = gm.build_rda(pr, 3)
        model = rda.model
        for z in rda.terminals:
            last = {i: model.full_type_set(i) for i in range(model.n_agents)}
            for v in rda.path_nodes(z)[1:]:
                for a, act in rda.step[v]:
                    assert act <= last[a], (pr, z)
                    last[a] = act


def test_rda_pools_simultaneous_renunciations():
    # three distinct owners: the stage-two renunciation of one agent must not
    # reveal which partner another owner designated
    pr = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    rda = gm.build_rda(pr, 3)
    # the first renunciation is one simultaneous step at the root
    assert len(rda.children[0]) == 8
    root_sets = [s for s in rda.infosets if s.nodes == (0,)]
    assert len(root_sets) == 3


def test_rda_active_owner_observes_only_submarket():
    """Members of every information set share the same visible sub-market."""
    for pr in gm.all_priority_structures(3)[::17]:
        rda = gm.build_rda(pr, 3)
        for s in rda.infosets:
            if len(s.nodes) < 2:
                continue
            # pooled nodes must agree on every OTHER agent's cumulative report
            # only up to the union; their own experiences already match, so
            # just check the menus agree (validated) and the acting agent
            # cannot split the set by any proper refinement she holds
            menus = {tuple(sorted(tuple(sorted(a)) for a in
                                  [dict(rda.step[c])[s.agent]
                                   for c in rda.children[v]]))
                     for v in s.nodes}
            assert len(menus) == 1


def test_rda_ic_all_structures_n_le_3():
    for n in (2, 3):
        for pr in gm.all_priority_structures(n):
            model, f = gm.ttc_scf(pr, n)
            rda = gm.build_rda(pr, n)
            assert gm.is_ic(rda, f).holds, (n, pr)


def relabel(pr, agents, items):
    """The priority structure with agent a renamed ``agents[a]`` and item x
    renamed ``items[x]``."""
    out = [None] * len(pr)
    for x, order in enumerate(pr):
        out[items[x]] = tuple(agents[a] for a in order)
    return tuple(out)


def test_rda_three_agent_orbits_are_constant():
    """Relabelling agents and items, a group of 36, splits the 216
    three-agent structures into 10 orbits, and the staged tree's size and
    verdicts are constant on each.

    Why a relabelling gives an isomorphic tree: rename agent a to s[a] and
    item x to p[x].  Item p[x]'s priority list is then item x's with agents
    renamed, and agent s[a]'s type p(r) ranks items as a's type r does.
    ``build_rda`` decides every owner, claim, renunciation, designation and
    trading cycle from the priorities and the rankings alone, so each step
    of the renamed run is the renamed step, and its information-set keys are
    the renamed keys, equal exactly when the originals are.  Agent ids order
    only a node's children, which ``build_mechanism`` numbers canonically,
    and the queue of sequential assertions, taken in ascending id.  At n = 3
    the menus of one queue are disjoint sets of items (a claimer's own
    items, or a cycle member's partner's), so at most one member has two
    items to choose among; the others assert silently, with no node, and
    the queue's order does not change the tree.  So the renamed tree is the
    tree with agents, types and outcomes renamed, and IC, RP and IRP, which
    read only the tree and the preferences, are equal on both.  The
    argument does not reach n = 4, where two members of one queue can each
    hold two items."""
    n = 3
    perms = list(itertools.permutations(range(n)))
    orbits = {}
    for pr in gm.all_priority_structures(n):
        rep = min(relabel(pr, agents, items) for agents in perms for items in perms)
        rda = gm.build_rda(pr, n)
        _, f = gm.ttc_scf(pr, n)
        ic, rp, irp = (check(rda, f).holds for check in (gm.is_ic, gm.is_rp, gm.is_irp))
        assert ic == rp and (ic or not irp), pr
        orbits.setdefault(rep, set()).add((rda.n_nodes(), len(rda.infosets), ic, rp, irp))
    assert len(orbits) == 10
    assert all(len(rows) == 1 for rows in orbits.values())
    assert all(row[2:] == (True, True, True) for (row,) in orbits.values())


@pytest.mark.slow
def test_rda_four_agents_pooling_bites_and_stays_ic():
    """With four distinct owners, designations can stand across stages, so
    active owners genuinely cannot tell hidden partner choices apart: pooled
    information sets appear.  The mechanism still validates (perfect recall
    through the pooling), implements the trading-cycles table, and keeps
    truth-telling dominant."""
    pr = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))
    model, f = gm.ttc_scf(pr, 4)
    for profile in itertools.islice(model.profiles(), 0, None, 97):
        assert f[profile] == model.matching_index[ttc_all_cycles(pr, 4, model, profile)], profile
    rda = gm.build_rda(pr, 4)
    multi = [s for s in rda.infosets if len(s.nodes) >= 2]
    assert multi
    assert gm.validate(rda) == []
    assert gm.implemented_scf(rda) == f
    assert gm.is_ic(rda, f).holds


def test_rda_four_agents_first_ic_failure():
    """The first four-agent structure, in the orbit sample, on which a
    staged tree that lets the asserting owner see every earlier move is not
    IC.  ``build_rda`` keys an assertion by what is public at that point, so
    its tree pools agent 1's assertion at nodes 17 and 18 and agent 2's at
    nodes 21 and 23, and is IC, RP and IRP with 63 sets.  Illuminating those
    two sets gives the leaky tree back (65 sets); merging the two sets that
    its RP witness names, and then agent 2's two sets, undoes it.

    The checks run against the tree's own SCF, which is the trading-cycles
    table (``implemented_scf(rda) == ttc_scf(pr, 4)``, over 10 s to build).
    On the leaky tree agent 2, of type abcd, reaches ``cabd`` truthfully and
    ``cbad`` on the other path, with everyone else's choices fixed."""
    pr = ((0, 1, 2, 3), (0, 1, 2, 3), (1, 0, 3, 2), (2, 0, 3, 1))
    rda = gm.build_rda(pr, 4)
    model, f = rda.model, gm.implemented_scf(rda)
    assert (rda.n_nodes(), len(rda.infosets)) == (135, 63)
    assert rda.fingerprint()[:16] == "7402da7ce227947b"
    assert gm.is_ic(rda, f).holds and gm.is_rp(rda, f).holds and gm.is_irp(rda, f).holds
    assert [rda.infosets[k].nodes for k in (24, 47)] == [(17, 18), (21, 23)]

    leaky = gm.apply_illuminate(rda, gm.Illuminate(2, 47, (21,), (23,)))
    leaky = gm.apply_illuminate(leaky, gm.Illuminate(1, 24, (17,), (18,)))
    assert (leaky.n_nodes(), len(leaky.infosets)) == (135, 65)
    assert leaky.fingerprint()[:16] == "498e1b3dafdad465"
    assert gm.validate(leaky) == []

    ic = gm.is_ic(leaky, f).witness
    assert (ic.agent, ic.z1, ic.z2) == (2, 99, 105)
    assert (ic.profile1, ic.profile2) == ((12, 0, 0, 0), (12, 6, 12, 0))
    assert [model.outcome_names[leaky.outcome[z]] for z in (ic.z1, ic.z2)] == ["cabd", "cbad"]
    rp = gm.is_rp(leaky, f).witness
    assert (rp.agent, rp.reactor, rp.z1, rp.z2, rp.infosets) == (2, 1, 99, 105, (24, 25))
    irp = gm.is_irp(leaky, f).witness
    assert (irp.agent, irp.reactor, irp.z1, irp.z2) == (2, 1, 17, 18)

    assert replay_ic_witness(leaky, ic) == (99, 105)
    own = ic.profile1[2]
    assert model.type_names[2][own] == "abcd"
    assert model.strictly_prefers(2, own, leaky.outcome[105], leaky.outcome[99])

    # The repair that RP suggests: merge the reactor's two sets, then agent
    # 2's two sets at nodes 21 and 23.
    repaired, _ = gm.apply_merge(leaky, gm.Merge(1, 24, 25))
    repaired, _ = gm.apply_merge(repaired, gm.Merge(2, 47, 48))
    assert repaired.fingerprint() == rda.fingerprint()


def check_gen_ttc(pr, n):
    """``gen ttc`` takes its table from the tree it builds; the document is
    the one built with the separately computed trading-cycles table."""
    spec = ";".join(",".join(map(str, order)) for order in pr)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["gen", "ttc", "--n", str(n), "--priorities", spec])
    assert code == 0, (n, pr)
    assert buf.getvalue() == gen_ttc_oracle(pr, n) + "\n", (n, pr)


def test_gen_ttc_document_matches_the_oracle():
    """Every two-agent structure and the documented three-agent subset; run
    as a script to cover all 216 three-agent structures and to pin the
    trees of a 333-structure four-agent stride:
    ``PYTHONPATH=src python tests/test_generators_ttc.py``."""
    for pr in gm.all_priority_structures(2):
        check_gen_ttc(pr, 2)
    for pr in rda3_subset():
        check_gen_ttc(pr, 3)


if __name__ == "__main__":
    structures = gm.all_priority_structures(2) + gm.all_priority_structures(3)
    for pr in structures:
        check_gen_ttc(pr, len(pr))
    print(f"{len(structures)} gen ttc documents agree")
    # A wider four-agent stride of the staged trees, node for node.
    wide = gm.all_priority_structures(4)[::997]
    assert len(wide) == 333 and rda_digest(wide) == "cd5a4837fc347038"
    print(f"{len(wide)} four-agent trees keep their digest")
    # The four-agent stride: ttc_scf against the all-cycles oracle on every
    # profile and against the staged tree's table.
    for pr in gm.all_priority_structures(4)[::20011]:
        start = time.perf_counter()
        model, f = gm.ttc_scf(pr, 4)
        took = time.perf_counter() - start
        for profile, x in f.items():
            assert x == model.matching_index[ttc_all_cycles(pr, 4, model, profile)], (pr, profile)
        assert gm.implemented_scf(gm.build_rda(pr, 4)) == f, pr
        print(f"{pr}: ttc_scf agrees, built in {took:.1f} s")
