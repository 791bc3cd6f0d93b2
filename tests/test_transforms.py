import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import gradualmech as gm
from gradualmech import Coalesce, Illuminate, MechanismError, Merge, Split
from gradualmech.generators import L, M, R


def first_ops(mech, kind):
    return gm.find_opportunities(mech, kind)


# ---------------------------------------------------------------------------
# The linked voting chain
# ---------------------------------------------------------------------------

def test_voting_chain_relations(voting):
    """The forward links, each the canonical record of its step: g1
    --split--> . --coalesce--> g2 --coalesce--> g3 --merge--> g4
    --coalesce--> direct, and the merge's forward illumination g4 -> g3.
    Each step is the only opportunity of its kind, except the coalesce
    after the split, which has voter 1's coalesce beside it.  The
    generators build the family by the inverse rewrites, so these forward
    rewrites check it independently."""
    model, f, mechs = voting
    g1, g2, g3, g4, direct = (mechs[k] for k in ("g1", "g2", "g3", "g4", "direct"))
    lr, lmr = frozenset({L, R}), frozenset({L, M, R})

    spl = Split(1, 3, lr, frozenset({L}), frozenset({R}))
    assert first_ops(g1, "split") == [spl]
    mid = gm.apply_split(g1, spl)
    coa_v2 = Coalesce(1, 3, lr, 5)
    assert coa_v2 in first_ops(mid, "coalesce")
    assert gm.mechanisms_equal(gm.apply_coalesce(mid, coa_v2), g2)

    coa_v1 = Coalesce(0, 0, lr, 1)
    assert first_ops(g2, "coalesce") == [coa_v1]
    assert gm.mechanisms_equal(gm.apply_coalesce(g2, coa_v1), g3)

    merge = Merge(1, 2, 3)
    assert first_ops(g3, "merge") == [merge]
    merged, forward = gm.apply_merge(g3, merge)
    assert gm.mechanisms_equal(merged, g4)
    assert forward in first_ops(g4, "illuminate")
    assert gm.mechanisms_equal(gm.apply_illuminate(g4, forward), g3)

    coa_fin = Coalesce(1, 1, lmr, 2)
    assert first_ops(g4, "coalesce") == [coa_fin]
    assert gm.mechanisms_equal(gm.apply_coalesce(g4, coa_fin), direct)


def test_voting_reduction_chain(voting):
    model, f, mechs = voting
    chain = gm.reduce_to_direct(mechs["g1"], f)
    assert chain.counts() == {"split": 1, "coalesce": 3, "merge": 1}
    assert gm.mechanisms_equal(chain.final, mechs["direct"])
    assert gm.theorem1_verdict(chain)
    # the single merge reunites voter 2's split by the M report
    (step,) = chain.merges()
    assert step.preserving is True
    assert step.transform.agent == 1
    # the chain passes through g3, g4 and direct
    passed = [s.fingerprint for s in chain.steps]
    for name in ("g3", "g4", "direct"):
        assert mechs[name].fingerprint() in passed, name


def test_direct_mechanism_reduces_trivially(voting):
    model, f, mechs = voting
    chain = gm.reduce_to_direct(mechs["direct"], f)
    assert chain.steps == []
    assert gm.mechanisms_equal(chain.final, mechs["direct"])
    assert gm.theorem1_verdict(chain)


def test_theorem1_verdict_needs_every_merge_checked():
    chain = gm.ReductionChain("source", [gm.ChainStep(Merge(0, 0, 1), "merged")], None)
    with pytest.raises(MechanismError, match="without preservation checks"):
        gm.theorem1_verdict(chain)


def test_reduce_shares_the_checkers_gate(voting):
    """``reduce_to_direct`` refuses what the checkers refuse, an invalid
    mechanism or one that does not implement the SCF, with their message."""
    model, f, mechs = voting
    g3 = mechs["g3"]
    uncovered = g3.regroup([(s.agent, s.nodes) for s in g3.infosets[1:]])
    _, other_f = gm.voting_model_and_scf(phantoms=(0,))
    for mech, ff, fragment in ((uncovered, f, "invalid mechanism"),
                               (g3, other_f, "does not implement")):
        with pytest.raises(MechanismError, match=fragment) as checked:
            gm.is_ic(mech, ff)
        with pytest.raises(MechanismError) as reduced:
            gm.reduce_to_direct(mech, ff)
        assert str(reduced.value) == str(checked.value)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def test_split_errors(voting):
    model, f, mechs = voting
    g1 = mechs["g1"]
    (spl,) = first_ops(g1, "split")
    with pytest.raises(MechanismError, match="partition"):
        gm.apply_split(g1, Split(spl.agent, spl.infoset, spl.action,
                                 spl.action, frozenset()))
    # splitting where the agent decides again afterwards: voter 1's root L+R
    with pytest.raises(MechanismError, match="decides again"):
        gm.apply_split(g1, Split(0, 0, frozenset({0, 2}),
                                 frozenset({0}), frozenset({2})))


def test_split_preserves_scf_and_ic(full_corpus):
    rng = random.Random(5)
    done = 0
    for name, mech, model, f in full_corpus:
        ops = first_ops(mech, "split")
        if not ops:
            continue
        t = ops[rng.randrange(len(ops))]
        after = gm.apply_split(mech, t)
        assert gm.validate(after) == [], name
        assert gm.implemented_scf(after) == gm.implemented_scf(mech), name
        assert gm.is_ic(after, f).holds == gm.is_ic(mech, f).holds, name
        assert len(after.infosets) == len(mech.infosets) + 1
        done += 1
        if done >= 12:
            break
    assert done >= 5


# ---------------------------------------------------------------------------
# Coalescing
# ---------------------------------------------------------------------------

def test_coalesce_drops_one_infoset(voting):
    model, f, mechs = voting
    g2 = mechs["g2"]
    for c in first_ops(g2, "coalesce"):
        after = gm.apply_coalesce(g2, c)
        assert len(after.infosets) == len(g2.infosets) - 1


def test_coalesce_degenerate_root_step(voting):
    model, f, mechs = voting
    g4 = mechs["g4"]
    (c,) = first_ops(g4, "coalesce")
    assert c.action == frozenset({0, 1, 2})  # voter 2's degenerate root action
    after = gm.apply_coalesce(g4, c)
    assert len(after.infosets) == len(g4.infosets) - 1
    assert gm.is_static(after)


@pytest.mark.parametrize("kind, name", [
    ("split", "g1"), ("coalesce", "g1"), ("coalesce", "g4"), ("unsplit", "g1"),
    ("uncoalesce", "g1"), ("reduce", "g1"),
], ids=lambda x: x)
def test_rewrite_frees_its_input_by_reference_counting(kind, name):
    """With the cycle collector off, a rewritten or reduced input is freed as
    soon as its last reference goes: no rewrite leaves a reference cycle
    behind, such as a copy callback that calls itself."""
    _, f, mechs = gm.voting_examples()
    mech = mechs.pop(name)
    if kind == "reduce":
        def rewrite(m):
            return gm.reduce_to_direct(m, f).final
    else:
        t = next(gm.iter_opportunities(mech, kind))

        def rewrite(m):
            return gm.apply_transformation(m, t)
    enabled = gc.isenabled()
    gc.disable()
    try:
        ref = weakref.ref(mech)
        result = rewrite(mech)
        del mech, mechs
        assert ref() is None
        assert gm.validate(result) == []
    finally:
        if enabled:
            gc.enable()


def test_coalesce_rejects_informative_target(voting):
    model, f, mechs = voting
    g3 = mechs["g3"]
    # voter 2's set after M follows the degenerate root set but learns plenty
    k_after_m = next(k for k, s in enumerate(g3.infosets)
                     if s.agent == 1 and len(s.nodes) == 1 and s.nodes[0] != 0)
    root_k = next(k for k, s in enumerate(g3.infosets)
                  if s.agent == 1 and s.nodes == (0,))
    bad = Coalesce(1, root_k, frozenset({0, 1, 2}), k_after_m)
    with pytest.raises(MechanismError, match="acquires information"):
        gm.apply_coalesce(g3, bad)


def test_coalesce_preserves_scf_and_ic(full_corpus):
    rng = random.Random(6)
    done = 0
    for name, mech, model, f in full_corpus:
        ops = first_ops(mech, "coalesce")
        if not ops:
            continue
        t = ops[rng.randrange(len(ops))]
        after = gm.apply_coalesce(mech, t)
        assert gm.validate(after) == [], name
        assert gm.implemented_scf(after) == gm.implemented_scf(mech), name
        assert gm.is_ic(after, f).holds == gm.is_ic(mech, f).holds, name
        done += 1
        if done >= 12:
            break
    assert done >= 5


# ---------------------------------------------------------------------------
# Illuminating and its inverse
# ---------------------------------------------------------------------------

def test_illuminate_roundtrip(voting):
    model, f, mechs = voting
    g4 = mechs["g4"]
    for t in first_ops(g4, "illuminate"):
        lit = gm.apply_illuminate(g4, t)
        assert gm.validate(lit) == []
        assert len(lit.infosets) == len(g4.infosets) + 1
        # invert through the matching merge
        back = None
        for cand in first_ops(lit, "merge"):
            merged, forward = gm.apply_merge(lit, cand)
            if gm.mechanisms_equal(merged, g4):
                back = merged
                break
        assert back is not None


def test_illuminate_scf_unchanged_and_ic_rule(full_corpus):
    rng = random.Random(7)
    done = 0
    for name, mech, model, f in full_corpus:
        ops = first_ops(mech, "illuminate")
        if not ops:
            continue
        t = ops[rng.randrange(len(ops))]
        after = gm.apply_illuminate(mech, t)
        assert gm.validate(after) == [], name
        assert gm.implemented_scf(after) == gm.implemented_scf(mech), name
        before_ic = gm.is_ic(mech, f).holds
        preserving = gm.is_incentive_preserving(mech, t, f).holds
        assert gm.is_ic(after, f).holds == (before_ic and preserving), name
        done += 1
        if done >= 12:
            break
    assert done >= 5


def test_merge_requires_equal_menus(voting):
    model, f, mechs = voting
    g1 = mechs["g1"]
    ks = [k for k, s in enumerate(g1.infosets) if s.agent == 1]
    pairs = [(a, b) for a in ks for b in ks if a < b
             and g1.infosets[a].actions != g1.infosets[b].actions]
    assert pairs
    with pytest.raises(MechanismError, match="menus"):
        gm.apply_merge(g1, Merge(1, *pairs[0]))


def test_figure_style_illumination_is_preserving(voting):
    model, f, mechs = voting
    g4, g3 = mechs["g4"], mechs["g3"]
    t = next(t for t in first_ops(g4, "illuminate")
             if gm.mechanisms_equal(gm.apply_illuminate(g4, t), g3))
    assert gm.is_incentive_preserving(g4, t, f).holds


def test_example_illuminations():
    model, f = gm.second_price_scf(2, 2)
    g = gm.build_gstar(2, 2)
    (t,) = first_ops(g, "illuminate")
    v = gm.is_incentive_preserving(g, t, f)
    assert not v.holds
    assert gm.verify_witness(g, f, v.witness)
    base, ill = gm.example2_base_and_illumination()
    model32, f32 = gm.second_price_scf(3, 2)
    assert gm.is_incentive_preserving(base, ill, f32).holds


# ---------------------------------------------------------------------------
# The inverse rewrites
# ---------------------------------------------------------------------------

def test_uncoalesce_then_coalesce_roundtrip(voting):
    model, f, mechs = voting
    direct = mechs["direct"]
    ops = [t for t in first_ops(direct, "uncoalesce") if t.agent == 1
           and len(t.actions) == 3]
    assert ops
    two_step = gm.apply_uncoalesce(direct, ops[0])
    assert gm.validate(two_step) == []
    assert gm.mechanisms_equal(two_step, mechs["g4"])
    (back,) = first_ops(two_step, "coalesce")
    assert gm.mechanisms_equal(gm.apply_coalesce(two_step, back), direct)


def test_unsplit_then_split_roundtrip(voting):
    model, f, mechs = voting
    g2 = mechs["g2"]
    (spl,) = first_ops(mechs["g1"], "split")
    mid = gm.apply_split(mechs["g1"], spl)
    uns = [t for t in first_ops(mid, "unsplit")]
    assert uns
    back = gm.apply_unsplit(mid, uns[0])
    assert gm.mechanisms_equal(back, mechs["g1"])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_illuminate_merge_roundtrip_random_partitions(data):
    model, f, mechs = gm.voting_examples()
    good, bad, model_sd, f_sd = gm.serial_dictatorship_pair()
    mech, ff = data.draw(st.sampled_from(
        [(mechs["g4"], f), (mechs["g1"], f), (bad, f_sd),
         (gm.build_gstar(2, 3), gm.second_price_scf(2, 3)[1])]))
    cands = [(k, s) for k, s in enumerate(mech.infosets) if len(s.nodes) >= 2]
    if not cands:
        return
    k, s = data.draw(st.sampled_from(cands))
    cut = data.draw(st.integers(1, len(s.nodes) - 1))
    picked = data.draw(st.permutations(list(s.nodes)))
    part1, part2 = tuple(sorted(picked[:cut])), tuple(sorted(picked[cut:]))
    t = Illuminate(s.agent, k, part1, part2)
    lit = gm.apply_illuminate(mech, t)
    assert gm.validate(lit) == []
    assert gm.implemented_scf(lit) == gm.implemented_scf(mech)
    restored = None
    for cand in gm.find_opportunities(lit, "merge"):
        merged, _ = gm.apply_merge(lit, cand)
        if gm.mechanisms_equal(merged, mech):
            restored = merged
            break
    assert restored is not None


def test_reduction_terminates_on_random_corpus(random_corpus):
    for name, mech, model, f in random_corpus[:25]:
        chain = gm.reduce_to_direct(mech, f)
        assert gm.is_static(chain.final), name
        assert gm.validate(chain.final) == [], name
        assert gm.implemented_scf(chain.final) == f, name
        assert gm.theorem1_verdict(chain) == gm.is_ic(mech, f).holds, name


def test_split_skips_terminals_beyond_degenerate_decisions():
    """An agent may hold a degenerate decision node mid-tree; terminals past
    it still carry her coarse report but are not split targets, since she
    does decide (vacuously) again there.  Splits must pool cleanly and the
    reduction must still reach the direct form."""
    from gradualmech import build_mechanism, make_step
    model, f = gm.serial_dictatorship_scf(2, [1, 0])  # outcome ignores agent 0
    full0 = model.full_type_set(0)
    full1 = model.full_type_set(1)
    # root: both degenerate; agent 1 reports her type; on the {1} branch
    # agent 0 holds one degenerate stub decision before the terminal
    nodes = [
        (None, None),
        (0, make_step({0: full0, 1: full1})),
        (1, make_step({1: frozenset({0})})),
        (1, make_step({1: frozenset({1})})),
        (3, make_step({0: full0})),
    ]
    outcomes = {2: f[(0, 0)], 4: f[(0, 1)]}
    groups = [(0, [0]), (0, [3]), (1, [0]), (1, [1])]
    mech = build_mechanism(model, nodes, groups, outcomes)
    assert gm.validate(mech) == []
    stubs = [s for s in mech.infosets
             if s.agent == 0 and s.nodes != (0,) and len(s.actions) == 1]
    assert stubs, "expected a degenerate stub decision for agent 0"

    for t in gm.find_opportunities(mech, "split"):
        after = gm.apply_split(mech, t)
        assert gm.validate(after) == [], t
    chain = gm.reduce_to_direct(mech, f)
    assert gm.mechanisms_equal(chain.final, gm.direct_mechanism(model, f))
    assert gm.theorem1_verdict(chain) == gm.is_ic(mech, f).holds


def test_non_static_without_splits_has_coalesce_or_merge(random_corpus):
    """Once every terminal pins one profile, a non-static mechanism always
    offers a coalesce or a merge, so the reduction cannot strand."""
    for name, mech, model, f in random_corpus[:15]:
        cur = mech
        while True:
            t = next(gm.iter_opportunities(cur, "split"), None)
            if t is None:
                break
            cur = gm.apply_split(cur, t)
        while not gm.is_static(cur):
            t = next(gm.iter_opportunities(cur, "coalesce"), None)
            if t is None:
                t = next(gm.iter_opportunities(cur, "merge"), None)
                assert t is not None, name
                cur = gm.apply_merge(cur, t)[0]
            else:
                cur = gm.apply_coalesce(cur, t)


def test_infoset_count_bookkeeping(random_corpus):
    for name, mech, model, f in random_corpus[:10]:
        for kind in ("split", "coalesce", "illuminate"):
            ops = first_ops(mech, kind)
            if not ops:
                continue
            t = ops[0]
            after = gm.apply_transformation(mech, t)
            if kind == "split":
                delta = 1
            elif kind == "coalesce":
                delta = -1
            else:
                # the split set counts once; every straddled successor set of
                # the same agent splits as well
                p1, p2 = set(t.part1), set(t.part2)

                def side(v):
                    for u in mech.path_nodes(v):
                        if u in p1:
                            return 1
                        if u in p2:
                            return 2
                    return None

                straddled = 0
                for k, s in enumerate(mech.infosets):
                    if s.agent != t.agent or k == t.infoset:
                        continue
                    sides = {side(v) for v in s.nodes}
                    if sides == {1, 2}:
                        straddled += 1
                delta = 1 + straddled
            assert len(after.infosets) == len(mech.infosets) + delta, (name, kind)
