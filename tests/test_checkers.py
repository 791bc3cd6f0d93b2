from dataclasses import replace

import pytest

import gradualmech as gm
from gradualmech import MechanismError, checkers

from oracles import brute_force_ic, replay_ic_witness, unconditional_deviation_ic


def test_ic_direct_mechanism_of_sp_scf(voting):
    model, f, mechs = voting
    assert gm.is_ic(mechs["direct"], f).holds


def test_ic_voting_family(voting):
    model, f, mechs = voting
    for name, mech in mechs.items():
        assert gm.is_ic(mech, f).holds, name


def test_ic_serial_dictatorship_pair(sd_pair):
    good, bad, model, f = sd_pair
    assert gm.is_ic(good, f).holds
    verdict = gm.is_ic(bad, f)
    assert not verdict.holds
    w = verdict.witness
    assert w.agent == 1  # the whole-ranking reporter is the harmed agent
    assert gm.verify_witness(bad, f, w)
    # her misreport path tops item b while her truth tops a
    assert model.type_names[1][w.profile2[1]][0] == "b"
    assert model.type_names[1][w.profile1[1]][0] == "a"


def test_ic_requires_valid_implementing_mechanism(voting):
    model, f, mechs = voting
    other_model, other_f = gm.voting_model_and_scf(phantoms=(0,))
    with pytest.raises(MechanismError):
        gm.is_ic(mechs["g3"], other_f)


def test_rp_static_always_holds(voting, random_corpus):
    model, f, mechs = voting
    assert gm.is_rp(mechs["direct"], f).holds
    for name, mech, model_r, f_r in random_corpus[:10]:
        if gm.is_static(mech):
            assert gm.is_rp(mech, f_r).holds, name


def test_rp_and_irp_fail_on_bad_serial_dictatorship(sd_pair):
    good, bad, model, f = sd_pair
    v_rp = gm.is_rp(bad, f)
    assert not v_rp.holds
    assert gm.verify_witness(bad, f, v_rp.witness)
    v_irp = gm.is_irp(bad, f)
    assert not v_irp.holds
    assert gm.verify_witness(bad, f, v_irp.witness)


def test_irp_voting_g3(voting):
    model, f, mechs = voting
    assert gm.is_irp(mechs["g3"], f).holds


def test_irp_gstar(gstar_instances):
    for (n, m), (g, model, f) in gstar_instances.items():
        assert gm.is_irp(g, f).holds, (n, m)


def test_example1_not_ic_with_exact_witness():
    mech = gm.example1_mechanism()
    model, f = gm.second_price_scf(2, 2)
    verdict = gm.is_ic(mech, f)
    assert not verdict.holds
    w = verdict.witness
    assert w.agent == 0
    assert gm.verify_witness(mech, f, w)
    # truthful high-value stay vs the mirrored all-leave path
    assert w.profile1 == (1, 1) and w.profile2 == (0, 0)


def test_relaxed_rp_monotone(full_corpus):
    for name, mech, model, f in full_corpus[:60]:
        strict = gm.is_rp(mech, f).holds
        relaxed = gm.is_rp(mech, f, relaxed=True).holds
        if strict:
            assert relaxed, name


def test_relaxed_rp_still_characterizes_ic(full_corpus):
    """The skipped pairs are redundant: whenever a third agent distinguishes
    the histories first, the violation re-surfaces at her own sibling pair,
    so the relaxed mode agrees with the plain one on the verdict."""
    for name, mech, model, f in full_corpus[:120]:
        assert gm.is_rp(mech, f, relaxed=True).holds == gm.is_ic(mech, f).holds, name


def test_theorem2_on_sample(full_corpus):
    for name, mech, model, f in full_corpus[:60]:
        assert gm.is_ic(mech, f).holds == gm.is_rp(mech, f).holds, name


def test_brute_force_matches_pairwise_ic(voting, sd_pair, gstar_instances):
    """Full strategy quantification, the unconditional-deviation reduction,
    and the terminal-pair test agree on every small fixture."""
    model, f, mechs = voting
    cases = [(m, f) for m in mechs.values()]
    cases.append((sd_pair[0], sd_pair[3]))
    cases.append((sd_pair[1], sd_pair[3]))
    g22, model22, f22 = gstar_instances[(2, 2)]
    cases.append((g22, f22))
    for mech, ff in cases:
        assert gm.strategy_space_size(mech) <= 10_000
        pairwise = gm.is_ic(mech, ff).holds
        assert brute_force_ic(mech, ff) == pairwise
        assert unconditional_deviation_ic(mech, ff) == pairwise


def test_every_false_verdict_reverifies(random_corpus):
    checked = 0
    for name, mech, model, f in random_corpus:
        v = gm.is_ic(mech, f)
        if not v.holds:
            assert gm.verify_witness(mech, f, v.witness), name
            checked += 1
        v2 = gm.is_rp(mech, f)
        if not v2.holds:
            assert gm.verify_witness(mech, f, v2.witness), name
        if checked >= 12:
            break
    assert checked >= 1


def test_scans_count_rank_tables_and_settled_tests(monkeypatch):
    """Machine-independent counts on the (4,4) auction: the IC and RP scans
    build one rank table per (agent, type) at most, 16 in all, not one per
    (agent, type, outcome); the IRP scan makes at most one settled test per
    (agent, history of a sibling set)."""
    made = []

    def recording(cls):
        class Recording(cls):
            def __init__(self, mech):
                super().__init__(mech)
                made.append(self)
        monkeypatch.setattr(checkers, cls.__name__, Recording)

    recording(checkers._Harm)
    recording(checkers._Settled)
    mech = gm.build_gstar(4, 4)
    _, f = gm.second_price_scf(4, 4)
    model = mech.model
    tables = sum(map(model.n_types, range(model.n_agents)))
    assert tables == 16
    for check in (gm.is_ic, gm.is_rp, lambda m, f: gm.is_rp(m, f, relaxed=True)):
        made.clear()
        assert check(mech, f).holds
        (harm,) = made
        assert 0 < len(harm._tables) <= tables
    histories = {h for _, k1, k2 in gm.siblings_same_action(mech)
                 for k in (k1, k2) for h in mech.infosets[k].nodes}
    tests, settled = [], checkers._Settled.__call__

    def counted(self, j, h):
        tests.append((j, h))
        return settled(self, j, h)
    monkeypatch.setattr(checkers._Settled, "__call__", counted)
    made.clear()
    assert gm.is_irp(mech, f).holds
    assert len(made) == 1
    assert 0 < len(tests) <= model.n_agents * len(histories)


def test_passing_scans_read_preferences_by_model_size(monkeypatch):
    """Passing IC, RP and IRP scans read preferences only through the
    model's level tables, and their lookups there are bounded by types ×
    outcomes × (outcomes + 1) summed over the agents, however many terminal
    pairs they admit.  None of them compares a pair with ``weakly_prefers``
    or ``WeakOrder.level``."""
    calls = {"level": 0, "weakly_prefers": 0, "lookup": 0}

    def counted(cls, name):
        inner = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(cls, name, wrapper)

    class CountedTable(dict):
        def __getitem__(self, x):
            calls["lookup"] += 1
            return dict.__getitem__(self, x)

    counted(gm.WeakOrder, "level")
    counted(gm.TypeModel, "weakly_prefers")
    levels = gm.TypeModel.levels
    monkeypatch.setattr(gm.TypeModel, "levels",
                        lambda model, j, t: CountedTable(levels(model, j, t)))
    _, f = gm.second_price_scf(4, 4)
    checks = (gm.is_ic, gm.is_rp, lambda m, f: gm.is_rp(m, f, relaxed=True), gm.is_irp)
    for check in checks:
        mech = gm.build_gstar(4, 4)
        model = mech.model
        n_x = model.n_outcomes()
        bound = sum(map(model.n_types, range(model.n_agents))) * n_x * (n_x + 1)
        for name in calls:
            calls[name] = 0
        assert check(mech, f).holds
        assert calls["weakly_prefers"] == 0 and calls["level"] == 0
        assert 0 < calls["lookup"] <= bound


def test_ic_and_rp_witnesses_replay_with_explicit_strategies(full_corpus):
    """Every IC and RP witness of the corpus is reached by ``play`` from
    explicit strategies, which reads no conflict masks, and the deviation
    strictly gains."""
    replayed = {"ic": 0, "rp": 0}
    for name, mech, model, f in full_corpus:
        for check in (gm.is_ic, gm.is_rp):
            w = check(mech, f).witness
            if w is None:
                continue
            z1, z2 = replay_ic_witness(mech, w)
            assert (z1, z2) == (w.z1, w.z2), (name, w)
            assert not model.weakly_prefers(w.agent, w.profile1[w.agent],
                                            mech.outcome[z1], mech.outcome[z2]), (name, w)
            replayed[w.kind] += 1
    assert replayed == {"ic": 51, "rp": 51}


def first_witnesses(full_corpus):
    """Per kind, the first IC, RP, IRP and illumination witness of the
    corpus, in corpus order, with a node at which an agent outside the
    witness's (agent, reactor) pair conflicts with its first history: a
    terminal, or any node for IRP.  An IRP witness also needs a terminal
    under its first history that keeps the pair the only conflicting
    agents, since every agent is settled at a terminal."""
    def witnesses(mech, f):
        for check in (gm.is_ic, gm.is_rp, gm.is_irp):
            yield check(mech, f).witness
        for t in gm.find_opportunities(mech, "illuminate")[:5]:
            yield gm.is_incentive_preserving(mech, t, f).witness

    found = {}
    for name, mech, model, f in full_corpus:
        for w in witnesses(mech, f):
            if w is None or w.kind in found:
                continue
            pair = {w.agent, w.reactor}
            nodes = range(mech.n_nodes()) if w.kind == "irp" else mech.terminals
            outsider = next((v for v in nodes if mech.conflict_agents(w.z1, v) - pair), None)
            settled = next((z for z in mech.terminals_under(w.z1)
                            if not mech.conflict_agents(z, w.z2) - pair), None)
            if outsider is not None and (settled is not None or w.kind != "irp"):
                found[w.kind] = name, mech, f, w, outsider, settled
        if len(found) == 4:
            return found
    raise AssertionError(f"witness kinds found: {sorted(found)}")


def test_verify_witness_rejects_each_tampered_field(full_corpus):
    """Each field ``verify_witness`` checks, altered in a real witness,
    makes it return False; an unknown kind raises."""
    for kind, (name, mech, f, w, outsider, settled) in first_witnesses(full_corpus).items():
        assert gm.verify_witness(mech, f, w), name
        tampered = {"third conflicting agent": replace(w, z2=outsider)}
        if kind in ("ic", "rp"):
            tampered.update({
                "swapped terminals": replace(w, z1=w.z2, z2=w.z1),
                "non-truthful profile": replace(w, profile2=w.profile1),
                "wrong outcome": replace(w, outcome2=w.outcome1),
            })
        if kind == "irp":
            tampered["settled agent"] = replace(w, z1=settled)
        for what, bad in tampered.items():
            assert not gm.verify_witness(mech, f, bad), (name, kind, what)
        with pytest.raises(ValueError, match="unknown witness kind"):
            gm.verify_witness(mech, f, replace(w, kind="dsic"))
