"""Profiles as ranks: the SCF and the truthful table are tuples indexed by a
profile's mixed-radix rank in ``TypeModel.profiles()`` order.  Checked
against the dict walk over every terminal's type box
(``implemented_scf_oracle``) and the ordered pair-by-pair SP scan
(``is_strategy_proof_oracle``) over ``full_corpus``, the four benchmark
auctions and every other three-agent trading structure.
"""

import random

import pytest

import gradualmech as gm
from gradualmech.gameform import Mechanism
from oracles import implemented_scf_oracle, is_strategy_proof_oracle
from test_conflict_masks import rotated
from test_fingerprint import CountingScf

AUCTIONS = ((4, 4), (5, 3), (4, 5), (5, 4))


def auction_and_trading_entries():
    for n, m in AUCTIONS:
        model, f = gm.second_price_scf(n, m)
        yield f"gstar-{n}-{m}", gm.build_gstar(n, m), model, f
    for pr in gm.all_priority_structures(3)[::2]:
        model, f = gm.ttc_scf(pr, 3)
        yield f"rda3-{pr}", gm.build_rda(pr, 3), model, f


def check_entry(name, mech, model, f):
    oracle = implemented_scf_oracle(mech)
    assert dict(gm.implemented_scf(mech).items()) == oracle, name
    for z in mech.terminals:
        for profile in mech.theta_profiles(z):
            assert mech.truthful_terminal(profile) == z, (name, profile)
    for g in (f, rotated(model, f)):
        table = dict(zip(model.profiles(), g.outcomes))
        assert gm.implements(mech, g) == (table == oracle), name
        assert gm.is_strategy_proof(model, g) == is_strategy_proof_oracle(model, g), name


def test_rank_tables_match_the_dict_walk_on_the_corpus(full_corpus):
    for entry in full_corpus:
        check_entry(*entry)


def test_rank_tables_match_the_dict_walk_on_auctions_and_trading():
    for entry in auction_and_trading_entries():
        check_entry(*entry)


def indifferent_first_agent_model(rng, n_types=(3, 3, 2), n_outcomes=4):
    """Agent 0 is indifferent among all outcomes, so it never gains and a
    witness falls to agent 1; the others rank the outcomes at random."""
    outcomes = range(n_outcomes)
    prefs = [[gm.WeakOrder([outcomes])] * n_types[0]]
    for n in n_types[1:]:
        prefs.append([gm.WeakOrder([{x} for x in rng.sample(outcomes, n_outcomes)])
                      for _ in range(n)])
    return gm.TypeModel([[f"t{t}" for t in range(n)] for n in n_types],
                        [f"x{x}" for x in outcomes], prefs)


def test_strategy_proofness_witness_on_random_tables():
    """Random tables fail at many profiles, so the first witness depends on
    the scan order.  With agent 0 indifferent the witness falls to agent 1,
    whose strided profiles are not contiguous when a third agent follows."""
    rng = random.Random(20261019)
    models = [gm.second_price_scf(3, 3)[0], gm.matching_model(3),
              indifferent_first_agent_model(rng), indifferent_first_agent_model(rng, (2, 3, 2, 2))]
    for model in models:
        for _ in range(20):
            f = gm.ScfTable(model, [rng.randrange(model.n_outcomes())
                                    for _ in range(model.n_profiles())])
            assert gm.is_strategy_proof(model, f) == is_strategy_proof_oracle(model, f)


def test_rank_is_the_profile_order_and_refuses_bad_profiles():
    model, f = gm.second_price_scf(3, 2)
    assert [model.rank(p) for p in model.profiles()] == list(range(model.n_profiles()))
    assert [f[p] for p in model.profiles()] == list(f.outcomes)
    for bad in ((0, 0), (0, 0, 0, 0), (0, 2, 0), (0, 0, -1)):
        with pytest.raises(KeyError):
            model.rank(bad)
        with pytest.raises(KeyError):
            f[bad]


def test_checks_build_one_truthful_table_and_implements_reads_no_entry(monkeypatch):
    """On the (4,4) auction, IC, RP and IRP share one truthful table, and
    ``implements`` compares tuples without a lookup by profile."""
    builds = []
    real = Mechanism.truthful_table

    def counted(self):
        if "truthful" not in self._tree:
            builds.append(self)
        return real(self)

    monkeypatch.setattr(Mechanism, "truthful_table", counted)
    mech = gm.build_gstar(4, 4)
    _, f = gm.second_price_scf(4, 4)
    for check in (gm.is_ic, gm.is_rp, gm.is_irp):
        assert check(mech, f).holds
    assert len(builds) == 1
    counting = CountingScf(f)
    assert gm.implements(mech, counting)
    assert counting.lookups == 0


def test_truthful_outcomes_are_one_tree_table(full_corpus):
    """The implemented outcomes are a tree table: a regrouping reads the
    same tuple, ``implemented_scf`` wraps it, and it is the dict walk's SCF
    in profile order."""
    for name, mech, model, f in full_corpus:
        outcomes = mech.truthful_outcomes()
        oracle = implemented_scf_oracle(mech)
        assert outcomes == tuple(oracle[p] for p in model.profiles()), name
        other = mech.regroup([(s.agent, s.nodes) for s in mech.infosets])
        assert other.truthful_outcomes() is outcomes, name
        assert gm.implemented_scf(other).outcomes is outcomes, name
