from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import gradualmech as gm
from gradualmech import ScfTable, TypeModel, WeakOrder

from oracles import sp_oracle


def test_weak_order_levels():
    order = WeakOrder([{0}, {1, 2}])
    assert order.level(0) == 0
    assert order.level(1) == order.level(2) == 1
    with pytest.raises(ValueError):
        WeakOrder([{0}, {0, 1}])
    with pytest.raises(ValueError):
        WeakOrder([{0}, set()])


@given(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True),
       st.data())
def test_weak_order_complete_and_transitive(outcomes, data):
    # random partition into levels via a level label per outcome
    labels = [data.draw(st.integers(0, len(outcomes) - 1)) for _ in outcomes]
    by_label = {}
    for x, lab in zip(outcomes, labels):
        by_label.setdefault(lab, set()).add(x)
    order = WeakOrder([by_label[lab] for lab in sorted(by_label)])

    def weak(x, y):
        return order.level(x) <= order.level(y)

    for x in outcomes:
        for y in outcomes:
            assert weak(x, y) or weak(y, x)
            for z in outcomes:
                if weak(x, y) and weak(y, z):
                    assert weak(x, z)


def test_reflexivity_and_voting_preferences():
    model, _ = gm.voting_model_and_scf()
    for x in range(3):
        assert model.weakly_prefers(0, 0, x, x)
    # candidates: L=0, M=1, R=2; a type-L voter prefers L to M
    assert model.strictly_prefers(0, 0, 0, 1)
    # a type-M voter is indifferent between the flanks
    assert model.indifferent(0, 1, 0, 2)
    assert model.weakly_prefers(0, 1, 0, 2) and model.weakly_prefers(0, 1, 2, 0)


def test_scf_totality_enforced():
    model, f = gm.voting_model_and_scf()
    table = list(f.outcomes)
    with pytest.raises(ValueError):
        ScfTable(model, table[1:])
    table[0] = 7
    with pytest.raises(ValueError):
        ScfTable(model, table)


def test_voting_median_is_strategy_proof():
    model, f = gm.voting_model_and_scf()
    ok, witness = gm.is_strategy_proof(model, f)
    assert ok and witness is None
    assert sp_oracle(model, f)


def test_second_price_is_strategy_proof():
    model, f = gm.second_price_scf(2, 3)
    ok, _ = gm.is_strategy_proof(model, f)
    assert ok
    assert sp_oracle(model, f)


def test_pay_your_own_bid_not_strategy_proof():
    # winner pays her own reported value; shading beats truth when tied high
    n, m = 2, 2

    def own_bid_entry(profile):
        values = [v + 1 for v in profile]
        top = max(values)
        winners = tuple(sorted(i for i, v in enumerate(values) if v == top))
        return (winners, top)

    entries = sorted({own_bid_entry(p) for p in
                      ((a, b) for a in range(m) for b in range(m))})
    idx = {e: k for k, e in enumerate(entries)}

    def payoff(entry, bidder, value):
        winners, price = entry
        if bidder not in winners:
            return Fraction(0)
        return Fraction(1, len(winners)) * (value - price)

    prefs = []
    for i in range(n):
        per_type = []
        for t in range(m):
            by_ev = {}
            for k, e in enumerate(entries):
                by_ev.setdefault(payoff(e, i, t + 1), []).append(k)
            per_type.append(WeakOrder([by_ev[ev] for ev in sorted(by_ev, reverse=True)]))
        prefs.append(per_type)
    model = TypeModel([["1", "2"]] * n, [str(e) for e in entries], prefs)
    f = ScfTable(model, [idx[own_bid_entry(p)] for p in model.profiles()])

    ok, witness = gm.is_strategy_proof(model, f)
    assert not ok
    assert not sp_oracle(model, f)
    i, ti, mis, rest = witness
    # the witness re-checks: shading is strictly better there
    profile = rest[:i] + (ti,) + rest[i:]
    deviated = rest[:i] + (mis,) + rest[i:]
    assert model.strictly_prefers(i, ti, f[deviated], f[profile])
    # overbidder shades: value 2 reporting 1
    assert ti == 1 and mis == 0


def test_is_strategy_proof_matches_oracle_on_random_tables(random_corpus):
    seen = 0
    for name, mech, model, f in random_corpus[:25]:
        assert gm.is_strategy_proof(model, f)[0] == sp_oracle(model, f)
        seen += 1
    assert seen == 25


def test_auction_payoff_exact():
    model, f = gm.second_price_scf(2, 2)
    both_stay = f[(1, 1)]
    both_leave = f[(0, 0)]
    assert gm.auction_payoff(model, both_stay, 0, 2) == 0
    assert gm.auction_payoff(model, both_leave, 0, 2) == Fraction(1, 2)


def test_type_model_refuses_shapes_that_do_not_match():
    """Each of ``TypeModel``'s shape checks, which the parser never reaches
    because it checks the document's shapes first."""
    orders = [WeakOrder([{0}, {1}]), WeakOrder([{1}, {0}])]
    types, outcomes = [["a", "b"], ["c", "d"]], ["x", "y"]
    assert TypeModel(types, outcomes, [orders, orders]).agent_names == ("agent0", "agent1")
    with pytest.raises(ValueError, match="^agent_names length mismatch$"):
        TypeModel(types, outcomes, [orders, orders], agent_names=["only"])
    with pytest.raises(ValueError, match="^prefs must cover every agent$"):
        TypeModel(types, outcomes, [orders])
    with pytest.raises(ValueError, match="^agent 1: one weak order per type required$"):
        TypeModel(types, outcomes, [orders, orders[:1]])


def test_type_model_refuses_duplicate_names():
    """A document keys each step by agent name and each action by type name,
    so a model whose names repeat could not be written and read back."""
    orders = [WeakOrder([{0}, {1}]), WeakOrder([{1}, {0}])]
    types, outcomes = [["a", "b"], ["c", "d"]], ["x", "y"]
    with pytest.raises(ValueError, match="^duplicate agent names$"):
        TypeModel(types, outcomes, [orders, orders], agent_names=["v", "v"])
    with pytest.raises(ValueError, match="^agent 1: duplicate type names$"):
        TypeModel([["a", "b"], ["c", "c"]], outcomes, [orders, orders])
