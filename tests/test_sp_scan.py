"""The strategy-proofness scan, which decides each outside profile from its
menu's best level per true type, against the ordered pair-by-pair scan
(``is_strategy_proof_oracle``): equal verdicts and witnesses on the
acceptance corpus's SCFs, the auctions (2,2) to (5,4) and every
three-agent trading table, and on seeded single-entry mutations of them,
among which the first witness falls at every agent position.  (A trading
table's entry is a matching, and a mutation that keeps the first two
agents' items keeps the third's, so there the witness falls at agent 0 or
1; the auctions and the corpus reach every position.)

Run as a script to compare a stride of four-agent trading tables and
their mutations too: ``PYTHONPATH=src:tests python tests/test_sp_scan.py``.
"""

import random
from collections import Counter

import gradualmech as gm

from oracles import is_strategy_proof_oracle

AUCTIONS = [(n, m) for n in range(2, 6) for m in range(2, 5)]
SEED = 20261022
# Per table: random single-entry mutations, and tries per agent position at
# a mutation whose first witness falls there.
RANDOM_MUTATIONS = 2
TRIES = 40


def mutation(model, f, rng):
    """f with one seeded entry changed to another outcome."""
    out = list(f.outcomes)
    r = rng.randrange(len(out))
    out[r] = rng.choice([x for x in range(model.n_outcomes()) if x != out[r]])
    return gm.ScfTable(model, out)


def same_scan(model, f, name):
    got = gm.is_strategy_proof(model, f)
    assert got == is_strategy_proof_oracle(model, f), name
    return got


def witness_agents(model, f, rng, name, positions=None):
    """Compare the scans on f and on seeded mutations of it; return the
    agents of the mutations' witnesses.  Beside random mutations, for each
    agent in ``positions`` (default: all) it tries mutations until the
    oracle's witness falls at that agent."""
    agents = Counter()
    same_scan(model, f, name)
    for _ in range(RANDOM_MUTATIONS):
        ok, witness = same_scan(model, mutation(model, f, rng), name)
        agents[None if ok else witness[0]] += 1
    for agent in range(model.n_agents) if positions is None else positions:
        for _ in range(TRIES):
            g = mutation(model, f, rng)
            ok, witness = is_strategy_proof_oracle(model, g)
            if not ok and witness[0] == agent:
                assert gm.is_strategy_proof(model, g) == (ok, witness), name
                agents[agent] += 1
                break
    return agents


def test_scan_matches_the_pair_scan_on_the_corpus(full_corpus):
    rng = random.Random(SEED)
    agents = Counter()
    for name, _, model, f in full_corpus:
        agents += witness_agents(model, f, rng, name)
    assert {0, 1, 2} <= set(agents)


def test_scan_matches_the_pair_scan_on_the_auctions():
    rng = random.Random(SEED + 1)
    for n, m in AUCTIONS:
        model, f = gm.second_price_scf(n, m)
        agents = witness_agents(model, f, rng, (n, m))
        assert set(range(n)) <= set(agents), (n, m, agents)


def test_scan_matches_the_pair_scan_on_every_three_agent_trading_table():
    rng = random.Random(SEED + 2)
    agents = Counter()
    for pr in gm.all_priority_structures(3):
        model, f = gm.ttc_scf(pr, 3)
        agents += witness_agents(model, f, rng, pr, positions=(0, 1))
    assert set(agents) - {None} == {0, 1}, agents


if __name__ == "__main__":
    import time

    # The pair scan reads 30.5 M levels on a four-agent table that holds
    # (about 30 s), and a search for a witness at agent k first reads
    # agents 0 to k-1 whole, so the script searches for agent 1 only.
    rng = random.Random(SEED + 3)
    agents = Counter()
    for pr in gm.all_priority_structures(4)[::82944]:
        start = time.perf_counter()
        rda = gm.build_rda(pr, 4)
        agents += witness_agents(rda.model, gm.implemented_scf(rda), rng, pr, positions=(1,))
        print(f"{pr}: scans agree in {time.perf_counter() - start:.1f} s")
    assert {0, 1} <= set(agents), agents
    print(f"witness agents of the mutations: {dict(agents)}")
