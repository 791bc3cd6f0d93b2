"""The per-node conflict masks and the mask-driven pair scans against the
pair-by-pair dict scans they replace (``tests/oracles.py``).

Run as a script to compare all four checks, and the incentive-preservation
test, on the first 40 illuminations of each auction instead of the sample
the suite uses:
``PYTHONPATH=src python tests/test_conflict_masks.py``.
"""

import pytest

import gradualmech as gm
from oracles import (conflict_agents_oracle, is_ic_oracle,
                     is_incentive_preserving_oracle, is_irp_oracle, is_rp_oracle)

CHECKS = (
    ("ic", gm.is_ic, is_ic_oracle),
    ("rp", gm.is_rp, is_rp_oracle),
    ("relaxed-rp", lambda m, f: gm.is_rp(m, f, relaxed=True),
     lambda m, f: is_rp_oracle(m, f, relaxed=True)),
    ("irp", gm.is_irp, is_irp_oracle),
)
AUCTIONS = ((3, 3), (4, 4), (5, 3))
# Each failing check on a (4,4) or (5,3) illumination scans for 0.1-0.5 s
# before its witness, and the oracles take several times longer, so the
# suite takes three of the first 40 there; (3,3) has 11 and takes them all.
SAMPLE = {(3, 3): range(40), (4, 4): (0, 19, 39), (5, 3): (0, 19, 39)}


def test_conflict_agents_matches_the_dict_scan(full_corpus):
    checked = 0
    for name, mech, model, f in full_corpus:
        n = mech.n_nodes()
        if n > 500:
            continue
        for u in range(n):
            for v in range(n):
                assert mech.conflict_agents(u, v) == conflict_agents_oracle(mech, u, v), \
                    (name, u, v)
        checked += 1
    assert checked == len(full_corpus)


def test_checks_match_the_pair_scans_on_the_corpus(full_corpus):
    for name, mech, model, f in full_corpus:
        for label, check, oracle in CHECKS:
            assert check(mech, f) == oracle(mech, f), (name, label)


def samples(n, m, indices):
    """(j, auction, its j-th illumination, f) for the listed j."""
    g = gm.build_gstar(n, m)
    _, f = gm.second_price_scf(n, m)
    ts = gm.find_opportunities(g, "illuminate")[:40]
    return [(j, g, ts[j], f) for j in indices if j < len(ts)]


def illuminations(n, m, indices):
    return [(j, gm.apply_illuminate(g, t), f) for j, g, t, f in samples(n, m, indices)]


@pytest.mark.parametrize("n,m", AUCTIONS)
def test_checks_match_the_pair_scans_on_illuminations(n, m):
    for j, mech, f in illuminations(n, m, SAMPLE[(n, m)]):
        for label, check, oracle in CHECKS:
            verdict = check(mech, f)
            assert verdict == oracle(mech, f), (n, m, j, label)
            assert verdict.holds or gm.verify_witness(mech, f, verdict.witness)


@pytest.mark.parametrize("n,m", AUCTIONS)
def test_incentive_preservation_matches_the_pair_scan(n, m):
    for j, g, t, f in samples(n, m, SAMPLE[(n, m)]):
        assert (gm.is_incentive_preserving(g, t, f)
                == is_incentive_preserving_oracle(g, t, f)), (n, m, j)


if __name__ == "__main__":
    compared = 0
    for n, m in AUCTIONS:
        for j, g, t, f in samples(n, m, range(40)):
            mech = gm.apply_illuminate(g, t)
            for label, check, oracle in CHECKS:
                assert check(mech, f) == oracle(mech, f), (n, m, j, label)
                compared += 1
            assert (gm.is_incentive_preserving(g, t, f)
                    == is_incentive_preserving_oracle(g, t, f)), (n, m, j)
            compared += 1
    print(f"{compared} checks agree")
