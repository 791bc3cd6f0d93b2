"""The per-node conflict masks and the mask-driven pair scans against the
pair-by-pair dict scans they replace, and the RP and IRP scans, which
decide each first set once, against the mask scans per sibling pair they
replace (``tests/oracles.py``).

Run as a script to compare all four checks, and the incentive-preservation
test with the auction's SCF and with its outcome ids rotated, on the first
40 illuminations of each auction instead of the sample the suite uses;
``is_irp`` on the (4,5) auction against the pair-by-pair scan; and RP,
relaxed RP and IRP against the per-pair mask scans on the passing (4,5)
and (5,4) auctions and the first 40 illuminations of (4,4) and (5,3).  It
then prints the in-process median time of each large scan:
``PYTHONPATH=src python tests/test_conflict_masks.py``.
"""

import io
import itertools
import random
import statistics
import sys
import time

import pytest

import gradualmech as gm
import oracles
from gradualmech import checkers
from gradualmech.cli import main
from gradualmech.fileformat import serialize_mechanism
from gradualmech.gameform import siblings_same_action
from oracles import (conflict_agents_oracle, is_ic_oracle,
                     is_incentive_preserving_oracle, is_irp_oracle,
                     is_irp_pair_masks_oracle, is_rp_oracle, is_rp_pair_masks_oracle)


def relaxed_rp(mech, f):
    return gm.is_rp(mech, f, relaxed=True)


# (label, check, pair-by-pair oracle, per-pair mask scan or None)
CHECKS = (
    ("ic", gm.is_ic, is_ic_oracle, None),
    ("rp", gm.is_rp, is_rp_oracle, is_rp_pair_masks_oracle),
    ("relaxed-rp", relaxed_rp, lambda m, f: is_rp_oracle(m, f, relaxed=True),
     lambda m, f: is_rp_pair_masks_oracle(m, f, relaxed=True)),
    ("irp", gm.is_irp, is_irp_oracle, is_irp_pair_masks_oracle),
)
PAIR_MASKS = [(label, check, masks) for label, check, _, masks in CHECKS if masks]
AUCTIONS = ((3, 3), (4, 4), (5, 3))
# Each failing check on a (4,4) or (5,3) illumination scans for 0.1-0.5 s
# before its witness, and the oracles take several times longer, so the
# suite takes three of the first 40 there; (3,3) has 11 and takes them all.
SAMPLE = {(3, 3): range(40), (4, 4): (0, 19, 39), (5, 3): (0, 19, 39)}


def agree(mech, f, where):
    """Each check's verdict, asserted equal to the pair-by-pair oracle's
    and, for RP and IRP, to the per-pair mask scan's."""
    verdicts = []
    for label, check, oracle, masks in CHECKS:
        verdict = check(mech, f)
        assert verdict == oracle(mech, f), (where, label)
        assert masks is None or verdict == masks(mech, f), (where, label)
        verdicts.append(verdict)
    return verdicts


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
        agree(mech, f, name)


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
        for verdict in agree(mech, f, (n, m, j)):
            assert verdict.holds or gm.verify_witness(mech, f, verdict.witness)


@pytest.mark.parametrize("n,m", AUCTIONS)
def test_incentive_preservation_matches_the_pair_scan(n, m):
    for j, g, t, f in samples(n, m, SAMPLE[(n, m)]):
        assert (gm.is_incentive_preserving(g, t, f)
                == is_incentive_preserving_oracle(g, t, f)), (n, m, j)


def rotated(model, f):
    """``f`` with every outcome id moved up by one, modulo the outcome
    count: an SCF the mechanism does not implement, so two profiles at one
    terminal can take different values."""
    n = model.n_outcomes()
    return gm.ScfTable(model, [(x + 1) % n for x in f.outcomes])


def test_incentive_preservation_is_exact_when_f_is_not_implemented(full_corpus):
    """``check-ill`` never checks that the mechanism implements ``f``.  The
    masks key rows by their ``f`` values, not by their terminals' outcomes,
    so the verdict and witness stay the pair scan's there too."""
    cases = failing = 0
    for name, mech, model, f in full_corpus:
        for t in gm.find_opportunities(mech, "illuminate")[:4]:
            for g in (f, rotated(model, f)):
                verdict = gm.is_incentive_preserving(mech, t, g)
                assert verdict == is_incentive_preserving_oracle(mech, t, g), (name, t)
                cases += 1
                failing += not verdict.holds
    assert (cases, failing) == (840, 548)


ROTATED_CHECK_ILL = """\
incentive-preserving illumination: fails
violation kind: ill
harmed agent: bidder1
reacting agent: bidder2
truthful profile: (2,1,2) -> outcome w1&2@p2
reachable profile: (1,3,3) -> outcome w1@p1
type 2 of bidder1 does not weakly prefer w1&2@p2 to w1@p1
histories: 27 vs 26
illumination lets the informed agent harm this comparison
"""


def test_check_ill_on_a_rotated_scf_document(monkeypatch, capsys):
    """The (3,3) auction's document with its SCF rotated: ``check-ill``
    prints the witness of the pair scan, as it did before the masks."""
    g = gm.build_gstar(3, 3)
    model, f = gm.second_price_scf(3, 3)
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_mechanism(g, rotated(model, f))))
    code = main(["check-ill", "-", "--agent", "bidder2", "--infoset", "5", "--part", "1"])
    assert (code, capsys.readouterr().out) == (1, ROTATED_CHECK_ILL)


def harmful_partners(mech, i, k1, k2, z1, relaxed):
    """The second terminals under set k2 that harm a checked agent's
    comparison with z1, in the tree order of ``terminals_under``, found pair
    by pair as ``is_rp_oracle`` does."""
    model = mech.model
    h1 = next(h for h in mech.infosets[k1].nodes if z1 in mech.terminals_under(h))
    others = [j for j in range(model.n_agents) if j != i]
    out = []
    for h2 in mech.infosets[k2].nodes:
        divergent = {k for k in others
                     if [e[0] for e in mech.experience[k][h1]]
                     != [e[0] for e in mech.experience[k][h2]]}
        for z2 in mech.terminals_under(h2):
            conflict = mech.conflict_agents(z1, z2) - {i}
            x1, x2 = mech.outcome[z1], mech.outcome[z2]
            if len(conflict) > 1 or x1 == x2:
                continue
            js = sorted(conflict) or others
            if relaxed:
                js = [j for j in js if not divergent - {j}]
            if any(not model.weakly_prefers(j, t, x1, x2)
                   for j in js for t in mech.theta[z1][j]) or any(
                    not model.weakly_prefers(j, t, x2, x1)
                    for j in js for t in mech.theta[z2][j]):
                out.append(z2)
    return out


@pytest.mark.parametrize("relaxed", [False, True])
def test_rp_witness_is_first_in_tree_order_not_lowest_id(random_corpus, relaxed):
    """On this mechanism the RP scan's first terminal has two harmful
    partners, and the one first in tree order has the higher id: the witness
    must name it, as the pair-by-pair scan does."""
    name, mech, _, f = next(e for e in random_corpus if e[0] == "random-65-median2")
    verdict = gm.is_rp(mech, f, relaxed=relaxed)
    assert verdict == is_rp_oracle(mech, f, relaxed=relaxed)
    w = verdict.witness
    assert gm.verify_witness(mech, f, w)
    assert (w.infosets, w.z1, w.z2) == ((1, 2), 14, 13)
    partners = harmful_partners(mech, w.reactor, *w.infosets, w.z1, relaxed)
    assert partners == [13, 7]


def test_rp_rows_before_the_witness_may_harm_only_a_later_sibling():
    """First set 2 of this mechanism has two later siblings, 3 and 4.  Its
    terminals 31 and 32 come before the witness's 33 and harm only
    terminals under set 4, so the scan must AND each row with set 3's
    terminals, not with those of every later sibling, to find the pair
    scan's witness on the pair (2, 3)."""
    mech, f, *_ = gm.random_transformed_mechanism(random.Random(479))
    verdict = gm.is_rp(mech, f)
    assert verdict == is_rp_oracle(mech, f) == is_rp_pair_masks_oracle(mech, f)
    w = verdict.witness
    assert (w.reactor, w.infosets, w.z1, w.z2) == (0, (3, 2), 38, 33)
    for z1, harmed in ((31, [36]), (32, [35])):
        assert harmful_partners(mech, 0, 2, 3, z1, False) == []
        assert harmful_partners(mech, 0, 2, 4, z1, False) == harmed
    assert gm.is_rp(mech, f, relaxed=True) == is_rp_oracle(mech, f, relaxed=True)


def test_relaxed_rp_compares_whole_set_sequences():
    """Illumination 14 of random mechanism 23, a three-agent median rule.
    Reactor 0's sibling sets 3 and 2 hold the members 21 and 24, and agent
    1's information-set sequences up to them, (4, 6) and (4, 7), share
    their first entry and differ later.  So agent 1 tells the two histories
    apart first, relaxed RP skips the pair for agent 2, and its witness
    moves on to reactor 1's sets 6 and 7, where plain RP stops at the
    skipped pair.  A divergence test that compared only the first entry
    would check agent 2 there and report the plain witness."""
    mech, f, *_ = gm.random_transformed_mechanism(random.Random(23))
    mech = gm.apply_illuminate(mech, gm.find_opportunities(mech, "illuminate")[14])
    assert [[k for k, _ in mech.experience[1][h]] for h in (21, 24)] == [[4, 6], [4, 7]]
    plain = gm.is_rp(mech, f).witness
    assert (plain.reactor, plain.infosets, plain.agent) == (0, (3, 2), 2)
    verdict = gm.is_rp(mech, f, relaxed=True)
    assert (verdict.witness.reactor, verdict.witness.infosets) == (1, (6, 7))
    assert verdict == is_rp_oracle(mech, f, relaxed=True)
    assert verdict == is_rp_pair_masks_oracle(mech, f, relaxed=True)


def relabelled_voting():
    """Each voting mechanism and each of its illuminations, with its
    outcomes permuted, and the SCF it then implements.  The voter of ideal M
    is indifferent between the flanks L and R."""
    model, _, mechs = gm.voting_examples()
    bases = []
    for name, mech in mechs.items():
        bases.append((name, mech))
        for j, t in enumerate(gm.find_opportunities(mech, "illuminate")):
            bases.append((f"{name}/ill{j}", gm.apply_illuminate(mech, t)))
    for name, mech in bases:
        for perm in itertools.permutations(range(3)):
            outcomes = {z: perm[x] for z, x in mech.outcome.items()}
            nodes = [(mech.parent[v], mech.step[v]) for v in range(mech.n_nodes())]
            groups = [(s.agent, s.nodes) for s in mech.infosets]
            out = gm.build_mechanism(model, nodes, groups, outcomes)
            yield f"{name}{perm}", out, gm.implemented_scf(out)


def test_checks_match_the_pair_scans_under_indifference_ties():
    failing = 0
    for name, mech, f in relabelled_voting():
        for verdict in agree(mech, f, name):
            assert verdict.holds or gm.verify_witness(mech, f, verdict.witness)
            failing += not verdict.holds
    assert failing > 0


@pytest.mark.parametrize("n,m", AUCTIONS)
def test_rp_and_irp_match_the_pair_mask_scans_on_auctions(n, m):
    """The whole auctions pass every scan, so each pair is visited; the
    pair-by-pair oracles are too slow there."""
    g = gm.build_gstar(n, m)
    _, f = gm.second_price_scf(n, m)
    for label, check, masks in PAIR_MASKS:
        verdict = check(g, f)
        assert verdict.holds and verdict == masks(g, f), (n, m, label)


# Per benchmark auction: _coverage calls of the per-pair mask scans (RP,
# strict and relaxed alike, and IRP), and the terminals under the members
# of each distinct first set and those members, the most a scan that
# decides each first set once may make.
COVERAGE_CALLS = {
    (4, 4): ((1828, 303), (862, 148)),
    (5, 3): ((4640, 906), (1148, 206)),
    (4, 5): ((4199, 514), (2075, 277)),
    (5, 4): ((20220, 2372), (5722, 732)),
}


@pytest.mark.parametrize("n,m", sorted(COVERAGE_CALLS))
def test_scans_cover_each_first_terminal_once(monkeypatch, n, m):
    """A count that does not depend on the machine: RP computes the
    coverage of each terminal under a first set once, not once per later
    sibling, and IRP that of each first member once."""
    calls = []
    real = checkers._coverage

    def counted(masks):
        calls.append(None)
        return real(masks)

    monkeypatch.setattr(checkers, "_coverage", counted)
    monkeypatch.setattr(oracles, "_coverage", counted)
    g = gm.build_gstar(n, m)
    _, f = gm.second_price_scf(n, m)
    firsts = {k1 for _, k1, _ in siblings_same_action(g)}
    members = [h for k in firsts for h in g.infosets[k].nodes]
    (pair_rp, pair_irp), bounds = COVERAGE_CALLS[n, m]
    assert (sum(len(g.terminals_under(h)) for h in members), len(members)) == bounds

    def count(check):
        del calls[:]
        assert check(g, f).holds
        return len(calls)

    counts = [count(check) for _, check, _ in PAIR_MASKS]
    assert counts == [bounds[0], bounds[0], bounds[1]]
    assert [count(masks) for _, _, masks in PAIR_MASKS] == [pair_rp, pair_rp, pair_irp]


def median_ms(check, mech, f, repeats=7):
    """Median wall time of ``check(mech, f)`` with the mechanism's memos
    filled by one untimed call."""
    check(mech, f)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        check(mech, f)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


if __name__ == "__main__":
    compared = rotations = 0
    for n, m in AUCTIONS:
        for j, g, t, f in samples(n, m, range(40)):
            agree(gm.apply_illuminate(g, t), f, (n, m, j))
            compared += len(CHECKS) + len(PAIR_MASKS)
            for h in (f, rotated(g.model, f)):
                assert (gm.is_incentive_preserving(g, t, h)
                        == is_incentive_preserving_oracle(g, t, h)), (n, m, j)
                compared += 1
            rotations += 1
    g = gm.build_gstar(4, 5)
    f = gm.second_price_scf(4, 5)[1]
    assert gm.is_irp(g, f) == is_irp_oracle(g, f), (4, 5)
    compared += 1
    timed = []
    for n, m in ((4, 4), (5, 3), (4, 5), (5, 4)):
        g = gm.build_gstar(n, m)
        f = gm.second_price_scf(n, m)[1]
        for label, check, masks in PAIR_MASKS:
            verdict = check(g, f)
            assert verdict.holds and verdict == masks(g, f), (n, m, label)
            compared += 1
            timed.append(f"  ({n},{m}) {label}: {median_ms(check, g, f):.1f} ms, "
                         f"per-pair mask scan {median_ms(masks, g, f):.1f} ms")
    print(f"{compared} checks agree, {rotations} of them incentive-preservation "
          f"tests with a rotated SCF, one is_irp on the (4,5) auction")
    print("median of 7 in process, memos filled:")
    print("\n".join(timed))
