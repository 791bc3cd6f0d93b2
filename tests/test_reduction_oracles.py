"""The one-pass ``Mechanism`` tables, the reduction that keeps each merge
probe's result, the mask-driven incentive-preservation scan and the
coalesce copy, against the code they replace (``tests/oracles.py``).  Each step
of a reduction chain and every illumination must give a valid mechanism:
``apply_coalesce``, ``apply_illuminate`` and ``reduce_to_direct`` rely on
validity being kept and do not check their results.

The suite leaves out the ``rda3-*`` entries of ``full_corpus`` but one
coalesce chain: they take most of the reduction time.  Run as a script to
compare every entry: ``PYTHONPATH=src python tests/test_reduction_oracles.py``.
"""

import pytest

import gradualmech as gm
from gradualmech.gameform import MechanismError
from oracles import (apply_coalesce_oracle, is_incentive_preserving_oracle,
                     mechanism_tables_oracle, reduce_chain_oracle)


def check_tables(name, mech):
    assert all(mech.parent[v] < v for v in range(1, mech.n_nodes())), name
    theta, experience, menus = mechanism_tables_oracle(mech)
    assert mech.theta == theta, name
    assert mech.experience == experience, name
    assert [frozenset(s.actions) for s in mech.infosets] == menus, name


def chain_record(chain):
    return ([(s.transform, s.fingerprint, s.preserving) for s in chain.steps],
            chain.source_fingerprint, chain.final.canonical_form())


def check_reduction(name, mech, f):
    """Compare one reduction with the probe-then-apply loop, and each merge's
    tables and forward-illumination verdict with the oracles; return the
    number of merge steps."""
    expected, illuminations = reduce_chain_oracle(mech, f)
    assert chain_record(gm.reduce_to_direct(mech, f)) == chain_record(expected), name
    for merged, forward in illuminations:
        check_tables(name, merged)
        assert (gm.is_incentive_preserving(merged, forward, f)
                == is_incentive_preserving_oracle(merged, forward, f)), (name, forward)
    return len(illuminations)


def coalesce_result(apply, mech, t):
    try:
        out = apply(mech, t)
    except MechanismError as e:
        return str(e)
    return out.canonical_form(), [(s.agent, s.nodes, s.actions) for s in out.infosets]


def check_coalesces(name, mech, f):
    """Every mechanism along the reduction chain of ``mech`` is valid, and
    every coalesce opportunity of each gives the same tree and information
    sets, or the same error, as the three-walk copy; return the number
    compared."""
    chain = gm.reduce_to_direct(mech, f)
    compared = 0
    for step in [None] + chain.steps:
        if step is not None:
            mech = gm.apply_transformation(mech, step.transform)
            assert mech.fingerprint() == step.fingerprint, name
            assert gm.validate(mech) == [], (name, step.transform)
        for t in gm.iter_opportunities(mech, "coalesce"):
            assert (coalesce_result(gm.apply_coalesce, mech, t)
                    == coalesce_result(apply_coalesce_oracle, mech, t)), (name, t)
            compared += 1
    return compared


@pytest.fixture(scope="module")
def corpus(full_corpus):
    return [entry for entry in full_corpus if not entry[0].startswith("rda3-")]


def test_tables_match_the_breadth_first_passes(corpus):
    for name, mech, model, f in corpus:
        check_tables(name, mech)


def test_reduction_matches_the_probe_then_apply_loop(corpus):
    merges = 0
    for name, mech, model, f in corpus:
        merges += check_reduction(name, mech, f)
    assert merges > 0


def test_coalesce_matches_the_three_walk_copy(corpus):
    """Includes the three-agent trading chain on which agent 1 coalesces at
    the root, where a target node's kept children must be copied with no
    pending branch."""
    pr = ((0, 1, 2), (0, 2, 1), (0, 2, 1))
    trading = ("rda3-" + str(pr), gm.build_rda(pr, 3), None, gm.ttc_scf(pr, 3)[1])
    compared = sum(check_coalesces(name, mech, f)
                   for name, mech, model, f in corpus + [trading])
    assert compared > 0


def test_every_illumination_is_valid(full_corpus):
    """A successor set that straddled the split would leave some of its
    members in no set, which ``validate`` reports."""
    count = 0
    for name, mech, model, f in full_corpus:
        for t in gm.iter_opportunities(mech, "illuminate"):
            assert gm.validate(gm.apply_illuminate(mech, t)) == [], (name, t)
            count += 1
    assert count > 0


if __name__ == "__main__":
    from conftest import build_full_corpus

    entries = build_full_corpus()
    merges = coalesces = 0
    for name, mech, model, f in entries:
        check_tables(name, mech)
        merges += check_reduction(name, mech, f)
        coalesces += check_coalesces(name, mech, f)
    print(f"{len(entries)} reductions, {merges} merge steps and "
          f"{coalesces} coalesces agree")
