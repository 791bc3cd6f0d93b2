"""The one-pass ``Mechanism`` tables, the reduction that keeps each merge
probe's result, and the mask-driven incentive-preservation scan, against the
code they replace (``tests/oracles.py``).

The suite leaves out the ``rda3-*`` entries of ``full_corpus``: they take
most of the reduction time.  Run as a script to compare every entry:
``PYTHONPATH=src python tests/test_reduction_oracles.py``.
"""

import pytest

import gradualmech as gm
from oracles import (is_incentive_preserving_oracle, mechanism_tables_oracle,
                     reduce_chain_oracle)


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


if __name__ == "__main__":
    from conftest import build_full_corpus

    entries = build_full_corpus()
    merges = 0
    for name, mech, model, f in entries:
        check_tables(name, mech)
        merges += check_reduction(name, mech, f)
    print(f"{len(entries)} reductions and {merges} merge steps agree")
