"""The breadth-first parser against the recursive loader it replaced
(``parse_mechanism_oracle``): equal mechanisms on every valid document of
the acceptance corpus, the benchmark's auctions and their illuminations and
a sample of generated trading mechanisms, and equal diagnostics on every
malformed document."""

import json

import pytest

import gradualmech as gm
import gradualmech.fileformat as fileformat
from gradualmech.fileformat import parse_mechanism, serialize_mechanism
from gradualmech.gameform import validate

from conftest import run_argv
from oracles import mechanism_tables_oracle, parse_mechanism_oracle
from test_fileformat_cli import MALFORMED

# The check-auction workload's auctions; each is also read with three of its
# illuminations, its first, middle and last candidates.
AUCTIONS = ((4, 4), (5, 3), (4, 5), (5, 4))
TTC_STRIDE = 8


def loaded(mech, f):
    """Everything a check reads off a parsed mechanism."""
    theta, experience, set_menus = mechanism_tables_oracle(mech)
    return {
        "fingerprint": mech.fingerprint(),
        "theta": theta,
        "experience": experience,
        "set_menus": set_menus,
        "children": tuple(map(tuple, mech.children)),
        "terminals": mech.terminals,
        "menus": mech.menus,
        "validate": list(validate(mech)),
        "scf": None if f is None else f.outcomes,
    }


def same_load(text):
    mech, _, f = parse_mechanism(text)
    want_mech, _, want_f = parse_mechanism_oracle(text)
    assert loaded(mech, f) == loaded(want_mech, want_f)


def auction_documents():
    for n, m in AUCTIONS:
        g = gm.build_gstar(n, m)
        _, f = gm.second_price_scf(n, m)
        yield serialize_mechanism(g, f)
        found = gm.find_opportunities(g, "illuminate")
        for k in (0, len(found) // 2, len(found) - 1):
            yield serialize_mechanism(gm.apply_illuminate(g, found[k]), f)


def test_parser_matches_the_recursive_loader(full_corpus):
    for name, mech, _, f in full_corpus:
        same_load(serialize_mechanism(mech, f))
    for text in auction_documents():
        same_load(text)
    for pr in gm.all_priority_structures(3)[::TTC_STRIDE]:
        spec = ";".join(",".join(map(str, order)) for order in pr)
        code, text, _ = run_argv(["gen", "ttc", "--n", "3", "--priorities", spec], "")
        assert code == 0
        same_load(text)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_diagnostics_match_the_recursive_loader(case, voting, monkeypatch):
    model, f, mechs = voting
    path, value = MALFORMED[case]
    doc = json.loads(serialize_mechanism(mechs["g3"], f))
    if path:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    else:
        doc = value
    text = json.dumps(doc)
    got = run_argv(["check-ic", "-"], text)
    monkeypatch.setattr(fileformat, "parse_mechanism", parse_mechanism_oracle)
    assert run_argv(["check-ic", "-"], text) == got
    assert got[0] == 2
