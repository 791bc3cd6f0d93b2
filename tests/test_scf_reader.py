"""The SCF reader against the row loop it keeps for other orders
(``parse_scf_oracle``): equal tables on every document of the acceptance
corpus, every two- and three-agent ``gen ttc`` document and the auctions
(2,2) to (5,4), with their rows as written, reversed and shuffled; and the
row loop's exact message on writer-ordered documents with one fault.

Rows in writer order are read in one pass, and every other table goes
through ``_scf_rows_in_any_order``; the last test checks which path each
kind of table takes.
"""

import json
import random

import pytest

import gradualmech as gm
import gradualmech.fileformat as fileformat
from gradualmech.fileformat import ParseError, parse_model, parse_scf, serialize_mechanism

from oracles import parse_scf_oracle

AUCTIONS = [(n, m) for n in range(2, 6) for m in range(2, 5)]
SEED = 20261022


def documents(full_corpus):
    """(name, text) of every document the reader is compared on."""
    for name, mech, _, f in full_corpus:
        yield name, serialize_mechanism(mech, f)
    for n in (2, 3):
        for pr in gm.all_priority_structures(n):
            # What ``gen ttc`` writes: the tree and the table it implements.
            rda = gm.build_rda(pr, n)
            yield f"ttc{n}-{pr}", serialize_mechanism(rda, gm.implemented_scf(rda))
    for n, m in AUCTIONS:
        g = gm.build_gstar(n, m)
        yield f"auction-{n}-{m}", serialize_mechanism(g, gm.implemented_scf(g))


def read(doc, model):
    """``parse_scf``'s table or message, and the oracle's."""
    results = []
    for parse in (parse_scf, parse_scf_oracle):
        try:
            results.append(parse(doc, model).outcomes)
        except ParseError as e:
            results.append(str(e))
    return results


def test_tables_match_the_row_loop_in_every_order(full_corpus):
    rng = random.Random(SEED)
    count = 0
    for name, text in documents(full_corpus):
        doc = json.loads(text)
        model = parse_model(doc)
        rows = doc["scf"]
        want = parse_scf_oracle(doc, model)
        assert parse_scf(doc, model) == want, name
        shuffled = rows[:]
        rng.shuffle(shuffled)
        for other in (rows[::-1], shuffled):
            assert read({"scf": other}, model) == [want.outcomes] * 2, name
        count += 1
    assert count == len(full_corpus) + 4 + 216 + len(AUCTIONS)


def faults(rows, rng):
    """(fault, rows) pairs, each the writer-ordered rows with one fault at
    a seeded row."""
    k = rng.randrange(len(rows))
    j = rng.choice([r for r in range(len(rows)) if r != k] or [k])
    agent = rng.randrange(len(rows[k][0]))

    def with_row(row, at=k):
        out = rows[:]
        out[at] = row
        return out

    def with_name(name):
        profile = rows[k][0][:]
        profile[agent] = name
        return with_row([profile, rows[k][1]])

    yield "extra row", rows + [rows[j]]
    yield "repeated row", with_row(rows[j])
    yield "unknown outcome in the last row", with_row([rows[-1][0], "no such outcome"],
                                                      len(rows) - 1)
    yield "int type name", with_name(7)
    yield "bool type name", with_name(True)
    yield "list type name", with_name([rows[k][0][agent]])
    yield "row of three", with_row(rows[k] + [rows[k][1]])
    yield "non-list row", with_row(rows[k][1])


def test_one_fault_gives_the_row_loop_message(full_corpus):
    """Every kind of fault on a stride of the documents, at seeded rows."""
    rng = random.Random(SEED + 1)
    seen = set()
    for name, text in list(documents(full_corpus))[::9]:
        doc = json.loads(text)
        model = parse_model(doc)
        for fault, rows in faults(doc["scf"], rng):
            got, want = read({"scf": rows}, model)
            assert isinstance(want, str) and got == want, (name, fault)
            seen.add(fault)
    assert len(seen) == 8


FALLBACK_TRIGGERS = {
    "rows reversed": lambda rows: rows[::-1],
    "scf not a list": lambda rows: 3,
    "one row short": lambda rows: rows[:-1],
    "non-list row": lambda rows: [5] + rows[1:],
    "row of three": lambda rows: [rows[0] + ["L"]] + rows[1:],
    # "LL" would equal the profile ["L", "L"] as a tuple of characters.
    "profile as a string": lambda rows: [["".join(rows[0][0]), rows[0][1]]] + rows[1:],
    "profile as a tuple": lambda rows: [[tuple(rows[0][0]), rows[0][1]]] + rows[1:],
    "unknown outcome": lambda rows: rows[:-1] + [[rows[-1][0], "Z"]],
    "unhashable outcome": lambda rows: rows[:-1] + [[rows[-1][0], ["L"]]],
}


@pytest.mark.parametrize("case", sorted(FALLBACK_TRIGGERS))
def test_tables_the_one_pass_refuses_go_row_by_row(case, voting, monkeypatch):
    model, f, mechs = voting
    doc = json.loads(serialize_mechanism(mechs["g3"], f))
    calls = []
    real = fileformat._scf_rows_in_any_order

    def row_by_row(rows, model):
        calls.append(rows)
        return real(rows, model)

    monkeypatch.setattr(fileformat, "_scf_rows_in_any_order", row_by_row)
    assert parse_scf(doc, model) == f and calls == []
    bad = {"scf": FALLBACK_TRIGGERS[case](doc["scf"])}
    got, want = read(bad, model)
    assert got == want and len(calls) == 1
    assert (want == f.outcomes) == (case == "rows reversed")
