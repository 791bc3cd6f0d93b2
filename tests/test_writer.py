"""The package writes gm/1 and chain/1 text with its own indent-1 writer,
``fileformat.dumps``.  Its output must equal ``json.dumps(value, indent=1)``
byte for byte, nest as deep as it, and ``serialize_mechanism`` must equal
``serialize_oracle``, which builds one object per value (SCF rows included)
and writes it with ``json.dumps``.

The four-agent trading document (``gen ttc --n 4``, 25.6 MB) is too slow for
the suite; run ``PYTHONPATH=src python tests/test_writer.py`` to check it.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

import gradualmech as gm
from gradualmech.fileformat import dumps, serialize_mechanism
from oracles import serialize_oracle

# Quotes, backslashes, control characters, DEL, non-ASCII, a line separator,
# a character outside the BMP and a lone surrogate: every escape the encoder
# writes.
AWKWARD = "\"\\/\n\r\t\b\f\x00\x1f\x7fé \ud800\U0001f600ab "

scalars = (st.none() | st.booleans()
           | st.integers() | st.integers(min_value=-10 ** 40, max_value=10 ** 40)
           | st.text() | st.text(alphabet=AWKWARD))
keys = st.text() | st.text(alphabet=AWKWARD, max_size=4)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(keys, inner, max_size=5),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(values)
def test_dumps_equals_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=1)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"": {}}, {"a": []}, ["x", 1], [1, "x"], ["x", ["y"]],
    [True, False, None, 0, -1], [AWKWARD, {AWKWARD: AWKWARD}], 10 ** 100,
])
def test_dumps_edge_cases(value):
    assert dumps(value) == json.dumps(value, indent=1)


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "x"}, {"a", "b"}, ["x", 1.0]])
def test_dumps_refuses_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        dumps(value)


def _nested(depth, wrap):
    value = "x"
    for _ in range(depth):
        value = wrap(value)
    return value


def _deepest(write, wrap):
    """The deepest nesting ``write`` handles under the recursion limit."""
    lo, hi = 1, 10_000
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            write(_nested(mid, wrap))
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("wrap", [lambda v: [v], lambda v: {"k": v}],
                         ids=["lists", "dicts"])
def test_dumps_nests_as_deep_as_json_dumps(wrap):
    depth = _deepest(lambda v: json.dumps(v, indent=1), wrap)
    value = _nested(depth, wrap)
    assert dumps(value) == json.dumps(value, indent=1)


def test_serialize_matches_oracle_on_full_corpus(full_corpus):
    for name, mech, model, f in full_corpus:
        assert serialize_mechanism(mech, f) == serialize_oracle(mech, f), name
        assert serialize_mechanism(mech) == serialize_oracle(mech), name


@pytest.mark.parametrize("n, m", [(4, 4), (5, 3), (4, 5), (5, 4)])
def test_serialize_matches_oracle_on_auctions(n, m):
    mech = gm.build_gstar(n, m)
    _, f = gm.second_price_scf(n, m)
    assert serialize_mechanism(mech, f) == serialize_oracle(mech, f)
    assert serialize_mechanism(mech) == serialize_oracle(mech)


def test_reduce_chain_document_is_json_dumps_text(tmp_path, capsys):
    from gradualmech.cli import main
    path = tmp_path / "g1.json"
    main(["gen", "voting", "--which", "g1", "-o", str(path)])
    capsys.readouterr()
    main(["reduce", str(path), "--json"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


if __name__ == "__main__":
    pr = (tuple(range(4)),) * 4  # the priorities `gen ttc --n 4` uses by default
    mech = gm.build_rda(pr, 4)
    f = gm.implemented_scf(mech)
    text = serialize_mechanism(mech, f)
    assert text == serialize_oracle(mech, f)
    print(f"gen ttc --n 4 document ({len(text)} bytes) equals the oracle's text")
