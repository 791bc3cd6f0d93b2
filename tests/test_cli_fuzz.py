"""The CLI's exit-code contract under mutated fixture documents and drawn
argument lists: 0 when the property holds, 1 when it fails with a witness, 2
for bad input, and never a traceback."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gradualmech.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
DOCS = {p.name: p.read_text() for p in sorted(FIXTURES.glob("*.json"))}
VERBS = ("check-ic", "validate")

# Replacements of a value by one of another JSON kind; no null, since a
# null "scf" is a document without an SCF table, which validate accepts.
OTHER_KIND = (7, -1, 1.5, "x", [], [1], {}, {"a": 1})
SAME_KIND = {
    int: (0, 1, 3, -1, 100),
    str: ("", "L", "M", "voter1", "gm/1", "nope"),
    list: ([],),
    dict: ({},),
}


def _paths(doc, prefix=()):
    """Every path into a JSON value, the empty path included."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


PATHS = {name: list(_paths(json.loads(text))) for name, text in DOCS.items()}


def run_argv(argv, text):
    """Exit code, stdout and stderr of one ``main`` call reading ``text``."""
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def run(verb, text):
    code, out, err = run_argv([verb, "-"], text)
    return code, out + err


def _draw_target(data, skip_root):
    """A fresh copy of a fixture document, a path into it, the container
    holding that path and the value found there."""
    name = data.draw(st.sampled_from(sorted(DOCS)))
    paths = PATHS[name][1:] if skip_root else PATHS[name]
    path = data.draw(st.sampled_from(paths))
    doc = json.loads(DOCS[name])
    if not path:
        return doc, path, None, doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    return doc, path, parent, parent[path[-1]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_value_of_another_kind_exits_two(data):
    doc, path, parent, old = _draw_target(data, skip_root=False)
    value = data.draw(st.sampled_from(
        [v for v in OTHER_KIND if type(v) is not type(old)]))
    if path:
        parent[path[-1]] = value
    else:
        doc = value
    verb = data.draw(st.sampled_from(VERBS))
    code, text = run(verb, json.dumps(doc))
    assert code == 2, (verb, path, value)
    assert "Traceback" not in text


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_any_mutation_keeps_the_exit_codes(data):
    doc, path, parent, old = _draw_target(data, skip_root=True)
    ops = ["delete", "null"] + ["set"] * bool(SAME_KIND.get(type(old)))
    if isinstance(old, list) and old:
        ops.append("repeat-first")
    op = data.draw(st.sampled_from(ops))
    key = path[-1]
    if op == "delete":
        del parent[key]
    elif op == "null":
        parent[key] = None
    elif op == "set":
        parent[key] = data.draw(st.sampled_from(SAME_KIND[type(old)]))
    else:
        parent[key] = old + old[:1]
    verb = data.draw(st.sampled_from(VERBS))
    code, text = run(verb, json.dumps(doc))
    assert code in (0, 1, 2), (verb, path, op)
    assert "Traceback" not in text


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_truncated_document_exits_two(data):
    text = DOCS[data.draw(st.sampled_from(sorted(DOCS)))]
    cut = data.draw(st.integers(0, len(text.rstrip()) - 1))
    verb = data.draw(st.sampled_from(VERBS))
    code, out = run(verb, text[:cut])
    assert code == 2
    assert "Traceback" not in out


# Argument lists drawn per verb from small pools of good and bad values:
# names of both documents' agents and types, ids in and out of range, values
# that are not integers, malformed priority lists and sizes below the
# generators' minimum.  Flags take no value.
TTC2_TEXT = run_argv(["gen", "ttc", "--n", "2", "--priorities", "0,1;1,0"], "")[1]
ARGV_DOCS = (DOCS["voting_g3.json"], TTC2_TEXT)
FLAGS = ("--relaxed", "--json")
VALUES = {
    "--agent": ("voter1", "voter2", "agent0", "agent1", "0", "1", "5", "-1", "x", ""),
    "--infoset": ("0", "1", "2", "3", "-1", "99", "x"),
    "--part": ("1", "3", "1,3", "0,1", "99", "L", "ab", "x", ""),
    "--action": ("L", "L,R", "M,R", "L|M,R", "ab,ba", "ab|ba", "x", ""),
    "--target": ("0", "2", "3", "-1", "99", "x"),
    "--kind": ("split", "coalesce", "illuminate", "merge", "unsplit",
               "uncoalesce", "bogus"),
    "--which": ("g1", "g3", "direct", "good", "bad", "x"),
    "--n": ("-1", "0", "1", "2", "3", "x"),
    "--m": ("0", "1", "2", "3"),
    "--priorities": ("0,1;1,0", "0,1,2;1,2,0;2,0,1", "0,1;1,0;0,1", "0,1",
                     "0,5;1,0", "0,0;1,1", "", "a"),
    "--seed": ("0", "7", "x"),
    "--steps": ("-1", "0", "1", "3"),
}
VERB_OPTIONS = {
    "validate": (),
    "check-ic": (),
    "check-rp": ("--relaxed",),
    "check-irp": (),
    "check-sp": (),
    "check-ill": ("--agent", "--infoset", "--part"),
    "transform": ("--kind", "--agent", "--infoset", "--target", "--action", "--part"),
    "reduce": ("--json",),
    "export-dot": (),
    "gen": ("--which", "--n", "--m", "--priorities", "--seed", "--steps"),
}
GEN_KINDS = ("direct", "voting", "sd", "auction", "ttc", "random", "bogus")


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_drawn_argv_keeps_the_exit_codes(data):
    verb = data.draw(st.sampled_from(sorted(VERB_OPTIONS)))
    argv = [verb]
    if verb == "gen":
        argv.append(data.draw(st.sampled_from(GEN_KINDS)))
    argv.append("-")
    # Options of the verb, and now and then one it does not take.
    pool = VERB_OPTIONS[verb] + ("--json", "--part")
    for opt in data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=5)):
        argv.append(opt)
        if opt not in FLAGS:
            argv.append(data.draw(st.sampled_from(VALUES[opt])))
    text = data.draw(st.sampled_from(ARGV_DOCS))
    code, out, err = run_argv(argv, text)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 2:
        assert "error:" in err, argv
