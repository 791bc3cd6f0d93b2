import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gradualmech as gm
from gradualmech.cli import main
from gradualmech.fileformat import (ParseError, parse_mechanism,
                                    serialize_mechanism)


def roundtrip(mech, f):
    text = serialize_mechanism(mech, f)
    m2, model2, f2 = parse_mechanism(text)
    return text, m2, model2, f2


def test_roundtrip_voting(voting):
    model, f, mechs = voting
    for name, mech in mechs.items():
        text, m2, model2, f2 = roundtrip(mech, f)
        assert gm.mechanisms_equal(m2, mech), name
        assert model2 == model and f2 == f
        assert serialize_mechanism(m2, f2) == text


def test_roundtrip_survives_renumbering(voting):
    model, f, mechs = voting
    text = serialize_mechanism(mechs["g3"], f)
    doc = json.loads(text)

    def bump(node):
        node["id"] += 100
        for edge in node.get("children", ()):
            bump(edge["node"])

    bump(doc["tree"])
    for entry in doc["infosets"]:
        entry["nodes"] = [v + 100 for v in entry["nodes"]]
    m2, _, f2 = parse_mechanism(json.dumps(doc))
    assert gm.mechanisms_equal(m2, mechs["g3"])


def test_parse_reports_syntax_position():
    with pytest.raises(ParseError, match="line"):
        parse_mechanism("{ not json")


def test_parse_reports_semantic_violation(voting):
    model, f, mechs = voting
    doc = json.loads(serialize_mechanism(mechs["direct"], f))
    # voter 1's first two reports overlap on M
    doc["tree"]["children"][0]["step"]["voter1"] = ["L", "M"]
    doc["tree"]["children"][1]["step"]["voter1"] = ["M"]
    from gradualmech.fileformat import load_mechanism
    with pytest.raises(ParseError, match="overlapping|partition|product"):
        load_mechanism(json.dumps(doc))


def test_parse_unknown_outcome(voting):
    model, f, mechs = voting
    doc = json.loads(serialize_mechanism(mechs["direct"], f))
    doc["tree"]["children"][0]["node"]["outcome"] = "nope"
    with pytest.raises(ParseError, match="unknown outcome"):
        parse_mechanism(json.dumps(doc))


def run_cli(args, stdin_text=None, capsys=None):
    import io
    from contextlib import redirect_stdout
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = main(args)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def test_cli_gen_and_check_pipeline(tmp_path, voting):
    model, f, mechs = voting
    path = tmp_path / "g3.json"
    code, out = run_cli(["gen", "voting", "--which", "g3", "-o", str(path)])
    assert code == 0
    code, out = run_cli(["check-ic", str(path)])
    assert code == 0 and "holds" in out
    code, out = run_cli(["check-irp", str(path)])
    assert code == 0
    code, out = run_cli(["check-sp", str(path)])
    assert code == 0


def test_cli_failing_check_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    code, _ = run_cli(["gen", "sd", "--which", "bad", "-o", str(path)])
    assert code == 0
    code, out = run_cli(["check-ic", str(path)])
    assert code == 1
    assert "fails" in out and "harmed agent" in out


def test_cli_parse_error_exits_two(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{")
    code, _ = run_cli(["check-ic", str(path)])
    assert code == 2


MALFORMED = {
    "top-level-list": ((), []),
    "infosets-int": (("infosets",), 7),
    "infosets-of-strings": (("infosets",), ["x"]),
    "types-of-ints": (("types",), [5, 5]),
    "preferences-int": (("preferences",), 7),
    "scf-int": (("scf",), 3),
    "children-int": (("tree", "children"), 5),
    "step-list": (("tree", "children", 0, "step"), ["L"]),
    "scf-row-int": (("scf", 0), 5),
    "scf-row-of-three": (("scf", 0), [["L", "L"], "L", "L"]),
    "scf-profile-too-long": (("scf", 0, 0), ["L", "L", "L"]),
    "scf-profile-too-short": (("scf", 0, 0), ["L"]),
    "scf-type-name-list": (("scf", 0, 0), [["L"], "L"]),
    "scf-unknown-outcome": (("scf", 0, 1), "Z"),
    "step-type-name-list": (("tree", "children", 0, "step", "voter1"), [["L"]]),
    "step-unknown-type": (("tree", "children", 0, "step", "voter1"), ["Q"]),
    "root-id-true": (("tree", "id"), True),
    "infoset-node-false": (("infosets", 0, "nodes"), [False]),
}

# The exact diagnostics of the cases read with ``map`` (SCF profiles and step
# actions); ``map`` would stop silently at a short profile, so they are pinned.
MALFORMED_MESSAGES = {
    "scf-row-int": "scf row 5: want [profile, outcome]",
    "scf-row-of-three": "scf row [['L', 'L'], 'L', 'L']: want [profile, outcome]",
    "scf-profile-too-long": "scf profile ['L', 'L', 'L']: one type per agent required",
    "scf-profile-too-short": "scf profile ['L']: one type per agent required",
    "scf-type-name-list": "scf row [[['L'], 'L'], 'L']: names must be strings",
    "scf-unknown-outcome": "scf row [['L', 'L'], 'Z']: unknown name 'Z'",
    "step-type-name-list": "node 0: type names must be strings",
    "step-unknown-type": "node 0: unknown type 'Q' for agent voter1",
    # JSON booleans are not node ids, although Python's bool subclasses int.
    "root-id-true": "a node id must be of type int, not bool",
    "infoset-node-false": "information set references unknown node False",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cli_malformed_document_exits_two(case, voting, capsys):
    """Valid JSON of the wrong shape is bad input (exit 2), not a crash."""
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
    code, _ = run_cli(["check-ic", "-"], json.dumps(doc))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    if case in MALFORMED_MESSAGES:
        assert err == f"error: {MALFORMED_MESSAGES[case]}\n"


def g3_document(voting):
    model, f, mechs = voting
    return json.loads(serialize_mechanism(mechs["g3"], f))


@pytest.mark.parametrize("verb", ["check-sp", "check-ic"])
@pytest.mark.parametrize("outcome", ["R", "L"])
def test_scf_profile_listed_twice_exits_two(verb, outcome, voting, capsys):
    """A full table plus a repeat of row 0's profile is bad input, whether
    the repeat disagrees with row 0 (R) or copies it (L)."""
    doc = g3_document(voting)
    assert doc["scf"][0] == [["L", "L"], "L"]
    doc["scf"].append([["L", "L"], outcome])
    code, _ = run_cli([verb, "-"], json.dumps(doc))
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: scf row [['L', 'L'], '{outcome}']: profile listed twice\n"


def test_scf_rows_in_any_order_and_first_missing_profile_named(voting, capsys):
    doc = g3_document(voting)
    doc["scf"].reverse()
    code, out = run_cli(["check-ic", "-"], json.dumps(doc))
    assert code == 0 and "holds" in out
    doc["scf"].reverse()
    del doc["scf"][4], doc["scf"][2]
    code, _ = run_cli(["check-sp", "-"], json.dumps(doc))
    assert code == 2
    assert capsys.readouterr().err == "error: SCF not total: missing profile (0, 2)\n"


def test_cli_validate_reports(tmp_path, voting):
    model, f, mechs = voting
    doc = json.loads(serialize_mechanism(mechs["direct"], f))
    doc["tree"]["children"][0]["step"]["voter1"] = ["L", "M"]
    doc["tree"]["children"][1]["step"]["voter1"] = ["M"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["validate", str(path)])
    assert code == 1
    assert "overlapping" in out or "product" in out or "partition" in out


def test_cli_reduce_prints_chain(tmp_path):
    path = tmp_path / "g1.json"
    run_cli(["gen", "voting", "--which", "g1", "-o", str(path)])
    code, out = run_cli(["reduce", str(path)])
    assert code == 0
    assert "all illuminations preserving: True" in out
    code, out = run_cli(["reduce", str(path), "--json"])
    doc = json.loads(out)
    assert doc["all_illuminations_preserving"] is True
    kinds = [s["kind"] for s in doc["steps"]]
    assert kinds.count("merge") == 1 and kinds.count("split") == 1


def test_cli_check_ill(tmp_path):
    path = tmp_path / "gstar.json"
    run_cli(["gen", "auction", "--n", "2", "--m", "2", "-o", str(path)])
    mech, model, f = gm.example1_mechanism(), *gm.second_price_scf(2, 2)
    pooled = next(k for k, s in enumerate(gm.build_gstar(2, 2).infosets)
                  if s.agent == 1 and len(s.nodes) == 2)
    g = gm.build_gstar(2, 2)
    first_node = g.infosets[pooled].nodes[0]
    code, out = run_cli(["check-ill", str(path), "--agent", "bidder2",
                         "--infoset", str(pooled), "--part", str(first_node)])
    assert code == 1 and "fails" in out


def test_cli_transform_split_roundtrip(tmp_path, voting):
    model, f, mechs = voting
    src = tmp_path / "g1.json"
    run_cli(["gen", "voting", "--which", "g1", "-o", str(src)])
    g1 = mechs["g1"]
    (spl,) = gm.find_opportunities(g1, "split")
    out_path = tmp_path / "split.json"
    code, _ = run_cli(["transform", str(src), "--kind", "split",
                       "--agent", "voter2", "--infoset", str(spl.infoset),
                       "--action", "L,R", "--part", "L", "-o", str(out_path)])
    assert code == 0
    m2, _, _ = parse_mechanism(out_path.read_text())
    assert gm.mechanisms_equal(m2, gm.apply_split(g1, spl))


def test_cli_gen_random_deterministic(tmp_path):
    code1, out1 = run_cli(["gen", "random", "--seed", "11"])
    code2, out2 = run_cli(["gen", "random", "--seed", "11"])
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run_cli(["gen", "random", "--seed", "12"])
    assert out3 != out1


def test_cli_export_dot(tmp_path):
    src = tmp_path / "g3.json"
    run_cli(["gen", "voting", "--which", "g3", "-o", str(src)])
    code, out = run_cli(["export-dot", str(src)])
    assert code == 0
    assert out.startswith("digraph mechanism {")
    assert "style=dashed" in out  # voter 2's pooled pair is linked
    code2, out2 = run_cli(["export-dot", str(src)])
    assert out == out2


def test_cli_ttc_gen_with_priorities(tmp_path):
    code, out = run_cli(["gen", "ttc", "--n", "2", "--priorities", "0,1;1,0"])
    assert code == 0
    m2, model2, f2 = parse_mechanism(out)
    assert gm.validate(m2) == []
    pr = ((0, 1), (1, 0))
    model, f = gm.ttc_scf(pr, 2)
    assert gm.mechanisms_equal(m2, gm.build_rda(pr, 2))


def test_fixture_documents_load(voting, sd_pair):
    from pathlib import Path
    fixtures = Path(__file__).parent / "fixtures"
    model, f, mechs = voting
    m, _, ff = parse_mechanism((fixtures / "voting_g3.json").read_text())
    assert gm.validate(m) == []
    assert gm.mechanisms_equal(m, mechs["g3"]) and ff == f
    m2, _, f2 = parse_mechanism((fixtures / "figure_style_sd.json").read_text())
    assert gm.validate(m2) == []
    assert not gm.is_ic(m2, f2).holds


def test_cli_gen_direct_from_document(tmp_path):
    src = tmp_path / "g1.json"
    run_cli(["gen", "voting", "--which", "g1", "-o", str(src)])
    code, out = run_cli(["gen", "direct", str(src)])
    assert code == 0
    m, model, f = parse_mechanism(out)
    assert gm.is_static(m)
    assert gm.mechanisms_equal(m, gm.direct_mechanism(model, f))


def test_cli_relaxed_rp_flag(tmp_path):
    src = tmp_path / "g3.json"
    run_cli(["gen", "voting", "--which", "g3", "-o", str(src)])
    code, out = run_cli(["check-rp", str(src), "--relaxed"])
    assert code == 0 and "relaxed" in out


def test_gstar_dot_deterministic():
    from gradualmech.dot import export_dot
    g = gm.build_gstar(3, 2)
    text = export_dot(g)
    assert text == export_dot(gm.build_gstar(3, 2))
    # the pooled trio of bidder 3 renders as a dashed chain
    assert text.count("style=dashed") >= 3


def test_console_script_runs():
    result = subprocess.run([sys.executable, "-m", "gradualmech.cli", "gen",
                             "voting", "--which", "direct"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert '"format": "gm/1"' in result.stdout


def test_cli_gen_auction_document():
    code, out = run_cli(["gen", "auction", "--n", "3", "--m", "3"])
    assert code == 0
    _, f = gm.second_price_scf(3, 3)
    assert out == serialize_mechanism(gm.build_gstar(3, 3), f) + "\n"


def test_gen_size_check_stops_early():
    """The pure size check: (n!)^n and m^n against GEN_MAX_PROFILES, where
    huge sizes return at once."""
    from gradualmech.cli import GEN_MAX_PROFILES, _too_many_profiles
    assert GEN_MAX_PROFILES >= 24 ** 4
    assert not _too_many_profiles("ttc", 4, 2)
    assert _too_many_profiles("ttc", 5, 2)
    assert _too_many_profiles("ttc", 10 ** 18, 2)
    assert not _too_many_profiles("ttc", 0, 2)
    assert not _too_many_profiles("auction", 4, 24)
    assert _too_many_profiles("auction", 4, 25)
    assert _too_many_profiles("auction", 10 ** 18, 3)
    assert _too_many_profiles("auction", 2, 10 ** 18)
    assert not _too_many_profiles("auction", 10 ** 18, 1)
    assert not _too_many_profiles("auction", 10 ** 18, -3)


@pytest.mark.parametrize("argv", [["gen", "ttc", "--n", "5"],
                                  ["gen", "auction", "--n", "4", "--m", "25"]])
def test_gen_refuses_models_over_the_size_limit(argv, monkeypatch, capsys):
    """Too large a ``gen`` model exits 2 before any generator runs."""
    import gradualmech.cli as cli

    def unreachable(*args):
        raise AssertionError("the generator must not be reached")
    monkeypatch.setattr(cli, "build_rda", unreachable)
    monkeypatch.setattr(cli, "build_gstar", unreachable)
    monkeypatch.setattr(cli, "_priorities", unreachable)
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error:") and "type profiles exceed" in err


G3_TEXT = (Path(__file__).parent / "fixtures" / "voting_g3.json").read_text()


def test_parser_is_built_once_and_reused(capsys):
    """Many ``main`` calls in one process share one parser and still act
    like fresh processes."""
    from gradualmech.cli import make_parser
    assert make_parser() is make_parser()
    code1, out1 = run_cli(["check-rp", "--relaxed", "-"], G3_TEXT)
    code2, out2 = run_cli(["check-rp", "-"], G3_TEXT)
    assert code1 == code2 == 0
    assert "(relaxed)" in out1 and "(relaxed)" not in out2
    first = run_cli(["check-ic", "-"], G3_TEXT)
    assert run_cli(["check-ic"])[0] == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli(["check-ic", "-"], G3_TEXT) == first
    help1, help2 = run_cli(["--help"]), run_cli(["--help"])
    assert help1 == help2 and help1[0] == 0 and "usage:" in help1[1]


# Bad arguments and unreadable inputs: each exits 2 with an error line.
# "{dir}" and "{binary}" stand for a directory and a non-UTF-8 file.
BAD_ARGS = {
    "ttc-too-few-orders": ["gen", "ttc", "--n", "3", "--priorities", "0,1;1,0"],
    "ttc-agent-out-of-range": ["gen", "ttc", "--n", "2", "--priorities", "0,5;1,0"],
    "ttc-not-a-permutation": ["gen", "ttc", "--n", "2", "--priorities", "0,0;1,1"],
    "ttc-no-agents": ["gen", "ttc", "--n", "0"],
    "ttc-priorities-not-ints": ["gen", "ttc", "--n", "2", "--priorities", "a,b;b,a"],
    "auction-no-bidders": ["gen", "auction", "--n", "0"],
    "auction-no-values": ["gen", "auction", "--m", "0"],
    "check-ill-part-not-int": ["check-ill", "-", "--agent", "voter2",
                               "--infoset", "2", "--part", "x"],
    "check-ill-part-empty": ["check-ill", "-", "--agent", "voter2",
                             "--infoset", "2", "--part", ""],
    "illuminate-part-not-int": ["transform", "-", "--kind", "illuminate",
                                "--agent", "voter2", "--infoset", "2",
                                "--part", "x"],
    "split-without-agent": ["transform", "-", "--kind", "split", "--infoset",
                            "2", "--action", "L,R", "--part", "L"],
    "split-without-action": ["transform", "-", "--kind", "split", "--agent",
                             "voter2", "--infoset", "2", "--part", "L"],
    "coalesce-without-target": ["transform", "-", "--kind", "coalesce",
                                "--agent", "voter2", "--infoset", "2",
                                "--action", "L"],
    "illuminate-without-part": ["transform", "-", "--kind", "illuminate",
                                "--agent", "voter2", "--infoset", "2"],
    "merge-without-target": ["transform", "-", "--kind", "merge", "--agent",
                             "voter2", "--infoset", "2"],
    "unsplit-without-infoset": ["transform", "-", "--kind", "unsplit",
                                "--agent", "voter2"],
    "agent-index-out-of-range": ["transform", "-", "--kind", "unsplit",
                                 "--agent", "7", "--infoset", "2"],
    "uncoalesce-without-action": ["transform", "-", "--kind", "uncoalesce",
                                  "--agent", "voter2", "--infoset", "2"],
    "read-directory": ["check-ic", "{dir}"],
    "read-non-utf8": ["check-ic", "{binary}"],
}


@pytest.mark.parametrize("case", sorted(BAD_ARGS))
def test_cli_bad_arguments_exit_two(case, tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    argv = [a.format(dir=tmp_path, binary=binary) for a in BAD_ARGS[case]]
    code, out = run_cli(argv, G3_TEXT)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_recursive_walks_leave_no_cyclic_garbage():
    """Parsing, serializing and the recursive generators clear their nested
    walks on exit, so what they leave behind is freed by reference counting:
    with the collector off, a collection after each call, its result
    dropped, finds nothing."""
    text = serialize_mechanism(gm.build_gstar(4, 4), gm.second_price_scf(4, 4)[1])
    g33 = gm.build_gstar(3, 3)
    pr = gm.all_priority_structures(3)[0]
    calls = {
        "parse_mechanism": lambda: parse_mechanism(text),
        "serialize_mechanism": lambda: serialize_mechanism(g33),
        "build_gstar": lambda: gm.build_gstar(3, 3),
        "build_rda": lambda: gm.build_rda(pr, 3),
    }
    for name, call in calls.items():
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0, name
        finally:
            gc.enable()
