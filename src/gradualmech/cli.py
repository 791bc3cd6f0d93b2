"""Command-line front end.

Exit codes: 0 when the checked property holds (or the command succeeded),
1 when a checked property fails (the witness is printed), 2 for usage or
parse errors and for invalid mechanisms.  ``validate`` exits 1 when it
reports violations, since the report is its witness.  Mechanisms travel
between commands as format documents on files or standard streams, so
generators pipe into checkers.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import random
import sys

from . import transforms as tr
from .checkers import is_ic, is_irp, is_rp
from .dot import export_dot
from .fileformat import (ParseError, dumps, load_mechanism, parse_mechanism,
                         serialize_mechanism)
from .gameform import MechanismError, implemented_scf, validate
from .generators import (build_gstar, build_rda, check_priorities, direct_mechanism,
                         random_transformed_mechanism, serial_dictatorship_pair,
                         voting_examples)
from .prefs import is_strategy_proof


def _read(path):
    """The text of ``path``, or of stdin for ``-``.  Stdin may decode
    undecodable bytes to lone surrogates (``surrogateescape``), so its text
    must also encode as UTF-8."""
    try:
        if path == "-":
            text = sys.stdin.read()
            text.encode()
            return text
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeError as e:
        unit = "byte" if isinstance(e, UnicodeDecodeError) else "character"
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at {unit} {e.start})")


def _emit(text, out):
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _describe_witness(model, w):
    lines = [f"violation kind: {w.kind}"]
    lines.append(f"harmed agent: {model.agent_names[w.agent]}")
    if w.reactor is not None:
        lines.append(f"reacting agent: {model.agent_names[w.reactor]}")
    if w.profile1 is not None:
        p1 = ",".join(model.type_names[i][t] for i, t in enumerate(w.profile1))
        p2 = ",".join(model.type_names[i][t] for i, t in enumerate(w.profile2))
        lines.append(f"truthful profile: ({p1}) -> outcome {model.outcome_names[w.outcome1]}")
        lines.append(f"reachable profile: ({p2}) -> outcome {model.outcome_names[w.outcome2]}")
        tname = model.type_names[w.agent][w.profile1[w.agent]]
        lines.append(f"type {tname} of {model.agent_names[w.agent]} does not weakly "
                     f"prefer {model.outcome_names[w.outcome1]} to {model.outcome_names[w.outcome2]}")
    if w.z1 is not None:
        lines.append(f"histories: {w.z1} vs {w.z2}")
    if w.detail:
        lines.append(w.detail)
    return "\n".join(lines)


def _verdict_exit(model, verdict, label):
    if verdict.holds:
        print(f"{label}: holds")
        return 0
    print(f"{label}: fails")
    print(_describe_witness(model, verdict.witness))
    return 1


def _parse_action(spec, model, agent):
    try:
        return frozenset(map(model.type_index[agent].__getitem__, spec.split(",")))
    except KeyError as e:
        raise ParseError(f"unknown type name {e} for agent {model.agent_names[agent]}")


def _agent_index(spec, model):
    if spec in model.agent_index:
        return model.agent_index[spec]
    try:
        k = int(spec)
    except ValueError:
        raise ParseError(f"unknown agent {spec!r}")
    if not (0 <= k < model.n_agents):
        raise ParseError(f"agent index {k} out of range")
    return k


def _illumination_from_args(mech, model, args):
    agent = _agent_index(args.agent, model)
    k = args.infoset
    iset = tr._own_set(mech, agent, k)
    if iset is None:
        raise ParseError(f"agent {args.agent} has no information set {k}")
    try:
        part1 = tuple(int(x) for x in args.part.split(","))
    except ValueError:
        raise ParseError(f"--part wants comma-separated node ids, not {args.part!r}")
    part2 = tuple(v for v in iset.nodes if v not in part1)
    return tr.Illuminate(agent, k, part1, part2)


def cmd_validate(args):
    mech, model, _ = parse_mechanism(_read(args.file))
    problems = validate(mech)
    if problems:
        for p in problems:
            print(p)
        return 1
    print(f"valid: {mech.n_nodes()} histories, {len(mech.terminals)} terminal, "
          f"{len(mech.infosets)} information sets")
    return 0


def cmd_check(args, checker, label):
    mech, model, f = load_mechanism(_read(args.file), require_scf=True)
    if label == "reaction-proof" and args.relaxed:
        return _verdict_exit(model, checker(mech, f, relaxed=True), label + " (relaxed)")
    return _verdict_exit(model, checker(mech, f), label)


def cmd_check_sp(args):
    _, model, f = load_mechanism(_read(args.file), require_scf=True)
    ok, witness = is_strategy_proof(model, f)
    if ok:
        print("strategy-proof: holds")
        return 0
    i, ti, tm, rest = witness
    print("strategy-proof: fails")
    print(f"agent {model.agent_names[i]} of type {model.type_names[i][ti]} gains by "
          f"reporting {model.type_names[i][tm]} against "
          f"{tuple(model.type_names[j][t] for j, t in zip([k for k in range(model.n_agents) if k != i], rest))}")
    return 1


def cmd_check_ill(args):
    mech, model, f = load_mechanism(_read(args.file), require_scf=True)
    ill = _illumination_from_args(mech, model, args)
    verdict = tr.is_incentive_preserving(mech, ill, f)
    return _verdict_exit(model, verdict, "incentive-preserving illumination")


# The options each transformation kind reads; ``transform`` refuses a kind
# whose options are missing before it loads the document.
TRANSFORM_OPTIONS = {
    "split": ("agent", "infoset", "action", "part"),
    "coalesce": ("agent", "infoset", "action", "target"),
    "illuminate": ("agent", "infoset", "part"),
    "merge": ("agent", "infoset", "target"),
    "unsplit": ("agent", "infoset"),
    "uncoalesce": ("agent", "infoset", "action"),
}


def cmd_transform(args):
    kind = args.kind
    missing = [f"--{opt}" for opt in TRANSFORM_OPTIONS[kind]
               if getattr(args, opt) is None]
    if missing:
        raise ParseError(f"--kind {kind} needs {', '.join(missing)}")
    mech, model, f = load_mechanism(_read(args.file))
    agent = _agent_index(args.agent, model)
    if kind == "split":
        action = _parse_action(args.action, model, agent)
        part1 = _parse_action(args.part, model, agent)
        t = tr.Split(agent, args.infoset, action, part1, action - part1)
    elif kind == "coalesce":
        action = _parse_action(args.action, model, agent)
        t = tr.Coalesce(agent, args.infoset, action, args.target)
    elif kind == "illuminate":
        t = _illumination_from_args(mech, model, args)
    elif kind == "merge":
        t = tr.Merge(agent, args.infoset, args.target)
    elif kind == "unsplit":
        t = tr.Unsplit(agent, args.infoset)
    elif kind == "uncoalesce":
        actions = [_parse_action(s, model, agent) for s in args.action.split("|")]
        t = tr.Uncoalesce(agent, args.infoset, tuple(actions))
    out = tr.apply_transformation(mech, t)
    _emit(serialize_mechanism(out, f), args.output)
    return 0


def _transform_doc(t, preserving, fingerprint):
    doc = {"kind": type(t).__name__.lower()}
    for field in t.__dataclass_fields__:
        value = getattr(t, field)
        # Chain steps are splits, coalesces and merges: ints and frozensets.
        doc[field] = sorted(value) if isinstance(value, frozenset) else value
    if preserving is not None:
        doc["preserving"] = preserving
    doc["fingerprint"] = fingerprint
    return doc


def cmd_reduce(args):
    mech, model, f = load_mechanism(_read(args.file), require_scf=True)
    chain = tr.reduce_to_direct(mech, f)
    verdict = tr.theorem1_verdict(chain)
    if args.json:
        doc = {
            "format": "chain/1",
            "source": chain.source_fingerprint,
            "steps": [_transform_doc(s.transform, s.preserving, s.fingerprint)
                      for s in chain.steps],
            "all_illuminations_preserving": verdict,
        }
        print(dumps(doc))
    else:
        for k, s in enumerate(chain.steps):
            extra = "" if s.preserving is None else f" [forward illumination preserving: {s.preserving}]"
            print(f"{k + 1}. {type(s.transform).__name__} {s.transform}{extra} "
                  f"-> {s.fingerprint}")
        print(f"final: static mechanism with {len(chain.final.infosets)} information sets")
        print(f"all illuminations preserving: {verdict}")
    return 0 if verdict else 1


def cmd_export_dot(args):
    mech, model, _ = load_mechanism(_read(args.file))
    _emit(export_dot(mech), args.output)
    return 0


def _priorities(spec, n):
    """Item orders from ``--priorities``: exactly n of them, each a
    permutation of the agents 0..n-1; every item ranks 0..n-1 by default."""
    if n < 1:
        raise ParseError("--n must be at least 1")
    agents = tuple(range(n))
    if spec is None:
        return (agents,) * n
    try:
        priorities = tuple(tuple(int(x) for x in item.split(","))
                           for item in spec.split(";"))
        check_priorities(priorities, n)
    except ValueError:
        raise ParseError(f"--priorities wants {n} item orders separated by ';', "
                         f"each a permutation of 0..{n - 1} like "
                         f"'{','.join(map(str, agents))}'") from None
    return priorities


# ``gen ttc`` and ``gen auction`` refuse models with more type profiles than
# the four-agent trading model's (4!)^4; ``gen ttc --n 4`` writes 25.6 MB.
GEN_MAX_PROFILES = 331_776


def _too_many_profiles(kind, n, m):
    """True iff the ``gen`` model has more than GEN_MAX_PROFILES type
    profiles: (n!)^n for ``ttc``, m^n for ``auction``.  Every factor is at
    least 2 and the product stops once it passes the limit, so a huge size
    costs nothing.  ``build_gstar`` refuses m < 2 itself."""
    if kind == "ttc":
        factors = (k for _ in range(n) for k in range(2, n + 1))
    else:
        factors = itertools.repeat(m, n if m >= 2 else 0)
    total = 1
    for k in factors:
        total *= k
        if total > GEN_MAX_PROFILES:
            return True
    return False


def cmd_gen(args):
    kind = args.what
    if kind in ("ttc", "auction") and _too_many_profiles(kind, args.n, args.m):
        count = "(n!)^n" if kind == "ttc" else "m^n"
        raise ParseError(f"gen {kind}: {count} type profiles exceed the limit "
                         f"of {GEN_MAX_PROFILES}")
    if kind == "direct":
        mech, model, f = load_mechanism(_read(args.file), require_scf=True)
        out = direct_mechanism(model, f)
    elif kind == "voting":
        model, f, mechs = voting_examples()
        if args.which not in mechs:
            raise ParseError(f"--which must be one of {sorted(mechs)}")
        out = mechs[args.which]
    elif kind == "sd":
        good, bad, model, f = serial_dictatorship_pair()
        if args.which == "good":
            out = good
        elif args.which == "bad":
            out = bad
        else:
            raise ParseError("--which must be good or bad")
    elif kind == "auction":
        try:
            out = build_gstar(args.n, args.m)
        except ValueError as e:
            raise ParseError(str(e))
        f = implemented_scf(out)
    elif kind == "ttc":
        out = build_rda(_priorities(args.priorities, args.n), args.n)
        f = implemented_scf(out)
    else:  # "random": the parser's choices admit no other kind
        if args.steps is not None and args.steps < 0:
            raise ParseError("--steps must be at least 0")
        rng = random.Random(args.seed)
        out, f, model, _tag, _applied = random_transformed_mechanism(
            rng, steps=args.steps)
    _emit(serialize_mechanism(out, f), args.output)
    return 0


@functools.cache
def make_parser():
    """The argument parser, built on the first call and shared after.

    Reuse is safe: the parser holds configuration only, ``parse_args``
    returns a fresh ``Namespace`` on every call, and argparse looks up
    ``sys.stdout`` and ``sys.stderr`` when it prints, not when it is built.
    The ``run`` lambdas below look up ``is_ic``, ``is_rp`` and ``is_irp`` by
    global name when they are called, so rebinding those names (as a tracer
    does) still reaches them; keep it that way.
    """
    p = argparse.ArgumentParser(
        prog="gradualmech",
        description="Verify and transform gradual mechanisms.")
    sub = p.add_subparsers(dest="verb", required=True)

    def add_file(sp):
        sp.add_argument("file", help="mechanism document, or - for stdin")

    sp = sub.add_parser("validate", help="check the structural rules")
    add_file(sp)
    sp.set_defaults(run=cmd_validate)

    sp = sub.add_parser("check-ic", help="dominance of truth-telling")
    add_file(sp)
    sp.set_defaults(run=lambda a: cmd_check(a, is_ic, "incentive-compatible"))

    sp = sub.add_parser("check-rp", help="reaction-proofness")
    add_file(sp)
    sp.add_argument("--relaxed", action="store_true",
                    help="skip pairs some third agent already tells apart")
    sp.set_defaults(run=lambda a: cmd_check(a, is_rp, "reaction-proof"))

    sp = sub.add_parser("check-irp", help="indifference reaction-proofness")
    add_file(sp)
    sp.set_defaults(run=lambda a: cmd_check(a, is_irp, "indifference reaction-proof"))

    sp = sub.add_parser("check-sp", help="one-shot strategy-proofness of the SCF")
    add_file(sp)
    sp.set_defaults(run=cmd_check_sp)

    sp = sub.add_parser("check-ill", help="incentive preservation of an illumination")
    add_file(sp)
    sp.add_argument("--agent", required=True)
    sp.add_argument("--infoset", type=int, required=True)
    sp.add_argument("--part", required=True,
                    help="comma-separated node ids of the first part")
    sp.set_defaults(run=cmd_check_ill)

    sp = sub.add_parser("transform", help="apply one transformation")
    add_file(sp)
    sp.add_argument("--kind", required=True,
                    choices=list(TRANSFORM_OPTIONS))
    sp.add_argument("--agent")
    sp.add_argument("--infoset", type=int)
    sp.add_argument("--target", type=int)
    sp.add_argument("--action", help="type names, comma separated ('L,R'); "
                                     "for uncoalesce, | separates actions")
    sp.add_argument("--part", help="split: type names; illuminate: node ids")
    sp.add_argument("-o", "--output")
    sp.set_defaults(run=cmd_transform)

    sp = sub.add_parser("reduce", help="chain of rewrites down to the direct mechanism")
    add_file(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(run=cmd_reduce)

    sp = sub.add_parser("export-dot", help="render the tree as DOT text")
    add_file(sp)
    sp.add_argument("-o", "--output")
    sp.set_defaults(run=cmd_export_dot)

    sp = sub.add_parser("gen", help="emit a generated mechanism document")
    sp.add_argument("what", choices=["direct", "voting", "sd", "auction", "ttc", "random"])
    sp.add_argument("file", nargs="?", default="-",
                    help="for 'direct': source document with model and scf")
    sp.add_argument("--which", help="voting: g1..g4|direct; sd: good|bad")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--priorities", help="per-item agent orders, e.g. '0,1;1,0'")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed for the randomized corpus generator")
    sp.add_argument("--steps", type=int)
    sp.add_argument("-o", "--output")
    sp.set_defaults(run=cmd_gen)

    return p


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # Reference counting frees everything a command builds (no verb leaves a
    # cycle; tests/test_fileformat_cli.py pins it), so the cycle collector's
    # passes would only re-walk the parsed document: pause it while the
    # command runs, and leave it as it was found.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except (ParseError, MechanismError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
