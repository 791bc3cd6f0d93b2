"""The rewrite records at their boundaries, in the library and through the
CLI ``transform`` verb.

Every record is checked against the agent's information sets before any
set is read: an id past the end, a negative id and another agent's set are
all "no such information set".  Each kind's own rejections follow.  The
library raises ``MechanismError`` (``coalesce_ready`` and
``unsplit_ready`` return the same message as a string); the CLI exits 2
with nothing on stdout.  The successful rewrites check that the CLI writes
exactly the library's result.
"""

import random

import pytest

import gradualmech as gm
from gradualmech.fileformat import serialize_mechanism
from gradualmech.gameform import MechanismError
from gradualmech.transforms import (Coalesce, Illuminate, Merge, Split, Uncoalesce,
                                    Unsplit, coalesce_ready, unsplit_ready)

from conftest import run_argv

L, M, R = frozenset({0}), frozenset({1}), frozenset({2})
LR, LMR = L | R, L | M | R


def bases():
    """Named (mechanism, SCF) pairs.  ``split-g1`` is the voting g1 tree
    split at voter2's set 3 (README's ``transform`` example); its sets are
    voter1's 0 and 1, and voter2's 2 to 5, where set 5 follows set 3 through
    L,R and offers L and R.  ``ill-g1`` illuminates g1's set 4, so it has a
    merge; the two random mechanisms each have a pair of sets with equal
    menus whose merge fails.  ``constant`` is the direct mechanism of a
    constant rule of one agent, whose root set has only terminal children
    with one outcome."""
    model, f, mechs = gm.voting_examples()
    g1 = mechs["g1"]
    out = {"split-g1": (gm.apply_split(g1, Split(1, 3, LR, L, R)), f),
           "ill-g1": (gm.apply_illuminate(g1, Illuminate(1, 4, (3,), (4,))), f)}
    for seed in (5, 366):
        mech, f_r, *_ = gm.random_transformed_mechanism(random.Random(seed))
        out[f"random-{seed}"] = mech, f_r
    model = gm.TypeModel([("x", "y")], ("o",), [[gm.WeakOrder([{0}])] * 2],
                         agent_names=("a",))
    f_c = gm.ScfTable(model, [0, 0])
    out["constant"] = gm.direct_mechanism(model, f_c), f_c
    return out


BASES = bases()

# case -> (base, record, the library's message fragment)
REJECTED = {
    **{f"{kind}-{where}": ("split-g1", record, "no such")
       for where, k in (("past-end", 6), ("negative", -1), ("other-agent", 0))
       for kind, record in (
           ("split", Split(1, k, LR, L, R)),
           ("coalesce-source", Coalesce(1, k, LR, 5)),
           ("coalesce-target", Coalesce(1, 3, LR, k)),
           ("illuminate", Illuminate(1, k, (5,), ())),
           ("merge-first", Merge(1, k, 5)),
           ("merge-second", Merge(1, 5, k)),
           ("unsplit", Unsplit(1, k)),
           ("uncoalesce", Uncoalesce(1, k, (L, R))))},
    "split-action-off-menu": ("split-g1", Split(1, 3, L, L, frozenset()), "not available"),
    "split-parts-not-a-partition": ("split-g1", Split(1, 3, LR, LR, frozenset()), "partition"),
    "split-decides-again": ("split-g1", Split(1, 3, LR, L, R), "decides again"),
    "coalesce-action-off-menu": ("split-g1", Coalesce(1, 3, L, 5), "not available"),
    "coalesce-target-not-next": ("split-g1", Coalesce(1, 2, LMR, 5), "does not immediately follow"),
    "coalesce-informative": ("split-g1", Coalesce(1, 2, LMR, 4), "acquires information"),
    "illuminate-parts-not-a-partition": ("split-g1", Illuminate(1, 4, (3, 4), ()), "partition"),
    "merge-with-itself": ("split-g1", Merge(1, 4, 4), "distinct"),
    "merge-different-menus": ("split-g1", Merge(1, 3, 4), "menus"),
    "merge-result-invalid": ("random-5", Merge(0, 0, 1), "not a valid mechanism"),
    "merge-not-reproduced": ("random-366", Merge(0, 1, 2), "does not reproduce"),
    "unsplit-not-alone": ("split-g1", Unsplit(0, 0), "alone"),
    "unsplit-not-final": ("split-g1", Unsplit(1, 3), "not final"),
    "unsplit-outcomes-differ": ("split-g1", Unsplit(1, 4), "outcomes differ"),
    "unsplit-root": ("constant", Unsplit(0, 0), "root must stay"),
    "uncoalesce-one-action": ("split-g1", Uncoalesce(1, 4, (L,)), "two or more"),
    "uncoalesce-action-off-menu": ("split-g1", Uncoalesce(1, 4, (L, M | R)), "two or more"),
    "uncoalesce-action-repeated": ("split-g1", Uncoalesce(1, 4, (L, M, L)), "two or more"),
}

APPLIED = {
    "split": ("ill-g1", Split(1, 3, LR, L, R)),
    "coalesce": ("split-g1", Coalesce(1, 3, LR, 5)),
    "illuminate": ("split-g1", Illuminate(1, 4, (3,), (4,))),
    "merge": ("ill-g1", Merge(1, 4, 5)),
    "unsplit": ("split-g1", Unsplit(1, 5)),
    "uncoalesce": ("split-g1", Uncoalesce(1, 4, (L, M))),
}


def transform_argv(model, t, agent=None):
    """The ``transform`` arguments that make the record ``t``; the CLI
    takes the complement of the first part as the second."""
    names = model.type_names[t.agent]

    def action(a):
        return ",".join(names[x] for x in sorted(a))

    argv = ["transform", "-", "--kind", type(t).__name__.lower(),
            "--agent", agent or model.agent_names[t.agent]]
    if isinstance(t, Merge):
        return argv + ["--infoset", str(t.first), "--target", str(t.second)]
    argv += ["--infoset", str(t.infoset)]
    if isinstance(t, Split):
        argv += ["--action", action(t.action), "--part", action(t.part1)]
    elif isinstance(t, Coalesce):
        argv += ["--action", action(t.action), "--target", str(t.target)]
    elif isinstance(t, Illuminate):
        argv += ["--part", ",".join(map(str, t.part1))]
    elif isinstance(t, Uncoalesce):
        argv += ["--action", "|".join(map(action, t.actions))]
    return argv


def document(base):
    mech, f = BASES[base]
    return serialize_mechanism(mech, f)


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_record_rejected_in_library_and_cli(case):
    base, t, fragment = REJECTED[case]
    mech, f = BASES[base]
    with pytest.raises(MechanismError, match=fragment):
        gm.apply_transformation(mech, t)
    ready = {Coalesce: coalesce_ready, Unsplit: unsplit_ready}.get(type(t))
    if ready:
        assert fragment in ready(mech, t)
    code, out, err = run_argv(transform_argv(mech.model, t), document(base))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--kind", "unsplit", "--infoset", "-1"],
     "unsplit: no such information set for that agent"),
    (["--kind", "uncoalesce", "--infoset", "-1", "--action", "L|R"],
     "uncoalesce: no such information set for that agent"),
    (["--kind", "merge", "--infoset", "-1", "--target", "5"],
     "merge: no such pair of distinct information sets for that agent"),
], ids=["unsplit", "uncoalesce", "merge"])
def test_negative_set_ids_exit_two(argv, message):
    """A negative id once indexed ``infosets`` from the end: this unsplit
    wrote a document that ``validate`` refuses, this uncoalesce rewrote the
    last set, set 5, and this merge, of set 5 with itself, failed with an
    illumination message."""
    code, out, err = run_argv(["transform", "-", "--agent", "voter2"] + argv,
                         document("split-g1"))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("kind", sorted(APPLIED))
def test_transform_writes_the_library_result(kind):
    base, t = APPLIED[kind]
    mech, f = BASES[base]
    want = serialize_mechanism(gm.apply_transformation(mech, t), f) + "\n"
    assert run_argv(transform_argv(mech.model, t), document(base)) == (0, want, "")


def test_a_lone_root_is_invalid():
    """The lone terminal root that unsplitting ``constant``'s root would
    give: nobody acts at the initial history, so ``validate`` refuses it
    and ``reduce`` exits 2 at its gate, before looking for a rewrite."""
    mech, f = BASES["constant"]
    lone = gm.build_mechanism(mech.model, [(None, None)], [], {0: 0})
    message = "root: every agent must be active at the initial history"
    assert gm.validate(lone) == [message]
    text = serialize_mechanism(lone, f)
    assert run_argv(["validate", "-"], text) == (1, message + "\n", "")
    assert run_argv(["reduce", "-"], text) == (2, "", f"error: invalid mechanism: {message}\n")


def test_agent_given_by_index():
    base, t = APPLIED["unsplit"]
    mech, _ = BASES[base]
    by_name = run_argv(transform_argv(mech.model, t), document(base))
    assert by_name[0] == 0
    assert run_argv(transform_argv(mech.model, t, agent="1"), document(base)) == by_name


def test_check_sp_prints_the_manipulation():
    """The outcome is the one right of voter1's report, R wrapping round
    to L, so voter1 of ideal L gains by reporting R."""
    model, _, _ = gm.voting_examples()
    f = gm.ScfTable(model, [(p[0] + 1) % 3 for p in model.profiles()])
    code, out, err = run_argv(["check-sp", "-"],
                         serialize_mechanism(gm.direct_mechanism(model, f), f))
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "strategy-proof: fails",
        "agent voter1 of type L gains by reporting R against ('L',)"]


def test_unknown_kinds_raise():
    mech, _ = BASES["split-g1"]
    with pytest.raises(ValueError, match="unknown transformation kind"):
        gm.find_opportunities(mech, "shuffle")
    with pytest.raises(ValueError, match="not a transformation"):
        gm.apply_transformation(mech, ("split", 3))
