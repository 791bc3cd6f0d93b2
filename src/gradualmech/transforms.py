"""The three basic tree transformations, their inverses, opportunity
detection, the incentive-preservation test for illuminations, and the
reduction of any mechanism to its one-shot (direct) form.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .checkers import Verdict, Witness, _coverage, _require_valid
from .gameform import (Mechanism, MechanismError, canonical_tree, is_static, make_step,
                       validate)  # noqa: F401  (perfbench's tracer rebinds it in every module)


@dataclass(frozen=True)
class Split:
    """Append a finer report: the agent splits ``action`` taken at
    ``infoset`` into two parts, chosen at the terminals that follow it."""
    agent: int
    infoset: int
    action: frozenset
    part1: frozenset
    part2: frozenset


@dataclass(frozen=True)
class Coalesce:
    """Advance the actions of ``target`` over ``action`` at ``infoset`` when
    the agent learns nothing in between."""
    agent: int
    infoset: int
    action: frozenset
    target: int


@dataclass(frozen=True)
class Illuminate:
    """Partition one information set in two, refining the agent's knowledge;
    parts are node-id tuples."""
    agent: int
    infoset: int
    part1: tuple
    part2: tuple


@dataclass(frozen=True)
class Merge:
    """Inverse illumination: reunite two information sets (and the successor
    partitions they induced)."""
    agent: int
    first: int
    second: int


def _copy(mech, root, edges):
    """``(copy, origin)``: the mechanism ``canonical_tree`` builds from
    ``root`` with ``mech`` as its origin, and per set of the copy the index
    of the set of ``mech`` it stems from, None for a new set.  Here
    ``edges(handle)`` returns the handle's origin, a node of ``mech`` or
    None, and its edges as the pass takes them: a list of (step, child
    handle) pairs, steps in normal form, or, where the children are the
    origin's own with their steps, the pair (origin, child handles).
    The pass takes those children's tables from ``mech`` whole, and numbers
    the copy's steps on from ``mech``'s step table, so the fingerprint
    writes only the texts of step keys that the chain meets for the first
    time.  The copy shares values, never ``mech`` itself.

    A terminal copy takes its origin's outcome.  An agent acting at a copy
    joins her information set at the origin; where she has none she is at a
    new decision, and her new decisions form one new set.  Sets left empty
    are dropped.  ``mech`` must be valid: by its cover rule (an agent's
    information sets cover exactly her decision nodes, ``_partition_rules``)
    each acting agent has a set at each decision node, so an agent who acts
    both at a copy and at its origin keeps her set.

    ``edges`` must not call itself: a closure that refers to itself is a
    reference cycle, which keeps ``mech`` alive until the cycle collector
    runs."""
    origins = []  # per canonical id, its origin

    def visit(handle, v):
        origin, out = edges(handle)
        origins.append(origin)
        return out

    tree = canonical_tree(mech.model, root, visit, mech)
    terminals, menus = tree[3], tree[5]
    outcome = {z: mech.outcome[origins[z]] for z in terminals}
    members = [[] for _ in mech.infosets]
    fresh = {}  # agent -> her new decisions
    for v, menu in enumerate(menus):
        for a in menu:
            k = mech.node_iset.get((a, origins[v]))
            if k is None:
                fresh.setdefault(a, []).append(v)
            else:
                members[k].append(v)
    kept = [k for k, ms in enumerate(members) if ms]
    groups = [(mech.infosets[k].agent, members[k]) for k in kept]
    copy = Mechanism(mech.model, tree, outcome, groups + list(fresh.items()))
    origin = [None] * len(copy.infosets)
    for k, (agent, ms) in zip(kept, groups):
        origin[copy.node_iset[agent, ms[0]]] = k
    return copy, origin


def _own_set(mech, agent, k):
    """The agent's information set ``k``, or None when ``k`` is no index of
    ``mech.infosets`` (negative ids included) or names another agent's set.
    Every record is checked through here before any set is read."""
    if 0 <= k < len(mech.infosets) and mech.infosets[k].agent == agent:
        return mech.infosets[k]
    return None


def _split_terminals(mech, k, action):
    """Terminals below information set k at which the agent's last decision
    was choosing ``action`` there: she makes no further decision afterwards,
    not even a degenerate one, so the appended choice pools cleanly."""
    iset = mech.infosets[k]
    out = []
    for v in iset.nodes:
        want = mech.experience[iset.agent][v] + ((k, action),)
        out.extend(z for z in mech.terminals_under(v)
                   if mech.experience[iset.agent][z] == want)
    return out


def apply_split(mech, t):
    """Splitting: the finer choice is appended at every terminal where the
    agent's accrued report equals ``action`` below the information set."""
    iset = _own_set(mech, t.agent, t.infoset)
    if iset is None:
        raise MechanismError("split: no such information set for that agent")
    if t.action not in iset.actions:
        raise MechanismError("split: action not available at the information set")
    if (not t.part1 or not t.part2 or t.part1 & t.part2
            or (t.part1 | t.part2) != t.action):
        raise MechanismError("split: parts must be a two-way partition of the action")
    below = _split_terminals(mech, t.infoset, t.action)
    if not below:
        raise MechanismError(
            "split: the agent decides again after that action (no terminal keeps it)")
    return _split(mech, t, below)[0]


def _split(mech, t, below):
    """``_copy`` for split ``t``, whose terminals ``below`` are known."""
    below = set(below)
    finals = [make_step({t.agent: part}) for part in (t.part1, t.part2)]

    def edges(v):
        if type(v) is tuple:  # a final choice below terminal v[0]
            return v[0], []
        if v in below:
            return v, [(s, (v,)) for s in finals]
        return v, (v, mech.children[v])

    return _copy(mech, 0, edges)


def _split_actions(mech, k):
    """The actions of set k that a split can refine, in menu order, each
    with its terminals (``_split_terminals``)."""
    for action in mech.infosets[k].actions:
        if len(action) > 1:
            below = _split_terminals(mech, k, action)
            if below:
                yield action, below


def coalesce_ready(mech, t):
    """Check the coalescing opportunity; return an error string or None.

    The agent learns nothing between the two decisions when the two sets'
    ``theta_minus`` (the other agents' type tuples at their members) are
    equal.  On a valid ``mech`` that is decided by volume: the members'
    boxes of the other agents' types are disjoint, and each target member
    lies below a source member, so the target's boxes lie inside the
    source's (see ``apply_coalesce``).  The two unions are then equal
    exactly when their sums of box sizes are."""
    source = _own_set(mech, t.agent, t.infoset)
    target = _own_set(mech, t.agent, t.target)
    if source is None:
        return "coalesce: no such source information set for that agent"
    if target is None:
        return "coalesce: no such target information set for that agent"
    if t.action not in source.actions:
        return "coalesce: action not available at the source information set"
    pred, action = mech.infoset_predecessor(t.target)
    if pred != t.infoset or action != t.action:
        return "coalesce: target does not immediately follow the source through that action"
    theta, i = mech.theta, t.agent

    def volume(iset):
        return sum(math.prod(len(s) for j, s in enumerate(theta[v]) if j != i)
                   for v in iset.nodes)

    if volume(source) != volume(target):
        return "coalesce: the agent acquires information between the two decisions"
    return None


def apply_coalesce(mech, t):
    """Coalescing: the target's menu replaces ``action`` at the source; the
    target's decision step is spliced out of every affected history.  Each
    copied node joins the information sets its original held for the agents
    that still move there, so the target set is left empty and dropped.

    ``mech`` must be valid; every caller validates first.  Validity leaves
    the copy nothing to check beyond ``coalesce_ready``:

    - The members of one information set lie on no common path (perfect
      recall) and share the agent's current set.  The terminal type boxes
      partition the profile space (``_tree_rules``), so the members' boxes
      of the other agents' types are disjoint, and a target member's box
      lies inside the box of the source member above it.  Hence
      ``coalesce_ready``'s equal volumes, and so equal ``theta_minus``, mean
      that the target members below each source member cover its box, and
      every history below the source action meets a target member before a
      terminal.
    - Menus are uniform, so the pending branch is on every target member's
      menu.  The agent's actions partition her set, so where she moves
      alone exactly one child takes the branch."""
    problem = coalesce_ready(mech, t)
    if problem:
        raise MechanismError(problem)
    return _coalesce(mech, t)[0]


def _coalesce(mech, t):
    """``_copy`` for coalesce ``t``, which ``coalesce_ready`` accepted."""
    i = t.agent
    source_nodes = set(mech.infosets[t.infoset].nodes)
    target_nodes = set(mech.infosets[t.target].nodes)
    new_actions = mech.infosets[t.target].actions
    children, step = mech.children, mech.step

    def edges(handle):
        """``handle`` is (node, branch): ``branch`` is the agent's pending
        choice between the source action and the target nodes, else None.

        Perfect recall puts no member of the source set below a source or a
        target node, so source actions are expanded wherever ``branch`` is
        None, and a target node is met only with a branch pending."""
        v, branch = handle
        if branch is not None and v in target_nodes:
            kept = [c for c in children[v] if (i, branch) in step[c]]
            if len(mech.menus[v]) > 1:
                return v, [(tuple(p for p in step[c] if p[0] != i), (c, None))
                           for c in kept]
            # The agent moved alone there: splice her step out entirely.
            v, branch = kept[0], None
        if branch is not None or v not in source_nodes:
            return v, (v, [(c, branch) for c in children[v]])
        out = []
        for c in children[v]:
            if (i, t.action) in step[c]:
                cstep = dict(step[c])
                for b in new_actions:
                    cstep[i] = b
                    out.append((make_step(cstep), (c, b)))
            else:
                out.append((step[c], (c, None)))
        return v, out

    return _copy(mech, (0, None), edges)


def _coalesce_at(mech, k):
    """The one coalesce that can take set k, from its predecessor set
    through the action taken there, where ``coalesce_ready`` accepts it;
    else None."""
    pred, action = mech.infoset_predecessor(k)
    if pred is None:
        return None
    t = Coalesce(mech.infosets[k].agent, pred, action, k)
    return t if coalesce_ready(mech, t) is None else None


def _illumination_parts(mech, t, what):
    """The parts of ``t`` as sets, checked to split the agent's set in two."""
    iset = _own_set(mech, t.agent, t.infoset)
    if iset is None:
        raise MechanismError(f"{what}: no such information set for that agent")
    p1, p2 = set(t.part1), set(t.part2)
    if not p1 or not p2 or (p1 & p2) or (p1 | p2) != set(iset.nodes):
        raise MechanismError(f"{what}: parts must be a two-way partition of the set")
    return p1, p2


def apply_illuminate(mech, t):
    """Illumination: the tree is unchanged; the information set splits in two
    and every successor set of the same agent splits by which part precedes
    each node.  The result is a regrouping of the input's tree.

    ``mech`` must be valid; every caller validates first."""
    p1, p2 = _illumination_parts(mech, t, "illuminate")
    i = t.agent
    # Perfect recall puts no member of a set below another member of the
    # same set, so each node lies below at most one member, and its side is
    # read off the members' subtree masks.
    below = mech.subtree_masks()
    under = [functools.reduce(operator.or_, map(below.__getitem__, part)) for part in (p1, p2)]

    groups = []
    for other in mech.infosets:
        if other.agent != i:
            groups.append((other.agent, list(other.nodes)))
            continue
        # Perfect recall again: a successor set's members share the agent's
        # chain.  Either the chain passes the split set, and then each member
        # lies below exactly one of its members, or no member does.  So the
        # two sides hold every member or none.
        sides = [[v for v in other.nodes if mask >> v & 1] for mask in under]
        if any(sides):
            groups.extend((i, side) for side in sides if side)
        else:
            groups.append((i, list(other.nodes)))
    return mech.regroup(groups)


def _merge_classes(mech, t):
    """``(problem, classes)``: why merge ``t`` is refused, else None and the
    agent's new information sets that unite two or more of hers, as lists
    of her set indices; her other sets stay as they are.  ``mech`` must be
    valid.

    Each of the agent's sets gets a class: the two merged sets share one; a
    set whose chain passes neither keeps its own; a set below them takes the
    class of (its predecessor set's class, the action taken there, its
    menu).  Uniting each class gives the merged mechanism.  The merge is
    refused where that mechanism is invalid or illuminating it does not give
    back ``mech``, and on a valid input both are decided from the chains,
    before anything is built:

    - Every class but the united one has equal menus and equal chains
      through the classes, and the classes partition her decision nodes.  So
      the partition rules (``_partition_rules``) can fail only at the united
      set, by perfect recall, and they do exactly when the two sets' chains
      differ: a chain through neither set maps one to one onto classes, and
      a chain through the other set is the longer one.
    - With equal chains, each set below the two passes exactly one of them,
      and the forward illumination splits each class into the sets below the
      first and those below the second.  So the round trip fails exactly when
      one class holds two sets whose chains pass the same one of the two.

    Canonical ids are breadth-first, so a set's predecessor, whose members
    are ancestors of its members, has a smaller first member and comes
    before it in ``mech.infosets``; so do the two before every set below
    them."""
    a, b = _own_set(mech, t.agent, t.first), _own_set(mech, t.agent, t.second)
    if a is None or b is None or t.first == t.second:
        return "merge: no such pair of distinct information sets for that agent", None
    if a.actions != b.actions:
        return "merge: the two sets offer different action menus", None
    exp = mech.experience[t.agent]
    chain = exp[a.nodes[0]]
    if exp[b.nodes[0]] != chain:
        return ("merge: result is not a valid mechanism: "
                "the united set's members violate perfect recall"), None
    depth, pair = len(chain), (t.first, t.second)
    class_of = dict.fromkeys(pair, 0)  # set index -> class, for the two and the sets below
    keys = {}  # (predecessor's class, action, menu) -> class
    classes = [list(pair)]
    sides = set()  # (class, which of the two its members pass)
    for k in range(min(pair) + 1, mech.agent_infosets(t.agent).stop):
        iset = mech.infosets[k]
        past = exp[iset.nodes[0]]
        if len(past) <= depth or past[depth][0] not in pair:
            continue
        pred, action = past[-1]
        c = keys.setdefault((class_of[pred], action, iset.actions), len(classes))
        if c == len(classes):
            classes.append([])
        side = (c, past[depth][0])
        if side in sides:
            return "merge: illuminating the result does not reproduce the original", None
        sides.add(side)
        class_of[k] = c
        classes[c].append(k)
    return None, [ks for ks in classes if len(ks) > 1]


def merge_ready(mech, t):
    """Check the merge opportunity; return an error string or None."""
    return _merge_classes(mech, t)[0]


def apply_merge(mech, t):
    """Inverse illumination.  Reunites two information sets and the
    successor sets that illuminating the result tells apart again; refuses
    a merge whose result is invalid or does not illuminate back to ``mech``
    (``_merge_classes``), so it regroups only a merge it keeps.

    Returns ``(merged, forward)`` where ``forward`` is the Illuminate record
    whose application round-trips.  ``merged`` is a regrouping of the
    input's tree, so both keep its node ids.  ``mech`` must be valid.
    """
    problem, classes = _merge_classes(mech, t)
    if problem:
        raise MechanismError(problem)
    return _merge(mech, t, classes)


def _merge(mech, t, classes):
    """``apply_merge`` for merge ``t``, whose ``classes`` are known."""
    merged = mech.unite(t.agent, classes)
    a, b = mech.infosets[t.first], mech.infosets[t.second]
    forward = Illuminate(t.agent, merged.node_iset[(t.agent, a.nodes[0])], a.nodes, b.nodes)
    return merged, forward


def _merge_candidates(mech, i):
    """Merges of two of agent i's sets with the same menu and the same
    chain at their first members, in canonical pair order:
    ``_merge_classes`` refuses every other pair before any other work."""
    exp, peers = mech.experience[i], {}
    for k in mech.agent_infosets(i):
        iset = mech.infosets[k]
        peers.setdefault((iset.actions, exp[iset.nodes[0]]), []).append(k)
    for first, second in sorted(
            pair for ks in peers.values() for pair in itertools.combinations(ks, 2)):
        yield Merge(i, first, second)


@dataclass(frozen=True)
class Unsplit:
    """Inverse splitting: forget one final refinement.  Every member of the
    information set must be a last decision of the agent, taken alone, with
    only terminal children sharing one outcome."""
    agent: int
    infoset: int


@dataclass(frozen=True)
class Uncoalesce:
    """Inverse coalescing: defer part of a menu.  The listed actions at the
    information set are replaced by their union, refined at a new immediately
    following information set where the agent learns nothing new."""
    agent: int
    infoset: int
    actions: tuple


def unsplit_ready(mech, t):
    """Check the unsplitting opportunity; return an error string or None.

    Each member of the set must be the agent's last decision, taken alone,
    with only terminal children that share one outcome.  Such a set holds
    the root only where one agent acts alone there, and unsplitting it
    would leave a lone terminal root, at which nobody acts: ``validate``
    refuses that, so the root is refused too."""
    iset = _own_set(mech, t.agent, t.infoset)
    if iset is None:
        return "unsplit: no such information set for that agent"
    for v in iset.nodes:
        for c in mech.children[v]:
            if len(mech.step[c]) != 1 or mech.step[c][0][0] != t.agent:
                return "unsplit: the agent does not refine alone there"
            if not mech.is_terminal(c):
                return "unsplit: refinement is not final"
        if len({mech.outcome[c] for c in mech.children[v]}) != 1:
            return "unsplit: outcomes differ across the refinement"
    if 0 in iset.nodes:
        return "unsplit: the root must stay a decision of every agent"
    return None


def apply_unsplit(mech, t):
    """Unsplitting, the inverse of splitting: each member of the set
    becomes a terminal with its children's one outcome, and the set is
    dropped.  The generators build the voting g1 and the bad serial
    dictatorship with it."""
    problem = unsplit_ready(mech, t)
    if problem:
        raise MechanismError(problem)
    forgotten = set(mech.infosets[t.infoset].nodes)

    def edges(v):
        if v in forgotten:  # a terminal now, with its children's one outcome
            return mech.children[v][0], []
        return v, (v, mech.children[v])

    return _copy(mech, 0, edges)[0]


def apply_uncoalesce(mech, t):
    """Uncoalescing, the inverse of coalescing: at each member of the set,
    the listed actions give way to their union, and a new node below it,
    where the agent moves alone, offers them again.  The new nodes form one
    new set that follows the union, so the agent learns nothing in between.
    The generators build the voting family, the bad serial dictatorship and
    Example 2's base with it.  ``mech`` must be valid."""
    iset = _own_set(mech, t.agent, t.infoset)
    if iset is None:
        raise MechanismError("uncoalesce: no such information set for that agent")
    chosen = tuple(t.actions)
    chosen_set, members = set(chosen), set(iset.nodes)
    if (len(chosen) < 2 or len(chosen_set) < len(chosen)
            or any(a not in iset.actions for a in chosen)):
        raise MechanismError("uncoalesce: need two or more actions from the menu")
    i = t.agent
    union = frozenset().union(*chosen)

    def edges(h):
        if type(h) is list:  # a middle node: the agent's deferred choices
            return None, [(make_step({i: act}), c) for c, act in h]
        if h not in members:
            return h, (h, mech.children[h])
        out, by_rest = [], {}  # the other agents' moves -> [(child, the agent's action)]
        for c in mech.children[h]:
            act = dict(mech.step[c]).get(i)
            if act in chosen_set:
                rest = tuple(p for p in mech.step[c] if p[0] != i)
                by_rest.setdefault(rest, []).append((c, act))
            else:
                out.append((mech.step[c], c))
        out.extend((make_step({**dict(rest), i: union}), kids) for rest, kids in by_rest.items())
        return h, out

    return _copy(mech, 0, edges)[0]


def _binary_partitions(items):
    """All unordered two-way partitions, canonical order: the part holding
    the smallest element grows by subset rank."""
    items = sorted(items)
    head, rest = items[0], items[1:]
    for r in range(len(rest)):
        for combo in itertools.combinations(rest, r):
            part1 = tuple([head] + list(combo))
            part2 = tuple(x for x in rest if x not in combo)
            yield part1, part2


def iter_opportunities(mech, kind):
    """Lazily enumerate applicable transformations of one kind, canonical
    (agent, node id) order.  Merges are probed only between the pairs
    ``_merge_candidates`` lists."""
    if kind == "split":
        for k, iset in enumerate(mech.infosets):
            for action, _ in _split_actions(mech, k):
                for part1, part2 in _binary_partitions(sorted(action)):
                    yield Split(iset.agent, k, action,
                                frozenset(part1), frozenset(part2))
    elif kind == "coalesce":
        for k in range(len(mech.infosets)):
            t = _coalesce_at(mech, k)
            if t is not None:
                yield t
    elif kind == "illuminate":
        for k, iset in enumerate(mech.infosets):
            for part1, part2 in _binary_partitions(iset.nodes):
                yield Illuminate(iset.agent, k, part1, part2)
    elif kind == "merge":
        for i in range(mech.model.n_agents):
            for cand in _merge_candidates(mech, i):
                if merge_ready(mech, cand) is None:
                    yield cand
    elif kind == "unsplit":
        for k, iset in enumerate(mech.infosets):
            cand = Unsplit(iset.agent, k)
            if unsplit_ready(mech, cand) is None:
                yield cand
    elif kind == "uncoalesce":
        for k, iset in enumerate(mech.infosets):
            for r in range(2, len(iset.actions) + 1):
                for combo in itertools.combinations(iset.actions, r):
                    yield Uncoalesce(iset.agent, k, combo)
    else:
        raise ValueError(f"unknown transformation kind {kind!r}")


def find_opportunities(mech, kind):
    return list(iter_opportunities(mech, kind))


def apply_transformation(mech, t):
    if isinstance(t, Split):
        return apply_split(mech, t)
    if isinstance(t, Coalesce):
        return apply_coalesce(mech, t)
    if isinstance(t, Illuminate):
        return apply_illuminate(mech, t)
    if isinstance(t, Merge):
        return apply_merge(mech, t)[0]
    if isinstance(t, Unsplit):
        return apply_unsplit(mech, t)
    if isinstance(t, Uncoalesce):
        return apply_uncoalesce(mech, t)
    raise ValueError(f"not a transformation: {t!r}")


def is_incentive_preserving(mech, t, f):
    """Whether illuminating ``mech`` by ``t`` keeps every other agent's
    truthful comparison intact against the newly informed agent's
    conditioning power.

    Quantifies over ordered pairs of (type of the informed agent, acquired
    information tuple from each part), restricted to pairs reachable under
    one strategy profile of the remaining agents.

    Per first row, the second rows that may harm it are one mask over their
    terminals, built as in ``is_ic``: the terminals at which at most one
    other agent conflicts, ANDed per checked agent j with the terminals of
    the rows whose value j's type ranks strictly above the first row's, ORed
    from the second side's per-value masks.
    Rows are keyed by the value ``f`` gives them, not by their terminal's
    outcome, because ``f`` need not be the SCF the mechanism implements; two
    rows may then share a terminal and differ in value, so the mask may be a
    superset.  The second rows are therefore walked in order and only those
    in the mask get the exact test, so the first hit is the canonical
    witness of the pair-by-pair scan in ``tests/oracles.py``.
    """
    model = mech.model
    p1, p2 = _illumination_parts(mech, t, "illumination check")
    i = t.agent
    n = model.n_agents
    others = [j for j in range(n) if j != i]
    theta_i = sorted(mech.theta_infoset(t.infoset))

    def acquired(nodes):
        seen = set()
        for v in sorted(nodes):
            seen.update(itertools.product(*(sorted(mech.theta[v][j]) for j in others)))
        return sorted(seen)

    table, strides = mech.truthful_table(), model.strides

    def rows(minus):
        """Per type of the informed agent: one row per acquired tuple (the
        profile, its truthful terminal z, the value f gives it, z's conflict
        masks, and the terminals at which at least one and at least two of
        the other agents conflict with z), and per value x the terminals of
        the rows of value x.  Each profile is built from ``theta`` rows, so
        its rank is read without ``TypeModel.rank``'s checks."""
        out = {}
        for ti in theta_i:
            side, by_x = [], {}
            for rest in minus:
                prof = rest[:i] + (ti,) + rest[i:]
                r = sum(map(operator.mul, prof, strides))
                z, x = table[r], f.outcomes[r]
                masks = mech.conflict_masks(z)
                side.append((prof, z, x, masks, *_coverage(masks[j] for j in others)))
                by_x[x] = by_x.get(x, 0) | 1 << z
            out[ti] = side, by_x
        return out

    sides = (rows(acquired(p1)), rows(acquired(p2)))

    # The informed agent's types range over ordered pairs, and the two parts
    # swap roles, which together cover every switched-superscript variant of
    # the required comparisons.
    for a, b in ((0, 1), (1, 0)):
        for ti1 in theta_i:
            for ti2 in theta_i:
                second, by_x = sides[b][ti2]
                for prof1, z1, x1, masks, once, twice in sides[a][ti1][0]:
                    harmful = 0
                    for j in others:
                        levels = model.levels(j, prof1[j])
                        above, level = 0, levels[x1]
                        for x, mask in by_x.items():
                            if levels[x] < level:
                                above |= mask
                        harmful |= (masks[j] | ~once) & above
                    harmful &= ~twice
                    if not harmful:
                        continue
                    for prof2, z2, x2, *_ in second:
                        if not harmful >> z2 & 1:
                            continue
                        js = [j for j in others if masks[j] >> z2 & 1] or others
                        for j in js:
                            levels = model.levels(j, prof1[j])
                            if levels[x2] < levels[x1]:
                                return Verdict(False, Witness(
                                    "ill", j, i, z1, z2, prof1, prof2, x1, x2,
                                    infosets=(t.infoset,),
                                    detail="illumination lets the informed agent harm this comparison"))
    return Verdict(True)


@dataclass(frozen=True)
class ChainStep:
    transform: object
    fingerprint: str
    preserving: bool | None = None   # merge steps: verdict for the forward illumination


@dataclass
class ReductionChain:
    source_fingerprint: str
    steps: list
    final: object

    def merges(self):
        return [s for s in self.steps if isinstance(s.transform, Merge)]

    def counts(self):
        """Steps per kind, named as ``chain/1`` names them."""
        out = {"split": 0, "coalesce": 0, "merge": 0}
        for s in self.steps:
            out[type(s.transform).__name__.lower()] += 1
        return out


def theorem1_verdict(chain):
    """All recorded illuminations along the chain were incentive-preserving;
    vacuously true for chains without merges."""
    merges = chain.merges()
    if any(s.preserving is None for s in merges):
        raise MechanismError("chain was reduced without preservation checks")
    return all(s.preserving for s in merges)


def _first(settled, probe):
    """The first step ``probe(k)`` finds, over the indices k not settled in
    ascending order; each index probed without a step is settled on the
    way, and the indices after the step are left unprobed."""
    for k, done in enumerate(settled):
        if not done:
            found = probe(k)
            if found is not None:
                return found
            settled[k] = True
    return None


def _split_at(mech, k):
    """``(split, its terminals)`` for the first split ``iter_opportunities``
    yields at set k, or None."""
    for action, below in _split_actions(mech, k):
        part1, part2 = next(_binary_partitions(sorted(action)))
        return Split(mech.infosets[k].agent, k, action,
                     frozenset(part1), frozenset(part2)), below
    return None


def _first_merge(mech, refused):
    """``(merge, its classes)`` for the first ready merge, or None.  The
    pairs of set indices in ``refused`` are skipped, and each pair probed
    and refused is added."""
    for i in range(mech.model.n_agents):
        for t in _merge_candidates(mech, i):
            pair = t.first, t.second
            if pair not in refused:
                problem, classes = _merge_classes(mech, t)
                if problem is None:
                    return t, classes
                refused.add(pair)
    return None


def _after_coalesce(mech, t, origin, settled, refused):
    """The tables of ``reduce_to_direct`` for the result of coalesce ``t``
    on ``mech``, whose sets stem from those of ``mech`` as ``origin`` says.

    Every set keeps its coalesce verdict.  ``coalesce_ready`` compares a
    set's volume with its predecessor's, and the copy keeps every volume:

    - Outside the source members' subtrees through ``t.action`` each node
      is copied once, with its ``theta`` row.  So is each node below a
      target member, on the one branch the agent took there.
    - A node between a source member and the target members, where the
      agent's types are ``t.action``, is copied once per target action,
      with that action as her types; so is a target member where others
      act too, and one where she acts alone, a member of the target only,
      is dropped.  The target actions partition ``t.action``, so the
      copies' box sizes add up to the node's.  She makes no other decision
      there, so none of her sets, whose volumes leave her types out, has a
      member there.

    Every chain keeps its entries, except that below the target the
    agent's chain passes the source with the action she took at the target
    and no longer passes the target.  So a set that followed the target now
    follows the source, whose volume equals the target's, as
    ``coalesce_ready`` found, and every other set keeps its predecessor.

    Every other agent keeps her sets, their menus and the entries of her
    chains, at copies as at their origins, so ``_merge_classes`` refuses
    her pairs again: it reads no more, and whether two of her sets meet in
    one class does not depend on the order in which the sets are
    numbered."""
    index = {o: k for k, o in enumerate(origin) if o is not None}
    return ([o is not None and settled[o] for o in origin],
            {tuple(sorted((index[a], index[b]))) for a, b in refused
             if mech.infosets[a].agent != t.agent})


def _after_merge(mech, t, classes, merged, settled, refused):
    """The tables of ``reduce_to_direct`` for ``merged``, the result of
    merge ``t`` with ``classes`` on ``mech``.

    The merge keeps the tree, and so ``theta`` and the menus, and renames
    the sets in the chains, one to one but for the united sets.  So a set
    that is not united keeps its members, and where its predecessor is not
    united either, both keep their volumes and ``coalesce_ready`` its
    verdict.

    Every other agent keeps her sets and chains, so her pairs keep their
    merge verdicts.  So does a pair (a, b) of the agent where neither a nor
    b is united or passed by the chain of a united set: a and b keep their
    menus and equal chains, and the sets whose chains pass a or b are the
    images of the same sets, none united, with the same predecessors, so
    ``_merge_classes`` meets the same classes again."""
    exp = mech.experience[t.agent]
    united = {k for ks in classes for k in ks}
    reached = united | {k for u in united for k, _ in exp[mech.infosets[u].nodes[0]]}
    index = [merged.node_iset[s.agent, s.nodes[0]] for s in mech.infosets]
    out = [False] * len(merged.infosets)
    for k, done in enumerate(settled):
        if done and k not in united and mech.infoset_predecessor(k)[0] not in united:
            out[index[k]] = True
    return out, {(index[a], index[b]) for a, b in refused
                 if a not in reached and b not in reached}


def reduce_to_direct(mech, f):
    """Transform a mechanism into the one-shot direct form of its SCF.

    Phase 1 splits until every terminal pins a single type profile; phase 2
    repeatedly applies the canonically first coalesce, falling back to the
    first merge, until the mechanism is static.  Each merge records the
    forward illumination and its incentive-preservation verdict evaluated on
    the post-merge mechanism.

    The chain is the one that ``iter_opportunities`` would find by probing
    every set after every step (``reduce_chain_oracle`` in the tests).  Here
    three tables carry what is settled from step to step: the sets that
    offer no split, the sets that no coalesce takes, and the pairs of sets
    whose merge is refused.  A probe skips what is settled and stops at its
    first find, in the canonical order, and each step keeps the entries it
    cannot change:

    - A split at (k, action) by agent i keeps every set's split verdict but
      k's.  The new terminals sit below terminals whose chain for i ended
      in (k, action), so no other set of i had them among its final
      terminals, and the other agents' chains there are unchanged.  The new
      final-choice set is probed as new.
    - A merge of agent i's sets keeps the coalesce verdict of every set
      where neither the set nor its predecessor is united, and the merge
      verdict of every pair where neither set is united or passed by a
      united set's chain; every other agent keeps all of hers
      (``_after_merge``).
    - A coalesce keeps every set's coalesce verdict, the target's gone, and
      every other agent's merge verdicts (``_after_coalesce``).

    Set indices are carried through the copy's ``origin`` or the merge's
    classes, and each find is applied as it is, without the checks the
    public ``apply_*`` functions repeat.
    """
    _require_valid(mech, f)
    # Taken first, so the copies inherit the source's step-key texts.
    source = mech.fingerprint()

    steps = []
    current = mech
    settled = [False] * len(current.infosets)  # per set: it offers no split
    while (found := _first(settled, functools.partial(_split_at, current))) is not None:
        t, below = found
        current, origin = _split(current, t, below)
        settled = [o is not None and o != t.infoset and settled[o] for o in origin]
        steps.append(ChainStep(t, current.fingerprint()))

    settled = [False] * len(current.infosets)  # per set: no coalesce takes it
    refused = set()  # pairs of sets: a merge of the two is refused
    while not is_static(current):
        t = _first(settled, functools.partial(_coalesce_at, current))
        if t is not None:
            result, origin = _coalesce(current, t)
            settled, refused = _after_coalesce(current, t, origin, settled, refused)
            current = result
            steps.append(ChainStep(t, current.fingerprint()))
            continue
        found = _first_merge(current, refused)
        if found is None:
            raise MechanismError(
                "reduce: non-static mechanism with no coalesce or merge opportunity")
        t, classes = found
        merged, forward = _merge(current, t, classes)
        preserving = bool(is_incentive_preserving(merged, forward, f))
        settled, refused = _after_merge(current, t, classes, merged, settled, refused)
        current = merged
        steps.append(ChainStep(t, current.fingerprint(), preserving=preserving))

    # The result is not validated again: each step keeps a valid mechanism
    # valid, and the input was validated above.  A split adds one final move
    # per terminal, and those terminals share one chain and one menu.  A
    # coalesce puts the target's menu, which partitions ``action``, in place
    # of ``action`` at the source; each copy keeps its original's sets and
    # moves, and the members of every set have their chains fused alike.
    # A merge keeps only a result that is valid (``_merge_classes``).
    return ReductionChain(source, steps, current)
