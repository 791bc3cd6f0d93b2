"""The three basic tree transformations, their inverses, opportunity
detection, the incentive-preservation test for illuminations, and the
reduction of any mechanism to its one-shot (direct) form.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .checkers import Verdict, Witness, _coverage, _rank_table, _require_valid
from .gameform import MechanismError, build_mechanism, is_static, make_step, validate


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


def _raw_nodes(mech):
    return [(mech.parent[v], mech.step[v]) for v in range(mech.n_nodes())]


def _raw_groups(mech):
    return [(s.agent, list(s.nodes)) for s in mech.infosets]


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

    nodes = _raw_nodes(mech)
    outcomes = dict(mech.outcome)
    for z in below:
        x = outcomes.pop(z)
        for part in (t.part1, t.part2):
            nodes.append((z, make_step({t.agent: part})))
            outcomes[len(nodes) - 1] = x
    groups = _raw_groups(mech)
    groups.append((t.agent, list(below)))
    return build_mechanism(mech.model, nodes, groups, outcomes)


def coalesce_ready(mech, t):
    """Check the coalescing opportunity; return an error string or None."""
    source = _own_set(mech, t.agent, t.infoset)
    if source is None:
        return "coalesce: no such source information set for that agent"
    if _own_set(mech, t.agent, t.target) is None:
        return "coalesce: no such target information set for that agent"
    if t.action not in source.actions:
        return "coalesce: action not available at the source information set"
    pred, action = mech.infoset_predecessor(t.target)
    if pred != t.infoset or action != t.action:
        return "coalesce: target does not immediately follow the source through that action"
    if mech.theta_minus(t.infoset) != mech.theta_minus(t.target):
        return "coalesce: the agent acquires information between the two decisions"
    return None


def apply_coalesce(mech, t):
    """Coalescing: the target's menu replaces ``action`` at the source; the
    target's decision step is spliced out of every affected history.  Each
    copied node joins the information sets its original held for the agents
    that still move there, so the target set is left empty and dropped.

    ``mech`` must be valid; every caller validates first.  Validity leaves
    the walk nothing to check beyond ``coalesce_ready``:

    - The members of one information set lie on no common path (perfect
      recall) and share the agent's current set.  The terminal type boxes
      partition the profile space (``_tree_rules``), so the members' boxes
      of the other agents' types are disjoint.  Hence ``coalesce_ready``'s
      equal ``theta_minus`` means that the target members below each source
      member cover its box, and every history below the source action meets
      a target member before a terminal.
    - Menus are uniform, so the pending branch is on every target member's
      menu.  The agent's actions partition her set, so where she moves
      alone exactly one child takes the branch."""
    problem = coalesce_ready(mech, t)
    if problem:
        raise MechanismError(problem)
    i = t.agent
    source_nodes = set(mech.infosets[t.infoset].nodes)
    target_nodes = set(mech.infosets[t.target].nodes)
    new_actions = mech.infosets[t.target].actions

    nodes = []
    outcomes = {}
    groups = [[] for _ in mech.infosets]  # per input set, its copied members

    def add(parent_new, step, old, movers):
        new = len(nodes)
        nodes.append((parent_new, step))
        for a in movers:
            groups[mech.node_iset[a, old]].append(new)
        return new

    def copy(old, parent_new, step, branch):
        """Copy the subtree at ``old``.  ``branch`` is the agent's pending
        choice between the source action and the target nodes, else None.

        Perfect recall puts no member of the source set below a source or a
        target node, so source actions are expanded wherever ``branch`` is
        None, and a target node is met only with a branch pending."""
        if branch is not None and old in target_nodes:
            kept = [c for c in mech.children[old] if (i, branch) in mech.step[c]]
            if mech.acting[old] == (i,):
                # The agent moved alone there: splice her step out entirely.
                copy(kept[0], parent_new, step, None)
                return
            new = add(parent_new, step, old, [a for a in mech.acting[old] if a != i])
            for c in kept:
                copy(c, new, tuple(p for p in mech.step[c] if p[0] != i), None)
            return
        new = add(parent_new, step, old, mech.acting[old])
        if old in mech.outcome:
            outcomes[new] = mech.outcome[old]
        in_source = branch is None and old in source_nodes
        for c in mech.children[old]:
            cstep = dict(mech.step[c])
            if in_source and cstep.get(i) == t.action:
                for b in new_actions:
                    cstep[i] = b
                    copy(c, new, make_step(cstep), b)
            else:
                copy(c, new, mech.step[c], branch)

    try:
        copy(0, None, None, None)
    finally:
        # The walk refers to itself through its closure cell; emptying the
        # cell breaks that cycle, so the input is freed by reference counting
        # rather than left to the cycle collector.
        del add, copy

    return build_mechanism(mech.model, nodes,
                           [(s.agent, members) for s, members in zip(mech.infosets, groups)],
                           outcomes)


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


def apply_merge(mech, t):
    """Inverse illumination.  Reunites two information sets (and recursively
    the successor partitions they induced), then checks that illuminating the
    result reproduces the original mechanism.

    Returns ``(merged, forward)`` where ``forward`` is the Illuminate record
    whose application round-trips.  ``merged`` is a regrouping of the
    input's tree, so both keep its node ids.
    """
    a, b = _own_set(mech, t.agent, t.first), _own_set(mech, t.agent, t.second)
    if a is None or b is None or t.first == t.second:
        raise MechanismError("merge: no such pair of distinct information sets for that agent")
    if a.actions != b.actions:
        raise MechanismError("merge: the two sets offer different action menus")
    i = t.agent
    merged_ids = {t.first, t.second}

    ks = mech.agent_infosets(i)
    by_depth = sorted(ks, key=lambda k: len(mech.experience[i][mech.infosets[k].nodes[0]]))
    new_class = {}

    def chain_sig(k):
        v = mech.infosets[k].nodes[0]
        return tuple((new_class[kk], act) for kk, act in mech.experience[i][v])

    for k in by_depth:
        v = mech.infosets[k].nodes[0]
        past = {kk for kk, _ in mech.experience[i][v]}
        if k in merged_ids:
            new_class[k] = ("merged", min(merged_ids))
        elif past & merged_ids:
            new_class[k] = ("sig", chain_sig(k), mech.infosets[k].actions)
        else:
            new_class[k] = ("keep", k)

    unions = {}
    for k in ks:
        unions.setdefault(new_class[k], []).extend(mech.infosets[k].nodes)
    groups = [(s.agent, list(s.nodes)) for s in mech.infosets if s.agent != i]
    for _, members in sorted(unions.items(), key=lambda kv: min(kv[1])):
        groups.append((i, members))
    merged = mech.regroup(groups)
    # Only the partition rules run here: the tree-rule report is the input's.
    problems = validate(merged)
    if problems:
        raise MechanismError("merge: result is not a valid mechanism: " + problems[0])

    # The united set is exactly a | b on unchanged ids; validate ruled out
    # overlapping sets, so it is the one holding a's first node.
    forward = Illuminate(i, merged.node_iset[(i, a.nodes[0])], a.nodes, b.nodes)
    again = apply_illuminate(merged, forward)
    # mech, merged and again share one tree, so they are equal iff their
    # information sets are.
    if ([(s.agent, s.nodes) for s in again.infosets]
            != [(s.agent, s.nodes) for s in mech.infosets]):
        raise MechanismError("merge: illuminating the result does not reproduce the original")
    return merged, forward


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
    return None


def unsplit_outcome_constant(mech, t, f):
    """Whether forgetting the refinement still implements f (f constant on
    each collapsed terminal's accrued information)."""
    iset = mech.infosets[t.infoset]
    for v in iset.nodes:
        want = mech.outcome[mech.children[v][0]]
        for profile in mech.theta_profiles(v):
            if f[profile] != want:
                return False
    return True


def apply_unsplit(mech, t):
    problem = unsplit_ready(mech, t)
    if problem:
        raise MechanismError(problem)
    iset = mech.infosets[t.infoset]
    drop = {c for v in iset.nodes for c in mech.children[v]}
    keep = [v for v in range(mech.n_nodes()) if v not in drop]
    nodes = []
    remap = {}
    for v in keep:
        remap[v] = len(nodes)
        nodes.append((None if mech.parent[v] is None else remap[mech.parent[v]],
                      mech.step[v]))
    outcomes = {remap[v]: x for v, x in mech.outcome.items() if v in remap}
    for v in iset.nodes:
        outcomes[remap[v]] = mech.outcome[mech.children[v][0]]
    groups = []
    for k, s in enumerate(mech.infosets):
        if k == t.infoset:
            continue
        groups.append((s.agent, [remap[v] for v in s.nodes]))
    return build_mechanism(mech.model, nodes, groups, outcomes)


def apply_uncoalesce(mech, t):
    iset = _own_set(mech, t.agent, t.infoset)
    if iset is None:
        raise MechanismError("uncoalesce: no such information set for that agent")
    chosen = tuple(t.actions)
    if len(chosen) < 2 or any(a not in iset.actions for a in chosen):
        raise MechanismError("uncoalesce: need two or more actions from the menu")
    i = t.agent
    union = frozenset().union(*chosen)
    chosen_set = set(chosen)

    nodes = _raw_nodes(mech)
    new_infoset = []
    for v in iset.nodes:
        by_rest = {}  # the other agents' moves -> [(child, the agent's action)]
        for c in mech.children[v]:
            act = dict(mech.step[c]).get(i)
            if act in chosen_set:
                rest = tuple(p for p in mech.step[c] if p[0] != i)
                by_rest.setdefault(rest, []).append((c, act))
        # The middle nodes under v have distinct steps, so build_mechanism
        # numbers them the same whatever order they are added in.
        for rest, kids in by_rest.items():
            mid = len(nodes)
            nodes.append((v, make_step({**dict(rest), i: union})))
            new_infoset.append(mid)
            for c, act in kids:
                nodes[c] = (mid, make_step({i: act}))
    groups = _raw_groups(mech)
    groups.append((i, new_infoset))
    return build_mechanism(mech.model, nodes, groups, mech.outcome)


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
    (agent, node id) order."""
    if kind == "split":
        for k, iset in enumerate(mech.infosets):
            for action in iset.actions:
                if len(action) < 2:
                    continue
                if not _split_terminals(mech, k, action):
                    continue
                for part1, part2 in _binary_partitions(sorted(action)):
                    yield Split(iset.agent, k, action,
                                frozenset(part1), frozenset(part2))
    elif kind == "coalesce":
        for k in range(len(mech.infosets)):
            pred, action = mech.infoset_predecessor(k)
            if pred is None:
                continue
            cand = Coalesce(mech.infosets[k].agent, pred, action, k)
            if coalesce_ready(mech, cand) is None:
                yield cand
    elif kind == "illuminate":
        for k, iset in enumerate(mech.infosets):
            for part1, part2 in _binary_partitions(iset.nodes):
                yield Illuminate(iset.agent, k, part1, part2)
    elif kind == "merge":
        for cand, _, _ in _applicable_merges(mech):
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


def _applicable_merges(mech):
    """Each applicable merge, canonical (agent, set index) order, with the
    ``(merged, forward)`` result of the ``apply_merge`` call that found it
    applicable."""
    for i in range(mech.model.n_agents):
        ks = mech.agent_infosets(i)
        for x in range(len(ks)):
            for y in range(x + 1, len(ks)):
                ka, kb = ks[x], ks[y]
                # Equal menus imply equal current sets: the tree rules make
                # each node's menu partition the agent's current set there
                # (``_tree_rules``).  Where a tree rule fails, ``apply_merge``'s
                # validate rejects, since a regrouping shares the tree's report.
                if mech.infosets[ka].actions != mech.infosets[kb].actions:
                    continue
                cand = Merge(i, ka, kb)
                try:
                    merged, forward = apply_merge(mech, cand)
                except MechanismError:
                    continue
                yield cand, merged, forward


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
    the rows whose value j's type ranks strictly above the first row's.
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

    table = mech.truthful_table()

    def rows(minus):
        """Per type of the informed agent: one row per acquired tuple (the
        profile, its truthful terminal z, the value f gives it, z's conflict
        masks, and the terminals at which at least one and at least two of
        the other agents conflict with z), and per value x the terminals of
        the rows of value x."""
        out = {}
        for ti in theta_i:
            side, by_x = [], {}
            for rest in minus:
                prof = rest[:i] + (ti,) + rest[i:]
                r = model.rank(prof)
                z, x = table[r], f.outcomes[r]
                masks = mech.conflict_masks(z)
                side.append((prof, z, x, masks, *_coverage(masks[j] for j in others)))
                by_x[x] = by_x.get(x, 0) | 1 << z
            out[ti] = side, by_x
        return out

    sides = (rows(acquired(p1)), rows(acquired(p2)))
    ranked = {}  # (second side, ti2, j, type of j) -> rank table of by_x

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
                        tj = prof1[j]
                        rank = ranked.get((b, ti2, j, tj))
                        if rank is None:
                            rank = ranked[b, ti2, j, tj] = _rank_table(model, j, tj, by_x)
                        harmful |= (masks[j] | ~once) & rank[model.levels(j, tj)[x1]]
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
        out = {"split": 0, "coalesce": 0, "merge": 0}
        for s in self.steps:
            if isinstance(s.transform, Split):
                out["split"] += 1
            elif isinstance(s.transform, Coalesce):
                out["coalesce"] += 1
            elif isinstance(s.transform, Merge):
                out["merge"] += 1
        return out


def theorem1_verdict(chain):
    """All recorded illuminations along the chain were incentive-preserving;
    vacuously true for chains without merges."""
    merges = chain.merges()
    if any(s.preserving is None for s in merges):
        raise MechanismError("chain was reduced without preservation checks")
    return all(s.preserving for s in merges)


def reduce_to_direct(mech, f):
    """Transform a mechanism into the one-shot direct form of its SCF.

    Phase 1 splits until every terminal pins a single type profile; phase 2
    repeatedly applies the canonically first coalesce, falling back to the
    first merge, until the mechanism is static.  Each merge records the
    forward illumination and its incentive-preservation verdict evaluated on
    the post-merge mechanism.
    """
    _require_valid(mech, f)

    steps = []
    current = mech
    while True:
        t = next(iter_opportunities(current, "split"), None)
        if t is None:
            break
        current = apply_split(current, t)
        steps.append(ChainStep(t, current.fingerprint()))

    while not is_static(current):
        t = next(iter_opportunities(current, "coalesce"), None)
        if t is not None:
            current = apply_coalesce(current, t)
            steps.append(ChainStep(t, current.fingerprint()))
            continue
        probe = next(_applicable_merges(current), None)
        if probe is None:
            raise MechanismError(
                "reduce: non-static mechanism with no coalesce or merge opportunity")
        t, merged, forward = probe
        preserving = bool(is_incentive_preserving(merged, forward, f))
        current = merged
        steps.append(ChainStep(t, current.fingerprint(), preserving=preserving))

    # The result is not validated again: each step keeps a valid mechanism
    # valid, and the input was validated above.  A split adds one final move
    # per terminal, and those terminals share one chain and one menu.  A
    # coalesce puts the target's menu, which partitions ``action``, in place
    # of ``action`` at the source; each copy keeps its original's sets and
    # moves, and the members of every set have their chains fused alike.
    # A merge validates its own result.
    return ReductionChain(mech.fingerprint(), steps, current)
