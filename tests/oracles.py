"""Independent brute-force oracles used to cross-check the library.

Everything here is written the dumb way on purpose: full enumerations with
no shared code paths with the implementations under test.
"""

import hashlib
import itertools
import json
import math
from collections import deque
from operator import getitem

from gradualmech import (ScfTable, all_strategies, build_rda, make_step, play, transforms,
                         ttc_scf, unconditional_strategy)
from gradualmech.checkers import (Verdict, Witness, _coverage, _first_harmed,
                                  _first_profile, _Harm, _require_valid, _Settled)
from gradualmech.fileformat import ParseError, _fail, _need, parse_model, serialize_mechanism
from gradualmech.gameform import (Mechanism, MechanismError, build_mechanism,
                                  implements, is_static, siblings_same_action,
                                  validate)
from gradualmech.transforms import (ChainStep, Coalesce, Illuminate, Merge, ReductionChain,
                                    _own_set, _split_terminals, apply_coalesce,
                                    apply_illuminate, apply_merge, apply_split,
                                    apply_transformation, coalesce_ready,
                                    is_incentive_preserving, iter_opportunities,
                                    merge_ready, unsplit_ready)
from gradualmech.generators import _best


def partition_walk_oracle(mech):
    """True iff every type profile has exactly one truthful path: the
    terminal type sets sum to the profile count and a walk from the root
    finds, for each profile, one matching action per acting agent and the
    child with that action profile."""
    model = mech.model
    total = sum(math.prod(len(s) for s in mech.theta[z]) for z in mech.terminals)
    if total != model.n_profiles():
        return False
    for profile in model.profiles():
        v = 0
        while not mech.is_terminal(v):
            want = {}
            for a in mech.menus[v]:
                opts = [dict(mech.step[c])[a] for c in mech.children[v]
                        if a in dict(mech.step[c])]
                match = [o for o in set(opts) if profile[a] in o]
                if len(match) != 1:
                    return False
                want[a] = match[0]
            step = make_step(want)
            nxt = next((c for c in mech.children[v] if mech.step[c] == step), None)
            if nxt is None:
                return False
            v = nxt
    return True


def validate_oracle(mech):
    """``validate`` as one pass over every rule, with each node's acting
    agents and menus derived where a rule needs them, as it was before the
    rules split into tree rules, shared by every regrouping of a tree, and
    partition rules read off the per-node menu table."""
    model = mech.model
    report = []
    n = mech.n_nodes()

    for v in range(n):
        if mech.is_terminal(v):
            if v not in mech.outcome:
                report.append(f"terminal node {v} has no outcome")
        elif v in mech.outcome:
            report.append(f"non-terminal node {v} carries an outcome")

    # Simultaneous-move closure and action refinement.
    for v in range(n):
        if mech.is_terminal(v):
            continue
        agent_sets = {tuple(sorted(a for a, _ in mech.step[c])) for c in mech.children[v]}
        if len(agent_sets) != 1:
            report.append(f"node {v}: children disagree on the acting agents")
            continue
        acting = next(iter(agent_sets))
        if not acting:
            report.append(f"node {v}: children with empty action profiles")
            continue
        menus = {}
        for a in acting:
            menus[a] = []
        for c in mech.children[v]:
            for a, action in mech.step[c]:
                if action not in menus[a]:
                    menus[a].append(action)
        expected = 1
        for a in acting:
            expected *= len(menus[a])
        combos = {mech.step[c] for c in mech.children[v]}
        if len(mech.children[v]) != len(combos):
            report.append(f"node {v}: duplicate action profiles")
        if len(combos) != expected:
            report.append(f"node {v}: children are not the full product of available actions")
        for a in acting:
            pool = mech.theta[v][a]
            union = set()
            total = 0
            for action in menus[a]:
                union |= action
                total += len(action)
            if total != len(union):
                report.append(f"node {v}: agent {a} has overlapping actions")
            if union != pool:
                report.append(
                    f"node {v}: agent {a} actions do not partition her current set")

    root_acting = {a for c in mech.children[0] for a, _ in mech.step[c]}
    if root_acting != set(range(model.n_agents)):
        report.append("root: every agent must be active at the initial history")

    # Information sets: exact partition of each agent's decision nodes.
    for i in range(model.n_agents):
        decision_nodes = {v for v in range(n)
                          if not mech.is_terminal(v) and i in mech.menus[v]}
        covered = []
        for k in mech.agent_infosets(i):
            covered.extend(mech.infosets[k].nodes)
        if len(covered) != len(set(covered)):
            report.append(f"agent {i}: information sets overlap")
        if set(covered) != decision_nodes:
            report.append(f"agent {i}: information sets do not cover exactly her decision nodes")

    # Uniform menus and perfect recall within each information set.
    for k, iset in enumerate(mech.infosets):
        menus = set()
        for v in iset.nodes:
            acts = frozenset(dict(mech.step[c])[iset.agent]
                             for c in mech.children[v]
                             if iset.agent in dict(mech.step[c]))
            menus.add(acts)
        if len(menus) > 1:
            report.append(f"information set {k}: nodes offer different action menus")
        exps = {mech.experience[iset.agent][v] for v in iset.nodes}
        if len(exps) > 1:
            report.append(f"information set {k}: members violate perfect recall")

    # No separate check that the terminals partition the profile space: the
    # local rules above imply it.  At a node that passes them, every acting
    # agent's actions partition her current set and the children are the
    # full product of the menus without duplicates, so the children's type
    # boxes are disjoint and cover the node's box.  By induction from the
    # root, whose box is the whole profile space, the terminal boxes
    # partition that space and every profile has exactly one truthful path.
    # When a local rule fails, its own message diagnoses the input.
    return report


def tree_rules_oracle(mech):
    """``validate``'s tree rules as they were before the local rules were
    decided once per tuple of children's steps: every rule at every node."""
    report = []
    step, theta, menus, outcome = mech.step, mech.theta, mech.menus, mech.outcome
    for v, kids in enumerate(mech.children):
        if not kids:
            if v not in outcome:
                report.append(f"terminal node {v} has no outcome")
        elif v in outcome:
            report.append(f"non-terminal node {v} carries an outcome")

    # Simultaneous-move closure and action refinement, read off the menus.
    # Every child has at least one acting agent, since build_mechanism and
    # the parser refuse empty action profiles, so no node has an empty menu.
    for v, kids in enumerate(mech.children):
        if not kids:
            continue
        menu = menus[v]
        if any(len(step[c]) != len(menu) for c in kids):
            report.append(f"node {v}: children disagree on the acting agents")
            continue
        combos = {step[c] for c in kids}
        if len(kids) != len(combos):
            report.append(f"node {v}: duplicate action profiles")
        if len(combos) != math.prod(len(acts) for acts in menu.values()):
            report.append(f"node {v}: children are not the full product of available actions")
        for a, acts in menu.items():
            union = frozenset().union(*acts)
            if sum(map(len, acts)) != len(union):
                report.append(f"node {v}: agent {a} has overlapping actions")
            if union != theta[v][a]:
                report.append(
                    f"node {v}: agent {a} actions do not partition her current set")

    if list(mech.menus[0]) != list(range(mech.model.n_agents)):
        report.append("root: every agent must be active at the initial history")

    # No separate check that the terminals partition the profile space: the
    # tree rules above imply it.  At a node that passes them, every acting
    # agent's actions partition her current set and the children are the
    # full product of the menus without duplicates, so the children's type
    # boxes are disjoint and cover the node's box.  By induction from the
    # root, whose box is the whole profile space, the terminal boxes
    # partition that space and every profile has exactly one truthful path.
    # When a local rule fails, its own message diagnoses the input.
    return report


def partition_rules_oracle(mech):
    """``validate``'s partition rules as they were before each agent's
    decision nodes were read off the menus in one pass and each member
    compared with the first: one pass over the menus per agent, and a set
    of the members' menus and of their experience chains per information
    set."""
    report = []
    # Information sets: exact partition of each agent's decision nodes.
    for i in range(mech.model.n_agents):
        covered = [v for s in mech.infosets if s.agent == i for v in s.nodes]
        if len(covered) != len(set(covered)):
            report.append(f"agent {i}: information sets overlap")
        if set(covered) != {v for v, menu in enumerate(mech.menus) if i in menu}:
            report.append(f"agent {i}: information sets do not cover exactly her decision nodes")

    # Uniform menus and perfect recall within each information set.
    for k, iset in enumerate(mech.infosets):
        if len({mech.menus[v].get(iset.agent) for v in iset.nodes}) > 1:
            report.append(f"information set {k}: nodes offer different action menus")
        exps = {mech.experience[iset.agent][v] for v in iset.nodes}
        if len(exps) > 1:
            report.append(f"information set {k}: members violate perfect recall")

    return report


def rebuild_oracle(mech):
    """``mech`` built afresh from its raw nodes, information-set groups and
    outcomes, as illumination and merge built their results before they
    kept their input's tree.  Node ids and groups go in reversed, so the
    rebuild's numbering and order come from canonicalization alone."""
    last = mech.n_nodes() - 1
    nodes = [(None if mech.parent[v] is None else last - mech.parent[v], mech.step[v])
             for v in reversed(range(last + 1))]
    groups = [(s.agent, [last - v for v in s.nodes]) for s in reversed(mech.infosets)]
    outcomes = {last - v: x for v, x in mech.outcome.items()}
    return build_mechanism(mech.model, nodes, groups, outcomes)


def fingerprint_oracle(mech):
    """``Mechanism.fingerprint`` as it was before the tree's text was kept
    per tree: the canonical form with each node's step key derived from its
    step, then its repr with the model's names, and the hash of that."""
    form = (
        mech.parent,
        tuple(tuple((agent, tuple(sorted(action))) for agent, action in s) if s else None
              for s in mech.step),
        tuple(sorted(mech.outcome.items())),
        tuple((s.agent, s.nodes) for s in mech.infosets),
    )
    text = repr((form, mech.model.type_names, mech.model.outcome_names))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mechanism_tables_oracle(mech):
    """A mechanism's per-node tables computed without assuming that ids are
    breadth-first: ``theta`` along an explicit breadth-first walk, one
    experience pass per agent along the same walk, and each information
    set's menu from all of its members (the first member's when they
    differ).  Returns (theta, experience, menus), ``experience`` as one
    list per agent indexed by node id."""
    model = mech.model
    n = mech.n_nodes()
    order = []
    seen = [False] * n
    queue = deque([0])
    seen[0] = True
    while queue:
        v = queue.popleft()
        order.append(v)
        for c in mech.children[v]:
            if not seen[c]:
                seen[c] = True
                queue.append(c)

    theta = [None] * n
    theta[0] = tuple(model.full_type_set(i) for i in range(model.n_agents))
    for v in order[1:]:
        row = list(theta[mech.parent[v]])
        for agent, action in mech.step[v]:
            row[agent] = action
        theta[v] = tuple(row)

    experience = [[None] * n for _ in range(model.n_agents)]
    for i in range(model.n_agents):
        exp = experience[i]
        exp[0] = ()
        for v in order[1:]:
            p = mech.parent[v]
            step_map = dict(mech.step[v])
            if i in step_map and (i, p) in mech.node_iset:
                exp[v] = exp[p] + ((mech.node_iset[(i, p)], step_map[i]),)
            else:
                exp[v] = exp[p]

    menus = []
    for iset in mech.infosets:
        found = set()
        for v in iset.nodes:
            acts = frozenset(dict(mech.step[c]).get(iset.agent)
                             for c in mech.children[v]
                             if iset.agent in dict(mech.step[c]))
            found.add(frozenset(a for a in acts if a is not None))
        if len(found) == 1:
            menus.append(next(iter(found)))
        else:
            v = min(iset.nodes)
            menus.append(frozenset(a for a in (dict(mech.step[c]).get(iset.agent)
                                               for c in mech.children[v])
                                   if a is not None))
    return tuple(theta), experience, menus


def node_menus_oracle(mech):
    """Each node's {acting agent: her distinct actions}, found by scanning
    the children's steps, with the actions sorted by their sorted type
    tuples."""
    out = []
    for v in range(mech.n_nodes()):
        found = {}
        for c in mech.children[v]:
            for agent, action in mech.step[c]:
                found.setdefault(agent, set()).add(action)
        out.append({a: tuple(sorted(acts, key=lambda x: tuple(sorted(x))))
                    for a, acts in sorted(found.items())})
    return out


def conflict_agents_oracle(mech, u, v):
    """Agents whose recorded choices on the paths to u and v disagree on a
    shared information set, by scanning the two choice dicts."""
    out = []
    for i in range(mech.model.n_agents):
        a = dict(mech.experience[i][u])
        b = dict(mech.experience[i][v])
        if len(b) < len(a):
            a, b = b, a
        for k, act in a.items():
            other = b.get(k)
            if other is not None and other != act:
                out.append(i)
                break
    return frozenset(out)


def _pair_conflicts(mech):
    """``conflict_agents_oracle`` behind a cache keyed on the node pair."""
    cache = {}

    def conflict(u, v):
        key = (min(u, v), max(u, v))
        if key not in cache:
            cache[key] = conflict_agents_oracle(mech, *key)
        return cache[key]
    return conflict


def is_ic_oracle(mech, f):
    """``is_ic`` as a scan of every terminal pair in id order, with the
    conflict test done pair by pair."""
    model = mech.model
    conflict_agents = _pair_conflicts(mech)
    terms = mech.terminals
    n = model.n_agents
    for idx1, z1 in enumerate(terms):
        for z2 in terms[idx1 + 1:]:
            conflict = conflict_agents(z1, z2)
            if len(conflict) > 1:
                continue
            agents = range(n) if not conflict else conflict
            x1, x2 = mech.outcome[z1], mech.outcome[z2]
            if x1 == x2:
                continue
            for i in sorted(agents):
                for ti in sorted(mech.theta[z1][i]):
                    if not model.weakly_prefers(i, ti, x1, x2):
                        return Verdict(False, Witness(
                            "ic", i, None, z1, z2,
                            _first_profile(mech, z1, i, ti),
                            _first_profile(mech, z2),
                            x1, x2,
                            detail="truthful outcome not weakly preferred"))
                for ti in sorted(mech.theta[z2][i]):
                    if not model.weakly_prefers(i, ti, x2, x1):
                        return Verdict(False, Witness(
                            "ic", i, None, z2, z1,
                            _first_profile(mech, z2, i, ti),
                            _first_profile(mech, z1),
                            x2, x1,
                            detail="truthful outcome not weakly preferred"))
    return Verdict(True)


def _third_party_divergence(mech, h1, h2, i, j):
    """True iff some agent other than i and j has information-set sequences
    that differ along the paths to h1 and h2."""
    for k in range(mech.model.n_agents):
        if k in (i, j):
            continue
        seq1 = tuple(e[0] for e in mech.experience[k][h1])
        seq2 = tuple(e[0] for e in mech.experience[k][h2])
        if seq1 != seq2:
            return True
    return False


def _member_on_path(mech, iset, z):
    """The member of an information set lying on the path to z, or None."""
    members = set(iset.nodes)
    for v in mech.path_nodes(z):
        if v in members:
            return v
    return None


def is_rp_oracle(mech, f, relaxed=False):
    """``is_rp`` as a scan of every terminal pair of each sibling pair, with
    the conflict test done pair by pair and the members found by walking
    each terminal's path."""
    model = mech.model
    conflict_agents = _pair_conflicts(mech)
    for i, k1, k2 in siblings_same_action(mech):
        s1, s2 = mech.infosets[k1], mech.infosets[k2]
        t1 = [z for v in s1.nodes for z in mech.terminals_under(v)]
        t2 = [z for v in s2.nodes for z in mech.terminals_under(v)]
        for z1 in t1:
            for z2 in t2:
                conflict = conflict_agents(z1, z2) - {i}
                if len(conflict) > 1:
                    continue
                if relaxed:
                    h1 = _member_on_path(mech, s1, z1)
                    h2 = _member_on_path(mech, s2, z2)
                x1, x2 = mech.outcome[z1], mech.outcome[z2]
                if x1 == x2:
                    continue
                js = conflict if conflict else set(range(model.n_agents)) - {i}
                for j in sorted(js):
                    if relaxed and _third_party_divergence(mech, h1, h2, i, j):
                        continue
                    for tj in sorted(mech.theta[z1][j]):
                        if not model.weakly_prefers(j, tj, x1, x2):
                            return Verdict(False, Witness(
                                "rp", j, i, z1, z2,
                                _first_profile(mech, z1, j, tj),
                                _first_profile(mech, z2),
                                x1, x2, infosets=(k1, k2),
                                detail="reaction across sibling information sets"))
                    for tj in sorted(mech.theta[z2][j]):
                        if not model.weakly_prefers(j, tj, x2, x1):
                            return Verdict(False, Witness(
                                "rp", j, i, z2, z1,
                                _first_profile(mech, z2, j, tj),
                                _first_profile(mech, z1),
                                x2, x1, infosets=(k2, k1),
                                detail="reaction across sibling information sets"))
    return Verdict(True)


def _indifferent_oracle(model, j, outcomes):
    """True iff every type of agent j weakly prefers each of ``outcomes`` to
    each other one."""
    return all(model.weakly_prefers(j, tj, x, y)
               for tj in model.all_types(j) for x in outcomes for y in outcomes)


def is_irp_oracle(mech, f):
    """``is_irp`` with the conflict test done pair by pair."""
    model = mech.model
    conflict_agents = _pair_conflicts(mech)
    for i, k1, k2 in siblings_same_action(mech):
        s1, s2 = mech.infosets[k1], mech.infosets[k2]
        for h1 in s1.nodes:
            for h2 in s2.nodes:
                conflict = conflict_agents(h1, h2) - {i}
                if len(conflict) > 1:
                    continue
                js = conflict if conflict else set(range(model.n_agents)) - {i}
                out1 = {mech.outcome[z] for z in mech.terminals_under(h1)}
                out2 = {mech.outcome[z] for z in mech.terminals_under(h2)}
                for j in sorted(js):
                    if _indifferent_oracle(model, j, out1):
                        continue
                    if _indifferent_oracle(model, j, out2):
                        continue
                    return Verdict(False, Witness(
                        "irp", j, i, h1, h2, None, None, None, None,
                        infosets=(k1, k2),
                        detail="neither history settles the reacting-on agent"))
    return Verdict(True)


def is_rp_pair_masks_oracle(mech, f, relaxed=False):
    """``is_rp`` as a mask scan per sibling pair, as it was before the scan
    built each first set's rows once: every pair redoes the conflict masks,
    the coverage and the checked masks of each first terminal."""
    _require_valid(mech, f)
    n = mech.model.n_agents
    harm = _Harm(mech)
    below = mech.subtree_masks()
    for i, k1, k2 in siblings_same_action(mech):
        s1, s2 = mech.infosets[k1], mech.infosets[k2]
        ks = (k1, k2)
        under2 = {h: below[h] & harm.every for h in s2.nodes}
        in_t2 = 0
        for mask in under2.values():
            in_t2 |= mask
        others = [j for j in range(n) if j != i]
        allowed = [in_t2] * len(others)
        if relaxed:
            seqs = {h: [tuple(e[0] for e in mech.experience[k][h]) for k in others]
                    for h in s1.nodes + s2.nodes}
        for h1 in s1.nodes:
            if relaxed:
                divergent = {h2: {k for k, a, b in zip(others, seqs[h1], seqs[h2]) if a != b}
                             for h2 in s2.nodes}
                allowed = [0] * len(others)
                for h2, div in divergent.items():
                    for idx, j in enumerate(others):
                        if not div - {j}:
                            allowed[idx] |= under2[h2]
            for z1 in mech.terminals_under(h1):
                masks = mech.conflict_masks(z1)
                outside = [masks[j] for j in others]
                once, twice = _coverage(outside)
                qualify = in_t2 & ~harm.by_outcome[mech.outcome[z1]] & ~twice
                free = qualify & ~once
                harmful = 0
                for j, mask, ok in zip(others, outside, allowed):
                    checked = (mask & qualify | free) & ok
                    if checked:
                        harmful |= checked & harm.partners(j, z1)
                if not harmful:
                    continue
                h2 = next(h for h in s2.nodes if under2[h] & harmful)
                z2 = next(z for z in mech.terminals_under(h2) if harmful >> z & 1)
                js = [j for j in others if masks[j] >> z2 & 1] or others
                if relaxed:
                    js = [j for j in js if not divergent[h2] - {j}]
                return Verdict(False, _first_harmed(
                    mech, "rp", js, i, z1, z2, ks,
                    "reaction across sibling information sets"))
    return Verdict(True)


def is_irp_pair_masks_oracle(mech, f):
    """``is_irp`` as a mask scan per sibling pair, as it was before the scan
    built each first history's rows once: every pair redoes the coverage of
    each first history's conflict masks."""
    _require_valid(mech, f)
    n = mech.model.n_agents
    settled = _Settled(mech)
    unsettled = {}  # (j, k) -> the members of set k at which j is unsettled
    for i, k1, k2 in siblings_same_action(mech):
        others = [j for j in range(n) if j != i]
        for h1 in mech.infosets[k1].nodes:
            checked = [j for j in others if not settled(j, h1)]
            if not checked:
                continue
            masks = mech.conflict_masks(h1)
            once, twice = _coverage(masks[j] for j in others)
            bad = 0
            for j in checked:
                u = unsettled.get((j, k2))
                if u is None:
                    u = unsettled[j, k2] = sum(1 << h for h in mech.infosets[k2].nodes
                                               if not settled(j, h))
                bad |= (masks[j] | ~once) & u
            bad &= ~twice
            if bad:
                h2 = (bad & -bad).bit_length() - 1
                js = [j for j in others if masks[j] >> h2 & 1] or others
                j = next(j for j in js if j in checked and not settled(j, h2))
                return Verdict(False, Witness(
                    "irp", j, i, h1, h2, None, None, None, None,
                    infosets=(k1, k2),
                    detail="neither history settles the reacting-on agent"))
    return Verdict(True)


def is_incentive_preserving_oracle(mech, t, f):
    """``is_incentive_preserving`` with the conflict test done pair by
    pair."""
    model = mech.model
    if t.infoset >= len(mech.infosets) or mech.infosets[t.infoset].agent != t.agent:
        raise MechanismError("illumination check: no such information set")
    iset = mech.infosets[t.infoset]
    p1, p2 = set(t.part1), set(t.part2)
    if not p1 or not p2 or (p1 & p2) or (p1 | p2) != set(iset.nodes):
        raise MechanismError("illumination parts must partition the information set")
    i = t.agent
    n = model.n_agents
    others = [j for j in range(n) if j != i]
    theta_i = sorted(mech.theta_infoset(t.infoset))

    def acquired(nodes):
        seen = set()
        for v in sorted(nodes):
            seen.update(itertools.product(*(sorted(mech.theta[v][j]) for j in others)))
        return sorted(seen)

    minus1 = acquired(p1)
    minus2 = acquired(p2)

    def full(ti, rest):
        prof = list(rest)
        prof.insert(i, ti)
        return tuple(prof)

    for side_a, side_b in ((minus1, minus2), (minus2, minus1)):
        for ti1 in theta_i:
            for ti2 in theta_i:
                for rest1 in side_a:
                    prof1 = full(ti1, rest1)
                    z1 = mech.truthful_terminal(prof1)
                    x1 = f[prof1]
                    for rest2 in side_b:
                        prof2 = full(ti2, rest2)
                        z2 = mech.truthful_terminal(prof2)
                        outside = conflict_agents_oracle(mech, z1, z2) - {i}
                        if len(outside) > 1:
                            continue
                        x2 = f[prof2]
                        if x1 == x2:
                            continue
                        js = sorted(outside) if outside else others
                        for j in js:
                            if not model.weakly_prefers(j, prof1[j], x1, x2):
                                return Verdict(False, Witness(
                                    "ill", j, i, z1, z2, prof1, prof2, x1, x2,
                                    infosets=(t.infoset,),
                                    detail="illumination lets the informed agent harm this comparison"))
    return Verdict(True)


def reduce_chain_oracle(mech, f):
    """``reduce_to_direct`` with each coalesce and merge found by the scans
    that ``iter_opportunities`` replaced (``coalesce_ready_oracle`` on every
    candidate, ``merge_opportunities_oracle``) and each merge then applied a
    second time.  Returns the chain and, per merge step, the merged
    mechanism with its forward illumination."""
    problems = validate(mech)
    if problems:
        raise MechanismError("reduce: invalid input mechanism: " + problems[0])
    if not implements(mech, f):
        raise MechanismError("reduce: mechanism does not implement the given SCF")

    steps = []
    illuminations = []
    current = mech
    while True:
        t = next(iter_opportunities(current, "split"), None)
        if t is None:
            break
        current = apply_split(current, t)
        steps.append(ChainStep(t, current.fingerprint()))

    while not is_static(current):
        t = next((cand for cand in coalesce_candidates(current)
                  if coalesce_ready_oracle(current, cand) is None), None)
        if t is not None:
            current = apply_coalesce(current, t)
            steps.append(ChainStep(t, current.fingerprint()))
            continue
        t = next(iter(merge_opportunities_oracle(current)), None)
        if t is None:
            raise MechanismError(
                "reduce: non-static mechanism with no coalesce or merge opportunity")
        merged, forward = apply_merge(current, t)
        preserving = bool(is_incentive_preserving(merged, forward, f))
        illuminations.append((merged, forward))
        current = merged
        steps.append(ChainStep(t, current.fingerprint(), preserving=preserving))

    final_problems = validate(current)
    if final_problems:
        raise MechanismError("reduce: final mechanism invalid: " + final_problems[0])
    return ReductionChain(mech.fingerprint(), steps, current), illuminations


def theta_minus_oracle(mech, k):
    """Information acquired at information set ``k``: the union over its
    member nodes of the product of the other agents' current sets, as
    tuples in ascending agent order."""
    iset = mech.infosets[k]
    others = [j for j in range(mech.model.n_agents) if j != iset.agent]
    out = set()
    for v in iset.nodes:
        out.update(itertools.product(*(mech.theta[v][j] for j in others)))
    return out


def coalesce_candidates(mech):
    """``Coalesce(agent, predecessor set, action taken there, set)`` for each
    information set that has a predecessor, in set order."""
    for k, iset in enumerate(mech.infosets):
        pred, action = mech.infoset_predecessor(k)
        if pred is not None:
            yield Coalesce(iset.agent, pred, action, k)


def coalesce_ready_oracle(mech, t):
    """``coalesce_ready`` as it was before it compared volumes: the last
    test builds both sets' ``theta_minus`` and compares them."""
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
    if theta_minus_oracle(mech, t.infoset) != theta_minus_oracle(mech, t.target):
        return "coalesce: the agent acquires information between the two decisions"
    return None


def merge_opportunities_oracle(mech):
    """``iter_opportunities(mech, "merge")`` as it was before it grouped the
    sets by menu and chain: every pair of one agent's sets, in canonical
    order, probed with ``merge_ready``."""
    out = []
    for i in range(mech.model.n_agents):
        ks = mech.agent_infosets(i)
        for x, first in enumerate(ks):
            for second in ks[x + 1:]:
                if merge_ready(mech, Merge(i, first, second)) is None:
                    out.append(Merge(i, first, second))
    return out


def apply_merge_oracle(mech, t):
    """``apply_merge`` as it was before it decided a merge from the chains:
    it regroups every probe, runs ``validate`` on the regrouping and
    illuminates it again to compare with ``mech``."""
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
    problems = validate(merged)
    if problems:
        raise MechanismError("merge: result is not a valid mechanism: " + problems[0])

    forward = Illuminate(i, merged.node_iset[(i, a.nodes[0])], a.nodes, b.nodes)
    again = apply_illuminate(merged, forward)
    if [(s.agent, s.nodes) for s in again.infosets] != [(s.agent, s.nodes) for s in mech.infosets]:
        raise MechanismError("merge: illuminating the result does not reproduce the original")
    return merged, forward


def apply_coalesce_oracle(mech, t):
    """``apply_coalesce`` as three mutually recursive walks: a plain copy, a
    rewrite of the region between the source action and the target nodes
    with the agent's pending choice fixed, and a general copy that expands
    each source action, as it was before the walks became one."""
    problem = coalesce_ready(mech, t)
    if problem:
        raise MechanismError(problem)
    i = t.agent
    source_nodes = set(mech.infosets[t.infoset].nodes)
    target_nodes = set(mech.infosets[t.target].nodes)
    new_actions = mech.infosets[t.target].actions

    nodes = []
    outcomes = {}
    tmap = []  # new id -> old id whose information sets it inherits

    def add(parent_new, step, old):
        nodes.append((parent_new, step))
        tmap.append(old)
        return len(nodes) - 1

    def plain_copy(old, parent_new, step):
        new = add(parent_new, step, old)
        if old in mech.outcome:
            outcomes[new] = mech.outcome[old]
        for c in mech.children[old]:
            plain_copy(c, new, mech.step[c])

    def rewrite(old, parent_new, step, branch):
        if old in target_nodes:
            kept = [c for c in mech.children[old]
                    if dict(mech.step[c]).get(i) == branch]
            if not kept:
                raise MechanismError("coalesce: target node missing the branch action")
            if all(len(mech.step[c]) == 1 for c in kept):
                if len(kept) != 1:
                    raise MechanismError("coalesce: ambiguous splice at target node")
                plain_copy(kept[0], parent_new, step)
                return
            new = add(parent_new, step, old)
            for c in kept:
                rest = tuple(p for p in mech.step[c] if p[0] != i)
                plain_copy(c, new, rest)
            return
        if old in mech.outcome:
            raise MechanismError(
                "coalesce: a terminal precedes the target below the source action")
        new = add(parent_new, step, old)
        for c in mech.children[old]:
            rewrite(c, new, mech.step[c], branch)

    def copy_general(old, parent_new, step):
        new = add(parent_new, step, old)
        if old in mech.outcome:
            outcomes[new] = mech.outcome[old]
        in_source = old in source_nodes
        for c in mech.children[old]:
            cstep = dict(mech.step[c])
            if in_source and cstep.get(i) == t.action:
                for branch in new_actions:
                    cstep2 = dict(cstep)
                    cstep2[i] = branch
                    rewrite(c, new, make_step(cstep2), branch)
            else:
                copy_general(c, new, mech.step[c])

    copy_general(0, None, None)

    child_agents = [set() for _ in nodes]
    for c, (p, step) in enumerate(nodes):
        if p is not None and step:
            for a, _ in step:
                child_agents[p].add(a)
    group_map = {}
    for new, old in enumerate(tmap):
        for a in child_agents[new]:
            k = mech.node_iset.get((a, old))
            if k is None or k == t.target:
                raise MechanismError("coalesce: inconsistent information sets in input")
            group_map.setdefault(k, []).append(new)
    groups = [(mech.infosets[k].agent, members)
              for k, members in sorted(group_map.items())]
    return build_mechanism(mech.model, nodes, groups, outcomes)


def _raw_nodes(mech):
    return [(mech.parent[v], mech.step[v]) for v in range(mech.n_nodes())]


def _raw_groups(mech):
    return [(s.agent, list(s.nodes)) for s in mech.infosets]


def apply_split_oracle(mech, t):
    """``apply_split`` as it was before the rewrites copied through
    ``canonical_tree``: the new final choices appended to a raw
    ``(parent, step)`` list, which ``build_mechanism`` numbers."""
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


def apply_coalesce_walk_oracle(mech, t):
    """``apply_coalesce`` as one recursive walk that appends to a raw
    ``(parent, step)`` list, which ``build_mechanism`` numbers, as it was
    before the rewrites copied through ``canonical_tree``.  ``mech`` must be
    valid."""
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
            if mech.menus[old].keys() == {i}:
                # The agent moved alone there: splice her step out entirely.
                copy(kept[0], parent_new, step, None)
                return
            new = add(parent_new, step, old, [a for a in mech.menus[old] if a != i])
            for c in kept:
                copy(c, new, tuple(p for p in mech.step[c] if p[0] != i), None)
            return
        new = add(parent_new, step, old, mech.menus[old])
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


def apply_unsplit_oracle(mech, t):
    """``apply_unsplit`` as it was before the rewrites copied through
    ``canonical_tree``: the kept nodes remapped into a raw ``(parent, step)``
    list, which ``build_mechanism`` numbers."""
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


def apply_uncoalesce_oracle(mech, t):
    """``apply_uncoalesce`` as it was before the rewrites copied through
    ``canonical_tree``: the middle nodes appended to a raw ``(parent, step)``
    list, which ``build_mechanism`` numbers."""
    iset = _own_set(mech, t.agent, t.infoset)
    if iset is None:
        raise MechanismError("uncoalesce: no such information set for that agent")
    chosen = tuple(t.actions)
    chosen_set = set(chosen)
    if (len(chosen) < 2 or len(chosen_set) < len(chosen)
            or any(a not in iset.actions for a in chosen)):
        raise MechanismError("uncoalesce: need two or more actions from the menu")
    i = t.agent
    union = frozenset().union(*chosen)

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


def replay_ic_witness(mech, w):
    """Replay an IC or RP witness with explicit strategies and ``play``,
    which reads no conflict masks.  Every other agent plays the union of her
    choices on the paths to ``w.z1`` and ``w.z2``, and the first action at
    her other sets.  The harmed agent plays her truthful strategy for her
    type at ``w.z1``, and then the same strategy with her choices on the
    path to ``w.z2``.  Returns the two terminals reached."""
    i = w.agent
    strategies = {}
    for a in range(mech.model.n_agents):
        if a == i:
            continue
        chosen = {k: mech.infosets[k].actions[0] for k in mech.agent_infosets(a)}
        on_paths = set(mech.experience[a][w.z1]) | set(mech.experience[a][w.z2])
        if len({k for k, _ in on_paths}) != len(on_paths):
            raise MechanismError(f"agent {a} chooses differently on the two paths")
        chosen.update(on_paths)
        strategies[a] = chosen
    truthful = unconditional_strategy(mech, i, w.profile1[i])
    deviation = {**truthful, **dict(mech.experience[i][w.z2])}
    return (play(mech, {**strategies, i: truthful}),
            play(mech, {**strategies, i: deviation}))


def implemented_scf_oracle(mech):
    """{profile: outcome} read by walking every terminal's type box, as
    ``implemented_scf`` did before the SCF became a tuple by profile rank."""
    return {profile: mech.outcome[z]
            for z in mech.terminals for profile in mech.theta_profiles(z)}


def is_strategy_proof_oracle(model, f):
    """The ordered scan ``is_strategy_proof`` replaces: (agent, type,
    misreport, others) in enumeration order, one preference call per pair,
    on a dict read off the table's layout rather than through ``rank``."""
    table = dict(zip(model.profiles(), f.outcomes))
    n = model.n_agents
    for i in range(n):
        others_spaces = [model.all_types(j) for j in range(n) if j != i]
        for ti in model.all_types(i):
            for ti_mis in model.all_types(i):
                if ti_mis == ti:
                    continue
                for rest in itertools.product(*others_spaces):
                    profile = rest[:i] + (ti,) + rest[i:]
                    deviated = rest[:i] + (ti_mis,) + rest[i:]
                    if not model.weakly_prefers(i, ti, table[profile], table[deviated]):
                        return False, (i, ti, ti_mis, rest)
    return True, None


def sp_oracle(model, f):
    """Quadruple enumeration of the one-shot dominance condition."""
    n = model.n_agents
    return all(
        model.weakly_prefers(i, profile[i], f[profile],
                             f[profile[:i] + (mis,) + profile[i + 1:]])
        for i in range(n)
        for profile in model.profiles()
        for mis in model.all_types(i)
    )


def strategy_profiles(mech, agents):
    """All partial strategy profiles over the listed agents."""
    spaces = [list(all_strategies(mech, a)) for a in agents]
    for combo in itertools.product(*spaces):
        yield dict(zip(agents, combo))


def terminal_consistent(mech, z, partial):
    """Does some completion of the partial profile reach z?"""
    for agent, strat in partial.items():
        for k, action in mech.experience[agent][z]:
            if strat[k] != action:
                return False
    return True


def consistency_oracle(mech, z1, z2, excluded):
    """Enumerate every outside strategy profile and look for one consistent
    with both terminals."""
    agents = [a for a in range(mech.model.n_agents) if a not in excluded]
    for partial in strategy_profiles(mech, agents):
        if terminal_consistent(mech, z1, partial) and terminal_consistent(mech, z2, partial):
            return True
    return False


def consistent_pair_table(mech, excluded):
    """All unordered terminal pairs sharing an outside profile, by scanning
    profiles once."""
    agents = [a for a in range(mech.model.n_agents) if a not in excluded]
    pairs = set()
    for partial in strategy_profiles(mech, agents):
        hits = [z for z in mech.terminals if terminal_consistent(mech, z, partial)]
        for a_idx in range(len(hits)):
            for b_idx in range(a_idx, len(hits)):
                pairs.add((hits[a_idx], hits[b_idx]))
    return pairs


def brute_force_ic(mech, f, model=None):
    """Dominance of truth-telling quantified over entire strategy spaces."""
    model = model or mech.model
    n = model.n_agents
    outcome_of = {}
    spaces = [list(all_strategies(mech, a)) for a in range(n)]
    for combo in itertools.product(*spaces):
        profile = dict(enumerate(combo))
        z = play(mech, profile)
        outcome_of[tuple(tuple(sorted(s.items())) for s in combo)] = mech.outcome[z]

    def key(combo):
        return tuple(tuple(sorted(s.items())) for s in combo)

    from gradualmech import unconditional_strategy
    for i in range(n):
        rest_spaces = spaces[:i] + spaces[i + 1:]
        for ti in model.all_types(i):
            s_true = unconditional_strategy(mech, i, ti)
            for rest in itertools.product(*rest_spaces):
                combo_true = rest[:i] + (s_true,) + rest[i:]
                x_true = outcome_of[key(combo_true)]
                for s_dev in spaces[i]:
                    combo_dev = rest[:i] + (s_dev,) + rest[i:]
                    if not model.weakly_prefers(i, ti, x_true, outcome_of[key(combo_dev)]):
                        return False
    return True


def unconditional_deviation_ic(mech, f, model=None):
    """Dominance checked only across unconditional strategies: for every
    agent, every ordered pair of her types, and every outside profile, the
    first type's truthful play weakly beats the second's."""
    model = model or mech.model
    from gradualmech import unconditional_strategy
    n = model.n_agents
    for i in range(n):
        others = [a for a in range(n) if a != i]
        own = {t: unconditional_strategy(mech, i, t) for t in model.all_types(i)}
        for rest in strategy_profiles(mech, others):
            for t1 in model.all_types(i):
                z1 = play(mech, {**rest, i: own[t1]})
                for t2 in model.all_types(i):
                    z2 = play(mech, {**rest, i: own[t2]})
                    if not model.weakly_prefers(i, t1, mech.outcome[z1],
                                                mech.outcome[z2]):
                        return False
    return True


def serialize_oracle(mech, f=None):
    """The format document as one nested object per value, SCF rows
    included, written by the ``json`` module's indenting encoder."""
    model = mech.model
    names = model.agent_names

    def node_doc(v):
        doc = {"id": v}
        if mech.is_terminal(v):
            doc["outcome"] = model.outcome_names[mech.outcome[v]]
            return doc
        doc["children"] = []
        for c in mech.children[v]:
            step = {names[a]: [model.type_names[a][t] for t in sorted(act)]
                    for a, act in mech.step[c]}
            doc["children"].append({"step": step, "node": node_doc(c)})
        return doc

    doc = {
        "format": "gm/1",
        "agents": list(names),
        "types": [list(t) for t in model.type_names],
        "outcomes": list(model.outcome_names),
        "preferences": [
            [[[model.outcome_names[x] for x in sorted(level)] for level in order.levels]
             for order in model.prefs[i]]
            for i in range(model.n_agents)
        ],
        "tree": node_doc(0),
        "infosets": [{"agent": names[s.agent], "nodes": list(s.nodes)}
                     for s in mech.infosets],
    }
    if f is not None:
        doc["scf"] = [
            [[model.type_names[i][profile[i]] for i in range(model.n_agents)],
             model.outcome_names[x]]
            for profile, x in sorted(f.items())
        ]
    return json.dumps(doc, indent=1)


def build_mechanism_oracle(model, nodes, infoset_groups, outcomes):
    """``build_mechanism`` and ``Mechanism.__init__`` as they were before
    ``canonical_tree``: children lists from the parent ids, a breadth-first
    sort by step key and a remap of every table, then the tree tables
    derived from the remapped parents and steps in a second pass, children
    as tuples."""
    n = len(nodes)
    if n == 0:
        raise MechanismError("empty mechanism")
    roots = [k for k, (p, _) in enumerate(nodes) if p is None]
    if len(roots) != 1:
        raise MechanismError(f"exactly one root required, found {len(roots)}")
    full = [model.full_type_set(a) for a in range(model.n_agents)]
    normal = {}  # raw step -> (normalized step, its step key)
    node_step = [None] * n
    node_key = [None] * n
    children = [[] for _ in range(n)]
    for k, (p, step) in enumerate(nodes):
        if p is None:
            continue
        if not (0 <= p < n):
            raise MechanismError(f"node {k}: dangling predecessor {p}")
        if not step:
            raise MechanismError(f"node {k}: missing action profile")
        e = normal.get(step)
        if e is None:
            for agent, action in step:
                if not (0 <= agent < model.n_agents):
                    raise MechanismError(f"node {k}: unknown agent {agent}")
                if not action or not full[agent].issuperset(action):
                    raise MechanismError(f"node {k}: bad action for agent {agent}")
            s = make_step(dict(step))
            e = normal[step] = (s, tuple((a, tuple(sorted(act))) for a, act in s))
        node_step[k], node_key[k] = e
        children[p].append(k)
    order = []
    queue = deque(roots)
    while queue:
        v = queue.popleft()
        order.append(v)
        queue.extend(sorted(children[v], key=node_key.__getitem__))
    if len(order) != n:
        raise MechanismError("disconnected nodes present")
    new = {old: k for k, old in enumerate(order)}
    parent = tuple([None] + [new[nodes[old][0]] for old in order[1:]])
    step = tuple(node_step[old] for old in order)
    outcome = {}
    for old, x in outcomes.items():
        if not (0 <= old < n):
            raise MechanismError(f"outcome attached to unknown node {old}")
        if not (0 <= x < model.n_outcomes()):
            raise MechanismError(f"unknown outcome id {x}")
        outcome[new[old]] = x
    groups = []
    for agent, members in infoset_groups:
        if not (0 <= agent < model.n_agents):
            raise MechanismError(f"information set for unknown agent {agent}")
        ms = []
        for v in members:
            if not (0 <= v < n):
                raise MechanismError(f"information set references unknown node {v}")
            ms.append(new[v])
        if ms:
            groups.append((agent, ms))

    kids = [[] for _ in range(n)]
    for v in range(1, n):
        kids[parent[v]].append(v)
    theta = [tuple(full)]
    for v in range(1, n):
        row = list(theta[parent[v]])
        for agent, action in step[v]:
            row[agent] = action
        theta.append(tuple(row))
    menus, shared = [], {None: {}}
    for c in kids:
        pairs = frozenset([p for k in c for p in step[k]]) if c else None
        menu = shared.get(pairs)
        if menu is None:
            menu = {}
            for agent, action in pairs:
                menu.setdefault(agent, []).append(action)
            menu = shared[pairs] = {a: tuple(sorted(acts, key=sorted))
                                    for a, acts in sorted(menu.items())}
        menus.append(menu)
    tree = (parent, step, tuple(map(tuple, kids)),
            tuple(v for v in range(n) if not kids[v]), tuple(theta), tuple(menus),
            _step_tables((node_step[old], node_key[old]) for old in order))
    return Mechanism(model, tree, outcome, groups)


def _step_tables(node_steps):
    """``canonical_tree``'s step tables from each node's (step, step key) in
    id order: per node its step's number, numbered in order of first
    appearance from 1, the root's 0, and the step table a copy inherits:
    per number its key, per step its (key, first equal step, number), and
    no key text written yet."""
    numbers, keys, ids = {}, [None], []
    for s, key in node_steps:
        if s is None:
            ids.append(0)
            continue
        e = numbers.get(s)
        if e is None:
            e = numbers[s] = (key, s, len(keys))
            keys.append(key)
        ids.append(e[2])
    return {"ids": tuple(ids), "numbers": numbers, "keys": tuple(keys), "texts": ()}


def plain_copy_oracle(mech, t):
    """``apply_transformation(mech, t)`` for a split, coalesce, unsplit or
    uncoalesce, with the copy built as before a copy started from its
    origin: the rewrite's own ``edges`` through ``canonical_tree`` with no
    origin.  Where ``edges`` names an origin node whose children the copy
    keeps, the children are written out as (step, handle) edges from the
    origin's tables, so the pass keys, sorts and fills every node afresh,
    in a step table of its own."""
    real = transforms.canonical_tree

    def plain(model, root, edges, origin):
        def written_out(handle, v):
            out = edges(handle, v)
            if type(out) is tuple:
                o, handles = out
                return list(zip(map(origin.step.__getitem__, origin.children[o]), handles))
            return out

        return real(model, root, written_out)

    transforms.canonical_tree = plain
    try:
        return apply_transformation(mech, t)
    finally:
        transforms.canonical_tree = real


def parse_scf_oracle(doc, model):
    """``parse_scf`` as it was before rows in writer order were read in one
    pass: every table is read one row at a time, each row's profile summed
    to its rank through per-agent maps of type name to rank share."""
    rows = doc.get("scf")
    if rows is None:
        return None
    out_index = model.outcome_index
    # Per agent, each type name's share of a profile's rank.
    offset = [{name: t * stride for name, t in names.items()}
              for names, stride in zip(model.type_index, model.strides)]
    slots = [None] * model.n_profiles()
    for row in _need(rows, list, "'scf'"):
        if not isinstance(row, list) or len(row) != 2:
            _fail(f"scf row {row!r}: want [profile, outcome]")
        profile_names, out_name = row
        # ``map`` stops at the shorter input, so the length test stays.
        if not isinstance(profile_names, list) or len(profile_names) != model.n_agents:
            _fail(f"scf profile {profile_names!r}: one type per agent required")
        try:
            r = sum(map(getitem, offset, profile_names))
            x = out_index[out_name]
        except KeyError as e:
            _fail(f"scf row {row!r}: unknown name {e}")
        except TypeError:
            _fail(f"scf row {row!r}: names must be strings")
        if slots[r] is not None:
            _fail(f"scf row {row!r}: profile listed twice")
        slots[r] = x
    if None in slots:
        missing = next(itertools.islice(model.profiles(), slots.index(None), None))
        _fail(f"SCF not total: missing profile {missing}")
    return ScfTable(model, slots)


def parse_mechanism_oracle(text):
    """``parse_mechanism`` as it was before the tree was read breadth-first:
    a recursive walk records each document node's parent and step, the
    document ids are sorted and remapped to a raw node list, and
    ``build_mechanism_oracle`` sorts and remaps it again, and the SCF is
    read row by row by ``parse_scf_oracle``.  It refuses an empty action as
    the parser now does, so on a document with one fault the two give the
    same diagnostic."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    _need(doc, dict, "the document")
    if doc.get("format") != "gm/1":
        raise ParseError(f"unsupported format {doc.get('format')!r}, want 'gm/1'")
    model = parse_model(doc)
    agent_index = {name: i for i, name in enumerate(model.agent_names)}
    type_index = [{name: k for k, name in enumerate(names)} for names in model.type_names]
    out_index = {name: k for k, name in enumerate(model.outcome_names)}
    f = parse_scf_oracle(doc, model)

    nodes = {}
    outcomes = {}

    def walk(node_doc, parent, step):
        _need(node_doc, dict, "a tree node")
        if "id" not in node_doc:
            raise ParseError("tree node without 'id'")
        nid = _need(node_doc["id"], int, "a node id")
        if nid in nodes:
            raise ParseError(f"duplicate node id {nid}")
        nodes[nid] = (parent, step)
        if "outcome" in node_doc:
            name = node_doc["outcome"]
            if not isinstance(name, str) or name not in out_index:
                raise ParseError(f"node {nid}: unknown outcome {name!r}")
            outcomes[nid] = out_index[name]
        for edge in _need(node_doc.get("children", []), list, "'children'"):
            _need(edge, dict, "a child")
            step_doc = edge.get("step")
            if not step_doc:
                raise ParseError(f"node {nid}: child without 'step'")
            parts = {}
            for agent_name, type_names in _need(step_doc, dict, "a 'step'").items():
                if agent_name not in agent_index:
                    raise ParseError(f"node {nid}: unknown agent {agent_name!r}")
                a = agent_index[agent_name]
                if not _need(type_names, list, "an action"):
                    raise ParseError(f"node {nid}: empty action for agent {agent_name}")
                try:
                    parts[a] = frozenset(map(type_index[a].__getitem__, type_names))
                except KeyError as e:
                    raise ParseError(
                        f"node {nid}: unknown type {e} for agent {agent_name}") from None
                except TypeError:
                    raise ParseError(f"node {nid}: type names must be strings") from None
            child = edge.get("node")
            if not child:
                raise ParseError(f"node {nid}: child without 'node'")
            walk(child, nid, tuple(sorted(parts.items())))

    tree = doc.get("tree")
    if not tree:
        raise ParseError("missing 'tree'")
    try:
        walk(tree, None, None)
    finally:
        del walk

    ids = sorted(nodes)
    remap = {nid: k for k, nid in enumerate(ids)}
    raw = [None] * len(ids)
    for nid, (parent, step) in nodes.items():
        raw[remap[nid]] = (remap[parent] if parent is not None else None, step)

    groups = []
    for entry in _need(doc.get("infosets", []), list, "'infosets'"):
        agent_name = _need(entry, dict, "an information set").get("agent")
        if not isinstance(agent_name, str) or agent_name not in agent_index:
            raise ParseError(f"information set for unknown agent {agent_name!r}")
        members = []
        for nid in _need(entry.get("nodes", []), list, "information set 'nodes'"):
            if isinstance(nid, bool) or not isinstance(nid, int) or nid not in remap:
                raise ParseError(f"information set references unknown node {nid}")
            members.append(remap[nid])
        groups.append((agent_index[agent_name], members))
    try:
        mech = build_mechanism_oracle(
            model, raw, groups, {remap[nid]: x for nid, x in outcomes.items()})
    except MechanismError as e:
        raise ParseError(str(e)) from None
    return mech, model, f


def gen_ttc_oracle(priorities, n):
    """The ``gen ttc`` document built with a separately computed
    trading-cycles table, as the command did before it read the table off
    the tree."""
    return serialize_mechanism(build_rda(priorities, n), ttc_scf(priorities, n)[1])


def ttc_all_cycles(priorities, n, model, profile):
    """TTC removing every current cycle simultaneously each round."""
    rankings = model.rankings
    remaining_agents = set(range(n))
    remaining_items = set(range(n))
    assignment = [None] * n
    while remaining_agents:
        owner_of = {x: next(a for a in priorities[x] if a in remaining_agents)
                    for x in remaining_items}
        owners = set(owner_of.values())
        points_to = {o: owner_of[_best(rankings[profile[o]], remaining_items)]
                     for o in owners}
        on_cycle = set()
        for start in owners:
            slow, fast = start, points_to[start]
            while slow != fast:
                slow = points_to[slow]
                fast = points_to[points_to[fast]]
            on_cycle.add(slow)
        closed = set()
        for o in on_cycle:
            cur = o
            while cur not in closed:
                closed.add(cur)
                cur = points_to[cur]
        for o in closed:
            assignment[o] = _best(rankings[profile[o]], remaining_items)
        for o in closed:
            remaining_agents.discard(o)
            remaining_items.discard(assignment[o])
    return tuple(assignment)


def sd_assignment(model, order, profile):
    """Direct serial-dictatorship outcome."""
    n = model.n_agents
    remaining = set(range(n))
    assignment = [None] * n
    for i in order:
        pick = _best(model.rankings[profile[i]], remaining)
        assignment[i] = pick
        remaining.discard(pick)
    return tuple(assignment)
