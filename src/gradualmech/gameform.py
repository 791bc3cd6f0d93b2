"""Finite dynamic game forms with simultaneous moves and information sets.

A mechanism is a finite tree of action-profile histories.  Every action is a
non-empty set of the acting agent's type indices; at each decision node an
agent's available actions partition her last reported set, so reports are
gradually refined and can never contradict each other.  Terminal histories
carry outcome ids from the shared TypeModel.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from bisect import bisect_left, bisect_right
from operator import attrgetter, itemgetter

from .prefs import ScfTable


class MechanismError(Exception):
    """Raised when a mechanism cannot be represented or an operation's
    preconditions fail."""


def step_key(step):
    """Sortable key of an action profile ((agent, action), ...), for ordering;
    a built mechanism's steps are canonical and serve as their own keys."""
    return tuple((agent, tuple(sorted(action))) for agent, action in step)


def make_step(parts):
    """Normalize {agent: iterable-of-types} into a canonical step tuple."""
    return tuple(sorted((a, frozenset(ts)) for a, ts in parts.items()))


class InfoSet:
    """One agent's information set: member nodes plus the common action menu."""

    __slots__ = ("agent", "nodes", "actions")

    def __init__(self, agent, nodes, menus):
        self.agent = agent
        self.nodes = tuple(sorted(nodes))
        # validate() reports members whose menus differ; the first stands
        # for the set.
        self.actions = menus[self.nodes[0]].get(agent, ())

    def __repr__(self):
        return f"InfoSet(agent={self.agent}, nodes={list(self.nodes)})"


class Mechanism:
    """Immutable game form over a TypeModel.  Raw input is built with
    ``build_mechanism`` or ``parse_mechanism``; the tree rewrites copy a
    valid mechanism through ``canonical_tree`` directly.

    The tree tables depend on the history tree alone: ``parent``, ``step``,
    ``children`` (a ``range`` of ids per node), ``terminals``, ``theta``,
    ``menus`` (whose keys are each node's acting agents) and in ``_tree``
    each node's step number with the step table (numbers, keys and the
    keys' texts), which ``canonical_tree`` fills in its one pass; a
    rewrite's copy starts from a copy of its input's step table and shares
    with its input the rows, steps and menus of the children it keeps.
    Then ``outcome``, which the caller of the pass reads off its input;
    then the fingerprint's tree text and the lazily built tables, each built
    by whichever mechanism on the tree asks first.  The partition tables depend
    on the information sets too: ``infosets``, ``node_iset``,
    ``experience``, the conflict maps and the ``validate`` report.
    ``regroup`` shares the first and builds only the second; ``unite``, a
    merge's regrouping, reads its conflict maps off its input's.

    A node's menu lists the distinct actions in its children's steps, so
    nodes whose children carry equal steps have equal menus, and
    ``validate`` decides the rules that read only the steps and the menu
    once per tuple of children's steps.  The menu object is no such key:
    ``canonical_tree`` shares one menu among the nodes with equal children's
    steps that one pass keys, but a builder may share it among all nodes
    with equal menus, whose children can still differ.  ``experience``
    holds one list per agent, indexed by node id.
    """

    def __init__(self, model, tree, outcome, infoset_groups):
        """``tree``: the tables ``canonical_tree`` returns; ``outcome`` and
        ``infoset_groups`` in its canonical ids."""
        self.model = model
        (self.parent, self.step, self.children, self.terminals, self.theta,
         self.menus, self._tree) = tree
        self.outcome = outcome
        self._partition(infoset_groups)

    def regroup(self, infoset_groups):
        """The mechanism on this tree whose information sets are
        ``infoset_groups``, (agent, [node ids]) pairs: it shares every tree
        table, lazily built ones included, and builds only the others."""
        other = object.__new__(Mechanism)
        other.__dict__.update(self.__dict__)
        other._partition(infoset_groups)
        return other

    def unite(self, agent, classes):
        """The regrouping in which each class, a list of ``agent``'s set
        indices, becomes one set; every other set stays.  The result must
        be valid, as a merge that ``_merge_classes`` accepts is.

        Where this mechanism has built its conflict tables, the result's
        are read off them.  The tree is the same and every other agent
        keeps her sets, so her entries of ``_other_action_masks`` are
        unchanged, and so is her entry of every conflict mask, an OR over
        her chain of those entries.  The agent's entries are ORed per class:
        by perfect recall in the result no member of a class lies below
        another, so the members' subtrees are disjoint, and the nodes that
        pass the class with another action than ``a`` are the nodes that
        pass one of its sets so.  Only her entry of each built conflict mask
        is then computed again, from her new chain."""
        united = {k for ks in classes for k in ks}
        groups = [(s.agent, s.nodes) for k, s in enumerate(self.infosets) if k not in united]
        for ks in classes:
            groups.append((agent, [v for k in ks for v in self.infosets[k].nodes]))
        other = self.regroup(groups)
        if self._other_action is not None:
            new_index = [other.node_iset[s.agent, s.nodes[0]] for s in self.infosets]
            table = other._other_action = {}
            for (k, a), mask in self._other_action.items():
                key = new_index[k], a
                table[key] = table.get(key, 0) | mask
            exp, built = other.experience[agent], other._conflict_masks
            for u, masks in enumerate(self._conflict_masks):
                if masks is not None:
                    mask = 0
                    for entry in exp[u]:
                        mask |= table[entry]
                    built[u] = masks[:agent] + (mask,) + masks[agent + 1:]
        return other

    def _partition(self, infoset_groups):
        """Build, or rebuild for a regrouping, every partition table."""
        self.infosets = tuple(sorted(
            (InfoSet(agent, nodes, self.menus) for agent, nodes in infoset_groups),
            key=lambda s: (s.agent, s.nodes[0])))
        self.node_iset = {}
        for k, iset in enumerate(self.infosets):
            for v in iset.nodes:
                self.node_iset[(iset.agent, v)] = k

        # Own-experience chains ((information set, action), ...) strictly
        # before each node: one list per agent, indexed by node id and
        # filled in id order, as theta is, so each parent's entry is there
        # before its children's.
        n = len(self.parent)
        parent, step, get = self.parent, self.step, self.node_iset.get
        self.experience = experience = [[()] * n for _ in range(self.model.n_agents)]
        for v in range(1, n):
            p = parent[v]
            for exp in experience:
                exp[v] = exp[p]
            for agent, action in step[v]:
                k = get((agent, p))
                if k is not None:
                    exp = experience[agent]
                    exp[v] = exp[p] + ((k, action),)

        self._other_action = None
        self._conflict_masks = [None] * n
        self._valid_report = None

    # -- structure helpers ------------------------------------------------

    def n_nodes(self):
        return len(self.parent)

    def is_terminal(self, v):
        return not self.children[v]

    def path_nodes(self, v):
        """Nodes from the root to v inclusive."""
        out = []
        while v is not None:
            out.append(v)
            v = self.parent[v]
        return out[::-1]

    def terminals_under(self, v):
        under = self._tree.get("terminals_under")
        if under is None:
            n = self.n_nodes()
            under = [None] * n
            for u in reversed(range(n)):
                if not self.children[u]:
                    under[u] = (u,)
                else:
                    acc = []
                    for c in self.children[u]:
                        acc.extend(under[c])
                    under[u] = tuple(acc)
            self._tree["terminals_under"] = under
        return under[v]

    def subtree_masks(self):
        """Per node, its subtree, itself included, as a bitmask of node ids."""
        below = self._tree.get("below")
        if below is None:
            n = self.n_nodes()
            below = [0] * n
            for v in reversed(range(n)):
                mask = 1 << v
                for c in self.children[v]:
                    mask |= below[c]
                below[v] = mask
            self._tree["below"] = below
        return below

    def outcome_masks(self):
        """Per node, the outcomes of the terminals below it as a bitmask of
        outcome ids."""
        table = self._tree.get("outcome_masks")
        if table is None:
            n = self.n_nodes()
            table = [0] * n
            for v in reversed(range(n)):
                if self.children[v]:
                    for c in self.children[v]:
                        table[v] |= table[c]
                else:
                    table[v] = 1 << self.outcome[v]
            self._tree["outcome_masks"] = table
        return table

    # -- information-set structure ----------------------------------------

    def agent_infosets(self, agent):
        """The agent's set indices, a range: ``infosets`` is sorted by agent."""
        sets, key = self.infosets, attrgetter("agent")
        return range(bisect_left(sets, agent, key=key), bisect_right(sets, agent, key=key))

    def infoset_predecessor(self, k):
        """Index of the agent's previous information set, with the action
        taken there, or (None, None) for her first decisions."""
        iset = self.infosets[k]
        v = iset.nodes[0]
        exp = self.experience[iset.agent][v]
        if not exp:
            return None, None
        return exp[-1]

    def theta_infoset(self, k):
        iset = self.infosets[k]
        return self.theta[iset.nodes[0]][iset.agent]

    def theta_profiles(self, v):
        return itertools.product(*(sorted(s) for s in self.theta[v]))

    # -- play and consistency ----------------------------------------------

    def truthful_terminal(self, profile):
        return self.truthful_table()[self.model.rank(profile)]

    def truthful_table(self):
        """Per profile rank (``TypeModel.rank``), the terminal its truthful
        path ends at.  Each terminal fills the ranks of its type box, the
        sums of one stride multiple per agent, adding a lone type in place
        while the box has one rank so far.  On a valid mechanism the
        terminal boxes partition the profile space (see ``_tree_rules``), so
        each slot is filled exactly once."""
        table = self._tree.get("truthful")
        if table is None:
            table = [None] * self.model.n_profiles()
            for z in self.terminals:
                ranks = [0]
                for stride, types in zip(self.model.strides, self.theta[z]):
                    if len(types) == 1 == len(ranks):
                        (t,) = types
                        ranks[0] += t * stride
                    else:
                        ranks = [r + t * stride for r in ranks for t in types]
                for r in ranks:
                    table[r] = z
            table = self._tree["truthful"] = tuple(table)
        return table

    def truthful_outcomes(self):
        """Per profile rank, the outcome of its truthful path: the SCF the
        valid mechanism implements, as a tuple.  A tree table, so every
        check of a mechanism and of its regroupings reads one tuple."""
        table = self._tree.get("outcomes")
        if table is None:
            table = self._tree["outcomes"] = tuple(
                map(self.outcome.__getitem__, self.truthful_table()))
        return table

    def _other_action_masks(self):
        """{(k, a): bitmask of the nodes whose path passes through information
        set k with an action other than a}.  The experience chains gain the
        entry (k, a) at node v exactly when v's step has the agent take a and
        k is her set at v's parent, and carry it to every node below v, so
        the table is read off the steps."""
        if self._other_action is None:
            below = self.subtree_masks()
            through = {}
            for v in range(1, len(self.parent)):
                p = self.parent[v]
                for agent, action in self.step[v]:
                    k = self.node_iset.get((agent, p))
                    if k is not None:
                        through[k, action] = through.get((k, action), 0) | below[v]
            by_set = {}
            for (k, _), mask in through.items():
                by_set[k] = by_set.get(k, 0) | mask
            self._other_action = {(k, a): by_set[k] ^ mask
                                  for (k, a), mask in through.items()}
        return self._other_action

    def conflict_masks(self, u):
        """One bitmask per agent: bit v of entry i is set iff agent i's
        recorded choices on the paths to u and v disagree on a shared
        information set.  Perfect recall puts each set at most once in a
        chain, so this is the OR, over u's chain, of the nodes that pass the
        same set with another action.  Memoized per node."""
        masks = self._conflict_masks[u]
        if masks is None:
            other = self._other_action_masks()
            out = []
            for exp in self.experience:
                mask = 0
                for entry in exp[u]:
                    mask |= other[entry]
                out.append(mask)
            masks = self._conflict_masks[u] = tuple(out)
        return masks

    def conflict_agents(self, u, v):
        """Agents whose recorded choices on the paths to u and v disagree on
        a shared information set: bit v of u's conflict masks."""
        return frozenset(i for i, mask in enumerate(self.conflict_masks(u))
                         if mask >> v & 1)

    # -- identity ------------------------------------------------------------

    def canonical_form(self):
        """(parent, per node its step key, outcomes, information sets)."""
        return (
            self.parent,
            tuple(map(self._tree["keys"].__getitem__, self._tree["ids"])),
            tuple(sorted(self.outcome.items())),
            tuple((s.agent, s.nodes) for s in self.infosets),
        )

    def fingerprint(self):
        """Hash of ``repr((canonical_form(), type_names, outcome_names))``.
        The repr of a tuple of two or more items is "(" + their reprs joined
        by ", " + ")", and of one item "(" + its repr + ",)".  So that text
        is the tree's part, written once per tree and shared by every
        regrouping, followed by the information sets and the model's names,
        which each mechanism writes itself.  In the tree's part, each step
        key's text is joined per node from the step table's ``texts``, which
        a rewrite's copy inherits with the table (``canonical_tree``), so
        along a chain each key's text is written once."""
        head = self._tree.get("text")
        if head is None:
            texts, keys, ids = self._tree["texts"], self._tree["keys"], self._tree["ids"]
            if len(texts) < len(keys):
                texts = self._tree["texts"] = texts + tuple(map(repr, keys[len(texts):]))
            keys = ", ".join(map(texts.__getitem__, ids)) + ("," if len(ids) == 1 else "")
            head = self._tree["text"] = "".join((
                "((", repr(self.parent), ", (", keys, "), ",
                repr(tuple(sorted(self.outcome.items()))), ", "))
        text = "".join((head, repr(tuple((s.agent, s.nodes) for s in self.infosets)),
                        "), ", repr(self.model.type_names), ", ",
                        repr(self.model.outcome_names), ")"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def __repr__(self):
        return (f"Mechanism(nodes={self.n_nodes()}, terminals={len(self.terminals)}, "
                f"infosets={len(self.infosets)})")


def mechanisms_equal(a, b):
    return a.model == b.model and a.canonical_form() == b.canonical_form()


def _moved(row, s):
    """``row`` with each agent acting in step ``s`` at her action there: the
    last reported set per agent, the full type set until her first action."""
    moved = list(row)
    for agent, action in s:
        moved[agent] = action
    return tuple(moved)


def canonical_tree(model, root, edges, origin=None):
    """The tree tables of a mechanism, built in one breadth-first pass.

    ``edges(handle, v)`` is told that the caller's node ``handle`` has
    canonical id ``v`` and returns its (step, child handle) edges as a list,
    each step in ``make_step``'s normal form.  The pass sorts them by step
    key, stably, so ties keep the caller's order, and numbers the children
    in that order; equal steps share the first one's tuple.  It fills the
    tables as it goes and returns them as (``parent``, ``step``,
    ``children``, ``terminals``, ``theta``, ``menus``, ``_tree``).  Each
    distinct step gets a number when first met.  ``_tree`` holds per node
    its step's number (``ids``) and the step table: per number its step key
    (``keys``), the root's number 0 with the key None, the keys' texts as
    far as a fingerprint has written them (``texts``) and each step's entry
    (``numbers``).

    ``origin``, a mechanism the tree is copied from (``transforms._copy``),
    lends the pass its work in two ways.  The copy starts from a copy of the
    origin's step table and numbers its new steps on from there, so every
    origin number keeps its key, and along a chain of rewrites each
    distinct step is keyed and its text written once.  And ``edges`` may
    return, in place of the list, a pair (o, handles): the node's children
    are node o's children in ``origin``, with their steps and in their
    order, and ``handles`` holds one handle per child.  The copy holds no
    reference to ``origin`` itself.

    Breadth-first numbering gives each node's children consecutive ids: the
    queue holds the numbered nodes not yet popped, in id order, and a popped
    node's children are numbered together, with the next ids after every
    node numbered so far.  So ``children[v]`` is a ``range``, and each parent
    is numbered, and its ``theta`` row known, before its children.
    """
    full = tuple(model.full_type_set(i) for i in range(model.n_agents))
    # The step table, a fresh one or a copy of the origin's: step -> (its
    # step key, the first equal step seen, its number); per number its step
    # key; the texts of the first keys, as far as a fingerprint wrote them.
    table = {"numbers": {}, "keys": (None,), "texts": ()} if origin is None else origin._tree
    keyed, keys, texts = dict(table["numbers"]), list(table["keys"]), table["texts"]
    parent, step, ids, theta = [None], [None], [0], [full]
    children, terminals, menus = [], [], []
    # Each node's menu, {acting agent: her distinct actions}, with the
    # agents in ascending order and the actions in the order step_key sorts
    # them: the children's own order wherever they form the full product.
    # The children's steps determine the menu, so nodes whose children carry
    # the same steps share one menu, keyed by the steps' numbers; terminals
    # share an empty one.
    shared, no_menu = {}, {}
    handles = [root]
    for v, handle in enumerate(handles):  # ``handles`` grows as v advances
        out = edges(handle, v)
        if type(out) is tuple:
            o, out = out
            kids = origin.children[o]
            if kids:
                # The origin numbered o's children breadth-first from these
                # steps, so sorting them again gives the same order and the
                # same menu, and the inherited step numbers give every child
                # the same key, so ``canonical_form`` and the fingerprint are
                # unchanged.  An equal parent row with equal steps gives
                # equal child rows.
                lo, hi, first = kids[0], kids[-1] + 1, len(parent)
                children.append(range(first, first + len(kids)))
                parent += [v] * len(kids)
                step += origin.step[lo:hi]
                ids += table["ids"][lo:hi]
                handles += out
                row = theta[v]
                theta += (origin.theta[lo:hi] if row == origin.theta[o]
                          else [_moved(row, s) for s in origin.step[lo:hi]])
                menus.append(origin.menus[o])
                continue
            out = []
        kids = []
        for s, child in out:
            e = keyed.get(s)
            if e is None:
                e = keyed[s] = (step_key(s), s, len(keys))
                keys.append(e[0])
            kids.append((e, child))
        first = len(parent)
        children.append(range(first, first + len(kids)))
        if not kids:
            terminals.append(v)
            menus.append(no_menu)
            continue
        kids.sort(key=itemgetter(0))
        row = theta[v]
        for (_, s, number), child in kids:
            parent.append(v)
            step.append(s)
            ids.append(number)
            handles.append(child)
            moved = list(row)  # ``_moved`` inline: this runs for every node parsed
            for agent, action in s:
                moved[agent] = action
            theta.append(tuple(moved))
        steps = tuple([e[2] for e, _ in kids])
        menu = shared.get(steps)
        if menu is None:
            menu = {}
            for agent, action in frozenset([p for (_, s, _), _ in kids for p in s]):
                menu.setdefault(agent, []).append(action)
            menu = shared[steps] = {a: tuple(sorted(acts, key=sorted))
                                    for a, acts in sorted(menu.items())}
        menus.append(menu)
    return (tuple(parent), tuple(step), tuple(children), tuple(terminals), tuple(theta),
            tuple(menus),
            {"ids": tuple(ids), "numbers": keyed, "keys": tuple(keys), "texts": texts})


def build_mechanism(model, nodes, infoset_groups, outcomes):
    """Assemble and canonicalize a mechanism from raw input: the
    generators' ``_TreeSink``, tests and callers outside the package.  The
    parser and the tree rewrites call ``canonical_tree`` themselves.

    ``nodes``: list of (parent_id, step) with ids arbitrary; step is None for
    the root and otherwise a hashable tuple of (agent, frozenset of type ids)
    pairs, in any agent order.  Each distinct step is checked and normalized
    with ``make_step`` once.
    ``infoset_groups``: iterable of (agent, [node ids]).
    ``outcomes``: {node id: outcome id} for terminals.

    The nodes are numbered and the tree tables filled by ``canonical_tree``,
    whose handles are the input ids; siblings with equal steps keep their
    input order.  Only representability is enforced here; semantic rules are
    reported by ``validate`` so that broken inputs diagnose rather than
    crash.
    """
    n = len(nodes)
    if n == 0:
        raise MechanismError("empty mechanism")
    roots = [k for k, (p, _) in enumerate(nodes) if p is None]
    if len(roots) != 1:
        raise MechanismError(f"exactly one root required, found {len(roots)}")
    full = [model.full_type_set(a) for a in range(model.n_agents)]
    normal = {}  # raw step -> normalized step
    children = [[] for _ in range(n)]  # per input id, its (step, child) edges
    for k, (p, step) in enumerate(nodes):
        if p is None:
            continue
        if not (0 <= p < n):
            raise MechanismError(f"node {k}: dangling predecessor {p}")
        if not step:
            raise MechanismError(f"node {k}: missing action profile")
        s = normal.get(step)
        if s is None:
            for agent, action in step:
                if not (0 <= agent < model.n_agents):
                    raise MechanismError(f"node {k}: unknown agent {agent}")
                if not action or not full[agent].issuperset(action):
                    raise MechanismError(f"node {k}: bad action for agent {agent}")
            s = normal[step] = make_step(dict(step))
        children[p].append((s, k))

    new = [None] * n  # input id -> canonical id

    def edges(k, v):
        new[k] = v
        return children[k]

    # Each input node is in exactly one edge list, its parent's, and the
    # root in none, so the pass reaches each node at most once.  A parent
    # cycle cannot contain the root, so its nodes are never reached.
    tree = canonical_tree(model, roots[0], edges)
    if None in new:
        raise MechanismError("disconnected nodes present")
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
    return Mechanism(model, tree, outcome, groups)


def validate(mech):
    """Return a list of violation strings; empty iff the mechanism satisfies
    every structural rule: the tree rules (outcomes at the terminals,
    closure of simultaneous moves, refined disjoint actions, root activity)
    and the partition rules (exact cover of decision nodes, uniform menus,
    perfect recall), run once per mechanism.  Together they imply that the
    terminal type sets partition the type-profile space, which is not
    checked separately."""
    if mech._valid_report is None:
        mech._valid_report = _tree_rules(mech) + _partition_rules(mech)
    return mech._valid_report


def _local_rules(steps, menu):
    """The local rules that depend on a node's children's steps alone:
    the messages, without the node's name, of the rules that fail, and per
    acting agent in menu order (agent, whether her actions overlap, their
    union).  ``menu`` is the menu of a node with these children."""
    if any(len(s) != len(menu) for s in steps):
        return ("children disagree on the acting agents",), ()
    failed = []
    combos = set(steps)
    if len(steps) != len(combos):
        failed.append("duplicate action profiles")
    if len(combos) != math.prod(len(acts) for acts in menu.values()):
        failed.append("children are not the full product of available actions")
    agents = []
    for a, acts in menu.items():
        union = frozenset().union(*acts)
        agents.append((a, sum(map(len, acts)) != len(union), union))
    return tuple(failed), tuple(agents)


def _tree_rules(mech):
    """Outcome placement, the local rules and root activity.

    Closure, duplicate profiles, the full product and overlapping actions
    depend only on the children's steps and on the menu, which lists the
    distinct actions in those steps, so they are decided once per distinct
    tuple of children's steps; per node remain only the node's name in
    their messages and the test that each agent's actions cover her
    current set there.  The memo is keyed on the steps, not on the menu
    object: a builder may share one menu among nodes whose children differ
    (all four products below one node, three below another), and those
    nodes break different rules."""
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
    decided = {}  # children's steps -> _local_rules of them
    for v, kids in enumerate(mech.children):
        if not kids:
            continue
        steps = step[kids[0]:kids[-1] + 1]  # siblings have consecutive ids
        rules = decided.get(steps)
        if rules is None:
            rules = decided[steps] = _local_rules(steps, menus[v])
        failed, agents = rules
        for text in failed:
            report.append(f"node {v}: {text}")
        row = theta[v]
        for a, overlap, union in agents:
            if overlap:
                report.append(f"node {v}: agent {a} has overlapping actions")
            if union != row[a]:
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


def _partition_rules(mech):
    report = []
    # Information sets: exact partition of each agent's decision nodes, which
    # are read off the menus' keys in one pass.
    n_agents = mech.model.n_agents
    decides = [set() for _ in range(n_agents)]
    for v, menu in enumerate(mech.menus):
        for a in menu:
            decides[a].add(v)
    covered = [[] for _ in range(n_agents)]
    for s in mech.infosets:
        covered[s.agent].extend(s.nodes)
    for i, (members, nodes) in enumerate(zip(covered, decides)):
        distinct = set(members)
        if len(members) != len(distinct):
            report.append(f"agent {i}: information sets overlap")
        if distinct != nodes:
            report.append(f"agent {i}: information sets do not cover exactly her decision nodes")

    # Uniform menus and perfect recall within each information set: every
    # member's menu and experience chain equal the first member's.
    menus = mech.menus
    for k, iset in enumerate(mech.infosets):
        nodes = iset.nodes
        if len(nodes) == 1:
            continue
        a, first = iset.agent, nodes[0]
        menu = menus[first].get(a)
        if any(menus[v].get(a) != menu for v in nodes):
            report.append(f"information set {k}: nodes offer different action menus")
        exp = mech.experience[a]
        chain = exp[first]
        if any(exp[v] != chain for v in nodes):
            report.append(f"information set {k}: members violate perfect recall")

    return report


def implemented_scf(mech):
    """The SCF a valid mechanism implements: outcome of each truthful path."""
    return ScfTable(mech.model, mech.truthful_outcomes())


def implements(mech, f):
    """True iff the valid mechanism's truthful outcomes equal f on every
    profile: one comparison of two tuples by profile rank."""
    return mech.truthful_outcomes() == f.outcomes


def siblings_same_action(mech):
    """All pairs of one agent's information sets that immediately follow the
    same information set through the same action.

    Returns (agent, k1, k2) triples with k1 < k2 in canonical order.
    """
    groups = {}
    for k, iset in enumerate(mech.infosets):
        pred, action = mech.infoset_predecessor(k)
        if pred is None:
            continue
        groups.setdefault((iset.agent, pred, action), []).append(k)
    # Each group lists its sets in ascending order, as they were met.
    out = []
    for (agent, _, _), ks in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        out.extend((agent, k1, k2) for k1, k2 in itertools.combinations(ks, 2))
    return out


def is_static(mech):
    """A mechanism is static when every agent decides exactly once, at the
    initial history, i.e. the total number of information sets equals the
    number of agents."""
    return len(mech.infosets) == mech.model.n_agents
