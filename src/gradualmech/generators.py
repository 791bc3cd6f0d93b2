"""Concrete models and mechanisms: direct forms, the three-candidate voting
family, serial dictatorships, the ascending-price auction with randomized
tie-breaking, and the staged renounce/designate/assert implementation of top
trading cycles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .gameform import MechanismError, build_mechanism, make_step
from .prefs import ScfTable, TypeModel, WeakOrder
from .transforms import (Illuminate, Uncoalesce, Unsplit, apply_illuminate,
                         apply_transformation, apply_uncoalesce, apply_unsplit,
                         find_opportunities)


class _TreeSink:
    """Collects raw nodes, information-set groups, and outcomes while a
    generator walks its process tree.  The first step out of the root is
    padded with degenerate full-set actions so every agent is active there;
    agents who never truly decide keep only that degenerate root set, and a
    process with no step at all takes one degenerate step.
    """

    def __init__(self, model):
        self.model = model
        self.nodes = [(None, None)]
        self.outcomes = {}
        self.groups = {}        # key -> (agent, [node ids])

    def child(self, parent, parts):
        if parent == 0:
            padded = dict(parts)
            for a in range(self.model.n_agents):
                if a not in padded:
                    padded[a] = self.model.full_type_set(a)
            parts = padded
        self.nodes.append((parent, make_step(parts)))
        return len(self.nodes) - 1

    def decision(self, key, agent, node):
        self.groups.setdefault(key, (agent, []))[1].append(node)

    def terminal(self, node, outcome_id):
        self.outcomes[node] = outcome_id

    def build(self):
        if len(self.nodes) == 1:
            self.outcomes = {self.child(0, {}): self.outcomes.pop(0)}
        groups = list(self.groups.values())
        rooted = {a for a, vs in groups if 0 in vs}
        for a in range(self.model.n_agents):
            if a not in rooted:
                groups.append((a, [0]))
        return build_mechanism(self.model, self.nodes, groups, self.outcomes)


def direct_mechanism(model, f):
    """One simultaneous move at the root: each agent reports her exact type."""
    sink = _TreeSink(model)
    for profile, x in f.items():
        v = sink.child(0, {i: frozenset({profile[i]}) for i in range(model.n_agents)})
        sink.terminal(v, x)
    return sink.build()


# --------------------------------------------------------------------------
# Three-candidate voting family
# --------------------------------------------------------------------------

L, M, R = 0, 1, 2


def voting_model_and_scf(n_voters=2, phantoms=(M,)):
    """Voters with ideal candidates on the line L < M < R; the winner is the
    median of the reported ideals and the fixed phantom positions."""
    prefs_by_type = [
        WeakOrder([{L}, {M}, {R}]),           # ideal L
        WeakOrder([{M}, {L, R}]),             # ideal M, flanks tied
        WeakOrder([{R}, {M}, {L}]),           # ideal R
    ]
    model = TypeModel(
        type_names=[("L", "M", "R")] * n_voters,
        outcome_names=("L", "M", "R"),
        prefs=[prefs_by_type] * n_voters,
        agent_names=tuple(f"voter{i + 1}" for i in range(n_voters)),
    )
    outcomes = []
    for profile in model.profiles():
        votes = sorted(profile + tuple(phantoms))
        outcomes.append(votes[len(votes) // 2])
    return model, ScfTable(model, outcomes)


def _defer(mech, k, actions=None):
    """Uncoalesce ``actions`` of information set ``k``, by default its whole
    menu: the agent takes their union at ``k`` and picks among them at a
    new set right after.  Returns the result and the new set's index.

    Ids are breadth-first and only the children of ``k``'s members change,
    so no node up to ``k``'s first member is renumbered and ``k``, like
    every set that starts before it, keeps its index."""
    actions = actions or mech.infosets[k].actions
    out = apply_uncoalesce(mech, Uncoalesce(mech.infosets[k].agent, k, actions))
    union = frozenset().union(*actions)
    return out, next(j for j in range(len(out.infosets))
                     if out.infoset_predecessor(j) == (k, union))


def _illuminate_by(mech, k, test):
    """Illuminate set ``k`` into the members that pass ``test`` and the rest."""
    members = mech.infosets[k].nodes
    part1 = tuple(v for v in members if test(mech.theta[v]))
    t = Illuminate(mech.infosets[k].agent, k, part1,
                   tuple(v for v in members if v not in part1))
    return apply_illuminate(mech, t), t


def voting_examples():
    """The five linked voting mechanisms, each built from the next by one
    or two rewrites.

    Voter 1 moves first throughout.  g4 uncoalesces voter 2's root menu of
    direct: she reports after voter 1 and learns nothing.  g3 illuminates
    her deferred set into the member after M and the rest, so she learns
    whether voter 1 reported M.  g2 uncoalesces voter 1's L and R at the
    root: she first says whether her ideal is M and refines L+R later.  g1
    uncoalesces voter 2's L and R after M in g2 and unsplits that new set,
    so her menu there is {M, L+R}.
    """
    model, f = voting_model_and_scf()
    l, m, r = (frozenset({c}) for c in (L, M, R))
    direct = direct_mechanism(model, f)
    g4, k = _defer(direct, direct.node_iset[(1, 0)])
    g3 = _illuminate_by(g4, k, lambda theta: theta[0] == m)[0]
    g2 = _defer(g3, g3.node_iset[(0, 0)], (l, r))[0]
    after_m = next(v for v in g2.children[0] if g2.theta[v][0] == m)
    g1, k = _defer(g2, g2.node_iset[(1, after_m)], (l, r))
    g1 = apply_unsplit(g1, Unsplit(1, k))
    return model, f, {"g1": g1, "g2": g2, "g3": g3, "g4": g4, "direct": direct}


# --------------------------------------------------------------------------
# Serial dictatorship over three items
# --------------------------------------------------------------------------

def matching_model(n):
    """Agents with strict rankings over n items; outcomes are the n!
    matchings, compared by each agent's own assigned item only.  A matching
    lists each agent's item, so the rankings double as the matchings."""
    items = list(range(n))
    rankings = sorted(itertools.permutations(items))
    item_names = [chr(ord("a") + x) for x in items]
    type_names = ["".join(item_names[x] for x in r) for r in rankings]
    prefs = []
    for i in range(n):
        per_type = []
        for r in rankings:
            rank_of = {item: pos for pos, item in enumerate(r)}
            levels = [[] for _ in items]
            for o_idx, m in enumerate(rankings):
                levels[rank_of[m[i]]].append(o_idx)
            per_type.append(WeakOrder([lv for lv in levels if lv]))
        prefs.append(per_type)
    model = TypeModel([type_names] * n, type_names, prefs)
    model.rankings = rankings
    model.matching_index = {m: k for k, m in enumerate(rankings)}
    return model


def _best(ranking, pool):
    return next(x for x in ranking if x in pool)


def serial_dictatorship_scf(n=3, order=None):
    """Agents pick their favorite remaining item in the given order: the
    trading-cycles SCF when every item ranks the agents in that order.  The
    first remaining agent then owns every remaining item, so she points at
    her own favorite and trades alone."""
    order = tuple(order) if order is not None else tuple(range(n))
    return ttc_scf((order,) * n, n)


def serial_dictatorship_pair():
    """Two mechanisms for the same three-agent serial dictatorship.

    ``good``: the staged trading tree when every item ranks the agents 0,
    1, 2: agent 1 claims her favorite item, then agent 2, who has seen it,
    her favorite remaining one.  ``bad``: agent 2 reports her whole ranking
    first, and agent 1 learns only whether item a tops it before picking.
    Returns (good, bad, model, f).

    ``bad`` rewrites the direct mechanism: agent 3's report is uncoalesced
    and unsplit away, agent 1's is uncoalesced, then for each item her two
    rankings that put it first are uncoalesced and unsplit into one pick,
    and her deferred set is illuminated by whether a tops agent 2's ranking.
    """
    model, f = serial_dictatorship_scf(3)
    rankings = model.rankings
    bad = direct_mechanism(model, f)
    # The rule never reads agent 3's report: defer it and forget it.
    bad, k = _defer(bad, bad.node_iset[(2, 0)])
    bad = apply_unsplit(bad, Unsplit(2, k))
    bad, k = _defer(bad, bad.node_iset[(0, 0)])
    # Agent 1 gets the item that her ranking puts first, whichever of the
    # two rankings that do so she reports.
    for x in range(3):
        tops = tuple(a for a in bad.infosets[k].actions if rankings[min(a)][0] == x)
        bad, j = _defer(bad, k, tops)
        bad = apply_unsplit(bad, Unsplit(0, j))
    bad = _illuminate_by(bad, k, lambda theta: rankings[min(theta[1])][0] == 0)[0]
    return build_rda(((0, 1, 2),) * 3, 3), bad, model, f


# --------------------------------------------------------------------------
# Second-price auction with randomized tie-breaking
# --------------------------------------------------------------------------

def second_price_scf(n, m):
    """Values 1..m per bidder; the highest-value bidders win with equal
    probability at the second-highest value.  Preferences rank lotteries by
    exact expected payoff, so indifference is exact.

    Outcome ids number the lotteries ``(winners, price)`` in the order the
    profiles first meet them; ``model.lotteries`` lists them by id, each
    with its winners in bidder order."""
    if n < 2 or m < 1:
        raise ValueError("need at least two bidders and one value")
    # ``product`` lists the profiles in ``TypeModel.profiles()`` order.
    ids = {}
    outcomes = []
    for profile in itertools.product(range(m), repeat=n):
        values = [v + 1 for v in profile]
        top = max(values)
        winners = tuple(i for i, v in enumerate(values) if v == top)
        price = sorted(values, reverse=True)[1]
        outcomes.append(ids.setdefault((winners, price), len(ids)))
    lotteries = list(ids)

    prefs = []
    for i in range(n):
        per_type = []
        for t in range(m):
            by_ev = {}
            for o_idx, entry in enumerate(lotteries):
                by_ev.setdefault(_lottery_payoff(entry, i, t + 1), []).append(o_idx)
            levels = [by_ev[ev] for ev in sorted(by_ev, reverse=True)]
            per_type.append(WeakOrder(levels))
        prefs.append(per_type)

    names = ["w" + "&".join(str(b + 1) for b in ws) + f"@p{p}" for ws, p in lotteries]
    model = TypeModel([[str(v + 1) for v in range(m)]] * n, names, prefs,
                      agent_names=[f"bidder{i + 1}" for i in range(n)])
    model.lotteries = lotteries
    return model, ScfTable(model, outcomes)


def auction_payoff(model, outcome_id, bidder, value):
    """Exact expected payoff of a lottery outcome for a bidder with a value."""
    return _lottery_payoff(model.lotteries[outcome_id], bidder, value)


def _lottery_payoff(lottery, bidder, value):
    winners, price = lottery
    if bidder not in winners:
        return Fraction(0)
    return Fraction(1, len(winners)) * (value - price)


def build_gstar(n, m):
    """The ascending-price auction that reveals everything about previous
    price levels and pools a bidder's current-level nodes exactly when fewer
    than two bidders have stayed so far at that level.

    Bidders act in index order within a level; staying reports a value above
    the level, leaving reports a value equal to it.  One winner always exists:
    the sole stayer at the level price, a uniform draw over same-level
    leavers, or a uniform draw over the survivors at the top price.
    """
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 bidders and m >= 2 price levels")
    model = second_price_scf(n, m)[0]
    sink = _TreeSink(model)
    ids = {lottery: o for o, lottery in enumerate(model.lotteries)}
    # Pending nodes as (node, price, the level's bidders, stays, leaves, the
    # level's first node); the next to act is the level's first bidder who
    # has neither stayed nor left, so stays and leaves are in bidder order,
    # as the lotteries' winners are.
    pending = [(0, 1, tuple(range(n)), (), (), 0)]
    while pending:
        node, price, bidders, stays, leaves, level_start = pending.pop()
        if len(stays) + len(leaves) < len(bidders):
            b = bidders[len(stays) + len(leaves)]
            if len(stays) < 2:
                sink.decision(("pool", b, price, level_start), b, node)
            else:
                sink.decision(("single", node), b, node)
            leave = sink.child(node, {b: frozenset({price - 1})})
            stay = sink.child(node, {b: frozenset(range(price, m))})
            pending.append((leave, price, bidders, stays, leaves + (b,), level_start))
            pending.append((stay, price, bidders, stays + (b,), leaves, level_start))
        elif len(stays) >= 2 and price + 1 <= m - 1:
            pending.append((node, price + 1, stays, (), (), node))
        elif len(stays) >= 2:
            sink.terminal(node, ids[(stays, m)])
        else:
            sink.terminal(node, ids[(stays or leaves, price)])
    return sink.build()


def example1_mechanism():
    """Two bidders, two values, the second told the first's current choice:
    the illumination of the pooled auction that breaks truth-telling."""
    g = build_gstar(2, 2)
    k = next(k for k, s in enumerate(g.infosets)
             if s.agent == 1 and len(s.nodes) == 2)
    s = g.infosets[k]
    return apply_illuminate(g, Illuminate(1, k, (s.nodes[0],), (s.nodes[1],)))


def example2_base_and_illumination():
    """Three bidders, two values: bidders 1 and 2 move together, bidder 3
    initially learns nothing.  The illumination tells bidder 3 whether both
    stayed; it preserves incentives.  The base uncoalesces bidder 3's root
    menu of the direct mechanism."""
    direct = direct_mechanism(*second_price_scf(3, 2))
    base, k = _defer(direct, direct.node_iset[(2, 0)])
    stay = frozenset({1})
    return base, _illuminate_by(base, k, lambda theta: theta[0] == theta[1] == stay)[1]


# --------------------------------------------------------------------------
# Top trading cycles and its staged implementation
# --------------------------------------------------------------------------

def all_priority_structures(n):
    """Every assignment of a strict agent ordering to each of the n items."""
    orders = list(itertools.permutations(range(n)))
    return [tuple(combo) for combo in itertools.product(orders, repeat=n)]


def check_priorities(priorities, n):
    """Refuse a priority structure that is not n item orders, each a
    permutation of the agents 0..n-1."""
    agents = list(range(n))
    if len(priorities) != n or any(sorted(order) != agents for order in priorities):
        raise ValueError(f"priorities must be {n} item orders, each a permutation "
                         f"of the agents 0..{n - 1}")


def ttc_scf(priorities, n):
    """The trading-cycles SCF for one priority structure: each item is owned
    by its first remaining agent, owners point at their favorite remaining
    item's owner, and the cycle reached from the smallest owner trades in
    each round.  Each profile keeps one table of owners and re-owns only
    the items whose owner has left."""
    check_priorities(priorities, n)
    model = matching_model(n)
    rankings = model.rankings

    def outcome(profile):
        owner = {x: order[0] for x, order in enumerate(priorities)}
        assignment = [None] * n
        while owner:
            # Each owner's favorite remaining item.
            wants = {o: _best(rankings[profile[o]], owner) for o in set(owner.values())}
            path = [min(wants)]
            while (cur := owner[wants[path[-1]]]) not in path:
                path.append(cur)
            for o in path[path.index(cur):]:
                assignment[o] = wants[o]
                del owner[wants[o]]
            for x, o in owner.items():
                if assignment[o] is not None:
                    owner[x] = next(a for a in priorities[x] if assignment[a] is None)
        return model.matching_index[tuple(assignment)]

    return model, ScfTable(model, map(outcome, model.profiles()))


def _pointer_cycles(graph):
    """Agents lying on a cycle of the pointer graph {agent: agent}: those
    from whom the pointers lead back to themselves."""
    in_cycle = set()
    for start in graph:
        path = []
        cur = start
        while cur in graph and cur not in path:
            path.append(cur)
            cur = graph[cur]
        if cur in path:
            in_cycle.update(path[path.index(cur):])
    return in_cycle


def build_rda(priorities, n):
    """The staged implementation of the trading-cycles SCF.

    Each stage runs a simultaneous claim-or-renounce move of the active
    owners, then (only when every one of them renounced) a simultaneous
    partner designation, then sequential item assertions by the stage's
    leavers.  Active owners observe only which owners hold which remaining
    items; designations stay hidden until the trade happens.  An asserting
    owner observes, besides her own history, the stage's ownership, who
    trades in the stage and what the earlier leavers took, so the standing
    designations of owners outside the trading cycle stay hidden from her
    too.  Moves with a single feasible option are resolved silently rather
    than materialized as degenerate nodes.

    Each stage finds every type's favourite remaining item once, and its
    claims, designations and assertions all read that one table.  A
    designation stands across stages as the partner alone: the owner's
    types still rank first an item the partner owns, so her assertion
    groups them by their favourite, as a fresh designation's does.

    For n <= 3 the tree is IC, RP and IRP on every priority structure.  At
    n = 4 it is IC and RP on every structure of the tests' samples (a stride
    of 17, and the structure on which a tree whose assertions see every
    earlier move fails IC), and IRP on 14 of the stride's 17; a sweep of all
    four-agent structures has not been run on this tree.
    """
    check_priorities(priorities, n)
    model = matching_model(n)
    rankings = model.rankings
    sink = _TreeSink(model)

    def moves(node, options, tag, public, cur, exp):
        """One simultaneous step; ``options`` maps each owner to her
        (label, action) pairs, of which those with an empty action are
        dropped.  An owner with one option left takes it silently and gets no
        node: claim/renounce, partner groups and asserted items each
        partition her current set, so that one action is the whole set.  The
        others move at ``node``, each in the set keyed by ``tag``, herself,
        what ``public`` says and her own history.  Yields
        ``(node2, cur2, exp2, labels)`` per branch, with a label for every
        owner."""
        options = {o: [(label, act) for label, act in opts if act]
                   for o, opts in options.items()}
        labels = {o: opts[0][0] for o, opts in options.items() if len(opts) == 1}
        movers = [o for o, opts in options.items() if len(opts) > 1]
        if not movers:
            yield node, cur, exp, labels
            return
        keys = {o: (tag, o, public, exp[o]) for o in movers}
        for o in movers:
            sink.decision(keys[o], o, node)
        for combo in itertools.product(*(options[o] for o in movers)):
            child = sink.child(node, {o: act for o, (_, act) in zip(movers, combo)})
            cur2 = dict(cur)
            exp2 = dict(exp)
            picked = dict(labels)
            for o, (label, act) in zip(movers, combo):
                cur2[o] = act
                exp2[o] = exp[o] + ((keys[o], tuple(sorted(act))),)
                picked[o] = label
            yield child, cur2, exp2, picked

    cur0 = {i: model.full_type_set(i) for i in range(n)}
    exp0 = {i: () for i in range(n)}
    stages = [(0, frozenset(range(n)), frozenset(range(n)), {}, {}, cur0, exp0)]
    while stages:
        node, agents, items, standing, matched, cur, exp = stages.pop()
        if not agents:
            sink.terminal(node, model.matching_index[tuple(matched[i] for i in range(n))])
            continue
        owner = {x: next(a for a in priorities[x] if a in agents) for x in items}
        # The stage's ownership, item by item; keys only compare it for
        # equality.
        sig = tuple(sorted(owner.items()))
        owners = sorted(set(owner.values()))
        # Each type's favourite remaining item: the one table that every
        # claim, designation and assertion of the stage reads.  A trader's
        # types all rank first an item her partner owns (her own, for a
        # claimer), so their favourite among the partner's items is ``top``.
        # For a designation made in this stage that holds by construction.
        # For a standing one it still holds: a standing owner makes no move;
        # agents only leave, so her partner still owns every item she owned
        # then; and only a trader on the partner's cycle takes such an item,
        # and the partner leaves with her.
        top = [_best(r, items) for r in rankings]
        actives = [a for a in owners if a not in standing]
        if not actives:
            raise MechanismError("stage with no active owner")
        options = {}
        for o in actives:
            claim = frozenset(t for t in cur[o] if owner[top[t]] == o)
            options[o] = (("claim", claim), ("renounce", cur[o] - claim))
        # Each way the claims can go, as (node, cur, exp, standing, queue),
        # the queue holding the traders in assertion order.
        trades = []
        for node2, cur2, exp2, labels in moves(node, options, "R", sig, cur, exp):
            claimers = [o for o in actives if labels[o] == "claim"]
            if claimers:
                trades.append((node2, cur2, exp2, standing, claimers))
                continue
            # Designation runs only when every active owner renounced, so none
            # of her types tops at her own items, and her current set is never
            # empty: she has no action towards herself and at least one
            # towards a partner.
            designations = {o: [(p, frozenset(t for t in cur2[o] if owner[top[t]] == p))
                                for p in owners]
                            for o in actives}
            for node3, cur3, exp3, partners in moves(node2, designations, "D", sig, cur2, exp2):
                stand2 = {**standing, **partners}
                trades.append((node3, cur3, exp3, stand2, sorted(_pointer_cycles(stand2))))
        for node2, cur2, exp2, stand2, queue in trades:
            branches = [(node2, cur2, exp2, ())]
            for k, o in enumerate(queue):
                # The asserting owner observes her own history, the stage's
                # ownership, who is still to trade in this stage and what
                # the earlier leavers took; the designations of owners
                # outside the trading cycle stay hidden.
                later = tuple(queue[k:])
                asserted = []
                for v, c, e, leavers in branches:
                    picks = [(x, frozenset(t for t in c[o] if top[t] == x))
                             for x in sorted({top[t] for t in c[o]})]
                    public = (sig, later, leavers)
                    for v2, c2, e2, labels in moves(v, {o: picks}, "A", public, c, e):
                        asserted.append((v2, c2, e2, leavers + ((o, labels[o]),)))
                branches = asserted
            # End of the stage: the leavers go with their items, and standing
            # designations towards a leaver lapse.
            for v, c, e, leavers in branches:
                agents2 = agents - {o for o, _ in leavers}
                items2 = items - {x for _, x in leavers}
                lasting = {o: p for o, p in stand2.items() if o in agents2 and p in agents2}
                matched2 = dict(matched)
                matched2.update(leavers)
                stages.append((v, agents2, items2, lasting, matched2, c, e))
    return sink.build()


# --------------------------------------------------------------------------
# Randomized corpus of transformed mechanisms
# --------------------------------------------------------------------------

def random_sp_scf(rng):
    """A random strategy-proof table: a median voter scheme with random
    phantoms, or a two-agent serial dictatorship."""
    kind = rng.choice(["median2", "median3", "sd2"])
    if kind == "median2":
        model, f = voting_model_and_scf(2, (rng.randrange(3),))
    elif kind == "median3":
        model, f = voting_model_and_scf(3, (rng.randrange(3), rng.randrange(3)))
    else:
        order = [0, 1] if rng.random() < 0.5 else [1, 0]
        model, f = serial_dictatorship_scf(2, order)
    return model, f, kind


def random_transformed_mechanism(rng, steps=None):
    """A direct mechanism of a random strategy-proof SCF, pushed through a
    random sequence of structure-changing rewrites.

    Direct mechanisms admit no forward split/coalesce/illumination, so the
    walk mixes the inverse directions (un-coalescing a decision into two
    steps, forgetting a final refinement) with forward illuminations and,
    once available, forward splits and coalesces.  Returns
    (mechanism, f, model, tag, applied).
    """
    model, f, tag = random_sp_scf(rng)
    mech = direct_mechanism(model, f)
    n_steps = steps if steps is not None else rng.randrange(1, 7)
    applied = []
    kinds = ["uncoalesce", "unsplit", "illuminate", "split", "coalesce"]
    for _ in range(n_steps):
        order = kinds[:]
        rng.shuffle(order)
        for kind in order:
            # Every rewrite keeps the SCF the mechanism implements, f, and
            # an unsplit is ready only where each member has one outcome
            # below it, so forgetting a refinement keeps f too.
            ops = find_opportunities(mech, kind)
            if ops:
                break
        else:
            break
        t = ops[rng.randrange(len(ops))]
        mech = apply_transformation(mech, t)
        applied.append(t)
    return mech, f, model, tag, applied
