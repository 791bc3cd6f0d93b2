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
from .transforms import (Illuminate, apply_illuminate, apply_transformation,
                         find_opportunities, unsplit_outcome_constant)


class _TreeSink:
    """Collects raw nodes, information-set groups, and outcomes while a
    generator walks its process tree.  The first step out of the root is
    padded with degenerate full-set actions so every agent is active there;
    agents who never truly decide keep only that degenerate root set.
    """

    def __init__(self, model):
        self.model = model
        self.nodes = [(None, None)]
        self.outcomes = {}
        self.groups = {}        # key -> [node ids]
        self.group_agent = {}   # key -> agent

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
        self.groups.setdefault(key, []).append(node)
        self.group_agent[key] = agent

    def terminal(self, node, outcome_id):
        self.outcomes[node] = outcome_id

    def build(self):
        groups = [(self.group_agent[k], vs) for k, vs in self.groups.items()]
        if len(self.nodes) > 1:
            rooted = {self.group_agent[k] for k, vs in self.groups.items() if 0 in vs}
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
    for i in range(model.n_agents):
        sink.decision(("root", i), i, 0)
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


def voting_examples():
    """The five linked voting mechanisms.

    Voter 1 moves first throughout.  g1 reports coarse menus refined in later
    steps; g2 refines voter 2's menu after the M report; g3 advances voter
    1's refinement to the root, leaving voter 2 told only whether the report
    was M; g4 pools voter 2's nodes entirely; direct is one-shot.
    """
    model, f = voting_model_and_scf()
    lr = frozenset({L, R})
    singles = [frozenset({c}) for c in (L, M, R)]
    mechs = {}

    def v2_subtree(sink, parent, own, pool_key, menu=singles):
        # Every action of a menu keeps the outcome constant, so its least
        # candidate stands for it.
        sink.decision(pool_key, 1, parent)
        for act in menu:
            t = sink.child(parent, {1: act})
            sink.terminal(t, f[(own, min(act))])

    # g1: voter 2's menu after M is {M, L+R}; after L+R voter 1 refines and
    # voter 2 reports exactly without seeing the refinement.  g2: like g1
    # with voter 2's menu after M fully refined.
    for name, after_m in (("g1", (frozenset({M}), lr)), ("g2", singles)):
        sink = _TreeSink(model)
        sink.decision("v1-root", 0, 0)
        n_m = sink.child(0, {0: frozenset({M})})
        n_lr = sink.child(0, {0: lr})
        v2_subtree(sink, n_m, M, "v2-after-m", after_m)
        sink.decision("v1-refine", 0, n_lr)
        for own in (L, R):
            v2_subtree(sink, sink.child(n_lr, {0: frozenset({own})}), own, "v2-pooled")
        mechs[name] = sink.build()

    # g3: voter 1 reports exactly at the root; voter 2 learns only whether
    # the report was M.  g4: same tree, voter 2 learns nothing.
    for name, key_of in (("g3", lambda own: "v2-after-m" if own == M else "v2-pooled"),
                         ("g4", lambda own: "v2-pooled")):
        sink = _TreeSink(model)
        sink.decision("v1-root", 0, 0)
        for own in (L, M, R):
            n_own = sink.child(0, {0: frozenset({own})})
            v2_subtree(sink, n_own, own, key_of(own))
        mechs[name] = sink.build()

    mechs["direct"] = direct_mechanism(model, f)
    return model, f, mechs


# --------------------------------------------------------------------------
# Serial dictatorship over three items
# --------------------------------------------------------------------------

def _rankings(items):
    return sorted(itertools.permutations(items))


def matching_model(n):
    """Agents with strict rankings over n items; outcomes are the n!
    matchings, compared by each agent's own assigned item only."""
    items = list(range(n))
    rankings = _rankings(items)
    item_names = [chr(ord("a") + x) for x in items]
    type_names = ["".join(item_names[x] for x in r) for r in rankings]
    matchings = _rankings(items)
    outcome_names = ["".join(item_names[m[i]] for i in range(n)) for m in matchings]
    prefs = []
    for i in range(n):
        per_type = []
        for r in rankings:
            rank_of = {item: pos for pos, item in enumerate(r)}
            levels = [[] for _ in items]
            for o_idx, m in enumerate(matchings):
                levels[rank_of[m[i]]].append(o_idx)
            per_type.append(WeakOrder([lv for lv in levels if lv]))
        prefs.append(per_type)
    model = TypeModel([type_names] * n, outcome_names, prefs)
    model.rankings = rankings
    model.matchings = matchings
    model.matching_index = {m: k for k, m in enumerate(matchings)}
    return model


def _best(ranking, pool):
    return next(x for x in ranking if x in pool)


def serial_dictatorship_scf(n=3, order=None):
    """Agents pick their favorite remaining item in the given order."""
    model = matching_model(n)
    order = list(order) if order is not None else list(range(n))
    outcomes = []
    for profile in model.profiles():
        remaining = set(range(n))
        assignment = [None] * n
        for i in order:
            pick = _best(model.rankings[profile[i]], remaining)
            assignment[i] = pick
            remaining.discard(pick)
        outcomes.append(model.matching_index[tuple(assignment)])
    return model, ScfTable(model, outcomes)


def serial_dictatorship_pair():
    """Two mechanisms for the same three-agent serial dictatorship.

    ``good``: agent 1 names her favorite item, agent 2 sees it and names her
    favorite remaining item.  ``bad``: agent 2 reports her whole ranking
    first, and agent 1 learns only whether item a tops it before picking.
    Returns (good, bad, model, f).
    """
    model, f = serial_dictatorship_scf(3)
    rankings = model.rankings
    n_items = 3

    def tops(item):
        return frozenset(t for t, r in enumerate(rankings) if r[0] == item)

    def leftover(x, y):
        return next(i for i in range(n_items) if i not in (x, y))

    good = _TreeSink(model)
    good.decision("a1-root", 0, 0)
    for x in range(n_items):
        nx = good.child(0, {0: tops(x)})
        good.decision(("a2-sees", x), 1, nx)
        rest = [y for y in range(n_items) if y != x]
        for y in rest:
            act = frozenset(t for t, r in enumerate(rankings) if _best(r, rest) == y)
            t_node = good.child(nx, {1: act})
            good.terminal(t_node, model.matching_index[(x, y, leftover(x, y))])
    good_mech = good.build()

    bad = _TreeSink(model)
    bad.decision("a2-root", 1, 0)
    for t2, r2 in enumerate(rankings):
        nt = bad.child(0, {1: frozenset({t2})})
        bad.decision("a1-told-a-top" if r2[0] == 0 else "a1-told-other", 0, nt)
        for x in range(n_items):
            t_node = bad.child(nt, {0: tops(x)})
            y = _best(r2, [z for z in range(n_items) if z != x])
            bad.terminal(t_node, model.matching_index[(x, y, leftover(x, y))])
    bad_mech = bad.build()
    return good_mech, bad_mech, model, f


# --------------------------------------------------------------------------
# Second-price auction with randomized tie-breaking
# --------------------------------------------------------------------------

def second_price_scf(n, m):
    """Values 1..m per bidder; the highest-value bidders win with equal
    probability at the second-highest value.  Preferences rank lotteries by
    exact expected payoff, so indifference is exact."""
    if n < 2 or m < 1:
        raise ValueError("need at least two bidders and one value")
    lotteries = []
    lottery_index = {}

    def outcome_id(winners, price):
        key = (tuple(sorted(winners)), price)
        if key not in lottery_index:
            lottery_index[key] = len(lotteries)
            lotteries.append(key)
        return lottery_index[key]

    # ``product`` lists the profiles in ``TypeModel.profiles()`` order.
    outcomes = []
    for profile in itertools.product(range(m), repeat=n):
        values = [v + 1 for v in profile]
        top = max(values)
        winners = [i for i, v in enumerate(values) if v == top]
        price = sorted(values, reverse=True)[1]
        outcomes.append(outcome_id(winners, price))

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
    model.lotteries = list(lotteries)
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
    model, f = second_price_scf(n, m)
    sink = _TreeSink(model)
    out_index = {model.lotteries[o]: o for o in set(f.outcomes)}

    def outcome(winners, price):
        return out_index[(tuple(sorted(winners)), price)]

    def decide(node, price, remaining, k, stays, leaves, level_start):
        b = remaining[k]
        if len(stays) < 2:
            sink.decision(("pool", b, price, level_start), b, node)
        else:
            sink.decision(("single", node), b, node)
        stay = frozenset(range(price, m))
        leave = frozenset({price - 1})
        for act, stayed in ((leave, False), (stay, True)):
            child = sink.child(node, {b: act})
            ns = stays + [b] if stayed else stays
            nl = leaves + [b] if not stayed else leaves
            if k + 1 < len(remaining):
                decide(child, price, remaining, k + 1, ns, nl, level_start)
            else:
                finish(child, price, ns, nl)

    def finish(node, price, stays, leaves):
        if len(stays) >= 2:
            if price + 1 <= m - 1:
                decide(node, price + 1, stays, 0, [], [], node)
            else:
                sink.terminal(node, outcome(stays, m))
        elif len(stays) == 1:
            sink.terminal(node, outcome(stays, price))
        else:
            sink.terminal(node, outcome(leaves, price))

    try:
        decide(0, 1, list(range(n)), 0, [], [], 0)
    finally:
        # The walks refer to each other through their closure cells; emptying
        # the cells breaks those cycles, so the sink is freed by reference
        # counting rather than left to the cycle collector.
        del decide, finish
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
    stayed; it preserves incentives."""
    model, f = second_price_scf(3, 2)
    stay, leave = frozenset({1}), frozenset({0})
    sink = _TreeSink(model)
    sink.decision("b1-root", 0, 0)
    sink.decision("b2-root", 1, 0)
    for a1 in (leave, stay):
        for a2 in (leave, stay):
            node = sink.child(0, {0: a1, 1: a2})
            sink.decision("b3-pooled", 2, node)
            for a3 in (leave, stay):
                t = sink.child(node, {2: a3})
                sink.terminal(t, f[(min(a1), min(a2), min(a3))])
    base = sink.build()
    k = next(k for k, s in enumerate(base.infosets)
             if s.agent == 2 and len(s.nodes) == 4)
    both_stayed = tuple(v for v in base.infosets[k].nodes
                        if base.theta[v][0] == stay and base.theta[v][1] == stay)
    rest = tuple(v for v in base.infosets[k].nodes if v not in both_stayed)
    return base, Illuminate(2, k, both_stayed, rest)


# --------------------------------------------------------------------------
# Top trading cycles and its staged implementation
# --------------------------------------------------------------------------

def all_priority_structures(n):
    """Every assignment of a strict agent ordering to each of the n items."""
    orders = list(itertools.permutations(range(n)))
    return [tuple(combo) for combo in itertools.product(orders, repeat=n)]


def ttc_scf(priorities, n):
    """The trading-cycles SCF for one priority structure: owners point at
    their favorite remaining item's owner; one cycle trades per round."""
    model = matching_model(n)
    rankings = model.rankings

    def outcome(profile):
        remaining_agents = set(range(n))
        remaining_items = set(range(n))
        assignment = [None] * n
        while remaining_agents:
            owner_of = {x: next(a for a in priorities[x] if a in remaining_agents)
                        for x in remaining_items}
            owners = sorted(set(owner_of.values()))
            points_to = {o: owner_of[_best(rankings[profile[o]], remaining_items)]
                         for o in owners}
            seen = []
            cur = owners[0]
            while cur not in seen:
                seen.append(cur)
                cur = points_to[cur]
            cycle = seen[seen.index(cur):]
            for o in cycle:
                assignment[o] = _best(rankings[profile[o]], remaining_items)
            for o in cycle:
                remaining_agents.discard(o)
                remaining_items.discard(assignment[o])
        return model.matching_index[tuple(assignment)]

    return model, ScfTable(model, map(outcome, model.profiles()))


def _pointer_cycles(graph):
    """Agents lying on a cycle of the pointer graph {agent: agent}."""
    in_cycle = set()
    for start in graph:
        if start in in_cycle:
            continue
        pos = {}
        path = []
        cur = start
        while cur in graph and cur not in pos and cur not in in_cycle:
            pos[cur] = len(path)
            path.append(cur)
            cur = graph[cur]
        if cur in pos:
            in_cycle.update(path[pos[cur]:])
    return in_cycle


def build_rda(priorities, n):
    """The staged implementation of the trading-cycles SCF.

    Each stage runs a simultaneous claim-or-renounce move of the active
    owners, then (only when every one of them renounced) a simultaneous
    partner designation, then sequential item assertions by the stage's
    leavers.  Active owners observe only which owners hold which remaining
    items; designations stay hidden until the trade happens.  Moves with a
    single feasible option are resolved silently rather than materialized as
    degenerate nodes.
    """
    model = matching_model(n)
    rankings = model.rankings
    sink = _TreeSink(model)

    def top(t, pool):
        return _best(rankings[t], pool)

    def expand(node, options, key_of, cur, exp, cont):
        """One simultaneous step; ``options`` maps each owner to her
        (label, action) pairs, of which those with an empty action are
        dropped.  An owner with one option left takes it silently and gets no
        node: claim/renounce, partner groups and asserted items each
        partition her current set, so that one action is the whole set.  The
        others move at ``node``, and ``cont(node2, cur2, exp2, labels)``
        receives a label for every owner."""
        options = {o: [(label, act) for label, act in opts if act]
                   for o, opts in options.items()}
        labels = {o: opts[0][0] for o, opts in options.items() if len(opts) == 1}
        movers = [o for o, opts in options.items() if len(opts) > 1]
        if not movers:
            cont(node, cur, exp, labels)
            return
        for o in movers:
            sink.decision(key_of(o), o, node)
        for combo in itertools.product(*(options[o] for o in movers)):
            child = sink.child(node, {o: act for o, (_, act) in zip(movers, combo)})
            cur2 = dict(cur)
            exp2 = dict(exp)
            picked = dict(labels)
            for o, (label, act) in zip(movers, combo):
                cur2[o] = act
                exp2[o] = exp[o] + ((key_of(o), tuple(sorted(act))),)
                picked[o] = label
            cont(child, cur2, exp2, picked)

    def stage(node, agents, items, standing, matched, cur, exp):
        if not agents:
            sink.terminal(node, model.matching_index[tuple(matched[i] for i in range(n))])
            return
        owned = {}
        for x in items:
            owned.setdefault(next(a for a in priorities[x] if a in agents), set()).add(x)
        owned = {a: frozenset(xs) for a, xs in owned.items()}
        sig = tuple(sorted((a, tuple(sorted(xs))) for a, xs in owned.items()))
        actives = sorted(a for a in owned if a not in standing)
        if not actives:
            raise MechanismError("stage with no active owner")
        options = {}
        for o in actives:
            claim = frozenset(t for t in cur[o] if top(t, items) in owned[o])
            options[o] = (("claim", claim), ("renounce", cur[o] - claim))

        def after_renounce(node2, cur2, exp2, labels):
            claimers = [o for o in actives if labels[o] == "claim"]
            if claimers:
                queue = [(o, owned[o]) for o in claimers]
                assert_phase(node2, agents, items, standing, matched, cur2, exp2,
                             queue, [])
            else:
                designate(node2, agents, items, standing, matched, cur2, exp2,
                          owned, sig)

        expand(node, options, lambda o: ("R", o, sig, exp[o]), cur, exp, after_renounce)

    def designate(node, agents, items, standing, matched, cur, exp, owned, sig):
        # Designation runs only when every active owner renounced, so none of
        # her types tops at her own items, and her current set is never empty:
        # she has no action towards herself and at least one towards a partner.
        options = {o: [(p, frozenset(t for t in cur[o] if top(t, items) in owned[p]))
                       for p in sorted(owned)]
                   for o in sorted(a for a in owned if a not in standing)}

        def after_designate(node2, cur2, exp2, labels):
            stand2 = dict(standing)
            for o, p in labels.items():
                stand2[o] = (p, owned[p])
            cycle = _pointer_cycles({o: pm for o, (pm, _) in stand2.items()})
            queue = [(o, stand2[o][1]) for o in sorted(cycle)]
            assert_phase(node2, agents, items, stand2, matched, cur2, exp2,
                         queue, [])

        expand(node, options, lambda o: ("D", o, sig, exp[o]), cur, exp, after_designate)

    def assert_phase(node, agents, items, standing, matched, cur, exp, queue, leavers):
        if not queue:
            # End of the stage: the leavers go with their items, and standing
            # designations towards a leaver lapse.
            agents2, items2 = set(agents), set(items)
            matched2 = dict(matched)
            stand2 = dict(standing)
            for o, item in leavers:
                matched2[o] = item
                agents2.discard(o)
                items2.discard(item)
                stand2.pop(o, None)
            for o in list(stand2):
                if stand2[o][0] not in agents2:
                    del stand2[o]
            stage(node, frozenset(agents2), frozenset(items2), stand2, matched2, cur, exp)
            return
        (o, menu), rest = queue[0], queue[1:]
        picks = [(x, frozenset(t for t in cur[o] if top(t, menu) == x)) for x in sorted(menu)]
        expand(node, {o: picks}, lambda o: ("A", o, node), cur, exp,
               lambda node2, cur2, exp2, labels: assert_phase(
                   node2, agents, items, standing, matched, cur2, exp2,
                   rest, leavers + [(o, labels[o])]))

    cur0 = {i: model.full_type_set(i) for i in range(n)}
    exp0 = {i: () for i in range(n)}
    try:
        stage(0, frozenset(range(n)), frozenset(range(n)), {}, {}, cur0, exp0)
    finally:
        # As in ``build_gstar``: break the cycles through the closure cells.
        del stage, designate, assert_phase
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
        done = False
        for kind in order:
            ops = find_opportunities(mech, kind)
            if kind == "unsplit":
                ops = [t for t in ops if unsplit_outcome_constant(mech, t, f)]
            if not ops:
                continue
            t = ops[rng.randrange(len(ops))]
            mech = apply_transformation(mech, t)
            applied.append(t)
            done = True
            break
        if not done:
            break
    return mech, f, model, tag, applied
