"""Strategies, truthful play, and common-strategy consistency tests."""

from __future__ import annotations

import itertools

from .gameform import MechanismError, make_step


def unconditional_strategy(mech, agent, type_idx):
    """The canonical strategy that always keeps ``type_idx`` reportable.

    At every information set whose current set still contains the type, it
    picks the unique action containing it; elsewhere (off-path, behaviorally
    irrelevant) it picks the first available action.
    Returns {infoset index: action}.
    """
    out = {}
    for k in mech.agent_infosets(agent):
        iset = mech.infosets[k]
        current = mech.theta_infoset(k)
        if type_idx in current:
            chosen = [a for a in iset.actions if type_idx in a]
            if len(chosen) != 1:
                raise MechanismError(
                    f"information set {k}: no unique truthful option for type {type_idx}")
            out[k] = chosen[0]
        else:
            out[k] = iset.actions[0]
    return out


def all_strategies(mech, agent):
    """Enumerate every pure strategy of an agent, canonical order."""
    ks = mech.agent_infosets(agent)
    menus = [mech.infosets[k].actions for k in ks]
    for combo in itertools.product(*menus):
        yield dict(zip(ks, combo))


def strategy_space_size(mech):
    total = 1
    for iset in mech.infosets:
        total *= len(iset.actions)
    return total


def play(mech, strategies):
    """Follow a complete strategy profile from the root to its terminal.

    ``strategies`` maps every agent to {infoset index: action}.
    """
    if set(strategies) != set(range(mech.model.n_agents)):
        raise MechanismError("play requires a strategy for every agent")
    v = 0
    while not mech.is_terminal(v):
        parts = {}
        for a in mech.menus[v]:
            k = mech.node_iset.get((a, v))
            if k is None:
                raise MechanismError(f"node {v}: agent {a} has no information set")
            parts[a] = strategies[a][k]
        step = make_step(parts)
        nxt = next((c for c in mech.children[v] if mech.step[c] == step), None)
        if nxt is None:
            raise MechanismError(f"node {v}: strategy profile selects a missing child")
        v = nxt
    return v


def truthful_terminal(mech, profile):
    """The unique terminal whose accrued information contains the profile."""
    return mech.truthful_terminal(profile)


def common_strategy_exists(mech, z1, z2, excluded):
    """True iff one partial strategy profile over the non-excluded agents is
    consistent with both histories.

    Works for terminal and internal nodes alike: the paths are compared
    choice-by-choice on every shared information set of each non-excluded
    agent.
    """
    excluded = frozenset(excluded)
    if excluded >= set(range(mech.model.n_agents)):
        raise MechanismError("at least one agent must remain unexcluded")
    return not (mech.conflict_agents(z1, z2) - excluded)


def consistent_profile_pairs(mech, i, j=None):
    """Stream ordered terminal pairs consistent with a common strategy profile
    of everyone except ``i`` (and ``j`` when given)."""
    excluded = frozenset({i} if j is None else {i, j})
    for z1 in mech.terminals:
        for z2 in mech.terminals:
            if not (mech.conflict_agents(z1, z2) - excluded):
                yield (z1, z2)
