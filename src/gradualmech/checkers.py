"""Verdict functions: incentive compatibility, reaction-proofness, and the
indifference variant.  Each returns a witness for the first violation found
under the canonical enumeration order, so failures are stable goldens.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gameform import MechanismError, implements, siblings_same_action, validate


@dataclass(frozen=True)
class Witness:
    """A concrete violation, re-checkable independently of the search."""

    kind: str                  # "ic" | "rp" | "irp" | "ill"
    agent: int                 # the agent whose truth-telling is harmed
    reactor: int | None        # the agent whose extra information enables it
    z1: int | None
    z2: int | None
    profile1: tuple | None
    profile2: tuple | None
    outcome1: int | None
    outcome2: int | None
    infosets: tuple = ()
    detail: str = ""


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Witness | None = None

    def __bool__(self):
        return self.holds


def _require_valid(mech, f):
    problems = validate(mech)
    if problems:
        raise MechanismError("invalid mechanism: " + "; ".join(problems[:3]))
    if not implements(mech, f):
        raise MechanismError("mechanism does not implement the given SCF")


def _first_profile(mech, z, agent=None, type_idx=None):
    """Lexicographically first profile carried by a terminal, optionally with
    one coordinate pinned."""
    parts = [min(s) for s in mech.theta[z]]
    if agent is not None:
        parts[agent] = type_idx
    return tuple(parts)


def _terminal_masks(mech):
    """Bitmask of every terminal, and of the terminals of each outcome."""
    every, by_outcome = 0, {}
    for z in mech.terminals:
        bit = 1 << z
        every |= bit
        x = mech.outcome[z]
        by_outcome[x] = by_outcome.get(x, 0) | bit
    return every, by_outcome


def _two_or_more(masks):
    """Bits set in at least two of the masks."""
    seen = twice = 0
    for mask in masks:
        twice |= seen & mask
        seen |= mask
    return twice


def _first_harmed(mech, kind, agents, reactor, z1, z2, infosets, detail):
    """Witness for the first of ``agents`` with a type at z1 that does not
    weakly prefer z1's outcome to z2's, else at z2 with the roles swapped;
    types go in ascending order.  It runs once per qualifying terminal pair,
    so the two directions are spelled out rather than looped over."""
    model = mech.model
    x1, x2 = mech.outcome[z1], mech.outcome[z2]
    for agent in agents:
        for t in sorted(mech.theta[z1][agent]):
            if not model.weakly_prefers(agent, t, x1, x2):
                return Witness(kind, agent, reactor, z1, z2,
                               _first_profile(mech, z1, agent, t), _first_profile(mech, z2),
                               x1, x2, infosets=infosets, detail=detail)
        for t in sorted(mech.theta[z2][agent]):
            if not model.weakly_prefers(agent, t, x2, x1):
                return Witness(kind, agent, reactor, z2, z1,
                               _first_profile(mech, z2, agent, t), _first_profile(mech, z1),
                               x2, x1, infosets=infosets[::-1], detail=detail)
    return None


def is_ic(mech, f):
    """Truth-telling dominance, decided through terminal pairs.

    Two truthful terminals reachable under one strategy profile of everyone
    but agent i must compare favourably for every type i could hold at the
    first terminal.  A pair qualifies when at most one agent's choices
    conflict on it; for each first terminal, the later terminals with another
    outcome that qualify are read off its conflict masks and visited in
    ascending id order, the order of ``mech.terminals``.
    """
    _require_valid(mech, f)
    n = mech.model.n_agents
    every, by_outcome = _terminal_masks(mech)
    for z1 in mech.terminals:
        masks = mech.conflict_masks(z1)
        x1 = mech.outcome[z1]
        later = (every ^ by_outcome[x1]) >> (z1 + 1) << (z1 + 1)
        pending = later & ~_two_or_more(masks)
        while pending:
            low = pending & -pending
            pending ^= low
            z2 = low.bit_length() - 1
            conflict = [i for i in range(n) if masks[i] >> z2 & 1]
            w = _first_harmed(mech, "ic", conflict or range(n), None, z1, z2, (),
                              "truthful outcome not weakly preferred")
            if w:
                return Verdict(False, w)
    return Verdict(True)


def is_rp(mech, f, relaxed=False):
    """Reaction-proofness: an agent reacting across two same-action sibling
    information sets can never harm another agent's truthful comparison.

    ``relaxed`` additionally skips history pairs that some third agent could
    already tell apart strictly earlier: her information-set sequences up to
    the two members differ, so she, not the pair under test, is the first to
    learn about the divergence.

    The second terminals are visited in the tree order of
    ``terminals_under``, not in id order, so each one's bit is tested in
    turn rather than walking the set bits of the qualifying ones.
    """
    _require_valid(mech, f)
    n = mech.model.n_agents
    _, by_outcome = _terminal_masks(mech)
    for i, k1, k2 in siblings_same_action(mech):
        s1, s2 = mech.infosets[k1], mech.infosets[k2]
        ks = (k1, k2)
        t1 = [(h, z) for h in s1.nodes for z in mech.terminals_under(h)]
        t2 = [(h, z) for h in s2.nodes for z in mech.terminals_under(h)]
        in_t2 = 0
        for _, z2 in t2:
            in_t2 |= 1 << z2
        others = [j for j in range(n) if j != i]
        if relaxed:
            seqs = {h: [tuple(e[0] for e in mech.experience[k][h]) for k in others]
                    for h in s1.nodes + s2.nodes}
            divergent = {(h1, h2): frozenset(k for k, a, b in zip(others, seqs[h1], seqs[h2])
                                             if a != b)
                         for h1 in s1.nodes for h2 in s2.nodes}
        for h1, z1 in t1:
            masks = mech.conflict_masks(z1)
            x1 = mech.outcome[z1]
            qualify = (in_t2 & ~by_outcome[x1]
                       & ~_two_or_more(masks[j] for j in others))
            if not qualify:
                continue
            for h2, z2 in t2:
                if not qualify >> z2 & 1:
                    continue
                js = [j for j in others if masks[j] >> z2 & 1] or others
                if relaxed:
                    js = [j for j in js if not divergent[h1, h2] - {j}]
                w = _first_harmed(mech, "rp", js, i, z1, z2, ks,
                                  "reaction across sibling information sets")
                if w:
                    return Verdict(False, w)
    return Verdict(True)


def _all_indifferent(model, j, outcomes):
    for tj in model.all_types(j):
        order = model.order(j, tj)
        levels = {order.level(x) for x in outcomes}
        if len(levels) > 1:
            return False
    return True


def is_irp(mech, f):
    """Indifference reaction-proofness: whenever a reaction pair of histories
    is reachable under a common outside strategy profile, at least one of the
    two histories already fixes agent j's welfare (full indifference over all
    continuation outcomes, for every type j could hold).  The agents other
    than i that conflict on a pair are read off the first history's conflict
    masks."""
    model = mech.model
    _require_valid(mech, f)
    for i, k1, k2 in siblings_same_action(mech):
        s1, s2 = mech.infosets[k1], mech.infosets[k2]
        others = [j for j in range(model.n_agents) if j != i]
        for h1 in s1.nodes:
            masks = mech.conflict_masks(h1)
            skip = _two_or_more(masks[j] for j in others)
            out1 = mech.outcomes_under(h1)
            for h2 in s2.nodes:
                if skip >> h2 & 1:
                    continue
                out2 = mech.outcomes_under(h2)
                for j in [j for j in others if masks[j] >> h2 & 1] or others:
                    if _all_indifferent(model, j, out1):
                        continue
                    if _all_indifferent(model, j, out2):
                        continue
                    return Verdict(False, Witness(
                        "irp", j, i, h1, h2, None, None, None, None,
                        infosets=(k1, k2),
                        detail="neither history settles the reacting-on agent"))
    return Verdict(True)


def verify_witness(mech, f, w):
    """Independently re-check a witness through play/preference primitives."""
    model = mech.model
    if w.kind in ("ic", "rp"):
        if mech.conflict_agents(w.z1, w.z2) - {w.agent, w.reactor if w.reactor is not None else w.agent}:
            return False
        if mech.truthful_terminal(w.profile1) != w.z1:
            return False
        if mech.truthful_terminal(w.profile2) != w.z2:
            return False
        if f[w.profile1] != w.outcome1 or f[w.profile2] != w.outcome2:
            return False
        return not model.weakly_prefers(w.agent, w.profile1[w.agent],
                                        w.outcome1, w.outcome2)
    if w.kind == "irp":
        if mech.conflict_agents(w.z1, w.z2) - {w.agent, w.reactor}:
            return False
        return (not _all_indifferent(model, w.agent, mech.outcomes_under(w.z1))
                and not _all_indifferent(model, w.agent, mech.outcomes_under(w.z2)))
    if w.kind == "ill":
        if mech.conflict_agents(w.z1, w.z2) - {w.agent, w.reactor}:
            return False
        return not model.weakly_prefers(w.agent, w.profile1[w.agent],
                                        w.outcome1, w.outcome2)
    raise ValueError(f"unknown witness kind {w.kind}")
