"""Verdict functions: incentive compatibility, reaction-proofness, and the
indifference variant.  Each returns a witness for the first violation found
under the canonical enumeration order, so failures are stable goldens.
"""

from __future__ import annotations

import itertools
import operator
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


def _coverage(masks):
    """Bits set in at least one of the masks, and in at least two."""
    seen = twice = 0
    for mask in masks:
        twice |= seen & mask
        seen |= mask
    return seen, twice


class _Harm:
    """The partners that harm an agent's truthful comparison with a first
    terminal, as bitmasks over terminal ids.

    A pair (z1, z2) with outcomes x1 != x2 harms agent j when one of j's
    types at z1 ranks x2 strictly above x1, or one of j's types at z2 ranks
    x2 strictly below x1.  Per agent j and type t, one rank table gives, for
    every level of t, the terminals whose outcome t ranks strictly above it
    and those it ranks strictly below it (``_ranks``).  The partners of
    z1 are then an OR, at x1's level, of the first over j's types at z1 and
    of the second ANDed with the terminals holding t, over every type t;
    both ORs are memoized.  So a scan builds at most one rank table per
    (agent, type), however many pairs and outcomes it meets.
    """

    def __init__(self, mech):
        self.mech = mech
        # Bitmask of every terminal, and of the terminals of each outcome.
        self.every, self.by_outcome = 0, {}
        for z in mech.terminals:
            self.every |= 1 << z
            x = mech.outcome[z]
            self.by_outcome[x] = self.by_outcome.get(x, 0) | 1 << z
        self._tables = {}
        self._holders = {}
        self._held_below = {}
        self._partners = {}

    def _ranks(self, j, t, x1):
        """(terminals whose outcome t ranks above x1, those it ranks below).
        The rank table of (j, t) holds the prefix ORs of the terminals'
        masks grouped by t's levels: entry k covers the outcomes t ranks
        strictly above level k, and the last entry all of them, so the last
        entry XOR entry k + 1 covers those ranked strictly below."""
        table = self._tables.get((j, t))
        if table is None:
            model = self.mech.model
            levels = model.levels(j, t)
            grouped = [0] * len(model.order(j, t).levels)
            for x, mask in self.by_outcome.items():
                grouped[levels[x]] |= mask
            table = self._tables[j, t] = (
                levels, list(itertools.accumulate(grouped, operator.or_, initial=0)))
        levels, ranked = table
        k = levels[x1]
        return ranked[k], ranked[-1] ^ ranked[k + 1]

    def partners(self, j, z1):
        mech = self.mech
        x1 = mech.outcome[z1]
        types = mech.theta[z1][j]
        out = self._partners.get((j, x1, types))
        if out is None:
            out = self._held_below.get((j, x1))
            if out is None:
                holders = self._holders.get(j)
                if holders is None:
                    # Per type of j, the terminals that hold it.
                    holders = self._holders[j] = [0] * mech.model.n_types(j)
                    for z in mech.terminals:
                        for t in mech.theta[z][j]:
                            holders[t] |= 1 << z
                out = 0
                for t, held in enumerate(holders):
                    if held:
                        out |= self._ranks(j, t, x1)[1] & held
                self._held_below[j, x1] = out
            for t in types:
                out |= self._ranks(j, t, x1)[0]
            self._partners[j, x1, types] = out
        return out


class _Settled:
    """Whether a history fixes an agent's welfare: every type of hers is
    indifferent over all the outcomes below it.  The outcomes below each
    node are one bitmask (``Mechanism.outcome_masks``).  Per agent and
    outcome x, ``_common`` holds the outcomes that every type of hers puts
    on x's level: the AND, over her types, of the outcomes on the type's
    level of x, grouped by level from its level table.  The history settles
    her iff its mask lies inside that mask for its lowest outcome."""

    def __init__(self, mech):
        self.model = mech.model
        self.under = mech.outcome_masks()
        self._common = {}

    def __call__(self, j, h):
        common = self._common.get(j)
        if common is None:
            model = self.model
            outcomes = range(model.n_outcomes())
            common = self._common[j] = [~0] * len(outcomes)
            for t in model.all_types(j):
                levels = model.levels(j, t)
                same = [0] * len(model.order(j, t).levels)
                for x in outcomes:
                    same[levels[x]] |= 1 << x
                for x in outcomes:
                    common[x] &= same[levels[x]]
        mask = self.under[h]
        low = (mask & -mask).bit_length() - 1
        return not mask & ~common[low]


def _first_harmed(mech, kind, agents, reactor, z1, z2, infosets, detail):
    """Witness for the first of ``agents`` with a type at z1 that does not
    weakly prefer z1's outcome to z2's, else at z2 with the roles swapped;
    types go in ascending order.  The scans find the first harmful pair with
    masks and run this once, on that pair, to name the agent and type."""
    model = mech.model
    for agent in agents:
        for za, zb, sets in ((z1, z2, infosets), (z2, z1, infosets[::-1])):
            xa, xb = mech.outcome[za], mech.outcome[zb]
            for t in sorted(mech.theta[za][agent]):
                if not model.weakly_prefers(agent, t, xa, xb):
                    return Witness(kind, agent, reactor, za, zb,
                                   _first_profile(mech, za, agent, t), _first_profile(mech, zb),
                                   xa, xb, infosets=sets, detail=detail)
    raise AssertionError("the pair harms none of the agents")


def is_ic(mech, f):
    """Truth-telling dominance, decided through terminal pairs.

    Two truthful terminals reachable under one strategy profile of everyone
    but agent i must compare favourably for every type i could hold at the
    first terminal.  A pair qualifies when at most one agent's choices
    conflict on it, and then checks that agent, or every agent when none
    conflicts.  For each first terminal, the later terminals with another
    outcome that qualify are read off its conflict masks, and those that
    harm a checked agent off the preference tables of ``_Harm``.  The
    canonical order visits the pairs in ascending id order of the second
    terminal, the order of ``mech.terminals``, so the lowest set bit of the
    harmful partners is the first harmful pair; ``_first_harmed`` names its
    witness.
    """
    _require_valid(mech, f)
    n = mech.model.n_agents
    harm = _Harm(mech)
    for z1 in mech.terminals:
        masks = mech.conflict_masks(z1)
        x1 = mech.outcome[z1]
        later = (harm.every ^ harm.by_outcome[x1]) >> (z1 + 1) << (z1 + 1)
        once, twice = _coverage(masks)
        pending = later & ~twice
        free = pending & ~once
        harmful = 0
        for j in range(n):
            checked = masks[j] & pending | free
            if checked:
                harmful |= checked & harm.partners(j, z1)
        if harmful:
            z2 = (harmful & -harmful).bit_length() - 1
            conflict = [i for i in range(n) if masks[i] >> z2 & 1]
            return Verdict(False, _first_harmed(
                mech, "ic", conflict or range(n), None, z1, z2, (),
                "truthful outcome not weakly preferred"))
    return Verdict(True)


def _divergence(mech, others, h1, s2, under2):
    """Relaxed RP, for a first history h1 and second set s2: per member h2,
    the agents of ``others`` whose information-set sequences up to h1 and h2
    differ; and per agent of ``others``, the terminals under the members
    whose divergence is at most hers."""
    seqs = {h: [tuple(e[0] for e in exp[h]) for exp in mech.experience]
            for h in (h1, *s2.nodes)}
    divergent = {h2: {k for k in others if seqs[h1][k] != seqs[h2][k]} for h2 in s2.nodes}
    allowed = [0] * len(others)
    for h2, div in divergent.items():
        for idx, j in enumerate(others):
            if not div - {j}:
                allowed[idx] |= under2[h2]
    return divergent, allowed


def is_rp(mech, f, relaxed=False):
    """Reaction-proofness: an agent reacting across two same-action sibling
    information sets can never harm another agent's truthful comparison.

    ``relaxed`` additionally skips history pairs that some third agent could
    already tell apart strictly earlier: her information-set sequences up to
    the two members differ, so she, not the pair under test, is the first to
    learn about the divergence.  An agent j is then checked only on the
    members h2 whose divergence from h1 is at most j's own.

    ``siblings_same_action`` lists the pairs of one first set k1 together,
    so the scan builds k1's rows once for all its later siblings k2.  Per
    terminal z1 under k1's members, in ``terminals_under`` order, the row
    holds, per agent j other than i, the second terminals that harm j's
    comparison with z1, built as in ``is_ic`` over ``later``, the terminals
    under every k2.  A row depends on k2 only through a final AND, so a pair
    (k1, k2) costs one AND per row and agent, with k2's terminals or, in
    ``relaxed`` mode, with those j may react on (``_divergence``).  The
    pairs stay in canonical order, k2 by k2 and then z1 by z1, so the first
    hit is the pair scan's.  Its second terminals go in the tree order of
    ``terminals_under`` over k2's members, not in id order: the witness
    comes from the first member whose terminals meet the row and the first
    of its terminals in that order.
    """
    _require_valid(mech, f)
    n = mech.model.n_agents
    harm = _Harm(mech)
    below = mech.subtree_masks()
    for (i, k1), pairs in itertools.groupby(siblings_same_action(mech), lambda p: p[:2]):
        others = [j for j in range(n) if j != i]
        seconds, later = [], 0
        for _, _, k2 in pairs:
            under2 = {h: below[h] & harm.every for h in mech.infosets[k2].nodes}
            in_t2 = 0
            for mask in under2.values():
                in_t2 |= mask
            seconds.append((k2, under2, in_t2))
            later |= in_t2
        rows = []  # (h1, [(z1, one mask per others)])
        for h1 in mech.infosets[k1].nodes:
            row = []
            for z1 in mech.terminals_under(h1):
                masks = mech.conflict_masks(z1)
                outside = [masks[j] for j in others]
                once, twice = _coverage(outside)
                qualify = later & ~(harm.by_outcome[mech.outcome[z1]] | twice)
                free = qualify & ~once
                per_j = []
                for j, mask in zip(others, outside):
                    checked = mask & qualify | free
                    if checked:
                        checked &= harm.partners(j, z1)
                    per_j.append(checked)
                if any(per_j):
                    row.append((z1, per_j))
            if row:
                rows.append((h1, row))
        for k2, under2, in_t2 in seconds:
            s2 = mech.infosets[k2]
            allowed = [in_t2] * len(others)
            for h1, row in rows:
                if relaxed:
                    divergent, allowed = _divergence(mech, others, h1, s2, under2)
                for z1, per_j in row:
                    harmful = 0
                    for mask, ok in zip(per_j, allowed):
                        harmful |= mask & ok
                    if not harmful:
                        continue
                    h2 = next(h for h in s2.nodes if under2[h] & harmful)
                    z2 = next(z for z in mech.terminals_under(h2) if harmful >> z & 1)
                    masks = mech.conflict_masks(z1)
                    js = [j for j in others if masks[j] >> z2 & 1] or others
                    if relaxed:
                        js = [j for j in js if not divergent[h2] - {j}]
                    return Verdict(False, _first_harmed(
                        mech, "rp", js, i, z1, z2, (k1, k2),
                        "reaction across sibling information sets"))
    return Verdict(True)


def is_irp(mech, f):
    """Indifference reaction-proofness: whenever a reaction pair of histories
    is reachable under a common outside strategy profile, at least one of the
    two histories already fixes agent j's welfare (full indifference over all
    continuation outcomes, for every type j could hold; ``_Settled``).

    As in ``is_rp``, the scan builds a first set k1's rows once for all its
    later siblings k2.  Per member h1 of k1, the row holds, for each agent j
    other than i who is unsettled at h1, the later siblings' members at
    which at most one agent other than i conflicts with h1, and that agent
    is j or none is: a mask over node ids, built as in ``is_ic``.  A pair
    (k1, k2) then costs one AND per row entry with the members of k2 at
    which j is unsettled.  The pairs stay in canonical order, and the
    members of k2 go in ascending id order, the order of ``InfoSet.nodes``,
    so the lowest set bit is the witness's h2, and its agent is the first
    checked agent unsettled at both."""
    _require_valid(mech, f)
    n = mech.model.n_agents
    settled = _Settled(mech)
    for (i, k1), pairs in itertools.groupby(siblings_same_action(mech), lambda p: p[:2]):
        others = [j for j in range(n) if j != i]
        k2s = [k2 for _, _, k2 in pairs]
        later = sum(1 << h for k2 in k2s for h in mech.infosets[k2].nodes)
        rows = []  # (h1, [(j, the later members j is checked at)])
        for h1 in mech.infosets[k1].nodes:
            checked = [j for j in others if not settled(j, h1)]
            if not checked:
                continue
            masks = mech.conflict_masks(h1)
            once, twice = _coverage([masks[j] for j in others])
            qualify = later & ~twice
            free = qualify & ~once
            row = [(j, mask) for j in checked if (mask := masks[j] & qualify | free)]
            if row:
                rows.append((h1, row))
        for k2 in k2s:
            members = mech.infosets[k2].nodes
            for h1, row in rows:
                bad = 0
                for j, mask in row:
                    bad |= mask & sum(1 << h for h in members if not settled(j, h))
                if bad:
                    h2 = (bad & -bad).bit_length() - 1
                    masks = mech.conflict_masks(h1)
                    js = [j for j in others if masks[j] >> h2 & 1] or others
                    j = next(j for j in js if not settled(j, h1) and not settled(j, h2))
                    return Verdict(False, Witness(
                        "irp", j, i, h1, h2, None, None, None, None,
                        infosets=(k1, k2),
                        detail="neither history settles the reacting-on agent"))
    return Verdict(True)


def verify_witness(mech, f, w):
    """Independently re-check a witness through play/preference primitives."""
    if w.kind not in ("ic", "rp", "irp", "ill"):
        raise ValueError(f"unknown witness kind {w.kind}")
    # Every kind names a pair on which at most the harmed agent and the
    # reactor, if there is one, have conflicting choices.
    if mech.conflict_agents(w.z1, w.z2) - {w.agent, w.reactor}:
        return False
    if w.kind == "irp":
        settled = _Settled(mech)
        return not settled(w.agent, w.z1) and not settled(w.agent, w.z2)
    if w.kind != "ill":
        if mech.truthful_terminal(w.profile1) != w.z1:
            return False
        if mech.truthful_terminal(w.profile2) != w.z2:
            return False
        if f[w.profile1] != w.outcome1 or f[w.profile2] != w.outcome2:
            return False
    return not mech.model.weakly_prefers(w.agent, w.profile1[w.agent],
                                         w.outcome1, w.outcome2)
