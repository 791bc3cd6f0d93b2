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


def is_ic(mech, f):
    """Truth-telling dominance, decided through terminal pairs.

    Two truthful terminals reachable under one strategy profile of everyone
    but agent i must compare favourably for every type i could hold at the
    first terminal.
    """
    model = mech.model
    _require_valid(mech, f)
    terms = mech.terminals
    n = model.n_agents
    for idx1, z1 in enumerate(terms):
        for z2 in terms[idx1 + 1:]:
            conflict = mech.conflict_agents(z1, z2)
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
    """True iff some other agent already distinguishes the two histories
    strictly before h1/h2: her information-set sequences along the two paths
    differ, so she, not the pair under test, is the first to learn about the
    divergence."""
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


def is_rp(mech, f, relaxed=False):
    """Reaction-proofness: an agent reacting across two same-action sibling
    information sets can never harm another agent's truthful comparison.

    ``relaxed`` additionally skips history pairs that some third agent could
    already tell apart strictly earlier.
    """
    model = mech.model
    _require_valid(mech, f)
    for i, k1, k2 in siblings_same_action(mech):
        s1, s2 = mech.infosets[k1], mech.infosets[k2]
        t1 = [z for v in s1.nodes for z in mech.terminals_under(v)]
        t2 = [z for v in s2.nodes for z in mech.terminals_under(v)]
        for z1 in t1:
            for z2 in t2:
                conflict = mech.conflict_agents(z1, z2) - {i}
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


def _all_indifferent(mech, model, j, outcomes):
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
    continuation outcomes, for every type j could hold)."""
    model = mech.model
    _require_valid(mech, f)
    for i, k1, k2 in siblings_same_action(mech):
        s1, s2 = mech.infosets[k1], mech.infosets[k2]
        for h1 in s1.nodes:
            for h2 in s2.nodes:
                conflict = mech.conflict_agents(h1, h2) - {i}
                if len(conflict) > 1:
                    continue
                js = conflict if conflict else set(range(model.n_agents)) - {i}
                out1 = mech.outcomes_under(h1)
                out2 = mech.outcomes_under(h2)
                for j in sorted(js):
                    if _all_indifferent(mech, model, j, out1):
                        continue
                    if _all_indifferent(mech, model, j, out2):
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
        return (not _all_indifferent(mech, model, w.agent, mech.outcomes_under(w.z1))
                and not _all_indifferent(mech, model, w.agent, mech.outcomes_under(w.z2)))
    if w.kind == "ill":
        if mech.conflict_agents(w.z1, w.z2) - {w.agent, w.reactor}:
            return False
        return not model.weakly_prefers(w.agent, w.profile1[w.agent],
                                        w.outcome1, w.outcome2)
    raise ValueError(f"unknown witness kind {w.kind}")
