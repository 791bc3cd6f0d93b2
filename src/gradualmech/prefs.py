"""Weak-order preferences, type models, and social choice tables."""

from __future__ import annotations

import itertools
import math
import operator


class WeakOrder:
    """A complete transitive preference stored as indifference levels.

    ``levels`` is an ordered list of disjoint non-empty sets of outcome ids;
    everything in level k is strictly preferred to everything in level k+1,
    and outcomes sharing a level are indifferent.  Completeness and
    transitivity hold by construction.
    """

    __slots__ = ("levels", "_level_of")

    def __init__(self, levels):
        self.levels = tuple(frozenset(lv) for lv in levels)
        self._level_of = {}
        for k, lv in enumerate(self.levels):
            if not lv:
                raise ValueError("empty indifference level")
            for x in lv:
                if x in self._level_of:
                    raise ValueError(f"outcome {x} appears in two levels")
                self._level_of[x] = k

    def level(self, outcome):
        return self._level_of[outcome]

    def outcomes(self):
        return frozenset(self._level_of)

    def __eq__(self, other):
        return isinstance(other, WeakOrder) and self.levels == other.levels

    def __hash__(self):
        return hash(self.levels)

    def __repr__(self):
        return f"WeakOrder({[sorted(lv) for lv in self.levels]})"


class TypeModel:
    """Agents, their finite type lists, and one weak order per type.

    All weak orders range over the shared outcome list.  Outcome identity is
    positional; any outcome semantics (payoffs, matchings) live with the
    code that constructed the model.  ``agent_index``, ``type_index`` (one
    map per agent) and ``outcome_index`` map names to ids.
    """

    def __init__(self, type_names, outcome_names, prefs, agent_names=None):
        self.type_names = tuple(tuple(names) for names in type_names)
        self.outcome_names = tuple(outcome_names)
        self.n_agents = len(self.type_names)
        self.agent_names = tuple(agent_names) if agent_names else tuple(
            f"agent{i}" for i in range(self.n_agents))
        if len(self.agent_names) != self.n_agents:
            raise ValueError("agent_names length mismatch")
        # Documents refer to agents, types and outcomes by name, so names
        # must not repeat: each name map must be as long as its list.  The
        # maps are shared and not to be mutated.
        self.agent_index = {name: i for i, name in enumerate(self.agent_names)}
        self.type_index = tuple({name: t for t, name in enumerate(names)}
                                for names in self.type_names)
        self.outcome_index = {name: x for x, name in enumerate(self.outcome_names)}
        if len(self.agent_index) != self.n_agents:
            raise ValueError("duplicate agent names")
        if len(self.outcome_index) != len(self.outcome_names):
            raise ValueError("duplicate outcome names")
        self.prefs = tuple(tuple(p) for p in prefs)
        if len(self.prefs) != self.n_agents:
            raise ValueError("prefs must cover every agent")
        full = frozenset(range(len(self.outcome_names)))
        for i, per_type in enumerate(self.prefs):
            if len(per_type) != len(self.type_names[i]):
                raise ValueError(f"agent {i}: one weak order per type required")
            if len(self.type_index[i]) != len(per_type):
                raise ValueError(f"agent {i}: duplicate type names")
            for order in per_type:
                if order.outcomes() != full:
                    raise ValueError(f"agent {i}: weak order does not cover all outcomes")
        # Rank strides: agent i's type counts once per profile of the agents
        # after her, since ``profiles()`` varies the last agent fastest.
        self.strides = tuple(math.prod(map(len, self.type_names[i + 1:]))
                             for i in range(self.n_agents))

    def n_types(self, agent):
        return len(self.type_names[agent])

    def all_types(self, agent):
        return range(len(self.type_names[agent]))

    def full_type_set(self, agent):
        return frozenset(range(len(self.type_names[agent])))

    def n_outcomes(self):
        return len(self.outcome_names)

    def profiles(self):
        """Iterate all complete type profiles in lexicographic order."""
        return itertools.product(*(self.all_types(i) for i in range(self.n_agents)))

    def n_profiles(self):
        return math.prod(map(len, self.type_names))

    def rank(self, profile):
        """The profile's index in ``profiles()`` order: its mixed-radix
        number, agent 0's type the most significant digit.  KeyError for a
        wrong length or an unknown type id, as a profile-keyed dict raises."""
        if len(profile) != self.n_agents or not all(
                0 <= t < len(names) for t, names in zip(profile, self.type_names)):
            raise KeyError(profile)
        return sum(map(operator.mul, profile, self.strides))

    def order(self, agent, type_idx):
        return self.prefs[agent][type_idx]

    def levels(self, agent, type_idx):
        """The type's weak order as a table from outcome id to level: it
        weakly prefers x to y iff ``levels[x] <= levels[y]``.  The order's
        own table, shared and not to be mutated."""
        return self.prefs[agent][type_idx]._level_of

    def weakly_prefers(self, agent, type_idx, x, y):
        order = self.prefs[agent][type_idx]
        return order.level(x) <= order.level(y)

    def strictly_prefers(self, agent, type_idx, x, y):
        order = self.prefs[agent][type_idx]
        return order.level(x) < order.level(y)

    def indifferent(self, agent, type_idx, x, y):
        order = self.prefs[agent][type_idx]
        return order.level(x) == order.level(y)

    def __eq__(self, other):
        return (isinstance(other, TypeModel)
                and self.type_names == other.type_names
                and self.outcome_names == other.outcome_names
                and self.prefs == other.prefs)

    def __repr__(self):
        return (f"TypeModel(agents={self.n_agents}, "
                f"types={[len(t) for t in self.type_names]}, "
                f"outcomes={len(self.outcome_names)})")


class ScfTable:
    """A total map from complete type profiles to outcome ids, kept as one
    tuple of outcome ids indexed by profile rank (``TypeModel.rank``), so
    in ``model.profiles()`` order."""

    def __init__(self, model, outcomes):
        self.model = model
        self.outcomes = tuple(outcomes)
        n_out = model.n_outcomes()
        if len(self.outcomes) != model.n_profiles():
            raise ValueError(f"SCF table has {len(self.outcomes)} entries, not one per profile")
        if self.outcomes and (min(self.outcomes) < 0 or max(self.outcomes) >= n_out):
            r, x = next((r, x) for r, x in enumerate(self.outcomes) if not 0 <= x < n_out)
            profile = next(itertools.islice(model.profiles(), r, None))
            raise ValueError(f"SCF maps {profile} to unknown outcome {x}")

    def __getitem__(self, profile):
        return self.outcomes[self.model.rank(profile)]

    def __eq__(self, other):
        return isinstance(other, ScfTable) and self.outcomes == other.outcomes

    def items(self):
        return zip(self.model.profiles(), self.outcomes)


def is_strategy_proof(model, f):
    """Check dominance of truthful reporting in the one-shot sense.

    Returns ``(True, None)`` or ``(False, (agent, true_type, misreport,
    others))`` with the first violation in (agent, type, misreport, others)
    enumeration order.  For agent i the profiles that differ only in i's
    type lie ``strides[i]`` apart; the ranks with i's type 0, ascending,
    list the others' types in their order.  So each outside profile's
    strided slice of the table is the menu of outcomes i's reports reach,
    and a true type holds there iff its level of the truthful outcome, the
    menu's entry at that type, is its best level on the menu.  Outside
    profiles with equal menus are decided once, and only the first type
    found failing is scanned again, pair by pair, for the first witness.
    """
    out = f.outcomes
    for i in range(model.n_agents):
        stride, n_i = model.strides[i], model.n_types(i)
        bases = [hi + lo for hi in range(0, len(out), stride * n_i) for lo in range(stride)]
        menus = set(map(out.__getitem__, map(
            slice, bases, map(operator.add, bases, itertools.repeat(stride * n_i)),
            itertools.repeat(stride))))
        for ti in range(n_i):
            level = model.levels(i, ti).__getitem__
            best = map(min, map(map, itertools.repeat(level), menus))
            if all(map(operator.eq, map(level, map(operator.itemgetter(ti), menus)), best)):
                continue
            truth = ti * stride
            for mis in range(n_i):
                lie = mis * stride
                for base in bases:
                    if level(out[base + truth]) > level(out[base + lie]):
                        rest = next(itertools.islice(model.profiles(), base, None))
                        return False, (i, ti, mis, rest[:i] + rest[i + 1:])
    return True, None
