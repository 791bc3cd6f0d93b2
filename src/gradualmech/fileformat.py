"""Versioned textual description of mechanisms (JSON-shaped).

A document carries the agents, their type names, the outcome names, one weak
order per type, the SCF as an explicit profile table, the history tree as
nested nodes whose steps name type subsets per agent, and the information
sets as node-id lists.  Parsing and serialization round-trip up to the
numbering of nodes.

Documents are written by :func:`dumps` below, as exactly the text the
standard ``json`` module writes with ``indent=1``.  CPython's C encoder
does not indent, so for indented text the ``json`` module runs its
pure-Python encoder, which was the largest cost of writing a document.
"""

from __future__ import annotations

import json
from itertools import islice, product
from json.encoder import encode_basestring_ascii as _quote
from operator import getitem

from .gameform import Mechanism, canonical_tree, validate
from .prefs import ScfTable, TypeModel, WeakOrder

FORMAT = "gm/1"


class ParseError(Exception):
    """A positioned diagnostic for a malformed mechanism description."""


def _fail(msg):
    raise ParseError(msg)


def _need(value, kind, what):
    """``value`` if it is a ``kind`` (list, dict, str, int), else a ParseError.
    JSON's booleans are no ints here, although ``bool`` subclasses ``int``."""
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        _fail(f"{what} must be of type {kind.__name__}, not {type(value).__name__}")
    return value


def _names(value, what):
    """A list of name strings."""
    for name in _need(value, list, what):
        _need(name, str, f"{what} entry")
    return value


class _Entries:
    """A list whose entries the caller renders: ``render(indent)`` returns
    the text of each entry, for entries whose lines start with ``indent``
    (a newline and the spaces of their depth)."""

    __slots__ = ("render",)

    def __init__(self, render):
        self.render = render


def _value(obj, indent):
    """The indent-1 text of ``obj``, whose own line starts with ``indent``.

    Entries are written by direct calls, one frame per container as in the
    ``json`` module's encoder, so the writer nests no deeper than it (a call
    from ``map`` would count twice towards the recursion limit).  Each
    container's entries are joined once.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    inner = indent + " "
    if kind is list:
        entries = []
        for item in obj:
            entries.append(_value(item, inner))
        brackets = "[]"
    elif kind is dict:
        entries = []
        for key, item in obj.items():
            entries.append(_quote(key) + ": " + _value(item, inner))
        brackets = "{}"
    elif kind is _Entries:
        entries = obj.render(inner)
        brackets = "[]"
    elif obj is True:
        return "true"
    elif obj is False:
        return "false"
    elif obj is None:
        return "null"
    elif kind is int:
        return repr(obj)
    else:
        raise TypeError(f"cannot write a {kind.__name__} as JSON")
    text = ("," + inner).join(entries)
    if not text:
        return brackets
    return brackets[0] + inner + text + indent + brackets[1]


def dumps(obj):
    """The ``json`` module's ``dumps(obj, indent=1)`` text, for dicts with
    string keys, lists, strings, ints, bools and None."""
    return _value(obj, "\n")


def _scf_rows(model, f):
    """The SCF table's rows, rendered from per-agent tables of encoded type
    names and a table of encoded outcome names: no document per row.  The
    rows are written in ``model.profiles()`` order, the table's own.
    """

    def render(row):
        entry = row + " "
        name = entry + " "
        types = [[name + _quote(t) for t in names] for names in model.type_names]
        outcomes = [_quote(x) for x in model.outcome_names]
        template = "[" + entry + "[{}" + entry + "]," + entry + "{}" + row + "]"
        return map(template.format,
                   map(",".join, product(*types)),
                   map(outcomes.__getitem__, f.outcomes))

    return _Entries(render)


def serialize_mechanism(mech, f=None):
    """Render a mechanism (and optionally its SCF) as a format document."""
    model = mech.model
    names = model.agent_names

    def action_names(agent, action):
        return [model.type_names[agent][t] for t in sorted(action)]

    # canonical_tree numbers nodes breadth-first, so every child has a
    # larger id than its parent and one pass in descending id order writes
    # each node's children before the node.
    docs = [None] * mech.n_nodes()
    for v in reversed(range(mech.n_nodes())):
        node = docs[v] = {"id": v}
        if mech.is_terminal(v):
            node["outcome"] = model.outcome_names[mech.outcome[v]]
        else:
            node["children"] = [
                {"step": {names[a]: action_names(a, act) for a, act in mech.step[c]},
                 "node": docs[c]}
                for c in mech.children[v]
            ]

    prefs = [
        [[[model.outcome_names[x] for x in sorted(level)] for level in order.levels]
         for order in model.prefs[i]]
        for i in range(model.n_agents)
    ]
    doc = {
        "format": FORMAT,
        "agents": list(names),
        "types": [list(t) for t in model.type_names],
        "outcomes": list(model.outcome_names),
        "preferences": prefs,
        "tree": docs[0],
        "infosets": [{"agent": names[s.agent], "nodes": list(s.nodes)}
                     for s in mech.infosets],
    }
    if f is not None:
        doc["scf"] = _scf_rows(model, f)
    return dumps(doc)


def parse_model(doc):
    agents = _names(doc.get("agents") or _fail("missing 'agents'"), "'agents'")
    types = _need(doc.get("types") or _fail("missing 'types'"), list, "'types'")
    outcomes = _names(doc.get("outcomes") or _fail("missing 'outcomes'"), "'outcomes'")
    prefs_doc = _need(doc.get("preferences") or _fail("missing 'preferences'"),
                      list, "'preferences'")
    if len(types) != len(agents) or len(prefs_doc) != len(agents):
        _fail("'types' and 'preferences' must list one entry per agent")
    for i, names in enumerate(types):
        _names(names, f"agent {agents[i]}: 'types'")
    out_index = {name: k for k, name in enumerate(outcomes)}
    prefs = []
    for i, per_type in enumerate(prefs_doc):
        _need(per_type, list, f"agent {agents[i]}: 'preferences'")
        if len(per_type) != len(types[i]):
            _fail(f"agent {agents[i]}: one weak order per type required")
        orders = []
        for t, levels in enumerate(per_type):
            where = f"agent {agents[i]} type {types[i][t]}"
            if not (isinstance(levels, list)
                    and all(isinstance(level, list) for level in levels)):
                _fail(f"{where}: a weak order must be a list of lists of outcome names")
            try:
                orders.append(WeakOrder(
                    [{out_index[name] for name in level} for level in levels]))
            except KeyError as e:
                _fail(f"{where}: unknown outcome {e}")
            except TypeError:
                _fail(f"{where}: outcome names must be strings")
            except ValueError as e:
                _fail(f"{where}: {e}")
        prefs.append(orders)
    try:
        return TypeModel(types, outcomes, prefs, agent_names=agents)
    except ValueError as e:
        _fail(str(e))


def parse_scf(doc, model):
    """The document's SCF table, or None, read through the model's name
    maps.  Rows may come in any order but must list each profile exactly
    once."""
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
        missing = next(islice(model.profiles(), slots.index(None), None))
        _fail(f"SCF not total: missing profile {missing}")
    return ScfTable(model, slots)


def parse_mechanism(text):
    """Parse a document into (mechanism, model, scf-or-None).

    The tree is read breadth-first by ``canonical_tree``, whose handles are
    the document's node objects: each node is checked when the pass reaches
    it, and its document id is mapped to its canonical id in one dict, which
    the outcomes and information sets are then read through.  Syntax and
    shape problems raise ParseError naming the document's node ids and the
    agents' names; the mechanism rules are left to ``validate``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    _need(doc, dict, "the document")
    if doc.get("format") != FORMAT:
        _fail(f"unsupported format {doc.get('format')!r}, want {FORMAT!r}")
    model = parse_model(doc)
    f = parse_scf(doc, model)
    agent_index, type_index = model.agent_index, model.type_index
    out_index = model.outcome_index

    ids = {}  # document id -> canonical id
    outcome = {}
    actions = {}  # (agent name, *type names) -> (agent, type set), once checked

    def action(nid, agent_name, type_names, key):
        """Check one agent's part of a step; remember it under ``key``."""
        if agent_name not in agent_index:
            _fail(f"node {nid}: unknown agent {agent_name!r}")
        a = agent_index[agent_name]
        if not _need(type_names, list, "an action"):
            _fail(f"node {nid}: empty action for agent {agent_name}")
        try:
            pair = actions[key] = (a, frozenset(map(type_index[a].__getitem__, type_names)))
        except KeyError as e:
            _fail(f"node {nid}: unknown type {e} for agent {agent_name}")
        except TypeError:
            _fail(f"node {nid}: type names must be strings")
        return pair

    # The values the document's JSON gives are of exact types, so a ``type``
    # test passes them and ``_need`` words the diagnostic of any other.
    def edges(node_doc, v):
        """Check the node ``v`` and return its (step, child node) edges."""
        if type(node_doc) is not dict:
            _need(node_doc, dict, "a tree node")
        if "id" not in node_doc:
            _fail("tree node without 'id'")
        nid = node_doc["id"]
        if type(nid) is not int:
            _need(nid, int, "a node id")
        if nid in ids:
            _fail(f"duplicate node id {nid}")
        ids[nid] = v
        if "outcome" in node_doc:
            name = node_doc["outcome"]
            if not isinstance(name, str) or name not in out_index:
                _fail(f"node {nid}: unknown outcome {name!r}")
            outcome[v] = out_index[name]
        out = []
        kids = node_doc.get("children", [])
        if type(kids) is not list:
            _need(kids, list, "'children'")
        for edge in kids:
            if type(edge) is not dict:
                _need(edge, dict, "a child")
            step_doc = edge.get("step") or _fail(f"node {nid}: child without 'step'")
            if type(step_doc) is not dict:
                _need(step_doc, dict, "a 'step'")
            parts = []
            for agent_name, type_names in step_doc.items():
                # A part seen before was checked then; the first sight of one
                # (a miss, or an unhashable name) checks it.
                key = (agent_name, *type_names) if type(type_names) is list else None
                try:
                    parts.append(actions[key])
                except (KeyError, TypeError):
                    parts.append(action(nid, agent_name, type_names, key))
            child = edge.get("node") or _fail(f"node {nid}: child without 'node'")
            parts.sort()
            out.append((tuple(parts), child))
        return out

    tree = canonical_tree(model, doc.get("tree") or _fail("missing 'tree'"), edges)

    groups = []
    for entry in _need(doc.get("infosets", []), list, "'infosets'"):
        agent_name = _need(entry, dict, "an information set").get("agent")
        if not isinstance(agent_name, str) or agent_name not in agent_index:
            _fail(f"information set for unknown agent {agent_name!r}")
        members = []
        for nid in _need(entry.get("nodes", []), list, "information set 'nodes'"):
            if isinstance(nid, bool) or not isinstance(nid, int) or nid not in ids:
                _fail(f"information set references unknown node {nid}")
            members.append(ids[nid])
        if members:
            groups.append((agent_index[agent_name], members))
    return Mechanism(model, tree, outcome, groups), model, f


def load_mechanism(text, require_scf=False):
    """Parse and validate; used by the command-line front end."""
    mech, model, f = parse_mechanism(text)
    problems = validate(mech)
    if problems:
        raise ParseError("invalid mechanism: " + "; ".join(problems))
    if require_scf and f is None:
        raise ParseError("document carries no 'scf' table")
    return mech, model, f
