"""DOT rendering of mechanism trees.

One graph node per history; solid tree edges carry the acting agents' type
subsets; dashed undirected edges link consecutive members of each non-trivial
information set.  Output is deterministic.
"""

from __future__ import annotations


def _esc(text):
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(mech):
    model = mech.model
    lines = ["digraph mechanism {", "  rankdir=TB;", '  node [shape=circle, fontsize=10];']

    for v in range(mech.n_nodes()):
        if mech.is_terminal(v):
            label = f"{v}\\n{model.outcome_names[mech.outcome[v]]}"
            lines.append(f'  n{v} [shape=box, label="{_esc(label)}"];')
        else:
            acting = ",".join(model.agent_names[a] for a in mech.menus[v])
            lines.append(f'  n{v} [label="{_esc(f"{v}")}", xlabel="{_esc(acting)}"];')

    for v in range(mech.n_nodes()):
        for c in mech.children[v]:
            parts = []
            for a, act in mech.step[c]:
                types = "".join(model.type_names[a][t] for t in sorted(act)) \
                    if all(len(model.type_names[a][t]) == 1 for t in act) \
                    else ",".join(model.type_names[a][t] for t in sorted(act))
                parts.append(f"{model.agent_names[a]}:{{{types}}}")
            label = " ".join(parts)
            lines.append(f'  n{v} -> n{c} [label="{_esc(label)}"];')

    for k, s in enumerate(mech.infosets):
        if len(s.nodes) < 2:
            continue
        for a, b in zip(s.nodes, s.nodes[1:]):
            lines.append(
                f'  n{a} -> n{b} [style=dashed, dir=none, color=gray, '
                f'label="{_esc(model.agent_names[s.agent])}"];')

    lines.append("}")
    return "\n".join(lines) + "\n"
