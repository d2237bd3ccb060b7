"""Diagram structures and DOT export.

Two pictures of the same logic.  The incidence view is bipartite: atoms as
circle nodes, contexts as box nodes, an edge per membership; it carries the
same information as the usual smooth-curve drawings without any layout
work.  The dual view flips the roles: contexts become the nodes and two of
them are joined when they share atoms, the shared atoms labeling the edge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import Logic


@dataclass(frozen=True)
class DualEdge:
    """Unordered link between two contexts, labeled by their shared atoms."""

    left: str
    right: str
    atoms: tuple[str, ...]


@dataclass(frozen=True)
class DualGraph:
    nodes: tuple[str, ...]
    edges: tuple[DualEdge, ...]

    def degree(self, node: str) -> int:
        return sum(1 for e in self.edges if node in (e.left, e.right))


def tkadlec_dual(logic: Logic) -> DualGraph:
    """Contexts as nodes; an edge wherever two contexts share atoms.

    Nodes keep declaration order; edges pair contexts in declaration order
    (left before right) with the shared atoms sorted.  Contexts sharing
    several atoms still give a single edge.
    """
    owners: dict[str, list[int]] = {}
    for i, c in enumerate(logic.contexts):
        for m in set(c.members):
            owners.setdefault(m, []).append(i)
    shared: dict[tuple[int, int], list[str]] = {}
    for atom, indices in owners.items():
        for pair in itertools.combinations(indices, 2):
            shared.setdefault(pair, []).append(atom)
    labels = tuple(c.label for c in logic.contexts)
    edges = [DualEdge(labels[i], labels[j], tuple(sorted(shared[i, j]))) for i, j in sorted(shared)]
    return DualGraph(nodes=labels, edges=tuple(edges))


DOT_MODES = ("greechie-incidence", "tkadlec")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _identifier(label: str, prefix: str, used: set[str]) -> str:
    base = prefix + "".join(ch if ch.isalnum() else "_" for ch in label)
    candidate = base
    counter = 2
    while candidate in used:
        candidate = f"{base}_{counter}"
        counter += 1
    used.add(candidate)
    return candidate


def emit_dot(logic: Logic, mode: str = "greechie-incidence") -> str:
    """Render the logic as DOT text in either mode.

    Node identifiers are sanitized (alphanumerics kept, everything else
    becomes an underscore, prefixed a_/c_ by role); original labels appear
    as quoted display labels.  Atoms draw as circles, contexts as boxes.
    """
    if mode not in DOT_MODES:
        raise ValueError(f"mode must be one of {DOT_MODES}, got {mode!r}")

    used: set[str] = set()
    lines = ["graph logic {"]
    if mode == "greechie-incidence":
        atom_ids = {label: _identifier(label, "a_", used) for label in logic.labels}
        for label, node_id in atom_ids.items():
            lines.append(f"  {node_id} [label={_quote(label)}, shape=circle];")
    context_ids = {c.label: _identifier(c.label, "c_", used) for c in logic.contexts}
    for label, node_id in context_ids.items():
        lines.append(f"  {node_id} [label={_quote(label)}, shape=box];")
    if mode == "greechie-incidence":
        for ctx in logic.contexts:
            for member in ctx.members:
                lines.append(f"  {context_ids[ctx.label]} -- {atom_ids[member]};")
    else:
        for edge in tkadlec_dual(logic).edges:
            label = ",".join(edge.atoms)
            lines.append(
                f"  {context_ids[edge.left]} -- {context_ids[edge.right]} "
                f"[label={_quote(label)}];"
            )

    lines.append("}")
    return "\n".join(lines) + "\n"
