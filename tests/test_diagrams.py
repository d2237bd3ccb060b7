"""Dual graphs and DOT output.

check_dot below is a small structural validator written for these tests: it
tokenizes statements, enforces the graph skeleton, and collects node ids and
undirected edges so assertions can compare against the logic.
"""

from __future__ import annotations

import random
import re

import pytest

from greechie import diagrams
from greechie.diagrams import (
    DOT_MODES,
    DualEdge,
    DualGraph,
    emit_dot,
    tkadlec_dual,
)
from greechie.model import Atom, make_logic
from greechie.gls import load_corpus

IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
NODE_STMT = re.compile(
    r"^(?P<id>\w+) \[label=\"(?P<label>[^\"]*)\", shape=(?P<shape>circle|box)\];$"
)
EDGE_STMT = re.compile(
    r"^(?P<left>\w+) -- (?P<right>\w+)(?: \[label=\"(?P<label>[^\"]*)\"\])?;$"
)


def check_dot(text: str) -> tuple[dict[str, tuple[str, str]], list[tuple[str, str, str | None]]]:
    """Validate DOT structure; return nodes {id: (label, shape)} and edges."""
    lines = text.splitlines()
    assert lines[0] == "graph logic {"
    assert lines[-1] == "}"
    assert text.endswith("}\n")
    nodes: dict[str, tuple[str, str]] = {}
    edges: list[tuple[str, str, str | None]] = []
    for raw in lines[1:-1]:
        assert raw.startswith("  ") and not raw.startswith("   ")
        stmt = raw[2:]
        node = NODE_STMT.match(stmt)
        edge = EDGE_STMT.match(stmt)
        assert node or edge, f"unparsable statement: {stmt!r}"
        if node:
            ident = node.group("id")
            assert IDENT.match(ident)
            assert ident not in nodes, f"node {ident} declared twice"
            nodes[ident] = (node.group("label"), node.group("shape"))
        else:
            assert edge is not None
            left, right = edge.group("left"), edge.group("right")
            assert left in nodes and right in nodes, "edge before declaration"
            edges.append((left, right, edge.group("label")))
    return nodes, edges


GAMMA1_DUAL = {
    ("a", "b"): ("C",),
    ("a", "f"): ("A",),
    ("a", "g"): ("B",),
    ("b", "c"): ("E",),
    ("c", "d"): ("G",),
    ("d", "e"): ("I",),
    ("d", "g"): ("H",),
    ("e", "f"): ("K",),
}


class TestTkadlecDual:
    def test_gamma1_cycle_with_chords(self, gamma1):
        dual = tkadlec_dual(gamma1)
        assert dual.nodes == tuple("abcdefg")
        assert {
            (e.left, e.right): e.atoms for e in dual.edges
        } == GAMMA1_DUAL

    def test_cabello_is_four_regular(self, cabello18):
        dual = tkadlec_dual(cabello18)
        assert len(dual.nodes) == 9
        assert len(dual.edges) == 18
        assert all(len(e.atoms) == 1 for e in dual.edges)
        assert all(dual.degree(node) == 4 for node in dual.nodes)

    def test_star_is_a_star(self, corpus):
        dual = tkadlec_dual(corpus["star4.gls"])
        assert len(dual.edges) == 4
        assert all(e.left == "a" for e in dual.edges)
        assert dual.degree("a") == 4
        assert [e.atoms for e in dual.edges] == [
            ("ab",), ("ac",), ("ad",), ("ae",)
        ]

    def test_single_context_has_no_edges(self):
        logic = make_logic(
            3,
            atoms=[Atom("X"), Atom("Y")],
            contexts=[("X", "Y")],
        )
        dual = tkadlec_dual(logic)
        assert dual == DualGraph(nodes=("a",), edges=())

    def test_every_shared_atom_is_reported(self, corpus):
        for logic in corpus.values():
            dual = tkadlec_dual(logic)
            from_edges = {
                (e.left, e.right): set(e.atoms) for e in dual.edges
            }
            expected: dict[tuple[str, str], set[str]] = {}
            for atom in logic.atoms:
                owners = logic.contexts_of[atom.label]
                for i, x in enumerate(owners):
                    for y in owners[i + 1:]:
                        key = (x, y) if x <= y else (y, x)
                        expected.setdefault(key, set()).add(atom.label)
            assert from_edges == expected

    def test_multi_atom_overlap_collapses_to_one_edge(self):
        logic = make_logic(
            4,
            atoms=[Atom(x) for x in "ABCDEF"],
            contexts=[("A", "B", "C"), ("A", "B", "D"), ("C", "E", "F")],
        )
        dual = tkadlec_dual(logic)
        assert DualEdge(left="a", right="b", atoms=("A", "B")) in dual.edges
        assert dual.degree("a") == 2


    def test_agrees_with_pairwise_intersection(
        self, monkeypatch, oracle_dual, random_overlapping_contexts
    ):
        rng = random.Random(20261018)
        logics = [random_overlapping_contexts(rng) for _ in range(300)]
        got = [(tkadlec_dual(logic), emit_dot(logic, "tkadlec")) for logic in logics]
        monkeypatch.setattr(diagrams, "tkadlec_dual", oracle_dual)
        expected = [(oracle_dual(logic), emit_dot(logic, "tkadlec")) for logic in logics]
        assert got == expected
        assert any(len(e.atoms) > 1 for dual, _ in got for e in dual.edges)
        assert any(
            len(set(c.members)) < len(c.members)
            for logic in logics
            for c in logic.contexts
        )


class TestEmitDot:
    def test_modes_inventory(self):
        assert DOT_MODES == ("greechie-incidence", "tkadlec")

    def test_unknown_mode_is_rejected(self, gamma1):
        with pytest.raises(ValueError, match="mode"):
            emit_dot(gamma1, mode="fancy")

    def test_incidence_structure(self, gamma1):
        nodes, edges = check_dot(emit_dot(gamma1, mode="greechie-incidence"))
        atom_nodes = {k: v for k, v in nodes.items() if v[1] == "circle"}
        context_nodes = {k: v for k, v in nodes.items() if v[1] == "box"}
        assert sorted(v[0] for v in atom_nodes.values()) == list(
            gamma1.labels
        )
        assert sorted(v[0] for v in context_nodes.values()) == sorted(
            c.label for c in gamma1.contexts
        )
        assert all(label is None for _, _, label in edges)
        incidences = {
            (nodes[l][0], nodes[r][0]) for l, r, _ in edges
        }
        expected = {
            (c.label, m) for c in gamma1.contexts for m in c.members
        }
        assert incidences == expected

    def test_tkadlec_structure(self, gamma1):
        nodes, edges = check_dot(emit_dot(gamma1, mode="tkadlec"))
        assert all(shape == "box" for _, shape in nodes.values())
        rendered = {
            tuple(sorted((nodes[l][0], nodes[r][0]))): label
            for l, r, label in edges
        }
        assert rendered == {
            pair: ",".join(atoms) for pair, atoms in GAMMA1_DUAL.items()
        }

    def test_multi_atom_edge_label_is_comma_joined(self):
        logic = make_logic(
            4,
            atoms=[Atom(x) for x in "ABCDEF"],
            contexts=[("A", "B", "C"), ("A", "B", "D"), ("C", "E", "F")],
        )
        _, edges = check_dot(emit_dot(logic, mode="tkadlec"))
        labels = {label for _, _, label in edges}
        assert "A,B" in labels

    def test_primed_labels_are_sanitized(self, gamma3pair):
        for mode in DOT_MODES:
            nodes, _ = check_dot(emit_dot(gamma3pair, mode=mode))
            for ident, (label, _) in nodes.items():
                assert IDENT.match(ident), ident
        nodes, _ = check_dot(emit_dot(gamma3pair, mode="greechie-incidence"))
        rendered_labels = sorted(
            label for label, shape in nodes.values() if shape == "circle"
        )
        assert rendered_labels == list(gamma3pair.labels)
        assert "K'" in rendered_labels

    def test_sanitized_ids_stay_distinct(self):
        logic = make_logic(
            3,
            atoms=[Atom("X'"), Atom("X_"), Atom("Y")],
            contexts=[("X'", "X_"), ("X'", "Y")],
        )
        for mode in DOT_MODES:
            nodes, _ = check_dot(emit_dot(logic, mode=mode))
            assert len(nodes) == len(set(nodes))
        assert emit_dot(logic) == (
            "graph logic {\n"
            '  a_X_ [label="X\'", shape=circle];\n'
            '  a_X__2 [label="X_", shape=circle];\n'
            '  a_Y [label="Y", shape=circle];\n'
            '  c_a [label="a", shape=box];\n'
            '  c_b [label="b", shape=box];\n'
            "  c_a -- a_X_;\n"
            "  c_a -- a_X__2;\n"
            "  c_b -- a_X_;\n"
            "  c_b -- a_Y;\n"
            "}\n"
        )
        assert emit_dot(logic, mode="tkadlec") == (
            "graph logic {\n"
            '  c_a [label="a", shape=box];\n'
            '  c_b [label="b", shape=box];\n'
            '  c_a -- c_b [label="X\'"];\n'
            "}\n"
        )

    def test_deterministic(self, cabello18):
        for mode in DOT_MODES:
            assert emit_dot(cabello18, mode=mode) == emit_dot(
                cabello18, mode=mode
            )

    @pytest.mark.parametrize(
        "name",
        [
            "star4.gls",
            "gamma1.gls",
            "gamma3pair.gls",
            "cabello18.gls",
            "l12.gls",
            "chain3.gls",
            "tight3.gls",
            "tight3_4d.gls",
        ],
    )
    def test_whole_corpus_renders_in_both_modes(self, corpus, name):
        logic = corpus[name]
        nodes, edges = check_dot(emit_dot(logic, mode="greechie-incidence"))
        assert len(nodes) == len(logic.atoms) + len(logic.contexts)
        assert len(edges) == sum(len(c.members) for c in logic.contexts)
        nodes, edges = check_dot(emit_dot(logic, mode="tkadlec"))
        assert len(nodes) == len(logic.contexts)
        assert len(edges) == len(tkadlec_dual(logic).edges)
