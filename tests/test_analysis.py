"""Realization checks, state enumeration, rule derivation, obstructions."""

from __future__ import annotations

import itertools
import random
import sys
import tracemalloc

import pytest

from conftest import build_random_logic, cliques_in_order
from greechie.analysis import (
    Identification,
    StateSummary,
    _labels_of,
    _maximal_cliques,
    _per_atom,
    _search,
    _shared_witnesses,
    complete_contexts,
    derive_rules,
    enumerate_states,
    infer_collapses,
    make_star,
    parity_obstruction,
    summarize_states,
    verify_realization,
)
from greechie.gls import CORPUS_FILES, load_corpus, parse_logic, serialize_logic
from greechie.model import (
    AbstractLogicError,
    Atom,
    Context,
    Logic,
    LogicError,
    Ray,
    make_logic,
    orthogonality_edges,
)

REALIZED = ("gamma1.gls", "gamma3pair.gls", "cabello18.gls", "tight3_4d.gls")

GAMMA1_ONE_ZERO = frozenset(
    [
        ("A", "B"), ("A", "C"), ("A", "K"), ("A", "L"), ("B", "A"),
        ("B", "C"), ("B", "H"), ("B", "M"), ("C", "A"), ("C", "B"),
        ("C", "D"), ("C", "E"), ("D", "C"), ("D", "E"), ("E", "C"),
        ("E", "D"), ("E", "F"), ("E", "G"), ("E", "K"), ("F", "E"),
        ("F", "G"), ("G", "E"), ("G", "F"), ("G", "H"), ("G", "I"),
        ("H", "B"), ("H", "G"), ("H", "I"), ("H", "M"), ("I", "G"),
        ("I", "H"), ("I", "J"), ("I", "K"), ("J", "I"), ("J", "K"),
        ("K", "A"), ("K", "E"), ("K", "I"), ("K", "J"), ("K", "L"),
        ("L", "A"), ("L", "K"), ("M", "B"), ("M", "H"),
    ]
)


def reflexive_pairs(logic):
    return {(label, label) for label in logic.labels}


class TestVerifyRealization:
    @pytest.mark.parametrize("name", REALIZED)
    def test_corpus_realizations_pass(self, corpus, name):
        report = verify_realization(corpus[name])
        assert report.passed
        assert all(check.ok for check in report.checks)
        assert report.collinear_pairs == ()
        assert report.dimension == corpus[name].dimension

    def test_broken_ray_is_located(self, gamma1):
        atoms = [
            Atom("B", Ray.of(1, 1, 1)) if a.label == "B" else a
            for a in gamma1.atoms
        ]
        broken = make_logic(
            3,
            atoms=atoms,
            contexts=gamma1.contexts,
        )
        report = verify_realization(broken)
        assert not report.passed
        assert {check.label for check in report.failures} == {"a", "g"}
        by_label = {check.label: check for check in report.checks}
        assert by_label["a"].failing_pair == ("A", "B")
        assert by_label["g"].failing_pair == ("B", "M")
        assert by_label["b"].ok

    def test_collinear_atoms_are_paired(self):
        logic = Logic(
            3,
            (
                Atom("C", Ray.of(0, "r2", 0)),
                Atom("A", Ray.of(0, 1, 0)),
                Atom("X", Ray.of(1, 0, 0)),
                Atom("B", Ray.of(0, -3, 0)),
            ),
            (Context("a", ("A", "X")),),
        )
        report = verify_realization(logic)
        assert report.collinear_pairs == (("A", "B"), ("A", "C"), ("B", "C"))
        assert not report.passed
        assert all(check.ok for check in report.checks)

    def test_abstract_logic_is_rejected(self, corpus):
        with pytest.raises(AbstractLogicError, match="ab"):
            verify_realization(corpus["star4.gls"])

    def test_non_maximal_contexts_are_flagged(self, corpus):
        report = verify_realization(corpus["tight3_4d.gls"])
        assert report.passed
        assert all(check.non_maximal for check in report.checks)
        full = verify_realization(corpus["gamma1.gls"])
        assert not any(check.non_maximal for check in full.checks)


class TestCompleteContexts:
    def test_standard_basis(self):
        logic = complete_contexts(
            [
                ("X", Ray.of(1, 0, 0)),
                ("Y", Ray.of(0, 1, 0)),
                ("Z", Ray.of(0, 0, 1)),
            ],
            3,
        )
        assert [(c.label, c.members) for c in logic.contexts] == [
            ("a", ("X", "Y", "Z"))
        ]
        assert logic.is_realized
        assert verify_realization(logic).passed

    def test_recovers_gamma1_contexts(self, gamma1):
        rebuilt = complete_contexts(
            [(a.label, a.ray) for a in gamma1.atoms], 3
        )
        declared = {frozenset(c.members) for c in gamma1.contexts}
        found = {frozenset(c.members) for c in rebuilt.contexts}
        assert found == declared
        assert len(rebuilt.contexts) == 7

    def test_recovers_gamma3pair_contexts(self, gamma3pair):
        rebuilt = complete_contexts(
            [(a.label, a.ray) for a in gamma3pair.atoms], 3
        )
        declared = {frozenset(c.members) for c in gamma3pair.contexts}
        found = {frozenset(c.members) for c in rebuilt.contexts}
        assert found == declared
        assert len(rebuilt.contexts) == 17

    def test_cabello_vectors_have_smaller_cliques_too(self, cabello18):
        rebuilt = complete_contexts(
            [(a.label, a.ray) for a in cabello18.atoms], 4
        )
        by_size: dict[int, set[frozenset[str]]] = {}
        for ctx in rebuilt.contexts:
            by_size.setdefault(len(ctx.members), set()).add(
                frozenset(ctx.members)
            )
        assert {size: len(v) for size, v in by_size.items()} == {4: 9, 3: 6, 2: 9}
        assert by_size[4] == {frozenset(c.members) for c in cabello18.contexts}
        assert by_size[3] == {
            frozenset(s)
            for s in [
                ("A", "B", "R"), ("C", "D", "E"), ("F", "G", "H"),
                ("I", "J", "K"), ("L", "M", "N"), ("O", "P", "Q"),
            ]
        }

    def test_subset_context_is_absorbed(self, corpus):
        logic = corpus["tight3_4d.gls"]
        rebuilt = complete_contexts([(a.label, a.ray) for a in logic.atoms], 4)
        found = {frozenset(c.members) for c in rebuilt.contexts}
        assert found == {
            frozenset({"A", "B", "C", "K"}),
            frozenset({"A", "D", "K"}),
            frozenset({"C", "K", "L"}),
        }

    def test_labels_follow_sorted_member_order(self, gamma1):
        rebuilt = complete_contexts(
            [(a.label, a.ray) for a in gamma1.atoms], 3
        )
        members = [c.members for c in rebuilt.contexts]
        assert members == sorted(members)
        assert [c.label for c in rebuilt.contexts] == list("abcdefg")

    def test_deterministic(self, cabello18):
        vectors = [(a.label, a.ray) for a in cabello18.atoms]
        first = serialize_logic(complete_contexts(vectors, 4))
        second = serialize_logic(complete_contexts(vectors, 4))
        assert first == second

    def test_rejects_empty_input(self):
        with pytest.raises(LogicError, match="no vectors"):
            complete_contexts([], 3)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(LogicError, match="distinct"):
            complete_contexts(
                [("A", Ray.of(1, 0, 0)), ("A", Ray.of(0, 1, 0))], 3
            )

    def test_rejects_wrong_component_count(self):
        with pytest.raises(LogicError, match="expected 3"):
            complete_contexts([("A", Ray.of(1, 0)), ("B", Ray.of(0, 1))], 3)

    def test_rejects_collinear_vectors(self):
        with pytest.raises(LogicError, match="collinear"):
            complete_contexts(
                [("A", Ray.of(1, 0, 0)), ("B", Ray.of(2, 0, 0))], 3
            )

    def test_rejects_isolated_vector(self):
        with pytest.raises(LogicError, match="orthogonal to no other"):
            complete_contexts(
                [("A", Ray.of(1, 1, 1)), ("B", Ray.of(1, 0, 0))], 3
            )

    @pytest.mark.parametrize(
        "vectors",
        [
            [("A", Ray.of(1, 1, 1)), ("B", Ray.of(1, 0, 0))],
            [("B", Ray.of(1, 0, 0)), ("A", Ray.of(1, 1, 1))],
            [("C", Ray.of(0, 1, 0)), ("B", Ray.of(1, 0, 0)), ("A", Ray.of(1, 1, 1))],
        ],
    )
    def test_names_the_first_isolated_vector_in_label_order(self, vectors):
        with pytest.raises(LogicError, match="^ray 'A' is orthogonal to no other ray"):
            complete_contexts(vectors, 3)

    @pytest.mark.parametrize(
        "vectors, message",
        [
            (
                [("A" * 5000, Ray.of(1, 0))],
                "ray 'AAAAAAAAAAAAAAAAAAAA'... (5000 characters) has 2 components, expected 3",
            ),
            (
                [("A" * 5000, Ray.of(1, 0, 0)), ("B" * 5000, Ray.of(2, 0, 0))],
                "rays 'AAAAAAAAAAAAAAAAAAAA'... (5000 characters) and "
                "'BBBBBBBBBBBBBBBBBBBB'... (5000 characters) are collinear",
            ),
            (
                [("A" * 5000, Ray.of(1, 1, 1)), ("B", Ray.of(1, 0, 0))],
                "ray 'AAAAAAAAAAAAAAAAAAAA'... (5000 characters) is orthogonal to no other ray "
                "and can join no context",
            ),
        ],
        ids=["components", "collinear", "isolated"],
    )
    def test_long_label_is_shortened(self, vectors, message):
        with pytest.raises(LogicError) as err:
            complete_contexts(vectors, 3)
        assert str(err.value) == message


CORPUS_STATE_FACTS = {
    "star4.gls": (108, True, True),
    "gamma1.gls": (14, True, True),
    "gamma3pair.gls": (24, True, False),
    "cabello18.gls": (0, False, False),
    "l12.gls": (5, True, True),
    "chain3.gls": (8, True, True),
    "tight3.gls": (4, True, True),
    "tight3_4d.gls": (4, True, True),
}


def star7_on_a_dead_branch() -> Logic:
    """A logic with one state, whose dead branch solves star7 beside an odd
    triangle.  An atom ``y`` joins every star7 context and the triangle's,
    and a context ``r`` holds ``x`` and ``y``: ``y`` true is the one state,
    and ``x`` true leaves star7's 326 592 states beside a triangle with
    none."""
    star = make_star(7)
    triangle = ("t0", "t1"), ("t1", "t2"), ("t2", "t0")
    contexts = [Context(c.label, (*c.members, "y")) for c in star.contexts]
    contexts += [Context(f"t{i}", (*pair, "y")) for i, pair in enumerate(triangle)]
    contexts.append(Context("r", ("x", "y")))
    atoms = star.atoms + tuple(Atom(label) for label in ("t0", "t1", "t2", "x", "y"))
    return Logic(8, atoms, tuple(contexts))


class TestEnumerateStates:
    @pytest.mark.parametrize("name", sorted(CORPUS_STATE_FACTS))
    def test_corpus_counts_and_flags(self, corpus, name):
        count, unital, separating = CORPUS_STATE_FACTS[name]
        report = enumerate_states(corpus[name])
        assert report.count == count
        assert len(report.states) == count
        assert report.empty == (count == 0)
        assert report.unital == unital
        assert report.separating == separating

    def test_tight3_exact_states(self, corpus):
        report = enumerate_states(corpus["tight3.gls"])
        assert [s.true_atoms for s in report.states] == [
            ("C", "D"),
            ("B", "K"),
            ("B", "D", "L"),
            ("A", "L"),
        ]

    def test_states_are_sorted_and_share_labels(self, gamma1):
        report = enumerate_states(gamma1)
        assert all(s.labels == gamma1.labels for s in report.states)
        bit_rows = [s.bits for s in report.states]
        assert bit_rows == sorted(bit_rows)
        assert len(set(bit_rows)) == len(bit_rows)

    def test_bit_string_and_value(self, corpus):
        report = enumerate_states(corpus["tight3.gls"])
        state = report.states[0]
        assert state.bit_string() == "001100"
        assert state.value("C") == 1
        assert state.value("A") == 0

    def test_atom_free_logic_has_one_empty_state(self):
        report = enumerate_states(parse_logic("dim 3\n"))
        assert report.count == 1 and report.codes == (0,)
        assert report.bit_strings == ("",)
        assert report.states[0].bits == ()

    def test_single_context(self):
        logic = make_logic(
            3,
            atoms=[Atom("X"), Atom("Y"), Atom("Z")],
            contexts=[("X", "Y", "Z")],
        )
        report = enumerate_states(logic)
        assert report.count == 3
        assert [s.true_atoms for s in report.states] == [
            ("Z",), ("Y",), ("X",)
        ]
        assert report.unital and report.separating

    @pytest.mark.parametrize("name", sorted(CORPUS_STATE_FACTS))
    def test_each_context_has_exactly_one_true_atom(self, corpus, name):
        logic = corpus[name]
        for state in enumerate_states(logic).states:
            for ctx in logic.contexts:
                assert sum(state.value(m) for m in ctx.members) == 1

    @pytest.mark.parametrize("d, expected", [(3, 12), (4, 108), (5, 1280)])
    def test_star_counts_follow_the_formula(self, d, expected):
        assert expected == d * (d - 1) ** (d - 1)
        assert enumerate_states(make_star(d)).count == expected

    @pytest.mark.parametrize(
        "name",
        [n for n in sorted(CORPUS_STATE_FACTS) if n != "gamma3pair.gls"],
    )
    def test_agrees_with_bitmask_scan(self, corpus, name, oracle_bitmask):
        logic = corpus[name]
        expected = oracle_bitmask(logic)
        got = [s.bits for s in enumerate_states(logic).states]
        assert got == expected

    def test_agrees_with_choice_recursion_on_gamma3pair(
        self, gamma3pair, oracle_choices
    ):
        expected = oracle_choices(gamma3pair)
        got = [s.bits for s in enumerate_states(gamma3pair).states]
        assert got == expected

    @pytest.mark.parametrize("d", [5, 6])
    def test_agrees_with_choice_recursion_on_stars(self, d, oracle_choices):
        logic = make_star(d)
        assert [s.bits for s in enumerate_states(logic).states] == oracle_choices(logic)

    def test_dead_component_is_not_listed(self):
        """star7 beside an odd triangle of two-member contexts has no state.
        Listing star7's 326 592 states, none of which extends to the whole
        logic, peaked at about 13 MiB of allocations."""
        star = make_star(7)
        triangle = ("t0", "t1"), ("t1", "t2"), ("t2", "t0")
        logic = Logic(
            7,
            star.atoms + tuple(Atom(f"t{i}") for i in range(3)),
            star.contexts + tuple(Context(f"t{i}", pair) for i, pair in enumerate(triangle)),
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = enumerate_states(logic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.codes == () and report.empty
        assert peak - before < 2**20

    def test_listing_holds_each_code_once(self):
        """star7's 326 592 states peak at about 48 bytes a state: each code is
        built once and each list of codes held once.  A copy of the root's
        list and a sorted copy of each component's list took 89."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = enumerate_states(make_star(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.count == 326_592
        assert peak - before < 64 * report.count

    @pytest.mark.parametrize(
        "logic",
        [
            pytest.param(make_star(4), id="connected"),
            pytest.param(
                Logic(
                    3,
                    tuple(Atom(x) for x in "ABCDEFGH"),
                    (Context("c0", tuple("ABC")), Context("c1", tuple("CDE")), Context("c2", tuple("FGH"))),
                ),
                id="two-components",
            ),
            pytest.param(
                Logic(3, tuple(Atom(x) for x in "ABCX"), (Context("c0", tuple("ABC")),)),
                id="atom-in-no-context",
            ),
            pytest.param(
                Logic(
                    2,
                    tuple(Atom(x) for x in "ABC"),
                    (Context("c0", tuple("AB")), Context("c1", tuple("BC")), Context("c2", tuple("CA"))),
                ),
                id="no-state",
            ),
            pytest.param(parse_logic("dim 3\n"), id="no-atom"),
        ],
    )
    def test_listing_agrees_with_bitmask_scan_twice(self, logic, oracle_bitmask):
        """Each shape of root the expansion meets: one part with nothing
        forced, two parts, a part that is an atom in no context, no live
        branch, and no part.  Lists are shared and sorted in place, so a
        second listing of the same logic must equal the first."""
        report = enumerate_states(logic)
        assert [s.bits for s in report.states] == oracle_bitmask(logic)
        assert enumerate_states(logic) == report

    def test_unreached_component_is_not_listed_beside_live_ones(self):
        """Listing the star7 states of ``star7_on_a_dead_branch`` peaked at
        about 15 MiB."""
        logic = star7_on_a_dead_branch()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = enumerate_states(logic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.count == 1
        assert [s.true_atoms for s in report.states] == [("y",)]
        assert peak - before < 2**20

    def test_agrees_with_oracles_on_random_logics(
        self, oracle_bitmask, oracle_choices, random_logic
    ):
        import random

        rng = random.Random(97)
        for _ in range(60):
            logic = random_logic(rng)
            got = [s.bits for s in enumerate_states(logic).states]
            assert got == oracle_bitmask(logic)
            assert got == oracle_choices(logic)

    def test_repeated_members_count_once(self, oracle_bitmask):
        logic = Logic(
            5,
            tuple(Atom(f"x{i}") for i in range(3)),
            (
                Context("c0", ("x2", "x2", "x0", "x1", "x0")),
                Context("c1", ("x0", "x1", "x1", "x0")),
            ),
        )
        expected = [(0, 1, 0), (1, 0, 0)]
        assert [s.bits for s in enumerate_states(logic).states] == expected
        assert oracle_bitmask(logic) == expected

    def test_context_with_no_members_admits_no_state(self):
        logic = Logic(
            3,
            tuple(Atom(x) for x in "ABC"),
            (Context("c0", ("A", "B", "C")), Context("c1", ())),
        )
        self.assert_no_state(logic)

    @pytest.mark.parametrize(
        "logic",
        [
            Logic(3, tuple(Atom(x) for x in "ABC"), (Context("c1", ()), Context("c0", tuple("ABC")))),
            Logic(3, tuple(Atom(x) for x in "ABCX"), (Context("c1", ()), Context("c0", tuple("ABC")))),
            Logic(3, (), (Context("c0", ()), Context("c1", ()))),
        ],
        ids=["declared-first", "beside-an-atom-in-no-context", "two-and-no-atoms"],
    )
    def test_context_with_no_members_admits_no_state_wherever_declared(self, logic):
        self.assert_no_state(logic)

    @staticmethod
    def assert_no_state(logic):
        summary = summarize_states(logic)
        report = enumerate_states(logic)
        assert summary.count == 0 and report.codes == ()
        assert summary.union == summary.inter == (0,) * len(logic.labels)
        assert derive_rules(summary, logic).explosion

    def test_agrees_with_bitmask_scan_on_overlapping_contexts(
        self, oracle_bitmask, random_overlapping_contexts
    ):
        rng = random.Random(5)
        free = 0
        for _ in range(300):
            logic = random_overlapping_contexts(rng)
            got = [s.bits for s in enumerate_states(logic).states]
            assert got == oracle_bitmask(logic)
            # An atom in no context is free in every state.
            free += {m for c in logic.contexts for m in c.members} != set(logic.labels)
        assert free >= 100

    def test_derived_flags_agree_with_oracle_states(
        self, oracle_bitmask, random_logic, random_parity_logic
    ):
        import random

        rng = random.Random(97)
        logics = [random_logic(rng) for _ in range(60)]
        rng = random.Random(53)
        logics += [random_parity_logic(rng) for _ in range(5)]  # empty state spaces
        for logic in logics:
            states = oracle_bitmask(logic)
            columns = list(zip(*states)) or [()] * len(logic.labels)
            report = enumerate_states(logic)
            assert report.count == len(states)
            assert report.empty == (not states)
            assert report.unital == (bool(states) and all(any(c) for c in columns))
            assert report.separating == (
                bool(states) and len(set(columns)) == len(columns)
            )


class TestComponentTable:
    """The table that ``_search`` hands to ``_per_atom`` and
    ``enumerate_states``: a list with children before parents and the root
    last, whose live branches name their parts by position."""

    @pytest.mark.parametrize(
        "logic",
        [
            *map(load_corpus, CORPUS_FILES),
            *(make_star(d) for d in range(3, 7)),
            star7_on_a_dead_branch(),
            Logic(3, tuple(Atom(x) for x in "ABCX"), (Context("c0", tuple("ABC")),)),
            Logic(3, tuple(Atom(x) for x in "ABC"), (Context("c0", tuple("ABC")), Context("c1", ()))),
            Logic(3, tuple(Atom(x) for x in "ABCX"), (Context("c1", ()), Context("c0", tuple("ABC")))),
            Logic(3, (), ()),
        ],
        ids=[
            *CORPUS_FILES,
            *(f"star{d}" for d in range(3, 7)),
            "star7-on-a-dead-branch",
            "atom-in-no-context",
            "empty-context",
            "empty-context-first-beside-an-atom-in-no-context",
            "no-atoms-no-contexts",
        ],
    )
    def test_shape(self, logic):
        table = _search(logic)
        count, _, _, around = _per_atom(len(logic.labels), table)
        assert table[-1][0] == count == summarize_states(logic).count
        assert len(around) == len(table)
        reached = {len(table) - 1}
        for at in reversed(range(len(table))):
            for _, parts, _, _ in table[at][3]:
                assert all(0 <= part < at for part in parts), at
                if at in reached:
                    reached.update(parts)
        assert {at for at, seen in enumerate(around) if seen is not None} == reached

    def test_dead_branch_leaves_its_component_solved_and_unreached(self):
        logic = star7_on_a_dead_branch()
        table = _search(logic)
        around = _per_atom(len(logic.labels), table)[3]
        assert [seen for (count, *_), seen in zip(table, around) if count == 326_592] == [None]


def fields(summary):
    """A summary's count and per-atom codes, as the oracles give them."""
    return summary.count, summary.union, summary.inter


class TestSummarizeStates:
    """Both readings of the state search's component table against the
    per-atom codes read from the states of the 2^n scan, and against the
    choice recursion's count.  ``either_path`` hands each test one reading
    as a function from a logic to a ``StateSummary``: the summary that
    ``summarize_states`` computes without listing a state, or the one folded
    code by code from what ``enumerate_states`` lists."""

    @pytest.fixture(params=["listed", "searched"])
    def either_path(self, request, oracle_fold):
        if request.param == "searched":
            return summarize_states

        def listed(logic):
            return StateSummary(logic.labels, *oracle_fold(logic.labels, enumerate_states(logic).codes))

        return listed

    @pytest.mark.parametrize("name", sorted(CORPUS_STATE_FACTS))
    def test_corpus_counts_and_flags(self, corpus, name, either_path):
        summary = either_path(corpus[name])
        assert (summary.count, summary.unital, summary.separating) == CORPUS_STATE_FACTS[name]
        assert summary.empty == (summary.count == 0)

    def test_random_logics(
        self, oracle_bitmask, oracle_choices, oracle_summary, random_logic, either_path
    ):
        rng = random.Random(409)
        for _ in range(200):
            logic = random_logic(rng, max_atoms=12)
            states = oracle_bitmask(logic)
            summary = either_path(logic)
            assert fields(summary) == oracle_summary(list(logic.labels), states)
            assert summary.count == len(oracle_choices(logic))

    def test_atoms_in_no_context_are_free(
        self, oracle_bitmask, oracle_summary, random_logic, either_path
    ):
        """Unvalidated logics: extra atoms in no context double the count
        and are true in some states and false in others."""
        rng = random.Random(419)
        for _ in range(100):
            base = random_logic(rng, max_atoms=10)
            extra = tuple(Atom(f"y{i}") for i in range(rng.randint(1, 3)))
            logic = Logic(base.dimension, base.atoms + extra, base.contexts)
            states = oracle_bitmask(logic)
            summary = either_path(logic)
            assert fields(summary) == oracle_summary(list(logic.labels), states)
            assert summary.count == either_path(base).count << len(extra)

    def test_empty_state_spaces(self, oracle_choices, random_parity_logic, either_path):
        rng = random.Random(53)
        for _ in range(25):
            logic = random_parity_logic(rng)
            summary = either_path(logic)
            assert oracle_choices(logic) == []
            assert (summary.count, summary.unital, summary.separating) == (0, False, False)
            assert summary.union == summary.inter == (0,) * len(logic.labels)

    def test_overlapping_contexts(
        self, oracle_bitmask, oracle_summary, random_overlapping_contexts, either_path
    ):
        rng = random.Random(5)
        for _ in range(300):
            logic = random_overlapping_contexts(rng)
            expected = oracle_summary(list(logic.labels), oracle_bitmask(logic))
            assert fields(either_path(logic)) == expected

    def test_large_logics_go_through_the_component_search(
        self, oracle_choices, oracle_summary, random_logic
    ):
        """Glue two random logics side by side or over one shared atom, past
        the reach of the 2^n scan: both the summary and the listing against
        the choice recursion."""
        rng = random.Random(421)
        large = 0
        for _ in range(60):
            left, right = random_logic(rng, max_atoms=18), random_logic(rng, max_atoms=18)
            renamed = {a.label: f"z{a.label}" for a in right.atoms}
            shared = rng.choice([None, *left.labels])
            if shared is not None:
                renamed[right.labels[0]] = shared
            atoms = left.atoms + tuple(
                Atom(renamed[a.label]) for a in right.atoms if renamed[a.label] != shared
            )
            contexts = left.contexts + tuple(
                Context(f"z{c.label}", tuple(renamed[m] for m in c.members))
                for c in right.contexts
            )
            logic = Logic(max(left.dimension, right.dimension), atoms, contexts)
            states = oracle_choices(logic)
            assert fields(summarize_states(logic)) == oracle_summary(list(logic.labels), states)
            assert [s.bits for s in enumerate_states(logic).states] == states
            large += len(atoms) > 20
        assert large >= 25

    @pytest.mark.parametrize(
        "logic",
        [*map(load_corpus, CORPUS_FILES), *(make_star(d) for d in range(3, 8))],
        ids=[*CORPUS_FILES, *(f"star{d}" for d in range(3, 8))],
    )
    def test_rules_match_enumerated_states(self, logic, either_path):
        assert derive_rules(either_path(logic), logic) == derive_rules(
            enumerate_states(logic), logic
        )


def triad_chain(k: int) -> str:
    """k three-atom contexts in dimension 3, each sharing one atom with the next."""
    lines = ["dim 3"]
    lines += [f"atom L{i}" for i in range(k + 1)]
    lines += [f"atom M{i}" for i in range(k)]
    lines += [f"context c{i} L{i} M{i} L{i + 1}" for i in range(k)]
    return "\n".join(lines) + "\n"


def reordered(text: str, seed: int) -> str:
    """The same logic with its atom lines and its context lines shuffled."""
    rng = random.Random(seed)
    lines = text.splitlines()
    atoms = [line for line in lines if line.startswith("atom ")]
    contexts = [line for line in lines if line.startswith("context ")]
    rng.shuffle(atoms)
    rng.shuffle(contexts)
    return "\n".join([lines[0], *atoms, *contexts]) + "\n"


class TestDeclarationOrder:
    """A logic is a set of contexts, so the order of a file's lines changes
    neither the search's answers nor how much work it does."""

    @staticmethod
    def c_calls(logic: Logic) -> int:
        """The calls into C that ``summarize_states`` makes: a count of its
        work that does not depend on the host's speed."""
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "c_call"

        sys.setprofile(count)
        try:
            summarize_states(logic)
        finally:
            sys.setprofile(None)
        return calls

    def test_search_work_does_not_depend_on_order(self):
        text = triad_chain(400)
        declared = self.c_calls(parse_logic(text))
        for seed in (1, 2, 3):
            shuffled = self.c_calls(parse_logic(reordered(text, seed)))
            assert shuffled <= 1.25 * declared, (seed, shuffled, declared)

    def test_answers_do_not_depend_on_order(self):
        rng = random.Random(431)
        logics = [make_star(d) for d in range(3, 8)]
        logics += [parse_logic(triad_chain(12)), parse_logic(triad_chain(400))]
        logics += [build_random_logic(rng) for _ in range(50)]
        for logic in logics:
            text = serialize_logic(logic)
            expected = summarize_states(logic)
            rules = derive_rules(expected, logic)
            codes = enumerate_states(logic).codes if expected.count <= 10_000 else None
            for seed in (1, 2, 3):
                other = parse_logic(reordered(text, seed))
                summary = summarize_states(other)
                assert summary == expected, seed
                assert derive_rules(summary, other) == rules, seed
                if codes is not None:
                    assert enumerate_states(other).codes == codes, seed


class TestDeriveRules:
    def test_gamma1_rules(self, gamma1):
        report = enumerate_states(gamma1)
        rules = derive_rules(report, gamma1)
        assert rules.one_zero == GAMMA1_ONE_ZERO
        assert ("K", "E") in rules.one_zero
        assert ("E", "K") in rules.one_zero
        assert rules.one_one == frozenset(reflexive_pairs(gamma1))
        assert rules.equivalences == frozenset()
        assert rules.never_true == ()
        assert not rules.explosion

    def test_gamma1_rules_hold_in_every_state(self, gamma1):
        report = enumerate_states(gamma1)
        rules = derive_rules(report, gamma1)
        for state in report.states:
            for x, y in rules.one_zero:
                assert not (state.value(x) == 1 and state.value(y) == 1)
            for x, y in rules.one_one:
                assert not (state.value(x) == 1 and state.value(y) == 0)

    def test_gamma3pair_equivalences(self, gamma3pair):
        report = enumerate_states(gamma3pair)
        rules = derive_rules(report, gamma3pair)
        assert rules.equivalences == frozenset(
            [frozenset({"E", "E'"}), frozenset({"K", "K'"})]
        )
        assert len(rules.one_zero) == 162
        assert rules.never_true == ()
        expected_one_one = reflexive_pairs(gamma3pair) | {
            ("E", "E'"), ("E'", "E"), ("K", "K'"), ("K'", "K"),
        }
        assert rules.one_one == frozenset(expected_one_one)
        for state in report.states:
            assert state.value("K") == state.value("K'")
            assert state.value("E") == state.value("E'")

    def test_tight3_one_one_rules(self, corpus):
        logic = corpus["tight3.gls"]
        rules = derive_rules(enumerate_states(logic), logic)
        nonreflexive = {(x, y) for x, y in rules.one_one if x != y}
        assert nonreflexive == {("A", "L"), ("C", "D"), ("K", "B")}
        assert rules.equivalences == frozenset()
        assert len(rules.one_zero) == 18

    def test_explosion_on_empty_state_space(self, cabello18):
        rules = derive_rules(enumerate_states(cabello18), cabello18)
        assert rules.explosion
        assert rules.one_zero == frozenset()
        assert rules.one_one == frozenset()
        assert rules.equivalences == frozenset()
        assert rules.never_true == cabello18.labels

    def test_single_context_rules(self):
        logic = make_logic(
            3,
            atoms=[Atom("X"), Atom("Y"), Atom("Z")],
            contexts=[("X", "Y", "Z")],
        )
        rules = derive_rules(enumerate_states(logic), logic)
        assert rules.one_zero == frozenset(
            (x, y)
            for x, y in itertools.product("XYZ", repeat=2)
            if x != y
        )
        assert rules.one_one == frozenset(reflexive_pairs(logic))

    def test_vacuous_antecedents_are_left_out(self):
        logic = make_logic(
            3,
            atoms=[Atom(x) for x in "ABCD"],
            contexts=[("A", "B"), ("A", "C"), ("B", "C", "D")],
        )
        report = enumerate_states(logic)
        assert [s.true_atoms for s in report.states] == [("A", "D")]
        rules = derive_rules(report, logic)
        assert rules.never_true == ("B", "C")
        assert rules.one_zero == frozenset(
            [("A", "B"), ("A", "C"), ("D", "B"), ("D", "C")]
        )
        assert rules.one_one == frozenset(
            [("A", "A"), ("A", "D"), ("D", "A"), ("D", "D")]
        )
        assert rules.equivalences == frozenset([frozenset({"A", "D"})])
        assert not rules.explosion

    def test_stable_under_relabeling(self, gamma1):
        mapping = {lbl: f"Q{i:02d}" for i, lbl in enumerate(gamma1.labels)}
        renamed = make_logic(
            3,
            atoms=[Atom(mapping[a.label], a.ray) for a in gamma1.atoms],
            contexts=[
                tuple(mapping[m] for m in c.members) for c in gamma1.contexts
            ],
        )
        rules = derive_rules(enumerate_states(renamed), renamed)
        back = {v: k for k, v in mapping.items()}
        assert {
            (back[x], back[y]) for x, y in rules.one_zero
        } == GAMMA1_ONE_ZERO

    def test_agrees_with_oracle_on_random_logics(
        self, random_logic, oracle_rules
    ):
        import random

        rng = random.Random(271)
        for _ in range(40):
            logic = random_logic(rng)
            report = enumerate_states(logic)
            rules = derive_rules(report, logic)
            one_zero, one_one, equivalences, never_true = oracle_rules(
                list(logic.labels), [s.bits for s in report.states]
            )
            assert rules.explosion == report.empty
            assert rules.never_true == tuple(never_true)
            if not report.empty:
                assert rules.one_zero == frozenset(one_zero)
                assert rules.one_one == frozenset(one_one)
                assert rules.equivalences == frozenset(equivalences)
            else:
                assert not (rules.one_zero or rules.one_one or rules.equivalences)

    def test_report_must_match_logic(self, gamma1, corpus):
        report = enumerate_states(corpus["tight3.gls"])
        with pytest.raises(LogicError, match="does not belong"):
            derive_rules(report, gamma1)
        empty = enumerate_states(corpus["cabello18.gls"])
        assert empty.empty
        with pytest.raises(LogicError, match="does not belong"):
            derive_rules(empty, gamma1)


class TestParityObstruction:
    def test_cabello_certificate(self, cabello18):
        cert = parity_obstruction(cabello18)
        assert cert is not None
        assert cert.context_count == 9
        assert cert.atom_multiplicities == tuple(
            (label, 2) for label in cabello18.labels
        )

    @pytest.mark.parametrize(
        "name",
        [n for n in sorted(CORPUS_STATE_FACTS) if n != "cabello18.gls"],
    )
    def test_rest_of_corpus_has_no_certificate(self, corpus, name):
        assert parity_obstruction(corpus[name]) is None

    def test_even_context_count_is_no_certificate(self):
        logic = make_logic(
            3,
            atoms=[Atom(x) for x in "ABCD"],
            contexts=[("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")],
        )
        assert parity_obstruction(logic) is None

    def test_certificate_implies_empty_state_space(
        self, random_parity_logic, random_overlapping_contexts
    ):
        import random

        rng = random.Random(53)
        for _ in range(25):
            logic = random_parity_logic(rng)
            cert = parity_obstruction(logic)
            assert cert is not None
            assert cert.context_count % 2 == 1
            assert all(m % 2 == 0 for _, m in cert.atom_multiplicities)
            assert enumerate_states(logic).empty
        # A context that repeats a member counts once for it, as in the search.
        rng = random.Random(5)
        for _ in range(300):
            logic = random_overlapping_contexts(rng)
            if parity_obstruction(logic) is not None:
                assert summarize_states(logic).count == 0


class TestInferCollapses:
    def test_tight3_forces_three_identifications(self, corpus):
        report = infer_collapses(corpus["tight3.gls"])
        found = {
            ident.pair: ident.witness
            for ident in report.forced_identifications
        }
        assert found == {
            ("A", "L"): ("C", "K"),
            ("B", "K"): ("A", "C"),
            ("C", "D"): ("A", "K"),
        }
        assert report.pairs == frozenset(
            [
                frozenset({"A", "L"}),
                frozenset({"B", "K"}),
                frozenset({"C", "D"}),
            ]
        )
        assert report.dimension == 3

    def test_witnesses_are_shared_orthogonal_cliques(self, corpus):
        logic = corpus["tight3.gls"]
        edges = orthogonality_edges(logic)
        for ident in infer_collapses(logic).forced_identifications:
            x, y = ident.pair
            assert len(ident.witness) == logic.dimension - 1
            for w in ident.witness:
                assert frozenset({x, w}) in edges
                assert frozenset({y, w}) in edges
            for u, v in itertools.combinations(ident.witness, 2):
                assert frozenset({u, v}) in edges

    @pytest.mark.parametrize(
        "name",
        [n for n in sorted(CORPUS_STATE_FACTS) if n != "tight3.gls"],
    )
    def test_rest_of_corpus_is_collapse_free(self, corpus, name):
        assert infer_collapses(corpus[name]).forced_identifications == ()

    def test_four_dimensional_relaxation_removes_the_force(self, corpus):
        assert infer_collapses(corpus["tight3.gls"]).pairs
        assert not infer_collapses(corpus["tight3_4d.gls"]).pairs

    def test_one_large_context_keeps_memory_small(self):
        """One 1 200-member context in dimension 1 200.  A neighbour set per
        atom peaked at about 75 MiB of allocations here, int masks with a
        label tuple per witness at 12, and masks alone need under 1."""
        labels = [f"x{i}" for i in range(1200)]
        logic = Logic(1200, [Atom(x) for x in labels], [Context("a", labels)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert infer_collapses(logic).forced_identifications == ()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 40 * 2**20

    def test_two_large_contexts_force_one_identification(self):
        """Two 1 200-member contexts sharing 1 199 atoms in dimension 1 200:
        the shared atoms witness the one identification, of the two others."""
        logic = large_contexts(1200, 2)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = infer_collapses(logic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 40 * 2**20
        assert report.forced_identifications == (
            Identification(pair=("y0", "y1"), witness=tuple(f"x{i:04d}" for i in range(1199))),
        )


def large_contexts(n: int, count: int) -> Logic:
    """README's stress shapes in dimension n: one n-member context (count 1),
    or two that share the n-1 atoms x0000.. and differ in y0 and y1."""
    shared = [f"x{i:04d}" for i in range(n - 1)]
    ends = [f"y{j}" for j in range(count)]
    return make_logic(n, [Atom(x) for x in shared + ends], [shared + [y] for y in ends])


def dense_collapse_logic(rng: random.Random, dim: int) -> Logic:
    """Distinct contexts of ``dim`` members over at most 2 * dim atoms: their
    orthogonality graph often has maximal cliques of more than ``dim``
    members, and maximal cliques that share dim-1 atoms."""
    labels = [f"x{i:02d}" for i in range(rng.randint(dim + 1, 2 * dim))]
    member_sets = {frozenset(rng.sample(labels, dim)) for _ in range(rng.randint(2, 2 * dim))}
    contexts = sorted(tuple(sorted(ms)) for ms in member_sets)
    used = sorted(set().union(*member_sets))
    return make_logic(dim, [Atom(lbl) for lbl in used], contexts)


def staged_collapse_logic(dim: int, stages: int) -> Logic:
    """Pairs (aK, bK) for K = 0..stages, where pair K can only merge in the
    round after pair K-1: until then aK and bK hang off different atoms
    (aK-1 and bK-1) of what becomes their shared witness.  The first pair
    shares the witness w1..w(d-1) from the start."""
    witness = [f"w{i}" for i in range(1, dim)]
    contexts = [(*witness, "a0"), (*witness, "b0")]
    for k in range(1, stages + 1):
        fillers = [f"q{k}{i}" for i in range(1, dim - 1)]
        contexts.append((f"a{k - 1}", *fillers, f"a{k}"))
        contexts.append((f"b{k - 1}", *fillers, f"b{k}"))
    labels = sorted({m for ctx in contexts for m in ctx})
    return make_logic(dim, [Atom(lbl) for lbl in labels], contexts)


def found_after_first_round(logic: Logic, report) -> bool:
    """Whether some identification needed an earlier merge.  The first round
    scans the unmerged graph, so what it finds has a witness that is a clique
    there and a pair orthogonal to all of it; a later round can only find
    pairs the first round could not."""
    edges = orthogonality_edges(logic)
    for ident in report.forced_identifications:
        members = (*ident.witness, *ident.pair)
        for u, v in itertools.combinations(members, 2):
            if {u, v} != set(ident.pair) and frozenset((u, v)) not in edges:
                return True
    return False


class TestCollapseOracle:
    """Full reports, witnesses and order included, against the scan over
    every (d-1)-subset of atoms."""

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_corpus(self, corpus, name, oracle_collapse):
        assert infer_collapses(corpus[name]) == oracle_collapse(corpus[name])

    @pytest.mark.parametrize("dim", range(3, 8))
    def test_stars(self, dim, oracle_collapse):
        logic = make_star(dim)
        assert infer_collapses(logic) == oracle_collapse(logic)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_random_logics(self, dim, oracle_collapse, random_collapse_logic):
        rng = random.Random(f"collapse-{dim}")
        for _ in range(200):
            logic = random_collapse_logic(rng, dim)
            assert infer_collapses(logic) == oracle_collapse(logic)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_merges_over_several_rounds(self, dim, oracle_collapse):
        logic = staged_collapse_logic(dim, stages=3)
        report = infer_collapses(logic)
        assert report == oracle_collapse(logic)
        assert [ident.pair for ident in report.forced_identifications] == [
            (f"a{k}", f"b{k}") for k in range(4)
        ]
        assert found_after_first_round(logic, report)

    def test_first_round_finds_tight3(self, corpus):
        logic = corpus["tight3.gls"]
        assert not found_after_first_round(logic, infer_collapses(logic))

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_dense_logics(self, dim, oracle_collapse):
        rng = random.Random(f"dense-collapse-{dim}")
        larger = shared = merged = 0
        for _ in range(60):
            logic = dense_collapse_logic(rng, dim)
            report = infer_collapses(logic)
            assert report == oracle_collapse(logic)
            adjacency: dict[str, set[str]] = {x: set() for x in logic.labels}
            for x, y in map(tuple, orthogonality_edges(logic)):
                adjacency[x].add(y)
                adjacency[y].add(x)
            cliques = _maximal_cliques(*closed_masks(adjacency))
            larger += any(len(c) > dim for c in cliques)
            shared += any(
                len(set(a) & set(b)) == dim - 1 for a, b in itertools.combinations(cliques, 2)
            )
            merged += bool(report.forced_identifications)
        assert min(larger, shared, merged) >= 10, (larger, shared, merged)

    @pytest.mark.parametrize("count", [1, 2], ids=["one-context", "two-contexts"])
    def test_large_context_shapes(self, count, oracle_collapse):
        logic = large_contexts(8, count)
        report = infer_collapses(logic)
        assert report == oracle_collapse(logic)
        assert len(report.forced_identifications) == count - 1


def closed_masks(adjacency):
    """Sorted labels and, per bit, the closed neighbourhood mask of a graph
    given as adjacency sets, the input form of ``_maximal_cliques``."""
    labels = sorted(adjacency)
    bit = {v: 1 << len(labels) - 1 - i for i, v in enumerate(labels)}
    return labels, [sum(bit[u] for u in {v} | adjacency[v]) for v in reversed(labels)]


class TestMaximalCliques:
    def test_agrees_with_subset_scan(self, oracle_maximal_cliques, random_graph):
        rng = random.Random(19)
        edgeless = complete = isolated = 0
        for _ in range(400):
            adjacency = random_graph(rng)
            assert _maximal_cliques(*closed_masks(adjacency)) == oracle_maximal_cliques(adjacency)
            n = len(adjacency)
            degrees = [len(ys) for ys in adjacency.values()]
            edgeless += n > 1 and not any(degrees)
            complete += n > 1 and all(k == n - 1 for k in degrees)
            isolated += any(degrees) and not all(degrees)
        assert min(edgeless, complete, isolated) >= 20

    @staticmethod
    def chain_graph(k):
        """The orthogonality graph of k triads L_i M_i L_i+1."""
        contexts = [(f"L{i}", f"M{i}", f"L{i + 1}") for i in range(k)]
        adjacency: dict[str, set[str]] = {}
        for ctx in contexts:
            for x in ctx:
                adjacency.setdefault(x, set()).update(set(ctx) - {x})
        return contexts, adjacency

    def test_short_chain_agrees_with_subset_scan(self, oracle_maximal_cliques):
        _, adjacency = self.chain_graph(4)
        assert _maximal_cliques(*closed_masks(adjacency)) == oracle_maximal_cliques(adjacency)

    def test_long_chain_has_its_triads(self):
        contexts, adjacency = self.chain_graph(400)
        expected = sorted(tuple(sorted(ctx)) for ctx in contexts)
        assert _maximal_cliques(*closed_masks(adjacency)) == expected


class TestSharedWitnesses:
    def test_agrees_with_subset_scan(self, random_graph):
        """Every k-clique with two or more common neighbours, those
        neighbours, and the lexicographic order, against the k-subset scan."""
        rng = random.Random(23)
        for _ in range(300):
            adjacency = random_graph(rng)
            labels, closed = closed_masks(adjacency)
            k = rng.randint(1, 5)
            expected = []
            for witness in cliques_in_order(labels, adjacency, k):
                commons = [z for z in labels if z not in witness
                           and all(z in adjacency[w] for w in witness)]
                if len(commons) >= 2:
                    expected.append((witness, tuple(commons)))
            found = [
                (_labels_of(witness, labels), _labels_of(common, labels))
                for witness, common in _shared_witnesses(closed, k)
            ]
            assert found == expected


class TestMakeStar:
    def test_structure(self):
        logic = make_star(3)
        assert logic.dimension == 3
        assert [a.label for a in logic.atoms] == [
            "ab", "ac", "ad", "b1", "b2", "c1", "c2", "d1", "d2"
        ]
        assert [(c.label, c.members) for c in logic.contexts] == [
            ("a", ("ab", "ac", "ad")),
            ("b", ("ab", "b1", "b2")),
            ("c", ("ac", "c1", "c2")),
            ("d", ("ad", "d1", "d2")),
        ]

    def test_counts_scale_with_dimension(self):
        for d in (3, 4, 5, 7):
            logic = make_star(d)
            assert len(logic.atoms) == d * d
            assert len(logic.contexts) == d + 1
            logic.validate()

    def test_matches_the_corpus_file(self, corpus):
        assert serialize_logic(make_star(4)) == serialize_logic(
            corpus["star4.gls"]
        )

    def test_rejects_bad_dimensions(self):
        with pytest.raises(LogicError, match=">= 3"):
            make_star(2)
        with pytest.raises(LogicError, match="up to 26"):
            make_star(27)
