"""Reading and writing the .gls format, including every diagnostic."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from greechie.gls import (
    CORPUS_FILES,
    GlsParseError,
    corpus_path,
    load_corpus,
    load_logic,
    parse_logic,
    serialize_logic,
)
from greechie.model import parse_quad


class TestParseBasics:
    def test_single_context(self):
        logic = parse_logic(
            "dim 3\n"
            "atom A 1 r2 -1\n"
            "atom B 1 0 1\n"
            "atom C -1 r2 1\n"
            "context a A B C\n"
        )
        assert len(logic.atoms) == 3
        assert len(logic.contexts) == 1
        assert logic.contexts[0].members == ("A", "B", "C")

    def test_comments_and_blank_lines(self):
        logic = parse_logic(
            "# leading comment\n"
            "dim 3\n"
            "\n"
            "atom A   # trailing comment\n"
            "atom B\n"
            "context a A B  # same here\n"
        )
        assert [a.label for a in logic.atoms] == ["A", "B"]

    def test_crlf_accepted(self):
        logic = parse_logic("dim 3\r\natom A\r\natom B\r\ncontext a A B\r\n")
        assert len(logic.atoms) == 2

    def test_tabs_accepted(self):
        logic = parse_logic("dim\t3\natom\tA\natom B\ncontext a\tA B\n")
        assert logic.dimension == 3

    def test_carriage_return_separates_tokens(self):
        logic = parse_logic("dim 3\natom A\r# note\natom B\ncontext a A\rB\n")
        assert [a.label for a in logic.atoms] == ["A", "B"]
        assert parse_logic(serialize_logic(logic)) == logic

    def test_abstract_atoms(self):
        logic = parse_logic("dim 3\natom A\natom B\ncontext a A B\n")
        assert logic.atom("A").ray is None
        assert not logic.is_realized

    def test_full_cabello_file(self, cabello18):
        assert len(cabello18.atoms) == 18
        assert len(cabello18.contexts) == 9
        for atom in cabello18.atoms:
            assert len(cabello18.contexts_of[atom.label]) == 2

    def test_mixed_component_tokens(self):
        logic = parse_logic(
            "dim 3\n"
            "atom A 1+1r2 0 -1\n"
            "atom B 0 1/2r2 0\n"
            "atom C 1-1r2 0 3/2\n"
            "context a A B\n"
            "context b B C\n"
        )
        assert logic.atom("A").ray.components[0] == parse_quad("1+1r2")


class TestParseErrors:
    def expect_error(self, text: str, line: int, column: int, fragment: str):
        with pytest.raises(GlsParseError) as err:
            parse_logic(text)
        assert err.value.line == line, err.value
        assert err.value.column == column, err.value
        assert fragment in str(err.value)

    def test_unknown_keyword(self):
        self.expect_error("dim 3\nvertex A\n", 2, 1, "unknown keyword")

    def test_missing_dim(self):
        self.expect_error("atom A\n", 1, 1, "dim must be declared")

    def test_empty_input(self):
        self.expect_error("", 1, 1, "missing dim")

    def test_duplicate_dim(self):
        self.expect_error("dim 3\ndim 4\n", 2, 1, "duplicate dim")

    def test_dim_not_a_number(self):
        self.expect_error("dim three\n", 1, 5, "positive integer")

    @pytest.mark.parametrize("digit", ["\u00b3", "\u0663"])  # superscript, Arabic-Indic 3
    def test_dim_not_ascii_digits(self, digit):
        self.expect_error(f"dim {digit}\n", 1, 5, "positive integer")

    def test_dim_too_many_digits(self):
        self.expect_error("dim " + "9" * 5000 + "\n", 1, 5, "positive integer")

    def test_long_dim_value_is_shortened(self):
        with pytest.raises(GlsParseError) as err:
            parse_logic("dim " + "9" * 5000 + "\n")
        assert (err.value.line, err.value.column) == (1, 5)
        assert len(str(err.value)) < 120
        assert "'99999999999999999999'... (5000 characters)" in str(err.value)

    @pytest.mark.parametrize(
        "line, column",
        [
            ("k" * 5000, 1),
            ("atom A " + "x" * 5000 + " 0 0", 8),
            ("atom A r2" + "1" * 5000 + " 0 0", 8),
            ("atom A 0 " + "1" * 4000 + "/0 0", 10),
            ("atom A 0 0 " + "1+" * 2500 + "1", 12),
        ],
        ids=["keyword", "foreign", "missing-sign", "zero-denominator", "three-terms"],
    )
    def test_long_tokens_are_shortened(self, line, column):
        with pytest.raises(GlsParseError) as err:
            parse_logic("dim 3\n" + line + "\n")
        assert (err.value.line, err.value.column) == (2, column)
        assert len(str(err.value)) < 120
        assert "... (" in str(err.value)

    @pytest.mark.parametrize(
        "label, message",
        [
            ("A", "duplicate atom label 'A'"),
            ("A" * 5000, "duplicate atom label 'AAAAAAAAAAAAAAAAAAAA'... (5000 characters)"),
        ],
        ids=["short", "long"],
    )
    def test_duplicate_atom_label_is_shortened(self, label, message):
        with pytest.raises(GlsParseError) as err:
            parse_logic(f"dim 3\natom {label}\natom {label}\n")
        assert (err.value.line, err.value.column) == (3, 6)
        assert err.value.message == message

    @pytest.mark.parametrize(
        "label, message",
        [
            ("a", "duplicate context label 'a'"),
            ("c" * 5000, "duplicate context label 'cccccccccccccccccccc'... (5000 characters)"),
        ],
        ids=["short", "long"],
    )
    def test_duplicate_context_label_is_shortened(self, label, message):
        with pytest.raises(GlsParseError) as err:
            parse_logic(
                f"dim 3\natom A\natom B\natom C\ncontext {label} A B\ncontext {label} B C\n"
            )
        assert (err.value.line, err.value.column) == (6, 9)
        assert err.value.message == message

    def test_dim_too_small(self):
        self.expect_error("dim 2\n", 1, 5, ">= 3")

    def test_duplicate_atom_label(self):
        self.expect_error(
            "dim 3\natom A\natom A\n", 3, 6, "duplicate atom label"
        )

    def test_undeclared_member(self):
        self.expect_error(
            "dim 3\natom A\natom B\ncontext a A B Z\n", 4, 15, "not a declared atom"
        )

    def test_atom_after_use_is_still_undeclared(self):
        self.expect_error(
            "dim 3\natom A\ncontext a A B\natom B\n", 3, 13, "not a declared atom"
        )

    def test_context_larger_than_dimension(self):
        self.expect_error(
            "dim 3\natom A\natom B\natom C\natom D\ncontext a A B C D\n",
            6,
            11,
            "more than dimension",
        )

    def test_context_with_one_member(self):
        self.expect_error("dim 3\natom A\ncontext a A\n", 3, 9, "at least 2")

    def test_repeated_member(self):
        self.expect_error("dim 3\natom A\natom B\ncontext a A A\n", 4, 13, "repeats")

    def test_duplicate_context_label(self):
        self.expect_error(
            "dim 3\natom A\natom B\natom C\ncontext a A B\ncontext a B C\n",
            6,
            9,
            "duplicate context label",
        )

    def test_duplicate_member_set(self):
        self.expect_error(
            "dim 3\natom A\natom B\ncontext a A B\ncontext b B A\n",
            5,
            9,
            "same member set",
        )

    def test_duplicate_ray(self):
        self.expect_error(
            "dim 3\natom A 1 0 1\natom B 2 0 2\ncontext a A B\n",
            3,
            8,
            "duplicates the ray",
        )

    def test_irrational_token(self):
        self.expect_error(
            "dim 3\natom A 1 r3 0\ncontext a A A\n", 2, 10, "only Q"
        )

    def test_zero_ray(self):
        self.expect_error("dim 3\natom A 0 0 0\n", 2, 8, "zero ray")

    def test_wrong_component_count(self):
        self.expect_error("dim 3\natom A 1 0\n", 2, 8, "expected 3")

    def test_atom_in_no_context(self):
        with pytest.raises(GlsParseError, match="occurs in no context"):
            parse_logic("dim 3\natom A\natom B\natom C\ncontext a A B\n")

    def test_dim_after_atom(self):
        self.expect_error("dim 3\natom A\ndim 3\n", 3, 1, "duplicate dim")


# Token grammar for the fuzz test: every keyword, labels, Q(sqrt 2) tokens and
# malformed ones, a superscript digit, a digit run past int()'s limit, tabs,
# comments and CR/LF.  The prefixes are valid files, so that some inputs parse
# and the round trip is exercised too.
_WORDS = (
    "dim", "atom", "context", "vertex", "#", "A", "B", "C", "a", "b",
    "3", "2", "03", "\u00b3", "9" * 5000, "0", "1", "-1", "r2", "-r2",
    "1/2r2", "1+1r2", "3-r2", "1/0", "r3", "1r2r2", "+",
)
_PREFIXES = (
    "",
    "dim 3",
    "dim 3\natom A\natom B\ncontext a A B",
    "dim 3\natom A 1 0 0\natom B 0 1 r2\natom C 0 r2 -1\ncontext a A B C",
)
_SEPARATORS = (" ", "  ", "\t", " \t", "\r", " \r")
_LINE_ENDS = ("\n", "\r\n", "#c\n", "\r#c\n", "\t\r\n", "")


@st.composite
def gls_texts(draw) -> str:
    lines = [line.split(" ") for line in draw(st.sampled_from(_PREFIXES)).splitlines()]
    lines += draw(st.lists(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6), max_size=3))
    return "".join(
        draw(st.sampled_from(_SEPARATORS)).join(words) + draw(st.sampled_from(_LINE_ENDS))
        for words in lines
    )


@settings(derandomize=True, deadline=None, max_examples=400)
@given(gls_texts())
def test_fuzzed_text_parses_or_raises_parse_error(text):
    try:
        logic = parse_logic(text)
    except GlsParseError:
        return
    canonical = serialize_logic(logic)
    again = parse_logic(canonical)
    assert (again.dimension, again.contexts) == (logic.dimension, logic.contexts)
    assert sorted(again.atoms, key=lambda a: a.label) == sorted(logic.atoms, key=lambda a: a.label)
    assert serialize_logic(again) == canonical


class TestSerialization:
    def test_canonical_shape(self):
        logic = parse_logic(
            "dim 3\natom B 0 1 0\natom A 1 0 0\ncontext a A B\n"
        )
        text = serialize_logic(logic)
        assert text == "dim 3\natom A 1 0 0\natom B 0 1 0\ncontext a A B\n"

    def test_atoms_sorted_contexts_declared_order(self, gamma1):
        lines = serialize_logic(gamma1).splitlines()
        atom_lines = [l for l in lines if l.startswith("atom ")]
        context_lines = [l for l in lines if l.startswith("context ")]
        assert atom_lines == sorted(atom_lines)
        assert [l.split()[1] for l in context_lines] == list("abcdefg")

    def test_quad_token_emission(self):
        logic = parse_logic("dim 3\natom A 1+1r2 0 1\natom B 0 1 0\ncontext a A B\n")
        assert "atom A 1+1r2 0 1" in serialize_logic(logic)

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_round_trip_identity(self, corpus, name):
        logic = corpus[name]
        text = serialize_logic(logic)
        again = parse_logic(text)
        assert again == logic
        assert serialize_logic(again) == text

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_corpus_files_are_canonical_after_comment(self, name):
        raw = corpus_path(name).read_text(encoding="utf-8")
        body = "".join(
            line for line in raw.splitlines(keepends=True)
            if not line.startswith("#")
        )
        assert body == serialize_logic(load_corpus(name))

    def test_lf_endings_emitted(self, gamma1):
        text = serialize_logic(gamma1)
        assert "\r" not in text
        assert text.endswith("\n")


class TestCorpusAccess:
    def test_corpus_path_exists(self):
        path = corpus_path("gamma1.gls")
        assert path.is_file()

    def test_unknown_corpus_name(self):
        with pytest.raises(FileNotFoundError):
            corpus_path("missing.gls")

    def test_corpus_inventory(self):
        assert set(CORPUS_FILES) == {
            "star4.gls",
            "gamma1.gls",
            "gamma3pair.gls",
            "cabello18.gls",
            "l12.gls",
            "chain3.gls",
            "tight3.gls",
            "tight3_4d.gls",
        }

    def test_corpus_shapes(self, corpus):
        shapes = {
            name: (len(logic.atoms), len(logic.contexts), logic.dimension)
            for name, logic in corpus.items()
        }
        assert shapes == {
            "star4.gls": (16, 5, 4),
            "gamma1.gls": (13, 7, 3),
            "gamma3pair.gls": (27, 17, 3),
            "cabello18.gls": (18, 9, 4),
            "l12.gls": (5, 2, 3),
            "chain3.gls": (7, 3, 3),
            "tight3.gls": (6, 3, 3),
            "tight3_4d.gls": (6, 3, 4),
        }


class TestByteOrderMark:
    """Files saved by editors that prepend a UTF-8 byte-order mark."""

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_bom_file_parses_like_the_original(self, tmp_path, name):
        original = corpus_path(name).read_bytes()
        canonical = serialize_logic(load_corpus(name)).encode("utf-8")
        for index, data in enumerate((original, canonical)):
            path = tmp_path / f"{index}-{name}"
            path.write_bytes(b"\xef\xbb\xbf" + data)
            assert load_logic(path) == load_corpus(name)

    @pytest.mark.parametrize("text", ["dim three\n", "vertex A\n", "dim 3\natom A 1 r3 0\n"])
    def test_fault_position_ignores_bom(self, tmp_path, text):
        faults = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / "fault.gls"
            path.write_bytes(prefix + text.encode("utf-8"))
            with pytest.raises(GlsParseError) as err:
                load_logic(path)
            faults.append((err.value.line, err.value.column, err.value.message))
        assert faults[0] == faults[1]
        assert "\ufeff" not in faults[1][2]
