"""Reading and writing the .gls format, including every diagnostic."""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_random_logic, with_distinct_rays
from greechie import cli, gls
from greechie.analysis import make_star
from greechie.gls import (
    CORPUS_FILES,
    GlsParseError,
    corpus_path,
    load_corpus,
    load_logic,
    parse_logic,
    serialize_logic,
)
from greechie.model import (
    Atom, Context, Logic, LogicError, Ray, format_quad, make_logic, parse_quad,
)


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

    def test_file_reads_as_its_text(self, tmp_path, capsys):
        """A file is not read in universal-newline mode: a lone CR in it
        separates tokens, as it does in a string."""
        text = "dim 3\natom A\r# note\natom B\ncontext a A\rB\n"
        path = tmp_path / "cr.gls"
        path.write_bytes(text.encode("utf-8"))
        assert load_logic(path) == parse_logic(text)
        assert cli.main(["states", str(path)]) == 0
        assert capsys.readouterr().err == ""

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
            ("atom A " + "1" * 5000 + " 0 0", 8),
            ("atom A 0 1/" + "1" * 5000 + " 0", 10),
            ("atom A 0 0 " + "1" * 5000 + "r2", 12),
        ],
        ids=[
            "keyword", "foreign", "missing-sign", "zero-denominator", "three-terms",
            "long-integer", "long-denominator", "long-coefficient",
        ],
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

    def test_bad_component_error_is_not_cached(self):
        text = "dim 3\natom A 1 0 0\natom B 0 1 r3\n"
        seen = set()
        for _ in range(3):
            with pytest.raises(GlsParseError) as err:
                parse_logic(text)
            seen.add((err.value.line, err.value.column, err.value.message))
            with pytest.raises(ValueError, match="only Q"):
                parse_quad("r3")
        assert seen == {(3, 12, "invalid component token 'r3' (only Q(√2) values are supported)")}

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

    @pytest.mark.parametrize(
        "text, line, column, fragment",
        [
            ("dim 2\natom A\nvertex A\n", 1, 5, ">= 3"),
            ("dim 3\natom A\natom A\natom B 0 0 0\n", 3, 6, "duplicate atom label"),
            ("dim 3\natom A\natom B\nvertex A\ncontext a A B\n", 4, 1, "unknown keyword"),
        ],
        ids=["small-dim", "structural", "unused-atom-not-yet"],
    )
    def test_structural_fault_above_a_grammar_fault(self, text, line, column, fragment):
        self.expect_error(text, line, column, fragment)


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


def _chain_text(k: int) -> str:
    """k three-atom contexts, each sharing one atom with the next, atom lines first."""
    lines = ["dim 3"]
    lines += [f"atom L{i}" for i in range(k + 1)]
    lines += [f"atom M{i}" for i in range(k)]
    lines += [f"context c{i} L{i} M{i} L{i + 1}" for i in range(k)]
    return "\n".join(lines) + "\n"


def _interleaved_chain_text(k: int) -> str:
    """``_chain_text(k)`` with each atom line just above its first context."""
    lines = ["dim 3", "atom L0"]
    for i in range(k):
        lines += [f"atom M{i}", f"atom L{i + 1}", f"context c{i} L{i} M{i} L{i + 1}"]
    return "\n".join(lines) + "\n"


def _noisy(text: str) -> str:
    """The same declarations with comments, tabs, runs of spaces and CRLF line ends."""
    lines = ["# a comment line", ""]
    for number, line in enumerate(text.splitlines()):
        end = " # note\r" if number % 3 else "\r"
        lines.append((" \t" if number % 2 else "") + line.replace(" ", "\t  ") + end)
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def counted_walks():
    """Counts the parser's entries into first_fault's per-declaration walk."""
    entries: list[int] = []
    walk = gls.first_fault
    gls.first_fault = lambda *args: entries.append(1) or walk(*args)
    try:
        yield entries
    finally:
        gls.first_fault = walk


class TestBulkPath:
    """Well-formed files are read in one pass and checked in bulk, never
    walked, whether their atom lines come first or among the context lines."""

    @pytest.mark.parametrize(
        "text",
        [
            *(pytest.param(lambda n=n: corpus_path(n).read_text(encoding="utf-8"), id=n)
              for n in CORPUS_FILES),
            *(pytest.param(lambda d=d: serialize_logic(make_star(d)), id=f"star{d}")
              for d in range(3, 9)),
            pytest.param(lambda: _chain_text(400), id="chain400"),
            pytest.param(lambda: _chain_text(1500), id="chain1500"),
            pytest.param(lambda: _interleaved_chain_text(1500), id="chain1500-interleaved"),
        ],
    )
    def test_valid_file_is_not_walked(self, text):
        text = text()
        with counted_walks() as walks:
            canonical = serialize_logic(parse_logic(text))
            assert serialize_logic(parse_logic(canonical)) == canonical
        assert walks == []

    def test_noisy_variant_parses_like_the_original(self, gamma1):
        with counted_walks() as walks:
            assert parse_logic(_noisy(serialize_logic(gamma1))) == gamma1
        assert walks == []

    def test_fault_is_walked(self):
        with counted_walks() as walks, pytest.raises(GlsParseError):
            parse_logic("dim 3\natom A\natom B\ncontext a A B Z\n")
        assert walks == [1]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2**32), st.booleans())
def test_interleaved_atoms_parse_in_bulk(seed, realized):
    """Atom lines among context lines, each atom before its first use, are
    checked with sets, not walked, and read as the same atom lines first."""
    rng = random.Random(seed)
    logic = build_random_logic(rng, max_atoms=12)
    if realized:
        logic = with_distinct_rays(logic, rng)
    canonical = serialize_logic(logic).splitlines()
    atom_lines = {line.split(" ")[1]: line for line in canonical if line.startswith("atom ")}
    context_lines = [line for line in canonical if line.startswith("context ")]
    lines, order = [canonical[0]], []
    for line, context in zip(context_lines, logic.contexts):
        for member in context.members:
            if member in atom_lines:
                order.append(member)
                lines.append(atom_lines.pop(member))
        lines.append(line)
    assert not atom_lines
    text = "\n".join(lines) + "\n"
    atoms_first = "\n".join(
        [lines[0]]
        + [line for line in lines if line.startswith("atom ")]
        + context_lines
    ) + "\n"

    with counted_walks() as walked:
        parsed = parse_logic(text)
        assert parse_logic(atoms_first) == parsed
    assert walked == []
    assert parsed == Logic(logic.dimension, tuple(logic.atom(x) for x in order), logic.contexts)
    again = parse_logic(serialize_logic(parsed))
    assert (again.dimension, again.contexts) == (parsed.dimension, parsed.contexts)
    assert again.atoms == tuple(sorted(parsed.atoms, key=lambda a: a.label))


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        # each member is declared, one of them only below its context
        ("dim 3\natom A\natom B\ncontext a A B\ncontext b B C\natom C\n",
         5, 13, "context 'b' member 'C' is not a declared atom"),
        # a late member, with a fault further down the file
        ("dim 3\natom A\ncontext a A B\natom B\ncontext a A B\n",
         3, 13, "context 'a' member 'B' is not a declared atom"),
    ],
)
def test_member_declared_below_its_context_is_walked(text, line, column, message):
    with counted_walks() as walked, pytest.raises(GlsParseError) as err:
        parse_logic(text)
    assert walked == [1]
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


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

    @pytest.mark.parametrize("kind", ["atom", "context"])
    @pytest.mark.parametrize("label", ["", "a b", "a\tb", "a\rb", "a\nb", "a#b"])
    def test_label_the_reader_cannot_read_is_refused(self, kind, label):
        """Each label empties, splits or cuts its line, so its text would
        not parse back."""
        members = (label, "B", "C") if kind == "atom" else ("A", "B", "C")
        context = Context(label if kind == "context" else "a", members)
        logic = make_logic(3, [Atom(m) for m in members], [context])
        with pytest.raises(LogicError, match=f"^{kind} label {re.escape(repr(label))} "):
            serialize_logic(logic)

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


# Seeded malformed files for pinning every fault position.  Each file is a
# valid head with one or two faulty lines mixed in, written with the
# separators and line ends above, optional indentation and comment lines.
_BAD_COMPONENTS = ("r3", "1/0", "1r2r2", "+", "x9", "2+", "1+1r2+1", "½", "k" * 30, "1--r2")
_BAD_DIMS = ("three", "-3", "2", "0", "³", "9" * 5000, "3.0", "0x3", "")
_BAD_KEYWORDS = ("vertex", "Atom", "ctx", "dim3", "k" * 25, "ätom")
_LABELS = ("A", "B", "C", "D", "E", "F", "GG", "h1", "x" * 24)
_UNDECLARED = ("Q", "zz", "A_", "y" * 22)
_FAULTS = (
    "bad_component", "bad_dim", "unknown_keyword", "unknown_member", "repeated_member",
    "misplaced_dim", "zero_ray", "mixed_members", "duplicate_label", "wrong_count",
)


def _ray_words(index: int, dim: int) -> list[str]:
    if index < dim:
        ray = ["0"] * dim
        ray[index] = "1"
    else:
        ray = (["1", "1"] if index == dim else ["1", "-1", "r2"]) + ["0"] * dim
    return ray[:dim]


def _faulty_gls(rng: random.Random) -> str:
    dim = rng.choice((3, 4))
    labels = rng.sample(_LABELS, 5)
    realized = rng.random() < 0.5
    lines = [["dim", str(dim)]]
    lines += [["atom", x, *(_ray_words(i, dim) if realized else [])] for i, x in enumerate(labels)]
    lines += [["context", f"c{i}", *rng.sample(labels, rng.randint(2, dim))] for i in range(3)]
    for _ in range(rng.randint(1, 2)):
        fault = rng.choice(_FAULTS)
        at = rng.randint(1, len(lines))
        declared = [w[1] for w in lines[:at] if w[0] == "atom"] or ["A"]
        if fault == "bad_component":
            words = ["atom", "Z", *_ray_words(rng.randrange(dim), dim)]
            words[2 + rng.randrange(dim)] = rng.choice(_BAD_COMPONENTS)
        elif fault == "bad_dim":
            lines[0] = ["dim", *([rng.choice(_BAD_DIMS)] if rng.random() < 0.8 else ["3", "4"])]
            continue
        elif fault == "unknown_keyword":
            words = [rng.choice(_BAD_KEYWORDS), rng.choice(labels)]
        elif fault == "unknown_member":
            unknown = [x for x in _UNDECLARED + tuple(labels) if x not in declared]
            words = ["context", "u", rng.choice(declared), rng.choice(unknown)]
        elif fault == "repeated_member":
            member = rng.choice(declared)
            words = ["context", "r", member, rng.choice(declared), member]
        elif fault == "misplaced_dim":
            if rng.random() < 0.5:
                words = ["dim", str(rng.randint(3, 5))]
            else:
                lines.insert(0, lines.pop(rng.randint(1, 5)))
                continue
        elif fault == "zero_ray":
            words = ["atom", "Z", *["0"] * dim]
            words[2 + rng.randrange(dim)] = rng.choice(("-0", "0/7", "0r2", "0+0r2"))
        elif fault == "mixed_members":
            pool = list(declared) + list(_UNDECLARED[:2])
            words = ["context", "m", *rng.choices(pool, k=rng.randint(1, dim + 1))]
            if len(set(words)) == len(words) and set(words[2:]) <= set(declared):
                words.append(words[2])
        elif fault == "duplicate_label":
            words = rng.choice((["atom", rng.choice(declared)], ["context", "c0", *labels[:2]]))
        else:
            words = ["atom", "W", *["1"] * rng.choice((1, 2, dim + 1))]
        lines.insert(at, words)
    return _layout(rng, lines)


def _layout(rng: random.Random, lines: list[list[str]]) -> str:
    """The lines written with random separators, line ends, indents and comment lines."""
    out = []
    for number, words in enumerate(lines):
        if rng.random() < 0.15:
            out.append(rng.choice(("# note\n", "\n", " \t\r\n", "#\r\n")))
        lead = rng.choice(("", "", "", " ", "\t", "  "))
        ends = _LINE_ENDS if number == len(lines) - 1 else _LINE_ENDS[:-1]
        out.append(lead + rng.choice(_SEPARATORS).join(words) + rng.choice(ends))
    return "".join(out)


# sha256 of the JSON list of every (line, column, message) below, recorded
# with the parser that built (token, column) pairs for each line.
_FAULT_DIGEST = "490b1628b887ceced68dfba4626fe6d213ff004d0a4df05a94f0b8c7aea56ff9"


def test_parse_fault_positions_are_pinned():
    rng = random.Random(20070101)
    faults = []
    for _ in range(1200):
        text = _faulty_gls(rng)
        with pytest.raises(GlsParseError) as err:
            parse_logic(text)
        faults.append([err.value.line, err.value.column, err.value.message])
    messages = {message.split(" ")[0] for _, _, message in faults}
    assert len(messages) >= 8, messages
    digest = hashlib.sha256(json.dumps(faults).encode("utf-8")).hexdigest()
    assert digest == _FAULT_DIGEST


# Seeded files of the shapes _faulty_gls never makes: a structural fault above
# a grammar fault, a dim below 3 with later faults, collinear rays, repeated
# member sets, contexts larger than dim, and atom lines after context lines,
# each declared before its first use or not.
_GRAMMAR_LINES = (
    ["vertex", "A"], ["atom"], ["context"], ["dim", "3"], ["dim"],
    ["atom", "Z", "r3", "0", "0"], ["atom", "Z", "0", "-0", "0r2"], ["atom", "Z", "1/0", "1", "1"],
)
_SCALES = ("2", "-1", "1/3", "r2", "1+1r2", "-2/5r2")
_SHAPES = (
    "structural_then_grammar", "small_dim", "collinear", "repeated_set", "too_large",
    "interleaved", "used_before_declared",
)


def _structural_line(rng: random.Random, logic: Logic) -> list[str]:
    labels = [a.label for a in logic.atoms]
    members = list(rng.choice(logic.contexts).members)
    rng.shuffle(members)
    return rng.choice((
        ["atom", rng.choice(labels)],
        ["context", "u", rng.choice(labels), "nowhere"],
        ["context", "big", *rng.sample(labels + ["Q", "zz"], logic.dimension + 1)],
        ["context", "same", *members],
        ["context", rng.choice(logic.contexts).label, *rng.sample(labels, 2)],
    ))


def _structural_gls(rng: random.Random) -> str:
    share = rng.choice((0.0, 0.5, 1.0))
    logic = with_distinct_rays(build_random_logic(rng, max_atoms=8), rng, share)
    lines = [line.split(" ") for line in serialize_logic(logic).splitlines()]
    first_context = 1 + len(logic.atoms)
    for shape in rng.sample(_SHAPES, rng.choice((1, 1, 2))):
        if shape == "structural_then_grammar":
            at = rng.randint(1, len(lines))
            lines.insert(at, _structural_line(rng, logic))
            lines.insert(rng.randint(at + 1, len(lines)), list(rng.choice(_GRAMMAR_LINES)))
        elif shape == "small_dim":
            lines[0] = ["dim", rng.choice("012")]
            for _ in range(rng.randint(1, 2)):
                fault = rng.choice((_structural_line(rng, logic), rng.choice(_GRAMMAR_LINES)))
                lines.insert(rng.randint(2, len(lines)), list(fault))
        elif shape == "collinear":
            realized = [a for a in logic.atoms if a.ray is not None]
            ray = (rng.choice(realized).ray if realized
                   else Ray(tuple(map(parse_quad, _ray_words(0, logic.dimension)))))
            scale = parse_quad(rng.choice(_SCALES))
            words = ["atom", "K", *(format_quad(c * scale) for c in ray.components)]
            lines.insert(rng.randint(1, first_context), words)
            lines.append(["context", "k", "K", rng.choice(logic.atoms).label])
        elif shape == "repeated_set":
            members = list(rng.choice(logic.contexts).members)
            rng.shuffle(members)
            lines.insert(rng.randint(first_context, len(lines)), ["context", "again", *members])
        elif shape == "too_large":
            labels = [a.label for a in logic.atoms] + ["Q"]
            words = ["context", "wide", *rng.sample(labels, min(len(labels), logic.dimension + 1))]
            lines.insert(rng.randint(first_context, len(lines)), words)
        else:  # move one atom line after a context line, before or after its first use
            atom = rng.choice(logic.atoms)
            line = next(w for w in lines if w[:2] == ["atom", atom.label])
            lines.remove(line)
            uses = [i for i, w in enumerate(lines) if w[0] == "context" and atom.label in w[2:]]
            if shape == "interleaved":
                at = rng.randint(min(first_context - 1, uses[0]), uses[0]) if uses else len(lines)
            else:
                at = rng.randint(uses[0] + 1, len(lines)) if uses else len(lines)
            lines.insert(at, line)
    return _layout(rng, lines)


# sha256 of the JSON list of every (line, column, message) below, or of the
# canonical text when a file parses.
_STRUCTURAL_DIGEST = "696bf4f784f34aeea90bd7f123cb74230d4f973b9c765df0f9cd6f8e7a34b417"


def test_structural_fault_positions_are_pinned():
    rng = random.Random(20071018)
    outcomes = []
    for _ in range(800):
        try:
            outcomes.append(serialize_logic(parse_logic(_structural_gls(rng))))
        except GlsParseError as err:
            outcomes.append([err.line, err.column, err.message])
    messages = {o[2].split(" ")[0] for o in outcomes if isinstance(o, list)}
    assert len(messages) >= 7, messages
    assert sum(isinstance(o, str) for o in outcomes) >= 50
    digest = hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()
    assert digest == _STRUCTURAL_DIGEST
