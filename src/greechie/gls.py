"""Reader and writer for the ``.gls`` logic file format.

The format is line oriented, whitespace tokenized, with ``#`` comments:

    dim 3
    atom A 1 r2 -1          # atom with an exact ray
    atom N                  # abstract atom, no ray
    context a A B C

One declaration per line.  The single ``dim`` line comes first; every context
member must be declared on an earlier line.  Components use the token grammar
of ``model.parse_quad`` ("1", "-3", "r2", "1/2r2", "1+1r2", ...).  Abstract
logics (atoms without rays) are legal; operations that need rays refuse to run
on them with a clear error.

``serialize_logic`` emits the canonical form: atoms sorted by label, contexts
in declared order, components as canonical tokens, LF line endings.  Parsing a
canonical serialization reproduces the logic exactly, and serialization is
idempotent from the first round.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .model import (
    Atom, Context, Logic, LogicChecker, LogicError, Ray, format_quad, parse_quad, quote_token,
)
from .model import rays_collinear  # noqa: F401  (bench/spans.py traces it under this name)

CORPUS_FILES = (
    "star4.gls",
    "gamma1.gls",
    "gamma3pair.gls",
    "cabello18.gls",
    "l12.gls",
    "chain3.gls",
    "tight3.gls",
    "tight3_4d.gls",
)


class GlsParseError(ValueError):
    """A diagnostic with 1-based line and column of the offending token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _tokenize_line(raw: str) -> list[tuple[str, int]]:
    """Split one line into (token, 1-based column) pairs, dropping comments.

    Tabs and carriage returns separate tokens like spaces, so no label can
    hold a CR that the canonical writer would turn into a line ending.
    """
    if "#" in raw:
        raw = raw[: raw.index("#")]
    out: list[tuple[str, int]] = []
    col = 1
    for piece in raw.replace("\t", " ").replace("\r", " ").split(" "):
        if piece:
            out.append((piece, col))
        col += len(piece) + 1
    return out


def _parse_dimension(value: str, lineno: int, col: int) -> int:
    try:
        if value.isascii() and value.isdigit():
            return int(value)
    except ValueError:  # more digits than int() converts
        pass
    raise GlsParseError(f"dimension must be a positive integer, got {quote_token(value)}", lineno, col)


def parse_logic(text: str) -> Logic:
    """Parse ``.gls`` text into a validated Logic.

    Raises GlsParseError with line/column on the first problem in file order:
    a grammar fault (unknown keyword, misplaced or malformed ``dim``, missing
    label, a component token outside Q(sqrt(2))) or a structural rule of
    ``model.LogicChecker``, which sees every declaration as it is read.
    """
    checker: LogicChecker | None = None
    atoms: list[Atom] = []
    contexts: list[Context] = []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = _tokenize_line(raw)
        if not tokens:
            continue
        keyword, kw_col = tokens[0]
        try:
            if keyword == "dim":
                if checker is not None:
                    raise GlsParseError("duplicate dim declaration", lineno, kw_col)
                if len(tokens) != 2:
                    raise GlsParseError("expected: dim <integer>", lineno, kw_col)
                value, col = tokens[1]
                checker = LogicChecker(_parse_dimension(value, lineno, col))

            elif keyword == "atom":
                if checker is None:
                    raise GlsParseError("dim must be declared before atoms", lineno, kw_col)
                if len(tokens) < 2:
                    raise GlsParseError("expected: atom <label> [components...]", lineno, kw_col)
                values = []
                for tok, col in tokens[2:]:
                    try:
                        values.append(parse_quad(tok))
                    except ValueError as exc:
                        raise GlsParseError(str(exc), lineno, col) from None
                atom = Atom(tokens[1][0], Ray(tuple(values)) if values else None)
                checker.atom(atom)
                atoms.append(atom)

            elif keyword == "context":
                if checker is None:
                    raise GlsParseError("dim must be declared before contexts", lineno, kw_col)
                if len(tokens) < 2:
                    raise GlsParseError("expected: context <label> <member>...", lineno, kw_col)
                context = Context(tokens[1][0], tuple(m for m, _ in tokens[2:]))
                checker.context(context)
                contexts.append(context)

            else:
                raise GlsParseError(f"unknown keyword {quote_token(keyword)}", lineno, kw_col)
        except LogicError as exc:
            # The checker names the token; Ray's own fault (the zero ray) has
            # none and lies in the components.
            token = 1 if exc.token is None else exc.token
            raise GlsParseError(str(exc), lineno, tokens[token + 1][1]) from None

    last_line = text.count("\n") + 1
    if checker is None:
        raise GlsParseError("missing dim declaration", last_line, 1)
    try:
        checker.finish()
    except LogicError as exc:
        # An atom that occurs in no context has no single offending line.
        raise GlsParseError(str(exc), last_line, 1) from None
    return Logic(checker.dimension, tuple(atoms), tuple(contexts))


def serialize_logic(logic: Logic) -> str:
    """Canonical text: dim line, atoms sorted by label, contexts in declared order."""
    lines = [f"dim {logic.dimension}"]
    for atom in sorted(logic.atoms, key=lambda a: a.label):
        if atom.ray is None:
            lines.append(f"atom {atom.label}")
        else:
            comps = " ".join(format_quad(c) for c in atom.ray.components)
            lines.append(f"atom {atom.label} {comps}")
    for ctx in logic.contexts:
        lines.append(f"context {ctx.label} " + " ".join(ctx.members))
    return "\n".join(lines) + "\n"


def load_logic(path: str | Path) -> Logic:
    return parse_logic(Path(path).read_text(encoding="utf-8-sig"))


def corpus_path(name: str) -> Path:
    """Filesystem path of a bundled corpus file, e.g. ``corpus_path("gamma1.gls")``."""
    ref = resources.files(__package__) / "corpus" / name
    path = Path(str(ref))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled corpus file named {name!r}")
    return path


def load_corpus(name: str) -> Logic:
    return load_logic(corpus_path(name))
