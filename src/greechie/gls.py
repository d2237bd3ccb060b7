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

``parse_logic`` reads a file in one pass and checks the whole logic in bulk
with ``model.check_logic``.  Only on a fault does it walk the declarations
one at a time with ``model.LogicChecker``, which names the first fault in
file order with its line and column.

``serialize_logic`` emits the canonical form: atoms sorted by label, contexts
in declared order, components as canonical tokens, LF line endings.  Parsing a
canonical serialization reproduces the logic exactly, and serialization is
idempotent from the first round.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .model import (
    Atom, Context, Logic, LogicChecker, LogicError, Ray, check_logic, format_quad, parse_quad,
    quote_token,
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


def _pieces(text: str) -> list[list[str]]:
    """Split text into lines and each line at every separator, dropping comments.

    Tokens are the nonempty pieces; a run of separators leaves empty ones, so
    the pieces also give each token's column.  Tabs and carriage returns
    separate tokens like spaces, so no label can hold a CR that the canonical
    writer would turn into a line ending.  No other character separates:
    ``str.split()`` would also split at NBSP and other Unicode spaces.
    """
    lines = []
    for raw in text.replace("\t", " ").replace("\r", " ").split("\n"):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        lines.append(raw.split(" "))
    return lines


def _column(pieces: list[str], index: int) -> int:
    """1-based column of the index-th token of a line; only faults need it."""
    column = 1
    for piece in pieces:
        if piece:
            if not index:
                break
            index -= 1
        column += len(piece) + 1
    return column


def _parse_dimension(value: str) -> int:
    try:
        if value.isascii() and value.isdigit():
            return int(value)
    except ValueError:  # more digits than int() converts
        pass
    raise ValueError(f"dimension must be a positive integer, got {quote_token(value)}")


def parse_logic(text: str) -> Logic:
    """Parse ``.gls`` text into a validated Logic.

    Raises GlsParseError with line/column on the first problem in file order:
    a grammar fault (unknown keyword, misplaced or malformed ``dim``, missing
    label, a component token outside Q(sqrt(2))) or a structural rule of
    ``model.LogicChecker``.  The file is read in one pass and checked in bulk
    by ``model.check_logic``; only when that finds a fault, or when an atom
    line follows a context line, are the declarations walked one at a time
    to name the fault, or to accept the file.
    """
    lines = _pieces(text)
    try:
        logic = _read(lines)
    except ValueError:  # a component, ray or dimension fault; LogicError is one too
        logic = None
    if logic is not None and check_logic(logic):
        return logic
    return _walk(lines)


def _read(lines: list[list[str]]) -> Logic | None:
    """The logic the lines declare, or None at a grammar fault or an atom after a context."""
    dimension = None
    atoms: list[Atom] = []
    contexts: list[Context] = []
    for tokens in lines:
        if "" in tokens:
            tokens = [piece for piece in tokens if piece]
            if not tokens:
                continue
        keyword = tokens[0]
        if keyword == "atom" and len(tokens) > 1 and dimension is not None and not contexts:
            components = tokens[2:]
            ray = Ray(tuple(map(parse_quad, components))) if components else None
            atoms.append(Atom(tokens[1], ray))
        elif keyword == "context" and len(tokens) > 1 and dimension is not None:
            contexts.append(Context(tokens[1], tuple(tokens[2:])))
        elif keyword == "dim" and len(tokens) == 2 and dimension is None:
            dimension = _parse_dimension(tokens[1])
        else:
            return None
    if dimension is None:
        return None
    return Logic(dimension, tuple(atoms), tuple(contexts))


def _walk(lines: list[list[str]]) -> Logic:
    """Check each declaration as it is read, raising GlsParseError on the first fault."""
    checker: LogicChecker | None = None
    atoms: list[Atom] = []
    contexts: list[Context] = []

    for lineno, pieces in enumerate(lines, start=1):
        tokens = list(filter(None, pieces))
        if not tokens:
            continue
        keyword = tokens[0]
        try:
            if keyword == "dim":
                if checker is not None:
                    raise GlsParseError("duplicate dim declaration", lineno, _column(pieces, 0))
                if len(tokens) != 2:
                    raise GlsParseError("expected: dim <integer>", lineno, _column(pieces, 0))
                try:
                    dimension = _parse_dimension(tokens[1])
                except ValueError as exc:
                    raise GlsParseError(str(exc), lineno, _column(pieces, 1)) from None
                checker = LogicChecker(dimension)

            elif keyword == "atom":
                if checker is None:
                    raise GlsParseError(
                        "dim must be declared before atoms", lineno, _column(pieces, 0)
                    )
                if len(tokens) < 2:
                    raise GlsParseError(
                        "expected: atom <label> [components...]", lineno, _column(pieces, 0)
                    )
                values = []
                try:
                    for token in tokens[2:]:
                        values.append(parse_quad(token))
                except ValueError as exc:
                    raise GlsParseError(
                        str(exc), lineno, _column(pieces, len(values) + 2)
                    ) from None
                atom = Atom(tokens[1], Ray(tuple(values)) if values else None)
                checker.atom(atom)
                atoms.append(atom)

            elif keyword == "context":
                if checker is None:
                    raise GlsParseError(
                        "dim must be declared before contexts", lineno, _column(pieces, 0)
                    )
                if len(tokens) < 2:
                    raise GlsParseError(
                        "expected: context <label> <member>...", lineno, _column(pieces, 0)
                    )
                context = Context(tokens[1], tuple(tokens[2:]))
                checker.context(context)
                contexts.append(context)

            else:
                raise GlsParseError(
                    f"unknown keyword {quote_token(keyword)}", lineno, _column(pieces, 0)
                )
        except LogicError as exc:
            # The checker names the token; Ray's own fault (the zero ray) has
            # none and lies in the components.
            token = 1 if exc.token is None else exc.token
            raise GlsParseError(str(exc), lineno, _column(pieces, token + 1)) from None

    last_line = len(lines)
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
