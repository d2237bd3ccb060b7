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

``parse_logic`` reads a file in one pass, up to the first grammar fault, and
checks the declarations read with ``model.first_fault``: in bulk, with sets,
when every atom line comes before the first context line, and one
declaration at a time, in file order, to name a fault or when an atom line
follows a context line.  A structural fault is shown at its declaration's
line; one above a grammar fault comes first.

``serialize_logic`` emits the canonical form: atoms sorted by label, contexts
in declared order, components as canonical tokens, LF line endings.  It
refuses a label that the reader would split or cut.  Parsing a canonical
serialization reproduces the logic with its atoms in label order, and
serialization is idempotent from the first round.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .model import (
    Atom, Context, Logic, LogicError, Ray, first_fault, format_quad, parse_quad, quote_token,
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


def _declaration_lines(lines: list[list[str]]) -> list[tuple[int, list[str]]]:
    """(line number, pieces) of each line holding a token: up to the first grammar
    fault, the dim line and then one declaration per line."""
    return [(lineno, pieces) for lineno, pieces in enumerate(lines, start=1) if any(pieces)]


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
    label, a component token outside Q(sqrt(2)), the zero ray) or a structural
    rule of ``model.first_fault``.  One pass reads the lines up to the first
    grammar fault; ``first_fault`` then checks the declarations read, and a
    structural fault among them comes first.
    """
    lines = _pieces(text)
    dimension = None
    atoms: list[Atom] = []
    contexts: list[Context] = []
    interleaved = False  # an atom line follows a context line
    fault = None  # the first grammar fault: line number, token index, message
    for lineno, pieces in enumerate(lines, start=1):
        tokens = pieces
        if "" in tokens:
            tokens = [piece for piece in tokens if piece]
            if not tokens:
                continue
        keyword = tokens[0]
        if keyword == "atom" and len(tokens) > 1 and dimension is not None:
            ray = None
            if len(tokens) > 2:
                values = []
                try:
                    for token in tokens[2:]:
                        values.append(parse_quad(token))
                    ray = Ray(values)
                except LogicError as exc:  # the zero ray, shown at its first component
                    fault = lineno, 2, str(exc)
                    break
                except ValueError as exc:  # shown at the first bad component
                    fault = lineno, len(values) + 2, str(exc)
                    break
            if contexts:
                interleaved = True
            atoms.append(Atom(tokens[1], ray))
        elif keyword == "context" and len(tokens) > 1 and dimension is not None:
            contexts.append(Context(tokens[1], tokens[2:]))
        elif keyword == "dim" and len(tokens) == 2 and dimension is None:
            try:
                dimension = _parse_dimension(tokens[1])
            except ValueError as exc:
                fault = lineno, 1, str(exc)
                break
        else:
            if keyword == "dim" and dimension is not None:
                message = "duplicate dim declaration"
            elif keyword == "dim":
                message = "expected: dim <integer>"
            elif keyword not in ("atom", "context"):
                message = f"unknown keyword {quote_token(keyword)}"
            elif dimension is None:
                message = f"dim must be declared before {keyword}s"
            elif keyword == "atom":
                message = "expected: atom <label> [components...]"
            else:
                message = "expected: context <label> <member>..."
            fault = lineno, 0, message
            break

    if dimension is not None:
        count = len(atoms) + len(contexts)
        declarations = None
        if interleaved:
            typed = {"atom": iter(atoms), "context": iter(contexts)}
            kinds = [next(filter(None, pieces)) for _, pieces in _declaration_lines(lines)]
            declarations = [next(typed[kind]) for kind in kinds[1 : count + 1]]
        structural = first_fault(dimension, atoms, contexts, declarations)
        # An atom in no context is a fault only at the end of the file.
        if structural is not None and (fault is None or structural[0] < count):
            index, exc = structural
            if index == count:
                raise GlsParseError(str(exc), len(lines), 1)
            lineno, pieces = _declaration_lines(lines)[index + 1]
            raise GlsParseError(str(exc), lineno, _column(pieces, exc.token + 1))
    if fault is not None:
        lineno, token, message = fault
        raise GlsParseError(message, lineno, _column(lines[lineno - 1], token))
    if dimension is None:
        raise GlsParseError("missing dim declaration", len(lines), 1)
    return Logic(dimension, atoms, contexts)


# What ``_pieces`` splits or cuts a line at.
_SEPARATORS = frozenset(" \t\r\n#")


def serialize_logic(logic: Logic) -> str:
    """Canonical text: dim line, atoms sorted by label, contexts in declared order.

    Raises LogicError for the first label, atoms before contexts, that the
    reader cannot read back: an empty one, or one holding a separator or ``#``."""
    for kind, items in (("atom", logic.atoms), ("context", logic.contexts)):
        for item in items:
            if not item.label or not _SEPARATORS.isdisjoint(item.label):
                raise LogicError(f"{kind} label {quote_token(item.label)} cannot be a .gls token")
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
    """Parse a ``.gls`` file as written: its line endings are not translated,
    so a CRLF line ends as an LF line does and a lone CR separates tokens,
    as in ``parse_logic``.  A leading UTF-8 byte order mark is skipped."""
    with open(path, encoding="utf-8-sig", newline="") as stream:
        return parse_logic(stream.read())


def corpus_path(name: str) -> Path:
    """Filesystem path of a bundled corpus file, e.g. ``corpus_path("gamma1.gls")``."""
    ref = resources.files(__package__) / "corpus" / name
    path = Path(str(ref))
    if not path.is_file():
        raise FileNotFoundError(f"no bundled corpus file named {name!r}")
    return path


def load_corpus(name: str) -> Logic:
    return load_logic(corpus_path(name))
