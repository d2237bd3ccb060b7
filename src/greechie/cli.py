"""Command-line driver: every analysis as a subcommand over ``.gls`` files.

Exit codes: 0 on success, 1 when ``--strict`` is set and the analysis found
the adverse outcome (failed verification, empty state space, rule explosion,
parity obstruction, forced collapses, quantum violations), 2 on usage or
parse errors.

Output is byte-deterministic: fixed orderings everywhere, JSON with sorted
keys (``_write_json``), probabilities printed with nine decimals in text mode.
Every document, text or JSON, is one list of pieces written by ``_emit``.
A ``states --list`` report holds the state codes, not their bit strings; the
listing is formatted and written ``LISTING_BLOCK`` states at a time.
"""

from __future__ import annotations

import argparse
import decimal
import errno
import functools
import os
import sys
from json.encoder import INFINITY, encode_basestring_ascii
from typing import Any, Iterable, Iterator, Sequence

from . import analysis, diagrams, gls
from .model import Logic, LogicError, format_quad, inner_product, quote_token


def _fmt(value: float) -> str:
    return format(round(value, 9) + 0.0, ".9f")


def _digits(value: int) -> str:
    """An int in full: unlike ``str``, ``Decimal`` is not held to the
    interpreter's limit on digits converted (4 300 by default)."""
    return str(decimal.Decimal(value))


# --------------------------------------------------------------------------
# per-subcommand report builders: Logic -> (json dict, text lines, negative?)
# --------------------------------------------------------------------------
# JSON documents hold the records' own fields and tuples.  ``vars`` gives a
# record's live ``__dict__``: none of these records may gain a cached_property.

def _report_check(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    report = analysis.verify_realization(logic)
    contexts = []
    lines = []
    for check in report.checks:
        entry = {**vars(check), "inner": None}
        if check.failing_pair:
            x, y = check.failing_pair
            try:
                entry["inner"] = format_quad(inner_product(logic.ray_of(x), logic.ray_of(y)))
            except ValueError:  # past the interpreter's limit on printed digits
                raise LogicError(
                    f"context {quote_token(check.label)}: the inner product of "
                    f"{quote_token(x)} and {quote_token(y)} has too many digits to print"
                ) from None
            lines.append(f"  context {check.label}: FAIL <{x},{y}> inner {entry['inner']}")
        else:
            note = " (non-maximal)" if check.non_maximal else ""
            lines.append(f"  context {check.label}: ok{note}")
        contexts.append(entry)
    for x, y in report.collinear_pairs:
        lines.append(f"  collinear atoms: {x} ~ {y}")
    verdict = "PASS" if report.passed else "FAIL"
    lines.insert(0, f"{verdict} ({len(report.checks)} contexts, dim {report.dimension})")
    doc = {
        "dimension": report.dimension,
        "passed": report.passed,
        "contexts": contexts,
        "collinear_pairs": report.collinear_pairs,
    }
    return doc, lines, not report.passed


def _report_states(logic: Logic, args: argparse.Namespace) -> tuple[dict, list, bool]:
    if args.count_only and not args.json:
        count = analysis.count_states(logic)
        return {}, [_digits(count)], not count
    report = (analysis.enumerate_states if args.list else analysis.summarize_states)(logic)
    doc: dict[str, Any] = {
        "count": report.count,
        "empty": report.empty,
        "unital": report.unital,
        "separating": report.separating,
        "labels": logic.labels,
    }
    lines = [
        f"count={_digits(report.count)} empty={report.empty} "
        f"unital={report.unital} separating={report.separating}"
    ]
    if args.list:
        listing = _Listing(report.codes, len(logic.labels))
        doc["states"] = listing
        lines.append("atoms: " + " ".join(logic.labels))
        lines.append(listing)
    return doc, lines, report.empty


# States formatted per join in a listing: enough that a block costs little
# more than its own strings, few enough that no large text is ever held.
LISTING_BLOCK = 1024


class _Listing:
    """The ascending state codes of a ``--list`` report.  It stands as the
    ``states`` array of the report's JSON document and as the last of its
    text lines, and is written as bit strings, ``LISTING_BLOCK`` states per
    join."""

    def __init__(self, codes: tuple[int, ...], width: int) -> None:
        self.codes, self.width = codes, width

    def _blocks(self) -> Iterator[list[str]]:
        codes, size = self.codes, LISTING_BLOCK
        for start in range(0, len(codes), size):
            yield analysis.bit_strings_of(codes[start:start + size], self.width)

    def text(self, indent: str) -> Iterator[str]:
        """Each state on its own line after ``indent``."""
        separator = "\n" + indent
        for block in self._blocks():
            yield indent + separator.join(block) + "\n"

    def json(self, newline: str) -> Iterator[str]:
        """The states as a JSON array whose lines start with ``newline``.
        A bit string needs no escapes, so quoting it encodes it."""
        if not self.codes:
            yield "[]"
            return
        inner = newline + '  "'
        separator, opening = '",' + inner, "[" + inner
        for block in self._blocks():
            yield opening + separator.join(block) + '"'
            opening = separator[1:]
        yield newline + "]"


def _report_rules(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    rules = analysis.derive_rules(analysis.summarize_states(logic), logic)
    one_zero = sorted(rules.one_zero)
    one_one = sorted((x, y) for x, y in rules.one_one if x != y)
    equivalences = sorted(tuple(sorted(e)) for e in rules.equivalences)
    doc = {
        "explosion": rules.explosion,
        "one_zero": one_zero,
        "one_one": one_one,
        "equivalences": equivalences,
        "never_true": rules.never_true,
    }
    lines = []
    if rules.explosion:
        lines.append("explosion: no two-valued states, every rule holds vacuously")
    for x, y in one_zero:
        lines.append(f"one-zero: {x} -> {y}")
    for x, y in one_one:
        lines.append(f"one-one: {x} -> {y}")
    for x, y in equivalences:
        lines.append(f"equivalent: {x} == {y}")
    if not rules.explosion:
        lines.extend(f"never-true: {atom}" for atom in rules.never_true)
    if not lines:
        lines.append("no rules")
    return doc, lines, rules.explosion


def _report_parity(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    certificate = analysis.parity_obstruction(logic)
    if certificate is None:
        return {"certificate": None}, ["no parity certificate"], False
    doc = {
        "certificate": {
            "context_count": certificate.context_count,
            "atom_multiplicities": dict(certificate.atom_multiplicities),
        }
    }
    lines = [
        f"certificate: {certificate.context_count} contexts (odd), "
        "every atom in an even number of contexts",
    ]
    lines.extend(f"  {atom}: {count}" for atom, count in certificate.atom_multiplicities)
    lines.append("no two-valued states exist")
    return doc, lines, True


def _report_collapse(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    report = analysis.infer_collapses(logic)
    doc = {
        "dimension": report.dimension,
        "identifications": [vars(i) for i in report.forced_identifications],
    }
    if report.forced_identifications:
        lines = [
            f"identify {i.pair[0]} = {i.pair[1]} (witness: {', '.join(i.witness)})"
            for i in report.forced_identifications
        ]
    else:
        lines = ["no forced identifications"]
    return doc, lines, bool(report.forced_identifications)


def _report_dual(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    dual = diagrams.tkadlec_dual(logic)
    doc = {"nodes": dual.nodes, "edges": [vars(e) for e in dual.edges]}
    lines = [f"{len(dual.nodes)} contexts, {len(dual.edges)} links"]
    lines.extend(f"  {e.left} -- {e.right} via {','.join(e.atoms)}" for e in dual.edges)
    return doc, lines, False


def _report_quantum(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    from . import quantum as qm  # the only subcommand that needs numpy

    pair = qm.EntangledPair(logic.dimension)
    rules = analysis.derive_rules(analysis.summarize_states(logic), logic)

    def claim(row: qm.FalsificationRow) -> str:
        verdict = "VIOLATED" if row.violated else "consistent"
        return f"classical 0, quantum {_fmt(row.quantum)}, {verdict}"

    if args.pair:
        x, y = args.pair
        for label in (x, y):
            if label not in logic.atom_map:
                raise LogicError(f"no atom labeled {quote_token(label)}")
        prediction = qm.joint_probability(pair, logic.ray_of(x), logic.ray_of(y))
        row = qm.confront(rules, x, y, prediction)
        doc = {**vars(row), **vars(prediction)}
        if row.classical is None:
            line = f"pair ({x},{y}): no classical rule, quantum {_fmt(row.quantum)}"
        else:
            line = f"pair ({x},{y}): {claim(row)} ({row.kind})"
        return doc, [line], row.violated

    rows = qm.falsification_report(logic, rules, pair)
    violated_count = sum(1 for r in rows if r.violated)
    lines = []
    if not args.json:  # a JSON run writes no text line
        lines = [f"{r.kind} ({r.pair[0]},{r.pair[1]}): {claim(r)}" for r in rows]
        lines.append(f"{violated_count} of {len(rows)} rules violated")
    return {"rows": [vars(r) for r in rows]}, lines, violated_count > 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _pair_argument(text: str) -> tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated atom labels, got {quote_token(text)}"
        )
    return parts[0], parts[1]


class _ArgumentParser(argparse.ArgumentParser):
    """Help for stdout goes through ``_emit``, so a help that cannot be
    written refuses the run; argparse's own write drops the fault."""

    def print_help(self, file=None) -> None:
        if file is None:
            _emit([self.format_help()], None)
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="greechie",
        description="Verify and analyze finite quantum logics stored in .gls files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_files_command(name: str, help_text: str, report, strict: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=_run_file_command, report=report)
        p.add_argument("files", nargs="+", metavar="FILE", help=".gls input file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
        if strict:
            p.add_argument(
                "--strict",
                action="store_true",
                help="exit 1 when the analysis reports an adverse outcome",
            )
        return p

    add_files_command("check", "verify exact orthogonality of a ray assignment", _report_check)
    p_states = add_files_command("states", "enumerate all two-valued states", _report_states)
    group = p_states.add_mutually_exclusive_group()
    group.add_argument("--count-only", action="store_true", help="print only the state count")
    group.add_argument("--list", action="store_true", help="list states as bit strings")
    add_files_command("rules", "derive one-zero and one-one/zero-zero rules", _report_rules)
    add_files_command("parity", "look for a parity proof of state-space emptiness", _report_parity)
    add_files_command(
        "collapse", "infer ray identifications forced by the dimension", _report_collapse
    )
    add_files_command("dual", "print the context dual graph", _report_dual, strict=False)

    p_dot = sub.add_parser("dot", help="emit the logic as DOT graph text")
    p_dot.set_defaults(run=_run_dot)
    p_dot.add_argument("files", nargs="+", metavar="FILE", help=".gls input file")
    p_dot.add_argument(
        "--mode",
        choices=diagrams.DOT_MODES,
        default="greechie-incidence",
        help="bipartite incidence picture or the context dual",
    )
    p_dot.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    p_quantum = add_files_command(
        "quantum", "confront derived rules with entangled-state predictions", _report_quantum
    )
    p_quantum.add_argument(
        "--pair",
        type=_pair_argument,
        metavar="X,Y",
        help="report the joint probability for one atom pair",
    )

    p_star = sub.add_parser("star", help="generate the d-star logic as .gls text")
    p_star.set_defaults(run=_run_star)
    p_star.add_argument("dimension", type=int, metavar="N", help="dimension (>= 3)")
    p_star.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    return parser


# ``main`` reuses one parser per process: ``parse_args`` keeps its state in a
# fresh Namespace, and help width and output streams are read when printing.
# Built on first use, not at import.
_parser = functools.cache(build_parser)


# --------------------------------------------------------------------------
# JSON writer
# --------------------------------------------------------------------------

def _joined(pieces: list) -> Iterator[str]:
    """Each run of strings in ``pieces`` joined, and each other piece, an
    iterator of chunks, written out in its place."""
    run: list[str] = []
    for piece in pieces:
        if isinstance(piece, str):
            run.append(piece)
        else:
            yield "".join(run)
            run = []
            yield from piece
    yield "".join(run)


def _write_json(value: Any, chunks: list, newline: str) -> None:
    """Append ``value`` to ``chunks``; ``newline`` starts a line at its depth.

    From the top, with ``newline`` ``"\n"``, the joined chunks are
    ``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for str
    keys and dict, list, tuple, str, int, float, bool and None values.  A
    document holds its records' tuples, which are written as arrays.  With
    ``indent`` set the stdlib falls back to its pure-Python encoder; this
    writer encodes strings in C and writes scalars inline by the same rules.
    A state listing is appended as the iterator of its blocks."""
    if isinstance(value, str):
        chunks.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        separator, opening = "," + inner, "{" + inner
        for key, item in sorted(value.items()):
            chunks.append(opening)
            chunks.append(encode_basestring_ascii(key))
            chunks.append(": ")
            _write_json(item, chunks, inner)
            opening = separator
        chunks.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        separator, opening = "," + inner, "[" + inner
        for item in value:
            # A string item is one chunk: no call, and half the chunks on
            # the label and pair lists that make up most documents.
            if isinstance(item, str):
                chunks.append(opening + encode_basestring_ascii(item))
            else:
                chunks.append(opening)
                _write_json(item, chunks, inner)
            opening = separator
        chunks.append(newline + "]")
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(_digits(value))
    elif isinstance(value, float):
        if value != value:
            chunks.append("NaN")
        elif value == INFINITY:
            chunks.append("Infinity")
        elif value == -INFINITY:
            chunks.append("-Infinity")
        else:
            chunks.append(float.__repr__(value))
    elif isinstance(value, _Listing):
        chunks.append(value.json(newline))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

class _Refusal(Exception):
    """An input or output fault: the run ends with exit 2 and this message, as
    it does on a ``LogicError`` that reaches ``main``."""


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write ``chunks`` in order to the file ``out``, or to stdout when
    ``out`` is None.  A reader that closes stdout early (``| head``) ends the
    writing, not the run; any other write fault refuses the run, as do a
    text that the output's encoding cannot hold and a stdout that was closed
    before the run started (``sys.stdout`` is None)."""
    if out is None and sys.stdout is None:
        raise _Refusal(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    try:
        if out is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with open(out, "w", encoding="utf-8") as stream:
                stream.writelines(chunks)
    except (OSError, UnicodeEncodeError) as exc:
        if out is None:
            # What is still buffered goes to the null device at exit, so the
            # interpreter's last flush finds nothing to complain about.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            if isinstance(exc, BrokenPipeError):
                return
        name = "stdout" if out is None else repr(out)
        raise _Refusal(f"cannot write {name}: {getattr(exc, 'strerror', None) or exc}") from None


def _load(name: str) -> Logic:
    try:
        return gls.load_logic(name)
    except OSError as exc:
        raise _Refusal(f"cannot read {name!r}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, gls.GlsParseError) as exc:
        raise _Refusal(f"{name}: {exc}") from None


def _run_file_command(args: argparse.Namespace) -> int:
    """Load and analyse every file, then write all reports as one document.

    Nothing is written before the last file's report is built, so a refused
    run prints nothing and creates no ``--out`` file.  The document, text or
    JSON, is one list of pieces: strings, and in a ``--list`` run the block
    iterator of each listing, whose states are formatted only while the
    document is written (``_Listing``).  A ``--list`` document is written
    as string runs and listing blocks in turn; any other is joined and
    written at once.
    """
    reports: list[dict] = []
    pieces: list = []
    negatives = 0
    as_json = args.json
    indent = "  " if len(args.files) > 1 else ""
    for name in args.files:
        try:
            doc, lines, negative = args.report(_load(name), args)
        except LogicError as exc:
            raise _Refusal(f"{name}: {exc}") from None
        reports.append({"file": name, **doc})
        if negative:
            negatives += 1
        if as_json:
            continue
        if indent:
            pieces.append(f"{name}:\n")
        pieces.extend(
            indent + line + "\n" if isinstance(line, str) else line.text(indent) for line in lines
        )

    if as_json:
        payload = {
            "command": args.command,
            "reports": reports,
            "summary": {"files": len(args.files), "negative_findings": negatives},
        }
        _write_json(payload, pieces, "\n")
        pieces.append("\n")
    elif indent:
        pieces.append(f"{len(args.files)} files, {negatives} with adverse findings\n")
    _emit(_joined(pieces) if getattr(args, "list", False) else ("".join(pieces),), args.out)

    if getattr(args, "strict", False) and negatives:
        return 1
    return 0


def _run_dot(args: argparse.Namespace) -> int:
    _emit(["".join(diagrams.emit_dot(_load(name), args.mode) for name in args.files)], args.out)
    return 0


def _run_star(args: argparse.Namespace) -> int:
    _emit([gls.serialize_logic(analysis.make_star(args.dimension))], args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (_Refusal, LogicError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
