"""Command-line driver: every analysis as a subcommand over ``.gls`` files.

Exit codes: 0 on success, 1 when ``--strict`` is set and the analysis found
the adverse outcome (failed verification, empty state space, rule explosion,
parity obstruction, forced collapses, quantum violations), 2 on usage or
parse errors.

Output is byte-deterministic: fixed orderings everywhere, JSON with sorted
keys, probabilities printed with nine decimals in text mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Sequence

from . import analysis, diagrams, gls
from .model import Logic, LogicError, format_quad, inner_product, quote_token


def _fmt(value: float) -> str:
    return format(round(value, 9) + 0.0, ".9f")


# --------------------------------------------------------------------------
# per-subcommand report builders: Logic -> (json dict, text lines, negative?)
# --------------------------------------------------------------------------

def _report_check(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    report = analysis.verify_realization(logic)
    contexts = []
    lines = []
    for check in report.checks:
        entry: dict[str, Any] = {
            "label": check.label,
            "ok": check.ok,
            "non_maximal": check.non_maximal,
            "failing_pair": list(check.failing_pair) if check.failing_pair else None,
            "inner": None,
        }
        if check.failing_pair:
            x, y = check.failing_pair
            entry["inner"] = format_quad(inner_product(logic.ray_of(x), logic.ray_of(y)))
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
        "collinear_pairs": [list(p) for p in report.collinear_pairs],
    }
    return doc, lines, not report.passed


def _report_states(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    report = (analysis.enumerate_states if args.list else analysis.summarize_states)(logic)
    if args.count_only and not args.json:
        return {}, [str(report.count)], report.empty
    doc: dict[str, Any] = {
        "count": report.count,
        "empty": report.empty,
        "unital": report.unital,
        "separating": report.separating,
        "labels": list(logic.labels),
    }
    lines = [
        f"count={report.count} empty={report.empty} "
        f"unital={report.unital} separating={report.separating}"
    ]
    if args.list:
        doc["states"] = list(report.bit_strings)
        lines.append("atoms: " + " ".join(logic.labels))
        lines.extend(report.bit_strings)
    return doc, lines, report.empty


def _report_rules(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    rules = analysis.derive_rules(analysis.summarize_states(logic), logic)
    one_zero = sorted(rules.one_zero)
    one_one = sorted((x, y) for x, y in rules.one_one if x != y)
    equivalences = sorted(tuple(sorted(e)) for e in rules.equivalences)
    doc = {
        "explosion": rules.explosion,
        "one_zero": [list(p) for p in one_zero],
        "one_one": [list(p) for p in one_one],
        "equivalences": [list(p) for p in equivalences],
        "never_true": list(rules.never_true),
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
    for atom in rules.never_true:
        if not rules.explosion:
            lines.append(f"never-true: {atom}")
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
    lines.extend(
        f"  {atom}: {count}" for atom, count in certificate.atom_multiplicities
    )
    lines.append("no two-valued states exist")
    return doc, lines, True


def _report_collapse(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    report = analysis.infer_collapses(logic)
    doc = {
        "dimension": report.dimension,
        "identifications": [
            {"pair": list(i.pair), "witness": list(i.witness)}
            for i in report.forced_identifications
        ],
    }
    if report.forced_identifications:
        lines = [
            f"identify {x} = {y} (witness: {', '.join(i.witness)})"
            for i in report.forced_identifications
            for x, y in [i.pair]
        ]
    else:
        lines = ["no forced identifications"]
    return doc, lines, bool(report.forced_identifications)


def _report_dual(logic: Logic, args: argparse.Namespace) -> tuple[dict, list[str], bool]:
    dual = diagrams.tkadlec_dual(logic)
    doc = {
        "nodes": list(dual.nodes),
        "edges": [
            {"left": e.left, "right": e.right, "atoms": list(e.atoms)}
            for e in dual.edges
        ],
    }
    lines = [f"{len(dual.nodes)} contexts, {len(dual.edges)} links"]
    lines.extend(
        f"  {e.left} -- {e.right} via {','.join(e.atoms)}" for e in dual.edges
    )
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
        probs = {
            "prob_both": prediction.prob_both,
            "marginal_left": prediction.marginal_left,
            "marginal_right": prediction.marginal_right,
        }
        row = qm.confront(rules, x, y, **probs)
        doc = {**asdict(row), **probs}
        if row.classical is None:
            line = f"pair ({x},{y}): no classical rule, quantum {_fmt(row.quantum)}"
        else:
            line = f"pair ({x},{y}): {claim(row)} ({row.kind})"
        return doc, [line], row.violated

    rows = qm.falsification_report(logic, rules, pair)
    lines = [f"{r.kind} ({r.pair[0]},{r.pair[1]}): {claim(r)}" for r in rows]
    violated_count = sum(1 for r in rows if r.violated)
    lines.append(f"{violated_count} of {len(rows)} rules violated")
    return {"rows": [asdict(r) for r in rows]}, lines, violated_count > 0


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

class _Refusal(Exception):
    """An input or output fault: the run ends with exit 2 and this message."""


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Refusal(f"cannot write {out!r}: {exc.strerror or exc}") from None


def _load(name: str) -> Logic:
    try:
        return gls.load_logic(name)
    except OSError as exc:
        raise _Refusal(f"cannot read {name!r}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, gls.GlsParseError) as exc:
        raise _Refusal(f"{name}: {exc}") from None


def _run_file_command(args: argparse.Namespace) -> int:
    reports: list[dict] = []
    blocks: list[str] = []
    negatives = 0
    for name in args.files:
        try:
            doc, lines, negative = args.report(_load(name), args)
        except LogicError as exc:
            raise _Refusal(f"{name}: {exc}") from None
        doc = {"file": name, **doc}
        reports.append(doc)
        if len(args.files) > 1:
            blocks.append(f"{name}:")
            blocks.extend("  " + line for line in lines)
        else:
            blocks.extend(lines)
        if negative:
            negatives += 1

    if len(args.files) > 1:
        blocks.append(f"{len(args.files)} files, {negatives} with adverse findings")

    if getattr(args, "json", False):
        payload = {
            "command": args.command,
            "reports": reports,
            "summary": {"files": len(args.files), "negative_findings": negatives},
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(blocks) + "\n"
    _emit(text, args.out)

    if getattr(args, "strict", False) and negatives:
        return 1
    return 0


def _run_dot(args: argparse.Namespace) -> int:
    _emit("".join(diagrams.emit_dot(_load(name), args.mode) for name in args.files), args.out)
    return 0


def _run_star(args: argparse.Namespace) -> int:
    try:
        logic = analysis.make_star(args.dimension)
    except LogicError as exc:
        raise _Refusal(str(exc)) from None
    _emit(gls.serialize_logic(logic), args.out)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except _Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
