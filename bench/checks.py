"""Checks of one op's output against the reference answers in ``oracle``.

Each checker takes the op's standard output and the input's ``RefLogic`` and
returns a list of problems; an empty list means the output is correct.  Text
outputs are compared line for line with the format README.md documents; JSON
outputs are first validated against ``schema/report.schema.json``.
"""

from __future__ import annotations

import json
from typing import Callable

from oracle import RefLogic, maximal_cliques, Vector

PROB_TOL = 1e-9


def _lines(expected: list[str], text: str) -> list[str]:
    got = text.split("\n")
    if got[-1] != "":
        return ["output does not end with a newline"]
    got = got[:-1]
    if got == expected:
        return []
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            return [f"line {i + 1}: expected {e!r}, got {g!r}"]
    return [f"expected {len(expected)} lines, got {len(got)}"]


def _report(text: str, command: str, validator) -> tuple[dict | None, list[str]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"invalid JSON: {exc}"]
    errors = [e.message for e in validator.iter_errors(doc)]
    if errors:
        return None, [f"schema: {errors[0]}"]
    if doc["command"] != command or len(doc["reports"]) != 1:
        return None, ["wrong command or report count"]
    return doc["reports"][0], []


def check_text(ref: RefLogic, text: str) -> list[str]:
    lines = [f"PASS ({len(ref.contexts)} contexts, dim {ref.dim})"]
    for label, members in ref.contexts:
        note = " (non-maximal)" if len(members) < ref.dim else ""
        lines.append(f"  context {label}: ok{note}")
    return _lines(lines, text)


def count_text(ref: RefLogic, text: str) -> list[str]:
    return _lines([str(len(ref.states))], text)


def list_text(ref: RefLogic, text: str) -> list[str]:
    n, rules = len(ref.states), ref.rules
    header = (
        f"count={n} empty={n == 0} unital={rules.unital} separating={rules.separating}"
    )
    return _lines([header, "atoms: " + " ".join(ref.labels), *ref.states], text)


def list_json(ref: RefLogic, report: dict) -> list[str]:
    rules = ref.rules
    expected = {
        "count": len(ref.states),
        "empty": not ref.states,
        "unital": rules.unital,
        "separating": rules.separating,
        "labels": ref.labels,
        "states": ref.states,
    }
    return [f"{key} differs" for key, value in expected.items() if report.get(key) != value]


def rules_json(ref: RefLogic, report: dict) -> list[str]:
    rules = ref.rules
    expected = {
        "explosion": not ref.states,
        "one_zero": sorted(map(list, rules.one_zero)),
        "one_one": sorted(map(list, rules.one_one)),
        "equivalences": sorted(map(list, rules.equivalences)),
        "never_true": rules.never_true,
    }
    return [f"{key} differs" for key, value in expected.items() if report[key] != value]


def quantum_json(ref: RefLogic, report: dict) -> list[str]:
    rows, expected = report["rows"], ref.quantum_rows()
    if len(rows) != len(expected):
        return [f"expected {len(expected)} rows, got {len(rows)}"]
    for row, (kind, pair, value) in zip(rows, expected):
        if (row["kind"], tuple(row["pair"])) != (kind, pair) or row["classical"] != 0:
            return [f"row {row['kind']} {row['pair']}: expected {kind} {pair}"]
        if abs(row["quantum"] - value) > PROB_TOL:
            return [f"row {kind} {pair}: quantum {row['quantum']}, closed form {value}"]
        if row["violated"] != (value > PROB_TOL):
            return [f"row {kind} {pair}: wrong violated flag"]
    return []


def collapse_text(ref: RefLogic, text: str) -> list[str]:
    return _lines(["no forced identifications"], text)


def parity_text(ref: RefLogic, text: str) -> list[str]:
    if not ref.parity_certificate():
        return _lines(["no parity certificate"], text)
    lines = [
        f"certificate: {len(ref.contexts)} contexts (odd), "
        "every atom in an even number of contexts"
    ]
    lines += [f"  {atom}: {n}" for atom, n in sorted(ref.multiplicities().items())]
    return _lines(lines + ["no two-valued states exist"], text)


def dual_text(ref: RefLogic, text: str) -> list[str]:
    links = ref.dual_links()
    lines = [f"{len(ref.contexts)} contexts, {len(links)} links"]
    lines += [f"  {a} -- {b} via {','.join(shared)}" for a, b, shared in links]
    return _lines(lines, text)


def dual_json(ref: RefLogic, report: dict) -> list[str]:
    edges = [
        {"left": a, "right": b, "atoms": list(shared)} for a, b, shared in ref.dual_links()
    ]
    problems = []
    if report["nodes"] != [label for label, _ in ref.contexts]:
        problems.append("nodes differ")
    if report["edges"] != edges:
        problems.append("edges differ")
    return problems


def dot_tkadlec(ref: RefLogic, text: str) -> list[str]:
    lines = ["graph logic {"]
    lines += [f'  c_{label} [label="{label}", shape=box];' for label, _ in ref.contexts]
    lines += [
        f'  c_{a} -- c_{b} [label="{",".join(shared)}"];'
        for a, b, shared in ref.dual_links()
    ]
    return _lines(lines + ["}"], text)


TEXT_CHECKS: dict[tuple[str, ...], Callable[[RefLogic, str], list[str]]] = {
    ("check",): check_text,
    ("states", "--count-only"): count_text,
    ("states", "--list"): list_text,
    ("collapse",): collapse_text,
    ("parity",): parity_text,
    ("dual",): dual_text,
    ("dot", "--mode", "tkadlec"): dot_tkadlec,
}

JSON_CHECKS: dict[tuple[str, ...], Callable[[RefLogic, dict], list[str]]] = {
    ("states", "--list", "--json"): list_json,
    ("rules", "--json"): rules_json,
    ("quantum", "--json"): quantum_json,
    ("dual", "--json"): dual_json,
}


def check_cli(args: tuple[str, ...], ref: RefLogic, text: str, validator) -> list[str]:
    """Problems with the output of ``greechie <args> FILE`` on the input ``ref``."""
    if args in TEXT_CHECKS:
        return TEXT_CHECKS[args](ref, text)
    report, problems = _report(text, args[0], validator)
    return problems or JSON_CHECKS[args](ref, report)


def check_complete(vectors: dict[str, Vector], text: str) -> list[str]:
    """Problems with the worker's JSON rendering of ``complete_contexts(vectors)``."""
    doc = json.loads(text)
    problems = []
    if doc["atoms"] != sorted(vectors):
        problems.append("atoms differ")
    if doc["contexts"] != sorted(map(list, maximal_cliques(vectors))):
        problems.append("contexts differ from the maximal cliques")
    return problems
