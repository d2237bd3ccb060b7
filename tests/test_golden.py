"""Golden outputs: every file subcommand on every corpus file, byte for byte.

``golden_sha256.json`` maps each run to the sha256 of its stdout and its exit
code.  Runs take place in the corpus directory, so a report's ``"file"`` is the
base name.  ``quantum`` is covered in text only: its ``--json`` floats carry
every digit numpy and BLAS produce.  After an intended output change,
regenerate the table with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from greechie.cli import main
from greechie.gls import CORPUS_FILES, corpus_path

TABLE = Path(__file__).with_name("golden_sha256.json")

TEXT_RUNS = (
    ("check",),
    ("states",),
    ("states", "--count-only"),
    ("states", "--list"),
    ("rules",),
    ("parity",),
    ("collapse",),
    ("dual",),
    ("quantum",),
    ("dot",),
    ("dot", "--mode", "tkadlec"),
)
JSON_RUNS = tuple(
    (*argv, "--json") for argv in TEXT_RUNS if argv[0] not in ("quantum", "dot")
)
RUNS = tuple(
    (name, argv) for name in CORPUS_FILES for argv in TEXT_RUNS + JSON_RUNS
)


def key(name: str, argv: tuple[str, ...]) -> str:
    return f"{name}: {' '.join(argv)}"


def digest(name: str, argv: tuple[str, ...]) -> dict:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(corpus_path(name).parent)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, name])
    finally:
        os.chdir(cwd)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_covers_every_run(table):
    assert sorted(table) == sorted(key(name, argv) for name, argv in RUNS)


@pytest.mark.parametrize("name, argv", RUNS, ids=[key(n, a) for n, a in RUNS])
def test_output_matches_golden_digest(table, name, argv):
    assert digest(name, argv) == table[key(name, argv)]


if __name__ == "__main__":
    entries = {key(name, argv): digest(name, argv) for name, argv in RUNS}
    rows = (f" {json.dumps(k)}: {json.dumps(entries[k], sort_keys=True)}" for k in sorted(entries))
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {TABLE}")
