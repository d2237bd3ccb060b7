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
import random
from pathlib import Path

import pytest

from greechie import cli
from greechie.analysis import make_star
from greechie.cli import main
from greechie.gls import CORPUS_FILES, corpus_path, serialize_logic

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


def digest(name: str, argv: tuple[str, ...], directory: Path | None = None) -> dict:
    """Run ``argv`` on ``name`` in ``directory``, the corpus directory by default."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory or corpus_path(name).parent)
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


# The corpus lists at most star4's 108 states, so the full listings of
# make_star(5) (1 280 states) and make_star(6) (18 750) are pinned here too,
# each in make_star's declaration order and in one seeded shuffle of it: the
# search, and so the order the listing is built in, follows the declaration
# order, but the output does not.
LARGE_LISTINGS = {
    "star5: states --list": "b9d5e334fdd37cf30b0b7be8d1e6269e6b54ef671b4da4efc263e278710fd51d",
    "star5: states --list --json": "ab5446e821ca3c5390809e67a315dba9246f9771ae79faee54b7ca7217399e2c",
    "star6: states --list": "f8ee212fbb49e9d13464f0ffc3597989aa3402437d67ff5e015d359e0e55cb53",
    "star6: states --list --json": "afd5b1b4df8c00785c576022e8649d986f2566de5bd96ba2da030bee60c486b3",
}


def star_text(d: int, shuffled: bool) -> str:
    """make_star(d) as .gls text, its atom and context lines shuffled if asked."""
    text = serialize_logic(make_star(d))
    if not shuffled:
        return text
    lines = text.splitlines()
    atoms = [line for line in lines if line.startswith("atom ")]
    contexts = [line for line in lines if line.startswith("context ")]
    rng = random.Random(2718)
    rng.shuffle(atoms)
    rng.shuffle(contexts)
    return "\n".join([lines[0], *atoms, *contexts]) + "\n"


@pytest.mark.parametrize("shuffled", [False, True], ids=["make_star", "shuffled"])
@pytest.mark.parametrize("run", sorted(LARGE_LISTINGS))
def test_large_listing_matches_pinned_digest(tmp_path, run, shuffled):
    star, command = run.split(": ")
    name = f"{star}.gls"
    (tmp_path / name).write_text(star_text(int(star[4:]), shuffled), encoding="utf-8")
    assert digest(name, tuple(command.split()), tmp_path) == {
        "exit": 0, "sha256": LARGE_LISTINGS[run]
    }



# Listings the corpus and the star5/star6 pins do not reach, pinned at the
# commit before listings were streamed: make_star(7) (326 592 states) and a
# multi-file run over a logic with states, one with none and one with no
# atoms, whose one state is the empty string.
STREAMED_LISTINGS = {
    "star7.gls: states --list":
        "fa82ddceec3aa69a2a62765f64ebf8528fb1444ba3929f95cc80bd51f506ebb4",
    "star7.gls: states --list --json":
        "7dcde9138355ea35cc3b7b8d60cc67da509c07e38737b7e9b4948b7879b2f2ba",
    "gamma1.gls cabello18.gls atomless.gls: states --list":
        "b19ddfb9381f4f4f4252d7bcd1e8df6404709956af70073c1594f451f8a16c7c",
    "gamma1.gls cabello18.gls atomless.gls: states --list --json":
        "f1747173b613ea4c7f4cbb789aed530ec1c5a615edd299cfc3b45a1e6b859ba7",
}


@pytest.fixture(scope="module")
def listing_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("listings")
    (directory / "star7.gls").write_text(serialize_logic(make_star(7)), encoding="utf-8")
    for name in ("gamma1.gls", "cabello18.gls"):
        (directory / name).write_bytes(corpus_path(name).read_bytes())
    (directory / "atomless.gls").write_text("dim 3\n", encoding="utf-8")
    return directory


def run_files(run: str, directory: Path, out: str | None = None) -> dict:
    """Run a ``"<files>: <argv>"`` key of ``STREAMED_LISTINGS`` in ``directory``,
    with ``--out out`` if given; the digest is of ``out``'s bytes then, and
    stdout must stay empty."""
    names, command = run.split(": ")
    argv = [*command.split(), *(["--out", out] if out else []), *names.split()]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        written = Path(out).read_bytes() if out else stdout.getvalue().encode("utf-8")
    finally:
        os.chdir(cwd)
    assert not (out and stdout.getvalue())
    return {"exit": code, "sha256": hashlib.sha256(written).hexdigest()}


@pytest.mark.parametrize("out", [None, "listing.out"], ids=["stdout", "out"])
@pytest.mark.parametrize("run", sorted(STREAMED_LISTINGS))
def test_streamed_listing_matches_pinned_digest(listing_dir, run, out):
    assert run_files(run, listing_dir, out) == {"exit": 0, "sha256": STREAMED_LISTINGS[run]}


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("run", sorted(LARGE_LISTINGS) + sorted(STREAMED_LISTINGS))
def test_listing_digests_hold_at_every_block_size(monkeypatch, tmp_path, listing_dir, run, block):
    """A listing is written a block of states at a time; with blocks of one
    to three states every edge between blocks is crossed."""
    monkeypatch.setattr(cli, "LISTING_BLOCK", block)
    if run in STREAMED_LISTINGS:
        assert run_files(run, listing_dir) == {"exit": 0, "sha256": STREAMED_LISTINGS[run]}
        return
    star, command = run.split(": ")
    name = f"{star}.gls"
    (tmp_path / name).write_text(star_text(int(star[4:]), False), encoding="utf-8")
    assert digest(name, tuple(command.split()), tmp_path) == {
        "exit": 0, "sha256": LARGE_LISTINGS[run]
    }


if __name__ == "__main__":
    entries = {key(name, argv): digest(name, argv) for name, argv in RUNS}
    rows = (f" {json.dumps(k)}: {json.dumps(entries[k], sort_keys=True)}" for k in sorted(entries))
    TABLE.write_text("{\n" + ",\n".join(rows) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {TABLE}")
