"""The command-line driver: outputs, exit codes, JSON reports, batch mode."""

from __future__ import annotations

import contextlib
import dataclasses
import decimal
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import numpy
import pytest

from greechie import cli
from greechie.analysis import derive_rules, make_star, summarize_states
from greechie.cli import main
from greechie.gls import CORPUS_FILES, corpus_path, load_corpus, serialize_logic
from greechie.model import Atom, Logic, LogicError
from greechie.quantum import EntangledPair, confront, falsification_report, joint_probability


LONG_LABEL = "A" * 5000
SHOWN_LABEL = "'AAAAAAAAAAAAAAAAAAAA'... (5000 characters)"


def path_of(name: str) -> str:
    return str(corpus_path(name))


@pytest.fixture(scope="module")
def schema() -> dict:
    text = (
        resources.files("greechie.schema") / "report.schema.json"
    ).read_text(encoding="utf-8")
    return json.loads(text)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def broken_file(tmp_path) -> str:
    path = tmp_path / "broken.gls"
    path.write_text(
        "dim 3\natom A 1 0 0\natom B 1 1 0\ncontext a A B\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def unparsable_file(tmp_path) -> str:
    path = tmp_path / "bad.gls"
    path.write_text("dim 3\natom A 1 r3 0\ncontext a A A\n", encoding="utf-8")
    return str(path)


class TestSingleFileText:
    def test_states_count_only(self, capsys):
        code, out, err = run_cli(
            capsys, "states", "--count-only", path_of("cabello18.gls")
        )
        assert code == 0
        assert out == "0\n"
        assert err == ""

    def test_states_summary_line(self, capsys):
        code, out, _ = run_cli(capsys, "states", path_of("gamma1.gls"))
        assert code == 0
        assert out == "count=14 empty=False unital=True separating=True\n"

    def test_states_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "states", "--list", path_of("tight3.gls")
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("count=4 ")
        assert lines[1] == "atoms: A B C D K L"
        assert lines[2:] == ["001100", "010010", "010101", "100001"]

    def test_rules_contains_the_distant_exclusion(self, capsys):
        code, out, _ = run_cli(capsys, "rules", path_of("gamma1.gls"))
        assert code == 0
        assert "one-zero: K -> E" in out.splitlines()
        assert "one-zero: E -> K" in out.splitlines()

    def test_rules_equivalences(self, capsys):
        _, out, _ = run_cli(capsys, "rules", path_of("gamma3pair.gls"))
        assert "equivalent: E == E'" in out.splitlines()
        assert "equivalent: K == K'" in out.splitlines()

    def test_rules_explosion(self, capsys):
        code, out, _ = run_cli(capsys, "rules", path_of("cabello18.gls"))
        assert code == 0
        assert out.splitlines()[0] == (
            "explosion: no two-valued states, every rule holds vacuously"
        )

    def test_check_passes_on_realized_corpus(self, capsys):
        code, out, _ = run_cli(capsys, "check", path_of("gamma1.gls"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "PASS (7 contexts, dim 3)"
        assert "  context a: ok" in lines

    def test_check_locates_broken_pair(self, capsys, broken_file):
        code, out, _ = run_cli(capsys, "check", broken_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "FAIL (1 contexts, dim 3)"
        assert lines[1] == "  context a: FAIL <A,B> inner 1"

    def test_parity_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "parity", path_of("cabello18.gls"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "certificate: 9 contexts (odd), every atom in an even number "
            "of contexts"
        )
        assert "  A: 2" in lines
        assert lines[-1] == "no two-valued states exist"

    def test_parity_absent(self, capsys):
        _, out, _ = run_cli(capsys, "parity", path_of("gamma1.gls"))
        assert out == "no parity certificate\n"

    def test_collapse_identifications(self, capsys):
        _, out, _ = run_cli(capsys, "collapse", path_of("tight3.gls"))
        assert out.splitlines() == [
            "identify A = L (witness: C, K)",
            "identify B = K (witness: A, C)",
            "identify C = D (witness: A, K)",
        ]

    def test_collapse_none(self, capsys):
        _, out, _ = run_cli(capsys, "collapse", path_of("l12.gls"))
        assert out == "no forced identifications\n"

    def test_dual_listing(self, capsys):
        _, out, _ = run_cli(capsys, "dual", path_of("gamma1.gls"))
        lines = out.splitlines()
        assert lines[0] == "7 contexts, 8 links"
        assert lines[1] == "  a -- b via C"
        assert len(lines) == 9

    def test_quantum_pair_violation(self, capsys):
        code, out, _ = run_cli(
            capsys, "quantum", "--pair", "K,E", path_of("gamma1.gls")
        )
        assert code == 0
        assert out == (
            "pair (K,E): classical 0, quantum 0.037037037, "
            "VIOLATED (one-zero)\n"
        )

    def test_quantum_pair_consistent(self, capsys):
        _, out, _ = run_cli(
            capsys, "quantum", "--pair", "A,B", path_of("gamma1.gls")
        )
        assert out == (
            "pair (A,B): classical 0, quantum 0.000000000, "
            "consistent (one-zero)\n"
        )

    @pytest.mark.parametrize("argument", ["K,K'", "K',K"])
    def test_quantum_pair_equivalence(self, capsys, argument):
        code, out, _ = run_cli(
            capsys, "quantum", "--pair", argument, path_of("gamma3pair.gls")
        )
        assert code == 0
        assert out == (
            f"pair ({argument}): classical 0, quantum 0.037037037, "
            "VIOLATED (equivalence)\n"
        )

    def test_quantum_pair_unconstrained(self, capsys):
        _, out, _ = run_cli(
            capsys, "quantum", "--pair", "A,M", path_of("gamma1.gls")
        )
        assert out.startswith("pair (A,M): no classical rule, quantum 0.")

    def test_quantum_full_report(self, capsys):
        code, out, _ = run_cli(capsys, "quantum", path_of("gamma1.gls"))
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "2 of 44 rules violated"
        assert (
            "one-zero (E,K): classical 0, quantum 0.037037037, VIOLATED"
            in lines
        )

    def test_quantum_equivalence_rows(self, capsys):
        _, out, _ = run_cli(capsys, "quantum", path_of("gamma3pair.gls"))
        lines = out.splitlines()
        assert (
            "equivalence (K,K'): classical 0, quantum 0.037037037, VIOLATED"
            in lines
        )
        assert lines[-1] == "62 of 164 rules violated"


class TestExitCodes:
    def test_strict_flags_adverse_outcomes(self, capsys, broken_file):
        adverse = [
            ("check", "--strict", broken_file),
            ("states", "--strict", path_of("cabello18.gls")),
            ("rules", "--strict", path_of("cabello18.gls")),
            ("parity", "--strict", path_of("cabello18.gls")),
            ("collapse", "--strict", path_of("tight3.gls")),
            ("quantum", "--strict", path_of("gamma1.gls")),
        ]
        for argv in adverse:
            code, _, _ = run_cli(capsys, *argv)
            assert code == 1, argv

    def test_strict_passes_clean_outcomes(self, capsys):
        clean = [
            ("check", "--strict", path_of("gamma1.gls")),
            ("states", "--strict", path_of("gamma1.gls")),
            ("rules", "--strict", path_of("gamma1.gls")),
            ("parity", "--strict", path_of("gamma1.gls")),
            ("collapse", "--strict", path_of("gamma1.gls")),
        ]
        for argv in clean:
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0, argv

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "states", "/nowhere/missing.gls")
        assert code == 2
        assert err.startswith("error: cannot read")

    def test_parse_error(self, capsys, unparsable_file):
        code, _, err = run_cli(capsys, "states", unparsable_file)
        assert code == 2
        assert "line 2" in err

    def test_directory_as_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "states", str(tmp_path))
        assert code == 2
        assert err.startswith("error: cannot read")

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.gls"
        path.write_bytes(b"dim 3\natom \xc4\n")
        code, _, err = run_cli(capsys, "dot", str(path))
        assert code == 2
        assert err.startswith("error:") and "utf-8" in err

    def test_unwritable_out(self, capsys, tmp_path):
        for target in (str(tmp_path / "missing" / "report.txt"), ""):
            code, out, err = run_cli(
                capsys, "states", "--out", target, path_of("gamma1.gls")
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: cannot write")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", path_of("gamma1.gls")),
            ("states", "--list", "--json", path_of("star4.gls")),
            ("states", "--list", "star7"),
            ("dot", path_of("gamma1.gls")),
            ("star", "5"),
            ("--help",),
            ("states", "--help"),
        ],
        ids=["text", "listing", "long-listing", "dot", "star", "help", "states-help"],
    )
    def test_unwritable_stdout(self, request, argv):
        """A stdout that takes no bytes refuses the run as an unwritable
        ``--out`` does: one error line, exit 2, and a quiet final flush.
        star4's listing fits one write buffer; star7's fails between blocks."""
        argv = [request.getfixturevalue(arg) if arg == "star7" else arg for arg in argv]
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "greechie.cli", *argv],
                env=env, stdout=full, stderr=subprocess.PIPE, text=True,
            )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: cannot write")
        assert result.stderr.count("\n") == 1, result.stderr

    @pytest.mark.skipif(os.name != "posix", reason="closes fd 1 and execs the CLI")
    @pytest.mark.parametrize(
        "argv",
        [
            ("check", path_of("gamma1.gls")),
            ("states", "--list", path_of("star4.gls")),
            ("star", "3"),
            ("--help",),
            ("states", "--help"),
        ],
        ids=["text", "listing", "star", "help", "states-help"],
    )
    def test_closed_stdout(self, argv):
        """With fd 1 closed at start Python sets ``sys.stdout`` to None; the
        run is refused like any other unwritable stdout."""
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        code = "import os, sys; os.close(1); os.execv(sys.executable, sys.argv[1:])"
        result = subprocess.run(
            [sys.executable, "-c", code, sys.executable, "-m", "greechie.cli", *argv],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: cannot write stdout: ")
        assert result.stderr.count("\n") == 1, result.stderr

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate", "x.gls")[0] == 2

    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_count_only_and_list_conflict(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "states",
            "--count-only",
            "--list",
            path_of("gamma1.gls"),
        )
        assert code == 2

    def test_check_rejects_abstract_logic(self, capsys):
        code, _, err = run_cli(capsys, "check", path_of("star4.gls"))
        assert code == 2
        assert "carries no ray" in err

    def test_quantum_rejects_abstract_logic(self, capsys):
        assert run_cli(capsys, "quantum", path_of("star4.gls"))[0] == 2

    def test_quantum_rejects_abstract_logic_without_rules(self, capsys, tmp_path):
        logic = load_corpus("cabello18.gls")
        stripped = Logic(
            logic.dimension, tuple(Atom(a.label) for a in logic.atoms), logic.contexts
        )
        path = tmp_path / "cabello18-abstract.gls"
        path.write_text(serialize_logic(stripped), encoding="utf-8")
        code, out, err = run_cli(capsys, "quantum", str(path))
        assert code == 2
        assert out == ""
        assert "carries no ray" in err

    def test_quantum_bad_pair_syntax(self, capsys):
        assert (
            run_cli(
                capsys, "quantum", "--pair", "K", path_of("gamma1.gls")
            )[0]
            == 2
        )

    def test_quantum_unknown_atom(self, capsys):
        code, _, err = run_cli(
            capsys, "quantum", "--pair", "Q,E", path_of("gamma1.gls")
        )
        assert code == 2
        assert "no atom labeled" in err

    def test_long_abstract_atom_label_is_shortened(self, capsys, tmp_path):
        path = tmp_path / "long.gls"
        path.write_text(
            f"dim 3\natom {LONG_LABEL}\natom B\natom C\ncontext a {LONG_LABEL} B C\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert f"atom {SHOWN_LABEL} carries no ray" in err
        assert max(map(len, err.splitlines())) < 200

    def test_long_unknown_pair_label_is_shortened(self, capsys):
        code, _, err = run_cli(
            capsys, "quantum", "--pair", f"{LONG_LABEL},E", path_of("gamma1.gls")
        )
        assert code == 2
        assert f"no atom labeled {SHOWN_LABEL}" in err
        assert max(map(len, err.splitlines())) < 200

    def test_long_malformed_pair_is_shortened(self, capsys):
        code, _, err = run_cli(capsys, "quantum", "--pair", LONG_LABEL, path_of("gamma1.gls"))
        assert code == 2
        assert f"atom labels, got {SHOWN_LABEL}" in err
        assert max(map(len, err.splitlines())) < 200

    def test_star_bad_dimension(self, capsys):
        code, _, err = run_cli(capsys, "star", "2")
        assert code == 2
        assert err.startswith("error:")


class TestJsonReports:
    COMMANDS = [
        ("check", path_of("gamma1.gls")),
        ("states", path_of("gamma1.gls")),
        ("states", path_of("cabello18.gls")),
        ("rules", path_of("gamma3pair.gls")),
        ("rules", path_of("cabello18.gls")),
        ("parity", path_of("cabello18.gls")),
        ("parity", path_of("gamma1.gls")),
        ("collapse", path_of("tight3.gls")),
        ("dual", path_of("gamma1.gls")),
        ("quantum", path_of("gamma1.gls")),
    ]

    @pytest.mark.parametrize("command, path", COMMANDS)
    def test_documents_match_the_schema(self, capsys, schema, command, path):
        code, out, _ = run_cli(capsys, command, "--json", path)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["command"] == command
        assert payload["summary"]["files"] == 1

    def test_keys_are_sorted_and_stable(self, capsys):
        _, first, _ = run_cli(
            capsys, "states", "--json", "--list", path_of("gamma1.gls")
        )
        _, second, _ = run_cli(
            capsys, "states", "--json", "--list", path_of("gamma1.gls")
        )
        assert first == second
        payload = json.loads(first)
        assert first == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_states_json_content(self, capsys):
        _, out, _ = run_cli(
            capsys, "states", "--json", "--list", path_of("tight3.gls")
        )
        report = json.loads(out)["reports"][0]
        assert report["count"] == 4
        assert report["states"] == ["001100", "010010", "010101", "100001"]

    def test_atom_free_logic_lists_one_empty_state(self, capsys, schema, tmp_path):
        path = tmp_path / "empty.gls"
        path.write_text("dim 3\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "states", "--list", str(path))
        assert code == 0
        assert out == "count=1 empty=False unital=True separating=True\natoms: \n\n"
        code, out, _ = run_cli(capsys, "states", "--list", "--json", str(path))
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["reports"][0]["states"] == [""]

    def test_states_json_omits_list_by_default(self, capsys, schema):
        _, out, _ = run_cli(capsys, "states", "--json", path_of("tight3.gls"))
        report = json.loads(out)["reports"][0]
        assert "states" not in report

    def test_quantum_pair_json(self, capsys, schema):
        _, out, _ = run_cli(
            capsys,
            "quantum",
            "--json",
            "--pair",
            "K,E",
            path_of("gamma1.gls"),
        )
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        report = payload["reports"][0]
        assert report["kind"] == "one-zero"
        assert report["violated"] is True
        assert report["quantum"] == pytest.approx(1 / 27, abs=1e-12)

    def test_quantum_equivalence_pair_json(self, capsys, schema):
        code, out, _ = run_cli(
            capsys, "quantum", "--json", "--pair", "K,K'", path_of("gamma3pair.gls")
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        report = payload["reports"][0]
        assert report["pair"] == ["K", "K'"]
        assert report["kind"] == "equivalence"
        assert report["classical"] == 0.0
        assert report["violated"] is True
        assert report["quantum"] == pytest.approx(1 / 27, abs=1e-12)
        assert report["prob_both"] == pytest.approx(8 / 27, abs=1e-12)
        assert report["marginal_left"] == pytest.approx(1 / 3, abs=1e-12)
        assert report["marginal_right"] == pytest.approx(1 / 3, abs=1e-12)

    def test_quantum_unconstrained_pair_json(self, capsys, schema):
        _, out, _ = run_cli(
            capsys, "quantum", "--json", "--pair", "A,M", path_of("gamma1.gls")
        )
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        report = payload["reports"][0]
        assert (report["kind"], report["classical"], report["violated"]) == (
            "unconstrained", None, False
        )
        assert report["quantum"] == report["prob_both"]

    def test_check_json_on_failure(self, capsys, schema, broken_file):
        _, out, _ = run_cli(capsys, "check", "--json", broken_file)
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        entry = payload["reports"][0]["contexts"][0]
        assert entry["failing_pair"] == ["A", "B"]
        assert entry["inner"] == "1"

    def test_parity_json_multiplicities(self, capsys, schema):
        _, out, _ = run_cli(
            capsys, "parity", "--json", path_of("cabello18.gls")
        )
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        certificate = payload["reports"][0]["certificate"]
        assert certificate["context_count"] == 9
        assert set(certificate["atom_multiplicities"].values()) == {2}


class TestBatchMode:
    def test_text_blocks_and_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "states",
            "--count-only",
            path_of("gamma1.gls"),
            path_of("cabello18.gls"),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("gamma1.gls:")
        assert lines[1] == "  14"
        assert lines[2].endswith("cabello18.gls:")
        assert lines[3] == "  0"
        assert lines[4] == "2 files, 1 with adverse findings"

    def test_strict_batch_fails_on_any_adverse_file(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "states",
            "--strict",
            path_of("gamma1.gls"),
            path_of("cabello18.gls"),
        )
        assert code == 1

    def test_json_batch_summary(self, capsys, schema):
        _, out, _ = run_cli(
            capsys,
            "parity",
            "--json",
            path_of("gamma1.gls"),
            path_of("cabello18.gls"),
        )
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert len(payload["reports"]) == 2
        assert payload["summary"] == {"files": 2, "negative_findings": 1}

    def test_batch_stops_at_first_unreadable_file(self, capsys):
        code, _, err = run_cli(
            capsys, "states", path_of("gamma1.gls"), "/nowhere/x.gls"
        )
        assert code == 2
        assert "cannot read" in err


class TestDotAndStar:
    def test_dot_default_mode(self, capsys):
        code, out, _ = run_cli(capsys, "dot", path_of("tight3.gls"))
        assert code == 0
        assert out.startswith("graph logic {\n")
        assert '  a_A [label="A", shape=circle];' in out.splitlines()

    def test_dot_tkadlec_mode(self, capsys):
        _, out, _ = run_cli(
            capsys, "dot", "--mode", "tkadlec", path_of("tight3.gls")
        )
        assert '  c_a -- c_b [label="A"];' in out.splitlines()

    def test_dot_bad_mode(self, capsys):
        code, _, _ = run_cli(
            capsys, "dot", "--mode", "fancy", path_of("tight3.gls")
        )
        assert code == 2

    def test_star_emits_canonical_text(self, capsys):
        code, out, _ = run_cli(capsys, "star", "4")
        assert code == 0
        assert out == serialize_logic(make_star(4))

    def test_out_writes_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "states",
            "--json",
            "--out",
            str(target),
            path_of("gamma1.gls"),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["reports"][0]["count"] == 14

    def test_dot_out(self, capsys, tmp_path):
        target = tmp_path / "logic.dot"
        run_cli(capsys, "dot", "--out", str(target), path_of("tight3.gls"))
        assert target.read_text(encoding="utf-8").startswith("graph logic {")


SUBCOMMANDS = ("check", "states", "rules", "parity", "collapse", "dual", "dot", "quantum", "star")

# Each case is a sequence of argv runs; "{out}" stands for a file in tmp_path.
PARSER_CASES = {
    "help": [["-h"]],
    **{f"{name} help": [[name, "-h"]] for name in SUBCOMMANDS},
    "unknown subcommand": [["bogus"]],
    "no arguments": [[]],
    "strict on dual": [["dual", "--strict", path_of("gamma1.gls")]],
    "list with count-only": [["states", "--list", "--count-only", path_of("gamma1.gls")]],
    "bad star dimension": [["star", "0x5"]],
    "options then a bare run": [
        ["check", "--out", "{out}", "--strict", "--json", path_of("gamma1.gls")],
        ["check", path_of("gamma1.gls")],
    ],
}


class TestParserReuse:
    """``main`` builds its parser once per process; every run must still see
    exactly what a freshly built parser gives."""

    @staticmethod
    def outcomes(capsys, runs: list[list[str]], out: Path) -> list[tuple]:
        results = []
        for argv in runs:
            code = main([arg.replace("{out}", str(out)) for arg in argv])
            captured = capsys.readouterr()
            written = out.read_text(encoding="utf-8") if out.exists() else None
            out.unlink(missing_ok=True)
            results.append((code, captured.out, captured.err, written))
        return results

    @pytest.mark.parametrize("runs", PARSER_CASES.values(), ids=PARSER_CASES.keys())
    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch, tmp_path, runs):
        out = tmp_path / "report.json"
        reused = [self.outcomes(capsys, runs, out) for _ in range(2)]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.outcomes(capsys, runs, out)
        assert reused == [fresh, fresh]

    def test_help_width_is_read_when_printing(self, capsys, monkeypatch, tmp_path):
        out = tmp_path / "unused"
        texts = []
        for columns in ("50", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            texts.append(self.outcomes(capsys, [["states", "-h"]], out))
        assert texts[0] != texts[1]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert self.outcomes(capsys, [["states", "-h"]], out) == texts[1]

    def test_build_parser_returns_a_fresh_tree(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()


def quantum_oracle(name: str) -> tuple:
    logic = load_corpus(name)
    rules = derive_rules(summarize_states(logic), logic)
    return logic, rules, EntangledPair(logic.dimension)


class TestQuantumRows:
    """``quantum --json`` rows, which the golden table skips, against
    ``dataclasses.asdict`` of the library's rows."""

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_rows_match_the_report(self, capsys, name):
        logic, rules, pair = quantum_oracle(name)
        code, out, err = run_cli(capsys, "quantum", "--json", path_of(name))
        try:
            expected = [dataclasses.asdict(r) for r in falsification_report(logic, rules, pair)]
        except LogicError:
            assert code == 2 and out == ""
            return
        assert (code, err) == (0, "")
        assert json.loads(out)["reports"][0]["rows"] == json.loads(json.dumps(expected))

    def test_pair_matches_the_report(self, capsys):
        logic, rules, pair = quantum_oracle("gamma1.gls")
        prediction = joint_probability(pair, logic.ray_of("K"), logic.ray_of("E"))
        probs = {
            "prob_both": prediction.prob_both,
            "marginal_left": prediction.marginal_left,
            "marginal_right": prediction.marginal_right,
        }
        expected = {"file": path_of("gamma1.gls")}
        expected.update(dataclasses.asdict(confront(rules, "K", "E", prediction)), **probs)
        code, out, err = run_cli(capsys, "quantum", "--pair", "K,E", "--json", path_of("gamma1.gls"))
        assert (code, err) == (0, "")
        assert json.loads(out)["reports"][0] == json.loads(json.dumps(expected))


_JSON_CHARS = "aZ09 _-'é日😀\"\\/\n\r\t\x00\x1f\x7f\u2028\ud800"
_JSON_FLOATS = (
    0.0, -0.0, 1e-10, 1e300, -1e300, 5e-324, 0.1, 1 / 3, 2.5, 1e16,
    float("nan"), float("inf"), float("-inf"),
)


def _json_scalar(rng: random.Random):
    kind = rng.randrange(7)
    if kind == 0:
        return "".join(rng.choices(_JSON_CHARS, k=rng.randrange(6)))
    if kind == 1:
        return rng.choice((None, True, False))
    if kind == 2:
        return rng.choice((0, -1, 7, 2**63, -(10**30), 3**90, rng.randrange(-1000, 1000)))
    if kind == 3:
        return rng.choice(_JSON_FLOATS + (rng.uniform(-1, 1), rng.gauss(0, 1e6)))
    if kind == 4:
        return numpy.float64(rng.choice(_JSON_FLOATS + (rng.random(),)))
    return "".join(rng.choices("01", k=rng.randrange(1, 12)))


def _json_document(rng: random.Random, depth: int = 0):
    kind = rng.randrange(5) if depth < 4 else 4
    size = rng.choice((0, 1, 2, 3, 5))
    if kind == 0:
        return {
            "".join(rng.choices(_JSON_CHARS, k=rng.randrange(4))): _json_document(rng, depth + 1)
            for _ in range(size)
        }
    if kind in (1, 2):
        items = [_json_document(rng, depth + 1) for _ in range(size)]
        return items if kind == 1 else tuple(items)
    return _json_scalar(rng)


def json_text(payload: dict) -> str:
    """The document ``cli._write_json`` writes for ``payload`` from the top."""
    chunks: list = []
    cli._write_json(payload, chunks, "\n")
    return "".join(chunks)


class TestJsonWriter:
    """``cli._write_json`` against ``json.dumps(..., indent=2, sort_keys=True)``."""

    def test_seeded_documents(self):
        rng = random.Random(2007)
        for _ in range(600):
            doc = {"reports": [_json_document(rng)], "summary": _json_document(rng)}
            assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [{1, 2}, numpy.bool_(True), b"bytes", object()])
    def test_rejects_what_json_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps({"a": value})
        with pytest.raises(TypeError):
            json_text({"a": value})

    @pytest.mark.parametrize(
        "argv",
        [
            (command, name)
            for command in ("check", "states", "rules", "parity", "collapse", "dual", "quantum")
            for name in CORPUS_FILES
        ]
        + [("quantum", "--pair", "K,E", "gamma1.gls")]
        + [
            (command, fixture)
            for command in ("rules", "collapse", "dual")
            for fixture in ("star5", "triad_chain")
        ],
        ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv),
    )
    def test_reports_match_the_stdlib(self, capsys, monkeypatch, request, argv):
        """The document handed to the writer, written by the stdlib: the
        star and chain documents hold record tuples that no golden pins."""
        *options, source = argv
        path = path_of(source) if source in CORPUS_FILES else request.getfixturevalue(source)
        payloads = []
        write = cli._write_json

        def spy(value, chunks, newline):
            if newline == "\n":  # the document, not a value nested in it
                payloads.append(value)
            write(value, chunks, newline)

        monkeypatch.setattr(cli, "_write_json", spy)
        code, out, _ = run_cli(capsys, *options, "--json", path)
        if code == 2:  # an abstract corpus file has no rays to check or confront
            assert payloads == []
            return
        assert len(payloads) == 1
        assert out == json.dumps(payloads[0], indent=2, sort_keys=True) + "\n"

    def test_int_past_the_digit_limit(self):
        """An int longer than ``str`` converts by default is written in full;
        the stdlib refuses to read it back as an int, so read its digits."""
        text = json_text({"count": 3**9100})
        digits = json.loads(text, parse_int=str)["count"]
        assert text == '{\n  "count": ' + digits + "\n}"
        assert (len(digits), digits[0], digits[-1]) == (4342, "6", "1")
        assert int(decimal.Decimal(digits)) == 3**9100


def write_triad_chain(tmp_path_factory, k: int) -> str:
    """k three-atom contexts in dimension 3, each sharing one atom with the next."""
    lines = ["dim 3"]
    lines += [f"atom L{i}" for i in range(k + 1)]
    lines += [f"atom M{i}" for i in range(k)]
    lines += [f"context c{i} L{i} M{i} L{i + 1}" for i in range(k)]
    path = tmp_path_factory.mktemp("deep") / f"chain{k}.gls"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def long_chain(tmp_path_factory) -> str:
    return write_triad_chain(tmp_path_factory, 1500)


@pytest.fixture(scope="module")
def triad_chain(tmp_path_factory) -> str:
    return write_triad_chain(tmp_path_factory, 400)


@pytest.fixture(scope="module")
def star5(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("deep") / "star5.gls"
    path.write_text(serialize_logic(make_star(5)), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def star26(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("deep") / "star26.gls"
    path.write_text(serialize_logic(make_star(26)), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def pair_chain(tmp_path_factory) -> str:
    """1 500 two-atom contexts in dimension 3, each sharing one atom with the next."""
    k = 1500
    lines = ["dim 3"]
    lines += [f"atom L{i}" for i in range(k + 1)]
    lines += [f"context c{i} L{i} L{i + 1}" for i in range(k)]
    path = tmp_path_factory.mktemp("deep") / "pairs.gls"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def disjoint_triads(tmp_path_factory) -> str:
    """9 100 disjoint three-atom contexts: 3**9100 states, 4 342 digits."""
    k = 9100
    lines = ["dim 3"] + [f"atom {x}{i}" for i in range(k) for x in "ABC"]
    lines += [f"context c{i} A{i} B{i} C{i}" for i in range(k)]
    path = tmp_path_factory.mktemp("deep") / "triads.gls"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def huge_dimension(tmp_path) -> str:
    """No atoms, in a dimension far beyond any index or array size."""
    path = tmp_path / "huge.gls"
    path.write_text(f"dim {10**30}\n", encoding="utf-8")
    return str(path)


class TestDeepInputs:
    def test_collapse_on_the_largest_star(self, capsys, star26):
        code, out, err = run_cli(capsys, "collapse", star26)
        assert (code, out, err) == (0, "no forced identifications\n", "")

    def test_state_count_on_the_largest_star(self, capsys, star26):
        assert run_cli(capsys, "states", "--count-only", star26) == (0, f"{26 * 25**25}\n", "")

    def test_rules_on_the_largest_star(self, capsys, star26):
        code, out, err = run_cli(capsys, "rules", "--json", star26)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["reports"][0]["one_zero"]) == 27 * 26 * 25

    def test_state_count_past_the_digit_limit(self, capsys, disjoint_triads):
        code, out, err = run_cli(capsys, "states", "--count-only", disjoint_triads)
        assert (code, err) == (0, "")
        digits = out.rstrip("\n")
        assert (len(digits), digits[0], digits[-1]) == (4342, "6", "1")  # 3**9100

    def test_state_count_on_a_triad_chain(self, capsys, triad_chain):
        """About 10**84 states, counted without listing one: a chain of k
        triads has Fibonacci F(k + 3) of them."""
        previous, current = 1, 1  # F(1), F(2)
        for _ in range(401):
            previous, current = current, previous + current
        assert run_cli(capsys, "states", "--count-only", triad_chain) == (0, f"{current}\n", "")

    def test_collapse_on_one_large_context(self, capsys, tmp_path):
        atoms = [f"x{i}" for i in range(1200)]
        lines = ["dim 1200"] + [f"atom {a}" for a in atoms] + [f"context a {' '.join(atoms)}"]
        path = tmp_path / "one.gls"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "collapse", str(path))
        assert (code, out, err) == (0, "no forced identifications\n", "")

    def test_collapse_on_two_large_contexts(self, capsys, tmp_path):
        shared = [f"x{i}" for i in range(1199)]
        lines = ["dim 1200"] + [f"atom {a}" for a in shared + ["y", "z"]]
        lines += [f"context a {' '.join(shared)} y", f"context b {' '.join(shared)} z"]
        path = tmp_path / "two.gls"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "collapse", str(path))
        assert (code, err) == (0, "")
        assert out == f"identify y = z (witness: {', '.join(sorted(shared))})\n"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("collapse",), "no forced identifications\n"),
            (("quantum",), "0 of 0 rules violated\n"),
        ],
        ids=["collapse", "quantum"],
    )
    def test_huge_dimension_without_atoms(self, capsys, huge_dimension, argv, expected):
        assert run_cli(capsys, *argv, huge_dimension) == (0, expected, "")

    def test_quantum_json_on_a_huge_dimension_without_atoms(self, capsys, huge_dimension):
        code, out, err = run_cli(capsys, "quantum", "--json", huge_dimension)
        assert (code, err) == (0, "")
        assert json.loads(out)["reports"][0]["rows"] == []

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("collapse",), "no forced identifications"),
            (("dual", "--json"), '"right": "c1499"'),
            (("parity",), "no parity certificate"),
            (("dot", "--mode", "tkadlec"), 'c_c1498 -- c_c1499 [label="L1499"];'),
        ],
    )
    def test_long_chain(self, capsys, long_chain, argv, expected):
        code, out, err = run_cli(capsys, *argv, long_chain)
        assert (code, err) == (0, "")
        assert expected in out

    def test_state_count_on_a_long_pair_chain(self, capsys, pair_chain):
        assert run_cli(capsys, "states", "--count-only", pair_chain) == (0, "2\n", "")

    def test_state_list_on_a_long_pair_chain(self, capsys, pair_chain):
        code, out, err = run_cli(capsys, "states", "--list", pair_chain)
        assert (code, err) == (0, "")
        header, atoms, *states = out.splitlines()
        assert header == "count=2 empty=False unital=True separating=False"
        labels = atoms.split()[1:]
        assert len(labels) == 1501
        # The two states alternate along the chain: the even atoms, or the odd ones.
        evens = "".join("1" if int(lbl[1:]) % 2 == 0 else "0" for lbl in labels)
        odds = evens.translate(str.maketrans("01", "10"))
        assert states == sorted([evens, odds])


@pytest.fixture(scope="module")
def star7(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("listing") / "star7.gls"
    path.write_text(serialize_logic(make_star(7)), encoding="utf-8")
    return str(path)


class _Discard(io.TextIOBase):
    """A text stream that keeps nothing it is given."""

    def write(self, text: str) -> int:
        return len(text)


LIST_MODES = pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])


class _CountedWrites(io.StringIO):
    """A text stream that counts the writes it is given."""

    writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


class TestStreamedListing:
    """``states --list`` holds the state codes and writes their bit strings a
    block at a time, after every file is analysed."""

    @pytest.mark.parametrize(
        "argv, writes",
        [
            (("quantum", "--json", path_of("gamma3pair.gls")), 1),
            (("dual", path_of("gamma1.gls")), 1),
            (("states", "--list", "STAR5"), 4),
        ],
        ids=["quantum-json", "dual", "star5-list"],
    )
    def test_document_without_a_listing_is_one_write(self, tmp_path, argv, writes):
        """A document is joined and written at once unless it lists states;
        star5's 1 280 states take two blocks between the text around them."""
        star5 = tmp_path / "star5.gls"
        star5.write_text(serialize_logic(make_star(5)), encoding="utf-8")
        stream = _CountedWrites()
        with contextlib.redirect_stdout(stream):
            code = main([str(star5) if arg == "STAR5" else arg for arg in argv])
        assert (code, stream.writes) == (0, writes)

    @LIST_MODES
    def test_peak_memory_stays_near_the_codes(self, star7, mode):
        """star7's 326 592 codes peak at about 28 MiB while they are listed;
        holding every bit string, or the whole text, took 69 MiB as text and
        94 MiB as JSON."""
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                code = main(["states", "--list", *mode, star7])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 35 * 2**20, f"{peak / 2**20:.1f} MiB"

    @LIST_MODES
    def test_refused_run_writes_nothing(self, capsys, tmp_path, unparsable_file, mode):
        target = tmp_path / "listing.out"
        code, out, err = run_cli(
            capsys, "states", "--list", *mode, "--out", str(target),
            path_of("gamma1.gls"), unparsable_file,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not target.exists()

    @LIST_MODES
    def test_closed_pipe_ends_quietly(self, star7, mode):
        """A reader that stops after one line, as ``| head -n 1`` does, ends
        the writing: no traceback, no error line, the run's own exit code."""
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        argv = [sys.executable, "-m", "greechie.cli", "states", "--list", *mode, star7]
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with subprocess.Popen(argv, env=env, **pipes) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait()
        header = "{" if mode else "count=326592 empty=False unital=True separating=True"
        assert (first, code, err) == (header.encode() + b"\n", 0, b"")


class TestExactRays:
    """Printed values stay exact Q(sqrt 2) numbers, whatever the ray layer
    computes internally, and float conversion survives any component size."""

    FRACTIONAL = "dim 3\natom A 1/2 1/2r2 0\natom B 1/3r2 1/5 1\natom C 0 0 1\ncontext a A B C\n"
    BASIS = (
        "dim 3\natom A {} 0 0\natom B 0 1 0\natom C 0 0 1\natom D 0 1 1\natom E 0 1 -1\n"
        "context a A B C\ncontext b A D E\n"
    )

    def test_check_prints_the_unscaled_inner_product(self, capsys, schema, tmp_path):
        path = tmp_path / "fractional.gls"
        path.write_text(self.FRACTIONAL, encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0
        # (1/2)(1/3 r2) + (1/2 r2)(1/5) = 4/15 r2, not the value of any scaled copy.
        assert out.splitlines()[1] == "  context a: FAIL <A,B> inner 4/15r2"
        _, out, _ = run_cli(capsys, "check", "--json", str(path))
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["reports"][0]["contexts"][0]["inner"] == "4/15r2"

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_check_refuses_an_inner_product_too_long_to_print(self, capsys, tmp_path, mode):
        # Each ray has a 4 000-digit component, inside the parser's limit;
        # their inner product 1/N**2 has about 8 000 digits.
        lead = "1/" + "1" * 4000
        path = tmp_path / "long.gls"
        path.write_text(
            f"dim 3\natom A {lead} 1 0\natom {LONG_LABEL} {lead} 0 1\ncontext a A {LONG_LABEL}\n",
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "check", *mode, str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path}: context 'a': the inner product of 'A' and {SHOWN_LABEL} "
            "has too many digits to print\n"
        )

    @pytest.mark.parametrize(
        "lead", ["1" + "0" * 400, "1/1" + "0" * 400, "-7" + "0" * 200], ids=["huge", "tiny", "large"]
    )
    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_quantum_on_huge_and_tiny_components(self, capsys, tmp_path, monkeypatch, lead, mode):
        outputs = []
        for name, value in (("unit", "1"), ("scaled", lead)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "ray.gls").write_text(self.BASIS.format(value), encoding="utf-8")
            monkeypatch.chdir(tmp_path / name)
            outputs.append(run_cli(capsys, "quantum", *mode, "ray.gls"))
        assert outputs[0][0] == 0 and outputs[0][2] == ""
        assert outputs[1] == outputs[0]

    def test_quantum_on_a_scaled_corpus_ray(self, capsys, tmp_path):
        # gamma1 with M = (0, 1, 0) scaled far beyond the float range.
        text = corpus_path("gamma1.gls").read_text(encoding="utf-8")
        path = tmp_path / "gamma1.gls"
        path.write_text(text.replace("atom M 0 1 0", f"atom M 0 -3{'0' * 500} 0"), encoding="utf-8")
        expected = run_cli(capsys, "quantum", path_of("gamma1.gls"))
        assert run_cli(capsys, "quantum", str(path)) == expected


class TestInstalledEntryPoint:
    def test_help_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "greechie.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "subcommand" in result.stdout or "usage" in result.stdout

    def test_console_script(self):
        # The `greechie` command is the [project.scripts] entry in
        # pyproject.toml. Run that entry the way the console-script wrapper
        # written by pip does, so no installed executable is needed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        launcher = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            "name, value = sys.argv[1:3]\n"
            "sys.argv = [name, *sys.argv[3:]]\n"
            "sys.exit(EntryPoint(name, value, 'console_scripts').load()())\n"
        )
        result = subprocess.run(
            [
                sys.executable, "-c", launcher,
                "greechie", project["scripts"]["greechie"],
                "states", "--count-only", path_of("cabello18.gls"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "0\n"


# --------------------------------------------------------------------------
# fuzzing every file subcommand with mutated corpus files
# --------------------------------------------------------------------------

_FUZZ_ARGV = (
    ["check"], ["states"], ["states", "--list"], ["states", "--count-only"], ["rules", "--json"],
    ["parity"], ["collapse"], ["dual"], ["quantum"], ["quantum", "--json"],
    ["dot"], ["dot", "--mode", "tkadlec"],
)
_FUZZ_TOKENS = (
    "atom", "context", "dim", "vertex", "2", "3", "4", "0", "-1", "r2", "1/2", "1+1r2",
    "r3", "1/0", "#", "",
)


def _mutated_corpus_text(rng: random.Random) -> str:
    """A corpus file with lines deleted, duplicated, moved or shuffled and tokens replaced."""
    lines = corpus_path(rng.choice(CORPUS_FILES)).read_text(encoding="utf-8").splitlines()
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(("delete", "duplicate", "move", "shuffle", "token", "token"))
        i = rng.randrange(len(lines))
        if how == "delete" and len(lines) > 1:
            del lines[i]
        elif how == "duplicate":
            lines.insert(rng.randint(0, len(lines)), lines[i])
        elif how == "move":
            lines.insert(rng.randint(0, len(lines) - 1), lines.pop(i))
        elif how == "shuffle":
            j = rng.randint(i, len(lines))
            block = lines[i:j]
            rng.shuffle(block)
            lines[i:j] = block
        else:
            words = lines[i].split(" ")
            other = rng.choice(lines).split(" ")
            words[rng.randrange(len(words))] = rng.choice((rng.choice(other), *_FUZZ_TOKENS))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


# sha256 of the JSON [argv, exit code, stdout, stderr] of every run below, the
# file's path written as FILE.
_FUZZ_DIGEST = "0eea34302bc36848be6d74ecb0c485781a6f57841b42a3682171fb5bf66e15b7"


def test_mutated_files_end_in_a_report_or_one_error_line(capsys, tmp_path):
    rng = random.Random(20071019)
    path = tmp_path / "fuzz.gls"
    digest = hashlib.sha256()
    codes = set()
    for _ in range(150):
        path.write_text(_mutated_corpus_text(rng), encoding="utf-8")
        for argv in _FUZZ_ARGV:
            code, out, err = run_cli(capsys, *argv, str(path))
            assert code in (0, 1, 2), (argv, code)
            if code == 2:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
            codes.add(code)
            run = [argv, code, out.replace(str(path), "FILE"), err.replace(str(path), "FILE")]
            digest.update(json.dumps(run).encode("utf-8"))
    assert codes == {0, 2}
    assert digest.hexdigest() == _FUZZ_DIGEST


# Sets of labels (a RuleSet's pairs, the dual's owners, collapse merges) are
# sorted before output; a missing sort would show only under another seed.
_HASH_SEED_ARGV = [
    ["rules", "--json", "gamma3pair.gls"],
    ["quantum", "--json", "gamma3pair.gls"],
    ["collapse", "--json", "tight3.gls"],
    ["dual", "--json", "gamma3pair.gls"],
    ["dot", "--mode", "tkadlec", "gamma3pair.gls"],
    ["states", "--list", "--json", "star4.gls"],
]

_HASH_SEED_CHILD = """
import contextlib, hashlib, io, json, sys
from greechie import cli
from greechie.gls import corpus_path
digest = hashlib.sha256()
for *options, name in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*options, str(corpus_path(name))])
    assert code == 0, (options, name, code)
    digest.update(json.dumps([options, name, code, out.getvalue()]).encode("utf-8"))
print(digest.hexdigest())
"""


def test_output_does_not_depend_on_string_hashing():
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    digests = set()
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
               "PYTHONHASHSEED": seed}
        result = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_CHILD, json.dumps(_HASH_SEED_ARGV)],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.add(result.stdout)
    assert len(digests) == 1, digests
