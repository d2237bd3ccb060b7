"""The command-line driver: outputs, exit codes, JSON reports, batch mode."""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from greechie.analysis import make_star
from greechie.cli import main
from greechie.gls import corpus_path, load_corpus, serialize_logic
from greechie.model import Atom, Logic


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
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(
            capsys, "states", "--out", str(target), path_of("gamma1.gls")
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")

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
