"""The package root: its exported names, their lazy import, and numpy loaded only for quantum."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import greechie
from greechie import analysis
from greechie.cli import main
from greechie.gls import corpus_path

import test_golden as golden

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("analysis", "diagrams", "gls", "model", "quantum")

EXPECTED_ALL = [
    "AbstractLogicError", "Atom", "CORPUS_FILES", "CollapseReport", "Context",
    "ContextCheck", "DOT_MODES", "DualEdge", "DualGraph", "EntangledPair",
    "FalsificationRow", "GlsParseError", "Identification", "JointPrediction", "Logic",
    "LogicError", "ONE", "PROB_TOL", "ParityCertificate", "Quad",
    "ROOT2", "Ray", "RealizationReport", "RuleSet", "StateSpaceReport",
    "StateSummary", "TwoValuedState", "ZERO", "complete_contexts", "confront",
    "context_completeness", "corpus_path", "derive_rules", "emit_dot", "enumerate_states",
    "falsification_report", "format_quad", "infer_collapses", "inner_product",
    "joint_probability", "load_corpus", "load_logic", "make_logic", "make_star",
    "orthogonality_edges", "parity_obstruction", "parse_logic", "parse_quad",
    "rays_collinear", "serialize_logic", "summarize_states", "tkadlec_dual",
    "unit_vector", "verify_realization", "__version__",
]
# Exported values that carry no __module__ of their own.
CONSTANT_HOMES = {
    "CORPUS_FILES": "gls",
    "DOT_MODES": "diagrams",
    "ONE": "model",
    "PROB_TOL": "quantum",
    "ROOT2": "model",
    "ZERO": "model",
}


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports greechie from this checkout."""
    source = str(Path(greechie.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": source + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, encoding="utf-8", env=env
    )


class TestExports:
    def test_all_is_pinned(self):
        assert greechie.__all__ == EXPECTED_ALL
        assert len(greechie.__all__) == 55

    @pytest.mark.parametrize("name", EXPECTED_ALL[:-1])
    def test_name_is_the_object_of_its_module(self, name):
        value = getattr(greechie, name)
        home = CONSTANT_HOMES.get(name) or value.__module__.removeprefix("greechie.")
        assert home in SUBMODULES
        assert value is getattr(getattr(greechie, home), name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from greechie import *", namespace)
        assert set(EXPECTED_ALL) <= set(namespace)
        assert namespace["enumerate_states"] is analysis.enumerate_states

    def test_dir_lists_names_and_modules(self):
        assert set(EXPECTED_ALL) | set(SUBMODULES) <= set(dir(greechie))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            greechie.no_such_name
        with pytest.raises(ImportError):
            exec("from greechie import no_such_name", {})


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


@pytest.mark.skipif(
    not (ROOT / "bench" / "spans.py").is_file(), reason="no bench/spans.py in this checkout"
)
def test_traced_names_resolve(monkeypatch):
    """Every function the benchmark's tracer wraps is an attribute of the
    module it names, including the names a module imports only for it."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    for path, attr, *_ in spans.TARGETS:
        assert callable(getattr(spans._resolve(path), attr, None)), (path, attr)


class TestLazyImport:
    def test_bare_import_loads_no_module(self):
        result = run_fresh(
            "import sys, greechie\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('greechie.'))\n"
            "assert loaded == [], loaded\n"
            "assert 'numpy' not in sys.modules\n"
            f"for name in {SUBMODULES!r}:\n"
            "    assert getattr(greechie, name) is sys.modules['greechie.' + name]\n"
            "print('ok')\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "ok\n"

    def test_numpy_loads_only_for_quantum(self):
        result = run_fresh(
            "import sys\n"
            "from greechie.cli import main\n"
            "from greechie.gls import corpus_path\n"
            "main(['states', '--count-only', str(corpus_path('cabello18.gls'))])\n"
            "print('numpy' in sys.modules)\n"
            "main(['quantum', '--pair', 'K,E', str(corpus_path('gamma1.gls'))])\n"
            "print('numpy' in sys.modules)\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "0\nFalse\n"
            "pair (K,E): classical 0, quantum 0.037037037, VIOLATED (one-zero)\nTrue\n"
        )


@pytest.mark.parametrize(
    "name, argv",
    [
        ("gamma1.gls", ("states", "--count-only")),
        ("gamma1.gls", ("states", "--json")),
        ("gamma3pair.gls", ("rules", "--json")),
    ],
)
def test_summary_commands_list_no_state(monkeypatch, name, argv):
    """Counting, flagging and rule derivation read the per-atom summary
    only: with ``enumerate_states`` refusing to run, the output still
    matches the golden table."""
    def refuse(logic):
        raise AssertionError("this command must not list the states")

    monkeypatch.setattr(analysis, "enumerate_states", refuse)
    table = json.loads(golden.TABLE.read_text(encoding="utf-8"))
    assert golden.digest(name, argv) == table[golden.key(name, argv)]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("gamma1.gls", ("states", "--list")),
        ("cabello18.gls", ("states", "--list")),
        ("gamma3pair.gls", ("states", "--list", "--json")),
    ],
)
def test_state_list_runs_one_search(monkeypatch, name, argv):
    """``states --list`` reads its count and flags from the listing's own
    search: with ``summarize_states`` refusing to run, the output still
    matches the golden table."""
    def refuse(logic):
        raise AssertionError("--list must not run a second state search")

    monkeypatch.setattr(analysis, "summarize_states", refuse)
    table = json.loads(golden.TABLE.read_text(encoding="utf-8"))
    assert golden.digest(name, argv) == table[golden.key(name, argv)]


@pytest.mark.parametrize("name", ["gamma1.gls", "cabello18.gls", "gamma3pair.gls"])
def test_state_count_runs_no_summary(monkeypatch, name):
    """Text ``states --count-only`` reads the search's count alone: with
    ``summarize_states`` and ``enumerate_states`` refusing to run, the
    output still matches the golden table."""
    def refuse(logic):
        raise AssertionError("--count-only must not fold or list the states")

    monkeypatch.setattr(analysis, "summarize_states", refuse)
    monkeypatch.setattr(analysis, "enumerate_states", refuse)
    argv = ("states", "--count-only")
    table = json.loads(golden.TABLE.read_text(encoding="utf-8"))
    assert golden.digest(name, argv) == table[golden.key(name, argv)]


def test_quantum_pair_lists_no_state(capsys, monkeypatch):
    def refuse(logic):
        raise AssertionError("quantum must not list the states")

    monkeypatch.setattr(analysis, "enumerate_states", refuse)
    assert main(["quantum", "--pair", "K,E", str(corpus_path("gamma1.gls"))]) == 0
    assert capsys.readouterr().out == (
        "pair (K,E): classical 0, quantum 0.037037037, VIOLATED (one-zero)\n"
    )
