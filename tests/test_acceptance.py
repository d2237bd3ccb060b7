"""Acceptance gate: one test per release criterion.

Each test records a pass/fail line that the terminal summary prints, so a
full run ends with one line per criterion.  The checks deliberately pair the
main code path with an independent oracle wherever a number matters.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction

import pytest

from conftest import record_criterion

from greechie.analysis import (
    derive_rules,
    enumerate_states,
    infer_collapses,
    make_star,
    parity_obstruction,
    verify_realization,
)
from greechie.cli import main
from greechie.diagrams import tkadlec_dual
from greechie.gls import CORPUS_FILES, corpus_path, load_corpus, parse_logic, serialize_logic
from greechie.model import Quad
from greechie.quantum import EntangledPair, context_completeness, falsification_report, joint_probability

REALIZED = ("gamma1.gls", "gamma3pair.gls", "cabello18.gls", "tight3_4d.gls")


def record(number: int, description: str):
    """Decorator: run the check, record its verdict, re-raise on failure."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(number, description, False)
                raise
            record_criterion(number, description, True)

        return run

    return wrap


@record(1, "exact orthogonality check passes on all four realized files")
def test_criterion_1_realization(capsys):
    expected_contexts = {
        "gamma1.gls": 7,
        "gamma3pair.gls": 17,
        "cabello18.gls": 9,
        "tight3_4d.gls": 3,
    }
    for name in REALIZED:
        start = time.perf_counter()
        code = main(["check", "--strict", str(corpus_path(name))])
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert code == 0, name
        assert elapsed < 0.1, (name, elapsed)
        report = verify_realization(load_corpus(name))
        assert report.passed
        assert len(report.checks) == expected_contexts[name]


@record(2, "the 18-atom configuration has no states and a parity certificate")
def test_criterion_2_ks_emptiness(capsys):
    path = str(corpus_path("cabello18.gls"))
    start = time.perf_counter()
    code = main(["states", "--count-only", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "0\n"
    code = main(["parity", "--strict", path])
    capsys.readouterr()
    assert code == 1
    logic = load_corpus("cabello18.gls")
    assert enumerate_states(logic).count == 0
    certificate = parity_obstruction(logic)
    elapsed = time.perf_counter() - start
    assert certificate is not None
    assert certificate.context_count == 9
    assert all(m == 2 for _, m in certificate.atom_multiplicities)
    assert len(certificate.atom_multiplicities) == 18
    assert elapsed < 1.0, elapsed


@record(3, "distant exclusion rules on the hexagon logic, count matches scan")
def test_criterion_3_one_zero_rule(oracle_bitmask):
    logic = load_corpus("gamma1.gls")
    report = enumerate_states(logic)
    rules = derive_rules(report, logic)
    assert ("K", "E") in rules.one_zero
    assert ("E", "K") in rules.one_zero
    assert rules.never_true == ()
    assert any(s.value("K") == 1 for s in report.states)
    assert any(s.value("E") == 1 for s in report.states)
    scanned = oracle_bitmask(logic)
    assert len(scanned) == report.count == 14
    assert [s.bits for s in report.states] == scanned


@record(4, "the paired logic forces value equality, states match the oracle")
def test_criterion_4_equivalence_rule(oracle_choices):
    logic = load_corpus("gamma3pair.gls")
    start = time.perf_counter()
    report = enumerate_states(logic)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, elapsed
    rules = derive_rules(report, logic)
    assert frozenset({"K", "K'"}) in rules.equivalences
    assert [s.bits for s in report.states] == oracle_choices(logic)
    assert report.count == 24


@record(5, "the dimension-4 star has 16 atoms, 5 contexts, a 4-edge dual star")
def test_criterion_5_star_structure():
    logic = make_star(4)
    assert len(logic.atoms) == 16
    assert len(logic.contexts) == 5
    dual = tkadlec_dual(logic)
    assert len(dual.edges) == 4
    center = "a"
    assert all(e.left == center for e in dual.edges)
    assert dual.degree(center) == 4
    assert {e.right for e in dual.edges} == {"b", "c", "d", "e"}


@record(6, "dimension 3 forces three identifications, dimension 4 none")
def test_criterion_6_collapse():
    tight = load_corpus("tight3.gls")
    report = infer_collapses(tight)
    assert report.pairs == frozenset(
        [
            frozenset({"B", "K"}),
            frozenset({"D", "C"}),
            frozenset({"L", "A"}),
        ]
    )
    relaxed = load_corpus("tight3_4d.gls")
    assert infer_collapses(relaxed).forced_identifications == ()
    assert verify_realization(relaxed).passed


@record(7, "entangled-state prediction breaks the derived exclusion rule")
def test_criterion_7_quantum_falsification():
    import numpy as np

    logic = load_corpus("gamma1.gls")
    pair = EntangledPair(3)
    prediction = joint_probability(pair, logic.ray_of("E"), logic.ray_of("K"))
    assert prediction.prob_both > 1e-3
    e_hat = np.array(logic.ray_of("E").floats())
    k_hat = np.array(logic.ray_of("K").floats())
    e_hat /= np.linalg.norm(e_hat)
    k_hat /= np.linalg.norm(k_hat)
    closed_form = float(e_hat @ k_hat) ** 2 / 3
    assert abs(prediction.prob_both - closed_form) < 1e-9
    assert prediction.prob_both == pytest.approx(1 / 27, abs=1e-9)
    rules = derive_rules(enumerate_states(logic), logic)
    assert ("E", "K") in rules.one_zero
    rows = falsification_report(logic, rules, pair)
    row = next(r for r in rows if r.pair == ("E", "K"))
    assert row.classical == 0.0
    assert row.violated


@record(8, "property suites: oracles, field axioms, round-trips, completeness")
def test_criterion_8_property_suites(
    oracle_bitmask, oracle_choices, random_logic, random_parity_logic
):
    start = time.perf_counter()

    rng = random.Random(20260822)
    for _ in range(200):
        logic = random_logic(rng)
        got = [s.bits for s in enumerate_states(logic).states]
        assert got == oracle_bitmask(logic)
        assert got == oracle_choices(logic)

    def random_quad() -> Quad:
        return Quad(
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
            Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
        )

    for _ in range(10_000):
        x, y, z = random_quad(), random_quad(), random_quad()
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert x + y == y + x and x * y == y * x
        if not z.is_zero:
            assert (x * z) / z == x

    for name in CORPUS_FILES:
        logic = load_corpus(name)
        assert parse_logic(serialize_logic(logic)) == logic

    for name in REALIZED:
        logic = load_corpus(name)
        pair = EntangledPair(logic.dimension)
        probe = [float(i + 1) for i in range(logic.dimension)]
        for ctx in logic.contexts:
            if len(ctx.members) != logic.dimension:
                continue
            total = context_completeness(pair, logic, ctx, probe)
            assert abs(total - 1 / logic.dimension) < 1e-9

    for _ in range(15):
        logic = random_parity_logic(rng)
        assert parity_obstruction(logic) is not None
        assert enumerate_states(logic).empty

    assert time.perf_counter() - start < 40.0
