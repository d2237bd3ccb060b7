"""Entangled-state predictions against the classically derived rules.

The engine computes probabilities by one batched tensor contraction; these
tests check it against the independent closed form (a.b)^2 / d for unit
vectors a, b, and against the one-pair Kronecker-product contraction kept in
conftest as an oracle.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from greechie.analysis import derive_rules, enumerate_states, make_star
from greechie.gls import load_corpus
from greechie.model import AbstractLogicError, Atom, Context, Logic, LogicError, Ray
from greechie.quantum import (
    PROB_TOL,
    EntangledPair,
    FalsificationRow,
    JointPrediction,
    confront,
    context_completeness,
    falsification_report,
    joint_probability,
    unit_vector,
)

REALIZED = ("gamma1.gls", "gamma3pair.gls", "cabello18.gls", "tight3_4d.gls")
ORACLE_TOL = 1e-12


def closed_form(a: np.ndarray, b: np.ndarray, d: int) -> float:
    ua = a / np.linalg.norm(a)
    ub = b / np.linalg.norm(b)
    return float(ua @ ub) ** 2 / d


def random_vector(rng: random.Random, d: int) -> np.ndarray:
    while True:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(d)])
        if np.linalg.norm(v) > 1e-6:
            return v


class TestEntangledPair:
    def test_amplitudes_are_uniform_diagonal(self):
        pair = EntangledPair(3)
        expected = np.eye(3) / np.sqrt(3)
        assert np.allclose(pair.amplitudes, expected)

    @pytest.mark.parametrize("d", [3, 4, 5, 9])
    def test_state_is_normalized(self, d):
        vec = EntangledPair(d).amplitudes.reshape(d * d)
        assert abs(float(vec @ vec) - 1.0) < 1e-12

    def test_rejects_low_dimension(self):
        with pytest.raises(LogicError, match=">= 3"):
            EntangledPair(2)


class TestJointProbability:
    def test_nonorthogonal_exclusive_pair(self, gamma1):
        pair = EntangledPair(3)
        pred = joint_probability(
            pair, gamma1.ray_of("E"), gamma1.ray_of("K")
        )
        assert pred.prob_both == pytest.approx(1 / 27, abs=1e-12)
        assert pred.marginal_left == pytest.approx(1 / 3, abs=1e-12)
        assert pred.marginal_right == pytest.approx(1 / 3, abs=1e-12)

    def test_equivalent_pair_correlation_gap(self, gamma3pair):
        pair = EntangledPair(3)
        pred = joint_probability(
            pair, gamma3pair.ray_of("K"), gamma3pair.ray_of("K'")
        )
        assert pred.prob_both == pytest.approx(8 / 27, abs=1e-12)
        gap = pred.marginal_left - pred.prob_both
        assert gap == pytest.approx(1 / 27, abs=1e-12)

    def test_equal_rays_are_perfectly_correlated(self, gamma1):
        pair = EntangledPair(3)
        ray = gamma1.ray_of("E")
        pred = joint_probability(pair, ray, ray)
        assert pred.prob_both == pytest.approx(1 / 3, abs=1e-12)
        assert pred.marginal_left - pred.prob_both == pytest.approx(
            0.0, abs=1e-12
        )

    def test_orthogonal_rays_never_coincide(self, gamma1):
        pair = EntangledPair(3)
        pred = joint_probability(
            pair, gamma1.ray_of("A"), gamma1.ray_of("B")
        )
        assert pred.prob_both == pytest.approx(0.0, abs=1e-12)

    def test_accepts_plain_float_sequences(self):
        pair = EntangledPair(3)
        pred = joint_probability(pair, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert pred.prob_both == pytest.approx(0.0, abs=1e-12)
        assert pred.marginal_right == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_matches_closed_form_on_random_pairs(self, d):
        rng = random.Random(1000 + d)
        pair = EntangledPair(d)
        worst = 0.0
        for _ in range(300):
            a = random_vector(rng, d)
            b = random_vector(rng, d)
            pred = joint_probability(pair, a, b)
            worst = max(worst, abs(pred.prob_both - closed_form(a, b, d)))
            assert pred.marginal_left == pytest.approx(1 / d, abs=1e-12)
            assert pred.marginal_right == pytest.approx(1 / d, abs=1e-12)
        assert worst < PROB_TOL

    def test_symmetric_in_the_two_sides(self):
        rng = random.Random(7)
        pair = EntangledPair(3)
        for _ in range(50):
            a = random_vector(rng, 3)
            b = random_vector(rng, 3)
            assert joint_probability(pair, a, b).prob_both == pytest.approx(
                joint_probability(pair, b, a).prob_both, abs=1e-12
            )

    def test_invariant_under_shared_rotation(self):
        rng = np.random.default_rng(42)
        pair = EntangledPair(3)
        for _ in range(25):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            orthogonal, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            before = joint_probability(pair, a, b).prob_both
            after = joint_probability(
                pair, orthogonal @ a, orthogonal @ b
            ).prob_both
            assert after == pytest.approx(before, abs=1e-9)

    def test_scale_invariance(self, gamma1):
        pair = EntangledPair(3)
        a = np.array(gamma1.ray_of("E").floats())
        b = np.array(gamma1.ray_of("K").floats())
        assert joint_probability(pair, 5 * a, -2 * b).prob_both == (
            pytest.approx(1 / 27, abs=1e-12)
        )


class TestUnitVector:
    def test_normalizes_a_ray(self, gamma1):
        u = unit_vector(gamma1.ray_of("A"), 3)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero_input(self):
        with pytest.raises(LogicError, match="zero ray"):
            unit_vector([0.0, 0.0, 0.0], 3)

    def test_rejects_wrong_length(self):
        with pytest.raises(LogicError, match="expected 4"):
            unit_vector([1.0, 0.0, 0.0], 4)


class TestJointPrediction:
    def test_rejects_probability_above_marginal(self):
        with pytest.raises(LogicError, match="outside"):
            JointPrediction(
                prob_both=0.5,
                marginal_left=0.3,
                marginal_right=0.3,
            )

    def test_rejects_negative_probability(self):
        with pytest.raises(LogicError, match="outside"):
            JointPrediction(
                prob_both=-0.5,
                marginal_left=0.3,
                marginal_right=0.3,
            )


@pytest.fixture(scope="module")
def gamma1_rows(gamma1) -> tuple[FalsificationRow, ...]:
    rules = derive_rules(enumerate_states(gamma1), gamma1)
    return falsification_report(gamma1, rules, EntangledPair(3))


@pytest.fixture(scope="module")
def gamma3pair_rows(gamma3pair) -> tuple[FalsificationRow, ...]:
    rules = derive_rules(enumerate_states(gamma3pair), gamma3pair)
    return falsification_report(gamma3pair, rules, EntangledPair(3))


class TestFalsificationReport:
    def test_gamma1_exactly_two_rules_fail(self, gamma1_rows):
        assert len(gamma1_rows) == 44
        assert all(row.kind == "one-zero" for row in gamma1_rows)
        violated = sorted(row.pair for row in gamma1_rows if row.violated)
        assert violated == [("E", "K"), ("K", "E")]
        for row in gamma1_rows:
            if row.violated:
                assert row.quantum == pytest.approx(1 / 27, abs=1e-12)
            else:
                assert row.quantum <= PROB_TOL

    def test_gamma1_rows_are_sorted(self, gamma1_rows):
        pairs = [row.pair for row in gamma1_rows]
        assert pairs == sorted(pairs)

    def test_gamma3pair_row_inventory(self, gamma3pair_rows):
        assert len(gamma3pair_rows) == 164
        by_kind = {"one-zero": [], "equivalence": []}
        for row in gamma3pair_rows:
            by_kind[row.kind].append(row)
        assert len(by_kind["one-zero"]) == 162
        assert len(by_kind["equivalence"]) == 2

    def test_gamma3pair_equivalences_fail(self, gamma3pair_rows):
        equivalence_rows = [
            row for row in gamma3pair_rows if row.kind == "equivalence"
        ]
        assert sorted(row.pair for row in equivalence_rows) == [
            ("E", "E'"),
            ("K", "K'"),
        ]
        for row in equivalence_rows:
            assert row.violated
            assert row.quantum == pytest.approx(1 / 27, abs=1e-12)

    def test_gamma3pair_sixty_exclusions_fail(self, gamma3pair_rows):
        violated = {
            row.pair
            for row in gamma3pair_rows
            if row.kind == "one-zero" and row.violated
        }
        assert len(violated) == 60
        assert ("E", "K") in violated
        assert ("K'", "E'") in violated
        mirrored = {
            (
                x[:-1] if x.endswith("'") else x + "'",
                y[:-1] if y.endswith("'") else y + "'",
            )
            for x, y in violated
        }
        assert mirrored == violated

    def test_violation_flag_matches_tolerance(self, gamma3pair_rows):
        for row in gamma3pair_rows:
            assert row.violated == (row.quantum > PROB_TOL)
            assert row.classical == 0.0

    def test_rejects_dimension_mismatch(self, gamma1):
        rules = derive_rules(enumerate_states(gamma1), gamma1)
        with pytest.raises(LogicError, match="dimension"):
            falsification_report(gamma1, rules, EntangledPair(4))

    def test_rejects_abstract_logic(self, corpus):
        star = corpus["star4.gls"]
        rules = derive_rules(enumerate_states(star), star)
        with pytest.raises(AbstractLogicError):
            falsification_report(star, rules, EntangledPair(4))

    def test_rejects_abstract_logic_without_rules(self, cabello18):
        stripped = Logic(
            cabello18.dimension,
            tuple(Atom(a.label) for a in cabello18.atoms),
            cabello18.contexts,
        )
        rules = derive_rules(enumerate_states(stripped), stripped)
        assert rules.explosion and not rules.one_zero and not rules.equivalences
        with pytest.raises(AbstractLogicError, match="carries no ray"):
            falsification_report(stripped, rules, EntangledPair(4))


class TestConfront:
    @pytest.fixture(scope="class")
    def rules(self, gamma3pair):
        return derive_rules(enumerate_states(gamma3pair), gamma3pair)

    @pytest.mark.parametrize(
        "x, y, kind",
        [
            ("E", "K", "one-zero"),
            ("K", "K'", "equivalence"),
            ("K'", "K", "equivalence"),
            ("A", "D", "unconstrained"),
        ],
    )
    def test_kind_follows_the_rules(self, rules, x, y, kind):
        row = confront(rules, x, y, JointPrediction(0.1, 0.3, 0.3))
        assert (row.kind, row.pair) == (kind, (x, y))

    def test_one_zero_reports_the_joint_probability(self, rules):
        row = confront(rules, "E", "K", JointPrediction(0.1, 0.3, 0.3))
        assert (row.classical, row.quantum, row.violated) == (0.0, 0.1, True)
        assert not confront(rules, "E", "K", JointPrediction(0.0, 0.3, 0.3)).violated

    def test_equivalence_reports_the_mismatch(self, rules):
        row = confront(rules, "K", "K'", JointPrediction(0.25, 0.375, 0.375))
        assert (row.classical, row.quantum, row.violated) == (0.0, 0.125, True)
        assert not confront(rules, "K", "K'", JointPrediction(0.375, 0.375, 0.375)).violated

    def test_unconstrained_pair_is_never_violated(self, rules):
        row = confront(rules, "A", "D", JointPrediction(0.3, 0.3, 0.3))
        assert (row.classical, row.quantum, row.violated) == (None, 0.3, False)

    def test_checks_the_probability_bound(self, rules):
        with pytest.raises(LogicError, match="outside"):
            confront(rules, "E", "K", JointPrediction(0.5, 0.3, 0.3))


class TestContextCompleteness:
    def test_full_contexts_sum_to_the_marginal(self, corpus):
        rng = random.Random(11)
        for name in ("gamma1.gls", "gamma3pair.gls", "cabello18.gls"):
            logic = corpus[name]
            pair = EntangledPair(logic.dimension)
            b = random_vector(rng, logic.dimension)
            for ctx in logic.contexts:
                total = context_completeness(pair, logic, ctx, b)
                assert total == pytest.approx(
                    1 / logic.dimension, abs=1e-9
                )

    def test_accepts_context_label(self, gamma1):
        pair = EntangledPair(3)
        total = context_completeness(pair, gamma1, "a", Ray.of(1, 1, 1))
        assert total == pytest.approx(1 / 3, abs=1e-9)

    def test_rejects_unknown_label(self, gamma1):
        with pytest.raises(LogicError, match="no context labeled"):
            context_completeness(
                EntangledPair(3), gamma1, "z", Ray.of(1, 0, 0)
            )

    def test_rejects_short_context(self, corpus):
        logic = corpus["tight3_4d.gls"]
        with pytest.raises(LogicError, match="exactly 4"):
            context_completeness(
                EntangledPair(4), logic, "a", [1.0, 0.0, 0.0, 0.0]
            )

    def test_long_labels_are_shortened(self, corpus):
        logic = corpus["tight3_4d.gls"]
        with pytest.raises(LogicError) as err:
            context_completeness(EntangledPair(4), logic, "z" * 5000, [1.0, 0.0, 0.0, 0.0])
        assert str(err.value) == "no context labeled 'zzzzzzzzzzzzzzzzzzzz'... (5000 characters)"
        short = Context("c" * 5000, logic.contexts[0].members[:2])
        with pytest.raises(LogicError) as err:
            context_completeness(EntangledPair(4), logic, short, [1.0, 0.0, 0.0, 0.0])
        assert str(err.value) == (
            "context 'cccccccccccccccccccc'... (5000 characters) has 2 members; "
            "completeness needs exactly 4"
        )


def oracle_quantum(kron, pair: EntangledPair, logic: Logic, row: FalsificationRow) -> float:
    """The figure a report row should carry, from the Kronecker oracle."""
    x, y = row.pair
    prediction = kron(pair, logic.ray_of(x), logic.ray_of(y))
    if row.kind == "equivalence":
        return prediction.marginal_left - prediction.prob_both
    return prediction.prob_both


def assert_rows_match_oracle(kron, logic: Logic) -> tuple[FalsificationRow, ...]:
    pair = EntangledPair(logic.dimension)
    rules = derive_rules(enumerate_states(logic), logic)
    rows = falsification_report(logic, rules, pair)
    one_zero = sorted(rules.one_zero)
    equivalences = sorted(tuple(sorted(e)) for e in rules.equivalences)
    assert [r.pair for r in rows] == one_zero + equivalences
    assert [r.kind for r in rows] == (
        ["one-zero"] * len(one_zero) + ["equivalence"] * len(equivalences)
    )
    for row in rows:
        expected = oracle_quantum(kron, pair, logic, row)
        assert abs(row.quantum - expected) <= ORACLE_TOL
        assert row.violated == (expected > PROB_TOL)
        assert row.classical == 0.0
        # One pair judged as ``quantum --pair`` judges it.
        x, y = row.pair
        single = confront(rules, x, y, joint_probability(pair, logic.ray_of(x), logic.ray_of(y)))
        assert (single.kind, single.classical, single.violated) == (
            row.kind, row.classical, row.violated
        )
        assert abs(single.quantum - row.quantum) <= ORACLE_TOL
    return rows


class TestAgainstKronOracle:
    """The batched contraction against the one-pair Kronecker contraction."""

    @staticmethod
    def assert_same(got: JointPrediction, expected: JointPrediction) -> None:
        assert abs(got.prob_both - expected.prob_both) <= ORACLE_TOL
        assert abs(got.marginal_left - expected.marginal_left) <= ORACLE_TOL
        assert abs(got.marginal_right - expected.marginal_right) <= ORACLE_TOL

    @pytest.mark.parametrize("name", REALIZED)
    def test_joint_probability_on_the_corpus(self, corpus, oracle_kron, name):
        logic = corpus[name]
        pair = EntangledPair(logic.dimension)
        for x in logic.labels:
            for y in logic.labels:
                a, b = logic.ray_of(x), logic.ray_of(y)
                self.assert_same(
                    joint_probability(pair, a, b), oracle_kron(pair, a, b)
                )

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_joint_probability_on_random_quad_rays(self, oracle_kron, random_quad_ray, d):
        rng = random.Random(500 + d)
        pair = EntangledPair(d)
        for _ in range(200):
            a, b = random_quad_ray(rng, d), random_quad_ray(rng, d)
            self.assert_same(joint_probability(pair, a, b), oracle_kron(pair, a, b))

    @pytest.mark.parametrize("name", REALIZED)
    def test_report_rows_on_the_corpus(self, corpus, oracle_kron, name):
        assert_rows_match_oracle(oracle_kron, corpus[name])

    def test_report_rows_on_random_quad_rays(self, oracle_kron, random_logic, random_rays):
        rng = random.Random(3)
        kinds = {"one-zero": 0, "equivalence": 0}
        dimensions = set()
        for _ in range(40):
            logic = random_rays(random_logic(rng), rng)
            dimensions.add(logic.dimension)
            for row in assert_rows_match_oracle(oracle_kron, logic):
                kinds[row.kind] += 1
        for d in (3, 4, 5):
            logic = random_rays(make_star(d), rng)
            dimensions.add(d)
            rows = assert_rows_match_oracle(oracle_kron, logic)
            assert len(rows) == (d + 1) * d * (d - 1)
        assert dimensions == {3, 4, 5}
        assert min(kinds.values()) > 0

    @pytest.mark.parametrize("name", REALIZED)
    def test_context_completeness_on_the_corpus(
        self, corpus, oracle_kron, random_quad_ray, name
    ):
        logic = corpus[name]
        d = logic.dimension
        pair = EntangledPair(d)
        rng = random.Random(name)
        for ctx in logic.contexts:
            if len(ctx.members) != d:
                continue
            b = random_quad_ray(rng, d)
            expected = sum(oracle_kron(pair, logic.ray_of(m), b).prob_both for m in ctx.members)
            assert abs(context_completeness(pair, logic, ctx, b) - expected) <= ORACLE_TOL

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_context_completeness_on_random_quad_rays(
        self, oracle_kron, random_quad_ray, random_rays, d
    ):
        rng = random.Random(700 + d)
        pair = EntangledPair(d)
        for _ in range(10):
            logic = random_rays(make_star(d), rng)
            b = random_quad_ray(rng, d)
            for ctx in logic.contexts:
                expected = sum(
                    oracle_kron(pair, logic.ray_of(m), b).prob_both for m in ctx.members
                )
                got = context_completeness(pair, logic, ctx, b)
                assert abs(got - expected) <= ORACLE_TOL


def test_corpus_fixture_names_match(corpus, gamma1, gamma3pair):
    assert corpus["gamma1.gls"] is gamma1
    assert corpus["gamma3pair.gls"] is gamma3pair
    assert load_corpus("gamma1.gls") == gamma1
