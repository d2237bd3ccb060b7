"""Exact field arithmetic, rays, and the core data model."""

from __future__ import annotations

import dataclasses
import decimal
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_random_logic, build_random_quad_ray, with_distinct_rays
from greechie.model import (
    ONE,
    ROOT2,
    ZERO,
    Atom,
    Context,
    Logic,
    LogicError,
    Quad,
    Ray,
    format_quad,
    inner_product,
    make_logic,
    orthogonal,
    orthogonality_edges,
    parse_quad,
    rays_collinear,
    _spreadsheet_label,
    bulk_check,
    first_fault,
)


def quad(rat, coef2=0) -> Quad:
    return Quad(Fraction(rat), Fraction(coef2))


def minors_vanish(r: Ray, s: Ray) -> bool:
    """Independent collinearity oracle: every 2x2 minor of [r; s] is zero."""
    n = len(r)
    for i in range(n):
        for j in range(i + 1, n):
            minor = r.components[i] * s.components[j] - r.components[j] * s.components[i]
            if not minor.is_zero:
                return False
    return True


# --------------------------------------------------------------------------
# arithmetic
# --------------------------------------------------------------------------

class TestQuadArithmetic:
    def test_root2_squared_is_two(self):
        assert ROOT2 * ROOT2 == quad(2)

    def test_conjugate_product(self):
        assert quad(1, 1) * quad(1, -1) == quad(-1)

    def test_division_by_conjugate(self):
        assert quad(1, 1) / quad(1, -1) == quad(-3, -2)

    def test_division_round_trip(self):
        a, b = quad(Fraction(3, 2), -5), quad(-7, Fraction(1, 3))
        assert (a / b) * b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_zero_iff_both_components_zero(self):
        assert ZERO.is_zero
        assert not quad(0, 1).is_zero
        assert not quad(1, 0).is_zero
        assert not bool(ZERO)
        assert bool(ROOT2)

    def test_float_value(self):
        assert float(quad(1, 1)) == pytest.approx(2.414213562373095)

    def test_float_value_when_the_terms_nearly_cancel(self):
        # p - q*r2 = 1/(p + q*r2) whenever p^2 - 2q^2 = 1.
        p, q = 3, 2
        while p < 10**18:
            with decimal.localcontext() as context:
                context.prec = 50
                exact = 1 / (decimal.Decimal(p) + q * decimal.Decimal(2).sqrt())
            assert float(quad(p, -q)) == pytest.approx(float(exact), rel=1e-15, abs=0)
            assert float(quad(-p, q)) == -float(quad(p, -q))
            big = float(quad(p * 10**250, -q * 10**250))  # its squared terms pass 1e308
            assert big == pytest.approx(float(exact * 10**250), rel=1e-15, abs=0)
            p, q = 3 * p + 4 * q, 2 * p + 3 * q

    def test_subtraction_and_negation(self):
        a = quad(5, Fraction(-2, 3))
        assert a - a == ZERO
        assert -a + a == ZERO

    def test_field_axioms_on_random_triples(self):
        rng = random.Random(20260822)

        def rand_quad() -> Quad:
            return Quad(
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            )

        for _ in range(10_000):
            a, b, c = rand_quad(), rand_quad(), rand_quad()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if not a.is_zero:
                assert a * (ONE / a) == ONE
            if not b.is_zero:
                assert (a / b) * b == a


quads = st.builds(
    Quad,
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9)),
)


@given(quads, quads)
def test_multiplication_matches_definition(a: Quad, b: Quad):
    product = a * b
    assert product.rat == a.rat * b.rat + 2 * a.coef2 * b.coef2
    assert product.coef2 == a.rat * b.coef2 + a.coef2 * b.rat


@given(quads)
def test_additive_inverse(a: Quad):
    assert a + (-a) == ZERO


@given(quads)
def test_token_round_trip(a: Quad):
    assert parse_quad(format_quad(a)) == a


# --------------------------------------------------------------------------
# component tokens
# --------------------------------------------------------------------------

class TestTokens:
    @pytest.mark.parametrize(
        "token, value",
        [
            ("0", quad(0)),
            ("1", quad(1)),
            ("-3", quad(-3)),
            ("-3/2", quad(Fraction(-3, 2))),
            ("r2", quad(0, 1)),
            ("-r2", quad(0, -1)),
            ("2r2", quad(0, 2)),
            ("1/2r2", quad(0, Fraction(1, 2))),
            ("1+1r2", quad(1, 1)),
            ("1-1r2", quad(1, -1)),
            ("-1/3+5/7r2", quad(Fraction(-1, 3), Fraction(5, 7))),
            ("3-r2", quad(3, -1)),
        ],
    )
    def test_parse(self, token, value):
        assert parse_quad(token) == value

    @pytest.mark.parametrize(
        "value, token",
        [
            (quad(0), "0"),
            (quad(-3, 0), "-3"),
            (quad(Fraction(-3, 2)), "-3/2"),
            (quad(0, 1), "r2"),
            (quad(0, -1), "-r2"),
            (quad(0, 2), "2r2"),
            (quad(1, 1), "1+1r2"),
            (quad(1, -1), "1-1r2"),
        ],
    )
    def test_format_canonical(self, value, token):
        assert format_quad(value) == token

    @pytest.mark.parametrize(
        "bad",
        [
            "", "x", "1.5", "r3", "1+", "+", "r2r2", "1+1r2+1", "1//2", "1/0", "--1", "1 2",
            "\u0663", "\uff11", "1/\u0663", "1+\u0661r2",  # ٣ and ١ (Arabic-Indic), １ (fullwidth)
        ],
    )
    def test_rejects_non_field_tokens(self, bad):
        with pytest.raises(ValueError):
            parse_quad(bad)


# --------------------------------------------------------------------------
# rays
# --------------------------------------------------------------------------

class TestRays:
    def test_inner_product_of_orthogonal_pair(self):
        a = Ray.of("1", "r2", "-1")
        b = Ray.of("1", "0", "1")
        assert inner_product(a, b).is_zero

    def test_inner_product_value(self):
        e = Ray.of("r2", "1", "0")
        k = Ray.of("r2", "-1", "0")
        assert inner_product(e, k) == ONE

    def test_squared_norm(self):
        r = Ray.of("1", "0", "1")
        assert inner_product(r, r) == quad(2)

    def test_collinear_scalar_multiple(self):
        assert rays_collinear(Ray.of(1, 0, 1), Ray.of(2, 0, 2))

    def test_not_collinear(self):
        assert not rays_collinear(Ray.of(1, 0, 1), Ray.of(1, 0, -1))

    def test_collinear_irrational_scale(self):
        assert rays_collinear(Ray.of("r2", "1", "0"), Ray.of("2", "r2", "0"))

    def test_zero_ray_rejected(self):
        with pytest.raises(LogicError):
            Ray.of("0", "0", "0")

    def test_empty_ray_rejected(self):
        with pytest.raises(LogicError):
            Ray(())

    def test_length_mismatch(self):
        with pytest.raises(LogicError):
            inner_product(Ray.of(1, 0), Ray.of(1, 0, 0))
        with pytest.raises(LogicError):
            rays_collinear(Ray.of(1, 0), Ray.of(1, 0, 0))

    def test_inner_product_symmetric_random(self):
        rng = random.Random(7)

        def rand_ray() -> Ray:
            while True:
                components = tuple(
                    Quad(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
                    for _ in range(3)
                )
                if any(not c.is_zero for c in components):
                    return Ray(components)

        for _ in range(200):
            r, s = rand_ray(), rand_ray()
            assert inner_product(r, s) == inner_product(s, r)

    def test_collinearity_invariant_under_scaling(self):
        rng = random.Random(11)

        def rand_ray() -> Ray:
            while True:
                components = tuple(
                    Quad(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
                    for _ in range(3)
                )
                if any(not c.is_zero for c in components):
                    return Ray(components)

        for _ in range(1000):
            r = rand_ray()
            s = rand_ray()
            scale = Quad(Fraction(rng.randint(1, 5)), Fraction(rng.randint(0, 3)))
            scaled = Ray(tuple(c * scale for c in r.components))
            assert rays_collinear(r, scaled)
            assert rays_collinear(r, s) == rays_collinear(scaled, s)

    def test_collinearity_agrees_with_minor_oracle(self):
        rng = random.Random(13)
        values = [quad(0), quad(1), quad(-1), quad(0, 1), quad(2), quad(1, -1), quad(-3, 2)]

        def rand_ray() -> Ray:
            while True:
                components = tuple(rng.choice(values) for _ in range(3))
                if any(not c.is_zero for c in components):
                    return Ray(components)

        agreed = {True: 0, False: 0}
        for _ in range(2000):
            r = rand_ray()
            scale = rng.choice(values[1:])
            s = rand_ray() if rng.random() < 0.5 else Ray(tuple(c * scale for c in r.components))
            expected = minors_vanish(r, s)
            assert rays_collinear(r, s) == expected
            assert (r.key == s.key) == expected
            agreed[expected] += 1
        assert min(agreed.values()) > 100

    @pytest.mark.parametrize(
        "r, s, collinear",
        [
            (("0", "1", "r2"), ("0", "r2", "2"), True),
            (("0", "1", "r2"), ("0", "r2", "1"), False),
            (("0", "0", "-r2"), ("0", "0", "1/2"), True),
            (("0", "0", "1"), ("0", "1", "0"), False),
            (("0", "1+1r2", "1"), ("0", "1", "-1+1r2"), True),
        ],
    )
    def test_collinearity_with_leading_zeros(self, r, s, collinear):
        r, s = Ray.of(*r), Ray.of(*s)
        assert minors_vanish(r, s) == collinear
        assert rays_collinear(r, s) == collinear
        assert (r.key == s.key) == collinear

    def test_key_starts_at_one(self):
        for components in [("0", "r2", "2"), ("0", "1", "r2"), ("0", "-1/3", "-1/3r2")]:
            assert Ray.of(*components).key == (0, 0, 1, 0, 0, 1)

    def test_key_is_integer_with_rational_lead(self):
        # (1+r2, 1) times the conjugate 1-r2 is (-1, 1-r2); the sign flips.
        assert Ray.of("1+1r2", "1").key == (1, 0, -1, 1)
        assert Ray.of("0", "1/2", "0", "1/3").key == (0, 0, 3, 0, 0, 0, 2, 0)

    def test_key_agrees_with_quad_key_oracle(self, oracle_quad_key, random_fractional_ray):
        rng = random.Random(29)
        agreed = {True: 0, False: 0}
        for _ in range(1500):
            d = rng.choice([3, 4, 5])
            r = random_fractional_ray(rng, d)
            if rng.random() < 0.5:
                s = random_fractional_ray(rng, d)
            else:
                scale = Quad(Fraction(rng.randint(-7, 7), rng.choice([1, 3, 10**30 + 7])),
                             Fraction(rng.randint(1, 5), rng.choice([1, 2, 9])))
                s = Ray(tuple(c * scale for c in r.components))
            expected = oracle_quad_key(r) == oracle_quad_key(s)
            assert (r.key == s.key) == expected
            assert all(isinstance(x, int) for x in r.key)
            agreed[expected] += 1
        assert min(agreed.values()) > 300

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_orthogonal_agrees_with_inner_product(self, d, random_fractional_ray):
        rng = random.Random(31 + d)
        agreed = {True: 0, False: 0}
        for _ in range(600):
            r = random_fractional_ray(rng, d)
            t = random_fractional_ray(rng, d)
            if rng.random() < 0.5:
                # The part of t orthogonal to r, exact in Q(sqrt 2).
                rr, tr = inner_product(r, r), inner_product(t, r)
                projected = tuple(a * rr - b * tr for a, b in zip(t.components, r.components))
                if all(c.is_zero for c in projected):
                    continue
                t = Ray(projected)
            expected = inner_product(r, t).is_zero
            assert orthogonal(r, t) == expected
            assert orthogonal(t, r) == expected
            agreed[expected] += 1
        assert min(agreed.values()) > 150

    def test_orthogonal_length_mismatch(self):
        with pytest.raises(LogicError, match="length mismatch"):
            orthogonal(Ray.of(1, 0, 0), Ray.of(0, 1, 0, 0))

    def test_integer_form_clears_denominators(self):
        assert Ray.of("1/2", "1/3r2", "-5/6+1/4r2").ints == ((6, 0), (0, 4), (-10, 3))

    @pytest.mark.parametrize(
        "components, ints, key",
        [
            # fractional components: scaled by the lcm 6 of their denominators
            (("1/2", "1/3r2", "1"), ((3, 0), (0, 2), (6, 0)), (3, 0, 0, 2, 6, 0)),
            (("3", "1/2r2", "-1/3"), ((18, 0), (0, 3), (-2, 0)), (18, 0, 0, 3, -2, 0)),
            # all-integer components: kept as they are, the key over their gcd
            (("2", "-4", "6"), ((2, 0), (-4, 0), (6, 0)), (1, 0, -2, 0, 3, 0)),
            # irrational lead 2 + r2 of norm 4 - 2 = 2 > 0
            (("2+1r2", "1", "0"), ((2, 1), (1, 0), (0, 0)), (2, 0, 2, -1, 0, 0)),
            # leads of negative norm p*p - 2*q*q: the sign of the key flips
            (("1-1r2", "2", "0"), ((1, -1), (2, 0), (0, 0)), (1, 0, -2, -2, 0, 0)),
            (("r2", "1", "0"), ((0, 1), (1, 0), (0, 0)), (2, 0, 0, 1, 0, 0)),
        ],
    )
    def test_integer_form_and_key_values(self, components, ints, key):
        ray = Ray.of(*components)
        assert ray.ints == ints
        assert ray.key == key

    def test_integer_form_is_made_with_the_ray(self):
        ray = Ray.of("1/2", "1/3r2", "1")
        assert vars(ray)["ints"] == ((3, 0), (0, 2), (6, 0))
        assert vars(ray)["key"] == (3, 0, 0, 2, 6, 0)
        other = dataclasses.replace(ray, components=Ray.of("r2", "1", "0").components)
        assert vars(other)["ints"] == ((0, 1), (1, 0), (0, 0))
        assert vars(other)["key"] == (2, 0, 0, 1, 0, 0)
        assert [f.name for f in dataclasses.fields(ray)] == ["components"]

    def test_empty_ray_is_refused_before_the_zero_ray(self):
        with pytest.raises(LogicError, match="at least one component"):
            Ray(())
        with pytest.raises(LogicError, match="the zero ray"):
            Ray.of("0", "0", "0")

    def test_collinear_rays_have_proportional_inner_products(self):
        r = Ray.of("1", "r2", "-1")
        scaled = Ray(tuple(c * quad(0, 3) for c in r.components))
        probe = Ray.of("1", "1", "1")
        lhs = inner_product(scaled, probe)
        rhs = inner_product(r, probe) * quad(0, 3)
        assert lhs == rhs


# --------------------------------------------------------------------------
# logic structure
# --------------------------------------------------------------------------

def a_logic(atoms) -> Logic:
    return Logic(3, atoms, [Context("c", ["A", "B"])])


class TestRecords:
    """Quad, Ray, Atom, Context and Logic stay frozen value objects."""

    MAKERS = {
        "Quad": lambda: Quad(1, 2),
        "Ray": lambda: Ray.of("1", "r2", "-1/2"),
        "Atom": lambda: Atom("A", Ray.of("1", "0", "0")),
        "Context": lambda: Context("c", ["a", "b"]),
        "Logic": lambda: a_logic([Atom("A"), Atom("B", Ray.of("0", "1", "0"))]),
    }

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_assignment_is_refused(self, name):
        record = self.MAKERS[name]()
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1

    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_equal_inputs_give_equal_records(self, name):
        first, second = self.MAKERS[name](), self.MAKERS[name]()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert dataclasses.replace(first) == first

    @pytest.mark.parametrize(
        "record, text",
        [
            (Quad(1, 2), "Quad(Fraction(1, 1), Fraction(2, 1))"),
            (Quad(), "Quad(Fraction(0, 1), Fraction(0, 1))"),
            (
                Ray.of("1/2", "r2", "-1+1r2"),
                "Ray(components=(Quad(Fraction(1, 2), Fraction(0, 1)), "
                "Quad(Fraction(0, 1), Fraction(1, 1)), Quad(Fraction(-1, 1), Fraction(1, 1))))",
            ),
            (
                Atom("A", Ray.of("1", "0", "0")),
                "Atom(label='A', ray=Ray(components=(Quad(Fraction(1, 1), Fraction(0, 1)), "
                "Quad(Fraction(0, 1), Fraction(0, 1)), Quad(Fraction(0, 1), Fraction(0, 1)))))",
            ),
            (Atom("N"), "Atom(label='N', ray=None)"),
            (Context("c", ["a", "b"]), "Context(label='c', members=('a', 'b'))"),
            (
                Logic(3, [Atom("A")], [Context("c", ("A",))]),
                "Logic(dimension=3, atoms=(Atom(label='A', ray=None),), "
                "contexts=(Context(label='c', members=('A',)),))",
            ),
        ],
    )
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_inputs_are_coerced(self):
        assert Context("c", ["a", "b"]).members == ("a", "b")
        assert type(Quad(1, 2).rat) is Fraction and type(Quad(1, 2).coef2) is Fraction
        assert type(Quad().rat) is Fraction
        assert Ray([ONE, ZERO, ROOT2]).components == (ONE, ZERO, ROOT2)
        logic = a_logic([Atom("A"), Atom("B")])
        assert logic.atoms == (Atom("A"), Atom("B"))
        assert logic.contexts == (Context("c", ("A", "B")),)


def tiny_logic() -> Logic:
    return make_logic(
        3,
        atoms=[
            Atom("A", Ray.of(1, 0, 0)),
            Atom("B", Ray.of(0, 1, 0)),
            Atom("C", Ray.of(0, 0, 1)),
        ],
        contexts=[("A", "B", "C")],
    )


class TestLogic:
    def test_make_logic_round(self):
        logic = tiny_logic()
        assert logic.labels == ("A", "B", "C")
        assert logic.atom("A").ray is not None
        assert logic.contexts_of["A"] == ("a",)

    def test_duplicate_atom_label(self):
        logic = Logic(
            3,
            (Atom("A"), Atom("A")),
            (Context("a", ("A", "A")),),
        )
        with pytest.raises(LogicError):
            logic.validate()

    def test_duplicate_ray_rejected(self):
        logic = Logic(
            3,
            (
                Atom("A", Ray.of(1, 0, 1)),
                Atom("B", Ray.of(2, 0, 2)),
            ),
            (Context("a", ("A", "B")),),
        )
        with pytest.raises(LogicError, match="same ray"):
            logic.validate()

    def test_context_too_large(self):
        logic = Logic(
            3,
            tuple(Atom(l) for l in "ABCD"),
            (Context("a", ("A", "B", "C", "D")),),
        )
        with pytest.raises(LogicError):
            logic.validate()

    def test_undeclared_member(self):
        logic = Logic(3, (Atom("A"), Atom("B")), (Context("a", ("A", "B", "Z")),))
        with pytest.raises(LogicError):
            logic.validate()

    def test_atom_in_no_context(self):
        logic = Logic(
            3,
            (Atom("A"), Atom("B"), Atom("C")),
            (Context("a", ("A", "B")),),
        )
        with pytest.raises(LogicError):
            logic.validate()

    def test_dimension_floor(self):
        logic = Logic(2, (Atom("A"), Atom("B")), (Context("a", ("A", "B")),))
        with pytest.raises(LogicError):
            logic.validate()

    def test_ray_length_mismatch(self):
        logic = Logic(
            3,
            (Atom("A", Ray.of(1, 0)), Atom("B")),
            (Context("a", ("A", "B")),),
        )
        with pytest.raises(LogicError):
            logic.validate()

    def test_duplicate_context_member_sets(self):
        logic = Logic(
            3,
            (Atom("A"), Atom("B")),
            (Context("a", ("A", "B")), Context("b", ("B", "A"))),
        )
        with pytest.raises(LogicError):
            logic.validate()

    def test_abstract_ray_access(self):
        logic = Logic(3, (Atom("A"), Atom("B")), (Context("a", ("A", "B")),))
        logic.validate()
        with pytest.raises(LogicError, match="abstract"):
            logic.ray_of("A")
        assert not logic.is_realized

    def test_unknown_atom_label_is_shortened(self):
        with pytest.raises(LogicError) as err:
            tiny_logic().atom("Z" * 5000)
        assert str(err.value) == "unknown atom 'ZZZZZZZZZZZZZZZZZZZZ'... (5000 characters)"

    def test_orthogonality_edges(self):
        logic = tiny_logic()
        assert orthogonality_edges(logic) == frozenset(
            {frozenset({"A", "B"}), frozenset({"A", "C"}), frozenset({"B", "C"})}
        )


def test_spreadsheet_labels():
    assert _spreadsheet_label(0) == "a"
    assert _spreadsheet_label(25) == "z"
    assert _spreadsheet_label(26) == "aa"
    assert _spreadsheet_label(27) == "ab"
    assert _spreadsheet_label(26 * 27) == "aaa"


# Each mutation breaks one structural rule of first_fault, or tries to; its set
# check must agree with its walk whether or not the rule ends up broken.
def _mutate(logic: Logic, rng: random.Random, how: str) -> Logic:
    dim, atoms, contexts = logic.dimension, list(logic.atoms), list(logic.contexts)
    labels = [a.label for a in atoms]
    pick = rng.randrange(len(contexts))
    members = list(contexts[pick].members)
    if how == "small_dimension":
        dim = rng.choice((0, 1, 2))
    elif how == "duplicate_atom_label":
        atoms.insert(rng.randint(0, len(atoms)), Atom(rng.choice(labels), atoms[0].ray))
    elif how == "ray_length":
        i = rng.randrange(len(atoms))
        atoms[i] = Atom(labels[i], build_random_quad_ray(rng, rng.choice((1, dim - 1, dim + 1))))
    elif how == "collinear_rays":
        i, j = rng.sample(range(len(atoms)), 2)
        ray = atoms[j].ray or build_random_quad_ray(rng, dim)
        scale = Quad(Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 7))), rng.randint(-2, 2))
        scaled = Ray(tuple(c * scale for c in ray.components))
        atoms[i], atoms[j] = Atom(labels[i], scaled), Atom(labels[j], ray)
    elif how == "duplicate_context_label":
        extra = rng.sample(labels, rng.randint(2, min(dim, len(labels))))
        contexts.insert(rng.randint(0, len(contexts)), Context(contexts[pick].label, extra))
    elif how == "too_few_members":
        contexts[pick] = Context(contexts[pick].label, members[: rng.randint(0, 1)])
    elif how == "too_many_members":
        extra = [x for x in labels if x not in members]
        contexts[pick] = Context(contexts[pick].label, members + extra[: dim + 1 - len(members)])
    elif how == "repeated_member":
        i, j = rng.sample(range(len(members)), 2)
        members[i] = members[j]
        contexts[pick] = Context(contexts[pick].label, members)
    elif how == "same_member_set":
        rng.shuffle(members)
        contexts.insert(rng.randint(0, len(contexts)), Context("dup", members))
    elif how == "unused_atom":
        atoms.insert(rng.randint(0, len(atoms)), Atom("unused"))
    elif how == "undeclared_member":
        members[rng.randrange(len(members))] = "nowhere"
        contexts[pick] = Context(contexts[pick].label, members)
    elif how == "dropped_atom":
        del atoms[rng.randrange(len(atoms))]
    return Logic(dim, tuple(atoms), tuple(contexts))


_MUTATIONS = (
    "none", "small_dimension", "duplicate_atom_label", "ray_length", "collinear_rays",
    "duplicate_context_label", "too_few_members", "too_many_members", "repeated_member",
    "same_member_set", "unused_atom", "undeclared_member", "dropped_atom",
)


def _shown(fault):
    return None if fault is None else (fault[0], str(fault[1]), fault[1].token)


def _interleaved(atoms, contexts, rng):
    """A file order with the atom lines placed at random among the context
    lines, each kind in its own order, and the parser's ``late`` map for it:
    each atom declared after a context -> the number of contexts above it.
    Half the orders place each atom at or above its first context."""
    first = {}
    for k, context in enumerate(contexts):
        for m in context.members:
            first.setdefault(m, k)
    above_first = rng.random() < 0.5
    slots = [
        rng.randint(0, first.get(a.label, len(contexts)) if above_first else len(contexts))
        for a in atoms
    ]
    order = []
    for k in range(len(contexts) + 1):
        order += [a for a, slot in zip(atoms, slots) if slot == k]
        order += contexts[k : k + 1]
    late, above = {}, 0
    for item in order:
        if isinstance(item, Context):
            above += 1
        elif above:
            late[item.label] = above
    return order, late


@settings(derandomize=True, deadline=None, max_examples=600)
@given(
    st.integers(0, 2**32),
    st.sampled_from((0.0, 0.5, 1.0)),  # share of atoms with a ray: abstract, mixed, realized
    st.sampled_from(_MUTATIONS),
)
def test_bulk_check_agrees_with_the_walk(seed, share, how):
    rng = random.Random(seed)
    logic = with_distinct_rays(build_random_logic(rng, max_atoms=10), rng, share)
    mutated = _mutate(logic, rng, how)
    dim, atoms, contexts = mutated.dimension, mutated.atoms, mutated.contexts
    fault = first_fault(dim, (*atoms, *contexts))
    assert bulk_check(dim, atoms, contexts, {}) == (fault is None)
    order, late = _interleaved(atoms, contexts, rng)
    assert bulk_check(dim, atoms, contexts, late) == (first_fault(dim, order) is None)
    if how == "none":
        assert fault is None
    if fault is None:
        mutated.validate()
    else:
        with pytest.raises(LogicError) as err:
            mutated.validate()
        assert (str(err.value), err.value.token) == _shown(fault)[1:]


# sha256 of the JSON list of every [mutation, message, token] below: what
# Logic.validate raises on each mutated logic, or [mutation, None, None].
_VALIDATE_DIGEST = "8942d2b695db9b59df3650e4c3223b004d33ac52bbf187f827ee996db14ac1cd"


def test_validate_faults_are_pinned():
    rng = random.Random(20071017)
    faults = []
    for _ in range(40):
        for share in (0.0, 0.5, 1.0):  # abstract, mixed and realized atoms
            for how in _MUTATIONS:
                logic = with_distinct_rays(build_random_logic(rng, max_atoms=10), rng, share)
                try:
                    _mutate(logic, rng, how).validate()
                except LogicError as exc:
                    faults.append([how, str(exc), exc.token])
                else:
                    faults.append([how, None, None])
    assert {how for how, message, _ in faults if message} == set(_MUTATIONS[1:])
    digest = hashlib.sha256(json.dumps(faults).encode("utf-8")).hexdigest()
    assert digest == _VALIDATE_DIGEST
