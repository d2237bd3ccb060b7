"""Exact arithmetic over the field Q(sqrt(2)) and the core logic data model.

A *logic* here is a finite pasting of contexts: an orthogonality hypergraph
whose points (atoms) may carry one-dimensional subspaces (rays) of a real
Hilbert space of the declared dimension.  Every inner product and collinearity
test is computed exactly in Q(sqrt(2)); no ray in the supported corpus needs a
larger field, and tokens outside it are rejected outright.
``Quad`` is the exact value parsed, formatted and printed; ray tests run on ints
(``Ray.ints``, ``Ray.key``, ``orthogonal``), since scaling keeps both relations.
A ray's integer form and key are made once, with the ray.
The structural rules of a logic live in ``first_fault``: ``Logic.validate``
and the ``.gls`` parser both raise the fault it names.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence, Union

SQRT2 = math.sqrt(2.0)

RationalLike = Union[int, Fraction]


class LogicError(ValueError):
    """A structural violation in a logic: bad labels, members, sizes, or rays.

    ``token`` locates the fault inside one declaration when known: 0 is its
    label (or the dimension value), k >= 1 its k-th component or member.
    """

    def __init__(self, message: str, token: int | None = None) -> None:
        self.token = token
        super().__init__(message)


class AbstractLogicError(LogicError):
    """An operation that needs rays was applied to an atom without one."""

    def __init__(self, atom: str) -> None:
        self.atom = atom
        super().__init__(f"atom {quote_token(atom)} carries no ray (abstract logic)")


# The records below are frozen dataclasses with one explicit ``__init__`` that
# writes the instance ``__dict__``, which is also how ``cached_property``
# stores its values on them; assignment still raises FrozenInstanceError.


@dataclass(frozen=True, init=False)
class Quad:
    """An exact number a + b*sqrt(2) with rational a, b.

    Both components are `fractions.Fraction`s, so they stay in lowest terms
    with positive denominator after every operation.  Because sqrt(2) is
    irrational, a Quad is zero iff both components are zero, which is what
    makes exact orthogonality checks possible.
    """

    rat: Fraction
    coef2: Fraction

    def __init__(self, rat: RationalLike = 0, coef2: RationalLike = 0) -> None:
        d = self.__dict__
        d["rat"] = Fraction(rat)
        d["coef2"] = Fraction(coef2)

    @property
    def is_zero(self) -> bool:
        return self.rat == 0 and self.coef2 == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other: Quad) -> Quad:
        if not isinstance(other, Quad):
            return NotImplemented
        return Quad(self.rat + other.rat, self.coef2 + other.coef2)

    def __sub__(self, other: Quad) -> Quad:
        if not isinstance(other, Quad):
            return NotImplemented
        return Quad(self.rat - other.rat, self.coef2 - other.coef2)

    def __neg__(self) -> Quad:
        return Quad(-self.rat, -self.coef2)

    def __mul__(self, other: Quad) -> Quad:
        # (a + b*r2)(c + d*r2) = (ac + 2bd) + (ad + bc)*r2
        if not isinstance(other, Quad):
            return NotImplemented
        a, b, c, d = self.rat, self.coef2, other.rat, other.coef2
        return Quad(a * c + 2 * b * d, a * d + b * c)

    def __truediv__(self, other: Quad) -> Quad:
        if not isinstance(other, Quad):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero Quad")
        # Multiply by the conjugate: 1/(c + d*r2) = (c - d*r2)/(c^2 - 2 d^2).
        # The norm c^2 - 2 d^2 vanishes only for c = d = 0.
        c, d = other.rat, other.coef2
        norm = c * c - 2 * d * d
        return Quad(
            (self.rat * c - 2 * self.coef2 * d) / norm,
            (self.coef2 * c - self.rat * d) / norm,
        )

    def __float__(self) -> float:
        return float(self.rat) + float(self.coef2) * SQRT2

    def __str__(self) -> str:
        return format_quad(self)

    def __repr__(self) -> str:
        return f"Quad({self.rat!r}, {self.coef2!r})"


ZERO = Quad()
ONE = Quad(Fraction(1))
ROOT2 = Quad(Fraction(0), Fraction(1))


def format_quad(q: Quad) -> str:
    """Canonical component token: "0", "-3/2", "r2", "2r2", "1+1r2", "1-1r2"."""
    if q.coef2 == 0:
        return str(q.rat)
    if q.rat == 0:
        if q.coef2 == 1:
            return "r2"
        if q.coef2 == -1:
            return "-r2"
        return f"{q.coef2}r2"
    if q.coef2 > 0:
        return f"{q.rat}+{q.coef2}r2"
    return f"{q.rat}-{-q.coef2}r2"


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<coef>\d+(?:/\d+)?)?(?P<r2>r2)|(?P<plain>\d+(?:/\d+)?))",
    re.ASCII,  # \d would also match other scripts' digits, which int() reads
)


def quote_token(token: str) -> str:
    """``repr(token)``, cut to its first 20 characters plus its length when longer."""
    return repr(token) if len(token) <= 20 else f"{token[:20]!r}... ({len(token)} characters)"


@lru_cache(maxsize=4096)
def parse_quad(token: str) -> Quad:
    """Parse a component token: one or two signed terms, each a rational or a
    rational times sqrt(2) (suffix "r2"; bare "r2" means 1*sqrt(2)).

    Raises ValueError for anything outside Q(sqrt(2)); other irrationals are
    deliberately unsupported.  Results are memoized; errors are not.
    """
    shown = quote_token(token)
    pos = 0
    terms: list[Quad] = []
    while pos < len(token):
        m = _TERM_RE.match(token, pos)
        if m is None or m.end() == m.start():
            raise ValueError(f"invalid component token {shown} (only Q(√2) values are supported)")
        if terms and m.group("sign") == "":
            raise ValueError(f"invalid component token {shown}: missing '+' or '-' between terms")
        sign = -1 if m.group("sign") == "-" else 1
        try:
            if m.group("r2"):
                coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
                terms.append(Quad(Fraction(0), sign * coef))
            else:
                terms.append(Quad(sign * Fraction(m.group("plain"))))
        except ZeroDivisionError:
            raise ValueError(f"invalid component token {shown}: zero denominator") from None
        except ValueError:  # more digits than int() converts
            raise ValueError(f"invalid component token {shown}: too many digits") from None
        pos = m.end()
    if not terms or len(terms) > 2:
        raise ValueError(f"invalid component token {shown}")
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


@dataclass(frozen=True, init=False)
class Ray:
    """A one-dimensional subspace, represented by any nonzero vector of Quads.

    Rays are unnormalized: norms such as sqrt(3) would leave Q(sqrt(2)), so
    normalization is deferred to the floating-point quantum module.  The
    integer form ``ints`` and the canonical ``key`` are made once, with the
    ray; they are plain attributes, not fields, so they take no part in
    ``==``, ``hash`` or ``repr``.

    ``ints``: the components times their denominators' lcm, as ints (a, b):
    a + b*sqrt(2).

    ``key``: canonical projective form, 2d ints (a1, b1, ..., ad, bd): ``ints``
    times the conjugate p - q*sqrt(2) of its lead p + q*sqrt(2), which makes the
    lead rational, over the gcd, lead positive.  Collinear rays, and only they,
    have equal keys.
    """

    components: tuple[Quad, ...]

    def __init__(self, components: Iterable[Quad]) -> None:
        components = tuple(components)
        if not components:
            raise LogicError("ray needs at least one component")
        ratios = []
        scale = 1
        for c in components:
            a, da = c.rat.as_integer_ratio()
            b, db = c.coef2.as_integer_ratio()
            ratios.append((a, da, b, db))
            if da != 1 or db != 1:
                scale = math.lcm(scale, da, db)
        if scale == 1:
            ints = tuple([(a, b) for a, _, b, _ in ratios])
        else:
            ints = tuple([(a * (scale // da), b * (scale // db)) for a, da, b, db in ratios])
        for p, q in ints:
            if p or q:
                break
        else:
            raise LogicError("the zero ray is not a ray: a component must be nonzero")
        key = []
        for a, b in ints:
            key.append(a * p - 2 * b * q)
            key.append(b * p - a * q)
        # The first nonzero entry is the lead's norm p*p - 2*q*q, never zero.
        g = math.gcd(*key) if p * p > 2 * q * q else -math.gcd(*key)
        d = self.__dict__
        d["components"] = components
        d["ints"] = ints
        d["key"] = tuple([x // g for x in key])

    @classmethod
    def of(cls, *values: RationalLike | Quad | str) -> Ray:
        comps = []
        for v in values:
            if isinstance(v, Quad):
                comps.append(v)
            elif isinstance(v, str):
                comps.append(parse_quad(v))
            else:
                comps.append(Quad(Fraction(v)))
        return cls(comps)

    def __len__(self) -> int:
        return len(self.components)

    def floats(self) -> list[float]:
        """The components as floats.  Far from 1 they are first scaled by one
        power of two, which is exact, so that none overflows or vanishes."""
        shift = max(f.numerator.bit_length() - f.denominator.bit_length()
                    for c in self.components for f in (c.rat, c.coef2) if f)
        if abs(shift) <= 256:
            return [float(c) for c in self.components]
        return [float(c * Quad(Fraction(2) ** -shift)) for c in self.components]

    def __str__(self) -> str:
        return "(" + ", ".join(format_quad(c) for c in self.components) + ")"


def inner_product(r: Ray, s: Ray) -> Quad:
    """Exact Euclidean inner product; the rays are real, so no conjugation."""
    if len(r) != len(s):
        raise LogicError(f"ray length mismatch: {len(r)} vs {len(s)}")
    return sum((a * b for a, b in zip(r.components, s.components)), ZERO)


def orthogonal(r: Ray, s: Ray) -> bool:
    """Exact orthogonality: the inner product of the integer forms is zero."""
    if len(r) != len(s):
        raise LogicError(f"ray length mismatch: {len(r)} vs {len(s)}")
    rat = irr = 0
    for (a, b), (c, d) in zip(r.ints, s.ints):
        rat += a * c + 2 * b * d
        irr += a * d + b * c
    return rat == 0 and irr == 0


def rays_collinear(r: Ray, s: Ray) -> bool:
    """Projective equality of two rays of the same length."""
    if len(r) != len(s):
        raise LogicError(f"ray length mismatch: {len(r)} vs {len(s)}")
    return r.key == s.key


def collinear_classes(labeled: Iterable[tuple[str, Ray]]) -> list[list[str]]:
    """Groups of two or more labels with one ray, in input order."""
    by_key: dict[tuple[int, ...], list[str]] = {}
    for label, ray in labeled:
        by_key.setdefault(ray.key, []).append(label)
    return [group for group in by_key.values() if len(group) > 1]


@dataclass(frozen=True, init=False)
class Atom:
    """A labeled elementary proposition, optionally realized as a ray."""

    label: str
    ray: Ray | None

    def __init__(self, label: str, ray: Ray | None = None) -> None:
        d = self.__dict__
        d["label"] = label
        d["ray"] = ray


@dataclass(frozen=True, init=False)
class Context:
    """A maximal set of co-measurable propositions, kept in declared order."""

    label: str
    members: tuple[str, ...]

    def __init__(self, label: str, members: Iterable[str]) -> None:
        d = self.__dict__
        d["label"] = label
        d["members"] = tuple(members)


def first_fault(
    dimension: int,
    atoms: Sequence[Atom],
    contexts: Sequence[Context],
    declarations: Sequence[Atom | Context] | None = None,
) -> tuple[int, LogicError] | None:
    """The first structural fault of a logic and the index of its declaration, or None.

    The rules: the dimension is at least 3; atom labels are distinct; a ray has
    ``dimension`` components and no other atom's ray is collinear with it;
    context labels are distinct; a context names 2 to ``dimension`` atoms
    declared before it, none twice, and no other context has its member set;
    every atom occurs in a context.  The declarations are read atoms first, or
    in the order of ``declarations`` when given.  Index -1 is the dimension,
    ``len(atoms) + len(contexts)`` an atom in no context; the fault's ``token``
    locates it inside the declaration.

    Without ``declarations`` the rules are decided with whole-logic sets, and
    the declarations are walked one at a time only to name a fault.
    """
    if declarations is None:
        labels = {a.label for a in atoms}
        rays = [a.ray for a in atoms if a.ray is not None]
        members = [c.members for c in contexts]
        sizes = list(map(len, members))
        member_sets = list(map(frozenset, members))
        # Equal totals mean no context repeats a member; the union of the member
        # sets is the declared labels when every member is declared and every atom used.
        if (
            dimension >= 3
            and len(labels) == len(atoms)
            and all(len(r) == dimension for r in rays)
            and len({r.key for r in rays}) == len(rays)
            and len({c.label for c in contexts}) == len(contexts)
            and (not sizes or min(sizes) >= 2 and max(sizes) <= dimension)
            and sum(map(len, member_sets)) == sum(sizes)
            and len(set(member_sets)) == len(member_sets)
            and labels == set().union(*member_sets)
        ):
            return None
        declarations = (*atoms, *contexts)
    return _walk(dimension, declarations)


def _walk(
    dimension: int, declarations: Sequence[Atom | Context]
) -> tuple[int, LogicError] | None:
    """``first_fault`` read one declaration at a time, in the given order."""
    if dimension < 3:
        return -1, LogicError(f"dimension must be >= 3, got {dimension}", token=0)
    used: dict[str, bool] = {}  # atom label -> occurs in a context
    rays: dict[tuple[int, ...], str] = {}  # Ray.key -> atom label
    context_labels: set[str] = set()
    member_sets: dict[frozenset[str], str] = {}
    for index, item in enumerate(declarations):
        label = item.label
        if isinstance(item, Atom):
            if label in used:
                return index, LogicError(f"duplicate atom label {quote_token(label)}", token=0)
            if item.ray is not None:
                if len(item.ray) != dimension:
                    return index, LogicError(
                        f"atom {quote_token(label)} has {len(item.ray)} components, "
                        f"expected {dimension}",
                        token=1,
                    )
                other = rays.setdefault(item.ray.key, label)
                if other != label:
                    return index, LogicError(
                        f"atom {quote_token(label)} duplicates the ray of atom "
                        f"{quote_token(other)}; distinct atoms must not carry the same ray",
                        token=1,
                    )
            used[label] = False
            continue
        members = item.members
        if label in context_labels:
            return index, LogicError(f"duplicate context label {quote_token(label)}", token=0)
        if len(members) < 2:
            return index, LogicError(
                f"context {quote_token(label)} needs at least 2 members", token=0
            )
        if len(members) > dimension:
            return index, LogicError(
                f"context {quote_token(label)} has {len(members)} members, "
                f"more than dimension {dimension}",
                token=1,
            )
        seen: set[str] = set()
        for k, m in enumerate(members, start=1):
            if m not in used:
                return index, LogicError(
                    f"context {quote_token(label)} member {quote_token(m)} "
                    "is not a declared atom",
                    token=k,
                )
            if m in seen:
                return index, LogicError(
                    f"context {quote_token(label)} repeats member {quote_token(m)}", token=k
                )
            seen.add(m)
        key = frozenset(seen)
        if key in member_sets:
            return index, LogicError(
                f"context {quote_token(label)} has the same member set as context "
                f"{quote_token(member_sets[key])}",
                token=0,
            )
        context_labels.add(label)
        member_sets[key] = label
        used.update(dict.fromkeys(seen, True))
    for atom, in_context in used.items():
        if not in_context:
            return len(declarations), LogicError(f"atom {quote_token(atom)} occurs in no context")
    return None


@dataclass(frozen=True, init=False)
class Logic:
    """A finite pasting of contexts over a shared atom set.

    Construction does not validate; call :meth:`validate` to enforce the
    structural rules of ``first_fault``, which the parser enforces too.
    Geometric soundness of a realization -- pairwise orthogonality inside
    every context -- is checked by ``analysis.verify_realization``, which
    reports rather than raises, so that broken realizations can be examined.
    """

    dimension: int
    atoms: tuple[Atom, ...]
    contexts: tuple[Context, ...]

    def __init__(
        self, dimension: int, atoms: Iterable[Atom], contexts: Iterable[Context]
    ) -> None:
        d = self.__dict__
        d["dimension"] = dimension
        d["atoms"] = tuple(atoms)
        d["contexts"] = tuple(contexts)

    @cached_property
    def atom_map(self) -> Mapping[str, Atom]:
        return {a.label: a for a in self.atoms}

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Atom labels in sorted order; the column order of all reports."""
        return tuple(sorted(a.label for a in self.atoms))

    def atom(self, label: str) -> Atom:
        try:
            return self.atom_map[label]
        except KeyError:
            raise LogicError(f"unknown atom {quote_token(label)}") from None

    def ray_of(self, label: str) -> Ray:
        ray = self.atom(label).ray
        if ray is None:
            raise AbstractLogicError(label)
        return ray

    @cached_property
    def contexts_of(self) -> Mapping[str, tuple[str, ...]]:
        """Atom label -> labels of the contexts containing it."""
        out: dict[str, list[str]] = {a.label: [] for a in self.atoms}
        for c in self.contexts:
            for m in c.members:
                if m in out:
                    out[m].append(c.label)
        return {k: tuple(v) for k, v in out.items()}

    @property
    def is_realized(self) -> bool:
        return all(a.ray is not None for a in self.atoms)

    def validate(self) -> None:
        """Raise the LogicError of ``first_fault``, the first structural violation
        with atoms read first."""
        fault = first_fault(self.dimension, self.atoms, self.contexts)
        if fault is not None:
            raise fault[1]


def orthogonality_edges(logic: Logic) -> set[frozenset[str]]:
    """The binary orthogonality relation induced by context membership."""
    return {
        frozenset((x, y)) for c in logic.contexts for x in c.members for y in c.members if x != y
    }


def make_logic(
    dimension: int,
    atoms: Iterable[Atom],
    contexts: Iterable[Sequence[str] | Context],
) -> Logic:
    """Convenience constructor that validates; contexts may be bare member lists,
    labeled a, b, c, ... by position."""
    ctxs = [
        c if isinstance(c, Context) else Context(_spreadsheet_label(i), c)
        for i, c in enumerate(contexts)
    ]
    logic = Logic(dimension, atoms, ctxs)
    logic.validate()
    return logic


def _spreadsheet_label(i: int) -> str:
    """0 -> 'a', 1 -> 'b', ..., 25 -> 'z', 26 -> 'aa', ..."""
    out = ""
    i += 1
    while i > 0:
        i, rem = divmod(i - 1, 26)
        out = chr(ord("a") + rem) + out
    return out
