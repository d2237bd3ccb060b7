"""Reference answers that the benchmark checks greechie's outputs against.

Nothing here imports greechie.  A ``.gls`` file is read with its own small
reader; ray components become integer pairs ``(a, b)`` meaning
``a + b*sqrt(2)`` (each ray is multiplied through by the common denominator
of its components, which keeps its projective class), so orthogonality and
collinearity are exact integer tests.  States come from an exact-cover search
that branches on the context with the fewest open members, a different order
from greechie's engine; rules, parity, dual links and cliques are recomputed
from their definitions, and quantum rows from the closed form
(a.b)^2 / (|a|^2 |b|^2 d).
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Pair = tuple[int, int]
Vector = tuple[Pair, ...]

SQRT2 = math.sqrt(2.0)

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(r2)?")


def parse_component(token: str) -> tuple[Fraction, Fraction]:
    """One ``.gls`` component token as (rational part, coefficient of sqrt 2)."""
    rat, coef, pos = Fraction(0), Fraction(0), 0
    while pos < len(token):
        m = _TERM.match(token, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad component token {token!r}")
        sign = -1 if m.group(1) == "-" else 1
        value = sign * Fraction(m.group(2) or 1)
        if m.group(3):
            coef += value
        else:
            rat += value
        pos = m.end()
    return rat, coef


def integer_vector(components: list[tuple[Fraction, Fraction]]) -> Vector:
    scale = math.lcm(*(q.denominator for c in components for q in c))
    return tuple((int(a * scale), int(b * scale)) for a, b in components)


def mul(x: Pair, y: Pair) -> Pair:
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def dot(u: Vector, v: Vector) -> Pair:
    total = (0, 0)
    for x, y in zip(u, v):
        p = mul(x, y)
        total = (total[0] + p[0], total[1] + p[1])
    return total


def orthogonal(u: Vector, v: Vector) -> bool:
    return dot(u, v) == (0, 0)


def collinear(u: Vector, v: Vector) -> bool:
    for i, j in itertools.combinations(range(len(u)), 2):
        a, b = mul(u[i], v[j]), mul(u[j], v[i])
        if a != b:
            return False
    return True


def to_float(x: Pair) -> float:
    return x[0] + x[1] * SQRT2


def format_pair(x: Pair) -> str:
    """A component token in the ``.gls`` grammar."""
    a, b = x
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}r2"
    return f"{a}{'+' if b > 0 else '-'}{abs(b)}r2"


def joint_probability(u: Vector, v: Vector, d: int) -> float:
    """Closed form prob(both) = (u.v)^2 / (|u|^2 |v|^2 d) for psi = sum |ii>/sqrt d."""
    uv = dot(u, v)
    return to_float(mul(uv, uv)) / (to_float(mul(dot(u, u), dot(v, v))) * d)


def maximal_cliques(vectors: dict[str, Vector]) -> set[tuple[str, ...]]:
    """All maximal mutually-orthogonal subsets of size >= 2 (Bron-Kerbosch, no pivot)."""
    labels = sorted(vectors)
    nbrs = {x: set() for x in labels}
    for x, y in itertools.combinations(labels, 2):
        if orthogonal(vectors[x], vectors[y]):
            nbrs[x].add(y)
            nbrs[y].add(x)
    found: set[tuple[str, ...]] = set()

    def grow(clique: list[str], cand: set[str], done: set[str]) -> None:
        if not cand and not done:
            if len(clique) >= 2:
                found.add(tuple(sorted(clique)))
            return
        for v in sorted(cand):
            grow(clique + [v], cand & nbrs[v], done & nbrs[v])
            cand = cand - {v}
            done = done | {v}

    grow([], set(labels), set())
    return found


@dataclass
class Rules:
    one_zero: set[tuple[str, str]]
    one_one: set[tuple[str, str]]  # x != y only
    equivalences: set[tuple[str, str]]  # x < y
    never_true: list[str]
    unital: bool
    separating: bool


@dataclass
class RefLogic:
    """A logic as declared in a ``.gls`` file, with answers derived on demand."""

    dim: int
    atoms: list[str]
    rays: dict[str, Vector] | None
    contexts: list[tuple[str, tuple[str, ...]]]

    @property
    def labels(self) -> list[str]:
        return sorted(self.atoms)

    @cached_property
    def states(self) -> list[str]:
        """Every two-valued state as a bit string over the sorted labels, sorted."""
        labels = self.labels
        index = {x: i for i, x in enumerate(labels)}
        ctx_masks = []
        ctx_of = [0] * len(labels)
        peers = [0] * len(labels)
        for k, (_, members) in enumerate(self.contexts):
            mask = 0
            for m in members:
                mask |= 1 << index[m]
                ctx_of[index[m]] |= 1 << k
            ctx_masks.append(mask)
            for m in members:
                peers[index[m]] |= mask & ~(1 << index[m])
        found: list[int] = []

        def search(covered: int, blocked: int, chosen: int) -> None:
            best = None
            for k, mask in enumerate(ctx_masks):
                if covered >> k & 1:
                    continue
                open_members = mask & ~blocked
                if not open_members:
                    return
                if best is None or open_members.bit_count() < best.bit_count():
                    best = open_members
            if best is None:
                found.append(chosen)
                return
            while best:
                low = best & -best
                i = low.bit_length() - 1
                search(covered | ctx_of[i], blocked | peers[i], chosen | low)
                best ^= low

        search(0, 0, 0)
        n = len(labels)
        return sorted(
            "".join("1" if s >> i & 1 else "0" for i in range(n)) for s in found
        )

    @cached_property
    def rules(self) -> Rules:
        labels, states = self.labels, self.states
        columns = [
            int("".join(s[i] for s in states), 2) if states else 0
            for i in range(len(labels))
        ]
        one_zero, one_one = set(), set()
        for (i, x), (j, y) in itertools.permutations(enumerate(labels), 2):
            if not columns[i]:
                continue
            if columns[i] & columns[j] == 0:
                one_zero.add((x, y))
            if columns[i] & ~columns[j] == 0:
                one_one.add((x, y))
        return Rules(
            one_zero=one_zero,
            one_one=one_one,
            equivalences={(x, y) for x, y in one_one if x < y and (y, x) in one_one},
            never_true=[x for i, x in enumerate(labels) if not columns[i]],
            unital=bool(states) and all(columns),
            separating=bool(states) and len(set(columns)) == len(columns),
        )

    def multiplicities(self) -> dict[str, int]:
        counts = {x: 0 for x in self.atoms}
        for _, members in self.contexts:
            for m in members:
                counts[m] += 1
        return counts

    def parity_certificate(self) -> bool:
        return len(self.contexts) % 2 == 1 and all(
            c % 2 == 0 for c in self.multiplicities().values()
        )

    def dual_links(self) -> list[tuple[str, str, tuple[str, ...]]]:
        """Context pairs sharing atoms, in declaration order, shared atoms sorted."""
        links = []
        for (a, ma), (b, mb) in itertools.combinations(self.contexts, 2):
            shared = tuple(sorted(set(ma) & set(mb)))
            if shared:
                links.append((a, b, shared))
        return links

    def forces_identification(self) -> bool:
        """Whether some (d-1)-clique of the context graph has two common neighbours.

        If none has, dimension-forced collapse inference merges nothing.
        """
        nbrs: dict[str, set[str]] = {x: set() for x in self.atoms}
        for _, members in self.contexts:
            for x, y in itertools.combinations(members, 2):
                nbrs[x].add(y)
                nbrs[y].add(x)
        order = {x: i for i, x in enumerate(sorted(self.atoms))}

        def cliques(size: int, base: list[str], cand: set[str]):
            if len(base) == size:
                yield base
                return
            for v in sorted(cand, key=order.get):
                later = {w for w in cand & nbrs[v] if order[w] > order[v]}
                yield from cliques(size, base + [v], later)

        for clique in cliques(self.dim - 1, [], set(self.atoms)):
            common = set.intersection(*(nbrs[w] for w in clique)) - set(clique)
            if len(common) >= 2:
                return True
        return False

    def contexts_orthogonal(self) -> bool:
        assert self.rays is not None
        return all(
            orthogonal(self.rays[x], self.rays[y])
            for _, members in self.contexts
            for x, y in itertools.combinations(members, 2)
        )

    def rays_distinct(self) -> bool:
        assert self.rays is not None
        return not any(
            collinear(self.rays[x], self.rays[y])
            for x, y in itertools.combinations(self.atoms, 2)
        )

    def quantum_rows(self) -> list[tuple[str, tuple[str, str], float]]:
        """(kind, pair, quantum value) for every derived rule, in report order."""
        assert self.rays is not None
        rules, rays, d = self.rules, self.rays, self.dim
        rows = [
            ("one-zero", p, joint_probability(rays[p[0]], rays[p[1]], d))
            for p in sorted(rules.one_zero)
        ]
        rows += [
            ("equivalence", p, 1.0 / d - joint_probability(rays[p[0]], rays[p[1]], d))
            for p in sorted(rules.equivalences)
        ]
        return rows


def read_gls(text: str) -> RefLogic:
    dim = 0
    atoms: list[str] = []
    rays: dict[str, Vector] = {}
    contexts: list[tuple[str, tuple[str, ...]]] = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "dim":
            dim = int(tokens[1])
        elif tokens[0] == "atom":
            atoms.append(tokens[1])
            if len(tokens) > 2:
                rays[tokens[1]] = integer_vector([parse_component(t) for t in tokens[2:]])
        elif tokens[0] == "context":
            contexts.append((tokens[1], tuple(tokens[2:])))
        else:
            raise ValueError(f"unexpected line {line!r}")
    if rays and len(rays) != len(atoms):
        raise ValueError("mixed realized and abstract atoms")
    return RefLogic(dim, atoms, rays or None, contexts)
