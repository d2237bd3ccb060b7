"""Shared fixtures, independent oracles, random logic generators, and a
per-test timeout.

The oracle enumerators here deliberately share no code or strategy with the
package: one scans all 2^n assignments, the other recurses over per-context
choices without any propagation.  Counts, rules and per-atom summaries are
read straight from the state lists they return, or folded code by code from
a listing.  The collapse, clique and dual oracles keep the direct definitions
the package replaced with faster searches: every (d-1)-subset of atoms that
is a clique, in lexicographic order, every node subset, and every pair of
contexts.  The quantum oracle keeps the one-pair Kronecker-product
contraction the batched einsum replaced, and the ray-key oracle keeps the
Quad-division key that the integer key replaced.  Tests compare the package
against them.
"""

from __future__ import annotations

import faulthandler
import functools
import itertools
import operator
import os
import random
import sys
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
import pytest

from greechie.analysis import CollapseReport, Identification
from greechie.diagrams import DualEdge, DualGraph
from greechie.gls import CORPUS_FILES, load_corpus
from greechie.model import Atom, Context, Logic, Quad, Ray
from greechie.quantum import EntangledPair, JointPrediction, unit_vector


# --------------------------------------------------------------------------
# per-test timeout
# --------------------------------------------------------------------------

# A test still running after this many seconds ends the run with every
# thread's traceback, the stuck test's among them.  The slowest test takes
# about 5 s.
TEST_TIMEOUT_S = 120

_STDERR_COPY = pytest.StashKey[int]()


def pytest_configure(config):
    # The traceback goes to stderr as it was when the run began: the run
    # ends at once, so what a test's captured stderr holds is never shown.
    config.stash[_STDERR_COPY] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_COPY])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    """Setup, call and teardown of each test run under the timeout."""
    faulthandler.dump_traceback_later(
        TEST_TIMEOUT_S, exit=True, file=item.config.stash[_STDERR_COPY]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


# --------------------------------------------------------------------------
# corpus fixtures
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def corpus() -> dict[str, Logic]:
    return {name: load_corpus(name) for name in CORPUS_FILES}


@pytest.fixture(scope="session")
def gamma1(corpus) -> Logic:
    return corpus["gamma1.gls"]


@pytest.fixture(scope="session")
def gamma3pair(corpus) -> Logic:
    return corpus["gamma3pair.gls"]


@pytest.fixture(scope="session")
def cabello18(corpus) -> Logic:
    return corpus["cabello18.gls"]


# --------------------------------------------------------------------------
# independent state oracles
# --------------------------------------------------------------------------

def bitmask_scan(logic: Logic) -> list[tuple[int, ...]]:
    """Brute force over all 2^n assignments; n must stay small."""
    labels = sorted(a.label for a in logic.atoms)
    index = {lbl: i for i, lbl in enumerate(labels)}
    masks = []
    for c in logic.contexts:
        mask = 0
        for m in c.members:
            mask |= 1 << index[m]  # a repeated member sets its bit once
        masks.append(mask)
    found = []
    for bits in range(1 << len(labels)):
        if all((bits & mask).bit_count() == 1 for mask in masks):
            found.append(tuple((bits >> i) & 1 for i in range(len(labels))))
    found.sort()
    return found


def choice_recursion(logic: Logic) -> list[tuple[int, ...]]:
    """Recurse over contexts picking the true member; no propagation."""
    labels = sorted(a.label for a in logic.atoms)
    contexts = [list(c.members) for c in logic.contexts]
    states: list[tuple[int, ...]] = []
    assignment: dict[str, int] = {}

    def walk(k: int) -> None:
        if k == len(contexts):
            if len(assignment) == len(labels):
                states.append(tuple(assignment[lbl] for lbl in labels))
            return
        members = contexts[k]
        for choice in members:
            if assignment.get(choice) == 0:
                continue
            if any(assignment.get(m) == 1 for m in members if m != choice):
                continue
            touched = []
            for m in members:
                want = 1 if m == choice else 0
                if m not in assignment:
                    assignment[m] = want
                    touched.append(m)
            walk(k + 1)
            for m in touched:
                del assignment[m]

    walk(0)
    return sorted(states)


def rules_from_states(labels: list[str], states: list[tuple[int, ...]]):
    """Rule extraction straight from a state list (no bitset tricks)."""
    idx = {lbl: i for i, lbl in enumerate(labels)}
    never_true = [lbl for lbl in labels if all(s[idx[lbl]] == 0 for s in states)]
    one_zero = set()
    one_one = set()
    for x in labels:
        x_states = [s for s in states if s[idx[x]] == 1]
        if not x_states:
            continue
        for y in labels:
            if x != y and all(s[idx[y]] == 0 for s in x_states):
                one_zero.add((x, y))
            if all(s[idx[y]] == 1 for s in x_states):
                one_one.add((x, y))
    equivalences = {
        frozenset((x, y)) for x, y in one_one if x != y and (y, x) in one_one
    }
    return one_zero, one_one, equivalences, never_true


def summary_from_states(labels: list[str], states: list[tuple[int, ...]]):
    """The count, and per label the OR and the AND of the codes of the
    states where it is true (0 when it never is), straight from a state
    list; a state's code has bit n-1-i set when labels[i] is true."""
    n = len(labels)
    codes = [sum(bit << n - 1 - i for i, bit in enumerate(state)) for state in states]
    union, inter = [], []
    for i in range(n):
        codes_true = [code for code, state in zip(codes, states) if state[i]]
        union.append(functools.reduce(operator.or_, codes_true, 0))
        inter.append(functools.reduce(operator.and_, codes_true) if codes_true else 0)
    return len(states), tuple(union), tuple(inter)


def summary_from_codes(labels: Sequence[str], codes: Sequence[int]):
    """What ``summary_from_states`` gives, folded code by code from listed
    state codes, for state spaces too large for per-label passes."""
    n = len(labels)
    union, inter = [0] * n, [-1] * n  # per bit, not per label
    for code in codes:
        rest = code
        while rest:
            atom = rest & -rest
            bit = atom.bit_length() - 1
            union[bit] |= code
            inter[bit] &= code
            rest ^= atom
    union.reverse()
    inter.reverse()
    return len(codes), tuple(union), tuple(u & i for u, i in zip(union, inter))


def cliques_in_order(nodes: list[str], adjacency: Mapping[str, set[str]], k: int):
    """The k-subsets of the sorted ``nodes`` that are cliques, in the order
    ``itertools.combinations`` gives all k-subsets: a prefix is extended
    only while it is still a clique, since no extension of a non-clique is
    one."""
    def extend(prefix: tuple[str, ...], start: int):
        if len(prefix) == k:
            yield prefix
            return
        for i in range(start, len(nodes) - (k - len(prefix)) + 1):
            z = nodes[i]
            if all(z in adjacency[w] for w in prefix):
                yield from extend(prefix + (z,), i + 1)

    return extend((), 0)


def collapse_scan(logic: Logic) -> CollapseReport:
    """Collapse inference over every (d-1)-subset of atoms in each round
    that is a clique."""
    d = logic.dimension
    parent: dict[str, str] = {a.label: a.label for a in logic.atoms}

    def find(x: str) -> str:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    found: list[Identification] = []
    merged = True
    while merged:
        merged = False
        adjacency: dict[str, set[str]] = {}
        for ctx in logic.contexts:
            reps = sorted({find(m) for m in ctx.members})
            for x, y in itertools.combinations(reps, 2):
                adjacency.setdefault(x, set()).add(y)
                adjacency.setdefault(y, set()).add(x)
        nodes = sorted(adjacency)
        for witness in cliques_in_order(nodes, adjacency, d - 1):
            commons = sorted(
                z for z in nodes
                if z not in witness and all(z in adjacency[w] for w in witness)
            )
            for x, y in itertools.combinations(commons, 2):
                rx, ry = find(x), find(y)
                if rx == ry:
                    continue
                found.append(Identification(pair=tuple(sorted((x, y))), witness=witness))
                if ry < rx:
                    rx, ry = ry, rx
                parent[ry] = rx
                merged = True

    found.sort(key=lambda ident: ident.pair)
    return CollapseReport(dimension=d, forced_identifications=tuple(found))


def maximal_cliques_scan(adjacency: Mapping[str, set[str]]) -> list[tuple[str, ...]]:
    """Every node subset that is a clique and that no other node extends,
    found by trying all 2^n subsets; at most 9 nodes."""
    nodes = sorted(adjacency)
    if len(nodes) > 9:
        raise ValueError("the subset scan takes at most 9 nodes")

    def joined(group: tuple[str, ...]) -> bool:
        return all(y in adjacency[x] for x, y in itertools.combinations(group, 2))

    cliques = [
        group
        for k in range(len(nodes) + 1)
        for group in itertools.combinations(nodes, k)
        if joined(group)
    ]
    return sorted(c for c in cliques if not any(joined(c + (z,)) for z in nodes if z not in c))


def pairwise_dual(logic: Logic) -> DualGraph:
    """The context dual by intersecting every pair of contexts."""
    edges = []
    for c1, c2 in itertools.combinations(logic.contexts, 2):
        shared = sorted(set(c1.members) & set(c2.members))
        if shared:
            edges.append(DualEdge(c1.label, c2.label, tuple(shared)))
    return DualGraph(
        nodes=tuple(c.label for c in logic.contexts),
        edges=tuple(edges),
    )


def kron_joint_probability(
    pair: EntangledPair,
    a: Ray | Sequence[float],
    b: Ray | Sequence[float],
) -> JointPrediction:
    """One ray pair, contracted through three d^2 x d^2 Kronecker products."""
    d = pair.dimension
    ua = unit_vector(a, d)
    ub = unit_vector(b, d)
    proj_a = np.outer(ua, ua)
    proj_b = np.outer(ub, ub)
    identity = np.eye(d)
    vec = pair.amplitudes.reshape(d * d)

    def expectation(left: np.ndarray, right: np.ndarray) -> float:
        return float(vec @ np.kron(left, right) @ vec)

    return JointPrediction(
        prob_both=expectation(proj_a, proj_b),
        marginal_left=expectation(proj_a, identity),
        marginal_right=expectation(identity, proj_b),
    )


# --------------------------------------------------------------------------
# random logic generators
# --------------------------------------------------------------------------

def build_random_logic(rng: random.Random, max_atoms: int = 16) -> Logic:
    """A small random abstract logic that passes validation."""
    while True:
        n = rng.randint(4, max_atoms)
        labels = [f"x{i}" for i in range(n)]
        dim = rng.choice([3, 3, 4])
        context_count = rng.randint(2, max(2, n // 2))
        members_sets: set[frozenset[str]] = set()
        contexts = []
        for _ in range(context_count):
            size = rng.randint(2, min(dim, n))
            members = tuple(rng.sample(labels, size))
            key = frozenset(members)
            if key in members_sets or any(key <= s or s <= key for s in members_sets):
                continue
            members_sets.add(key)
            contexts.append(members)
        covered = {m for ms in contexts for m in ms}
        leftover = [lbl for lbl in labels if lbl not in covered]
        rng.shuffle(leftover)
        while leftover:
            chunk = leftover[:dim]
            leftover = leftover[dim:]
            if len(chunk) == 1:
                partner = rng.choice(sorted(covered)) if covered else None
                if partner is None:
                    break
                chunk.append(partner)
            key = frozenset(chunk)
            if key in members_sets:
                continue
            members_sets.add(key)
            contexts.append(tuple(chunk))
            covered.update(chunk)
        logic = Logic(
            dim,
            tuple(Atom(lbl) for lbl in labels),
            tuple(Context(f"c{i}", ms) for i, ms in enumerate(contexts)),
        )
        try:
            logic.validate()
        except ValueError:
            continue
        return logic


def build_random_parity_logic(rng: random.Random) -> Logic:
    """Random logic with an odd context count and every atom in exactly two
    contexts: guaranteed parity obstruction, hence no states."""
    while True:
        context_count = rng.choice([3, 5, 7])
        size = 4
        slots = [(k, i) for k in range(context_count) for i in range(size)]
        atom_count = context_count * size // 2
        rng.shuffle(slots)
        assignment: dict[tuple[int, int], int] = {}
        ok = True
        for atom_index in range(atom_count):
            first = slots.pop()
            partner_index = next(
                (
                    j
                    for j in range(len(slots) - 1, -1, -1)
                    if slots[j][0] != first[0]
                ),
                None,
            )
            if partner_index is None:
                ok = False
                break
            second = slots.pop(partner_index)
            assignment[first] = atom_index
            assignment[second] = atom_index
        if not ok:
            continue
        contexts = []
        member_sets: set[frozenset[int]] = set()
        for k in range(context_count):
            members = tuple(
                f"x{assignment[(k, i)]}" for i in range(size)
            )
            key = frozenset(members)
            if len(key) != size or key in member_sets:
                ok = False
                break
            member_sets.add(key)
            contexts.append(Context(f"c{k}", members))
        if not ok:
            continue
        logic = Logic(
            4,
            tuple(Atom(f"x{i}") for i in range(atom_count)),
            tuple(contexts),
        )
        try:
            logic.validate()
        except ValueError:
            continue
        return logic


def build_random_collapse_logic(rng: random.Random, dim: int) -> Logic:
    """A random validated abstract logic in ``dim`` whose contexts mostly have
    d-1 or d members, so (d-1)-cliques with several common neighbours, and
    with them merges over several rounds, are frequent."""
    while True:
        n = rng.randint(dim + 1, 3 * dim)
        labels = [f"x{i:02d}" for i in range(n)]
        member_sets: dict[frozenset[str], None] = {}
        for _ in range(rng.randint(2, 2 * dim)):
            size = rng.choice([2, dim - 1, dim, dim])
            member_sets.setdefault(frozenset(rng.sample(labels, size)))
        used = sorted(set().union(*member_sets))
        logic = Logic(
            dim,
            tuple(Atom(lbl) for lbl in used),
            tuple(
                Context(f"c{i}", tuple(sorted(ms)))
                for i, ms in enumerate(member_sets)
            ),
        )
        try:
            logic.validate()
        except ValueError:
            continue
        return logic


def build_random_overlapping_contexts(rng: random.Random) -> Logic:
    """An unvalidated abstract logic whose contexts are drawn with replacement
    from a small pool: pairs of contexts often share several atoms, and a
    context may repeat a member."""
    labels = [f"x{i}" for i in range(rng.randint(3, 9))]
    contexts = tuple(
        Context(f"c{i}", tuple(rng.choices(labels, k=rng.randint(2, 5))))
        for i in range(rng.randint(1, 12))
    )
    return Logic(5, tuple(Atom(lbl) for lbl in labels), contexts)


def build_random_graph(rng: random.Random) -> dict[str, set[str]]:
    """A symmetric adjacency on 0..9 nodes with a drawn edge density: at
    density 0 it is edgeless, at 1 complete, and in between nodes are often
    isolated."""
    nodes = [f"v{i}" for i in range(rng.randint(0, 9))]
    density = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
    adjacency: dict[str, set[str]] = {v: set() for v in nodes}
    for x, y in itertools.combinations(nodes, 2):
        if rng.random() < density:
            adjacency[x].add(y)
            adjacency[y].add(x)
    return adjacency


# --------------------------------------------------------------------------
# independent ray-key oracle
# --------------------------------------------------------------------------

def quad_key(ray: Ray) -> tuple[Quad, ...]:
    """The former canonical key over Quads: the components divided by the
    first nonzero one.  Two rays are collinear exactly when these are equal."""
    lead = next(c for c in ray.components if not c.is_zero)
    return tuple(c / lead for c in ray.components)


def build_random_fractional_ray(rng: random.Random, d: int) -> Ray:
    """A nonzero ray with leading zeros, fractional components and, now and
    then, denominators with dozens of digits."""
    def part() -> Fraction:
        if rng.random() < 0.4:
            return Fraction(0)
        den = rng.choice([1, 2, 3, 6, 7, 10**rng.randint(12, 40) + rng.randint(1, 99)])
        return Fraction(rng.randint(-9, 9), den)

    lead = rng.randrange(d)
    while True:
        components = tuple(
            Quad() if i < lead else Quad(part(), part()) for i in range(d)
        )
        if any(not c.is_zero for c in components):
            return Ray(components)


def build_random_quad_ray(rng: random.Random, d: int) -> Ray:
    """A nonzero ray whose components a + b*sqrt(2) have small integer or
    half-integer a and b."""
    while True:
        components = tuple(
            Quad(Fraction(rng.randint(-4, 4), rng.choice([1, 2])), Fraction(rng.randint(-2, 2)))
            for _ in range(d)
        )
        if any(not c.is_zero for c in components):
            return Ray(components)


def with_random_rays(logic: Logic, rng: random.Random) -> Logic:
    """The same atoms and contexts, each atom given a random Q(sqrt 2) ray.

    Contexts are not orthogonal under these rays; the quantum module does
    not need them to be."""
    return Logic(
        logic.dimension,
        tuple(Atom(a.label, build_random_quad_ray(rng, logic.dimension)) for a in logic.atoms),
        logic.contexts,
    )


def with_distinct_rays(logic: Logic, rng: random.Random, share: float = 1.0) -> Logic:
    """The same atoms and contexts, each atom given, with probability ``share``,
    a random Q(sqrt 2) ray collinear with no other atom's ray."""
    keys: set[tuple[int, ...]] = set()
    atoms = []
    for a in logic.atoms:
        ray = None
        if rng.random() < share:
            while ray is None or ray.key in keys:
                ray = build_random_quad_ray(rng, logic.dimension)
            keys.add(ray.key)
        atoms.append(Atom(a.label, ray))
    return Logic(logic.dimension, tuple(atoms), logic.contexts)


# --------------------------------------------------------------------------
# fixture wrappers handing the helpers to tests
# --------------------------------------------------------------------------

@pytest.fixture(scope="session")
def oracle_bitmask():
    return bitmask_scan


@pytest.fixture(scope="session")
def oracle_choices():
    return choice_recursion


@pytest.fixture(scope="session")
def oracle_rules():
    return rules_from_states


@pytest.fixture(scope="session")
def oracle_summary():
    return summary_from_states


@pytest.fixture(scope="session")
def oracle_fold():
    return summary_from_codes


@pytest.fixture(scope="session")
def oracle_kron():
    return kron_joint_probability


@pytest.fixture(scope="session")
def oracle_collapse():
    return collapse_scan


@pytest.fixture(scope="session")
def oracle_dual():
    return pairwise_dual


@pytest.fixture(scope="session")
def oracle_maximal_cliques():
    return maximal_cliques_scan


@pytest.fixture(scope="session")
def oracle_quad_key():
    return quad_key


@pytest.fixture(scope="session")
def random_fractional_ray():
    return build_random_fractional_ray


@pytest.fixture(scope="session")
def random_logic():
    return build_random_logic


@pytest.fixture(scope="session")
def random_collapse_logic():
    return build_random_collapse_logic


@pytest.fixture(scope="session")
def random_overlapping_contexts():
    return build_random_overlapping_contexts


@pytest.fixture(scope="session")
def random_graph():
    return build_random_graph


@pytest.fixture(scope="session")
def random_quad_ray():
    return build_random_quad_ray


@pytest.fixture(scope="session")
def random_rays():
    return with_random_rays


@pytest.fixture(scope="session")
def random_parity_logic():
    return build_random_parity_logic


# --------------------------------------------------------------------------
# acceptance criterion registry (printed in the terminal summary)
# --------------------------------------------------------------------------

ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


def record_criterion(number: int, description: str, passed: bool) -> None:
    ACCEPTANCE_RESULTS[number] = (description, passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        description, passed = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {description}")
