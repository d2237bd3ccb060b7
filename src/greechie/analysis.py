"""Structural analysis of finite context logics.

The operations here answer the questions the data model poses: does a logic's
ray assignment actually realize it (exact orthogonality), which two-valued
states does it admit, which implication rules do those states enforce, and
when does the structure obstruct states (parity counting) or rays (forced
collapses in a too-small dimension).

Everything is exact and deterministic: enumeration output is sorted, rule
sets are set-valued, and no floating point is involved anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .model import (
    AbstractLogicError,
    Atom,
    Context,
    Logic,
    LogicError,
    Ray,
    _spreadsheet_label,
    collinear_classes,
    orthogonal,
)
from .model import inner_product, rays_collinear  # noqa: F401  (bench/spans.py traces them by name)


# --------------------------------------------------------------------------
# realization checking
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContextCheck:
    """Orthogonality verdict for one context.

    ``failing_pair`` names the first member pair with a nonzero inner
    product, in member order.  ``non_maximal`` flags contexts with fewer
    members than the ambient dimension; those are legal but cannot span.
    """

    label: str
    ok: bool
    failing_pair: tuple[str, str] | None
    non_maximal: bool


@dataclass(frozen=True)
class RealizationReport:
    dimension: int
    checks: tuple[ContextCheck, ...]
    collinear_pairs: tuple[tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks) and not self.collinear_pairs

    @property
    def failures(self) -> tuple[ContextCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def verify_realization(logic: Logic) -> RealizationReport:
    """Check that the rays realize the logic: pairwise orthogonality inside
    every context, and no two distinct atoms on the same projective ray.

    Raises AbstractLogicError if any atom lacks a ray.
    """
    for atom in logic.atoms:
        if atom.ray is None:
            raise AbstractLogicError(atom.label)

    checks = []
    for ctx in logic.contexts:
        failing: tuple[str, str] | None = None
        for x, y in itertools.combinations(ctx.members, 2):
            if not orthogonal(logic.ray_of(x), logic.ray_of(y)):
                failing = (x, y)
                break
        checks.append(
            ContextCheck(
                label=ctx.label,
                ok=failing is None,
                failing_pair=failing,
                non_maximal=len(ctx.members) < logic.dimension,
            )
        )

    groups = collinear_classes((a.label, a.ray) for a in sorted(logic.atoms, key=lambda a: a.label))
    collinear = sorted(pair for group in groups for pair in itertools.combinations(group, 2))
    return RealizationReport(logic.dimension, tuple(checks), tuple(collinear))


def complete_contexts(vectors: Iterable[tuple[str, Ray]], dimension: int) -> Logic:
    """Build the logic whose contexts are all maximal mutually-orthogonal
    subsets (size >= 2) of the given labeled rays.

    Context labels are assigned a, b, c, ... in lexicographic order of the
    sorted member tuples.  Inputs must be pairwise non-collinear, and every
    ray must be orthogonal to at least one other (an isolated ray cannot sit
    in any context).
    """
    pairs = list(vectors)
    if not pairs:
        raise LogicError("no vectors given")
    rays = dict(pairs)
    if len(rays) != len(pairs):
        raise LogicError("vector labels must be distinct")
    for lbl, r in pairs:
        if len(r) != dimension:
            raise LogicError(
                f"ray {lbl!r} has {len(r)} components, expected {dimension}"
            )
    collinear = collinear_classes(pairs)
    if collinear:
        x, y = collinear[0][:2]
        raise LogicError(f"rays {x!r} and {y!r} are collinear")

    labels = sorted(rays)
    edges = ((x, y) for x, y in itertools.combinations(labels, 2) if orthogonal(rays[x], rays[y]))
    _, closed = _orthogonality_graph(labels, edges)
    isolated = [lbl for lbl, mask in zip(labels, reversed(closed)) if not mask]
    if isolated:
        raise LogicError(
            f"ray {isolated[0]!r} is orthogonal to no other ray and can join no context"
        )

    atoms = tuple(Atom(lbl, rays[lbl]) for lbl in labels)
    cliques = _maximal_cliques(labels, closed)
    contexts = tuple(Context(_spreadsheet_label(i), c) for i, c in enumerate(cliques))
    logic = Logic(dimension, atoms, contexts)
    logic.validate()
    return logic


# --------------------------------------------------------------------------
# two-valued states
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoValuedState:
    """A total noncontextual {0,1} assignment with one true atom per context.

    ``labels`` is the sorted atom label tuple of the source logic and ``bits``
    the aligned values, so states from one logic compare and sort by their
    bit strings.
    """

    labels: tuple[str, ...]
    bits: tuple[int, ...]

    def value(self, label: str) -> int:
        return self.assignment[label]

    @cached_property
    def assignment(self) -> Mapping[str, int]:
        return dict(zip(self.labels, self.bits))

    @property
    def true_atoms(self) -> tuple[str, ...]:
        return tuple(l for l, b in zip(self.labels, self.bits) if b == 1)

    def bit_string(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class StateSpaceReport:
    """Every two-valued state of a logic, stored once.

    ``labels`` is the sorted atom label tuple of the source logic.  Each state
    is an int code with bit ``n-1-i`` set when ``labels[i]`` is true, so int
    order is bit-string order; ``codes`` holds them in ascending order.
    Everything else is derived from these two fields.
    """

    labels: tuple[str, ...]
    codes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.codes)

    @property
    def empty(self) -> bool:
        return not self.codes

    @property
    def unital(self) -> bool:
        """Every atom is true in some state."""
        return not self.empty and all(self.masks)

    @property
    def separating(self) -> bool:
        """Every two atoms differ in some state."""
        return not self.empty and len(set(self.masks)) == len(self.masks)

    @cached_property
    def bit_strings(self) -> tuple[str, ...]:
        """Each state as its bit string in ``labels`` order, as ``--list`` prints it."""
        return tuple(format(code, f"0{len(self.labels)}b") for code in self.codes)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Per atom, in label order, the states where it is true: the atom's
        column of the state bit matrix read as a number, first state most
        significant."""
        if self.empty:
            return (0,) * len(self.labels)
        return tuple(int("".join(column), 2) for column in zip(*self.bit_strings))

    @cached_property
    def states(self) -> tuple[TwoValuedState, ...]:
        """The states as objects, built only when asked for."""
        return tuple(TwoValuedState(self.labels, tuple(map(int, s))) for s in self.bit_strings)


def enumerate_states(logic: Logic) -> StateSpaceReport:
    """Enumerate every two-valued state as an exact cover of the contexts by atoms.

    Atoms and contexts are int masks (``labels[0]`` the most significant
    bit), and an atom's ``blocks`` mask is the union of its contexts.  An
    explicit stack of ``(chosen, blocked, uncovered)`` nodes branches, as
    Knuth's Algorithm X does, on the uncovered context with the fewest open
    members: one open member forces it, none ends the branch.  Choosing an
    atom blocks every atom it shares a context with, so no context gets a
    second true atom and nothing is ever undone.  An atom in no context
    (only in an unvalidated logic) doubles the states: it is free in each.
    """
    labels = logic.labels
    contexts, blocks = _orthogonality_graph(labels, (ctx.members for ctx in logic.contexts))
    codes: list[int] = []
    stack = [(0, 0, contexts)]
    while stack:
        chosen, blocked, uncovered = stack.pop()
        rest: list[int] = []
        branch, fewest = None, 0
        for ctx in uncovered:
            if ctx & chosen:
                continue
            open_members = ctx & ~blocked
            size = open_members.bit_count()
            if branch is None or size < fewest:
                branch, fewest = open_members, size
                if not size:
                    break
            rest.append(ctx)
        if branch is None:
            codes.append(chosen)
            continue
        while branch:
            atom = branch & -branch
            stack.append((chosen | atom, blocked | blocks[atom.bit_length() - 1], rest))
            branch ^= atom
    for bit, mask in enumerate(blocks):
        if not mask:
            codes += [code | 1 << bit for code in codes]
    codes.sort()
    return StateSpaceReport(labels, tuple(codes))


# --------------------------------------------------------------------------
# implication rules
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleSet:
    """Implications holding across every enumerated state.

    one_zero holds the ordered pairs (x, y) with x true forcing y false;
    one_one the ordered pairs with x true forcing y true (reflexive pairs
    included); equivalences the unordered pairs asserted in both one_one
    directions.  Implications whose antecedent never occurs are excluded
    and the atoms listed in never_true instead.  An empty state space sets
    ``explosion``: every implication would hold vacuously, so none are
    listed.
    """

    one_zero: frozenset[tuple[str, str]]
    one_one: frozenset[tuple[str, str]]
    equivalences: frozenset[frozenset[str]]
    never_true: tuple[str, ...]
    explosion: bool


def derive_rules(report: StateSpaceReport, logic: Logic) -> RuleSet:
    """Extract the one-zero and one-one/zero-zero rules from a state set."""
    labels = logic.labels
    if report.labels != labels:
        raise LogicError("state report does not belong to this logic")
    if report.empty:
        return RuleSet(
            one_zero=frozenset(),
            one_one=frozenset(),
            equivalences=frozenset(),
            never_true=tuple(labels),
            explosion=True,
        )

    masks = dict(zip(labels, report.masks))
    possible = [(x, mx) for x, mx in masks.items() if mx]
    one_zero = frozenset(
        (x, y) for x, mx in possible for y, my in masks.items() if x != y and not mx & my
    )
    one_one = frozenset((x, y) for x, mx in possible for y, my in masks.items() if not mx & ~my)
    return RuleSet(
        one_zero=one_zero,
        one_one=one_one,
        equivalences=frozenset(
            frozenset((x, y)) for x, y in one_one if x < y and (y, x) in one_one
        ),
        never_true=tuple(x for x, mx in masks.items() if not mx),
        explosion=False,
    )


# --------------------------------------------------------------------------
# obstructions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityCertificate:
    """Counting proof of state-space emptiness.

    With every atom in an even number of contexts, summing the one-true-per
    context condition over all contexts counts every true atom an even
    number of times, so the context count must be even; an odd context
    count is therefore contradictory.
    """

    context_count: int
    atom_multiplicities: tuple[tuple[str, int], ...]


def parity_obstruction(logic: Logic) -> ParityCertificate | None:
    """Return a parity certificate if one exists, else None."""
    counts = sorted((x, len(owners)) for x, owners in logic.contexts_of.items())
    if len(logic.contexts) % 2 == 1 and all(k % 2 == 0 for _, k in counts):
        return ParityCertificate(len(logic.contexts), tuple(counts))
    return None


@dataclass(frozen=True)
class Identification:
    """Two atoms forced onto one ray, with the clique that forces them.

    In dimension d, the witness is a set of d-1 mutually orthogonal atoms;
    the orthocomplement of their span is a single ray, so two atoms each
    orthogonal to the whole witness must share it.
    """

    pair: tuple[str, str]
    witness: tuple[str, ...]


@dataclass(frozen=True)
class CollapseReport:
    dimension: int
    forced_identifications: tuple[Identification, ...]

    @property
    def pairs(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(i.pair) for i in self.forced_identifications)


def infer_collapses(logic: Logic) -> CollapseReport:
    """Find atom pairs every realization in this dimension must identify.

    Orthogonality is taken combinatorially: x is orthogonal to y when they
    share a context.  Whenever two distinct atoms are both orthogonal to a
    common set of d-1 mutually orthogonal atoms they are forced onto the
    same ray and merged; merging can create new forced pairs, so the scan
    repeats until nothing merges.  The witnesses are the (d-1)-subsets of
    the maximal cliques, in lexicographic order, and the atoms orthogonal to
    all of a witness are the rest of the maximal cliques containing it.
    Sound but deliberately incomplete: a logic may be unrealizable in
    dimension d without triggering any merge.
    """
    d, labels = logic.dimension, logic.labels
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
        extensions: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        groups = ({find(m) for m in c.members} for c in logic.contexts)
        _, closed = _orthogonality_graph(labels, groups)
        for clique in _maximal_cliques(labels, closed):
            for witness in itertools.combinations(clique, d - 1):
                extensions.setdefault(witness, []).append(clique)
        for witness in sorted(extensions):
            commons = sorted(set().union(*extensions[witness]).difference(witness))
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


def _orthogonality_graph(
    labels: Sequence[str], groups: Iterable[Iterable[str]]
) -> tuple[list[int], list[int]]:
    """The orthogonality graph whose cliques include the given label groups,
    as int masks over ``labels`` (bit ``n-1-i`` is ``labels[i]``): each
    group's mask, and per bit the closed neighbourhood, the union of the
    groups containing it (0 for a label in none)."""
    position = {lbl: len(labels) - 1 - i for i, lbl in enumerate(labels)}
    masks: list[int] = []
    closed = [0] * len(labels)
    for group in groups:
        mask = sum(1 << position[m] for m in set(group))
        for m in group:
            closed[position[m]] |= mask
        masks.append(mask)
    return masks, closed


def _maximal_cliques(labels: Sequence[str], closed: Sequence[int]) -> list[tuple[str, ...]]:
    """Every maximal clique of a graph from ``_orthogonality_graph`` as a
    sorted label tuple, in sorted order; its vertices are the bits with a
    nonzero closed neighbourhood.

    Bron and Kerbosch's search (CACM Algorithm 457) on an explicit stack, so
    large cliques meet no recursion limit; candidates and excluded vertices
    are masks.  A node branches on its candidates outside the neighbourhood
    of its pivot, the lowest bit of candidates | excluded.
    """
    cliques: list[tuple[str, ...]] = []
    stack = [((), sum(1 << bit for bit, mask in enumerate(closed) if mask), 0)]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates:
            if not excluded:
                cliques.append(tuple(sorted(clique)))
            continue
        pivot = (candidates | excluded) & -(candidates | excluded)
        branch = candidates & ~(closed[pivot.bit_length() - 1] ^ pivot)
        while branch:
            v = branch & -branch
            branch ^= v
            candidates ^= v
            neighbours = closed[v.bit_length() - 1]
            # bit b is labels[n-1-b], and v.bit_length() is b+1
            stack.append((clique + (labels[-v.bit_length()],), candidates & neighbours,
                          excluded & neighbours))
            excluded |= v
    return sorted(cliques)


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def make_star(d: int) -> Logic:
    """The d-star: one center context of d link atoms, each link extended by
    its own context of d-1 fresh atoms.  Abstract (no rays), d**2 atoms,
    d+1 contexts.
    """
    if d < 3:
        raise LogicError(f"a star needs dimension >= 3, got {d}")
    if d > 26:
        raise LogicError("the letter-based label scheme supports dimensions up to 26")
    legs = [_spreadsheet_label(i + 1) for i in range(d)]
    links = ["a" + leg for leg in legs]
    atoms: list[Atom] = [Atom(name) for name in links]
    contexts: list[Context] = [Context("a", tuple(links))]
    for leg, link in zip(legs, links):
        fresh = [f"{leg}{i}" for i in range(1, d)]
        atoms.extend(Atom(name) for name in fresh)
        contexts.append(Context(leg, (link, *fresh)))
    logic = Logic(d, tuple(atoms), tuple(contexts))
    logic.validate()
    return logic
