"""Structural analysis of finite context logics.

The operations here answer the questions the data model poses: does a logic's
ray assignment actually realize it (exact orthogonality), which two-valued
states does it admit, which implication rules do those states enforce, and
when does the structure obstruct states (parity counting) or rays (forced
collapses in a too-small dimension).

One search answers the state question: a component-cached exact-cover
search that solves each component of the uncovered contexts once.
``summarize_states`` reads from its table what the flags and the rules
need, per atom the OR and the AND of the codes of the states where it is
true, without listing any state.  ``enumerate_states`` expands the same
table into every state, for ``--list``.

Everything is exact and deterministic: enumeration output is sorted, rule
sets are set-valued, and no floating point is involved anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .model import (
    AbstractLogicError,
    Atom,
    Logic,
    LogicError,
    Ray,
    _spreadsheet_label,
    collinear_classes,
    make_logic,
    orthogonal,
    quote_token,
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
                f"ray {quote_token(lbl)} has {len(r)} components, expected {dimension}"
            )
    collinear = collinear_classes(pairs)
    if collinear:
        x, y = collinear[0][:2]
        raise LogicError(f"rays {quote_token(x)} and {quote_token(y)} are collinear")

    labels = sorted(rays)
    edges = ((x, y) for x, y in itertools.combinations(labels, 2) if orthogonal(rays[x], rays[y]))
    _, closed, _ = _orthogonality_graph(labels, edges)
    isolated = [lbl for lbl, mask in zip(labels, reversed(closed)) if not mask]
    if isolated:
        raise LogicError(
            f"ray {quote_token(isolated[0])} is orthogonal to no other ray and can join no context"
        )

    atoms = (Atom(lbl, rays[lbl]) for lbl in labels)
    return make_logic(dimension, atoms, _maximal_cliques(labels, closed))


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
class StateSummary:
    """What the flags and the rules need of a state space, without its states.

    ``labels`` is the sorted atom label tuple of the source logic and
    ``count`` the number of states.  A state's code is the int with bit
    ``n-1-i`` set when ``labels[i]`` is true, so int order is bit-string
    order.  Per atom, in label order, ``union`` is the OR and ``inter`` the
    AND of the codes of the states where it is true; both are 0 exactly for
    an atom that is never true.
    """

    labels: tuple[str, ...]
    count: int
    union: tuple[int, ...]
    inter: tuple[int, ...]

    @property
    def empty(self) -> bool:
        return not self.count

    @property
    def unital(self) -> bool:
        """Every atom is true in some state."""
        return not self.empty and all(self.union)

    @property
    def separating(self) -> bool:
        """Every two atoms differ in some state.  Two atoms true in the same
        states share their ``inter`` code, and two never-true atoms share 0;
        an atom that is ever true is in its own ``inter``, so no other pair
        shares one."""
        return not self.empty and len(set(self.inter)) == len(self.inter)


@dataclass(frozen=True)
class StateSpaceReport(StateSummary):
    """A state summary with every state listed: ``codes`` holds the codes in
    ascending order, and ``bit_strings`` and ``states`` are derived from
    them when asked for."""

    codes: tuple[int, ...]

    @cached_property
    def bit_strings(self) -> tuple[str, ...]:
        """Each state as its bit string in ``labels`` order, as ``--list``
        prints it; the CLI formats the same strings from ``codes`` a block
        at a time instead of holding them all."""
        return tuple(bit_strings_of(self.codes, len(self.labels)))

    @cached_property
    def states(self) -> tuple[TwoValuedState, ...]:
        """The states as objects, built only when asked for."""
        return tuple(TwoValuedState(self.labels, tuple(map(int, s))) for s in self.bit_strings)


def bit_strings_of(codes: Iterable[int], width: int) -> list[str]:
    """Each code as the bit string of its ``width`` atoms, ``labels[0]``
    first: ``bin(code | 1 << width)[3:]``, so with no atoms it is ``""``."""
    top = 1 << width
    return [bin(code | top)[3:] for code in codes]


def summarize_states(logic: Logic) -> StateSummary:
    """Count the two-valued states and fold them into per-atom codes without
    listing any."""
    return StateSummary(logic.labels, *_per_atom(len(logic.labels), _search(logic))[:3])


def enumerate_states(logic: Logic) -> StateSpaceReport:
    """Every two-valued state, listed from the component table of the same
    search, with the summary of ``summarize_states``.

    A component's codes are, per live branch, its forced atoms ORed into
    every combination of its subcomponents' codes.  The table lists
    children before parents and the root last, so one pass over it lists
    each component once, and the last list built is the listing.  The pass
    skips the components that ``_per_atom`` finds no live branch reaching,
    whose states no state of the logic extends.  Each component's codes are
    kept sorted, and a branch combines its parts highest OR code first (the
    parts' ORs are disjoint, so that is the highest ever-true atom first),
    so the products mostly come out as ascending runs and the final sort,
    which is the guarantee, has little left to do.  Each code is built once
    and each list held once: a branch with nothing forced (the root's, or
    the false one of an atom in no context) starts from its first part's
    own list, a component with one live branch keeps that branch's list,
    and every list is sorted in place.  So a connected logic's listing is
    its one component's list.
    """
    table = _search(logic)
    *summary, around = _per_atom(len(logic.labels), table)
    listed: list = []  # per entry of the table, its sorted codes, or None
    for (_, _, _, live), seen in zip(table, around):
        codes = None
        if seen is not None:
            codes = []
            for forced, parts, _, _ in live:
                parts = sorted(parts, key=lambda part: table[part][1], reverse=True)
                lists = map(listed.__getitem__, parts)
                branch = [forced] if forced else next(lists, [0])
                for subs in lists:
                    branch = [code | sub for code in branch for sub in subs]
                if len(live) == 1:  # may be a listed part's own list, never extended
                    codes = branch
                    break
                codes += branch
            codes.sort()
        listed.append(codes)
    return StateSpaceReport(logic.labels, *summary, tuple(codes))


# A solved component: (count, OR, AND, live branches), a live branch being
# (forced atoms, the table positions of its subcomponents, OR, AND) over the
# states through it.
_Solved = tuple[int, int, int, list]


def _search(logic: Logic) -> list[_Solved]:
    """The component table of the state search: every solved component,
    children before parents, with the solved root last.

    The search covers contexts by atoms as Knuth's Algorithm X does, over
    int masks (``labels[0]`` the most significant bit): it branches on the
    context with the fewest open members among those that lost one in the
    step that cut its component off (at the root, among all), and choosing
    an atom blocks every atom it shares a context with and sets true every
    atom that a context is left with as its only open member.  The contexts
    still uncovered then fall apart into components, linked by shared open
    members.  A component is keyed by its context indices and its open
    atoms, which fix what it can do, and is solved once whatever leads to it
    (the component caching of Thurley's sharpSAT, SAT 2006): per branch the
    atoms it forced and its subcomponents, and over all branches its count
    and the OR and AND of its codes.  Counts multiply over components and
    add over branches.  The table is filled on an explicit stack, so deep
    logics meet no recursion limit.  The root goes on it first, already
    expanded, with every part of the logic in its one branch.  Each atom in
    no context (only in an unvalidated logic) follows as an expanded entry
    with a true branch and a false branch.  A component goes on it fresh,
    with the contexts it may branch among, and comes back expanded, with
    its branches, under the subcomponents that ``settle`` pushes for them.
    Every entry of the table is made by ``combine`` as its expanded entry
    leaves the stack, so it enters after its parts, and the root's comes
    last.  Keys never leave this function: a private dict maps each key to
    its position in the table, and a live branch names its subcomponents by
    their positions.  A root with no state has no live branch.
    """
    labels = logic.labels
    groups = (ctx.members for ctx in logic.contexts)
    contexts, blocks, owners = _orthogonality_graph(labels, groups)

    def settle(queue: int, free: int, uncovered: int, seeds: int) -> tuple[int, list] | None:
        """Set the queued atoms true, then every atom some context is left
        with as its only open member, and split the uncovered contexts into
        components; None when a context loses all its open members, which
        is found before anything goes on the stack.

        ``free`` holds the open atoms.  Every component left holds a context
        of ``seeds`` or one that lost an open member here, so a search from
        each such context but the last finds them all, and one that reaches
        every other seed is all that is left.  A seed with no open member is
        a component of its own.  ``settle`` pushes each component it cuts
        onto ``stack`` as a fresh entry, with those of its contexts as its
        seeds.
        """
        forced = 0
        while queue:
            atom = queue & -queue
            queue ^= atom
            forced |= atom
            bit = atom.bit_length() - 1
            newly = blocks[bit] & free
            free ^= newly
            uncovered &= ~owners[bit]
            touched = 0
            while newly:
                low = newly & -newly
                touched |= owners[low.bit_length() - 1]
                newly ^= low
            touched &= uncovered
            seeds |= touched
            while touched:
                low = touched & -touched
                open_members = contexts[low.bit_length() - 1] & free
                if not open_members & (open_members - 1):
                    if not open_members:
                        return None
                    queue |= open_members
                touched ^= low
        seeds &= uncovered
        parts = []
        while seeds & (seeds - 1):
            members = seeds & -seeds
            atoms = frontier = contexts[members.bit_length() - 1] & free
            while frontier and seeds & ~members:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    bit = low.bit_length() - 1
                    reach |= blocks[bit]
                    members |= owners[bit]
                    frontier ^= low
                frontier = reach & free & ~atoms
                atoms |= frontier
            if not seeds & ~members:
                break
            members &= uncovered
            parts.append((members, atoms))
            stack.append(((members, atoms), seeds & members, None))
            uncovered ^= members
            free ^= atoms
            seeds &= ~members
        if uncovered:
            parts.append((uncovered, free))
            stack.append(((uncovered, free), seeds, None))
        return forced, parts

    table: list[_Solved] = []
    place: dict[tuple[int, int], int] = {}  # (context indices, open atoms) -> position in table

    def combine(branches: Iterable[tuple[int, list]]) -> _Solved:
        count, any_code, all_code, live = 0, 0, -1, []
        for forced, parts in branches:
            product, one, every = 1, forced, forced
            for part in parts:
                part_count, part_any, part_all, _ = table[place[part]]
                product *= part_count
                one |= part_any
                every |= part_all
            if product:
                count += product
                any_code |= one
                all_code &= every
                live.append((forced, tuple(map(place.__getitem__, parts)), one, every))
        return count, any_code, all_code, live

    # Entries are fresh (component, seeds, None) or expanded (component, 0,
    # branches).  The root's one branch holds the logic's parts, and no part
    # has the root's key (0, 0).
    root: list = []
    stack: list = [((0, 0), 0, [(0, root)])]
    covered = (1 << len(blocks)) - 1  # the atoms in some context
    for bit, mask in enumerate(blocks):
        if not mask:
            atom = 1 << bit
            covered ^= atom
            root.append((0, atom))
            stack.append(((0, atom), 0, [(atom, []), (0, [])]))
    everything = (1 << len(contexts)) - 1
    root += settle(0, covered, everything, everything)[1]

    while stack:
        part, rest, branches = stack.pop()
        if branches is not None:
            place[part] = len(table)
            table.append(combine(branches))
        elif part not in place:
            members, atoms = part
            choice = fewest = 0
            while rest:
                low = rest & -rest
                open_members = contexts[low.bit_length() - 1] & atoms
                size = open_members.bit_count()
                if not choice or size < fewest:
                    choice, fewest = open_members, size
                rest ^= low
            branches = []
            stack.append((part, 0, branches))
            while choice:
                atom = choice & -choice
                branch = settle(atom, atoms, members, 0)
                if branch is not None:
                    branches.append(branch)
                choice ^= atom
    return table


def _per_atom(n: int, table: list[_Solved]) -> tuple[int, tuple[int, ...], tuple[int, ...], list]:
    """The count and, per label, the ``union`` and ``inter`` codes of a
    search's component table over ``n`` atoms, and what lies around each
    entry of the table.

    The pass walks the table backwards, from the root, so it reaches each
    component after every component that leads to it.  Each component gets
    the OR and the AND of the codes of everything around it on the ways that
    reach it, and an atom forced in one of its branches gets those, each
    joined with the branch's own OR or AND: the ``union`` and ``inter`` of
    that atom, over every state.  ``around`` holds those two codes per
    entry: ``[0, 0]`` for the root, and None for each component that no
    live branch from the root reaches.
    """
    union, inter = [0] * n, [-1] * n  # per bit, not per label
    around: list = [None] * (len(table) - 1) + [[0, 0]]
    # reversed() reads each entry of around when the walk gets to it, so it
    # sees what the entries before it in the walk filled in
    for (_, _, _, live), seen in zip(reversed(table), reversed(around)):
        if seen is None:
            continue
        out_any, out_all = seen
        for forced, parts, one, every in live:
            one |= out_any
            every |= out_all
            while forced:
                atom = forced & -forced
                bit = atom.bit_length() - 1
                union[bit] |= one
                inter[bit] &= every
                forced ^= atom
            for part in parts:
                _, part_any, part_all, _ = table[part]
                seen = around[part]
                if seen is None:
                    around[part] = [one ^ part_any, every ^ part_all]
                else:
                    seen[0] |= one ^ part_any
                    seen[1] &= every ^ part_all
    union.reverse()
    inter.reverse()
    return table[-1][0], tuple(union), tuple(map(int.__and__, inter, union)), around


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


def derive_rules(report: StateSummary, logic: Logic) -> RuleSet:
    """Extract the one-zero and one-one/zero-zero rules from a state space:
    x true forces y false when y is in no state with x (outside ``union[x]``),
    and forces y true when y is in every state with x (inside ``inter[x]``).
    An empty space has every ``union`` 0, so every atom is never true."""
    labels = logic.labels
    if report.labels != labels:
        raise LogicError("state report does not belong to this logic")
    everyone = (1 << len(labels)) - 1
    possible = [(x, u, i) for x, u, i in zip(labels, report.union, report.inter) if u]
    one_one = frozenset((x, y) for x, _, inter in possible for y in _labels_of(inter, labels))
    return RuleSet(
        one_zero=frozenset(
            (x, y) for x, union, _ in possible for y in _labels_of(everyone & ~union, labels)
        ),
        one_one=one_one,
        equivalences=frozenset(
            frozenset((x, y)) for x, y in one_one if x < y and (y, x) in one_one
        ),
        never_true=tuple(x for x, u in zip(labels, report.union) if not u),
        explosion=report.empty,
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
    if len(logic.contexts) % 2 == 0:
        return None
    counts = sorted((x, len(owners)) for x, owners in logic.contexts_of.items())
    if all(k % 2 == 0 for _, k in counts):
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
    common set of d-1 mutually orthogonal atoms, the witness, they are
    forced onto the same ray and merged; merging can create new forced
    pairs, so the scan repeats until nothing merges.  A round visits only
    the witnesses with two or more common neighbours, in lexicographic
    order (``_shared_witnesses``), and merges the first common neighbour
    with each later one it is not yet merged with; after that they are all
    one atom, so no other pair of them can merge.  Labels are read off the
    masks only for those witnesses.  Sound but deliberately incomplete: a
    logic may be unrealizable in dimension d without triggering any merge.
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
    # find is the identity until the first merge
    groups: Iterable[Iterable[str]] = (c.members for c in logic.contexts)
    merged = True
    while merged:
        merged = False
        _, closed, _ = _orthogonality_graph(labels, groups)
        for witness, common in _shared_witnesses(closed, d - 1):
            x, *rest = _labels_of(common, labels)
            for y in rest:
                rx, ry = find(x), find(y)
                if rx == ry:
                    continue
                found.append(Identification(pair=(x, y), witness=_labels_of(witness, labels)))
                if ry < rx:
                    rx, ry = ry, rx
                parent[ry] = rx
                merged = True
        groups = ({find(m) for m in c.members} for c in logic.contexts)

    found.sort(key=lambda ident: ident.pair)
    return CollapseReport(dimension=d, forced_identifications=tuple(found))


def _orthogonality_graph(
    labels: Sequence[str], groups: Iterable[Iterable[str]]
) -> tuple[list[int], list[int], list[int]]:
    """The orthogonality graph whose cliques include the given label groups,
    as int masks over ``labels`` (bit ``n-1-i`` is ``labels[i]``): each
    group's mask, and per bit the closed neighbourhood, the union of the
    groups containing it (0 for a label in none), and the owners, the
    indices of those groups as a mask."""
    position = {lbl: len(labels) - 1 - i for i, lbl in enumerate(labels)}
    masks: list[int] = []
    closed = [0] * len(labels)
    owners = [0] * len(labels)
    index = 1
    for group in groups:
        places = [position[m] for m in group]
        mask = 0
        for place in places:
            mask |= 1 << place
        for place in places:
            closed[place] |= mask
            owners[place] |= index
        masks.append(mask)
        index <<= 1
    return masks, closed, owners


def _maximal_cliques(labels: Sequence[str], closed: Sequence[int]) -> list[tuple[str, ...]]:
    """Every maximal clique of a graph from ``_orthogonality_graph`` as a
    sorted label tuple, in sorted order (``_clique_masks`` finds them)."""
    return sorted(_labels_of(clique, labels) for clique in _clique_masks(closed))


def _clique_masks(closed: Sequence[int]) -> list[int]:
    """Every maximal clique of a graph from ``_orthogonality_graph`` as a
    mask, in no particular order; its vertices are the bits with a nonzero
    closed neighbourhood, and the empty graph has one maximal clique, 0.

    The root follows Eppstein, Löffler and Strash (ISAAC 2010): it searches
    from each vertex in turn, with its later neighbours as candidates and
    its earlier ones excluded.  Their degeneracy order is approximated by
    the order of degrees, which costs one sort instead of an update per
    edge.  A vertex whose candidates all neighbour one excluded vertex
    starts no search: every clique it could grow extends by that vertex.
    Below the root runs Bron and Kerbosch's search (CACM Algorithm 457) on
    an explicit stack, so large cliques meet no recursion limit; the
    clique, candidates and excluded vertices are masks.  A node whose
    candidates are all adjacent ends at once: it reports the clique with
    all of them unless an excluded vertex neighbours every one.  Any other
    node branches on its candidates outside the neighbourhood of its pivot,
    the lowest bit of candidates | excluded.
    """
    cliques: list[int] = []
    stack: list[tuple[int, int, int]] = []
    order = sorted(
        (bit for bit, mask in enumerate(closed) if mask), key=lambda bit: closed[bit].bit_count()
    )
    later = sum(1 << bit for bit in order)
    for bit in order:
        v = 1 << bit
        later ^= v
        neighbours = closed[bit] ^ v
        candidates, excluded = neighbours & later, neighbours & ~later
        blocker = excluded
        while blocker and candidates & ~closed[(blocker & -blocker).bit_length() - 1]:
            blocker &= blocker - 1
        if not blocker:
            stack.append((v, candidates, excluded))
    while stack:
        clique, candidates, excluded = stack.pop()
        rest, beyond = candidates, excluded
        while rest:
            v = rest & -rest
            neighbours = closed[v.bit_length() - 1]
            if candidates & ~neighbours:
                break
            beyond &= neighbours
            rest ^= v
        else:  # the candidates are one clique: it is the node's only one
            if not beyond:
                cliques.append(clique | candidates)
            continue
        pivot = (candidates | excluded) & -(candidates | excluded)
        branch = candidates & ~(closed[pivot.bit_length() - 1] ^ pivot)
        while branch:
            v = branch & -branch
            branch ^= v
            candidates ^= v
            neighbours = closed[v.bit_length() - 1]
            stack.append((clique | v, candidates & neighbours, excluded & neighbours))
            excluded |= v
    return cliques or [0]


def _shared_witnesses(closed: Sequence[int], k: int) -> list[tuple[int, int]]:
    """Every k-clique W of a graph from ``_orthogonality_graph`` that has two
    or more common neighbours, with the mask of those neighbours, in
    descending order of W; for masks of k bits that is the lexicographic
    order of the sorted label tuples.

    With common neighbours x and y, W + x lies in a maximal clique C of more
    than k members, so only the k-subsets of those are tried.  W's common
    neighbours are the rest of C and the AND of its members' neighbourhoods
    outside C.  When C has k + 1 members, the candidates are the sets C - v,
    and one counts only if that AND is not empty (then W is C's
    intersection with another maximal clique); prefix and suffix ANDs give
    all of them with a few mask operations per member.  A larger C is
    walked depth first, carrying the AND of the members chosen so far, so
    subsets that share a prefix share its ANDs; a node that must add one
    more member, or leave out one of the rest, ends in a loop over the rest.
    """
    shared: dict[int, int] = {}
    for clique in _clique_masks(closed):
        members: list[tuple[int, int]] = []  # (bit, its neighbours outside C)
        rest = clique
        while rest:
            v = rest & -rest
            members.append((v, closed[v.bit_length() - 1] & ~clique))
            rest ^= v
        m = len(members)
        if m <= k:
            continue
        suffix = [-1]  # suffix[j]: the AND over members[j:]
        for _, out in reversed(members):
            suffix.append(suffix[-1] & out)
        suffix.reverse()
        if m == k + 1:
            prefix = -1
            for (v, out), after in zip(members, suffix[1:]):
                if prefix & after:
                    shared[clique ^ v] = v | prefix & after
                prefix &= out
                if not prefix:
                    break  # every later C - v has these members
            continue
        stack = [(0, k, 0, -1)]  # next member, members still to add, chosen, their AND
        while stack:
            i, need, chosen, outside = stack.pop()
            if need == 1:
                for v, out in members[i:]:
                    shared[chosen | v] = clique ^ chosen ^ v | outside & out
            elif need == m - i - 1:
                tail = clique & -members[i][0]
                for (v, out), after in zip(members[i:], suffix[i + 1:]):
                    shared[chosen | tail ^ v] = clique ^ chosen ^ tail ^ v | outside & after
                    outside &= out
            else:
                v, out = members[i]
                stack.append((i + 1, need, chosen, outside))
                stack.append((i + 1, need - 1, chosen | v, outside & out))
    return sorted(shared.items(), reverse=True)


def _labels_of(mask: int, labels: Sequence[str]) -> tuple[str, ...]:
    """The labels of a mask's bits, in label order (bit b is labels[n-1-b])."""
    n = len(labels)
    found = []
    while mask:
        top = mask.bit_length() - 1
        found.append(labels[n - 1 - top])
        mask ^= 1 << top
    return tuple(found)


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
    contexts: list[list[str]] = [links]
    for leg, link in zip(legs, links):
        fresh = [f"{leg}{i}" for i in range(1, d)]
        atoms.extend(Atom(name) for name in fresh)
        contexts.append([link, *fresh])
    return make_logic(d, atoms, contexts)
