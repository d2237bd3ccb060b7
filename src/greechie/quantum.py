"""Quantum joint probabilities for two particles in a maximally entangled state.

Floating point lives here and only here: unit normalization leaves the exact
field (norms like sqrt(3) are not in Q(sqrt(2))), so rays are converted to
float unit vectors and probabilities carry a 1e-9 tolerance.

Convention, fixed once: the two-particle state is psi = (1/sqrt(d)) sum_i
|i>|i>, held as the d x d amplitude matrix eye(d)/sqrt(d).  For real rays
this state predicts prob(a and b) = (a.b)^2 / d, perfectly correlating equal
rays; any singlet-type state used in spin language equals it up to a local
basis change that leaves every real-ray probability unchanged.  Every
probability comes from one batched contraction of projector pairs against
psi (``_contract``), never from the closed formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Literal, Sequence

import numpy as np

from .analysis import RuleSet
from .model import Context, Logic, LogicError, Ray, quote_token

PROB_TOL = 1e-9

# The contraction order ``optimize=True`` picks for ``_contract``'s einsum at
# every stack shape checked (tests/test_quantum.py pins it), passed as a path
# so that no contraction reruns the greedy path search.
CONTRACTION_PATH = ["einsum_path", (0, 1), (0, 2), (0, 1)]


@dataclass(frozen=True, eq=False)
class EntangledPair:
    """The maximally entangled two-particle state in dimension d >= 3."""

    dimension: int

    def __post_init__(self) -> None:
        if self.dimension < 3:
            raise LogicError(
                f"entangled pair needs dimension >= 3, got {self.dimension}"
            )

    @property
    def amplitudes(self) -> np.ndarray:
        """Amplitude matrix psi[i, j] = <i j | psi> = delta_ij / sqrt(d)."""
        return np.eye(self.dimension) / np.sqrt(self.dimension)


@dataclass(frozen=True)
class JointPrediction:
    """The quantum probabilities for one ray pair, refused unless prob_both
    lies in [0, min(marginals)] up to the tolerance."""

    prob_both: float
    marginal_left: float
    marginal_right: float

    def __post_init__(self) -> None:
        low = -PROB_TOL
        high = min(self.marginal_left, self.marginal_right) + PROB_TOL
        if not (low <= self.prob_both <= high):
            raise LogicError(
                f"joint probability {self.prob_both} outside [0, min(marginals)]"
            )


def _wrong_length(size: int | str, dimension: int) -> LogicError:
    return LogicError(f"ray has {size} components, expected {dimension}")


def unit_vector(ray: Ray | Sequence[float], dimension: int) -> np.ndarray:
    """Float unit vector for a ray; rejects zero input and wrong length.

    The norm is ``np.linalg.norm``'s for a 1-D float array, taken by its own
    steps: the square root of the vector's dot product with itself."""
    if isinstance(ray, Ray):
        values = np.array(ray.floats(), dtype=float)
    else:
        values = np.asarray(ray, dtype=float)
    if values.shape != (dimension,):
        raise _wrong_length(values.shape[0] if values.ndim == 1 else "?", dimension)
    norm = math.sqrt(values.dot(values))
    if not norm:
        raise LogicError("cannot normalize a zero ray")
    return values / norm


def _contract(pair: EntangledPair, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Rows (prob_both, marginal_left, marginal_right), one per ray pair.

    ``lefts`` and ``rights`` are (n, d) stacks of unit vectors a and b.  The
    operators P_a (x) P_b, P_a (x) 1 and 1 (x) P_b of every pair are stacked
    as left and right factors and contracted against the amplitude matrix in
    one einsum: <psi| L (x) R |psi> = sum psi[i,j] L[i,k] R[j,l] psi[k,l].
    """
    proj_a = np.einsum("ni,nk->nik", lefts, lefts)
    proj_b = np.einsum("nj,nl->njl", rights, rights)
    identity = np.broadcast_to(np.eye(pair.dimension), proj_a.shape)
    left = np.stack([proj_a, proj_a, identity], axis=1)
    right = np.stack([proj_b, identity, proj_b], axis=1)
    psi = pair.amplitudes
    return np.einsum("ij,nsik,nsjl,kl->ns", psi, left, right, psi, optimize=CONTRACTION_PATH)


def joint_probability(
    pair: EntangledPair,
    a: Ray | Sequence[float],
    b: Ray | Sequence[float],
) -> JointPrediction:
    """Probability that both sides give 1 when side one measures along a and
    side two along b, by contracting P_a (x) P_b against the state: the
    batched contraction for a batch of one pair.
    """
    d = pair.dimension
    probs = _contract(pair, unit_vector(a, d)[None], unit_vector(b, d)[None])
    return JointPrediction(*probs[0].tolist())


@dataclass(frozen=True)
class FalsificationRow:
    """One atom pair: the classical rule it falls under and the quantum figure
    held against it.  An unconstrained pair has classical None and is never
    violated."""

    kind: Literal["one-zero", "equivalence", "unconstrained"]
    pair: tuple[str, str]
    classical: float | None
    quantum: float
    violated: bool


def confront(rules: RuleSet, x: str, y: str, prediction: JointPrediction) -> FalsificationRow:
    """Classify the pair (x, y) against the rules and hold its prediction,
    already checked against its bound, against the classical figure.

    A one-zero rule (x, y) classically forbids both outcomes occurring, so
    its classical joint probability is 0; quantum gives prob_both(x, y).  An
    equivalence {x, y} classically forbids x occurring without y, so the
    quantum figure is P(x and not y) = marginal(x) - prob_both(x, y).  Any
    other pair is unconstrained and reports prob_both.  A constrained row is
    violated when the quantum value exceeds the tolerance.
    """
    if (x, y) in rules.one_zero:
        kind = "one-zero"
    elif frozenset((x, y)) in rules.equivalences:
        kind = "equivalence"
    else:
        kind = "unconstrained"
    prob_both = prediction.prob_both
    quantum = prediction.marginal_left - prob_both if kind == "equivalence" else prob_both
    classical = None if kind == "unconstrained" else 0.0
    violated = classical is not None and quantum > PROB_TOL
    return FalsificationRow(kind, (x, y), classical, quantum, violated)


def falsification_report(
    logic: Logic,
    rules: RuleSet,
    pair: EntangledPair,
) -> tuple[FalsificationRow, ...]:
    """Confront every derived rule with the entangled-state prediction: the
    one-zero pairs in sorted order, then the equivalences as sorted pairs.

    Every atom's ray is looked up first, in label order, so an abstract logic
    is refused even when it has no rules, and so is a ray of the wrong
    length, with ``unit_vector``'s message.  Unit vectors are made only for
    the atoms the rule pairs name: with no rules nothing is normalized or
    contracted.
    """
    if pair.dimension != logic.dimension:
        raise LogicError(
            f"entangled pair has dimension {pair.dimension}, "
            f"logic has {logic.dimension}"
        )
    d = pair.dimension
    for x in logic.labels:
        size = len(logic.ray_of(x))
        if size != d:
            raise _wrong_length(size, d)
    pairs = sorted(rules.one_zero) + sorted(tuple(sorted(e)) for e in rules.equivalences)
    if not pairs:
        return ()
    named = sorted(set(chain.from_iterable(pairs)))
    units = np.array([unit_vector(logic.ray_of(x), d) for x in named])
    index = {x: i for i, x in enumerate(named)}
    probs = _contract(
        pair,
        units[[index[x] for x, _ in pairs]],
        units[[index[y] for _, y in pairs]],
    )
    return tuple(
        confront(rules, x, y, JointPrediction(*p)) for (x, y), p in zip(pairs, probs.tolist())
    )


def context_completeness(
    pair: EntangledPair,
    logic: Logic,
    context: Context | str,
    b: Ray | Sequence[float],
) -> float:
    """Sum of joint probabilities of a full context against a fixed ray.

    The context must have exactly d members (a complete orthogonal system);
    the sum then equals the marginal of b, 1/d, up to float error.
    """
    if isinstance(context, str):
        matches = [c for c in logic.contexts if c.label == context]
        if not matches:
            raise LogicError(f"no context labeled {quote_token(context)}")
        context = matches[0]
    d = pair.dimension
    if len(context.members) != d:
        raise LogicError(
            f"context {quote_token(context.label)} has {len(context.members)} members; "
            f"completeness needs exactly {d}"
        )
    lefts = np.array([unit_vector(logic.ray_of(m), d) for m in context.members])
    rights = np.broadcast_to(unit_vector(b, d), lefts.shape)
    return sum(_contract(pair, lefts, rights)[:, 0].tolist())
