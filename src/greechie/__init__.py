"""Finite quantum logics: exact realizations, two-valued states, and their failures.

The package models pastings of measurement contexts (orthogonality
hypergraphs), verifies vector realizations exactly over the field Q(sqrt(2)),
enumerates noncontextual two-valued states, derives the classical implication
rules those states obey, and computes the quantum joint probabilities that
break them.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), so only the quantum names
load numpy.
"""

from __future__ import annotations

from importlib import import_module

# module -> the public names it provides; each name is declared here only
_EXPORTS = {
    "analysis": """
        CollapseReport ContextCheck Identification ParityCertificate RealizationReport
        RuleSet StateSpaceReport StateSummary TwoValuedState complete_contexts derive_rules
        enumerate_states infer_collapses make_star parity_obstruction summarize_states
        verify_realization
    """,
    "diagrams": "DOT_MODES DualEdge DualGraph emit_dot tkadlec_dual",
    "gls": """
        CORPUS_FILES GlsParseError corpus_path load_corpus load_logic parse_logic
        serialize_logic
    """,
    "model": """
        ONE ROOT2 ZERO AbstractLogicError Atom Context Logic LogicError Quad Ray
        format_quad inner_product make_logic orthogonality_edges parse_quad rays_collinear
    """,
    "quantum": """
        PROB_TOL EntangledPair FalsificationRow JointPrediction confront
        context_completeness falsification_report joint_probability unit_vector
    """,
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = [*sorted(_ORIGIN), "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
