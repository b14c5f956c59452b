"""Hilbert-style proof scripts, checking, lemma registry, and proof transformers."""

from .systems import AXIOMS, RULES, Rule, UnknownAxiom, instantiate_axiom
from .script import (
    AxiomRef,
    HypRef,
    LemmaRef,
    ProofLine,
    ProofScript,
    RuleRef,
    ScriptError,
    format_script,
    parse_script,
)
from .checker import LineCheck, ProofReport, check_proof
from .registry import CertificationFailed, Registry, standard_registry
from .transforms import (
    PathMismatch,
    NotRegular,
    SourceProofInvalid,
    deregularize_proof,
    lift_lstar_proof,
    replacement_proof,
)

__all__ = [name for name in dir() if not name.startswith("_")]
