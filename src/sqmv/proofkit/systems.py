"""Axiom schemas and deduction rules of the two Hilbert systems.

Schemas are stored as core implicational terms (parts and join written out);
their variables act as metavariables.  Biconditional axioms carry the two
implications, forward first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..syntax import (
    Sig,
    SqmvError,
    Term,
    expand_abbreviations,
    parse,
    parse_iff,
    substitute,
)

SQL = "sqL*"
LSTAR = "L*"

SYSTEMS = (SQL, LSTAR)


class UnknownAxiom(SqmvError):
    pass


def _forms(text: str) -> tuple[Term, ...]:
    return tuple(expand_abbreviations(f, Sig.W) for f in parse_iff(text, Sig.W))


_SQ_AXIOM_TEXT = {
    "Q1": "(p -> q) <-> (~q -> ~p)",
    "Q2": "1 <-> ((1 -> p) -> 1)",
    "Q3": "p <-> ((q -> q) -> p)",
    "Q4": "(p -> q) <-> ((q^+ -> p^-) -> (p^+ -> q^-))",
    "Q5": "~(p -> q) <-> (q -> p)",
    "Q6": "(p -> (~p -> q))^+ <-> (p^+ -> (~p^+ -> q^+))",
    "Q7": "(p -> (q \\/ r)) <-> ((p -> r) \\/ (p -> q))",
    "Q8": "(p \\/ (q \\/ r)) <-> ((p \\/ q) \\/ r)",
    "Q9": "((p -> 1) -> ((q -> 1) -> r)) -> ((q -> 1) -> ((p -> 1) -> r))",
    "Q10": "p -> 1",
}

# The older system shares the schema pool under different labels.
L_TO_SQ_AXIOM = {
    "P1": "Q1", "P2": "Q3", "P3": "Q5", "P4": "Q10", "P5": "Q2",
    "P6": "Q9", "P7": "Q4", "P8": "Q6", "P9": "Q7", "P10": "Q8",
}

AXIOMS: dict[str, dict[str, tuple[Term, ...]]] = {
    SQL: {name: _forms(text) for name, text in _SQ_AXIOM_TEXT.items()}
}
AXIOMS[LSTAR] = {p: AXIOMS[SQL][q] for p, q in L_TO_SQ_AXIOM.items()}


@dataclass(frozen=True)
class Rule:
    """A deduction rule of a system, or a lemma registered from a certificate."""

    name: str
    premises: tuple[Term, ...]
    conclusion: Term

    @property
    def hypotheses(self) -> tuple[Term, ...]:
        """The premises, under the name a certificate gives them."""
        return self.premises


def _rule(name: str, premises: list[str], conclusion: str) -> Rule:
    prem = tuple(expand_abbreviations(parse(p, Sig.W), Sig.W) for p in premises)
    concl = expand_abbreviations(parse(conclusion, Sig.W), Sig.W)
    return Rule(name, prem, concl)


RULES: dict[str, dict[str, Rule]] = {SQL: {r.name: r for r in (
    _rule("qMP", ["(r -> r) -> p", "(r -> r) -> (p -> q)"], "(r -> r) -> q"),
    _rule("Reg", ["p"], "(r -> r) -> p"),
    _rule("AReg1", ["(r -> r) -> (p -> q)"], "p -> q"),
    _rule("AReg2", ["(r -> r) -> ~(p -> q)"], "~(p -> q)"),
    _rule("AReg3", ["(r -> r) -> ~1"], "~1"),
    _rule("AReg4", ["(r -> r) -> 1"], "1"),
    _rule("Inv1", ["p"], "~~p"),
    _rule("Inv2", ["~~p"], "p"),
    _rule("Flat", ["p", "~1"], "~p"),
    _rule("R2'", ["p -> q", "r -> t"], "(q -> r) -> (p -> t)"),
    _rule("R3'", ["(r -> r) -> p"], "p^-"),
)}}
# L*'s R2 has the forms of sqL*'s R2'.
RULES[LSTAR] = {r.name: r for r in (
    _rule("R1", ["p", "p -> q"], "q"),
    replace(RULES[SQL]["R2'"], name="R2"),
    _rule("R3", ["p"], "p^-"),
)}


def instantiate_axiom(system: str, name: str, assignment: dict[str, Term]) -> tuple[Term, ...]:
    """The axiom's formulas under ``assignment`` (both directions for <-> axioms)."""
    try:
        forms = AXIOMS[system][name]
    except KeyError:
        raise UnknownAxiom(f"no axiom {name!r} in system {system}") from None
    out = []
    for f in forms:
        out.append(substitute(f, assignment, Sig.W))
    return tuple(out)
