"""Line-by-line verification of proof scripts.

Every justification must reconstruct the line's formula: axiom lines match
one direction of a schema (the direction is recorded), rule and lemma lines
are matched conclusion-first so that shared pattern pieces (the ``r -> r``
prefix of the regularisation rules) are forced to agree across the premises
and the conclusion of one application.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..syntax import Term, match_schema
from .script import AxiomRef, HypRef, LemmaRef, ProofScript, RuleRef
from .systems import AXIOMS, RULES, SQL, Rule


@dataclass
class LineCheck:
    number: int
    ok: bool
    detail: str
    reason: str | None = None


@dataclass
class ProofReport:
    accepted: bool
    checks: list[LineCheck]
    failure_line: int | None = None
    failure_reason: str | None = None

    def summary(self) -> str:
        if self.accepted:
            return f"ACCEPT ({len(self.checks)} lines)"
        return f"REJECT at line {self.failure_line}: {self.failure_reason}"


def _match_application(rule: Rule, cited: list[Term], goal: Term) -> dict[str, Term] | None:
    sigma = match_schema(rule.conclusion, goal)
    if sigma is None:
        return None
    for schema, formula in zip(rule.premises, cited):
        sigma = match_schema(schema, formula, sigma)
        if sigma is None:
            return None
    return sigma


def check_proof(script: ProofScript, registry=None) -> ProofReport:
    """Verify ``script``; rejection is a verdict, not an exception."""
    checks: list[LineCheck] = []
    axioms = AXIOMS[script.system]
    rules = RULES[script.system]

    def reject(n: int, reason: str) -> ProofReport:
        checks.append(LineCheck(n, False, "", reason))
        return ProofReport(False, checks, n, reason)

    for n, line in enumerate(script.lines, start=1):
        just = line.just
        if isinstance(just, AxiomRef):
            forms = axioms.get(just.name)
            if forms is None:
                return reject(n, f"UnknownAxiom: {just.name}")
            direction = None
            for i, schema in enumerate(forms):
                if match_schema(schema, line.formula) is not None:
                    direction = "NA" if len(forms) == 1 else ("LR", "RL")[i]
                    break
            if direction is None:
                return reject(n, f"NoMatchingAxiomInstance: {just.name}")
            checks.append(LineCheck(n, True, f"{just.name} {direction}"))
            continue

        if isinstance(just, HypRef):
            if not 1 <= just.index <= len(script.hypotheses):
                return reject(n, f"NoSuchHypothesis: {just.index}")
            if script.hypotheses[just.index - 1] != line.formula:
                return reject(n, f"HypothesisMismatch: {just.index}")
            checks.append(LineCheck(n, True, f"hypothesis {just.index}"))
            continue

        if not isinstance(just, (RuleRef, LemmaRef)):
            return reject(n, f"UnknownJustification: {just!r}")
        # rule and lemma lines share one application check
        for p in just.premises:
            if not 1 <= p < n:
                return reject(n, f"BadPremiseIndex: {p}")
        cited = [script.lines[p - 1].formula for p in just.premises]

        if isinstance(just, RuleRef):
            kind, name = "Rule", just.name
            rule = rules.get(name)
        elif script.system != SQL:
            return reject(n, "LemmasRequireRegistry: derived rules live in sqL*")
        else:
            kind, name = "Lemma", just.rule_id
            rule = registry.get(name) if registry is not None else None

        if rule is None:
            return reject(n, f"Unknown{kind}: {name}")
        if len(cited) != len(rule.premises):
            return reject(n, f"ArityMismatch: {name} takes {len(rule.premises)} premises")
        if _match_application(rule, cited, line.formula) is None:
            return reject(n, f"NoMatching{kind}Instance: {name}")
        checks.append(LineCheck(n, True, f"{kind.lower()} {name}"))

    return ProofReport(True, checks)
