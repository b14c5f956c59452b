"""Proof-script data model and the line-oriented file format.

Format::

    system: sqL*
    hyp: p -> q
    1. p -> q ; HYP 1
    2. (r -> r) -> (p -> q) ; RULE Reg 1
    3. ~q -> ~p ; LEM contra 1

Justifications: ``AX <name>``, ``HYP <i>``, ``RULE <name> <i[,j]>``,
``LEM <id> [<i[,j]>]``.  Blank lines and ``#`` comments are ignored.  Formulas
may use the part and join abbreviations; they are expanded before checking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..syntax import (
    FormulaError,
    Sig,
    SqmvError,
    Term,
    expand_abbreviations,
    parse,
    print_term,
)
from .systems import SYSTEMS


class ScriptError(SqmvError):
    """Malformed proof-script text or structure."""


@dataclass(frozen=True)
class AxiomRef:
    name: str

    def describe(self) -> str:
        return f"AX {self.name}"


@dataclass(frozen=True)
class HypRef:
    index: int

    def describe(self) -> str:
        return f"HYP {self.index}"


@dataclass(frozen=True)
class RuleRef:
    name: str
    premises: tuple[int, ...]

    def describe(self) -> str:
        tail = " " + ",".join(map(str, self.premises)) if self.premises else ""
        return f"RULE {self.name}{tail}"


@dataclass(frozen=True)
class LemmaRef:
    rule_id: str
    premises: tuple[int, ...] = ()

    def describe(self) -> str:
        tail = " " + ",".join(map(str, self.premises)) if self.premises else ""
        return f"LEM {self.rule_id}{tail}"


Justification = AxiomRef | HypRef | RuleRef | LemmaRef


@dataclass(frozen=True)
class ProofLine:
    formula: Term
    just: Justification
    text: str = ""

    def rendered(self) -> str:
        return self.text or print_term(self.formula)


@dataclass(frozen=True)
class ProofScript:
    system: str
    hypotheses: tuple[Term, ...]
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Term:
        if not self.lines:
            raise ScriptError("empty proof script")
        return self.lines[-1].formula


# the formula: group 2 if it starts with neither ";" nor a blank, else group 3 (error lines)
_LINE_RE = re.compile(r"^(\d+)\.\s*(?:([^;\s](?:[^;]*[^;\s])?)|(.+?))\s*;\s*(.+)$")
_JUST_RE = re.compile(r"^(AX|HYP|RULE|LEM)\s+(\S+)(?:\s+([\d,\s]+))?$")


def _parse_just(text: str, lineno: int) -> Justification:
    m = _JUST_RE.match(text.strip())
    if not m:
        raise ScriptError(f"line {lineno}: cannot parse justification {text!r}")
    kind, name, idxs = m.groups()
    premises: tuple[int, ...] = ()
    if idxs:
        try:
            premises = tuple(int(p) for p in idxs.replace(" ", "").split(",") if p)
        except ValueError:
            raise ScriptError(f"line {lineno}: bad premise list {idxs!r}") from None
    if kind == "AX":
        if premises:
            raise ScriptError(f"line {lineno}: axiom lines take no premises")
        return AxiomRef(name)
    if kind == "HYP":
        if premises:
            raise ScriptError(f"line {lineno}: hypothesis lines take no premises")
        try:
            return HypRef(int(name))
        except ValueError:
            raise ScriptError(f"line {lineno}: bad hypothesis index {name!r}") from None
    if kind == "RULE":
        return RuleRef(name, premises)
    return LemmaRef(name, premises)


def _parse_formula(text: str, lineno: int, memo: dict) -> Term:
    try:
        return expand_abbreviations(parse(text, Sig.W, memo), Sig.W)
    except FormulaError as exc:
        raise ScriptError(f"line {lineno}: {exc}") from None


def parse_script(text: str) -> ProofScript:
    system: str | None = None
    hypotheses: list[Term] = []
    lines: list[ProofLine] = []
    memo: dict = {}  # the groups this script's formulas share (see ``parse``)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("system:"):
            if system is not None:
                raise ScriptError(f"line {lineno}: duplicate system header")
            system = stripped[len("system:"):].strip()
            if system not in SYSTEMS:
                raise ScriptError(f"line {lineno}: unknown system {system!r}")
            continue
        if system is None:
            raise ScriptError(f"line {lineno}: the system header must come first")
        if stripped.startswith("hyp:"):
            if lines:
                raise ScriptError(f"line {lineno}: hypotheses must precede proof lines")
            hypotheses.append(_parse_formula(stripped[len("hyp:"):], lineno, memo))
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            raise ScriptError(f"line {lineno}: cannot parse proof line {stripped!r}")
        number, formula_text, just_text = m[1], m[2] or m[3], m[4]
        if int(number) != len(lines) + 1:
            raise ScriptError(
                f"line {lineno}: expected line number {len(lines) + 1}, got {number}"
            )
        formula = _parse_formula(formula_text, lineno, memo)
        lines.append(ProofLine(formula, _parse_just(just_text, lineno), formula_text))
    if system is None:
        raise ScriptError("missing system header")
    if not lines:
        raise ScriptError("proof script has no lines")
    return ProofScript(system, tuple(hypotheses), tuple(lines))


def format_script(script: ProofScript) -> str:
    out = [f"system: {script.system}"]
    for h in script.hypotheses:
        out.append(f"hyp: {print_term(h)}")
    for i, line in enumerate(script.lines, start=1):
        out.append(f"{i}. {line.rendered()} ; {line.just.describe()}")
    return "\n".join(out) + "\n"
