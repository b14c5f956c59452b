"""Shared helpers: seeded random terms/valuations, hypothesis terms, an independent
reference evaluator written straight from the model definitions, a reference
parser (the library's previous parser, one method call per token), a reference
substitution (a tree walk), the occurrence walk ``subterms``, the carrier restriction and valuation
projection that only tests use, and one check of batch values against the
exact evaluator."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from typing import Iterator

import numpy as np
import pytest
from hypothesis import strategies as st

from sqmv import syntax
from sqmv.models import FiniteModel, Model, compile, finite_model_from_ops, ops_for, run
from sqmv.semantics import RandomSampling, _valuation_at, _valuations, evaluate
from sqmv.syntax import (
    Const0,
    Const1,
    Impl,
    MissingBinding,
    Neg,
    NegPart,
    OPlus,
    ParseError,
    PosPart,
    Sig,
    SignatureError,
    Term,
    UMinus,
    Var,
    join_term,
)

F = Fraction


def clamp1(x: Fraction) -> Fraction:
    return max(F(-1), min(F(1), x))


# ---------------------------------------------------------------------------
# The occurrence walk


def subterms(t: Term) -> Iterator[Term]:
    """Every occurrence of a subterm of ``t`` in preorder, shared nodes as
    often as the tree holds them: the reference for the library's walks over
    distinct nodes."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(syntax.children(s)))


# ---------------------------------------------------------------------------
# Random generation


def rand_fraction(rng: random.Random, den: int = 120) -> Fraction:
    return F(rng.randint(-den, den), den)


def random_term(
    rng: random.Random,
    sig: Sig,
    max_depth: int,
    var_names=("x", "y", "z"),
    allow_parts: bool = True,
    force_oplus: bool = False,
) -> Term:
    t = _random_term(rng, sig, max_depth, var_names, allow_parts)
    if force_oplus:
        binop = OPlus if sig is Sig.MV else Impl
        while not _contains(t, binop):
            t = _random_term(rng, sig, max_depth, var_names, allow_parts)
    return t


def _contains(t: Term, cls) -> bool:
    return any(isinstance(s, cls) for s in subterms(t))


def _random_term(rng, sig, depth, var_names, allow_parts) -> Term:
    if depth <= 0 or rng.random() < 0.25:
        choices = [Var(n) for n in var_names] + [Const1()]
        if sig is Sig.MV:
            choices.append(Const0())
        return rng.choice(choices)
    kinds = ["bin", "un", "bin"]
    if allow_parts:
        kinds += ["pos", "npart"]
    kind = rng.choice(kinds)
    if kind == "bin":
        a = _random_term(rng, sig, depth - 1, var_names, allow_parts)
        b = _random_term(rng, sig, depth - 1, var_names, allow_parts)
        return OPlus(a, b) if sig is Sig.MV else Impl(a, b)
    arg = _random_term(rng, sig, depth - 1, var_names, allow_parts)
    if kind == "un":
        return UMinus(arg) if sig is Sig.MV else Neg(arg)
    return PosPart(arg) if kind == "pos" else NegPart(arg)


def random_terms(sig: Sig):
    """Hypothesis terms of ``sig`` over x, y, z and the constants, parts
    included."""
    binary, neg = (OPlus, UMinus) if sig is Sig.MV else (Impl, Neg)
    leaves = [Var("x"), Var("y"), Var("z"), Const1()] + ([Const0()] if sig is Sig.MV else [])
    return st.recursive(
        st.sampled_from(leaves),
        lambda kids: st.one_of(st.builds(binary, kids, kids), st.builds(neg, kids),
                               st.builds(PosPart, kids), st.builds(NegPart, kids)),
        max_leaves=12,
    )


def random_square_valuation(rng, names, den: int = 120) -> dict:
    return {n: (rand_fraction(rng, den), rand_fraction(rng, den)) for n in names}


def random_disk_valuation(rng, names, den: int = 120) -> dict:
    out = {}
    for n in names:
        while True:
            a, b = rand_fraction(rng, den), rand_fraction(rng, den)
            if a * a + b * b <= 1:
                out[n] = (a, b)
                break
    return out


def random_interval_valuation(rng, names, den: int = 120) -> dict:
    return {n: rand_fraction(rng, den) for n in names}


# ---------------------------------------------------------------------------
# Reference evaluator (independent of the library's dispatch)


def oracle_pair(t: Term, v: dict, flat_half: bool = False) -> tuple:
    """Evaluate over the square carrier directly from the defining formulas.

    With ``flat_half`` the half-square variant is used (second coordinate
    forced to 1/2, minus flips b to 1-b).
    """
    second = F(1, 2) if flat_half else F(0)

    def ev(s: Term) -> tuple:
        if isinstance(s, Var):
            return v[s.name]
        if isinstance(s, Const0):
            return (F(0), second)
        if isinstance(s, Const1):
            return (F(1), second)
        if isinstance(s, OPlus):
            (a, _), (c, _) = ev(s.left), ev(s.right)
            return (clamp1(a + c), second)
        if isinstance(s, Impl):
            (a, _), (c, _) = ev(s.left), ev(s.right)
            return (clamp1(c - a), second)
        if isinstance(s, UMinus) or isinstance(s, Neg):
            (a, b) = ev(s.arg)
            return (-a, 1 - b if flat_half else -b)
        if isinstance(s, PosPart):
            (a, _) = ev(s.arg)
            return (max(F(0), a), second)
        (a, _) = ev(s.arg)
        return (min(F(0), a), second)

    return ev(t)


def oracle_interval(t: Term, v: dict, flat: bool = False) -> Fraction:
    def ev(s: Term) -> Fraction:
        if isinstance(s, Var):
            return v[s.name]
        if isinstance(s, Const0):
            return F(0)
        if isinstance(s, Const1):
            return F(0) if flat else F(1)
        if isinstance(s, OPlus):
            return F(0) if flat else clamp1(ev(s.left) + ev(s.right))
        if isinstance(s, Impl):
            return F(0) if flat else clamp1(ev(s.right) - ev(s.left))
        if isinstance(s, (UMinus, Neg)):
            return -ev(s.arg)
        if isinstance(s, PosPart):
            return F(0) if flat else max(F(0), ev(s.arg))
        return F(0) if flat else min(F(0), ev(s.arg))

    return ev(t)


# ---------------------------------------------------------------------------
# Reference parser: the library's previous precedence-climbing parser, which
# tokenises up front and then makes one method call per token.  It reads the
# same connective table (symbols, levels, signatures); the order in which it
# raises errors is the one the library keeps.

_INFIX, _PREFIX = syntax._LEVEL_INFIX, syntax._LEVEL_PREFIX
_POSTFIX, _ATOM = syntax._LEVEL_POSTFIX, syntax._LEVEL_ATOM
_REF_TOKEN = re.compile(r"\s*(?:(%s|%s)|(\S))" % (
    "|".join(map(re.escape, syntax._SYMBOLS)), syntax.IDENT.pattern))


def _ref_tokenize(text: str) -> list[tuple[str, int]]:
    """(token, position) pairs, ending with ``("", len(text))``."""
    tokens = []
    for m in _REF_TOKEN.finditer(text):
        if m.lastindex == 2:
            raise ParseError(f"unexpected character {m[2]!r}", m.start(2))
        tokens.append((m[1], m.start(1)))
    tokens.append(("", len(text)))
    return tokens


class ReferenceParser:
    def __init__(self, text: str, sig: Sig):
        self.tokens = _ref_tokenize(text)
        self.sig = sig
        self.i = 0

    def allow(self, cls: type) -> None:
        if cls.sig not in (None, self.sig):
            lang = self.sig.value.upper()
            raise SignatureError(f"'{cls.symbol}' is not part of the {lang}-STAR language")

    def expect(self, token: str, name: str) -> None:
        found, pos = self.tokens[self.i]
        self.i += 1
        if found != token:
            raise ParseError(f"expected {name!r}, found {found!r}", pos)

    def take(self, level: int) -> type | None:
        """Consume the next token if its class has ``level``, and return that class."""
        cls = syntax._TOKENS.get(self.tokens[self.i][0])
        if cls is None or cls.level != level:
            return None
        self.allow(cls)
        self.i += 1
        return cls

    def formulas(self, allow_iff: bool) -> tuple[Term, ...]:
        """The whole text: one formula, or both implications of a topmost ``<->``."""
        terms = (self.formula(_INFIX),)
        tok, pos = self.tokens[self.i]
        if tok == "<->":
            self.i += 1
            if not allow_iff:
                raise ParseError("'<->' is not allowed here", pos)
            if self.sig is not Sig.W:
                raise SignatureError("'<->' belongs to the W-STAR language")
            lhs, rhs = terms[0], self.formula(_INFIX)
            terms = (Impl(lhs, rhs), Impl(rhs, lhs))
        self.expect("", "eof")
        return terms

    def formula(self, least: int) -> Term:
        """An operand, then each binary connective after it of level ``least`` or more."""
        left, left_level = self.operand(), _PREFIX
        while True:
            cls = syntax._BINARY.get(self.tokens[self.i][0])
            if cls is None or cls.level < least or left_level < cls.operand_levels[0]:
                return left
            self.allow(cls)
            self.i += 1
            right = self.formula(cls.operand_levels[1])
            left = join_term(left, right, self.sig) if cls is syntax._Join else cls(left, right)
            left_level = cls.level

    def operand(self) -> Term:
        """A run of prefix connectives, one atom, then a run of postfix connectives."""
        prefixes = []
        while cls := self.take(_PREFIX):
            prefixes.append(cls)
        tok, pos = self.tokens[self.i]
        self.i += 1
        if tok == "(":
            t = self.formula(_INFIX)
            self.expect(")", "rpar")
        elif tok.isidentifier():  # of all tokens, only variable names are
            t = Var(tok)
        elif (cls := syntax._TOKENS.get(tok)) is not None and cls.level == _ATOM:
            self.allow(cls)
            t = cls()
        else:
            raise ParseError(f"expected a formula, found {tok!r}", pos)
        while cls := self.take(_POSTFIX):
            t = cls(t)
        for cls in reversed(prefixes):
            t = cls(t)
        return t


def reference_parse(text: str, sig: Sig) -> Term:
    return ReferenceParser(text, sig).formulas(allow_iff=False)[0]


def reference_parse_iff(text: str, sig: Sig) -> tuple[Term, ...]:
    return ReferenceParser(text, sig).formulas(allow_iff=True)


def nested_join_text(depth: int) -> str:
    """``y{depth-1} \\/ (... \\/ (y0 \\/ x))``: as a tree a join holds its right
    operand twice, so the tree doubles with each level while the distinct
    subterms grow by a few."""
    text = "x"
    for i in range(depth):
        text = f"y{i} \\/ ({text})"
    return text


def reference_substitute(s: Term, assignment: dict[str, Term]) -> Term:
    """The library's previous substitution: it rebuilds every occurrence of a
    shared node and raises at the first unbound metavariable in preorder."""
    if isinstance(s, Var):
        try:
            return assignment[s.name]
        except KeyError:
            raise MissingBinding(f"no binding for metavariable {s.name!r}") from None
    return syntax.rebuild(s, tuple(reference_substitute(c, assignment)
                                   for c in syntax.children(s)))


# ---------------------------------------------------------------------------
# Model and valuation helpers


def finite_restriction(base: Model, points, name: str) -> FiniteModel:
    """Restrict ``base`` to a finite subset of its carrier, checking closure."""
    ops = {
        op: (lambda *args, op=op: base.apply(op, *args)) for op in ops_for(base.signature)
    }
    consts = {c: base.const(c) for c in ("zero", "one")}
    return finite_model_from_ops(name, base.signature, tuple(points), ops, consts)


def zero_second_coordinates(valuation: dict) -> dict:
    """Project every pair binding onto the first-coordinate slice."""
    return {k: (v[0], F(0)) if isinstance(v, tuple) and len(v) == 2 else v
            for k, v in valuation.items()}


def assert_batch_matches_exact(m: Model, strategy, terms, seed: int = 0, oracle=None) -> None:
    """Run ``terms`` as one tape on the valuations ``strategy`` gives on ``m``
    and compare every batch value with ``evaluate`` at the same valuation: a
    carrier element on finite models, exact fractions over ``D`` otherwise.
    ``oracle(t, valuation)``, if given, is a third side: the tape and
    ``evaluate`` share ``syntax.fold``, the reference evaluators above share
    no code with either."""
    tape = compile(terms, m.signature)
    env, D, total = _valuations(m, strategy, tape.names, terms, seed)
    shape = np.broadcast_shapes(*(np.shape(a) for rep in env.values()
                                  for a in (rep if isinstance(rep, tuple) else (rep,))))
    cells = int(np.prod(shape))
    # random sampling counts its draws even without variables; the batch then has one cell
    assert cells == total or not tape.names and isinstance(strategy, RandomSampling)
    for t, got in zip(terms, run(tape, m, env, D)):
        pair = isinstance(got, tuple)
        cols = [np.broadcast_to(c, shape).ravel() for c in (got if pair else (got,))]
        for i in range(cells):
            exact = evaluate(t, m, v := _valuation_at(m, env, D, i))
            assert oracle is None or oracle(t, v) == exact, (m.name, t, i)
            if m.finite:
                assert m.elements[int(cols[0][i])] == exact, (m.name, t, i)
            else:
                batch = tuple(F(int(c[i]), D) for c in cols)
                assert batch == (exact if pair else (exact,)), (m.name, t, i)


@pytest.fixture
def rng():
    return random.Random(20240817)
