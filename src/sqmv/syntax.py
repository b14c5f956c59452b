"""Terms of the two algebraic signatures, parsing, printing, and schema matching.

A single ``Term`` type covers both languages; which constructors are legal is
decided by a signature tag (``Sig.MV`` vs ``Sig.W``).  The join ``\\/`` is
surface sugar and is expanded while parsing; the unary parts ``^+`` / ``^-``
are primitive constructors that can be expanded away in strong algebras via
:func:`expand_abbreviations`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator


class Sig(enum.Enum):
    """Signature tag: additive language or implicational language."""

    MV = "mv"
    W = "w"


class SqmvError(Exception):
    """Base class of every error sqmv raises on bad input or a bad request."""


class FormulaError(SqmvError):
    """Base class for errors raised while handling formulas."""


class ParseError(FormulaError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.position = position


class SignatureError(FormulaError):
    pass


class MissingBinding(FormulaError):
    pass


# ---------------------------------------------------------------------------
# Term nodes

# Print levels, loosest first; an operand below its slot's level is parenthesised.
_LEVEL_INFIX = 1
_LEVEL_PREFIX = 2
_LEVEL_POSTFIX = 3
_LEVEL_ATOM = 4


@dataclass(frozen=True)
class Term:
    """A formula node.  Each node class states its facts once: ``op`` names the
    model operation or constant it denotes, ``sig`` the one signature it
    belongs to (None: both), and ``level``/``symbol`` its print form.  The
    connective classes add only these attributes to ``Term``, ``Binary`` or
    ``Unary`` and inherit their dataclass methods; ``__eq__`` compares the
    exact class."""

    __slots__ = ()
    sig = None
    level = _LEVEL_ATOM

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Var(Term):
    name: str
    op = "var"


class Const0(Term):
    op, sig, symbol = "zero", Sig.MV, "0"


class Const1(Term):
    op, symbol = "one", "1"


@dataclass(frozen=True)
class Binary(Term):
    left: Term
    right: Term
    level = _LEVEL_INFIX
    # least levels of the left and right operand: (+) groups to the left
    operand_levels = (_LEVEL_INFIX, _LEVEL_INFIX + 1)


@dataclass(frozen=True)
class Unary(Term):
    arg: Term


class OPlus(Binary):
    op, sig, symbol = "oplus", Sig.MV, "(+)"


class Impl(Binary):
    op, sig, symbol = "impl", Sig.W, "->"
    operand_levels = (_LEVEL_INFIX + 1, _LEVEL_INFIX)


class UMinus(Unary):
    op, sig, level, symbol = "uminus", Sig.MV, _LEVEL_PREFIX, "-"


class Neg(Unary):
    op, sig, level, symbol = "wneg", Sig.W, _LEVEL_PREFIX, "~"


class PosPart(Unary):
    op, level, symbol = "pos", _LEVEL_POSTFIX, "^+"


class NegPart(Unary):
    op, level, symbol = "npart", _LEVEL_POSTFIX, "^-"


ZERO = Const0()
ONE = Const1()

# Constructor tags accepted by count_connective: each class's op, and "neg".
CONNECTIVES = {
    c.op: c for c in (Var, Const0, Const1, OPlus, UMinus, Impl, Neg, PosPart, NegPart)
}
CONNECTIVES["neg"] = Neg


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Binary):
        return (t.left, t.right)
    if isinstance(t, Unary):
        return (t.arg,)
    return ()


def rebuild(t: Term, new_children: tuple[Term, ...]) -> Term:
    return type(t)(*new_children) if new_children else t


def subterms(t: Term) -> Iterator[Term]:
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(reversed(children(s)))


def variables(t: Term) -> tuple[str, ...]:
    """Variable names in order of first occurrence."""
    return tuple(dict.fromkeys(s.name for s in subterms(t) if isinstance(s, Var)))


def count_connective(t: Term, tag: str | type) -> int:
    cls = CONNECTIVES[tag] if isinstance(tag, str) else tag
    return sum(1 for s in subterms(t) if isinstance(s, cls))


def check_signature(t: Term, sig: Sig) -> None:
    for s in subterms(t):
        if s.sig is not None and s.sig is not sig:
            raise SignatureError(
                f"connective {type(s).__name__} is not part of the "
                f"{sig.value.upper()}-STAR language"
            )


def is_regular(t: Term) -> bool:
    """False exactly for a (possibly empty) stack of unary minus/negation over a variable."""
    while isinstance(t, (Neg, UMinus)):
        t = t.arg
    return not isinstance(t, Var)


# ---------------------------------------------------------------------------
# Join sugar and abbreviation expansion


def join_term(x: Term, y: Term, sig: Sig) -> Term:
    """The lattice join as a term with primitive ``^+`` / ``^-`` parts."""
    if sig is Sig.MV:
        # (x^+ (+) (-x^+ (+) y^+)^+) (+) (x^- (+) (-x^- (+) y^-)^+)
        xp, yp, xn, yn = PosPart(x), PosPart(y), NegPart(x), NegPart(y)
        return OPlus(
            OPlus(xp, PosPart(OPlus(UMinus(xp), yp))),
            OPlus(xn, PosPart(OPlus(UMinus(xn), yn))),
        )
    # ((x^+ -> y^+)^+ -> (~x)^-) -> ((y^- -> x^-)^- -> x^-)
    xp, yp, xn, yn = PosPart(x), PosPart(y), NegPart(x), NegPart(y)
    return Impl(
        Impl(PosPart(Impl(xp, yp)), NegPart(Neg(x))),
        Impl(NegPart(Impl(yn, xn)), xn),
    )


def expand_abbreviations(t: Term, sig: Sig) -> Term:
    """Rewrite ``^+`` / ``^-`` into the defining terms that are valid in strong
    algebras: (x->1)->1 resp. 1(+)(-1(+)x) and duals."""
    check_signature(t, sig)
    return _expand(t, sig)


# The recursive helpers below are module-level functions, not nested closures:
# a closure that calls itself sits in a reference cycle, so every call would
# leave garbage for the cyclic collector.
def _expand(s: Term, sig: Sig) -> Term:
    s = rebuild(s, tuple(_expand(c, sig) for c in children(s)))
    if isinstance(s, PosPart):
        if sig is Sig.W:
            return Impl(Impl(s.arg, ONE), ONE)
        return OPlus(ONE, OPlus(UMinus(ONE), s.arg))
    if isinstance(s, NegPart):
        if sig is Sig.W:
            return Impl(Impl(s.arg, Neg(ONE)), Neg(ONE))
        return OPlus(UMinus(ONE), OPlus(ONE, s.arg))
    return s


# ---------------------------------------------------------------------------
# Term equivalence of the two signatures


def mv_to_w_term(t: Term) -> Term:
    """Rewrite an additive-signature term into the implicational signature."""
    check_signature(t, Sig.MV)
    return _mv_to_w(t)


def _mv_to_w(s: Term) -> Term:
    if isinstance(s, OPlus):
        return Impl(Neg(_mv_to_w(s.left)), _mv_to_w(s.right))
    if isinstance(s, UMinus):
        return Neg(_mv_to_w(s.arg))
    if isinstance(s, Const0):
        return Impl(ONE, ONE)
    return rebuild(s, tuple(_mv_to_w(c) for c in children(s)))


def w_to_mv_term(t: Term) -> Term:
    """Rewrite an implicational-signature term into the additive signature."""
    check_signature(t, Sig.W)
    return _w_to_mv(t)


def _w_to_mv(s: Term) -> Term:
    if isinstance(s, Impl):
        return OPlus(UMinus(_w_to_mv(s.left)), _w_to_mv(s.right))
    if isinstance(s, Neg):
        return UMinus(_w_to_mv(s.arg))
    return rebuild(s, tuple(_w_to_mv(c) for c in children(s)))


# ---------------------------------------------------------------------------
# Parser

# variable names
IDENT = re.compile(r"[a-z][a-z0-9_]*")

_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<oplus>\(\+\))
      | (?P<iff><->)
      | (?P<arrow>->)
      | (?P<pospart>\^\+)
      | (?P<negpart>\^-)
      | (?P<join>\\/)
      | (?P<minus>-)
      | (?P<tilde>~)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<zero>0)
      | (?P<one>1)
      | (?P<ident>{IDENT.pattern})
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Sig, allow_iff: bool):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.allow_iff = allow_iff
        self.i = 0

    def allow(self, cls: type[Term]) -> None:
        if cls.sig is not None and cls.sig is not self.sig:
            raise SignatureError(
                f"'{cls.symbol}' is not part of the {self.sig.value.upper()}-STAR language"
            )

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # precedence, loosest first: <->, (-> | (+)), \/, prefix, postfix, atom

    def parse_iff(self) -> tuple[Term, ...]:
        lhs = self.parse_infix()
        if self.peek()[0] == "iff":
            tok = self.next()
            if not self.allow_iff:
                raise ParseError("'<->' is not allowed here", tok[2])
            if self.sig is not Sig.W:
                raise SignatureError("'<->' belongs to the W-STAR language")
            rhs = self.parse_infix()
            return (Impl(lhs, rhs), Impl(rhs, lhs))
        return (lhs,)

    def parse_infix(self) -> Term:
        lhs = self.parse_join()
        if self.peek()[0] == "arrow":
            self.allow(Impl)
            self.next()
            return Impl(lhs, self.parse_infix())
        while self.peek()[0] == "oplus":
            self.allow(OPlus)
            self.next()
            lhs = OPlus(lhs, self.parse_join())
        return lhs

    def parse_join(self) -> Term:
        t = self.parse_prefix()
        while self.peek()[0] == "join":
            self.next()
            t = join_term(t, self.parse_prefix(), self.sig)
        return t

    def parse_prefix(self) -> Term:
        kind = self.peek()[0]
        if kind == "minus":
            self.allow(UMinus)
            self.next()
            return UMinus(self.parse_prefix())
        if kind == "tilde":
            self.allow(Neg)
            self.next()
            return Neg(self.parse_prefix())
        return self.parse_postfix()

    def parse_postfix(self) -> Term:
        t = self.parse_atom()
        while True:
            kind = self.peek()[0]
            if kind == "pospart":
                self.next()
                t = PosPart(t)
            elif kind == "negpart":
                self.next()
                t = NegPart(t)
            else:
                return t

    def parse_atom(self) -> Term:
        kind, text, pos = self.next()
        if kind == "ident":
            return Var(text)
        if kind == "zero":
            self.allow(Const0)
            return ZERO
        if kind == "one":
            return ONE
        if kind == "lpar":
            inner = self.parse_infix()
            self.expect("rpar")
            return inner
        raise ParseError(f"expected a formula, found {text!r}", pos)


def parse(text: str, sig: Sig) -> Term:
    """Parse ``text`` as a single formula of the given signature."""
    p = _Parser(text, sig, allow_iff=False)
    terms = p.parse_iff()
    p.expect("eof")
    return terms[0]


def parse_iff(text: str, sig: Sig = Sig.W) -> tuple[Term, ...]:
    """Parse a formula that may carry a topmost ``<->``.

    Returns a 1-tuple for plain formulas and the pair of implications
    (forward, backward) if ``<->`` is present.
    """
    p = _Parser(text, sig, allow_iff=True)
    terms = p.parse_iff()
    p.expect("eof")
    return terms


# ---------------------------------------------------------------------------
# Printer

def _paren(s: Term, minimum: int) -> str:
    text = print_term(s)
    if s.level < minimum:
        return f"({text})"
    return text


def print_term(s: Term) -> str:
    """Render ``s`` with minimal parentheses; ``parse(print_term(s))`` is ``s``."""
    if isinstance(s, Binary):
        left, right = s.operand_levels
        return f"{_paren(s.left, left)} {s.symbol} {_paren(s.right, right)}"
    if isinstance(s, Unary):
        arg = _paren(s.arg, s.level)
        return s.symbol + arg if s.level == _LEVEL_PREFIX else arg + s.symbol
    if isinstance(s, Var):
        return s.name
    return s.symbol


# ---------------------------------------------------------------------------
# One-sided schema matching


def match_schema(
    pattern: Term, ground: Term, bindings: dict[str, Term] | None = None
) -> dict[str, Term] | None:
    """Match ``ground`` against ``pattern``; repeated metavariables must agree.

    Returns the (unique) assignment or None.  Matching is one-sided: variables
    occurring in ``ground`` are treated as ordinary constants.
    """
    out = dict(bindings) if bindings else {}
    return out if _match(pattern, ground, out) else None


def _match(pat: Term, g: Term, out: dict[str, Term]) -> bool:
    if isinstance(pat, Var):
        bound = out.get(pat.name)
        if bound is None:
            out[pat.name] = g
            return True
        return bound == g
    if type(pat) is not type(g):
        return False
    return all(_match(pc, gc, out) for pc, gc in zip(children(pat), children(g)))


def substitute(pattern: Term, assignment: dict[str, Term], sig: Sig | None = None) -> Term:
    """Homomorphic replacement of the pattern's metavariables."""
    if sig is not None:
        for name, image in assignment.items():
            check_signature(image, sig)
    result = _substitute(pattern, assignment)
    if sig is not None:
        check_signature(result, sig)
    return result


def _substitute(s: Term, assignment: dict[str, Term]) -> Term:
    if isinstance(s, Var):
        try:
            return assignment[s.name]
        except KeyError:
            raise MissingBinding(f"no binding for metavariable {s.name!r}") from None
    return rebuild(s, tuple(_substitute(c, assignment) for c in children(s)))
