"""Equational axiom batteries for both signatures.

Each battery is a list of named equations over terms.  The *quasi* batteries
use the primitive part operations ``^+`` / ``^-``; the *star* batteries are
the corresponding laws of the plain (non-quasi) algebras, with the parts and
the join written out via their defining terms, so a model in the quasi
signature is a plain MV*- / Wajsberg*-algebra exactly when its reduct passes
the star battery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .syntax import Sig, Term, expand_abbreviations, parse


@dataclass(frozen=True)
class Equation:
    name: str
    sig: Sig
    lhs: Term
    rhs: Term


@cache
def _eqs(sig: Sig, pairs: tuple[tuple[str, str, str], ...],
         expand: bool = False) -> tuple[Equation, ...]:
    """The battery ``pairs`` parsed, once per signature; the public functions
    hand out fresh lists of these shared, frozen equations."""
    out = []
    for name, lhs, rhs in pairs:
        left, right = parse(lhs, sig), parse(rhs, sig)
        if expand:
            left = expand_abbreviations(left, sig)
            right = expand_abbreviations(right, sig)
        out.append(Equation(name, sig, left, right))
    return tuple(out)


_MV_QUASI = (
    ("QMV*1", "x (+) y", "y (+) x"),
    ("QMV*2", "(1 (+) x) (+) (y (+) (1 (+) z))", "((1 (+) x) (+) y) (+) (1 (+) z)"),
    ("QMV*3", "(x (+) 1) (+) 1", "1"),
    ("QMV*4", "(x (+) y) (+) 0", "x (+) y"),
    ("QMV*5a", "x^+ (+) 0", "(x (+) 0)^+"),
    ("QMV*5b", "(x (+) 0)^+", "1 (+) (-1 (+) x)"),
    ("QMV*5c", "x^- (+) 0", "(x (+) 0)^-"),
    ("QMV*5d", "(x (+) 0)^-", "-1 (+) (1 (+) x)"),
    ("QMV*6", "x (+) y", "(x^+ (+) y^+) (+) (x^- (+) y^-)"),
    ("QMV*7", "0", "-0"),
    ("QMV*8", "x (+) -x", "0"),
    ("QMV*9", "-(x (+) y)", "-x (+) -y"),
    ("QMV*10", "-(-x)", "x"),
    ("QMV*11", "(-x (+) (x (+) y))^+", "-x^+ (+) (x^+ (+) y^+)"),
    ("QMV*12", "x \\/ y", "y \\/ x"),
    ("QMV*13", "x \\/ (y \\/ z)", "(x \\/ y) \\/ z"),
    ("QMV*14", "x (+) (y \\/ z)", "(x (+) y) \\/ (x (+) z)"),
)

_MV_STRONG = (
    ("strong+", "x^+", "x^+ (+) 0"),
    ("strong-", "x^-", "x^- (+) 0"),
)

_MV_STAR = (
    ("MV*1", "x (+) y", "y (+) x"),
    ("MV*2", "(1 (+) x) (+) (y (+) (1 (+) z))", "((1 (+) x) (+) y) (+) (1 (+) z)"),
    ("MV*3", "x (+) -x", "0"),
    ("MV*4", "(x (+) 1) (+) 1", "1"),
    ("MV*5", "x (+) 0", "x"),
    ("MV*6", "-(x (+) y)", "-x (+) -y"),
    ("MV*7", "-(-x)", "x"),
    ("MV*8", "x (+) y", "(x^+ (+) y^+) (+) (x^- (+) y^-)"),
    ("MV*9", "(-x (+) (x (+) y))^+", "-x^+ (+) (x^+ (+) y^+)"),
    ("MV*10", "x \\/ y", "y \\/ x"),
    ("MV*11", "x \\/ (y \\/ z)", "(x \\/ y) \\/ z"),
    ("MV*12", "x (+) (y \\/ z)", "(x (+) y) \\/ (x (+) z)"),
)

_W_QUASI = (
    ("QW*1", "x -> y", "~y -> ~x"),
    ("QW*2", "(x -> 1) -> ((y -> 1) -> z)", "(y -> 1) -> ((x -> 1) -> z)"),
    ("QW*3", "(1 -> x) -> 1", "1"),
    ("QW*4", "(z -> z) -> (x -> y)", "x -> y"),
    ("QW*5a", "(1 -> 1) -> x^+", "((1 -> 1) -> x)^+"),
    ("QW*5b", "((1 -> 1) -> x)^+", "(x -> 1) -> 1"),
    ("QW*5c", "(1 -> 1) -> x^-", "((1 -> 1) -> x)^-"),
    ("QW*5d", "((1 -> 1) -> x)^-", "(x -> ~1) -> ~1"),
    ("QW*6", "x -> y", "(y^+ -> x^-) -> (x^+ -> y^-)"),
    ("QW*7", "~(x -> y)", "y -> x"),
    ("QW*8", "~(~x)", "x"),
    ("QW*9", "(x -> (~x -> y))^+", "x^+ -> (~x^+ -> y^+)"),
    ("QW*10", "x \\/ y", "y \\/ x"),
    ("QW*11", "x \\/ (y \\/ z)", "(x \\/ y) \\/ z"),
    ("QW*12", "x -> (y \\/ z)", "(x -> y) \\/ (x -> z)"),
)

_W_STRONG = (
    ("strongW+", "x^+", "(1 -> 1) -> x^+"),
    ("strongW-", "x^-", "(1 -> 1) -> x^-"),
)

_W_STAR = (
    ("W*1", "x -> y", "~y -> ~x"),
    ("W*2", "(x -> 1) -> ((y -> 1) -> z)", "(y -> 1) -> ((x -> 1) -> z)"),
    ("W*3", "(1 -> x) -> 1", "1"),
    ("W*4", "(y -> y) -> x", "x"),
    ("W*5", "x -> y", "(y^+ -> x^-) -> (x^+ -> y^-)"),
    ("W*6", "~(x -> y)", "y -> x"),
    ("W*7", "~(~x)", "x"),
    ("W*8", "(x -> (~x -> y))^+", "x^+ -> (~x^+ -> y^+)"),
    ("W*9", "x \\/ y", "y \\/ x"),
    ("W*10", "x \\/ (y \\/ z)", "(x \\/ y) \\/ z"),
    ("W*11", "x -> (y \\/ z)", "(x -> y) \\/ (x -> z)"),
)


def quasi_axioms(sig: Sig) -> list[Equation]:
    """The defining equations of the quasi variety for ``sig``."""
    if sig is Sig.MV:
        return list(_eqs(Sig.MV, _MV_QUASI))
    return list(_eqs(Sig.W, _W_QUASI))


def strong_axioms(sig: Sig) -> list[Equation]:
    """The two equations singling out the strong subvariety."""
    if sig is Sig.MV:
        return list(_eqs(Sig.MV, _MV_STRONG))
    return list(_eqs(Sig.W, _W_STRONG))


def flat_equation(sig: Sig) -> Equation:
    if sig is Sig.MV:
        return _eqs(Sig.MV, (("flat", "0", "1"),))[0]
    return _eqs(Sig.W, (("flatW", "1 -> 1", "1"),))[0]


def star_axioms(sig: Sig) -> list[Equation]:
    """The plain-variety laws, with parts and join expanded to defined terms."""
    if sig is Sig.MV:
        return list(_eqs(Sig.MV, _MV_STAR, expand=True))
    return list(_eqs(Sig.W, _W_STAR, expand=True))


def audit_battery(sig: Sig) -> list[Equation]:
    """Everything the axiom audit must find valid in a strong model."""
    return quasi_axioms(sig) + strong_axioms(sig)
