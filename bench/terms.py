"""A small term toolkit of the benchmark's own, written from the README's
grammar and the models' defining formulas, independent of sqmv.

The benchmark generates its inputs with it and derives the expected answers
from it, so that no verdict is checked against sqmv's own output.

Terms are tuples: ``("var", name)``, ``("0",)``, ``("1",)``, or an operator
tag followed by its children: ``oplus``, ``uminus`` (additive signature),
``impl``, ``neg`` (implicational signature), ``pos``, ``npart`` (both).
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = ("0",)
ONE = ("1",)

F0, F1 = Fraction(0), Fraction(1)


def var(name: str) -> tuple:
    return ("var", name)


def size(t: tuple) -> int:
    return 1 + sum(size(c) for c in t[1:] if isinstance(c, tuple))


def variables(t: tuple) -> set[str]:
    if t[0] == "var":
        return {t[1]}
    return set().union(*[variables(c) for c in t[1:]]) if len(t) > 1 else set()


# ---------------------------------------------------------------------------
# Generation


def random_term(rng, sig: str, max_depth: int, var_names=("x", "y", "z"),
                allow_parts: bool = True) -> tuple:
    """Seeded random term, the same shape distribution as the test suite's."""
    if max_depth <= 0 or rng.random() < 0.25:
        choices = [var(n) for n in var_names] + [ONE]
        if sig == "mv":
            choices.append(ZERO)
        return rng.choice(choices)
    kinds = ["bin", "un", "bin"] + (["pos", "npart"] if allow_parts else [])
    kind = rng.choice(kinds)
    if kind == "bin":
        a = random_term(rng, sig, max_depth - 1, var_names, allow_parts)
        b = random_term(rng, sig, max_depth - 1, var_names, allow_parts)
        return ("oplus" if sig == "mv" else "impl", a, b)
    arg = random_term(rng, sig, max_depth - 1, var_names, allow_parts)
    if kind == "un":
        return ("uminus" if sig == "mv" else "neg", arg)
    return (kind, arg)


def random_sum(rng, leaves: list[tuple]) -> tuple:
    """A random binary (+)-tree over ``leaves`` in the given order."""
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return ("oplus", random_sum(rng, leaves[:cut]), random_sum(rng, leaves[cut:]))


def mirror(rng, t: tuple) -> tuple:
    """Swap the operands of random (+) nodes: equal to ``t`` by commutativity."""
    if t[0] != "oplus":
        return t
    a, b = mirror(rng, t[1]), mirror(rng, t[2])
    return ("oplus", b, a) if rng.random() < 0.5 else ("oplus", a, b)


# ---------------------------------------------------------------------------
# Printing (minimal parentheses, as the README's grammar fixes them)

_LEVEL = {"oplus": 1, "impl": 1, "uminus": 2, "neg": 2, "pos": 3, "npart": 3}


def _wrap(t: tuple, minimum: int) -> str:
    s = text(t)
    return f"({s})" if _LEVEL.get(t[0], 4) < minimum else s


def text(t: tuple) -> str:
    op = t[0]
    if op == "var":
        return t[1]
    if op in ("0", "1"):
        return op
    if op == "oplus":  # left associative
        return f"{_wrap(t[1], 1)} (+) {_wrap(t[2], 2)}"
    if op == "impl":  # right associative
        return f"{_wrap(t[1], 2)} -> {_wrap(t[2], 1)}"
    if op == "uminus":
        return "-" + _wrap(t[1], 2)
    if op == "neg":
        return "~" + _wrap(t[1], 2)
    return _wrap(t[1], 3) + ("^+" if op == "pos" else "^-")


def loose_text(rng, t: tuple) -> str:
    """``t`` written with redundant parentheses; it reads back as ``t``."""
    op = t[0]
    if op == "var" or op in ("0", "1"):
        s = text(t)
    else:
        parts = [f"({loose_text(rng, c)})" for c in t[1:]]
        if op == "oplus":
            s = f"{parts[0]} (+) {parts[1]}"
        elif op == "impl":
            s = f"{parts[0]} -> {parts[1]}"
        elif op in ("uminus", "neg"):
            s = ("-" if op == "uminus" else "~") + parts[0]
        else:
            s = parts[0] + ("^+" if op == "pos" else "^-")
    return f"({s})" if rng.random() < 0.3 else s


# ---------------------------------------------------------------------------
# Parsing (no join sugar: the packaged proof files do not use it)

_TOKEN = re.compile(r"\s*(\(\+\)|->|\^\+|\^-|[-~()01]|[a-z][a-z0-9_]*)")


def parse(src: str) -> tuple:
    """Parse a formula of either signature."""
    tokens, pos = [], 0
    src = src.strip()
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if not m:
            raise ValueError(f"cannot read {src[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    i = 0

    def infix():
        nonlocal i
        lhs = prefix()
        if tokens[i] == "->":
            i += 1
            return ("impl", lhs, infix())
        while tokens[i] == "(+)":
            i += 1
            lhs = ("oplus", lhs, prefix())
        return lhs

    def prefix():
        nonlocal i
        if tokens[i] in ("-", "~"):
            op = "uminus" if tokens[i] == "-" else "neg"
            i += 1
            return (op, prefix())
        t = atom()
        while tokens[i] in ("^+", "^-"):
            t = ("pos" if tokens[i] == "^+" else "npart", t)
            i += 1
        return t

    def atom():
        nonlocal i
        tok = tokens[i]
        i += 1
        if tok == "(":
            inner = infix()
            if tokens[i] != ")":
                raise ValueError(f"missing ')' in {src!r}")
            i += 1
            return inner
        if tok in ("0", "1"):
            return (tok,)
        if tok and tok[0].isalpha():
            return var(tok)
        raise ValueError(f"unexpected {tok!r} in {src!r}")

    t = infix()
    if tokens[i] != "":
        raise ValueError(f"trailing input in {src!r}")
    return t


# ---------------------------------------------------------------------------
# Rewrites from the definitions


def expand_parts_w(t: tuple) -> tuple:
    """x^+ is (x -> 1) -> 1 and x^- is (x -> ~1) -> ~1 in strong W-algebras."""
    if t[0] in ("var", "0", "1"):
        return t
    t = (t[0],) + tuple(expand_parts_w(c) for c in t[1:])
    if t[0] == "pos":
        return ("impl", ("impl", t[1], ONE), ONE)
    if t[0] == "npart":
        return ("impl", ("impl", t[1], ("neg", ONE)), ("neg", ONE))
    return t


def mv_to_w(t: tuple) -> tuple:
    """x (+) y becomes ~x -> y, -x becomes ~x and 0 becomes 1 -> 1."""
    op = t[0]
    if op == "oplus":
        return ("impl", ("neg", mv_to_w(t[1])), mv_to_w(t[2]))
    if op == "uminus":
        return ("neg", mv_to_w(t[1]))
    if op == "0":
        return ("impl", ONE, ONE)
    if op in ("var", "1"):
        return t
    return (op, mv_to_w(t[1]))


def w_to_mv(t: tuple) -> tuple:
    """x -> y becomes -x (+) y and ~x becomes -x."""
    op = t[0]
    if op == "impl":
        return ("oplus", ("uminus", w_to_mv(t[1])), w_to_mv(t[2]))
    if op == "neg":
        return ("uminus", w_to_mv(t[1]))
    if op in ("var", "0", "1"):
        return t
    return (op, w_to_mv(t[1]))


def is_regular(t: tuple) -> bool:
    """False exactly for a stack of negations over a variable."""
    while t[0] in ("neg", "uminus"):
        t = t[1]
    return t[0] != "var"


# ---------------------------------------------------------------------------
# Evaluation from the defining formulas


def _clamp(x: Fraction) -> Fraction:
    return max(-F1, min(F1, x))


def eval_interval(t: tuple, v: dict) -> Fraction:
    """[-1,1] with truncated addition (also every chain:n), either signature."""
    op = t[0]
    if op == "var":
        return v[t[1]]
    if op == "0":
        return F0
    if op == "1":
        return F1
    a = eval_interval(t[1], v)
    if op == "oplus":
        return _clamp(a + eval_interval(t[2], v))
    if op == "impl":
        return _clamp(eval_interval(t[2], v) - a)
    if op in ("uminus", "neg"):
        return -a
    return max(F0, a) if op == "pos" else min(F0, a)


def eval_chain(t: tuple, v: dict, n: int) -> int:
    """chain:n in the additive signature on numerators: element k stands for
    k/n, and truncated addition clamps to [-n, n]."""
    op = t[0]
    if op == "var":
        return v[t[1]]
    if op == "0":
        return 0
    if op == "1":
        return n
    a = eval_chain(t[1], v, n)
    if op == "oplus":
        return max(-n, min(n, a + eval_chain(t[2], v, n)))
    if op == "uminus":
        return -a
    return max(0, a) if op == "pos" else min(0, a)


def eval_square(t: tuple, v: dict) -> tuple:
    """The square: truncated addition on the first coordinate, the second
    coordinate collapses to 0 under every operation except minus."""
    op = t[0]
    if op == "var":
        return v[t[1]]
    if op == "0":
        return (F0, F0)
    if op == "1":
        return (F1, F0)
    a, b = eval_square(t[1], v)
    if op == "oplus":
        return (_clamp(a + eval_square(t[2], v)[0]), F0)
    if op == "impl":
        return (_clamp(eval_square(t[2], v)[0] - a), F0)
    if op in ("uminus", "neg"):
        return (-a, -b)
    return (max(F0, a) if op == "pos" else min(F0, a), F0)


def label(el) -> str:
    if isinstance(el, tuple):
        return "<" + ",".join(str(c) for c in el) + ">"
    return str(el)


def read_label(s: str):
    s = s.strip()
    if s.startswith("<"):
        return tuple(Fraction(p) for p in s[1:-1].split(","))
    return Fraction(s)
