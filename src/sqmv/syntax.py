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
import threading
import weakref
from functools import partial
from _weakref import _remove_dead_weakref
from itertools import compress


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

# Print and parse levels, loosest first; an operand below its slot's level is
# parenthesised.  The join sugar \/ has a level but no node class.
_LEVEL_INFIX = 1
_LEVEL_JOIN = 2
_LEVEL_PREFIX = 3
_LEVEL_POSTFIX = 4
_LEVEL_ATOM = 5


class _Ref(weakref.ref):
    __slots__ = ("key",)  # of its node in ``_TABLE``

    def drop(self) -> None:  # its node's death callback: a live successor keeps the entry
        _remove_dead_weakref(_TABLE, self.key)


# A weak reference to every live node by (class, *fields); an entry goes when its node dies.
_TABLE: dict[tuple, _Ref] = {}
_LOCK = threading.Lock()
_BOTH = "both"  # the signature needed by a term with connectives of both languages


class Term:
    """A formula node, interned and immutable: equal terms are one node, so
    ``==`` is ``is``.  Each node class states its facts once: ``op`` names the
    model operation or constant it denotes, ``sig`` the one signature it
    belongs to (None: both), ``level``/``symbol`` its print and parse form.  A
    node records the signature its tree needs (``_needs``: None, a ``Sig`` or
    ``_BOTH``) and whether its tree holds a part (``_parts``)."""

    __slots__ = ("_needs", "_parts", "__weakref__")
    _fields: tuple[str, ...] = ()
    sig = None
    level = _LEVEL_ATOM

    def __new__(cls, *fields) -> Term:
        key = (cls, *fields)
        if (ref := _TABLE.get(key)) is None or (node := ref()) is None:
            with _LOCK:  # look again: another thread may have stored the node
                if (ref := _TABLE.get(key)) is None or (node := ref()) is None:
                    node = _make(cls, fields)
                    ref = _TABLE[key] = _Ref(node, _Ref.drop)
                    ref.key = key
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        return joined(fold(self, _repr, {}))

    def __str__(self) -> str:
        return print_term(self)


def _make(cls: type, fields: tuple) -> Term:
    if len(fields) != len(cls._fields):
        raise TypeError(f"{cls.__name__} takes {len(cls._fields)} operands, not {len(fields)}")
    node = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        object.__setattr__(node, name, value)
    needs, parts = cls.sig, cls in (PosPart, NegPart)
    for c in children(node):
        if c._needs not in (None, needs):
            needs = c._needs if needs is None else _BOTH
        parts = parts or c._parts
    object.__setattr__(node, "_needs", needs)
    object.__setattr__(node, "_parts", parts)
    return node


class Var(Term):
    __slots__ = _fields = ("name",)
    op = "var"


class Const0(Term):
    __slots__, op, sig, symbol = (), "zero", Sig.MV, "0"


class Const1(Term):
    __slots__, op, symbol = (), "one", "1"


class Binary(Term):
    __slots__ = _fields = ("left", "right")
    level = _LEVEL_INFIX
    # least levels of the left and right operand: (+) groups to the left
    operand_levels = (_LEVEL_INFIX, _LEVEL_INFIX + 1)


class Unary(Term):
    __slots__ = _fields = ("arg",)


class OPlus(Binary):
    __slots__, op, sig, symbol = (), "oplus", Sig.MV, "(+)"


class Impl(Binary):
    __slots__, op, sig, symbol = (), "impl", Sig.W, "->"
    operand_levels = (_LEVEL_INFIX + 1, _LEVEL_INFIX)


class UMinus(Unary):
    __slots__, op, sig, level, symbol = (), "uminus", Sig.MV, _LEVEL_PREFIX, "-"


class Neg(Unary):
    __slots__, op, sig, level, symbol = (), "wneg", Sig.W, _LEVEL_PREFIX, "~"


class PosPart(Unary):
    __slots__, op, level, symbol = (), "pos", _LEVEL_POSTFIX, "^+"


class NegPart(Unary):
    __slots__, op, level, symbol = (), "npart", _LEVEL_POSTFIX, "^-"


_NODES = (Var, Const0, Const1, OPlus, UMinus, Impl, Neg, PosPart, NegPart)

# Constructor tags accepted by count_connective: each class's op, and "neg".
CONNECTIVES = {c.op: c for c in _NODES}
CONNECTIVES["neg"] = Neg


def children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, Binary):
        return (t.left, t.right)
    if isinstance(t, Unary):
        return (t.arg,)
    return ()


def rebuild(t: Term, new_children: tuple[Term, ...]) -> Term:
    """``t`` with ``new_children``; ``t`` itself when no child changed."""
    return t if new_children == children(t) else type(t)(*new_children)


def fold(t: Term, f, memo: dict):
    """``f(t, the values of t's children)``, bottom-up once per distinct node,
    children left to right (so leaves in preorder); ``memo`` keeps each value,
    in the order the nodes are folded, and may be seeded.  An explicit stack
    holds a node as ``(node, its children)`` above its children, and folds it
    once they have values, so a term of any depth folds."""
    if t in memo:
        return memo[t]
    stack = [t]
    pop, push, extend = stack.pop, stack.append, stack.extend
    value, kids_of = memo.__getitem__, children
    while stack:
        s = pop()
        if type(s) is tuple:  # (node, children) once the children have values
            s, kids = s
            memo[s] = f(s, tuple(map(value, kids)))
        elif s not in memo:
            if kids := kids_of(s):
                push((s, kids))
                extend(reversed(kids))
            else:
                memo[s] = f(s, ())
    return memo[t]


def _repr(t: Term, kids: tuple) -> tuple:
    """``repr(t)`` in pieces over its children's (see ``fold``, ``joined``)."""
    values = kids or [repr(getattr(t, f)) for f in t._fields]
    fields = [(", " if i else "") + f + "=" for i, f in enumerate(t._fields)]
    return (f"{type(t).__name__}(", *(p for pair in zip(fields, values) for p in pair), ")")


def joined(pieces) -> str:
    """``pieces``, a string or a tuple of pieces, written out by an explicit stack."""
    out, stack = [], [pieces]
    while stack:
        if type(p := stack.pop()) is str:
            out.append(p)
        else:
            stack.extend(reversed(p))
    return "".join(out)


ZERO = Const0()
ONE = Const1()


def variables(t: Term) -> tuple[str, ...]:
    """Variable names in order of first occurrence."""
    fold(t, lambda s, kids: None, nodes := {})  # leaves enter the memo in preorder
    return tuple(s.name for s in nodes if type(s) is Var)


def count_connective(t: Term, tag: str | type) -> int:
    """Occurrences of the connective ``tag`` in the tree of ``t``, counted
    once per distinct node: a node's count is its own plus its children's."""
    cls = CONNECTIVES[tag] if isinstance(tag, str) else tag
    return fold(t, lambda s, kids: isinstance(s, cls) + sum(kids), {})


def check_signature(t: Term, sig: Sig) -> None:
    """Raise at the first node of ``t`` in preorder that is foreign to ``sig``:
    from the root, step into the leftmost child whose tree needs a foreign
    connective, until the node itself is foreign."""
    while t._needs not in (None, sig):
        if t.sig not in (None, sig):
            raise SignatureError(
                f"connective {type(t).__name__} is not part of the "
                f"{sig.value.upper()}-STAR language"
            )
        t = next(c for c in children(t) if c._needs not in (None, sig))


def is_regular(t: Term) -> bool:
    """False exactly for a (possibly empty) stack of unary minus/negation over a variable."""
    while isinstance(t, (Neg, UMinus)):
        t = t.arg
    return not isinstance(t, Var)


# ---------------------------------------------------------------------------
# Join sugar and abbreviation expansion


def join_term(x: Term, y: Term, sig: Sig) -> Term:
    """The lattice join as a term with primitive ``^+`` / ``^-`` parts."""
    xp, yp, xn, yn = PosPart(x), PosPart(y), NegPart(x), NegPart(y)
    if sig is Sig.MV:
        # (x^+ (+) (-x^+ (+) y^+)^+) (+) (x^- (+) (-x^- (+) y^-)^+)
        return OPlus(
            OPlus(xp, PosPart(OPlus(UMinus(xp), yp))),
            OPlus(xn, PosPart(OPlus(UMinus(xn), yn))),
        )
    # ((x^+ -> y^+)^+ -> (~x)^-) -> ((y^- -> x^-)^- -> x^-)
    return Impl(
        Impl(PosPart(Impl(xp, yp)), NegPart(Neg(x))),
        Impl(NegPart(Impl(yn, xn)), xn),
    )


# The defining terms of the parts in strong algebras, by signature and class.
_PARTS = {Sig.W: {PosPart: lambda a: Impl(Impl(a, ONE), ONE),
                  NegPart: lambda a: Impl(Impl(a, Neg(ONE)), Neg(ONE))},
          Sig.MV: {PosPart: lambda a: OPlus(ONE, OPlus(UMinus(ONE), a)),
                   NegPart: lambda a: OPlus(UMinus(ONE), OPlus(ONE, a))}}


def expand_abbreviations(t: Term, sig: Sig) -> Term:
    """Rewrite ``^+`` / ``^-`` into the defining terms that are valid in strong
    algebras: (x->1)->1 resp. 1(+)(-1(+)x) and duals.  A term without parts
    is its own expansion."""
    check_signature(t, sig)
    return fold(t, partial(_apply, _PARTS[sig]), {}) if t._parts else t


def _apply(rules: dict, s: Term, kids: tuple[Term, ...]) -> Term:
    """The rule for ``s``'s class applied to the rewritten ``kids``, or else ``s`` over them."""
    rule = rules.get(type(s))
    return rule(*kids) if rule else rebuild(s, kids)


# ---------------------------------------------------------------------------
# Term equivalence of the two signatures

_MV_TO_W = {OPlus: lambda a, b: Impl(Neg(a), b), UMinus: Neg, Const0: lambda: Impl(ONE, ONE)}
_W_TO_MV = {Impl: lambda a, b: OPlus(UMinus(a), b), Neg: UMinus}


def mv_to_w_term(t: Term) -> Term:
    """Rewrite an additive-signature term into the implicational signature."""
    check_signature(t, Sig.MV)
    return fold(t, partial(_apply, _MV_TO_W), {})


def w_to_mv_term(t: Term) -> Term:
    """Rewrite an implicational-signature term into the additive signature."""
    check_signature(t, Sig.W)
    return fold(t, partial(_apply, _W_TO_MV), {})


# ---------------------------------------------------------------------------
# Parser

# variable names
IDENT = re.compile(r"[a-z][a-z0-9_]*")


class _Join:
    """The join ``\\/``, a binary connective of the parser only (see :func:`join_term`)."""

    sig, symbol, level, operand_levels = None, "\\/", _LEVEL_JOIN, (_LEVEL_JOIN, _LEVEL_PREFIX)


_TOKENS = {c.symbol: c for c in (*_NODES, _Join) if c is not Var}
_BINARY = {s: c for s, c in _TOKENS.items() if c.level <= _LEVEL_JOIN}
_PREFIX, _POSTFIX, _ATOMS = ({s: c for s, c in _TOKENS.items() if c.level == level}
                             for level in (_LEVEL_PREFIX, _LEVEL_POSTFIX, _LEVEL_ATOM))
# longest first: "(+)" before "(", "<->" and "->" before "-"
_SYMBOLS = sorted([*_TOKENS, "<->", "(", ")"], key=len, reverse=True)
# after optional whitespace: a symbol or a variable name (group 1), or else one
# stray character, which ``findall`` reads as the empty token
_TOKEN = re.compile(r"\s*(?:(%s|%s)|\S)" % ("|".join(map(re.escape, _SYMBOLS)), IDENT.pattern))


def _start(text: str, k: int) -> int:
    """Where the ``k``-th token from the end of ``text`` starts; the end token,
    ``k == 1``, starts at the end.  Only errors need positions."""
    return [*(m.start(1) for m in _TOKEN.finditer(text)), len(text)][-k]


def _foreign(cls: type, sig: Sig) -> SignatureError:
    return SignatureError(f"'{cls.symbol}' is not part of the {sig.value.upper()}-STAR language")


def _formulas(text: str, sig: Sig, allow_iff: bool, memo: dict | None) -> tuple[Term, ...]:
    """The whole text: one formula, or both implications of a topmost ``<->``."""
    tokens = _TOKEN.findall(text)
    if "" in tokens:  # a stray character is the error, wherever it stands
        m = next(m for m in _TOKEN.finditer(text) if m.lastindex is None)
        raise ParseError(f"unexpected character {text[m.end() - 1]!r}", m.end() - 1)
    tokens.append("")  # the end token
    tokens.reverse()  # the next token is the last, so that reading it is ``pop``
    groups = None if memo is None else (memo, _groups(tokens))
    t = _formula(text, tokens, _LEVEL_INFIX, sig, groups)
    terms = (t,)
    if tokens[-1] == "<->":
        if not allow_iff:
            raise ParseError("'<->' is not allowed here", _start(text, len(tokens)))
        if sig is not Sig.W:
            raise SignatureError("'<->' belongs to the W-STAR language")
        tokens.pop()
        rhs = _formula(text, tokens, _LEVEL_INFIX, sig, groups)
        terms = (Impl(t, rhs), Impl(rhs, t))
    if tokens[-1]:
        raise ParseError(f"expected 'eof', found {tokens[-1]!r}", _start(text, len(tokens)))
    return terms


def _groups(tokens: list[str]) -> dict[int, int]:
    """Where each matched ``(`` of the reversed ``tokens`` stands -> where its ``)`` does."""
    match, closes = {}, []
    for i in compress(range(len(tokens)), map(("(", ")").__contains__, tokens)):
        if tokens[i] == ")":
            closes.append(i)
        elif closes:
            match[i] = closes.pop()
    return match


def _formula(text: str, tokens: list[str], least: int, sig: Sig, groups: tuple | None) -> Term:
    """Read from the reversed ``tokens`` the formula whose connectives outside
    parentheses have level ``least`` or more: a run of prefix connectives, one
    atom, a run of postfix connectives, then each binary connective and its
    right operand.  It recurses once per parenthesis and once per right operand.
    ``groups`` is None, or a memo from each group read (its tokens from ``)`` back
    to just after ``(``) to its node, and ``_groups(tokens)``."""
    prefixes = []
    while (cls := _PREFIX.get(tok := tokens.pop())) is not None:
        if cls.sig not in (None, sig):
            raise _foreign(cls, sig)
        prefixes.append(cls)
    if tok == "(":
        end = groups[1].get(len(tokens)) if groups else None
        if (end is not None and (t := groups[0].get(key := tuple(tokens[end:]))) is not None
                and t._needs in (None, sig)):
            del tokens[end:]
        else:
            t = _formula(text, tokens, _LEVEL_INFIX, sig, groups)
            if (tok := tokens.pop()) != ")":
                raise ParseError(f"expected 'rpar', found {tok!r}", _start(text, len(tokens) + 1))
            if end is not None:
                groups[0][key] = t
    elif tok.isidentifier():  # of all tokens, only variable names are
        t = Var(tok)
    elif (cls := _ATOMS.get(tok)) is not None:
        if cls.sig not in (None, sig):
            raise _foreign(cls, sig)
        t = cls()
    else:
        raise ParseError(f"expected a formula, found {tok!r}", _start(text, len(tokens) + 1))
    while (cls := _POSTFIX.get(tokens[-1])) is not None:
        tokens.pop()
        t = cls(t)
    for cls in reversed(prefixes):
        t = cls(t)
    level = _LEVEL_PREFIX  # of t
    while ((cls := _BINARY.get(tokens[-1])) is not None and cls.level >= least
           and level >= cls.operand_levels[0]):
        if cls.sig not in (None, sig):
            raise _foreign(cls, sig)
        tokens.pop()
        right = _formula(text, tokens, cls.operand_levels[1], sig, groups)
        t = join_term(t, right, sig) if cls is _Join else cls(t, right)
        level = cls.level
    return t


def parse(text: str, sig: Sig, memo: dict | None = None) -> Term:
    """Parse ``text`` as a single formula of the given signature.  Calls that
    share a ``memo`` dict read each parenthesised group once; a stored group
    whose node needs the other signature is read afresh."""
    return _formulas(text, sig, False, memo)[0]


def parse_iff(text: str, sig: Sig = Sig.W) -> tuple[Term, ...]:
    """Parse a formula that may carry a topmost ``<->``.

    Returns a 1-tuple for plain formulas and the pair of implications
    (forward, backward) if ``<->`` is present.
    """
    return _formulas(text, sig, True, None)


# ---------------------------------------------------------------------------
# Printer

def print_term(t: Term) -> str:
    """Render ``t`` with minimal parentheses; ``parse(print_term(t))`` is ``t``."""
    return fold(t, _print, {})


def _print(s: Term, texts: tuple[str, ...]) -> str:
    """``s`` over its operands' ``texts``, each in parentheses when the operand
    is below its slot's level."""
    if isinstance(s, Binary):
        (left, right), (left_level, right_level) = texts, s.operand_levels
        left = left if s.left.level >= left_level else f"({left})"
        right = right if s.right.level >= right_level else f"({right})"
        return f"{left} {s.symbol} {right}"
    if isinstance(s, Unary):
        arg = texts[0] if s.arg.level >= s.level else f"({texts[0]})"
        return s.symbol + arg if s.level == _LEVEL_PREFIX else arg + s.symbol
    return s.name if type(s) is Var else s.symbol


# ---------------------------------------------------------------------------
# One-sided schema matching


def kept(store: dict, key: tuple, objects, make, *args):
    """``make(*args)``, made once and kept in ``store`` under ``key`` (the ids
    of ``objects``, and perhaps more) for as long as all of ``objects`` live;
    the death of one drops the entry, so an id is never reused in a key."""
    if (entry := store.get(key)) is None:
        drop = lambda ref: store.pop(key, None)  # noqa: E731
        entry = store[key] = (make(*args), [weakref.ref(s, drop) for s in objects])
    return entry[0]


# The matcher of each tuple of patterns that are all alive, by their ids.
_MATCHERS: dict[tuple, tuple] = {}


def matcher(patterns: tuple[Term, ...]):
    """The matcher of ``patterns``, made once for as long as they live: a
    function of one ground per pattern that matches all under one assignment
    and returns the images of the metavariables in its ``names`` (in preorder,
    the patterns in turn), or None.  Variables of a ground are constants."""
    return kept(_MATCHERS, tuple(map(id, patterns)), patterns, _generate, patterns)


def _generate(patterns: tuple[Term, ...]):
    """The matcher's code: one type check and field load per distinct pattern
    node, in preorder, in one ``or`` chain; as terms are interned, a node's
    later images must be its first (``is``).  Only generated names (``g<i>``,
    ``n<k>``) and node class names enter the source."""
    grounds = [f"g{i}" for i in range(len(patterns))]
    image, namespace, names, images, fails = {}, {}, [], [], []
    stack = list(zip(reversed(patterns), reversed(grounds)))  # (node, its image) in preorder
    while stack:
        s, ground = stack.pop()
        if (first := image.get(s)) is not None:
            fails.append(f"{ground} is not {first}")
            continue
        if type(s) is Var:  # any image: no check, and no local
            names.append(s.name)
            images.append(ground + ", ")
        else:
            load, cls = ground, namespace.setdefault(type(s).__name__, type(s))
            if "." in ground:  # a field load, kept in a local
                ground = f"n{len(image)}"
                load = f"({ground} := {load})"
            fails.append(f"type({load}) is not {cls.__name__}")
            stack.extend((getattr(s, f), f"{ground}.{f}") for f in reversed(s._fields))
        image[s] = ground
    test = " if ({}): return None\n".format("\n  or ".join(fails)) if fails else ""
    exec(f"def match({', '.join(grounds)}):\n{test} return ({''.join(images)})", namespace)
    match = namespace.pop("match")  # so that no reference cycle goes through the namespace
    match.names = tuple(names)
    return match


def match_schema(
    pattern: Term, ground: Term, bindings: dict[str, Term] | None = None
) -> dict[str, Term] | None:
    """Match ``ground`` against ``pattern``; repeated metavariables must agree,
    and with those of ``bindings``.

    Returns the (unique) assignment or None.  Matching is one-sided: variables
    occurring in ``ground`` are treated as ordinary constants.
    """
    match = matcher((pattern,))
    if (images := match(ground)) is None:
        return None
    out = dict(bindings) if bindings else {}
    for name, image in zip(match.names, images):
        if out.setdefault(name, image) is not image:
            return None
    return out


def substitute(pattern: Term, assignment: dict[str, Term], sig: Sig | None = None) -> Term:
    """Homomorphic replacement of the pattern's metavariables."""
    if sig is not None:
        for name, image in assignment.items():
            check_signature(image, sig)
    images = {Var(name): image for name, image in assignment.items()}
    result = fold(pattern, rebuild, images)  # an unbound metavariable is its own image
    if unbound := [s.name for s in images if type(s) is Var and s.name not in assignment]:
        raise MissingBinding(f"no binding for metavariable {unbound[0]!r}")  # preorder first
    if sig is not None:
        check_signature(result, sig)
    return result
