"""Concrete algebras: standard square/disk/interval models, finite table models,
flattenings, products, congruences, quotients, and the direct-product embedding.

All arithmetic is exact (``fractions.Fraction``); finite models store full
operation tables so that classification can sweep every tuple.  Elements of
pair models are ``(Fraction, Fraction)`` tuples, interval-like models use bare
Fractions, finite models use their element labels.  This module owns that
format: ``label_str`` writes an element, ``read_element`` reads it, and each
model builds its own batch values and reads them back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import isqrt, lcm
from typing import Callable, Iterable, Sequence

import numpy as np

from . import axioms
from .syntax import (
    CONNECTIVES,
    Const0,
    OPlus,
    Sig,
    SqmvError,
    Term,
    Var,
    check_signature,
    fold,
    join_term,
)


class ModelError(SqmvError):
    pass


class DomainError(ModelError):
    pass


class SpecError(ModelError):
    pass


class ClosureError(ModelError):
    pass


class NotCompatible(ModelError):
    pass


class ClassError(ModelError):
    pass


class CatalogError(ModelError):
    pass


ONE = Fraction(1)
ZERO = Fraction(0)
HALF = Fraction(1, 2)


def clamp(x: Fraction) -> Fraction:
    return max(-ONE, min(ONE, x))


# each signature's operations with their arities, in the node classes' order
_OPS = {sig: {c.op: len(c._fields) for c in CONNECTIVES.values()
              if c is not Var and c._fields and c.sig in (None, sig)} for sig in Sig}


def ops_for(sig: Sig) -> dict[str, int]:
    return _OPS[sig]


def read_fraction(text: str, error: type[Exception], what: str) -> Fraction:
    """The rational literal ``text``, such as ``-1/2`` or ``0.25``; otherwise
    ``error("<what> <text>")``.  Exponent notation is refused, since
    ``Fraction`` would compute 10**exp in full, and so is a value that
    ``label_str`` cannot print (past Python's integer digit limit)."""
    if "e" in text.lower():
        raise error(f"{what} {text!r}: exponent notation is not accepted")
    try:
        value = Fraction(text)
        str(value)
    except (ValueError, ZeroDivisionError):
        raise error(f"{what} {text!r}") from None
    return value


def label_str(el) -> str:
    if isinstance(el, tuple):
        return "<" + ",".join(label_str(c) for c in el) + ">"
    return str(el)


# The element a flattening adjoins when no fixpoint is available, as its label.
ADJOINED = "k*"


def read_element(text: str):
    """The element that ``label_str`` writes as ``text``: ``k*``, a rational,
    or ``<x,y>`` of elements, whose outermost brackets may be left out; the
    brackets must balance."""
    text = literal = text.strip()
    if text == ADJOINED:
        return ADJOINED
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    if "," in text:
        if len(parts := _split_top(text, "<>")) < 2:
            raise DomainError(f"cannot read element {literal!r}")
        return tuple(map(read_element, parts))
    return read_fraction(text, DomainError, "cannot read element")


def _split_top(text: str, brackets: str, maxsplit: int = -1) -> list[str]:
    """``text`` cut at the commas outside the ``brackets`` pair (such as
    ``"()"``), at the first ``maxsplit`` of them if that is not negative."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == brackets[0]:
            depth += 1
        elif ch == brackets[1]:
            depth -= 1
        elif ch == "," and depth == 0 and len(parts) != maxsplit:
            parts.append(text[start:i])
            start = i + 1
    return parts + [text[start:]]


# ---------------------------------------------------------------------------
# Base model API


class Model:
    """Elements through ``const``, ``apply`` and ``contains``; batch values
    through ``vec_const`` and ``vec_apply``, drawn by ``draw`` and read back
    by ``element``."""

    name: str
    signature: Sig
    finite: bool
    factors: tuple = ()

    def check_member(self, el) -> None:
        if not self.contains(el):
            raise DomainError(f"{label_str(el)} is not in the carrier of {self.name}")

    def __repr__(self):
        return f"<Model {self.name}>"


# ---------------------------------------------------------------------------
# Standard models (infinite carriers, closed-form operations)


class StandardModel(Model):
    """The standard models ``square``, ``disk``, ``interval`` and
    ``flat-standard`` in either signature.

    ``square`` and ``disk`` (``pair``) carry pairs of Fractions inside
    [-1,1]^2 resp. the unit disk; ``interval`` and ``flat-standard`` carry bare
    Fractions in [-1,1].  Minus negates every coordinate.  Every other
    operation follows truncated addition on first coordinates, is constantly 0
    on ``flat-standard`` (``flat``), and sets the second coordinate of a pair
    to 0.

    ``apply`` computes on Fractions and ``vec_apply`` on int64 numerators over
    a common denominator D; they are kept as separate code so that the exact
    path re-checks every witness of the batch path independently.  Batch
    values are numerator arrays, a pair of them on ``pair`` models; ``grid``
    and ``draw`` build them, so that no caller needs to know their shape.
    """

    finite = False

    def __init__(self, kind: str, signature: Sig):
        assert kind in STANDARD_CATALOG
        self.kind = kind
        self.signature = signature
        self.name = kind + ("" if signature is Sig.MV else "@w")
        self.pair = kind in ("square", "disk")
        self.flat = kind == "flat-standard"

    def contains(self, el) -> bool:
        if not self.pair:
            return isinstance(el, Fraction) and -1 <= el <= 1
        if not (isinstance(el, tuple) and len(el) == 2):
            return False
        a, b = el
        if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
            return False
        if self.kind == "disk":
            return a * a + b * b <= 1
        return -1 <= a <= 1 and -1 <= b <= 1

    def const(self, name: str):
        v = ZERO if name == "zero" or self.flat else ONE
        return (v, ZERO) if self.pair else v

    def apply(self, op: str, *args):
        for x in args:
            self.check_member(x)
        if op not in ops_for(self.signature):
            raise DomainError(f"operation {op!r} is not available on {self.name}")
        if op in ("uminus", "wneg"):
            x = args[0]
            return (-x[0], -x[1]) if self.pair else -x
        a = [x[0] for x in args] if self.pair else args
        if self.flat:
            v = ZERO
        elif op == "oplus":
            v = clamp(a[0] + a[1])
        elif op == "impl":
            v = clamp(a[1] - a[0])
        elif op == "pos":
            v = max(ZERO, a[0])
        else:
            v = min(ZERO, a[0])
        return (v, ZERO) if self.pair else v

    # vectorised numerator arithmetic over a common denominator D
    def vec_const(self, name: str, D: int):
        v = 0 if name == "zero" or self.flat else D
        return (v, 0) if self.pair else v

    def vec_apply(self, op: str, args, D: int):
        if op in ("uminus", "wneg"):
            x = args[0]
            return (-x[0], -x[1]) if self.pair else -x
        a = [x[0] for x in args] if self.pair else args
        if self.flat:
            v = 0
        elif op == "oplus":
            v = np.minimum(np.maximum(a[0] + a[1], -D), D)
        elif op == "impl":
            v = np.minimum(np.maximum(a[1] - a[0], -D), D)
        elif op == "pos":
            v = np.maximum(a[0], 0)
        else:
            v = np.minimum(a[0], 0)
        return (v, 0) if self.pair else v

    def grid_count(self, d: int) -> int:
        """How many points ``grid(d, k)`` gives each variable, counted without
        building them: the disk keeps the pairs with b = +-1/2 only where
        |a| <= sqrt(3)/2."""
        firsts = 2 * d + 1
        if self.kind == "disk":
            return firsts + 2 * (2 * (isqrt(3 * d * d) // 2) + 1)
        return 3 * firsts if self.pair else firsts

    def grid(self, d: int, k: int) -> tuple[list, int]:
        """``(values, D)``: for each of ``k`` variables the carrier's points,
        first coordinates 0, 1/d, -1/d, 2/d, ... and second ones 0, +-1/2 on
        pairs, as numerators over D = lcm(2, d) on the variable's own product
        axis.  Without variables no point is built."""
        D = lcm(2, d)
        if not k:
            return [], D
        step = D // d
        firsts = [0] + [s * i * step for i in range(1, d + 1) for s in (1, -1)]
        if not self.pair:
            return product_axes(np.asarray(firsts, dtype=np.int64), k), D
        pts = [(a, b) for a in firsts for b in (0, D // 2, -(D // 2))]
        if self.kind == "disk":
            pts = [(a, b) for a, b in pts if a * a + b * b <= D * D]
        a, b = (product_axes(np.asarray(c, dtype=np.int64), k) for c in zip(*pts))
        return list(zip(a, b)), D

    def draw(self, rng: np.random.Generator, count: int, D: int):
        """``count`` seeded values, numerators in [-D, D] over ``D``; the disk
        redraws the points outside it, in index order."""
        a = rng.integers(-D, D + 1, size=count)
        if not self.pair:
            return a
        b = rng.integers(-D, D + 1, size=count)
        if self.kind == "disk":
            bad = np.flatnonzero(a * a > D * D - b * b)
            while bad.size:
                a[bad] = rng.integers(-D, D + 1, size=bad.size)
                b[bad] = rng.integers(-D, D + 1, size=bad.size)
                x, y = a[bad], b[bad]
                bad = bad[x * x > D * D - y * y]
        return a, b

    def element(self, value, D: int):
        """The element of one batch value, numerators over ``D``."""
        if self.pair:
            return Fraction(int(value[0]), D), Fraction(int(value[1]), D)
        return Fraction(int(value), D)


# ---------------------------------------------------------------------------
# Finite table models


class FiniteModel(Model):
    """``tables[op]`` holds carrier indices in a read-only C-contiguous array
    (2-D for binary, 1-D for unary operations) of ``index_dtype``, so the flat
    lookup ``tbl.take(l * n + r)`` cannot overflow; the constructor copies
    nested lists or arrays into that form.  ``factors`` are the models whose
    componentwise product the tables are (see ``product``), or ``()``."""

    finite = True

    def __init__(self, name: str, signature: Sig, elements: tuple,
                 tables: dict, consts: dict, factors: tuple = ()):
        self.name = name
        self.signature = signature
        self.elements = tuple(elements)
        self.index = {el: i for i, el in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise SpecError("duplicate elements in finite carrier")
        self.index_dtype = index_dtype(len(self.elements), name)
        self.tables = {}
        for op, tbl in tables.items():
            arr = np.array(tbl, dtype=self.index_dtype, order="C")
            arr.flags.writeable = False
            self.tables[op] = arr
        self.consts = consts          # const name -> index
        self.factors = factors
        # battery name -> (all hold, results, witnesses), filled by _battery
        self._batteries: dict[str, tuple[bool, dict, dict]] = {}

    def contains(self, el) -> bool:
        return el in self.index

    def const(self, name: str):
        return self.elements[self.consts[name]]

    def apply(self, op: str, *args):
        if op not in self.tables:
            raise DomainError(f"operation {op!r} is not available on {self.name}")
        for x in args:
            self.check_member(x)
        return self.elements[self.tables[op][tuple(self.index[x] for x in args)]]

    def vec_const(self, name, D: int):
        """The carrier index of the constant ``name`` (its name or, see
        ``compose``, that index)."""
        return self.index_dtype.type(self.consts[name] if isinstance(name, str) else name)

    def vec_apply(self, op, args, D: int):
        """``op`` (an operation's name or a table, see ``compose``) at the
        carrier indices ``args``.  A wide step with an operand along one whole
        carrier axis that the other does not read gathers whole rows of one n*n
        table of that operand's columns."""
        t = self.tables[op] if isinstance(op, str) else op
        a, b = args[0], args[-1]
        if len(args) == 2 and a.size * b.size > WIDE:  # below, the flat take is as fast
            ka, kb = ([i for i, d in enumerate(x.shape, -x.ndim) if d > 1] for x in args)
            sides = ((b, kb, a, ka, t), (a, ka, b, kb, t.T))
            # the operand on the later axis first: the result is then no transposed view
            for s, ks, o, ko, u in sides[::-1] if ka > kb else sides:
                if len(ks) == 1 and s.shape[ks[0]] == len(self.elements) and ks[0] not in ko:
                    shape, k = np.broadcast(a, b).shape, ks[0]
                    r = u.take(s.ravel(), 1).take(o.ravel(), 0)  # rows of o, columns of s
                    r = r.reshape(shape[:k] + shape[k:][1:] + (-1,))
                    return r if k == -1 else np.moveaxis(r, -1, k)
            # operands on disjoint axes, as in a sweep: look up rows, then columns of those
            if ka and kb and (ka[-1] < kb[0] or kb[-1] < ka[0]):
                t, a, b = (t, a, b) if ka[0] < kb[0] else (t.T, b, a)
                return t.take(a.ravel(), 0).take(b.ravel(), 1).reshape(np.broadcast(a, b).shape)
        return t.take(a * len(self.elements) + b if len(args) == 2 else a)

    def draw(self, rng: np.random.Generator, count: int, D: int):
        """``count`` seeded carrier indices."""
        return rng.integers(0, len(self.elements), size=count)

    def element(self, value, D: int):
        """The element of one batch value, a carrier index."""
        return self.elements[int(value)]

    def table_text(self) -> str:
        """Operation tables as text, one tuple per line."""
        lines = [f"model {self.name} signature {self.signature.value} size {len(self.elements)}"]
        for cname in sorted(self.consts):
            lines.append(f"{cname} -> {label_str(self.const(cname))}")
        labels = [label_str(el) for el in self.elements]
        for op in sorted(self.tables):
            tbl = self.tables[op]
            if tbl.ndim == 2:
                for (i, x), (j, y) in itertools.product(enumerate(labels), repeat=2):
                    lines.append(f"{op} {x} {y} -> {labels[tbl[i, j]]}")
            else:
                for i, x in enumerate(labels):
                    lines.append(f"{op} {x} -> {labels[tbl[i]]}")
        return "\n".join(lines) + "\n"


# A batch of more than this many values is wide: a binary table gathers its
# rows and then their columns, and a finite sweep composes its tape (below
# it, the flat take and the tape as compiled are as fast).
WIDE = 2**14

# Larger finite carriers are refused before their tables are built; this bounds
# a binary table at 2^24 cells.
_MAX_CARRIER = 4096


def index_dtype(n: int, name: str) -> np.dtype:
    """The narrowest of int16/int32 that holds n*n, for the n-element carrier
    of the model ``name``; a carrier above ``_MAX_CARRIER`` is refused."""
    if n > _MAX_CARRIER:
        raise SpecError(f"{name} would have {n} elements; finite models "
                        f"have at most {_MAX_CARRIER}")
    return np.dtype(np.int16 if n * n <= np.iinfo(np.int16).max else np.int32)


def finite_model_from_ops(
    name: str,
    signature: Sig,
    elements: Iterable,
    ops: dict[str, Callable],
    consts: dict[str, object],
) -> FiniteModel:
    """Materialise operation tables, checking closure over the carrier."""
    elements = tuple(elements)
    index = {el: i for i, el in enumerate(elements)}
    tables: dict = {}
    for op, arity in ops_for(signature).items():
        cells = []
        for args in itertools.product(elements, repeat=arity):
            z = ops[op](*args)
            if z not in index:
                raise ClosureError(
                    f"{name}: {op}({','.join(map(label_str, args))}) = "
                    f"{label_str(z)} escapes the carrier"
                )
            cells.append(index[z])
        tables[op] = np.reshape(cells, (len(elements),) * arity)
    cidx = {}
    for cname, el in consts.items():
        if el not in index:
            raise ClosureError(f"{name}: constant {cname} = {label_str(el)} not in carrier")
        cidx[cname] = index[el]
    return FiniteModel(name, signature, elements, tables, cidx)


def finite_chain(n: int) -> FiniteModel:
    """The (2n+1)-element subchain {k/n} of the interval model; index i
    stands for (i - n)/n, so the tables are closed forms on indices."""
    if n < 1:
        raise SpecError("chain parameter must be >= 1")
    name = f"chain:{n}"
    dt = index_dtype(2 * n + 1, name)
    els = tuple(Fraction(k, n) for k in range(-n, n + 1))
    i = np.arange(2 * n + 1, dtype=dt)
    tables = {
        "oplus": np.clip(i[:, None] + i[None, :] - n, 0, 2 * n),
        "uminus": 2 * n - i,
        "pos": np.maximum(i, n),
        "npart": np.minimum(i, n),
    }
    return FiniteModel(name, Sig.MV, els, tables, {"zero": n, "one": 2 * n})


def ex32_grid() -> FiniteModel:
    """Finite sub-grid of the half-square model: strong but not an MV*-algebra.

    Second coordinates live in {0,1/2,1}; every operation forces 1/2 there
    except minus, which maps b to 1-b.
    """
    firsts = [Fraction(-1), Fraction(-1, 2), ZERO, HALF, ONE]
    seconds = [ZERO, HALF, ONE]
    els = tuple((a, b) for a in firsts for b in seconds)
    ops = {
        "oplus": lambda x, y: (clamp(x[0] + y[0]), HALF),
        "uminus": lambda x: (-x[0], 1 - x[1]),
        "pos": lambda x: (max(ZERO, x[0]), HALF),
        "npart": lambda x: (min(ZERO, x[0]), HALF),
    }
    return finite_model_from_ops(
        "ex32-grid", Sig.MV, els, ops, {"zero": (ZERO, HALF), "one": (ONE, HALF)}
    )


def flattening(base: FiniteModel, k=None) -> FiniteModel:
    """Flatten the finite model ``base`` onto the element ``k``.

    ``k`` must be a fixpoint of minus inside the regular part; pass ``None``
    to adjoin a fresh element, which is only legal when no such fixpoint
    exists.
    """
    if not base.finite:
        raise SpecError("flattening is available for finite bases only")
    if base.signature is not Sig.MV:
        raise SpecError("flattening expects an additive-signature base")
    regs = regular_elements(base)
    fixpoints = [x for x in regs if base.apply("uminus", x) == x]
    # every operation is constantly k (index ki), but minus only on an adjoined k
    minus = base.tables["uminus"]
    if k is None:
        if fixpoints:
            raise SpecError(
                "minus has a fixpoint over the regular part; flatten onto it "
                f"(e.g. {label_str(fixpoints[0])}) instead of adjoining a fresh element"
            )
        k, ki = ADJOINED, len(base.elements)
        elements = base.elements + (ADJOINED,)
        minus = np.append(minus, ki)
    else:
        if k not in fixpoints:
            raise SpecError(
                f"{label_str(k)} is not a minus-fixpoint in the regular part of {base.name}"
            )
        ki = base.index[k]
        elements = base.elements
    kname = "new" if k is ADJOINED else label_str(k)
    n = len(elements)
    tables = {"oplus": np.full((n, n), ki), "uminus": minus,
              "pos": np.full(n, ki), "npart": np.full(n, ki)}
    return FiniteModel(
        f"flatten:{base.name}:{kname}", Sig.MV, elements, tables, {"zero": ki, "one": ki}
    )


def product(m1: FiniteModel, m2: FiniteModel) -> FiniteModel:
    """Componentwise product of two finite models; tables assembled on index
    arrays.  It keeps ``(m1, m2)`` as its ``factors``: it satisfies exactly
    the equations that both of them satisfy."""
    if not (m1.finite and m2.finite):
        raise SpecError("product is available for finite factors only")
    if m1.signature is not m2.signature:
        raise SpecError("product factors must share a signature")
    sig = m1.signature
    name = f"product:{_wrap(m1.name)},{_wrap(m2.name)}"
    n2 = len(m2.elements)
    index_dtype(len(m1.elements) * n2, name)  # refuses an oversized carrier
    els = tuple(itertools.product(m1.elements, m2.elements))
    tables: dict = {}
    # in intp: the product may need a wider index dtype than its factors
    for op, arity in ops_for(sig).items():
        t1, t2 = m1.tables[op].astype(np.intp), m2.tables[op].astype(np.intp)
        if arity == 2:
            tables[op] = (t1[:, None, :, None] * n2 + t2[None, :, None, :]).reshape(
                len(els), len(els)
            )
        else:
            tables[op] = (t1[:, None] * n2 + t2[None, :]).reshape(len(els))
    consts = {}
    for cname in set(m1.consts) & set(m2.consts):
        consts[cname] = m1.consts[cname] * n2 + m2.consts[cname]
    return FiniteModel(name, sig, els, tables, consts, (m1, m2))


# ---------------------------------------------------------------------------
# Signature views (tables only; verified wrappers live in transform)


def _signature_view(m: FiniteModel, sig: Sig, name: str) -> FiniteModel:
    """``m`` in the signature ``sig``: x -> y is -x (+) y, x (+) y is ~x -> y,
    minus is negation, and 0 is 1 -> 1.  These are componentwise, so the view
    of a product is the product of its factors' views, its ``factors``."""
    t, one = m.tables, m.consts["one"]
    if sig is Sig.W:
        tables = {"impl": t["oplus"][t["uminus"]], "wneg": t["uminus"]}
        zero = int(tables["impl"][one, one])
    else:
        tables = {"oplus": t["impl"][t["wneg"]], "uminus": t["wneg"]}
        zero = int(t["impl"][one, one])
    tables.update(pos=t["pos"], npart=t["npart"])
    factors = tuple(_signature_view(f, sig, f"{f.name}@{sig.value}") for f in m.factors)
    return FiniteModel(name, sig, m.elements, tables, {"one": one, "zero": zero}, factors)


def finite_w_view(m: FiniteModel, name: str | None = None) -> FiniteModel:
    return _signature_view(m, Sig.W, name or m.name + "@w")


def finite_mv_view(m: FiniteModel, name: str | None = None) -> FiniteModel:
    return _signature_view(m, Sig.MV, name or m.name + "@mv")


# ---------------------------------------------------------------------------
# Batch evaluation: valuation axes and the shared-subterm tape


def product_axes(values: np.ndarray, k: int) -> list[np.ndarray]:
    """``values`` once for each variable of a ``k``-fold product, the i-th on
    its own broadcast axis (length ``len(values)`` on axis i, 1 elsewhere).
    Broadcast together they enumerate the product in row-major order, the last
    variable fastest, and a subterm over j of the k variables costs n^j."""
    return [values.reshape((1,) * i + (-1,) + (1,) * (k - 1 - i)) for i in range(k)]


@dataclass(frozen=True)
class Tape:
    """Formulas as a post-order program, one step ``("var", name)`` or ``(op,
    argument steps)`` per distinct subterm, ``op`` an operation's name (or,
    once ``compose`` has run, a finite model's table, or a constant's carrier
    index).  ``last_use[i]`` is
    the last step reading step i, past the end for the formulas'
    ``outputs``."""

    steps: tuple[tuple, ...]
    names: tuple[str, ...]
    outputs: tuple[int, ...]
    last_use: tuple[int, ...]
    _reading: dict = field(default_factory=dict, compare=False, repr=False)

    def reading(self, groups: tuple[tuple[int, ...], ...]) -> list[list[str]]:
        """The names that each group of outputs (by position) reads, in
        ``names`` order; worked out once per tape and ``groups``."""
        if (owns := self._reading.get(groups)) is None:
            below: list[set] = []
            for _, args in self.steps:
                below.append({args} if type(args) is str
                             else set().union(*map(below.__getitem__, args)))
            owns = self._reading[groups] = [
                [nm for nm in self.names if any(nm in below[self.outputs[j]] for j in g)]
                for g in groups]
        return owns


def _tape(steps: list[tuple], outputs: tuple[int, ...]) -> Tape:
    """The tape of ``steps``; a variable's step is the one whose arguments are a name."""
    last = {j: i for i, (_, args) in enumerate(steps) if type(args) is not str for j in args}
    last.update(dict.fromkeys(outputs, len(steps)))
    names = tuple(sorted(args for _, args in steps if type(args) is str))
    return Tape(tuple(steps), names, outputs, tuple(last[j] for j in range(len(steps))))


def compile(terms: Sequence[Term], sig: Sig) -> Tape:
    """One step per distinct subterm of ``terms``, numbered in the order one
    ``fold`` over all of them finishes the nodes: each after its arguments."""
    for t in terms:
        check_signature(t, sig)
    steps: list[tuple] = []

    def step(s: Term, args: tuple[int, ...]) -> int:
        steps.append(("var", s.name) if type(s) is Var else (s.op, args))
        return len(steps) - 1

    memo: dict[Term, int] = {}
    return _tape(steps, tuple(fold(t, step, memo) for t in terms))


def _along(t: np.ndarray, basis: tuple, axes: tuple) -> np.ndarray:
    """The table ``t`` over ``basis`` as an array over ``axes`` (which hold
    ``basis``), a one-step table along its own axis."""
    if len(basis) == len(axes):
        return t if basis == axes else t.T
    return t[:, None] if basis[0] == axes[0] else t


def compose(tape: Tape, m: FiniteModel) -> Tape:
    """``tape`` on ``m`` with each step one table over at most two kept
    steps, its basis, so that ``run`` gathers only at the kept steps.  A
    variable is kept and is its own basis; a step with no variable below it
    is a carrier index; a unary step, or a binary step with a constant
    argument, is a unary table on its operand's basis and remembers its
    root, the nearest binary or variable step down that chain.  A binary
    step whose operands span at most two kept steps is tabulated over them
    (one n*n gather here, none per block); where they span more, the wider
    operand is cut: its root is kept, once, and read by every later step
    on that root.  The outputs are kept.  Each table has at most n*n cells
    and is dropped after its last reader.  A tape of variables and binary
    steps alone comes back as it is."""
    if all(type(args) is str or len(args) == 2 for _, args in tape.steps):
        # such a tape keeps every step but where a subterm repeats a
        # variable, as x (+) (x (+) y): not worth the walk
        return tape
    ident = np.arange(len(m.elements), dtype=m.index_dtype)
    steps: list[tuple] = []     # the composed tape
    kept: dict[int, int] = {}   # step -> its composed step
    const: dict[int, int] = {}  # step with no variable below it -> its carrier index
    # step -> (table, basis, root, table on the root's value); a root is
    # (its step, its table, its basis), which a cut keeps
    info: list = [None] * len(tape.steps)

    def read(j: int) -> tuple:
        t, basis, root, u = info[j]
        return (u, (kept[root[0]],)) if root[0] in kept else (t, basis)

    def keep(j: int, step: tuple) -> None:
        kept[j] = len(steps)
        steps.append(step)

    for i, (op, args) in enumerate(tape.steps):
        if type(args) is str:
            keep(i, (op, args))
            basis = (kept[i],)
            info[i] = (ident, basis, (i, ident, basis), ident)
            continue
        if all(j in const for j in args):
            const[i] = int(m.tables[op][tuple(const[j] for j in args)]) if args else m.consts[op]
            continue
        t, a, b = m.tables[op], args[0], args[-1]
        if a in const or b in const:
            t, a = (t[const[a]], b) if a in const else (t[:, const[b]], a)
        ta, ba = read(a)
        if t.ndim == 1:  # a unary table
            info[i] = (t[ta], ba, info[a][2], t[info[a][3]])
        else:
            tb, bb = read(b)
            while len(basis := tuple(dict.fromkeys(ba + bb))) > 2:
                r, rt, rb = info[a if len(ba) >= len(bb) else b][2]  # the wider's root
                keep(r, (rt, rb))
                (ta, ba), (tb, bb) = read(a), read(b)
            if not (len(basis) == 2 and ta is ident and tb is ident):  # else t is the table
                t = t[_along(ta, ba, basis), _along(tb, bb, basis)]
            info[i] = (t, basis, (i, t, basis), ident)
        for j in args:
            if tape.last_use[j] == i:
                info[j] = None
    for j in tape.outputs:
        if j not in kept:
            keep(j, (const[j], ()) if j in const else read(j))
    return _tape(steps, tuple(kept[j] for j in tape.outputs))


def run(tape: Tape, m: Model, env: dict, D: int) -> list:
    """The formulas' batch values: each step once, freed after its last use."""
    vals: list = [None] * len(tape.steps)
    for i, (op, args) in enumerate(tape.steps):
        if type(args) is str:
            vals[i] = env[args]
        elif not args:
            vals[i] = m.vec_const(op, D)
        else:
            vals[i] = m.vec_apply(op, [vals[j] for j in args], D)
            for j in args:
                if tape.last_use[j] == i:
                    vals[j] = None
    return [vals[j] for j in tape.outputs]


# ---------------------------------------------------------------------------
# Classification


@dataclass
class ClassFlags:
    signature: Sig
    axiom_results: dict[str, bool]
    witnesses: dict[str, dict]
    is_quasi: bool
    is_strong: bool
    is_flat: bool
    is_star: bool

    def summary(self) -> str:
        kind = "quasi-MV*" if self.signature is Sig.MV else "quasi-Wajsberg*"
        star = "MV*" if self.signature is Sig.MV else "Wajsberg*"
        rows = [
            (f"is {kind}", self.is_quasi),
            ("is strong", self.is_strong),
            ("is flat", self.is_flat),
            (f"is {star}", self.is_star),
        ]
        return "\n".join(f"{k}: {'yes' if v else 'no'}" for k, v in rows)


_BATTERIES = {
    "quasi": axioms.quasi_axioms,
    "strong": axioms.strong_axioms,
    "flat": lambda sig: [axioms.flat_equation(sig)],
    "star": axioms.star_axioms,
}


def _battery(m: FiniteModel, name: str) -> tuple[bool, dict, dict]:
    """Run the axiom battery ``name`` on ``m`` by exhaustive checks, once per
    model: ``(all hold, results by equation, witnesses of the failures)``."""
    if not m.finite:
        raise ClassError("classification sweeps require a finite carrier")
    done = m._batteries.get(name)
    if done is None:
        # imported here because semantics imports this module
        from .semantics import check_equations

        eqs = _BATTERIES[name](m.signature)
        reports = check_equations([(eq.lhs, eq.rhs) for eq in eqs], m)
        results = {eq.name: not r.found_countermodel for eq, r in zip(eqs, reports)}
        witnesses = {eq.name: r.witness.valuation for eq, r in zip(eqs, reports) if r.witness}
        done = m._batteries[name] = (all(results.values()), results, witnesses)
    return done


def is_strong(m: FiniteModel) -> bool:
    """Whether ``m`` is a strong quasi-algebra; runs only the quasi and strong
    batteries."""
    return _battery(m, "quasi")[0] and _battery(m, "strong")[0]


def classify(m: FiniteModel) -> ClassFlags:
    """Decide the class flags of a finite model by exhaustive axiom checks."""
    runs = [_battery(m, name) for name in _BATTERIES]
    results = {k: v for _, res, _ in runs for k, v in res.items()}
    witnesses = {k: v for _, _, wit in runs for k, v in wit.items()}
    quasi, strong, flat, star = (ok for ok, _, _ in runs)
    return ClassFlags(m.signature, results, witnesses, quasi, strong and quasi,
                      flat and quasi, star)


def regular_elements(m: FiniteModel) -> tuple:
    """Elements fixed by adding 0 (resp. by prefixing 1->1)."""
    if m.signature is Sig.MV:
        zero = m.const("zero")
        return tuple(x for x in m.elements if m.apply("oplus", x, zero) == x)
    zero = m.apply("impl", m.const("one"), m.const("one"))
    return tuple(x for x in m.elements if m.apply("impl", zero, x) == x)


# ---------------------------------------------------------------------------
# Congruences, quotients, embedding


@dataclass(frozen=True)
class Congruence:
    model: FiniteModel
    classes: tuple[frozenset, ...]

    @cached_property
    def ids(self) -> np.ndarray:
        """Each carrier element's class number, read-only; the classes must
        partition the carrier."""
        m = self.model
        ids = np.full(len(m.elements), -1, dtype=np.intp)
        for i, cls in enumerate(self.classes):
            idx = [m.index.get(el) for el in cls]
            if not idx or None in idx or (ids[idx] >= 0).any():
                raise NotCompatible("the classes do not partition the carrier")
            ids[idx] = i
        if (ids < 0).any():
            raise NotCompatible("the classes do not partition the carrier")
        ids.flags.writeable = False
        return ids

    def is_identity(self) -> bool:
        return all(len(c) == 1 for c in self.classes)

    def meet(self, other: "Congruence") -> "Congruence":
        a, b = self.ids, other.ids
        return _from_relation(self.model, (a[:, None] == a) & (b[:, None] == b))


def _from_relation(m: FiniteModel, rel: np.ndarray) -> Congruence:
    """The classes of the equivalence relation ``rel``, an n x n boolean
    matrix on carrier indices: one class per element not yet covered, taken
    in label order, so the classes come sorted by their least labels."""
    covered = np.zeros(len(m.elements), dtype=bool)
    classes = []
    for i in sorted(range(len(m.elements)), key=lambda i: label_str(m.elements[i])):
        if covered[i]:
            continue
        if not rel[i, i]:
            raise NotCompatible("relation is not reflexive")
        members = np.flatnonzero(rel[i])
        covered[members] = True
        classes.append(frozenset(m.elements[j] for j in members))
    return Congruence(m, tuple(classes))


def _check_compatible(cong: Congruence) -> Congruence:
    """Related inputs must give related outputs, for every operation: each
    row (and column) of an operation's class-id table equals the one at its
    class representative.  Returns ``cong``."""
    m, cid = cong.model, cong.ids
    rep = np.unique(cid, return_index=True)[1][cid]
    for op, arity in ops_for(m.signature).items():
        out = cid[m.tables[op]]
        if not (out == out[rep]).all():
            side = "with the partition" if arity == 1 else "on the left"
            raise NotCompatible(f"{op} is not compatible {side}")
        if arity == 2 and not (out == out[:, rep]).all():
            raise NotCompatible(f"{op} is not compatible on the right")
    return cong


def mu_congruence(m: FiniteModel) -> Congruence:
    """Mutual order-relatedness: x and y below each other in the quasi-order,
    where x is below y when x \\/ y = y (+) 0 (evaluated in the additive view)."""
    mv = m if m.signature is Sig.MV else finite_mv_view(m)
    env = dict(zip("xy", product_axes(np.arange(len(m.elements)), 2)))
    x, y = Var("x"), Var("y")
    tape = compile((join_term(x, y, Sig.MV), OPlus(y, Const0())), Sig.MV)
    below = np.equal(*run(tape, mv, env, 1))
    return _check_compatible(_from_relation(m, below & below.T))


def tau_congruence(m: FiniteModel) -> Congruence:
    """Identity off the regular part; the whole regular part is one class."""
    regs = set(regular_elements(m))
    reg = np.array([x in regs for x in m.elements])
    rel = np.eye(len(m.elements), dtype=bool) | np.outer(reg, reg)
    return _check_compatible(_from_relation(m, rel))


def quotient(m: FiniteModel, cong: Congruence) -> FiniteModel:
    """Quotient model; each class is labelled by its least-label element."""
    if cong.model is not m:
        raise NotCompatible("congruence belongs to a different model")
    ids = _check_compatible(cong).ids
    reps = [m.index[min(cls, key=label_str)] for cls in cong.classes]
    tables = {}
    for op, arity in ops_for(m.signature).items():
        t = m.tables[op]
        tables[op] = ids[t[np.ix_(reps, reps)]] if arity == 2 else ids[t[reps]]
    consts = {c: int(ids[i]) for c, i in m.consts.items()}
    return FiniteModel(f"{m.name}/~", m.signature,
                       tuple(m.elements[r] for r in reps), tables, consts)


@dataclass
class EmbeddingReport:
    model: FiniteModel
    mu_quotient: FiniteModel
    tau_quotient: FiniteModel
    prod: FiniteModel
    mapping: dict
    is_homomorphism: bool
    is_injective: bool
    is_surjective: bool

    @property
    def is_isomorphism(self) -> bool:
        return self.is_homomorphism and self.is_injective and self.is_surjective


def embed_into_product(m: FiniteModel) -> EmbeddingReport:
    """Map x to (x mod mu, x mod tau) and verify the embedding properties."""
    if not is_strong(m):
        raise ClassError(f"{m.name} is not strong; the embedding is not defined")
    mu = mu_congruence(m)
    tau = tau_congruence(m)
    if not mu.meet(tau).is_identity():
        raise NotCompatible("the two congruences do not meet in the identity")
    qmu = quotient(m, mu)
    qtau = quotient(m, tau)
    prod = product(qmu, qtau)
    map_idx = mu.ids * len(qtau.elements) + tau.ids
    mapping = {x: prod.elements[i] for x, i in zip(m.elements, map_idx)}
    hom = all(
        cname not in prod.consts or map_idx[m.consts[cname]] == prod.consts[cname]
        for cname in m.consts
    )
    for op, arity in ops_for(m.signature).items():
        src, dst = m.tables[op], prod.tables[op]
        if arity == 1:
            ok = (dst[map_idx] == map_idx[src]).all()
        else:
            ok = (dst[map_idx[:, None], map_idx[None, :]] == map_idx[src]).all()
        hom = hom and bool(ok)
    injective = np.unique(map_idx).size == len(m.elements)
    surjective = np.unique(map_idx).size == len(prod.elements)
    return EmbeddingReport(m, qmu, qtau, prod, mapping, hom, injective, surjective)


# ---------------------------------------------------------------------------
# Catalog


_CACHE: dict[str, Model] = {}

FINITE_CATALOG = (
    "chain:1",
    "chain:2",
    "chain:3",
    "flatten:chain:1:0",
    "flatten:chain:2:0",
    "flatten:chain:3:0",
    "product:chain:1,flatten:chain:1:0",
    "product:chain:2,flatten:chain:2:0",
    "product:chain:3,flatten:chain:3:0",
    "product:(product:chain:1,flatten:chain:1:0),(product:chain:1,flatten:chain:1:0)",
    "ex32-grid",
)

STANDARD_CATALOG = ("square", "disk", "interval", "flat-standard")


def _wrap(name: str) -> str:
    return f"({name})" if "," in name else name


def _strip_parens(s: str) -> str:
    if s.startswith("(") and s.endswith(")"):
        return s[1:-1]
    return s


def resolve(name: str) -> Model:
    """Look a model up by its catalog name; ``@w`` selects the Wajsberg view.
    Spellings of one model (``chain:1_0``, ``chain:10``) give one object."""
    name = name.strip()
    if name not in _CACHE:
        m = _build(name)
        _CACHE[name] = _CACHE.setdefault(m.name, m)
    return _CACHE[name]


def _build(name: str) -> Model:
    if name.endswith("@w"):
        base = resolve(name[:-2])
        if base.signature is not Sig.MV:
            raise CatalogError(f"{name[:-2]} is already in the implicational signature")
        if not base.finite:
            return StandardModel(base.kind, Sig.W)
        return finite_w_view(base)
    if name in STANDARD_CATALOG:
        return StandardModel(name, Sig.MV)
    if name == "ex32-grid":
        return ex32_grid()
    if name.startswith("chain:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise CatalogError(f"bad chain size in {name!r}") from None
        return finite_chain(n)
    if name.startswith("flatten:"):
        body = name[len("flatten:"):]
        base_name, _, kpart = body.rpartition(":")
        if not base_name:
            raise CatalogError(f"flatten needs a base and an element: {name!r}")
        base = resolve(base_name)
        if kpart == "new":
            return flattening(base, None)
        return flattening(base, read_fraction(kpart, CatalogError, "bad flattening element"))
    if name.startswith("product:"):
        body = name[len("product:"):]
        operands = _split_top(body, "()", 1)
        if len(operands) < 2:
            raise CatalogError(f"cannot split product operands in {body!r}")
        return product(*(resolve(_strip_parens(op)) for op in operands))
    raise CatalogError(f"unknown model name {name!r}")
