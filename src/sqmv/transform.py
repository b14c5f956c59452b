"""Translations between the additive and the implicational signature.

Term level: purely syntactic rewrites (x (+) y becomes ~x -> y and back, the
constant 0 becomes 1 -> 1); no simplification is performed.  They live in
``syntax``, so that they load without numpy, and are re-exported here.
Model level: the same carrier with derived operations; for finite models the
tables are materialised so round trips can be compared table-for-table.
"""

from __future__ import annotations

import numpy as np

from .models import (
    ClassError,
    FiniteModel,
    Model,
    StandardModel,
    finite_mv_view,
    finite_w_view,
    is_strong,
    ops_for,
)
from .syntax import Sig, mv_to_w_term, w_to_mv_term  # noqa: F401  re-exported


class DerivedOpModel(Model):
    """Same carrier as ``base``, operations computed through the translation."""

    finite = False

    def __init__(self, base: Model, signature: Sig):
        self.base = base
        self.signature = signature
        self.name = base.name + ("@derived-w" if signature is Sig.W else "@derived-mv")

    def contains(self, el) -> bool:
        return self.base.contains(el)

    def const(self, name: str):
        if self.signature is Sig.W:
            return self.base.const(name)
        if name == "zero":
            one = self.base.const("one")
            return self.base.apply("impl", one, one)
        return self.base.const("one")

    def apply(self, op: str, *args):
        b = self.base
        if self.signature is Sig.W:
            if op == "impl":
                return b.apply("oplus", b.apply("uminus", args[0]), args[1])
            if op == "wneg":
                return b.apply("uminus", args[0])
        else:
            if op == "oplus":
                return b.apply("impl", b.apply("wneg", args[0]), args[1])
            if op == "uminus":
                return b.apply("wneg", args[0])
        if op in ("pos", "npart"):
            return b.apply(op, args[0])
        raise ClassError(f"operation {op!r} is not available on {self.name}")


def _require_strong(m: Model, sig: Sig) -> None:
    if m.signature is not sig:
        raise ClassError(
            f"{m.name} carries the wrong signature for this translation"
        )
    if isinstance(m, FiniteModel):
        if not is_strong(m):
            raise ClassError(f"{m.name} is not a strong model")
    elif not isinstance(m, (StandardModel, DerivedOpModel)):
        raise ClassError(f"cannot certify strongness of {m.name}")


def mv_to_w_model(m: Model) -> Model:
    """The implicational view of a strong additive-signature model."""
    _require_strong(m, Sig.MV)
    if isinstance(m, FiniteModel):
        return finite_w_view(m, m.name + "@derived-w")
    return DerivedOpModel(m, Sig.W)


def w_to_mv_model(m: Model) -> Model:
    """The additive view of a strong implicational-signature model."""
    _require_strong(m, Sig.W)
    if isinstance(m, FiniteModel):
        return finite_mv_view(m, m.name + "@derived-mv")
    return DerivedOpModel(m, Sig.MV)


def tables_equal(m1: FiniteModel, m2: FiniteModel) -> bool:
    """Same elements, same constants, same operation tables."""
    if m1.signature is not m2.signature or m1.elements != m2.elements:
        return False
    for c in set(m1.consts) & set(m2.consts):
        if m1.const(c) != m2.const(c):
            return False
    return all(np.array_equal(m1.tables[op], m2.tables[op]) for op in ops_for(m1.signature))
