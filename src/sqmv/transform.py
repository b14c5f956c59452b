"""Translations between the additive and the implicational signature.

Term level: purely syntactic rewrites (x (+) y becomes ~x -> y and back, the
constant 0 becomes 1 -> 1); no simplification is performed.  They live in
``syntax``, so that they load without numpy, and are re-exported here.
Model level: a standard model's view in the other signature is its catalog
view (``square`` and ``square@w``); a finite model keeps its carrier and gets
the translated operations as tables, so round trips can be compared
table-for-table.
"""

from __future__ import annotations

import numpy as np

from .models import (
    ClassError,
    Model,
    finite_mv_view,
    finite_w_view,
    is_strong,
    ops_for,
    resolve,
)
from .syntax import Sig, mv_to_w_term, w_to_mv_term  # noqa: F401  re-exported


def _view(m: Model, sig: Sig) -> Model:
    """The strong model ``m`` in the signature ``sig``, the one it lacks."""
    if m.signature is sig:
        raise ClassError(
            f"{m.name} carries the wrong signature for this translation"
        )
    if not m.finite:
        return resolve(m.kind + ("@w" if sig is Sig.W else ""))
    if not is_strong(m):
        raise ClassError(f"{m.name} is not a strong model")
    if sig is Sig.W:
        return finite_w_view(m, m.name + "@derived-w")
    return finite_mv_view(m, m.name + "@derived-mv")


def mv_to_w_model(m: Model) -> Model:
    """The implicational view of a strong additive-signature model."""
    return _view(m, Sig.W)


def w_to_mv_model(m: Model) -> Model:
    """The additive view of a strong implicational-signature model."""
    return _view(m, Sig.MV)


def tables_equal(m1: Model, m2: Model) -> bool:
    """Whether two finite models have the same elements, constants and operation tables."""
    if m1.signature is not m2.signature or m1.elements != m2.elements:
        return False
    for c in set(m1.consts) & set(m2.consts):
        if m1.const(c) != m2.const(c):
            return False
    return all(np.array_equal(m1.tables[op], m2.tables[op]) for op in ops_for(m1.signature))
