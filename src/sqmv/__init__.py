"""Workbench for strong quasi-MV* / quasi-Wajsberg* algebras and their logics.

The names below are loaded on first use (PEP 562), so that ``import
sqmv.syntax`` or ``import sqmv.proofkit`` does not pay for numpy and the
model layer.
"""

import importlib

_SUBMODULES = ("axioms", "models", "semantics", "syntax", "transform")

# Public name -> the submodule that defines it; a submodule maps to itself.
_EXPORTS = {
    name: home
    for home, names in {
        "syntax": "Sig Term Var Const0 Const1 OPlus UMinus Impl Neg PosPart NegPart"
        " parse parse_iff print_term expand_abbreviations is_regular"
        " count_connective match_schema substitute mv_to_w_term w_to_mv_term",
        "models": "classify resolve",
        "semantics": "CheckReport Exhaustive Grid RandomSampling Verdict"
        " check_entailment check_equation designated_set evaluate search_countermodel",
        "transform": "mv_to_w_model w_to_mv_model",
    }.items()
    for name in names.split()
} | {name: name for name in _SUBMODULES}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        home = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value
