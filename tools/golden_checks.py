#!/usr/bin/env python3
"""Record what the batch checks report, so that refactors can be compared.

The records cover:

- equation checks on every standard model in both signatures, under
  ``grid``, ``grid:3`` and ``random:500`` (``as_json()`` and ``as_text()``);
- ``exhaustive`` and ``random:300`` equation checks on four finite models and
  their ``@w`` views;
- designated-value entailments (the rules of both Hilbert systems and the
  sqL* axioms) under every strategy;
- ``classify`` flags and witnesses, the mu classes and the direct-product
  embedding of all 22 finite catalog views;
- the texts of the grid-cap and strategy errors.

A check that raises is recorded as ``"<ExceptionType>: <message>"``.
Witness valuations keep their key order.  Run from the repository root:

    python3 tools/golden_checks.py

It writes ``tests/data/golden_checks.json``, which ``tests/test_golden.py``
compares against.  Regenerate the file only for an intended verdict change,
and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sqmv import corpus, models as md, semantics as sem  # noqa: E402
from sqmv.models import label_str  # noqa: E402
from sqmv.proofkit.systems import AXIOMS, LSTAR, RULES, SQL  # noqa: E402
from sqmv.syntax import Sig, Var, parse  # noqa: E402

OUT = ROOT / "tests" / "data" / "golden_checks.json"

HEADER = (
    "Golden records of tools/golden_checks.py. Regenerate them only for an "
    "intended verdict change, and say so in CHANGES.md."
)

STANDARD_VIEWS = [n + s for n in md.STANDARD_CATALOG for s in ("", "@w")]
FINITE_SAMPLE = ["chain:3", "flatten:chain:2:0", "ex32-grid",
                 "product:chain:1,flatten:chain:1:0"]
FINITE_SAMPLE_VIEWS = [n + s for n in FINITE_SAMPLE for s in ("", "@w")]
CATALOG_VIEWS = [n + s for n in md.FINITE_CATALOG for s in ("", "@w")]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (md.ModelError, sem.SemanticsError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _report(report: sem.CheckReport) -> dict:
    return {"json": report.as_json(), "text": report.as_text()}


def _check_eq(eq, m, strategy):
    return _report(sem.check_equation(eq.lhs, eq.rhs, m, sem.parse_strategy(strategy), 0))


def _check_entail(premises, conclusion, m, strategy):
    return _report(sem.check_entailment(
        list(premises), conclusion, m, sem.parse_strategy(strategy), 0))


def _pairs(valuation: dict) -> list:
    return [[k, label_str(v)] for k, v in valuation.items()]


def _classify(m) -> dict:
    flags = md.classify(m)
    return {
        "flags": [flags.is_quasi, flags.is_strong, flags.is_flat, flags.is_star],
        "axioms": [[k, v] for k, v in flags.axiom_results.items()],
        "witnesses": [[k, _pairs(v)] for k, v in flags.witnesses.items()],
    }


def _classes(cong) -> list:
    return [sorted(label_str(el) for el in cls) for cls in cong.classes]


def _embedding(m) -> dict:
    rep = md.embed_into_product(m)
    return {
        "mapping": [[label_str(x), label_str(y)] for x, y in rep.mapping.items()],
        "product": rep.prod.name,
        "hom_inj_surj": [rep.is_homomorphism, rep.is_injective, rep.is_surjective],
    }


def _entailments() -> list:
    out = [(f"rule:{system}:{name}", r.premises, r.conclusion)
           for system in (SQL, LSTAR) for name, r in RULES[system].items()]
    for name, forms in AXIOMS[SQL].items():
        out.extend((f"axiom:{name}.{i}", (), f) for i, f in enumerate(forms))
    return out


def _errors() -> dict:
    x = Var("x")
    big = parse("((x (+) y) (+) z) (+) v", Sig.MV)
    chain = md.resolve("chain:1")
    square = md.resolve("square")
    return {
        "unknown-strategy": _outcome(sem.parse_strategy, "montecarlo"),
        "grid-cap": _outcome(sem.check_equation, big, big, square, sem.Grid(12)),
        "exhaustive-standard": _outcome(sem.check_equation, x, x, square, sem.Exhaustive()),
        "grid-finite": _outcome(sem.check_equation, x, x, chain, sem.Grid(2)),
        "entail-mv": _outcome(sem.check_entailment, [], x, square, sem.Grid(2)),
        "entail-exhaustive-standard": _outcome(
            sem.check_entailment, [], Var("p"), md.resolve("square@w"), sem.Exhaustive()),
        "entail-grid-finite": _outcome(
            sem.check_entailment, [], Var("p"), md.resolve("chain:1@w"), sem.Grid(2)),
        "classify-standard": _outcome(md.classify, square),
    }


def records() -> dict:
    """Every golden record, keyed by a name that says what was checked."""
    eqs = corpus.corpus()
    out: dict = {}
    for name in STANDARD_VIEWS:
        m = md.resolve(name)
        for strategy in ("grid", "grid:3", "random:500"):
            for eq in eqs:
                if eq.sig is m.signature:
                    out[f"eq {name} {strategy} {eq.name}"] = _outcome(_check_eq, eq, m, strategy)
    for name in FINITE_SAMPLE_VIEWS:
        m = md.resolve(name)
        for strategy in ("exhaustive", "random:300"):
            for eq in eqs:
                if eq.sig is m.signature:
                    out[f"eq {name} {strategy} {eq.name}"] = _outcome(_check_eq, eq, m, strategy)
    entailments = _entailments()
    for name in STANDARD_VIEWS + FINITE_SAMPLE_VIEWS:
        m = md.resolve(name)
        if m.signature is not Sig.W:
            continue
        for strategy in ("exhaustive", "grid", "grid:3", "random:500"):
            for label, premises, conclusion in entailments:
                out[f"entail {name} {strategy} {label}"] = _outcome(
                    _check_entail, premises, conclusion, m, strategy)
    for name in CATALOG_VIEWS:
        m = md.resolve(name)
        out[f"classify {name}"] = _classify(m)
        out[f"mu {name}"] = _classes(md.mu_congruence(m))
        out[f"embed {name}"] = _outcome(_embedding, m)
    for label, text in _errors().items():
        out[f"error {label}"] = text
    return out


def main() -> int:
    recs = records()
    OUT.parent.mkdir(parents=True, exist_ok=True)
    # one record per line, so that a diff shows which records changed
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in recs.items())
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(f'{{"about": {json.dumps(HEADER)},\n "records": {{\n{lines}\n}}}}\n')
    print(f"wrote {len(recs)} records to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
