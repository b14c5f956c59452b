"""Command-line front end.

Exit codes: 0 success / valid / ACCEPT, 1 countermodel found or proof
REJECTed, 2 usage, parse, or I/O errors, 3 internal errors (with a
traceback), 141 (128 + SIGPIPE, with nothing on stderr) when the reader of
stdout has quit.  Identical invocations produce byte-identical output; every
sampling verb takes a ``--seed`` (default 0).

Each verb imports the modules it needs when it runs, so that ``parse``,
``print``, ``translate`` and the proof verbs start without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .syntax import (
    IDENT,
    SqmvError,
    Sig,
    Term,
    Var,
    children,
    fold,
    joined,
    mv_to_w_term,
    parse,
    print_term,
    w_to_mv_term,
)

if TYPE_CHECKING:
    from . import models as md
    from . import semantics as sem


class CliError(SqmvError):
    pass


def _sig(text: str) -> Sig:
    return Sig.MV if text == "mv" else Sig.W


def _model(name: str) -> md.Model:
    from . import models as md

    return md.resolve(name)


def _strategy(args, m: md.Model | None = None) -> sem.Strategy:
    """``--strategy`` (by default exhaustive on a finite ``m``, otherwise
    random:10000), with ``--max-den`` checked whatever the strategy and
    applied to random sampling."""
    from . import semantics as sem

    if args.strategy:
        strategy = sem.parse_strategy(args.strategy)
    elif m is not None and m.finite:
        strategy = sem.Exhaustive()
    else:
        strategy = sem.RandomSampling(10000)
    if args.max_den is not None:
        sem.check_max_denominator(strategy, args.max_den)
        if isinstance(strategy, sem.RandomSampling):
            strategy = sem.RandomSampling(strategy.count, args.max_den)
    return strategy


def _ast(t: Term, kids: tuple) -> str | tuple:
    """The parse-tree node of ``t`` as JSON text in pieces over its children's."""
    node = f'"node": "{type(t).__name__}"}}'
    if isinstance(t, Var):
        return f'{{"name": {json.dumps(t.name)}, {node}'
    if not kids:
        return "{" + node
    return ('{"children": [', kids[0], *(p for k in kids[1:] for p in (", ", k)), "], " + node)


def _ast_text(t: Term) -> str:
    """The parse tree of ``t``, one line per occurrence indented by its depth."""
    lines, stack = [], [(t, 0)]
    while stack:
        s, depth = stack.pop()
        lines.append("  " * depth + type(s).__name__ + (f" {s.name}" if isinstance(s, Var) else ""))
        stack.extend((c, depth + 1) for c in reversed(children(s)))
    return "\n".join(lines)


def _emit_report(report: sem.CheckReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.as_json(), sort_keys=True))
    else:
        print(report.as_text())
    return 1 if report.found_countermodel else 0


def _resolve_script_path(path: str) -> str:
    if os.path.exists(path):
        return path
    base = os.environ.get("SQMV_FIXTURES")
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    raise CliError(f"no such proof script: {path}")


def _load_script(path: str):
    from .proofkit import parse_script

    with open(_resolve_script_path(path), encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CliError(f"cannot decode proof script {path}: {exc}") from None
    return parse_script(text)


# ---------------------------------------------------------------------------
# Verbs


def cmd_parse(args) -> int:
    t = parse(args.formula, _sig(args.sig))
    print(joined(fold(t, _ast, {})) if args.json else _ast_text(t))
    return 0


def cmd_print(args) -> int:
    print(print_term(parse(args.formula, _sig(args.sig))))
    return 0


def cmd_eval(args) -> int:
    from . import models as md
    from . import semantics as sem

    m = _model(args.model)
    t = parse(args.formula, m.signature)
    valuation = {}
    for binding in args.let or []:
        name, eq, value = binding.partition("=")
        name = name.strip()
        if not (eq and IDENT.fullmatch(name)):
            raise CliError(f"bindings look like x=1/2 or x=1/2,0 (got {binding!r})")
        if name in valuation:
            raise CliError(f"variable {name!r} is bound twice")
        valuation[name] = md.read_element(value)
    try:  # a value computed from printable literals can still be too long
        text = md.label_str(sem.evaluate(t, m, valuation))
    except ValueError:
        raise CliError("the value exceeds Python's integer digit limit") from None
    print(json.dumps({"value": text}) if args.json else text)
    return 0


def cmd_check_eq(args) -> int:
    from . import semantics as sem

    m = _model(args.model)
    lhs = parse(args.lhs, m.signature)
    rhs = parse(args.rhs, m.signature)
    strategy = _strategy(args, m)
    report = sem.check_equation(lhs, rhs, m, strategy, args.seed)
    return _emit_report(report, args.json)


def cmd_check_entail(args) -> int:
    from . import semantics as sem

    m = _model(args.model)
    if m.signature is not Sig.W:
        raise CliError("entailment needs a Wajsberg view; pick a model with @w")
    premises = [parse(p, Sig.W) for p in args.premise or []]
    conclusion = parse(args.conclusion, Sig.W)
    strategy = _strategy(args, m)
    report = sem.check_entailment(premises, conclusion, m, strategy, args.seed)
    return _emit_report(report, args.json)


def cmd_find_countermodel(args) -> int:
    from . import models as md
    from . import semantics as sem

    # cut at the commas outside parentheses, so that a member may be a product
    names = [md._strip_parens(n.strip()) for n in md._split_top(args.models, "()")]
    if not any(names):
        raise CliError("no models given")
    if not all(names):
        raise CliError(f"empty model name in {args.models!r}")
    first = _model(names[0])
    lhs = parse(args.lhs, first.signature)
    rhs = parse(args.rhs, first.signature)
    strategy = _strategy(args)
    report = sem.search_countermodel(lhs, rhs, names, strategy, args.seed)
    return _emit_report(report, args.json)


def cmd_translate(args) -> int:
    source = Sig.MV if args.to == "w" else Sig.W
    t = parse(args.formula, source)
    out = mv_to_w_term(t) if args.to == "w" else w_to_mv_term(t)
    print(print_term(out))
    return 0


def cmd_classify(args) -> int:
    from . import models as md

    m = _model(args.model)
    flags = md.classify(m)
    if args.json:
        payload = {
            "model": m.name,
            "size": len(m.elements),
            "is_quasi": flags.is_quasi,
            "is_strong": flags.is_strong,
            "is_flat": flags.is_flat,
            "is_star": flags.is_star,
            "failed": sorted(k for k, v in flags.axiom_results.items() if not v),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"model: {m.name} ({len(m.elements)} elements)")
        print(flags.summary())
        for name in sorted(flags.witnesses):
            wit = flags.witnesses[name]
            pretty = ", ".join(f"{k}={md.label_str(v)}" for k, v in sorted(wit.items()))
            print(f"fails {name}" + (f" at {pretty}" if pretty else ""))
    if args.tables:
        print(m.table_text(), end="")
    return 0


def cmd_audit_axioms(args) -> int:
    from . import semantics as sem
    from .axioms import audit_battery

    m = _model(args.model)
    battery = audit_battery(m.signature)
    strategy = _strategy(args, m)
    failures = 0
    for eq in battery:
        report = sem.check_equation(eq.lhs, eq.rhs, m, strategy, args.seed)
        ok = not report.found_countermodel
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {eq.name} [{report.samples_tried} samples]")
    print(f"{len(battery) - failures}/{len(battery)} axioms pass on {m.name}")
    return 0 if failures == 0 else 1


def cmd_check_proof(args) -> int:
    from .proofkit import check_proof, standard_registry

    script = _load_script(args.file)
    report = check_proof(script, standard_registry())
    print(report.summary())
    if args.verbose:
        for c in report.checks:
            mark = "ok" if c.ok else "FAIL"
            print(f"  line {c.number}: {mark} {c.detail or c.reason}")
    return 0 if report.accepted else 1


def cmd_lift_proof(args) -> int:
    from .proofkit import format_script, lift_lstar_proof

    script = _load_script(args.file)
    lifted = lift_lstar_proof(script, args.prefix)
    print(format_script(lifted), end="")
    return 0


def cmd_deregularize(args) -> int:
    from .proofkit import deregularize_proof, format_script, standard_registry

    script = _load_script(args.file)
    out = deregularize_proof(script, standard_registry())
    print(format_script(out), end="")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def _add_common(p: argparse.ArgumentParser, model: bool = True) -> None:
    if model:
        p.add_argument("--model", required=True, help="catalog model name")
    p.add_argument("--strategy", help="exhaustive | grid[:d] | random:n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-den", type=int, default=None, dest="max_den")
    p.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sqmv",
        description="Strong quasi-MV* / quasi-Wajsberg* algebra workbench",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse a formula and show its tree")
    p.add_argument("--sig", choices=("mv", "w"), default="mv")
    p.add_argument("--json", action="store_true")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("print", help="parse and re-print a formula canonically")
    p.add_argument("--sig", choices=("mv", "w"), default="mv")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_print)

    p = sub.add_parser("eval", help="evaluate a formula in a model")
    p.add_argument("--model", required=True)
    p.add_argument("--let", action="append", metavar="x=VALUE")
    p.add_argument("--json", action="store_true")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check-eq", help="check an equation over a model")
    _add_common(p)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(fn=cmd_check_eq)

    p = sub.add_parser("check-entail", help="designated-value entailment check")
    _add_common(p)
    p.add_argument("--premise", action="append")
    p.add_argument("conclusion")
    p.set_defaults(fn=cmd_check_entail)

    p = sub.add_parser("find-countermodel", help="search a family of models")
    p.add_argument("--models", required=True, help="comma-separated catalog names")
    _add_common(p, model=False)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(fn=cmd_find_countermodel)

    p = sub.add_parser("translate", help="translate a formula between signatures")
    p.add_argument("--to", choices=("w", "mv"), required=True)
    p.add_argument("formula")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("classify", help="exhaustive class flags of a finite model")
    p.add_argument("--model", required=True)
    p.add_argument("--tables", action="store_true", help="dump operation tables")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("audit-axioms", help="run the axiom battery over a model")
    _add_common(p)
    p.set_defaults(fn=cmd_audit_axioms)

    p = sub.add_parser("check-proof", help="check a proof script file")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check_proof)

    p = sub.add_parser("lift-proof", help="re-play an L* proof inside sqL*")
    p.add_argument("--prefix", default="p", help="variable of the reflexive prefix")
    p.add_argument("file")
    p.set_defaults(fn=cmd_lift_proof)

    p = sub.add_parser("deregularize", help="strip the reflexive prefix")
    p.add_argument("file")
    p.set_defaults(fn=cmd_deregularize)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has quit: exit as SIGPIPE would; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except RecursionError:
        print("error: formula nests too deeply", file=sys.stderr)
        return 2
    except (SqmvError, OSError) as exc:
        text = str(exc)
        # proofkit errors have always been reported under their class name
        if type(exc).__module__.startswith("sqmv.proofkit"):
            text = f"{type(exc).__name__}: {text}"
        print(f"error: {text}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
