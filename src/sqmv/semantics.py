"""Valuations, equation checking, designated-value entailment, countermodel search.

Infinite carriers get a semi-decision: grid and seeded random sampling, with
``NO_COUNTEREXAMPLE_FOUND`` kept distinct from the finite-carrier verdict
``VALID_EXHAUSTIVE``.  Equations, small batteries of them and entailments
run through one driver, ``_check``: one tape, one sweep on integer numerators
over a common denominator (exact, no floats), and the re-evaluation of the
first witness through the scalar Fraction path before it is returned.
Entailment reads designated values off ``designated_set``: the fixpoints of
``pos`` on the standard models, the image of (c -> 1) -> 1 in the impl table
on finite ones.
This module decides how to sample; ``models`` owns what the values look like
(grid points, seeded draws, the element of a batch value).
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from functools import partial
from math import prod
from typing import Iterable, Sequence

import numpy as np

from . import models as md
from .models import Model, label_str
from .syntax import (
    Sig,
    SqmvError,
    Term,
    Var,
    check_signature,
    count_connective,
    fold,
)


class SemanticsError(SqmvError):
    pass


class UnboundVariable(SemanticsError):
    pass


class StrategyError(SemanticsError):
    pass


# Larger grids and random samples are refused before anything is allocated, and
# so are random samples of more values in all (sample count times variables).
_GRID_CAP = 2_000_000
_DRAW_CAP = 4_000_000

# Exhaustive sweeps of more valuations are refused before anything is allocated.
_EXHAUSTIVE_CAP = 10**9

# Batch checks build their mask in blocks of at most this many valuations and
# stop at the first block that holds a witness.
_SLICE = 2**18

# Largest max denominator of random sampling: numerators stay in [-D, D], so
# D*D in the disk test and the sum of two numerators fit in int64.
_MAX_DENOMINATOR = 2**31


# ---------------------------------------------------------------------------
# Scalar evaluation


def evaluate(t: Term, m: Model, valuation: dict):
    """Homomorphic evaluation of ``t`` in ``m`` under ``valuation`` (exact),
    once per distinct subterm."""
    check_signature(t, m.signature)
    return fold(t, partial(_value, m, valuation), {})


def _value(m: Model, valuation: dict, s: Term, args: tuple):
    if type(s) is Var:
        try:
            el = valuation[s.name]
        except KeyError:
            raise UnboundVariable(f"variable {s.name!r} is not bound") from None
        m.check_member(el)
        return el
    return m.apply(s.op, *args) if args else m.const(s.op)


# ---------------------------------------------------------------------------
# Strategies


@dataclass(frozen=True)
class Exhaustive:
    def describe(self) -> str:
        return "exhaustive"


@dataclass(frozen=True)
class Grid:
    denominator: int | None = None

    def __post_init__(self):
        if self.denominator is not None and self.denominator < 1:
            raise StrategyError(
                f"strategy 'grid:{self.denominator}' needs a denominator of at least 1"
            )

    def describe(self) -> str:
        return f"grid:{self.denominator}" if self.denominator else "grid"


@dataclass(frozen=True)
class RandomSampling:
    count: int
    max_denominator: int = 120

    def __post_init__(self):
        if not 1 <= self.count <= _GRID_CAP:
            raise StrategyError(
                f"strategy 'random:{self.count}' needs a sample count in 1..{_GRID_CAP}"
            )
        check_max_denominator(self, self.max_denominator)

    def describe(self) -> str:
        return f"random:{self.count}"


Strategy = Exhaustive | Grid | RandomSampling


def check_max_denominator(strategy: Strategy, max_den: int) -> None:
    """Reject a max denominator outside 1..2**31 whatever ``strategy`` is,
    though only random sampling uses the value."""
    if not 1 <= max_den <= _MAX_DENOMINATOR:
        raise StrategyError(
            f"strategy {strategy.describe()!r} has max denominator "
            f"{max_den}; it must lie in 1..{_MAX_DENOMINATOR}"
        )


def parse_strategy(text: str) -> Strategy:
    text = text.strip()
    if text == "exhaustive":
        return Exhaustive()
    if text == "grid":
        return Grid()
    kind, colon, arg = text.partition(":")
    if colon and kind in ("grid", "random"):
        try:
            n = int(arg)
        except ValueError:
            raise StrategyError(f"strategy {text!r} needs an integer after ':'") from None
        return Grid(n) if kind == "grid" else RandomSampling(n)
    raise StrategyError(f"unknown strategy {text!r}")


# ---------------------------------------------------------------------------
# Reports


class Verdict(enum.Enum):
    VALID_EXHAUSTIVE = "VALID_EXHAUSTIVE"
    NO_COUNTEREXAMPLE_FOUND = "NO_COUNTEREXAMPLE_FOUND"
    COUNTERMODEL = "COUNTERMODEL"


@dataclass
class Witness:
    model_name: str
    valuation: dict
    lhs_value: object
    rhs_value: object | None

    def as_json(self) -> dict:
        return {
            "model": self.model_name,
            "valuation": {k: label_str(v) for k, v in sorted(self.valuation.items())},
            "lhs": label_str(self.lhs_value),
            "rhs": None if self.rhs_value is None else label_str(self.rhs_value),
        }


@dataclass
class CheckReport:
    verdict: Verdict
    samples_tried: int
    strategy: str
    seed: int
    witness: Witness | None = None

    @property
    def found_countermodel(self) -> bool:
        return self.verdict is Verdict.COUNTERMODEL

    def as_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "samples": self.samples_tried,
            "seed": self.seed,
            "witness": self.witness.as_json() if self.witness else None,
        }

    def as_text(self) -> str:
        lines = [f"verdict: {self.verdict.value}",
                 f"samples: {self.samples_tried}",
                 f"strategy: {self.strategy}",
                 f"seed: {self.seed}"]
        if self.witness:
            w = self.witness
            lines.append(f"model: {w.model_name}")
            for k in sorted(w.valuation):
                lines.append(f"  {k} = {label_str(w.valuation[k])}")
            lines.append(f"  lhs = {label_str(w.lhs_value)}")
            if w.rhs_value is not None:
                lines.append(f"  rhs = {label_str(w.rhs_value)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Valuation spaces (vectorised representations)


def _env_from_random(m: Model, names: Sequence[str], count: int, seed: int, max_den: int):
    rng = np.random.default_rng(seed)
    return {nm: m.draw(rng, count, max_den) for nm in sorted(names)}, max_den, count


def _valuations(m: Model, strategy: Strategy, names: Sequence[str],
                terms: Sequence[Term], seed: int):
    """The valuations ``strategy`` checks on ``m``, as ``(env, D, total)``:
    ``env`` maps each name to its values (carrier indices on finite models,
    numerators over ``D`` otherwise), and ``terms`` set the default grid
    denominator.  Product strategies (exhaustive, grid) put each
    name on its own broadcast axis; random sampling gives flat arrays."""
    if isinstance(strategy, Exhaustive):
        if not m.finite:
            raise StrategyError("exhaustive checking needs a finite carrier")
        n = len(m.elements)
        total = n ** len(names)
        if total > _EXHAUSTIVE_CAP:
            raise StrategyError(
                f"exhaustive sweep of {total} valuations on {m.name} is too "
                f"large; at most {_EXHAUSTIVE_CAP} are checked"
            )
        env = dict(zip(names, md.product_axes(np.arange(n, dtype=m.index_dtype), len(names))))
        return env, 1, total
    if isinstance(strategy, Grid):
        if m.finite:
            raise StrategyError("grid sampling targets standard carriers; use exhaustive")
        tag = "oplus" if m.signature is Sig.MV else "impl"
        d = strategy.denominator or sum(count_connective(t, tag) for t in terms) + 2
        if (total := m.grid_count(d) ** len(names)) > _GRID_CAP:
            raise StrategyError(f"grid of {total} valuations is too large; lower the denominator")
        values, D = m.grid(d, len(names))
        return dict(zip(names, values)), D, total
    if isinstance(strategy, RandomSampling):
        if seed < 0:
            raise StrategyError(
                f"strategy {strategy.describe()!r} needs a non-negative seed, got {seed}"
            )
        if (draws := strategy.count * len(names)) > _DRAW_CAP:
            raise StrategyError(f"strategy {strategy.describe()!r} over {len(names)} variables "
                                f"draws {draws} values; at most {_DRAW_CAP} are drawn")
        return _env_from_random(m, names, strategy.count, seed, strategy.max_denominator)
    raise StrategyError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Batch evaluation


def _vec_neq(v1, v2) -> np.ndarray:
    if isinstance(v1, tuple):
        return np.not_equal(v1[0], v2[0]) | np.not_equal(v1[1], v2[1])
    return np.not_equal(v1, v2)


def _env_shape(env: dict) -> tuple:
    """Broadcast shape of ``env``, whose arrays all have one axis per name
    (product strategies) or one flat axis (random sampling)."""
    shapes = [a.shape for rep in env.values()
              for a in (rep if isinstance(rep, tuple) else (rep,))]
    return tuple(map(max, zip(*shapes))) if shapes else ()


def _blocks(shape: tuple):
    """Cut the row-major order of ``shape`` into runs of whole rows, a row
    being one index of the fewest leading axes below which at most
    ``_SLICE`` valuations lie, so that every block but the last holds
    ``_SLICE // row`` rows.  Yield each block's first row-major index, its
    index into the leading axes (a slice if there is one such axis) and
    its shape."""
    lead = 0
    while prod(shape[lead:]) > _SLICE:
        lead += 1
    row, rows = prod(shape[lead:]), prod(shape[:lead])
    step = _SLICE // row
    for s in range(0, rows, step):
        e = min(s + step, rows)
        if lead > 1:
            index = np.unravel_index(np.arange(s, e), shape[:lead])
        else:
            index = (slice(s, e),)[:lead]
        yield s * row, index, ((e - s,) if lead else ()) + shape[lead:]


def _take(rep, index: tuple):
    """``rep`` (an array or a pair of them) at ``index`` into its leading
    axes; an axis of length 1 is broadcast, not indexed."""
    if isinstance(rep, tuple):
        return tuple(_take(a, index) for a in rep)
    return rep[tuple(c if d > 1 else 0 for c, d in zip(index, rep.shape))]


def _first_witness(env: dict, bad_in) -> int | None:
    """Row-major index of the first valuation where the mask ``bad_in(part)``
    holds, or None.  The mask is built for one block ``part`` of ``env`` at a
    time, a run of whole rows (``_blocks``), one block after another on the
    calling thread, and the sweep stops at the first block with a witness."""
    for offset, index, block in _blocks(_env_shape(env)):
        mask = bad_in({nm: _take(rep, index) for nm, rep in env.items()} if index else env)
        hit = (mask if mask.shape == block else np.broadcast_to(mask, block)).ravel()
        if hit[i := int(hit.argmax())]:  # argmax stops at the first True
            return offset + i
    return None


def _valuation_at(m: Model, env: dict, D: int, i: int) -> dict:
    """The valuation at row-major index ``i`` of the broadcast ``env``; only
    the element of each array is read, nothing is broadcast."""
    shape = _env_shape(env)
    coords = np.unravel_index(i, shape) if shape else ()
    return {nm: m.element(_take(rep, coords), D) for nm, rep in env.items()}


# ---------------------------------------------------------------------------
# The check driver and equation checking


# The tape of each formula tuple whose formulas are all alive, by the ids of the
# signature and of the formulas; a formula's death drops the entry, so an id is
# never reused in a key.  (Ids hash faster than a Sig.)
_TAPES: dict[tuple, tuple[md.Tape, list]] = {}


def _tape(terms: Sequence[Term], sig: Sig) -> md.Tape:
    """``models.compile(terms, sig)``, once for as long as ``terms`` live."""
    key = (id(sig), *map(id, terms))
    if (entry := _TAPES.get(key)) is None:
        tape = md.compile(terms, sig)
        drop = lambda ref: _TAPES.pop(key, None)  # noqa: E731
        entry = _TAPES[key] = (tape, [weakref.ref(t, drop) for t in terms])
    return entry[0]


def _check(terms: Sequence[Term], m: Model, strategy: Strategy, seed: int,
           bad, exact, groups: Sequence[tuple[int, ...]]) -> list[CheckReport]:
    """For each group of ``terms`` (by index), sweep the valuations of
    ``strategy`` for the first where the mask ``bad(*the group's values)``
    holds and re-evaluate the group there through ``evaluate``:
    ``exact(*values)`` gives the witness's ``(lhs, rhs)``, or None where the
    exact values refute it, which raises.  Several groups share one run of the
    tape over an exhaustive sweep of one block, each read over the axes of its
    own variables alone: its witness and ``samples`` are its own check's."""
    tape = _tape(terms, m.signature)
    env, D, total = _valuations(m, strategy, tape.names, terms, seed)
    # a composed tape gathers only at its kept steps, from tables of n*n
    # cells built once per check: compose when the sweep is wide, outnumbers
    # a table's cells and a table fits a block
    if m.finite and max(md.WIDE, cells := len(m.elements) ** 2) < total and cells <= _SLICE:
        tape = md.compose(tape, m)
    shared = md.run(tape, m, env, D) if len(groups) > 1 else None
    reports = []
    for g, own in zip(groups, [tape.names] if shared is None else tape.reading(groups)):
        part = {nm: env[nm] for nm in own}
        i = _first_witness(part, lambda p: bad(*map(
            (shared or md.run(tape, m, p, D)).__getitem__, g)))
        if i is None:
            exhaustive = isinstance(strategy, Exhaustive)
            verdict = Verdict.VALID_EXHAUSTIVE if exhaustive else Verdict.NO_COUNTEREXAMPLE_FOUND
            count = total if shared is None else len(m.elements) ** len(own)
            reports.append(CheckReport(verdict, count, strategy.describe(), seed))
            continue
        valuation = _valuation_at(m, part, D, i)
        pair = exact(*[evaluate(terms[j], m, valuation) for j in g])
        if pair is None:
            raise SemanticsError("batch path disagrees with the exact evaluator")
        witness = Witness(m.name, valuation, *pair)
        reports.append(CheckReport(Verdict.COUNTERMODEL, i + 1, strategy.describe(), seed, witness))
    return reports


def _differ(lhs, rhs):
    return (lhs, rhs) if lhs != rhs else None


def check_equation(lhs: Term, rhs: Term, m: Model, strategy: Strategy,
                   seed: int = 0) -> CheckReport:
    """Decide / sample the equation lhs = rhs over ``m``."""
    return _check((lhs, rhs), m, strategy, seed, _vec_neq, _differ, [(0, 1)])[0]


def check_equations(pairs: Sequence[tuple[Term, Term]], m: Model) -> list[CheckReport]:
    """``check_equation(lhs, rhs, m, Exhaustive())`` of each pair: all in one
    sweep of one tape where ``m`` is finite and a sweep over all their
    variables has at most ``models.WIDE`` valuations (one block, nothing
    composed), one check per pair otherwise.  There, a pair that holds on
    every factor of ``m`` (see ``models.product``) holds on ``m`` and is not
    swept: it reports the product of its factors' ``samples``, which is n^k
    over its own k variables, since n is the product of their sizes."""
    terms = [t for pair in pairs for t in pair]
    if not m.finite or len(m.elements) ** len(_tape(terms, m.signature).names) > md.WIDE:
        on = [check_equations(pairs, f) for f in m.factors]
        return [CheckReport(Verdict.VALID_EXHAUSTIVE, prod(rs[j].samples_tried for rs in on),
                            Exhaustive().describe(), 0)
                if on and not any(rs[j].found_countermodel for rs in on)
                else check_equation(*pair, m, Exhaustive()) for j, pair in enumerate(pairs)]
    return _check(terms, m, Exhaustive(), 0, _vec_neq, _differ,
                  tuple((j, j + 1) for j in range(0, len(terms), 2)))


# ---------------------------------------------------------------------------
# Designated elements and entailment


@dataclass(frozen=True)
class DesignatedSet:
    """Membership in the designated set of ``model``: its ``elements`` on a
    finite model, the fixpoints of its own ``pos`` otherwise."""

    model: Model = field(compare=False, repr=False)
    elements: tuple | None = None  # finite models only
    # finite models only: read-only membership flags by carrier index
    table: np.ndarray | None = field(default=None, compare=False, repr=False)

    def contains(self, el) -> bool:
        if self.elements is not None:
            return el in self.elements
        return self.model.apply("pos", el) == el

    def vec_contains(self, rep) -> np.ndarray:
        if self.table is not None:
            return self.table[rep]
        # pos reads no denominator
        return ~_vec_neq(self.model.vec_apply("pos", [rep], 1), rep)


def designated_set(m: Model) -> DesignatedSet:
    """Elements of the shape (c -> 1) -> 1.  On a standard model that is c^+
    (by QW*5a, QW*5b and the strong law), so the set is the fixpoints of the
    model's own ``pos``, checked by the test suite against the exact ``apply``
    at every point of the k/D grids.  A finite model need not be strong: its
    set is the image in its impl table."""
    if m.signature is not Sig.W:
        raise SemanticsError("designated elements live in the implicational signature")
    if not m.finite:
        return DesignatedSet(m)
    t, one = m.tables["impl"], m.consts["one"]
    table = np.zeros(len(m.elements), dtype=bool)
    table[t[t[:, one], one]] = True
    table.flags.writeable = False
    els = tuple(sorted((m.elements[i] for i in np.flatnonzero(table)), key=label_str))
    return DesignatedSet(m, els, table)


def check_entailment(premises: Sequence[Term], conclusion: Term, m: Model,
                     strategy: Strategy, seed: int = 0) -> CheckReport:
    """Designated-value entailment: premises designated force the conclusion."""
    if m.signature is not Sig.W:
        raise SemanticsError("entailment is defined over the implicational signature")
    ds = designated_set(m)

    def bad(*values):
        *prems, concl = values
        out = ~ds.vec_contains(concl)
        for v in prems:
            out = out & ds.vec_contains(v)
        return out

    def exact(*values):
        *prems, concl = values
        countermodel = all(map(ds.contains, prems)) and not ds.contains(concl)
        return (concl, None) if countermodel else None

    return _check((*premises, conclusion), m, strategy, seed, bad, exact,
                  [range(len(premises) + 1)])[0]


# ---------------------------------------------------------------------------
# Countermodel search


def search_countermodel(
    lhs: Term, rhs: Term, family: Iterable[str], strategy: Strategy, seed: int = 0
) -> CheckReport:
    """Try each named model in turn; finite members are swept exhaustively."""
    total = 0
    descs = []
    for name in family:
        m = md.resolve(name)
        strat = Exhaustive() if m.finite else strategy
        report = check_equation(lhs, rhs, m, strat, seed)
        total += report.samples_tried
        descs.append(f"{name}:{report.strategy}")
        if report.found_countermodel:
            return CheckReport(
                Verdict.COUNTERMODEL, total, "+".join(descs), seed, report.witness
            )
    return CheckReport(Verdict.NO_COUNTEREXAMPLE_FOUND, total, "+".join(descs), seed)
