"""The benchmark's four workloads.

A workload is set up once (``setup``: import sqmv and the one-off program
set-up), then yields passes of operations (``make_pass``).  A pass is a fixed
list of operation classes with fixed sizes; the seed picks only the concrete
inputs, so the cost of a pass barely depends on the seed.  Classes are
interleaved evenly, so that any prefix of a pass has the pass's mix.

An operation makes its sqmv calls through the ``Recorder`` (which times and
traces them), checks the verdict against an answer derived in ``terms`` from
the definitions, and returns a record of its verdict and counts for the
determinism check.  A wrong verdict raises ``Mismatch``.
"""

from __future__ import annotations

import functools
import itertools
import os
import pathlib
import random
import re
import resource
import subprocess
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import speed
import terms as T

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "sqmv" / "fixtures"

STANDARD = ("square", "disk", "interval", "flat-standard")
SQL = "sqL*"


class Mismatch(Exception):
    """sqmv's answer differs from the benchmark's expected answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


class Op:
    __slots__ = ("kind", "fn", "key", "pass_no")

    def __init__(self, kind: str, fn, key=None):
        self.kind = kind
        self.fn = fn
        self.key = key  # identifies the input, for the repeat share
        self.pass_no = None


def interleave(groups: list[list[Op]]) -> list[Op]:
    """Merge groups so that every prefix holds each group's share of ops.
    The order inside a group is kept."""
    keyed = []
    for g, ops in enumerate(groups):
        for i, op in enumerate(ops):
            keyed.append(((i + 0.5) / len(ops), g, op))
    keyed.sort(key=lambda row: row[:2])
    return [op for _, _, op in keyed]


def load_sqmv() -> SimpleNamespace:
    """Import the program under test from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sqmv
    from sqmv import axioms, corpus, models, semantics, syntax, transform
    from sqmv import proofkit
    from sqmv.proofkit import registry

    if not pathlib.Path(sqmv.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sqmv was imported from {sqmv.__file__}, not from {SRC}")
    return SimpleNamespace(
        sqmv=sqmv, axioms=axioms, corpus=corpus, md=models, sem=semantics,
        syn=syntax, tr=transform, pk=proofkit, registry=registry,
    )


def from_sqmv(t) -> tuple:
    """An sqmv term as a ``terms`` tuple, read off its constructor fields."""
    kind = type(t).__name__
    if kind == "Var":
        return T.var(t.name)
    if kind == "Const0":
        return T.ZERO
    if kind == "Const1":
        return T.ONE
    tag = {"OPlus": "oplus", "Impl": "impl", "UMinus": "uminus", "Neg": "neg",
           "PosPart": "pos", "NegPart": "npart"}[kind]
    if tag in ("oplus", "impl"):
        return (tag, from_sqmv(t.left), from_sqmv(t.right))
    return (tag, from_sqmv(t.arg))


def _verdict(report) -> str:
    return report.verdict.value


class Workload:
    name = ""
    # operations, from the start of the seeded sequence, that a traced run
    # times twice, untraced and traced: an even number of whole passes, since
    # which of the two runs first flips from one pass to the next
    trace_ops = 100
    # sqmv calls whose allocation peak the traced run records
    peak_memory_of: tuple = ()
    # the work whose time gives the host's speed for this workload's operations
    speed_reference = speed.BLOCK

    def setup(self) -> None:
        raise NotImplementedError

    def make_pass(self, rng: random.Random, pass_no: int) -> list[Op]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process that does the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# sampled-standard


class SampledStandard(Workload):
    """Seeded equation and entailment checks on the standard models.

    One third of the operations by count are equation checks: over four
    passes, the audit battery at random:10000 on all eight standard models
    and views, and the 50-equation corpus at grid:2 then random:2000 on the
    square and the disk.
    Two thirds are criterion-7 soundness entailments on square@w, whose cost
    today is almost all designated-set verification: three in four check an
    axiom instance, one in four a derived rule on two substitution instances.
    """

    name = "sampled-standard"
    trace_ops = 366  # two passes
    peak_memory_of = ("semantics.check_equation",)

    def setup(self) -> None:
        self.api = a = load_sqmv()
        Sig = a.syn.Sig
        self.Sig = Sig
        self.models = {n + s: a.md.resolve(n + s) for n in STANDARD for s in ("", "@w")}
        self.battery = {Sig.MV: a.axioms.audit_battery(Sig.MV),
                        Sig.W: a.axioms.audit_battery(Sig.W)}
        self.corpus = a.corpus.corpus()
        self.axiom_forms = a.pk.AXIOMS[SQL]
        self.rules = {k: r for k, r in a.pk.RULES[SQL].items() if k != "Flat"}
        self._grid_space: dict = {}

    def grid_space(self, model_name: str, k: int) -> int:
        """Valuations in a grid:2 sweep with ``k`` variables, as sqmv counts
        them for a valid equation; the base of the witness prefix share."""
        key = (model_name, k)
        if key not in self._grid_space:
            a, m = self.api, self.models[model_name]
            names = ["x", "y", "z"][:k]
            sig = m.signature
            op = " (+) " if sig is self.Sig.MV else " -> "
            t = a.syn.parse(op.join(names) if names else "1", sig)
            self._grid_space[key] = a.sem.check_equation(t, t, m, a.sem.Grid(2)).samples_tried
        return self._grid_space[key]

    def make_pass(self, rng, pass_no):
        """A quarter of the equation checks: one standard model and its @w
        view through the audit battery, and a quarter of the corpus checks;
        four passes in a row cover them all."""
        a, Sig = self.api, self.Sig
        quarter = pass_no % 4
        audits = []
        for name in (STANDARD[quarter], STANDARD[quarter] + "@w"):
            m = self.models[name]
            for eq in self.battery[m.signature]:
                audits.append(Op("audit", self._audit(m, eq, rng.randrange(2**31))))
        corpus_ops = []
        for i, (eq, base) in enumerate(itertools.product(self.corpus, ("square", "disk"))):
            if i % 4 == quarter:
                name = base + ("" if eq.sig is Sig.MV else "@w")
                corpus_ops.append(Op("corpus", self._corpus(name, eq, rng.randrange(2**31))))
        equations = interleave([audits, corpus_ops])

        # criterion 7: a fresh pool of substitution images per pass
        pool = [T.random_term(rng, "w", 2, ("a", "b", "c"), allow_parts=False)
                for _ in range(8)]
        entails = []
        axiom_names = sorted(self.axiom_forms)
        rule_names = sorted(self.rules)
        for i in range(2 * len(equations)):
            seed = rng.randrange(2**31)
            if i % 4 == 3:
                # a rule op checks two instances, so that rule ops form a
                # cost cluster of their own above the axiom ops, holding p90
                rule = self.rules[rule_names[(i // 4) % len(rule_names)]]
                metavars = sorted({n for s in (*rule.premises, rule.conclusion)
                                   for n in a.syn.variables(s)})
                instances = [({v: rng.choice(pool) for v in metavars}, seed + j)
                             for j in range(2)]
                entails.append(Op("entail-rule", self._entail(
                    list(rule.premises), rule.conclusion, instances, 1000)))
            else:
                name = axiom_names[rng.randrange(len(axiom_names))]
                forms = self.axiom_forms[name]
                form = forms[rng.randrange(len(forms))]
                sigma = {v: rng.choice(pool) for v in ("p", "q", "r")}
                entails.append(Op("entail-axiom", self._entail([], form, [(sigma, seed)], 10000)))
        return interleave([equations, entails])

    def _audit(self, m, eq, seed):
        def run(rec):
            sem = self.api.sem
            rep = rec.call("semantics.check_equation", sem.check_equation,
                           eq.lhs, eq.rhs, m, sem.RandomSampling(10000), seed)
            rec.note(valuations=rep.samples_tried, countermodel=rep.found_countermodel)
            expect(not rep.found_countermodel and rep.samples_tried == 10000,
                   f"audit {eq.name} on {m.name}: {_verdict(rep)}")
            return (_verdict(rep), rep.samples_tried)
        return run

    def _corpus(self, model_name, eq, seed):
        """Criterion 5's procedure: grid:2 first, random:2000 if it finds nothing."""
        bad = eq.name.startswith("bad-")

        def run(rec):
            sem, m = self.api.sem, self.models[model_name]
            k = len(set(self.api.syn.variables(eq.lhs)) | set(self.api.syn.variables(eq.rhs)))
            rep = rec.call("semantics.check_equation", sem.check_equation,
                           eq.lhs, eq.rhs, m, sem.Grid(2), seed)
            space = self.grid_space(model_name, k) if rec.tracing else None
            rec.note(valuations=rep.samples_tried, countermodel=rep.found_countermodel,
                     space=space)
            tried = rep.samples_tried
            if not rep.found_countermodel:
                rep = rec.call("semantics.check_equation", sem.check_equation,
                               eq.lhs, eq.rhs, m, sem.RandomSampling(2000), seed)
                rec.note(valuations=rep.samples_tried, countermodel=rep.found_countermodel,
                         space=2000)
                tried += rep.samples_tried
            expect(rep.found_countermodel == bad, f"corpus {eq.name} on {model_name}")
            if bad:
                v = rep.witness.valuation
                lhs, rhs = from_sqmv(eq.lhs), from_sqmv(eq.rhs)
                expect(T.eval_square(lhs, v) != T.eval_square(rhs, v),
                       f"corpus {eq.name}: witness does not falsify the equation")
            return (_verdict(rep), tried)
        return run

    def _entail(self, premise_schemas, conclusion_schema, instances, count):
        """Soundness: each (substitution images, sampling seed) instance of
        the schemas is a valid entailment on square@w."""
        def run(rec):
            a, Sig = self.api, self.Sig
            record = []
            for images, seed in instances:
                sigma = {}
                for v, t in images.items():
                    sigma[v] = rec.call("syntax.parse", a.syn.parse, T.text(t), Sig.W)
                    rec.note(nodes=T.size(t))
                premises = [rec.call("syntax.substitute", a.syn.substitute, s, sigma, Sig.W)
                            for s in premise_schemas]
                concl = rec.call("syntax.substitute", a.syn.substitute,
                                 conclusion_schema, sigma, Sig.W)
                rep = rec.call("semantics.check_entailment", a.sem.check_entailment,
                               premises, concl, self.models["square@w"],
                               a.sem.RandomSampling(count), seed)
                rec.note(valuations=rep.samples_tried, countermodel=rep.found_countermodel,
                         space=count)
                expect(not rep.found_countermodel and rep.samples_tried == count,
                       f"soundness entailment: {_verdict(rep)}")
                record.append((_verdict(rep), rep.samples_tried))
            return record
        return run


# ---------------------------------------------------------------------------
# finite-exhaustive

# Criterion 1's flag table for the additive catalog views, by name prefix.
FLAGS = {
    "chain": dict(is_quasi=True, is_strong=True, is_flat=False, is_star=True),
    "flatten": dict(is_quasi=True, is_strong=True, is_flat=True, is_star=False),
    "product": dict(is_quasi=True, is_strong=True, is_flat=False, is_star=False),
    "ex32": dict(is_quasi=True, is_strong=True, is_flat=False, is_star=False),
}


class FiniteExhaustive(Workload):
    """Exhaustive work on finite models built fresh with the public
    constructors, so that the catalog and classification caches are bypassed.

    Operations: classify each of the 22 catalog views; round-trip each view
    through the signature translations; exhaustive equation checks on
    chain:n for n from 10 to 80 with 2 or 3 variables, half of them valid
    sweeps (permutations of a truncated sum) and half associativity
    instances, which fail at an early witness but cost as much as a valid
    sweep of the same size.  Each view is built inside
    its operation; the chains for the sweeps are built once per pass,
    outside the timed calls.
    """

    name = "finite-exhaustive"
    trace_ops = 392  # two passes
    peak_memory_of = ("semantics.check_equation",)
    # chain sizes of the sweeps, in blocks of four checks
    SIZES_K2 = tuple(range(10, 41, 5)) * 2                  # below a millisecond
    SIZES_K3 = (10,) * 3                                    # below a millisecond
    MID_K3 = (20,) * 15                                     # 2-4 ms, all alike
    # valid sweeps on chain:70 cost about what failing ones cost on chain:66
    BIG_K3 = ((70, "valid"),) * 3 + ((66, "assoc"),) * 3

    def setup(self) -> None:
        self.api = a = load_sqmv()
        Sig = a.syn.Sig
        self.Sig = Sig
        # variables per classification equation, for the valuation counts
        self.battery_k = {}
        for sig in (Sig.MV, Sig.W):
            eqs = (a.axioms.quasi_axioms(sig) + a.axioms.strong_axioms(sig)
                   + [a.axioms.flat_equation(sig)] + a.axioms.star_axioms(sig))
            self.battery_k[sig] = [
                len(T.variables(from_sqmv(e.lhs)) | T.variables(from_sqmv(e.rhs)))
                for e in eqs]

    # fresh catalog views, built only with the public constructors
    def _build(self, rec, spec):
        md = self.api.md
        kind = spec[0]
        if kind == "chain":
            return rec.call("models.build.finite_chain", md.finite_chain, spec[1])
        if kind == "flatten":
            base = self._build(rec, spec[1])
            return rec.call("models.build.flattening", md.flattening, base, Fraction(0))
        if kind == "product":
            left, right = self._build(rec, spec[1]), self._build(rec, spec[2])
            return rec.call("models.build.product", md.product, left, right)
        if kind == "ex32":
            return rec.call("models.build.ex32_grid", md.ex32_grid)
        base = self._build(rec, spec[1])
        return rec.call("models.build.finite_w_view", md.finite_w_view, base)

    @staticmethod
    def catalog() -> list[tuple]:
        """The 22 catalog views, ordered so that the large ones are spread
        evenly through the list."""
        ch = lambda n: ("chain", n)
        fl = lambda n: ("flatten", ch(n))
        pr = lambda n: ("product", ch(n), fl(n))
        large = [("product", pr(1), pr(1)), pr(3)]            # 81 and 49 elements
        small = [ch(1), ch(2), ch(3), fl(1), fl(2), fl(3), pr(1), pr(2), ("ex32",)]
        w = lambda specs: [("w", spec) for spec in specs]
        return interleave([large + w(large), small + w(small)])

    def make_pass(self, rng, pass_no):
        """196 operations.  By cost: 68 sweeps under a millisecond (35%);
        60 sweeps on chain:20 with three variables, which all cost the same
        2-4 ms (31%); 36 operations of 5-20 ms on the small views (18%);
        26 of about 100 ms, the large sweeps and classifying the 49-element
        views (13%); 6 of 0.3-2 s, the other 49- and 81-element view
        operations (3%).  So p50 falls in the middle of the chain:20
        cluster, which holds the same operation whatever the seed, and p90
        inside the fourth."""
        views = self.catalog()
        blocks = [(n, None, 2) for n in self.SIZES_K2]
        blocks += [(n, None, 3) for n in self.SIZES_K3 + self.MID_K3]
        blocks += [(n, kind, 3) for n, kind in self.BIG_K3]
        chains = {n: self.api.md.finite_chain(n)  # inputs: fresh per pass, untimed
                  for n in {n for n, _, _ in blocks}}
        sweeps = [self._sweeps(rng, chains[n], n, k, kind) for n, kind, k in blocks]
        classify_ops = [Op("classify", self._classify(v)) for v in views]
        trip_ops = [Op("round-trip", self._round_trip(v)) for v in views]
        return interleave([interleave(sweeps), classify_ops, trip_ops])

    def _sweeps(self, rng, chain, n, k, kind=None):
        """Four checks over k variables: two valid sum permutations and two
        associativity instances, or four of one ``kind``.  The term shapes
        are fixed; the seed picks the variables."""
        names = ["x", "y", "z"][:k]
        valid = {None: 2, "valid": 4, "assoc": 0}[kind]
        ops = []
        for _ in range(valid):
            a, b, c = rng.sample(names + [rng.choice(names)] * (3 - k), 3)
            lhs = ("oplus", ("oplus", T.var(a), T.var(b)), T.var(c))
            rhs = ("oplus", lhs[2], T.mirror(rng, lhs[1]))
            ops.append(Op("sweep-valid", self._exhaustive(chain, n, lhs, rhs, True)))
        for _ in range(4 - valid):
            perm = rng.sample(names, k)
            x, y, z = (perm[0], perm[0], perm[1]) if k == 2 else perm
            lhs = ("oplus", T.var(x), ("oplus", T.var(y), T.var(z)))
            rhs = ("oplus", ("oplus", T.var(x), T.var(y)), T.var(z))
            ops.append(Op("sweep-assoc", self._exhaustive(chain, n, lhs, rhs, False)))
        return ops

    def _classify(self, spec):
        is_w = spec[0] == "w"
        prefix = (spec[1] if is_w else spec)[0]

        def run(rec):
            m = self._build(rec, spec)
            flags = rec.call("models.classify", self.api.md.classify, m)
            n = len(m.elements)
            vals = sum(n ** k for k in self.battery_k[m.signature])
            rec.note(valuations=vals, size=n)
            want = dict(is_quasi=True, is_strong=True) if is_w else FLAGS[prefix]
            for attr, value in want.items():
                expect(getattr(flags, attr) == value, f"classify {m.name}: {attr}")
            got = tuple(getattr(flags, f) for f in ("is_quasi", "is_strong", "is_flat", "is_star"))
            return (m.name, got, vals)
        return run

    def _round_trip(self, spec):
        is_w = spec[0] == "w"

        def run(rec):
            tr = self.api.tr
            m = self._build(rec, spec)
            there, back = ((tr.w_to_mv_model, tr.mv_to_w_model) if is_w
                           else (tr.mv_to_w_model, tr.w_to_mv_model))

            def trip():
                name_there = "transform." + there.__name__
                name_back = "transform." + back.__name__
                view = rec.call(name_back, back, rec.call(name_there, there, m))
                return rec.call("transform.tables_equal", tr.tables_equal, view, m)

            same = rec.call("transform.round_trip", trip)
            rec.note(size=len(m.elements))
            expect(same is True, f"round trip of {m.name} changed its tables")
            return (m.name, same)
        return run

    def _exhaustive(self, chain, n, lhs, rhs, valid):
        lhs_text, rhs_text = T.text(lhs), T.text(rhs)
        names = sorted(T.variables(lhs) | T.variables(rhs))
        space = (2 * n + 1) ** len(names)

        def run(rec):
            a = self.api
            l = rec.call("syntax.parse", a.syn.parse, lhs_text, self.Sig.MV)
            rec.note(nodes=T.size(lhs))
            r = rec.call("syntax.parse", a.syn.parse, rhs_text, self.Sig.MV)
            rec.note(nodes=T.size(rhs))
            rep = rec.call("semantics.check_equation", a.sem.check_equation,
                           l, r, chain, a.sem.Exhaustive())
            rec.note(valuations=rep.samples_tried, countermodel=rep.found_countermodel,
                     space=space)
            if valid:
                expect(rep.verdict.value == "VALID_EXHAUSTIVE" and rep.samples_tried == space,
                       f"{lhs_text} = {rhs_text} on chain:{n}: {_verdict(rep)}")
            else:
                index, witness = first_witness(lhs, rhs, tuple(names), n)
                expect(rep.found_countermodel and rep.samples_tried == index + 1
                       and rep.witness.valuation == witness,
                       f"{lhs_text} = {rhs_text} on chain:{n}: {_verdict(rep)} "
                       f"after {rep.samples_tried}, expected witness {index + 1}")
            return (_verdict(rep), rep.samples_tried)
        return run


@functools.lru_cache(maxsize=None)
def first_witness(lhs, rhs, names: tuple, n: int):
    """First falsifying valuation of chain:n in row-major order over the
    sorted variable names, elements ascending."""
    for index, values in enumerate(itertools.product(range(-n, n + 1), repeat=len(names))):
        v = dict(zip(names, values))
        if T.eval_chain(lhs, v, n) != T.eval_chain(rhs, v, n):
            return index, {k: Fraction(x, n) for k, x in v.items()}
    return None, None


# ---------------------------------------------------------------------------
# proof-pipeline

# Certificates whose every single-line mutant is a wrong proof.
MUTANT_SOURCES = ("01_contra", "03_chain", "05_refl", "07_ident-eq",
                  "08a_dne-i", "09_swap-neg", "10c_negpos-i")
_PROOF_LINE = re.compile(r"^\s*\d+\.\s*(.+?)\s*;")


def proof_lines(text: str) -> list[str]:
    return [m.group(1) for m in map(_PROOF_LINE.match, text.splitlines()) if m]


class ProofPipeline(Workload):
    """Proof scripts only, no numpy evaluation.

    Each pass certifies the 16 packaged certificates into a fresh registry,
    parses and checks each certificate, checks freshly drawn single-line
    mutants (each must be rejected), and lifts the 26 L* fixtures,
    de-regularising the regular ones, re-checking every output.
    """

    name = "proof-pipeline"
    trace_ops = 3230  # ten passes, so that inputs repeat across passes
    # Three in four operations are mutants, so that p90 falls among the
    # dearer mutants and the cheaper certificates, where costs rise slowly,
    # and not at the step up to the large certificates and lifts (about the
    # top 6%), where it would move with every shift of rank.
    MUTANTS_PER_PASS = 240

    def setup(self) -> None:
        self.api = a = load_sqmv()
        self.registry = a.pk.standard_registry()
        self.certificates = a.registry.packaged_certificates()
        self.lstar = [(p.name, p.read_text(encoding="utf-8"))
                      for p in sorted((FIXTURES / "lstar").iterdir())
                      if p.name.endswith(".sqlp")]
        self._population = None  # built with the first pass: input generation

    def mutant_population(self) -> list[tuple]:
        """(certificate, line index, justification) for every mutant,
        mirroring the test suite's single-line mutations."""
        if self._population is not None:
            return self._population
        pk = self.api.pk
        texts = {}
        for path in sorted((FIXTURES / "derived").iterdir()):
            if path.stem in MUTANT_SOURCES:
                texts[path.stem] = path.read_text(encoding="utf-8")
        self._scripts = {k: pk.parse_script(v) for k, v in texts.items()}
        ax_names = list(pk.AXIOMS[SQL])
        rules = pk.RULES[SQL]
        lemma_ids = self.registry.ids()
        out = []
        for cert, script in self._scripts.items():
            for i, line in enumerate(script.lines):
                just = line.just
                if isinstance(just, pk.AxiomRef):
                    out += [(cert, i, pk.AxiomRef(o)) for o in ax_names if o != just.name]
                    continue
                if isinstance(just, pk.RuleRef):
                    out += [(cert, i, pk.RuleRef(o, just.premises)) for o, r in rules.items()
                            if o != just.name and len(r.premises) == len(just.premises)]
                    make = lambda prem, j=just: pk.RuleRef(j.name, prem)
                elif isinstance(just, pk.LemmaRef):
                    out += [(cert, i, pk.LemmaRef(o, just.premises)) for o in lemma_ids
                            if o != just.rule_id
                            and len(self.registry.get(o).hypotheses) == len(just.premises)]
                    make = lambda prem, j=just: pk.LemmaRef(j.rule_id, prem)
                else:
                    continue
                for prem in self._premise_swaps(script, i, just):
                    out.append((cert, i, make(prem)))
        self._population = out
        return out

    @staticmethod
    def _premise_swaps(script, i, just):
        def body(f):
            t = from_sqmv(f)
            if t[0] == "impl" and t[1][0] == "impl" and t[1][1] == t[1][2]:
                return t[2]
            return None

        deregularising = getattr(just, "name", None) in ("AReg1", "AReg2", "AReg3",
                                                         "AReg4", "R3'")
        for slot in range(len(just.premises)):
            for alt in range(1, i + 1):
                if alt == just.premises[slot]:
                    continue
                old_f = script.lines[just.premises[slot] - 1].formula
                new_f = script.lines[alt - 1].formula
                if new_f == old_f:
                    continue  # the same formula elsewhere: not a real mutation
                if deregularising and body(old_f) is not None and body(old_f) == body(new_f):
                    continue  # any reflexive prefix is accepted
                premises = list(just.premises)
                premises[slot] = alt
                yield tuple(premises)

    def make_pass(self, rng, pass_no):
        pk = self.api.pk
        registry = pk.Registry()
        certify = [Op("certify", self._certify(registry, rid, text), ("cert", rid))
                   for rid, text in self.certificates]
        checks = [Op("check", self._check(rid, text), ("check", rid))
                  for rid, text in self.certificates]
        population = self.mutant_population()
        mutants = [Op("mutant", self._mutant(*population[j]), ("mutant", j))
                   for j in rng.sample(range(len(population)), self.MUTANTS_PER_PASS)]
        lifts = []
        for name, text in self.lstar:
            box = {}
            lifts.append(Op("lift", self._lift(name, text, box), ("lift", name)))
            if T.is_regular(T.expand_parts_w(T.parse(proof_lines(text)[-1]))):
                lifts.append(Op("deregularize", self._dereg(name, text, box), ("dereg", name)))
        return interleave([certify, checks, mutants, lifts])

    def _parse(self, rec, text):
        script = rec.call("proofkit.script.parse_script", self.api.pk.parse_script, text)
        rec.note(lines=len(script.lines))
        return script

    def _check_proof(self, rec, script):
        report = rec.call("proofkit.checker.check_proof", self.api.pk.check_proof,
                          script, self.registry)
        rec.note(lines=len(report.checks))
        return report

    def _certify(self, registry, rid, text):
        want = T.expand_parts_w(T.parse(proof_lines(text)[-1]))

        def run(rec):
            script = self._parse(rec, text)
            rule = rec.call("proofkit.registry.register", registry.register, rid, script)
            expect(from_sqmv(rule.conclusion) == want, f"certificate {rid}: conclusion")
            return ("ACCEPT", len(script.lines))
        return run

    def _check(self, rid, text):
        lines = proof_lines(text)
        want = T.expand_parts_w(T.parse(lines[-1]))

        def run(rec):
            script = self._parse(rec, text)
            report = self._check_proof(rec, script)
            expect(report.accepted and len(report.checks) == len(lines)
                   and from_sqmv(script.conclusion) == want, f"certificate {rid}: {report.summary()}")
            return (report.summary(), len(report.checks))
        return run

    def _mutant(self, cert, i, just):
        def run(rec):
            pk = self.api.pk
            script = self._scripts[cert]
            lines = list(script.lines)
            lines[i] = pk.ProofLine(lines[i].formula, just)
            mutant = pk.ProofScript(script.system, script.hypotheses, tuple(lines))
            report = self._check_proof(rec, mutant)
            expect(not report.accepted, f"mutant of {cert} line {i + 1} ({just.describe()}) accepted")
            return ("REJECT", report.failure_line)
        return run

    def _lift(self, name, text, box):
        source = T.expand_parts_w(T.parse(proof_lines(text)[-1]))
        pp = ("impl", T.var("p"), T.var("p"))

        def run(rec):
            src = self._parse(rec, text)
            out = rec.call("proofkit.transforms.lift", self.api.pk.lift_lstar_proof, src)
            rec.note(lines_out=len(out.lines))
            report = self._check_proof(rec, out)
            expect(report.accepted and from_sqmv(out.conclusion) == ("impl", pp, source),
                   f"lift of {name}: {report.summary()}")
            box["lifted"] = out
            return (report.summary(), len(out.lines))
        return run

    def _dereg(self, name, text, box):
        source = T.expand_parts_w(T.parse(proof_lines(text)[-1]))

        def run(rec):
            expect("lifted" in box, f"deregularise {name}: the lift failed")
            out = rec.call("proofkit.transforms.deregularize", self.api.pk.deregularize_proof,
                           box.pop("lifted"), self.registry)
            rec.note(lines_out=len(out.lines))
            report = self._check_proof(rec, out)
            expect(report.accepted and from_sqmv(out.conclusion) == source,
                   f"deregularise {name}: {report.summary()}")
            return (report.summary(), len(out.lines))
        return run


# ---------------------------------------------------------------------------
# cli-cold


CLI_VERBS = ("print", "eval", "check-eq", "check-entail", "find-countermodel",
             "translate", "classify", "audit-axioms", "check-proof", "lift-proof")

# Equations that fail on every chain:n (and on the square), by definition.
INVALID_ON_CHAINS = (("x (+) 1", "1"), ("-x", "x"), ("x^+", "x"), ("x", "y"),
                     ("0", "1"), ("x (+) y", "x (+) -y"))
# Equations that fail on the square (at grid:4 already).
INVALID_ON_SQUARE = INVALID_ON_CHAINS + (("x (+) 0", "x"),)
# Sound rules of sqL*: premises entail the conclusion in the designated sense.
SOUND_RULES = (
    (["(r -> r) -> p", "(r -> r) -> (p -> q)"], "(r -> r) -> q"),
    (["p"], "(r -> r) -> p"),
    (["(r -> r) -> (p -> q)"], "p -> q"),
    (["p -> q", "r -> t"], "(q -> r) -> (p -> t)"),
    (["p", "p -> q"], "(x -> x) -> q"),
)
SMALL_VIEWS = ("chain:1", "chain:2", "chain:3", "flatten:chain:1:0", "flatten:chain:2:0",
               "flatten:chain:3:0", "product:chain:1,flatten:chain:1:0",
               "product:chain:2,flatten:chain:2:0", "ex32-grid")


def _substitute(t, sigma):
    if t[0] == "var":
        return sigma.get(t[1], t)
    return (t[0],) + tuple(_substitute(c, sigma) for c in t[1:])


def run_child(cmd: list[str], stdin: str, env: dict):
    """Run ``cmd`` to its end and return its exit code, its stdout and its
    resource usage, which ``os.wait4`` gives for this one child."""
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=out,
                                stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            with proc.stdin:
                proc.stdin.write(stdin.encode())
        except BrokenPipeError:  # the child exited without reading its input
            pass
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, out.read().decode(), usage


class CliCold(Workload):
    """Every README verb as a fresh ``python -m sqmv.cli`` process, one at a
    time, so that process start-up and import cost are part of each op."""

    name = "cli-cold"
    trace_ops = 28  # two passes
    speed_reference = speed.START_UP

    def setup(self) -> None:
        load_sqmv()  # fails here, before any verb runs, when sqmv is missing
        import sqmv.cli  # noqa: F401  the import every verb pays

        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.certificates = sorted((FIXTURES / "derived").glob("*.sqlp"))
        self.lstar = sorted((FIXTURES / "lstar").glob("*.sqlp"))
        self.verb_peak_kb = 0

    def peak_rss_mb(self) -> float:
        """The largest verb process.  The benchmark's other child processes,
        such as the set-up timings, are left out."""
        return self.verb_peak_kb / 1024

    def run_cli(self, rec, verb, args, stdin=None):
        """Run one verb; ``args`` holds options, then ``--``, then the
        positional arguments, so that a formula may start with ``-``."""
        cmd = [sys.executable, "-m", "sqmv.cli", verb, *args]
        code, out, usage = rec.call("cli.verb." + verb, run_child, cmd, stdin or "", self.env)
        self.verb_peak_kb = max(self.verb_peak_kb, usage.ru_maxrss)
        return code, out

    def make_pass(self, rng, pass_no):
        seed = lambda: str(rng.randrange(2**31))
        ops = []
        # print and translate: seeded terms in both signatures
        for sig in ("mv", "w"):
            t = T.random_term(rng, sig, 4)
            ops.append(Op("print", self._expect_stdout(
                "print", ["--sig", sig, "--", T.loose_text(rng, t)], T.text(t))))
        t = T.random_term(rng, "mv", 4)
        ops.append(Op("translate", self._expect_stdout(
            "translate", ["--to", "w", "--", T.text(t)], T.text(T.mv_to_w(t)))))
        t = T.random_term(rng, "w", 4)
        ops.append(Op("translate", self._expect_stdout(
            "translate", ["--to", "mv", "--", T.text(t)], T.text(T.w_to_mv(t)))))
        # eval on the square
        t = T.random_term(rng, "mv", 4, ("x", "y"))
        v = {n: (T.F1 * rng.randint(-20, 20) / 20, T.F1 * rng.randint(-20, 20) / 20)
             for n in ("x", "y")}
        lets = [a for n in sorted(v) for a in ("--let", f"{n}={v[n][0]},{v[n][1]}")]
        ops.append(Op("eval", self._expect_stdout(
            "eval", ["--model", "square", *lets, "--", T.text(t)],
            T.label(T.eval_square(t, v)))))
        # check-eq: a valid sum permutation sampled, an invalid equation on a grid
        leaves = [T.var(n) for n in rng.sample(["x", "y", "z"], 3)]
        lhs = T.random_sum(rng, leaves)
        ops.append(Op("check-eq", self._valid_check(
            "check-eq", ["--model", rng.choice(("square", "disk")), "--strategy",
                         "random:2000", "--seed", seed(), "--", T.text(lhs),
                         T.text(T.mirror(rng, lhs))], 2000)))
        l, r = rng.choice(INVALID_ON_SQUARE)
        ops.append(Op("check-eq", self._countermodel(
            "check-eq", ["--model", "square", "--strategy", "grid:4", "--", l, r], l, r)))
        # check-entail: an instance of a sound rule on square@w
        premises, concl = rng.choice(SOUND_RULES)
        sigma = {n: T.random_term(rng, "w", 2, ("a", "b", "c"), allow_parts=False)
                 for n in "pqrtx"}
        args = ["--model", "square@w", "--strategy", "random:2000", "--seed", seed()]
        for p in premises:
            args += ["--premise", T.text(_substitute(T.parse(p), sigma))]
        ops.append(Op("check-entail", self._valid_check(
            "check-entail", args + ["--", T.text(_substitute(T.parse(concl), sigma))], 2000)))
        # find-countermodel: the first family member is a chain, which fails
        l, r = rng.choice(INVALID_ON_CHAINS)
        family = f"chain:{rng.randint(1, 3)},square"
        ops.append(Op("find-countermodel", self._countermodel(
            "find-countermodel", ["--models", family, "--seed", seed(), "--", l, r], l, r)))
        # classify a small catalog view against criterion 1's flag table
        ops.append(Op("classify", self._classify(rng.choice(SMALL_VIEWS))))
        # audit-axioms on a standard model or view
        model = rng.choice(STANDARD) + rng.choice(("", "@w"))
        ops.append(Op("audit-axioms", self._audit(model, seed())))
        # check-proof on a certificate; lift-proof piped into check-proof
        ops.append(Op("check-proof", self._check_proof(rng.choice(self.certificates))))
        box = {}
        src = rng.choice(self.lstar)
        ops.append(Op("lift-proof", self._lift(src, box)))
        ops.append(Op("check-proof", self._check_lifted(box)))
        # cheaper and dearer verbs alternate, so a run that stops inside a
        # pass keeps about the pass's mix
        return [ops[i] for i in (0, 11, 2, 10, 1, 7, 3, 9, 4, 5, 12, 13, 8, 6)]

    def _expect_stdout(self, verb, args, want):
        def run(rec):
            code, out = self.run_cli(rec, verb, args)
            expect(code == 0 and out == want + "\n", f"{verb} {args}: got {out!r}, want {want!r}")
            return (code, out)
        return run

    def _valid_check(self, verb, args, samples):
        def run(rec):
            code, out = self.run_cli(rec, verb, args)
            expect(code == 0 and "verdict: NO_COUNTEREXAMPLE_FOUND" in out
                   and f"samples: {samples}" in out, f"{verb} {args}: {out!r}")
            return (code, samples)
        return run

    def _countermodel(self, verb, args, lhs, rhs):
        lhs, rhs = T.parse(lhs), T.parse(rhs)

        def run(rec):
            code, out = self.run_cli(rec, verb, args)
            expect(code == 1 and "verdict: COUNTERMODEL" in out, f"{verb} {args}: {out!r}")
            v = dict(re.findall(r"^  ([a-z]\w*) = (\S+)$", out, re.M))
            v = {k: T.read_label(s) for k, s in v.items()}
            ev = T.eval_square if "model: square" in out else T.eval_interval
            expect(ev(lhs, v) != ev(rhs, v), f"{verb} {args}: witness does not falsify")
            return (code, out)
        return run

    def _classify(self, name):
        want = next(f for p, f in FLAGS.items() if name.startswith(p))

        def run(rec):
            code, out = self.run_cli(rec, "classify", ["--model", name])
            got = dict(re.findall(r"^is (\S+(?: \S+)?): (yes|no)$", out, re.M))
            flags = {"is_quasi": got.get("quasi-MV*"), "is_strong": got.get("strong"),
                     "is_flat": got.get("flat"), "is_star": got.get("MV*")}
            expect(code == 0 and all(flags[k] == ("yes" if v else "no") for k, v in want.items()),
                   f"classify {name}: {out!r}")
            return (code, out)
        return run

    def _audit(self, model, seed):
        count = 17 if model.endswith("@w") else 19

        def run(rec):
            code, out = self.run_cli(rec, "audit-axioms",
                                     ["--model", model, "--strategy", "random:2000",
                                      "--seed", seed])
            expect(code == 0 and out.endswith(f"{count}/{count} axioms pass on {model}\n"),
                   f"audit-axioms {model}: {out[-80:]!r}")
            return (code, count)
        return run

    def _check_proof(self, path):
        n = len(proof_lines(path.read_text(encoding="utf-8")))
        rel = str(path.relative_to(ROOT))

        def run(rec):
            code, out = self.run_cli(rec, "check-proof", [rel])
            expect(code == 0 and out == f"ACCEPT ({n} lines)\n", f"check-proof {rel}: {out!r}")
            return (code, n)
        return run

    def _lift(self, path, box):
        text = path.read_text(encoding="utf-8")
        source = T.expand_parts_w(T.parse(proof_lines(text)[-1]))
        want = ("impl", ("impl", T.var("p"), T.var("p")), source)
        rel = str(path.relative_to(ROOT))

        def run(rec):
            code, out = self.run_cli(rec, "lift-proof", [rel])
            lines = proof_lines(out)
            expect(code == 0 and out.startswith("system: sqL*\n") and lines
                   and T.parse(lines[-1]) == want, f"lift-proof {rel}: {out[-120:]!r}")
            box["lifted"] = out
            return (code, len(lines))
        return run

    def _check_lifted(self, box):
        def run(rec):
            expect("lifted" in box, "check-proof of a lift: the lift failed")
            text = box.pop("lifted")
            n = len(proof_lines(text))
            code, out = self.run_cli(rec, "check-proof", ["/dev/stdin"], stdin=text)
            expect(code == 0 and out == f"ACCEPT ({n} lines)\n", f"check-proof of a lift: {out!r}")
            return (code, n)
        return run


WORKLOADS = {w.name: w for w in (SampledStandard, FiniteExhaustive, ProofPipeline, CliCold)}
