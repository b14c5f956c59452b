"""The shared-subterm tape: one step per distinct subterm, batch values equal
to the exact evaluator at every valuation, the signature error of the
preorder walk, the composed tables of finite sweeps, the tape cache, and the
memory of a large sampled entailment."""

import gc
import itertools
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_batch_matches_exact,
    oracle_interval,
    oracle_pair,
    random_terms,
    subterms,
)
from sqmv import models, proofkit, semantics
from sqmv.models import (
    FINITE_CATALOG,
    STANDARD_CATALOG,
    FiniteModel,
    StandardModel,
    _build,
    classify,
    compile,
    compose,
    resolve,
    run,
)
from sqmv.semantics import (
    Exhaustive,
    Grid,
    RandomSampling,
    Verdict,
    check_entailment,
    check_equation,
    designated_set,
)
from sqmv.syntax import (
    ONE,
    Impl,
    Neg,
    OPlus,
    Sig,
    SignatureError,
    UMinus,
    Var,
    join_term,
    parse,
    substitute,
    variables,
)

STANDARD_VIEWS = [name + view for name in STANDARD_CATALOG for view in ("", "@w")]
FINITE_VIEWS = [name + view for name in FINITE_CATALOG for view in ("", "@w")]

x, y, z = Var("x"), Var("y"), Var("z")


def nested_joins(sig, k):
    """Joins of joins over ``k`` of the variables x, y, z, the terms with the
    most shared subterms; the inner join is also its own formula."""
    neg = UMinus if sig is Sig.MV else Neg
    a, b, c = (x, y, z) if k == 3 else (x, y, x) if k == 2 else (x, neg(x), x)
    inner = join_term(a, b, sig)
    return (join_term(inner, join_term(b, c, sig), sig), inner, join_term(inner, a, sig))


def q8_instance():
    """An instance of the sqL* axiom Q8 (join associativity): 533 nodes, 76
    distinct subterms."""
    form = proofkit.AXIOMS["sqL*"]["Q8"][0]
    sigma = {v: parse(text, Sig.W)
             for v, text in (("p", "a -> b"), ("q", "~(b -> c)"), ("r", "c -> ~a"))}
    return substitute(form, sigma, Sig.W)


class TestValues:
    @pytest.mark.parametrize("strategy", [RandomSampling(50), Grid(2)], ids=str)
    @pytest.mark.parametrize("name", STANDARD_VIEWS)
    def test_standard_views(self, name, strategy):
        m = resolve(name)
        k = 2 if m.pair and isinstance(strategy, Grid) else 3
        assert_batch_matches_exact(m, strategy, nested_joins(m.signature, k))

    @pytest.mark.parametrize("name", FINITE_VIEWS)
    def test_finite_views_exhaustive(self, name):
        # every valuation of the product layout, valid sweeps included; three
        # variables where the sweep stays small, fewer on the larger carriers
        m = resolve(name)
        k = max(j for j in (1, 2, 3) if j == 1 or len(m.elements) ** j <= 400)
        assert_batch_matches_exact(m, Exhaustive(), nested_joins(m.signature, k))

    @pytest.mark.parametrize("sa, sb", [
        ((13, 1, 1), (141, 141)), ((13, 141, 1), (141,)),  # rows, then columns
        ((141,), (13, 141, 1)), ((141, 141), (13, 1, 1)),  # the same, swapped
        ((7, 1, 141), (141, 1)), ((141, 1), (7, 1, 141)),  # interleaved axes
        ((13, 141, 141), (141,)),  # a shared axis
        ((), (13, 141, 141)), ((13, 1), (141,)),  # a constant; a small result
        ((141, 1, 1), (141, 141)), ((141, 141), (141, 1, 1)),  # a whole first axis
        ((141, 1), (13, 1, 141)), ((13, 1, 141), (141, 1)),  # a whole middle axis
        ((141, 1), (141,)), ((141,), (141, 1)),  # two whole axes
        ((7, 1, 141), (1, 7, 1)), ((1, 7, 1), (7, 1, 141)),  # interleaved, cut short
    ], ids=str)
    def test_finite_lookup_on_any_operand_axes(self, sa, sb):
        # impl is not commutative, so a swapped row and column shows; random
        # indices first, then each whole carrier axis as a sweep's variable
        # holds it, in order, and as pos of that, which repeats values
        m = resolve("chain:70@w")
        rng = np.random.default_rng(7)
        n, pos = len(m.elements), m.tables["pos"]
        a, b = (rng.integers(0, n, size=s).astype(m.index_dtype)[()] for s in (sa, sb))
        var = lambda x: np.arange(n, dtype=m.index_dtype).reshape(x.shape) if x.size == n else x
        for a, b in ((a, b), (var(a), var(b)), (pos[var(a)], pos[var(b)])):
            got = m.vec_apply("impl", [a, b], 1)
            want = m.tables["impl"][a, b]
            assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("n", [20, 70])
    def test_sum_permutations_sweep_every_valuation(self, n):
        # (a (+) b) (+) c = c (+) (b (+) a) in every order of x, y, z, the
        # inner sum on the right mirrored or not: each whole-axis layout of
        # the row gather, on a sweep that composes
        m = resolve(f"chain:{n}")
        for a, b, c in itertools.permutations("xyz"):
            for inner in (f"{b} (+) {a}", f"{a} (+) {b}"):
                lhs = parse(f"({a} (+) {b}) (+) {c}", Sig.MV)
                rhs = parse(f"{c} (+) ({inner})", Sig.MV)
                report = check_equation(lhs, rhs, m, Exhaustive())
                assert report.verdict is Verdict.VALID_EXHAUSTIVE
                assert report.samples_tried == len(m.elements) ** 3

    @pytest.mark.parametrize("order", list(itertools.permutations("xyz")), ids="".join)
    def test_associativity_witness_is_the_first_in_row_major_order(self, order):
        # truncated sums do not associate on chain:66; the witness and count
        # are those of a walk over ``apply`` in row-major order of x, y, z
        m = resolve("chain:66")
        a, b, c = order
        lhs = parse(f"{a} (+) ({b} (+) {c})", Sig.MV)
        rhs = parse(f"({a} (+) {b}) (+) {c}", Sig.MV)
        report = check_equation(lhs, rhs, m, Exhaustive())
        plus = partial(m.apply, "oplus")
        for i, values in enumerate(itertools.product(m.elements, repeat=3)):
            v = dict(zip("xyz", values))
            if plus(v[a], plus(v[b], v[c])) != plus(plus(v[a], v[b]), v[c]):
                break
        assert report.found_countermodel and report.samples_tried == i + 1
        assert report.witness.valuation == v


# the recursive reference evaluators of the standard models
ORACLES = {"square": oracle_pair, "interval@w": oracle_interval,
           "flat-standard": partial(oracle_interval, flat=True)}


@pytest.mark.parametrize("name, strategy", [
    ("product:chain:1,flatten:chain:1:0@w", Exhaustive()),
    ("square", RandomSampling(20)),
    ("interval@w", RandomSampling(20)),
    ("flat-standard", Grid(1)),
], ids=lambda v: str(v) if isinstance(v, str) else v.describe())
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_tape_matches_evaluate_on_random_terms(name, strategy, data):
    # random sampling draws ``count`` valuations even when there is no
    # variable, while the batch shape then has one cell
    m = resolve(name)
    terms = data.draw(st.lists(random_terms(m.signature), min_size=1, max_size=3)
                      .filter(lambda ts: any(map(variables, ts))))
    assert_batch_matches_exact(m, strategy, terms, oracle=ORACLES.get(name))


class TestSharing:
    def test_compile_numbers_each_distinct_subterm_once(self):
        t = q8_instance()
        tape = compile((t,), Sig.W)
        assert len(list(subterms(t))) == 533
        assert len(tape.steps) == 76 == len(set(subterms(t)))
        assert tape.names == ("a", "b", "c")
        # the last use of every step but the output comes after it
        assert all(j < tape.last_use[j] < len(tape.steps) for j in range(len(tape.steps) - 1))
        assert tape.last_use[tape.outputs[0]] == len(tape.steps)

    def test_formulas_share_steps(self):
        lhs, rhs = parse("(x -> y) -> x", Sig.W), parse("x -> y", Sig.W)
        tape = compile((lhs, rhs), Sig.W)
        assert tape.steps == (("var", "x"), ("var", "y"), ("impl", (0, 1)), ("impl", (2, 0)))
        assert tape.outputs == (3, 2)

    @staticmethod
    def count_calls(monkeypatch, cls):
        calls = {"vec_apply": 0, "run": 0}

        def counted_apply(self, op, args, D, _apply=cls.vec_apply):
            calls["vec_apply"] += 1
            return _apply(self, op, args, D)

        def counted_run(*args, _run=models.run):
            calls["run"] += 1
            return _run(*args)

        monkeypatch.setattr(cls, "vec_apply", counted_apply)
        monkeypatch.setattr(models, "run", counted_run)
        return calls

    def test_one_operation_per_distinct_subterm(self, monkeypatch):
        t = q8_instance()
        compound = {s for s in subterms(t) if s.op not in ("var", "one")}
        m = resolve("square@w")
        calls = self.count_calls(monkeypatch, StandardModel)
        report = check_entailment([], t, m, RandomSampling(1000), seed=3)
        assert report.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
        assert calls["run"] == 1
        # one step per distinct subterm, and the designated test's one pos
        assert len(compound) == 72
        assert calls["vec_apply"] == len(compound) + calls["run"]
        assert sum(1 for s in subterms(t) if s.op not in ("var", "one")) == 321

    def test_once_per_block(self, monkeypatch):
        # chain:40 has 81 elements; the witness of this 4-variable equation
        # sits past the first block of the sweep
        m = resolve("chain:40")
        lhs = parse("w (+) w (+) z (+) x^-^+", Sig.MV)
        rhs = parse("w (+) z (+) y^-^+", Sig.MV)
        calls = self.count_calls(monkeypatch, FiniteModel)
        report = check_equation(lhs, rhs, m, Exhaustive())
        assert report.verdict is Verdict.COUNTERMODEL
        starts = [offset for offset, _, _ in semantics._blocks((81,) * 4)]
        blocks = sum(1 for s in starts if s < report.samples_tried)
        assert blocks > 1
        assert calls["run"] == blocks
        compound = {s for s in subterms(lhs)} | {s for s in subterms(rhs)}
        compound = {s for s in compound if s.op != "var"}
        assert len(compound) == 9
        # 81**4 valuations outnumber 2**14 and the 81**2 cells of a table,
        # so the tape is composed: w (+) w folds into (.) (+) z, and x^-^+
        # and y^-^+ into the outer sums, which leaves (w (+) w) (+) z and
        # w (+) z (each cut where an outer sum would read three kept
        # steps) and the two outer sums
        assert calls["vec_apply"] == 4 * calls["run"]

    def test_once_per_run_of_whole_rows(self, monkeypatch):
        # a valid 4-variable sweep of chain:40 runs the tape on 169 blocks of
        # 39 rows of 81**2 valuations, a row being one index of the first
        # two axes (243 blocks if each index of the first axis were cut alone)
        calls = self.count_calls(monkeypatch, FiniteModel)
        report = check_equation(parse("(w (+) x) (+) (y (+) z)", Sig.MV),
                                parse("(x (+) w) (+) (z (+) y)", Sig.MV),
                                resolve("chain:40"), Exhaustive())
        assert (report.verdict, report.samples_tried) == (Verdict.VALID_EXHAUSTIVE, 81**4)
        assert calls["run"] == 169


PRODUCT_81 = "product:(product:chain:1,flatten:chain:1:0),(product:chain:1,flatten:chain:1:0)"


# The join laws (commutativity and associativity) and the distributive laws of
# each signature.
JOIN_LAWS = {
    Sig.MV: ("QMV*12", "QMV*13", "QMV*14", "MV*10", "MV*11", "MV*12"),
    Sig.W: ("QW*10", "QW*11", "QW*12", "W*9", "W*10", "W*11"),
}


def battery(sig):
    """Every equation of every classification battery of ``sig``, by name."""
    return {e.name: e for make in models._BATTERIES.values() for e in make(sig)}


def first_block(m, strategy, tape, terms):
    """The first block of the valuations ``strategy`` gives on ``m``, its
    shape, and ``D``."""
    env, D, _ = semantics._valuations(m, strategy, tape.names, terms, 0)
    _, index, shape = next(semantics._blocks(semantics._env_shape(env)))
    return {nm: semantics._take(rep, index) for nm, rep in env.items()}, shape, D


class TestCompose:
    @pytest.mark.parametrize("name, strategy", [
        *((name, Exhaustive()) for name in FINITE_VIEWS),
        ("chain:3@w", RandomSampling(500)),
    ], ids=lambda v: str(v) if isinstance(v, str) else v.describe())
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_composed_tables_give_the_same_values(self, name, strategy, data):
        # random terms, and a join or distributive law with random terms
        # for its variables (so that its binary steps are cut, their roots
        # read again and their operands met in either order), beside a term
        # over x, y, z, so that the sweep has more valuations than a table
        # has cells; the first block of the sweep through the tape as
        # compiled and as composed
        m = resolve(name)
        sig = m.signature
        binary = OPlus if sig is Sig.MV else Impl
        law = battery(sig)[data.draw(st.sampled_from(JOIN_LAWS[sig]))]
        sigma = dict(zip("xyz", data.draw(st.tuples(*[random_terms(sig)] * 3))))
        terms = [*data.draw(st.lists(random_terms(sig), min_size=1, max_size=3)),
                 substitute(law.lhs, sigma, sig), substitute(law.rhs, sigma, sig),
                 binary(x, binary(y, z))]
        self.assert_composed_matches(m, strategy, terms)

    @staticmethod
    def assert_composed_matches(m, strategy, terms):
        tape = compile(terms, m.signature)
        part, shape, D = first_block(m, strategy, tape, terms)
        composed = compose(tape, m)
        assert composed.names == tape.names and len(composed.outputs) == len(terms)
        for want, got in zip(run(tape, m, part, D), run(composed, m, part, D)):
            assert np.array_equal(np.broadcast_to(want, shape), np.broadcast_to(got, shape))

    @pytest.mark.parametrize("name", FINITE_VIEWS)
    def test_every_battery_law_composes(self, name):
        # each equation of the four batteries on the first block of its
        # exhaustive sweep, also where the sweep is too small to compose
        m = resolve(name)
        for eq in battery(m.signature).values():
            self.assert_composed_matches(m, Exhaustive(), (eq.lhs, eq.rhs))

    @pytest.mark.parametrize("name, composes", [
        ("chain:1", False), ("ex32-grid", False), ("chain:40", True), ("chain:40@w", True),
        (PRODUCT_81, False), (PRODUCT_81 + "@w", False),
    ])
    def test_only_wide_sweeps_compose(self, monkeypatch, name, composes):
        # a sweep of at most models.WIDE valuations runs its tape as
        # compiled: 15**3 < WIDE < 81**3; a product sweeps only the laws
        # that fail on a factor, and those on PRODUCT_81 are not wide
        calls = []

        def counted_compose(tape, m, _compose=compose):
            calls.append(tape)
            return _compose(tape, m)

        monkeypatch.setattr(models, "compose", counted_compose)
        classify(_build(name))
        assert bool(calls) is composes

    @pytest.mark.parametrize("name, law", [("chain:255", "MV*11"), ("chain:255@w", "W*10")])
    def test_tables_go_after_their_last_reader(self, name, law):
        # 511 elements, so a table of n*n int32 cells takes 1 MB: keeping
        # every table peaked at 41 MB on MV*11, composing by the three
        # earlier folds at 22 MB, and dropping each table after its last
        # reader at 7 MB
        m = resolve(name)
        eq = battery(m.signature)[law]
        tape = compile((eq.lhs, eq.rhs), m.signature)
        tracemalloc.start()
        try:
            compose(tape, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22 * 2**20

    @pytest.mark.parametrize("name, law, gathers, steps, composed", [
        (PRODUCT_81, "MV*11", 18, 63, 4), (PRODUCT_81, "QMV*13", 14, 44, 4),
        (PRODUCT_81, "QMV*14", 8, 29, 5), (PRODUCT_81, "MV*12", 10, 42, 5),
        (PRODUCT_81 + "@w", "W*10", 18, 66, 4), (PRODUCT_81 + "@w", "QW*11", 14, 44, 4),
        (PRODUCT_81 + "@w", "QW*12", 8, 29, 5), (PRODUCT_81 + "@w", "W*11", 10, 44, 5),
    ])
    def test_full_width_gathers_per_block(self, monkeypatch, name, law, gathers, steps,
                                          composed):
        # the join and distributive laws in three variables: the steps that
        # read all three gather the whole block, 2 of them per block once
        # composed (the two sides), and the gathers of a block, these and
        # the narrower ones, go from ``steps`` to ``composed``
        m = resolve(name)
        eq = battery(m.signature)[law]
        sizes = []

        def counted_apply(self, op, args, D, _apply=FiniteModel.vec_apply):
            out = _apply(self, op, args, D)
            sizes[-1].append(np.size(out))
            return out

        def counted_run(*args, _run=models.run):
            sizes.append([])
            return _run(*args)

        monkeypatch.setattr(FiniteModel, "vec_apply", counted_apply)
        monkeypatch.setattr(models, "run", counted_run)
        report = check_equation(eq.lhs, eq.rhs, m, Exhaustive())
        starts = [offset for offset, _, _ in semantics._blocks((81,) * 3)]
        assert len(sizes) == sum(1 for s in starts if s < report.samples_tried)
        blocks = [*np.diff(starts), 81**3 - starts[-1]]
        assert [out.count(cells) for out, cells in zip(sizes, blocks)] == [2] * len(sizes)
        assert list(map(len, sizes)) == [composed] * len(sizes)
        # the same sweep on the tape as compiled
        tape = compile((eq.lhs, eq.rhs), m.signature)
        sizes.append([])
        part, shape, D = first_block(m, Exhaustive(), tape, (eq.lhs, eq.rhs))
        models.run(tape, m, part, D)
        assert (sizes[-1].count(np.prod(shape)), len(sizes[-1])) == (gathers, steps)


class TestTapeCache:
    @pytest.fixture
    def tapes(self, monkeypatch):
        """An empty tape cache for the test, and the ids of the formula
        tuples compiled (the formulas themselves would be kept alive)."""
        monkeypatch.setattr(semantics, "_TAPES", {})
        compiled = []

        def counted(terms, sig, _compile=models.compile):
            compiled.append(tuple(map(id, terms)))
            return _compile(terms, sig)

        monkeypatch.setattr(models, "compile", counted)
        return compiled

    def test_classify_compiles_each_battery_equation_once(self, tapes):
        for sig in Sig:
            # fresh models of one signature, so that nothing else is cached; a
            # view of at most 25 elements sweeps each battery through one tape
            chains = [models.finite_chain(2), models.finite_chain(3)]
            for m in chains if sig is Sig.MV else map(models.finite_w_view, chains):
                models.classify(m)
            batteries = {name: battery(sig) for name, battery in models._BATTERIES.items()}
            assert len(tapes) == len(set(tapes)) == len(batteries)
            assert set(tapes) == {tuple(id(t) for eq in eqs for t in (eq.lhs, eq.rhs))
                                  for eqs in batteries.values()}
            tapes.clear()
            # on the 49- and 81-element products an equation of the
            # 3-variable batteries that fails on a factor, and so on the
            # product, is its own tape (the battery's tape above, which names
            # its variables, is not compiled again); the strong and flat
            # batteries read one variable or none and sweep as above
            failing = set()
            for name in ("product:chain:3,flatten:chain:3:0", PRODUCT_81):
                flags = models.classify(_build(name + ("" if sig is Sig.MV else "@w")))
                failing |= {law for law, ok in flags.axiom_results.items() if not ok}
            equations = {(id(eq.lhs), id(eq.rhs)) for name in ("quasi", "star")
                         for eq in batteries[name] if eq.name in failing}
            assert equations and len(tapes) == len(set(tapes)) and set(tapes) == equations
            tapes.clear()

    def test_an_entry_lives_as_long_as_its_formulas(self, tapes):
        # x and ONE outlive the test, and keep no entry alive
        t, w = OPlus(Var("cache_a"), UMinus(Var("cache_b"))), Neg(Var("cache_c"))
        m = resolve("chain:2")
        check_equation(t, ONE, m, Exhaustive())
        check_equation(x, t, m, Exhaustive())
        check_equation(t, x, m, Exhaustive())
        check_entailment([x], w, resolve("chain:2@w"), Exhaustive())
        check_equation(t, ONE, m, Exhaustive())
        assert len(semantics._TAPES) == len(tapes) == 4
        del t, w
        gc.collect()
        assert semantics._TAPES == {}

    def test_a_refused_compile_is_not_cached(self, tapes):
        # the tape of the implicational signature does not serve the other
        w = parse("x -> y", Sig.W)
        check_equation(w, x, resolve("chain:2@w"), Exhaustive())
        for _ in range(2):
            with pytest.raises(SignatureError, match="connective Impl is not part of the MV"):
                check_equation(w, x, resolve("chain:2"), Exhaustive())
        assert len(tapes) == 3 and len(semantics._TAPES) == 1


def test_deep_terms_compile_and_run():
    # 3000 nested negations, three times the default recursion limit
    t = x
    for _ in range(3000):
        t = Neg(t)
    tape = compile((t, x), Sig.W)
    assert len(tape.steps) == 3001 and tape.outputs == (3000, 0)
    m = resolve("chain:2@w")
    report = check_equation(t, Neg(Neg(x)), m, Exhaustive())
    assert (report.verdict, report.samples_tried) == (Verdict.VALID_EXHAUSTIVE, 5)


class TestSignature:
    MESSAGE = "connective {} is not part of the W-STAR language"

    @pytest.mark.parametrize("name", ["square@w", "chain:2@w"])
    @pytest.mark.parametrize("text, first", [("-(x (+) y)", "UMinus"),
                                             ("(-x) (+) y", "OPlus")])
    def test_equation_names_the_preorder_first(self, name, text, first):
        m = resolve(name)
        bad = parse(text, Sig.MV)
        for lhs, rhs in [(bad, parse("x", Sig.W)), (parse("x -> y", Sig.W), bad)]:
            with pytest.raises(SignatureError) as err:
                check_equation(lhs, rhs, m, Exhaustive() if m.finite else Grid(2))
            assert str(err.value) == self.MESSAGE.format(first)

    @pytest.mark.parametrize("name", ["square@w", "chain:2@w"])
    @pytest.mark.parametrize("text, first", [("-(x (+) y)", "UMinus"),
                                             ("(-x) (+) y", "OPlus")])
    def test_entailment_names_the_preorder_first(self, name, text, first):
        m = resolve(name)
        bad = parse(text, Sig.MV)
        later = parse("x (+) 0", Sig.MV)
        strategy = Exhaustive() if m.finite else RandomSampling(10)
        for premises, conclusion in [([parse("x", Sig.W), bad], later), ([], bad)]:
            with pytest.raises(SignatureError) as err:
                check_entailment(premises, conclusion, m, strategy)
            assert str(err.value) == self.MESSAGE.format(first)


# tracemalloc peak of the check below before the tape (the tree-walking
# evaluator): 16,012,126 bytes; with the tape it measured 13,619,824 bytes.
_TREE_WALK_PEAK = 16_012_126


def test_large_sample_peak_memory():
    t = q8_instance()
    m = resolve("square@w")
    designated_set(m)
    tracemalloc.start()
    try:
        report = check_entailment([], t, m, RandomSampling(100000), seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
    assert report.samples_tried == 100000
    assert peak <= _TREE_WALK_PEAK
