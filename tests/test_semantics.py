import dataclasses
import gc
import itertools
import json
import pathlib
import tracemalloc
import weakref
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_batch_matches_exact,
    nested_join_text,
    oracle_interval,
    oracle_pair,
    random_disk_valuation,
    random_interval_valuation,
    random_square_valuation,
    random_term,
    random_terms,
    subterms,
    zero_second_coordinates,
)
from sqmv import corpus, semantics
from sqmv.models import (
    FINITE_CATALOG,
    STANDARD_CATALOG,
    DomainError,
    StandardModel,
    compile,
    finite_w_view,
    label_str,
    resolve,
)
from sqmv.semantics import (
    Exhaustive,
    Grid,
    RandomSampling,
    SemanticsError,
    StrategyError,
    UnboundVariable,
    Verdict,
    Witness,
    check_entailment,
    check_equation,
    designated_set,
    evaluate,
    parse_strategy,
    search_countermodel,
)
from sqmv.proofkit import (
    check_proof,
    deregularize_proof,
    lift_lstar_proof,
    parse_script,
    standard_registry,
)
from sqmv.proofkit.registry import packaged_certificates
from sqmv.proofkit.systems import AXIOMS, SQL
from sqmv.syntax import (
    Const0,
    Const1,
    Neg,
    Sig,
    SignatureError,
    Var,
    children,
    is_regular,
    parse,
    substitute,
    variables,
)
from sqmv.transform import mv_to_w_model


FIXTURES = pathlib.Path(semantics.__file__).resolve().parent / "fixtures"
STANDARD_VIEWS = [name + view for name in STANDARD_CATALOG for view in ("", "@w")]
FINITE_VIEWS = [name + view for name in FINITE_CATALOG for view in ("", "@w")]


def mv(text):
    return parse(text, Sig.MV)


def w(text):
    return parse(text, Sig.W)


class TestEvaluate:
    def test_add_zero_collapses_second_coordinate(self):
        sq = resolve("square")
        out = evaluate(mv("p (+) 0"), sq, {"p": (F(3, 10), F(1, 2))})
        assert out == (F(3, 10), F(0))

    def test_double_negation_identity(self):
        for name in ("square@w", "disk@w", "interval@w", "chain:2@w"):
            m = resolve(name)
            el = m.const("one")
            assert evaluate(w("~~p"), m, {"p": el}) == el

    def test_self_implication_is_zero(self):
        sw = resolve("square@w")
        assert evaluate(w("1 -> 1"), sw, {}) == (F(0), F(0))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate(mv("p (+) q"), resolve("square"), {"p": (F(0), F(0))})

    def test_signature_mismatch(self):
        with pytest.raises(SignatureError):
            evaluate(mv("p (+) q"), resolve("square@w"), {})

    def test_applies_once_per_distinct_subterm(self, apply_calls):
        # about 2^16 copies of x as a tree, a few hundred distinct subterms
        t = mv(nested_join_text(16))
        valuation = {"x": F(1, 3), **{f"y{i}": F(-1, i + 2) for i in range(16)}}
        assert evaluate(t, resolve("interval"), valuation) == F(1, 3)
        assert apply_calls.n == sum(1 for s in set(subterms(t)) if children(s))

    def test_variable_errors_in_preorder(self):
        sq, zero = resolve("square"), (F(0), F(0))
        with pytest.raises(UnboundVariable, match="^variable 'q' is not bound$"):
            evaluate(mv("(p (+) -q) (+) (r (+) q)"), sq, {"p": zero})
        with pytest.raises(DomainError, match="^1/2 is not in the carrier of square$"):
            evaluate(mv("(p (+) q) (+) r"), sq, {"p": zero, "q": F(1, 2)})

    def test_matches_reference_evaluator(self, rng):
        sq, dk = resolve("square"), resolve("disk")
        sw, dw = resolve("square@w"), resolve("disk@w")
        iv, fl = resolve("interval"), resolve("flat-standard")
        iw, fw = resolve("interval@w"), resolve("flat-standard@w")
        for _ in range(400):
            t = random_term(rng, Sig.MV, 5)
            names = variables(t)
            v = random_square_valuation(rng, names)
            assert evaluate(t, sq, v) == oracle_pair(t, v)
            vd = random_disk_valuation(rng, names)
            assert evaluate(t, dk, vd) == oracle_pair(t, vd)
            vi = random_interval_valuation(rng, names)
            assert evaluate(t, iv, vi) == oracle_interval(t, vi)
            assert evaluate(t, fl, vi) == oracle_interval(t, vi, flat=True)
            s = random_term(rng, Sig.W, 5)
            vs = random_square_valuation(rng, variables(s))
            assert evaluate(s, sw, vs) == oracle_pair(s, vs)
            vsd = random_disk_valuation(rng, variables(s))
            assert evaluate(s, dw, vsd) == oracle_pair(s, vsd)
            vsi = random_interval_valuation(rng, variables(s))
            assert evaluate(s, iw, vsi) == oracle_interval(s, vsi)
            assert evaluate(s, fw, vsi) == oracle_interval(s, vsi, flat=True)


class TestBatchAgreesWithScalar:
    def test_random_reports_recheck(self, rng):
        # countermodel construction re-evaluates through the scalar path,
        # so a run over many invalid equations cross-checks both evaluators
        sq = resolve("square")
        for eq in corpus.invalid_equations():
            if eq.sig is not Sig.MV:
                continue
            report = check_equation(eq.lhs, eq.rhs, sq, RandomSampling(300), seed=5)
            assert report.verdict is Verdict.COUNTERMODEL, eq.name

    @pytest.mark.parametrize("name, strategy, designated, undesignated", [
        ("chain:2@w", Exhaustive(), 4, 0),  # carrier indices of 1 and -1
        ("square@w", RandomSampling(20), (1, 0), (0, 1)),  # <1/120,0>, <0,1/120>
    ])
    def test_witness_the_exact_path_refutes_raises(
        self, monkeypatch, name, strategy, designated, undesignated
    ):
        # a tape runner that reports the first term designated and the second
        # not, at every valuation: the batch path finds a witness at the first
        # valuation of p = p and of p |= p, and the exact path refutes both
        m = resolve(name)
        ds = designated_set(m)
        assert ds.vec_contains(designated) and not ds.vec_contains(undesignated)
        monkeypatch.setattr(semantics.md, "run",
                            lambda tape, m, env, D: [designated, undesignated])
        p = Var("p")
        with pytest.raises(SemanticsError, match="batch path disagrees with the exact"):
            check_equation(p, p, m, strategy)
        with pytest.raises(SemanticsError, match="batch path disagrees with the exact"):
            check_entailment([p], p, m, strategy)

    @pytest.mark.parametrize("name", STANDARD_VIEWS)
    def test_vector_ops_match_scalar_on_every_valuation(self, rng, name):
        # a VALID verdict re-checks nothing through the scalar path, so compare
        # the batch value of every sampled valuation, not only witnesses
        m = resolve(name)
        for seed in range(40):
            t = random_term(rng, m.signature, 5)
            assert_batch_matches_exact(m, RandomSampling(50), (t,), seed)

    @pytest.mark.parametrize("name", FINITE_VIEWS)
    def test_exhaustive_batch_matches_scalar_at_every_index(self, rng, name):
        # every row-major index of the product layout, VALID sweeps included;
        # three variables where the sweep stays small, two otherwise
        m = resolve(name)
        k = 3 if len(m.elements) ** 3 <= 1000 else 2
        for _ in range(3):
            t = random_term(rng, m.signature, 4, var_names=("x", "y", "z")[:k])
            assert_batch_matches_exact(m, Exhaustive(), (t,))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("name", STANDARD_VIEWS)
    def test_grid_batch_matches_scalar_at_every_index(self, rng, name, d):
        m = resolve(name)
        k = 2 if m.pair else 3
        for _ in range(3):
            t = random_term(rng, m.signature, 4, var_names=("x", "y", "z")[:k])
            assert_batch_matches_exact(m, Grid(d), (t,))


class TestBatchModels:
    @pytest.mark.parametrize("strategy", [Grid(2), RandomSampling(500)], ids=str)
    def test_translated_square_checks_like_square_w(self, strategy):
        # the implicational view of square is the catalog model square@w
        m, sw = mv_to_w_model(resolve("square")), resolve("square@w")
        for lhs, rhs in [("x -> y", "~y -> ~x"), ("(x -> 1) -> 1", "x")]:
            reports = [check_equation(w(lhs), w(rhs), model, strategy, seed=3)
                       for model in (m, sw)]
            assert reports[0].as_text() == reports[1].as_text()
        for premises, conclusion in [(["p", "p -> q"], "q"), (["p"], "~p")]:
            reports = [check_entailment([w(p) for p in premises], w(conclusion),
                                        model, strategy, seed=3) for model in (m, sw)]
            assert reports[0].as_text() == reports[1].as_text()


def _index_fn(t, m, names):
    """``t`` as a function of a tuple of carrier indices, by table lookups."""
    if isinstance(t, Var):
        i = names.index(t.name)
        return lambda v: v[i]
    if isinstance(t, (Const0, Const1)):
        c = m.consts["zero" if isinstance(t, Const0) else "one"]
        return lambda v: c
    # nested lists: scalar lookups in them are faster than in numpy arrays
    tbl = m.tables[t.op].tolist()
    args = [_index_fn(c, m, names) for c in children(t)]
    if len(args) == 2:
        f, g = args
        return lambda v: tbl[f(v)][g(v)]
    return lambda v: tbl[args[0](v)]


def _brute_force_first(m, names, failing):
    for i, v in enumerate(itertools.product(range(len(m.elements)), repeat=len(names))):
        if failing(v):
            return i, {nm: m.elements[j] for nm, j in zip(names, v)}
    return None


# an equation and an entailment on chain:40 (81 elements) whose first witness
# lies 1056321 valuations into their 4-variable sweep
BLOCKED_EQUATION = (mv("w (+) w (+) (x (+) -1) (+) z^-^+"), mv("w (+) (x (+) -1) (+) y^-^+"))
BLOCKED_ENTAILMENT = ([w("1 -> x"), w("z -> z"), w("y -> y")], w("w -> (~w -> w)"))


class TestBlockedSweeps:
    # chain:40 has 81 elements: a 4-variable sweep is cut into 169 blocks of
    # 39 rows of 81**2 valuations (the last of 3 rows), a row being one index
    # of the first two axes, and the first witness sits in the fifth block
    NAMES = ["w", "x", "y", "z"]

    def assert_past_several_blocks(self, m, i):
        shape = (len(m.elements),) * len(self.NAMES)
        starts = [offset for offset, _, _ in semantics._blocks(shape)]
        assert 0 < starts[1] < starts[4] <= i < starts[5]

    def test_equation_witness_in_later_slice(self):
        m = resolve("chain:40")
        lhs, rhs = BLOCKED_EQUATION
        fl, fr = _index_fn(lhs, m, self.NAMES), _index_fn(rhs, m, self.NAMES)
        i, valuation = _brute_force_first(m, self.NAMES, lambda v: fl(v) != fr(v))
        self.assert_past_several_blocks(m, i)
        report = check_equation(lhs, rhs, m, Exhaustive())
        assert report.verdict is Verdict.COUNTERMODEL
        assert report.samples_tried == i + 1
        assert report.witness.valuation == valuation

    def test_entailment_witness_in_later_slice(self):
        m = resolve("chain:40@w")
        premises, conclusion = BLOCKED_ENTAILMENT
        ds = {m.index[el] for el in designated_set(m).elements}
        fps = [_index_fn(t, m, self.NAMES) for t in premises]
        fc = _index_fn(conclusion, m, self.NAMES)
        i, valuation = _brute_force_first(
            m, self.NAMES,
            lambda v: fc(v) not in ds and all(f(v) in ds for f in fps))
        self.assert_past_several_blocks(m, i)
        report = check_entailment(premises, conclusion, m, Exhaustive())
        assert report.verdict is Verdict.COUNTERMODEL
        assert report.samples_tried == i + 1
        assert report.witness.valuation == valuation

    @pytest.mark.parametrize("shape", [(), (7,), (2_000_000,), (81,) * 4, (3, 2**10, 2**11),
                                       (2, 3, 2**21)])
    def test_blocks_tile_the_row_major_order(self, shape):
        # each block, read through _take from one broadcast axis per position,
        # runs from its offset on in row-major order
        axes = [np.arange(d).reshape((1,) * i + (d,) + (1,) * (len(shape) - 1 - i))
                for i, d in enumerate(shape)]
        nxt = 0
        for offset, index, block in semantics._blocks(shape):
            assert offset == nxt
            size = int(np.prod(block))
            assert size <= semantics._SLICE and block[1:] == shape[len(shape) + 1 - len(block):]
            coords = [np.broadcast_to(semantics._take(a, index), block) for a in axes]
            for j in (0, size - 1) if shape else ():
                assert np.ravel_multi_index([c.flat[j] for c in coords], shape) == offset + j
            nxt = offset + size
        assert nxt == int(np.prod(shape))

    @pytest.mark.parametrize("shape, rows, row, blocks", [((81,) * 4, 39, 81**2, 169),
                                                          ((41,) * 5, 3, 41**3, 561)])
    def test_every_block_but_the_last_is_full(self, shape, rows, row, blocks):
        # a row is one index of the fewest leading axes below which a block fits
        sizes = [int(np.prod(block)) for _, _, block in semantics._blocks(shape)]
        assert len(sizes) == blocks
        assert set(sizes[:-1]) == {rows * row} and rows * row <= semantics._SLICE < (rows + 1) * row
        assert sum(sizes) == int(np.prod(shape))

    def test_large_sweeps_stay_small_in_memory(self):
        # 401**3 valuations, one block of them at a time: the peak was 3.9 MB,
        # against 8.0 MB when two blocks were built at once on two threads
        m = resolve("chain:200")
        tracemalloc.start()
        try:
            failing = check_equation(mv("x (+) (y (+) z)"), mv("(x (+) y) (+) z"),
                                     m, Exhaustive())
            valid = check_equation(mv("x (+) (y (+) z)"), mv("x (+) (z (+) y)"),
                                   m, Exhaustive())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (failing.verdict, failing.samples_tried) == (Verdict.COUNTERMODEL, 202)
        assert (valid.verdict, valid.samples_tried) == (Verdict.VALID_EXHAUSTIVE, 401**3)
        assert peak < 6 * 2**20


# chain:70 has 141 elements: its 3-variable sweeps are 11 blocks of 13 rows
# of 141**2 valuations (the last of 11 rows).  TWO_WITNESS_BLOCKS fails from
# x = -17/35 on, that is in block 2 and in every later block.
VALID_CHAIN70 = (mv("x (+) (y (+) z)"), mv("(z (+) y) (+) x"))
TWO_WITNESS_BLOCKS = (mv("(x (+) x (+) 1)^- (+) (y (+) z)"),
                      mv("(x (+) x (+) 1) (+) (y (+) z)"))


class TestBlockOrder:
    def test_earlier_of_two_witness_blocks_wins(self):
        # blocks 2 and 3 both hold witnesses
        m = resolve("chain:70")
        starts = [offset for offset, _, _ in semantics._blocks((141,) * 3)]
        later = {"x": m.elements[starts[3] // 141**2], "y": m.elements[0], "z": m.elements[0]}
        lhs, rhs = TWO_WITNESS_BLOCKS
        assert evaluate(lhs, m, later) != evaluate(rhs, m, later)
        report = check_equation(lhs, rhs, m, Exhaustive())
        assert starts[2] < report.samples_tried <= starts[3]

    def test_error_in_a_later_block_is_raised(self):
        env = {"x": np.arange(4 * semantics._SLICE)}

        def bad_in(part, witness_first=False):
            x = part["x"]
            if x[0] == semantics._SLICE:
                raise SemanticsError("second block")
            return (x == 7) if witness_first else np.zeros(x.shape, dtype=bool)

        with pytest.raises(SemanticsError, match="second block"):
            semantics._first_witness(env, bad_in)
        # a witness in an earlier block is returned: the sweep never reads on
        assert semantics._first_witness(env, lambda p: bad_in(p, True)) == 7
        # and the next check runs as before
        report = check_equation(*VALID_CHAIN70, resolve("chain:70"), Exhaustive())
        assert (report.verdict, report.samples_tried) == (Verdict.VALID_EXHAUSTIVE, 141**3)


# the catalog views of at most 9 elements: a 3-variable sweep of one of them
# is at most 729 valuations
SMALL_FINITE_VIEWS = [n for n in FINITE_VIEWS if len(resolve(n).elements) <= 9]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_same_report_for_every_block_size(data):
    # blocks of at most 5 valuations: a sweep of two or more variables is many
    # blocks, and one of three variables is cut across more than one leading
    # axis (lead > 1 in _blocks)
    m = resolve(data.draw(st.sampled_from(SMALL_FINITE_VIEWS)))
    strategy = data.draw(st.sampled_from([Exhaustive(), RandomSampling(40)]))
    terms = data.draw(st.lists(random_terms(m.signature), min_size=2, max_size=4)
                      .filter(lambda ts: any(map(variables, ts))))
    checks = [lambda: check_equation(terms[0], terms[1], m, strategy)]
    if m.signature is Sig.W:
        checks.append(lambda: check_entailment(terms[1:], terms[0], m, strategy))
    for check in checks:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(semantics, "_SLICE", 5)
            small = check().as_text()
        assert small == check().as_text()


class TestCheckEquation:
    def test_commutativity_sampled(self):
        report = check_equation(
            mv("x (+) y"), mv("y (+) x"), resolve("square"), RandomSampling(10000), seed=7
        )
        assert report.verdict is Verdict.NO_COUNTEREXAMPLE_FOUND
        assert report.samples_tried == 10000

    def test_grid_finds_off_slice_witness(self):
        report = check_equation(
            mv("x (+) 0"), mv("x"), resolve("square"), Grid(4)
        )
        assert report.verdict is Verdict.COUNTERMODEL
        assert report.witness.valuation == {"x": (F(0), F(1, 2))}
        assert report.witness.lhs_value == (F(0), F(0))
        assert report.witness.rhs_value == (F(0), F(1, 2))

    def test_strong_law_everywhere(self):
        for name in ("square", "disk"):
            report = check_equation(
                mv("x^+"), mv("x^+ (+) 0"), resolve(name), RandomSampling(2000), seed=1
            )
            assert not report.found_countermodel
        report = check_equation(
            mv("x^+"), mv("x^+ (+) 0"), resolve("chain:2"), Exhaustive()
        )
        assert report.verdict is Verdict.VALID_EXHAUSTIVE

    def test_exhaustive_needs_finite_carrier(self):
        with pytest.raises(StrategyError):
            check_equation(mv("x"), mv("x"), resolve("square"), Exhaustive())

    def test_grid_rejected_on_finite(self):
        with pytest.raises(StrategyError):
            check_equation(mv("x"), mv("x"), resolve("chain:1"), Grid(2))

    def test_exhaustive_witness_on_chain(self):
        report = check_equation(mv("x (+) 1"), mv("1"), resolve("chain:2"), Exhaustive())
        assert report.verdict is Verdict.COUNTERMODEL
        assert report.witness.valuation == {"x": F(-1)}

    def test_determinism(self):
        args = (mv("x (+) y"), mv("-x (+) -y"), resolve("square"))
        r1 = check_equation(*args, RandomSampling(500), seed=99)
        r2 = check_equation(*args, RandomSampling(500), seed=99)
        assert r1.as_json() == r2.as_json()

    def test_no_variable_equation(self):
        report = check_equation(mv("0"), mv("1"), resolve("chain:1"), Exhaustive())
        assert report.verdict is Verdict.COUNTERMODEL
        report = check_equation(mv("-0"), mv("0"), resolve("square"), RandomSampling(10))
        assert not report.found_countermodel

    def test_random_draws_above_the_cap_are_refused_before_drawing(self, monkeypatch):
        # 1,333,334 samples of three variables are 4,000,002 values, just above the cap
        monkeypatch.setattr(semantics, "_env_from_random", None)  # drawing would fail
        with pytest.raises(StrategyError, match=(
                r"^strategy 'random:1333334' over 3 variables draws 4000002 values; "
                r"at most 4000000 are drawn$")):
            check_equation(mv("x (+) y"), mv("y (+) z"), resolve("square"),
                           RandomSampling(1_333_334), seed=1)

    def test_largest_accepted_random_request_peak_memory(self):
        # the disk keeps two numerators per value and redraws the points outside it
        count = semantics._DRAW_CAP // 2
        tracemalloc.start()
        try:
            report = check_equation(mv("x (+) y"), mv("y (+) x"), resolve("disk"),
                                    RandomSampling(count), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.samples_tried == count and not report.found_countermodel
        assert peak <= 32 * semantics._DRAW_CAP  # two int64 arrays per variable, twice over

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grid_on_the_interval_agrees_with_the_chain(self, d):
        # grid:d on the interval and an exhaustive sweep of chain:d run over
        # the same carrier {k/d}, so they find a countermodel for the same
        # equations, and valid runs count the same valuations
        for eq in corpus.corpus():
            view = "" if eq.sig is Sig.MV else "@w"
            grid = check_equation(eq.lhs, eq.rhs, resolve("interval" + view), Grid(d))
            sweep = check_equation(eq.lhs, eq.rhs, resolve(f"chain:{d}{view}"), Exhaustive())
            assert grid.found_countermodel == sweep.found_countermodel, (d, eq.name)
            if not sweep.found_countermodel:
                assert grid.samples_tried == sweep.samples_tried, (d, eq.name)


@pytest.fixture
def apply_calls(monkeypatch):
    """Counts scalar ``apply`` calls on the standard models."""

    class Calls:
        n = 0

    def counted(self, op, *args, _apply=StandardModel.apply):
        Calls.n += 1
        return _apply(self, op, *args)

    monkeypatch.setattr(StandardModel, "apply", counted)
    return Calls


class TestDesignated:
    def test_finite_sets(self):
        assert designated_set(resolve("chain:1@w")).elements == (F(0), F(1))
        assert designated_set(resolve("flatten:chain:1:0@w")).elements == (F(0),)

    def test_square_closed_form(self):
        ds = designated_set(resolve("square@w"))
        assert ds.contains((F(2, 5), F(0)))
        assert not ds.contains((F(2, 5), F(1, 3)))
        assert not ds.contains((F(-2, 5), F(0)))

    def test_closed_form_is_image_of_carrier(self, rng):
        sw = resolve("square@w")
        ds = designated_set(sw)
        for _ in range(1000):
            c = (F(rng.randint(-120, 120), 120), F(rng.randint(-120, 120), 120))
            d = evaluate(w("(c -> 1) -> 1"), sw, {"c": c})
            assert ds.contains(d)
            assert evaluate(w("(c -> 1) -> 1"), sw, {"c": d}) == d

    def test_needs_wajsberg_signature(self):
        with pytest.raises(SemanticsError):
            designated_set(resolve("square"))

    @pytest.mark.parametrize("kind", STANDARD_CATALOG)
    def test_closed_form_at_every_grid_point(self, kind):
        # both inclusions against the exact scalar apply: every (c -> 1) -> 1
        # is in the set, and exactly the members are their own image
        m = StandardModel(kind, Sig.W)
        ds, one = designated_set(m), m.const("one")
        for D in (*range(1, 13), 24):
            ks = range(-D, D + 1)
            nums, inside = [], []
            for n in itertools.product(ks, ks) if m.pair else ks:
                c = (F(n[0], D), F(n[1], D)) if m.pair else F(n, D)
                if not m.contains(c):
                    continue
                d = m.apply("impl", m.apply("impl", c, one), one)
                assert ds.contains(d), (kind, D, c)
                assert ds.contains(c) == (d == c), (kind, D, c)
                nums.append(n)
                inside.append(ds.contains(c))
            rep = tuple(map(np.array, zip(*nums))) if m.pair else np.array(nums)
            assert ds.vec_contains(rep).tolist() == inside, (kind, D)

    @pytest.mark.parametrize("kind", STANDARD_CATALOG)
    def test_standard_set_makes_no_apply_call(self, apply_calls, kind):
        designated_set(StandardModel(kind, Sig.W))
        assert apply_calls.n == 0

    @pytest.mark.parametrize("name", [n + "@w" for n in FINITE_CATALOG]
                             + [f"chain:{n}@w" for n in range(4, 12)])
    def test_finite_set_is_the_scalar_image(self, name):
        m = resolve(name)
        one = m.const("one")
        image = {m.apply("impl", m.apply("impl", c, one), one) for c in m.elements}
        ds = designated_set(m)
        assert ds.elements == tuple(sorted(image, key=label_str))
        assert ds.table.tolist() == [el in image for el in m.elements]

    def test_cache_does_not_keep_the_model_alive(self):
        gc.collect()
        gc.disable()
        try:
            fresh = [finite_w_view(resolve("chain:2")), StandardModel("square", Sig.W)]
            refs = [weakref.ref(m) for m in fresh]
            for m in fresh:
                designated_set(m)
            del fresh, m
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_cached_set_is_shared_and_immutable(self):
        ds = designated_set(resolve("chain:2@w"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.elements = ()
        with pytest.raises(ValueError):
            ds.table[0] = not ds.table[0]


class TestEntailment:
    def test_identity(self):
        report = check_entailment(
            [w("p")], w("p"), resolve("square@w"), RandomSampling(2000), seed=3
        )
        assert not report.found_countermodel

    def test_axiom_shape_always_designated(self):
        report = check_entailment(
            [], w("p -> 1"), resolve("square@w"), RandomSampling(2000), seed=3
        )
        assert not report.found_countermodel

    def test_vacuous_premise(self):
        report = check_entailment(
            [w("p"), w("~1")], w("~p"), resolve("square@w"), RandomSampling(2000), seed=3
        )
        assert not report.found_countermodel
        ds = designated_set(resolve("square@w"))
        assert not ds.contains(evaluate(w("~1"), resolve("square@w"), {}))

    def test_detachment_fails_without_prefix(self):
        report = check_entailment(
            [w("p"), w("p -> q")], w("q"), resolve("square@w"), RandomSampling(5000), seed=3
        )
        assert report.found_countermodel

    def test_detachment_holds_with_prefix(self):
        report = check_entailment(
            [w("p"), w("p -> q")],
            w("(x -> x) -> q"),
            resolve("square@w"),
            RandomSampling(5000),
            seed=3,
        )
        assert not report.found_countermodel

    def test_exhaustive_on_flat(self):
        report = check_entailment(
            [w("p"), w("~1")], w("~p"), resolve("flatten:chain:1:0@w"), Exhaustive()
        )
        assert report.verdict is Verdict.VALID_EXHAUSTIVE


class TestSearch:
    def test_constant_clash(self):
        report = search_countermodel(
            mv("0"), mv("1"), ["chain:1", "flat-standard"], RandomSampling(100)
        )
        assert report.found_countermodel
        assert report.witness.model_name == "chain:1"

    def test_absorption_fails_on_chain(self):
        report = search_countermodel(mv("x (+) 1"), mv("1"), ["chain:2"], RandomSampling(50))
        assert report.found_countermodel
        assert report.witness.valuation == {"x": F(-1)}

    def test_double_absorption_valid(self):
        report = search_countermodel(
            mv("(x (+) 1) (+) 1"), mv("1"), ["chain:2", "square"], RandomSampling(1000)
        )
        assert not report.found_countermodel


class TestProjection:
    def test_oplus_terms_live_on_the_zero_slice(self, rng):
        sq = resolve("square")
        for _ in range(1000):
            t = random_term(rng, Sig.MV, 5, force_oplus=True)
            v = random_square_valuation(rng, variables(t))
            full = evaluate(t, sq, v)
            flat = evaluate(t, sq, zero_second_coordinates(v))
            assert full == flat
            assert full[1] == 0


class TestRegularStability:
    def test_prefix_invisible_on_regular_terms(self, rng):
        models = [resolve(n) for n in ("square@w", "disk@w", "interval@w",
                                       "flat-standard@w")]
        checked = 0
        while checked < 1000:
            t = random_term(rng, Sig.W, 4)
            from sqmv.syntax import is_regular, Impl

            if not is_regular(t):
                continue
            r = random_term(rng, Sig.W, 2)
            prefixed = Impl(Impl(r, r), t)
            m = models[checked % len(models)]
            names = variables(prefixed)
            v = random_square_valuation(rng, names) if "square" in m.name or "disk" in m.name \
                else random_interval_valuation(rng, names)
            if "disk" in m.name:
                v = random_disk_valuation(rng, names)
            assert evaluate(prefixed, m, v) == evaluate(t, m, v)
            checked += 1


class TestStrongExpansionCorrectness:
    def test_expansion_invisible_in_strong_models(self, rng):
        from sqmv.syntax import expand_abbreviations

        cases = [
            ("square", Sig.MV, random_square_valuation),
            ("disk", Sig.MV, random_disk_valuation),
            ("interval", Sig.MV, random_interval_valuation),
            ("flat-standard", Sig.MV, random_interval_valuation),
            ("square@w", Sig.W, random_square_valuation),
            ("disk@w", Sig.W, random_disk_valuation),
        ]
        for name, sig, sampler in cases:
            m = resolve(name)
            for _ in range(150):
                t = random_term(rng, sig, 4)
                expanded = expand_abbreviations(t, sig)
                v = sampler(rng, variables(t))
                assert evaluate(t, m, v) == evaluate(expanded, m, v), name

    def test_expansion_invisible_in_finite_strong_models(self, rng):
        from sqmv.syntax import expand_abbreviations

        for name in ("chain:2", "flatten:chain:2:0",
                     "product:chain:1,flatten:chain:1:0", "ex32-grid"):
            m = resolve(name)
            for _ in range(150):
                t = random_term(rng, Sig.MV, 4)
                expanded = expand_abbreviations(t, Sig.MV)
                v = {n: rng.choice(m.elements) for n in variables(t)}
                assert evaluate(t, m, v) == evaluate(expanded, m, v), name


ENTAILMENT_CORPUS = [
    (["p"], "p", True),
    (["p", "p -> q"], "q", True),
    (["p -> q", "q -> r"], "p -> r", True),
    (["~(p -> q)"], "q -> p", True),
    ([], "p -> 1", True),
    ([], "p", False),
    (["p"], "q", False),
    (["p -> q"], "q", False),
]

PLAIN_W_MODELS = ("interval@w", "chain:1@w", "chain:2@w", "chain:3@w")
STRONG_W_MODELS = (
    "square@w", "disk@w", "interval@w", "flat-standard@w", "chain:2@w",
    "flatten:chain:2:0@w", "product:chain:2,flatten:chain:2:0@w", "ex32-grid@w",
)


class TestEntailmentTransfer:
    def _holds(self, premises, conclusion, names):
        for name in names:
            m = resolve(name)
            strat = Exhaustive() if m.finite else RandomSampling(3000)
            report = check_entailment(premises, conclusion, m, strat, seed=9)
            if report.found_countermodel:
                return False
        return True

    def test_plain_entailment_matches_prefixed_strong_entailment(self):
        for premises, conclusion, expected in ENTAILMENT_CORPUS:
            prem = [w(t) for t in premises]
            concl = w(conclusion)
            plain = self._holds(prem, concl, PLAIN_W_MODELS)
            prefixed = self._holds(
                prem, parse(f"(z -> z) -> ({conclusion})", Sig.W), STRONG_W_MODELS
            )
            assert plain == prefixed == expected, conclusion


FINITE_W_VIEWS = [f"{base}@w" for n in (1, 2, 3)
                  for base in (f"chain:{n}", f"flatten:chain:{n}:0")]


def _scalar_entailment_json(premises, conclusion, m) -> str:
    """``check_entailment(..., Exhaustive()).as_json()`` computed valuation by
    valuation through the exact path, in the batch path's row-major order."""
    ds = designated_set(m)
    names = sorted(set().union(*[variables(t) for t in (*premises, conclusion)]))
    out = {"verdict": "VALID_EXHAUSTIVE", "samples": len(m.elements) ** len(names),
           "seed": 0, "witness": None}
    for i, vals in enumerate(itertools.product(m.elements, repeat=len(names))):
        v = dict(zip(names, vals))
        if all(ds.contains(evaluate(t, m, v)) for t in premises):
            c = evaluate(conclusion, m, v)
            if not ds.contains(c):
                out.update(verdict="COUNTERMODEL", samples=i + 1,
                           witness=Witness(m.name, v, c, None).as_json())
                break
    return json.dumps(out)


class TestFiniteEntailmentMembership:
    def test_batch_membership_matches_scalar_path(self):
        corpus_ = ENTAILMENT_CORPUS + [
            (["p", "~1"], "~p", None),
            (["1 -> p"], "p", None),
            (["~p"], "p -> 1", None),
            ([], "(p -> 1) -> 1", None),
        ]
        for name in FINITE_W_VIEWS:
            m = resolve(name)
            for premises, conclusion, _ in corpus_:
                prem, concl = [w(t) for t in premises], w(conclusion)
                report = check_entailment(prem, concl, m, Exhaustive())
                assert json.dumps(report.as_json()) == _scalar_entailment_json(
                    prem, concl, m), (name, conclusion)


class TestNoReferenceCycles:
    def test_checks_leave_no_cyclic_garbage(self):
        chain, sq, sw = resolve("chain:2"), resolve("square"), resolve("square@w")
        comm = (mv("x (+) y"), mv("y (+) x"))
        unit = (mv("x (+) 0"), mv("x"))
        absorb = (mv("x (+) 1"), mv("1"))
        identity = ([w("p")], w("p"))
        detachment = ([w("p"), w("p -> q")], w("q"))
        gc.collect()
        gc.disable()
        try:
            reports = [
                check_equation(*comm, chain, Exhaustive()),
                check_equation(*absorb, chain, Exhaustive()),
                check_equation(*comm, sq, Grid(4)),
                check_equation(*unit, sq, Grid(4)),
                check_equation(*comm, sq, RandomSampling(2000), seed=1),
                check_equation(*unit, sq, RandomSampling(2000), seed=1),
                check_entailment(*identity, sw, RandomSampling(2000), seed=3),
                check_entailment(*detachment, sw, RandomSampling(5000), seed=3),
            ]
            assert [r.found_countermodel for r in reports] == [False, True] * 4
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_proof_path_leaves_no_cyclic_garbage(self):
        lstar = [f.read_text() for f in sorted((FIXTURES / "lstar").iterdir())]
        registry = standard_registry()
        x, y = Var("x"), Var("y")
        gc.collect()
        gc.disable()
        try:
            for text in [*lstar, *(text for _, text in packaged_certificates())]:
                script = parse_script(text)
                assert check_proof(script, registry).accepted
            for text in lstar:
                lifted = lift_lstar_proof(parse_script(text))
                if is_regular(lifted.conclusion.right):
                    assert check_proof(deregularize_proof(lifted, registry), registry).accepted
            for form in AXIOMS[SQL]["Q8"]:
                compile((substitute(form, {"p": x, "q": y, "r": Neg(x)}, Sig.W),), Sig.W)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestStrategyParsing:
    def test_round_trip(self):
        assert parse_strategy("exhaustive") == Exhaustive()
        assert parse_strategy("grid:4") == Grid(4)
        assert parse_strategy("grid") == Grid()
        assert parse_strategy("random:100") == RandomSampling(100)
        assert parse_strategy("random:2000000") == RandomSampling(2_000_000)
        with pytest.raises(StrategyError):
            parse_strategy("montecarlo")

    @pytest.mark.parametrize(
        "text", ["random:-5", "random:abc", "random:0", "grid:0", "grid:-3", "grid:"]
    )
    def test_rejects_bad_text(self, text):
        with pytest.raises(StrategyError, match=f"strategy '{text}'"):
            parse_strategy(text)

    @pytest.mark.parametrize(
        "make",
        [lambda: Grid(0), lambda: RandomSampling(0), lambda: RandomSampling(2_000_001),
         lambda: RandomSampling(10, 0), lambda: RandomSampling(10, 2**31 + 1)],
        ids=["grid-0", "random-0", "random-2000001", "max-den-0", "max-den-2^31+1"],
    )
    def test_constructors_reject_out_of_range(self, make):
        with pytest.raises(StrategyError):
            make()

    def test_default_grid_denominator_scales(self):
        lhs, rhs = mv("(x (+) y) (+) 0"), mv("x (+) y")
        report = check_equation(lhs, rhs, resolve("square"), Grid())
        assert report.strategy == "grid"
        assert not report.found_countermodel

    @pytest.mark.parametrize("kind", STANDARD_CATALOG)
    def test_grid_count_is_the_number_of_points(self, kind):
        # an oversized grid is refused on this count, before any point is built
        m = resolve(kind)
        for d in range(1, 200):
            (values,), _ = m.grid(d, 1)
            assert semantics._env_shape({"x": values}) == (m.grid_count(d),), d


def _disk_draw_reference(rng, D, count):
    """The disk draw as it was first written: every round re-tests the whole arrays."""
    a = rng.integers(-D, D + 1, size=count)
    b = rng.integers(-D, D + 1, size=count)
    bad = a * a > D * D - b * b
    while bad.any():
        n_bad = int(bad.sum())
        a[bad] = rng.integers(-D, D + 1, size=n_bad)
        b[bad] = rng.integers(-D, D + 1, size=n_bad)
        bad = a * a > D * D - b * b
    return a, b


@pytest.mark.parametrize("D", [120, 7, 2**31])
def test_disk_draws_equal_the_whole_array_loop(D):
    disk = resolve("disk")
    for seed in range(50):
        for count in (10000, 2000, 37, 5000):
            env, _, _ = semantics._env_from_random(disk, ("x", "y"), count, seed, D)
            rng = np.random.default_rng(seed)
            for name in ("x", "y"):
                want = _disk_draw_reference(rng, D, count)
                assert all(np.array_equal(g, h) for g, h in zip(env[name], want)), (seed, count)
