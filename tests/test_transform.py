from fractions import Fraction as F

import pytest

from conftest import (
    finite_restriction,
    random_disk_valuation,
    random_interval_valuation,
    random_square_valuation,
    random_term,
)
from sqmv.models import (
    ClassError,
    FINITE_CATALOG,
    STANDARD_CATALOG,
    FiniteModel,
    embed_into_product,
    finite_model_from_ops,
    resolve,
)
from sqmv import corpus
from sqmv.semantics import Exhaustive, check_equation, evaluate
from sqmv.syntax import Sig, SignatureError, parse, print_term, variables
from sqmv.transform import (
    mv_to_w_model,
    mv_to_w_term,
    tables_equal,
    w_to_mv_model,
    w_to_mv_term,
)


VIEW_TERMS = {
    Sig.MV: {"oplus": "x (+) y", "uminus": "-x", "pos": "x^+", "npart": "x^-",
             "zero": "0", "one": "1"},
    Sig.W: {"impl": "x -> y", "wneg": "~x", "pos": "x^+", "npart": "x^-", "one": "1"},
}


def mv(text):
    return parse(text, Sig.MV)


def w(text):
    return parse(text, Sig.W)


class TestTermTranslation:
    def test_sum_becomes_implication(self):
        assert print_term(mv_to_w_term(mv("p (+) q"))) == "~p -> q"

    def test_minus_becomes_negation(self):
        assert mv_to_w_term(mv("-p")) == w("~p")

    def test_zero_becomes_self_implication(self):
        assert mv_to_w_term(mv("0")) == w("1 -> 1")

    def test_implication_becomes_sum(self):
        assert w_to_mv_term(w("p -> q")) == mv("-p (+) q")

    def test_negation_becomes_minus(self):
        assert w_to_mv_term(w("~p")) == mv("-p")

    def test_one_unchanged(self):
        assert w_to_mv_term(w("1")) == mv("1")

    def test_parts_pass_through(self):
        assert mv_to_w_term(mv("p^+ (+) q^-")) == w("~(p^+) -> q^-")

    def test_wrong_signature_rejected(self):
        with pytest.raises(SignatureError):
            mv_to_w_term(w("p -> q"))
        with pytest.raises(SignatureError):
            w_to_mv_term(mv("p (+) q"))


class TestTermModelCoherence:
    def test_translation_preserves_values(self, rng):
        sq = resolve("square")
        sq_w = mv_to_w_model(sq)
        for _ in range(1000):
            t = random_term(rng, Sig.MV, 5)
            v = random_square_valuation(rng, variables(t))
            assert evaluate(t, sq, v) == evaluate(mv_to_w_term(t), sq_w, v)

    def test_reverse_translation_preserves_values(self, rng):
        sw = resolve("square@w")
        sw_mv = w_to_mv_model(sw)
        for _ in range(1000):
            t = random_term(rng, Sig.W, 5)
            v = random_square_valuation(rng, variables(t))
            assert evaluate(t, sw, v) == evaluate(w_to_mv_term(t), sw_mv, v)

    def test_round_trip_keeps_semantics(self, rng):
        sq = resolve("square")
        for _ in range(1000):
            t = random_term(rng, Sig.MV, 5)
            back = w_to_mv_term(mv_to_w_term(t))
            v = random_square_valuation(rng, variables(t))
            assert evaluate(t, sq, v) == evaluate(back, sq, v)

    def test_coherence_on_finite_models(self, rng):
        for name in ("chain:2", "flatten:chain:1:0", "product:chain:1,flatten:chain:1:0"):
            m = resolve(name)
            m_w = mv_to_w_model(m)
            for _ in range(200):
                t = random_term(rng, Sig.MV, 4)
                v = {n: rng.choice(m.elements) for n in variables(t)}
                assert evaluate(t, m, v) == evaluate(mv_to_w_term(t), m_w, v)


@pytest.mark.parametrize("name", FINITE_CATALOG)
def test_term_equivalence_on_the_batch_path(name):
    # an equation and its translation, swept on a model and on its view in
    # the other signature, give the same verdict, count and first witness
    def outcome(lhs, rhs, m):
        r = check_equation(lhs, rhs, m, Exhaustive())
        return r.verdict, r.samples_tried, r.witness and r.witness.valuation

    for eq in corpus.corpus():
        if eq.sig is Sig.MV:
            m = resolve(name)
            view, tr = mv_to_w_model(m), mv_to_w_term
        else:
            m = resolve(name + "@w")
            view, tr = w_to_mv_model(m), w_to_mv_term
        assert outcome(eq.lhs, eq.rhs, m) == outcome(tr(eq.lhs), tr(eq.rhs), view), (
            name, eq.name)


class TestModelRoundTrips:
    def test_finite_catalog_round_trips_exactly(self):
        for name in FINITE_CATALOG:
            m = resolve(name)
            assert tables_equal(w_to_mv_model(mv_to_w_model(m)), m), name
            m_w = resolve(name + "@w")
            assert tables_equal(mv_to_w_model(w_to_mv_model(m_w)), m_w), name

    @pytest.mark.parametrize("name", [k + v for k in STANDARD_CATALOG for v in ("", "@w")])
    def test_standard_view_computes_the_term_translation(self, rng, name):
        # each operation and constant of the view is its term translation,
        # evaluated in the base model
        base = resolve(name)
        if base.signature is Sig.MV:
            view, to_base = mv_to_w_model(base), w_to_mv_term
        else:
            view, to_base = w_to_mv_model(base), mv_to_w_term
        sample = {"square": random_square_valuation, "disk": random_disk_valuation}.get(
            base.kind, random_interval_valuation)
        for op, text in VIEW_TERMS[view.signature].items():
            t = parse(text, view.signature)
            names = sorted(variables(t))
            for _ in range(200 if names else 1):
                v = sample(rng, ("x", "y"))
                got = view.apply(op, *(v[n] for n in names)) if names else view.const(op)
                assert got == evaluate(to_base(t), base, v), (name, op, v)

    def test_restricted_wajsberg_grid_round_trips(self):
        sw = resolve("square@w")
        firsts = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
        seconds = [F(0), F(1, 2), F(-1, 2)]
        pts = [(a, b) for a in firsts for b in seconds]
        grid = finite_restriction(sw, pts, "sw-grid")
        assert tables_equal(mv_to_w_model(w_to_mv_model(grid)), grid)

    def test_non_strong_model_rejected(self):
        with pytest.raises(ClassError):
            mv_to_w_model(broken_grid())

    def test_non_strong_model_has_no_embedding(self):
        with pytest.raises(ClassError,
                           match="^broken-grid is not strong; the embedding is not defined$"):
            embed_into_product(broken_grid())

    def test_tables_differ_in_signature_or_carrier(self):
        m = resolve("chain:1")
        # -1 renamed: the same tables and constants on another carrier
        relabelled = FiniteModel("m01", Sig.MV, ("m",) + m.elements[1:], m.tables, m.consts)
        assert tables_equal(m, m) and tables_equal(relabelled, relabelled)
        assert not tables_equal(m, resolve("chain:1@w"))
        assert not tables_equal(m, relabelled)

    @pytest.mark.parametrize("kind", STANDARD_CATALOG)
    def test_standard_views_are_the_catalog_models(self, kind):
        assert mv_to_w_model(resolve(kind)) is resolve(kind + "@w")
        assert w_to_mv_model(resolve(kind + "@w")) is resolve(kind)

    def test_signature_guard(self):
        with pytest.raises(ClassError):
            mv_to_w_model(resolve("square@w"))
        with pytest.raises(ClassError):
            w_to_mv_model(resolve("square"))


def broken_grid():
    """A half-square variant whose parts do not absorb adding zero: not strong."""
    els = [(F(a, 2), F(b, 2)) for a in range(-2, 3) for b in range(0, 3)]

    def clamp(x):
        return max(F(-1), min(F(1), x))

    return finite_model_from_ops(
        "broken-grid",
        Sig.MV,
        els,
        {
            "oplus": lambda x, y: (clamp(x[0] + y[0]), F(1, 2)),
            "uminus": lambda x: (-x[0], 1 - x[1]),
            "pos": lambda x: (max(F(0), x[0]), F(0)),
            "npart": lambda x: (min(F(0), x[0]), F(0)),
        },
        {"zero": (F(0), F(1, 2)), "one": (F(1), F(1, 2))},
    )
