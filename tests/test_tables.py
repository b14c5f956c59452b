"""Finite operation tables: the tables built by index arithmetic against the Fraction
definitions, batch lookups at the int16/int32 dtype boundaries, classification
by one check of all its axioms, and table text that stays byte-identical."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqmv.semantics as sem
from conftest import clamp1, random_term, table_models
from sqmv import axioms
from sqmv.cli import main
from sqmv.models import (
    ADJOINED,
    FINITE_CATALOG,
    WIDE,
    _BATTERIES,
    ClassFlags,
    FiniteModel,
    _build,
    _split_top,
    _strip_parens,
    classify,
    compile,
    finite_chain,
    finite_model_from_ops,
    finite_mv_view,
    finite_w_view,
    flattening,
    is_strong,
    mu_congruence,
    ops_for,
    product,
    product_axes,
    quotient,
    resolve,
    run,
)
from sqmv.semantics import Exhaustive, check_equation, evaluate
from sqmv.syntax import NegPart, Sig, parse
from sqmv.transform import mv_to_w_model, tables_equal, w_to_mv_model

VIEWS = [v for name in FINITE_CATALOG for v in (name, name + "@w")]


# ---------------------------------------------------------------------------
# Reference models, one Fraction operation per table cell


def ref_chain(n):
    ops = {
        "oplus": lambda x, y: clamp1(x + y),
        "uminus": lambda x: -x,
        "pos": lambda x: max(F(0), x),
        "npart": lambda x: min(F(0), x),
    }
    els = [F(k, n) for k in range(-n, n + 1)]
    return finite_model_from_ops(f"chain:{n}", Sig.MV, els, ops, {"zero": F(0), "one": F(1)})


def ref_flattening(base, k):
    els = base.elements + ((ADJOINED,) if k is ADJOINED else ())
    ops = {
        "oplus": lambda x, y: k,
        "uminus": lambda x: k if x is ADJOINED else base.apply("uminus", x),
        "pos": lambda x: k,
        "npart": lambda x: k,
    }
    kname = "new" if k is ADJOINED else str(k)
    return finite_model_from_ops(
        f"flatten:{base.name}:{kname}", Sig.MV, els, ops, {"zero": k, "one": k}
    )


def ref_product(m1, m2, name):
    def componentwise(op):
        return lambda *xs: tuple(m.apply(op, *(x[i] for x in xs))
                                 for i, m in enumerate((m1, m2)))

    ops = {op: componentwise(op) for op in ops_for(m1.signature)}
    consts = {c: (m1.const(c), m2.const(c)) for c in ("zero", "one")}
    els = itertools.product(m1.elements, m2.elements)
    return finite_model_from_ops(name, m1.signature, els, ops, consts)


def ref_w_view(m):
    ops = {
        "impl": lambda x, y: m.apply("oplus", m.apply("uminus", x), y),
        "wneg": lambda x: m.apply("uminus", x),
        "pos": lambda x: m.apply("pos", x),
        "npart": lambda x: m.apply("npart", x),
    }
    one = m.const("one")
    consts = {"one": one, "zero": m.apply("oplus", m.apply("uminus", one), one)}
    return finite_model_from_ops(m.name + "@w", Sig.W, m.elements, ops, consts)


def ref_catalog(name):
    if name.endswith("@w"):
        return ref_w_view(ref_catalog(name[:-2]))
    kind, _, rest = name.partition(":")
    if kind == "chain":
        return ref_chain(int(rest))
    if kind == "flatten":
        base, _, k = rest.rpartition(":")
        return ref_flattening(ref_catalog(base), F(k))
    if kind == "product":
        left, right = _split_top(rest, "()", 1)
        return ref_product(ref_catalog(_strip_parens(left)),
                           ref_catalog(_strip_parens(right)), name)
    return resolve(name)  # ex32-grid, built from its operations already


def assert_same_model(got, want):
    assert (got.name, got.signature, got.elements) == (want.name, want.signature, want.elements)
    assert got.consts == want.consts
    assert sorted(got.tables) == sorted(want.tables)
    for op, tbl in want.tables.items():
        assert got.tables[op].shape == tbl.shape, op
        assert got.tables[op].tolist() == tbl.tolist(), op


class TestArithmeticTables:
    @pytest.mark.parametrize("n", range(1, 31))
    def test_chain_matches_fraction_definitions(self, n):
        ref = ref_chain(n)
        assert_same_model(finite_chain(n), ref)
        assert_same_model(_build(f"chain:{n}@w"), ref_w_view(ref))

    @pytest.mark.parametrize("name", [v for v in VIEWS if "flatten" in v or "product" in v])
    def test_catalog_flattenings_and_products(self, name):
        assert_same_model(_build(name), ref_catalog(name))

    def test_adjoined_flattening(self):
        # two elements swapped by minus: no fixpoint in the regular part
        base = finite_model_from_ops(
            "swap2", Sig.MV, (F(-1), F(1)),
            {"oplus": lambda x, y: clamp1(x + y + 1), "uminus": lambda x: -x,
             "pos": lambda x: F(1), "npart": lambda x: F(-1)},
            {"zero": F(-1), "one": F(1)},
        )
        assert_same_model(flattening(base, None), ref_flattening(base, ADJOINED))


# ---------------------------------------------------------------------------
# Dtype boundaries: int16 holds 181**2 but not 183**2 or 225**2

BOUNDARY = [
    ("chain:90", 181, np.int16),
    ("chain:91", 183, np.int32),
    ("product:chain:7,chain:7", 225, np.int32),
]


class TestDtypeBoundaries:
    @pytest.mark.parametrize("name, size, dtype", BOUNDARY)
    def test_dtype_and_read_only(self, name, size, dtype):
        m = resolve(name)
        assert len(m.elements) == size and m.index_dtype == dtype
        for op, arity in ops_for(m.signature).items():
            tbl = m.tables[op]
            assert tbl.dtype == dtype and tbl.ndim == arity and tbl.flags.c_contiguous
            with pytest.raises(ValueError):
                tbl[(0,) * arity] = 0

    def test_product_is_wider_than_its_factors(self):
        assert resolve("chain:7").index_dtype == np.int16
        assert resolve("product:chain:7,chain:7").index_dtype == np.int32

    @pytest.mark.parametrize("name, size, dtype", BOUNDARY)
    def test_batch_values_match_evaluate(self, name, size, dtype):
        m = resolve(name)
        rng = random.Random(size)
        env = dict(zip("xy", product_axes(np.arange(size, dtype=m.index_dtype), 2)))
        for _ in range(4):
            t = random_term(rng, Sig.MV, 4, var_names=("x", "y"), force_oplus=True)
            vals = np.broadcast_to(run(compile((t,), Sig.MV), m, env, 1)[0], (size, size))
            assert vals.dtype == dtype
            for i in rng.sample(range(size * size), 40):
                a, b = divmod(i, size)
                v = {"x": m.elements[a], "y": m.elements[b]}
                assert m.elements[vals[a, b]] == evaluate(t, m, v), (t, v)

    @pytest.mark.parametrize("name, size, dtype", BOUNDARY)
    def test_failing_associativity_first_witness(self, name, size, dtype):
        m = resolve(name)
        lhs = parse("x (+) (y (+) z)", Sig.MV)
        rhs = parse("(x (+) y) (+) z", Sig.MV)
        report = check_equation(lhs, rhs, m, Exhaustive())
        for i, (a, b, c) in enumerate(itertools.product(m.elements, repeat=3)):
            v = {"x": a, "y": b, "z": c}
            if evaluate(lhs, m, v) != evaluate(rhs, m, v):
                break
        assert report.found_countermodel
        assert (report.samples_tried, report.witness.valuation) == (i + 1, v)

    def test_no_catalog_view_gets_int64(self):
        for name in VIEWS:
            m = resolve(name)
            assert m.index_dtype != np.int64, name
            assert all(t.dtype == m.index_dtype for t in m.tables.values()), name


# ---------------------------------------------------------------------------
# Batteries on demand


def count_sweeps(monkeypatch):
    """Record (model, formulas) of every sweep: each call of the one check
    driver, which checks all the equations of one ``check_equations`` call
    on a small model."""
    calls = []
    real = sem._check

    def counting(terms, m, *args, **kwargs):
        calls.append((m.name, tuple(terms)))
        return real(terms, m, *args, **kwargs)

    monkeypatch.setattr(sem, "_check", counting)
    return calls


def formulas(eqs):
    return tuple(t for eq in eqs for t in (eq.lhs, eq.rhs))


class TestBatteryCache:
    @pytest.mark.parametrize("name", ["chain:2", "flatten:chain:1:0@w"])
    def test_round_trip_runs_quasi_and_strong_only(self, monkeypatch, name):
        m = _build(name)
        sig, other = m.signature, Sig.W if m.signature is Sig.MV else Sig.MV
        calls = count_sweeps(monkeypatch)
        there, back = ((mv_to_w_model, w_to_mv_model) if sig is Sig.MV
                       else (w_to_mv_model, mv_to_w_model))
        assert tables_equal(back(there(m)), m)
        # the strength check of these small models is one sweep of the
        # formulas of both batteries
        on_m = [terms for nm, terms in calls if nm == m.name]
        on_view = [terms for nm, terms in calls if nm != m.name]
        assert on_m == [formulas(axioms.quasi_axioms(sig) + axioms.strong_axioms(sig))]
        assert on_view == [formulas(axioms.quasi_axioms(other) + axioms.strong_axioms(other))]

        # classify caches nothing: it sweeps all four batteries at once
        calls.clear()
        classify(m)
        assert [terms for _, terms in calls] == [
            formulas([eq for battery in _BATTERIES.values() for eq in battery(sig)])]

    @pytest.mark.parametrize("name", VIEWS)
    def test_flags_equal_a_fresh_classify(self, name):
        m = _build(name)
        assert is_strong(m)
        flags, fresh = classify(m), classify(_build(name))
        assert flags == fresh
        assert list(flags.axiom_results) == list(fresh.axiom_results)
        sig = m.signature
        battery = (axioms.quasi_axioms(sig) + axioms.strong_axioms(sig)
                   + [axioms.flat_equation(sig)] + axioms.star_axioms(sig))
        assert list(flags.axiom_results) == [eq.name for eq in battery]

    @pytest.mark.parametrize("sig", [Sig.MV, Sig.W])
    def test_batteries_are_fresh_lists(self, sig):
        for battery in (axioms.quasi_axioms, axioms.strong_axioms, axioms.star_axioms):
            a, b = battery(sig), battery(sig)
            assert a == b and a is not b
            a.clear()
            assert battery(sig) == b


# ---------------------------------------------------------------------------
# classify as one check of all four batteries


def classify_by_battery(m):
    """The reference: ``classify`` as one ``check_equations`` call per
    battery, merged in battery order."""
    results, witnesses, holds = {}, {}, []
    for battery in (axioms.quasi_axioms, axioms.strong_axioms,
                    lambda sig: [axioms.flat_equation(sig)], axioms.star_axioms):
        eqs = battery(m.signature)
        reports = sem.check_equations([(eq.lhs, eq.rhs) for eq in eqs], m)
        for eq, report in zip(eqs, reports):
            results[eq.name] = not report.found_countermodel
            if report.witness:
                witnesses[eq.name] = report.witness.valuation
        holds.append(not any(r.found_countermodel for r in reports))
    quasi, strong, flat, star = holds
    return ClassFlags(m.signature, results, witnesses, quasi, strong and quasi,
                      flat and quasi, star)


def assert_classify_by_battery(m):
    flags, want = classify(m), classify_by_battery(m)
    assert flags == want  # flags, results and witnesses
    assert list(flags.axiom_results) == list(want.axiom_results)
    assert list(flags.witnesses) == list(want.witnesses)
    assert is_strong(m) == flags.is_strong


class TestClassifyInOneCheck:
    @pytest.mark.parametrize("name", VIEWS)
    def test_classify_equals_one_check_per_battery(self, name):
        assert_classify_by_battery(_build(name))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), sig=st.sampled_from(Sig))
    def test_random_tables(self, data, sig):
        # up to 30 elements: past 25, three variables no longer fit one sweep
        assert_classify_by_battery(data.draw(table_models(sig, sizes=range(1, 31))))

    @pytest.mark.parametrize("name", ["chain:2", "chain:2@w"])
    def test_the_strong_laws_alone_are_not_strength(self, name):
        # one cell changed off the cells the strong laws read (x (+) 0, resp.
        # (1 -> 1) -> x): they still hold, a quasi law fails
        m = resolve(name)
        op = "oplus" if m.signature is Sig.MV else "impl"
        tables = {o: t.copy() for o, t in m.tables.items()}
        if op == "oplus":
            i, j = [k for k in range(len(m.elements)) if k != m.consts["zero"]][:2]
        else:
            one = m.consts["one"]
            i, j = next(k for k in range(len(m.elements))
                        if k not in (one, tables[op][one, one])), 0
        tables[op][i, j] = (tables[op][i, j] + 1) % len(m.elements)
        planted = FiniteModel(m.name, m.signature, m.elements, tables, m.consts)
        assert_classify_by_battery(planted)
        flags = classify(planted)
        assert all(flags.axiom_results[eq.name] for eq in axioms.strong_axioms(m.signature))
        assert not flags.is_quasi and not is_strong(planted)

    @pytest.mark.parametrize("name", ["chain:2@w", "flatten:chain:3:0",
                                      "product:chain:3,flatten:chain:3:0"])
    def test_one_check_equations_call(self, monkeypatch, name):
        m = _build(name)
        calls = []
        real = sem.check_equations

        def counting(pairs, model):
            calls.append(model)
            return real(pairs, model)

        monkeypatch.setattr(sem, "check_equations", counting)
        for fn in (classify, is_strong):
            calls.clear()
            fn(m)
            # a product's factors are checked from inside the one call
            assert [c for c in calls if c is m] == [m]
            assert all(c in m.factors for c in calls if c is not m)


# ---------------------------------------------------------------------------
# One sweep per battery against one check per equation


SMALL_VIEWS = [v for v in VIEWS if len(resolve(v).elements) <= 25]


def per_equation(pairs, m):
    return [check_equation(lhs, rhs, m, Exhaustive()) for lhs, rhs in pairs]


class TestBatterySweep:
    @pytest.mark.parametrize("name", SMALL_VIEWS)
    def test_classify_equals_one_check_per_equation(self, name):
        m = _build(name)
        flags = classify(m)
        sig = m.signature
        for battery in _BATTERIES.values():
            eqs = battery(sig)
            pairs = [(eq.lhs, eq.rhs) for eq in eqs]
            want = per_equation(pairs, m)
            assert sem.check_equations(pairs, m) == want
            for eq, report in zip(eqs, want):
                assert flags.axiom_results[eq.name] is not report.found_countermodel
                assert flags.witnesses.get(eq.name) == (report.witness and report.witness.valuation)

    def test_the_small_views_are_those_that_fit_one_sweep(self):
        # the quasi and star batteries read three variables
        assert len(SMALL_VIEWS) == 18
        assert all((len(resolve(v).elements) ** 3 <= WIDE) is (v in SMALL_VIEWS) for v in VIEWS)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), sig=st.sampled_from(Sig), seed=st.integers(0, 2**32 - 1))
    def test_random_tables(self, data, sig, seed):
        m = data.draw(table_models(sig))
        n, rnd = len(m.elements), random.Random(seed)
        subset = tuple(rnd.sample("xyz", rnd.randint(1, 2)))

        def term(names):
            return random_term(rnd, sig, 4, names)

        t = random_term(rnd, sig, 4, subset, allow_parts=False)  # t reads no npart
        pairs = [
            (term("xyz"), term("xyz")),
            (term(subset), term(subset)),   # a strict subset of the variables
            (term(subset[:1]), term(subset[-1:])),
            (term(()), term(())),           # no variable at all
            (NegPart(t), t),                # holds on m, as npart is the identity
        ]
        # the same model with npart changed in one entry, the value of t at
        # the last valuation: there t^- = t fails, and perhaps before
        tables = {op: tbl.copy() for op, tbl in m.tables.items()}
        cell = evaluate(t, m, dict.fromkeys(subset, n - 1))
        tables["npart"][cell] = (cell + 1) % n
        planted = FiniteModel(f"planted:{n}", sig, m.elements, tables, m.consts)
        reports = [sem.check_equations(pairs, model) for model in (m, planted)]
        assert reports == [per_equation(pairs, model) for model in (m, planted)]
        assert [r[-1].found_countermodel for r in reports] == [False, n > 1]


# ---------------------------------------------------------------------------
# A product's valid battery laws read off its factors


PRODUCT_81 = "product:(product:chain:1,flatten:chain:1:0),(product:chain:1,flatten:chain:1:0)"
PRODUCT_49 = "product:chain:3,flatten:chain:3:0"
UNEQUAL = "product:(product:chain:1,flatten:chain:1:0),chain:2"  # 9 by 5 elements
PRODUCT_VIEWS = [v for name in (PRODUCT_81, PRODUCT_49, UNEQUAL) for v in (name, name + "@w")]


class TestProductBatteries:
    @pytest.mark.parametrize("name", PRODUCT_VIEWS)
    def test_batteries_equal_one_check_per_equation(self, monkeypatch, name):
        m = _build(name)
        calls = count_sweeps(monkeypatch)
        for battery_name, battery in _BATTERIES.items():
            pairs = [(eq.lhs, eq.rhs) for eq in battery(m.signature)]
            calls.clear()
            got = sem.check_equations(pairs, m)
            swept = [terms for nm, terms in calls if nm == m.name]
            assert got == per_equation(pairs, m)
            if battery_name in ("quasi", "star"):
                # three variables over more than 25 elements: only the laws
                # that fail are swept on the product itself
                assert swept == [pair for pair, r in zip(pairs, got) if r.found_countermodel]

    @pytest.mark.parametrize("name", PRODUCT_VIEWS)
    def test_classify_equals_classify_without_factors(self, name):
        m = _build(name)
        bare = FiniteModel(m.name, m.signature, m.elements, m.tables, m.consts)
        assert m.factors and bare.factors == ()
        flags, want = classify(m), classify(bare)
        assert flags == want  # flags, results and witnesses
        assert list(flags.axiom_results) == list(want.axiom_results)


FACTOR_PAIRS = [("chain:3", "flatten:chain:3:0"), ("product:chain:1,flatten:chain:1:0", "chain:2"),
                ("chain:1", "chain:1"), ("ex32-grid", "chain:1")]


class TestProductFactors:
    @pytest.mark.parametrize("a, b", FACTOR_PAIRS)
    def test_a_view_of_a_product_is_the_product_of_the_views(self, a, b):
        m1, m2 = resolve(a), resolve(b)
        m = product(m1, m2)
        assert m.factors == (m1, m2)
        w = finite_w_view(m)
        assert tables_equal(w, product(finite_w_view(m1), finite_w_view(m2)))
        assert [f.name for f in w.factors] == [a + "@w", b + "@w"]
        assert all(tables_equal(f, finite_w_view(g)) for f, g in zip(w.factors, m.factors))
        # and back: the additive view of a product of implicational models
        w1, w2 = w.factors
        wp = product(w1, w2)
        mv = finite_mv_view(wp)
        assert tables_equal(mv, product(finite_mv_view(w1), finite_mv_view(w2)))
        assert tables_equal(mv, m)
        assert all(tables_equal(f, finite_mv_view(g)) for f, g in zip(mv.factors, wp.factors))

    @pytest.mark.parametrize("view", ["", "@w"])
    def test_a_repeated_factor_is_swept_once(self, monkeypatch, view):
        # PRODUCT_81 is one 9-element product twice, and so is its view:
        # classify sweeps that factor once, for all four batteries
        m = _build(PRODUCT_81 + view)
        assert m.factors[0] is m.factors[1]
        calls = count_sweeps(monkeypatch)
        classify(m)
        assert Counter(name for name, _ in calls)[m.factors[0].name] == 1

    def test_other_constructions_have_no_factors(self):
        m = resolve("product:chain:1,chain:2")
        assert flattening(m, (F(0), F(0))).factors == ()
        assert quotient(m, mu_congruence(m)).factors == ()
        ops = {op: partial(m.apply, op) for op in ops_for(Sig.MV)}
        copy = finite_model_from_ops("copy", Sig.MV, m.elements, ops,
                                     {c: m.const(c) for c in m.consts})
        assert tables_equal(copy, m) and copy.factors == ()


# ---------------------------------------------------------------------------
# Table equality and byte-identical text


class TestTableText:
    @pytest.mark.parametrize("op, cell", [("oplus", (0, 0)), ("uminus", (1,))])
    def test_tables_equal_sees_one_cell(self, op, cell):
        m = resolve("chain:2")
        tables = {name: t.copy() for name, t in m.tables.items()}
        same = FiniteModel(m.name, m.signature, m.elements, tables, dict(m.consts))
        assert tables_equal(same, m)
        tables[op][cell] = (tables[op][cell] + 1) % len(m.elements)
        changed = FiniteModel(m.name, m.signature, m.elements, tables, dict(m.consts))
        assert not tables_equal(changed, m)

    # sha256 of table_text(), recorded before the tables became arrays
    DIGESTS = {
        "chain:1": "faf252b0b33ed7ef2672d8af129ef931f19a12bda2de3f3297b1e5d49cab5e73",
        "chain:1@w": "dce2f60e41ce0097dfedff5f4721a0a347c273e0263e658331fb13d9486d15b8",
        "chain:2": "0c83b8c7f95a38f55295f8b06be9085ee8476601e7c3a79a60debc1280a52b8e",
        "chain:2@w": "4060d16a1cc1154ff3914d59d41440e90a43752e3a7d60922dd7d5e8ed53e986",
        "chain:3": "47ce96de5f2e9a9a156411c14ff5b56b9a84f7bdb18b6c0b2a7abfd623679b14",
        "chain:3@w": "6b7ca11aa3cb9a3d16d54b35114abd35fdc88b1dfd3c7cb37d1a69117d61338f",
        "flatten:chain:1:0": "d9592a6add789bd5e02ed0eb4ba7b1f6974df96b517579388d2c0475f98cfb7b",
        "flatten:chain:1:0@w": "77398d75340518b0d7e27c9a220be86d116eec6ea7b9ac06383de2e280a488a9",
        "flatten:chain:2:0": "c090c7f413131f8c839f168b6d2f3fa5a096cb9c7873a5f95cf730d654b77bf8",
        "flatten:chain:2:0@w": "a82ce667243476fd12adfcaea19c7d69389969edfec3b30499c8067d4111527d",
        "flatten:chain:3:0": "83b67b5fb68f690191be4a032a60d3f2993bfbab279d3337735b94b0b3cf3ebc",
        "flatten:chain:3:0@w": "d09beaa67607ee737c37b8c253fe268b19faf4b63803cc3fbafd358e8df571c0",
        "product:chain:1,flatten:chain:1:0":
            "6cabd1417bab2820fe04625ab2441ad49edff5be1acea67a0f16c4fef8be04ec",
        "product:chain:1,flatten:chain:1:0@w":
            "a3e9a2e6ac712e3adf28d25d601f37265ec16489f64a908a96f61914bc3b307e",
        "product:chain:2,flatten:chain:2:0":
            "80afe495e50ffc3656094cf3d22296d41b1fef833d59fe9f1689429eb020351f",
        "product:chain:2,flatten:chain:2:0@w":
            "5f47b4724013dbc9dd3b8b0a400854ab758346c90408f1fef0d2413a7e714dbf",
        "product:chain:3,flatten:chain:3:0":
            "bf0f2d01813c27562bd34b67ac4af8b05528fe5be742ca755c7e77d8cabb4b3b",
        "product:chain:3,flatten:chain:3:0@w":
            "c393351f7434da3d2c81bc39ee4f50ce93842a8a7454c250b21ad486e3639504",
        "product:(product:chain:1,flatten:chain:1:0),(product:chain:1,flatten:chain:1:0)":
            "1198cf926c25800d1995109b047af737af5894d1add0d0133d953121024d0254",
        "product:(product:chain:1,flatten:chain:1:0),(product:chain:1,flatten:chain:1:0)@w":
            "4f65e504a955ceadbec715f4b8f9cd3e84f9395cc4caf5d8016c6fc2527bc5dc",
        "ex32-grid": "a286a4e7d683c478d53a9ed588a76230452c2f8c666f18f3161d078705d23236",
        "ex32-grid@w": "0a473953ccfa08623e8dd5971e6a0dc60e0e83ea773483230486c6e464916701",
    }

    def test_digests_cover_the_catalog(self):
        assert sorted(self.DIGESTS) == sorted(VIEWS)

    @pytest.mark.parametrize("name", VIEWS)
    def test_table_text_digest(self, name):
        text = resolve(name).table_text()
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name]

    def test_cli_tables_bytes(self, capsys):
        code = main(["classify", "--model", "ex32-grid", "--tables"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c72d07338aeda1e6d63abdc716a27886661d85241d13b82fe234618e42a28629")
