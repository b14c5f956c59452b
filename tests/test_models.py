import itertools
import re
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import finite_restriction
from sqmv.models import (
    ADJOINED,
    ClosureError,
    DomainError,
    CatalogError,
    FINITE_CATALOG,
    Congruence,
    FiniteModel,
    NotCompatible,
    STANDARD_CATALOG,
    SpecError,
    StandardModel,
    classify,
    embed_into_product,
    finite_chain,
    finite_model_from_ops,
    finite_mv_view,
    flattening,
    is_strong,
    label_str,
    mu_congruence,
    ops_for,
    product,
    quotient,
    read_element,
    regular_elements,
    resolve,
    _from_relation,
    tau_congruence,
)
from sqmv import axioms
from sqmv.corpus import corpus
from sqmv.semantics import Exhaustive, check_equation, evaluate
from sqmv.syntax import Const0, OPlus, Sig, Var, join_term


# Used only here: quotients are compared with catalog models up to isomorphism.
def find_isomorphism(m1: FiniteModel, m2: FiniteModel) -> dict | None:
    """Search for an operation-preserving bijection (small models only)."""
    if m1.signature is not m2.signature or len(m1.elements) != len(m2.elements):
        return None
    sig_ops = ops_for(m1.signature)
    mapping: dict = {}

    def consistent(x, y) -> bool:
        trial = dict(mapping)
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            if a in trial:
                if trial[a] != b:
                    return False
                continue
            if b in trial.values():
                return False
            trial[a] = b
            for op, arity in sig_ops.items():
                if arity == 1:
                    ra, rb = m1.apply(op, a), m2.apply(op, b)
                    if ra in trial and trial[ra] != rb:
                        return False
                else:
                    for c in list(trial):
                        for args1, args2 in (((a, c), (b, trial[c])), ((c, a), (trial[c], b))):
                            ra = m1.apply(op, *args1)
                            rb = m2.apply(op, *args2)
                            if ra in trial and trial[ra] != rb:
                                return False
        mapping.update(trial)
        return True

    def backtrack(i: int) -> bool:
        if i == len(m1.elements):
            return _is_iso(m1, m2, mapping)
        x = m1.elements[i]
        if x in mapping:
            return backtrack(i + 1)
        used = set(mapping.values())
        for y in m2.elements:
            if y in used:
                continue
            saved = dict(mapping)
            if consistent(x, y) and backtrack(i + 1):
                return True
            mapping.clear()
            mapping.update(saved)
        return False

    for cname in m1.consts:
        if cname in m2.consts:
            mapping[m1.const(cname)] = m2.const(cname)
    if len(set(mapping.values())) != len(mapping):
        return None
    return dict(mapping) if backtrack(0) else None


def _is_iso(m1: FiniteModel, m2: FiniteModel, mapping: dict) -> bool:
    if len(set(mapping.values())) != len(m2.elements):
        return False
    for op, arity in ops_for(m1.signature).items():
        for args in itertools.product(m1.elements, repeat=arity):
            if mapping[m1.apply(op, *args)] != m2.apply(op, *(mapping[a] for a in args)):
                return False
    return True


class TestStandardOps:
    def test_square_truncated_sum(self):
        sq = resolve("square")
        out = sq.apply("oplus", (F(1, 2), F(9, 10)), (F(7, 10), F(-1, 5)))
        assert out == (F(1), F(0))

    def test_square_parts(self):
        sq = resolve("square")
        assert sq.apply("pos", (F(-3, 4), F(1, 2))) == (F(0), F(0))
        assert sq.apply("npart", (F(-3, 4), F(1, 2))) == (F(-3, 4), F(0))

    def test_wajsberg_implication(self):
        sw = resolve("square@w")
        assert sw.apply("impl", (F(1, 2), F(0)), (F(-1, 4), F(0))) == (F(-3, 4), F(0))

    def test_flat_standard_sum_constant(self):
        flat = resolve("flat-standard")
        for a, b in [(F(1, 3), F(-1)), (F(0), F(0)), (F(1), F(1))]:
            assert flat.apply("oplus", a, b) == F(0)

    def test_minus_zero_fixed(self):
        for name in ("square", "disk", "interval", "flat-standard", "chain:2"):
            m = resolve(name)
            zero = m.const("zero")
            assert m.apply("uminus", zero) == zero

    def test_disk_membership(self):
        disk = resolve("disk")
        assert disk.contains((F(3, 5), F(4, 5)))
        assert not disk.contains((F(3, 5), F(81, 100)))
        with pytest.raises(DomainError):
            disk.apply("pos", (F(1), F(1)))


class TestFiniteConstructions:
    def test_chain_sum_clamps(self):
        c2 = resolve("chain:2")
        assert c2.apply("oplus", F(1, 2), F(1, 2)) == F(1)
        assert c2.apply("oplus", F(-1), F(1, 2)) == F(-1, 2)

    def test_chain_is_interval_subalgebra(self):
        c3 = resolve("chain:3")
        interval = resolve("interval")
        for op in ("oplus",):
            for x, y in itertools.product(c3.elements, repeat=2):
                assert c3.apply(op, x, y) == interval.apply(op, x, y)
        for op in ("uminus", "pos", "npart"):
            for x in c3.elements:
                assert c3.apply(op, x) == interval.apply(op, x)

    def test_flattening_collapses_sums(self):
        fl = resolve("flatten:chain:1:0")
        assert fl.const("zero") == fl.const("one") == F(0)
        for x, y in itertools.product(fl.elements, repeat=2):
            assert fl.apply("oplus", x, y) == F(0)
        assert fl.apply("uminus", F(-1)) == F(1)

    def test_flattening_requires_fixpoint(self):
        with pytest.raises(SpecError):
            flattening(finite_chain(1), F(1))
        with pytest.raises(SpecError):
            flattening(finite_chain(1), None)  # 0 is available, no fresh element

    def test_flattening_adjoins_fresh_point(self):
        # a two-element minus-swapped carrier has no fixpoint in its regular part
        els = (F(-1), F(1))
        base = finite_model_from_ops(
            "swap2",
            Sig.MV,
            els,
            {
                "oplus": lambda x, y: max(F(-1), min(F(1), x + y + 1)),
                "uminus": lambda x: -x,
                "pos": lambda x: F(1),
                "npart": lambda x: F(-1),
            },
            {"zero": F(-1), "one": F(1)},
        )
        fl = flattening(base, None)
        assert ADJOINED in fl.elements
        assert fl.const("zero") is ADJOINED
        assert label_str(ADJOINED) == "k*"

    def test_flattening_refuses_a_standard_base(self):
        with pytest.raises(SpecError, match="^flattening is available for finite bases only$"):
            flattening(StandardModel("square", Sig.MV), None)

    @pytest.mark.parametrize("names", [("square", "chain:1"), ("chain:1", "square")])
    def test_product_refuses_a_standard_factor(self, names):
        with pytest.raises(SpecError, match="^product is available for finite factors only$"):
            product(*map(resolve, names))

    def test_product_componentwise(self):
        pr = resolve("product:chain:1,flatten:chain:1:0")
        out = pr.apply("oplus", (F(1), F(1)), (F(1), F(-1)))
        assert out == (F(1), F(0))

    def test_closure_error_surfaces(self):
        sq = resolve("square")
        pts = [(F(0), F(0)), (F(1, 2), F(0))]  # not closed under minus
        with pytest.raises(ClosureError):
            finite_restriction(sq, pts, "bad-grid")

    def test_ex32_grid_builds_closed(self):
        g = resolve("ex32-grid")
        assert len(g.elements) == 15
        assert g.const("zero") == (F(0), F(1, 2))
        assert g.apply("uminus", (F(1, 2), F(0))) == (F(-1, 2), F(1))

    def test_table_text(self):
        c1 = resolve("chain:1")
        text = c1.table_text()
        assert "oplus 1 1 -> 1" in text
        assert "uminus -1 -> 1" in text
        assert text.splitlines()[0].startswith("model chain:1")


class TestClassification:
    def test_chain_is_plain_algebra(self):
        flags = classify(resolve("chain:1"))
        assert flags.is_quasi and flags.is_strong and flags.is_star
        assert not flags.is_flat

    def test_flattening_is_flat_not_plain(self):
        flags = classify(resolve("flatten:chain:1:0"))
        assert flags.is_flat and flags.is_strong
        assert not flags.is_star
        assert flags.axiom_results["MV*5"] is False

    def test_product_is_strong_only(self):
        flags = classify(resolve("product:chain:1,flatten:chain:1:0"))
        assert flags.is_strong and flags.is_quasi
        assert not flags.is_star and not flags.is_flat

    def test_grid_strong_with_witness(self):
        flags = classify(resolve("ex32-grid"))
        assert flags.is_strong and not flags.is_star
        witness = flags.witnesses["MV*5"]
        x = witness["x"]
        g = resolve("ex32-grid")
        assert g.apply("oplus", x, g.const("zero")) != x

    def test_wajsberg_views_classify(self):
        flags = classify(resolve("chain:2@w"))
        assert flags.is_quasi and flags.is_strong and flags.is_star
        flags = classify(resolve("flatten:chain:2:0@w"))
        assert flags.is_flat and not flags.is_star


class TestRegulars:
    # the regular part of each of these is a plain MV*-algebra
    def test_chain_all_regular(self):
        c2 = resolve("chain:2")
        regs = regular_elements(c2)
        assert regs == c2.elements
        assert classify(finite_restriction(c2, regs, "chain:2|R")).is_star

    def test_flat_single_regular(self):
        fl = resolve("flatten:chain:1:0")
        regs = regular_elements(fl)
        assert regs == (F(0),)
        assert classify(finite_restriction(fl, regs, "flat|R")).is_star

    def test_product_regulars(self):
        pr = resolve("product:chain:1,flatten:chain:1:0")
        regs = regular_elements(pr)
        assert sorted(regs) == [(F(-1), F(0)), (F(0), F(0)), (F(1), F(0))]
        assert classify(finite_restriction(pr, regs, "product|R")).is_star


class TestCongruences:
    def test_mu_groups_by_first_coordinate(self):
        pr = resolve("product:chain:1,flatten:chain:1:0")
        mu = mu_congruence(pr)
        assert sorted(len(c) for c in mu.classes) == [3, 3, 3]
        for cls in mu.classes:
            firsts = {x[0] for x in cls}
            assert len(firsts) == 1

    def test_tau_isolates_regulars(self):
        pr = resolve("product:chain:1,flatten:chain:1:0")
        tau = tau_congruence(pr)
        assert sorted(len(c) for c in tau.classes) == [1] * 6 + [3]

    def test_meet_is_identity_everywhere(self):
        for name in FINITE_CATALOG:
            m = resolve(name)
            assert mu_congruence(m).meet(tau_congruence(m)).is_identity(), name

    def test_join_matches_vector_table(self):
        m = resolve("chain:2")
        join = join_term(Var("x"), Var("y"), Sig.MV)
        assert evaluate(join, m, {"x": F(-1, 2), "y": F(1, 2)}) == F(1, 2)
        assert evaluate(join, m, {"x": F(-1), "y": F(0)}) == F(0)


class TestQuotients:
    def test_mu_quotient_matches_chain(self):
        pr = resolve("product:chain:1,flatten:chain:1:0")
        q = quotient(pr, mu_congruence(pr))
        assert classify(q).is_star
        assert find_isomorphism(q, resolve("chain:1")) is not None

    def test_tau_quotient_flat_strong(self):
        pr = resolve("product:chain:1,flatten:chain:1:0")
        q = quotient(pr, tau_congruence(pr))
        assert len(q.elements) == 7
        flags = classify(q)
        assert flags.is_flat and flags.is_strong

    def test_identity_quotient_isomorphic(self):
        m = resolve("chain:2")
        mu = mu_congruence(m)  # chains are plain algebras: mu is the identity
        assert mu.is_identity()
        q = quotient(m, mu)
        assert find_isomorphism(q, m) is not None

    @pytest.mark.parametrize("classes, message", [
        # a partition, but x (+) y does not respect it: its quotient would
        # fail the quasi-MV* axioms
        (({F(-1), F(0)}, {F(1)}), "oplus is not compatible on the left"),
        (({F(-1), F(0)},), "the classes do not partition the carrier"),
        (({F(-1), F(0)}, {F(0), F(1)}), "the classes do not partition the carrier"),
    ], ids=["not-compatible", "not-covering", "overlapping"])
    def test_refuses_what_is_not_a_congruence(self, classes, message):
        m = resolve("chain:1")
        cong = Congruence(m, tuple(frozenset(c) for c in classes))
        with pytest.raises(NotCompatible, match=f"^{message}$"):
            quotient(m, cong)


CATALOG_VIEWS = [n + v for n in FINITE_CATALOG for v in ("", "@w")]


def by_labels(c: frozenset) -> list:
    return sorted(map(label_str, c))


def reference_partition(m: FiniteModel, related) -> tuple:
    """The classes of ``related`` by pairwise calls, sorted by their labels."""
    remaining, classes = list(m.elements), []
    while remaining:
        cls = frozenset(y for y in m.elements if related(remaining[0], y))
        classes.append(cls)
        remaining = [y for y in remaining if y not in cls]
    return tuple(sorted(classes, key=by_labels))


@pytest.mark.parametrize("name", CATALOG_VIEWS)
def test_congruence_classes_match_the_pairwise_reference(name):
    m = resolve(name)
    mu, tau = mu_congruence(m), tau_congruence(m)
    mv = m if m.signature is Sig.MV else finite_mv_view(m)
    join, y0 = join_term(Var("x"), Var("y"), Sig.MV), OPlus(Var("y"), Const0())

    def below(x, y):
        return evaluate(join, mv, {"x": x, "y": y}) == evaluate(y0, mv, {"y": y})

    assert mu.classes == reference_partition(m, lambda x, y: below(x, y) and below(y, x))
    regs = set(regular_elements(m))
    assert tau.classes == reference_partition(
        m, lambda x, y: x == y or (x in regs and y in regs))
    pieces = (c1 & c2 for c1 in mu.classes for c2 in tau.classes if c1 & c2)
    assert mu.meet(tau).classes == tuple(sorted(pieces, key=by_labels))


def reference_quotient(m: FiniteModel, cong: Congruence) -> FiniteModel:
    """The quotient built cell by cell through ``m.apply``, each class
    labelled by its least-label element."""
    reps = tuple(min(cls, key=label_str) for cls in cong.classes)
    rep = {el: r for r, cls in zip(reps, cong.classes) for el in cls}
    ops = {op: (lambda *args, op=op: rep[m.apply(op, *args)]) for op in ops_for(m.signature)}
    consts = {c: rep[m.const(c)] for c in m.consts}
    return finite_model_from_ops(f"{m.name}/~", m.signature, reps, ops, consts)


@pytest.mark.parametrize("name", CATALOG_VIEWS)
@pytest.mark.parametrize("congruence", [mu_congruence, tau_congruence])
def test_quotient_tables_match_the_cell_by_cell_reference(name, congruence):
    m = resolve(name)
    cong = congruence(m)
    q, ref = quotient(m, cong), reference_quotient(m, cong)
    assert (q.name, q.signature, q.elements) == (ref.name, ref.signature, ref.elements)
    assert q.consts == ref.consts
    assert q.tables.keys() == ref.tables.keys()
    for op, tbl in ref.tables.items():
        assert np.array_equal(q.tables[op], tbl), (name, op)


def _holds(eq, m) -> bool:
    return not check_equation(eq.lhs, eq.rhs, m, Exhaustive()).found_countermodel


@pytest.mark.parametrize("name", CATALOG_VIEWS)
def test_equation_holds_exactly_when_it_holds_on_both_quotients(name):
    # the representation theorem: a strong A embeds into A/mu x A/tau, and
    # both factors are homomorphic images of A
    m = resolve(name)
    assert is_strong(m)
    sig = m.signature
    eqs = ([e for e in corpus() if e.sig is sig]
           + axioms.star_axioms(sig) + [axioms.flat_equation(sig)])
    qmu, qtau = quotient(m, mu_congruence(m)), quotient(m, tau_congruence(m))
    for eq in eqs:
        assert _holds(eq, m) == (_holds(eq, qmu) and _holds(eq, qtau)), (name, eq.name)


class TestEmbedding:
    def test_product_embeds_properly(self):
        emb = embed_into_product(resolve("product:chain:1,flatten:chain:1:0"))
        assert emb.is_homomorphism and emb.is_injective
        assert not emb.is_surjective
        assert len(emb.prod.elements) == 21  # 3 x 7 > 9

    def test_plain_member_is_isomorphic(self):
        emb = embed_into_product(resolve("chain:1"))
        assert emb.is_isomorphism

    def test_flat_member_is_isomorphic(self):
        emb = embed_into_product(resolve("flatten:chain:1:0"))
        assert emb.is_isomorphism


class TestCatalog:
    def test_standard_names_resolve(self):
        for name in STANDARD_CATALOG:
            assert resolve(name).name == name
            assert resolve(name + "@w").signature is Sig.W

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            resolve("pentagon")
        with pytest.raises(CatalogError):
            resolve("chain:x")

    @pytest.mark.parametrize("text", ["<1,0", "<<1,0>", ">1,0<"])
    def test_unbalanced_element_literal(self, text):
        with pytest.raises(DomainError, match=f"^cannot read element {re.escape(repr(text))}$"):
            read_element(text)

    @pytest.mark.parametrize("spelling, name", [
        ("chain:1_0", "chain:10"),
        ("product:(chain:1),chain:1", "product:chain:1,chain:1"),
        ("chain:1_0@w", "chain:10@w"),
    ])
    def test_spellings_of_one_model_are_one_object(self, spelling, name):
        m = resolve(spelling)
        assert m.name == name and resolve(name) is m
        assert quotient(m, mu_congruence(resolve(name))).name == name + "/~"

    def test_nested_product_name_round_trip(self):
        name = FINITE_CATALOG[-2]
        m = resolve(name)
        assert len(m.elements) == 81
        assert m.name == name


class TestRefusals:
    """Each refusal of a model constructor or operation, with its text."""

    def test_chain_needs_a_positive_size(self):
        with pytest.raises(SpecError, match="^chain parameter must be >= 1$"):
            resolve("chain:0")

    def test_catalog_flattening_onto_a_fresh_element(self):
        with pytest.raises(SpecError, match=re.escape(
                "minus has a fixpoint over the regular part; flatten onto it (e.g. 0) "
                "instead of adjoining a fresh element")):
            resolve("flatten:chain:1:new")

    def test_flattening_needs_an_additive_base(self):
        with pytest.raises(SpecError, match="^flattening expects an additive-signature base$"):
            flattening(resolve("chain:1@w"), None)

    def test_product_factors_share_a_signature(self):
        with pytest.raises(SpecError, match="^product factors must share a signature$"):
            product(resolve("chain:1"), resolve("chain:1@w"))

    @pytest.mark.parametrize("name, op, el", [
        ("chain:1", "impl", F(0)), ("chain:1@w", "oplus", F(0)),
        ("square", "impl", (F(0), F(0))), ("interval@w", "oplus", F(0)),
    ])
    def test_apply_of_a_missing_operation(self, name, op, el):
        with pytest.raises(DomainError, match=f"^operation '{op}' is not available on {name}$"):
            resolve(name).apply(op, el, el)

    def test_duplicate_carrier_elements(self):
        with pytest.raises(SpecError, match="^duplicate elements in finite carrier$"):
            FiniteModel("twice", Sig.MV, (F(0), F(0)), {}, {})

    def test_constant_outside_the_carrier(self):
        ops = {op: (lambda *args: args[0]) for op in ops_for(Sig.MV)}
        with pytest.raises(ClosureError, match="^point: constant one = 1 not in carrier$"):
            finite_model_from_ops("point", Sig.MV, (F(0),), ops, {"zero": F(0), "one": F(1)})

    @pytest.mark.parametrize("el", [(F(0),), (F(0), F(0), F(0)), F(0), [F(0), F(0)]], ids=repr)
    @pytest.mark.parametrize("name", ["square", "disk"])
    def test_pair_carriers_refuse_other_shapes(self, name, el):
        m = resolve(name)
        assert not m.contains(el)
        with pytest.raises(DomainError, match="is not in the carrier of"):
            m.check_member(el)

    def test_relation_must_be_reflexive(self):
        m = resolve("chain:1")
        with pytest.raises(NotCompatible, match="^relation is not reflexive$"):
            _from_relation(m, np.zeros((3, 3), dtype=bool))

    def test_compatibility_on_the_right(self):
        # x (+) y is a function of y that splits the class {a, b}: each row of
        # the table is the same, so only the right operand shows it
        ident = [0, 1, 2]
        m = FiniteModel("right", Sig.MV, ("a", "b", "c"),
                        {"oplus": [[0, 2, 2]] * 3, "uminus": ident, "pos": ident, "npart": ident},
                        {"zero": 0, "one": 0})
        cong = Congruence(m, (frozenset("ab"), frozenset("c")))
        with pytest.raises(NotCompatible, match="^oplus is not compatible on the right$"):
            quotient(m, cong)

    def test_quotient_by_another_models_congruence(self):
        with pytest.raises(NotCompatible, match="^congruence belongs to a different model$"):
            quotient(resolve("chain:1"), mu_congruence(resolve("chain:2")))
