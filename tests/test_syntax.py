import copy
import gc
import json
import pickle
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    nested_join_text,
    random_term,
    random_terms,
    reference_application,
    reference_match,
    reference_parse,
    reference_parse_iff,
    reference_substitute,
    subterms,
)
from sqmv import cli, models, syntax
from sqmv.models import ops_for, resolve
from sqmv.proofkit import HypRef, LemmaRef, ProofLine, ProofScript, Rule, check_proof
from sqmv.proofkit.systems import SQL
from sqmv.semantics import evaluate
from sqmv.transform import mv_to_w_term, w_to_mv_term
from sqmv.syntax import (
    CONNECTIVES,
    Const0,
    Const1,
    FormulaError,
    Impl,
    MissingBinding,
    Neg,
    NegPart,
    OPlus,
    ParseError,
    PosPart,
    Sig,
    SignatureError,
    Term,
    UMinus,
    Var,
    check_signature,
    children,
    count_connective,
    expand_abbreviations,
    fold,
    is_regular,
    join_term,
    match_schema,
    parse,
    parse_iff,
    print_term,
    substitute,
    variables,
)

p, q, r = Var("p"), Var("q"), Var("r")


class TestParse:
    def test_mv_rejects_wajsberg_negation(self):
        with pytest.raises(SignatureError):
            parse("p (+) ~q", Sig.MV)

    def test_pospart_equivalent_tree(self):
        assert parse("(p -> 1) -> 1", Sig.W) == Impl(Impl(p, Const1()), Const1())

    def test_prefix_minus_over_sum(self):
        assert parse("-(p (+) q)", Sig.MV) == UMinus(OPlus(p, q))

    def test_postfix_binds_tighter_than_prefix(self):
        assert parse("-p^+", Sig.MV) == UMinus(PosPart(p))
        assert parse("(-p)^+", Sig.MV) == PosPart(UMinus(p))

    def test_arrow_right_associative(self):
        assert parse("p -> q -> r", Sig.W) == Impl(p, Impl(q, r))

    def test_oplus_left_associative(self):
        assert parse("p (+) q (+) r", Sig.MV) == OPlus(OPlus(p, q), r)

    def test_zero_illegal_in_w(self):
        with pytest.raises(SignatureError):
            parse("0 -> p", Sig.W)

    def test_arrow_illegal_in_mv(self):
        with pytest.raises(SignatureError):
            parse("p -> q", Sig.MV)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("p (+) ", Sig.MV)
        assert err.value.position == 6

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse("p & q", Sig.W)

    def test_iff_disallowed_by_default(self):
        with pytest.raises(ParseError):
            parse("p <-> q", Sig.W)

    def test_iff_gives_both_directions(self):
        fwd, bwd = parse_iff("p <-> q -> q", Sig.W)
        assert fwd == Impl(p, Impl(q, q))
        assert bwd == Impl(Impl(q, q), p)

    def test_join_sugar_expands(self):
        assert parse("p \\/ q", Sig.W) == join_term(p, q, Sig.W)
        assert parse("p \\/ q", Sig.MV) == join_term(p, q, Sig.MV)
        # \/ binds tighter than (+) and ->, looser than prefix and postfix connectives
        mv, w = Sig.MV, Sig.W
        assert parse("p (+) q \\/ r", mv) == OPlus(p, join_term(q, r, mv))
        assert parse("p \\/ q (+) r", mv) == OPlus(join_term(p, q, mv), r)
        assert parse("-p \\/ q", mv) == join_term(UMinus(p), q, mv)
        assert parse("p \\/ q^+", mv) == join_term(p, PosPart(q), mv)
        assert parse("p \\/ q \\/ r", mv) == join_term(join_term(p, q, mv), r, mv)
        assert parse("p -> q \\/ r", w) == Impl(p, join_term(q, r, w))

    def test_prefix_run_does_not_recurse(self):
        # three times the default recursion limit
        t = parse("-" * 3000 + "x", Sig.MV)
        for _ in range(3000):
            assert type(t) is UMinus
            t = t.arg
        assert t == Var("x")


class TestPrint:
    def test_examples(self):
        assert print_term(Impl(p, Const1())) == "p -> 1"
        assert print_term(UMinus(p)) == "-p"
        assert print_term(PosPart(p)) == "p^+"

    def test_parenthesisation(self):
        assert print_term(PosPart(UMinus(p))) == "(-p)^+"
        assert print_term(OPlus(p, OPlus(q, r))) == "p (+) (q (+) r)"
        assert print_term(Impl(Impl(p, q), r)) == "(p -> q) -> r"
        # the loosest operand each slot takes bare
        assert print_term(OPlus(OPlus(p, q), r)) == "p (+) q (+) r"
        assert print_term(Impl(p, Impl(q, r))) == "p -> q -> r"

    def test_round_trip_bulk(self):
        rng, gaps = random.Random(7), random.Random(8)
        for _ in range(10000):
            sig = rng.choice((Sig.MV, Sig.W))
            t = random_term(rng, sig, rng.randint(0, 8))
            assert parse(print_term(t), sig) == t
            # text the printer never emits: every operand in parentheses,
            # random whitespace between tokens
            assert parse(_loose(t, gaps), sig) == t


def _gap(rng) -> str:
    return "".join(rng.choice(" \t\n") for _ in range(rng.randint(0, 2)))


def _loose(t, rng) -> str:
    """``t`` with every operand parenthesised and random whitespace around each token."""
    kids = [f"({_gap(rng)}{_loose(c, rng)}{_gap(rng)})" for c in children(t)]
    if isinstance(t, Var):
        parts = [t.name]
    elif isinstance(t, (UMinus, Neg)):
        parts = [t.symbol, *kids]
    elif isinstance(t, (PosPart, NegPart)):
        parts = [*kids, t.symbol]
    elif kids:
        parts = [kids[0], t.symbol, kids[1]]
    else:
        parts = [t.symbol]
    return _gap(rng) + _gap(rng).join(parts) + _gap(rng)


_ws = st.recursive(
    st.sampled_from([p, q, r, Const1()]),
    lambda kids: st.one_of(
        st.builds(Impl, kids, kids),
        st.builds(Neg, kids),
        st.builds(PosPart, kids),
        st.builds(NegPart, kids),
    ),
    max_leaves=25,
)


@given(_ws)
@settings(max_examples=300)
def test_round_trip_hypothesis(t):
    assert parse(print_term(t), Sig.W) == t


@pytest.mark.parametrize("sig, text, message", [
    (Sig.MV, "p -> q", "'->' is not part of the MV-STAR language"),
    (Sig.W, "p (+) q", "'(+)' is not part of the W-STAR language"),
    (Sig.W, "-p", "'-' is not part of the W-STAR language"),
    (Sig.MV, "~p", "'~' is not part of the MV-STAR language"),
    (Sig.W, "0", "'0' is not part of the W-STAR language"),
    (Sig.MV, "p <-> q", "'<->' belongs to the W-STAR language"),
])
def test_parser_signature_errors(sig, text, message):
    with pytest.raises(SignatureError) as exc:
        parse_iff(text, sig)
    assert str(exc.value) == message


_BOTH = (parse, parse_iff)


def _formula(found, column):
    return f"expected a formula, found {found!r} (at column {column})"


@pytest.mark.parametrize("text, parsers, sigs, error, message, position", [
    ("", _BOTH, Sig, ParseError, _formula("", 1), 0),
    ("   ", _BOTH, Sig, ParseError, _formula("", 4), 3),
    ("p ->", _BOTH, [Sig.W], ParseError, _formula("", 5), 4),
    ("p ->", _BOTH, [Sig.MV], SignatureError, "'->' is not part of the MV-STAR language", None),
    ("(p", _BOTH, Sig, ParseError, "expected 'rpar', found '' (at column 3)", 2),
    ("p)", _BOTH, Sig, ParseError, "expected 'eof', found ')' (at column 2)", 1),
    ("p q", _BOTH, Sig, ParseError, "expected 'eof', found 'q' (at column 3)", 2),
    ("p & q", _BOTH, Sig, ParseError, "unexpected character '&' (at column 3)", 2),
    ("\u00f1", _BOTH, Sig, ParseError, "unexpected character '\u00f1' (at column 1)", 0),
    ("\\/p", _BOTH, Sig, ParseError, _formula("\\/", 1), 0),
    ("^+", _BOTH, Sig, ParseError, _formula("^+", 1), 0),
    ("p <-> q", [parse], Sig, ParseError, "'<->' is not allowed here (at column 3)", 2),
    ("p <-> q", [parse_iff], [Sig.MV], SignatureError, "'<->' belongs to the W-STAR language", None),
    ("(p <-> q)", _BOTH, Sig, ParseError, "expected 'rpar', found '<->' (at column 4)", 3),
    ("p <-> q <-> r", [parse], Sig, ParseError, "'<->' is not allowed here (at column 3)", 2),
    ("p <-> q <-> r", [parse_iff], [Sig.MV], SignatureError,
     "'<->' belongs to the W-STAR language", None),
    ("p <-> q <-> r", [parse_iff], [Sig.W], ParseError,
     "expected 'eof', found '<->' (at column 9)", 8),
    # a sum is not a left operand of ->, so the formula ends before the arrow
    ("p (+) q -> r", _BOTH, [Sig.MV], ParseError, "expected 'eof', found '->' (at column 9)", 8),
    ("p (+) q -> r", _BOTH, [Sig.W], SignatureError,
     "'(+)' is not part of the W-STAR language", None),
    ("p -> q (+) r", _BOTH, [Sig.W], SignatureError,
     "'(+)' is not part of the W-STAR language", None),
    ("p -> q (+) r", _BOTH, [Sig.MV], SignatureError,
     "'->' is not part of the MV-STAR language", None),
])
def test_parser_error_surface(text, parsers, sigs, error, message, position):
    for parser in parsers:
        for sig in sigs:
            with pytest.raises(FormulaError) as exc:
                parser(text, sig)
            assert type(exc.value) is error, (parser.__name__, sig)
            assert str(exc.value) == message, (parser.__name__, sig)
            assert getattr(exc.value, "position", None) == position, (parser.__name__, sig)


def _outcome(parser, text, sig):
    """What ``parser`` makes of ``text``: its terms, or its error's type, text and position."""
    try:
        return parser(text, sig)
    except FormulaError as e:
        return type(e), str(e), getattr(e, "position", None)


_GAPS = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
# every token, twice the parentheses and the iff, and three stray characters
_SOUP = st.sampled_from(["p", "x1", "0", "1", "(+)", "->", "<->", "<->", "-", "~", "^+", "^-",
                         "\\/", "(", "(", ")", ")", "&", "^", "\u00f1"])
_JOINS = st.sampled_from(["(+)", "->", "\\/", "<->"])
_SIGS = st.sampled_from(Sig)
_TERMS = {sig: random_terms(sig) for sig in Sig}


@st.composite
def _texts(draw):
    """A token soup, or one to three printed random terms of one signature
    joined by binary connectives; then up to four tokens deleted or inserted,
    and random whitespace between tokens."""
    if draw(st.integers(0, 3)) == 0:
        tokens = draw(st.lists(_SOUP, max_size=12))
    else:
        tokens, terms = [], _TERMS[draw(_SIGS)]
        for _ in range(draw(st.sampled_from([1, 2, 3]))):
            if tokens:
                tokens.append(draw(_JOINS))
            tokens += syntax._TOKEN.findall(print_term(draw(terms)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3, 4]))):
        i = draw(st.integers(0, len(tokens)))
        if i < len(tokens) and draw(st.booleans()):
            del tokens[i]
        else:
            tokens.insert(i, draw(_SOUP))
    gaps = draw(st.lists(_GAPS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return "".join(g + t for g, t in zip(gaps, tokens)) + gaps[-1]


@given(_texts())
@example("p (+) q -> r")  # the level check comes before the signature check
@example("(p -> ~q & r")  # a stray character wins over a parse or signature error
@settings(max_examples=1000, deadline=None)
def test_parser_agrees_with_the_reference_parser(text):
    # the same nodes, or the same error: which error wins included
    for sig in Sig:
        for parser, reference in ((parse, reference_parse), (parse_iff, reference_parse_iff)):
            assert _outcome(parser, text, sig) == _outcome(reference, text, sig)


@given(_texts(), _texts())
@example("(x (+) y) (+) z", "(x (+) y) -> z")  # a group read in MV is no W group
@settings(max_examples=200, deadline=None)
def test_a_shared_memo_changes_no_outcome(before, text):
    # ``before`` leaves its groups in the memo, then ``text`` is read twice:
    # the second time every group that parsed is a hit; one memo serves both
    # signatures
    memo = {}
    for sig in Sig:
        _outcome(lambda t, s: parse(t, s, memo), before, sig)
        want = _outcome(reference_parse, text, sig)
        for _ in range(2):
            assert _outcome(lambda t, s: parse(t, s, memo), text, sig) == want


def test_a_memo_hit_needing_the_other_signature_is_a_miss():
    memo = {}
    parse("(x (+) y) (+) z", Sig.MV, memo)
    shared = _outcome(lambda t, s: parse(t, s, memo), "(x (+) y) -> z", Sig.W)
    assert shared == _outcome(parse, "(x (+) y) -> z", Sig.W) == (
        SignatureError, "'(+)' is not part of the W-STAR language", None)


class TestExpand:
    def test_pospart_w(self):
        assert expand_abbreviations(PosPart(p), Sig.W) == parse("(p -> 1) -> 1", Sig.W)

    def test_negpart_w(self):
        assert expand_abbreviations(NegPart(p), Sig.W) == parse("(p -> ~1) -> ~1", Sig.W)

    def test_pospart_mv(self):
        assert expand_abbreviations(PosPart(p), Sig.MV) == parse("1 (+) (-1 (+) p)", Sig.MV)

    def test_negpart_mv(self):
        assert expand_abbreviations(NegPart(p), Sig.MV) == parse("-1 (+) (1 (+) p)", Sig.MV)

    def test_strong_mode_removes_all_parts(self):
        rng = random.Random(3)
        for _ in range(200):
            sig = rng.choice((Sig.MV, Sig.W))
            t = random_term(rng, sig, 6)
            out = expand_abbreviations(t, sig)
            assert count_connective(out, PosPart) == 0
            assert count_connective(out, NegPart) == 0


class TestRegularity:
    def test_examples(self):
        assert not is_regular(Neg(Neg(p)))
        assert is_regular(Impl(p, q))
        assert is_regular(Const1())
        assert is_regular(PosPart(p))
        assert not is_regular(UMinus(p))
        assert is_regular(Const0())

    def test_dichotomy(self):
        rng = random.Random(11)
        for _ in range(2000):
            sig = rng.choice((Sig.MV, Sig.W))
            t = random_term(rng, sig, 5)
            stripped = t
            while isinstance(stripped, (Neg, UMinus)):
                stripped = stripped.arg
            assert is_regular(t) != isinstance(stripped, Var)


class TestCount:
    def test_examples(self):
        assert count_connective(OPlus(p, OPlus(q, r)), OPlus) == 2
        assert count_connective(UMinus(UMinus(p)), UMinus) == 2
        assert count_connective(Const1(), OPlus) == 0
        assert count_connective(parse("p^+ -> p^+", Sig.W), "pos") == 2


# the connectives each language lacks
NOT_IN = {Sig.MV: {Impl, Neg}, Sig.W: {Const0, OPlus, UMinus}}


@pytest.mark.parametrize("cls, fields, message", [
    (OPlus, (p,), "OPlus takes 2 operands, not 1"),
    (Neg, (p, q), "Neg takes 1 operands, not 2"),
    (Const1, (p,), "Const1 takes 0 operands, not 1"),
])
def test_node_arity_is_checked(cls, fields, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        cls(*fields)


class TestConnectiveFacts:
    @pytest.mark.parametrize(
        "node",
        [p, Const0(), Const1(), OPlus(p, q), UMinus(p), Impl(p, q), Neg(p), PosPart(p), NegPart(p)],
        ids=lambda t: type(t).__name__,
    )
    def test_node_class(self, node):
        cls = type(node)
        for sig in Sig:
            if cls in NOT_IN[sig]:
                text = f"connective {cls.__name__} is not part of the {sig.value.upper()}-STAR language"
                with pytest.raises(SignatureError, match=f"^{text}$"):
                    check_signature(node, sig)
                continue
            check_signature(node, sig)
            assert parse(print_term(node), sig) == node
            if cls is not Var:
                consts = resolve("chain:1" if sig is Sig.MV else "chain:1@w").consts
                assert node.op in ops_for(sig) or node.op in consts
        # the operations each signature's models carry, in the order their checks report
        parts = [("pos", 1), ("npart", 1)]
        assert list(ops_for(Sig.MV).items()) == [("oplus", 2), ("uminus", 1), *parts]
        assert list(ops_for(Sig.W).items()) == [("impl", 2), ("wneg", 1), *parts]

    def test_count_under_every_tag(self):
        mv = parse("-(p (+) 0)^+ (+) (1 (+) -q^-)", Sig.MV)
        w = parse("~(p -> 1)^+ -> (~~q^- -> p)", Sig.W)
        expected = {  # tag: (count in mv, count in w)
            "var": (2, 3), "zero": (1, 0), "one": (1, 1), "oplus": (3, 0),
            "uminus": (2, 0), "impl": (0, 3), "wneg": (0, 3), "neg": (0, 3),
            "pos": (1, 1), "npart": (1, 1),
        }
        assert set(expected) == set(CONNECTIVES)
        for tag, counts in expected.items():
            assert (count_connective(mv, tag), count_connective(w, tag)) == counts, tag


class TestSchema:
    def test_repeated_metavariable_forces_equality(self):
        assert match_schema(Impl(p, p), Impl(q, r)) is None
        assert match_schema(Impl(p, p), Impl(q, q)) == {"p": q}

    def test_match_example(self):
        ground = parse("(a -> b) -> 1", Sig.W)
        assert match_schema(Impl(p, Const1()), ground) == {"p": parse("a -> b", Sig.W)}

    def test_three_variable_schema(self):
        schema = parse("p -> ((q -> q) -> p)", Sig.W)
        ground = parse("x -> ((y -> y) -> x)", Sig.W)
        assert match_schema(schema, ground) == {"p": Var("x"), "q": Var("y")}

    def test_parts_do_not_match_each_other(self):
        x = Var("x")
        assert match_schema(PosPart(p), NegPart(x)) is None
        assert match_schema(NegPart(p), PosPart(x)) is None

    def test_substitute_examples(self):
        t = substitute(Impl(p, q), {"p": Const1(), "q": Neg(Const1())}, Sig.W)
        assert t == parse("1 -> ~1", Sig.W)
        t = substitute(Impl(p, Const1()), {"p": Neg(Neg(r))}, Sig.W)
        assert t == parse("~~r -> 1", Sig.W)

    def test_substitute_signature_policing(self):
        with pytest.raises(SignatureError):
            substitute(Impl(p, p), {"p": OPlus(q, r)}, Sig.W)

    def test_missing_binding(self):
        with pytest.raises(MissingBinding):
            substitute(Impl(p, q), {"p": r}, Sig.W)

    @given(st.one_of(_TERMS[Sig.W], st.builds(  # a pattern that shares a subterm
               lambda a, b: Impl(Impl(a, b), Neg(Impl(a, b))), _TERMS[Sig.W], _TERMS[Sig.W])),
           st.dictionaries(st.sampled_from("xyz"), _TERMS[Sig.W], max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_substitute_agrees_with_the_tree_walk(self, pattern, assignment):
        try:
            want = reference_substitute(pattern, assignment)
        except MissingBinding as exc:  # the first unbound metavariable in preorder
            with pytest.raises(MissingBinding, match=f"^{re.escape(str(exc))}$"):
                substitute(pattern, assignment)
        else:
            assert substitute(pattern, assignment) is want

    def test_missing_binding_names_the_first_in_preorder(self):
        with pytest.raises(MissingBinding, match="^no binding for metavariable 'q'$"):
            substitute(Impl(Neg(q), Impl(p, r)), {"p": r})

    def test_matching_soundness(self):
        rng = random.Random(23)
        hits = 0
        for _ in range(3000):
            pattern = random_term(rng, Sig.W, 3, var_names=("p", "q"))
            ground = substitute(
                pattern,
                {
                    "p": random_term(rng, Sig.W, 2, var_names=("a", "b")),
                    "q": random_term(rng, Sig.W, 2, var_names=("a", "b")),
                },
            )
            sigma = match_schema(pattern, ground)
            assert sigma is not None
            assert substitute(pattern, sigma) == ground
            hits += 1
        assert hits == 3000


_W = _TERMS[Sig.W]
# schemas over the metavariables x, y, z, some holding a compound subterm twice
_PATTERNS = st.one_of(_W, st.builds(lambda a, b: Impl(Impl(a, b), Neg(Impl(a, b))), _W, _W))
_SIGMAS = st.fixed_dictionaries({name: _W for name in "xyz"})
# a node of another class over the same operands, for one-node changes
_SWAP = {Impl: OPlus, OPlus: Impl, Neg: PosPart, PosPart: NegPart, NegPart: UMinus,
         UMinus: Neg, Const1: Const0, Const0: Const1}


def _changed(t: Term, k: int, new: Term | None) -> Term:
    """``t`` with the ``k``-th occurrence of a subterm in preorder replaced by
    ``new``, or by a node of another class over its operands (a variable by 1)."""
    if k == 0:
        if new is not None:
            return new
        return Const1() if type(t) is Var else _SWAP[type(t)](*children(t))
    k -= 1
    kids = list(children(t))
    for i, c in enumerate(kids):
        if k < (size := sum(1 for _ in subterms(c))):
            kids[i] = _changed(c, k, new)
            return type(t)(*kids)
        k -= size
    raise IndexError(k)


@st.composite
def _grounds(draw, pattern: Term, sigma: dict[str, Term]) -> Term:
    """An instance of ``pattern`` under ``sigma``: as it is, with one node
    changed, or (a pattern holding one compound subterm twice) with another
    image at the second occurrence."""
    ground = substitute(pattern, sigma)
    how = draw(st.sampled_from(("instance", "changed", "twice")))
    if how == "changed":
        k = draw(st.integers(0, sum(1 for _ in subterms(ground)) - 1))
        ground = _changed(ground, k, draw(st.none() | _W))
    elif (how == "twice" and type(pattern) is Impl and type(pattern.right) is Neg
          and pattern.right.arg is pattern.left):
        ground = Impl(ground.left, Neg(substitute(pattern.left, draw(_SIGMAS))))
    return ground


class TestMatcher:
    """The generated matchers against the tree walk they replace."""

    @given(_PATTERNS, _SIGMAS, st.data())
    @settings(max_examples=400, deadline=None)
    def test_match_schema_agrees_with_the_tree_walk(self, pattern, sigma, data):
        ground = data.draw(_grounds(pattern, sigma))
        # seeded bindings: none, a part of sigma, or any
        seeds = st.none() | st.dictionaries(st.sampled_from(sorted(sigma)), _W, max_size=2)
        seeds |= st.sets(st.sampled_from(sorted(sigma))).map(lambda ks: {k: sigma[k] for k in ks})
        for bindings in (None, data.draw(seeds)):
            want = reference_match(pattern, ground, bindings)
            got = match_schema(pattern, ground, bindings)
            assert (got is None) is (want is None)
            if want is not None:  # one image per name, in the same order
                assert list(got.items()) == list(want.items())

    @given(st.lists(_PATTERNS, min_size=1, max_size=3), _SIGMAS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_an_application_agrees_with_the_conclusion_first_chain(self, patterns, sigma, data):
        # a ground may also be an instance under an assignment of its own
        grounds = [data.draw(_grounds(pattern, data.draw(_SIGMAS) if data.draw(st.booleans())
                                      else sigma)) for pattern in patterns]
        want = reference_application(patterns, grounds)
        match = syntax.matcher(tuple(patterns))
        images = match(*grounds)
        assert (images is None) is (want is None)
        if want is not None:  # one image per name, in the same order
            assert list(zip(match.names, images)) == list(want.items())
        # the checker's verdict on the lemma conclusion <- premises at that line
        rule = Rule("lemma", tuple(patterns[1:]), patterns[0])
        hyps = tuple(grounds[1:])
        lines = (*(ProofLine(h, HypRef(i)) for i, h in enumerate(hyps, 1)),
                 ProofLine(grounds[0], LemmaRef("lemma", tuple(range(1, len(hyps) + 1)))))
        report = check_proof(ProofScript(SQL, hyps, lines), {"lemma": rule})
        assert report.accepted is (want is not None)
        if want is None:
            assert report.failure_reason == "NoMatchingLemmaInstance: lemma"

    def test_metavariable_names_never_enter_the_source(self, monkeypatch):
        sources = []
        monkeypatch.setattr(syntax, "exec", lambda source, namespace: sources.append(source)
                            or exec(source, namespace), raising=False)
        odd, evil = Var("p q"), Var("x); import os; (")
        pattern = Impl(Impl(odd, evil), Neg(Impl(odd, Const1())))
        a, b = parse("a -> b", Sig.W), Neg(Var("c"))
        ground = Impl(Impl(a, b), Neg(Impl(a, Const1())))
        assert match_schema(pattern, ground) == {"p q": a, "x); import os; (": b}
        assert match_schema(pattern, ground, {"p q": b}) is None
        assert match_schema(Impl(evil, evil), Impl(a, b)) is None
        assert match_schema(evil, a, {"x); import os; (": a}) == {"x); import os; (": a}
        allowed = {"def", "match", "if", "type", "is", "not", "or", "return", "None",
                   "left", "right", "arg", *(c.__name__ for c in syntax._NODES)}
        assert sources
        for source in sources:
            names = set(re.findall(r"[A-Za-z_]\w*", source))
            assert all(n in allowed or re.fullmatch(r"[gn]\d+", n) for n in names), source

    def test_an_entry_lives_as_long_as_its_patterns(self, monkeypatch):
        monkeypatch.setattr(syntax, "_MATCHERS", {})
        conclusion, premise = parse("m_a -> m_b", Sig.W), Neg(Var("m_c"))
        match = syntax.matcher((conclusion, premise))
        assert syntax.matcher((conclusion, premise)) is match
        one = Const1()
        assert match_schema(premise, Neg(one)) == {"m_c": one}
        assert len(syntax._MATCHERS) == 2
        del conclusion
        gc.collect()
        assert list(syntax._MATCHERS) == [(id(premise),)]
        del premise
        gc.collect()
        assert syntax._MATCHERS == {}
        assert match(Impl(one, one), Neg(one)) == (one, one, one)  # the function outlives them


class TestPaths:
    def test_round_trip(self):
        t = parse("~(p -> q) -> 1", Sig.W)
        assert t.left.arg.right == q
        assert variables(t) == ("p", "q")


def _constructions(monkeypatch) -> list:
    """The class of each node construction from now on, of a live node or a new one."""
    calls, new = [], Term.__new__
    monkeypatch.setattr(Term, "__new__",
                        staticmethod(lambda cls, *fields: calls.append(cls) or new(cls, *fields)))
    return calls


class TestFold:
    def test_once_per_distinct_node_with_leaves_in_preorder(self):
        t = parse("(p -> q) -> ((p -> q) -> r)", Sig.W)
        seen = []
        assert fold(t, lambda s, kids: seen.append(s) or len(seen), {r: 0}) == 5
        assert seen == [p, q, Impl(p, q), Impl(Impl(p, q), r), t]

    def test_substitute_rebuilds_each_distinct_node_once(self, monkeypatch):
        pattern = parse(nested_join_text(16), Sig.MV)
        assignment = {"x": parse("x (+) 1", Sig.MV), **{f"y{i}": Var(f"z{i}") for i in range(16)}}
        calls = _constructions(monkeypatch)
        substitute(pattern, assignment, Sig.MV)
        built = [c for c in calls if c is not Var]  # the metavariables' own nodes aside
        assert len(built) == sum(1 for s in set(subterms(pattern)) if children(s))

    def test_translations_build_each_distinct_node_once(self, monkeypatch):
        # about 2^16 copies of x as a tree; a rule builds at most two nodes,
        # as OPlus(a, b) -> Impl(Neg(a), b) and Impl(a, b) -> OPlus(UMinus(a), b) do
        t = parse(nested_join_text(16), Sig.MV)
        calls = _constructions(monkeypatch)
        tw = mv_to_w_term(t)
        assert 0 < len(calls) <= 2 * len(set(subterms(t)))
        calls.clear()
        w_to_mv_term(tw)
        assert 0 < len(calls) <= 2 * len(set(subterms(tw)))


def test_term_walks_leave_no_garbage():
    """The term walks keep no reference cycle alive after they return."""
    t = parse("x (+) y", Sig.MV)
    tw = parse("x^+ -> y^-", Sig.W)
    pattern = parse("p (+) q", Sig.MV)
    interval, valuation = resolve("interval"), {"x": Fraction(1, 2), "y": Fraction(-1, 3)}
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            print_term(t)
            substitute(pattern, {"p": t, "q": t}, Sig.MV)
            match_schema(pattern, t)
            expand_abbreviations(tw, Sig.W)
            mv_to_w_term(t)
            w_to_mv_term(tw)
            evaluate(t, interval, valuation)
            syntax.joined(fold(t, cli._ast, {}))
            cli._ast_text(t)
            repr(t)
            models.compile((t,), Sig.MV)
            count_connective(t, OPlus)
            variables(t)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _tree(t, kids):
    """The parse tree as nested dicts, which ``parse --json`` writes."""
    node = {"node": type(t).__name__}
    if isinstance(t, Var):
        node["name"] = t.name
    elif kids:
        node["children"] = list(kids)
    return node


def _tree_text(node, indent=0):
    """Reference text of a parse tree: the recursive walk."""
    lines = ["  " * indent + node["node"] + (f" {node['name']}" if "name" in node else "")]
    lines += [_tree_text(c, indent + 1) for c in node.get("children", ())]
    return "\n".join(lines)


def _repr(t):
    """Reference ``repr``: the recursive dataclass form."""
    fields = ", ".join(f"{f}={_repr(v) if isinstance(v, Term) else repr(v)}" for f in t._fields
                       for v in [getattr(t, f)])
    return f"{type(t).__name__}({fields})"


@pytest.mark.parametrize("sig", list(Sig))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_parse_tree_and_repr_are_the_recursive_forms(sig, data):
    t = data.draw(random_terms(sig))
    tree = fold(t, _tree, {})
    assert syntax.joined(fold(t, cli._ast, {})) == json.dumps(tree, sort_keys=True)
    assert cli._ast_text(t) == _tree_text(tree)
    assert repr(t) == _repr(t)


def _preorder(t):
    """Reference preorder: the recursive walk."""
    yield t
    for c in children(t):
        yield from _preorder(c)


class TestWalks:
    def test_subterms_is_the_recursive_preorder(self, rng):
        for sig in Sig:
            for _ in range(300):
                t = random_term(rng, sig, 6)
                assert [id(s) for s in subterms(t)] == [id(s) for s in _preorder(t)]

    def test_walks_handle_deep_terms(self):
        # 3000 nested negations, three times the default recursion limit
        t = p
        for _ in range(3000):
            t = Neg(t)
        assert variables(t) == ("p",)
        assert count_connective(t, "neg") == 3000
        check_signature(t, Sig.W)
        with pytest.raises(SignatureError, match="^connective Neg is not part of the MV-STAR"):
            check_signature(t, Sig.MV)
        # the folds: an even number of negations is the identity on chain:2
        assert evaluate(t, resolve("chain:2@w"), {"p": Fraction(-1, 2)}) == Fraction(-1, 2)
        image = want = Impl(q, r)
        for _ in range(3000):
            want = Neg(want)
        assert substitute(t, {"p": image}) is want
        assert mv_to_w_term(w_to_mv_term(t)) is t
        text = print_term(t)
        assert text == "~" * 3000 + "p" and parse(text, Sig.W) is t
        assert repr(t) == "Neg(arg=" * 3000 + "Var(name='p')" + ")" * 3000
        # the parts of a 3000-deep chain expand into two binary nodes each
        t = p
        for _ in range(3000):
            t = PosPart(t)
        for sig, cls in ((Sig.W, Impl), (Sig.MV, OPlus)):
            out = expand_abbreviations(t, sig)
            assert count_connective(out, PosPart) == count_connective(out, NegPart) == 0
            assert count_connective(out, cls) == 6000 and variables(out) == ("p",)
        # the foreign connective at the bottom of the chain is found
        t = UMinus(q)
        for _ in range(3000):
            t = PosPart(t)
        with pytest.raises(SignatureError, match="^connective UMinus is not part of the W-STAR"):
            check_signature(t, Sig.W)

    @staticmethod
    def count_visits(monkeypatch) -> dict:
        """Each node's calls of ``syntax.children`` from here on, by identity."""
        visits: dict[int, int] = {}

        def counted(t, _children=syntax.children):
            visits[id(t)] = visits.get(id(t), 0) + 1
            return _children(t)

        monkeypatch.setattr(syntax, "children", counted)
        return visits

    def test_walks_agree_with_the_occurrence_walk(self, rng):
        # counts with multiplicity, variables in first-occurrence order, and
        # the first foreign node in preorder, on shared and random terms
        terms = [parse(nested_join_text(d), Sig.MV) for d in range(1, 9)]
        terms += [random_term(rng, sig, 6) for sig in Sig for _ in range(100)]
        for t in terms:
            occurrences = list(subterms(t))
            assert variables(t) == tuple(dict.fromkeys(
                s.name for s in occurrences if type(s) is Var))
            for cls in (OPlus, Impl, UMinus, Neg, PosPart, NegPart, Var, Const1):
                assert count_connective(t, cls) == sum(isinstance(s, cls) for s in occurrences)
            for sig in Sig:
                foreign = [s for s in occurrences if s.sig not in (None, sig)]
                if foreign:
                    with pytest.raises(SignatureError, match=f"connective {type(foreign[0]).__name__} "):
                        check_signature(t, sig)
                else:
                    check_signature(t, sig)

    def test_walks_visit_each_distinct_node_once(self, monkeypatch):
        # a 24-deep nested join holds about 2^24 occurrences of x as a tree
        # and a few hundred distinct nodes; a foreign ~ sits at the bottom
        t = parse(nested_join_text(24), Sig.MV)
        bad = substitute(t, {**{n: Var(n) for n in variables(t)}, "x": Neg(Var("x"))})
        fold(bad, lambda s, kids: None, nodes := {})
        distinct = len(nodes)
        assert distinct < 1000
        for call in (lambda: count_connective(t, OPlus), lambda: variables(t),
                     lambda: check_signature(bad, Sig.MV)):
            visits = self.count_visits(monkeypatch)
            try:
                call()
            except SignatureError as exc:
                assert str(exc) == "connective Neg is not part of the MV-STAR language"
            monkeypatch.undo()
            assert visits and max(visits.values()) == 1 and len(visits) <= distinct
        # expansion applies its rules once per distinct node
        applied = []

        def counted(rules, s, kids, _apply=syntax._apply):
            applied.append(id(s))
            return _apply(rules, s, kids)

        monkeypatch.setattr(syntax, "_apply", counted)
        expanded = expand_abbreviations(t, Sig.MV)
        monkeypatch.undo()
        assert applied and len(set(applied)) == len(applied) <= distinct
        assert count_connective(expanded, PosPart) == count_connective(expanded, NegPart) == 0
        # printing a 12-deep join, about 2^12 copies of x as text, reads each node once
        small = parse(nested_join_text(12), Sig.MV)
        fold(small, lambda s, kids: None, nodes := {})
        visits = self.count_visits(monkeypatch)
        text = print_term(small)
        monkeypatch.undo()
        assert visits and max(visits.values()) == 1 and len(visits) <= len(nodes)
        assert parse(text, Sig.MV) is small
        assert variables(t) == (*(f"y{i}" for i in range(23, -1, -1)), "x")
        # each join holds five (+) of its own and its right operand twice
        assert count_connective(t, OPlus) == 5 * (2**24 - 1)

    def test_deep_patterns_match_and_long_texts_parse(self):
        # a schema three times the default recursion limit deep matches; a
        # 20000-operand sum and a 20000-long prefix run each parse within a second
        x = Var("x")
        pattern, ground = p, x
        for _ in range(3000):
            pattern, ground = Neg(pattern), Neg(ground)
        assert match_schema(pattern, ground) == {"p": x}
        for text, sig, cls, count in ((" (+) ".join(["x"] * 20000), Sig.MV, OPlus, 19999),
                                      ("~" * 20000 + "x", Sig.W, Neg, 20000)):
            start = time.perf_counter()
            t = parse(text, sig)
            assert time.perf_counter() - start < 1
            assert count_connective(t, cls) == count

    def test_parse_verb_prints_a_deep_tree(self, capsys):
        # the text tree is rendered from the --json dict; building that dict
        # must not fail sooner than the text walk
        from sqmv.cli import main

        assert main(["parse", "--", "-" * 800 + "x"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 801 and out[-1] == "  " * 800 + "Var x"


class TestGroupMemo:
    """Calls of ``parse`` that share a memo read each parenthesised group once."""

    def test_a_stored_group_is_not_read_again(self):
        # the key is the group's tokens reversed, from its ")" to just after its "("
        memo = {(")", "q", "->", "p"): Neg(r)}
        assert parse("( p->q )  -> r", Sig.W, memo) is Impl(Neg(r), r)
        assert parse("(p -> q) -> r", Sig.W) is Impl(Impl(p, q), r)

    def test_the_memo_holds_each_group_read(self):
        memo = {}
        t = parse("((p -> q) -> r) -> ~(p -> q)", Sig.W, memo)
        assert t is parse("((p -> q) -> r) -> ~(p -> q)", Sig.W)
        assert memo == {(")", "q", "->", "p"): Impl(p, q),
                        (")", "r", "->", ")", "q", "->", "p", "("): Impl(Impl(p, q), r)}
        assert parse("~(p -> q) -> ((p -> q) -> r)", Sig.W, memo) is Impl(Neg(Impl(p, q)), t.left)
        assert len(memo) == 2

    @pytest.mark.parametrize("text, message", [
        ("(p -> q q) -> r", "expected 'rpar', found 'q' (at column 9)"),
        ("(p <-> q) -> r", "expected 'rpar', found '<->' (at column 4)"),
        ("(p -> q", "expected 'rpar', found '' (at column 8)"),
    ])
    def test_errors_are_not_stored(self, text, message):
        memo = {}
        for _ in range(2):
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                parse(text, Sig.W, memo)
        assert memo == {}


class TestInterning:
    """Equal terms are one node: ``==`` is ``is``, and nodes never change."""

    def test_equal_terms_are_one_node(self):
        assert Var("p") is Var("p") and Const1() is Const1()
        built = Impl(Neg(Var("p")), PosPart(Const1()))
        assert parse("~p -> 1^+", Sig.W) is built
        assert substitute(Impl(q, r), {"q": Neg(p), "r": PosPart(Const1())}) is built
        assert Impl(Var("p"), Var("q")) is not Impl(Var("q"), Var("p"))
        assert OPlus(p, q) is not Impl(p, q)

    @given(_ws)
    @settings(max_examples=300)
    def test_parse_of_print_is_the_node(self, t):
        assert parse(print_term(t), Sig.W) is t

    def test_rebuilders_return_the_node_when_nothing_changes(self):
        rng = random.Random(5)
        for _ in range(300):
            sig = rng.choice((Sig.MV, Sig.W))
            t = random_term(rng, sig, 5, allow_parts=False)
            assert expand_abbreviations(t, sig) is t
            assert substitute(t, {n: Var(n) for n in variables(t)}, sig) is t
        common = parse("x^+^-", Sig.W)  # connectives of both languages only
        assert mv_to_w_term(common) is common and w_to_mv_term(common) is common
        t = parse("p^+ -> q", Sig.W)
        assert expand_abbreviations(t, Sig.W).right is q

    @pytest.mark.parametrize("node, field", [
        (Var("p"), "name"), (Impl(p, q), "left"), (OPlus(p, q), "right"),
        (Neg(p), "arg"), (Const0(), "extra"),
    ])
    def test_nodes_are_immutable(self, node, field):
        with pytest.raises(AttributeError):
            setattr(node, field, Var("z"))
        assert node is type(node)(*[getattr(node, f) for f in type(node)._fields])

    def test_copies_and_pickles_are_the_node(self):
        t = parse("~(p -> 1^+) -> (q -> p)", Sig.W)
        u = parse("-(x (+) 0) (+) y^-", Sig.MV)
        for s in (t, u, p, Const0()):
            assert copy.copy(s) is s
            assert copy.deepcopy(s) is s
            assert pickle.loads(pickle.dumps(s)) is s

    def test_repr_is_the_dataclass_form(self):
        assert repr(Impl(p, q)) == "Impl(left=Var(name='p'), right=Var(name='q'))"
        assert repr(UMinus(PosPart(Const0()))) == "UMinus(arg=PosPart(arg=Const0()))"
        assert repr(OPlus(Const1(), NegPart(r))) == (
            "OPlus(left=Const1(), right=NegPart(arg=Var(name='r')))")

    def test_deep_terms_compare_and_hash_without_recursion(self):
        def chain():
            t = p
            for _ in range(10_000):
                t = UMinus(t)
            return t

        a, b = chain(), chain()
        assert a is b and a == b and hash(a) == hash(b)
        assert a != UMinus(a) and len({a, b, UMinus(a)}) == 2

    def test_dead_nodes_leave_the_table(self):
        gc.collect()
        before = len(syntax._TABLE)
        terms = [random_term(random.Random(i), Sig.W, 6, var_names=("fresh",)) for i in range(200)]
        assert len(syntax._TABLE) > before
        del terms
        gc.collect()
        assert len(syntax._TABLE) == before

    @staticmethod
    def _dead_ref(key):
        """A table reference whose referent has died, as a node's does before
        its death callback has run."""
        class Stand:
            pass

        stand = Stand()
        ref = syntax._Ref(stand)
        ref.key = key
        del stand
        assert ref() is None
        return ref

    def test_death_callback_leaves_a_live_successor_in_place(self):
        key = (Var, "successor")
        dead = self._dead_ref(key)
        node = Var("successor")
        dead.drop()  # the late callback of the key's previous node
        assert syntax._TABLE[key]() is node and Var("successor") is node

    def test_death_callback_removes_its_own_dead_entry(self):
        key = (Var, "departed")
        syntax._TABLE[key] = dead = self._dead_ref(key)
        dead.drop()
        assert key not in syntax._TABLE

    def test_a_dead_entry_is_replaced_by_a_new_node(self):
        key = (Var, "reborn")
        syntax._TABLE[key] = self._dead_ref(key)
        node = Var("reborn")
        assert syntax._TABLE[key]() is node and Var("reborn") is node

    @pytest.mark.parametrize("sig, first", [(Sig.MV, "Impl"), (Sig.W, "OPlus")])
    def test_mixed_term_names_the_first_offender(self, sig, first):
        t = OPlus(PosPart(Impl(p, Neg(q))), UMinus(Impl(r, p)))
        message = f"^connective {first} is not part of the {sig.value.upper()}-STAR language$"
        for call in (lambda: check_signature(t, sig), lambda: expand_abbreviations(t, sig),
                     lambda: substitute(p, {"p": t}, sig), lambda: models.compile((t,), sig)):
            with pytest.raises(SignatureError, match=message):
                call()

    def test_threads_building_the_same_terms_get_one_node_each(self):
        threads, size = 4, 2000
        start, built = threading.Barrier(threads), [None] * threads

        def build(i):
            rng = random.Random(13)
            start.wait()
            built[i] = [random_term(rng, rng.choice((Sig.MV, Sig.W)), 7,
                                    var_names=("t1", "t2", "t3")) for _ in range(size)]

        workers = [threading.Thread(target=build, args=(i,)) for i in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the table's miss path too
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert all(len(b) == size for b in built)
        for terms in built[1:]:
            assert all(a is b for a, b in zip(built[0], terms))
