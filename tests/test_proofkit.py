import pathlib
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_terms

from sqmv.models import FINITE_CATALOG, resolve
from sqmv.semantics import Exhaustive, RandomSampling, check_entailment, designated_set, evaluate
from sqmv.proofkit import (
    CertificationFailed,
    NotRegular,
    PathMismatch,
    Registry,
    ScriptError,
    SourceProofInvalid,
    UnknownAxiom,
    check_proof,
    deregularize_proof,
    format_script,
    instantiate_axiom,
    lift_lstar_proof,
    parse_script,
    replacement_proof,
    standard_registry,
)
from sqmv.proofkit import script as script_mod
from sqmv.proofkit.registry import packaged_certificates
from sqmv.proofkit.script import AxiomRef, HypRef, LemmaRef, ProofLine, ProofScript, RuleRef
from sqmv.proofkit.systems import AXIOMS, L_TO_SQ_AXIOM, LSTAR, RULES, SQL
from sqmv.syntax import (
    FormulaError,
    Impl,
    Neg,
    NegPart,
    PosPart,
    Sig,
    Var,
    children,
    expand_abbreviations,
    is_regular,
    parse,
    print_term,
    rebuild,
    substitute,
    variables,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "sqmv" / "fixtures"


def w(text):
    return parse(text, Sig.W)


def load(relpath: str) -> ProofScript:
    return parse_script((FIXTURES / relpath).read_text())


def test_packaged_fixtures_match_the_generator():
    """``tools/gen_fixtures.py`` rebuilds every packaged script byte for byte."""
    sys.path.insert(0, str(FIXTURES.parents[2] / "tools"))
    import gen_fixtures

    for sub, texts, count in (("derived", gen_fixtures.derived_texts(), 16),
                              ("lstar", gen_fixtures.lstar_texts(), 26)):
        packaged = {f.name: f.read_text(encoding="utf-8") for f in (FIXTURES / sub).iterdir()}
        assert len(packaged) == count
        assert packaged == texts, sub


class TestInstantiation:
    def test_single_direction_axiom(self):
        out = instantiate_axiom("sqL*", "Q10", {"p": w("q -> q")})
        assert out == (w("(q -> q) -> 1"),)

    def test_biconditional_expands_to_both(self):
        out = instantiate_axiom("sqL*", "Q3", {"p": Var("x"), "q": Var("y")})
        assert out == (w("x -> ((y -> y) -> x)"), w("((y -> y) -> x) -> x"))

    def test_negated_pair(self):
        out = instantiate_axiom("sqL*", "Q5", {"p": Var("x"), "q": Var("y")})
        assert out == (w("~(x -> y) -> (y -> x)"), w("(y -> x) -> ~(x -> y)"))

    def test_parts_are_core_expanded(self):
        fwd, _ = instantiate_axiom("sqL*", "Q4", {"p": Var("x"), "q": Var("y")})
        assert "^" not in format(fwd)

    def test_unknown_axiom(self):
        with pytest.raises(UnknownAxiom):
            instantiate_axiom("sqL*", "Q11", {})

    def test_missing_binding(self):
        from sqmv.syntax import MissingBinding

        with pytest.raises(MissingBinding):
            instantiate_axiom("sqL*", "Q3", {"p": Var("x")})


class TestScriptFormat:
    def test_round_trip(self):
        text = load("derived/03_chain.sqlp")
        again = parse_script(format_script(text))
        assert again.hypotheses == text.hypotheses
        assert [l.formula for l in again.lines] == [l.formula for l in text.lines]

    def test_bad_numbering(self):
        with pytest.raises(ScriptError):
            parse_script("system: sqL*\n2. p -> p ; LEM refl\n")

    def test_missing_header(self):
        with pytest.raises(ScriptError):
            parse_script("1. p -> p ; LEM refl\n")

    def test_unknown_system(self):
        with pytest.raises(ScriptError):
            parse_script("system: HA\n1. p ; HYP 1\n")

    def test_bad_formula_names_its_line(self):
        with pytest.raises(ScriptError, match=r"^line 2: expected a formula"):
            parse_script("system: sqL*\n1. p -> ( ; AX Q10\n")

    @pytest.mark.parametrize("text, message", [
        ("system: sqL*\n1. p ; RULE MP " + "1" * 4301 + "\n", "line 2: bad premise list "),
        ("system: sqL*\n1. p ; AX Q1 1\n", "line 2: axiom lines take no premises"),
        ("system: sqL*\n1. p ; HYP 1 2\n", "line 2: hypothesis lines take no premises"),
        ("system: sqL*\n1. p ; HYP one\n", "line 2: bad hypothesis index 'one'"),
        ("system: sqL*\nsystem: sqL*\n", "line 2: duplicate system header"),
        ("system: sqL*\n1. p ; AX Q1\nhyp: p\n", "line 3: hypotheses must precede proof lines"),
        ("# no header\n", "missing system header"),
        ("system: sqL*\nhyp: p\n", "proof script has no lines"),
    ], ids=["premise-digits", "axiom-premises", "hyp-premises", "hyp-index", "two-headers",
            "late-hyp", "no-header", "no-lines"])
    def test_reader_rejections(self, text, message):
        with pytest.raises(ScriptError, match=f"^{re.escape(message)}"):
            parse_script(text)

    def test_empty_script_has_no_conclusion(self):
        with pytest.raises(ScriptError, match="^empty proof script$"):
            ProofScript(SQL, (), ()).conclusion

    def test_programming_error_is_not_a_script_error(self, monkeypatch):
        import sqmv.proofkit.script as script_mod

        def broken(text, sig, memo):
            raise TypeError("broken parser")

        monkeypatch.setattr(script_mod, "parse", broken)
        with pytest.raises(TypeError, match="broken parser"):
            parse_script("system: sqL*\n1. p -> 1 ; AX Q10\n")

    def test_comments_and_blanks_ignored(self):
        s = parse_script("system: L*\n\n# a remark\n1. p -> 1 ; AX P4\n")
        assert len(s.lines) == 1


# The plain lazy proof-line pattern, the reference: ``_LINE_RE`` must read
# every line into the same groups.
_LAZY_LINE = re.compile(r"^(\d+)\.\s*(.+?)\s*;\s*(.+)$")
_LINE_EDGES = ["1. ; AX Q1", "1.; AX Q1", "1.   ;  ; AX Q1", "1. ;p; AX Q1", "1. p ;",
               "1. p -> q ; RULE MP 1;2", "1. p ; ; AX Q1", "1. p -> q   ;   AX Q1",
               "1.\tp\t;\tAX Q1", "1. (p -> q) ; AX Q1 ;", "1. p q ; AX Q1"]


def _script(*lines: str) -> str:
    return "system: sqL*\n" + "".join(f"{i}. {t} ; AX Q1\n" for i, t in enumerate(lines, 1))


def _alone(text: str, lineno: int):
    """What ``parse_script`` must give for a proof line read without a memo:
    its node, or the text of its error."""
    try:
        return expand_abbreviations(parse(text, Sig.W), Sig.W)
    except FormulaError as exc:
        return f"line {lineno}: {exc}"


@st.composite
def _reusing_scripts(draw):
    """Formulas that each build on earlier ones, as derivation steps do, and a
    last one perturbed: an unbalanced "(", an extra ")", a stray character
    or token after a group, or "<->" inside a group."""
    terms = random_terms(Sig.W)
    formulas = [draw(terms)]
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(st.sampled_from(formulas)), draw(st.one_of(st.sampled_from(formulas), terms))
        formulas.append(draw(st.sampled_from([Impl(a, b), Impl(Impl(b, a), a), Neg(a), PosPart(a)])))
    texts = [print_term(t) for t in formulas]
    a, b = draw(st.sampled_from(texts)), draw(st.sampled_from(texts))
    last = draw(st.sampled_from([
        f"({a}) -> {b}", f"(({a}) -> {b}", f"({a}) -> {b})", f"({a}) $ -> {b}",
        f"({a}) x -> {b}", f"({a} <-> {b}) -> {a}", f"{b} -> ({a})"]))
    return [*texts, last]


class TestScriptLines:
    @pytest.mark.parametrize("line", _LINE_EDGES)
    def test_edge_lines_read_as_the_lazy_pattern_reads_them(self, line):
        m, lazy = script_mod._LINE_RE.match(line), _LAZY_LINE.match(line)
        assert (m and (m[1], m[2] or m[3], m[4])) == (lazy and lazy.groups())

    @given(st.lists(st.sampled_from(["1", ".", ";", " ", "\t", "\x1c", "p", "->", "(", "AX"]),
                    max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_every_line_reads_as_the_lazy_pattern_reads_it(self, pieces):
        line = ("1." + "".join(pieces)).strip()
        m, lazy = script_mod._LINE_RE.match(line), _LAZY_LINE.match(line)
        assert (m and (m[1], m[2] or m[3], m[4])) == (lazy and lazy.groups())

    @pytest.mark.parametrize("line, message", [
        ("1. ; AX Q1", "expected a formula, found '' (at column 2)"),
        ("1.; AX Q1", "cannot parse proof line '1.; AX Q1'"),
        ("1.   ;  ; AX Q1", "unexpected character ';' (at column 1)"),
        ("1. ;p; AX Q1", "unexpected character ';' (at column 1)"),
        ("1. p ;", "cannot parse proof line '1. p ;'"),
        ("1. p -> q ; RULE MP 1;2", "cannot parse justification 'RULE MP 1;2'"),
        ("1. p ; ; AX Q1", "cannot parse justification '; AX Q1'"),
        ("1. (p -> q) ; AX Q1 ;", "cannot parse justification 'AX Q1 ;'"),
        ("1. p q ; AX Q1", "expected 'eof', found 'q' (at column 3)"),
    ])
    def test_edge_line_errors(self, line, message):
        with pytest.raises(ScriptError, match=f"^{re.escape('line 2: ' + message)}$"):
            parse_script(f"system: sqL*\n{line}   \n")

    @pytest.mark.parametrize("line", ["1. p -> q   ;   AX Q1", "1.\tp -> q\t;\tAX Q1  "])
    def test_blanks_around_the_formula_are_not_part_of_it(self, line):
        (proof_line,) = parse_script(f"system: sqL*\n{line}\n").lines
        assert (proof_line.text, proof_line.just) == ("p -> q", AxiomRef("Q1"))

    @given(_reusing_scripts())
    @settings(max_examples=120, deadline=None)
    def test_shared_groups_give_what_each_line_gives_alone(self, texts):
        wants = [_alone(t, i) for i, t in enumerate(texts, 2)]
        errors = [w for w in wants if isinstance(w, str)]
        if errors:
            with pytest.raises(ScriptError, match=f"^{re.escape(errors[0])}$"):
                parse_script(_script(*texts))
        else:
            assert all(line.formula is want
                       for line, want in zip(parse_script(_script(*texts)).lines, wants, strict=True))

    def test_each_call_has_its_own_memo(self, monkeypatch):
        memos, calls = [], []

        def spy(text, sig, memo):
            calls.append(memo is memos[-1] if memos else False)
            if not calls[-1]:
                memos.append(memo)
            return parse(text, sig, memo)

        monkeypatch.setattr(script_mod, "parse", spy)
        text = "system: sqL*\nhyp: (p -> q) -> p\n1. (p -> q) -> q ; AX Q1\n2. ~(p -> q) ; AX Q1\n"
        parse_script(text)
        first = dict(memos[0])
        parse_script(text)
        # one memo per call, shared by its three formulas and dropped when it returns
        assert calls == [False, True, True] * 2 and len(memos) == 2
        assert first == {(")", "q", "->", "p"): Impl(Var("p"), Var("q"))}
        assert memos[0] == memos[1] == first
        refs = list(map(sys.getrefcount, memos))
        assert refs == [2, 2]  # ``memos`` and the argument: nothing else keeps a memo


class TestChecker:
    @pytest.mark.parametrize("index", [0, 2])
    def test_no_such_hypothesis(self, index):
        s = parse_script(f"system: sqL*\nhyp: p\n1. p ; HYP {index}\n")
        report = check_proof(s)
        assert (report.accepted, report.failure_line) == (False, 1)
        assert report.failure_reason == f"NoSuchHypothesis: {index}"

    def test_long_join_hypothesis_accepts(self):
        # a 300-operand left-nested join is about 1500 levels deep, and more once expanded
        chain = " \\/ ".join(f"p{i}" for i in range(300))
        s = parse_script(f"system: sqL*\nhyp: {chain}\n1. {chain} ; HYP 1\n")
        assert check_proof(s).summary() == "ACCEPT (1 lines)"

    def test_lstar_one_liner(self):
        s = parse_script("system: L*\n1. p -> 1 ; AX P4\n")
        assert check_proof(s).accepted

    def test_axiom_direction_recorded(self):
        s = parse_script("system: sqL*\n1. ((q -> q) -> p) -> p ; AX Q3\n")
        report = check_proof(s)
        assert report.accepted
        assert report.checks[0].detail == "Q3 RL"

    def test_refl_fixture_accepts(self):
        report = check_proof(load("derived/05_refl.sqlp"), standard_registry())
        assert report.accepted
        assert len(report.checks) == 4

    def test_wrong_axiom_name_rejects_at_line(self):
        text = (FIXTURES / "derived/05_refl.sqlp").read_text()
        mutated = text.replace("2. ((q -> q) -> (p -> p)) -> (p -> p) ; AX Q3",
                               "2. ((q -> q) -> (p -> p)) -> (p -> p) ; AX Q2")
        assert mutated != text
        report = check_proof(parse_script(mutated), standard_registry())
        assert not report.accepted
        assert report.failure_line == 2
        assert "NoMatchingAxiomInstance" in report.failure_reason

    def test_forward_premise_reference_rejected(self):
        s = parse_script(
            "system: sqL*\n"
            "1. (r -> r) -> (p -> p) ; RULE Reg 2\n"
            "2. p -> p ; LEM refl\n"
        )
        report = check_proof(s, standard_registry())
        assert not report.accepted
        assert "BadPremiseIndex" in report.failure_reason

    def test_shared_prefix_enforced(self):
        # qMP premises with different r -> r prefixes must not match
        s = parse_script(
            "system: sqL*\n"
            "hyp: (r -> r) -> p\n"
            "hyp: (q -> q) -> (p -> p)\n"
            "1. (r -> r) -> p ; HYP 1\n"
            "2. (q -> q) -> (p -> p) ; HYP 2\n"
            "3. (r -> r) -> p ; RULE qMP 1,2\n"
        )
        report = check_proof(s, standard_registry())
        assert not report.accepted
        assert report.failure_line == 3

    def test_hypothesis_mismatch(self):
        s = parse_script("system: sqL*\nhyp: p -> q\n1. q -> p ; HYP 1\n")
        report = check_proof(s)
        assert not report.accepted and "HypothesisMismatch" in report.failure_reason

    def test_lemma_requires_registry(self):
        s = parse_script("system: sqL*\n1. p -> p ; LEM refl\n")
        assert not check_proof(s).accepted
        assert check_proof(s, standard_registry()).accepted

    def test_lemmas_not_available_in_lstar(self):
        s = parse_script("system: L*\n1. p -> p ; LEM refl\n")
        report = check_proof(s, standard_registry())
        assert not report.accepted

    @pytest.mark.parametrize("text, registry, line, reason", [
        ("1. p -> 1 ; AX Q10\n2. p -> 1 ; RULE MP 1\n", True, 2, "UnknownRule: MP"),
        ("1. p -> p ; LEM nosuch\n", True, 1, "UnknownLemma: nosuch"),
        ("1. p -> p ; LEM refl\n", False, 1, "UnknownLemma: refl"),
        ("1. p -> 1 ; AX Q10\n2. (r -> r) -> (p -> 1) ; RULE Reg 1,1\n", True, 2,
         "ArityMismatch: Reg takes 1 premises"),
        ("1. p -> 1 ; AX Q10\n2. p -> p ; LEM refl 1\n", True, 2,
         "ArityMismatch: refl takes 0 premises"),
        ("1. p -> 1 ; AX Q10\n2. p -> 1 ; RULE Reg 1\n", True, 2,
         "NoMatchingRuleInstance: Reg"),
        ("1. p -> q ; LEM refl\n", True, 1, "NoMatchingLemmaInstance: refl"),
        ("system: L*\n1. p -> 1 ; AX P4\n2. p -> p ; LEM refl\n", True, 2,
         "LemmasRequireRegistry: derived rules live in sqL*"),
        ("1. (r -> r) -> (p -> p) ; RULE Reg 2\n2. p -> p ; LEM refl\n", True, 1,
         "BadPremiseIndex: 2"),
        ("1. p -> 1 ; AX Q10\n2. ~q -> ~p ; LEM contra 2\n", True, 2,
         "BadPremiseIndex: 2"),
    ])
    def test_application_rejection_reasons(self, text, registry, line, reason):
        if not text.startswith("system:"):
            text = "system: sqL*\n" + text
        report = check_proof(parse_script(text), standard_registry() if registry else None)
        assert (report.failure_line, report.failure_reason) == (line, reason)

    def test_unknown_axiom_rejects_at_its_line(self):
        report = check_proof(parse_script("system: sqL*\n1. p -> 1 ; AX Q99\n"))
        assert not report.accepted
        assert (report.failure_line, report.failure_reason) == (1, "UnknownAxiom: Q99")

    def test_unknown_justification_rejects_at_its_line(self):
        # a justification without premises that is no AX, HYP, RULE or LEM
        # object is a verdict, not an AttributeError
        f = w("p -> 1")
        s = ProofScript(SQL, (), (ProofLine(f, AxiomRef("Q10")), ProofLine(f, "AX Q10")))
        report = check_proof(s, standard_registry())
        assert not report.accepted
        assert (report.failure_line, report.failure_reason) == (
            2, "UnknownJustification: 'AX Q10'")

    def test_lstar_axioms_are_the_sqlstar_schemas(self):
        assert list(AXIOMS[LSTAR]) == [f"P{i}" for i in range(1, 11)]
        for p, q in L_TO_SQ_AXIOM.items():
            assert AXIOMS[LSTAR][p] is AXIOMS[SQL][q]


class TestRegistry:
    def test_standard_registry_order(self):
        reg = standard_registry()
        assert reg.ids() == (
            "contra", "imp-cong", "chain", "negdist-i", "negdist-e", "refl",
            "replace-demo", "ident-eq", "dne-i", "dne-e", "swap-neg",
            "posneg-i", "posneg-e", "negpos-i", "negpos-e", "join-comm",
        )

    def test_all_certificates_accept_in_order(self):
        reg = Registry()
        for rule_id, text in packaged_certificates():
            reg.register(rule_id, parse_script(text))
        assert len(reg.ids()) == 16

    def test_out_of_order_registration_fails(self):
        certs = dict(packaged_certificates())
        reg = Registry()
        with pytest.raises(CertificationFailed):
            reg.register("refl", parse_script(certs["refl"]))  # cites chain

    @pytest.mark.parametrize("rule_id, text, message", [
        ("contra", None, "lemma id 'contra' is already registered"),
        ("mp", "system: L*\n1. p -> 1 ; AX P4\n", "derived rules must be certified in sqL*"),
    ], ids=["duplicate", "lstar"])
    def test_rejection_messages(self, rule_id, text, message):
        certs = dict(packaged_certificates())
        reg = Registry()
        reg.register("contra", parse_script(certs["contra"]))
        with pytest.raises(CertificationFailed, match=f"^{re.escape(message)}$"):
            reg.register(rule_id, parse_script(text or certs[rule_id]))

    def test_duplicate_id_rejected(self):
        certs = dict(packaged_certificates())
        reg = Registry()
        reg.register("contra", parse_script(certs["contra"]))
        with pytest.raises(CertificationFailed):
            reg.register("contra", parse_script(certs["contra"]))

    def test_lstar_certificate_rejected(self):
        reg = Registry()
        with pytest.raises(CertificationFailed):
            reg.register("mp", parse_script("system: L*\n1. p -> 1 ; AX P4\n"))

    def test_lemma_over_a_part_does_not_apply_to_the_other_part(self):
        # built in code: parse_script expands the parts away
        p, x = Var("p"), Var("x")
        reg = Registry()
        reg.register("pos", ProofScript(SQL, (PosPart(p),), (ProofLine(PosPart(p), HypRef(1)),)))
        use = ProofScript(SQL, (PosPart(x),), (ProofLine(PosPart(x), HypRef(1)),
                                               ProofLine(NegPart(x), LemmaRef("pos", (1,)))))
        assert check_proof(use, reg).summary() == "REJECT at line 2: NoMatchingLemmaInstance: pos"


def _prefix_interchangeable(rule_name: str, old_f, new_f) -> bool:
    """Premise swaps that are no-ops: the de-regularisation rules accept any
    reflexive prefix, so two premises with equal bodies are interchangeable."""
    if rule_name not in ("AReg1", "AReg2", "AReg3", "AReg4", "R3'"):
        return False

    def body(f):
        if isinstance(f, Impl) and isinstance(f.left, Impl) and f.left.left == f.left.right:
            return f.right
        return None

    return body(old_f) is not None and body(old_f) == body(new_f)


def _mutants(script: ProofScript, rng: random.Random):
    """Single-line justification-name and premise-index mutations."""
    ax_names = list(AXIOMS[script.system])
    rule_names = RULES[script.system]
    lemma_ids = standard_registry().ids()

    def premise_swaps(i, just):
        for slot in range(len(just.premises)):
            for alt in range(1, i + 1):
                if alt == just.premises[slot]:
                    continue
                old_f = script.lines[just.premises[slot] - 1].formula
                new_f = script.lines[alt - 1].formula
                if new_f == old_f:
                    continue  # same formula elsewhere: not a real mutation
                if isinstance(just, RuleRef) and _prefix_interchangeable(
                    just.name, old_f, new_f
                ):
                    continue
                premises = list(just.premises)
                premises[slot] = alt
                yield tuple(premises)

    for i, line in enumerate(script.lines):
        just = line.just
        if isinstance(just, AxiomRef):
            for other in ax_names:
                if other != just.name:
                    yield i, AxiomRef(other)
        elif isinstance(just, RuleRef):
            for other, rule in rule_names.items():
                if other != just.name and len(rule.premises) == len(just.premises):
                    yield i, RuleRef(other, just.premises)
            for premises in premise_swaps(i, just):
                yield i, RuleRef(just.name, premises)
        elif isinstance(just, LemmaRef):
            for other in lemma_ids:
                entry = standard_registry().get(other)
                if other != just.rule_id and len(entry.premises) == len(just.premises):
                    yield i, LemmaRef(other, just.premises)
            for premises in premise_swaps(i, just):
                yield i, LemmaRef(just.rule_id, premises)


class TestMutations:
    def test_all_single_line_mutants_reject(self):
        rng = random.Random(5)
        reg = standard_registry()
        total = 0
        for name in ("derived/01_contra.sqlp", "derived/03_chain.sqlp",
                      "derived/05_refl.sqlp", "derived/07_ident-eq.sqlp",
                      "derived/08a_dne-i.sqlp", "derived/09_swap-neg.sqlp",
                      "derived/10c_negpos-i.sqlp"):
            script = load(name)
            for i, mutated_just in _mutants(script, rng):
                lines = list(script.lines)
                lines[i] = ProofLine(lines[i].formula, mutated_just)
                mutant = ProofScript(script.system, script.hypotheses, tuple(lines))
                report = check_proof(mutant, reg)
                assert not report.accepted, (name, i + 1, mutated_just)
                total += 1
        assert total >= 100


LSTAR_DIR = FIXTURES / "lstar"


class TestLift:
    def test_axiom_one_liner_becomes_two_lines(self):
        src = parse_script("system: L*\n1. p -> 1 ; AX P4\n")
        lifted = lift_lstar_proof(src)
        assert len(lifted.lines) == 2
        assert lifted.lines[0].just == AxiomRef("Q10")
        assert lifted.lines[1].just == RuleRef("Reg", (1,))
        assert lifted.conclusion == w("(p -> p) -> (p -> 1)")
        assert check_proof(lifted, standard_registry()).accepted

    def test_detachment_lifts_through_qmp(self):
        src = load("lstar/rule_r1.sqlp")
        lifted = lift_lstar_proof(src)
        assert check_proof(lifted, standard_registry()).accepted
        justs = [l.just for l in lifted.lines]
        assert RuleRef("qMP", (2, 4)) in justs

    def test_r3_lifts_through_its_prefixed_variant(self):
        src = load("lstar/rule_r3.sqlp")
        lifted = lift_lstar_proof(src)
        assert check_proof(lifted, standard_registry()).accepted
        assert any(isinstance(j := l.just, RuleRef) and j.name == "R3'"
                   for l in lifted.lines)

    def test_whole_corpus_lifts(self):
        reg = standard_registry()
        count = 0
        for path in sorted(LSTAR_DIR.iterdir()):
            src = parse_script(path.read_text())
            lifted = lift_lstar_proof(src)
            report = check_proof(lifted, reg)
            assert report.accepted, (path.name, report.summary())
            assert lifted.conclusion == Impl(w("p -> p"), src.conclusion)
            assert lifted.hypotheses == src.hypotheses
            count += 1
        assert count >= 20

    def test_custom_prefix_variable(self):
        src = parse_script("system: L*\n1. p -> 1 ; AX P4\n")
        lifted = lift_lstar_proof(src, prefix="z")
        assert lifted.conclusion == w("(z -> z) -> (p -> 1)")

    def test_invalid_source_rejected(self):
        bad = parse_script("system: L*\n1. p -> q ; AX P4\n")
        with pytest.raises(SourceProofInvalid):
            lift_lstar_proof(bad)

    def test_sqlstar_source_rejected(self):
        s = parse_script("system: sqL*\n1. p -> 1 ; AX Q10\n")
        with pytest.raises(SourceProofInvalid):
            lift_lstar_proof(s)


class TestDeregularize:
    def test_implication_needs_one_line(self):
        src = lift_lstar_proof(parse_script("system: L*\n1. p -> 1 ; AX P4\n"))
        out = deregularize_proof(src)
        assert len(out.lines) == len(src.lines) + 1
        assert out.lines[-1].just == RuleRef("AReg1", (len(src.lines),))
        assert out.conclusion == w("p -> 1")
        assert check_proof(out, standard_registry()).accepted

    def test_negated_constant_strips_and_pumps(self):
        src = lift_lstar_proof(load("lstar/hyp_neg_one.sqlp"))
        out = deregularize_proof(src)
        assert out.conclusion == w("~~~1")
        assert check_proof(out, standard_registry()).accepted
        rules = [l.just.name for l in out.lines if isinstance(l.just, RuleRef)]
        assert "AReg3" in rules and "Inv1" in rules

    def test_double_negated_implication(self):
        src = lift_lstar_proof(load("lstar/hyp_dneg.sqlp"))
        out = deregularize_proof(src)
        assert out.conclusion == w("~~(p -> 1)")
        assert check_proof(out, standard_registry()).accepted

    def test_whole_corpus_round_trips(self):
        reg = standard_registry()
        done = 0
        for path in sorted(LSTAR_DIR.iterdir()):
            src = parse_script(path.read_text())
            if not is_regular(src.conclusion):
                continue
            out = deregularize_proof(lift_lstar_proof(src), reg)
            assert out.conclusion == src.conclusion
            assert check_proof(out, reg).accepted, path.name
            done += 1
        assert done >= 20

    def test_non_regular_conclusion_refused(self):
        src = lift_lstar_proof(load("lstar/hyp_mp.sqlp"))
        with pytest.raises(NotRegular):
            deregularize_proof(src)

    @pytest.mark.parametrize("text, message", [
        ("system: L*\n1. p -> 1 ; AX P4\n", "the source script is not an sqL* proof"),
        ("system: sqL*\n1. p -> q ; AX Q10\n",
         "source does not check: REJECT at line 1: NoMatchingAxiomInstance: Q10"),
    ], ids=["lstar", "unchecked"])
    def test_rejected_sources(self, text, message):
        with pytest.raises(SourceProofInvalid, match=f"^{re.escape(message)}$"):
            deregularize_proof(parse_script(text))

    def test_unprefixed_source_refused(self):
        s = parse_script("system: sqL*\n1. p -> 1 ; AX Q10\n")
        with pytest.raises(SourceProofInvalid):
            deregularize_proof(s)


def _hyp_equiv(lhs, rhs):
    return ProofScript(
        "sqL*",
        (Impl(lhs, rhs), Impl(rhs, lhs)),
        (ProofLine(Impl(lhs, rhs), HypRef(1)), ProofLine(Impl(rhs, lhs), HypRef(2))),
    )


class TestReplacement:
    def test_identity_path_returns_input(self):
        equiv = _hyp_equiv(Var("a"), Var("b"))
        assert replacement_proof(Var("a"), (), equiv) is equiv

    def test_negation_context_uses_contraposition(self):
        equiv = _hyp_equiv(Var("a"), Var("b"))
        out = replacement_proof(Neg(Var("a")), (0,), equiv)
        assert check_proof(out, standard_registry()).accepted
        assert out.lines[-2].formula == w("~a -> ~b")
        assert any(isinstance(j := l.just, LemmaRef) and j.rule_id == "contra"
                   for l in out.lines)

    def test_implication_context_uses_congruence(self):
        equiv = _hyp_equiv(Var("a"), Var("b"))
        out = replacement_proof(w("a -> t"), (0,), equiv)
        assert check_proof(out, standard_registry()).accepted
        assert out.conclusion == w("(b -> t) -> (a -> t)")
        ids = {l.just.rule_id for l in out.lines if isinstance(l.just, LemmaRef)}
        assert {"refl", "imp-cong"} <= ids

    def test_deep_path(self):
        equiv = _hyp_equiv(Var("a"), Var("b"))
        target = w("~(t -> ~a) -> 1")
        out = replacement_proof(target, (0, 0, 1, 0), equiv)
        assert check_proof(out, standard_registry()).accepted
        assert out.lines[-2].formula == Impl(target, w("~(t -> ~b) -> 1"))

    def test_path_mismatch(self):
        equiv = _hyp_equiv(Var("a"), Var("b"))
        with pytest.raises(PathMismatch, match=r"subterm at \(0,\) is c, not a"):
            replacement_proof(w("c -> 1"), (0,), equiv)

    @pytest.mark.parametrize("lines", [
        (ProofLine(w("a -> b"), HypRef(1)),),  # one implication
        (ProofLine(w("a -> b"), HypRef(1)), ProofLine(w("b -> c"), HypRef(2))),  # not converse
        (ProofLine(w("a -> b"), HypRef(1)), ProofLine(w("~a"), HypRef(2))),  # not an implication
    ], ids=["one", "not-converse", "not-implication"])
    def test_equivalence_must_end_in_two_implications(self, lines):
        equiv = ProofScript(SQL, tuple(line.formula for line in lines), lines)
        with pytest.raises(PathMismatch,
                           match="^equivalence script must end with the two implications$"):
            replacement_proof(w("a -> c"), (0,), equiv)

    @pytest.mark.parametrize("path", [(0, 0), (5,), (-1,)])
    def test_path_off_the_target_is_a_mismatch(self, path):
        # (0, 0) and (5,) raised IndexError from the path walk
        equiv = _hyp_equiv(Var("a"), Var("b"))
        with pytest.raises(PathMismatch, match="has no step"):
            replacement_proof(w("a -> c"), path, equiv)


def _one_occurrence_renamed(t, names):
    """``t`` with one variable occurrence renamed to another of ``names``, for
    each occurrence and name in turn."""
    if isinstance(t, Var):
        yield from (Var(name) for name in names if name != t.name)
        return
    kids = children(t)
    for i, kid in enumerate(kids):
        for new in _one_occurrence_renamed(kid, names):
            yield rebuild(t, kids[:i] + (new,) + kids[i + 1:])


class TestSoundnessBridge:
    def test_accepted_scripts_entail_on_every_strong_view(self):
        # soundness: a script the checker accepts entails its conclusion from
        # its hypotheses on every strong model.  The candidates are the
        # packaged certificates, the lifted L* fixtures and their
        # de-regularisations, which must be accepted, and each of these with
        # one variable occurrence of its last line renamed to another of its
        # variables, which a checker that accepts too much lets through
        reg = standard_registry()
        proofs = [parse_script(text) for _, text in packaged_certificates()]
        for path in sorted(LSTAR_DIR.iterdir()):
            lifted = lift_lstar_proof(parse_script(path.read_text()))
            proofs.append(lifted)
            if is_regular(lifted.conclusion.right):
                proofs.append(deregularize_proof(lifted, reg))
        assert len(proofs) == 16 + 26 + 25
        assert all(check_proof(s, reg).accepted for s in proofs)
        renamed = [
            ProofScript(s.system, s.hypotheses, (*s.lines[:-1], ProofLine(f, s.lines[-1].just)))
            for s in proofs
            for f in _one_occurrence_renamed(s.conclusion, sorted(variables(s.conclusion)))
        ]
        accepted = proofs + [s for s in renamed if check_proof(s, reg).accepted]
        views = [(resolve(name + "@w"), Exhaustive()) for name in FINITE_CATALOG]
        views += [(resolve(name), RandomSampling(2000)) for name in ("square@w", "disk@w")]
        refuted = [(print_term(s.conclusion), m.name) for s in accepted for m, strategy in views
                   if check_entailment(s.hypotheses, s.conclusion, m, strategy, seed=1)
                   .found_countermodel]
        assert not refuted, f"{len(refuted)} refuted, first: {refuted[:3]}"

    def test_theorem_lemmas_designated_on_square(self):
        sw = resolve("square@w")
        reg = standard_registry()
        for rule_id in reg.ids():
            rule = reg.get(rule_id)
            if rule.premises:
                continue
            report = check_entailment([], rule.conclusion, sw, RandomSampling(10000), seed=2)
            assert not report.found_countermodel, rule_id

    def test_rules_preserve_designation_sampled(self, rng):
        sw = resolve("square@w")
        pool = [Var("a"), Var("b"), w("a -> b"), w("~a"), w("1")]
        for name, rule in RULES["sqL*"].items():
            if name == "Flat":
                continue
            for trial in range(20):
                sigma = {v: rng.choice(pool)
                         for v in sorted({n for s in (*rule.premises, rule.conclusion)
                                          for n in variables(s)})}
                premises = [substitute(s, sigma) for s in rule.premises]
                conclusion = substitute(rule.conclusion, sigma)
                report = check_entailment(premises, conclusion, sw,
                                          RandomSampling(500), seed=trial)
                assert not report.found_countermodel, name

    def test_flat_rule_vacuous_on_square(self):
        sw = resolve("square@w")
        assert not designated_set(sw).contains(evaluate(w("~1"), sw, {}))
        report = check_entailment([w("p"), w("~1")], w("~p"), sw,
                                  RandomSampling(2000), seed=0)
        assert not report.found_countermodel

    def test_flat_rule_exhaustive_on_flat_model(self):
        fw = resolve("flatten:chain:2:0@w")
        ds = designated_set(fw)
        neg_one = evaluate(w("~1"), fw, {})
        assert ds.contains(neg_one)  # non-vacuous here
        report = check_entailment([w("p"), w("~1")], w("~p"), fw, Exhaustive())
        assert report.verdict.value == "VALID_EXHAUSTIVE"
