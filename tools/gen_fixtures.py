#!/usr/bin/env python3
"""Regenerate the packaged proof fixtures.

The short certificates are literal transcriptions; the long ones (double
negation, the part/negation dualities, join commutativity) are produced with
the equivalence builder ``EquivBuilder``, which lives here: it extends the
package's ``ProofBuilder`` with the combinators only these certificates use.
Each output is then checked like any other script.  Output goes to
src/sqmv/fixtures/; run from the repository root after changing the proof
machinery and commit the results.
"""

from __future__ import annotations

import pathlib
import sys
from typing import Iterator

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sqmv.syntax import (  # noqa: E402
    Const1,
    Impl,
    Neg,
    Sig,
    Term,
    Var,
    children,
    expand_abbreviations,
    join_term,
    print_term,
)
from sqmv.proofkit.registry import Registry  # noqa: E402
from sqmv.proofkit.script import (  # noqa: E402
    AxiomRef,
    HypRef,
    LemmaRef,
    ProofLine,
    ProofScript,
    ScriptError,
    format_script,
    parse_script,
)
from sqmv.proofkit.systems import AXIOMS, LSTAR, SQL, instantiate_axiom  # noqa: E402
from sqmv.proofkit.transforms import (  # noqa: E402
    EquivPair,
    PathMismatch,
    ProofBuilder,
    replacement_proof,
)

DERIVED = ROOT / "src" / "sqmv" / "fixtures" / "derived"
LSTAR_DIR = ROOT / "src" / "sqmv" / "fixtures" / "lstar"


def positions(t: Term) -> Iterator[tuple[int, ...]]:
    """All subterm positions of ``t`` in preorder, as child-index paths."""
    yield ()
    for i, c in enumerate(children(t)):
        for p in positions(c):
            yield (i,) + p


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        t = children(t)[i]
    return t


class EquivBuilder(ProofBuilder):
    """``ProofBuilder`` plus the biconditional combinators of the long
    certificates; the lemma ids they cite (chain, dne-i, dne-e and those given
    to ``lemma_pair``) must be registered when the script is checked."""

    def axiom_pair(self, name: str, sigma: dict[str, Term]) -> EquivPair:
        forms = instantiate_axiom(self.system, name, sigma)
        if len(forms) != 2:
            raise ScriptError(f"axiom {name} is not a biconditional")
        fwd = self.add(forms[0], AxiomRef(name))
        bwd = self.add(forms[1], AxiomRef(name))
        return EquivPair(forms[0].left, forms[0].right, fwd, bwd)

    def lemma_pair(self, fwd_id: str, bwd_id: str, lhs: Term, rhs: Term) -> EquivPair:
        fwd = self.add(Impl(lhs, rhs), LemmaRef(fwd_id))
        bwd = self.add(Impl(rhs, lhs), LemmaRef(bwd_id))
        return EquivPair(lhs, rhs, fwd, bwd)

    def dne_pair(self, t: Term) -> EquivPair:
        """t <-> ~~t."""
        return self.lemma_pair("dne-i", "dne-e", t, Neg(Neg(t)))

    @staticmethod
    def flip(p: EquivPair) -> EquivPair:
        return EquivPair(p.rhs, p.lhs, p.bwd, p.fwd)

    def chain(self, p1: EquivPair, p2: EquivPair) -> EquivPair:
        fwd = self.chain_forward(p1, p2)
        bwd = self.chain_forward(self.flip(p2), self.flip(p1))
        return EquivPair(p1.lhs, p2.rhs, fwd, bwd)

    def chain_forward(self, p1: EquivPair, p2: EquivPair) -> int:
        """Only the forward composite line p1.lhs -> p2.rhs."""
        if p1.rhs != p2.lhs:
            raise ScriptError("equivalence chain does not compose")
        return self.add(Impl(p1.lhs, p2.rhs), LemmaRef("chain", (p1.fwd, p2.fwd)))

    def conclude(self, p1: EquivPair, p2: EquivPair, direction: str) -> ProofScript:
        """The script, ending on the forward ("fwd") or backward composite of p1, p2."""
        if direction != "fwd":
            p1, p2 = self.flip(p2), self.flip(p1)
        self.chain_forward(p1, p2)
        return self.script()

    def replace_everywhere(self, root: Term, p: EquivPair) -> EquivPair:
        """Replace every occurrence of p.lhs in root, one path at a time."""
        pair_total: EquivPair | None = None
        cur = root
        while True:
            path = next(
                (pos for pos in positions(cur) if subterm_at(cur, pos) == p.lhs), None
            )
            if path is None:
                break
            step_pair = self.replace_at(cur, path, p)
            pair_total = step_pair if pair_total is None else self.chain(pair_total, step_pair)
            cur = step_pair.rhs
        if pair_total is None:
            raise PathMismatch(f"{p.lhs} does not occur in the target")
        return pair_total


P, Q, R = Var("p"), Var("q"), Var("r")
ONE = Const1()
QQ = Impl(Q, Q)


HAND_WRITTEN = {
    "01_contra.sqlp": """\
system: sqL*
hyp: p -> q
1. p -> q ; HYP 1
2. (r -> r) -> (p -> q) ; RULE Reg 1
3. (p -> q) -> (~q -> ~p) ; AX Q1
4. (r -> r) -> ((p -> q) -> (~q -> ~p)) ; RULE Reg 3
5. (r -> r) -> (~q -> ~p) ; RULE qMP 2,4
6. ~q -> ~p ; RULE AReg1 5
""",
    "02_imp-cong.sqlp": """\
system: sqL*
hyp: p -> q
hyp: t -> r
1. p -> q ; HYP 1
2. t -> r ; HYP 2
3. (q -> t) -> (p -> r) ; RULE R2' 1,2
""",
    "03_chain.sqlp": """\
system: sqL*
hyp: p -> q
hyp: q -> r
1. p -> q ; HYP 1
2. q -> r ; HYP 2
3. (q -> q) -> (p -> r) ; RULE R2' 1,2
4. (r -> r) -> ((q -> q) -> (p -> r)) ; RULE Reg 3
5. ((q -> q) -> (p -> r)) -> (p -> r) ; AX Q3
6. (r -> r) -> (((q -> q) -> (p -> r)) -> (p -> r)) ; RULE Reg 5
7. (r -> r) -> (p -> r) ; RULE qMP 4,6
8. p -> r ; RULE AReg1 7
""",
    "04a_negdist-i.sqlp": """\
system: sqL*
1. ~(p -> q) -> (q -> p) ; AX Q5
2. (q -> p) -> (~p -> ~q) ; AX Q1
3. ~(p -> q) -> (~p -> ~q) ; LEM chain 1,2
""",
    "04b_negdist-e.sqlp": """\
system: sqL*
1. (~p -> ~q) -> (q -> p) ; AX Q1
2. (q -> p) -> ~(p -> q) ; AX Q5
3. (~p -> ~q) -> ~(p -> q) ; LEM chain 1,2
""",
    "05_refl.sqlp": """\
system: sqL*
1. (p -> p) -> ((q -> q) -> (p -> p)) ; AX Q3
2. ((q -> q) -> (p -> p)) -> (p -> p) ; AX Q3
3. (p -> p) -> (p -> p) ; LEM chain 1,2
4. p -> p ; RULE AReg1 3
""",
    "07_ident-eq.sqlp": """\
system: sqL*
1. p -> p ; LEM refl
2. (r -> r) -> (p -> p) ; RULE Reg 1
3. (p -> p) -> ((q -> q) -> (p -> p)) ; AX Q3
4. (r -> r) -> ((p -> p) -> ((q -> q) -> (p -> p))) ; RULE Reg 3
5. (r -> r) -> ((q -> q) -> (p -> p)) ; RULE qMP 2,4
6. (q -> q) -> (p -> p) ; RULE AReg1 5
""",
    "09_swap-neg.sqlp": """\
system: sqL*
1. (~p -> q) -> (~q -> ~~p) ; AX Q1
2. ~~p -> p ; LEM dne-e
3. ~q -> ~q ; LEM refl
4. (~q -> ~~p) -> (~q -> p) ; LEM imp-cong 3,2
5. (~p -> q) -> (~q -> p) ; LEM chain 1,4
""",
}


def build_replace_demo() -> ProofScript:
    hyp1 = Impl(Neg(Neg(QQ)), QQ)
    hyp2 = Impl(QQ, Neg(Neg(QQ)))
    equiv = ProofScript(
        SQL,
        (hyp1, hyp2),
        (ProofLine(hyp1, HypRef(1)), ProofLine(hyp2, HypRef(2))),
    )
    return replacement_proof(Impl(Neg(Neg(QQ)), Neg(Neg(P))), (0,), equiv)


def build_dne(direction: str) -> ProofScript:
    b = EquivBuilder()
    p1 = b.axiom_pair("Q5", {"p": Q, "q": Q})
    p2 = b.contra(p1)
    p3 = b.chain(p2, p1)
    p4 = b.axiom_pair("Q3", {"p": P, "q": Q})
    p5 = b.axiom_pair("Q1", {"p": QQ, "q": P})
    p6 = b.chain(p4, p5)
    p7 = b.axiom_pair("Q1", {"p": Neg(P), "q": Neg(QQ)})
    p8 = b.chain(p6, p7)
    p9i = b.replace_at(Impl(Neg(Neg(QQ)), Neg(Neg(P))), (0,), p3)
    p9 = b.chain(p8, p9i)
    p10 = b.flip(b.axiom_pair("Q3", {"p": Neg(Neg(P)), "q": Q}))
    return b.conclude(p9, p10, direction)


def build_posneg(direction: str) -> ProofScript:
    b = EquivBuilder()
    np1 = Neg(ONE)
    pr1 = b.flip(b.axiom_pair("Q5", {"p": ONE, "q": Impl(Neg(P), ONE)}))
    pr2 = b.dne_pair(ONE)
    total = b.chain(pr1, b.replace_at(pr1.rhs, (0, 1, 1), pr2))
    negd = b.lemma_pair(
        "negdist-i", "negdist-e", Neg(Impl(P, np1)), Impl(Neg(P), Neg(np1))
    )
    total = b.chain(total, b.replace_at(total.rhs, (0, 1), b.flip(negd)))
    total = b.chain(total, b.replace_at(total.rhs, (0, 0), pr2))
    pr7 = b.axiom_pair("Q1", {"p": Impl(P, np1), "q": np1})
    pr8 = b.contra(pr7)
    return b.conclude(total, b.flip(pr8), direction)


def build_negpos(direction: str) -> ProofScript:
    b = EquivBuilder()
    np1 = Neg(ONE)
    big_a = Impl(Impl(Neg(P), np1), np1)
    x = Impl(Impl(Neg(Neg(P)), ONE), ONE)
    pr1 = b.lemma_pair("posneg-i", "posneg-e", x, Neg(big_a))
    pr2 = b.flip(b.dne_pair(P))
    pr3 = b.replace_at(x, (0, 0), pr2)
    pr4 = b.chain(b.flip(pr3), pr1)
    pr5 = b.contra(pr4)
    pr6 = b.dne_pair(big_a)
    return b.conclude(pr6, b.flip(pr5), direction)


def build_join_comm() -> ProofScript:
    def jn(x, y):
        return expand_abbreviations(join_term(x, y, Sig.W), Sig.W)

    b = EquivBuilder()
    rr = Impl(R, R)
    x = Impl(rr, Q)
    y = Impl(rr, P)
    pr1 = b.axiom_pair("Q7", {"p": rr, "q": P, "r": Q})
    pr2 = b.axiom_pair("Q3", {"p": jn(P, Q), "q": R})
    pr3 = b.chain(pr2, pr1)
    pr4 = b.flip(b.axiom_pair("Q3", {"p": Q, "q": R}))
    pr5 = b.replace_everywhere(jn(x, y), pr4)
    pr6 = b.chain(pr3, pr5)
    pr7 = b.flip(b.axiom_pair("Q3", {"p": P, "q": R}))
    pr8 = b.replace_everywhere(pr6.rhs, pr7)
    return b.conclude(pr6, pr8, "fwd")


GENERATED = {
    "06_replace-demo.sqlp": build_replace_demo,
    "08a_dne-i.sqlp": lambda: build_dne("fwd"),
    "08b_dne-e.sqlp": lambda: build_dne("bwd"),
    "10a_posneg-i.sqlp": lambda: build_posneg("fwd"),
    "10b_posneg-e.sqlp": lambda: build_posneg("bwd"),
    "10c_negpos-i.sqlp": lambda: build_negpos("fwd"),
    "10d_negpos-e.sqlp": lambda: build_negpos("bwd"),
    "11_join-comm.sqlp": build_join_comm,
}


def derived_texts() -> dict[str, str]:
    """The derived-rule certificates as ``{file name: text}``."""
    texts = dict(HAND_WRITTEN)
    for name, builder in GENERATED.items():
        texts[name] = format_script(builder())
    return texts


def write_derived() -> None:
    DERIVED.mkdir(parents=True, exist_ok=True)
    texts = derived_texts()
    registry = Registry()
    for name in sorted(texts):
        rule_id = name.split("_", 1)[1].removesuffix(".sqlp")
        script = parse_script(texts[name])
        registry.register(rule_id, script)
        (DERIVED / name).write_text(texts[name], encoding="utf-8")
        print(f"  {name}: {len(script.lines)} lines, registered as {rule_id!r}")


LSTAR_EXTRA = {
    "rule_r1.sqlp": """\
system: L*
1. p -> 1 ; AX P4
2. (p -> 1) -> ((q -> q) -> (p -> 1)) ; AX P2
3. (q -> q) -> (p -> 1) ; RULE R1 1,2
""",
    "rule_r2.sqlp": """\
system: L*
1. p -> 1 ; AX P4
2. q -> 1 ; AX P4
3. (1 -> q) -> (p -> 1) ; RULE R2 1,2
""",
    "rule_r3.sqlp": """\
system: L*
1. p -> 1 ; AX P4
2. (p -> 1)^- ; RULE R3 1
""",
    "r3_chain.sqlp": """\
system: L*
1. p -> 1 ; AX P4
2. (p -> 1)^- ; RULE R3 1
3. ((p -> 1)^-)^- ; RULE R3 2
""",
    "mixed_long.sqlp": """\
system: L*
1. p -> 1 ; AX P4
2. (p -> 1) -> ((q -> q) -> (p -> 1)) ; AX P2
3. (q -> q) -> (p -> 1) ; RULE R1 1,2
4. q -> 1 ; AX P4
5. ((p -> 1) -> q) -> ((q -> q) -> 1) ; RULE R2 3,4
6. (((p -> 1) -> q) -> ((q -> q) -> 1))^- ; RULE R3 5
""",
    "hyp_mp.sqlp": """\
system: L*
hyp: p
hyp: p -> q
1. p ; HYP 1
2. p -> q ; HYP 2
3. q ; RULE R1 1,2
""",
    "hyp_dneg.sqlp": """\
system: L*
hyp: ~~(p -> 1)
1. ~~(p -> 1) ; HYP 1
""",
    "hyp_neg_one.sqlp": """\
system: L*
hyp: ~~~1
1. ~~~1 ; HYP 1
""",
}


def lstar_texts() -> dict[str, str]:
    """The L* corpus, one script per axiom form plus LSTAR_EXTRA, as
    ``{file name: text}``."""
    texts = {}
    for name, forms in AXIOMS[LSTAR].items():
        tag = name.lower()
        if len(forms) == 2:
            files = {f"ax_{tag}_fwd.sqlp": forms[0], f"ax_{tag}_bwd.sqlp": forms[1]}
        else:
            files = {f"ax_{tag}.sqlp": forms[0]}
        for fname, formula in files.items():
            texts[fname] = f"system: L*\n1. {print_term(formula)} ; AX {name}\n"
    texts.update(LSTAR_EXTRA)
    return texts


def write_lstar() -> None:
    LSTAR_DIR.mkdir(parents=True, exist_ok=True)
    for fname, text in lstar_texts().items():
        parse_script(text)
        (LSTAR_DIR / fname).write_text(text, encoding="utf-8")
    print(f"  {len(list(LSTAR_DIR.iterdir()))} scripts in the L* corpus")


if __name__ == "__main__":
    print("derived-rule certificates:")
    write_derived()
    print("L* corpus:")
    write_lstar()
