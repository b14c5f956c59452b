"""Constructive proof transformers.

``replacement_proof`` turns an equivalence proof for a subformula into one
for the enclosing formula, walking the occurrence path with the registered
congruence lemmas.  ``lift_lstar_proof`` re-plays an L* derivation inside
sqL* under a reflexive prefix; ``deregularize_proof`` strips that prefix from
regular conclusions.  All outputs are ordinary scripts that the checker
verifies from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..syntax import (
    IDENT,
    Const1,
    Impl,
    Neg,
    SqmvError,
    Term,
    Var,
    children,
    is_regular,
)
from .checker import check_proof
from .script import (
    AxiomRef,
    HypRef,
    Justification,
    LemmaRef,
    ProofLine,
    ProofScript,
    RuleRef,
    ScriptError,
)
from .systems import L_TO_SQ_AXIOM, LSTAR, SQL


class PathMismatch(SqmvError):
    pass


class NotRegular(SqmvError):
    pass


class SourceProofInvalid(SqmvError):
    pass


ONE = Const1()


@dataclass(frozen=True)
class EquivPair:
    """Two proof lines witnessing lhs -> rhs and rhs -> lhs."""

    lhs: Term
    rhs: Term
    fwd: int
    bwd: int


class ProofBuilder:
    """Accumulates proof lines; indices are 1-based, matching the file format.

    The lemma ids the equivalence steps cite (refl, contra, imp-cong) must
    already be registered when the produced script is checked.
    """

    def __init__(self, system: str = SQL, hypotheses: tuple[Term, ...] = ()):
        self.system = system
        self.hypotheses = tuple(hypotheses)
        self._lines: list[ProofLine] = []
        self._refl_cache: dict[Term, int] = {}

    @classmethod
    def extending(cls, script: ProofScript) -> "ProofBuilder":
        b = cls(script.system, script.hypotheses)
        b._lines = list(script.lines)
        return b

    def add(self, formula: Term, just: Justification) -> int:
        self._lines.append(ProofLine(formula, just))
        return len(self._lines)

    def script(self) -> ProofScript:
        return ProofScript(self.system, self.hypotheses, tuple(self._lines))

    def refl(self, t: Term) -> int:
        if t not in self._refl_cache:
            self._refl_cache[t] = self.add(Impl(t, t), LemmaRef("refl"))
        return self._refl_cache[t]

    def refl_pair(self, t: Term) -> EquivPair:
        """t <-> t, both directions on one refl line."""
        r = self.refl(t)
        return EquivPair(t, t, r, r)

    def contra(self, p: EquivPair) -> EquivPair:
        fwd = self.add(Impl(Neg(p.lhs), Neg(p.rhs)), LemmaRef("contra", (p.bwd,)))
        bwd = self.add(Impl(Neg(p.rhs), Neg(p.lhs)), LemmaRef("contra", (p.fwd,)))
        return EquivPair(Neg(p.lhs), Neg(p.rhs), fwd, bwd)

    def imp_cong(self, pl: EquivPair, pr: EquivPair) -> EquivPair:
        """(pl.lhs -> pr.lhs) <-> (pl.rhs -> pr.rhs)."""
        lhs, rhs = Impl(pl.lhs, pr.lhs), Impl(pl.rhs, pr.rhs)
        fwd = self.add(Impl(lhs, rhs), LemmaRef("imp-cong", (pl.bwd, pr.fwd)))
        bwd = self.add(Impl(rhs, lhs), LemmaRef("imp-cong", (pl.fwd, pr.bwd)))
        return EquivPair(lhs, rhs, fwd, bwd)

    def replace_at(self, root: Term, path: tuple[int, ...], p: EquivPair) -> EquivPair:
        """root <-> root[path := p.rhs], built by walking the path outwards."""
        nodes = [root]
        for step in path:
            kids = children(nodes[-1])
            if not 0 <= step < len(kids):
                raise PathMismatch(f"path {path} has no step {step} under {nodes[-1]}")
            nodes.append(kids[step])
        if nodes[-1] != p.lhs:
            raise PathMismatch(f"subterm at {path} is {nodes[-1]}, not {p.lhs}")
        pair = p
        for node, step in zip(reversed(nodes[:-1]), reversed(path)):
            if isinstance(node, Neg):
                pair = self.contra(pair)
            elif isinstance(node, Impl) and step == 0:
                pair = self.imp_cong(pair, self.refl_pair(node.right))
            elif isinstance(node, Impl) and step == 1:
                pair = self.imp_cong(self.refl_pair(node.left), pair)
            else:
                raise PathMismatch(f"cannot rewrite under {type(node).__name__}")
        return pair


def replacement_proof(
    target: Term, path: tuple[int, ...], equiv: ProofScript
) -> ProofScript:
    """From a proof of sub <-> sub' build one of target <-> target[path := sub'].

    ``equiv`` must end with the two implications, forward then backward; the
    output keeps that convention.  An empty path returns ``equiv`` itself.
    """
    if len(equiv.lines) < 2:
        raise PathMismatch("equivalence script must end with the two implications")
    f_fwd = equiv.lines[-2].formula
    f_bwd = equiv.lines[-1].formula
    if not (
        isinstance(f_fwd, Impl)
        and isinstance(f_bwd, Impl)
        and f_fwd.left == f_bwd.right
        and f_fwd.right == f_bwd.left
    ):
        raise PathMismatch("equivalence script must end with the two implications")
    if not path:
        return equiv
    b = ProofBuilder.extending(equiv)
    pair = EquivPair(f_fwd.left, f_fwd.right, len(equiv.lines) - 1, len(equiv.lines))
    b.replace_at(target, path, pair)
    return b.script()


def lift_lstar_proof(source: ProofScript, prefix: str = "p") -> ProofScript:
    """Re-play an L* derivation in sqL*, concluding (prefix->prefix) -> q."""
    if not IDENT.fullmatch(prefix):
        raise ScriptError(
            f"lift prefix {prefix!r} is not a variable name ({IDENT.pattern})")
    if source.system != LSTAR:
        raise SourceProofInvalid("the source script is not an L* proof")
    report = check_proof(source)
    if not report.accepted:
        raise SourceProofInvalid(f"source does not check: {report.summary()}")
    pp = Impl(Var(prefix), Var(prefix))
    b = ProofBuilder(SQL, source.hypotheses)
    lifted: dict[int, int] = {}
    for i, line in enumerate(source.lines, start=1):
        just = line.just
        f = line.formula
        if isinstance(just, AxiomRef):
            base = b.add(f, AxiomRef(L_TO_SQ_AXIOM[just.name]))
            lifted[i] = b.add(Impl(pp, f), RuleRef("Reg", (base,)))
        elif isinstance(just, HypRef):
            base = b.add(f, just)
            lifted[i] = b.add(Impl(pp, f), RuleRef("Reg", (base,)))
        elif isinstance(just, RuleRef) and just.name == "R1":
            j, k = just.premises
            lifted[i] = b.add(Impl(pp, f), RuleRef("qMP", (lifted[j], lifted[k])))
        elif isinstance(just, RuleRef) and just.name == "R2":
            j, k = just.premises
            # both premises are implications, hence regular: recover them bare
            pj = b.add(source.lines[j - 1].formula, RuleRef("AReg1", (lifted[j],)))
            pk = b.add(source.lines[k - 1].formula, RuleRef("AReg1", (lifted[k],)))
            bare = b.add(f, RuleRef("R2'", (pj, pk)))
            lifted[i] = b.add(Impl(pp, f), RuleRef("Reg", (bare,)))
        elif isinstance(just, RuleRef) and just.name == "R3":
            (j,) = just.premises
            bare = b.add(f, RuleRef("R3'", (lifted[j],)))
            lifted[i] = b.add(Impl(pp, f), RuleRef("Reg", (bare,)))
        else:
            raise SourceProofInvalid(f"unsupported justification {just!r}")
    return b.script()


def deregularize_proof(source: ProofScript, registry=None) -> ProofScript:
    """From a proof of (x->x) -> q with q regular, produce a proof of q.

    Double negations over the regular core are stripped with the registered
    double-negation lemma under the prefix, the matching de-regularisation
    rule removes the prefix, and Inv1 pumps the negations back.
    """
    if registry is None:
        from .registry import standard_registry

        registry = standard_registry()
    if source.system != SQL:
        raise SourceProofInvalid("the source script is not an sqL* proof")
    report = check_proof(source, registry)
    if not report.accepted:
        raise SourceProofInvalid(f"source does not check: {report.summary()}")
    concl = source.conclusion
    if not (
        isinstance(concl, Impl)
        and isinstance(concl.left, Impl)
        and concl.left.left == concl.left.right
    ):
        raise SourceProofInvalid("conclusion does not carry a reflexive prefix")
    pp, q = concl.left, concl.right
    if not is_regular(q):
        raise NotRegular(f"conclusion {q} is a negated variable")

    k = 0
    base = q
    while isinstance(base, Neg):
        k += 1
        base = base.arg

    b = ProofBuilder.extending(source)
    cur_line = len(source.lines)
    cur = k

    def nstack(n: int) -> Term:
        t = base
        for _ in range(n):
            t = Neg(t)
        return t

    while cur >= 2:
        tgt = nstack(cur - 2)
        dne = Impl(Neg(Neg(tgt)), tgt)
        lem = b.add(dne, LemmaRef("dne-e"))
        reg = b.add(Impl(pp, dne), RuleRef("Reg", (lem,)))
        cur_line = b.add(Impl(pp, tgt), RuleRef("qMP", (cur_line, reg)))
        cur -= 2

    if base == ONE:
        rule = "AReg3" if cur == 1 else "AReg4"
    else:
        rule = "AReg2" if cur == 1 else "AReg1"
    cur_line = b.add(nstack(cur), RuleRef(rule, (cur_line,)))

    while cur < k:
        cur_line = b.add(nstack(cur + 2), RuleRef("Inv1", (cur_line,)))
        cur += 2
    return b.script()
