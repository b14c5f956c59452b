"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import pathlib
import random
import time

from conftest import random_square_valuation, random_term, zero_second_coordinates
from sqmv import corpus
from sqmv.axioms import audit_battery
from sqmv.models import (
    FINITE_CATALOG,
    classify,
    embed_into_product,
    mu_congruence,
    resolve,
    tau_congruence,
)
from sqmv.proofkit import (
    Registry,
    check_proof,
    deregularize_proof,
    instantiate_axiom,
    lift_lstar_proof,
    parse_script,
)
from sqmv.proofkit.registry import packaged_certificates
from sqmv.proofkit.systems import RULES
from sqmv.semantics import (
    Exhaustive,
    Grid,
    RandomSampling,
    Verdict,
    check_entailment,
    check_equation,
    designated_set,
    evaluate,
)
from sqmv.syntax import (
    Impl,
    OPlus,
    Sig,
    Var,
    count_connective,
    is_regular,
    parse,
    substitute,
    variables,
)
from sqmv.transform import mv_to_w_model, mv_to_w_term, tables_equal, w_to_mv_model, w_to_mv_term

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "sqmv" / "fixtures"

SAMPLES = 10000
STRONG_FINITE = [n for n in FINITE_CATALOG]
FLAT_FINITE = [n for n in FINITE_CATALOG if n.startswith("flatten:")]


def note(line: str) -> None:
    print(line)


def _no_counterexample(eq, model, strategy, seed=0) -> bool:
    report = check_equation(eq.lhs, eq.rhs, model, strategy, seed)
    return not report.found_countermodel


def test_criterion_1_axiom_audits():
    t0 = time.monotonic()
    failures = []
    for model_name in ("square", "disk"):
        m = resolve(model_name)
        for eq in audit_battery(Sig.MV):
            if not _no_counterexample(eq, m, RandomSampling(SAMPLES), seed=101):
                failures.append((model_name, eq.name))
    for model_name in ("square@w", "disk@w"):
        m = resolve(model_name)
        for eq in audit_battery(Sig.W):
            if not _no_counterexample(eq, m, RandomSampling(SAMPLES), seed=102):
                failures.append((model_name, eq.name))
    standard_elapsed = time.monotonic() - t0
    assert failures == []
    assert standard_elapsed < 30

    t1 = time.monotonic()
    expected = {
        "chain:": dict(is_quasi=True, is_strong=True, is_flat=False, is_star=True),
        "flatten:": dict(is_quasi=True, is_strong=True, is_flat=True, is_star=False),
        "product:": dict(is_quasi=True, is_strong=True, is_flat=False, is_star=False),
        "ex32-grid": dict(is_quasi=True, is_strong=True, is_flat=False, is_star=False),
    }
    for name in FINITE_CATALOG:
        flags = classify(resolve(name))
        for prefix, want in expected.items():
            if name.startswith(prefix):
                for attr, value in want.items():
                    assert getattr(flags, attr) == value, (name, attr)
        flags_w = classify(resolve(name + "@w"))
        assert flags_w.is_quasi and flags_w.is_strong, name
    finite_elapsed = time.monotonic() - t1
    assert finite_elapsed < 60
    note(
        f"PASS criterion 1: axiom audits ({SAMPLES} samples/axiom on 4 standard "
        f"models in {standard_elapsed:.1f}s; {2 * len(FINITE_CATALOG)} finite "
        f"models exhaustively in {finite_elapsed:.1f}s)"
    )


def test_criterion_2_strongness_and_flatness():
    rng = random.Random(202)
    # strong laws on every catalog model
    for name in STRONG_FINITE:
        flags = classify(resolve(name))
        assert flags.axiom_results["strong+"] and flags.axiom_results["strong-"], name
    for name in ("square", "disk"):
        m = resolve(name)
        for eq in [e for e in audit_battery(Sig.MV) if e.name.startswith("strong")]:
            assert _no_counterexample(eq, m, RandomSampling(SAMPLES), seed=103)

    # flat-sum law: exhaustive on finite flats, sampled on the standard flat
    x_plus_y = parse("x (+) y", Sig.MV)
    zero = parse("0", Sig.MV)
    for name in FLAT_FINITE:
        report = check_equation(x_plus_y, zero, resolve(name), Exhaustive())
        assert report.verdict is Verdict.VALID_EXHAUSTIVE, name
    report = check_equation(
        x_plus_y, zero, resolve("flat-standard"), RandomSampling(SAMPLES), seed=104
    )
    assert not report.found_countermodel

    # the half-square grid: strong, not a plain algebra, witness produced
    grid = resolve("ex32-grid")
    flags = classify(grid)
    assert flags.is_strong and not flags.is_star
    witness = flags.witnesses["MV*5"]
    x = witness["x"]
    assert grid.apply("oplus", x, grid.const("zero")) != x
    from sqmv.models import label_str

    note(
        "PASS criterion 2: strongness laws on all strong models, flat-sum law "
        f"({len(FLAT_FINITE)} finite flats exhaustive + {SAMPLES} samples), "
        f"grid witness x={label_str(x)}"
    )


def test_criterion_3_round_trips():
    for name in FINITE_CATALOG:
        m = resolve(name)
        assert tables_equal(w_to_mv_model(mv_to_w_model(m)), m), name
        m_w = resolve(name + "@w")
        assert tables_equal(mv_to_w_model(w_to_mv_model(m_w)), m_w), name

    rng = random.Random(303)
    sq = resolve("square")
    sq_w = resolve("square@w")
    mismatches = 0
    for _ in range(1000):
        t = random_term(rng, Sig.MV, 5)
        v = random_square_valuation(rng, variables(t))
        image = mv_to_w_term(t)
        if evaluate(t, sq, v) != evaluate(image, sq_w, v):
            mismatches += 1
        if evaluate(w_to_mv_term(image), sq, v) != evaluate(t, sq, v):
            mismatches += 1
    assert mismatches == 0
    note(
        f"PASS criterion 3: table round trips on {2 * len(FINITE_CATALOG)} finite "
        "views, 1000 seeded term round trips with 0 mismatches"
    )


def test_criterion_4_embedding():
    iso_names = []
    for name in FINITE_CATALOG:
        m = resolve(name)
        flags = classify(m)
        assert mu_congruence(m).meet(tau_congruence(m)).is_identity(), name
        if not flags.is_strong:
            continue
        emb = embed_into_product(m)
        assert emb.is_homomorphism and emb.is_injective, name
        assert emb.is_isomorphism == (flags.is_star or flags.is_flat), name
        if emb.is_isomorphism:
            iso_names.append(name)
    assert iso_names == [n for n in FINITE_CATALOG
                         if n.startswith(("chain:", "flatten:"))]
    note(
        f"PASS criterion 4: {len(FINITE_CATALOG)} embeddings verified; "
        f"isomorphism exactly on {len(iso_names)} plain/flat members"
    )


def _standard_verdict(eq, model, seed=505) -> bool:
    """True when a countermodel exists.

    A coarse grid already covers the off-slice second coordinates where the
    quasi behaviour shows; random sampling covers the rest.
    """
    if check_equation(eq.lhs, eq.rhs, model, Grid(2), seed).found_countermodel:
        return True
    return check_equation(
        eq.lhs, eq.rhs, model, RandomSampling(2000), seed
    ).found_countermodel


def test_criterion_5_standard_completeness_coherence():
    eqs = corpus.corpus()
    assert len(eqs) == 50

    for eq in eqs:
        suffix = "" if eq.sig is Sig.MV else "@w"
        sq_cex = _standard_verdict(eq, resolve("square" + suffix))
        dk_cex = _standard_verdict(eq, resolve("disk" + suffix))
        assert sq_cex == dk_cex, eq.name
        valid_expected = not eq.name.startswith("bad-")
        assert sq_cex != valid_expected, eq.name

        # square countermodels of sum-bearing equations project onto the disk
        if eq.sig is Sig.MV and sq_cex:
            if count_connective(eq.lhs, OPlus) and count_connective(eq.rhs, OPlus):
                report = check_equation(eq.lhs, eq.rhs, resolve("square"), Grid(2), 505)
                if not report.found_countermodel:
                    report = check_equation(
                        eq.lhs, eq.rhs, resolve("square"), RandomSampling(2000), 505
                    )
                v0 = zero_second_coordinates(report.witness.valuation)
                disk = resolve("disk")
                assert evaluate(eq.lhs, disk, v0) != evaluate(eq.rhs, disk, v0), eq.name

    # flat coherence: the standard flat algebra agrees with every finite flat
    for eq in eqs:
        suffix = "" if eq.sig is Sig.MV else "@w"
        flat_cex = check_equation(
            eq.lhs, eq.rhs, resolve("flat-standard" + suffix),
            RandomSampling(2000), seed=506,
        ).found_countermodel
        for name in FLAT_FINITE:
            finite_cex = check_equation(
                eq.lhs, eq.rhs, resolve(name + suffix), Exhaustive()
            ).found_countermodel
            assert finite_cex == flat_cex, (eq.name, name)

    # projection property on random sum-bearing terms
    rng = random.Random(507)
    sq = resolve("square")
    failures = 0
    for _ in range(1000):
        t = random_term(rng, Sig.MV, 5, force_oplus=True)
        v = random_square_valuation(rng, variables(t))
        full = evaluate(t, sq, v)
        if full != evaluate(t, sq, zero_second_coordinates(v)) or full[1] != 0:
            failures += 1
    assert failures == 0
    note(
        "PASS criterion 5: square/disk verdicts agree on 50 equations, "
        "flat coherence across finite flats, projection property 1000/1000"
    )


def test_criterion_6_proof_suite():
    t0 = time.monotonic()
    registry = Registry()
    for rule_id, text in packaged_certificates():
        registry.register(rule_id, parse_script(text))
    assert len(registry.ids()) == 16  # the eleven items, split per direction

    from test_proofkit import _mutants

    rng = random.Random(606)
    mutants = 0
    for name in ("01_contra", "03_chain", "05_refl", "07_ident-eq",
                 "08a_dne-i", "09_swap-neg", "10c_negpos-i"):
        script = parse_script((FIXTURES / "derived" / f"{name}.sqlp").read_text())
        for i, mutated in _mutants(script, rng):
            lines = list(script.lines)
            from sqmv.proofkit.script import ProofLine, ProofScript

            lines[i] = ProofLine(lines[i].formula, mutated)
            mutant = ProofScript(script.system, script.hypotheses, tuple(lines))
            assert not check_proof(mutant, registry).accepted, (name, i + 1)
            mutants += 1
    assert mutants >= 100

    lifted = 0
    round_trips = 0
    for path in sorted((FIXTURES / "lstar").iterdir()):
        src = parse_script(path.read_text())
        out = lift_lstar_proof(src)
        assert check_proof(out, registry).accepted, path.name
        assert out.conclusion == Impl(parse("p -> p", Sig.W), src.conclusion)
        lifted += 1
        if is_regular(src.conclusion):
            final = deregularize_proof(out, registry)
            assert check_proof(final, registry).accepted, path.name
            assert final.conclusion == src.conclusion
            round_trips += 1
    assert lifted >= 20
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    note(
        f"PASS criterion 6: 16 certificates in order, {mutants} mutants all "
        f"rejected, {lifted} lifts + {round_trips} deregularisations in {elapsed:.1f}s"
    )


def _random_formula_pool(rng):
    pool = []
    for _ in range(8):
        pool.append(random_term(rng, Sig.W, 2, var_names=("a", "b", "c"),
                                allow_parts=False))
    return pool


def test_criterion_7_soundness_sampling():
    rng = random.Random(707)
    sw = resolve("square@w")
    pool = _random_formula_pool(rng)

    for name in (f"Q{i}" for i in range(1, 11)):
        for trial in range(50):
            sigma = {v: rng.choice(pool) for v in ("p", "q", "r")}
            for instance in instantiate_axiom("sqL*", name, sigma):
                report = check_entailment(
                    [], instance, sw, RandomSampling(SAMPLES), seed=trial
                )
                assert not report.found_countermodel, (name, trial)

    for rule_name, rule in RULES["sqL*"].items():
        if rule_name == "Flat":
            continue
        for trial in range(20):
            metavars = sorted(
                {n for s in (*rule.premises, rule.conclusion) for n in variables(s)}
            )
            sigma = {v: rng.choice(pool) for v in metavars}
            premises = [substitute(s, sigma) for s in rule.premises]
            conclusion = substitute(rule.conclusion, sigma)
            report = check_entailment(
                premises, conclusion, sw, RandomSampling(1000), seed=trial
            )
            assert not report.found_countermodel, (rule_name, trial)

    # the flattening rule: vacuous on the square, exhaustive on a flat model
    neg_one = parse("~1", Sig.W)
    assert not designated_set(sw).contains(evaluate(neg_one, sw, {}))
    vac = check_entailment(
        [Var("p"), neg_one], parse("~p", Sig.W), sw, RandomSampling(SAMPLES), seed=7
    )
    assert not vac.found_countermodel
    flat = resolve("flatten:chain:2:0@w")
    assert designated_set(flat).contains(evaluate(neg_one, flat, {}))
    exh = check_entailment([Var("p"), neg_one], parse("~p", Sig.W), flat, Exhaustive())
    assert exh.verdict is Verdict.VALID_EXHAUSTIVE
    note(
        "PASS criterion 7: 10 axiom schemas x 50 substitutions designated at "
        f"{SAMPLES} valuations; 10 rules preserve designation (20 trials each); "
        "flattening rule vacuous on the square, exhaustive on a flat model"
    )
