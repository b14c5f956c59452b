import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import pytest

import sqmv.cli
from sqmv.cli import CliError, main
from sqmv.models import ModelError, finite_chain, product
from sqmv.proofkit import (
    CertificationFailed,
    NotRegular,
    PathMismatch,
    ScriptError,
    SourceProofInvalid,
    UnknownAxiom,
    check_proof,
    parse_script,
    standard_registry,
)
from sqmv.semantics import SemanticsError
from sqmv.syntax import FormulaError, SqmvError, Var

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC / "sqmv" / "fixtures"
sys.path.insert(0, str(SRC.parent / "tools"))

import cli_transcript  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_valid_equation_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "check-eq", "--model", "square", "--strategy", "random:10000",
            "--seed", "7", "x (+) y", "y (+) x",
        )
        assert code == 0
        assert "NO_COUNTEREXAMPLE_FOUND" in out

    def test_countermodel_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "check-eq", "--model", "square", "--strategy", "grid:4",
            "x (+) 0", "x",
        )
        assert code == 1
        assert "<0,1/2>" in out

    def test_usage_error_exits_two(self, capsys):
        code, _, err = run(capsys, "check-eq", "--model", "pentagon", "x", "x")
        assert code == 2
        assert "error" in err

    def test_bad_formula_exits_two(self, capsys):
        code, _, err = run(capsys, "check-eq", "--model", "square", "x (+)", "x")
        assert code == 2

    def test_closed_stdout_exits_141_quietly(self):
        # the read end is closed before the process starts, so the first
        # write to stdout fails, as when a reader such as ``head`` has quit
        read, write = os.pipe()
        os.close(read)
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sqmv.cli", "check-eq", "--model", "square",
                 "--strategy", "grid:2", "x (+) y", "y (+) x"],
                stdout=write, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
                timeout=120,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_proof_accept_reject_io(self, capsys, tmp_path):
        good = FIXTURES / "derived" / "05_refl.sqlp"
        code, out, _ = run(capsys, "check-proof", str(good))
        assert code == 0 and out.startswith("ACCEPT")
        bad = tmp_path / "bad.sqlp"
        bad.write_text(good.read_text().replace("AX Q3", "AX Q2", 1))
        code, out, _ = run(capsys, "check-proof", str(bad))
        assert code == 1 and out.startswith("REJECT")
        code, _, err = run(capsys, "check-proof", str(tmp_path / "absent.sqlp"))
        assert code == 2

    def test_audit_pass_and_fail(self, capsys):
        code, out, _ = run(
            capsys, "audit-axioms", "--model", "chain:1", "--strategy", "exhaustive"
        )
        assert code == 0
        assert "19/19 axioms pass" in out
        code, out, _ = run(
            capsys, "audit-axioms", "--model", "flatten:chain:1:0",
            "--strategy", "exhaustive",
        )
        assert code == 0  # flattenings satisfy the quasi + strong battery


class TestDeterminism:
    @pytest.mark.parametrize("argv", cli_transcript.DETERMINISM_ARGV)
    def test_identical_invocations_identical_bytes(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


README_EXAMPLES = cli_transcript.readme_examples()


@pytest.mark.parametrize("command, comment", README_EXAMPLES,
                         ids=[f"{i}-{c.split()[1]}" for i, (c, _) in enumerate(README_EXAMPLES)])
def test_readme_example_behaves_as_documented(command, comment):
    # the exit code is the one the line's "# exit N" comment gives, else 0
    result = cli_transcript.run(command)
    expected = int(re.match(r"exit (\d+)", comment).group(1)) if comment else 0
    assert (result["exit"], result["stderr"]) == (expected, ""), result
    if "grid:4" in command:
        assert "  x = <0,1/2>\n" in result["stdout"]


def test_readme_has_every_example():
    assert len(README_EXAMPLES) == 11
    assert sum("grid:4" in command for command, _ in README_EXAMPLES) == 1
    assert sum(" | " in command for command, _ in README_EXAMPLES) == 1


class TestRejections:
    @pytest.mark.parametrize(
        "strategy", ["random:-5", "random:abc", "random:0", "grid:0", "grid:-3"]
    )
    def test_bad_strategy_exits_two(self, capsys, strategy):
        code, out, err = run(
            capsys, "check-eq", "--model", "square", "--strategy", strategy,
            "--", "x (+) y", "y (+) x",
        )
        assert (code, out) == (2, "")
        assert f"error: strategy '{strategy}'" in err

    def test_oversized_random_request_exits_two_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "check-eq", "--model", "square", "--strategy", "random:2000000",
            "--", "x (+) y (+) z", "z (+) y (+) x",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("error: strategy 'random:2000000' over 3 variables draws "
                       "6000000 values; at most 4000000 are drawn\n")

    @pytest.mark.parametrize(
        "model, strategy",
        [("interval", "random:1000"), ("interval", "grid:2"), ("chain:2", "exhaustive")],
    )
    @pytest.mark.parametrize("max_den", ["0", "-3", "5000000000000000000"])
    def test_bad_max_den_exits_two(self, capsys, max_den, model, strategy):
        # at 5e18 the numerator sums overflowed int64 and the valid equation
        # was reported as a disagreement with the exact evaluator; strategies
        # that ignore the value reject it too
        code, out, err = run(
            capsys, "check-eq", "--model", model, "--strategy", strategy,
            "--max-den", max_den, "--", "x^+ (+) x^+", "(x (+) x)^+",
        )
        assert (code, out) == (2, "")
        assert f"max denominator {max_den};" in err

    def test_oversized_exhaustive_sweep_exits_two(self, capsys):
        # 401**4 valuations, refused before any array is allocated
        code, out, err = run(
            capsys, "check-eq", "--model", "chain:200", "--strategy", "exhaustive",
            "x (+) (y (+) (z (+) w))", "((x (+) y) (+) z) (+) w",
        )
        assert (code, out) == (2, "")
        assert "exhaustive sweep of 25856961601 valuations on chain:200" in err

    def test_oversized_random_sampling_exits_two(self, capsys):
        # 10**9 samples of two variables would take 7.45 GiB; refused before
        # anything is drawn
        code, out, err = run(
            capsys, "check-eq", "--model", "square", "--strategy", "random:1000000000",
            "--", "x (+) y", "y (+) x",
        )
        assert (code, out) == (2, "")
        assert "error: strategy 'random:1000000000' needs a sample count in 1..2000000" in err

    @pytest.mark.parametrize("argv, strategy", [
        (("check-eq", "--model", "square", "--strategy", "random:10", "x", "x"),
         "random:10"),
        (("check-eq", "--model", "chain:2", "--strategy", "random:10", "x", "x"),
         "random:10"),
        (("check-eq", "--model", "square", "x", "x"), "random:10000"),
        (("check-entail", "--model", "square@w", "--strategy", "random:10", "p"),
         "random:10"),
        (("audit-axioms", "--model", "interval"), "random:10000"),
    ], ids=["random", "random-finite", "default", "check-entail", "audit-axioms"])
    def test_negative_seed_for_random_sampling_exits_two(self, capsys, argv, strategy):
        # numpy refused the seed with a ValueError traceback and exit 3
        code, out, err = run(capsys, *argv[:3], "--seed", "-1", *argv[3:])
        assert (code, out) == (2, "")
        assert err == f"error: strategy '{strategy}' needs a non-negative seed, got -1\n"

    @pytest.mark.parametrize("model, strategy, verdict", [
        ("chain:2", "exhaustive", "VALID_EXHAUSTIVE"),
        ("square", "grid:2", "NO_COUNTEREXAMPLE_FOUND"),
    ])
    def test_strategies_without_sampling_ignore_a_negative_seed(
            self, capsys, model, strategy, verdict):
        code, out, _ = run(capsys, "check-eq", "--model", model, "--strategy", strategy,
                           "--seed", "-1", "x (+) y", "y (+) x")
        assert code == 0
        assert f"verdict: {verdict}" in out and "seed: -1" in out

    @pytest.mark.parametrize("prefix", ["P", "x y", "", "p->q", "1"])
    def test_lift_prefix_must_be_a_variable_name(self, capsys, prefix):
        # these lifted to scripts that check-proof could not parse or rejected,
        # and "1" to a proof under the constant prefix 1 -> 1
        code, out, err = run(capsys, "lift-proof", "--prefix", prefix,
                             str(FIXTURES / "lstar" / "ax_p4.sqlp"))
        assert (code, out) == (2, "")
        assert err == (f"error: ScriptError: lift prefix {prefix!r} is not a "
                       "variable name ([a-z][a-z0-9_]*)\n")

    @pytest.mark.parametrize("model, strategy, eq, code, out, err", [
        ("chain:20000", "exhaustive", "x", 2, "",
         "chain:20000 would have 40001 elements; finite models have at most 4096"),
        ("product:chain:100,chain:100", "exhaustive", "x", 2, "",
         "product:chain:100,chain:100 would have 40401 elements; "
         "finite models have at most 4096"),
        ("interval", "grid:1000000000", "x", 2, "",
         "grid of 2000000001 valuations is too large; lower the denominator"),
        ("square", "grid:1000000000", "x", 2, "",
         "grid of 6000000003 valuations is too large; lower the denominator"),
        ("disk", "grid:1000000000", "x", 2, "",
         "grid of 5464101615 valuations is too large; lower the denominator"),
        ("interval", "grid:1000000000", "0", 0,
         "verdict: NO_COUNTEREXAMPLE_FOUND\nsamples: 1\nstrategy: grid:1000000000\n"
         "seed: 0\n", None),
    ], ids=["chain:20000-40001", "product:chain:100,chain:100-40401", "grid-interval",
            "grid-square", "grid-disk", "grid-no-variables"])
    def test_oversized_finite_carrier_exits_two(self, model, strategy, eq, code, out, err):
        # the finite tables would take 5.96 and 12.2 GiB and the grids 2-6e9
        # points (an equation without variables needs none); under this
        # address-space limit building them ends in a MemoryError traceback
        def limit():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, hard))

        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sqmv.cli", "check-eq", "--model", model,
             "--strategy", strategy, eq, eq],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
            preexec_fn=limit, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (code, out)
        assert proc.stderr == ("" if err is None else f"error: {err}\n")

    def test_flattening_onto_a_zero_denominator_exits_two(self, capsys):
        # Fraction("1/0") raised ZeroDivisionError: a traceback and exit 3
        code, out, err = run(capsys, "classify", "--model", "flatten:chain:1:1/0")
        assert (code, out, err) == (2, "", "error: bad flattening element '1/0'\n")

    LONG_DECIMAL = "0." + "0" * 4299 + "1"
    EXPONENT = ": exponent notation is not accepted"

    @pytest.mark.parametrize("argv, err", [
        (["eval", "--model", "interval", "--let", "x=1e5000", "--", "x"],
         "cannot read element '1e5000'" + EXPONENT),
        (["eval", "--model", "square", "--let", "x=1e-5000,0", "--", "x"],
         "cannot read element '1e-5000'" + EXPONENT),
        (["classify", "--model", "flatten:chain:1:1e5000"],
         "bad flattening element '1e5000'" + EXPONENT),
        (["eval", "--model", "interval", "--let", f"x={LONG_DECIMAL}", "--", "x"],
         f"cannot read element {LONG_DECIMAL!r}"),
        (["eval", "--model", "square", "--let", f"x={LONG_DECIMAL},0", "--", "x"],
         f"cannot read element {LONG_DECIMAL!r}"),
        (["classify", "--model", f"flatten:chain:1:{LONG_DECIMAL}"],
         f"bad flattening element {LONG_DECIMAL!r}"),
        (["eval", "--model", "interval", "--let", "x=0." + "0" * 2999 + "1",
          "--let", f"y=1/{3**2800}", "--", "x (+) y"],
         "the value exceeds Python's integer digit limit"),
    ], ids=["interval", "square", "flatten", "long-interval", "long-square", "long-flatten",
            "long-sum"])
    def test_oversized_literal_exits_two(self, capsys, argv, err):
        # Fraction computed 10**5000 in full (Fraction("1e10000000") took
        # 14.6 s); printing such an element, or one whose denominator
        # 10**4300 has more digits than Python prints, ended in a ValueError
        # traceback and exit 3; so did a sum of two printable literals whose
        # denominator 10**3000 * 3**2800 has 4336 digits
        start = time.perf_counter()
        code, out, text = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out, text) == (2, "", f"error: {err}\n")

    def test_largest_finite_carriers_still_build(self):
        assert len(finite_chain(2047).elements) == 4095
        chain = finite_chain(31)
        assert len(product(chain, chain).elements) == 3969

    @pytest.mark.parametrize("model", ["interval", "disk"])
    def test_largest_max_den_stays_exact(self, capsys, model):
        code, out, _ = run(
            capsys, "check-eq", "--model", model, "--strategy", "random:5000",
            "--max-den", str(2**31), "--", "x^+ (+) x^+", "(x (+) x)^+",
        )
        assert code == 0
        assert "NO_COUNTEREXAMPLE_FOUND" in out


class TestVerbs:
    def test_check_proof_verbose(self, capsys, tmp_path):
        path = tmp_path / "mixed.sqlp"
        path.write_text(
            "system: sqL*\n"
            "hyp: p -> q\n"
            "1. p -> q ; HYP 1\n"
            "2. (r -> r) -> (p -> q) ; RULE Reg 1\n"
            "3. ~q -> ~p ; LEM contra 1\n"
            "4. ((q -> q) -> p) -> p ; AX Q3\n"
        )
        assert run(capsys, "check-proof", "--verbose", str(path)) == (0, (
            "ACCEPT (4 lines)\n"
            "  line 1: ok hypothesis 1\n"
            "  line 2: ok rule Reg\n"
            "  line 3: ok lemma contra\n"
            "  line 4: ok Q3 RL\n"
        ), "")

    def test_parse_tree(self, capsys):
        code, out, _ = run(capsys, "parse", "--sig", "mv", "-(p (+) q)")
        assert code == 0
        assert out.splitlines()[0] == "UMinus"

    def test_parse_json(self, capsys):
        code, out, _ = run(capsys, "parse", "--sig", "w", "--json", "p -> 1")
        tree = json.loads(out)
        assert tree["node"] == "Impl"

    def test_print_normalises(self, capsys):
        code, out, _ = run(capsys, "print", "--sig", "w", "((p)) -> (q -> r)")
        assert out.strip() == "p -> q -> r"

    def test_eval(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", "square", "--let", "x=3/10,1/2", "x (+) 0"
        )
        assert code == 0
        assert out.strip() == "<3/10,0>"

    def test_eval_finite(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--model", "chain:2", "--let", "x=1/2", "x (+) x"
        )
        assert out.strip() == "1"

    def test_translate_round(self, capsys):
        code, out, _ = run(capsys, "translate", "--to", "w", "p (+) q")
        assert out.strip() == "~p -> q"
        code, out, _ = run(capsys, "translate", "--to", "mv", "~p -> q")
        assert out.strip() == "--p (+) q"

    def test_check_entail_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "check-entail", "--model", "square@w", "--strategy", "random:200",
            "--json", "--premise", "p", "p",
        )
        payload = json.loads(out)
        assert set(payload) == {"verdict", "samples", "seed", "witness"}
        assert payload["witness"] is None

    def test_classify_tables(self, capsys):
        code, out, _ = run(capsys, "classify", "--model", "chain:1", "--tables")
        assert "oplus -1 1 -> 0" in out

    def test_fixtures_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SQMV_FIXTURES", str(FIXTURES))
        code, out, _ = run(capsys, "check-proof", "derived/03_chain.sqlp")
        assert code == 0

    def test_lift_output_checks(self, capsys):
        code, out, _ = run(capsys, "lift-proof", str(FIXTURES / "lstar" / "rule_r1.sqlp"))
        assert code == 0
        lifted = parse_script(out)
        assert check_proof(lifted, standard_registry()).accepted

    @pytest.mark.parametrize("prefix", ["p", "x1", "r_2"])
    def test_lift_prefix_variables_check(self, capsys, prefix):
        code, out, _ = run(capsys, "lift-proof", "--prefix", prefix,
                           str(FIXTURES / "lstar" / "rule_r1.sqlp"))
        assert code == 0
        lifted = parse_script(out)
        assert lifted.conclusion.left.left == Var(prefix)
        assert check_proof(lifted, standard_registry()).accepted

    def test_deregularize_pipeline(self, capsys, tmp_path):
        code, out, _ = run(capsys, "lift-proof", str(FIXTURES / "lstar" / "ax_p4.sqlp"))
        assert code == 0
        lifted_path = tmp_path / "lifted.sqlp"
        lifted_path.write_text(out)
        code, out, _ = run(capsys, "deregularize", str(lifted_path))
        assert code == 0
        assert out.splitlines()[-1].endswith("RULE AReg1 2")


def fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports sqmv from ``src/``, and
    return the JSON object it prints last."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


# sqmv.__all__ at the commit that made the package attributes lazy, less the
# since deleted Schema
PUBLIC_NAMES = [
    "CheckReport", "Const0", "Const1", "Exhaustive", "Grid", "Impl", "Neg",
    "NegPart", "OPlus", "PosPart", "RandomSampling", "Sig", "Term",
    "UMinus", "Var", "Verdict", "axioms", "check_entailment", "check_equation",
    "classify", "count_connective", "designated_set", "evaluate",
    "expand_abbreviations", "is_regular", "match_schema", "models",
    "mv_to_w_model", "mv_to_w_term", "parse", "parse_iff", "print_term",
    "resolve", "search_countermodel", "semantics", "substitute", "syntax",
    "transform", "w_to_mv_model", "w_to_mv_term",
]


class TestImportSplit:
    @pytest.mark.parametrize(
        "argv, proofkit",
        [
            (["parse", "--sig", "w", "--json", "p -> ~q"], False),
            (["print", "--sig", "mv", "((p)) (+) -q"], False),
            (["translate", "--to", "w", "p (+) 0"], False),
            (["translate", "--to", "mv", "~p -> q"], False),
            (["check-proof", str(FIXTURES / "derived" / "05_refl.sqlp")], True),
            (["lift-proof", str(FIXTURES / "lstar" / "rule_r1.sqlp")], True),
            (["deregularize", "{lifted}"], True),
        ],
        ids=["parse", "print", "translate-w", "translate-mv", "check-proof",
             "lift-proof", "deregularize"],
    )
    def test_verb_starts_without_numpy(self, capsys, tmp_path, argv, proofkit):
        # deregularize needs an sqL* proof with a reflexive prefix: lift one
        code, out, _ = run(capsys, "lift-proof", str(FIXTURES / "lstar" / "ax_p4.sqlp"))
        assert code == 0
        lifted = tmp_path / "lifted.sqlp"
        lifted.write_text(out)
        argv = [a.format(lifted=lifted) for a in argv]
        probe = fresh(
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "from sqmv.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(json.dumps({'code': code, 'loaded': sorted(sys.modules)}))\n"
        )
        assert probe["code"] == 0
        loaded = set(probe["loaded"])
        assert not loaded & {"numpy", "sqmv.models", "sqmv.semantics", "sqmv.axioms",
                             "sqmv.transform"}
        assert ("sqmv.proofkit" in loaded) is proofkit

    def test_model_verb_still_loads_numpy(self):
        probe = fresh(
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "from sqmv.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    code = main(['eval', '--model', 'chain:2', '--let', 'x=1/2', 'x (+) x'])\n"
            "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))\n"
        )
        assert probe == {"code": 0, "numpy": True}

    def test_multi_block_sweeps_load_no_thread_pool(self):
        # the 141**3 valuations of this sweep are 11 blocks, evaluated one
        # after another on the calling thread
        probe = fresh(
            "import io, json, sys\n"
            "from contextlib import redirect_stdout\n"
            "from sqmv.cli import main\n"
            "with redirect_stdout(io.StringIO()):\n"
            "    code = main(['check-eq', '--model', 'chain:70', '--strategy', 'exhaustive',"
            " 'x (+) (y (+) z)', '(z (+) y) (+) x'])\n"
            "print(json.dumps({'code': code, 'pool': 'concurrent.futures' in sys.modules}))\n"
        )
        assert probe == {"code": 0, "pool": False}

    @pytest.mark.parametrize("module", ["sqmv", "sqmv.syntax", "sqmv.proofkit"])
    def test_import_loads_no_numpy(self, module):
        probe = fresh(
            f"import json, sys, {module}\n"
            "print(json.dumps({'numpy': 'numpy' in sys.modules,"
            " 'models': 'sqmv.models' in sys.modules}))\n"
        )
        assert probe == {"numpy": False, "models": False}

    def test_public_names_resolve(self):
        probe = fresh(
            "import json, sys, types, sqmv\n"
            "names = sorted(sqmv.__all__)\n"
            "homes = {}\n"
            "for n in names:\n"
            "    v = getattr(sqmv, n)\n"
            "    homes[n] = v.__name__ if isinstance(v, types.ModuleType) else v.__module__\n"
            "print(json.dumps({'names': names, 'homes': homes}))\n"
        )
        assert probe["names"] == PUBLIC_NAMES
        for name, home in probe["homes"].items():
            assert home.startswith("sqmv."), name
        assert probe["homes"]["models"] == "sqmv.models"
        assert probe["homes"]["mv_to_w_term"] == "sqmv.syntax"
        assert probe["homes"]["check_equation"] == "sqmv.semantics"

    def test_star_import_and_submodules(self):
        probe = fresh(
            "import json\n"
            "from sqmv import *\n"
            "from sqmv import corpus, parse, check_equation\n"
            "import sqmv, sqmv.transform as tr, sqmv.syntax as sx\n"
            "names = set(sqmv.__all__)\n"
            "print(json.dumps({\n"
            "    'missing': sorted(names - set(globals())),\n"
            "    'corpus': corpus.__name__,\n"
            "    'same': parse is sx.parse and tr.mv_to_w_term is sx.mv_to_w_term\n"
            "            and check_equation is sqmv.semantics.check_equation,\n"
            "}))\n"
        )
        assert probe == {"missing": [], "corpus": "sqmv.corpus", "same": True}

    def test_unknown_name_raises_attribute_error(self):
        import sqmv

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            sqmv.no_such_name
        assert not hasattr(sqmv, "numpy")
        with pytest.raises(ImportError):
            from sqmv import no_such_name  # noqa: F401


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "exc, text",
        [
            (CliError("no models given"), "no models given"),
            (FormulaError("bad formula"), "bad formula"),
            (ModelError("bad model"), "bad model"),
            (SemanticsError("bad check"), "bad check"),
            (OSError("disk gone"), "disk gone"),
            (ScriptError("line 1: odd"), "ScriptError: line 1: odd"),
            (CertificationFailed("twice"), "CertificationFailed: twice"),
            (UnknownAxiom("Q0"), "UnknownAxiom: Q0"),
            (PathMismatch("nowhere"), "PathMismatch: nowhere"),
            (NotRegular("~p"), "NotRegular: ~p"),
            (SourceProofInvalid("not L*"), "SourceProofInvalid: not L*"),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else "",
    )
    def test_sqmv_errors_exit_two(self, capsys, monkeypatch, exc, text):
        assert isinstance(exc, (SqmvError, OSError))

        def verb(args):
            raise exc

        monkeypatch.setattr(sqmv.cli, "cmd_print", verb)
        code, out, err = run(capsys, "print", "p")
        assert (code, out, err) == (2, "", f"error: {text}\n")

    @pytest.mark.parametrize("exc", [TypeError("bad operand"), KeyError("oplus")])
    def test_programming_error_exits_three_with_traceback(self, capsys, monkeypatch, exc):
        def verb(args):
            raise exc

        monkeypatch.setattr(sqmv.cli, "cmd_translate", verb)
        code, out, err = run(capsys, "translate", "--to", "w", "p")
        assert (code, out) == (3, "")
        assert err.startswith("Traceback (most recent call last):")
        assert err.rstrip().splitlines()[-1] == f"{type(exc).__name__}: {exc}"

    def test_natural_errors_keep_their_text(self, capsys, tmp_path):
        cases = [
            (("check-eq", "--model", "pentagon", "x", "x"), "error: unknown model"),
            (("translate", "--to", "w", "p -> q"), "error: '->' is not part"),
            (("eval", "--model", "square", "x"), "error: variable 'x' is not bound"),
            (("eval", "--model", "chain:1", "--let", "=1", "--let", "x=0", "x"),
             "error: bindings look like x=1/2 or x=1/2,0 (got '=1')"),
            (("classify", "--model", "square"), "error: classification sweeps require"),
            (("check-proof", str(tmp_path / "absent.sqlp")), "error: no such proof script"),
            (("check-proof", str(tmp_path)), "error: [Errno 21] Is a directory"),
            (("deregularize", str(FIXTURES / "derived" / "05_refl.sqlp")),
             "error: SourceProofInvalid: conclusion does not carry a reflexive prefix"),
        ]
        for argv, start in cases:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(start), (argv, err)

    @pytest.mark.parametrize("argv, text", [
        (("check-entail", "--model", "square", "p"),
         "entailment needs a Wajsberg view; pick a model with @w"),
        (("find-countermodel", "--models", ",", "x", "x"), "no models given"),
        (("find-countermodel", "--models", "chain:1, ", "x", "x"),
         "empty model name in 'chain:1, '"),
        (("classify", "--model", "chain:0"), "chain parameter must be >= 1"),
        (("classify", "--model", "flatten:chain:1:new"),
         "minus has a fixpoint over the regular part; flatten onto it (e.g. 0) "
         "instead of adjoining a fresh element"),
    ], ids=["entail-on-mv", "no-models", "empty-last-member", "chain-0", "flatten-new"])
    def test_refusals_keep_their_text(self, capsys, argv, text):
        assert run(capsys, *argv) == (2, "", f"error: {text}\n")

    def test_a_parenthesised_product_is_one_family_member(self, capsys):
        # the commas inside the parentheses do not cut the list
        code, out, err = run(capsys, "find-countermodel", "--models",
                             "chain:2,(product:chain:1,flatten:chain:1:0)", "x (+) y", "y (+) x")
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == [
            "verdict: NO_COUNTEREXAMPLE_FOUND", "samples: 106",
            "strategy: chain:2:exhaustive+product:chain:1,flatten:chain:1:0:exhaustive"]

    def test_zero_denominator_in_let(self, capsys):
        code, out, err = run(capsys, "eval", "--model", "square", "--let", "x=1/0,0", "--", "x")
        assert (code, out, err) == (2, "", "error: cannot read element '1/0'\n")

    @pytest.mark.parametrize("argv, code, out, err", [
        (argv, *want) for argv, want in zip(cli_transcript.READER_ARGV, [
            (2, "", "error: cannot split product operands in 'chain:1'\n"),
            # product operands split at the first top-level comma
            (2, "", "error: bad chain size in 'chain:1,chain:1'\n"),
            (2, "", "error: square@w is already in the implicational signature\n"),
            (2, "", "error: flatten needs a base and an element: 'flatten:0'\n"),
            (2, "", "error: flattening is available for finite bases only\n"),
            (2, "", "error: product is available for finite factors only\n"),
            (2, "", "error: k* is not in the carrier of chain:2\n"),
            (0, "<<1,0>,<-1,0>>\n", ""),
            (2, "", "error: classification sweeps require a finite carrier\n"),
            # the element is read before the base is asked to flatten
            (2, "", "error: bad flattening element 'abc'\n"),
            (2, "", "error: cannot read element '<1,0'\n"),
            (2, "", "error: bindings look like x=1/2 or x=1/2,0 (got 'x y=1')\n"),
            (2, "", "error: variable 'x' is bound twice\n"),
            # the product, searched first, refutes x (+) 0 = x
            (1, "verdict: COUNTERMODEL\nsamples: 1\n"
                "strategy: product:chain:1,flatten:chain:1:0:exhaustive\nseed: 0\n"
                "model: product:chain:1,flatten:chain:1:0\n"
                "  x = <-1,-1>\n  lhs = <-1,0>\n  rhs = <-1,-1>\n", ""),
            (2, "", "error: empty model name in 'chain:1,,square'\n"),
        ], strict=True)
    ], ids=["product-unsplit", "product-first-comma", "w-twice", "flatten-no-base",
            "flatten-standard", "product-standard", "adjoined-not-in-chain", "nested-tuple",
            "classify-standard", "flatten-standard-bad-element", "unbalanced-element",
            "binding-not-a-name", "binding-repeated", "models-parenthesised-product",
            "models-empty-member"])
    def test_catalog_names_and_element_literals(self, capsys, argv, code, out, err):
        assert run(capsys, *argv) == (code, out, err)

    def test_undecodable_script_exits_two(self, capsys, tmp_path):
        path = tmp_path / "binary.sqlp"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check-proof", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot decode proof script {path}: 'utf-8' codec")

    def test_script_with_a_byte_order_mark_accepts(self, capsys, tmp_path):
        path = tmp_path / "bom.sqlp"
        path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "derived" / "05_refl.sqlp").read_bytes())
        assert run(capsys, "check-proof", str(path)) == (0, "ACCEPT (4 lines)\n", "")

    @pytest.mark.parametrize("verb", ["parse", "print"])
    def test_deep_nesting_exits_two(self, capsys, verb):
        code, out, err = run(capsys, verb, "(" * 1000 + "x" + ")" * 1000)
        assert (code, out, err) == (2, "", "error: formula nests too deeply\n")

    def test_deep_chain_evaluates(self, capsys):
        # three times the default recursion limit: parsed, folded and re-checked
        code, out, err = run(capsys, "eval", "--model", "chain:1@w", "--let", "x=1", "~" * 3000 + "x")
        assert (code, out, err) == (0, "1\n", "")
        code, out, err = run(capsys, "check-eq", "--model", "chain:1@w", "~" * 3001 + "x", "x")
        assert (code, out, err) == (1, "verdict: COUNTERMODEL\nsamples: 1\nstrategy: exhaustive\n"
                                    "seed: 0\nmodel: chain:1@w\n  x = -1\n  lhs = 1\n  rhs = -1\n", "")

    def test_deep_chain_parses(self, capsys):
        # the tree as text, by an explicit stack, and as JSON, by a fold
        text = "~" * 3000 + "x"
        code, out, err = run(capsys, "parse", "--sig", "w", text)
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 3001)
        assert lines[0] == "Neg" and lines[-1] == "  " * 3000 + "Var x"
        code, out, err = run(capsys, "parse", "--sig", "w", "--json", text)
        want = '{"children": [' * 3000 + '{"name": "x", "node": "Var"}' + '], "node": "Neg"}' * 3000
        assert (code, out, err) == (0, want + "\n", "")

    def test_long_left_nested_sum_prints_and_translates(self, capsys):
        # 800 levels deep: printed and translated by folds, not by recursion
        text = " (+) ".join(["x"] * 800)
        code, out, err = run(capsys, "print", text)
        assert (code, out, err) == (0, text + "\n", "") and len(out) == 4796
        code, out, err = run(capsys, "translate", "--to", "w", text)
        want = "~(" * 798 + "~x -> x" + ") -> x" * 798 + "\n"
        assert (code, out, err) == (0, want, "") and len(out) == 6392

    def test_moderate_nesting_still_prints(self, capsys):
        code, out, _ = run(capsys, "print", "(" * 150 + "x" + ")" * 150)
        assert (code, out) == (0, "x\n")
