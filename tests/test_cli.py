import json
import pathlib

import pytest

from sqmv.cli import main
from sqmv.proofkit import check_proof, parse_script, standard_registry

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "src" / "sqmv" / "fixtures"


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
    @pytest.mark.parametrize(
        "argv",
        [
            ("check-eq", "--model", "square", "--strategy", "random:2000",
             "--seed", "11", "--json", "x (+) y", "-(-x (+) -y)"),
            ("check-entail", "--model", "square@w", "--strategy", "random:1000",
             "--seed", "3", "--json", "--premise", "p", "(x -> x) -> p"),
            ("find-countermodel", "--models", "chain:1,chain:2,square",
             "--strategy", "random:500", "--seed", "5", "--json", "x (+) 1", "1"),
            ("classify", "--model", "ex32-grid", "--json"),
            ("audit-axioms", "--model", "disk", "--strategy", "random:500", "--seed", "1"),
        ],
    )
    def test_identical_invocations_identical_bytes(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2


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

    @pytest.mark.parametrize("model", ["interval", "disk"])
    def test_largest_max_den_stays_exact(self, capsys, model):
        code, out, _ = run(
            capsys, "check-eq", "--model", model, "--strategy", "random:5000",
            "--max-den", str(2**31), "--", "x^+ (+) x^+", "(x (+) x)^+",
        )
        assert code == 0
        assert "NO_COUNTEREXAMPLE_FOUND" in out


class TestVerbs:
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

    def test_deregularize_pipeline(self, capsys, tmp_path):
        code, out, _ = run(capsys, "lift-proof", str(FIXTURES / "lstar" / "ax_p4.sqlp"))
        assert code == 0
        lifted_path = tmp_path / "lifted.sqlp"
        lifted_path.write_text(out)
        code, out, _ = run(capsys, "deregularize", str(lifted_path))
        assert code == 0
        assert out.splitlines()[-1].endswith("RULE AReg1 2")
