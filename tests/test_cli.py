import json
import subprocess
import sys
from pathlib import Path

import pytest

from skpval import GF, QQ, SchemaError
from skpval.cli import run_command

from conftest import count_calls

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = run_command([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert err == ""  # the report is the only output
    return code, json.loads(out)


class TestEval:
    def test_golden_value(self, capsys):
        code, report = run(
            capsys, "eval", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X1^2-X0^3",
        )
        assert code == 0
        assert report["status"] == "ok"
        assert report["result"]["value"] == ["9"]
        assert report["result"]["value_str"] == "9"

    def test_alpha_restriction(self, capsys):
        code, report = run(
            capsys, "eval", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X1^2", "--alpha", "1,2",
        )
        assert code == 0
        assert report["result"]["value"] == ["6"]

    @pytest.mark.parametrize("alpha", [(), ("--alpha", "1,2")])
    def test_one_context_derives_its_rules_once(self, capsys, monkeypatch, alpha):
        # the --alpha text is normalized and gated by the one context built
        calls = count_calls(monkeypatch, "rewrite_rules", "normalize_alpha")
        code, _ = run(
            capsys, "eval", "--skp", DATA / "remark_diffskp.json", "--poly", "X1^2", *alpha
        )
        assert code == 0
        assert calls == {"rewrite_rules": 1, "normalize_alpha": 1}

    def test_bad_poly_is_malformed_input(self, capsys):
        code, report = run(
            capsys, "eval", "--skp", DATA / "remark_diffskp.json", "--poly", "X9+",
        )
        assert code == 2
        assert report["status"] == "error"
        assert report["diagnostics"]

    def test_truncated_key_polynomial(self, capsys, tmp_path):
        # at cutoff 1, U_{1,2} = X1^2 - X0^3 is 0: the table is refused by
        # name (exit 1), but a bad --poly is still reported first (exit 2)
        problem = json.loads((DATA / "remark_diffskp.json").read_text())
        path = tmp_path / "cutoff_1.json"
        path.write_text(json.dumps(dict(problem, cutoff=1)))
        code, report = run(capsys, "eval", "--skp", path, "--poly", "X1")
        assert code == 1
        assert report["diagnostics"] == [
            {"kind": "ZeroPoly", "message": "key polynomial U_{1,2} is 0 under cutoff 1"}
        ]
        code, report = run(capsys, "eval", "--skp", path, "--poly", "X9+")
        assert code == 2
        assert [d["kind"] for d in report["diagnostics"]] == ["schema"]

    def test_deep_nesting_is_malformed_input(self, capsys):
        code, report = run(
            capsys, "eval", "--skp", DATA / "remark_diffskp.json",
            "--poly", "(" * 300 + "X0" + ")" * 300,
        )
        assert code == 2
        assert report["status"] == "error"
        assert [d["kind"] for d in report["diagnostics"]] == ["schema"]

    def test_moderate_nesting_still_parses(self, capsys):
        code, report = run(
            capsys, "eval", "--skp", DATA / "remark_diffskp.json",
            "--poly", "(" * 50 + "X0" + ")" * 50,
        )
        assert code == 0
        assert report["result"]["value"] == ["2"]


class TestValidate:
    def test_ok_table(self, capsys):
        code, report = run(capsys, "validate", DATA / "remark_diffskp.json")
        assert code == 0
        assert report["result"]["validation"]["sequence_of_values"]

    def test_empty_rows_schema_failure(self, capsys):
        code, report = run(capsys, "validate", DATA / "empty_rows.json")
        assert code == 2
        assert report["status"] == "error"

    def test_domain_failure(self, capsys):
        code, report = run(capsys, "validate", DATA / "bad_increase.json")
        assert code == 1
        assert report["status"] == "invalid"
        checks = report["result"]["validation"]["checks"]
        assert any(c["check"] == "increasing" and not c["ok"] for c in checks)

    @pytest.mark.parametrize(
        "dimension", [True, "1", 0, -1, 1.5],
        ids=["bool", "string", "zero", "negative", "float"],
    )
    def test_dimension_is_a_positive_integer(self, tmp_path, capsys, dimension):
        data = {"rows": [["2"], ["3", "7"]], "dimension": dimension}
        code, report = run(capsys, "validate", write_problem(tmp_path, data))
        assert code == 2
        assert [d["kind"] for d in report["diagnostics"]] == ["schema"]
        assert report["diagnostics"][0]["message"].startswith("bad dimension ")

    def test_integral_dimension(self, tmp_path, capsys):
        data = {"rows": [["2"], ["3", "7"]], "dimension": 1.0}
        code, report = run(capsys, "validate", write_problem(tmp_path, data))
        assert code == 0

    def test_deeply_nested_file_is_malformed_input(self, tmp_path, capsys):
        # the nesting sits under a key nothing reads
        path = tmp_path / "deep.json"
        path.write_text('{"rows": [["2"]], "x": ' + "[" * 2000 + "]" * 2000 + "}")
        code, report = run(capsys, "validate", path)
        assert code == 2
        assert report["status"] == "error"
        assert [d["kind"] for d in report["diagnostics"]] == ["schema"]

    def test_missing_file(self, capsys):
        code, report = run(capsys, "validate", DATA / "nope.json")
        assert code == 2


class TestBuild:
    def test_golden_polys(self, capsys):
        code, report = run(capsys, "build", DATA / "remark_diffskp.json")
        entries = report["result"]["skp"]["entries"]
        assert entries["1,2"]["poly"] == "X1^2 - X0^3"
        assert entries["1,3"]["poly"] == "X1^2 - X0^3*X1 - X0^3"
        assert entries["1,3"]["n"] == 1

    def test_limit_tail_unroll(self, capsys):
        code, report = run(capsys, "build", DATA / "example1_tail.json")
        assert code == 0
        entry = report["result"]["skp"]["entries"]["2,2"]
        assert entry["poly"] == "X2 - X0^3*X1^2 - X0^2*X1^2 - X0*X1^2"
        assert entry["unroll"]["stabilized"]

    def test_minimal_flag(self, capsys):
        code, report = run(capsys, "build", DATA / "remark_diffskp.json", "--minimal")
        reduced = report["result"]["minimal_pseudo"]["entries"]
        assert set(reduced) == {"0,1", "1,1", "1,2"}

    def test_theta_from_file(self, capsys):
        code, report = run(capsys, "build", DATA / "swapped_diffskp.json")
        entries = report["result"]["skp"]["entries"]
        assert entries["1,2"]["poly"] == "X1^3 - X0^2"
        assert entries["1,3"]["poly"] == "X1^3 + X0^3 - X0^2"

    def test_rational_values_from_file(self, capsys):
        code, report = run(
            capsys, "eval", "--skp", DATA / "example2.json", "--poly", "X1^2",
        )
        assert report["result"]["value"] == ["1"]


class TestExpandAndForms:
    def test_expand(self, capsys):
        code, report = run(
            capsys, "expand", DATA / "remark_diffskp.json",
            "--poly", "X1^2", "--alpha", "1,3",
        )
        assert code == 0
        # sorted by the per-variable degree vector, lexicographically
        assert report["result"]["expansion"] == [
            {"coeff": "1", "exponents": {"1,3": 1}},
            {"coeff": "1", "exponents": {"0,1": 3}},
            {"coeff": "1", "exponents": {"0,1": 3, "1,1": 1}},
        ]

    def test_initial(self, capsys):
        code, report = run(
            capsys, "initial", "--skp", DATA / "remark_diffskp.json", "--poly", "X1^2",
        )
        assert report["result"]["initial_form"] == [
            {"coeff": "1", "exponents": {"0,1": 3}}
        ]

    def test_delta(self, capsys):
        code, report = run(
            capsys, "delta", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X1^2-X0^3", "--j", "2",
        )
        assert report["result"]["delta"] == 1

    def test_normal_form(self, capsys):
        code, report = run(
            capsys, "normal-form", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X0^2",
        )
        assert code == 0
        assert report["result"]["normal_form"]["J"] == {"0,1": 2}


class TestClassify:
    def test_table_lookup(self, capsys):
        code, report = run(capsys, "classify", DATA / "classify_vii.json")
        got = report["result"]["classification"]
        assert (got["rk"], got["r_rk"], got["tr_deg"]) == (3, 3, 0)
        assert got["table1_row"] == "VII_1"
        assert got["abhyankar"]

    def test_inductive_on_skp(self, capsys):
        code, report = run(capsys, "classify", DATA / "remark_diffskp.json")
        got = report["result"]["invariants"]
        assert (got["rk"], got["r_rk"], got["tr_deg"]) == (1, 1, 1)


class TestRealize:
    def test_corrected_with_verify(self, capsys):
        code, report = run(
            capsys, "realize", "--mode", "corrected", "--verify",
            "--samples", "40", DATA / "gamma_4_6_13.json",
        )
        assert code == 0
        payload = report["result"]["realization"]
        assert payload["verification"]["passed"]
        assert payload["blocks"]["blocks"] == [[1], [2, 3]]

    def test_literal_rejected(self, capsys):
        code, report = run(
            capsys, "realize", "--mode", "literal", DATA / "gamma_4_6_13.json",
        )
        assert code == 1
        assert report["status"] == "invalid"
        validation = report["diagnostics"][0]["validation"]
        bad = [
            c for c in validation["checks"]
            if c["check"] == "interior-finite" and not c["ok"]
        ]
        assert [c["index"] for c in bad] == ["1,1"]

    def test_verify_subcommand(self, capsys):
        code, report = run(
            capsys, "verify", "--samples", "30", DATA / "free_pair.json",
        )
        assert code == 0
        assert report["result"]["realization"]["verification"]["passed"]

    def test_verify_has_no_verify_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_command(["verify", "--verify", str(DATA / "free_pair.json")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: skpval")
        assert "unrecognized arguments: --verify" in captured.err

    def test_realize_verify_is_the_verify_command(self, capsys):
        argv = ["--samples", "20", DATA / "free_pair.json"]
        code, realized = run(capsys, "realize", "--verify", *argv)
        assert code == 0
        _, verified = run(capsys, "verify", *argv)
        assert realized["result"] == verified["result"]
        _, plain = run(capsys, "realize", *argv)
        assert "verification" not in plain["result"]["realization"]

    def test_repeated_limit_label_refused(self, tmp_path, capsys):
        # one generator takes one label: [3, 3] would label position 3 twice
        path = problem_with(
            tmp_path, "gamma_4_6_13.json", lambda d: d.update(limit_labels=[3, 3])
        )
        assert_schema_error(capsys, "realize", path)
        code, report = run(capsys, "realize", path)
        assert "repeat" in report["diagnostics"][0]["message"]

    def test_non_minimal_generator_reported(self, tmp_path, capsys):
        path = tmp_path / "one_ten.json"
        path.write_text(json.dumps({"kind": "realize", "generators": [["1"], ["10"]]}))
        code, report = run(capsys, "realize", path)
        assert code == 0
        analysis = report["result"]["realization"]["analysis"]
        assert analysis["minimal"] == [True, False]
        assert analysis["ok"] is False
        assert "minimality_bound" not in analysis


class TestReportShape:
    def test_deterministic_bytes(self, capsys):
        argv = ["eval", "--skp", str(DATA / "remark_diffskp.json"), "--poly", "X1^2"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_digest_and_version(self, capsys):
        code, report = run(capsys, "validate", DATA / "remark_diffskp.json")
        assert report["input_digest"].startswith("sha256:")
        assert report["tool"] == "skpval"
        assert "version" in report

    def test_out_flag(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_command(
            ["--out", str(out), "validate", str(DATA / "remark_diffskp.json")]
        )
        assert code == 0
        assert json.loads(out.read_text())["status"] == "ok"

    @pytest.mark.parametrize(
        "target", ["missing/report.json", "."], ids=["missing-directory", "directory"]
    )
    def test_out_path_that_cannot_be_written(self, tmp_path, capsys, target):
        out = tmp_path / target
        code, report = run(capsys, "--out", out, "validate", DATA / "example2.json")
        assert code == 2
        assert report["status"] == "error"
        assert "result" not in report
        [diagnostic] = report["diagnostics"]
        assert diagnostic["kind"] == "schema"
        assert str(out) in diagnostic["message"]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "skpval.cli", "validate",
             str(DATA / "remark_diffskp.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "ok"

    def test_huge_relation_exponent_under_a_cutoff_builds(self, tmp_path):
        # the relation of U_{2,1} holds U_{0,1}^(10**30); under cutoff 5 every
        # product that holds it is 0, so the build ends at once.  The child
        # caps its own address space, so a build that lowers the exponent one
        # step at a time fails fast instead of filling memory.
        with open(DATA / "example1_tail.json") as fh:
            problem = json.load(fh)
        problem["values"]["rows"][2][0] = ["0", "2", str(10**30)]
        del problem["limit_tails"]
        path = tmp_path / "huge_relation.json"
        path.write_text(json.dumps(problem))
        child = (
            "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
            "from skpval.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, "build", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["status"] == "ok"

    def test_bad_alpha_is_malformed_input(self, capsys):
        code, report = run(
            capsys, "eval", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X1", "--alpha", "9,9",
        )
        assert code == 2
        assert report["diagnostics"][0]["kind"] == "schema"

    def test_bad_delta_cutoff(self, capsys):
        code, report = run(
            capsys, "delta", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X1", "--j", "7",
        )
        assert code == 2

    def test_seed_recorded(self, capsys):
        code, report = run(
            capsys, "--seed", "7", "verify", "--samples", "10",
            DATA / "free_pair.json",
        )
        assert report["seed"] == 7
        assert report["result"]["realization"]["verification"]["seed"] == 7

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--skp", "skp.json"], ["validate", "--no-such-flag", "t.json"]],
        ids=["missing-poly", "unknown-flag"],
    )
    def test_usage_error_exits_2_without_a_report(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_command(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: skpval")

    def test_jobs_environment_is_ignored(self, monkeypatch, capsys):
        monkeypatch.setenv("SKPVAL_JOBS", "abc")
        code, report = run(capsys, "validate", DATA / "example2.json")
        assert code == 0
        assert report["status"] == "ok"
        assert "jobs" not in report


def swapped_with(tmp_path, **changes):
    """swapped_diffskp.json with some top-level keys replaced, as a new file."""
    data = json.loads((DATA / "swapped_diffskp.json").read_text())
    data.update(changes)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return path


class TestProblemScalars:
    @pytest.mark.parametrize("theta", [1.5, True, None, [1]])
    def test_theta_of_wrong_type_is_malformed_input(self, tmp_path, capsys, theta):
        path = swapped_with(tmp_path, thetas={"1,1": theta})
        code, report = run(capsys, "build", path)
        assert code == 2
        assert report["status"] == "error"
        assert [d["kind"] for d in report["diagnostics"]] == ["schema"]

    def test_theta_outside_the_prime_field_is_malformed_input(self, tmp_path, capsys):
        path = swapped_with(tmp_path, field={"prime": 7}, thetas={"1,1": "1/7"})
        code, report = run(capsys, "build", path)
        assert code == 2
        assert report["status"] == "error"
        assert [d["kind"] for d in report["diagnostics"]] == ["schema"]
        path = swapped_with(tmp_path, field={"prime": 7}, thetas={})
        code, report = run(capsys, "eval", "--skp", path, "--poly", "1/7*X0")
        assert code == 2
        assert [d["kind"] for d in report["diagnostics"]] == ["schema"]

    def test_thetas_not_an_object_is_malformed_input(self, tmp_path, capsys):
        code, report = run(capsys, "build", swapped_with(tmp_path, thetas=[1]))
        assert code == 2
        assert [d["kind"] for d in report["diagnostics"]] == ["schema"]

    def test_theta_as_string_or_integer(self, tmp_path, capsys):
        _, by_text = run(capsys, "build", swapped_with(tmp_path, thetas={"1,2": "-1"}))
        _, by_int = run(capsys, "build", swapped_with(tmp_path, thetas={"1,2": -1}))
        assert by_text["result"] == by_int["result"]

    @pytest.mark.parametrize("cutoff", [2.5, True, False, -1, "3", [3]])
    def test_cutoff_of_wrong_type_is_malformed_input(self, tmp_path, capsys, cutoff):
        path = swapped_with(tmp_path, cutoff=cutoff)
        for argv in (["build", path], ["eval", "--skp", path, "--poly", "X0"]):
            code, report = run(capsys, *argv)
            assert code == 2
            assert report["status"] == "error"
            assert [d["kind"] for d in report["diagnostics"]] == ["schema"]


def problem_with(tmp_path, name, edit):
    """A tests/data problem changed in place by ``edit``, as a new file."""
    data = json.loads((DATA / name).read_text())
    edit(data)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return path


def assert_schema_error(capsys, *argv):
    code, report = run(capsys, *argv)
    assert code == 2
    assert report["status"] == "error"
    assert [d["kind"] for d in report["diagnostics"]] == ["schema"]


class TestProblemIntegers:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("samples", 2.5),
            ("samples", -1),
            ("coeff_bound", True),
            ("degree_bound", "6"),
            ("limit_labels", "1"),
            ("limit_labels", [1.5]),
            ("limit_labels", [True]),
            ("limit_labels", 0),
            ("limit_labels", False),
            ("limit_labels", ""),
        ],
        # fixed ids, so that a row keeps its name when another is removed
        ids=[
            "samples-2.5", "samples--1", "coeff_bound-True", "degree_bound-6",
            "limit_labels-1", "limit_labels-value6", "limit_labels-value7",
            "limit_labels-0", "limit_labels-false", "limit_labels-empty-string",
        ],
    )
    def test_semigroup_spec_integers(self, tmp_path, capsys, key, value):
        path = problem_with(tmp_path, "free_pair.json", lambda d: d.update({key: value}))
        assert_schema_error(capsys, "verify", path)

    @pytest.mark.parametrize("value", [12, None, "x"])
    def test_leftover_minimality_bound_is_ignored(self, tmp_path, capsys, value):
        # minimality is decided exactly, so the old bound no longer exists
        _, want = run(capsys, "verify", DATA / "free_pair.json")
        path = problem_with(
            tmp_path, "free_pair.json", lambda d: d.update(minimality_bound=value)
        )
        code, got = run(capsys, "verify", path)
        assert code == 0
        assert got["result"] == want["result"]

    def test_integral_numbers_are_integers(self, tmp_path, capsys):
        _, want = run(capsys, "verify", DATA / "free_pair.json")
        path = problem_with(
            tmp_path, "free_pair.json", lambda d: d.update(samples=100.0, coeff_bound=3.0)
        )
        code, got = run(capsys, "verify", path)
        assert code == 0
        assert got["result"] == want["result"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["values"].update(limit_labels={"2,2": 1.5}),
            lambda d: d["values"].update(limit_labels={"2,2": True}),
            lambda d: d["values"].update(limit_labels=[1]),
            lambda d: d["limit_tails"][0].update(depth=2.5),
            lambda d: d["limit_tails"][0].update(depth=False),
            lambda d: d["limit_tails"][0].update(row=True),
            lambda d: d["limit_tails"][0].update(at=2.5),
            lambda d: d["limit_tails"][0].update(exponents={"0,1": [1.5, 1]}),
            lambda d: d.update(limit_tails=True),
            lambda d: d.update(limit_tails=False),
            lambda d: d.update(limit_tails=1),
            lambda d: d.update(limit_tails=1.5),
            lambda d: d["limit_tails"][0].update(exponents=[["0,1", [1, 1]]]),
            lambda d: d["limit_tails"][0].update(exponents="0,1"),
            lambda d: d["values"].update(limit_labels=False),
            lambda d: d.update(thetas=False),
            lambda d: d.update(thetas=0),
            lambda d: d.update(thetas=""),
        ],
        ids=[
            "label-float", "label-bool", "labels-array", "depth-float",
            "depth-bool", "row-bool", "at-float", "exponent-float",
            "tails-bool", "tails-false", "tails-int", "tails-float", "exponents-array",
            "exponents-string", "labels-false", "thetas-false", "thetas-zero",
            "thetas-empty-string",
        ],
    )
    def test_table_and_tail_integers(self, tmp_path, capsys, edit):
        path = problem_with(tmp_path, "example1_tail.json", edit)
        assert_schema_error(capsys, "build", path)

    @pytest.mark.parametrize(
        "command, name, key",
        [
            ("build", "swapped_diffskp.json", "thetas"),
            ("build", "example1_tail.json", "limit_tails"),
            ("build", "example1_tail.json", "values.limit_labels"),
            ("verify", "free_pair.json", "limit_labels"),
            ("classify", "remark_diffskp.json", "declared_infinite_rows"),
        ],
    )
    def test_null_optional_field_is_absent(self, tmp_path, capsys, command, name, key):
        *outer, key = key.split(".")

        def target(data):
            return data[outer[0]] if outer else data

        absent = problem_with(tmp_path, name, lambda d: target(d).pop(key, None))
        code, want = run(capsys, command, absent)
        assert code == 0
        null = problem_with(tmp_path, name, lambda d: target(d).update({key: None}))
        code, got = run(capsys, command, null)
        assert code == 0
        assert got["result"] == want["result"]


class TestCommandLineBounds:
    @pytest.mark.parametrize(
        "flag, value", [("--coeff-bound", -1), ("--samples", -5), ("--degree-bound", -3)]
    )
    def test_negative_bound_is_malformed_input(self, capsys, flag, value):
        for command in ("verify", "realize"):
            assert_schema_error(capsys, command, DATA / "free_pair.json", flag, value)

    def test_zero_bounds_are_accepted(self, capsys):
        code, report = run(
            capsys, "verify", DATA / "free_pair.json",
            "--coeff-bound", 0, "--samples", 0, "--degree-bound", 0,
        )
        assert code == 0
        assert report["result"]["realization"]["verification"]["passed"]


class TestPrimeFields:
    def test_large_prime_builds_quickly(self, tmp_path, capsys):
        import time

        path = swapped_with(tmp_path, field={"prime": 1000000000000000003})
        start = time.perf_counter()
        code, report = run(capsys, "build", path)
        assert time.perf_counter() - start < 1
        assert code == 0
        assert report["status"] == "ok"

    @pytest.mark.parametrize("p", [2047, 1373653, 3215031751, 1000000000000000001])
    def test_composite_is_malformed_input(self, tmp_path, capsys, p):
        # 2047 = 23 * 89 passes the base-2 strong test; 1373653 fools bases 2
        # and 3, 3215031751 bases 2, 3, 5 and 7
        assert_schema_error(capsys, "build", swapped_with(tmp_path, field={"prime": p}))

    @pytest.mark.parametrize("p", [3317044064679887385961981, 10**30 + 57])
    def test_prime_beyond_the_exact_range_is_malformed_input(self, tmp_path, capsys, p):
        assert_schema_error(capsys, "build", swapped_with(tmp_path, field={"prime": p}))

    @pytest.mark.parametrize("p", [7.9, "7"])
    def test_non_integer_prime_is_malformed_input(self, tmp_path, capsys, p):
        # int() reads both as 7; a field is read by the integer rule of every
        # other problem integer
        assert_schema_error(capsys, "build", swapped_with(tmp_path, field={"prime": p}))


class TestZeroTailTheta:
    """A limit tail's theta that is 0 in the field is refused like a zero
    entry of "thetas": exit 1, kind ThetaZero, on every command that builds."""

    @pytest.mark.parametrize(
        "field, theta", [("Q", "0"), ({"prime": 7}, "7")], ids=["Q", "GF7"]
    )
    def test_refused(self, tmp_path, capsys, field, theta):
        def edit(data):
            data["field"] = field
            data["limit_tails"][0]["theta"] = theta

        path = problem_with(tmp_path, "example1_tail.json", edit)
        for argv in (["build", path], ["eval", "--skp", path, "--poly", "X2"]):
            code, report = run(capsys, *argv)
            assert code == 1, argv
            assert report["status"] == "invalid"
            assert report["diagnostics"] == [
                {"kind": "ThetaZero", "message": "limit tail theta at 2,2 is zero"}
            ]


class TestTailExponents:
    """A tail summand used with a negative exponent is malformed input,
    refused naming the tail and the unroll counter k; a tail that stops
    above the cutoff before an exponent turns negative still builds."""

    def test_negative_exponent_in_a_used_summand(self, tmp_path, capsys):
        def edit(data):
            data["limit_tails"][0]["exponents"] = {"0,1": [-1, 0], "1,1": [2, 1]}

        path = problem_with(tmp_path, "example1_tail.json", edit)
        for argv in (["build", path], ["eval", "--skp", path, "--poly", "X2"]):
            code, report = run(capsys, *argv)
            assert code == 2, argv
            assert report["diagnostics"] == [
                {
                    "kind": "schema",
                    "message": "limit tail at 2,2: summand k=0 has exponent -1 at 0,1",
                }
            ]

    def test_negative_exponent_at_a_later_summand(self, tmp_path, capsys):
        def edit(data):
            data["cutoff"] = 8
            data["limit_tails"][0]["exponents"] = {"0,1": [3, -1], "1,1": [0, 2]}

        path = problem_with(tmp_path, "example1_tail.json", edit)
        code, report = run(capsys, "build", path)
        assert code == 2
        assert report["diagnostics"][0]["message"] == (
            "limit tail at 2,2: summand k=4 has exponent -1 at 0,1"
        )

    def test_stops_before_the_exponent_turns_negative(self, tmp_path, capsys):
        def edit(data):
            data["limit_tails"][0]["exponents"] = {"0,1": [3, -1], "1,1": [0, 2]}

        path = problem_with(tmp_path, "example1_tail.json", edit)
        code, report = run(capsys, "build", path)
        assert code == 0
        unroll = report["result"]["skp"]["entries"]["2,2"]["unroll"]
        assert unroll == {"cutoff": 5, "stabilized": True, "summands_used": 3}


def write_problem(tmp_path, data):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return path


# U_{1,2} = U_{1,1}^2 - sum_k 5 * U_{0,1}^{3+k}: the rewrite of U_{1,1}^2 is by 5
TAIL_THETA_5 = {
    "kind": "skp",
    "values": {"rows": [["2"], ["3", "10", "21"]], "limit_labels": {"1,2": 1}},
    "limit_tails": [{"row": 1, "at": 2, "exponents": {"0,1": [3, 1]}, "theta": "5"}],
    "cutoff": 40,
}


class TestTailTheta:
    """The predecessor of a tail's entry rewrites by the tail's theta, so the
    graded normal form reduces by that theta, as the initial form does."""

    @pytest.mark.parametrize("field", ["Q", {"prime": 7}], ids=["Q", "GF7"])
    def test_normal_form_reduces_by_the_tail_theta(self, tmp_path, capsys, field):
        from skpval import jsonio

        data = dict(TAIL_THETA_5, field=field)
        path = write_problem(tmp_path, data)
        code, report = run(capsys, "initial", "--skp", path, "--poly", "X1^2")
        assert code == 0
        assert report["result"]["initial_form"] == [{"coeff": "5", "exponents": {"0,1": 3}}]
        # U11*U13: U13 gives T_1 and leaves U11^2 = 5 * U01^3 + (higher)
        poly = jsonio.build_from_problem(data).monomial_poly({(1, 1): 1, (1, 3): 1})
        code, report = run(capsys, "normal-form", "--skp", path, "--poly", str(poly))
        assert code == 0
        assert report["result"]["normal_form"] == {
            "J": {"0,1": 12}, "torus_rows": [1], "p": {"1": "5"}, "value": ["24"]
        }

    def test_theta_at_the_predecessor_is_malformed_input(self, tmp_path, capsys):
        path = write_problem(tmp_path, dict(TAIL_THETA_5, thetas={"1,1": "2"}))
        assert_schema_error(capsys, "build", path)
        # a theta elsewhere in the row is still taken
        path = write_problem(tmp_path, dict(TAIL_THETA_5, thetas={"1,2": "2"}))
        code, _ = run(capsys, "build", path)
        assert code == 0


# the relation of entry (2,1) uses (1,2), so (1,1,2) is not an acceptable vector
RELATION_ACROSS_ROWS = {
    "kind": "skp", "values": {"rows": [["1"], ["1/2", "4/3"], ["11/6", "2"]]}
}
# X0 has no key polynomials
EMPTY_ROW_0 = {"kind": "skp", "values": {"rows": [[], ["2"], ["3", "7"]]}}
ZERO_VALUE = {"kind": "skp", "values": {"rows": [[["2"]], [["0"], ["9"]]]}}


def assert_invalid_table(capsys, *argv):
    code, report = run(capsys, *argv)
    assert code == 1
    assert report["status"] == "invalid"
    assert [d["kind"] for d in report["diagnostics"]] == ["InvalidTable"]
    return report


class TestInputFaults:
    """Faults in flags and problem files exit 2 with kind schema, tables
    that break a condition exit 1, and nothing here is reported as internal."""

    @pytest.mark.parametrize(
        "alpha", ["a,b,c", "1.5,2,2", "1,2", "1,2,2,1", "1,9,2", "0,2,2", "1,1,2"],
        ids=["letters", "fraction", "short", "long", "beyond-row", "zero", "unacceptable"],
    )
    def test_alpha(self, tmp_path, capsys, alpha):
        path = write_problem(tmp_path, RELATION_ACROSS_ROWS)
        for command in ("eval", "initial", "normal-form"):
            assert_schema_error(capsys, command, "--skp", path, "--poly", "X1", "--alpha", alpha)
        assert_schema_error(capsys, "expand", path, "--poly", "X1", "--alpha", alpha)

    def test_acceptable_alpha_still_evaluates(self, tmp_path, capsys):
        path = write_problem(tmp_path, RELATION_ACROSS_ROWS)
        code, report = run(capsys, "eval", "--skp", path, "--poly", "X1", "--alpha", "1,2,2")
        assert code == 0
        assert report["result"]["value"] == ["1/2"]

    # int() reads a sign, a space, an underscore or another script's digit
    # as part of some number, so each would name another index or cutoff
    @pytest.mark.parametrize("half", ["0_1", " 1", "+1", "1 ", "\u0661"])
    def test_index_key_in_ascii_digits_only(self, tmp_path, capsys, half):
        for key in (f"{half},1", f"1,{half}"):
            path = problem_with(
                tmp_path, "example1_tail.json", lambda d: d.update(thetas={key: "2"})
            )
            assert_schema_error(capsys, "build", path)

    @pytest.mark.parametrize("alpha", ["\u0661,1,1", "+1,1,1", " 1,1,1", "1,1,0_1", "1,2,2 "])
    def test_alpha_in_ascii_digits_only(self, tmp_path, capsys, alpha):
        path = write_problem(tmp_path, RELATION_ACROSS_ROWS)
        assert_schema_error(capsys, "eval", "--skp", path, "--poly", "X1", "--alpha", alpha)

    # Fraction reads each of these as some number: 1, 10, 3/2, 100, 3/2, ...
    @pytest.mark.parametrize(
        "literal",
        ["\u0661", "1_0", "\u0663/\u0662", "1e2", "1.5", "+1", " 1", "1 ", "1/0", "1" * 5000],
        ids=["arabic-indic", "underscore", "arabic-indic-ratio", "exponent", "decimal",
             "plus", "leading-space", "trailing-space", "zero-denominator", "too-long"],
    )
    def test_rational_literal_in_ascii_digits_only(self, tmp_path, capsys, literal):
        for field in (QQ, GF(7)):
            with pytest.raises(SchemaError, match="^bad rational literal"):
                field.parse(literal)

        def table_value(data):
            data["values"]["rows"][0][0][2] = literal

        for edit in (table_value, lambda d: d.update(thetas={"1,1": literal})):
            assert_schema_error(capsys, "build", problem_with(tmp_path, "example1_tail.json", edit))
        path = write_problem(tmp_path, {"kind": "realize", "generators": [["4"], ["6"], [literal]]})
        assert_schema_error(capsys, "realize", path)

    @pytest.mark.parametrize("poly", ["X\u0661^2", "\u0663*X0"])
    def test_poly_in_ascii_digits_only(self, capsys, poly):
        assert_schema_error(capsys, "eval", "--skp", DATA / "remark_diffskp.json", "--poly", poly)

    @pytest.mark.parametrize("j", [0, 4, -1])
    def test_delta_cutoff_outside_the_top_row(self, capsys, j):
        assert_schema_error(
            capsys, "delta", "--skp", DATA / "remark_diffskp.json", "--poly", "X1", "--j", j
        )

    @pytest.mark.parametrize("mode", ["bogus", 1, ["literal"]])
    def test_unknown_mode_in_the_problem_file(self, tmp_path, capsys, mode):
        path = problem_with(tmp_path, "free_pair.json", lambda d: d.update(mode=mode))
        assert_schema_error(capsys, "realize", path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--skp"],
            ["initial", "--skp"],
            ["normal-form", "--skp"],
            ["delta", "--j", "1", "--skp"],
            ["expand"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_variable_of_an_empty_row(self, tmp_path, capsys, argv):
        path = write_problem(tmp_path, EMPTY_ROW_0)
        assert_schema_error(capsys, *argv, path, "--poly", "X0 + X1")
        code, _ = run(capsys, *argv, path, "--poly", "X1 + X2")
        assert code == 0

    @pytest.mark.parametrize("declared", [5, [[1]], [9], [-1], [True], "1", 0, False, ""])
    def test_declared_infinite_rows(self, tmp_path, capsys, declared):
        path = problem_with(
            tmp_path, "remark_diffskp.json", lambda d: d.update(declared_infinite_rows=declared)
        )
        assert_schema_error(capsys, "classify", path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda a: a.update(declared=5),
            lambda a: a.update(declared=["in_q1"]),
            lambda a: a["rows"][0].pop("final"),
            lambda a: a["rows"][0].update(infinite="false"),
            lambda a: a["rows"][1].update(infinite=0),
            lambda a: a.update(declared={"in_q1": "no"}),
            lambda a: a.update(declared={"span2_in_01": 1}),
            lambda a: a.update(declared={"level0": True}),
            lambda a: a.update(declared={"in_qq2": True}),
            lambda a: a.update(declared={"level1": "3"}),
            lambda a: a.update(declared={"level2": -1}),
            lambda a: a.update(declared={"level0": [1]}),
            lambda a: a.update(beta01=["0", "1"]),
            lambda a: a["rows"][1].update(final=["1"]),
        ],
        ids=[
            "declared-number",
            "declared-array",
            "finite-row-without-final",
            "infinite-string",
            "infinite-number",
            "membership-string",
            "membership-number",
            "level-bool",
            "unknown-predicate",
            "level-string",
            "level-negative",
            "level-array",
            "beta01-dimension",
            "final-dimension",
        ],
    )
    def test_arithmetic(self, tmp_path, capsys, edit):
        path = problem_with(tmp_path, "classify_vii.json", lambda d: edit(d["arithmetic"]))
        assert_schema_error(capsys, "classify", path)

    def test_arithmetic_level_zero_is_a_domain_failure(self, tmp_path, capsys):
        def edit(d):
            d["arithmetic"]["declared"] = {"level0": 0}

        code, report = run(capsys, "classify", problem_with(tmp_path, "classify_vii.json", edit))
        assert code == 1
        assert [d["kind"] for d in report["diagnostics"]] == ["HypothesisViolated"]

    def test_well_typed_declared_predicates(self, tmp_path, capsys):
        def edit(d):
            d["arithmetic"]["rows"][0]["infinite"] = True
            d["arithmetic"]["declared"] = {"level1": None, "level2": 2.0, "in_q2": False}

        code, report = run(capsys, "classify", problem_with(tmp_path, "classify_vii.json", edit))
        assert code == 0
        assert report["result"]["classification"]["table1_row"] == "VIII_1"

    @pytest.mark.parametrize(
        "argv",
        [["build"], ["classify"], ["eval", "--poly", "X0", "--skp"]],
        ids=lambda argv: argv[0],
    )
    def test_zero_value_fails_positive(self, tmp_path, capsys, argv):
        report = assert_invalid_table(capsys, *argv, write_problem(tmp_path, ZERO_VALUE))
        failed = [c for c in report["diagnostics"][0]["validation"]["checks"] if not c["ok"]]
        assert [(c["index"], c["check"]) for c in failed] == [("1,1", "positive")]

    def test_zero_value_validates_as_invalid(self, tmp_path, capsys):
        code, report = run(capsys, "validate", write_problem(tmp_path, ZERO_VALUE))
        assert code == 1
        assert not report["result"]["validation"]["sequence_of_values"]

    @pytest.mark.parametrize("mode", ["literal", "corrected"])
    def test_realize_zero_generator(self, tmp_path, capsys, mode):
        path = write_problem(tmp_path, {"kind": "realize", "generators": [["0"], ["1"]]})
        assert_invalid_table(capsys, "realize", "--mode", mode, path)

    @pytest.mark.parametrize(
        "name, edit, argv",
        [
            (
                "remark_diffskp.json",
                lambda d: d["values"].update(limit_labels={"5,5": 1}),
                ["eval", "--poly", "X1^40", "--skp"],
            ),
            ("remark_diffskp.json", lambda d: d.update(thetas={"9,9": "2"}), ["build"]),
            ("example1_tail.json", lambda d: d["limit_tails"][0].update(row=9), ["build"]),
            (
                "example1_tail.json",
                lambda d: d["limit_tails"][0]["exponents"].update({"9,9": [1, 1]}),
                ["build"],
            ),
            (
                "example1_tail.json",
                lambda d: d["limit_tails"][0]["exponents"].update({"2,2": [1, 1]}),
                ["build"],
            ),
            ("gamma_4_6_13.json", lambda d: d.update(thetas={"9,9": "2"}), ["realize"]),
        ],
        ids=[
            "label",
            "theta",
            "tail-row",
            "tail-exponent",
            "tail-exponent-not-earlier",
            "realize-theta",
        ],
    )
    def test_stray_table_index(self, tmp_path, capsys, name, edit, argv):
        assert_schema_error(capsys, *argv, problem_with(tmp_path, name, edit))

    def test_realize_theta_outside_the_realized_table(self, tmp_path, capsys):
        path = problem_with(tmp_path, "gamma_4_6_13.json", lambda d: d.update(thetas={"9,9": "2"}))
        _, report = run(capsys, "realize", path)
        assert report["diagnostics"][0]["message"] == "no table index 9,9 for a theta"
        # a theta on an entry of the realized table is taken
        path = problem_with(tmp_path, "gamma_4_6_13.json", lambda d: d.update(thetas={"1,1": "2"}))
        code, report = run(capsys, "realize", path)
        assert code == 0
        assert report["status"] == "ok"

    def test_library_realize_ignores_a_stray_theta(self):
        from skpval import jsonio, realize

        spec = jsonio.load_semigroup_spec(json.loads((DATA / "gamma_4_6_13.json").read_text()))
        plain = realize(spec).valuation.skp
        stray = realize(spec, thetas={(9, 9): 2}).valuation.skp
        assert jsonio.dump_skp(stray) == jsonio.dump_skp(plain)

    def test_table_without_the_stray_label(self, capsys):
        code, report = run(
            capsys, "eval", "--skp", DATA / "remark_diffskp.json", "--poly", "X1^40"
        )
        assert code == 0
        assert report["result"]["value"] == ["120"]

    @pytest.mark.parametrize(
        "command, data",
        [
            ("validate", {"rows": [["2"], [["3", "1"]]]}),
            ("realize", {"generators": [["1"], ["1", "2"]]}),
        ],
    )
    def test_mixed_dimensions(self, tmp_path, capsys, command, data):
        assert_schema_error(capsys, command, write_problem(tmp_path, data))

    def test_mixed_dimensions_in_the_library(self):
        from skpval import DimensionMismatchError, GroupValue, SemigroupSpec
        from skpval import GeneratorAnalysis, compute_relations

        with pytest.raises(DimensionMismatchError):
            compute_relations([[GroupValue((2,))], [GroupValue((3, 1))]])
        with pytest.raises(DimensionMismatchError):
            GeneratorAnalysis(SemigroupSpec([GroupValue((1,)), GroupValue((1, 2))]))


def test_unexpected_value_error_is_internal(monkeypatch, capsys):
    import skpval.cli

    def fail(table):
        raise ValueError("not an input fault")

    monkeypatch.setattr(skpval.cli, "validate_table", fail)
    code, report = run(capsys, "validate", DATA / "example2.json")
    assert code == 1
    assert report["status"] == "error"
    assert report["diagnostics"] == [
        {"kind": "internal", "message": "ValueError: not an input fault"}
    ]
