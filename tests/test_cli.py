import json
import subprocess
import sys

import pytest

from skpval import GF, QQ, SchemaError

from conftest import ABSENT, DATA, count_calls, nested, problem, run_cli, write_problem


class TestEval:
    def test_golden_value(self):
        report = run_cli(
            "eval", "--skp", DATA / "remark_diffskp.json", "--poly", "X1^2-X0^3", code=0
        ).report
        assert report["result"]["value"] == ["9"]
        assert report["result"]["value_str"] == "9"

    def test_alpha_restriction(self):
        report = run_cli(
            "eval", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X1^2", "--alpha", "1,2", code=0,
        ).report
        assert report["result"]["value"] == ["6"]

    @pytest.mark.parametrize("alpha", [(), ("--alpha", "1,2")])
    def test_one_context_derives_its_rules_once(self, monkeypatch, alpha):
        # the --alpha text is normalized and gated by the one context built
        calls = count_calls(monkeypatch, "rewrite_rules", "normalize_alpha")
        run_cli("eval", "--skp", DATA / "remark_diffskp.json", "--poly", "X1^2", *alpha, code=0)
        assert calls == {"rewrite_rules": 1, "normalize_alpha": 1}

    def test_bad_poly_is_malformed_input(self):
        run_cli(
            "eval", "--skp", DATA / "remark_diffskp.json", "--poly", "X9+",
            code=2, kind="schema",
        )

    def test_truncated_key_polynomial(self, tmp_path):
        # at cutoff 1, U_{1,2} = X1^2 - X0^3 is 0: the table is valued by its
        # rules, the report holds the value alone, and a bad --poly is exit 2
        path = write_problem(tmp_path, "remark_diffskp.json", {"cutoff": 1})
        for poly, value in (("X1", "3"), ("X1^2 - X0^3", "9")):
            report = run_cli("eval", "--skp", path, "--poly", poly, code=0).report
            assert report["result"] == {"value": [value], "value_str": value}
        run_cli("eval", "--skp", path, "--poly", "X9+", code=2, kind="schema")

    def test_deep_nesting_is_malformed_input(self):
        run_cli(
            "eval", "--skp", DATA / "remark_diffskp.json",
            "--poly", "(" * 300 + "X0" + ")" * 300, code=2, kind="schema",
        )

    def test_moderate_nesting_still_parses(self):
        report = run_cli(
            "eval", "--skp", DATA / "remark_diffskp.json",
            "--poly", "(" * 50 + "X0" + ")" * 50, code=0,
        ).report
        assert report["result"]["value"] == ["2"]


class TestValidate:
    def test_ok_table(self):
        report = run_cli("validate", DATA / "remark_diffskp.json", code=0).report
        assert report["result"]["validation"]["sequence_of_values"]

    def test_empty_rows_schema_failure(self):
        run_cli("validate", DATA / "empty_rows.json", code=2, kind="schema")

    def test_domain_failure(self):
        report = run_cli("validate", DATA / "bad_increase.json", code=1).report
        checks = report["result"]["validation"]["checks"]
        assert any(c["check"] == "increasing" and not c["ok"] for c in checks)

    @pytest.mark.parametrize(
        "dimension", [True, "1", 0, -1, 1.5],
        ids=["bool", "string", "zero", "negative", "float"],
    )
    def test_dimension_is_a_positive_integer(self, tmp_path, dimension):
        data = {"values": {"rows": [["2"], ["3", "7"]], "dimension": dimension}}
        path = write_problem(tmp_path, data)
        run_cli("validate", path, code=2, kind="schema", message="values.dimension: ")

    def test_integral_dimension(self, tmp_path):
        data = {"values": {"rows": [["2"], ["3", "7"]], "dimension": 1.0}}
        run_cli("validate", write_problem(tmp_path, data), code=0)

    def test_deeply_nested_file_is_malformed_input(self, tmp_path):
        # the JSON reader refuses the nesting before any key is walked
        path = write_problem(tmp_path, {"values": {"rows": [["2"]]}, "x": nested(2000)})
        run_cli("validate", path, code=2, kind="schema", message="nested too deeply")

    @pytest.mark.parametrize(
        "raw", [b"\xff\xfe{", b'{"kind": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "int-longer-than-int-reads"],
    )
    def test_unreadable_json_is_malformed_input(self, tmp_path, raw):
        # the json module raises a plain ValueError for each, not JSONDecodeError
        path = tmp_path / "problem.json"
        path.write_bytes(raw)
        run_cli("validate", path, code=2, kind="schema", message="is not valid JSON")

    def test_missing_file(self):
        run_cli("validate", DATA / "nope.json", code=2, kind="schema")


class TestBuild:
    def test_golden_polys(self):
        report = run_cli("build", DATA / "remark_diffskp.json", code=0).report
        entries = report["result"]["skp"]["entries"]
        assert entries["1,2"]["poly"] == "X1^2 - X0^3"
        assert entries["1,3"]["poly"] == "X1^2 - X0^3*X1 - X0^3"
        assert entries["1,3"]["n"] == 1

    def test_limit_tail_unroll(self):
        report = run_cli("build", DATA / "example1_tail.json", code=0).report
        entry = report["result"]["skp"]["entries"]["2,2"]
        assert entry["poly"] == "X2 - X0^3*X1^2 - X0^2*X1^2 - X0*X1^2"
        assert entry["unroll"]["stabilized"]

    def test_minimal_flag(self):
        report = run_cli("build", DATA / "remark_diffskp.json", "--minimal", code=0).report
        reduced = report["result"]["minimal_pseudo"]["entries"]
        assert set(reduced) == {"0,1", "1,1", "1,2"}

    def test_theta_from_file(self):
        report = run_cli("build", DATA / "swapped_diffskp.json", code=0).report
        entries = report["result"]["skp"]["entries"]
        assert entries["1,2"]["poly"] == "X1^3 - X0^2"
        assert entries["1,3"]["poly"] == "X1^3 + X0^3 - X0^2"

    def test_rational_values_from_file(self):
        report = run_cli("eval", "--skp", DATA / "example2.json", "--poly", "X1^2", code=0).report
        assert report["result"]["value"] == ["1"]


class TestExpandAndForms:
    def test_expand(self):
        report = run_cli(
            "expand", DATA / "remark_diffskp.json", "--poly", "X1^2", "--alpha", "1,3", code=0
        ).report
        # sorted by the per-variable degree vector, lexicographically
        assert report["result"]["expansion"] == [
            {"coeff": "1", "exponents": {"1,3": 1}},
            {"coeff": "1", "exponents": {"0,1": 3}},
            {"coeff": "1", "exponents": {"0,1": 3, "1,1": 1}},
        ]

    def test_initial(self):
        report = run_cli(
            "initial", "--skp", DATA / "remark_diffskp.json", "--poly", "X1^2", code=0
        ).report
        assert report["result"]["initial_form"] == [
            {"coeff": "1", "exponents": {"0,1": 3}}
        ]

    def test_delta(self):
        report = run_cli(
            "delta", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X1^2-X0^3", "--j", "2", code=0,
        ).report
        assert report["result"]["delta"] == 1

    def test_normal_form(self):
        report = run_cli(
            "normal-form", "--skp", DATA / "remark_diffskp.json", "--poly", "X0^2", code=0
        ).report
        assert report["result"]["normal_form"]["J"] == {"0,1": 2}


class TestClassify:
    def test_table_lookup(self):
        report = run_cli("classify", DATA / "classify_vii.json", code=0).report
        got = report["result"]["classification"]
        assert (got["rk"], got["r_rk"], got["tr_deg"]) == (3, 3, 0)
        assert got["table1_row"] == "VII_1"
        assert got["abhyankar"]

    def test_inductive_on_skp(self):
        report = run_cli("classify", DATA / "remark_diffskp.json", code=0).report
        got = report["result"]["invariants"]
        assert (got["rk"], got["r_rk"], got["tr_deg"]) == (1, 1, 1)


class TestRealize:
    def test_corrected_with_verify(self):
        report = run_cli(
            "realize", "--mode", "corrected", "--verify",
            "--samples", "40", DATA / "gamma_4_6_13.json", code=0,
        ).report
        payload = report["result"]["realization"]
        assert payload["verification"]["passed"]
        assert payload["blocks"]["blocks"] == [[1], [2, 3]]

    def test_literal_rejected(self):
        report = run_cli("realize", "--mode", "literal", DATA / "gamma_4_6_13.json", code=1).report
        validation = report["diagnostics"][0]["validation"]
        bad = [
            c for c in validation["checks"]
            if c["check"] == "interior-finite" and not c["ok"]
        ]
        assert [c["index"] for c in bad] == ["1,1"]

    def test_verify_subcommand(self):
        report = run_cli("verify", "--samples", "30", DATA / "free_pair.json", code=0).report
        assert report["result"]["realization"]["verification"]["passed"]

    def test_verify_has_no_verify_flag(self):
        run_cli(
            "verify", "--verify", DATA / "free_pair.json",
            kind="usage", message="unrecognized arguments: --verify",
        )

    def test_realize_verify_is_the_verify_command(self):
        argv = ["--samples", "20", DATA / "free_pair.json"]
        realized = run_cli("realize", "--verify", *argv, code=0).report
        verified = run_cli("verify", *argv, code=0).report
        assert realized["result"] == verified["result"]
        plain = run_cli("realize", *argv, code=0).report
        assert "verification" not in plain["result"]["realization"]

    def test_repeated_limit_label_refused(self, tmp_path):
        # one generator takes one label: [3, 3] would label position 3 twice
        path = write_problem(tmp_path, "gamma_4_6_13.json", {"limit_labels": [3, 3]})
        run_cli("realize", path, code=2, kind="schema", message="repeat")

    def test_non_minimal_generator_reported(self, tmp_path):
        path = write_problem(tmp_path, {"kind": "realize", "generators": [["1"], ["10"]]})
        report = run_cli("realize", path, code=0).report
        analysis = report["result"]["realization"]["analysis"]
        assert analysis["minimal"] == [True, False]
        assert analysis["ok"] is False
        assert "minimality_bound" not in analysis


class TestReportShape:
    def test_deterministic_bytes(self):
        argv = ["eval", "--skp", DATA / "remark_diffskp.json", "--poly", "X1^2"]
        first = run_cli(*argv, code=0).text
        second = run_cli(*argv, code=0).text
        assert first == second

    def test_digest_and_version(self):
        report = run_cli("validate", DATA / "remark_diffskp.json", code=0).report
        assert report["input_digest"].startswith("sha256:")
        assert report["tool"] == "skpval"
        assert "version" in report

    def test_out_flag(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli("--out", out, "validate", DATA / "remark_diffskp.json", code=0)
        assert json.loads(out.read_text())["status"] == "ok"

    @pytest.mark.parametrize(
        "target", ["missing/report.json", "."], ids=["missing-directory", "directory"]
    )
    def test_out_path_that_cannot_be_written(self, tmp_path, target):
        out = tmp_path / target
        report = run_cli(
            "--out", out, "validate", DATA / "example2.json",
            code=2, kind="schema", message=str(out),
        ).report
        assert "result" not in report

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
        path = write_problem(
            tmp_path, "example1_tail.json",
            {"values.rows.2.0": ["0", "2", str(10**30)], "limit_tails": ABSENT},
        )
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

    def test_bad_alpha_is_malformed_input(self):
        run_cli(
            "eval", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X1", "--alpha", "9,9", code=2, kind="schema",
        )

    def test_bad_delta_cutoff(self):
        run_cli(
            "delta", "--skp", DATA / "remark_diffskp.json",
            "--poly", "X1", "--j", "7", code=2, kind="schema",
        )

    def test_seed_recorded(self):
        report = run_cli(
            "--seed", "7", "verify", "--samples", "10", DATA / "free_pair.json", code=0
        ).report
        assert report["seed"] == 7
        assert report["result"]["realization"]["verification"]["seed"] == 7

    @pytest.mark.parametrize(
        "argv",
        [["eval", "--skp", "skp.json"], ["validate", "--no-such-flag", "t.json"]],
        ids=["missing-poly", "unknown-flag"],
    )
    def test_usage_error_exits_2_without_a_report(self, argv):
        run_cli(*argv, kind="usage")

    def test_jobs_environment_is_ignored(self, monkeypatch):
        monkeypatch.setenv("SKPVAL_JOBS", "abc")
        report = run_cli("validate", DATA / "example2.json", code=0).report
        assert "jobs" not in report


class TestProblemScalars:
    @pytest.mark.parametrize("theta", [1.5, True, None, [1]])
    def test_theta_of_wrong_type_is_malformed_input(self, tmp_path, theta):
        path = write_problem(tmp_path, "swapped_diffskp.json", {"thetas": {"1,1": theta}})
        run_cli("build", path, code=2, kind="schema")

    def test_theta_outside_the_prime_field_is_malformed_input(self, tmp_path):
        path = write_problem(
            tmp_path, "swapped_diffskp.json", {"field": {"prime": 7}, "thetas": {"1,1": "1/7"}}
        )
        run_cli("build", path, code=2, kind="schema")
        path = write_problem(
            tmp_path, "swapped_diffskp.json", {"field": {"prime": 7}, "thetas": {}}
        )
        run_cli("eval", "--skp", path, "--poly", "1/7*X0", code=2, kind="schema")

    def test_thetas_not_an_object_is_malformed_input(self, tmp_path):
        path = write_problem(tmp_path, "swapped_diffskp.json", {"thetas": [1]})
        run_cli("build", path, code=2, kind="schema")

    def test_theta_as_string_or_integer(self, tmp_path):
        path = write_problem(tmp_path, "swapped_diffskp.json", {"thetas": {"1,2": "-1"}})
        by_text = run_cli("build", path, code=0).report
        path = write_problem(tmp_path, "swapped_diffskp.json", {"thetas": {"1,2": -1}})
        by_int = run_cli("build", path, code=0).report
        assert by_text["result"] == by_int["result"]

    @pytest.mark.parametrize("cutoff", [2.5, True, False, -1, "3", [3]])
    def test_cutoff_of_wrong_type_is_malformed_input(self, tmp_path, cutoff):
        path = write_problem(tmp_path, "swapped_diffskp.json", {"cutoff": cutoff})
        for argv in (["build", path], ["eval", "--skp", path, "--poly", "X0"]):
            run_cli(*argv, code=2, kind="schema")


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
    def test_semigroup_spec_integers(self, tmp_path, key, value):
        path = write_problem(tmp_path, "free_pair.json", {key: value})
        run_cli("verify", path, code=2, kind="schema")

    @pytest.mark.parametrize("value", [12, None, "x"])
    def test_leftover_minimality_bound_is_refused(self, tmp_path, value):
        # minimality is decided exactly, so the old bound is an unknown key
        path = write_problem(tmp_path, "free_pair.json", {"minimality_bound": value})
        run_cli("verify", path, code=2, kind="schema", message="minimality_bound: unknown key")

    def test_integral_numbers_are_integers(self, tmp_path):
        want = run_cli("verify", DATA / "free_pair.json", code=0).report
        path = write_problem(tmp_path, "free_pair.json", {"samples": 100.0, "coeff_bound": 3.0})
        got = run_cli("verify", path, code=0).report
        assert got["result"] == want["result"]

    @pytest.mark.parametrize(
        "mutation",
        [
            {"values.limit_labels": {"2,2": 1.5}},
            {"values.limit_labels": {"2,2": True}},
            {"values.limit_labels": [1]},
            {"limit_tails.0.depth": 2.5},
            {"limit_tails.0.depth": False},
            {"limit_tails.0.row": True},
            {"limit_tails.0.at": 2.5},
            {"limit_tails.0.exponents": {"0,1": [1.5, 1]}},
            {"limit_tails": True},
            {"limit_tails": False},
            {"limit_tails": 1},
            {"limit_tails": 1.5},
            {"limit_tails.0.exponents": [["0,1", [1, 1]]]},
            {"limit_tails.0.exponents": "0,1"},
            {"values.limit_labels": False},
            {"thetas": False},
            {"thetas": 0},
            {"thetas": ""},
        ],
        ids=[
            "label-float", "label-bool", "labels-array", "depth-float",
            "depth-bool", "row-bool", "at-float", "exponent-float",
            "tails-bool", "tails-false", "tails-int", "tails-float", "exponents-array",
            "exponents-string", "labels-false", "thetas-false", "thetas-zero",
            "thetas-empty-string",
        ],
    )
    def test_table_and_tail_integers(self, tmp_path, mutation):
        path = write_problem(tmp_path, "example1_tail.json", mutation)
        run_cli("build", path, code=2, kind="schema")

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
    def test_null_optional_field_is_absent(self, tmp_path, command, name, key):
        want = run_cli(command, write_problem(tmp_path, name, {key: ABSENT}), code=0).report
        got = run_cli(command, write_problem(tmp_path, name, {key: None}), code=0).report
        assert got["result"] == want["result"]


class TestCommandLineBounds:
    @pytest.mark.parametrize(
        "flag, value", [("--coeff-bound", -1), ("--samples", -5), ("--degree-bound", -3)]
    )
    def test_negative_bound_is_malformed_input(self, flag, value):
        for command in ("verify", "realize"):
            run_cli(command, DATA / "free_pair.json", flag, value, code=2, kind="schema")

    def test_zero_bounds_are_accepted(self):
        report = run_cli(
            "verify", DATA / "free_pair.json",
            "--coeff-bound", 0, "--samples", 0, "--degree-bound", 0, code=0,
        ).report
        assert report["result"]["realization"]["verification"]["passed"]


class TestPrimeFields:
    def test_large_prime_builds_quickly(self, tmp_path):
        import time

        path = write_problem(
            tmp_path, "swapped_diffskp.json", {"field": {"prime": 1000000000000000003}}
        )
        start = time.perf_counter()
        run_cli("build", path, code=0)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("p", [2047, 1373653, 3215031751, 1000000000000000001])
    def test_composite_is_malformed_input(self, tmp_path, p):
        # 2047 = 23 * 89 passes the base-2 strong test; 1373653 fools bases 2
        # and 3, 3215031751 bases 2, 3, 5 and 7
        path = write_problem(tmp_path, "swapped_diffskp.json", {"field": {"prime": p}})
        run_cli("build", path, code=2, kind="schema")

    @pytest.mark.parametrize("p", [3317044064679887385961981, 10**30 + 57])
    def test_prime_beyond_the_exact_range_is_malformed_input(self, tmp_path, p):
        path = write_problem(tmp_path, "swapped_diffskp.json", {"field": {"prime": p}})
        run_cli("build", path, code=2, kind="schema")

    @pytest.mark.parametrize("p", [7.9, "7"])
    def test_non_integer_prime_is_malformed_input(self, tmp_path, p):
        # int() reads both as 7; a field is read by the integer rule of every
        # other problem integer
        path = write_problem(tmp_path, "swapped_diffskp.json", {"field": {"prime": p}})
        run_cli("build", path, code=2, kind="schema")


class TestZeroTailTheta:
    """A limit tail's theta that is 0 in the field is refused like a zero
    entry of "thetas": exit 1, kind ThetaZero, on every command that builds."""

    @pytest.mark.parametrize(
        "field, theta", [("Q", "0"), ({"prime": 7}, "7")], ids=["Q", "GF7"]
    )
    def test_refused(self, tmp_path, field, theta):
        mutation = {"field": field, "limit_tails.0.theta": theta}
        path = write_problem(tmp_path, "example1_tail.json", mutation)
        for argv in (["build", path], ["eval", "--skp", path, "--poly", "X2"]):
            report = run_cli(*argv, code=1).report
            assert report["diagnostics"] == [
                {"kind": "ThetaZero", "message": "limit tail theta at 2,2 is zero"}
            ]


class TestTailExponents:
    """A tail summand used with a negative exponent is malformed input,
    refused naming the tail and the unroll counter k; a tail that stops
    above the cutoff before an exponent turns negative still builds."""

    def test_negative_exponent_in_a_used_summand(self, tmp_path):
        mutation = {"limit_tails.0.exponents": {"0,1": [-1, 0], "1,1": [2, 1]}}
        path = write_problem(tmp_path, "example1_tail.json", mutation)
        for argv in (["build", path], ["eval", "--skp", path, "--poly", "X2"]):
            report = run_cli(*argv, code=2).report
            assert report["diagnostics"] == [
                {
                    "kind": "schema",
                    "message": "limit tail at 2,2: summand k=0 has exponent -1 at 0,1",
                }
            ]

    def test_negative_exponent_at_a_later_summand(self, tmp_path):
        mutation = {"cutoff": 8, "limit_tails.0.exponents": {"0,1": [3, -1], "1,1": [0, 2]}}
        path = write_problem(tmp_path, "example1_tail.json", mutation)
        report = run_cli("build", path, code=2).report
        assert report["diagnostics"][0]["message"] == (
            "limit tail at 2,2: summand k=4 has exponent -1 at 0,1"
        )

    def test_stops_before_the_exponent_turns_negative(self, tmp_path):
        mutation = {"limit_tails.0.exponents": {"0,1": [3, -1], "1,1": [0, 2]}}
        path = write_problem(tmp_path, "example1_tail.json", mutation)
        report = run_cli("build", path, code=0).report
        unroll = report["result"]["skp"]["entries"]["2,2"]["unroll"]
        assert unroll == {"cutoff": 5, "stabilized": True, "summands_used": 3}


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
    def test_normal_form_reduces_by_the_tail_theta(self, tmp_path, field):
        from skpval import jsonio

        data = dict(TAIL_THETA_5, field=field)
        path = write_problem(tmp_path, data)
        report = run_cli("initial", "--skp", path, "--poly", "X1^2", code=0).report
        assert report["result"]["initial_form"] == [{"coeff": "5", "exponents": {"0,1": 3}}]
        # U11*U13: U13 gives T_1 and leaves U11^2 = 5 * U01^3 + (higher)
        poly = jsonio.build_from_problem(data).monomial_poly({(1, 1): 1, (1, 3): 1})
        report = run_cli("normal-form", "--skp", path, "--poly", str(poly), code=0).report
        assert report["result"]["normal_form"] == {
            "J": {"0,1": 12}, "torus_rows": [1], "p": {"1": "5"}, "value": ["24"]
        }

    def test_theta_at_the_predecessor_is_malformed_input(self, tmp_path):
        path = write_problem(tmp_path, TAIL_THETA_5, {"thetas": {"1,1": "2"}})
        run_cli("build", path, code=2, kind="schema")
        # a theta elsewhere in the row is still taken
        path = write_problem(tmp_path, TAIL_THETA_5, {"thetas": {"1,2": "2"}})
        run_cli("build", path, code=0)


# the relation of entry (2,1) uses (1,2), so (1,1,2) is not an acceptable vector
RELATION_ACROSS_ROWS = {
    "kind": "skp", "values": {"rows": [["1"], ["1/2", "4/3"], ["11/6", "2"]]}
}
# X0 has no key polynomials
EMPTY_ROW_0 = {"kind": "skp", "values": {"rows": [[], ["2"], ["3", "7"]]}}
ZERO_VALUE = {"kind": "skp", "values": {"rows": [[["2"]], [["0"], ["9"]]]}}


class TestInputFaults:
    """Faults in flags and problem files exit 2 with kind schema, tables
    that break a condition exit 1, and nothing here is reported as internal."""

    @pytest.mark.parametrize(
        "alpha", ["a,b,c", "1.5,2,2", "1,2", "1,2,2,1", "1,9,2", "0,2,2", "1,1,2"],
        ids=["letters", "fraction", "short", "long", "beyond-row", "zero", "unacceptable"],
    )
    def test_alpha(self, tmp_path, alpha):
        path = write_problem(tmp_path, RELATION_ACROSS_ROWS)
        for command in ("eval", "initial", "normal-form"):
            run_cli(command, "--skp", path, "--poly", "X1", "--alpha", alpha, code=2, kind="schema")
        run_cli("expand", path, "--poly", "X1", "--alpha", alpha, code=2, kind="schema")

    def test_acceptable_alpha_still_evaluates(self, tmp_path):
        path = write_problem(tmp_path, RELATION_ACROSS_ROWS)
        report = run_cli("eval", "--skp", path, "--poly", "X1", "--alpha", "1,2,2", code=0).report
        assert report["result"]["value"] == ["1/2"]

    # int() reads a sign, a space, an underscore or another script's digit
    # as part of some number, so each would name another index or cutoff
    @pytest.mark.parametrize("half", ["0_1", " 1", "+1", "1 ", "\u0661"])
    def test_index_key_in_ascii_digits_only(self, tmp_path, half):
        for key in (f"{half},1", f"1,{half}"):
            path = write_problem(tmp_path, "example1_tail.json", {"thetas": {key: "2"}})
            run_cli("build", path, code=2, kind="schema")

    @pytest.mark.parametrize("alpha", ["\u0661,1,1", "+1,1,1", " 1,1,1", "1,1,0_1", "1,2,2 "])
    def test_alpha_in_ascii_digits_only(self, tmp_path, alpha):
        path = write_problem(tmp_path, RELATION_ACROSS_ROWS)
        run_cli("eval", "--skp", path, "--poly", "X1", "--alpha", alpha, code=2, kind="schema")

    # Fraction reads each of these as some number: 1, 10, 3/2, 100, 3/2, ...
    @pytest.mark.parametrize(
        "literal",
        ["\u0661", "1_0", "\u0663/\u0662", "1e2", "1.5", "+1", " 1", "1 ", "1/0", "1" * 5000],
        ids=["arabic-indic", "underscore", "arabic-indic-ratio", "exponent", "decimal",
             "plus", "leading-space", "trailing-space", "zero-denominator", "too-long"],
    )
    def test_rational_literal_in_ascii_digits_only(self, tmp_path, literal):
        for field in (QQ, GF(7)):
            with pytest.raises(SchemaError, match="^bad rational literal"):
                field.parse(literal)

        for mutation in ({"values.rows.0.0.2": literal}, {"thetas": {"1,1": literal}}):
            path = write_problem(tmp_path, "example1_tail.json", mutation)
            run_cli("build", path, code=2, kind="schema")
        path = write_problem(tmp_path, {"kind": "realize", "generators": [["4"], ["6"], [literal]]})
        run_cli("realize", path, code=2, kind="schema")

    @pytest.mark.parametrize("poly", ["X\u0661^2", "\u0663*X0"])
    def test_poly_in_ascii_digits_only(self, poly):
        run_cli(
            "eval", "--skp", DATA / "remark_diffskp.json", "--poly", poly, code=2, kind="schema"
        )

    @pytest.mark.parametrize("j", [0, 4, -1])
    def test_delta_cutoff_outside_the_top_row(self, j):
        run_cli(
            "delta", "--skp", DATA / "remark_diffskp.json", "--poly", "X1", "--j", j,
            code=2, kind="schema",
        )

    @pytest.mark.parametrize("mode", ["bogus", 1, ["literal"]])
    def test_unknown_mode_in_the_problem_file(self, tmp_path, mode):
        path = write_problem(tmp_path, "free_pair.json", {"mode": mode})
        run_cli("realize", path, code=2, kind="schema")

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
    def test_variable_of_an_empty_row(self, tmp_path, argv):
        path = write_problem(tmp_path, EMPTY_ROW_0)
        run_cli(*argv, path, "--poly", "X0 + X1", code=2, kind="schema")
        run_cli(*argv, path, "--poly", "X1 + X2", code=0)

    @pytest.mark.parametrize("declared", [5, [[1]], [9], [-1], [True], "1", 0, False, ""])
    def test_declared_infinite_rows(self, tmp_path, declared):
        path = write_problem(tmp_path, "remark_diffskp.json", {"declared_infinite_rows": declared})
        run_cli("classify", path, code=2, kind="schema")

    @pytest.mark.parametrize(
        "mutation",
        [
            {"arithmetic.declared": 5},
            {"arithmetic.declared": ["in_q1"]},
            {"arithmetic.rows.0.final": ABSENT},
            {"arithmetic.rows.0.infinite": "false"},
            {"arithmetic.rows.1.infinite": 0},
            {"arithmetic.declared": {"in_q1": "no"}},
            {"arithmetic.declared": {"span2_in_01": 1}},
            {"arithmetic.declared": {"level0": True}},
            {"arithmetic.declared": {"in_qq2": True}},
            {"arithmetic.declared": {"level1": "3"}},
            {"arithmetic.declared": {"level2": -1}},
            {"arithmetic.declared": {"level0": [1]}},
            {"arithmetic.beta01": ["0", "1"]},
            {"arithmetic.rows.1.final": ["1"]},
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
    def test_arithmetic(self, tmp_path, mutation):
        path = write_problem(tmp_path, "classify_vii.json", mutation)
        run_cli("classify", path, code=2, kind="schema")

    def test_arithmetic_level_zero_is_a_domain_failure(self, tmp_path):
        path = write_problem(tmp_path, "classify_vii.json", {"arithmetic.declared": {"level0": 0}})
        run_cli("classify", path, code=1, kind="HypothesisViolated")

    def test_well_typed_declared_predicates(self, tmp_path):
        mutation = {
            "arithmetic.rows.0.infinite": True,
            "arithmetic.declared": {"level1": None, "level2": 2.0, "in_q2": False},
        }
        path = write_problem(tmp_path, "classify_vii.json", mutation)
        report = run_cli("classify", path, code=0).report
        assert report["result"]["classification"]["table1_row"] == "VIII_1"

    @pytest.mark.parametrize(
        "argv",
        [["build"], ["classify"], ["eval", "--poly", "X0", "--skp"]],
        ids=lambda argv: argv[0],
    )
    def test_zero_value_fails_positive(self, tmp_path, argv):
        path = write_problem(tmp_path, ZERO_VALUE)
        report = run_cli(*argv, path, code=1, kind="InvalidTable").report
        failed = [c for c in report["diagnostics"][0]["validation"]["checks"] if not c["ok"]]
        assert [(c["index"], c["check"]) for c in failed] == [("1,1", "positive")]

    def test_zero_value_validates_as_invalid(self, tmp_path):
        report = run_cli("validate", write_problem(tmp_path, ZERO_VALUE), code=1).report
        assert not report["result"]["validation"]["sequence_of_values"]

    @pytest.mark.parametrize("mode", ["literal", "corrected"])
    def test_realize_zero_generator(self, tmp_path, mode):
        path = write_problem(tmp_path, {"kind": "realize", "generators": [["0"], ["1"]]})
        run_cli("realize", "--mode", mode, path, code=1, kind="InvalidTable")

    @pytest.mark.parametrize(
        "name, mutation, argv",
        [
            (
                "remark_diffskp.json",
                {"values.limit_labels": {"5,5": 1}},
                ["eval", "--poly", "X1^40", "--skp"],
            ),
            ("remark_diffskp.json", {"thetas": {"9,9": "2"}}, ["build"]),
            ("example1_tail.json", {"limit_tails.0.row": 9}, ["build"]),
            ("example1_tail.json", {"limit_tails.0.exponents.9,9": [1, 1]}, ["build"]),
            ("example1_tail.json", {"limit_tails.0.exponents.2,2": [1, 1]}, ["build"]),
            ("gamma_4_6_13.json", {"thetas": {"9,9": "2"}}, ["realize"]),
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
    def test_stray_table_index(self, tmp_path, name, mutation, argv):
        run_cli(*argv, write_problem(tmp_path, name, mutation), code=2, kind="schema")

    def test_realize_theta_outside_the_realized_table(self, tmp_path):
        path = write_problem(tmp_path, "gamma_4_6_13.json", {"thetas": {"9,9": "2"}})
        report = run_cli("realize", path, code=2).report
        assert report["diagnostics"][0]["message"] == "no table index 9,9 for a theta"
        # a theta on an entry of the realized table is taken
        path = write_problem(tmp_path, "gamma_4_6_13.json", {"thetas": {"1,1": "2"}})
        run_cli("realize", path, code=0)

    def test_library_realize_ignores_a_stray_theta(self):
        from skpval import jsonio, realize

        spec = jsonio.load_semigroup_spec(problem("gamma_4_6_13.json"))
        plain = realize(spec).valuation.skp
        stray = realize(spec, thetas={(9, 9): 2}).valuation.skp
        assert jsonio.dump_skp(stray) == jsonio.dump_skp(plain)

    def test_table_without_the_stray_label(self):
        report = run_cli(
            "eval", "--skp", DATA / "remark_diffskp.json", "--poly", "X1^40", code=0
        ).report
        assert report["result"]["value"] == ["120"]

    @pytest.mark.parametrize(
        "command, data",
        [
            ("validate", {"values": {"rows": [["2"], [["3", "1"]]]}}),
            ("realize", {"generators": [["1"], ["1", "2"]]}),
        ],
    )
    def test_mixed_dimensions(self, tmp_path, command, data):
        run_cli(command, write_problem(tmp_path, data), code=2, kind="schema")

    @pytest.mark.parametrize(
        "command, name, mutation, message",
        [
            ("build", "swapped_diffskp.json", {"thetas": {"2,1": "x", "1,2": "y"}}, "thetas.1,2"),
            ("verify", "free_pair.json", {"zz": 1, "aa": 2}, "aa: unknown key"),
        ],
        ids=["two-bad-thetas", "two-unknown-keys"],
    )
    def test_message_does_not_follow_the_key_order(self, tmp_path, command, name, mutation,
                                                    message):
        # of two faults the walker names the least key, in either order of the file
        for sort_keys in (False, True):
            path = write_problem(tmp_path, name, mutation, sort_keys=sort_keys)
            run_cli(command, path, code=2, kind="schema", message=message)

    def test_mixed_dimensions_in_the_library(self):
        from skpval import DimensionMismatchError, GroupValue, SemigroupSpec
        from skpval import GeneratorAnalysis, compute_relations

        with pytest.raises(DimensionMismatchError):
            compute_relations([[GroupValue((2,))], [GroupValue((3, 1))]])
        with pytest.raises(DimensionMismatchError):
            GeneratorAnalysis(SemigroupSpec([GroupValue((1,)), GroupValue((1, 2))]))


def test_unexpected_value_error_is_internal(monkeypatch):
    import skpval.cli

    def fail(table):
        raise ValueError("not an input fault")

    monkeypatch.setattr(skpval.cli, "validate_table", fail)
    report = run_cli("validate", DATA / "example2.json", code=1).report
    assert report["diagnostics"] == [
        {"kind": "internal", "message": "ValueError: not an input fault"}
    ]
