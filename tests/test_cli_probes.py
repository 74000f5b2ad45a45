"""Probes of the command line's 0/1/2 exit contract, one row each.

A row is (problem, mutation, argv, exit_code, diagnostic, fields):
- problem: a tests/data file name, or inline JSON as a dict;
- mutation: {key path: new value} set in a copy of the problem, or None; a
  key path joins dict keys and list indices with ".";
- argv: the command line split on spaces, with {} for the problem's path;
- exit_code: the exit code the command must give;
- diagnostic: (kind, message fragment) of the report's one diagnostic, or
  None for none; kind "usage" is an argparse error: no report, the
  fragment on stderr;
- fields: {key path into the report's result: expected value}, or None.

Each row runs through ``conftest.run_cli``, which also checks stderr and
the report's status.  A probe that another test already checks gets no row.
"""

import pytest

from conftest import at, doubling_chain, run_cli, write_problem

GAMMA = {"kind": "realize", "generators": [["4"], ["6"], ["13"]]}
DOUBLING_6 = {"kind": "realize", "generators": [[str(g)] for (g,) in doubling_chain(6)]}

# the relation of entry (2,1) uses (1,2), so (1,1,2) is not an acceptable vector
RELATION_ACROSS_ROWS = {"kind": "skp", "values": {"rows": [["1"], ["1/2", "4/3"], ["11/6", "2"]]}}

NO_ARITHMETIC = {"kind": "classify", "arithmetic": {"rows": [{"infinite": True}] * 2}}
AMBIGUOUS = {"kind": "classify", "arithmetic": {
    "rows": [{"final": ["1"]}, {"final": ["2"]}],
    "declared": {"level1": 2, "level2": 1, "in_q1": True, "in_q2": True, "span1_in_02": True},
}}

# every message echoes at most 24 characters of an input this long
LONG_LITERAL = "1" * 5000 + "/0"
LONG_GARBAGE = "X0+" + "#" * 5001
LONG_INDEX = "9" * 5000  # more digits than int() reads
WIDE_INDEX = "9" * 4000

PROBES = {
    "alpha-beyond-its-row": ("remark_diffskp.json", None, "eval --skp {} --poly X1 --alpha 1,9",
                             2, ("schema", "cutoff 9 outside 1..3"), None),
    "alpha-not-acceptable": (RELATION_ACROSS_ROWS, None, "eval --skp {} --poly X1 --alpha 1,1,2",
                             2, ("schema", "bad --alpha '1,1,2': (1, 1, 2) is not an acceptable"),
                             None),
    "realize-limit-labels-zero": (GAMMA, {"limit_labels": 0}, "realize {}",
                                  2, ("schema", "limit_labels: an array"), None),
    "realize-leftover-minimality-bound": (GAMMA, {"minimality_bound": 12}, "realize {}",
                                          2, ("schema", "minimality_bound: unknown key"), None),
    "verify-doubling-chain-6": (DOUBLING_6, None, "verify {}",
                                0, None, {"realization.verification.passed": True}),
    # a cutoff truncates the key polynomials, not the adic expansion
    "eval-power-truncated-to-nothing": ("example1_tail.json", None, "eval --skp {} --poly X0^6",
                                        0, None, {"value_str": "(0, 0, 6)"}),
    "expand-truncated-key-polynomial": ("remark_diffskp.json", {"cutoff": 1}, "expand {} --poly X1",
                                        0, None,
                                        {"expansion": [{"coeff": "1", "exponents": {"1,1": 1}}]}),
    "realize-no-generators": (GAMMA, {"generators": []}, "realize {}",
                              2, ("schema", "need at least one generator"), None),
    "realize-limit-label-past-the-generators": (GAMMA, {"limit_labels": [4]}, "realize {}",
                                                2, ("schema", "limit label 4 outside the generator"),
                                                None),
    "realize-limit-labels-in-the-table": (GAMMA, {"limit_labels": [2]}, "realize {}",
                                          0, None, {"realization.table.limit_labels": {"1,1": 1}}),
    "classify-neither-values-nor-declared": (NO_ARITHMETIC, None, "classify {}",
                                             2, ("schema", "need either values or declared"), None),
    # declared predicates that rows I and VI of the lookup table both match
    "classify-ambiguous": (AMBIGUOUS, None, "classify {}",
                           0, None, {"classification.status": "AMBIGUOUS",
                                     "classification.matches.0.row": "I",
                                     "classification.matches.1.row": "VI"}),
    "classify-infinite-string": ("classify_vii.json", {"arithmetic.rows.0.infinite": "no"},
                                 "classify {}", 2,
                                 ("schema", "arithmetic.rows.0.infinite: one of true, false"),
                                 None),
    "poly-arabic-indic-index": ("remark_diffskp.json", None, "eval --skp {} --poly X١",
                                2, ("schema", "bad character"), None),
    "theta-at-a-tail-predecessor": ("example1_tail.json", {"thetas": {"2,1": "2"}}, "build {}",
                                    2, ("schema", "a theta at 2,1"), None),
    "delta-j-not-an-int": ("remark_diffskp.json", None, "delta --skp {} --poly X1 --j one",
                           2, ("usage", "invalid int value"), None),
    # a misspelled key is refused by its key path, at any depth
    "misspelled-thetas": ("swapped_diffskp.json", {"thetaz": {"1,2": "-1"}}, "build {}",
                          2, ("schema", "thetaz: unknown key"), None),
    "misspelled-limit-tails": ("example1_tail.json", {"limit_tail": []}, "build {}",
                               2, ("schema", "limit_tail: unknown key"), None),
    "misspelled-samples": ("gamma_4_6_13.json", {"sample": 5}, "verify {}",
                           2, ("schema", "sample: unknown key"), None),
    "misspelled-cutoff": ("example1_tail.json", {"cutof": 5}, "build {}",
                          2, ("schema", "cutof: unknown key"), None),
    "misspelled-tail-depth": ("example1_tail.json", {"limit_tails.0.dpeth": 20}, "build {}",
                              2, ("schema", "limit_tails.0.dpeth: unknown key"), None),
    "misspelled-limit-labels": ("example1_tail.json", {"values.limit_label": {"2,2": 1}},
                                "build {}", 2, ("schema", "values.limit_label: unknown key"), None),
    "misspelled-infinite": ("classify_vii.json", {"arithmetic.rows.0.infinit": True},
                            "classify {}", 2,
                            ("schema", "arithmetic.rows.0.infinit: unknown key"), None),
    # depth 0 is the one spelling of "no unrolling"
    "negative-tail-depth": ("example1_tail.json", {"limit_tails.0.depth": -3}, "build {}",
                            2, ("schema", "limit_tails.0.depth: an integer >= 0"), None),
    # a message names one repeated label, or the prime, not the whole input
    "realize-500-repeated-labels": ("gamma_4_6_13.json", {"limit_labels": [2] * 500},
                                    "realize {}", 2, ("schema", "repeat a position"), None),
    "theta-of-4000-digits-over-gf7": ("swapped_diffskp.json",
                                      {"field": {"prime": 7}, "thetas": {"1,2": "1/" + "7" * 4000}},
                                      "build {}", 2, ("schema", "divisible by 7 is not in F7"), None),
    "poly-long-literal-over-zero": ("remark_diffskp.json", None, f"eval --skp {{}} --poly {LONG_LITERAL}",
                                    2, ("schema", "bad rational literal '1111"), None),
    "poly-long-bad-characters": ("remark_diffskp.json", None, f"eval --skp {{}} --poly {LONG_GARBAGE}",
                                 2, ("schema", "bad character at '####"), None),
    "poly-variable-wider-than-the-ring": ("remark_diffskp.json", None,
                                          f"eval --skp {{}} --poly X{WIDE_INDEX}",
                                          2, ("schema", "out of range (ring has X0..X1)"), None),
    "poly-variable-index-past-int": ("remark_diffskp.json", None, f"eval --skp {{}} --poly X{LONG_INDEX}",
                                     2, ("schema", "variable index 9999"), None),
    "poly-exponent-past-int": ("remark_diffskp.json", None, f"eval --skp {{}} --poly X0^{LONG_INDEX}",
                               2, ("schema", "exponent 9999"), None),
    "alpha-cutoff-past-int": ("remark_diffskp.json", None,
                              f"eval --skp {{}} --poly X1 --alpha 1,{LONG_INDEX}",
                              2, ("schema", "has too many digits"), None),
    "alpha-cutoff-beyond-its-row": ("remark_diffskp.json", None,
                                    f"eval --skp {{}} --poly X1 --alpha 1,{WIDE_INDEX}",
                                    2, ("schema", "outside 1..3"), None),
}


@pytest.mark.parametrize(
    "problem, mutation, argv, exit_code, diagnostic, fields", PROBES.values(), ids=list(PROBES)
)
def test_probe(tmp_path, problem, mutation, argv, exit_code, diagnostic, fields):
    path = write_problem(tmp_path, problem, mutation)
    kind, message = diagnostic or (None, None)
    argv = [path if a == "{}" else a for a in argv.split()]
    report = run_cli(*argv, code=exit_code, kind=kind, message=message).report
    assert diagnostic or report["diagnostics"] == []
    for path, want in (fields or {}).items():
        container, key = at(report["result"], path)
        assert container[key] == want
