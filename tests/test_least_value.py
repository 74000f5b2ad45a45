"""The value-ordered expansion against the full one.

``least_value_part`` rewrites in value order and stops at the first value
class that survives; ``full_least_part`` in tests/oracles.py expands
everything and takes the minimum.  Every function built on the least value
must give exactly what it gives on the full route, which rows of
``test_cross_checks.CHECKS`` check on the corpus.
"""

import random

import pytest

from skpval import (
    GF,
    GroupValue,
    InvalidTableError,
    MultiPoly,
    SkpValuation,
    adic_expand,
    build_skp,
    compute_relations,
    delta_of,
    euclidean_expand,
    graded_normal_form,
    initial_form,
    jsonio,
    parse_poly,
    value_of,
    value_via_euclidean,
)
from skpval.expansion import RuleSet, least_value, least_value_part
from skpval.skp import rewrite_rules

from conftest import (
    CORPUS,
    EXACT,
    VALUE_ENTRIES,
    acceptable_vectors,
    at_rewrite_cap,
    attainment_products,
    corpus,
    doubling_chain,
    part_json,
    run_cli,
    value_lowering_tail,
    write_problem,
)
from oracles import admits_tie, full_least_part, multiplied_out, planted_expansion
from test_cross_checks import CHECKS, run_check


class TestAgainstFullExpansion:
    def test_every_built_table_stops_early(self):
        # no rule of a built table has a branch of lower value: the rule
        # set records no refusal at any acceptable vector of any table of
        # the corpus (on the table whose cutoff truncated U_{1,2} to 0,
        # whose context's rule_set is refused for that, the rule set is
        # built alone)
        for name in CORPUS:
            skp = corpus(name)
            for alpha in acceptable_vectors(skp):
                if name == "remark_diffskp_cutoff1":
                    assert RuleSet(skp, SkpValuation(skp, alpha).rules).refusal is None
                else:
                    assert SkpValuation(skp, alpha).rule_set.refusal is None


# the value loop's many-polynomial tables, by the ids of their tests: the
# data and realized tables with no cutoff over Q, (4, 6, 13) also over GF(2)
# and GF(3), and example1_tail at cutoff 16
DENSE = {
    "doubling-5": "doubling_5",
    "example1_tail-cutoff-16": "example1_tail_cutoff16",
    "example2": "example2",
    "free_pair": "free_pair",
    "gamma_4_6_13-GF2": "gamma_4_6_13_gf2",
    "gamma_4_6_13-GF3": "gamma_4_6_13_gf3",
    "gamma_4_6_13": "gamma_4_6_13",
    "remark_diffskp": "remark_diffskp",
    "swapped_diffskp": "swapped_diffskp",
}


class TestDenseLoopCrossCheck:
    """The value loop on many polynomials at the full vector against two
    routes that share none of it: the complete ``adic_expand`` with its
    minimum taken afterwards, and the rescanning reference's initial form.
    The Euclidean value of the same vectors is the euclid-value-adic and
    euclid-value-bound rows of ``CHECKS``."""

    @pytest.mark.parametrize("name", [pytest.param(name, id=key) for key, name in DENSE.items()])
    def test_least_value_and_part(self, name):
        for check in ("least-part-full", "initial-form-rescan"):
            run_check(CHECKS[check].run, name, [((name,), "full", 60)], f"dense loop {check} {name}")


class TestValueLoweringRule:
    def test_the_valuation_refuses_it_by_name(self):
        skp = jsonio.build_from_problem(value_lowering_tail())
        n, _, terms = rewrite_rules(skp, skp.row_lengths())[(2, 1)]
        betas = dict(zip(skp.order, skp.chain.rows))
        power = tuple(n * c for c in betas[(2, 1)])
        assert any(m == (((0, 1), 1),) for _, m in terms)
        assert tuple(betas[(0, 1)]) < power
        # a context holds the table (build, expand and classify run on it):
        # the gate trips on the first value call
        adic_expand(parse_poly("X2", 3), SkpValuation(skp))
        message = r"^U_\{2,1\}\^1 rewrites to a branch of lower value"
        for entry in VALUE_ENTRIES:
            with pytest.raises(InvalidTableError, match=message):
                entry(parse_poly("X2", 3), SkpValuation(skp))

    def test_value_commands_exit_1(self, tmp_path):
        path = write_problem(tmp_path, value_lowering_tail())
        poly = ["--skp", path, "--poly", "X2"]
        for argv in (["eval"] + poly, ["initial"] + poly, ["normal-form"] + poly,
                     ["delta"] + poly + ["--j", "2"]):
            run_cli(*argv, code=1, kind="InvalidTable", message="U_{2,1}")
        for argv in (["build", path], ["expand", path, "--poly", "X2"], ["classify", path]):
            run_cli(*argv, code=0)


EMPTY_ROW_0 = build_skp(compute_relations([[], [2], [3, 7]]))
POLY_ENTRIES = (
    adic_expand, euclidean_expand, value_of, initial_form, least_value_part, value_via_euclidean
)


class TestPolynomialCheck:
    """Every expansion and value entry refuses a polynomial by the table's
    one check, with one message per fault, after the value rules."""

    @pytest.mark.parametrize(
        "f, message",
        [
            (parse_poly("X1", 2), "polynomial ring does not match the table"),
            (parse_poly("X1 + X2", 3, GF(7)), "polynomial ring does not match the table"),
            (parse_poly("X0 + X1", 3), "X0 appears but row 0 has no key polynomials"),
            (parse_poly("X2^3 * X0", 3), "X0 appears but row 0 has no key polynomials"),
        ],
        ids=["two-vars", "gf7", "x0-plus-x1", "x0-in-a-product"],
    )
    def test_one_message_per_fault(self, f, message):
        v = SkpValuation(EMPTY_ROW_0)
        for entry in POLY_ENTRIES:
            with pytest.raises(ValueError, match=f"^{message}$"):
                entry(f, v)
        assert value_of(parse_poly("X1 + X2", 3), v) == GroupValue((2,))

    def test_value_rules_refuse_first(self, tmp_path):
        # the lowering tail's table with an empty row 3 on top
        data = value_lowering_tail()
        data["values"]["rows"].append([])
        v = SkpValuation(jsonio.build_from_problem(data))
        f = parse_poly("X3 + X2", 4)
        for entry in POLY_ENTRIES:
            # neither expansion reads the value rules
            fault = ValueError if entry in (adic_expand, euclidean_expand) else InvalidTableError
            with pytest.raises(fault):
                entry(f, v)
        # the command line refuses the polynomial before it builds a context
        path = write_problem(tmp_path, data)
        for poly, code, kind in (("X3 + X2", 2, "schema"), ("X2", 1, "InvalidTable")):
            run_cli("eval", "--skp", path, "--poly", poly, code=code, kind=kind)


class TestEarlyStop:
    """The value-ordered loop stops early under the same rewrite cap as
    ``adic_expand``, so a silent fall back to the full expansion fails."""

    @pytest.mark.parametrize("text, least, full", [("(X0+X1)^10", 0, 145), ("X1^8", 4, 30)])
    def test_pinned_rewrite_counts(self, diffskp, text, least, full):
        f = parse_poly(text, 2)
        valuation = SkpValuation(diffskp)
        part = at_rewrite_cap(least, lambda: least_value_part(f, valuation))
        want = full_least_part(f, valuation)
        assert part_json(part, diffskp) == part_json(want, diffskp)
        at_rewrite_cap(full, lambda: adic_expand(f, valuation))


PLANTED_PER_TABLE = 40


class TestPlantedExpansions:
    """Polynomials built as sums of adic monomials: ``adic_expand`` returns
    the planted monomials, and the value loop and the Euclidean route both
    give min sum e * beta over them, summed here as GroupValues, on every
    exact table of the corpus; the initial form is the planted
    monomials of that value, delta their greatest exponent at the top row's
    cutoff entry, and the graded normal form has that value.  On every
    table that ``oracles.admits_tie``, and only there, some plants tie in
    the least value."""

    @pytest.mark.parametrize("name", EXACT)
    def test_planted_expansion_is_recovered(self, name):
        skp = corpus(name)
        valuation = SkpValuation(skp)
        rng = random.Random(sum(map(ord, name)) + 7)
        zero = GroupValue((0,) * skp.dimension)
        ties = 0
        for _ in range(PLANTED_PER_TABLE):
            f, planted = planted_expansion(rng, skp)
            assert {m.key: m.coeff for m in adic_expand(f, valuation)} == planted, str(f)
            values = {
                key: sum((skp.entries[index].beta.scale(e) for index, e in key), zero)
                for key in planted
            }
            low = min(values.values())
            assert skp.chain.value(least_value(f, valuation)) == low, str(f)
            least = {key: c for key, c in planted.items() if values[key] == low}
            ties += len(least) > 1
            row, part = least_value_part(f, valuation)
            assert skp.chain.value(row) == low
            assert {m.key: m.coeff for m in part} == least
            assert value_via_euclidean(f, valuation) == low, str(f)
            assert {m.key: m.coeff for m in initial_form(f, valuation)} == least
            top = (skp.nvars - 1, valuation.alpha[-1])  # the top row's cutoff entry
            assert delta_of(f, valuation) == max(dict(key).get(top, 0) for key in least)
            assert graded_normal_form(f, valuation).value == low
        assert (ties > 0) == admits_tie(skp), ties

    def test_planted_tie_in_the_least_value(self):
        # random plants almost never tie at their least value; on
        # remark_diffskp U_{0,1}^5 and U_{1,3} both have value 10 and
        # U_{1,1} * U_{1,3} has 13, so the initial form keeps the first two
        # and delta is the greater exponent of the top row's cutoff entry
        skp = corpus("remark_diffskp")
        valuation = SkpValuation(skp)
        planted = {(((0, 1), 5),): 1, (((1, 3), 1),): -2, (((1, 1), 1), ((1, 3), 1)): 3}
        f = sum(
            (multiplied_out(skp.entries, key, None).scale(c) for key, c in planted.items()),
            MultiPoly.zero(skp.nvars, skp.field),
        )
        least = {(((0, 1), 5),): 1, (((1, 3), 1),): -2}
        assert {m.key: m.coeff for m in initial_form(f, valuation)} == least
        assert delta_of(f, valuation) == 1
        assert graded_normal_form(f, valuation).value == GroupValue((10,))


class TestRewriteCount:
    """The value loop's rewrite count on the costliest attainment products
    of the realized 6-generator doubling chain, pinned two ways through
    the rewrite cap.  The count rests on the heap popping every parent
    before its equal-weight children (``expansion``); a key or tie order
    that breaks this rewrites a key more than once in a class and fails."""

    @pytest.mark.parametrize(
        "witness, rewrites",
        [
            ((0, 0, 0, 0, 0, 4), 6789),
            ((0, 0, 0, 0, 1, 3), 4519),
            ((0, 0, 0, 1, 0, 3), 3655),
            ((0, 0, 1, 0, 0, 3), 3229),
            ((1, 0, 0, 0, 0, 3), 2887),
        ],
    )
    def test_costliest_products(self, witness, rewrites):
        valuation, products = attainment_products(doubling_chain(6))
        [(gamma, f)] = [(gamma, f) for gamma, w, f in products if w == witness]
        row, _ = at_rewrite_cap(rewrites, lambda: least_value_part(f, valuation))
        assert valuation.skp.chain.value(row) == gamma
