"""The value-ordered expansion against the full one.

``least_value_part`` rewrites in value order and stops at the first value
class that survives; ``full_least_part`` in tests/oracles.py expands
everything and takes the minimum.  Every function built on the least value
must give exactly what it gives on the full route.
"""

import contextlib
import functools
import json
import random
from pathlib import Path
from unittest import mock

import pytest

import skpval.valuation
from skpval import (
    GF,
    GroupValue,
    InvalidTableError,
    MultiPoly,
    SemigroupSpec,
    SkpValuation,
    ZeroPolyError,
    adic_expand,
    build_skp,
    compute_relations,
    delta_of,
    euclidean_expand,
    graded_normal_form,
    initial_form,
    jsonio,
    minimal_pseudo_skp,
    parse_poly,
    value_of,
    value_via_euclidean,
)
from skpval.expansion import AdicExpansion, RuleSet, least_value, least_value_part
from skpval.realize import random_polynomial, realize
from skpval.skp import rewrite_rules

from conftest import (
    VALUE_ENTRIES,
    acceptable_vectors,
    at_rewrite_cap,
    attainment_products,
    doubling_chain,
    example1_rows,
    run_cli,
    write_problem,
)
from oracles import (
    admits_tie,
    full_least_part,
    multiplied_out,
    planted_expansion,
    rescan_adic_expand,
    rescan_initial_form,
)

DATA = Path(__file__).parent / "data"
POLYS_PER_VECTOR = 12


def _problem(name, **changes):
    data = json.loads((DATA / name).read_text())
    data.update(changes)
    return data


def _tables():
    """The skp tables of tests/data and their minimal tables over Q and
    GF(7), the ``example1`` fixture, and the diffskp table under cutoffs
    1, 2, 3, 5 and 8."""
    tables = {}
    for name in ("remark_diffskp", "swapped_diffskp", "example2", "example1_tail"):
        for label, field in (("Q", None), ("GF7", {"prime": 7})):
            skp = jsonio.build_from_problem(_problem(f"{name}.json", field=field))
            tables[f"{name}-{label}"] = skp
            tables[f"{name}-{label}-minimal"] = minimal_pseudo_skp(skp)
    rows, labels = example1_rows()
    tables["example1"] = build_skp(compute_relations(rows, limit_labels=labels))
    for cutoff in (1, 2, 3, 5, 8):
        tables[f"remark_diffskp-cutoff-{cutoff}"] = jsonio.build_from_problem(
            _problem("remark_diffskp.json", cutoff=cutoff)
        )
    return tables


TABLES = _tables()


def _outcome(compute):
    """The result, or the ZeroPolyError it raised."""
    try:
        return compute()
    except ZeroPolyError as exc:
        return ("ZeroPolyError", str(exc))


@contextlib.contextmanager
def _full_route():
    """Every function of ``skpval.valuation`` on the full expansion: both
    entries of the value loop, the value-only one that ``value_of`` calls
    and the one with monomials that the forms call."""
    def least(f, valuation):
        return full_least_part(f, valuation)[0]

    with mock.patch.object(skpval.valuation, "least_value_part", full_least_part), \
            mock.patch.object(skpval.valuation, "least_value", least):
        yield


def _results(f, skp, alpha):
    # the valuation is built inside each computation, so a table it refuses
    # gives the same ZeroPolyError on both routes
    valuation = functools.partial(SkpValuation, skp, alpha)
    computations = [
        lambda: value_of(f, valuation()).to_json(),
        lambda: initial_form(f, valuation()).to_json(),
        lambda: graded_normal_form(f, valuation()).to_json(skp.field),
    ]
    if alpha[-1]:
        computations.append(lambda: delta_of(f, valuation()))
    return [_outcome(compute) for compute in computations]


def _part_json(part, skp):
    low, monomials = part
    return low, AdicExpansion(skp, monomials).to_json()


def _polynomials(rng, skp, alpha):
    """Random polynomials, powers of key polynomials and their sums."""
    rows = [i for i in range(skp.nvars) if alpha[i]]
    degree = 8 if skp.nvars < 3 else 4
    for k in range(POLYS_PER_VECTOR):
        f = random_polynomial(rng, skp.nvars, degree, skp.field, rows)
        if k % 2:
            index = rng.choice([idx for idx in skp.order if idx[0] in rows])
            power = skp.entries[index].poly ** rng.randint(1, 3)
            f = power + f if k % 4 == 3 else power
        yield f


class TestAgainstFullExpansion:
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_every_acceptable_vector(self, name):
        skp = TABLES[name]
        rng = random.Random(sum(map(ord, name)))
        for alpha in acceptable_vectors(skp):
            for f in _polynomials(rng, skp, alpha):
                if f.is_zero():  # a key polynomial the cutoff truncated to 0
                    continue
                got = _outcome(
                    lambda: _part_json(least_value_part(f, SkpValuation(skp, alpha)), skp)
                )
                want = _outcome(
                    lambda: _part_json(full_least_part(f, SkpValuation(skp, alpha)), skp)
                )
                assert got == want, (alpha, str(f))
                results = _results(f, skp, alpha)
                with _full_route():
                    assert results == _results(f, skp, alpha), (alpha, str(f))

    def test_every_built_table_stops_early(self):
        # no rule of a built table has a branch of lower value: the rule
        # set records no refusal at any acceptable vector (on the table
        # whose cutoff truncated U_{1,2} to 0, whose context's rule_set is
        # refused for that, the rule set is built alone)
        for name, skp in TABLES.items():
            for alpha in acceptable_vectors(skp):
                if name == "remark_diffskp-cutoff-1":
                    assert RuleSet(skp, SkpValuation(skp, alpha).rules).refusal is None
                else:
                    assert SkpValuation(skp, alpha).rule_set.refusal is None


def _cross_check_tables():
    """The exact tables of tests/data (no cutoff; the realize problems
    realized), example1_tail.json at cutoff 16, where the adic and
    Euclidean routes agree, a realized 5-generator doubling chain and
    (4, 6, 13) realized over GF(2) and GF(3)."""
    tables = {
        name: jsonio.build_from_problem(_problem(f"{name}.json"))
        for name in ("remark_diffskp", "swapped_diffskp", "example2")
    }
    for name in ("gamma_4_6_13", "free_pair"):
        spec = jsonio.load_semigroup_spec(_problem(f"{name}.json"))
        tables[name] = realize(spec).valuation.skp
    tables["example1_tail-cutoff-16"] = jsonio.build_from_problem(
        _problem("example1_tail.json", cutoff=16)
    )
    tables["doubling-5"] = realize(SemigroupSpec(doubling_chain(5))).valuation.skp
    for p in (2, 3):
        spec = SemigroupSpec([[4], [6], [13]], field=GF(p))
        tables[f"gamma_4_6_13-GF{p}"] = realize(spec).valuation.skp
    return tables


CROSS_CHECK_TABLES = _cross_check_tables()
CROSS_CHECK_ROUNDS = 5  # of POLYS_PER_VECTOR polynomials each: about 1.5 s in all


class TestDenseLoopCrossCheck:
    """The value loop on dense keys against three routes that share none
    of it: the complete ``adic_expand`` with its minimum taken afterwards,
    the rescanning reference's initial form, and ``value_via_euclidean``."""

    @pytest.mark.parametrize("name", sorted(CROSS_CHECK_TABLES))
    def test_least_value_and_part(self, name):
        skp = CROSS_CHECK_TABLES[name]
        valuation = SkpValuation(skp)
        rng = random.Random(sum(map(ord, name)) + 1)
        checked = 0
        polynomials = [
            f for _ in range(CROSS_CHECK_ROUNDS) for f in _polynomials(rng, skp, skp.row_lengths())
        ]
        for f in polynomials:
            if f.is_zero():
                continue
            part = _outcome(lambda: _part_json(least_value_part(f, valuation), skp))
            assert part == _outcome(lambda: _part_json(full_least_part(f, valuation), skp)), str(f)
            if part[0] == "ZeroPolyError":
                with pytest.raises(ZeroPolyError):
                    least_value(f, valuation)
                continue
            low, monomials = part
            assert least_value(f, valuation) == low
            assert monomials == rescan_initial_form(f, valuation).to_json(), str(f)
            assert skp.chain.value(low) == value_via_euclidean(f, valuation), str(f)
            checked += 1
        assert checked >= len(polynomials) // 2


def _value_lowering_tail():
    """example1_tail.json with tail summands X0^(1+k): each has a lower
    value than the power U_{2,1} it replaces, (0, 2, 1)."""
    data = _problem("example1_tail.json")
    data["limit_tails"][0]["exponents"] = {"0,1": [1, 1]}
    return data


class TestValueLoweringRule:
    def test_the_valuation_refuses_it_by_name(self):
        skp = jsonio.build_from_problem(_value_lowering_tail())
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
        path = write_problem(tmp_path, _value_lowering_tail())
        poly = ["--skp", path, "--poly", "X2"]
        for argv in (["eval"] + poly, ["initial"] + poly, ["normal-form"] + poly,
                     ["delta"] + poly + ["--j", "2"]):
            run_cli(*argv, code=1, kind="InvalidTable", message="U_{2,1}")
        for argv in (["build", path], ["expand", path, "--poly", "X2"], ["classify", path]):
            run_cli(*argv, code=0)


class TestRefusedTableExpands:
    """``adic_expand`` runs on the one rule set, refusal and all: on the
    lowering tail's table it returns the rescanning reference's expansion
    and rewrite count."""

    def test_value_lowering_tail(self, monkeypatch):
        skp = jsonio.build_from_problem(_value_lowering_tail())
        valuation = SkpValuation(skp)
        assert valuation.rule_set.refusal[0] is InvalidTableError
        rng = random.Random(83)
        for f in [parse_poly("X2^3 + X1*X2", 3)] + [
            random_polynomial(rng, 3, 4) for _ in range(12)
        ]:
            reference, rewrites = rescan_adic_expand(f, skp)
            got = at_rewrite_cap(monkeypatch, rewrites, lambda: adic_expand(f, valuation))
            assert got.to_json() == reference.to_json(), str(f)


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
        data = _value_lowering_tail()
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
    def test_pinned_rewrite_counts(self, diffskp, text, least, full, monkeypatch):
        f = parse_poly(text, 2)
        valuation = SkpValuation(diffskp)
        part = at_rewrite_cap(monkeypatch, least, lambda: least_value_part(f, valuation))
        want = full_least_part(f, valuation)
        assert _part_json(part, diffskp) == _part_json(want, diffskp)
        at_rewrite_cap(monkeypatch, full, lambda: adic_expand(f, valuation))


PLANTED_PER_TABLE = 40


class TestPlantedExpansions:
    """Polynomials built as sums of adic monomials: ``adic_expand`` returns
    the planted monomials, and the value loop and the Euclidean route both
    give min sum e * beta over them, summed here as GroupValues, on every
    exact table of the cross-check; the initial form is the planted
    monomials of that value, delta their greatest exponent at the top row's
    cutoff entry, and the graded normal form has that value.  On every
    table that ``oracles.admits_tie``, and only there, some plants tie in
    the least value."""

    @pytest.mark.parametrize(
        "name", sorted(n for n, skp in CROSS_CHECK_TABLES.items() if skp.cutoff is None)
    )
    def test_planted_expansion_is_recovered(self, name):
        skp = CROSS_CHECK_TABLES[name]
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
        skp = CROSS_CHECK_TABLES["remark_diffskp"]
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
    def test_costliest_products(self, witness, rewrites, monkeypatch):
        valuation, products = attainment_products(doubling_chain(6))
        [(gamma, f)] = [(gamma, f) for gamma, w, f in products if w == witness]
        row, _ = at_rewrite_cap(monkeypatch, rewrites, lambda: least_value_part(f, valuation))
        assert valuation.skp.chain.value(row) == gamma
