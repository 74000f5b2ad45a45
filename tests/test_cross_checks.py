"""Every route of the library against an independent route or reference.

``CHECKS`` has one row per route/reference pair: a check of one polynomial
in one context, and the scopes it runs on.  A scope is (corpus tables, the
cutoffs of a table, polynomials per cutoff); a cutoff is a row and a
vector, the top row unless the scope cuts each row in turn.
``test_check`` runs a row on a table: at each cutoff of its scopes it
draws ``conftest.sample_polynomials`` (the most any scope asks for there)
and checks each in one ``SkpValuation``.  Where a total-degree cutoff
leaves a key polynomial not monic, the NotMonicError of a division by it is
part of the outcome and must be raised alike, message and all.

A new pair is a new row; a new table is an entry of ``conftest.CORPUS``
and a name in the scopes that should run on it.
"""

import random
import re
from collections import namedtuple
from unittest import mock

import pytest

import skpval.valuation
from skpval import (
    MultiPoly,
    NotMonicError,
    SkpValuation,
    adic_expand,
    delta_of,
    euclidean_expand,
    graded_normal_form,
    initial_form,
    value_of,
    value_via_euclidean,
)
from skpval.expansion import least_value, least_value_part
from skpval.ordgroup import is_finite_index
from skpval.skp import weigh

from conftest import (
    CORPUS,
    EXACT,
    REFUSED,
    acceptable_vectors,
    at_rewrite_cap,
    corpus,
    outcome,
    part_json,
    row_cut,
    sample_polynomials,
    top_cut,
)
from oracles import (
    full_least_part,
    group_euclid_value,
    long_euclidean_expand,
    rescan_adic_expand,
    rescan_graded_normal_form,
    rescan_initial_form,
)


def cuts(skp, kind):
    """The (row, vector) cutoffs of a scope: "every" acceptable vector,
    the "full" one, the full one and the top row cut at its second entry
    ("top"), or each "row" cut at each of its entries, the rows below in
    full."""
    top = skp.nvars - 1
    if kind == "row":
        return [(i, row_cut(skp, i, j).alpha) for i in range(top + 1)
                for j in range(1, skp.row_length(i) + 1)]
    vectors = acceptable_vectors(skp) if kind == "every" else [skp.row_lengths()]
    if kind == "top":
        vectors.append(top_cut(skp, 2).alpha)
    return [(top, alpha) for alpha in vectors]


def same(route, reference):
    """The check that ``route(f, v)`` and ``reference(f, v)`` have one outcome."""
    def check(v, row, f):
        assert outcome(lambda: route(f, v)) == outcome(lambda: reference(f, v))
    return check


def adic_against_rescan(v, row, f):
    # the expansion, and the rewrites it needs, of the rescanning loop
    reference, rewrites = rescan_adic_expand(f, v.skp, v.alpha)
    assert at_rewrite_cap(rewrites, lambda: adic_expand(f, v)).to_json() == reference.to_json()


def full_least_part_and_value(f, v):
    part = full_least_part(f, v)
    return part_json(part, v.skp), part[0]


def forms(f, v):
    """The value and the three forms built on the least value."""
    computations = [
        lambda: value_of(f, v).to_json(),
        lambda: initial_form(f, v).to_json(),
        lambda: graded_normal_form(f, v).to_json(v.skp.field),
    ]
    if v.alpha[-1]:
        computations.append(lambda: delta_of(f, v))
    return [outcome(compute) for compute in computations]


def value_forms(f, v):
    """``forms`` and the least value part."""
    return forms(f, v) + [outcome(lambda: part_json(least_value_part(f, v), v.skp))]


def untruncated(skp):
    """The corpus table that the corpus table ``skp`` at a cutoff is built
    from, with no cutoff."""
    name = next(name for name in CORPUS if "_cutoff" in name and corpus(name) is skp)
    return corpus(re.sub(r"_cutoff\d+", "", name))


def forms_on_the_full_route(f, v):
    """``forms`` with every function of ``skpval.valuation`` on the full
    expansion: both entries of the value loop, the value-only one that
    ``value_of`` calls and the one with monomials that the forms call."""
    def least(f, valuation):
        return full_least_part(f, valuation)[0]

    with mock.patch.object(skpval.valuation, "least_value_part", full_least_part), \
            mock.patch.object(skpval.valuation, "least_value", least):
        return forms(f, v)


def euclidean_value_against_adic(v, row, f):
    value = value_via_euclidean(f, v)
    assert value_of(f, v) == v.skp.chain.value(least_value(f, v)) == value


def typed(expansion):
    """A Euclidean expansion with each coefficient's type spelled out."""
    return [(exps, c.nvars, c.field, sorted((e, type(x), x) for e, x in c.terms.items()))
            for exps, c in expansion]


def expand_like_long_division(v, row, f):
    # for f and for a dividend of high degree in the row's variable; a
    # divisor that the cutoff left not monic is refused alike
    skp, j = v.skp, v.alpha[row]
    for g in (f, skp.entries[(row, j)].poly ** 2 * f + f):
        try:
            want = long_euclidean_expand(g, skp, j, row)
        except NotMonicError:
            with pytest.raises(NotMonicError):
                euclidean_expand(g, v, row)
            continue
        assert typed(euclidean_expand(g, v, row)) == typed(want)


def euclidean_multiplies_back(v, row, f):
    total = MultiPoly.zero(f.nvars, f.field)
    for exps, coeff in euclidean_expand(f, v):
        for j, e in exps.items():
            coeff = coeff * v.skp.entries[(row, j)].poly ** e
        total = total + coeff
    assert total == f


def adic_form(v, row, f):
    skp = v.skp
    expansion = adic_expand(f, v)
    assert expansion.evaluate() == f.truncate(skp.cutoff)
    assert adic_expand(expansion.evaluate(), v).to_json() == expansion.to_json()
    for m in expansion:
        for (i, j), e in m.key:
            n = skp.entries[(i, j)].n
            assert j == v.alpha[i] or not is_finite_index(n) or e < n, m.key
    vdegs = [weigh(m.key, skp.degree_weights, (0,) * skp.nvars) for m in expansion]
    assert len(set(vdegs)) == len(vdegs)


def adic_grouping_against_euclidean(v, row, f):
    skp, grouped = v.skp, {}
    for m in adic_expand(f, v):
        key = tuple((j, e) for (i, j), e in m.key if i == row)
        part = skp.monomial_poly({idx: e for idx, e in m.key if idx[0] != row}).scale(m.coeff)
        grouped[key] = grouped.get(key, MultiPoly.zero(skp.nvars, skp.field)) + part
    euclidean = {tuple(sorted(exps.items())): c for exps, c in euclidean_expand(f, v)}
    assert {k: g for k, g in grouped.items() if not g.is_zero()} == euclidean


ALL = CORPUS + tuple(REFUSED)
# the every-vector scopes leave out example1 over GF(7): its fourteen
# vectors would add about 5 s to what example1 over Q takes
EVERY = tuple(name for name in CORPUS if name != "example1_gf7")
EVERY_EXACT = tuple(name for name in EVERY if name in EXACT)
INEXACT = tuple(name for name in CORPUS if name not in EXACT)
KEYS = ("remark_diffskp", "example2", "remark_diffskp_gf7", "example2_gf7")
# the tables of conftest.THETAS: U_{1,3} with a non-integral coefficient,
# and with one that makes a division widen its digits
THETA = tuple(name for name in CORPUS if "_theta_" in name)
KEYS_3 = ("example1", "example1_gf7")
# the cutoff tables of remark_diffskp; cutoffs 1, 2 and 3 cut U_{1,3}, of
# degree 4 in X1, to 0, X1^2 and X1^2 - X0^3
CUTOFFS = tuple(name for name in CORPUS if name.startswith("remark_diffskp_cutoff"))
TRUNCATED = ("remark_diffskp_cutoff1", "remark_diffskp_cutoff2", "remark_diffskp_cutoff3")
# the cutoff tables on which the two value routes agree
ROUTES_AGREE = tuple(name for name in INEXACT if name not in TRUNCATED)

Check = namedtuple("Check", "run scopes")

# test_expansion.TestRewriteOrder runs adic-rescan at the top cuts of
# remark_diffskp, example2 and example1, and
# test_least_value.TestDenseLoopCrossCheck runs least-part-full and
# initial-form-rescan on many polynomials at the full vector
CHECKS = {
    "adic-rescan": Check(adic_against_rescan, [(EVERY, "every", 8), (tuple(REFUSED), "full", 13)]),
    "initial-form-rescan": Check(same(
        lambda f, v: initial_form(f, v).to_json(),
        lambda f, v: rescan_initial_form(f, v).to_json(),
    ), [(EVERY, "every", 8)]),
    "normal-form-rescan": Check(same(
        lambda f, v: graded_normal_form(f, v).to_json(v.skp.field),
        lambda f, v: rescan_graded_normal_form(f, v).to_json(v.skp.field),
    ), [(EVERY, "every", 8)]),
    # the value-ordered loop keeps the least class of the whole expansion,
    # and its value-only entry gives that class's value
    "least-part-full": Check(same(
        lambda f, v: (part_json(least_value_part(f, v), v.skp), least_value(f, v)),
        full_least_part_and_value,
    ), [(EVERY, "every", 12)]),
    "forms-full-route": Check(same(forms, forms_on_the_full_route), [(EVERY, "every", 12)]),
    "euclid-value-group": Check(same(
        lambda f, v: value_via_euclidean(f, v).to_json(),
        lambda f, v: group_euclid_value(f, v, v.skp.nvars - 1).to_json(),
    ), [(EVERY, "every", 8), (KEYS, "top", 25), (KEYS_3, "top", 10)]),
    "euclid-value-adic": Check(euclidean_value_against_adic, [(EXACT, "full", 70)]),
    # the same on the cutoff tables, but where the Euclidean route divides
    # by a key polynomial the cutoff cut below its own degree
    # (test_properties pins its values there)
    "euclid-value-bound": Check(euclidean_value_against_adic, [
        (ROUTES_AGREE, "every", 12), (ROUTES_AGREE, "full", 60),
    ]),
    # a cutoff truncates the key polynomials, not the adic expansion: the
    # value and the forms are those of the table with no cutoff
    "untruncated": Check(same(
        value_forms, lambda f, v: value_forms(f, SkpValuation(untruncated(v.skp), v.alpha)),
    ), [(CUTOFFS, "every", 40)]),
    "euclid-expand-long": Check(expand_like_long_division, [
        (KEYS, "row", 6), (KEYS_3, "row", 2), (TRUNCATED, "row", 10), (THETA, "row", 10),
    ]),
    "euclid-evaluate": Check(euclidean_multiplies_back, [
        (("remark_diffskp", "example2", *THETA), "every", 40),
    ]),
    # the expansion evaluates back to f truncated at the cutoff, expands
    # again to itself, keeps each exponent below n before a row's cutoff
    # entry, and gives its monomials distinct Vdeg, so the comparator is a
    # total order on it
    "adic-evaluate": Check(adic_form, [
        (EXACT, "full", 25), (("remark_diffskp", "example2", "remark_diffskp_minimal"), "full", 60),
    ]),
    # grouped by its top-row exponents, the adic expansion gives the
    # Euclidean coefficients
    "adic-grouping": Check(adic_grouping_against_euclidean, [
        (EVERY_EXACT, "every", 8), (("remark_diffskp", "example2"), "top", 100),
    ]),
}


@pytest.mark.parametrize("check, name", [
    pytest.param(check, name, id=f"{check}-{name}")
    for check, (_, scopes) in CHECKS.items()
    for name in ALL
    if any(name in tables for tables, _, _ in scopes)
])
def test_check(check, name):
    run, scopes = CHECKS[check]
    run_check(run, name, scopes, f"{check} {name}")


def run_check(run, name, scopes, seed):
    """Run the check ``run`` on corpus table ``name`` at the cutoffs of
    those ``scopes`` that name it, drawing polynomials from ``seed``."""
    skp = corpus(name)
    plan = {}  # (row, vector) -> polynomials
    for tables, kind, polys in scopes:
        if name in tables:
            for cut in cuts(skp, kind):
                plan[cut] = max(plan.get(cut, 0), polys)
    rng = random.Random(seed)
    for (row, alpha), polys in plan.items():
        v = SkpValuation(skp, alpha)
        for f in sample_polynomials(rng, skp, alpha, polys):
            try:
                run(v, row, f)
            except AssertionError as exc:
                raise AssertionError(f"{alpha} {f}") from exc
