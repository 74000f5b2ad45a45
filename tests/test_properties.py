"""Hypothesis properties of the valuation on the tables of tests/data.

The tables come from the corpus of ``conftest``: every ``skp`` problem in
tests/data as the CLI loads it, over Q and over GF(7), and
example1_tail.json at cutoff 16.  Polynomials are drawn with small total
degree and with coefficients that are integers or, over Q, fractions with
small denominators.  Example counts are capped to keep tier-1 quick.

The valuation axioms, the agreement of the adic and Euclidean routes and
the expansion property are checked on every table, example1_tail.json at
its declared cutoff 5 included.  A table's total-degree cutoff truncates its
key polynomials, not the adic expansion, which the rules and the betas
alone fix, so the adic route values a polynomial whose terms pass the
cutoff: X0^6 and X2^6 at cutoff 5, and products of key polynomials at
cutoff 16 (pinned below).  The Euclidean route divides by the truncated key
polynomials.  Where the cutoff cut a key polynomial below its own degree,
it values some polynomials wrongly or refuses them (NotMonicError), while
the adic route gives the value of the table with no cutoff (pinned below on
remark_diffskp.json at cutoffs 1 and 3).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skpval import (
    GroupValue,
    MultiPoly,
    NotMonicError,
    SkpValuation,
    adic_expand,
    parse_poly,
    value_of,
    value_via_euclidean,
)
from skpval.fields import QQ
from skpval.jsonio import build_from_problem

from conftest import DATA_SKP, corpus, problem

CUTOFF_16 = ("example1_tail_cutoff16", "example1_tail_cutoff16_gf7")
TABLES = [name + field for name in DATA_SKP for field in ("", "_gf7")] + list(CUTOFF_16)

PROPERTY_SETTINGS = settings(max_examples=15, deadline=None)


@pytest.fixture(scope="module")
def valuations():
    """Each table's context and the largest total degree drawn on it."""
    out = {}
    for name in TABLES:
        skp = corpus(name)
        out[name] = (SkpValuation(skp), 5 if skp.nvars == 2 else 2)
    return out


@st.composite
def polynomials(draw, nvars, field, degree):
    """A nonzero polynomial of total degree at most ``degree``."""
    # sampled from the exponent vectors of that degree, not filtered down to
    # them: with three variables most draws would be rejected
    vectors = itertools.product(range(degree + 1), repeat=nvars)
    exps = st.sampled_from([e for e in vectors if sum(e) <= degree])
    if field == QQ:
        coeffs = st.builds(
            Fraction, st.integers(-5, 5).filter(bool), st.sampled_from((1, 1, 2, 3))
        )
    else:
        coeffs = st.integers(1, field.p - 1)
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    return MultiPoly(nvars, terms, field)


def draw_poly(data, valuation, degree):
    skp = valuation.skp
    return data.draw(polynomials(skp.nvars, skp.field, degree))


def test_example1_tail_routes_agree_at_its_declared_cutoff(valuations):
    # X2^2 is 2 * nu(X2) on both routes at cutoff 5
    v, _ = valuations["example1_tail"]
    f = parse_poly("X2^2", 3)
    assert value_of(f, v) == value_via_euclidean(f, v) == GroupValue((0, 4, 2))


def test_routes_value_powers_past_the_declared_cutoff(valuations):
    # at cutoff 5 the products X0^6 and X2^6 truncate to 0, yet both routes
    # give 6 * beta: the adic expansion reads no product
    v, _ = valuations["example1_tail"]
    for text, value in (("X0^6", (0, 0, 6)), ("X2^6", (0, 12, 6))):
        f = parse_poly(text, 3)
        assert value_of(f, v) == value_via_euclidean(f, v) == GroupValue(value)


def test_example1_tail_routes_agree_at_cutoff_16():
    # with the tail unrolled to depth 64, a polynomial of degree 8
    data = problem("example1_tail.json", cutoff=16)
    data["limit_tails"][0]["depth"] = 64
    v = SkpValuation(build_from_problem(data))
    f = parse_poly("5*X0^2*X1*X2^5", 3)
    assert value_of(f, v) == value_via_euclidean(f, v) == GroupValue((0, 11, 7))


def test_example1_tail_routes_agree_on_a_key_power_at_cutoff_16():
    # U_{2,2}^2 truncated at cutoff 16 has value (0, 4, 13), as both routes
    # say at cutoff 40 with the tail unrolled to depth 64
    skp = corpus("example1_tail_cutoff16")
    f = skp.monomial_poly({(2, 2): 2})
    v = SkpValuation(skp)
    assert value_of(f, v) == value_via_euclidean(f, v) == GroupValue((0, 4, 13))
    data = problem("example1_tail.json", cutoff=40)
    data["limit_tails"][0]["depth"] = 64
    deep = SkpValuation(build_from_problem(data))
    assert value_of(f, deep) == value_via_euclidean(f, deep) == GroupValue((0, 4, 13))


def test_euclidean_route_fails_where_the_cutoff_cut_a_key_polynomial():
    # remark_diffskp.json at cutoff 3 leaves U_{1,3} as X1^2 - X0^3, below
    # its degree 4 in X1, and at cutoff 1 truncates U_{1,2} to 0: the
    # Euclidean route divides by them, and gives 20 where the value is 18,
    # or refuses; the adic route gives the value of the table with no cutoff
    full = SkpValuation(corpus("remark_diffskp"))
    f = parse_poly("X1^4 - 2*X0^3*X1^2 + X0^6", 2)
    for cutoff in (1, 3):
        v = SkpValuation(corpus(f"remark_diffskp_cutoff{cutoff}"))
        assert value_of(f, v) == value_of(f, full) == GroupValue((18,))
    assert value_via_euclidean(f, SkpValuation(corpus("remark_diffskp_cutoff3"))) == GroupValue((20,))
    with pytest.raises(NotMonicError, match="^divisor is not monic in X1$"):
        value_via_euclidean(f, SkpValuation(corpus("remark_diffskp_cutoff1")))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_euclidean_route_multiplies_at_the_declared_cutoff(valuations, data):
    # the Euclidean route adds values on products at example1_tail's own
    # cutoff 5
    v, _ = valuations["example1_tail"]
    f, g = draw_poly(data, v, 3), draw_poly(data, v, 3)
    assert value_via_euclidean(f * g, v) == value_via_euclidean(f, v) + value_via_euclidean(g, v)


@pytest.mark.parametrize("name", TABLES)
class TestValuationAxioms:
    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_product_adds_values(self, valuations, name, data):
        v, degree = valuations[name]
        half = max(degree // 2, 1)
        f, g = draw_poly(data, v, half), draw_poly(data, v, half)
        assert value_of(f * g, v) == value_of(f, v) + value_of(g, v)

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_sum_is_at_least_the_minimum(self, valuations, name, data):
        v, degree = valuations[name]
        f, g = draw_poly(data, v, degree), draw_poly(data, v, degree)
        if (f + g).is_zero():
            return
        vf, vg, vs = value_of(f, v), value_of(g, v), value_of(f + g, v)
        assert vs >= min(vf, vg)
        if vf != vg:
            assert vs == min(vf, vg)

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_adic_and_euclidean_routes_agree(self, valuations, name, data):
        v, degree = valuations[name]
        f = draw_poly(data, v, degree)
        assert value_of(f, v) == value_via_euclidean(f, v)


@pytest.mark.parametrize("name", TABLES)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_expansion_evaluates_back(valuations, name, data):
    v, degree = valuations[name]
    f = draw_poly(data, v, degree)
    assert adic_expand(f, v).evaluate() == f.truncate(v.skp.cutoff)
