"""Coefficients are stored in the field's form after every operation.

Over Q an integral coefficient is an ``int`` and any other a ``Fraction``;
over GF(7) every coefficient is an ``int`` in [0, 7).  The inputs carry
fractions (1/2, 3/2, 1/3, and a theta of 1/2) so that results over Q mix
integral and non-integral coefficients.
"""

from fractions import Fraction

import pytest

from skpval import (
    GF,
    MultiPoly,
    SkpValuation,
    adic_expand,
    build_skp,
    compute_relations,
    euclidean_expand,
    graded_normal_form,
    monic_divide,
    parse_poly,
)
from skpval.fields import QQ

FIELDS = pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])


def assert_field_form(coeffs, field):
    coeffs = list(coeffs)
    assert coeffs
    for c in coeffs:
        if field == QQ:
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c
        else:
            assert type(c) is int and 0 <= c < field.p, c


def poly_coeffs(*polys):
    return [c for f in polys for c in f.terms.values()]


@pytest.fixture(scope="module")
def tables():
    """The plane-curve table with U_{1,2} = X1^2 - 1/2*X0^3 and a row-final
    theta of 1/2, per field."""
    rows = compute_relations([[2], [3, 9, 10]])
    thetas = {(1, 1): Fraction(1, 2), (1, 3): Fraction(1, 2)}
    return {field: build_skp(rows, thetas=thetas, field=field) for field in (QQ, GF(7))}


def inputs(field):
    f = parse_poly("1/2*X0 + 3/2*X1^2 - 2", 2, field)
    g = parse_poly("X1^2 + 2/3*X0*X1 + 1/3", 2, field)
    return f, g


def test_integral_product_is_an_int():
    f = parse_poly("1/2*X0", 2) * parse_poly("2", 2)
    assert f.terms == {(1, 0): 1} and type(f.terms[(1, 0)]) is int
    assert type(parse_poly("1/2*X0", 2).terms[(1, 0)]) is Fraction


@FIELDS
def test_ring_operations(field):
    f, g = inputs(field)
    results = [f + g, f - g, -f, f * g, f**3, f.scale(2), f.scale(Fraction(2, 3)), g.scale(3)]
    for h in results:
        assert_field_form(h.terms.values(), field)
    if field == QQ:
        assert {type(c) for c in poly_coeffs(*results)} == {int, Fraction}


@FIELDS
def test_parse_json_and_construction(field):
    f, g = inputs(field)
    assert_field_form(poly_coeffs(f, g), field)
    h = MultiPoly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): 9}, field)
    assert_field_form(h.terms.values(), field)


@FIELDS
def test_monic_divide(field):
    f, g = inputs(field)
    q, r = monic_divide(f * g + f, g, 1)
    assert_field_form(poly_coeffs(q, r), field)


@FIELDS
def test_expansions_and_normal_form(field, tables):
    skp = tables[field]
    v = SkpValuation(skp)
    f, g = inputs(field)
    for h in (f * g, (f + g) ** 2, parse_poly("2*X1^2", 2, field)):
        assert_field_form((m.coeff for m in adic_expand(h, v)), field)
        assert_field_form(poly_coeffs(*(c for _, c in euclidean_expand(h, v))), field)
        form = graded_normal_form(h, v)
        assert_field_form(form.torus.values(), field)
    # 4*U_{1,3}^2 = 4 * (1/2)^2 * T^2 * U^J: the torus coefficient is the int 1
    h = skp.entries[(1, 3)].poly ** 2 * MultiPoly.constant(4, 2, field)
    torus = graded_normal_form(h, v).torus
    assert torus == {(2,): 1}
    assert_field_form(torus.values(), field)
    # 2*X1^2 = 2*U_{1,2} + 2 * 1/2 * X0^3: the theta product is the int 1
    expansion = adic_expand(parse_poly("2*X1^2", 2, field), SkpValuation(skp, (1, 2)))
    assert sorted(m.coeff for m in expansion) == [1, 2]
    assert_field_form((m.coeff for m in expansion), field)
