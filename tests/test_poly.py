import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skpval import (
    GF,
    MultiPoly,
    NotMonicError,
    PolyParseError,
    ZeroPolyError,
    monic_divide,
    order_of,
    parse_poly,
)
from skpval.poly import poly_from_json


def P(text, nvars=2, field=None):
    if field is None:
        return parse_poly(text, nvars)
    return parse_poly(text, nvars, field)


def random_poly(rng, nvars, max_deg, max_terms=6):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-4, 4))
    return MultiPoly(nvars, terms)


class TestArithmetic:
    def test_exactness(self):
        f = P("1/3*X0 + 1/2*X1")
        g = f + f + f
        assert g == P("X0 + 3/2*X1")

    def test_mul(self):
        assert P("(X0+X1)^2") == P("X0^2 + 2*X0*X1 + X1^2")

    @given(st.integers(0, 6), st.integers(0, 6))
    def test_pow_matches_repeated_mul(self, a, b):
        f = P("X0 + 2*X1") ** a * P("X0 - X1") ** b
        g = MultiPoly.one(2)
        for _ in range(a):
            g = g * P("X0 + 2*X1")
        for _ in range(b):
            g = g * P("X0 - X1")
        assert f == g

    def test_prime_field(self):
        F5 = GF(5)
        f = P("X0^2 + 4", field=F5) + P("1", field=F5)
        assert f == P("X0^2", field=F5)

    def test_no_zero_terms_stored(self):
        f = P("X0") - P("X0")
        assert f.is_zero() and f.terms == {}


class TestOrder:
    def test_min_total_degree(self):
        assert order_of(P("X0^2*X1 + X0^5")) == 3

    def test_constant(self):
        assert order_of(P("1")) == 0

    def test_single_term(self):
        assert order_of(P("X0^3*X1*X2^2", nvars=3)) == 6

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolyError):
            order_of(MultiPoly.zero(2))

    def test_additive_under_product(self):
        rng = random.Random(5)
        for _ in range(80):
            f = random_poly(rng, 2, 4)
            g = random_poly(rng, 2, 4)
            if f.is_zero() or g.is_zero():
                continue
            assert order_of(f * g) == order_of(f) + order_of(g)


class TestMonicDivide:
    def test_cusp_divisor(self):
        f = P("X1^3")
        g = P("X1^2 - X0^3")
        q, r = monic_divide(f, g, 1)
        assert q == P("X1")
        assert r == P("X0^3*X1")
        assert q * g + r == f

    def test_self(self):
        g = P("X1^2 - X0^3")
        q, r = monic_divide(g, g, 1)
        assert q == P("1") and r.is_zero()

    def test_low_degree(self):
        f = P("X0^5")
        g = P("X1^2 - X0^3")
        q, r = monic_divide(f, g, 1)
        assert q.is_zero() and r == f

    def test_not_monic(self):
        with pytest.raises(NotMonicError):
            monic_divide(P("X1"), P("2*X1 - X0"), 1)
        with pytest.raises(NotMonicError):
            # leading X1-coefficient X0 is not the constant 1
            monic_divide(P("X1"), P("X0*X1 - 1"), 1)

    def test_roundtrip_500(self):
        rng = random.Random(2024)
        for _ in range(500):
            f = random_poly(rng, 2, 8)
            dg = rng.randint(1, 3)
            g = MultiPoly.monomial((0, dg), 1, 2)
            for _ in range(rng.randint(0, 4)):
                exps = (rng.randint(0, 4), rng.randint(0, dg - 1))
                g = g + MultiPoly.monomial(exps, Fraction(rng.randint(-4, 4)), 2)
            assert g.is_monic_in(1)
            q, r = monic_divide(f, g, 1)
            assert q * g + r == f
            assert r.is_zero() or r.deg_in(1) < g.deg_in(1)


class TestTruncation:
    def test_cutoff_drops_terms(self):
        assert P("X0^2*X1^2 + X0*X1").truncate(3) == P("X0*X1")

    def test_inactive(self):
        f = P("X0^9")
        assert f.truncate(None) == f


class TestTextAndJson:
    def test_deterministic_str(self):
        f = P("X1^2 - X0^3 - X0^3*X1")
        assert str(f) == "X1^2 - X0^3*X1 - X0^3"

    def test_parse_round_trip(self):
        for text in ("X1^2 - X0^3", "3/4*X0*X1 + 2", "-(X0 - X1)^2"):
            f = P(text)
            assert P(str(f)) == f

    def test_rational_coefficient(self):
        assert P("3/2*X0") == P("X0") * Fraction(3, 2)

    def test_parse_errors(self):
        for bad in ("", "X5", "X0 +", "2**X0", "X0^(2)"):
            with pytest.raises(PolyParseError):
                P(bad)

    def test_json_round_trip(self):
        f = P("X1^2 - 5/3*X0^3")
        assert poly_from_json(f.to_json(), 2) == f
