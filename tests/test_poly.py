import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skpval import (
    GF,
    MultiPoly,
    NotMonicError,
    PolyParseError,
    SchemaError,
    GroupValue,
    SkpValuation,
    ZeroPolyError,
    euclidean_expand,
    expansion,
    monic_divide,
    packed,
    parse_poly,
    poly,
    value_via_euclidean,
)
from skpval.fields import QQ
from skpval.poly import _tokenize, division_factor, exponent_width
from skpval.realize import random_polynomial

from conftest import CORPUS, acceptable_vectors, corpus, sample_polynomials
from oracles import long_divide


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

    @pytest.mark.parametrize("exps", [(1.5, 0), (1.0, 0), (True, 0), (0, "1"), (-1, 0)])
    def test_exponent_that_is_no_int_refused(self, exps):
        # an exponent is never truncated: (1.5, 0) is no X0
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly(2, {exps: 1})
        assert MultiPoly(2, {(1, 0): 1}) == P("X0")

    def test_from_reduced_keeps_the_terms(self):
        terms = {(1, 0): 2, (0, 2): Fraction(1, 3)}
        f = MultiPoly.from_reduced(2, terms)
        assert f.terms is terms
        assert f == MultiPoly(2, terms) == P("2*X0 + 1/3*X1^2")


class TestOrder:
    def test_min_total_degree(self):
        assert P("X0^2*X1 + X0^5").order() == 3

    def test_constant(self):
        assert P("1").order() == 0

    def test_single_term(self):
        assert P("X0^3*X1*X2^2", nvars=3).order() == 6

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolyError):
            MultiPoly.zero(2).order()

    def test_additive_under_product(self):
        rng = random.Random(5)
        for _ in range(80):
            f = random_poly(rng, 2, 4)
            g = random_poly(rng, 2, 4)
            if f.is_zero() or g.is_zero():
                continue
            assert (f * g).order() == f.order() + g.order()


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
            g = MultiPoly(2, {(0, dg): 1})
            for _ in range(rng.randint(0, 4)):
                exps = (rng.randint(0, 4), rng.randint(0, dg - 1))
                g = g + MultiPoly(2, {exps: Fraction(rng.randint(-4, 4))})
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

    @pytest.mark.parametrize(
        "text, prefix",
        [
            ("1" * 5000 + "/0", "bad rational literal '111111111111111111111...'"),
            ("X0 + " + "#" * 5001, "bad character at ' ####################...'"),
            ("(X0 " + "1" * 5000, "expected ')', got '111111111111111111111...'"),
            ("X" + "9" * 4000, "variable X99999999999999999999... out of range"),
            ("X" + "9" * 5000, "variable index 999999999999999999999... has too many digits"),
            ("X0^" + "9" * 5000, "exponent 999999999999999999999... has too many digits"),
        ],
        ids=["literal", "character", "expected", "variable", "variable-index", "exponent"],
    )
    def test_error_echoes_a_bounded_part_of_the_input(self, text, prefix):
        with pytest.raises(SchemaError) as info:
            P(text)
        assert str(info.value).startswith(prefix) and len(str(info.value)) < 80

    def test_parse_errors(self):
        for bad in ("", "X5", "X0 +", "2**X0", "X0^(2)"):
            with pytest.raises(PolyParseError):
                P(bad)

    @pytest.mark.parametrize("text", ["X\u0661^2", "\u0663*X0", "X0^\u0662", "X\uff11"])
    def test_digits_of_other_scripts_refused(self, text):
        # read as 0-9 they would silently name another variable or number
        with pytest.raises(PolyParseError, match="^bad character at"):
            P(text)

    def test_tokens_are_kind_and_text_pairs(self):
        assert _tokenize(" X1^2 - 3/2*X0") == [
            ("var", "X1"), ("op", "^"), ("num", "2"), ("op", "-"),
            ("num", "3/2"), ("op", "*"), ("var", "X0"),
        ]


def exact(p):
    """A polynomial's ring and terms, with each coefficient's type."""
    return p.nvars, p.field, sorted((e, type(c), c) for e, c in p.terms.items())


def assert_divides_like_oracle(f, g, i):
    try:
        want = long_divide(f, g, i)
    except NotMonicError:
        with pytest.raises(NotMonicError):
            monic_divide(f, g, i)
        return
    q, r = monic_divide(f, g, i)
    assert (exact(q), exact(r)) == tuple(exact(p) for p in want)


def random_monic(rng, nvars, i, field):
    """X_i^dg plus up to four lower terms, dg in 1..3."""
    dg = rng.randint(1, 3)
    exps = [0] * nvars
    exps[i] = dg
    g = MultiPoly(nvars, {tuple(exps): 1}, field)
    for _ in range(rng.randint(0, 4)):
        exps = [rng.randint(0, 4) for _ in range(nvars)]
        exps[i] = rng.randint(0, dg - 1)
        g = g + MultiPoly(nvars, {tuple(exps): rng.randint(-4, 4)}, field)
    return g


class TestDivisionOracle:
    """monic_divide returns exactly the whole-polynomial step loop's (q, rem)."""

    def test_roundtrip_500_inputs(self):
        # the dividends and divisors of TestMonicDivide.test_roundtrip_500
        rng = random.Random(2024)
        for _ in range(500):
            f = random_poly(rng, 2, 8)
            dg = rng.randint(1, 3)
            g = MultiPoly(2, {(0, dg): 1})
            for _ in range(rng.randint(0, 4)):
                exps = (rng.randint(0, 4), rng.randint(0, dg - 1))
                g = g + MultiPoly(2, {exps: Fraction(rng.randint(-4, 4))})
            assert_divides_like_oracle(f, g, 1)

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
    @pytest.mark.parametrize("nvars", [2, 3])
    def test_random_monic_divisors(self, field, nvars):
        rng = random.Random(97 + nvars)
        for _ in range(150):
            i = rng.randrange(nvars)
            g = random_monic(rng, nvars, i, field)
            f = random_polynomial(rng, nvars, 6, field)
            assert_divides_like_oracle(f, g, i)
            assert_divides_like_oracle(f * g + random_polynomial(rng, nvars, 4, field), g, i)

    def test_key_polynomial_divisors(self):
        rng = random.Random(41)
        for skp in map(corpus, CORPUS):
            for (i, _), entry in sorted(skp.entries.items()):
                g = entry.poly
                for _ in range(4):
                    f = random_polynomial(rng, skp.nvars, 5, skp.field)
                    assert_divides_like_oracle(f, g, i)
                    a = random_polynomial(rng, skp.nvars, 3, skp.field)
                    assert_divides_like_oracle(a * g + f, g, i)

    def test_not_monic_and_ring_checks(self):
        f = P("X1^3 + X0")
        for g in (P("2*X1 - X0"), P("X0*X1 - 1"), MultiPoly.zero(2)):
            assert_divides_like_oracle(f, g, 1)
        with pytest.raises(ValueError):
            monic_divide(f, P("X1", nvars=3), 1)
        with pytest.raises(ValueError):
            monic_divide(f, P("X1", field=GF(7)), 1)


def near_word(rng, nvars, i, bits, field):
    """A monomial whose exponents off X_i are 0 or within 8 of 2^bits."""
    exps = [0] * nvars
    for v in range(nvars):
        if v != i and rng.random() < 0.7:
            exps[v] = 2**bits + rng.randint(-8, 8)
    return MultiPoly(nvars, {tuple(exps): 1}, field)


class TestPackedDivision:
    """monic_divide packs its monomials at the width of the bound in the
    poly module docstring: no fixed word size, and no wider than needed."""

    @pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
    @pytest.mark.parametrize("bits", [16, 32, 64])
    def test_exponents_near_a_word(self, field, bits):
        rng = random.Random(bits)
        for _ in range(30):
            nvars = rng.choice((2, 3))
            i = rng.randrange(nvars)
            g = random_monic(rng, nvars, i, field)
            if rng.random() < 0.5:
                # a lower divisor term near the word multiplies W by about 2^bits
                xi = MultiPoly.variable(i, nvars, field)
                g = g + xi ** rng.randrange(g.deg_in(i)) * near_word(rng, nvars, i, bits, field)
            f = random_polynomial(rng, nvars, 4, field) * near_word(rng, nvars, i, bits, field)
            f = f + random_polynomial(rng, nvars, 4, field)
            assert_divides_like_oracle(f, g, i)
            assert_divides_like_oracle(f * g + f, g, i)

    @pytest.mark.parametrize("bits", [16, 32, 64])
    def test_remainder_at_the_bound(self, bits):
        # X1^4 by X1 - X0^W leaves X0^(4W) = W * totdeg(f), a power of two,
        # so the width is the least that holds it
        f = P("X1^4")
        g = MultiPoly(2, {(0, 1): 1, (2 ** (bits - 2), 0): -1})
        assert division_factor(g, 1) * f.degree() == 2**bits
        assert exponent_width(2**bits) == bits + 1
        q, r = monic_divide(f, g, 1)
        assert r == MultiPoly(2, {(2**bits, 0): 1})
        assert q * g + r == f
        assert_divides_like_oracle(f, g, 1)

    def test_division_factor(self):
        # ceil(|e| / (dg - k)) over the lower terms X^e * X_i^k, at least 1
        assert division_factor(P("X1^2 - X0^3"), 1) == 2
        assert division_factor(P("X1^3 - X0^5*X1 - X0"), 1) == 3
        assert division_factor(P("X1^2 + X0*X1"), 1) == 1
        assert division_factor(P("X1"), 1) == 1
        assert division_factor(MultiPoly.zero(2), 1) == 1


class TestDigitWidth:
    """A division packs the coefficients of each power of the digit
    variable at the digit width the bound in the poly module docstring
    proves: it starts at 32 bits and widens only before a step whose bound
    would pass 2^(width - 1), so a wider width, or a narrower one that
    overflows, fails here."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The quotient and remainder splits of every division, and the
        number of ints widened."""
        seen = {"splits": [], "widened": 0}
        divide, widen = packed.divide_split, packed.widen

        def counted_divide(rem, divisor):
            q, r = divide(rem, divisor)
            seen["splits"] += [q, r]
            return q, r

        def counted_widen(*args):
            seen["widened"] += 1
            return widen(*args)

        for module in (poly, expansion):
            monkeypatch.setattr(module, "divide_split", counted_divide)
        monkeypatch.setattr(packed, "widen", counted_widen)
        return seen

    @staticmethod
    def assert_bounded(g):
        """Every digit of the split, at its slice's width, is at most its
        bound, which is below 2^(width - 1) at the split's width."""
        assert g.bound < 2 ** (g.width - 1)
        for k, slab in g.items():
            width = (g.widths or {}).get(k, g.width)
            for x in slab.values():
                assert max(map(abs, packed.digits(x, width))) <= g.bound

    @pytest.mark.parametrize("name", ["remark_diffskp", "remark_diffskp_gf7", "example2"])
    def test_pool_sized_inputs_keep_the_starting_width(self, seen, name):
        # the sizes of the benchmark's pool on two-variable tables: total
        # degree up to 12, up to 5 terms with small coefficients
        skp = corpus(name)
        v = SkpValuation(skp)
        rng = random.Random(12)
        for _ in range(30):
            value_via_euclidean(random_polynomial(rng, skp.nvars, 12, skp.field), v)
        assert {g.width for g in seen["splits"]} == {32}
        assert seen["widened"] == 0
        for g in seen["splits"]:
            self.assert_bounded(g)

    @pytest.mark.parametrize("theta, widens", [("1e30", True), ("half", False)])
    def test_theta_divisions_are_the_long_division(self, seen, theta, widens):
        # theta 10^30 makes U_{1,3} = X1^2 - 10^30 * X0^3 * X1 - X0^3: each
        # step by it multiplies the bound by 10^30 + 1, past the starting
        # width's limit within two steps; theta 1/2 makes each step a
        # pseudo-division by 2 * U_{1,3}
        skp = corpus(f"remark_diffskp_theta_{theta}")
        g = skp.entries[(1, 3)].poly
        rng = random.Random(30)
        for _ in range(20):
            f = random_polynomial(rng, skp.nvars, 8)
            assert_divides_like_oracle(f, g, 1)
            assert_divides_like_oracle(f * g + f, g, 1)
        assert (max(g.width for g in seen["splits"]) > 32) == bool(seen["widened"]) == widens
        for g in seen["splits"]:
            self.assert_bounded(g)

    @pytest.mark.parametrize("theta", ["1e30", "half"])
    def test_walks_stay_bounded(self, seen, theta):
        # every split of the Euclidean walks at every cutoff vector, the
        # quotients of pseudo-divisions by 2 * U_{1,3} included
        skp = corpus(f"remark_diffskp_theta_{theta}")
        rng = random.Random(7)
        for alpha in acceptable_vectors(skp):
            v = SkpValuation(skp, alpha)
            for f in sample_polynomials(rng, skp, alpha, 20):
                value_via_euclidean(f, v)
                euclidean_expand(f, v)
        for g in seen["splits"]:
            self.assert_bounded(g)

    def test_a_slowly_growing_bound_widens_in_time(self, seen):
        # dividing X1^200 by U_{1,3} = X1^2 - X0^3*X1 - X0^3 at least doubles
        # the bound at each step, so it passes 2^31 with no jump past it
        v = SkpValuation(corpus("remark_diffskp"))
        assert value_via_euclidean(P("X1^200 + X0"), v) == GroupValue(2)
        assert seen["widened"]
        for g in seen["splits"]:
            self.assert_bounded(g)


def to_sympy(f, symbols):
    import sympy

    total = sympy.Integer(0)
    for e, c in f.terms.items():
        c = c if f.field == QQ else Fraction(c)
        term = sympy.Rational(c.numerator, c.denominator)
        for x, k in zip(symbols, e):
            term *= x**k
        total += term
    return total


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_monic_divide_matches_sympy(field):
    """Over Q, sympy divides in X_i over QQ[other variables]; over GF(7),
    reduction by g in lex order with X_i first is the same division, since
    g's leading term there is X_i^dg."""
    sympy = pytest.importorskip("sympy")
    opts = {} if field == QQ else {"modulus": field.p}
    rng = random.Random(1234)
    for _ in range(30):
        nvars = rng.choice((2, 3))
        symbols = sympy.symbols(f"x0:{nvars}")
        i = rng.randrange(nvars)
        others = [x for k, x in enumerate(symbols) if k != i]
        g = random_monic(rng, nvars, i, field)
        f = random_polynomial(rng, nvars, 6, field) * random_polynomial(rng, nvars, 2, field)
        sf, sg = to_sympy(f, symbols), to_sympy(g, symbols)
        if field == QQ:
            domain = sympy.QQ[tuple(others)]
            sq, sr = sympy.Poly(sf, symbols[i], domain=domain).div(
                sympy.Poly(sg, symbols[i], domain=domain)
            )
            sq, sr = sq.as_expr(), sr.as_expr()
        else:
            (sq,), sr = sympy.reduced(sf, [sg], symbols[i], *others, order="lex", **opts)
        q, r = monic_divide(f, g, i)
        for ours, theirs in ((q, sq), (r, sr)):
            assert sympy.Poly(to_sympy(ours, symbols) - theirs, *symbols, **opts).is_zero


def assert_same_as_sympy(ours, theirs, symbols, field):
    """ours equals the rational expression theirs, read in ``field``: over
    GF(p) every coefficient of the difference has a numerator divisible by p
    (the denominators drawn are below p)."""
    import sympy

    diff = sympy.Poly(to_sympy(ours, symbols) - theirs, *symbols, domain="QQ")
    modulus = 0 if field == QQ else field.p
    assert all(c.p % modulus == 0 if modulus else c == 0 for c in diff.coeffs())


def random_text(rng, depth):
    """Polynomial text over X0..X2 with rationals, powers, unary minus and
    nested parentheses."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(
            ["X0", "X1", "X2", str(rng.randint(0, 9)), f"{rng.randint(1, 9)}/{rng.randint(1, 6)}"]
        )
    a, b = random_text(rng, depth - 1), random_text(rng, depth - 1)
    form = rng.choice(["({}) + {}", "{} - ({})", "({}) * ({})", "-({}) * {}", "({})^{}"])
    if form == "({})^{}":
        return form.format(a, rng.randint(0, 3))
    return form.format(a, b)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_ring_operations_match_sympy(field):
    """+, -, * and ** agree with sympy's arithmetic over QQ, read in the field."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("x0:3")
    rng = random.Random(4321)
    for _ in range(40):
        f = random_polynomial(rng, 3, 4, field).scale(Fraction(rng.randint(1, 5), rng.randint(1, 6)))
        g = random_polynomial(rng, 3, 4, field)
        k = rng.randint(0, 4)
        sf, sg = to_sympy(f, symbols), to_sympy(g, symbols)
        for ours, theirs in ((f + g, sf + sg), (f - g, sf - sg), (f * g, sf * sg), (f**k, sf**k)):
            assert_same_as_sympy(ours, theirs, symbols, field)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_parse_poly_matches_sympy(field):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols("x0:3")
    names = {f"X{i}": x for i, x in enumerate(symbols)}
    rng = random.Random(8765)
    for _ in range(60):
        text = random_text(rng, 4)
        theirs = sympy.sympify(text.replace("^", "**"), locals=names)
        assert_same_as_sympy(P(text, 3, field), theirs, symbols, field)


class TestPrimality:
    def test_agrees_with_trial_division(self):
        from skpval.fields import is_prime

        def trial(p):
            return p >= 2 and all(p % q for q in range(2, int(p**0.5) + 1))

        assert all(is_prime(p) == trial(p) for p in range(-3, 20000))
        rng = random.Random(17)
        for _ in range(300):
            p = rng.randrange(10**9, 10**10)
            assert is_prime(p) == trial(p)

    def test_strong_pseudoprimes_and_large_primes(self):
        from skpval.fields import is_prime

        # the least strong pseudoprimes to the first k prime bases, k = 1..12
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051,
                  318665857834031151167461):
            assert not is_prime(n)
        assert is_prime(1000000000000000003) and is_prime(2**61 - 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))
